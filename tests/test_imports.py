"""Imports.

- Every name a vdk module or a test module imports at module level is
  used in that module.  An import statement marked `# noqa: F401` is
  exempt.
- `import vdk` loads each submodule on the first use of one of its
  names, and the CLI loads groupoid, tails and selftest only for their
  own commands: fresh interpreters report what they loaded.
- The package's export table hands out each name's own object, and its
  names are the public names of the package as they stood when the
  table replaced the eager imports.
- An import statement inside a function appears only in a CLI handler,
  so the laziness stays in the package facade and the CLI, out of the
  library.

Stdlib ast and subprocess only.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import vdk

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "vdk"
LIBRARY = sorted(SRC.glob("*.py"))
MODULES = LIBRARY + sorted(TESTS.glob("*.py"))


def unused_imports(text: str) -> list[str]:
    lines = text.splitlines()
    tree = ast.parse(text)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used:
                unused.append("line %d: %s" % (node.lineno, name))
    return unused


def test_the_check_sees_an_unused_import():
    text = "from .a import b, c\nimport os\nimport sys  # noqa: F401\n\nprint(c)\n"
    assert unused_imports(text) == ["line 1: b", "line 2: os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


# ---------------------------------------------------------------------------
# what a fresh interpreter loads


def loaded_after(code: str) -> set[str]:
    """The vdk modules a fresh interpreter holds after running code."""
    src = os.path.dirname(os.path.dirname(vdk.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    report = "\nimport sys\nprint(' '.join(m for m in sys.modules if m.split('.')[0] == 'vdk'))"
    run = subprocess.run(
        [sys.executable, "-c", code + report],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert run.returncode == 0, run.stderr
    return set(run.stdout.splitlines()[-1].split())


FOOTPRINTS = [
    (
        "import vdk.cli\n"
        "from vdk import convolution_count, fixture\n"
        "vdk.cli.main(['certificate', 'check', '--k', '2', '--nu', '1:11'])\n"
        "convolution_count(fixture('free2')[0], 8)",
        {"vdk.cli", "vdk.certificate"},
        {"vdk.groupoid", "vdk.tails", "vdk.sampling", "vdk.selftest"},
    ),
    (
        "import vdk.cli\nvdk.cli.main(['tail', 'related', '(1)^inf', '2(1)^inf'])",
        {"vdk.tails"},
        {"vdk.selftest", "vdk.sampling"},
    ),
]


@pytest.mark.parametrize("code, loads, skips", FOOTPRINTS, ids=["check", "tail"])
def test_a_fresh_interpreter_loads_only_what_it_uses(code, loads, skips):
    loaded = loaded_after(code)
    assert loads <= loaded
    assert not skips & loaded


def test_import_vdk_loads_no_submodule_but_errors():
    assert loaded_after("import vdk") - {"vdk", "vdk.errors"} == set()


# ---------------------------------------------------------------------------
# the export table

PUBLIC_NAMES = [
    "Alphabet", "ArityMismatch", "Bisection", "BoxTable", "CertificateInvalid",
    "CertificateReport", "Clopen", "DisjointnessViolation", "DoubleCylinder",
    "InclusionViolation", "IncompleteBoxes", "IncompleteDomain", "IncompleteRange",
    "InconclusiveParameters", "MismatchedAlphabet", "NormBound", "NotFull", "NotRelated",
    "NotSymmetric", "OverlappingBoxes", "OverlappingDomain", "OverlappingRange",
    "PingPongCertificate", "Point", "QuadraticValue", "SymmetricSet", "TableElement",
    "TailWitness", "TransportImpossible", "VdkError", "Word", "act_clopen", "act_point",
    "bisection_act", "bisection_compose", "bisection_inverse", "check_certificate",
    "clopen_normalize", "cocycle_chain_check", "cocycle_range", "compose", "convolution_count",
    "deficit", "embed_supported", "empty_clopen", "equals", "finite_level_related", "fixture",
    "format_bisection", "format_clopen", "format_point", "format_table", "format_word",
    "free_norm", "from_table", "germ_maps", "identity", "integral_sqrt_rn", "inverse",
    "is_full", "make_bisection", "make_table", "member", "mu", "mv_act", "mv_compose",
    "mv_embed_factor", "mv_from_json", "mv_identity", "mv_inverse", "mv_make", "mv_to_json",
    "orbit_fragment", "parse_bisection", "parse_clopen", "parse_point", "parse_table",
    "parse_word", "pingpong_verify", "point_normalize", "probe_points", "quad_compare",
    "quadratic", "related", "rn_exponent", "rn_profile", "split", "sqrt_int", "support",
    "symmetric_set", "to_table", "transporter", "whole_space", "witness_cell", "witness_holds",
]


def test_all_is_the_pinned_public_names():
    assert vdk.__all__ == PUBLIC_NAMES


@pytest.mark.parametrize("module, names", sorted(vdk._EXPORTS.items()))
def test_each_name_is_its_home_modules_object(module, names):
    home = importlib.import_module("vdk." + module)
    for name in names:
        assert getattr(vdk, name) is getattr(home, name), name


def test_dir_lists_every_name():
    assert set(vdk.__all__) <= set(dir(vdk))
    assert "__version__" in dir(vdk)


def test_an_unknown_name_is_an_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        vdk.no_such_name


# ---------------------------------------------------------------------------
# imports inside functions


def imports_in_functions(text: str) -> list[tuple[str, int]]:
    """(outermost function, line) of each import statement in a function."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Import, ast.ImportFrom)) and function:
                found.append((function, child.lineno))
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, function or (child.name if inner else None))

    visit(ast.parse(text), None)
    return found


def test_the_guard_sees_an_import_in_a_function():
    text = "import os\n\ndef f():\n    import re\n    def g():\n        from . import x\n"
    assert imports_in_functions(text) == [("f", 4), ("f", 6)]


@pytest.mark.parametrize("path", LIBRARY, ids=lambda p: p.name)
def test_only_cli_handlers_import_inside_a_function(path):
    found = imports_in_functions(path.read_text())
    if path.name == "cli.py":
        found = [(f, line) for f, line in found if not f.startswith("h_")]
    assert found == []
