"""Every name a vdk module or a test module imports at module level is
used in that module.

Stdlib ast only.  vdk/__init__.py re-exports by design and is exempt, as
is any import statement marked `# noqa: F401`.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "vdk"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
MODULES += sorted(TESTS.glob("*.py"))


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
