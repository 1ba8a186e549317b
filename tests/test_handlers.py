"""No vdk module catches every error: no bare `except:` and no handler
naming Exception or BaseException, so a failure is never swallowed.

Stdlib ast only.  selftest.run is exempt: its job is to report every
failing check, whatever the check raises.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "vdk"
MODULES = sorted(SRC.glob("*.py"))
EXEMPT = {"selftest.py": {"run"}}
CATCH_ALL = {"Exception", "BaseException"}


def catch_all_handlers(text: str, exempt=frozenset()) -> list[str]:
    """'line N' for each catch-all handler outside the functions named in exempt."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.ExceptHandler) and function not in exempt:
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            if any(t is None or (isinstance(t, ast.Name) and t.id in CATCH_ALL) for t in caught):
                found.append("line %d" % node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(text), None)
    return found


def test_the_check_sees_a_catch_all():
    text = (
        "def f():\n"
        "    try:\n        g()\n    except:\n        pass\n"
        "    try:\n        g()\n    except (KeyError, Exception):\n        pass\n"
        "    try:\n        g()\n    except BaseException as e:\n        pass\n"
        "    try:\n        g()\n    except KeyError:\n        pass\n"
        "def run():\n"
        "    try:\n        g()\n    except Exception:\n        pass\n"
    )
    assert catch_all_handlers(text) == ["line 4", "line 8", "line 12", "line 21"]
    assert catch_all_handlers(text, {"run"}) == ["line 4", "line 8", "line 12"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_catches_no_error_class_wholesale(path):
    assert catch_all_handlers(path.read_text(), EXEMPT.get(path.name, frozenset())) == []
