"""No module imports a name it never uses.

Every module of ``src/qthresh`` and every test module is parsed with
``ast``.  Each name an import binds must appear elsewhere in the module as a
name, which covers the base of an attribute such as ``np.zeros``.
"""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "qthresh").glob("*.py"))
MODULES += sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    bound: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:  # ``import a.b`` binds ``a``
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return [f"line {line}: {name}" for name, line in sorted(bound.items(), key=lambda kv: kv[1])
            if name not in used]


def test_checker_flags_an_unused_import():
    source = "import math\nimport numpy as np\nfrom os import path, sep\nnp.zeros(path)\n"
    assert unused_imports(source) == ["line 1: math", "line 3: sep"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
