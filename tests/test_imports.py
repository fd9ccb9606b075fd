"""No module imports a name it never uses, no public name of the package goes unused, and
each command imports only the modules it runs.

Every module of ``src/qthresh`` and every test module is parsed with
``ast``.  Each name an import binds must appear elsewhere in the module as a
name, which covers the base of an attribute such as ``np.zeros``.  Each
public top-level function and class of ``src/qthresh`` must be named, as a
name or an attribute, somewhere in the package outside its own definition:
API that only tests call is either wired into the program or deleted.

Each answer is one fresh process, which compiles every module it imports
when bytecode is not cached, so each command is run in a fresh interpreter
and the ``qthresh`` modules it leaves loaded are compared with its own set.
"""
import ast
import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "qthresh").glob("*.py"))
MODULES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))


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


def unreferenced_public_names(sources: dict[str, str]) -> list[str]:
    """``module: name`` for each public top-level def or class no module names outside that def."""
    defined: dict[str, str] = {}
    used: set[str] = set()
    for module, source in sources.items():
        for top in ast.parse(source).body:
            own = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
            if own is not None and not own.startswith("_"):
                defined[own] = module
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and node.id != own:
                    used.add(node.id)
                elif isinstance(node, ast.Attribute) and node.attr != own:
                    used.add(node.attr)
    return [f"{module}: {name}" for name, module in defined.items() if name not in used]


def test_checker_flags_an_unreferenced_public_name():
    sources = {
        "a.py": 'def used():\n    """unused is named here only in text"""\n\ndef unused():\n    return unused()\n',
        "b.py": "class Base:\n    pass\n\nclass Leaf(Base):\n    pass\n\ndef _private():\n    a.used()\n",
    }
    assert unreferenced_public_names(sources) == ["a.py: unused", "b.py: Leaf"]


def test_every_public_name_of_the_package_is_used_in_it():
    sources = {path.name: path.read_text(encoding="utf-8") for path in PACKAGE}
    assert unreferenced_public_names(sources) == []


# Runs one command in this interpreter, then prints its exit code and the qthresh modules loaded.
PROBE = ("import json, sys, qthresh.cli; code = qthresh.cli.main(sys.argv[1:]); "
         "print(json.dumps([code, sorted(m for m in sys.modules if m.startswith('qthresh.'))]))")
TRIBES = ["--family", "tribes", "--q", "3", "--n", "4", "--p0", "0.5", "--r", "2"]
EVAL = {"cli", "functions", "measures", "evaluate"}


def test_each_command_compiles_only_its_modules(tmp_path):
    cases = {
        "eval exact": (["eval", *TRIBES, "--mu", "0.5,0.25,0.25", "--a", "0"], EVAL),
        "eval closed": (["eval", *TRIBES, "--mu", "0.5,0.25,0.25", "--a", "0", "--evaluator", "closed"], EVAL),
        "eval mc": (["eval", *TRIBES, "--mu", "0.5,0.25,0.25", "--a", "0", "--evaluator", "mc",
                     "--samples", "100", "--seed", "1"], EVAL),
        "influence": (["influence", *TRIBES, "--level", "0", "--mu", "0.5,0.25,0.25"], EVAL | {"influence"}),
        "width": (["width", *TRIBES, "--a", "0", "--eps", "0.1"], EVAL | {"threshold"}),
        "width --diagnostics": (["width", *TRIBES, "--level", "0", "--a", "1", "--eps", "0.1", "--diag-grid", "3",
                                 "--diagnostics", str(tmp_path / "d.csv")], EVAL | {"threshold", "influence"}),
        "region": (["region", *TRIBES, "--a", "0", "--eps", "0.1", "--samples", "10", "--evaluator", "closed",
                    "--seed", "1"], EVAL | {"threshold"}),
        "sweep": (["sweep", "--q", "3", "--p0", "0.5", "--n-list", "1024"], EVAL | {"threshold"}),
        "verify --suite hent": (["verify", "--suite", "hent"], EVAL | {"influence", "verification"}),
        "verify --suite closed": (["verify", "--suite", "closed"], EVAL | {"verification"}),
        "verify": (["verify"], EVAL | {"threshold", "influence", "verification"}),
    }
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}

    def loaded(argv):
        proc = subprocess.run([sys.executable, "-c", PROBE, *argv], env=env, capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        code, modules = json.loads(proc.stdout.splitlines()[-1])
        return code, {m.removeprefix("qthresh.") for m in modules}

    with ThreadPoolExecutor(max_workers=2) as pool:
        got = dict(zip(cases, pool.map(loaded, [argv for argv, _ in cases.values()])))
    assert got == {name: (0, want) for name, (_, want) in cases.items()}


# Registered before the import, so it runs after any exit handler the import registers (they run last in, first out).
FREEZE_PROBE = "import atexit, gc; atexit.register(lambda: print(gc.get_freeze_count())); import {}"


def test_only_the_entry_module_freezes_the_heap_at_exit():
    modules = {"cli": "qthresh.cli",
               "library": "qthresh.evaluate, qthresh.threshold, qthresh.influence, qthresh.verification"}
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}

    def frozen_at_exit(names):
        proc = subprocess.run([sys.executable, "-c", FREEZE_PROBE.format(names)], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return int(proc.stdout)

    with ThreadPoolExecutor(max_workers=2) as pool:
        got = dict(zip(modules, pool.map(frozen_at_exit, modules.values())))
    assert got["cli"] > 0
    assert got["library"] == 0
