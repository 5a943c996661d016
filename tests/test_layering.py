"""The arithmetic layers (words, free products, gaps, verbal sets) import
nothing from the rational-set layers built on them, directly or through
another module of the package, and importing one at run time loads none
of them."""
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import freerat

SRC = Path(freerat.__file__).parent
ARITHMETIC = ("words", "freeprod", "gaps", "verbal")
RATIONAL = {"signs", "automata", "ratexpr", "refuter"}


def _package_imports(path: Path) -> set[str]:
    """The freerat modules a source file imports, by short name."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = "freerat" if node.level else node.module or ""
            if node.level and node.module:
                base += "." + node.module
            # ``from freerat import signs`` imports the module signs
            names = [base] + [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        for name in names:
            parts = name.split(".")
            if parts[0] == "freerat" and len(parts) > 1 and (SRC / f"{parts[1]}.py").is_file():
                out.add(parts[1])
    return out


GRAPH = {path.stem: _package_imports(path) for path in SRC.glob("*.py")}


def test_the_import_graph_covers_the_package():
    assert set(ARITHMETIC) | RATIONAL | {"cli", "errors"} <= set(GRAPH)
    assert "signs" in GRAPH["cli"] and "freeprod" in GRAPH["gaps"]


@pytest.mark.parametrize("module", ARITHMETIC)
def test_arithmetic_layer_imports_no_rational_layer(module):
    reached, todo = set(), [module]
    while todo:
        for name in GRAPH[todo.pop()] - reached:
            reached.add(name)
            todo.append(name)
    assert not reached & RATIONAL, sorted(reached & RATIONAL)


@pytest.mark.parametrize("module", ARITHMETIC)
def test_arithmetic_layer_loads_no_rational_layer(module):
    # a fresh interpreter, so that no module loaded by another test counts
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))}
    code = (
        f"import sys, freerat.{module}; "
        "print(' '.join(n.split('.')[1] for n in sys.modules if n.startswith('freerat.')))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    loaded = set(proc.stdout.split())
    assert module in loaded
    assert not loaded & RATIONAL, sorted(loaded & RATIONAL)
