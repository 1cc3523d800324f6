"""The modules of andbox import only modules below them.

Each module may import, relatively, only modules earlier in LAYERS, so
the package has no import cycle and a module can call everything below
it: orders, for one, calls the block-wise construction of constructors.
The package entry points are exempt: __init__ re-exports every layer,
__main__ starts the cli, and _kernels_py re-exports the kernel.
"""

import ast
from pathlib import Path

import andbox

LAYERS = (
    "graphs",
    "kernels",
    "realization",
    "families",
    "constructors",
    "orders",
    "feasibility",
    "boxes",
    "svg",
    "fileio",
    "cli",
)
EXEMPT = {"__init__", "__main__", "_kernels_py"}
PACKAGE = Path(andbox.__file__).parent


def relative_imports(tree):
    """The andbox modules a module's relative imports name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                yield node.module.split(".")[0]
            else:  # from . import kernels
                yield from (alias.name for alias in node.names)


def test_every_module_has_a_layer():
    modules = {p.stem for p in PACKAGE.glob("*.py")}
    assert modules - EXEMPT == set(LAYERS)


def test_imports_point_down():
    upward = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem in EXEMPT:
            continue
        rank = LAYERS.index(path.stem)
        for name in relative_imports(ast.parse(path.read_text())):
            if name not in LAYERS[:rank]:
                upward.append(f"{path.stem} imports {name}")
    assert upward == []


def test_relative_imports_are_read():
    tree = ast.parse("from .orders import rank_bounds\nfrom . import kernels, cli\n")
    assert list(relative_imports(tree)) == ["orders", "kernels", "cli"]
