"""The modules of andbox import only modules below them.

Each module may import, relatively, only modules earlier in LAYERS, so
the package has no import cycle and a module can call everything below
it: orders, for one, calls the block-wise construction of constructors.
The package entry points are exempt: __init__ re-exports every layer,
__main__ starts the cli, and _kernels_py re-exports the kernel.

Every function and class the package defines is named somewhere in the
package, its tests or its benchmark, so no definition is dead.
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


def names_used(tree):
    """Every name a module reads, loads as an attribute or imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.split(".")[-1]


def test_every_definition_is_used():
    root = PACKAGE.parent.parent
    used = set()
    for pattern in ("src/andbox/*.py", "tests/**/*.py", "perfbench/**/*.py"):
        for path in root.glob(pattern):
            used.update(names_used(ast.parse(path.read_text())))
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = node.name
                if not (name.startswith("__") and name.endswith("__")) and name not in used:
                    unused.append(f"{path.stem}.{name}")
    assert unused == []


def test_names_used_are_read():
    tree = ast.parse("import a.b as c\nfrom .x import y\nf(z.w)\n")
    assert set(names_used(tree)) == {"b", "y", "f", "z", "w"}
