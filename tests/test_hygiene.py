"""Source hygiene of the package: no module imports a name it never reads, and
only ``algebra`` symmetrizes."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "dualstab"
MODULES = sorted(SRC.glob("*.py"))


def unused_imports(path):
    """{name: noqa} of each name a module imports and never reads.

    ``noqa`` is True when the import statement carries ``# noqa: F401``, the
    mark of a deliberate re-export.  ``from __future__`` imports are skipped.
    """
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    tree = ast.parse(text)
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        statement = lines[node.lineno - 1 : node.end_lineno]
        noqa = any("# noqa: F401" in line for line in statement)
        for alias in node.names:
            imported[(alias.asname or alias.name).split(".")[0]] = noqa
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return {name: noqa for name, noqa in imported.items() if name not in read}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_imported_name_is_read(path):
    unused = unused_imports(path)
    assert [name for name, noqa in unused.items() if not noqa] == []


def test_the_only_reexport():
    # models re-exports error_norms, which bench/layers.py traces there
    exempt = {f"{p.stem}.{n}" for p in MODULES for n, noqa in unused_imports(p).items() if noqa}
    assert exempt == {"models.error_norms"}


def transpose_sums(path):
    """Line of each sum ``x + x.T`` (or ``x.T + x``) a module forms."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
            pairs = ((node.left, node.right), (node.right, node.left))
            if any(
                isinstance(t, ast.Attribute) and t.attr == "T" and ast.dump(t.value) == ast.dump(x)
                for x, t in pairs
            ):
                lines.append(node.lineno)
    return lines


def test_only_algebra_symmetrizes():
    # every formed product goes through algebra.symmetrized, whose halves do
    # not overflow near the float maximum, as a bare x + x.T does
    found = [f"{p.stem}:{line}" for p in MODULES if p.stem != "algebra" for line in transpose_sums(p)]
    assert found == []


# the nested-mesh structure of models' prolongation and constraint form
MESH_NAMES = {"fold", "cell_stops", "ratio", "row_slabs"}


def mesh_reads(path):
    """(line, receiver, name) of each read of a MESH_NAMES attribute in a module.

    A read is ``x.name`` or a ``getattr``/``hasattr`` of the name as a string.
    """
    reads = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Attribute) and node.attr in MESH_NAMES:
            reads.append((node.lineno, ast.unparse(node.value), node.attr))
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("getattr", "hasattr")
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
            and node.args[1].value in MESH_NAMES
        ):
            reads.append((node.lineno, ast.unparse(node.args[0]), node.args[1].value))
    return reads


def test_only_models_reads_the_mesh_structure():
    # qo.ratio is the quasi-optimality ratio of a solve, which cli reports
    found = [
        f"{p.stem}:{line} {receiver}.{name}"
        for p in MODULES
        if p.stem != "models"
        for line, receiver, name in mesh_reads(p)
        if (receiver, name) != ("qo", "ratio")
    ]
    assert found == []
