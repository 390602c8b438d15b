"""No code picks its behaviour by a catalog entry's name.

Each entry carries its own maps (``value_kernel.domain_points``, ``prox``,
``resolvent`` and the rest), so a branch on ``f.name == "burg"`` repeats
what the entry already knows, and a new entry would need a branch at each
such site.  The scan parses the package and the test suite and fails on
any ``if``, ``elif`` or conditional expression whose test compares an
``<expr>.name`` with a catalog name.  Assertions on a name are not branches
and pass.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
ENTRY_NAMES = {"energy", "subspace", "burg", "shannon", "rotator"}


def _strings(node):
    """The string constants of node: itself, or the items of a tuple, list or set."""
    items = node.elts if isinstance(node, (ast.Tuple, ast.List, ast.Set)) else [node]
    return {i.value for i in items if isinstance(i, ast.Constant) and isinstance(i.value, str)}


def _compares_an_entry_name(test):
    for node in ast.walk(test):
        if isinstance(node, ast.Compare):
            sides = [node.left, *node.comparators]
            if any(isinstance(side, ast.Attribute) and side.attr == "name" for side in sides):
                if any(_strings(side) & ENTRY_NAMES for side in sides):
                    return True
    return False


def name_branches(source):
    """The line numbers of the name branches of ``source``."""
    return sorted(
        {
            node.lineno
            for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.If, ast.IfExp)) and _compares_an_entry_name(node.test)
        }
    )


@pytest.mark.parametrize(
    "source, lines",
    [
        ('if f.name == "burg":\n    pass\n', [1]),
        ('if x:\n    pass\nelif A.name != "shannon":\n    pass\n', [3]),
        ('y = 1 if op.inverse().name in ("energy", "rotator") else 2\n', [1]),
        ('assert f.name == "burg"\n', []),
        ('if field.name == "fitzpatrick":\n    pass\n', []),
        ('if name == "subspace":\n    pass\n', []),
    ],
)
def test_the_scan_finds_name_branches(source, lines):
    assert name_branches(source) == lines


def test_no_branch_on_a_catalog_name():
    paths = sorted((ROOT / "src" / "proxgap").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    found = [
        f"{path.relative_to(ROOT)}:{line}"
        for path in paths
        for line in name_branches(path.read_text())
    ]
    assert found == []
