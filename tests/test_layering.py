"""Storage is known only to ``core``: no other module of the package reads
a storage field or calls a rank-storage helper."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "slat"
STORAGE_ATTRS = {"_masks", "_trunc", "_mask", "_id", "table"}
STORAGE_NAMES = {"_trunc_rank", "_trunc_unrank", "_cube"}


def _storage_uses(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in STORAGE_ATTRS:
            yield node.lineno, "." + node.attr
        elif isinstance(node, ast.Name) and node.id in STORAGE_NAMES:
            yield node.lineno, node.id
        elif isinstance(node, ast.alias) and node.name in STORAGE_NAMES:
            yield node.lineno, node.name


@pytest.mark.parametrize("path", sorted(p.name for p in SRC.glob("*.py")
                                        if p.name != "core.py"))
def test_only_core_reads_storage(path):
    tree = ast.parse((SRC / path).read_text(encoding="utf-8"))
    assert list(_storage_uses(tree)) == []
