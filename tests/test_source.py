"""Rules on the lab's own source: no field of a result type is kept for tests alone."""

import ast
import pathlib

import expanderlab

SRC = pathlib.Path(expanderlab.__file__).parent

# (class, field) of the dataclass fields that no code in the package reads
UNREAD_FIELDS = {
    # the benchmark's gate counts flagged oracle targets through it, by a
    # getattr that would read a missing field as no flags at all
    ("ReducedField", "oracle_flags"),
}


def _names_dataclass(decorator) -> bool:
    node = decorator.func if isinstance(decorator, ast.Call) else decorator
    return (node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)) == "dataclass"


def unread_dataclass_fields(src=SRC) -> set:
    """(class, field) of every @dataclass field in src/*.py whose name no
    attribute load in src/*.py reads."""
    trees = [ast.parse(path.read_text()) for path in sorted(pathlib.Path(src).glob("*.py"))]
    loads = {node.attr for tree in trees for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return {(cls.name, stmt.target.id)
            for tree in trees for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef) and any(map(_names_dataclass, cls.decorator_list))
            for stmt in cls.body
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
            and stmt.target.id not in loads}


def test_every_dataclass_field_has_a_reader_in_src():
    assert unread_dataclass_fields() == UNREAD_FIELDS
