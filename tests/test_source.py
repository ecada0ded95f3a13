"""Rules on the lab's own source: nothing it computes is kept for tests alone.

Every dataclass field, every string key of a returned dict literal and every
attribute stored on `self` in src/ has a reader in src/, apart from the
allowlists below.
"""

import ast
import pathlib
import textwrap

import expanderlab

SRC = pathlib.Path(expanderlab.__file__).parent

# (class, field) of the dataclass fields that no code in the package reads
UNREAD_FIELDS = {
    # the benchmark's gate counts flagged oracle targets through it, by a
    # getattr that would read a missing field as no flags at all
    ("ReducedField", "oracle_flags"),
}

# (class, attribute) of the attributes stored on self that no code in the package reads
UNREAD_ATTRIBUTES = {
    # fault data of an exception, for the code that catches it
    ("OdeFailure", "t_last"),
    ("OdeFailure", "y_last"),
    ("EigenFailure", "residual_history"),
}


def _trees(src):
    return [ast.parse(path.read_text()) for path in sorted(pathlib.Path(src).glob("*.py"))]


def _attribute_loads(trees) -> set:
    return {node.attr for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def _owned(node, kinds, owner=None):
    """(name of the innermost enclosing node of the types kinds, node) for
    every node below node."""
    for child in ast.iter_child_nodes(node):
        yield owner, child
        yield from _owned(child, kinds, child.name if isinstance(child, kinds) else owner)


def _names_dataclass(decorator) -> bool:
    node = decorator.func if isinstance(decorator, ast.Call) else decorator
    return (node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)) == "dataclass"


def unread_dataclass_fields(src=SRC) -> set:
    """(class, field) of every @dataclass field in src/*.py whose name no
    attribute load in src/*.py reads."""
    trees = _trees(src)
    loads = _attribute_loads(trees)
    return {(cls.name, stmt.target.id)
            for tree in trees for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef) and any(map(_names_dataclass, cls.decorator_list))
            for stmt in cls.body
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
            and stmt.target.id not in loads}


def unread_returned_keys(src=SRC) -> set:
    """(function, key) of every string key of a dict literal that a function
    in src/*.py returns, where the key is no other string constant in
    src/*.py: not a subscript such as res["end"], nor an item of a key tuple."""
    trees = _trees(src)
    returned = [(fn, key) for tree in trees
                for fn, node in _owned(tree, (ast.FunctionDef, ast.AsyncFunctionDef))
                if isinstance(node, ast.Return) and isinstance(node.value, ast.Dict)
                for key in node.value.keys
                if isinstance(key, ast.Constant) and isinstance(key.value, str)]
    keys = {id(key) for _, key in returned}
    constants = {node.value for tree in trees for node in ast.walk(tree)
                 if isinstance(node, ast.Constant) and isinstance(node.value, str)
                 and id(node) not in keys}
    return {(fn, key.value) for fn, key in returned if key.value not in constants}


def unread_self_attributes(src=SRC) -> set:
    """(class, attribute) of every attribute stored on self in src/*.py whose
    name no attribute load in src/*.py reads."""
    trees = _trees(src)
    loads = _attribute_loads(trees)
    return {(cls, node.attr) for tree in trees for cls, node in _owned(tree, ast.ClassDef)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
            and isinstance(node.value, ast.Name) and node.value.id == "self"
            and node.attr not in loads}


def test_every_dataclass_field_has_a_reader_in_src():
    assert unread_dataclass_fields() == UNREAD_FIELDS


def test_every_returned_key_has_a_reader_in_src():
    assert unread_returned_keys() == set()


def test_every_attribute_stored_on_self_has_a_reader_in_src():
    assert unread_self_attributes() == UNREAD_ATTRIBUTES


def test_the_scans_name_what_nothing_reads(tmp_path):
    # one unread field, returned key and self attribute, each beside a read one
    (tmp_path / "probe.py").write_text(textwrap.dedent("""
        from dataclasses import dataclass

        @dataclass
        class Pair:
            kept: float
            dropped: float

        class Probe:
            def __init__(self, pair):
                self.pair = pair
                self.spare = 0

            def totals(self):
                return {"sum": self.pair.kept, "spare_sum": 0.0, "label": "x"}

        def use(probe):
            res = probe.totals()
            return res["sum"], [res[key] for key in ("label",)]
    """))
    assert unread_dataclass_fields(tmp_path) == {("Pair", "dropped")}
    assert unread_returned_keys(tmp_path) == {("totals", "spare_sum")}
    assert unread_self_attributes(tmp_path) == {("Probe", "spare")}
