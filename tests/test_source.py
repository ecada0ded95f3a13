"""Rules on the lab's own source: nothing it computes or takes is kept for tests alone.

Every dataclass field, every string key of a returned dict literal and every
attribute stored on `self` in src/ has a reader in src/; every parameter
with a default is passed by some call in src/, and its default is left to
some call in src/; and no position of a returned tuple is bound to `_` at
every call in src/. The allowlists below name the exceptions.
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
    # the eigenfunction of the general eigen kernel, which returns the pair;
    # entropy.lambda_min reads the eigenvalue, and the kernel's tests the pair
    ("EigenResult", "vector"),
}

# (class, attribute) of the attributes stored on self that no code in the package reads
UNREAD_ATTRIBUTES = {
    # fault data of an exception, for the code that catches it
    ("OdeFailure", "t_last"),
    ("OdeFailure", "y_last"),
    ("EigenFailure", "residual_history"),
}

# (function, parameter) of the defaulted parameters that no call in the package passes
UNPASSED_DEFAULTS = {
    # the command line's entry point reads sys.argv when called with none
    ("main", "argv"),
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


def _functions(trees):
    """(name a call uses, node, skip) of every function defined in src/*.py:
    a method drops its self or cls (skip 1), and __init__ is called by its
    class's name."""
    out = []
    for tree in trees:
        in_class = {id(fn): cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                    for fn in cls.body if isinstance(fn, ast.FunctionDef)}
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            cls = in_class.get(id(fn))
            static = any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
            name = cls if cls is not None and fn.name == "__init__" else fn.name
            out.append((name, fn, int(cls is not None and not static)))
    return out


def _calls(trees) -> dict:
    """Every call in src/*.py, by the last name of what it calls."""
    calls = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                calls.setdefault(name, []).append(node)
    return calls


def _default_passes(src):
    """(name, parameter, passes) of every parameter with a default of a
    function in src/*.py.  passes holds one entry per call in src/*.py of
    the function: True where the call passes the parameter, by position or
    by keyword, False where it leaves the default, and None where *args or
    **kwargs may do either.  A call is matched to a function by the last
    name it calls: f(...), obj.f(...), or a class's name for its __init__,
    which names it here."""
    trees = _trees(src)
    calls = _calls(trees)
    for name, fn, skip in _functions(trees):
        positional = (fn.args.posonlyargs + fn.args.args)[skip:]
        defaulted = [(i, arg.arg) for i, arg in enumerate(positional)
                     if i >= len(positional) - len(fn.args.defaults)]
        defaulted += [(None, arg.arg) for arg, default
                      in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if default is not None]
        for i, param in defaulted:
            yield name, param, [
                True if (i is not None and len(call.args) > i)
                or any(kw.arg == param for kw in call.keywords)
                else None if (i is not None and any(isinstance(a, ast.Starred) for a in call.args))
                or any(kw.arg is None for kw in call.keywords)
                else False
                for call in calls.get(name, [])]


def unpassed_defaults(src=SRC) -> set:
    """(name, parameter) of every parameter with a default of a function in
    src/*.py that no call in src/*.py passes: a parameter only callers from
    outside, such as tests, set."""
    return {(name, param) for name, param, passes in _default_passes(src)
            if all(p is False for p in passes)}


def overridden_defaults(src=SRC) -> set:
    """(name, parameter) of every parameter with a default of a function in
    src/*.py that some call in src/*.py makes and every one passes: a
    default only callers from outside, such as tests, use."""
    return {(name, param) for name, param, passes in _default_passes(src)
            if passes and all(p is True for p in passes)}


def discarded_tuple_positions(src=SRC) -> set:
    """(function, position) of every position of a tuple that a function in
    src/*.py returns, where every call of it in src/*.py unpacks the tuple
    and binds that position to _."""
    trees = _trees(src)
    calls = _calls(trees)
    unpacked = {id(node.value): node.targets[0].elts for tree in trees for node in ast.walk(tree)
                if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
                and len(node.targets) == 1 and isinstance(node.targets[0], ast.Tuple)
                and not any(isinstance(t, ast.Starred) for t in node.targets[0].elts)}
    out = set()
    for name, fn, _skip in _functions(trees):
        sizes = {len(node.value.elts) for owner, node in _owned(fn, ast.FunctionDef, fn.name)
                 if owner == fn.name and isinstance(node, ast.Return)
                 and isinstance(node.value, ast.Tuple)}
        sites = [unpacked.get(id(call)) for call in calls.get(name, [])]
        if not sizes or not sites or None in sites:
            continue
        out |= {(name, k) for k in range(max(sizes))
                if all(k < len(elts) and getattr(elts[k], "id", None) == "_" for elts in sites)}
    return out


def test_every_dataclass_field_has_a_reader_in_src():
    assert unread_dataclass_fields() == UNREAD_FIELDS


def test_every_returned_key_has_a_reader_in_src():
    assert unread_returned_keys() == set()


def test_every_attribute_stored_on_self_has_a_reader_in_src():
    assert unread_self_attributes() == UNREAD_ATTRIBUTES


def test_every_defaulted_parameter_is_passed_in_src():
    assert unpassed_defaults() == UNPASSED_DEFAULTS


def test_every_default_is_left_to_some_call_in_src():
    assert overridden_defaults() == set()


def test_no_returned_tuple_position_is_discarded_at_every_call():
    assert discarded_tuple_positions() == set()


def test_the_scans_name_what_nothing_reads(tmp_path):
    # one unread field, returned key, self attribute, unpassed default and
    # discarded tuple position, each beside a read or passed one
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

        def scaled(x, factor=1.0, *, shift=0.0, clip=None):
            return factor * x + shift, x, clip

        def use_scaled():
            y, _, c = scaled(1.0, 2.0, clip=3.0)
            z, _, _ = scaled(2.0, shift=3.0)
            return y + z, c
    """))
    assert unread_dataclass_fields(tmp_path) == {("Pair", "dropped")}
    assert unread_returned_keys(tmp_path) == {("totals", "spare_sum")}
    assert unread_self_attributes(tmp_path) == {("Probe", "spare")}
    assert unpassed_defaults(tmp_path) == set()
    assert overridden_defaults(tmp_path) == set()
    assert discarded_tuple_positions(tmp_path) == {("scaled", 1)}
    (tmp_path / "probe.py").write_text(textwrap.dedent("""
        class Probe:
            def __init__(self, pair, spare=None):
                self.pair = pair

            def total(self, weight=1.0):
                return self.pair * weight

        def scaled(x, factor=1.0, *, shift=0.0):
            return factor * x + shift

        def use():
            return Probe(2.0).total(3.0) + scaled(1.0, shift=2.0)
    """))
    assert unpassed_defaults(tmp_path) == {("Probe", "spare"), ("scaled", "factor")}
    assert overridden_defaults(tmp_path) == {("total", "weight"), ("scaled", "shift")}
