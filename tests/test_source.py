"""Source hygiene of the dllab package, checked on the syntax tree.

An `assert` statement vanishes under `python -O`, so no check in the package
may use one; an imported name that nothing references is dead code, and so is
a module-level name that neither the package nor its tests reference, and so
is a function, class or method that only the tests reference, and so is an
oracle in oracles.py that no test compares against; two functions with the
same body are one computation written twice.  The size of a run is bounded
by the command line alone, so no other function takes a size bound or raises
SizeLimitExceededError.  Exact sums stay in integers: no float dtype, and no
np.bincount with weights, which sums in float64.  No attribute is looked up
by name (getattr, hasattr), so no optional fast path hides behind a name
that the reference checks cannot see.  Point sets stay int64 arrays: no
map(tuple, ...) turns one into a set or list of tuples.
"""

import ast
import copy
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "dllab"
MODULES = sorted(SRC.glob("*.py"))
TESTS = sorted(pathlib.Path(__file__).resolve().parent.glob("*.py"))
ORACLES = pathlib.Path(__file__).resolve().parent / "oracles.py"


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def test_package_modules_found():
    assert {p.name for p in MODULES} >= {"cli.py", "counting.py", "ffield.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_assert_statements(path):
    lines = [node.lineno for node in ast.walk(_tree(path)) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: assert at lines {lines}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_imports(path):
    tree = _tree(path)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(name for name in imported if name not in used)
    assert unused == [], f"{path.name}: unused imports {unused}"


class _RenameParams(ast.NodeTransformer):
    def __init__(self, names):
        self.names = names

    def visit_Name(self, node):
        node.id = self.names.get(node.id, node.id)
        return node


def _body_key(fn):
    """fn's body without its docstring, parameters renamed by position."""
    a = fn.args
    params = a.posonlyargs + a.args + [a.vararg] + a.kwonlyargs + [a.kwarg]
    names = {arg.arg: f"_arg{i}" for i, arg in enumerate(params) if arg is not None}
    body = fn.body[1:] if ast.get_docstring(fn) is not None else fn.body
    module = ast.Module(body=copy.deepcopy(body), type_ignores=[])
    return ast.dump(_RenameParams(names).visit(module))


def test_no_duplicate_function_bodies():
    # dunder methods are exempt: operator twins of two types share bodies
    seen, twins = {}, []
    for path in MODULES:
        for node in ast.walk(_tree(path)):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            where = f"{path.stem}.{node.name}"
            key = _body_key(node)
            if key in seen:
                twins.append((seen[key], where))
            seen.setdefault(key, where)
    assert twins == [], f"functions with the same body: {twins}"


def _referenced_names(tree):
    """Names that tree reads, as a bare name, an attribute or an import."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def _module_level_names(path):
    for node in _tree(path).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Assign):
            yield from (t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id


def test_no_unreferenced_module_level_names():
    used = set().union(*(_referenced_names(_tree(p)) for p in MODULES + TESTS))
    dead = [
        f"{path.stem}.{name}"
        for path in MODULES
        for name in _module_level_names(path)
        if name not in used
    ]
    assert dead == [], f"module-level names nothing references: {dead}"


# Definitions the package reaches without naming them, each with the reason.
REFERENCE_EXEMPT = {
    "cli.main": "the entry point of the dl-lab console script in pyproject.toml",
    "matmodel.in_Xh": (
        "the one-column wrapper of in_Xh_batch, kept because perfbench/tracer.py "
        "wraps it by name for matmodel.member_ratio"
    ),
}

# Methods that the package reads only on receivers whose class the syntax
# tree does not show (parameters, tuple unpacking, subscripts, attributes of
# other objects); any attribute read of the same name references them.  Every
# other method needs a read on self in its class, on its class name, or on a
# name bound by a call of its class.
NAME_MATCHED = {
    "AddChar.factor_through_trace",
    "CyclicExtension.trace_counts",
    "CycloNum.as_integer",
    "CycloNum.is_nonneg_integer",
    "CycloNum.is_zero",
    "DivQuotData.decompose",
    "ExpChar.counts",
    "Field.frob_exp",
    "Field.inv",
    "Field.log",
    "Field.sub",
    "Field.trace_table",
    "GroupModel.conj_classes",
    "MonomialExtension.trace_counts",
    "MonomialRep.character",
    "MonomialRep.matrices",
    "SeriesBatch.equals",
    "SeriesBatch.frob",
    "SeriesBatch.is_zero",
    "SeriesBatch.shift",
    "SumChar.value",
    "ThetaData.pi_value_exp",
    "ThetaData.zeta_value_exp",
    "TwistedRing.lang_batch",
    "TwistedRing.scalar_conj_factors",
}


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _class_level_reads(cls):
    """Bare names read in a class body outside its methods, such as the
    methods that `mul = _mul` aliases."""
    out = set()
    for stmt in cls.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        out.update(
            node.id
            for node in ast.walk(stmt)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        )
    return out


def _definitions(path):
    """(name, class, class reads) for every function, class and method
    defined in path, at any depth: name is f"{module}.{name}", or
    f"{module}.{class}.{name}" for a method, whose class and the bare names
    read in its class body come with it (None, None otherwise)."""
    tree = _tree(path)
    methods = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            reads = _class_level_reads(node)
            for stmt in node.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    methods[stmt] = node.name, reads
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            cls, reads = methods.get(node, (None, None))
            name = f"{cls}.{node.name}" if cls else node.name
            yield f"{path.stem}.{name}", cls, reads


def _resolved_reads(tree, classes):
    """(class, attribute) for each attribute read in tree whose receiver's
    class the tree shows: self inside that class's body, the class name
    itself, or a name that the enclosing function binds to a call of the
    class."""
    out = set()

    def visit(node, cls, bound):
        if isinstance(node, ast.ClassDef):
            cls, bound = node.name, {}
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            bound = dict(bound)
            for sub in ast.walk(node):
                call = getattr(sub, "value", None) if isinstance(sub, ast.Assign) else None
                if isinstance(call, ast.Call) and isinstance(call.func, ast.Name):
                    if call.func.id in classes:
                        bound.update((t.id, call.func.id) for t in sub.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            name = getattr(node.value, "id", None)
            owner = cls if name == "self" else name if name in classes else bound.get(name)
            if owner:
                out.add((owner, node.attr))
        for child in ast.iter_child_nodes(node):
            visit(child, cls, bound)

    visit(tree, None, {})
    return out


def _unreferenced_definitions(paths, exempt=(), name_matched=()):
    """Definitions in paths, other than dunders and exempt ones, that no
    module in paths references.  A method is referenced by a read that
    resolves to its class (_resolved_reads) or by a read in its own class
    body; one in name_matched ("Class.method") also by any attribute read of
    its name.  Anything else is referenced by a bare name, an import or an
    attribute read."""
    trees = [_tree(p) for p in paths]
    classes = {n.name for t in trees for n in ast.walk(t) if isinstance(n, ast.ClassDef)}
    attrs, names, resolved = set(), set(), set()
    for tree in trees:
        resolved |= _resolved_reads(tree, classes)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attrs.add(node.attr)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    dead = []
    for path in paths:
        for d, cls, class_reads in _definitions(path):
            name = d.split(".")[-1]
            if d in exempt or _is_dunder(name):
                continue
            if cls is None:
                used = name in attrs or name in names
            else:
                matched = f"{cls}.{name}" in name_matched and name in attrs
                used = (cls, name) in resolved or name in class_reads or matched
            if not used:
                dead.append(d)
    return dead


def test_every_definition_is_referenced_from_the_package():
    # a name that only the tests reference is API that no command runs; a
    # scalar body the tests compare against belongs in oracles.py
    defined = [d for path in MODULES for d, _, _ in _definitions(path)]
    assert set(REFERENCE_EXEMPT) <= set(defined), "stale exemptions"
    dead = _unreferenced_definitions(MODULES, REFERENCE_EXEMPT, NAME_MATCHED)
    assert dead == [], f"definitions only the tests reference: {dead}"


def test_name_matched_methods_are_read_only_on_untyped_receivers():
    # a method on the list must need it: no read of it resolves to its class
    trees = [_tree(p) for p in MODULES]
    classes = {n.name for t in trees for n in ast.walk(t) if isinstance(n, ast.ClassDef)}
    resolved = set().union(*(_resolved_reads(t, classes) for t in trees))
    methods = {(c, d.split(".")[-1]) for path in MODULES for d, c, _ in _definitions(path) if c}
    listed = {tuple(x.split(".")) for x in NAME_MATCHED}
    assert listed <= methods, "stale name-matched methods"
    assert listed & resolved == set(), "name-matched methods with a typed read"


def test_a_method_shadowed_by_another_classes_method_is_unreferenced(tmp_path):
    # Series.one is read on its class, which says nothing about Ring.one;
    # only a name-matched method is referenced by a read on an untyped
    # receiver
    path = tmp_path / "toy.py"
    path.write_text(
        "class Ring:\n"
        "    def one(self):\n"
        "        return self.zero() + 1\n"
        "\n"
        "    def zero(self):\n"
        "        return 0\n"
        "\n"
        "\n"
        "class Series:\n"
        "    @classmethod\n"
        "    def one(cls):\n"
        "        return cls\n"
        "\n"
        "    def shift(self):\n"
        "        return self\n"
        "\n"
        "\n"
        "def build(ring):\n"
        "    s = Series()\n"
        "    return Series.one(), s.shift(), ring.one(), Ring\n"
    )
    assert sorted(_unreferenced_definitions([path])) == ["toy.Ring.one", "toy.build"]
    assert _unreferenced_definitions([path], name_matched={"Ring.one"}) == ["toy.build"]


def test_a_method_read_only_as_a_local_name_is_unreferenced(tmp_path):
    # a local variable that shares a method's name does not reference it;
    # an attribute read, an alias in the class body and a bare-name call of
    # a module-level function do
    path = tmp_path / "toy.py"
    path.write_text(
        "class Field:\n"
        "    def norm(self, a):\n"
        "        return a\n"
        "\n"
        "    def _mul(self, a, b):\n"
        "        return a * b\n"
        "\n"
        "    def trace(self, a):\n"
        "        return a\n"
        "\n"
        "    mul = _mul\n"
        "\n"
        "\n"
        "def helper(a):\n"
        "    return a\n"
        "\n"
        "\n"
        "def report(F, a):\n"
        "    norm = helper(a)\n"
        "    return F.trace(norm) + F.mul(a, a)\n"
    )
    dead = _unreferenced_definitions([path], name_matched={"Field.trace"})
    assert sorted(dead) == ["toy.Field", "toy.Field.norm", "toy.report"]


def test_every_oracle_is_compared_against():
    # an oracle that no test module reads, directly or through another
    # oracle, checks nothing
    oracles = [n for n in _tree(ORACLES).body if isinstance(n, ast.FunctionDef)]
    used = set().union(*(_referenced_names(_tree(p)) for p in TESTS if p.stem.startswith("test_")))
    dead = [
        fn.name
        for fn in oracles
        if fn.name not in used.union(*(_referenced_names(o) for o in oracles if o is not fn))
    ]
    assert dead == [], f"oracles nothing compares against: {dead}"


def _size_bounds(path):
    """(name, line) of each function in path that takes a max_size parameter
    or raises SizeLimitExceededError."""
    out = []
    for node in ast.walk(_tree(path)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = node.args
        params = a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
        if any(arg is not None and arg.arg == "max_size" for arg in params):
            out.append((node.name, node.lineno))
        for sub in ast.walk(node):
            if isinstance(sub, ast.Raise):
                exc = sub.exc.func if isinstance(sub.exc, ast.Call) else sub.exc
                name = getattr(exc, "id", None) or getattr(exc, "attr", None)
                if name == "SizeLimitExceededError":
                    out.append((node.name, sub.lineno))
    return out


def test_only_the_command_line_bounds_run_sizes():
    # the runner compares each run's size with --max-size before any work;
    # a second bound in the library would disagree with it
    found = {
        path.name: _size_bounds(path) for path in MODULES + [ORACLES] if path.name != "cli.py"
    }
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_a_size_bound_outside_the_command_line_is_found(tmp_path):
    path = tmp_path / "toy.py"
    path.write_text(
        "from errors import SizeLimitExceededError\n"
        "import errors\n"
        "\n"
        "\n"
        "def walk(grid, max_size=100):\n"
        "    return grid\n"
        "\n"
        "\n"
        "class Ring:\n"
        "    def points(self, n):\n"
        "        if n > 10:\n"
        "            raise SizeLimitExceededError(n)\n"
        "        return n\n"
        "\n"
        "    def more(self, n, *, max_size):\n"
        "        raise errors.SizeLimitExceededError\n"
        "\n"
        "\n"
        "def fine(n):\n"
        "    return sorted(range(n))\n"
    )
    assert _size_bounds(path) == [("walk", 5), ("points", 12), ("more", 15), ("more", 16)]


FLOAT_DTYPES = {"float", "float16", "float32", "float64", "floating"}


def _float_sums(path):
    """(what, line) of each np.bincount call with weights, and each float
    dtype named as float, np.float64, np.floating or a "float..." string."""
    out = []
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Call):
            fn = node.func
            name = getattr(fn, "id", None) or getattr(fn, "attr", None)
            if name == "bincount" and (
                len(node.args) > 1 or any(k.arg == "weights" for k in node.keywords)
            ):
                out.append(("bincount weights", node.lineno))
            for k in node.keywords:
                v = k.value
                if k.arg == "dtype" and isinstance(v, ast.Constant) and "float" in str(v.value):
                    out.append((v.value, node.lineno))
        elif isinstance(node, ast.Name) and node.id in FLOAT_DTYPES:
            out.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute) and node.attr in FLOAT_DTYPES:
            out.append((node.attr, node.lineno))
    return sorted(out, key=lambda hit: hit[1])


def test_exact_sums_stay_in_integers():
    found = {path.name: _float_sums(path) for path in MODULES}
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_a_float_sum_in_the_package_is_found(tmp_path):
    path = tmp_path / "toy.py"
    path.write_text(
        "import numpy as np\n"
        "\n"
        "\n"
        "def fold(idx, cnt, n):\n"
        "    return np.bincount(idx, weights=cnt, minlength=n)\n"
        "\n"
        "\n"
        "def fold_positional(idx, cnt):\n"
        "    return np.bincount(idx, cnt)\n"
        "\n"
        "\n"
        "def scale(a):\n"
        "    b = np.zeros(3, dtype=np.float64)\n"
        "    c = a.astype(float)\n"
        "    d = np.ones(2, dtype='float32')\n"
        "    return np.issubdtype(a.dtype, np.floating), b, c, d\n"
        "\n"
        "\n"
        "def fine(idx, n):\n"
        "    return np.bincount(idx, minlength=n).astype(np.int64)\n"
    )
    assert _float_sums(path) == [
        ("bincount weights", 5),
        ("bincount weights", 9),
        ("float64", 13),
        ("float", 14),
        ("float32", 15),
        ("floating", 16),
    ]


NAME_LOOKUPS = {"getattr", "hasattr"}


def _name_lookups(path):
    """(name, line) of each getattr or hasattr call in path, bare or as an
    attribute such as builtins.getattr."""
    out = []
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Call):
            fn = node.func
            name = fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", None)
            if name in NAME_LOOKUPS:
                out.append((name, node.lineno))
    return out


def test_no_attribute_lookups_by_name():
    # a spec's optional method found by getattr is a second path that no
    # reference check reaches; every path is called by its name
    found = {path.name: _name_lookups(path) for path in MODULES}
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_an_attribute_lookup_by_name_is_found(tmp_path):
    path = tmp_path / "toy.py"
    path.write_text(
        "import builtins\n"
        "\n"
        "\n"
        "def fold(spec, E):\n"
        "    fast = getattr(spec, 'vector_counts', None)\n"
        "    if hasattr(spec, 'points'):\n"
        "        return spec.points(E)\n"
        "    return builtins.getattr(spec, 'poly')(E) if fast is None else fast(E)\n"
        "\n"
        "\n"
        "def fine(spec, E):\n"
        "    return spec.getattr_count + len(spec.points(E))\n"
    )
    assert _name_lookups(path) == [("getattr", 5), ("hasattr", 6), ("getattr", 8)]


def _tuple_maps(path):
    """Lines of each map(tuple, ...) call in path, the call that turns the
    columns of a point array into tuples."""
    return [
        node.lineno
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "map"
        and isinstance(node.args[0], ast.Name)
        and node.args[0].id == "tuple"
    ]


def test_no_tuple_point_sets():
    # every point set is an int64 array read as it is; a set or list of
    # tuple points is a second form of the same set
    found = {path.name: _tuple_maps(path) for path in MODULES}
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_a_tuple_point_set_is_found(tmp_path):
    path = tmp_path / "toy.py"
    path.write_text(
        "def image(batches):\n"
        "    out = set()\n"
        "    for g in batches:\n"
        "        out.update(map(tuple, g.T.tolist()))\n"
        "    return out\n"
        "\n"
        "\n"
        "def fine(g):\n"
        "    return list(map(int, g)), tuple(g), g.T.tolist()\n"
    )
    assert _tuple_maps(path) == [4]
