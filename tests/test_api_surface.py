"""The package keeps no public function that only tests read.

An AST scan of the package: every public top-level function and every
public method must be read by code in the package (a name or an attribute
in Load context; assignments, docstrings and comments do not count), or
stand on KEPT with its reason.  Every private top-level function and every
private method but the dunders must be read as well, with no exceptions.
A helper that only tests call belongs in tests/oracles.py.  Inside a
function, every local that is assigned must also be read.

A method is matched by its name alone, so a method of one class counts as
read when a method of another class with the same name is (TSeries and
LocalNum both had a pow; RvElem.one and RvElem.scale_fq passed on RatK.one
and LocalNum.scale_fq).  So every public method name defined on more than
one class stands on SHARED, with a reader for each class: a function or
method of the package, by qualified name, that reads the name.  The scan
fails when that set of names changes or a reader no longer reads it.
"""

import ast
import pathlib

import vcarlitz

BENCH = "bench/ calls it"
LEMMA = "paper lemma, documented API"

KEPT = {
    "abp.sup_norm_factored": LEMMA,
    "abp.norm_bound_checks": LEMMA,
    "abp.liouville_check": LEMMA,
    "local.LocalNum.congruent": BENCH,
    "polylog.star_expand": BENCH,
    "polylog.merge_args": BENCH,
    "relations.RelationReport.support": BENCH,
}

# bare name -> {method: the package function or method that reads it}
SHARED = {
    "T": {
        "algebra.PolyA.T": "algebra.RatK.T",
        "algebra.RatK.T": "tmodule._phi_theta",
    },
    "degree": {
        "abp.RvElem.degree": "abp.RvElem.norm_exp",
        "algebra.PolyA.degree": "local.embed_poly",
    },
    "depth": {
        "polylog.Index.depth": "diffsys.build_cmpl_system",
        "polylog.ArgTuple.depth": "polylog.domain_check",
    },
    "frobenius": {
        "algebra.PolyA.frobenius": "algebra.RatK.frobenius",
        "algebra.RatK.frobenius": "diffsys._one_minus_alpha_q_t",
    },
    "inv": {
        "algebra.FqContext.inv": "local.LocalNum.inv",
        "algebra.RatK.inv": "tmodule._da_inv_row",
        "local.LocalNum.inv": "local.embed_local",
    },
    "is_zero": {
        "abp.RvElem.is_zero": "abp.RvElem.norm_exp",
        "algebra.PolyA.is_zero": "local.embed_poly",
        "algebra.RatK.is_zero": "diffsys.tp_normalize",
        "diffsys.Residual.is_zero": "cli._residual_records",
    },
    "one": {
        "algebra.PolyA.one": "algebra.RatK.__init__",
        "algebra.RatK.one": "diffsys.tp_one",
    },
    "ord_poly": {
        "local.Place.ord_poly": "local.Place.ord_ratk",
        "local.PlaceV.ord_poly": "local.Place.ord_ratk",
        "local.PlaceInf.ord_poly": "local.Place.ord_ratk",
    },
    "poly_digits": {
        "local.Place.poly_digits": "local.embed_poly",
        "local.PlaceV.poly_digits": "local.embed_poly",
        "local.PlaceInf.poly_digits": "local.embed_poly",
    },
    "pow": {
        "algebra.FqContext.pow": "local._taylor_shift",
        "local.LocalNum.pow": "diffsys.mpl_certificate",
    },
    "scale": {
        "algebra.PolyA.scale": "algebra.PolyA.monic",
        "tseries.TSeries.scale": "polylog.deformation_build",
    },
    "shift": {
        "algebra.PolyA.shift": "algebra.FqContext.__init__",
        "local.LocalNum.shift": "diffsys._specialization_holds",
    },
    "truncate": {
        "local.LocalNum.truncate": "local.embed_poly",
        "tseries.TSeries.truncate": "diffsys.verify_difference",
    },
    "zero": {
        "abp.RvElem.zero": "abp._verify_small_solution",
        "algebra.PolyA.zero": "algebra.RatK.zero",
        "algebra.RatK.zero": "tmodule._zero_like",
        "tseries.TSeries.zero": "polylog.deformation_build",
    },
}


def _loads(node):
    """The names and the attribute names that code under node reads, in
    Load context: an assignment to a local of the same name is no reader."""
    names, attrs = set(), set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            attrs.add(sub.attr)
    return names, attrs


def _scan():
    """(qualified name -> bare name) of the functions and methods, the
    qualified names that package code reads, and (qualified name ->
    attribute names it reads) of every function and method.

    A top-level function is read by a name or an attribute (module.f); a
    method only by an attribute, so a local variable that shares its name
    does not count."""
    defs, names, attrs, reads = {}, set(), set(), {}
    for path in sorted(pathlib.Path(vcarlitz.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defs[f"{path.stem}.{node.name}"] = node.name
                reads[f"{path.stem}.{node.name}"] = _loads(node)[1]
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        q = f"{path.stem}.{node.name}.{item.name}"
                        defs[q] = item.name
                        reads[q] = _loads(item)[1]
        n, a = _loads(tree)
        names |= n
        attrs |= a
    read = {q for q, n in defs.items()
            if n in attrs or (q.count(".") == 1 and n in names)}
    return defs, read, reads


def _public(defs):
    return {q: n for q, n in defs.items() if not n.startswith("_")}


def test_every_public_function_has_a_reader_in_the_package():
    defs, read, _ = _scan()
    unread = sorted(q for q in _public(defs) if q not in read and q not in KEPT)
    assert unread == []


def test_every_private_function_has_a_reader_in_the_package():
    # a private helper that only tests keep alive is caught as well
    defs, read, _ = _scan()
    unread = sorted(q for q, n in defs.items()
                    if n.startswith("_") and not n.endswith("__")
                    and q not in read)
    assert unread == []


def test_kept_names_exist_and_are_still_unread():
    defs, read, _ = _scan()
    public = _public(defs)
    for name in KEPT:
        assert name in public, name
        assert name not in read, f"{name} is read now; unlist it"


def test_shared_method_names_stand_on_the_table():
    defs, _, reads = _scan()
    methods = {}
    for q, n in _public(defs).items():
        if q.count(".") == 2:
            methods.setdefault(n, set()).add(q)
    shared = {n: qs for n, qs in methods.items() if len(qs) > 1}
    assert shared == {n: set(readers) for n, readers in SHARED.items()}
    # each listed reader is a function or method of the package that reads
    # the name as an attribute
    for n, readers in SHARED.items():
        for method, reader in readers.items():
            assert n in reads.get(reader, ()), (method, reader)


def _unread_locals(fn):
    """The names that fn, or a function nested in it, binds (by assignment,
    a loop or comprehension target, with, import or def) and never reads.
    Names that start with _ and names declared global or nonlocal are
    exempt."""
    bound, loads, exempt = {}, set(), set()
    for sub in ast.walk(fn):
        if isinstance(sub, ast.Name):
            if isinstance(sub.ctx, ast.Store):
                bound.setdefault(sub.id, sub.lineno)
            elif isinstance(sub.ctx, ast.Load):
                loads.add(sub.id)
        elif isinstance(sub, (ast.Global, ast.Nonlocal)):
            exempt.update(sub.names)
        elif isinstance(sub, (ast.Import, ast.ImportFrom)):
            for alias in sub.names:
                name = (alias.asname or alias.name).split(".")[0]
                bound.setdefault(name, sub.lineno)
        elif isinstance(sub, (ast.FunctionDef, ast.ClassDef)) and sub is not fn:
            bound.setdefault(sub.name, sub.lineno)
    return {name: line for name, line in bound.items()
            if name not in loads and name not in exempt
            and not name.startswith("_")}


def test_every_local_that_is_assigned_is_read():
    unread = []
    for path in sorted(pathlib.Path(vcarlitz.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.Lambda)):
                unread += [f"{path.name}:{line} {name}"
                           for name, line in _unread_locals(node).items()]
    assert sorted(set(unread)) == []


def test_the_unread_local_scan_sees_each_binding():
    tree = ast.parse(
        "def f(xs):\n"
        "    a, b = xs\n"
        "    for c, d in xs:\n"
        "        import os\n"
        "        def g():\n"
        "            return d\n"
        "    with open(a) as fh:\n"
        "        pass\n"
        "    _skip = [e for e in xs]\n"
        "    n = 0\n"
        "    n += 1\n"
        "    return g\n")
    assert set(_unread_locals(tree.body[0])) == {"b", "c", "os", "fh", "n"}
