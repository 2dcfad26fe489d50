"""The package keeps no public function that only tests read.

An AST scan of the package: every public top-level function and every
public method must be referenced from code in the package (a name or an
attribute; docstrings and comments do not count), or stand on KEPT with
its reason.  A helper that only tests call belongs in tests/oracles.py.

A method is matched by its name alone, so it counts as referenced when a
method of another class with the same name is (TSeries and LocalNum both
had a pow).
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


def _scan():
    """(qualified name -> bare name) of the public functions and methods,
    and the set of names that package code references."""
    defs, refs = {}, set()
    for path in sorted(pathlib.Path(vcarlitz.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defs[f"{path.stem}.{node.name}"] = node.name
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        defs[f"{path.stem}.{node.name}.{item.name}"] = \
                            item.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.add(node.id)
            elif isinstance(node, ast.Attribute):
                refs.add(node.attr)
    public = {q: n for q, n in defs.items() if not n.startswith("_")}
    return public, refs


def test_every_public_function_has_a_reader_in_the_package():
    public, refs = _scan()
    unread = sorted(q for q, n in public.items()
                    if n not in refs and q not in KEPT)
    assert unread == []


def test_kept_names_exist_and_are_still_unread():
    public, refs = _scan()
    for name in KEPT:
        assert name in public, name
        assert public[name] not in refs, f"{name} is read now; unlist it"
