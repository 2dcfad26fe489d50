"""Per-layer tracing of the vcarlitz package from outside its source tree.

The tracer replaces selected functions and methods of the package with
wrappers that keep aggregates per group name: calls, inclusive time of the
outermost span, self time (span time minus the time of wrapped child
spans) and an optional work count.  Nothing under ``src/`` is edited; a
function that other modules import by name is replaced in every module
namespace that binds it, so calls through any of those names are seen.

A target that no longer exists raises ``MissingSymbol``: after a refactor
the traced run stops instead of reporting zeros.
"""

from __future__ import annotations

import importlib
import inspect
import time

PACKAGE = "vcarlitz"
MODULES = ("algebra", "local", "tseries", "linalg", "polylog", "diffsys",
           "tmodule", "relations", "abp", "cli")


class MissingSymbol(RuntimeError):
    """A traced function or method is gone from the package."""


def _digit_products(args):
    a, b = args[0], args[1]
    return len(a.coeffs) * len(b.coeffs)


def _coeff_products(args):
    d = min(args[0].order, args[1].order)
    return d * (d + 1) // 2


# group name -> (module, qualified names); "*" means every public function
# defined in the module.
GROUPS = {
    "local.mul": ("local", ["LocalNum.__mul__"]),
    "local.add": ("local", ["LocalNum.__add__"]),
    "local.inv": ("local", ["LocalNum.inv"]),
    "local.qpow": ("local", ["LocalNum.qpow"]),
    "local.embed": ("local", ["embed_local", "embed_poly"]),
    "tseries.mul": ("tseries", ["TSeries.__mul__"]),
    "tseries.twist": ("tseries", ["frobenius_twist"]),
    "tseries.add": ("tseries", ["TSeries.__add__"]),
    "algebra.ratk": ("algebra", ["RatK.__add__", "RatK.__sub__",
                                 "RatK.__neg__", "RatK.__mul__",
                                 "RatK.__truediv__", "RatK.__pow__",
                                 "RatK.inv", "RatK.frobenius"]),
    "algebra.polya_mul": ("algebra", ["PolyA.__mul__"]),
    "linalg": ("linalg", ["*"]),
    "polylog.cmpl_eval": ("polylog", ["cmpl_eval"]),
    "polylog.cmspl_eval": ("polylog", ["cmspl_eval"]),
    "polylog.mzv_inf": ("polylog", ["mzv_inf"]),
    "polylog.power_sum_inf": ("polylog", ["power_sum_inf"]),
    "polylog.deformation_build": ("polylog", ["deformation_build"]),
    "polylog.deformation_specialize": ("polylog", ["deformation_specialize"]),
    "polylog.omega_product": ("polylog", ["omega_product"]),
    "diffsys.verify_difference": ("diffsys", ["verify_difference"]),
    "diffsys.psi": ("diffsys", ["DiffSystem.psi"]),
    "diffsys.tp_apply": ("diffsys", ["tp_apply"]),
    "diffsys.vabp_certify": ("diffsys", ["vabp_certify"]),
    "diffsys.mpl_certificate": ("diffsys", ["mpl_certificate"]),
    "tmodule.log_at_point": ("tmodule", ["log_at_point"]),
    "tmodule.extended_cmspl_v": ("tmodule", ["extended_cmspl_v"]),
    "tmodule.validate_tmodule": ("tmodule", ["validate_tmodule"]),
    "tmodule.residue_annihilator": ("tmodule", ["residue_annihilator"]),
    "relations.verify_decomposition_inf": ("relations",
                                           ["verify_decomposition_inf"]),
    "relations.eval_vmzv": ("relations", ["eval_vmzv"]),
    "relations.find_k_relations": ("relations", ["find_k_relations"]),
    "abp": ("abp", ["*"]),
    "cli.run_command": ("cli", ["run_command"]),
}

WORK = {"local.mul": _digit_products, "tseries.mul": _coeff_products}

# counter name -> (leaf groups counted, groups one of which must be open)
UNDER = {
    "polylog.chain_sum.local_muls": (("local.mul",),
                                     ("polylog.cmpl_eval",
                                      "polylog.cmspl_eval")),
    "polylog.mzv_inf.local_muls": (("local.mul",), ("polylog.mzv_inf",)),
    "polylog.deformation_build.tseries_muls": (
        ("tseries.mul",), ("polylog.deformation_build",)),
    "diffsys.certify.algebra_calls": (
        ("algebra.ratk", "algebra.polya_mul"),
        ("diffsys.vabp_certify", "diffsys.mpl_certificate")),
    "tmodule.log_at_point.local_muls": (("local.mul",),
                                        ("tmodule.log_at_point",)),
}


class Tracer:
    """Aggregating span recorder; ``clock`` is injectable for tests."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats = {}        # group -> [calls, inclusive_s, self_s, work]
        self.counters = {name: 0 for name in UNDER}
        self._stack = []       # child time accumulated per open span
        self._open = {}        # group -> number of open spans
        self._under = {}       # leaf group -> [(counter, ancestor groups)]
        for name, (leaves, ancestors) in UNDER.items():
            for leaf in leaves:
                self._under.setdefault(leaf, []).append((name, ancestors))

    def wrap(self, group, fn, work=None):
        """Return fn wrapped so that its calls aggregate under group."""
        st = self.stats.setdefault(group, [0, 0.0, 0.0, 0])
        stack, open_, clock = self._stack, self._open, self.clock
        open_.setdefault(group, 0)
        under = self._under.get(group, ())
        counters = self.counters

        def traced(*args, **kwargs):
            depth = open_[group]
            open_[group] = depth + 1
            child = [0.0]
            stack.append(child)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                open_[group] = depth
                st[0] += 1
                if depth == 0:
                    st[1] += dt
                st[2] += dt - child[0]
                if stack:
                    stack[-1][0] += dt
                if work is not None:
                    st[3] += work(args)
                for name, ancestors in under:
                    for a in ancestors:
                        if open_.get(a):
                            counters[name] += 1
                            break

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", group)
        traced.__qualname__ = getattr(fn, "__qualname__", group)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # -- installation over the package ---------------------------------

    def install(self):
        """Wrap every target of GROUPS; returns an undo callable."""
        mods = {name: importlib.import_module(f"{PACKAGE}.{name}")
                for name in MODULES}
        undo = []
        for group, (modname, targets) in GROUPS.items():
            mod = mods[modname]
            if targets == ["*"]:
                targets = [n for n, obj in vars(mod).items()
                           if inspect.isfunction(obj)
                           and obj.__module__ == mod.__name__
                           and not n.startswith("_")]
                if not targets:
                    raise MissingSymbol(f"{modname} defines no public "
                                        "functions to trace")
            for target in targets:
                owner_name, _, attr = target.rpartition(".")
                if owner_name:
                    owner = getattr(mod, owner_name, None)
                    if owner is None or attr not in vars(owner):
                        raise MissingSymbol(f"{modname}.{target}")
                    orig = vars(owner)[attr]
                    setattr(owner, attr,
                            self.wrap(group, orig, WORK.get(group)))
                    undo.append((owner, attr, orig))
                    continue
                orig = getattr(mod, attr, None)
                if orig is None or not callable(orig):
                    raise MissingSymbol(f"{modname}.{target}")
                wrapped = self.wrap(group, orig, WORK.get(group))
                for other in mods.values():
                    for name, obj in list(vars(other).items()):
                        if obj is orig:
                            setattr(other, name, wrapped)
                            undo.append((other, name, orig))

        def uninstall():
            for owner, attr, orig in reversed(undo):
                setattr(owner, attr, orig)

        return uninstall

    # -- results ---------------------------------------------------------

    def snapshot(self):
        """Plain-data copy of the aggregates, mergeable across processes."""
        return {"stats": {g: list(v) for g, v in self.stats.items()},
                "counters": dict(self.counters)}


def merge(snapshots):
    """Sum several snapshot() results."""
    out = {"stats": {}, "counters": {}}
    for snap in snapshots:
        for g, v in snap["stats"].items():
            acc = out["stats"].setdefault(g, [0, 0.0, 0.0, 0])
            for i in range(4):
                acc[i] += v[i]
        for name, n in snap["counters"].items():
            out["counters"][name] = out["counters"].get(name, 0) + n
    return out


def layer_metrics(snap):
    """Named per-layer values from a (merged) snapshot.

    ``calls`` and work counts repeat exactly for a given job list; ``s`` is
    inclusive time of the outermost spans and ``self_s`` excludes wrapped
    child spans.
    """
    stats = snap["stats"]

    def get(group, field):
        v = stats.get(group, [0, 0.0, 0.0, 0])
        return v[{"calls": 0, "s": 1, "self_s": 2, "work": 3}[field]]

    out = {}
    for group, kinds in (
            ("local.mul", ("calls", "self_s")),
            ("local.add", ("calls", "self_s")),
            ("local.inv", ("calls", "self_s")),
            ("local.qpow", ("calls", "s")),
            ("local.embed", ("self_s",)),
            ("tseries.mul", ("calls", "s", "self_s")),
            ("tseries.twist", ("calls", "s")),
            ("tseries.add", ("self_s",)),
            ("algebra.ratk", ("calls", "self_s")),
            ("algebra.polya_mul", ("calls",)),
            ("linalg", ("s",)),
            ("polylog.cmpl_eval", ("s",)),
            ("polylog.cmspl_eval", ("s",)),
            ("polylog.mzv_inf", ("s",)),
            ("polylog.power_sum_inf", ("s",)),
            ("polylog.deformation_build", ("s",)),
            ("polylog.deformation_specialize", ("s",)),
            ("polylog.omega_product", ("s",)),
            ("diffsys.verify_difference", ("s", "self_s")),
            ("diffsys.psi", ("s",)),
            ("diffsys.tp_apply", ("s",)),
            ("diffsys.vabp_certify", ("s",)),
            ("diffsys.mpl_certificate", ("s",)),
            ("tmodule.log_at_point", ("s",)),
            ("tmodule.extended_cmspl_v", ("s",)),
            ("tmodule.validate_tmodule", ("s",)),
            ("tmodule.residue_annihilator", ("s",)),
            ("relations.verify_decomposition_inf", ("s",)),
            ("relations.eval_vmzv", ("s",)),
            ("relations.find_k_relations", ("s",)),
            ("abp", ("s",))):
        for kind in kinds:
            out[f"{group}.{kind}"] = get(group, kind)
    out["local.mul.digit_products"] = get("local.mul", "work")
    out["tseries.mul.coeff_products"] = get("tseries.mul", "work")
    out.update(snap["counters"])
    return out
