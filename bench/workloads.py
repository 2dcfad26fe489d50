"""The three benchmark workloads: seeded job lists, job bodies and checks.

A job is a plain dict of strings and integers (its *spec*), so job lists
compare by value and frozen records are keyed by the spec itself.  Every
workload is a stratified draw from a fixed pool: the slots (kind, index,
layout, truncation) are the same for every seed, so the cost of a job
list hardly depends on the seed, and the seed draws the place parameter,
arguments of a fixed degree pattern and, for a few slots, one of several
inputs of the same size.  Every drawn argument tuple
is checked against ``polylog.domain_check`` here, before any job is timed.

Job bodies return plain strings (or small lists of them); the checks
compare those with an identity computed inside the job, with a verdict,
or with the records frozen in ``records.json``.  Checks never call the
library, so checking cannot warm a cache that a later job would use.
"""

from __future__ import annotations

import json
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))
RECORDS_PATH = os.path.join(HERE, "records.json")
DATA_DIR = os.path.join("src", "vcarlitz", "data")

WORKLOADS = ("diffsys-verify", "certify-transport", "cli-session")

FIELDS = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1)}

# zeta(1)_v at q = 3, lambda = 0, prec 40 (acceptance criterion 5)
ZETA1_GOLDEN = (
    "2*v^1 + v^2 + v^3 + 2*v^6 + v^7 + 2*v^9 + v^10 + 2*v^12 + v^13"
    " + v^15 + v^17 + v^19 + v^21 + v^24 + v^25 + 2*v^26 + 2*v^27"
    " + v^30 + 2*v^33 + 2*v^34 + v^35 + v^36 + v^39 + O(v^40)")

# zeta(1) = T * Li*_1(1) is false; certification must refuse it
FORGED_DECOMPOSITION = (
    "p: 3\ne: 1\ntarget: 1\nterm: T | 1 | 1\ncertified: true\nprec: 60\n")

# -- the library, imported once per process ------------------------------

class Lib:
    """Module handles; jobs call through them so a tracer sees the calls."""

    def __init__(self):
        from vcarlitz import (algebra, diffsys, errors, local, polylog,
                              relations, tmodule)
        self.algebra, self.diffsys = algebra, diffsys
        self.errors, self.local, self.polylog = errors, local, polylog
        self.relations, self.tmodule = relations, tmodule
        self._ctx = {}

    def ctx(self, q):
        if q not in self._ctx:
            self._ctx[q] = self.algebra.FqContext(*FIELDS[q])
        return self._ctx[q]

    def place(self, q, lam):
        return self.local.PlaceV(self.ctx(q), lam)

    def ratk(self, q, text):
        return self.algebra.parse_ratk(self.ctx(q), text)

    def index(self, shape):
        return self.polylog.Index(shape)

    def args(self, q, texts):
        return self.polylog.ArgTuple([self.ratk(q, t) for t in texts])


def load_shipped():
    """Texts of the shipped data files, checked by parsing them once."""
    lib_texts = {}
    for sub in ("decompositions", "tmodules"):
        folder = os.path.join(DATA_DIR, sub)
        for name in sorted(os.listdir(folder)):
            with open(os.path.join(folder, name)) as fh:
                lib_texts[f"{sub}/{name}"] = fh.read()
    return lib_texts


def load_records():
    with open(RECORDS_PATH) as fh:
        return json.load(fh)


def record_key(spec):
    return json.dumps({k: v for k, v in spec.items() if k != "expect"},
                      sort_keys=True)


# -- argument pools --------------------------------------------------------

def arg_variants(lib, q, lam, depth, count=3):
    """A fixed list of argument tuples in the v-adic convergence domain.

    Every variant has the same degrees, so the same cost: the first
    argument is c * pi with c a nonzero constant (valuation 1), the later
    ones are T + b with b in F_p (valuation >= 0).
    """
    ctx = lib.ctx(q)
    pi = lib.algebra.RatK(lib.place(q, lam).uniformizer())
    out = []
    for k in range(count):
        c = lib.algebra.RatK(lib.algebra.PolyA.constant(ctx, 1 + k % (q - 1)))
        later = [f"T+{(k + l) % ctx.p}" if (k + l) % ctx.p else "T"
                 for l in range(depth - 1)]
        if [str(c * pi)] + later not in out:
            out.append([str(c * pi)] + later)
    return out


def _checked_args(lib, q, lam, shape, texts):
    pl = lib.polylog
    s, u = lib.index(shape), lib.args(q, texts)
    if not pl.domain_check(s, u, pl.CONV_V, lib.place(q, lam)):
        raise ValueError(f"generator drew arguments outside the domain: "
                         f"{shape} {texts} at q={q}, lambda={lam}")
    return texts


def _draw_cmpl(lib, rng, q, lam, shape):
    texts = rng.choice(arg_variants(lib, q, lam, len(shape)))
    return {"index": ",".join(map(str, shape)),
            "args": _checked_args(lib, q, lam, shape, texts)}


# -- diffsys-verify --------------------------------------------------------

# (q, place, kind, shape, D, N).  Each slot fixes everything that sets the
# cost; the seed draws the arguments and, per q, distinct values of lambda
# for the place numbers 0, 1, ...  Jobs on one place share its caches, so
# the two q = 3 CMPL systems at D = N = 80 share omega tails; the four
# q = 5 ones at D = N = 80 sit on four places and share nothing, which
# gives job_s.tail one cost class to fall in; the five at D = N = 64 do the
# same for job_s.p50.  A "block" shape is a pair of CMPL shapes.
DIFFSYS_SLOTS = (
    (2, 0, "omega", None, 80, 80),
    (2, 0, "cmpl", (2, 1), 80, 80),
    (2, 0, "cmpl", (2,), 48, 48),
    (2, 0, "mixed", (1, 1), 48, 48),
    (3, 0, "omega", None, 64, 64),
    (3, 0, "cmpl", (1, 1, 1), 80, 80),
    (3, 0, "cmpl", (1, 2), 80, 80),
    (3, 0, "block", ((1,), (1, 1)), 48, 48),
    (3, 0, "cmpl", (3, 1), 48, 48),
    (4, 0, "omega", None, 48, 48),
    (4, 0, "cmpl", (2, 1), 64, 64),
    (4, 0, "cmpl", (4,), 64, 64),
    (4, 0, "block", ((1,), (1,)), 48, 48),
    (4, 0, "mixed", (2,), 64, 64),
    (5, 0, "omega", None, 80, 80),
    (5, 0, "cmpl", (2, 2), 80, 80),
    (5, 1, "cmpl", (2, 2), 80, 80),
    (5, 2, "cmpl", (2, 2), 80, 80),
    (5, 3, "cmpl", (2, 2), 80, 80),
) + tuple((5, k, "cmpl", (1, 1, 1), 64, 64) for k in range(5))


def gen_diffsys(lib, rng):
    lams = {q: rng.sample(range(q), q) for q in sorted(FIELDS)}
    jobs = []
    for q, place, kind, shape, D, N in DIFFSYS_SLOTS:
        lam = lams[q][place]
        base = {"kind": "verify", "q": q, "lam": lam, "D": D, "N": N}
        if kind == "omega":
            jobs.append({**base, "blocks": [{"type": "omega"}],
                         "expect": "ok"})
        elif kind == "cmpl":
            jobs.append({**base, "blocks": [
                {"type": "cmpl", **_draw_cmpl(lib, rng, q, lam, shape)}],
                "expect": "ok"})
        elif kind == "block":
            jobs.append({**base, "blocks": [
                {"type": "cmpl", **_draw_cmpl(lib, rng, q, lam, part)}
                for part in shape], "expect": "ok"})
        else:
            # negative control: Phi from one argument tuple, psi from another
            variants = arg_variants(lib, q, lam, len(shape))
            a, b = rng.sample(range(len(variants)), 2)
            jobs.append({**base, "kind": "verify-mixed",
                         "index": ",".join(map(str, shape)),
                         "args_phi": _checked_args(lib, q, lam, shape,
                                                   variants[a]),
                         "args_psi": _checked_args(lib, q, lam, shape,
                                                   variants[b]),
                         "expect": "fail"})
    return jobs


# -- certify-transport -----------------------------------------------------

# (block layout, expected verdict): "omega" or a CMPL shape per block; a
# refused job carries a wrong rho.  The four size-8 jobs share one layout,
# so job_s.tail falls inside one cost class; the five size-5 jobs do the
# same for job_s.p50.
VABP_8 = ((1, 1, 1), (1, 1, 1))
VABP_5 = ("omega", (1,), (1,))
VABP_SLOTS = ((VABP_8, "certified"),) * 4 + ((VABP_5, "certified"),) * 5 + (
    (((1, 1), (1, 1)), "refused"),
    (("omega", (1, 1), (1, 1)), "refused"),
)
MPL_SLOTS = (((1,), "t^w"), ((1, 1), "t^w"), ((2, 1), "t^w"),
             ((2, 1, 1), "t^w"), ((2,), "t^(w+1)"))
MZV_SLOTS = (((1, 2), 100), ((1, 1), 120), ((1, 1, 1), 90),
             ((1, 2, 1), 110))
CMSPL_SLOTS = (((1, 1, 1), 200), ((2, 1, 1), 240), ((1, 1, 1, 1), 160),
               ((1, 2, 1, 1), 200))
STAR_SHAPE = (1, 1, 2)
RELATION_VALUES = (
    ("1", "T"), ("1", "T^2"), ("1", "T^3+T^2"), ("2", "T"),
    ("1,1", "T,T+1"), ("3", "T"), ("2,1", "T,T+1"), ("1,2", "T^2,1"))
# (candidate value sets of one size, coefficient degree) per slot
RELATION_SLOTS = ((((2, 0, 3), (0, 1, 3), (0, 2, 4), (1, 2, 5)), 1),
                  (((0, 1, 2, 3, 4), (1, 2, 3, 5, 7), (0, 2, 3, 4, 6)), 2))
TMODULE_SLOTS = (("tmodules/tensor_q3_s1.txt", 40),
                 ("tmodules/tensor_q3_s2.txt", 30),
                 ("tmodules/tensor_q3_s3.txt", 40))


def _vabp_job(lib, rng, q, lam, layout, expect):
    blocks, sizes = [], []
    for b in layout:
        if b == "omega":
            blocks.append({"type": "omega"})
            sizes.append(1)
        else:
            blocks.append({"type": "cmpl",
                           **_draw_cmpl(lib, rng, q, lam, b)})
            sizes.append(len(b) + 1)
    size = sum(sizes)
    # every block's first entry is Omega^w after padding to the top weight,
    # so e_a - e_b on two first entries is a relation; a coefficient
    # polynomial f(t) keeps it one
    offsets = [sum(sizes[:i]) for i in range(len(sizes))]
    a, b = sorted(rng.sample(range(len(blocks)), 2))
    f = rng.choice((["1"], ["T"], ["1", "1"], ["T+1", "0", "1"]))
    ctx = lib.ctx(q)
    fk = [lib.ratk(q, c) for c in f]
    negf = [str(-c) for c in fk]
    P = [[] for _ in range(size)]
    P[offsets[a]], P[offsets[b]] = list(f), negf
    gamma = lib.algebra.RatK(lib.place(q, lam).uniformizer()).inv()
    val = lib.diffsys.tp_eval_k(tuple(fk), gamma)
    rho = ["0"] * size
    rho[offsets[a]], rho[offsets[b]] = str(val), str(-val)
    if expect == "refused":
        j = rng.choice((offsets[a], offsets[b]))
        rho[j] = str(lib.ratk(q, rho[j]) + lib.algebra.RatK.one(ctx))
    return {"kind": "vabp", "q": q, "lam": lam, "blocks": blocks,
            "gamma": str(gamma), "P": P, "rho": rho, "D": 30, "N": 30,
            "expect": expect}


def gen_certify(lib, rng):
    # one place per job list, as in a session: the jobs share its caches
    # the same way for every seed
    q, lam = 3, rng.randrange(3)
    jobs = []
    for layout, expect in VABP_SLOTS:
        jobs.append(_vabp_job(lib, rng, q, lam, layout, expect))
    for shape, ftype in MPL_SLOTS:
        jobs.append({"kind": "mpl", "q": q, "lam": lam,
                     **_draw_cmpl(lib, rng, q, lam, shape),
                     "ftype": ftype, "n_list": [1, 2], "prec": 30,
                     "expect": "ok" if ftype == "t^w" else "fail"})
    for shape, prec in MZV_SLOTS:
        jobs.append({"kind": "mzv_inf", "q": q,
                     "index": ",".join(map(str, shape)), "prec": prec,
                     "expect": "record"})
    for shape, prec in CMSPL_SLOTS:
        jobs.append({"kind": "cmspl", "q": q, "lam": lam,
                     **_draw_cmpl(lib, rng, q, lam, shape),
                     "prec": prec, "expect": "record"})
    jobs.append({"kind": "star-identity", "q": q, "lam": lam,
                 **_draw_cmpl(lib, rng, q, lam, STAR_SHAPE), "prec": 40,
                 "expect": "equal"})
    u = rng.choice(arg_variants(lib, q, lam, 1))[0]
    w = rng.choice(arg_variants(lib, q, lam, 1))[0]
    jobs.append({"kind": "stuffle", "q": q, "place": "v", "lam": lam,
                 "a": 1, "b": 2, "u": u, "w": w, "prec": 30,
                 "expect": "equal"})
    jobs.append({"kind": "stuffle", "q": q, "place": "inf", "lam": 0,
                 "a": 1, "b": 2, "u": "1", "w": rng.choice(("1", "T")),
                 "prec": 30, "expect": "equal"})
    jobs.append({"kind": "zeta", "s": 1, "source": "builtin",
                 "cert_prec": 60, "prec": 80, "expect": "golden"})
    jobs.append({"kind": "zeta", "s": 2,
                 "source": rng.choice(("builtin",
                                       "decompositions/zeta_q3_s2.txt")),
                 "cert_prec": 60, "prec": 60, "expect": "zero"})
    jobs.append({"kind": "zeta", "s": 1, "source": "forged",
                 "cert_prec": 40, "prec": 40, "expect": "refused"})
    for source, prec in TMODULE_SLOTS:
        jobs.append({"kind": "tmodule", "source": source, "prec": prec,
                     "expect": "record"})
    for sets, deg in RELATION_SLOTS:
        jobs.append({"kind": "relations",
                     "values": [list(RELATION_VALUES[i])
                                for i in rng.choice(sets)],
                     "deg": deg, "N": 40, "N_recheck": 60,
                     "expect": "record"})
    return jobs


# -- cli-session -----------------------------------------------------------

def _cli_pool():
    """The slots of a cli-session list: per slot, its argv variants.

    Every subcommand has a slot (default prec 40) and the seed draws one
    variant per slot.  Variants of one slot cost about the same; where
    they do not (``--decomposition``, ``verify deformation``, ``verify
    system``, ``verify tmodule``), every variant is a slot of its own, so
    the heaviest jobs, which set job_s.tail, are the same for every seed.
    """
    dec = os.path.join(DATA_DIR, "decompositions")
    tmod = os.path.join(DATA_DIR, "tmodules")
    slots = (
        [["eval", "cmpl", "--q", q, "--lambda", lam, "--index", i,
          "--args", a]
         for q, lam, i, a in (("3", "0", "1", "T"), ("3", "1", "2", "T+1"),
                              ("2", "0", "1,1", "T,T+1"),
                              ("5", "2", "2,1", "T+2,T"))],
        [["eval", "cmspl", "--q", "3", "--lambda", lam, "--index", i,
          "--args", a] + place
         for lam, i, a, place in (("0", "1,1", "T,T+1", []),
                                  ("2", "2", "T+2", []),
                                  ("0", "1", "1", ["--place", "inf"]),
                                  ("0", "2,1", "T,1", ["--place", "inf"]))],
        [["eval", "mzv-inf", "--index", i] for i in ("1", "2", "1,1", "2,1")],
        [["eval", "mzv-v", "--index", i] for i in ("1", "2")],
        [["eval", "mzv-v", "--index", s, "--decomposition",
          os.path.join(dec, f"zeta_q3_s{s}.txt")] for s in ("1", "2")],
        [["verify", "omega", "--q", q, "--lambda", lam]
         for q, lam in (("2", "1"), ("3", "0"), ("4", "3"), ("5", "1"))],
        [["verify", "deformation", "--q", "3", "--lambda", lam, "--index", i,
          "--args", a]
         for lam, i, a in (("0", "1", "T"), ("1", "2", "T+1"),
                           ("0", "1,1", "T,T+1"))],
        [["verify", "system", "--index", "1", "--args", a1, "--index", i2,
          "--args", a2]
         for a1, i2, a2 in (("T", "2", "T^2"), ("T", "1,1", "T,1"))],
        [["verify", "specialize", "--index", i, "--args", a, "--twist", tw]
         for i, a, tw in (("1", "T", "0"), ("2,1", "T,T+1", "1"),
                          ("1,1", "T^2,1", "0"))],
        [["verify", "decomposition", "--file",
          os.path.join(dec, f"zeta_q3_s{s}.txt")] for s in ("1", "2")],
        [["verify", "tmodule", "--file",
          os.path.join(tmod, f"tensor_q3_s{s}.txt")] for s in ("1", "2", "3")],
        [["certify", "mpl", "--index", i, "--args", a]
         for i, a in (("1", "T"), ("2", "T"), ("2,1", "T,T+1"))],
        [["certify", "vabp", "--omega-copies", "2", "--gamma", "1/T",
          "--rho", rho, "--pcoeffs", "1;2", "--t-order", "30", "--prec", "30"]
         for rho in ("1,2", "1,1")],
        [["relations", "find", "--value", v1, "--value", v2, "--deg", "1",
          "--n-recheck", "60"]
         for v1, v2 in (("1|T^3+T^2", "1|T"), ("1|T", "2|T"),
                        ("1|T^2", "1|T"))],
        [["appendix", "count-ball", "--n", n] for n in ("1", "2", "3")],
        [["appendix", "sup-norm", "--coeffs", c, "--radius", r, "--prec", "20"]
         for c, r in (("1,v^-1", "2"), ("v^-1,1,v^-2", "1"))],
        [["appendix", "small-solution", "--rows", rows, "--c-exp", c,
          "--deg-budget", d]
         for rows, c, d in (("1,2", "2", "0"), ("1,v^-1", "2", "1"))],
    )
    split = ("--decomposition", "deformation", "system", "tmodule")
    out = []
    for variants in slots:
        if any(word in variants[0] for word in split):
            out.extend([argv] for argv in variants)
        else:
            out.append(variants)
    return out


def _check_cli_argv(lib, argv):
    """Domain check of the --index/--args pairs of one argv."""
    pl = lib.polylog
    opts = {}
    for key, val in zip(argv, argv[1:]):
        if key.startswith("--"):
            opts.setdefault(key, []).append(val)
    q = int(opts.get("--q", ["3"])[0])
    lam = int(opts.get("--lambda", ["0"])[0])
    for idx, args in zip(opts.get("--index", []), opts.get("--args", [])):
        s, u = lib.index(idx.split(",")), lib.args(q, args.split(","))
        if opts.get("--place") == ["inf"]:
            ok = pl.domain_check(s, u, pl.CONV_INF)
        else:
            ok = pl.domain_check(s, u, pl.CONV_V, lib.place(q, lam))
        if not ok:
            raise ValueError(f"generator drew arguments outside the "
                             f"domain: {argv}")
    return argv


def gen_cli(lib, rng):
    return [{"kind": "cli",
             "argv": _check_cli_argv(lib, list(rng.choice(variants))),
             "expect": "record"} for variants in _cli_pool()]


def record_pool(lib):
    """Every input whose output is checked against a frozen record."""
    q = 3
    for shape, prec in MZV_SLOTS:
        yield {"kind": "mzv_inf", "q": q,
               "index": ",".join(map(str, shape)), "prec": prec,
               "expect": "record"}
    for shape, prec in CMSPL_SLOTS:
        for lam in range(q):
            for texts in arg_variants(lib, q, lam, len(shape)):
                yield {"kind": "cmspl", "q": q, "lam": lam,
                       "index": ",".join(map(str, shape)),
                       "args": _checked_args(lib, q, lam, shape, texts),
                       "prec": prec, "expect": "record"}
    for source, prec in TMODULE_SLOTS:
        yield {"kind": "tmodule", "source": source, "prec": prec,
               "expect": "record"}
    for sets, deg in RELATION_SLOTS:
        for picked in sets:
            yield {"kind": "relations",
                   "values": [list(RELATION_VALUES[i]) for i in picked],
                   "deg": deg, "N": 40, "N_recheck": 60, "expect": "record"}
    for variants in _cli_pool():
        for argv in variants:
            yield {"kind": "cli", "argv": _check_cli_argv(lib, list(argv)),
                   "expect": "record"}


GENERATORS = {"diffsys-verify": gen_diffsys,
              "certify-transport": gen_certify,
              "cli-session": gen_cli}


def generate(lib, workload, seed):
    """The job list of a workload; the same seed gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    return GENERATORS[workload](lib, rng)


# -- job bodies -------------------------------------------------------------

def _build_block(lib, q, lam, block):
    ds = lib.diffsys
    place = lib.place(q, lam)
    if block["type"] == "omega":
        return ds.build_omega_system(place)
    return ds.build_cmpl_system(lib.index(block["index"].split(",")),
                                lib.args(q, block["args"]), place)


def _build_system(lib, spec):
    systems = [_build_block(lib, spec["q"], spec["lam"], b)
               for b in spec["blocks"]]
    return systems[0] if len(systems) == 1 else lib.diffsys.block_sum(systems)


def run_verify(lib, spec):
    res = lib.diffsys.verify_difference(_build_system(lib, spec),
                                        spec["D"], spec["N"])
    return "ok" if res.is_zero else f"fail ord={res.ord}"


def run_verify_mixed(lib, spec):
    ds = lib.diffsys
    q, lam = spec["q"], spec["lam"]
    place, s = lib.place(q, lam), lib.index(spec["index"].split(","))
    phi_sys = ds.build_cmpl_system(s, lib.args(q, spec["args_phi"]), place)
    psi_sys = ds.build_cmpl_system(s, lib.args(q, spec["args_psi"]), place)
    mixed = ds.DiffSystem(place, phi_sys.phi, psi_sys.psi,
                          weight=phi_sys.weight, alpha=phi_sys.alpha,
                          index=s, args=phi_sys.args, structural_det=True,
                          kind="cmpl")
    res = ds.verify_difference(mixed, spec["D"], spec["N"])
    return "ok" if res.is_zero else f"fail ord={res.ord}"


def run_vabp(lib, spec):
    q = spec["q"]
    sys_ = _build_system(lib, spec)
    P = tuple(tuple(lib.ratk(q, c) for c in entry) for entry in spec["P"])
    P = tuple(lib.diffsys.tp_normalize(entry) for entry in P)
    rho = tuple(lib.ratk(q, r) for r in spec["rho"])
    ok = lib.diffsys.vabp_certify(sys_, lib.ratk(q, spec["gamma"]), rho, P,
                                  spec["D"], spec["N"])
    return "certified" if ok else "refused"


def run_mpl(lib, spec):
    ds, q = lib.diffsys, spec["q"]
    sys_ = ds.build_cmpl_system(lib.index(spec["index"].split(",")),
                                lib.args(q, spec["args"]),
                                lib.place(q, spec["lam"]))
    w, ctx = sys_.weight, lib.ctx(q)
    R = lib.algebra.RatK
    top = w if spec["ftype"] == "t^w" else w + 1
    ftype = (R.zero(ctx),) * top + (R.one(ctx),)
    cert = ds.mpl_certificate(sys_, w, ftype, spec["n_list"],
                              prec=spec["prec"])
    return "ok" if cert.ok else f"fail {cert.failed()}"


def run_mzv_inf(lib, spec):
    s = lib.index(spec["index"].split(","))
    return str(lib.polylog.mzv_inf(s, lib.ctx(spec["q"]),
                                   spec["prec"] // s[0] + 1,
                                   prec=spec["prec"]))


def run_cmspl(lib, spec):
    q = spec["q"]
    return str(lib.polylog.cmspl_eval(lib.index(spec["index"].split(",")),
                                      lib.args(q, spec["args"]),
                                      lib.place(q, spec["lam"]),
                                      spec["prec"]))


def run_star_identity(lib, spec):
    """Star value against its expansion into non-star values."""
    pl, q, prec = lib.polylog, spec["q"], spec["prec"]
    place = lib.place(q, spec["lam"])
    s, u = lib.index(spec["index"].split(",")), lib.args(q, spec["args"])
    star = pl.cmspl_eval(s, u, place, prec)
    acc = lib.local.LocalNum.zero_to_precision(place, prec)
    for _coeff, idx, pattern in pl.star_expand(s):
        acc = acc + pl.cmpl_eval(idx, pl.merge_args(u, pattern), place, prec)
    return "equal" if star.congruent(acc, prec) else "differ"


def run_stuffle(lib, spec):
    """Li_a(u) Li_b(w) = Li_(a,b)(u,w) + Li_(b,a)(w,u) + Li_(a+b)(uw)."""
    pl, q, prec = lib.polylog, spec["q"], spec["prec"]
    place = (lib.place(q, spec["lam"]) if spec["place"] == "v"
             else lib.local.PlaceInf(lib.ctx(q)))
    a, b = spec["a"], spec["b"]
    u, w = lib.ratk(q, spec["u"]), lib.ratk(q, spec["w"])
    I, A = pl.Index, pl.ArgTuple
    lhs = (pl.cmpl_eval(I((a,)), A((u,)), place, prec)
           * pl.cmpl_eval(I((b,)), A((w,)), place, prec))
    rhs = (pl.cmpl_eval(I((a, b)), A((u, w)), place, prec)
           + pl.cmpl_eval(I((b, a)), A((w, u)), place, prec)
           + pl.cmpl_eval(I((a + b,)), A((u * w,)), place, prec))
    return "equal" if lhs.congruent(rhs, prec) else "differ"


def run_zeta(lib, spec, shipped):
    rel = lib.relations
    ctx = lib.ctx(3)
    if spec["source"] == "builtin":
        dec = rel.depth1_decomposition(ctx, spec["s"])
    else:
        text = (FORGED_DECOMPOSITION if spec["source"] == "forged"
                else shipped[spec["source"]])
        dec, _ = rel.parse_decomposition(text)
    try:
        cert = rel.verify_decomposition_inf(dec, spec["cert_prec"])
    except lib.errors.CertificationFailed:
        return "refused"
    if cert.get("prec") != spec["cert_prec"]:
        return f"certified at prec {cert.get('prec')}"
    return str(rel.eval_vmzv(dec, lib.place(3, 0), spec["prec"]))


def run_tmodule(lib, spec, shipped):
    tm = lib.tmodule
    place = lib.place(3, 0)
    module = tm.parse_tmodule_spec(shipped[spec["source"]])
    cert = tm.validate_tmodule(module, place, 30)
    if not cert.ok:
        return ["not validated", "", ""]
    a, _ = tm.residue_annihilator(module, place)
    prec = spec["prec"]
    one = tm.extended_cmspl_v(module, place, prec, annihilator=a)
    two = tm.extended_cmspl_v(module, place, prec, annihilator=a * a)
    return ["validated", str(one),
            "agree" if one.congruent(two, prec) else "disagree"]


def run_relations(lib, spec):
    rel, pl = lib.relations, lib.polylog
    place = lib.place(3, 0)
    values = []
    for i, (idx, args) in enumerate(spec["values"]):
        s = lib.index(idx.split(","))
        val = pl.cmspl_eval(s, lib.args(3, args.split(",")), place,
                            spec["N_recheck"] + 10)
        values.append(rel.ValueHandle(f"v{i}", s.weight, val))
    reports = rel.find_k_relations(values, spec["deg"], spec["N"],
                                   spec["N_recheck"])
    return [[rep.line(), sorted({values[i].weight for i in rep.support()})]
            for rep in reports]


def execute(lib, spec, shipped):
    """Run one in-process job; returns its output as plain data."""
    kind = spec["kind"]
    if kind == "verify":
        return run_verify(lib, spec)
    if kind == "verify-mixed":
        return run_verify_mixed(lib, spec)
    if kind == "vabp":
        return run_vabp(lib, spec)
    if kind == "mpl":
        return run_mpl(lib, spec)
    if kind == "mzv_inf":
        return run_mzv_inf(lib, spec)
    if kind == "cmspl":
        return run_cmspl(lib, spec)
    if kind == "star-identity":
        return run_star_identity(lib, spec)
    if kind == "stuffle":
        return run_stuffle(lib, spec)
    if kind == "zeta":
        return run_zeta(lib, spec, shipped)
    if kind == "tmodule":
        return run_tmodule(lib, spec, shipped)
    if kind == "relations":
        return run_relations(lib, spec)
    raise ValueError(f"unknown job kind {kind!r}")


# -- checks -------------------------------------------------------------------

def _truncated_terms(text, cutoff):
    """The printed digits of a v-adic value below v^cutoff, plus the tail."""
    terms = [t for t in text.split(" + ") if not t.startswith("O(")]
    keep = []
    for t in terms:
        exp = int(t.rsplit("^", 1)[1]) if "^" in t else 0
        if exp < cutoff:
            keep.append(t)
    return " + ".join(keep + [f"O(v^{cutoff})"])


def check(spec, output, records):
    """(ok, note) for one job output; never calls the library."""
    expect = spec["expect"]
    kind = spec["kind"]
    if expect == "record":
        want = records.get(kind, {}).get(record_key(spec))
        if want is None:
            return False, "no frozen record for this input"
        if kind == "tmodule":
            ok = (output[0] == "validated" and output[2] == "agree"
                  and output[1] == want)
        elif kind == "relations":
            ok = (output == want
                  and all(len(weights) == 1 for _line, weights in output)
                  and all(residual_ok(line, spec["N_recheck"])
                          for line, _w in output))
        else:
            ok = output == want
        return ok, "" if ok else "differs from the frozen record"
    if expect == "fail":
        ok = isinstance(output, str) and output.startswith("fail")
        return ok, "" if ok else "negative control was not rejected"
    if expect == "golden":
        ok = (isinstance(output, str) and output.startswith("2*v^1 ")
              and _truncated_terms(output, 40) == ZETA1_GOLDEN
              and output.endswith(f"O(v^{spec['prec']})"))
        return ok, "" if ok else "zeta(1)_v differs from the golden digits"
    if expect == "zero":
        ok = output == f"O(v^{spec['prec']})"
        return ok, "" if ok else "zeta(2)_v does not vanish"
    ok = output == expect
    return ok, "" if ok else f"expected {expect!r}, got {output!r}"


def residual_ok(line, n_recheck):
    ordtxt = line.rsplit("residual_ord=", 1)[1]
    return ordtxt == "inf" or int(ordtxt) >= n_recheck
