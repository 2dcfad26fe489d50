"""Print the timeit grid of the chain sums cmpl_eval and cmspl_eval.

For q in {2, 3, 4, 5, 9}, the place v with lambda = 1 and the infinite
place, the indices (1), (2), (1,1), (2,1), (1,1,1) and (1,2,1,1) and prec
in {40, 120, 240}, one row gives the microseconds per call of
polylog.cmpl_eval and polylog.cmspl_eval, the least of five timeit repeats
in each of three rounds.  The arguments are fixed: with g = q - 1
(outside F_p at q = 4 and 9) and pi = theta + 1, u_1 = pi (theta + g) at
v and theta + g at infinity, and u_l = theta + g for l >= 2.  Standard
library only, and pytest does not collect it.  Run from anywhere:

    python tests/chain_grid.py              # this checkout's src
    python tests/chain_grid.py OTHER/src    # OTHER/src, then this one

Each tree is timed in its own process, once per round, the trees in turn,
so that a slow phase of a shared host falls on every tree alike.  Given
other source trees, the table gives every tree's times, the ratio of the
last tree's time to the first's per cell, and the median and the largest
ratio.
"""

import json
import pathlib
import statistics
import subprocess
import sys
import timeit

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
FIELDS = ((2, 1), (3, 1), (2, 2), (5, 1), (3, 2))
INDICES = ((1,), (2,), (1, 1), (2, 1), (1, 1, 1), (1, 2, 1, 1))
PRECS = (40, 120, 240)
ROUNDS = 3


def cells():
    """(q, place, index, prec) of every row, in the order printed."""
    return [(p ** e, where, s, prec) for p, e in FIELDS
            for where in ("v", "inf") for s in INDICES for prec in PRECS]


def micros(call):
    """The least of five repeats, in microseconds per call, each repeat
    about 20 ms long."""
    timer = timeit.Timer(call)
    once = timer.timeit(1)
    number = max(1, int(0.02 / max(once, 1e-9)))
    return min(timer.repeat(5, number)) / number * 1e6


def measure(src):
    """The (cmpl, cmspl) microseconds of every cell with src's package."""
    sys.path.insert(0, src)
    from vcarlitz.algebra import FqContext, PolyA, RatK
    from vcarlitz.local import PlaceInf, PlaceV
    from vcarlitz.polylog import ArgTuple, Index, cmpl_eval, cmspl_eval

    out = []
    for p, e in FIELDS:
        ctx = FqContext(p, e)
        c = RatK(PolyA(ctx, (ctx.q - 1, 1)))
        for place in (PlaceV(ctx, 1), PlaceInf(ctx)):
            head = (RatK(place.uniformizer()) * c
                    if isinstance(place, PlaceV) else c)
            for s in INDICES:
                u = ArgTuple((head,) + (c,) * (len(s) - 1))
                for prec in PRECS:
                    out.append([micros(lambda f=f: f(Index(s), u, place, prec))
                                for f in (cmpl_eval, cmspl_eval)])
    return out


def main(argv):
    if argv[:1] == ["--measure"]:
        print(json.dumps(measure(argv[1])))
        return
    srcs = [str(pathlib.Path(a).resolve()) for a in argv] + [str(SRC)]
    runs = [None] * len(srcs)
    for _ in range(ROUNDS):
        for k, src in enumerate(srcs):
            got = json.loads(subprocess.run(
                [sys.executable, __file__, "--measure", src], check=True,
                capture_output=True, text=True).stdout)
            runs[k] = got if runs[k] is None else [
                [min(a, b) for a, b in zip(old, new)]
                for old, new in zip(runs[k], got)]
    head = ["q", "place", "index", "prec"]
    for kind in ("cmpl", "cmspl"):
        head += [f"{kind} µs ({k})" for k in range(len(runs))]
        if len(runs) > 1:
            head.append(f"{kind} ratio")
    print("| " + " | ".join(head) + " |")
    print("|" + " --- |" * len(head))
    ratios = []
    for n, (q, where, s, prec) in enumerate(cells()):
        row = [str(q), where, ",".join(map(str, s)), str(prec)]
        for j in range(2):
            row += [f"{run[n][j]:.1f}" for run in runs]
            if len(runs) > 1:
                ratios.append(runs[-1][n][j] / runs[0][n][j])
                row.append(f"{ratios[-1]:.2f}")
        print("| " + " | ".join(row) + " |")
    for k, src in enumerate(srcs):
        print(f"({k}) {src}")
    if ratios:
        print(f"cells={len(ratios)} "
              f"median_ratio={statistics.median(ratios):.3f} "
              f"max_ratio={max(ratios):.3f}")


if __name__ == "__main__":
    main(sys.argv[1:])
