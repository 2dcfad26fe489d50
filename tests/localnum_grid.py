"""Print the timeit grid of the LocalNum digit operations.

For q in {2, 3, 4, 5, 9, 131, 1021} and windows W in {16, 64, 240}, one row
gives the microseconds per call of x + y, x - y, -x, x.scale_fq(q - 1),
x.qpow(), x * y and local.geometric_divide(x, 1), the least of five
timeit repeats in each of three rounds.  x and y are W digits drawn from
all of F_q by a fixed seed, at the place v with lambda = 0, x from pi^0
and y from pi^1, so that a sum has a head digit and a W - 1 digit
overlap.  Standard library only, and pytest does not collect it.  Run
from anywhere:

    python tests/localnum_grid.py              # this checkout's src
    python tests/localnum_grid.py OTHER/src    # OTHER/src, then this one

Each tree is timed in its own process, once per round, the trees in turn,
so that a slow phase of a shared host falls on every tree alike.  Given
other source trees, the table gives every tree's times, the ratio of the
last tree's time to the first's per cell, and the median and the largest
ratio per operation.
"""

import json
import pathlib
import random
import statistics
import subprocess
import sys
import timeit

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
FIELDS = ((2, 1), (3, 1), (2, 2), (5, 1), (3, 2), (131, 1), (1021, 1))
WINDOWS = (16, 64, 240)
OPS = ("add", "sub", "neg", "scale", "qpow", "mul", "gdiv")
ROUNDS = 3


def micros(call):
    """The least of five repeats, in microseconds per call, each repeat
    about 20 ms long."""
    timer = timeit.Timer(call)
    once = timer.timeit(1)
    number = max(1, int(0.02 / max(once, 1e-9)))
    return min(timer.repeat(5, number)) / number * 1e6


def measure(src):
    """The microseconds of every operation in every cell with src's
    package."""
    sys.path.insert(0, src)
    from vcarlitz.algebra import FqContext
    from vcarlitz.local import LocalNum, PlaceV, geometric_divide

    rng = random.Random(1)
    out = []
    for p, e in FIELDS:
        ctx = FqContext(p, e)
        place, c = PlaceV(ctx, 0), ctx.q - 1
        for W in WINDOWS:
            x = LocalNum(place, 0, [c] + [rng.randrange(ctx.q)
                                          for _ in range(W - 1)])
            y = LocalNum(place, 1, [1] + [rng.randrange(ctx.q)
                                          for _ in range(W - 1)])
            calls = (lambda: x + y, lambda: x - y, lambda: -x,
                     lambda: x.scale_fq(c), lambda: x.qpow(),
                     lambda: x * y, lambda: geometric_divide(x, 1))
            out.append([micros(f) for f in calls])
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
    head = ["q", "W"]
    for op in OPS:
        head += [f"{op} µs ({k})" for k in range(len(runs))]
        if len(runs) > 1:
            head.append(f"{op} ratio")
    print("| " + " | ".join(head) + " |")
    print("|" + " --- |" * len(head))
    ratios = {op: [] for op in OPS}
    cells = [(p ** e, W) for p, e in FIELDS for W in WINDOWS]
    for n, (q, W) in enumerate(cells):
        row = [str(q), str(W)]
        for j, op in enumerate(OPS):
            row += [f"{run[n][j]:.2f}" for run in runs]
            if len(runs) > 1:
                ratios[op].append(runs[-1][n][j] / runs[0][n][j])
                row.append(f"{ratios[op][-1]:.2f}")
        print("| " + " | ".join(row) + " |")
    for k, src in enumerate(srcs):
        print(f"({k}) {src}")
    if len(runs) > 1:
        for op in OPS:
            print(f"{op}: median_ratio={statistics.median(ratios[op]):.3f} "
                  f"max_ratio={max(ratios[op]):.3f}")


if __name__ == "__main__":
    main(sys.argv[1:])
