"""Print the timeit grid of the F_q product kernel and its two callers.

For q in {3, 4, 9, 17, 31}, dense and sparse operands (a digit is nonzero
with probability 1/4 in a sparse one) and W in {1, 4, 16, 64, 80, 256},
one row gives the microseconds per call of

- algebra.fq_convolve(ctx, a, b, W) on two runs of W codes (the shape
  LocalNum.__mul__ passes: n = W of 2W - 1 positions),
- LocalNum.__mul__ on two W-digit windows, and
- PolyA.__mul__ on two polynomials of W coefficients,

each the least of seven timeit repeats.  The operands are drawn from a
fixed seed, so two checkouts time the same products.  Standard library
only, and pytest does not collect it.  Run from anywhere:

    python tests/kernel_grid.py
"""

import pathlib
import random
import sys
import timeit

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from vcarlitz.algebra import FqContext, PolyA, fq_convolve  # noqa: E402
from vcarlitz.local import LocalNum, PlaceV  # noqa: E402

FIELDS = ((3, 1), (2, 2), (3, 2), (17, 1), (31, 1))
WIDTHS = (1, 4, 16, 64, 80, 256)


def operand(rng, q, W, sparse):
    """W codes with a nonzero first and last one."""
    def code():
        return 0 if sparse and rng.random() < 0.75 else rng.randrange(1, q)
    body = [code() for _ in range(W)]
    body[0] = body[-1] = rng.randrange(1, q)
    return tuple(body)


def micros(call):
    timer = timeit.Timer(call)
    number, _ = timer.autorange()
    number = max(1, number // 8)
    return min(timer.repeat(7, number)) / number * 1e6


def main():
    rng = random.Random(26)
    print("| q | operands | W | fq_convolve µs | LocalNum.__mul__ µs "
          "| PolyA.__mul__ µs |")
    print("| --- | --- | --- | --- | --- | --- |")
    for p, e in FIELDS:
        ctx = FqContext(p, e)
        place = PlaceV(ctx, 0)
        for kind in ("dense", "sparse"):
            for W in WIDTHS:
                a = operand(rng, ctx.q, W, kind == "sparse")
                b = operand(rng, ctx.q, W, kind == "sparse")
                x, y = LocalNum(place, 0, a), LocalNum(place, 0, b)
                f, g = PolyA(ctx, a), PolyA(ctx, b)
                cells = (micros(lambda: fq_convolve(ctx, a, b, W)),
                         micros(lambda: x * y), micros(lambda: f * g))
                print(f"| {ctx.q} | {kind} | {W} | "
                      + " | ".join(f"{c:.1f}" for c in cells) + " |",
                      flush=True)


if __name__ == "__main__":
    main()
