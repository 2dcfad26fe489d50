"""Small linear algebra helpers: matrices over k, its completions, and F_q.

Matrices are tuples of tuples.  The kmat_* helpers serve any entry ring
with + - * (RatK over k, LocalNum over a completion); kmat_identity,
kmat_zero, kmat_inv and kmat_poly_eval are exact, over k.
The fq* helpers serve F_q.  Everything is Gaussian elimination at desk
scale; no pivoting heuristics beyond "first nonzero".
"""

from __future__ import annotations

from .algebra import PolyA, RatK
from .errors import SingularStep


# -- matrices over k ----------------------------------------------------

def kmat(rows):
    return tuple(tuple(r) for r in rows)


def kmat_identity(ctx, d):
    one, zero = RatK.one(ctx), RatK.zero(ctx)
    return kmat([[one if i == j else zero for j in range(d)] for i in range(d)])


def kmat_zero(ctx, rows, cols):
    zero = RatK.zero(ctx)
    return kmat([[zero] * cols for _ in range(rows)])


def kmat_add(A, B):
    return kmat([[a + b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)])


def kmat_scale(A, c):
    return kmat([[a * c for a in r] for r in A])


def kmat_mul(A, B):
    n, m, p = len(A), len(B), len(B[0])
    out = []
    for i in range(n):
        row = []
        for j in range(p):
            acc = None
            for l in range(m):
                t = A[i][l] * B[l][j]
                acc = t if acc is None else acc + t
            row.append(acc)
        out.append(row)
    return kmat(out)


def kmat_inv(A):
    """Gauss-Jordan inverse over k; raises SingularStep when singular."""
    d = len(A)
    ctx = A[0][0].ctx
    work = [list(r) + list(ir) for r, ir in zip(A, kmat_identity(ctx, d))]
    for col in range(d):
        piv = next((r for r in range(col, d) if not work[r][col].is_zero()), None)
        if piv is None:
            raise SingularStep("matrix over k is singular")
        work[col], work[piv] = work[piv], work[col]
        inv = work[col][col].inv()
        work[col] = [x * inv for x in work[col]]
        for r in range(d):
            if r != col and not work[r][col].is_zero():
                c = work[r][col]
                work[r] = [x - c * y for x, y in zip(work[r], work[col])]
    return kmat([row[d:] for row in work])


def kmat_poly_eval(a, M, ctx):
    """Evaluate a polynomial a in A at a square matrix over k."""
    d = len(M)
    out = kmat_zero(ctx, d, d)
    power = kmat_identity(ctx, d)
    for i, c in enumerate(a.coeffs):
        if i:
            power = kmat_mul(power, M)
        if c:
            out = kmat_add(out, kmat_scale(power, RatK(PolyA.constant(ctx, c))))
    return out


# -- matrices over F_q --------------------------------------------------

def fqmat_mul(ctx, A, B):
    n, m, p = len(A), len(B), len(B[0])
    add, mul = ctx.add, ctx.mul
    out = []
    for i in range(n):
        row = []
        for j in range(p):
            s = 0
            for l in range(m):
                s = add(s, mul(A[i][l], B[l][j]))
            row.append(s)
        out.append(tuple(row))
    return tuple(out)


def fqmat_identity(d):
    return tuple(tuple(1 if i == j else 0 for j in range(d)) for i in range(d))


def fq_rref(ctx, rows):
    """Reduced row echelon form over F_q; returns (rows, pivot columns).

    Each row operation is one comprehension over rows of the field tables:
    the pivot row is scaled through the multiplication row of its inverse,
    and a row with entry f in the pivot column adds the pivot row scaled
    through the row of -f.
    """
    add, mul, neg = ctx._add, ctx._mul, ctx._neg
    rows = [list(r) for r in rows]
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        scale = mul[ctx._inv[rows[r][c]]]
        rk = rows[r] = [scale[x] for x in rows[r]]
        for i, ri in enumerate(rows):
            if i != r and ri[c]:
                mrow = mul[neg[ri[c]]]
                rows[i] = [add[x][mrow[y]] for x, y in zip(ri, rk)]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return [tuple(row) for row in rows], pivots


def fq_kernel(ctx, rows, ncols):
    """Basis of the right kernel of the matrix given by rows over F_q."""
    if not rows:
        basis = []
        for j in range(ncols):
            v = [0] * ncols
            v[j] = 1
            basis.append(tuple(v))
        return basis
    rref, pivots = fq_rref(ctx, rows)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [0] * ncols
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = ctx.neg(rref[r][fc])
        basis.append(tuple(v))
    return basis


def fq_min_poly(ctx, M):
    """Minimal polynomial of a square matrix over F_q, as a monic PolyA."""
    d = len(M)
    powers = [fqmat_identity(d)]
    vecs = [tuple(x for row in powers[0] for x in row)]
    while True:
        powers.append(fqmat_mul(ctx, powers[-1], M))
        vecs.append(tuple(x for row in powers[-1] for x in row))
        # look for a dependence c_0 I + ... + c_m M^m = 0 with c_m = 1
        m = len(vecs) - 1
        rows = [tuple(vecs[i][j] for i in range(m + 1)) for j in range(d * d)]
        for ker in fq_kernel(ctx, rows, m + 1):
            if ker[m]:
                inv = ctx.inv(ker[m])
                coeffs = [ctx.mul(inv, c) for c in ker]
                return PolyA(ctx, coeffs)
        if m > d:
            raise SingularStep("minimal polynomial search exceeded dimension")
