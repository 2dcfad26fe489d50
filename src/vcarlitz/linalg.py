"""Small linear algebra helpers: matrices over k, its completions, and F_q.

Matrices are tuples of tuples; kmat holds entries of any ring (RatK over
k, LocalNum over a completion).  No product or inverse of matrices over k
is formed: the t-module reads d[a]^(-1) in k[N0] (tmodule._da_inv_row) and
solves its Sylvester steps by F_q combinations.  The fq* helpers serve
F_q, by Gaussian elimination at desk scale with no pivoting heuristics
beyond "first nonzero".
"""

from __future__ import annotations

from .algebra import PolyA
from .errors import SingularStep


# -- matrices over k ----------------------------------------------------

def kmat(rows):
    return tuple(tuple(r) for r in rows)


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
