"""Exact arithmetic in F_q, A = F_q[T], k = F_q(T), and the Carlitz action.

Elements of F_q are encoded as integers in [0, q): the base-p digits of the
code are the coordinates in the polynomial basis 1, x, ..., x^(e-1) of F_q
over F_p.  For e = 1 the code is just the residue mod p.  Every field
operation (add, neg, mul, inv) is a lookup in a table built once per
context, so arithmetic is uniform in q.  For e = 1 the tables are residue
arithmetic mod p; for e > 1 codes add digitwise, and products come from
PolyA over F_p modulo the irreducible modulus m, so PolyA is the only
polynomial arithmetic over a finite field in the package.

Every product of two runs of F_q codes -- PolyA coefficients and LocalNum
digits -- is one call of fq_convolve, and the digit grids of a series
product go through _grid_product.  Both either add pair by pair of nonzero
entries through the table rows or make one big-integer product of the
packed runs (Kronecker substitution): fq_convolve takes the route of least
estimated cost, _grid_product the pair loop when those pairs are no more
than the product's positions.

Polynomials over F_q (type PolyA) are coefficient tuples, ascending in T,
with trailing zeros stripped.  Rational functions (type RatK) are reduced
fractions with monic denominator, which makes equality structural.
"""

from __future__ import annotations

import itertools
import sys
from array import array

from .errors import DivisionByZero, ParseError

NEG_INF = float("-inf")  # degree of the zero polynomial

# default F_p[x] moduli for the small extension fields used in experiments
_DEFAULT_MODULI = {
    (2, 2): (1, 1, 1),        # x^2+x+1
    (2, 3): (1, 1, 0, 1),     # x^3+x+1
    (2, 4): (1, 1, 0, 0, 1),  # x^4+x+1
    (3, 2): (1, 0, 1),        # x^2+1
    (3, 3): (1, 2, 0, 1),     # x^3+2x+1
    (5, 2): (3, 0, 1),        # x^2+3
}


def _is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class FqContext:
    """The field F_q with q = p^e, elements coded as ints in [0, q)."""

    def __init__(self, p, e=1, modulus=None):
        if not _is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if e < 1:
            raise ValueError("extension degree must be >= 1")
        self.p = p
        self.e = e
        self.q = p ** e
        if self.q > 1024:
            raise ValueError("field size beyond desk scale")
        r = list(range(p))
        if e == 1:
            self.modulus = (0, 1)  # identity modulus: F_p itself
            self._add = [r[a:] + r[:a] for a in r]     # (a + b) % p
            self._mul = [[a * b % p for b in range(p)] for a in range(p)]
        else:
            if modulus is None:
                modulus = _DEFAULT_MODULI.get((p, e))
                if modulus is None:
                    raise ValueError(f"no default modulus for q = {p}^{e}")
            modulus = tuple(c % p for c in modulus)
            if len(modulus) != e + 1 or modulus[-1] != 1:
                raise ValueError("modulus must be monic of degree e")
            m = PolyA(FqContext(p), modulus)
            if not irreducible_test(m):
                raise ValueError("modulus is not irreducible over F_p")
            self.modulus = modulus
            # F_q = F_p[x]/(m).  Codes add digitwise mod p, so the add table
            # grows one digit at a time; b -> va * b is F_p-linear, so the
            # row of va is spanned by the e products va * x^u mod m
            self._add = [[0]]
            for u in range(e):
                self._add = [[x + p ** u * c for c in r[ah:] + r[:ah]
                              for x in row] for ah in r for row in self._add]
            self._mul = []
            for va in (PolyA(m.ctx, self.to_vector(a)) for a in range(self.q)):
                row = [0]
                for u in range(e):
                    img = self.from_vector((va.shift(u) % m).coeffs)
                    row = [self._add[x][c] for c in itertools.accumulate(
                        [img] * (p - 1), self.add, initial=0) for x in row]
                self._mul.append(row)
        self._neg = [row.index(0) for row in self._add]
        self._inv = [0] + [row.index(1) for row in self._mul[1:]]
        # fq_convolve's byte slots (e = 1, p < 128): the longest operand
        # whose slot sums m (p - 1)^2 fit one and two bytes, a byte mod p,
        # and a high byte's weight 256 h mod p
        small = e == 1 and p < 128
        self._byte_slots = [c // (p - 1) ** 2 * small for c in (255, 65535)]
        self._residue = bytes(i % p for i in range(256))
        self._high = bytes(h * 256 % p for h in range(256)) if small else b""

    # -- element codec -------------------------------------------------

    def to_vector(self, a):
        """Coordinate vector (length <= e) of the element code a."""
        out = []
        while a:
            out.append(a % self.p)
            a //= self.p
        return tuple(out)

    def from_vector(self, v):
        code = 0
        for c in reversed(v):
            code = code * self.p + (c % self.p)
        return code

    # -- field operations ----------------------------------------------

    def add(self, a, b):
        return self._add[a][b]

    def neg(self, a):
        return self._neg[a]

    def mul(self, a, b):
        return self._mul[a][b]

    def inv(self, a):
        if a == 0:
            raise DivisionByZero("inverse of 0 in F_q")
        return self._inv[a]

    def pow(self, a, n):
        if n < 0:
            return self.pow(self.inv(a), -n)
        out = 1
        base = a
        while n:
            if n & 1:
                out = self._mul[out][base]
            base = self._mul[base][base]
            n >>= 1
        return out

    def __eq__(self, other):
        return (isinstance(other, FqContext)
                and (self.p, self.e, self.modulus) == (other.p, other.e, other.modulus))

    def __hash__(self):
        return hash((self.p, self.e, self.modulus))

    def __repr__(self):
        return f"FqContext(q={self.q})"


# Kronecker substitution.  A run of F_q digits d_0, d_1, ... becomes one
# integer: digit m sits at position m, a position holds 2e - 1 coordinate
# slots (the F_p coordinates of the digit, with room for the degree 2e - 2
# of a coordinate product), and a slot is SIZE bytes, wide enough that no
# sum of digit products carries into its neighbour.  One big-integer
# product then convolves both the digits and their coordinates; the result
# is folded modulo the field modulus (e > 1) and read back modulo p.

_TYPECODES = {array(code).itemsize: code for code in "BHILQ"}
_WIDTHS = (1, 1, 2, 4, 4, 8, 8, 8, 8)   # array item size for 0..8 bytes


def _slot_size(ctx, terms):
    """Bytes per slot for a convolution summing at most `terms` digit products.

    A slot holds at most B = terms * e * (p - 1)^2 before the fold.  Folding
    x^u for u = 2e - 2, ..., e adds at most (p - 1) times slot u to each
    lower slot, so slot u ends at most B p^(2e - 2 - u) <= B p^(2e - 2).
    """
    p, e = ctx.p, ctx.e
    size = -(-(terms * e * (p - 1) ** 2 * p ** (2 * e - 2)).bit_length() // 8)
    if size > 8:
        raise OverflowError("convolution too large for 64-bit Kronecker slots")
    return _WIDTHS[size]


def _pack(ctx, pieces, size):
    """One integer from (position, digits) pieces.

    The slots start as zero bytes and only the digits' coordinate bytes are
    written (little-endian, a coordinate < p in its slot's low bytes), so
    the cost follows the digits, not the zero columns between them.
    """
    p, e = ctx.p, ctx.e
    E = 2 * e - 1
    step = E * size                         # bytes per position
    nbytes = -(-(p - 1).bit_length() // 8)  # bytes of one coordinate
    buf = bytearray(max((pos + len(digits) for pos, digits in pieces),
                        default=0) * step)
    for pos, digits in pieces:
        for u in range(e):
            pu = p ** u
            coords = digits if e == 1 else [d // pu % p for d in digits]
            for k in range(nbytes):
                lo = (pos * E + u) * size + k
                buf[lo:lo + len(digits) * step:step] = bytes(
                    coords if nbytes == 1 else [c >> 8 * k & 255
                                                for c in coords])
    return int.from_bytes(buf, "little")


def _unpack(ctx, prod, length, size):
    """The slots of the first `length` positions of a product, folded.

    Returns (raw, view): the little-endian bytes and the slots as an array.
    """
    e = ctx.e
    E = 2 * e - 1
    prod &= (1 << 8 * length * E * size) - 1
    if e > 1:
        bits = 8 * size
        low = int.from_bytes((b"\xff" * size + bytes(size * (E - 1))) * length,
                             "little")
        fold = [(-m) % ctx.p for m in ctx.modulus[:e]]
        for u in range(2 * e - 2, e - 1, -1):
            top = (prod >> u * bits) & low
            prod -= top << u * bits
            for i, c in enumerate(fold):
                if c:
                    prod += c * top << (u - e + i) * bits
    raw = prod.to_bytes(length * E * size, "little")
    view = array(_TYPECODES[size], raw)
    if sys.byteorder == "big":
        view.byteswap()
    return raw, view


def _digits(ctx, view, lo, hi):
    """F_q digit codes of the folded positions lo, ..., hi - 1."""
    p, e = ctx.p, ctx.e
    E = 2 * e - 1
    out = [x % p for x in view[lo * E:hi * E:E]]
    for u in range(1, e):
        pu = p ** u
        out = [c + pu * (x % p)
               for c, x in zip(out, view[lo * E + u:hi * E:E])]
    return out


def _pair_sums(ctx, xs, ys, n):
    """(sums, reached) of the products of (position, nonzero digit) pairs:
    sums[k] adds x y over x at i in xs and y at j in ys with i + j = k < n,
    through the rows of the F_q tables, and reached marks the k that a pair
    reaches.  The positions of ys ascend."""
    add, mul = ctx._add, ctx._mul
    acc = [0] * n
    hit = bytearray(n)
    for i, x in xs:
        row = mul[x]
        for j, y in ys:
            k = i + j
            if k >= n:
                break
            acc[k] = add[acc[k]][row[y]]
            hit[k] = 1
    return acc, hit


def fq_convolve(ctx, a, b, n):
    """The first n coefficients of the product of two sequences of F_q
    codes, as a list of at most len(a) + len(b) - 1 codes.

    The one F_q product of the package: LocalNum digits and PolyA
    coefficients.  An operand of one entry scales the other by its table
    row.  Otherwise one rule picks the cheaper of two routes by their
    estimated costs.  The pair loop (_pair_sums) adds each product of
    nonzero entries below n into its position through the table rows.  A
    packed route makes one big-integer product (Kronecker substitution):

    - byte slots, for e = 1 and p < 128 while a slot's largest sum,
      m (p - 1)^2 with m = min(len a, len b), is below 256 (w = 1 byte)
      or 65536 (w = 2).  The codes are the slots' low bytes; the product's
      bytes are read modulo p through the byte table _residue, and at
      w = 2 a high byte h through _high (h 256 mod p), the two added as
      integers (each byte below 2p - 1 < 256, so nothing carries) and read
      once more;
    - otherwise coordinate slots of `size` bytes (_pack, _unpack, _digits).

    Costs are in steps of the pair loop's inner loop, from least-squares
    fits (relative error) of timeit samples of each route over q in {3, 5,
    7, 17, 31, 101, 4, 8, 9}, lengths 2 to 128 and densities 1 to 1/12
    (CPython 3.11 on x86-64, where a step is 0.08 us).  With P = len a +
    len b - 1 the product's positions, A the nonzero entries of a and
    I = pairs n / P the estimated inner steps, the pair loop took 1.15 +
    0.080 I + 0.088 A + 0.027 P us, so its cost is I + A + P / 3 steps
    beyond its 1.15 us.  Beyond the same 1.15 us, the byte route took
    0.45 + 0.0135 P us at w = 1 and 0.98 + 0.032 P at w = 2, or 6 + P / 6
    and 12 + 3 P / 8 steps.  The coordinate route took 5.1 + 0.021 size P
    us at e = 1 and 10.4 + 0.043 (2e - 1) size P at e > 1, or 60 +
    size P / 4 and 60 e + (2e - 1) size P / 2 steps; its cost is taken at
    its usual slots, 4 bytes at e = 1 (where it serves p > 127 and
    products beyond two-byte slots) and 2 at e > 1, as 60 e + (2e - 1) P
    steps, so the rule does not compute the slot size of a product the
    pair loop takes.  The pair loop runs when its cost is at most the
    packed route's.  So a sparse or short product adds its few pairs, and
    at e > 1 a dense one does too up to about 20 entries, below the
    coordinate route's fixed cost of packing and folding.
    """
    la, lb = len(a), len(b)
    if not la or not lb:
        return []
    if la == 1 or lb == 1:
        row, rest = (ctx._mul[b[0]], a) if lb == 1 else (ctx._mul[a[0]], b)
        return [row[x] for x in rest[:n]]
    P = la + lb - 1                 # the product's positions
    n, m = (n if n < P else P), (la if la < lb else lb)
    if m <= ctx._byte_slots[1]:     # slots of w bytes
        w = 1 if m <= ctx._byte_slots[0] else 2
        cost = 6 + P / 6 if w == 1 else 12 + 3 * P / 8
    else:                           # coordinate slots
        w, cost = 0, 60 * ctx.e + (2 * ctx.e - 1) * P
    if (la - a.count(0)) * (1 + (lb - b.count(0)) * n / P) + P / 3 <= cost:
        return _pair_sums(ctx, [(i, x) for i, x in enumerate(a[:n]) if x],
                          [(j, y) for j, y in enumerate(b) if y], n)[0]
    if not w:
        size = _slot_size(ctx, m)
        prod = _pack(ctx, [(0, a)], size) * _pack(ctx, [(0, b)], size)
        return _digits(ctx, _unpack(ctx, prod, n, size)[1], 0, n)
    A, B = ((bytes(a), bytes(b)) if w == 1
            else (bytearray(2 * la), bytearray(2 * lb)))
    if w == 2:                      # the codes are the low bytes
        A[::2], B[::2] = bytes(a), bytes(b)
    raw = (int.from_bytes(A, "little") * int.from_bytes(B, "little")
           ).to_bytes(w * P, "little")
    out = raw[:w * n:w].translate(ctx._residue)
    if w == 2:
        out = (int.from_bytes(out, "little") + int.from_bytes(
            raw[1:2 * n:2].translate(ctx._high), "little")
               ).to_bytes(n, "little").translate(ctx._residue)
    return list(out)


def _grid_product(ctx, a, b, stride, widths, terms):
    """The product of two digit grids, read back row by row.

    A grid is a list of (position, digits) pieces: a run of F_q digits
    starting at position row * stride + column, the positions ascending.
    `terms` bounds the number of digit products that meet in one position
    of the product.  Returns, for each product row r, (lo, digits): its
    digits at columns lo, ..., w - 1, w = widths[r] <= stride, where the
    columns below lo hold zero digits and lo is the first column that a
    pair of nonzero digits reaches (w when none does).

    Two routes give the same rows.  The packed route pays per position: it
    unpacks and reads all len(widths) * stride positions of the product.
    The sparse route pays per pair of nonzero digits, one table step each.
    So the sparse route is taken when the pairs are at most the positions:
    then it does no more steps than the packed route reads positions.  The
    q^i-th powers in Omega and the twisted deformation rows spread digits
    q^i apart, so most products of built series take it.
    """
    pairs = (sum(len(d) - d.count(0) for _, d in a)
             * sum(len(d) - d.count(0) for _, d in b))
    if pairs <= len(widths) * stride:
        return _sparse_product(ctx, a, b, stride, widths)
    return _packed_product(ctx, a, b, stride, widths, terms)


def _packed_product(ctx, a, b, stride, widths, terms):
    """_grid_product by one big-integer product of the packed grids."""
    size = _slot_size(ctx, terms)
    prod = _pack(ctx, a, size) * _pack(ctx, b, size)
    return _rows(ctx, prod, stride, widths, size)


def _sparse_product(ctx, a, b, stride, widths):
    """_grid_product by adding the product of each pair of nonzero digits
    into its position through the rows of the F_q tables."""
    acc, hit = _pair_sums(
        ctx, [(pos + k, d) for pos, ds in a for k, d in enumerate(ds) if d],
        [(pos + k, d) for pos, ds in b for k, d in enumerate(ds) if d],
        len(widths) * stride)
    out = []
    for r, width in enumerate(widths):
        lo, hi = r * stride, r * stride + width
        first = hit.find(1, lo, hi)
        lo = hi if first < 0 else first
        out.append((lo - r * stride, acc[lo:hi]))
    return out


def _rows(ctx, packed, stride, widths, size):
    """Rows (lo, digits) of the first len(widths) rows of a packed grid."""
    raw, view = _unpack(ctx, packed, len(widths) * stride, size)
    step = (2 * ctx.e - 1) * size       # bytes per position
    out = []
    for r, width in enumerate(widths):
        lo, hi = r * stride, r * stride + width
        seg = raw[lo * step:hi * step]
        lo += (len(seg) - len(seg.lstrip(b"\0"))) // step
        out.append((lo - r * stride, _digits(ctx, view, lo, hi)))
    return out


def binary_power(x, n):
    """x^n for n >= 1 by square and multiply, squaring only while bits of
    n remain."""
    out = None
    while n:
        if n & 1:
            out = x if out is None else out * x
        n >>= 1
        if n:
            x = x * x
    return out


class PolyA:
    """Polynomial in T over F_q, coefficients ascending, trailing zeros stripped."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx, coeffs=()):
        self.ctx = ctx
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.coeffs = tuple(coeffs)

    @classmethod
    def zero(cls, ctx):
        return cls(ctx, ())

    @classmethod
    def one(cls, ctx):
        return cls(ctx, (1,))

    @classmethod
    def T(cls, ctx):
        return cls(ctx, (0, 1))

    @classmethod
    def constant(cls, ctx, c):
        return cls(ctx, (c,))

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    @property
    def lead(self):
        if not self.coeffs:
            raise DivisionByZero("leading coefficient of zero polynomial")
        return self.coeffs[-1]

    def is_zero(self):
        return not self.coeffs

    def is_one(self):
        return self.coeffs == (1,)

    def __eq__(self, other):
        return (isinstance(other, PolyA) and self.ctx == other.ctx
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.ctx, self.coeffs))

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        add = self.ctx._add
        out = list(a)
        for i, c in enumerate(b):
            out[i] = add[out[i]][c]
        return PolyA(self.ctx, out)

    def __neg__(self):
        neg = self.ctx._neg
        return PolyA(self.ctx, [neg[c] for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        a, b = self.coeffs, other.coeffs
        return PolyA(self.ctx, fq_convolve(self.ctx, a, b, len(a) + len(b)))

    def scale(self, c):
        row = self.ctx._mul[c]
        return PolyA(self.ctx, [row[x] for x in self.coeffs])

    def shift(self, n):
        """Multiply by T^n."""
        if self.is_zero():
            return self
        return PolyA(self.ctx, (0,) * n + self.coeffs)

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        return binary_power(self, n) if n else PolyA.one(self.ctx)

    def divmod(self, other):
        if other.is_zero():
            raise DivisionByZero("division by zero polynomial")
        ctx = self.ctx
        add, mul, neg = ctx._add, ctx._mul, ctx._neg
        rem = list(self.coeffs)
        db = other.degree
        inv_lead = ctx.inv(other.lead)
        quo = [0] * max(len(rem) - db, 0)
        while len(rem) > db:
            # rem -= c T^shift other, which clears rem's top coefficient
            shift = len(rem) - 1 - db
            quo[shift] = c = mul[rem[-1]][inv_lead]
            row = mul[neg[c]]
            for i, y in enumerate(other.coeffs, shift):
                rem[i] = add[rem[i]][row[y]]
            while rem and rem[-1] == 0:
                rem.pop()
        return PolyA(ctx, quo), PolyA(ctx, rem)

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def __mod__(self, other):
        return self.divmod(other)[1]

    def monic(self):
        if self.is_zero():
            return self
        return self.scale(self.ctx.inv(self.lead))

    def gcd(self, other):
        a, b = self, other
        if a.is_zero() and b.is_zero():
            raise DivisionByZero("gcd(0, 0)")
        while not b.is_zero():
            a, b = b, a % b
        return a.monic()

    def eval_fq(self, x):
        """Evaluate at an element of F_q (Horner)."""
        ctx = self.ctx
        out = 0
        for c in reversed(self.coeffs):
            out = ctx.add(ctx.mul(out, x), c)
        return out

    def frobenius(self, n=1):
        """Raise to the Q = q^n power by spreading the coefficients.

        (sum c_i T^i)^Q = sum c_i T^(Q i): c^Q = c on F_q, and the Q-th
        power is additive in characteristic p.
        """
        if n < 0:
            raise ValueError("only forward q-powers are supported")
        Q = self.ctx.q ** n
        if Q == 1 or not self.coeffs:
            return self
        out = [0] * ((len(self.coeffs) - 1) * Q + 1)
        out[::Q] = self.coeffs
        return PolyA(self.ctx, out)

    # -- canonical text form -------------------------------------------

    def __str__(self):
        if self.is_zero():
            return "0"
        cs = self.coeffs
        return "+".join(fq_terms(self.ctx, (
            (cs[i], _power("T", i)) for i in range(len(cs) - 1, -1, -1)
            if cs[i])))

    def __repr__(self):
        return f"PolyA({self})"


# -- the text form of a sum of terms c*X over F_q ------------------------
#
# PolyA ("[x+1]*T^2+T+2"), LocalNum ("2*v^-2 + 1 + v^1 + O(v^2)") and
# RvElem ("[x]*v^-3+v^-1+1") print through fq_terms and parse through
# parse_terms; each caller names only its symbol and its power syntax.  An
# F_q coefficient is fq_str's text: the integer itself in F_p, otherwise
# its coordinates in brackets, itself a sum of terms over F_p in x.

def fq_str(ctx, c):
    """The text of the F_q code c: c itself when it lies in F_p, else its
    polynomial in x over F_p in brackets, [x+1] for x + 1."""
    if c < ctx.p:
        return str(c)
    v = ctx.to_vector(c)
    return "[" + "+".join(fq_terms(ctx, (
        (v[i], _power("x", i)) for i in range(len(v) - 1, -1, -1) if v[i]),
        "")) + "]"


def fq_terms(ctx, terms, mul="*"):
    """The text of each term c*X, for (c, X) in terms with c a nonzero F_q
    code and X the text of its power: X alone when c is 1, and c alone
    when X is empty (the constant term)."""
    for c, x in terms:
        if not x:
            yield fq_str(ctx, c)
        elif c == 1:
            yield x
        else:
            yield f"{fq_str(ctx, c)}{mul}{x}"


def _power(sym, k):
    """sym^k in the syntax of PolyA and of a bracket coefficient."""
    return "" if k == 0 else sym if k == 1 else f"{sym}^{k}"


def parse_terms(ctx, text, sym, power="^"):
    """The coefficient list, ascending in k, of a sum of terms c*X over F_q.

    Terms are split at each '+' outside brackets.  X is sym with the power
    syntax `power`: "^" reads sym^k, and sym alone for k = 1; "^-" reads
    sym^-k.  A term without sym is the constant term.  The coefficient c
    is fq_str's text or any integer (read mod p), written before X with an
    optional '*', and 1 when absent.  Each error names its term.
    """
    coeffs = {}
    for term in _split_terms(text.strip().replace(" ", "")):
        try:
            c, k = _parse_term(ctx, term, sym, power)
        except ParseError as exc:
            raise ParseError(f"bad term {term!r}: {exc}") from None
        if k in coeffs:
            raise ParseError(f"repeated power {sym}{power}{k}")
        coeffs[k] = c
    out = [0] * (max(coeffs) + 1)
    for k, c in coeffs.items():
        out[k] = c
    return out


def parse_poly(ctx, text):
    """Parse the canonical text form of a PolyA."""
    return PolyA(ctx, parse_terms(ctx, text, "T"))


def _split_terms(text):
    # '+' inside [...] brackets is part of a coefficient
    terms, depth, cur = [], 0, []
    for ch in text:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        if ch == "+" and depth == 0:
            terms.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    terms.append("".join(cur))
    return terms


def _parse_term(ctx, term, sym, power):
    head, found, tail = term.rpartition(sym)
    if not found:
        return _parse_fq_coeff(ctx, tail), 0
    if not tail and power == "^":
        k = 1
    elif tail.startswith(power) and tail[len(power):].isdecimal():
        k = int(tail[len(power):])
    else:
        raise ParseError(f"bad power in term {term!r}")
    head = head.removesuffix("*")
    return (_parse_fq_coeff(ctx, head) if head else 1), k


def _parse_fq_coeff(ctx, text):
    """The F_q code of a coefficient's text: an integer, read mod p, or
    fq_str's bracket form."""
    if not text.startswith("["):
        return _parse_int(text, text) % ctx.p
    body = text[1:-1]
    if not text.endswith("]") or "[" in body:
        raise ParseError(f"bad bracket {text!r}")
    v = parse_terms(ctx, body, "x")
    if len(v) > ctx.e:
        raise ParseError("coefficient exponent exceeds field degree")
    return ctx.from_vector(v)


def _parse_int(text, source, kind="coefficient"):
    """int(text), or a ParseError naming the `kind` of input `source`."""
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"bad {kind} {source!r}") from None


class RatK:
    """Reduced fraction of PolyA with monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if den is None or den.coeffs == (1,):
            # already reduced with a monic denominator
            self.num = num
            self.den = PolyA.one(num.ctx) if den is None else den
            return
        if den.is_zero():
            raise DivisionByZero("zero denominator")
        if not num.is_zero():
            g = num.gcd(den)
            if not g.is_one():
                num = num // g
                den = den // g
        else:
            den = PolyA.one(num.ctx)
        lc = den.lead
        if lc != 1:
            inv = den.ctx.inv(lc)
            num = num.scale(inv)
            den = den.scale(inv)
        self.num = num
        self.den = den

    @property
    def ctx(self):
        return self.num.ctx

    @classmethod
    def zero(cls, ctx):
        return cls(PolyA.zero(ctx))

    @classmethod
    def one(cls, ctx):
        return cls(PolyA.one(ctx))

    @classmethod
    def T(cls, ctx):
        return cls(PolyA.T(ctx))

    def is_zero(self):
        return self.num.is_zero()

    def is_poly(self):
        return self.den.is_one()

    def __eq__(self, other):
        return (isinstance(other, RatK) and self.num == other.num
                and self.den == other.den)

    def __hash__(self):
        return hash((self.num, self.den))

    @classmethod
    def _reduced(cls, num, den):
        """num/den as it stands: coprime, den monic, den = 1 when num = 0."""
        out = object.__new__(cls)
        out.num, out.den = num, den
        return out

    def _plus(self, c, d):
        """self + c/d, c/d reduced, by Henrici's method: for g = gcd(b, d),
        a/b + c/d = t/((b/g) d) with t = a (d/g) + c (b/g), and only
        gcd(t, g) can cancel (Knuth, TAOCP vol. 2, 4.5.1)."""
        a, b = self.num, self.den
        if c.is_zero():
            return self
        if a.is_zero():
            return RatK._reduced(c, d)
        if b == d:
            g, bg, t = b, None, a + c     # bg = b/g, None when it is 1
        else:
            g = b.gcd(d)
            if g.is_one():
                bg, t = b, a * d + c * b
            else:
                bg = b // g
                t = a * (d // g) + c * bg
        if t.is_zero():
            return RatK.zero(t.ctx)
        if not g.is_one():
            h = t.gcd(g)
            if not h.is_one():
                t, d = t // h, d // h
        return RatK._reduced(t, d if bg is None else bg * d)

    def __add__(self, other):
        return self._plus(other.num, other.den)

    def __neg__(self):
        return RatK._reduced(-self.num, self.den)

    def __sub__(self, other):
        return self._plus(-other.num, other.den)

    def __mul__(self, other):
        return RatK(self.num * other.num, self.den * other.den)

    def inv(self):
        if self.is_zero():
            raise DivisionByZero("inverse of zero in k")
        return RatK(self.den, self.num)

    def __truediv__(self, other):
        return self * other.inv()

    def __pow__(self, n):
        if n < 0:
            return self.inv() ** (-n)
        return RatK(self.num ** n, self.den ** n)

    def frobenius(self, n=1):
        return RatK(self.num.frobenius(n), self.den.frobenius(n))

    def __str__(self):
        if self.den.is_one():
            return str(self.num)
        num = str(self.num)
        if "+" in num:
            num = f"({num})"
        den = str(self.den)
        if "+" in den:
            den = f"({den})"
        return f"{num}/{den}"

    def __repr__(self):
        return f"RatK({self})"


def parse_ratk(ctx, text):
    """Parse a PolyA, or num/den, the form RatK prints.

    Each side may sit in one pair of parentheses, and must when there is a
    '/' and it holds a '+', so '1/T+1' is refused, not read as 1/(T+1).
    Any other parenthesis is a ParseError.
    """
    text = text.strip().replace(" ", "")
    sides = text.split("/", 1)
    polys = []
    for side in sides:
        body = side[1:-1] if side[:1] + side[-1:] == "()" else side
        if "(" in body or ")" in body:
            raise ParseError(f"unbalanced or nested parentheses in {text!r}")
        if len(sides) == 2 and "+" in body and body == side:
            raise ParseError(f"a sum over '/' needs parentheses in {text!r}")
        polys.append(parse_poly(ctx, body))
    return RatK(*polys)


def parse_fields(text, repeated=()):
    """Parse ``key: value`` lines, skipping ``#`` comments and blank lines.

    A key in ``repeated`` collects its values, in order, into a list; any
    other key keeps its last value.
    """
    fields = {key: [] for key in repeated}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, val = line.partition(":")
        if not sep:
            raise ParseError(f"malformed line {raw!r}")
        key, val = key.strip(), val.strip()
        if key in repeated:
            fields[key].append(val)
        else:
            fields[key] = val
    return fields


def schoolbook_mul(a, b, zero):
    """The product of two coefficient sequences over a ring, ascending in the
    variable: coefficient n is sum_(i+j=n) a_i * b_j, built from `zero`.

    A zero a_i is skipped.  Empty when either factor is; trailing zeros are
    kept.  Serves the t-polynomials over k and over R_v alike.
    """
    if not a or not b:
        return []
    out = [zero] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai.is_zero():
            continue
        for j, bj in enumerate(b):
            out[i + j] = out[i + j] + ai * bj
    return out


def monic_enumerate(ctx, d):
    """All q^d monic polynomials of degree d, lexicographic by coefficient vector."""
    if d < 0:
        raise ValueError("degree must be >= 0")
    out = []
    for tail in itertools.product(range(ctx.q), repeat=d):
        # tail holds coefficients of T^(d-1), ..., T^0 so the order is
        # lexicographic in the printed (descending) coefficient vector
        out.append(PolyA(ctx, tuple(reversed(tail)) + (1,)))
    return out


def irreducible_test(f):
    """True iff the nonzero polynomial f is irreducible over F_q."""
    if f.is_zero():
        raise ValueError("zero polynomial")
    d = f.degree
    if d == 0:
        return False
    if d == 1:
        return True
    for deg in range(1, d // 2 + 1):
        for g in monic_enumerate(f.ctx, deg):
            if (f % g).is_zero():
                return False
    return True
