"""Exact arithmetic in F_q, A = F_q[T], k = F_q(T), and the Carlitz action.

Elements of F_q are encoded as integers in [0, q): the base-p digits of the
code are the coordinates in the polynomial basis 1, x, ..., x^(e-1) of F_q
over F_p.  For e = 1 the code is just the residue mod p.  Every field
operation (add, neg, mul, inv) is a lookup in a table built once per
context, so arithmetic is uniform in q.  For e = 1 the tables are residue
arithmetic mod p; for e > 1 codes add digitwise, and products come from
PolyA over F_p modulo the irreducible modulus m, so PolyA is the only
polynomial arithmetic over a finite field in the package.

Polynomials over F_q (type PolyA) are coefficient tuples, ascending in T,
with trailing zeros stripped.  Rational functions (type RatK) are reduced
fractions with monic denominator, which makes equality structural.
"""

from __future__ import annotations

import itertools

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

    def sub(self, a, b):
        return self.add(a, self.neg(b))

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
        ctx = self.ctx
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = ctx.add(out[i], c)
        return PolyA(ctx, out)

    def __neg__(self):
        ctx = self.ctx
        return PolyA(ctx, [ctx.neg(c) for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        ctx = self.ctx
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return PolyA.zero(ctx)
        out = [0] * (len(a) + len(b) - 1)
        mul, add = ctx.mul, ctx.add
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        out[i + j] = add(out[i + j], mul(ai, bj))
        return PolyA(ctx, out)

    def scale(self, c):
        ctx = self.ctx
        return PolyA(ctx, [ctx.mul(c, x) for x in self.coeffs])

    def shift(self, n):
        """Multiply by T^n."""
        if self.is_zero():
            return self
        return PolyA(self.ctx, (0,) * n + self.coeffs)

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = PolyA.one(self.ctx)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def divmod(self, other):
        if other.is_zero():
            raise DivisionByZero("division by zero polynomial")
        ctx = self.ctx
        rem = list(self.coeffs)
        db = other.degree
        inv_lead = ctx.inv(other.lead)
        quo = [0] * max(len(rem) - db, 0)
        while len(rem) - 1 >= db and rem:
            c = ctx.mul(rem[-1], inv_lead)
            shift = len(rem) - 1 - db
            quo[shift] = c
            for i, bc in enumerate(other.coeffs):
                rem[shift + i] = ctx.sub(rem[shift + i], ctx.mul(c, bc))
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

    def _coeff_str(self, c):
        if self.ctx.e == 1 or c < self.ctx.p:
            return str(c)
        v = self.ctx.to_vector(c)
        terms = []
        for i in range(len(v) - 1, -1, -1):
            ci = v[i]
            if ci == 0:
                continue
            if i == 0:
                terms.append(str(ci))
            elif i == 1:
                terms.append("x" if ci == 1 else f"{ci}x")
            else:
                terms.append(f"x^{i}" if ci == 1 else f"{ci}x^{i}")
        return "[" + "+".join(terms) + "]"

    def __str__(self):
        if self.is_zero():
            return "0"
        terms = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            cs = self._coeff_str(c)
            if i == 0:
                terms.append(cs)
            else:
                var = "T" if i == 1 else f"T^{i}"
                terms.append(var if cs == "1" else f"{cs}*{var}")
        return "+".join(terms)

    def __repr__(self):
        return f"PolyA({self})"


def parse_poly(ctx, text):
    """Parse the canonical text form of a PolyA."""
    text = text.strip().replace(" ", "")
    if text == "0":
        return PolyA.zero(ctx)
    coeffs = {}
    for term in _split_terms(text):
        c, k = _parse_term(ctx, term)
        if k in coeffs:
            raise ParseError(f"repeated power T^{k}")
        coeffs[k] = c
    out = [0] * (max(coeffs) + 1)
    for k, c in coeffs.items():
        out[k] = c
    return PolyA(ctx, out)


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


def _parse_fq_coeff(ctx, text):
    if text.startswith("["):
        if not text.endswith("]"):
            raise ParseError(f"unbalanced bracket in {text!r}")
        body = text[1:-1]
        v = [0] * ctx.e
        for part in body.split("+"):
            if "x" in part:
                head, _, exp = part.partition("x")
                c = _parse_int(head, text) if head else 1
                i = _parse_int(exp[1:], text) if exp.startswith("^") else (1 if not exp else None)
                if i is None:
                    raise ParseError(f"bad coefficient term {part!r}")
            else:
                c, i = _parse_int(part, text), 0
            if i >= ctx.e:
                raise ParseError("coefficient exponent exceeds field degree")
            v[i] = (v[i] + c) % ctx.p
        return ctx.from_vector(v)
    c = _parse_int(text, text) % ctx.p
    return c


def _parse_term(ctx, term):
    if "T" not in term:
        return _parse_fq_coeff(ctx, term), 0
    head, _, tail = term.partition("T")
    if head.endswith("*"):
        head = head[:-1]
    c = _parse_fq_coeff(ctx, head) if head else 1
    if tail == "":
        k = 1
    elif tail.startswith("^") and tail[1:].isdecimal():
        k = int(tail[1:])
    else:
        raise ParseError(f"bad term {term!r}")
    return c, k


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
    text = text.strip().replace(" ", "")
    if "/" in text:
        num_s, _, den_s = text.partition("/")
        num = parse_poly(ctx, num_s.strip("()"))
        den = parse_poly(ctx, den_s.strip("()"))
        return RatK(num, den)
    return RatK(parse_poly(ctx, text.strip("()")))


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
