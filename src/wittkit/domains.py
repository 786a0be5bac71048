"""Coefficient domains for truncated Witt vectors.

Three kinds: ExactCyclotomic (canonical cyclotomic arithmetic, decidable
equality; it lives in cyclotomic, being Q(zeta_L) itself), ExactNumberField
(Q[x]/(P) with a distinguished complex root), and BigComplex (mpmath at a
fixed working precision; eq is gap < tol, with tol = 10^(-prec/2) fixed at
construction).  The exact domains certify integrality and divisibility;
BigComplex refuses to, loudly.

BigComplex decides gap < cap from the binades of the rounded difference
x - y wherever they settle it, and takes the square root only in the two
binades below cap's own; the verdict is always the one the exact gap gives.

Each domain owns its identity: to_json() is the descriptor a stored vector
carries, and domain_from_json reads one back.  Cyclotomic domains are equal
by conductor and big-complex ones by precision; a number field equals only
itself, because two roots of one polynomial are different embeddings.
"""

from __future__ import annotations

from fractions import Fraction

import mpmath
from mpmath.libmp import dps_to_prec, mpf_hypot, mpf_lt, mpf_pos, mpf_sub, round_nearest

from .cyclotomic import ExactCyclotomic, cyclo_context, power
from .errors import CertificationError, PrecisionError, UsageError, require_int
from .qfield import _rational_integer

# Decimal digits carried beyond a requested precision in numeric work.
GUARD_DIGITS = 15


def domain_from_json(dom):
    """The coefficient domain a stored descriptor (a domain's to_json()) names."""
    kind = dom.get("kind") if isinstance(dom, dict) else None
    if kind == ExactCyclotomic.kind:
        return cyclo_context(require_int(dom.get("M"), "stored domain M"))
    if kind == BigComplex.kind:
        return BigComplex(require_int(dom.get("prec"), "stored domain prec"))
    if kind == ExactNumberField.kind:
        raise UsageError("stored vectors with a number-field domain cannot be reloaded")
    raise UsageError(f"unknown stored domain {dom!r}")


class BigComplex:
    """mpmath complex numbers at prec decimal digits; eq means within 10^(-prec/2)."""

    exact = False
    kind = "bigcomplex"

    def __init__(self, prec: int):
        if prec < 10:
            raise UsageError(f"precision {prec} is too low to certify anything")
        self.prec = prec
        self.workdps = prec + GUARD_DIGITS
        self._bits = dps_to_prec(self.workdps)
        with mpmath.workdps(self.workdps):
            self.tol = mpmath.mpf(10) ** (-Fraction(prec, 2))

    def __repr__(self):
        return f"BigComplex({self.prec})"

    def __eq__(self, other):
        return isinstance(other, BigComplex) and other.prec == self.prec

    def __hash__(self):
        return hash((self.kind, self.prec))

    def to_json(self) -> dict:
        return {"kind": self.kind, "prec": self.prec}

    def eq(self, x, y) -> bool:
        return self.below(x, y, self.tol)

    def gap(self, x, y):
        """|x - y| at the working precision."""
        return mpmath.mp.make_mpf(mpf_hypot(*self._difference(x, y), self._bits, round_nearest))

    def below(self, x, y, cap) -> bool:
        """gap(x, y) < cap, read off the binade of x - y where that settles it."""
        diff = self._difference(x, y)
        cap = mpmath.mpmathify(cap)._mpf_
        verdict = _binade_verdict(diff, cap)
        if verdict is None:
            return mpf_lt(mpf_hypot(*diff, self._bits, round_nearest), cap)
        return verdict

    def gap_unless_below(self, x, y, floor):
        """gap(x, y), or None when the binade of x - y alone shows gap(x, y) < floor."""
        diff = self._difference(x, y)
        if _binade_verdict(diff, mpmath.mpmathify(floor)._mpf_):
            return None
        return mpmath.mp.make_mpf(mpf_hypot(*diff, self._bits, round_nearest))

    def _difference(self, x, y):
        """libmp parts of mpc(x) - mpc(y) as the working precision rounds them."""
        (a, b), (c, d) = self._parts(x), self._parts(y)
        bits = self._bits
        return mpf_sub(a, c, bits, round_nearest), mpf_sub(b, d, bits, round_nearest)

    def _parts(self, x):
        """The libmp parts of mpc(x) at the working precision."""
        if isinstance(x, mpmath.mpc):
            re, im = x._mpc_
            return mpf_pos(re, self._bits, round_nearest), mpf_pos(im, self._bits, round_nearest)
        with mpmath.workdps(self.workdps):
            return mpmath.mpc(x)._mpc_

    def add(self, x, y):
        with mpmath.workdps(self.workdps):
            return x + y

    def sub(self, x, y):
        with mpmath.workdps(self.workdps):
            return x - y

    def mul(self, x, y):
        with mpmath.workdps(self.workdps):
            return x * y

    def pow(self, x, e: int):
        with mpmath.workdps(self.workdps):
            return mpmath.mpc(x) ** e

    def zero(self):
        return mpmath.mpc(0)

    def one(self):
        return mpmath.mpc(1)

    def from_fraction(self, c):
        c = Fraction(c)
        with mpmath.workdps(self.workdps):
            return mpmath.mpc(c.numerator) / c.denominator

    def is_algebraic_integer(self, x):
        raise UsageError("BigComplex cannot certify integrality; use certify_vector first")

    def div_prime(self, x, t):
        raise UsageError("BigComplex cannot certify divisibility; use certify_vector first")

    def value_to_json(self, x):
        with mpmath.workdps(self.workdps):
            x = mpmath.mpc(x)
            return [mpmath.nstr(x.real, self.prec), mpmath.nstr(x.imag, self.prec)]

    def value_from_json(self, data):
        with mpmath.workdps(self.workdps):
            return mpmath.mpc(mpmath.mpf(data[0]), mpmath.mpf(data[1]))


def _binade_verdict(parts, cap):
    """Whether the complex number with libmp parts `parts` has modulus < cap,
    when binades alone decide it; None when they do not.

    With t the larger exp + bc of the nonzero parts (so the larger part lies
    in [2^(t-1), 2^t)) and c that of cap, the modulus, and so its correctly
    rounded square root (mpf_hypot), lies in [2^(t-1), 1.5 * 2^t]: below cap
    when t <= c - 2 and at least 2^c > cap when t > c.  Zero parts give 0.
    A nan or infinite part (mantissa 0, exponent nonzero), or a cap that is
    not a positive finite number, leaves the verdict to the exact gap.
    """
    sign, man, exp, bc = cap
    if sign or not man:
        return None
    c = exp + bc
    t = None
    for _, man, exp, bc in parts:
        if man:
            if t is None or exp + bc > t:
                t = exp + bc
        elif exp:
            return None
    if t is None or t <= c - 2:
        return True
    return False if t > c else None


def _poly_trim(cs: list[Fraction]) -> list[Fraction]:
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _poly_divmod(a: list[Fraction], b: list[Fraction]):
    a = list(a)
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    inv = 1 / b[-1]
    while len(a) >= len(b):
        c = a[-1] * inv
        k = len(a) - len(b)
        q[k] = c
        for i, bc in enumerate(b):
            a[k + i] -= c * bc
        _poly_trim(a)
        if not a:
            break
    return q, a


class ExactNumberField:
    """Q[x]/(P) with a distinguished complex root of P.

    P comes in as an integer coefficient list (low degree first) and is made
    monic over Q internally.  Elements are coefficient tuples of length
    deg(P).
    """

    exact = True
    kind = "numberfield"

    def __init__(self, int_coeffs: list[int], root, prec: int = 60):
        if len(int_coeffs) < 2 or int_coeffs[-1] == 0:
            raise UsageError("need a nonconstant polynomial with exact leading coefficient")
        self.int_coeffs = tuple(int(c) for c in int_coeffs)
        lead = Fraction(int_coeffs[-1])
        self.monic = [Fraction(c) / lead for c in int_coeffs]
        self.deg = len(int_coeffs) - 1
        self.prec = prec
        with mpmath.workdps(prec + 10):
            self.root = mpmath.mpc(root)
            resid = _poly_eval_numeric(self.int_coeffs, self.root)
            scale = max(mpmath.mpf(1), abs(self.root)) ** self.deg
            if abs(resid) > scale * mpmath.mpf(10) ** (-prec // 2):
                raise PrecisionError(f"claimed root has residual {mpmath.nstr(abs(resid), 5)}")
        # x^(deg+k) mod P for k = 0..deg-2
        self._high = []
        cur = [Fraction(0)] * self.deg + [Fraction(1)]
        for _ in range(self.deg - 1):
            _, r = _poly_divmod(cur, self.monic)
            r = r + [Fraction(0)] * (self.deg - len(r))
            self._high.append(tuple(r))
            cur = [Fraction(0)] + list(cur)

    def __repr__(self):
        return f"ExactNumberField(deg={self.deg})"

    def to_json(self) -> dict:
        return {"kind": self.kind, "poly": list(self.int_coeffs)}

    def zero(self):
        return tuple([Fraction(0)] * self.deg)

    def one(self):
        return self.from_fraction(1)

    def from_fraction(self, c):
        return tuple([Fraction(c)] + [Fraction(0)] * (self.deg - 1))

    def gen(self):
        """The class of x, i.e. the distinguished root."""
        if self.deg == 1:
            return self.from_fraction(-self.monic[0])
        return tuple([Fraction(0), Fraction(1)] + [Fraction(0)] * (self.deg - 2))

    def eq(self, x, y) -> bool:
        return tuple(x) == tuple(y)

    def add(self, x, y):
        return tuple(a + b for a, b in zip(x, y))

    def sub(self, x, y):
        return tuple(a - b for a, b in zip(x, y))

    def scale(self, x, c):
        c = Fraction(c)
        return tuple(a * c for a in x)

    def mul(self, x, y):
        m = self.deg
        prod = [Fraction(0)] * (2 * m - 1)
        for i, a in enumerate(x):
            if a:
                for j, b in enumerate(y):
                    if b:
                        prod[i + j] += a * b
        out = list(prod[:m])
        for k in range(m, 2 * m - 1):
            c = prod[k]
            if c:
                red = self._high[k - m]
                for i in range(m):
                    out[i] += c * red[i]
        return tuple(out)

    def pow(self, x, e: int):
        return power(self.mul, self.one(), x, e)

    def inverse(self, x):
        # extended Euclid in Q[x] against the monic modulus
        if not any(x):
            raise ZeroDivisionError
        r0, r1 = list(self.monic), _poly_trim(list(x))
        s0, s1 = [], [Fraction(1)]
        while r1:
            q, r = _poly_divmod(r0, r1)
            s = list(s0)
            s += [Fraction(0)] * (len(q) + len(s1) - 1 - len(s))
            for i, qc in enumerate(q):
                if qc:
                    for j, sc in enumerate(s1):
                        s[i + j] -= qc * sc
            r0, r1 = r1, r
            s0, s1 = s1, _poly_trim(s)
        if len(r0) != 1:
            raise CertificationError("modulus not irreducible over Q or x not invertible")
        inv = [c / r0[0] for c in s0]
        inv += [Fraction(0)] * (self.deg - len(inv))
        return tuple(inv[: self.deg])

    def mul_matrix(self, x):
        """Columns are x * basis_i in the power basis."""
        return [self.mul(x, _power_basis(self, i)) for i in range(self.deg)]

    def charpoly(self, x) -> list[Fraction]:
        """Characteristic polynomial of multiplication by x (monic, ascending)."""
        cols = self.mul_matrix(x)
        return _berkowitz([[cols[j][i] for j in range(self.deg)] for i in range(self.deg)])[::-1]

    def is_algebraic_integer(self, x) -> bool:
        return all(c.denominator == 1 for c in self.charpoly(x))

    def div_prime(self, x, t):
        """x / t when the quotient is an algebraic integer, else None.

        t must be a rational integer: this domain holds no embedding of K.
        """
        n = _rational_integer(t)
        if n is None:
            raise UsageError("no embedding of K attached to this number field")
        q = self.scale(x, Fraction(1, n))
        return q if self.is_algebraic_integer(q) else None

    def numeric(self, x, prec: int | None = None):
        with mpmath.workdps(prec or self.prec):
            total = mpmath.mpc(0)
            for c in reversed(x):
                total = total * self.root + mpmath.mpf(c.numerator) / c.denominator
            return total

    def value_to_json(self, x):
        return [str(c) for c in x]

    def value_from_json(self, data):
        return tuple(Fraction(c) for c in data)


def _berkowitz(m: list[list[Fraction]]) -> list[Fraction]:
    """det(lam*I - m), descending, by Berkowitz's division-free recurrence.

    With R and C the rest of row and column k and A = m[k+1:, k+1:], the
    charpoly of m[k:, k:] is the lower-triangular Toeplitz matrix with first
    column 1, -m[k][k], -R*C, -R*A*C, -R*A^2*C, ... times the charpoly of A.
    """
    n = len(m)
    poly = [Fraction(1)]
    for k in range(n - 1, -1, -1):
        row, col = m[k][k + 1 :], [m[i][k] for i in range(k + 1, n)]
        sub = [r[k + 1 :] for r in m[k + 1 :]]
        toeplitz = [Fraction(1), -m[k][k]]
        for _ in range(n - k - 1):
            toeplitz.append(-sum(r * c for r, c in zip(row, col)))
            col = [sum(a * c for a, c in zip(r, col)) for r in sub]
        poly = [
            sum(toeplitz[i - j] * poly[j] for j in range(min(i + 1, len(poly)))) for i in range(len(poly) + 1)
        ]
    return poly


def _power_basis(nf: ExactNumberField, i: int):
    out = [Fraction(0)] * nf.deg
    out[i] = Fraction(1)
    return tuple(out)


def _poly_eval_numeric(coeffs, z):
    total = mpmath.mpc(0)
    for c in reversed(coeffs):
        total = total * z + int(c)
    return total
