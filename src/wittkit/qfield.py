"""Imaginary quadratic fields, their elements, and fractional ideals in HNF.

Conventions.  K = Q(sqrt(d)) for a squarefree d < 0, with ring of integers
Z[omega] where omega = (1 + sqrt(d))/2 when d = 1 mod 4 and omega = sqrt(d)
otherwise.  The rational field is the degenerate member of the family and is
tagged d = 1; its "ideals" are positive rationals n/den with omega = 0.

An integral ideal is stored as the lattice Z*a + Z*(b + c*omega) with
c | a, c | b and 0 <= b < a; the norm of that lattice is a*c.  A fractional
ideal divides the same data by a positive integer den with
gcd(a, b, c, den) = 1.  Elements are x + y*omega with exact rational x, y.

One integer core.  Ideal products, sums, conjugates, inverses, containment
and the principal test work on integer lattice generators: den*I is spanned
by the pairs (a, 0) and (b, c) (only (a, 0) over Q), _omega_mul and
_omega_conj are the coordinate rules for x + y*omega (QuadElement uses them
too), and _ideal_from_int_pairs takes the HNF of the results.  basis() and
ideal_from_elements stay for callers that hold field elements.  factor_int is
the only trial-division factorization and valuation the only valuation loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import UsageError, WittkitError, require_int

RATIONAL_D = 1


def factor_int(n: int) -> list[tuple[int, int]]:
    """[(p, e), ...] with n = prod p^e for n >= 1, ascending p."""
    if n < 1:
        raise UsageError(f"factor_int needs n >= 1, got {n}")
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


def _is_prime(n: int) -> bool:
    return n >= 2 and factor_int(n) == [(n, 1)]


@dataclass(frozen=True)
class QuadField:
    """Field data shared by every element and ideal.

    omega_s, omega_t give the multiplication rule omega^2 = s*omega + t.
    """

    d: int
    disc: int
    omega_s: int
    omega_t: int

    @property
    def is_rational(self) -> bool:
        return self.d == RATIONAL_D

    def omega(self) -> "QuadElement":
        return QuadElement(self, Fraction(0), Fraction(1))

    def one(self) -> "QuadElement":
        return QuadElement(self, Fraction(1), Fraction(0))

    def units(self) -> list["QuadElement"]:
        one = self.one()
        units = [one, -one]
        if self.d == -1:
            i = self.omega()
            units += [i, -i]
        if self.d == -3:
            w = self.omega()  # (1 + sqrt(-3))/2, a primitive 6th root of unity
            units += [w, -w, w * w, -(w * w)]
        return units

    def to_json(self) -> dict:
        return {"d": self.d}


def make_field(d: int) -> QuadField:
    """Build the field tagged by d: squarefree d < 0, or d = 1 for Q."""
    if d == RATIONAL_D:
        return QuadField(d=RATIONAL_D, disc=1, omega_s=0, omega_t=0)
    if d >= 0:
        raise UsageError(f"d must be negative (or 1 for the rational field), got {d}")
    if any(e > 1 for _, e in factor_int(-d)):
        raise UsageError(f"d must be squarefree, got {d}")
    if d % 4 == 1:
        return QuadField(d=d, disc=d, omega_s=1, omega_t=(d - 1) // 4)
    return QuadField(d=d, disc=4 * d, omega_s=0, omega_t=d)


def _omega_mul(f: QuadField, x1, y1, x2, y2) -> tuple:
    """Coordinates of (x1 + y1*omega)(x2 + y2*omega), using omega^2 = s*omega + t."""
    yy = y1 * y2
    return x1 * x2 + yy * f.omega_t, x1 * y2 + x2 * y1 + yy * f.omega_s


def _omega_conj(f: QuadField, x, y) -> tuple:
    """Coordinates of conj(x + y*omega); conj(omega) = s - omega."""
    return x + y * f.omega_s, -y


@dataclass(frozen=True)
class QuadElement:
    """x + y*omega with exact rational coordinates."""

    field: QuadField
    x: Fraction
    y: Fraction

    def __add__(self, other: "QuadElement") -> "QuadElement":
        return QuadElement(self.field, self.x + other.x, self.y + other.y)

    def __sub__(self, other: "QuadElement") -> "QuadElement":
        return QuadElement(self.field, self.x - other.x, self.y - other.y)

    def __neg__(self) -> "QuadElement":
        return QuadElement(self.field, -self.x, -self.y)

    def __mul__(self, other: "QuadElement") -> "QuadElement":
        return QuadElement(self.field, *_omega_mul(self.field, self.x, self.y, other.x, other.y))

    def scale(self, r: Fraction) -> "QuadElement":
        r = Fraction(r)
        return QuadElement(self.field, self.x * r, self.y * r)

    def conj(self) -> "QuadElement":
        return QuadElement(self.field, *_omega_conj(self.field, self.x, self.y))

    def norm(self) -> Fraction:
        p = self * self.conj()
        if p.y != 0:
            raise WittkitError(f"norm of {self} is not rational; field data inconsistent")
        return p.x

    def trace(self) -> Fraction:
        return 2 * self.x + self.y * self.field.omega_s

    def inverse(self) -> "QuadElement":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("inverse of zero")
        return self.conj().scale(Fraction(1, 1) / n)

    def __truediv__(self, other: "QuadElement") -> "QuadElement":
        return self * other.inverse()

    def is_zero(self) -> bool:
        return self.x == 0 and self.y == 0

    def is_integral(self) -> bool:
        return self.x.denominator == 1 and self.y.denominator == 1

    def __repr__(self) -> str:
        if self.y == 0:
            return f"{self.x}"
        return f"{self.x}+{self.y}*w"


def element(field: QuadField, x, y=0) -> QuadElement:
    return QuadElement(field, Fraction(x), Fraction(y))


def _rational_integer(t):
    """t as a plain int when it is one (int, Fraction, or rational QuadElement)."""
    if isinstance(t, int):
        return t
    if isinstance(t, Fraction):
        return int(t) if t.denominator == 1 else None
    if isinstance(t, QuadElement) and t.y == 0 and Fraction(t.x).denominator == 1:
        return int(t.x)
    return None


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, u, v) with u*a + v*b = g = gcd(a, b) >= 0."""
    old_r, r = a, b
    old_u, u = 1, 0
    old_v, v = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_u, u = u, old_u - q * u
        old_v, v = v, old_v - q * v
    if old_r < 0:
        old_r, old_u, old_v = -old_r, -old_u, -old_v
    return old_r, old_u, old_v


def _hnf2(gens: list[tuple[int, int]]) -> tuple[int, int, int]:
    """HNF basis (a, 0), (b, c) of the lattice spanned by integer pairs (x, y).

    Requires full rank... or returns c = 0 for rank-one lattices contained in
    Z x {0} (the rational-field degenerate case).
    """
    bx, by = 0, 0
    xs = []
    for x, y in gens:
        if y == 0:
            if x:
                xs.append(x)
            continue
        if by == 0:
            bx, by = x, y
            continue
        g, u, v = _xgcd(by, y)
        nbx = u * bx + v * x
        # both old vectors minus multiples of the new pivot land in Z x {0}
        xs.append(bx - (by // g) * nbx)
        xs.append(x - (y // g) * nbx)
        bx, by = nbx, g
    a = 0
    for x in xs:
        a = math.gcd(a, x)
    if by < 0:
        bx, by = -bx, -by
    if a:
        bx %= a
    return a, bx, by


class IdealHNF:
    """Fractional ideal (1/den) * (Z*a + Z*(b + c*omega)), canonicalized."""

    __slots__ = ("field", "a", "b", "c", "den", "_hash")

    def __init__(self, field: QuadField, a: int, b: int, c: int, den: int = 1):
        if den <= 0 or a <= 0:
            raise UsageError(f"ideal needs a > 0 and den > 0, got a={a} den={den}")
        if field.is_rational:
            if c != 1 or b != 0:
                raise UsageError("rational ideals are stored as (a, 0, 1)")
        else:
            if c <= 0 or a % c or b % c or not 0 <= b < a:
                raise UsageError(f"not an HNF triple: ({a}, {b}, {c})")
        if field.is_rational:
            g = math.gcd(a, den)
            a, b, c, den = a // g, 0, 1, den // g
        else:
            g = math.gcd(math.gcd(a, math.gcd(b, c)), den)
            a, b, c, den = a // g, b // g, c // g, den // g
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "den", den)
        # shift scans hash ideals thousands of times per pass
        object.__setattr__(self, "_hash", hash((field.d, a, b, c, den)))

    def __setattr__(self, *_):
        raise AttributeError("IdealHNF is immutable")

    def key(self) -> tuple:
        return (self.a, self.b, self.c, self.den)

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return isinstance(other, IdealHNF) and self.field.d == other.field.d and self.key() == other.key()

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        body = f"({self.a},{self.b},{self.c})"
        return body if self.den == 1 else f"{body}/{self.den}"

    def is_integral(self) -> bool:
        return self.den == 1

    def norm(self) -> Fraction:
        if self.field.is_rational:
            return Fraction(self.a, self.den)
        return Fraction(self.a * self.c, self.den**2)

    def basis(self) -> tuple[QuadElement, QuadElement]:
        """Lattice basis (w1, w2) over Z, including the 1/den factor.

        The rational field has a rank-one lattice; its second slot is zero.
        """
        f = self.field
        s = Fraction(1, self.den)
        if f.is_rational:
            return QuadElement(f, Fraction(self.a) * s, Fraction(0)), QuadElement(f, Fraction(0), Fraction(0))
        return (
            QuadElement(f, Fraction(self.a) * s, Fraction(0)),
            QuadElement(f, Fraction(self.b) * s, Fraction(self.c) * s),
        )

    def contains(self, e: QuadElement) -> bool:
        """Exact membership of an element in the ideal lattice."""
        x = e.x * self.den
        y = e.y * self.den
        if self.field.is_rational:
            return y == 0 and (x / self.a).denominator == 1
        q = y / self.c
        if q.denominator != 1:
            return False
        return ((x - q * self.b) / self.a).denominator == 1

    def int_gens(self) -> list[tuple[int, int]]:
        """Integer generators of the lattice den*self: (a, 0), (b, c), or (a, 0) alone over Q."""
        if self.field.is_rational:
            return [(self.a, 0)]
        return [(self.a, 0), (self.b, self.c)]

    def contains_ideal(self, other: "IdealHNF") -> bool:
        """other subseteq self, i.e. self divides other (for integral ideals)."""
        return ideal_add(self, other) == self

    def conj(self) -> "IdealHNF":
        f = self.field
        return _ideal_from_int_pairs(f, [_omega_conj(f, x, y) for x, y in self.int_gens()], self.den)

    def to_json(self) -> dict:
        return {"a": self.a, "b": self.b, "c": self.c, "den": self.den}


def unit_ideal(field: QuadField) -> IdealHNF:
    return IdealHNF(field, 1, 0, 1)


def checked_ideal(field: QuadField, a: int, b: int, c: int, den: int = 1) -> IdealHNF:
    """IdealHNF from outside data, rejecting a lattice that is not an O_K-ideal.

    Z*a + Z*(b + c*omega) is one iff (a/c) | N(b/c + omega), the test enumerate_ideals applies.
    """
    p = IdealHNF(field, a, b, c, den)
    if not field.is_rational and _norm_form(field, p.b // p.c, 1) % (p.a // p.c):
        ap, bp = p.a // p.c, p.b // p.c
        raise UsageError(f"({a}, {b}, {c}) is not an ideal of O_K: {ap} does not divide N({bp} + w)")
    return p


def ideal_from_json(field: QuadField, data: dict) -> IdealHNF:
    if not isinstance(data, dict) or not {"a", "b", "c"} <= set(data):
        raise UsageError(f"an ideal object needs keys a, b and c, got {data!r}")
    coords = (data["a"], data["b"], data["c"], data.get("den", 1))
    a, b, c, den = (require_int(x, "an ideal coordinate") for x in coords)
    return checked_ideal(field, a, b, c, den)


def _ideal_from_int_pairs(field: QuadField, pairs: list[tuple[int, int]], den: int) -> IdealHNF:
    if field.is_rational:
        a = 0
        for x, y in pairs:
            if y != 0:
                raise UsageError("elements of the rational field have no omega part")
            a = math.gcd(a, x)
        if a == 0:
            raise UsageError("zero lattice is not an ideal")
        return IdealHNF(field, a, 0, 1, den)
    a, b, c = _hnf2(pairs)
    if a == 0 or c == 0:
        raise UsageError("generators do not span a full lattice")
    return IdealHNF(field, a, b, c, den)


def ideal_from_elements(field: QuadField, elts: list[QuadElement]) -> IdealHNF:
    """Lattice (not O_K-module closure) generated by the given elements."""
    den = math.lcm(*(c.denominator for e in elts for c in (e.x, e.y)))
    pairs = [(int(e.x * den), int(e.y * den)) for e in elts]
    return _ideal_from_int_pairs(field, pairs, den)


def principal_ideal(t: QuadElement) -> IdealHNF:
    """(t) = t * O_K as a fractional ideal."""
    if t.is_zero():
        raise UsageError("zero generates no ideal")
    f = t.field
    if f.is_rational:
        if t.y != 0:
            raise UsageError("elements of the rational field have no omega part")
        x = abs(t.x)
        return IdealHNF(f, x.numerator, 0, 1, x.denominator)
    return ideal_from_elements(f, [t, t * f.omega()])


def ideal_mul(p: IdealHNF, q: IdealHNF) -> IdealHNF:
    f = p.field
    if f.d != q.field.d:
        raise UsageError("ideals from different fields")
    pairs = [_omega_mul(f, x1, y1, x2, y2) for x1, y1 in p.int_gens() for x2, y2 in q.int_gens()]
    return _ideal_from_int_pairs(f, pairs, p.den * q.den)


def ideal_add(p: IdealHNF, q: IdealHNF) -> IdealHNF:
    """gcd of two ideals: the lattice generated by both."""
    pairs = [(x * q.den, y * q.den) for x, y in p.int_gens()] + [(x * p.den, y * p.den) for x, y in q.int_gens()]
    return _ideal_from_int_pairs(p.field, pairs, p.den * q.den)


def ideal_inverse(p: IdealHNF) -> IdealHNF:
    """p^-1 = den * conj(I) / N(I) for p = I/den with I integral."""
    f = p.field
    if f.is_rational:
        return IdealHNF(f, p.den, 0, 1, p.a)
    pairs = [_omega_conj(f, p.den * x, p.den * y) for x, y in p.int_gens()]
    return _ideal_from_int_pairs(f, pairs, p.a * p.c)


def ideal_pow(p: IdealHNF, k: int) -> IdealHNF:
    if k < 0:
        return ideal_pow(ideal_inverse(p), -k)
    r = unit_ideal(p.field)
    for _ in range(k):
        r = ideal_mul(r, p)
    return r


def ideal_div(p: IdealHNF, q: IdealHNF) -> IdealHNF:
    return ideal_mul(p, ideal_inverse(q))


def _norm_form(field: QuadField, x: int, y: int) -> int:
    """N(x + y*omega) for integer coordinates."""
    if field.omega_s:
        return x * x + x * y + y * y * (1 - field.d) // 4
    return x * x - field.d * y * y


def enumerate_ideals(field: QuadField, bound: int) -> list[IdealHNF]:
    """All integral ideals of norm <= bound, sorted by norm then (a, b, c).

    This ordering is the indexing contract used by every truncated vector.
    """
    if bound < 1:
        return []
    if field.is_rational:
        return [IdealHNF(field, n, 0, 1) for n in range(1, bound + 1)]
    out = []
    for n in range(1, bound + 1):
        found = []
        c = 1
        while c * c <= n:
            if n % (c * c) == 0:
                ap = n // (c * c)
                for bp in range(ap):
                    if _norm_form(field, bp, 1) % ap == 0:
                        found.append((ap * c, bp * c, c))
            c += 1
        found.sort()
        out.extend(IdealHNF(field, a, b, c) for a, b, c in found)
    return out


def _kronecker_2(n: int) -> int:
    n %= 8
    return 1 if n in (1, 7) else -1


def factor_prime(field: QuadField, p: int) -> tuple[str, list[IdealHNF]]:
    """Primes of O_K above the rational prime p.

    Returns (kind, primes) with kind in split / inert / ramified / rational.
    Split primes come in HNF order.
    """
    if not _is_prime(p):
        raise UsageError(f"factor_prime needs a rational prime, got {p}")
    if field.is_rational:
        return "rational", [IdealHNF(field, p, 0, 1)]
    disc = field.disc
    # roots of the minimal polynomial of omega mod p
    if field.omega_s:
        poly = lambda r: (r * r - r - (field.d - 1) // 4) % p
    else:
        poly = lambda r: (r * r - field.d) % p
    roots = sorted(r for r in range(p) if poly(r) == 0)
    if disc % p == 0:
        if len(roots) != 1:
            raise WittkitError(f"ramified prime {p} has roots {roots} mod p, expected one")
        return "ramified", [IdealHNF(field, p, (-roots[0]) % p, 1)]
    if p == 2:
        symbol = _kronecker_2(disc)
    else:
        symbol = pow(disc % p, (p - 1) // 2, p)
        symbol = -1 if symbol == p - 1 else symbol
    if symbol == -1:
        if roots:
            raise WittkitError(f"inert prime {p} has roots {roots} mod p, expected none")
        return "inert", [IdealHNF(field, p, 0, p)]
    if len(roots) != 2:
        raise WittkitError(f"split prime {p} has roots {roots} mod p, expected two")
    primes = sorted(((p, (-r) % p, 1) for r in roots))
    return "split", [IdealHNF(field, a, b, c) for a, b, c in primes]


def prime_ideals(field: QuadField, norm_bound: int) -> list[IdealHNF]:
    """Prime ideals of norm <= norm_bound in enumeration order."""
    out = []
    for p in range(2, norm_bound + 1):
        if not _is_prime(p):
            continue
        kind, primes = factor_prime(field, p)
        if kind == "inert":
            if p * p <= norm_bound:
                out.extend(primes)
        else:
            out.extend(primes)
    out.sort(key=lambda q: (q.norm(), q.a, q.b, q.c))
    return out


def valuation(prime: IdealHNF, a: IdealHNF) -> int:
    """The exponent of the prime ideal prime in the integral ideal a."""
    e = 0
    power = prime
    while power.contains_ideal(a):
        e += 1
        power = ideal_mul(power, prime)
    return e


def primes_over_norm(a: IdealHNF) -> list[IdealHNF]:
    """The prime ideals over the rational primes dividing N(a), in prime order."""
    f = a.field
    return [prime for q, _ in factor_int(int(a.norm())) for prime in factor_prime(f, q)[1]]


def factor_ideal(p: IdealHNF) -> list[tuple[IdealHNF, int]]:
    """Prime factorization of an integral ideal, in prime enumeration order."""
    if not p.is_integral():
        raise UsageError("can only factor integral ideals")
    return [(prime, e) for prime in primes_over_norm(p) if (e := valuation(prime, p))]


def ideal_divisors(p: IdealHNF) -> list[IdealHNF]:
    """All integral ideals dividing p, sorted by norm then (a, b, c).

    Over Q these are the (n) for the divisors n of a, read off factor_int.
    """
    if p.field.is_rational:
        if not p.is_integral():
            raise UsageError("can only factor integral ideals")
        ns = [1]
        for q, e in factor_int(p.a):
            ns = [n * q**i for n in ns for i in range(e + 1)]
        return [IdealHNF(p.field, n, 0, 1) for n in sorted(ns)]
    divs = [unit_ideal(p.field)]
    for prime, e in factor_ideal(p):
        powers = [prime]
        for _ in range(e - 1):
            powers.append(ideal_mul(powers[-1], prime))
        divs = [q for d in divs for q in (d, *(ideal_mul(d, pk) for pk in powers))]
    divs.sort(key=lambda q: (q.norm(), q.a, q.b, q.c))
    return divs


def is_principal(p: IdealHNF):
    """A generator t with (t) = p, or None.

    The search is complete: it scans every lattice element whose norm equals
    the ideal norm, and in an imaginary quadratic field any such element
    generates the ideal.
    """
    f = p.field
    if f.is_rational:
        return QuadElement(f, Fraction(p.a, p.den), Fraction(0))
    target = p.norm() * p.den * p.den  # norm of the integral part
    if target.denominator != 1:
        raise WittkitError(f"ideal {p} has a non-integral lattice norm")
    target = int(target)
    # integral part basis (a, 0), (b, c); element u*(a,0) + v*(b,c)
    a, b, c = p.a, p.b, p.c
    # |y| = |v|*c and N(x + y*omega) >= |disc|/4 * y^2
    ymax = math.isqrt(4 * target // abs(f.disc)) + 1
    for v in range(-(ymax // c) - 1, ymax // c + 2):
        y = v * c
        # solve N(x + y*omega) = target for integer x
        # d = 1 mod 4: (2x + y)^2 - d y^2 = 4 target; else x^2 - d y^2 = target
        if f.omega_s:
            rhs = 4 * target + f.d * y * y
            if rhs < 0:
                continue
            r = math.isqrt(rhs)
            if r * r != rhs:
                continue
            cands = {(r - y), (-r - y)}
            xs = [w // 2 for w in cands if w % 2 == 0]
        else:
            rhs = target + f.d * y * y
            if rhs < 0:
                continue
            r = math.isqrt(rhs)
            if r * r != rhs:
                continue
            xs = [r, -r]
        for x in xs:
            if (x - v * b) % a:
                continue
            # (t) is spanned by t and t*omega for t = x + y*omega
            if _ideal_from_int_pairs(f, [(x, y), _omega_mul(f, x, y, 0, 1)], p.den) == p:
                return QuadElement(f, Fraction(x, p.den), Fraction(y, p.den))
    return None


def form_is_reduced(A: int, B: int, C: int) -> bool:
    """|B| <= A <= C, with B >= 0 when |B| = A or A = C: one reduced form per
    proper equivalence class of positive definite forms."""
    return -A < B <= A <= C and not (A == C and B < 0)


def reduce_form(A: int, B: int, C: int) -> tuple[tuple[int, int, int], tuple[int, int, int, int]]:
    """Gauss reduction of a positive definite form, tracking the matrix.

    Returns ((A', B', C'), (p, q, r, s)) with (A', B', C') reduced
    (form_is_reduced) and det = 1, such that the root tau = (-B + sqrt(D))/(2A)
    in the upper half plane goes to the reduced form's root as
    (p*tau + q)/(r*tau + s).  Cohen, A Course in Computational Algebraic
    Number Theory, 5.4.2.
    """
    if A <= 0 or B * B - 4 * A * C >= 0:
        raise UsageError(f"({A}, {B}, {C}) is not a positive definite form")
    p, q, r, s = 1, 0, 0, 1
    while True:
        n = -((A - B) // (2 * A))  # ceil((B - A)/2A): B - 2An lands in (-A, A]
        if n:
            # tau -> tau + n
            B, C = B - 2 * A * n, A * n * n - B * n + C
            p, q = p + n * r, q + n * s
        if form_is_reduced(A, B, C):
            return (A, B, C), (p, q, r, s)
        # tau -> -1/tau
        A, B, C = C, -B, A
        p, q, r, s = -r, -s, p, q


def reduced_forms(field: QuadField) -> list[tuple[int, int, int]]:
    """The reduced primitive forms (A, B, C) of discriminant disc(K), in (A, B) order."""
    D = field.disc
    forms = []
    amax = math.isqrt(abs(D) // 3)
    for A in range(1, amax + 1):
        for B in range(-A + 1, A + 1):
            if (B * B - D) % (4 * A):
                continue
            C = (B * B - D) // (4 * A)
            if form_is_reduced(A, B, C) and math.gcd(A, math.gcd(B, C)) == 1:
                forms.append((A, B, C))
    return forms


def class_group(field: QuadField) -> list[IdealHNF]:
    """Ideal class representatives from reduced primitive forms of disc(K).

    A reduced form (A, B, C) with B^2 - 4AC = disc maps to the ideal
    Z*A + Z*((-B + sqrt(disc))/2).  The unit class comes first; the rest
    follow in (A, B) order.
    """
    if field.is_rational:
        return [unit_ideal(field)]
    reps = []
    for A, B, C in reduced_forms(field):
        if field.omega_s:
            b = ((-B - 1) // 2) % A  # (-B + sqrt d)/2 = (-B-1)/2 + omega, B odd
        else:
            b = (-B // 2) % A  # (-B + 2 sqrt d)/2 = -B/2 + omega, B even
        reps.append(IdealHNF(field, A, b % A if A > 1 else 0, 1))
    reps.sort(key=lambda q: (q.a != 1, q.a, q.b))
    return reps


def class_number(field: QuadField) -> int:
    return len(class_group(field))
