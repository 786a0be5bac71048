"""The integer ideal core of qfield against the Fraction-based code it replaced.

The oracles below are the earlier library versions, copied verbatim.  The one
edit: where they multiplied or conjugated QuadElements, they call _old_mul and
_old_conj, the earlier QuadElement.__mul__ and conj bodies, so that no oracle
shares the coordinate rules _omega_mul/_omega_conj with the code under test.
basis(), contains() and ideal_from_elements are unchanged library code.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wittkit import cyclotomic
from wittkit.errors import UsageError, WittkitError
from wittkit.qfield import (
    IdealHNF,
    QuadElement,
    enumerate_ideals,
    factor_ideal,
    factor_int,
    ideal_add,
    ideal_divisors,
    ideal_from_elements,
    ideal_inverse,
    ideal_mul,
    ideal_pow,
    is_principal,
    make_field,
    primes_over_norm,
    principal_ideal,
    unit_ideal,
    valuation,
)
from wittkit.rayclass import phi_ideal, ray_class_number
from wittkit.witt import _same_quadratic

ORACLE_DS = (1, -1, -2, -3, -5, -6, -15, -23)
INVERSE_DS = (-1, -2, -3, -5, -15, -23)
_POOLS = {d: enumerate_ideals(make_field(d), 60) for d in ORACLE_DS}


# ---------------------------------------------------------------------------
# oracles: the Fraction-based versions


def _old_mul(self, other):
    f = self.field
    x1, y1, x2, y2 = self.x, self.y, other.x, other.y
    yy = y1 * y2
    return QuadElement(f, x1 * x2 + yy * f.omega_t, x1 * y2 + x2 * y1 + yy * f.omega_s)


def _old_conj(self):
    f = self.field
    if f.omega_s:  # conj(omega) = 1 - omega
        return QuadElement(f, self.x + self.y, -self.y)
    return QuadElement(f, self.x, -self.y)


def old_principal_ideal(t):
    """(t) = t * O_K as a fractional ideal."""
    if t.is_zero():
        raise UsageError("zero generates no ideal")
    f = t.field
    if f.is_rational:
        if t.y != 0:
            raise UsageError("elements of the rational field have no omega part")
        x = abs(t.x)
        return IdealHNF(f, x.numerator, 0, 1, x.denominator)
    return ideal_from_elements(f, [t, _old_mul(t, f.omega())])


def old_ideal_mul(p, q):
    f = p.field
    if f.d != q.field.d:
        raise UsageError("ideals from different fields")
    if f.is_rational:
        return IdealHNF(f, p.a * q.a, 0, 1, p.den * q.den)
    u1, u2 = p.basis()
    v1, v2 = q.basis()
    return ideal_from_elements(f, [_old_mul(u1, v1), _old_mul(u1, v2), _old_mul(u2, v1), _old_mul(u2, v2)])


def old_ideal_add(p, q):
    """gcd of two ideals: the lattice generated by both."""
    f = p.field
    u1, u2 = p.basis()
    v1, v2 = q.basis()
    return ideal_from_elements(f, [u1, u2, v1, v2])


def old_conj(self):
    w1, w2 = self.basis()
    return ideal_from_elements(self.field, [_old_conj(w1), _old_conj(w2)])


def old_contains_ideal(self, other):
    """other subseteq self, i.e. self divides other (for integral ideals)."""
    w1, w2 = other.basis()
    return self.contains(w1) and self.contains(w2)


def old_ideal_inverse(p):
    """Correct for integral p only: it drops p.den."""
    f = p.field
    if f.is_rational:
        return IdealHNF(f, p.den, 0, 1, p.a)
    conj = old_conj(p)
    n = Fraction(p.a * p.c)  # norm of the integral part
    w1, w2 = conj.basis()
    scale = Fraction(p.den) / n
    return ideal_from_elements(f, [w1.scale(scale), w2.scale(scale)])


def old_ideal_pow(p, k):
    r = unit_ideal(p.field)
    for _ in range(k):
        r = old_ideal_mul(r, p)
    return r


def old_is_principal(p):
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
            if (x - v * b) % a == 0:
                t = QuadElement(f, Fraction(x, p.den), Fraction(y, p.den))
                if old_principal_ideal(t) == p:
                    return t
    return None


def old_valuation(p, a):
    v = 0
    power = p
    while old_contains_ideal(power, a):
        v += 1
        power = old_ideal_pow(p, v + 1)
    return v


def old_squarefree(n: int) -> bool:
    n = abs(n)
    k = 2
    while k * k <= n:
        if n % (k * k) == 0:
            return False
        k += 1
    return True


def old_factor_prime_powers(n: int):
    """[(p, e), ...] with n = prod p^e, ascending p."""
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


def old_totient(n: int) -> int:
    out = n
    p = 2
    while p * p <= n:
        if n % p == 0:
            out -= out // p
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out -= out // n
    return out


def old_same_quadratic(disc: int, d: int) -> bool:
    """Whether Q(sqrt(disc)) = Q(sqrt(d)) for squarefree d."""
    if disc == 0:
        return False
    sf = 1
    n = abs(disc)
    p = 2
    while p * p <= n:
        while n % (p * p) == 0:
            n //= p * p
        if n % p == 0:
            sf *= p
            n //= p
        p += 1
    sf *= n
    if disc < 0:
        sf = -sf
    return sf == d


# ---------------------------------------------------------------------------
# strategies


@st.composite
def ideals(draw, ds=ORACLE_DS, dens=(1, 12)):
    """An ideal of norm <= 60 for a field tagged by ds, divided by den in dens."""
    d = draw(st.sampled_from(ds))
    base = draw(st.sampled_from(_POOLS[d]))
    den = draw(st.one_of(st.just(dens[0]), st.integers(*dens)))
    return IdealHNF(base.field, base.a, base.b, base.c, den)


@st.composite
def ideal_pairs(draw, dens=(1, 12)):
    p = draw(ideals(dens=dens))
    q = draw(ideals(ds=(p.field.d,), dens=dens))
    return p, q


# ---------------------------------------------------------------------------
# the integer core against the oracles


@settings(max_examples=300, deadline=None)
@given(ideal_pairs())
def test_ideal_operations_match_the_fraction_oracles(pq):
    p, q = pq
    assert ideal_mul(p, q) == old_ideal_mul(p, q)
    assert ideal_add(p, q) == old_ideal_add(p, q)
    assert p.conj() == old_conj(p)
    pq_prod = ideal_mul(p, q)
    for big, small in ((p, q), (q, p), (p, pq_prod), (q, pq_prod), (pq_prod, p)):
        assert big.contains_ideal(small) == old_contains_ideal(big, small)
    assert is_principal(p) == old_is_principal(p)
    assert is_principal(pq_prod) == old_is_principal(pq_prod)
    if p.is_integral():
        assert ideal_inverse(p) == old_ideal_inverse(p)


@settings(max_examples=200, deadline=None)
@given(ideal_pairs(dens=(1, 1)))
def test_valuation_matches_the_oracle(ab):
    a, b = ab
    for s in (a, ideal_mul(a, b)):
        for prime in primes_over_norm(s):
            assert valuation(prime, s) == old_valuation(prime, s)
    assert [(prime, valuation(prime, a)) for prime, _ in factor_ideal(a)] == factor_ideal(a)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 10**6))
def test_factor_int_matches_the_oracles(n):
    fac = factor_int(n)
    assert fac == old_factor_prime_powers(n)
    assert all(e == 1 for _, e in fac) == old_squarefree(n)
    assert math.prod(p**e for p, e in fac) == n
    Q = make_field(1)
    f = IdealHNF(Q, n, 0, 1)
    if n <= 2000:
        assert ray_class_number(Q, f) == phi_ideal(f) == old_totient(n)


def test_factor_int_small_cases_and_cyclotomic_use():
    assert factor_int(1) == []
    assert factor_int(2) == [(2, 1)]
    assert factor_int(360) == [(2, 3), (3, 2), (5, 1)]
    assert cyclotomic.cyclo_context(210).prime_powers == [(2, 1), (3, 1), (5, 1), (7, 1)]
    for n in (0, -4):
        with pytest.raises(UsageError):
            factor_int(n)


@settings(max_examples=300, deadline=None)
@given(st.integers(-5000, 5000), st.sampled_from(ORACLE_DS[1:]))
def test_same_quadratic_matches_the_oracle(disc, d):
    assert _same_quadratic(disc, d) == old_same_quadratic(disc, d)
    assert _same_quadratic(disc * 49, d) == old_same_quadratic(disc * 49, d)


# ---------------------------------------------------------------------------
# the inverse of a fractional ideal keeps its denominator


def test_inverse_of_two_thirds_is_three_halves():
    K5 = make_field(-5)
    p = IdealHNF(K5, 2, 0, 2, 3)  # (2/3) O_K
    assert ideal_inverse(p) == IdealHNF(K5, 3, 0, 3, 2)
    assert ideal_mul(p, ideal_inverse(p)) == unit_ideal(K5)


@settings(max_examples=200, deadline=None)
@given(ideals(ds=INVERSE_DS, dens=(2, 12)), st.integers(1, 3))
def test_fractional_ideal_times_its_inverse_is_the_unit_ideal(p, k):
    one = unit_ideal(p.field)
    assert ideal_mul(p, ideal_inverse(p)) == one
    assert ideal_mul(ideal_pow(p, -k), ideal_pow(p, k)) == one


def test_principal_ideal_of_an_element_round_trips():
    for d in ORACLE_DS[1:]:
        K = make_field(d)
        for x in range(-4, 5):
            for y in range(-4, 5):
                t = QuadElement(K, Fraction(x, 3), Fraction(y, 2))
                if t.is_zero():
                    continue
                assert principal_ideal(t) == old_principal_ideal(t)
                g = is_principal(principal_ideal(t))
                assert g is not None and principal_ideal(g) == principal_ideal(t)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from((1, -1, -3, -5, -15)).flatmap(lambda d: st.sampled_from(_POOLS[d])))
def test_ideal_divisors_are_the_ideals_of_smaller_norm_containing_p(p):
    containing = [q for q in enumerate_ideals(p.field, int(p.norm())) if q.contains_ideal(p)]
    assert ideal_divisors(p) == sorted(containing, key=lambda q: (q.norm(), q.a, q.b, q.c))


# tower moduli of the benchmark's pool and the product of the primes up to 13
_RATIONAL_NORMS = st.sampled_from([1, 5, 6, 11, 12, 36, 60, 63, 140, 30030]) | st.integers(1, 3000)


@settings(max_examples=200, deadline=None)
@given(_RATIONAL_NORMS, st.one_of(st.just(1), st.integers(1, 12)))
def test_rational_ideal_divisors_are_the_ideals_of_smaller_norm_containing_p(a, den):
    p = IdealHNF(make_field(1), a, 0, 1, den)
    if not p.is_integral():
        with pytest.raises(UsageError, match="integral"):
            ideal_divisors(p)
        return
    containing = [q for q in enumerate_ideals(p.field, p.a) if q.contains_ideal(p)]
    assert ideal_divisors(p) == sorted(containing, key=lambda q: (q.norm(), q.a, q.b, q.c))
