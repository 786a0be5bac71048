import math
import random
from fractions import Fraction

import pytest

from wittkit.errors import UsageError
from wittkit.qfield import (
    IdealHNF,
    QuadElement,
    class_group,
    element,
    enumerate_ideals,
    factor_ideal,
    factor_prime,
    form_is_reduced,
    ideal_add,
    ideal_div,
    ideal_divisors,
    ideal_from_elements,
    ideal_from_json,
    ideal_inverse,
    ideal_mul,
    ideal_pow,
    is_principal,
    make_field,
    prime_ideals,
    principal_ideal,
    reduce_form,
    reduced_forms,
    unit_ideal,
)

K5 = make_field(-5)
K1 = make_field(-1)
K3 = make_field(-3)
K15 = make_field(-15)
Q = make_field(1)


def test_field_construction():
    assert K5.disc == -20 and K5.omega_s == 0 and K5.omega_t == -5
    assert K15.disc == -15 and K15.omega_s == 1 and K15.omega_t == -4
    assert Q.is_rational
    with pytest.raises(UsageError):
        make_field(-4)
    with pytest.raises(UsageError):
        make_field(3)


def test_element_arithmetic():
    w = K15.omega()
    # omega^2 = omega + (d-1)/4
    assert w * w == element(K15, -4, 1)
    assert w.norm() == 4 and w.trace() == 1
    rng = random.Random(7)
    for field in (K5, K15, K1, K3):
        for _ in range(50):
            e1 = element(field, rng.randint(-9, 9), rng.randint(-9, 9))
            e2 = element(field, rng.randint(-9, 9), rng.randint(-9, 9))
            assert (e1 * e2).norm() == e1.norm() * e2.norm()
            if not e2.is_zero():
                assert (e1 / e2) * e2 == e1


def test_units():
    assert len(K5.units()) == 2
    assert len(K1.units()) == 4
    assert len(K3.units()) == 6
    assert len(Q.units()) == 2
    for field in (K5, K1, K3):
        for u in field.units():
            assert u.norm() == 1
            assert u * u.inverse() == field.one()


def test_hnf_canonical_form():
    rng = random.Random(11)
    pool = enumerate_ideals(K5, 40) + enumerate_ideals(K15, 40)
    for _ in range(300):
        p, q = rng.choice(pool), rng.choice(pool)
        if p.field.d != q.field.d:
            continue
        r = ideal_mul(p, q)
        assert r.a % r.c == 0 and r.b % r.c == 0 and 0 <= r.b < r.a
        assert r.norm() == r.a * r.c


def test_norm_multiplicative_1000_pairs():
    rng = random.Random(2)
    for field in (K5, K15):
        pool = enumerate_ideals(field, 60)
        for _ in range(500):
            p, q = rng.choice(pool), rng.choice(pool)
            assert ideal_mul(p, q).norm() == p.norm() * q.norm()


def test_ideal_mul_ramified_square():
    # (2, 1 + sqrt(-5))^2 = (2), checked against the principal lattice directly
    p2 = IdealHNF(K5, 2, 1, 1)
    sq = ideal_mul(p2, p2)
    two = principal_ideal(element(K5, 2))
    assert sq == two
    assert sq.contains_ideal(two) and two.contains_ideal(sq)


def _member(a, b, c, x, y):
    # independent membership test for Z*a + Z*(b + c*omega) with integer coords
    if y % c:
        return False
    return (x - (y // c) * b) % a == 0


def _omega_closed(field, a, b, c):
    s, t = field.omega_s, field.omega_t
    # omega * a has coords (0, a); omega*(b + c*omega) = c*t + (b + c*s)*omega
    return _member(a, b, c, 0, a) and _member(a, b, c, c * t, b + c * s)


def test_enumerate_against_sublattice_scan():
    # oracle: scan every HNF triple with a*c <= 10 and keep omega-stable ones
    bound = 10
    expected = set()
    for a in range(1, bound + 1):
        for c in range(1, bound // a + 1):
            if a * c > bound or a % c:
                continue
            for b in range(0, a, c):
                if _omega_closed(K5, a, b, c):
                    expected.add((a, b, c))
    got = enumerate_ideals(K5, bound)
    assert {(p.a, p.b, p.c) for p in got} == expected
    assert len(got) == 15
    keys = [(p.norm(), p.a, p.b, p.c) for p in got]
    assert keys == sorted(keys)


def test_enumerate_rational():
    assert [p.a for p in enumerate_ideals(Q, 8)] == [1, 2, 3, 4, 5, 6, 7, 8]
    assert enumerate_ideals(Q, 8)[3].norm() == 4


def test_factor_prime_cases():
    kind, ps = factor_prime(K5, 2)
    assert kind == "ramified" and ps == [IdealHNF(K5, 2, 1, 1)]
    assert ideal_mul(ps[0], ps[0]) == principal_ideal(element(K5, 2))
    kind, ps = factor_prime(K5, 3)
    assert kind == "split" and len(ps) == 2
    assert ideal_mul(ps[0], ps[1]) == principal_ideal(element(K5, 3))
    kind, ps = factor_prime(K5, 11)
    assert kind == "inert" and ps[0] == principal_ideal(element(K5, 11))
    kind, ps = factor_prime(Q, 7)
    assert kind == "rational" and ps[0].a == 7


def test_caller_input_errors_are_usage_errors():
    # these were bare asserts, which `python -O` strips
    with pytest.raises(UsageError):
        principal_ideal(QuadElement(Q, Fraction(3), Fraction(1)))
    with pytest.raises(UsageError):
        ideal_from_elements(Q, [QuadElement(Q, Fraction(2), Fraction(1))])
    for n in (0, 1, 4, 9, 15):
        with pytest.raises(UsageError):
            factor_prime(K1, n)


def test_factor_prime_product_up_to_50():
    for field in (K5, K1, K3, K15):
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
            kind, ps = factor_prime(field, p)
            prod = ps[0]
            if kind == "split":
                prod = ideal_mul(ps[0], ps[1])
            elif kind == "ramified":
                prod = ideal_mul(ps[0], ps[0])
            assert prod == principal_ideal(element(field, p)), (field.d, p)


def test_prime_ideals_ordering():
    ps = prime_ideals(K5, 11)
    norms = [int(p.norm()) for p in ps]
    # 5 ramifies (5 | disc); 11 is inert, norm 121 is out of range
    assert norms == [2, 3, 3, 5, 7, 7]
    ps = prime_ideals(K1, 10)
    assert [int(p.norm()) for p in ps] == [2, 5, 5, 9]


def test_inverse_and_conj():
    rng = random.Random(3)
    for field in (K5, K15, K1):
        pool = enumerate_ideals(field, 30)
        for _ in range(60):
            p = rng.choice(pool)
            assert ideal_mul(p, ideal_inverse(p)) == unit_ideal(field)
            n = p.norm()
            assert ideal_mul(p, p.conj()) == principal_ideal(element(field, n))


def test_fractional_ideals():
    p = IdealHNF(K5, 2, 1, 1)
    q = ideal_div(unit_ideal(K5), p)
    assert q.den == 2 and q.norm() == Fraction(1, 2)
    assert ideal_mul(q, p) == unit_ideal(K5)
    half = IdealHNF(Q, 3, 0, 1, 2)
    assert half.norm() == Fraction(3, 2)
    assert ideal_mul(half, IdealHNF(Q, 2, 0, 1, 3)) == unit_ideal(Q)


def test_is_principal():
    p2 = IdealHNF(K5, 2, 1, 1)
    assert is_principal(p2) is None
    # x^2 + 5y^2 = 2 has no integer solutions
    assert all(x * x + 5 * y * y != 2 for x in range(-2, 3) for y in range(-2, 3))
    t = element(K5, 1, 1)  # 1 + sqrt(-5), norm 6
    g = is_principal(principal_ideal(t))
    assert g is not None and principal_ideal(g) == principal_ideal(t)
    # fractional principal ideal
    h = is_principal(principal_ideal(element(K5, Fraction(3, 2))))
    assert h is not None and h.norm() == Fraction(9, 4)


def test_is_principal_random_roundtrip():
    rng = random.Random(5)
    for field in (K5, K15, K1, K3):
        for _ in range(40):
            t = element(field, rng.randint(-6, 6), rng.randint(-6, 6))
            if t.is_zero():
                continue
            g = is_principal(principal_ideal(t))
            assert g is not None and principal_ideal(g) == principal_ideal(t)


def _reduced_forms(disc):
    # textbook reduced primitive positive forms of the given discriminant
    out = []
    for a in range(1, math.isqrt(abs(disc) // 3) + 1):
        for b in range(-a + 1, a + 1):
            if (b * b - disc) % (4 * a):
                continue
            c = (b * b - disc) // (4 * a)
            if c < a or (a == c and b < 0):
                continue
            if math.gcd(a, math.gcd(b, c)) == 1:
                out.append((a, b, c))
    return out


def test_class_group_against_forms_oracle():
    for d, h in [(-1, 1), (-2, 1), (-3, 1), (-5, 2), (-7, 1), (-11, 1), (-15, 2), (-19, 1)]:
        field = make_field(d)
        reps = class_group(field)
        assert len(reps) == h == len(_reduced_forms(field.disc))
        assert reduced_forms(field) == _reduced_forms(field.disc)
        assert reps[0] == unit_ideal(field)
        for r in reps:
            assert r.is_integral()
    assert class_group(Q) == [unit_ideal(Q)]


def _root_in_qsqrt(A, B):
    """(-B + sqrt(D))/(2A) as the pair (x, y) for x + y*sqrt(D)."""
    return Fraction(-B, 2 * A), Fraction(1, 2 * A)


def _mobius_in_qsqrt(g, t, D):
    """(p*t + q)/(r*t + s) for t = x + y*sqrt(D), exactly."""
    p, q, r, s = g
    (x, y), (u, v) = (p * t[0] + q, p * t[1]), (r * t[0] + s, r * t[1])
    n = u * u - v * v * D
    return (x * u - y * v * D) / n, (y * u - x * v) / n


def test_reduce_form_lands_on_the_reduced_form_of_the_class():
    rng = random.Random(5)
    for _ in range(400):
        A, C = rng.randint(1, 300), rng.randint(1, 300)
        bmax = math.isqrt(4 * A * C - 1)  # B^2 < 4AC: positive definite
        B = rng.randint(-bmax, bmax)
        D = B * B - 4 * A * C
        form, g = reduce_form(A, B, C)
        p, q, r, s = g
        assert p * s - q * r == 1
        assert form_is_reduced(*form) and form[1] ** 2 - 4 * form[0] * form[2] == D
        assert _mobius_in_qsqrt(g, _root_in_qsqrt(A, B), D) == _root_in_qsqrt(*form[:2])
    # reduced forms are fixed points
    for d in (-1, -3, -5, -15, -23, -26, -47, -71):
        for form in reduced_forms(make_field(d)):
            assert reduce_form(*form) == (form, (1, 0, 0, 1))
    # on the boundary (B = -A, or A = C with B < 0) B turns nonnegative
    assert reduce_form(2, -2, 3)[0] == (2, 2, 3)
    assert reduce_form(3, -2, 3)[0] == (3, 2, 3)
    assert not form_is_reduced(2, -2, 3) and not form_is_reduced(3, -2, 3)
    with pytest.raises(UsageError):
        reduce_form(1, 3, 1)


def test_class_group_nontrivial_rep():
    reps = class_group(K5)
    assert reps[1] == IdealHNF(K5, 2, 1, 1)
    assert is_principal(reps[1]) is None


def test_gcd_against_factorization():
    rng = random.Random(13)
    pool = enumerate_ideals(K5, 40)
    for _ in range(40):
        p, q = rng.choice(pool), rng.choice(pool)
        g = ideal_add(p, q)
        fp = dict((k.key(), e) for k, e in factor_ideal(p))
        fq = dict((k.key(), e) for k, e in factor_ideal(q))
        expected = unit_ideal(K5)
        for prime, e in factor_ideal(p):
            shared = min(e, fq.get(prime.key(), 0))
            expected = ideal_mul(expected, ideal_pow(prime, shared))
        del fp
        assert g == expected, (p, q)


def test_ideal_divisors():
    p = principal_ideal(element(K5, 6))
    divs = ideal_divisors(p)
    # 6 = p2^2 * p3 * p3bar, so 3 * 2 * 2 divisors
    assert len(divs) == 12
    assert divs[0] == unit_ideal(K5)
    assert all(d.contains_ideal(p) for d in divs)
    norms = [int(x.norm()) for x in divs]
    assert norms == sorted(norms)


def test_membership():
    p = IdealHNF(K5, 2, 1, 1)
    assert p.contains(element(K5, 1, 1))
    assert p.contains(element(K5, 2))
    assert not p.contains(element(K5, 1))
    assert unit_ideal(K5).contains(element(K5, Fraction(1, 2))) is False


def test_json_roundtrip():
    p = IdealHNF(K5, 6, 3, 3, 2)
    assert ideal_from_json(K5, p.to_json()) == p
    assert p.to_json() == {"a": 6, "b": 3, "c": 3, "den": 2}
    assert make_field(-5).to_json() == {"d": -5}
