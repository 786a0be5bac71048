import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wittkit.algrec import (
    IntPoly,
    _certify_shared_poly,
    _cluster_values,
    _lovasz_verify,
    certify_vector,
    class_polynomial,
    exact_minpoly_nf,
    lll_reduce,
    minpoly,
)
from wittkit.domains import BigComplex, ExactNumberField
from wittkit.errors import CertificationError, UsageError, WittkitError
from wittkit.modular import JFamily, modular_vector
from wittkit.qfield import IdealHNF, QuadElement, enumerate_ideals, make_field, principal_ideal
from wittkit.witt import WittVector, check_un, constant_vector

K5 = make_field(-5)


def test_lll_knapsack_identity():
    # the second row is huge but the lattice is unimodular, so the reduced
    # basis must consist of unit vectors
    red = lll_reduce([[1, 0], [10**9, 1]])
    assert sorted(sorted(abs(c) for c in row) for row in red) == [[0, 1], [0, 1]]


def test_lll_output_satisfies_lovasz():
    rng = random.Random(31)
    for _ in range(10):
        basis = [[rng.randrange(-50, 51) for _ in range(3)] for _ in range(3)]
        while abs(
            basis[0][0] * (basis[1][1] * basis[2][2] - basis[1][2] * basis[2][1])
            - basis[0][1] * (basis[1][0] * basis[2][2] - basis[1][2] * basis[2][0])
            + basis[0][2] * (basis[1][0] * basis[2][1] - basis[1][1] * basis[2][0])
        ) < 1:
            basis = [[rng.randrange(-50, 51) for _ in range(3)] for _ in range(3)]
        red = lll_reduce(basis)
        _lovasz_verify(red, Fraction(99, 100))


def test_lovasz_verify_rejects_unordered_basis():
    with pytest.raises(WittkitError):
        _lovasz_verify([[10, 0], [0, 1]], Fraction(99, 100))


def test_lll_dependent_rows_rejected():
    with pytest.raises(UsageError):
        lll_reduce([[1, 2], [2, 4]])


def _gram_det(rows):
    """det(B B^T) by exact elimination."""
    g = [[Fraction(sum(a * b for a, b in zip(u, v))) for v in rows] for u in rows]
    det = Fraction(1)
    for i in range(len(g)):
        piv = next((r for r in range(i, len(g)) if g[r][i]), None)
        if piv is None:
            return Fraction(0)
        if piv != i:
            g[i], g[piv] = g[piv], g[i]
            det = -det
        det *= g[i][i]
        for r in range(i + 1, len(g)):
            f = g[r][i] / g[i][i]
            g[r] = [x - f * y for x, y in zip(g[r], g[i])]
    return det


def _solve_coords(rows, basis):
    """U with U * basis == rows, via the normal equations (basis has full row rank)."""
    n = len(basis)
    gram = [[Fraction(sum(a * b for a, b in zip(u, v))) for v in basis] for u in basis]
    coords = []
    for row in rows:
        aug = [gram[i] + [Fraction(sum(a * b for a, b in zip(row, basis[i])))] for i in range(n)]
        for i in range(n):
            piv = next(r for r in range(i, n) if aug[r][i])
            aug[i], aug[piv] = aug[piv], aug[i]
            aug[i] = [x / aug[i][i] for x in aug[i]]
            for r in range(n):
                if r != i and aug[r][i]:
                    f = aug[r][i]
                    aug[r] = [x - f * y for x, y in zip(aug[r], aug[i])]
        coords.append([aug[i][n] for i in range(n)])
    return coords


def _assert_reduced_basis_of_same_lattice(basis, red, delta):
    _lovasz_verify(red, delta)
    assert len(red) == len(basis)
    assert _gram_det(red) == _gram_det(basis)
    for row, u in zip(red, _solve_coords(red, basis)):
        assert all(c.denominator == 1 for c in u)
        combo = [sum(int(c) * b[k] for c, b in zip(u, basis)) for k in range(len(row))]
        assert combo == row


GOLDEN_LATTICE = [
    [10**50, 0, 1, 0, 0],
    [161803398874989484820458683436563811772030917980576, 0, 0, 1, 0],
    [261803398874989484820458683436563811772030917980576, 0, 0, 0, 1],
]


@pytest.mark.parametrize("delta", [Fraction(3, 4), Fraction(99, 100)])
def test_lll_golden_ratio_lattice(delta):
    # the degree-2 lattice minpoly builds for the golden ratio at prec 60;
    # sympy 1.14's DomainMatrix.lll raises an internal AssertionError on it
    red = lll_reduce(GOLDEN_LATTICE, delta)
    _assert_reduced_basis_of_same_lattice(GOLDEN_LATTICE, red, delta)
    assert [1, 1, -1] in [r[2:] for r in red] or [-1, -1, 1] in [r[2:] for r in red]


@st.composite
def _minpoly_style_bases(draw):
    n = draw(st.integers(2, 6))
    big = draw(st.integers(1, 2))
    cols = [
        [draw(st.integers(-(10**51), 10**51)) for _ in range(n)] for _ in range(big)
    ]
    return [[col[i] for col in cols] + [int(i == k) for k in range(n)] for i in range(n)]


@settings(max_examples=60, deadline=None)
@given(basis=_minpoly_style_bases(), delta=st.sampled_from([Fraction(3, 4), Fraction(99, 100)]))
def test_lll_reduces_minpoly_style_lattices(basis, delta):
    red = lll_reduce(basis, delta)
    _assert_reduced_basis_of_same_lattice(basis, red, delta)


def test_intpoly_rejects_degenerate():
    with pytest.raises(UsageError):
        IntPoly((5,), 0.0)
    with pytest.raises(UsageError):
        IntPoly((1, 2, 0), 0.0)


def test_minpoly_golden_ratio():
    with mpmath.workdps(80):
        x = (1 + mpmath.sqrt(5)) / 2
    p = minpoly(x, 4, prec=60)
    assert p is not None
    assert p.coeffs == (-1, -1, 1)
    assert p.is_monic


def test_minpoly_rational_integer():
    p = minpoly(mpmath.mpf(1728), 4, prec=60)
    assert p is not None
    assert p.coeffs == (-1728, 1)


def test_minpoly_zeta3():
    with mpmath.workdps(80):
        z = mpmath.exp(2j * mpmath.pi / 3)
    p = minpoly(z, 4, prec=60)
    assert p is not None
    assert p.coeffs == (1, 1, 1)


def test_minpoly_half_is_not_monic():
    p = minpoly(mpmath.mpf("0.5"), 4, prec=60)
    assert p is not None
    assert p.coeffs == (-1, 2)
    assert not p.is_monic


def test_minpoly_sqrt2_plus_sqrt3():
    with mpmath.workdps(90):
        x = mpmath.sqrt(2) + mpmath.sqrt(3)
    p = minpoly(x, 6, prec=70)
    assert p is not None
    assert p.coeffs == (1, 0, -10, 0, 1)


def test_minpoly_rejects_pi():
    with mpmath.workdps(80):
        assert minpoly(mpmath.pi, 6, prec=60) is None


def test_class_polynomial_class_number_one():
    assert class_polynomial(-1).poly.coeffs == (-1728, 1)
    assert class_polynomial(-3).poly.coeffs == (0, 1)
    assert class_polynomial(-7).poly.coeffs == (3375, 1)


def test_class_polynomial_d5():
    rep = class_polynomial(-5)
    assert rep.h == 2
    assert rep.poly.coeffs == (-681472000, -1264000, 1)
    assert max(rep.rounding_errors) < 0.01
    # the recorded numeric j values must actually be roots
    with mpmath.workdps(130):
        for jv in rep.j_values:
            assert abs(jv * jv - 1264000 * jv - 681472000) < mpmath.mpf(10) ** -80


def test_class_polynomial_d15():
    rep = class_polynomial(-15)
    assert rep.poly.coeffs == (-121287375, 191025, 1)
    assert max(rep.rounding_errors) < 0.01


def test_certify_modular_vector_d5():
    xi = modular_vector(JFamily(), K5, 30, 120)
    rep = certify_vector(xi, dmax=8)
    assert rep.ok
    assert rep.all_integral
    assert rep.poly.coeffs == (-681472000, -1264000, 1)
    exact = {tuple(rep.vector.value_at(a)) for a in rep.vector.ideals()}
    assert len(exact) == 2
    nf = rep.vector.domain
    with mpmath.workdps(130):
        for a in rep.vector.ideals():
            emb = nf.numeric(rep.vector.value_at(a))
            assert abs(emb - xi.value_at(a)) < mpmath.mpf(10) ** -50


def test_certify_constant_rational():
    xi = constant_vector(K5, BigComplex(60), 10, mpmath.mpc(7))
    rep = certify_vector(xi, dmax=4)
    assert rep.ok
    assert rep.poly.coeffs == (-7, 1)
    assert rep.all_integral


def test_certify_half_is_algebraic_but_not_integral():
    xi = constant_vector(K5, BigComplex(60), 10, mpmath.mpc("0.5"))
    rep = certify_vector(xi, dmax=4)
    assert rep.ok
    assert not rep.all_integral
    assert rep.value_polys[0].coeffs == (-1, 2)


def test_certify_compositum_of_two_quadratics():
    ideals = enumerate_ideals(K5, 6)
    with mpmath.workdps(75):
        vals = {
            a: (mpmath.sqrt(2) if i % 2 == 0 else mpmath.sqrt(3))
            for i, a in enumerate(ideals)
        }
    xi = WittVector(K5, BigComplex(60), 6, values=vals)
    rep = certify_vector(xi, dmax=8)
    assert rep.ok
    assert rep.all_integral
    # Q(sqrt 2, sqrt 3) is generated by sqrt 2 + sqrt 3, whose minimal
    # polynomial is x^4 - 10 x^2 + 1
    assert rep.poly.coeffs == (1, 0, -10, 0, 1)
    nf = rep.vector.domain
    with mpmath.workdps(70):
        for i, a in enumerate(rep.vector.ideals()):
            target = mpmath.sqrt(2) if i % 2 == 0 else mpmath.sqrt(3)
            assert abs(nf.numeric(rep.vector.value_at(a)) - target) < mpmath.mpf(10) ** -40


def test_exact_minpoly_inside_number_field():
    rep = certify_vector(modular_vector(JFamily(), K5, 30, 120), dmax=8)
    nf = rep.vector.domain
    assert exact_minpoly_nf(nf, nf.from_fraction(Fraction(3, 1))) == (-3, 1)
    assert exact_minpoly_nf(nf, nf.gen()) == (-681472000, -1264000, 1)


def test_exact_divisibility_in_number_field():
    rep = certify_vector(modular_vector(JFamily(), K5, 30, 120), dmax=8)
    nf = rep.vector.domain
    two = QuadElement(K5, Fraction(2), Fraction(0))
    assert nf.div_prime(nf.zero(), two) is not None
    # theta satisfies x^2 - 1264000 x - 681472000, so theta/2 satisfies
    # x^2 - 632000 x - 170368000: still monic integral, hence divisible
    assert 1264000 % 2 == 0 and 681472000 % 4 == 0
    assert nf.div_prime(nf.gen(), two) is not None
    assert nf.div_prime(nf.scale(nf.gen(), 2), two) is not None
    # 1/2 is not an algebraic integer
    assert nf.div_prime(nf.one(), two) is None


def test_number_field_tower_refuses_an_irrational_prime_generator():
    # (sqrt -5) is a principal prime of norm 5; the number field holds no
    # embedding of K, so dividing by its generator must raise, not guess
    rep = certify_vector(modular_vector(JFamily(), K5, 30, 120), dmax=8)
    with pytest.raises(UsageError, match="no embedding of K"):
        check_un(rep.vector, 1, 5)


def _cycling_vector(prec, values):
    """A vector over K5 whose i-th component is values[i % len(values)]."""
    ideals = enumerate_ideals(K5, 6)
    vals = {a: values[i % len(values)] for i, a in enumerate(ideals)}
    return WittVector(K5, BigComplex(prec), 6, values=vals)


def test_shared_poly_first_value_is_the_generator():
    # the first value is the smaller root of x^2 - 2, so it, not the larger
    # root, becomes gen and the larger one maps to trace - gen = -gen
    with mpmath.workdps(80):
        xi = _cycling_vector(60, [-mpmath.sqrt(2), mpmath.sqrt(2)])
    rep = certify_vector(xi, dmax=4)
    assert rep.ok and rep.poly.coeffs == (-2, 0, 1)
    nf = rep.vector.domain
    for i, a in enumerate(rep.vector.ideals()):
        assert rep.vector.value_at(a) == ((0, 1) if i % 2 == 0 else (0, -1))
    with mpmath.workdps(70):
        for a in rep.vector.ideals():
            assert abs(nf.numeric(rep.vector.value_at(a)) - xi.value_at(a)) < mpmath.mpf(10) ** -50


def test_shared_poly_rejects_a_value_that_is_not_the_conjugate():
    with mpmath.workdps(80):
        root2 = mpmath.sqrt(2)
        xi = _cycling_vector(60, [root2, root2 + mpmath.mpf(10) ** -20])
    reps, assign = _cluster_values(xi)
    assert len(reps) == 2
    poly = IntPoly(coeffs=(-2, 0, 1), residual=0.0)
    nf, vec, note = _certify_shared_poly(xi, reps, assign, poly, 60)
    assert nf is None and vec is None
    assert note == "value does not match either root of its polynomial"


def test_number_field_inverse_reports_reducible_modulus():
    # x^2 - 1 = (x - 1)(x + 1): x - 1 is a zero divisor, which must surface
    # as a CertificationError rather than a bare assert
    nf = ExactNumberField([-1, 0, 1], 1, 60)
    with pytest.raises(CertificationError):
        nf.inverse((Fraction(-1), Fraction(1)))


NUMBER_FIELDS = [[5, 0, 1], [-1, -1, 1], [-2, 0, 0, 1], [-1, -1, 0, 1], [1, 0, 0, 0, 1], [3, -1, 4, 0, 2]]


@settings(max_examples=60, deadline=None)
@given(
    coeffs=st.sampled_from(NUMBER_FIELDS),
    elt=st.lists(st.fractions(min_value=-20, max_value=20, max_denominator=12), min_size=4, max_size=4),
)
def test_charpoly_matches_sympy(coeffs, elt):
    # sympy's Matrix.charpoly is the oracle here only; the library uses Berkowitz
    from sympy import Matrix, Poly, Rational, symbols

    with mpmath.workdps(80):
        root = mpmath.polyroots(coeffs[::-1], maxsteps=200, extraprec=200)[0]
    nf = ExactNumberField(coeffs, root, 60)
    x = tuple(elt[: nf.deg])
    cols = nf.mul_matrix(x)
    m = Matrix(nf.deg, nf.deg, lambda i, j: Rational(cols[j][i].numerator, cols[j][i].denominator))
    lam = symbols("lam")
    expected = [Fraction(c.p, c.q) for c in Poly(m.charpoly(lam).as_expr(), lam).all_coeffs()[::-1]]
    got = nf.charpoly(x)
    assert got == expected
    assert all(isinstance(c, Fraction) for c in got)


def test_jhat_integral_across_fields():
    for d in (-1, -3, -7, -15):
        field = make_field(d)
        rep = certify_vector(modular_vector(JFamily(), field, 20, 120), dmax=8)
        assert rep.ok, d
        assert rep.all_integral, d


def test_exact_results_do_not_move_with_precision():
    """Raising the working precision leaves every exact output unchanged."""
    for d in (-5, -15, -23):
        assert class_polynomial(d, 120).poly.coeffs == class_polynomial(d, 160).poly.coeffs, d
    low, high = (certify_vector(modular_vector(JFamily(), K5, 20, prec), dmax=8) for prec in (120, 160))
    assert low.ok and high.ok
    assert low.poly.coeffs == high.poly.coeffs
    assert low.all_integral == high.all_integral
    assert low.vector.ideals() == high.vector.ideals()
    for a in low.vector.ideals():
        assert tuple(low.vector.value_at(a)) == tuple(high.vector.value_at(a)), a


def test_minpoly_agrees_with_pslq():
    """mpmath's PSLQ, an independent relation finder, finds minpoly's relation."""
    K15 = make_field(-15)
    j15 = modular_vector(JFamily(), K15, 10, 120).value_at(principal_ideal(K15.one()))
    j5 = modular_vector(JFamily(), K5, 40, 120)
    values = [j15] + [j5.value_at(a) for a in (principal_ideal(K5.one()), IdealHNF(K5, 2, 1, 1))]
    assert abs(values[1] - values[2]) > 1
    for x in values:
        poly = minpoly(x, 8, prec=120)
        assert poly is not None
        with mpmath.workdps(120):
            rel = mpmath.pslq([x.real**k for k in range(len(poly.coeffs))], maxcoeff=10**12, maxsteps=10**5)
        assert rel is not None
        g = math.gcd(*rel)
        assert tuple(c // g for c in rel) in (poly.coeffs, tuple(-c for c in poly.coeffs))


def test_compositum_roots_keep_every_evalf_digit():
    from sympy import CRootOf, Poly
    from sympy.abc import x

    from wittkit.algrec import _evalf_mpc

    # H_{-23}: one real root near -3493225.7 and two complex conjugates
    h23 = Poly([1, 3491750, -5151296875, 12771880859375], x)
    real_root = CRootOf(h23, 0)
    with mpmath.workdps(80):
        want = mpmath.mpf(str(real_root.evalf(70)))
        got = _evalf_mpc(real_root, 70)
        assert abs(got - want) < mpmath.mpf(10) ** -60
        # complex() keeps about 16 digits, far short of the 10^-30 match at prec 120
        assert abs(mpmath.mpc(complex(real_root.evalf(70))) - want) > mpmath.mpf(10) ** -20
        # the imaginary part keeps its digits too: a root of x^2 - x + 6
        root = CRootOf(Poly([1, -1, 6], x), 1)
        want = (1 + mpmath.sqrt(-23)) / 2
        assert abs(_evalf_mpc(root, 70) - want) < mpmath.mpf(10) ** -60
