"""The one equality path per job: BigComplex.eq, first-match clustering,
orbit lookup and periodicity, each against the inline code it replaced."""

import math
from fractions import Fraction
from functools import lru_cache

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wittkit import algrec, witt
from wittkit.cyclotomic import ExactCyclotomic
from wittkit.domains import BigComplex
from wittkit.errors import InsufficientBoundError, UsageError
from wittkit.modular import level_families, modular_vector
from wittkit.qfield import (
    IdealHNF,
    QuadElement,
    enumerate_ideals,
    ideal_divisors,
    ideal_mul,
    make_field,
    principal_ideal,
)
from wittkit.rayclass import classify_ideals
from wittkit.witt import (
    WittVector,
    _ideals,
    component_report,
    distinct_values,
    find_modulus,
    is_periodic_mod,
    orbit_monoid,
    rho_vector,
    zeta_gamma,
    zlinear_combine,
)

Q = make_field(1)
K5 = make_field(-5)
DS = [-1, -3, -5, -15, -23]


@lru_cache(maxsize=None)
def _family_vectors(d: int) -> tuple:
    """j and the three level-2 Fricke vectors at bound 30, prec 60."""
    return tuple(modular_vector(fam, make_field(d), 30, 60) for fam in level_families(2))


# ---------------------------------------------------------------------------
# BigComplex.eq


@pytest.mark.parametrize("prec", [30, 31, 120, 121])
def test_bigcomplex_eq_is_gap_below_the_fixed_tolerance(prec):
    dom = BigComplex(prec)
    with mpmath.workdps(prec + 15):
        tol = mpmath.mpf(10) ** (-Fraction(prec, 2))
    assert dom.tol == tol
    for factor in ("0", "0.5", "0.99", "1", "1.01", "10"):
        with mpmath.workdps(prec + 15):
            g = mpmath.mpf(factor) * tol
            pairs = [
                (mpmath.mpc(0), mpmath.mpc(g, 0)),
                (mpmath.mpc(0), mpmath.mpc(0, -g)),
                (mpmath.mpc(3, -2), mpmath.mpc(3, -2) + g),
                (mpmath.mpc("0.7", 5), mpmath.mpc("0.7", 5) - mpmath.mpc(0, g)),
            ]
        for x, y in pairs:
            assert dom.eq(x, y) == (dom.gap(x, y) < tol) == dom.eq(y, x)
        # measured from 0 the gap is exactly factor * tol
        assert dom.eq(*pairs[0]) == (Fraction(factor) < 1)


# ---------------------------------------------------------------------------
# distinct_values against the two clusterings it replaced


def _old_cluster_values(xi: WittVector):
    """Distinct component values of a big-complex vector, with membership map."""
    tol = xi.domain.tol
    reps = []
    assign = {}
    with mpmath.workdps(xi.domain.workdps):
        for a in xi.ideals():
            v = xi.value_at(a)
            for i, r in enumerate(reps):
                if abs(v - r) < tol:
                    assign[a] = i
                    break
            else:
                reps.append(v)
                assign[a] = len(reps) - 1
    return reps, assign


def _old_eq(domain, x, y) -> bool:
    """BigComplex.eq as it was: eq_verdict(x, y) == "eq" with tol rebuilt."""
    gap = domain.gap(x, y)
    with mpmath.workdps(domain.workdps):
        tol = mpmath.mpf(10) ** (-Fraction(domain.prec, 2))
        if gap < tol:
            return True
    return False


def _old_component_values(xi, orbit, states):
    """component_report's value loop for one J-block, as it was."""
    vals: list = []
    for s in states:
        a = orbit.reps[s]
        nb = xi.bound // int(a.norm())
        for c in _ideals(xi.field, nb):
            v = xi.value_at(ideal_mul(a, c))
            if not any(_old_eq(xi.domain, v, w) for w in vals):
                vals.append(v)
    return vals


def _bits(values):
    return [v._mpc_ for v in values]


@pytest.mark.parametrize("d", DS)
def test_distinct_values_matches_the_old_value_clustering(d):
    for xi in _family_vectors(d):
        old_reps, old_assign = _old_cluster_values(xi)
        reps, labels = distinct_values(xi.domain, xi.values_list())
        assert _bits(reps) == _bits(old_reps)
        assert labels == [old_assign[a] for a in xi.ideals()]
        reps, assign = algrec._cluster_values(xi)
        assert _bits(reps) == _bits(old_reps) and assign == old_assign


def _closed_orbit(xi):
    for primes in (5, 3, 2):
        try:
            return orbit_monoid([xi], primes)
        except InsufficientBoundError:
            pass
    return None


def test_component_report_values_match_the_old_loop(monkeypatch):
    seen = []

    def record(xi, vals, dmax):
        seen.append(vals)
        return None, False, "lll", ""

    monkeypatch.setattr(witt, "_component_degree", record)
    blocks = 0
    for d in DS:
        for xi in _family_vectors(d):
            orbit = _closed_orbit(xi)
            if orbit is None:
                continue
            seen.clear()
            component_report(xi, orbit.prime_norm_bound)
            old = [_old_component_values(xi, orbit, states) for states in orbit.j_partition()]
            assert [_bits(v) for v in seen] == [_bits(v) for v in old]
            blocks += len(old)
    assert blocks >= 20


def test_distinct_values_keeps_a_near_tolerance_chain_apart():
    # neighbours are 0.6 tol apart: each is equal to the next, the ends are not
    dom = BigComplex(40)
    ideals = enumerate_ideals(K5, 12)
    with mpmath.workdps(dom.workdps):
        step = dom.tol * mpmath.mpf("0.6")
        values = {a: mpmath.mpc(1 + i * step, -i * step / 2) for i, a in enumerate(ideals)}
    xi = WittVector(K5, dom, 12, values=values)
    old_reps, old_assign = _old_cluster_values(xi)
    reps, labels = distinct_values(dom, xi.values_list())
    assert labels == [old_assign[a] for a in ideals]
    assert _bits(reps) == _bits(old_reps)
    assert labels[0] != labels[-1] and len(reps) > 2


# ---------------------------------------------------------------------------
# OrbitMonoid.class_of is the BFS's own lookup


def _orbits():
    yield orbit_monoid([zeta_gamma(6, 1, 60)], 7)
    yield orbit_monoid([rho_vector(IdealHNF(K5, 2, 1, 1), 40)], 5)
    yield orbit_monoid([_family_vectors(-23)[0]], 5)
    yield orbit_monoid([_family_vectors(-15)[2]], 5)
    yield orbit_monoid(list(_family_vectors(-1)[:2]), 5)


def test_class_of_agrees_with_the_bfs_indices():
    sizes = []
    for orbit in _orbits():
        reps = orbit.reps
        sizes.append(len(reps))
        assert [orbit.class_of(r) for r in reps] == list(range(len(reps)))
        for i, ri in enumerate(reps):
            assert [orbit.class_of(ideal_mul(ri, p)) for p in orbit.alphabet] == orbit.letter_action[i]
            assert [orbit.class_of(ideal_mul(ri, rj)) for rj in reps] == orbit.table[i]
    assert max(sizes) >= 4


# ---------------------------------------------------------------------------
# is_periodic_mod against the classify_ideals version


def _old_is_periodic_mod(xi: WittVector, f: IdealHNF) -> bool:
    """True iff components agree on every in-bound pair congruent mod f."""
    if not f.is_integral():
        raise UsageError("modulus must be an integral ideal")
    ideals = xi.ideals()
    if not ideals:
        raise InsufficientBoundError("vector has no components")
    _, labels = classify_ideals(f, list(ideals))
    head: dict[int, object] = {}
    for a, lab in zip(ideals, labels):
        v = xi.value_at(a)
        if lab not in head:
            head[lab] = v
        elif not xi.domain.eq(head[lab], v):
            return False
    return True


def _old_find_modulus(xi: WittVector, candidates):
    ordered = sorted(candidates, key=lambda f: (f.norm(), f.a, f.b, f.c))
    for f in ordered:
        if _old_is_periodic_mod(xi, f):
            return f
    return None


def _assert_periodicity_agrees(xi, candidates):
    for f in candidates:
        assert is_periodic_mod(xi, f) == _old_is_periodic_mod(xi, f), f
    assert find_modulus(xi, candidates) == _old_find_modulus(xi, candidates)


Q_SMALL = enumerate_ideals(Q, 30)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(-3, 3).filter(bool), st.integers(1, 30), st.integers(0, 29)),
        min_size=1,
        max_size=3,
    )
)
def test_is_periodic_mod_matches_the_classify_oracle_on_cyclic_vectors(terms):
    coeffs = [c for c, _, _ in terms]
    gammas = [Fraction(p % q, q) for _, q, p in terms]
    xi = zlinear_combine(coeffs, gammas, 200)
    L = principal_ideal(QuadElement(Q, Fraction(xi.gring_L), Fraction(0)))
    candidates = list(ideal_divisors(L)) + list(Q_SMALL)
    # the group-ring vector shares value objects per residue; a copy with
    # fresh value dicts goes through eq on every congruent pair
    fresh = WittVector(Q, xi.domain, xi.bound, values={a: dict(xi.value_at(a)) for a in xi.ideals()})
    for vec in (xi, fresh):
        _assert_periodicity_agrees(vec, candidates)


K5_SMALL = enumerate_ideals(K5, 12)


@settings(max_examples=12, deadline=None)
@given(st.sampled_from(K5_SMALL), st.sampled_from([20, 40, 60]))
def test_is_periodic_mod_matches_the_classify_oracle_on_rho_vectors(a, bound):
    _assert_periodicity_agrees(rho_vector(a, bound), K5_SMALL)


@settings(max_examples=6, deadline=None)
@given(st.sampled_from([-5, -23]), st.integers(0, 3))
def test_is_periodic_mod_matches_the_classify_oracle_on_modular_vectors(d, which):
    xi = _family_vectors(d)[which]
    _assert_periodicity_agrees(xi, enumerate_ideals(make_field(d), 12))


# ---------------------------------------------------------------------------
# the closed-form periodicity of group-ring vectors against the scan

_DENS = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12]
_COEFF = st.builds(Fraction, st.integers(-3, 3).filter(bool), st.sampled_from([1, 1, 2, 3, 4]))


@st.composite
def _gring_terms(draw):
    """Rational coefficients on gammas p/q, p drawn beyond [0, q) so that
    terms can meet mod 1, plus possibly a term and its negative."""
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        q = draw(st.sampled_from(_DENS))
        terms.append((draw(_COEFF), Fraction(draw(st.integers(-q, 2 * q)), q)))
    if draw(st.booleans()):
        c, g = terms[0]
        terms.append((-c, g + draw(st.sampled_from([0, 1, -2]))))
    return terms


@settings(max_examples=150, deadline=None)
@given(_gring_terms(), st.integers(1, 30), st.sampled_from([-1, 0, 1, None]), st.data())
def test_closed_form_periodicity_matches_the_scan_at_the_lcm_bound(terms, m, offset, data):
    coeffs, gammas = [c for c, _ in terms], [g for _, g in terms]
    L = zlinear_combine(coeffs, gammas, 1).gring_L
    T = math.lcm(m, L)
    # lcm(m, L) - 1, lcm(m, L), lcm(m, L) + 1, or between L and lcm(m, L),
    # where a bound of L alone would not yet decide
    bound = T + offset if offset is not None else data.draw(st.integers(L, T))
    assume(1 <= bound <= 700)
    xi = zlinear_combine(coeffs, gammas, bound)
    f = IdealHNF(Q, m, 0, 1)
    candidates = [f] + list(ideal_divisors(IdealHNF(Q, L, 0, 1)))
    _assert_periodicity_agrees(xi, candidates)


def test_closed_form_covers_an_empty_gring_and_non_integer_coefficients():
    empty = zlinear_combine([Fraction(1, 2), Fraction(-1, 2)], [Fraction(1, 3), Fraction(4, 3)], 12)
    assert empty.gring == {}
    half = zlinear_combine([Fraction(1, 2), Fraction(-3, 4)], [Fraction(1, 4), Fraction(1, 2)], 12)
    for xi in (empty, half):
        for m in range(1, 13):
            f = IdealHNF(Q, m, 0, 1)
            assert is_periodic_mod(xi, f) == _old_is_periodic_mod(xi, f)
    assert find_modulus(empty, [IdealHNF(Q, 1, 0, 1)]) == IdealHNF(Q, 1, 0, 1)
    # 1 + (-1)^n is not periodic mod 3, but below n = 4 no two in-bound
    # ideals are congruent mod 3, so the scan calls it periodic there
    for bound in range(1, 8):
        parity = zlinear_combine([1, 1], [Fraction(0), Fraction(1, 2)], bound)
        for m in range(1, 7):
            f = IdealHNF(Q, m, 0, 1)
            assert is_periodic_mod(parity, f) == _old_is_periodic_mod(parity, f), (bound, m)
    assert is_periodic_mod(zlinear_combine([1, 1], [Fraction(0), Fraction(1, 2)], 3), IdealHNF(Q, 3, 0, 1))
    assert find_modulus(half, list(Q_SMALL)) == _old_find_modulus(half, list(Q_SMALL)) == IdealHNF(Q, 4, 0, 1)


def _counting_eval_formal(monkeypatch) -> list:
    calls = []
    real = ExactCyclotomic.eval_formal

    def counting(self, g, n=1):
        calls.append(n)
        return real(self, g, n)

    monkeypatch.setattr(ExactCyclotomic, "eval_formal", counting)
    return calls


def test_find_modulus_on_a_group_ring_vector_evaluates_no_component(monkeypatch):
    coeffs, gammas = [2, -3, Fraction(1, 2)], [Fraction(1, 4), Fraction(1, 6), Fraction(2, 5)]
    L = 60
    divisors = ideal_divisors(IdealHNF(Q, L, 0, 1))
    want = _old_find_modulus(zlinear_combine(coeffs, gammas, L), divisors)
    assert want == IdealHNF(Q, 60, 0, 1)
    calls = _counting_eval_formal(monkeypatch)
    for bound in (L, 200):
        assert find_modulus(zlinear_combine(coeffs, gammas, bound), divisors) == want
    assert calls == []
    # below lcm(m, L) the scan decides, evaluating components
    small = zlinear_combine(coeffs, gammas, L - 1)
    assert find_modulus(small, divisors) == _old_find_modulus(zlinear_combine(coeffs, gammas, L - 1), divisors)
    assert calls
    # a modulus over another field goes through the scan and raises there
    calls.clear()
    f = IdealHNF(K5, 2, 1, 1)
    with pytest.raises(UsageError, match="ideals from different fields"):
        find_modulus(zlinear_combine(coeffs, gammas, 200), [f])
    with pytest.raises(UsageError, match="ideals from different fields"):
        _old_find_modulus(zlinear_combine(coeffs, gammas, 200), [f])
    assert calls
