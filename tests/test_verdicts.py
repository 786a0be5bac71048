"""BigComplex verdicts from binades: gap, below, eq and witt._shift_gap
against the square-root code they replaced, kept here as the oracle, and
the shared ideal prefixes that shift comparisons read."""

from functools import lru_cache

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wittkit import cli, domains, witt
from wittkit.domains import BigComplex
from wittkit.modular import (
    JFamily,
    _keyed_family_vectors,
    clear_caches,
    level_families,
    level_family_vectors,
    modular_vector,
    modularity_check,
)
from wittkit.qfield import enumerate_ideals, ideal_mul, make_field
from wittkit.witt import WittVector, component_report, orbit_monoid

Q = make_field(1)


def _old_gap(dom, x, y):
    """BigComplex.gap as it was: an mpc hypot under the working precision."""
    with mpmath.workdps(dom.workdps):
        return abs(mpmath.mpc(x) - mpmath.mpc(y))


def _old_shift_gap(vectors, a, b, cap):
    """witt._shift_gap as it was: a square root per component pair, over
    freshly enumerated common ideals."""
    na, nb = int(a.norm()), int(b.norm())
    worst = 0
    for xi in vectors:
        for c in enumerate_ideals(xi.field, min(xi.bound // na, xi.bound // nb)):
            g = _old_gap(xi.domain, xi.value_at(ideal_mul(a, c)), xi.value_at(ideal_mul(b, c)))
            if g >= cap:
                return g
            worst = max(worst, g)
    return worst


def _bits(v):
    """A gap's exact identity: its type and, for an mpf, its libmp tuple."""
    return (type(v), v._mpf_ if isinstance(v, mpmath.mpf) else v)


def _assert_verdicts_match_old(dom, x, y, caps):
    old = _old_gap(dom, x, y)
    assert _bits(dom.gap(x, y)) == _bits(old)
    assert dom.eq(x, y) == (old < dom.tol)
    for cap in caps:
        assert dom.below(x, y, cap) == (dom.gap(x, y) < cap) == (old < cap), cap
        g = dom.gap_unless_below(x, y, cap)
        assert g is None and old < cap or _bits(g) == _bits(old)


# ---------------------------------------------------------------------------
# nan and infinities


def _specials():
    nan, inf = mpmath.mpf("nan"), mpmath.mpf("inf")
    return [
        mpmath.mpc(nan, 0),
        mpmath.mpc(1, nan),
        mpmath.mpc(inf, 0),
        mpmath.mpc(-inf, 1),
        mpmath.mpc(0, inf),
        mpmath.mpc(inf, inf),
        mpmath.mpc(inf, nan),
        mpmath.mpc(0),
        mpmath.mpc(1),
        mpmath.mpc(1, "1e-40"),
        nan,
        inf,
        -inf,
        mpmath.mpf(1),
        1,
        0,
    ]


def test_nan_and_infinities_take_the_exact_path():
    """libmp specials have mantissa 0 like zero does; they must not be read as zero."""
    dom = BigComplex(30)
    nan, inf = mpmath.mpf("nan"), mpmath.mpf("inf")
    caps = [dom.tol, mpmath.mpf(1), mpmath.mpf(10) ** 40, 0, -1, inf, -inf, nan]
    values = _specials()
    for x in values:
        for y in values:
            _assert_verdicts_match_old(dom, x, y, caps)
    assert not dom.eq(nan, 1) and not dom.eq(inf, inf) and not dom.eq(mpmath.mpc(nan), mpmath.mpc(nan))
    assert not dom.below(mpmath.mpc(inf, 0), mpmath.mpc(inf, 0), 1)


def test_shift_gap_with_nan_and_infinities_matches_the_old_loop():
    dom = BigComplex(30)
    values = [mpmath.mpc(v) for v in _specials()]
    ideals = enumerate_ideals(Q, len(values))
    for shift in (0, 3, 7):
        comps = {a: values[(i * shift + i // 2) % len(values)] for i, a in enumerate(ideals)}
        vectors = [WittVector(Q, dom, len(values), values=comps)]
        for cap in (dom.tol, mpmath.mpf(1), mpmath.mpf("inf"), mpmath.mpf("nan")):
            for a in ideals[:8]:
                for b in ideals[:8]:
                    want = _old_shift_gap(vectors, a, b, cap)
                    assert _bits(witt._shift_gap(vectors, a, b, {}, cap)) == _bits(want), (shift, cap, a, b)


# ---------------------------------------------------------------------------
# below against gap < cap near the cap


_DIRECTIONS = {"re": (5, 0), "im": (0, 5), "diag": (3, -4)}


@settings(max_examples=300, deadline=None)
@given(
    prec=st.sampled_from([10, 30, 121]),
    scale=st.integers(-520, 40),
    cap_man=st.integers(1, 2**80),
    k=st.integers(0, 600),
    side=st.sampled_from([-1, 0, 1, "zero"]),
    direction=st.sampled_from(sorted(_DIRECTIONS)),
    base=st.tuples(st.integers(-(2**70), 2**70), st.integers(-(2**70), 2**70), st.integers(-80, 10)),
    extra_bits=st.integers(0, 200),
    kind=st.sampled_from(["mpc", "mpf", "int"]),
)
def test_below_is_gap_below_cap(prec, scale, cap_man, k, side, direction, base, extra_bits, kind):
    """Differences of cap*(1 + side*2^-k), exactly cap or 0, between operands
    that carry more bits than the working precision, or are ints or mpfs."""
    dom = BigComplex(prec)
    with mpmath.workprec(dom._bits + extra_bits):
        cap = mpmath.ldexp(cap_man, scale)
        size = 0 if side == "zero" else cap * (1 + side * mpmath.ldexp(1, -k))
        re, im = _DIRECTIONS[direction] if kind == "mpc" else (5, 0)
        step = mpmath.mpc(size * re / 5, size * im / 5)
        x = mpmath.mpc(mpmath.ldexp(base[0], base[2]), mpmath.ldexp(base[1], base[2]))
        if kind == "mpc":
            y = x + step
        else:
            x = int(base[0]) if kind == "int" else x.real
            y = x + step.real
    pairs = [(x, y), (y, x)]
    if kind != "mpc":
        pairs.append((x, mpmath.mpc(y)))
    for u, v in pairs:
        _assert_verdicts_match_old(dom, u, v, [cap, dom.tol])


@pytest.mark.parametrize("prec", [10, 60, 120])
def test_gap_keeps_the_old_bits_on_component_values(prec):
    dom = BigComplex(prec)
    xi = _j_vector(-5, 24, prec)
    vals = [xi.value_at(a) for a in xi.ideals()]
    for x in vals[::3]:
        for y in vals:
            _assert_verdicts_match_old(dom, x, y, [dom.tol, dom.tol * 10])


# ---------------------------------------------------------------------------
# _shift_gap against the old loop on level families


@lru_cache(maxsize=None)
def _j_vector(d, bound, prec):
    return modular_vector(JFamily(), make_field(d), bound, prec)


def _desk_tolerances(prec):
    """tol and loose as modularity_check sets them."""
    with mpmath.workdps(prec + 15):
        tol = mpmath.mpf(10) ** -(prec // 3)
        return tol, tol * 10


@pytest.mark.parametrize("d", [-1, -3, -5, -15])
def test_shift_gap_keeps_the_old_loops_bits_on_level_families(d):
    field = make_field(d)
    bound, prec = 24, 60
    ideals = enumerate_ideals(field, bound)
    clear_caches()
    for N in (1, 2, 3):
        vectors = level_family_vectors(field, N, bound, prec)
        for cap in _desk_tolerances(prec):
            for i, a in enumerate(ideals):
                for b in ideals[i + 1 :]:
                    products: dict = {}
                    want = _old_shift_gap(vectors, a, b, cap)
                    assert _bits(witt._shift_gap(vectors, a, b, products, cap)) == _bits(want), (N, cap, a, b)
    clear_caches()


@pytest.mark.parametrize("d", [-1, -2, -3, -5, -15, -23])
def test_shift_gap_keeps_the_old_loops_bits_on_keyed_level_families(d):
    """Exact-key vectors share one value object between ideals of one key,
    the pairs _shift_gap skips unmeasured; the old loop measures them."""
    field = make_field(d)
    bound = 24
    ideals = enumerate_ideals(field, bound)
    clear_caches()
    for prec in (60, 120):
        for N in (1, 2, 3):
            vectors = _keyed_family_vectors(level_families(N), field, bound, prec)
            products: dict = {}
            for cap in _desk_tolerances(prec):
                for i, a in enumerate(ideals):
                    for b in ideals[i + 1 :]:
                        want = _old_shift_gap(vectors, a, b, cap)
                        assert _bits(witt._shift_gap(vectors, a, b, products, cap)) == _bits(want), (prec, N, cap, a, b)
    clear_caches()


# ---------------------------------------------------------------------------
# Work counts: a fall back to the square root fails here


def test_a_default_desk_pass_measures_at_most_95_gaps(monkeypatch):
    """The three desk triples compare 840 component pairs in their shift
    scans; 745 of them hold one value object twice and are not measured."""
    calls = []
    real = BigComplex.gap_unless_below

    def counting(self, x, y, floor):
        calls.append((x, y))
        return real(self, x, y, floor)

    monkeypatch.setattr(BigComplex, "gap_unless_below", counting)
    clear_caches()
    for d, level, bound in cli.DESK_CHECK_TRIPLES:
        assert modularity_check(make_field(d), level, bound, 120)["passed"]
    assert 0 < len(calls) <= 95
    assert all(x is not y for x, y in calls)
    clear_caches()


def test_orbit_and_components_of_the_j_vector_take_no_square_root(monkeypatch):
    """Every verdict of the default pipeline's orbit and components jobs
    (d = -5, B = 40, prec 120, primes of norm <= 10) is settled by binades;
    the square-root code took a hypot for each of them."""
    xi = _j_vector(-5, 40, 120)
    counts = {"hypot": 0, "verdicts": 0}
    real_hypot, real_below = domains.mpf_hypot, BigComplex.below

    def hypot(*args):
        counts["hypot"] += 1
        return real_hypot(*args)

    def below(self, x, y, cap):
        counts["verdicts"] += 1
        return real_below(self, x, y, cap)

    monkeypatch.setattr(domains, "mpf_hypot", hypot)
    monkeypatch.setattr(BigComplex, "below", below)
    component_report(xi, 10)
    orbit_monoid([xi], 10)
    assert counts["verdicts"] >= 300
    assert counts["hypot"] == 0


# ---------------------------------------------------------------------------
# Ideal prefixes


@settings(max_examples=60, deadline=None)
@given(d=st.sampled_from([1, -1, -2, -3, -5, -15, -23]), small=st.integers(0, 60), big=st.integers(1, 60))
def test_enumeration_to_a_smaller_bound_is_a_prefix(d, small, big):
    field = make_field(d)
    small, big = min(small, big), max(small, big)
    full, part = enumerate_ideals(field, big), enumerate_ideals(field, small)
    assert part == full[: len(part)]
    assert all(a.norm() > small for a in full[len(part) :])


@pytest.mark.parametrize("d", [1, -1, -3, -5, -23])
def test_common_ideals_are_the_enumeration_to_the_common_bound(d):
    field = make_field(d)
    bound = 30
    xi = WittVector(field, BigComplex(20), bound, values={a: mpmath.mpc(1) for a in enumerate_ideals(field, bound)})
    ideals = enumerate_ideals(field, bound)
    for a in ideals:
        for b in ideals:
            na, nb = int(a.norm()), int(b.norm())
            common = min(bound // na, bound // nb)
            assert witt._common_ideals(xi, a, b, na, nb) == witt._ideals(field, common)
