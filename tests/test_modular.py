import errno
import json
import math
import os
import pickle
import random
import threading
from collections import Counter
from dataclasses import dataclass, field as dc_field, replace
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wittkit import cli, modular, rayclass
from wittkit.domains import GUARD_DIGITS
from wittkit.errors import PrecisionError, UsageError, WittkitError
from wittkit.modular import (
    CharFamily,
    FrickeFamily,
    JFamily,
    char_family_from_ideal,
    cm_point,
    eisenstein,
    fricke,
    fricke_power,
    j_invariant,
    level_families,
    level_family_vectors,
    modular_vector,
    modularity_check,
    wp,
    wp_prime,
)
from wittkit.qfield import (
    IdealHNF,
    QuadElement,
    class_group,
    enumerate_ideals,
    ideal_div,
    ideal_from_elements,
    ideal_inverse,
    ideal_mul,
    is_principal,
    make_field,
    principal_ideal,
    reduced_forms,
    unit_ideal,
)

K1 = make_field(-1)
K3 = make_field(-3)
K5 = make_field(-5)


def test_j_special_values():
    with mpmath.workdps(70):
        assert abs(j_invariant(mpmath.mpc(0, 1), 50) - 1728) < mpmath.mpf(10) ** -40
        rho = (1 + mpmath.sqrt(-3)) / 2
        assert abs(j_invariant(rho, 50)) < mpmath.mpf(10) ** -40


def test_j_translation_invariance():
    rng = random.Random(7)
    with mpmath.workdps(75):
        for _ in range(5):
            tau = mpmath.mpc(rng.uniform(-2, 2), rng.uniform(0.6, 2.0))
            assert abs(j_invariant(tau + 1, 60) - j_invariant(tau, 60)) < mpmath.mpf(10) ** -45


def test_delta_two_paths():
    # eisenstein raises PrecisionError internally if the eta product and the
    # g2/g3 combination drift apart; verify the identity externally as well.
    rng = random.Random(11)
    with mpmath.workdps(75):
        for _ in range(20):
            tau = mpmath.mpc(rng.uniform(-0.5, 0.5), rng.uniform(0.5, 3.0))
            g2, g3, delta, j = eisenstein(tau, 60)
            assert abs(g2**3 - 27 * g3**2 - delta) < abs(delta) * mpmath.mpf(10) ** -50
            assert abs(1728 * g2**3 / delta - j) < (1 + abs(j)) * mpmath.mpf(10) ** -50


def _random_sl2(rng, max_entry=10):
    m = ((1, 0), (0, 1))
    while True:
        if rng.random() < 0.5:
            g = ((1, rng.choice((-1, 1))), (0, 1))
        else:
            g = ((1, 0), (rng.choice((-1, 1)), 1))
        n = (
            (m[0][0] * g[0][0] + m[0][1] * g[1][0], m[0][0] * g[0][1] + m[0][1] * g[1][1]),
            (m[1][0] * g[0][0] + m[1][1] * g[1][0], m[1][0] * g[0][1] + m[1][1] * g[1][1]),
        )
        if max(abs(v) for row in n for v in row) > max_entry:
            return m
        m = n


def test_j_sl2_invariance():
    rng = random.Random(3)
    with mpmath.workdps(75):
        for _ in range(50):
            (a, b), (c, d) = _random_sl2(rng)
            tau = mpmath.mpc(rng.uniform(-0.5, 0.5), rng.uniform(0.5, 1.5))
            gt = (a * tau + b) / (c * tau + d)
            assert abs(j_invariant(gt, 60) - j_invariant(tau, 60)) < mpmath.mpf(10) ** -30


def test_wp_even_and_periodic():
    rng = random.Random(23)
    with mpmath.workdps(75):
        for _ in range(5):
            tau = mpmath.mpc(rng.uniform(-0.4, 0.4), rng.uniform(0.8, 1.4))
            z = mpmath.mpc(rng.uniform(0.1, 0.4), rng.uniform(0.1, 0.4))
            p = wp(z, tau, 60)
            tol = mpmath.mpf(10) ** -48
            assert abs(wp(-z, tau, 60) - p) < tol
            assert abs(wp(z + 1, tau, 60) - p) < tol
            assert abs(wp(z + tau, tau, 60) - p) < tol


def test_wp_differential_equation():
    rng = random.Random(29)
    with mpmath.workdps(75):
        for _ in range(5):
            tau = mpmath.mpc(rng.uniform(-0.4, 0.4), rng.uniform(0.8, 1.4))
            z = mpmath.mpc(rng.uniform(0.15, 0.8), rng.uniform(0.1, 0.6))
            p = wp(z, tau, 60)
            pp = wp_prime(z, tau, 60)
            g2, g3, _, _ = eisenstein(tau, 60)
            assert abs(pp**2 - (4 * p**3 - g2 * p - g3)) < mpmath.mpf(10) ** -48


def test_wp_rejects_lattice_points():
    with mpmath.workdps(75):
        tau = mpmath.mpc("0.1", "1.3")
        with pytest.raises(UsageError):
            wp(mpmath.mpc(0), tau, 60)
        with pytest.raises(UsageError):
            wp(2 * tau - 3, tau, 60)


def test_fricke_even_in_a():
    rng = random.Random(31)
    with mpmath.workdps(75):
        for _ in range(4):
            tau = mpmath.mpc(rng.uniform(-0.4, 0.4), rng.uniform(0.8, 1.4))
            a = (Fraction(rng.randrange(1, 5), 5), Fraction(rng.randrange(0, 5), 5))
            na = (-a[0], -a[1])
            assert abs(fricke(a, tau, 1, 60) - fricke(na, tau, 1, 60)) < mpmath.mpf(10) ** -45


def test_fricke_zero_index_rejected():
    with pytest.raises(UsageError):
        fricke((Fraction(0), Fraction(2)), mpmath.mpc(0, 1), 1, 40)
    with pytest.raises(UsageError):
        fricke((Fraction(1, 2), Fraction(0)), mpmath.mpc(0, 1), 4, 40)


def test_fricke_level_invariance():
    # Gamma(N) fixes f_a for a of denominator N.
    with mpmath.workdps(75):
        tau = mpmath.mpc("0.17", "1.23")
        for a, gammas in [
            ((Fraction(1, 2), Fraction(1, 2)), [((1, 2), (0, 1)), ((1, 0), (2, 1)), ((3, 2), (4, 3))]),
            ((Fraction(1, 3), Fraction(0)), [((1, 3), (0, 1)), ((4, 3), (9, 7))]),
        ]:
            ref = fricke(a, tau, 1, 60)
            for (p, q), (r, s) in gammas:
                assert p * s - q * r == 1
                gt = (p * tau + q) / (r * tau + s)
                assert abs(fricke(a, gt, 1, 60) - ref) < mpmath.mpf(10) ** -40


def test_fricke_real_on_conjugation_symmetric_input():
    with mpmath.workdps(75):
        v_i = fricke((Fraction(0), Fraction(1, 2)), mpmath.mpc(0, 1), 1, 60)
        assert abs(v_i.imag) < mpmath.mpf(10) ** -45
        v_2i = fricke((Fraction(0), Fraction(1, 2)), mpmath.mpc(0, 2), 1, 60)
        assert abs(v_2i.imag) < mpmath.mpf(10) ** -45
        assert abs(v_2i) > mpmath.mpf("0.1")


def test_fricke_power_table():
    assert fricke_power(-1) == 2
    assert fricke_power(-3) == 3
    assert fricke_power(-5) == 1
    assert fricke_power(-7) == 1


def test_cm_point_unit_ideal_is_tau_k():
    pt = cm_point(unit_ideal(K5))
    assert pt.w1 == K5.omega() and pt.w2 == K5.one()
    with mpmath.workdps(75):
        assert abs(pt.tau - mpmath.sqrt(5) * mpmath.mpc(0, 1)) < mpmath.mpf(10) ** -50


def test_cm_point_principal_class_matches_j_of_i():
    pt = cm_point(IdealHNF(K1, 2, 1, 1))  # (1 + i)
    with mpmath.workdps(75):
        assert abs(j_invariant(pt.tau, 60) - 1728) < mpmath.mpf(10) ** -40


def test_cm_point_nontrivial_class_separates_j():
    p2 = IdealHNF(K5, 2, 1, 1)
    with mpmath.workdps(75):
        j1 = j_invariant(cm_point(unit_ideal(K5)).tau, 60)
        j2 = j_invariant(cm_point(p2).tau, 60)
        assert abs(j1 - j2) > 1


def test_cm_point_rejects_rational_field():
    Q = make_field(1)
    with pytest.raises(UsageError):
        cm_point(unit_ideal(Q))


def test_level_matrix_unit_ideal_identity():
    assert cm_point(unit_ideal(K5)).matrix == ((1, 0), (0, 1))


def test_level_matrix_det_and_exactness():
    rng = random.Random(5)
    for field in (K1, K5, K3):
        ideals = enumerate_ideals(field, 40)
        omega, one = field.omega(), field.one()
        for a in rng.sample(ideals, min(17, len(ideals))):
            pt = cm_point(a)
            (m11, m12), (m21, m22) = pt.matrix
            assert m11 * m22 - m12 * m21 == a.norm()
            assert pt.w1.scale(m11) + pt.w2.scale(m12) == omega
            assert pt.w1.scale(m21) + pt.w2.scale(m22) == one


def test_modular_vector_j_d1_unit_component():
    vec = modular_vector(JFamily(), K1, 10, 60)
    with mpmath.workdps(75):
        assert abs(vec.value_at(unit_ideal(K1)) - 1728) < mpmath.mpf(10) ** -40


def test_modular_vector_j_d5_two_values_constant_on_classes():
    vec = modular_vector(JFamily(), K5, 40, 120)
    ideals = list(vec.ideals())
    values = vec.values_list()
    _, labels = rayclass.classify_ideals(unit_ideal(K5), ideals)
    with mpmath.workdps(135):
        reps = []
        for v in values:
            if not any(abs(v - r) < mpmath.mpf(10) ** -40 for r in reps):
                reps.append(v)
        assert len(reps) == 2
        assert abs(reps[0] - reps[1]) > 1
        for lab in set(labels):
            cls = [values[i] for i in range(len(ideals)) if labels[i] == lab]
            assert max(abs(v - cls[0]) for v in cls) < mpmath.mpf(10) ** -40


def test_char_family_reproduces_rho():
    for field, a, bound in [
        (K1, IdealHNF(K1, 2, 1, 1), 30),
        (K5, IdealHNF(K5, 2, 1, 1), 20),
    ]:
        fam = char_family_from_ideal(a)
        cvec = modular_vector(fam, field, bound, 60)
        from wittkit.witt import rho_vector

        rvec = rho_vector(a, bound)
        for b in cvec.ideals():
            got = int(round(float(abs(cvec.value_at(b)))))
            want = int(rvec.domain.as_rational(rvec.value_at(b)))
            assert got == want, (a, b)


def test_char_family_closure_is_checked():
    with pytest.raises(UsageError):
        CharFamily(2, frozenset({((1, 0), (0, 0))}))
    # the full orbit of that matrix is fine
    orbit = set()
    stack = [((1, 0), (0, 0))]
    gens = [((1, 1), (0, 1)), ((1, 0), (1, 1))]
    while stack:
        m = stack.pop()
        if m in orbit:
            continue
        orbit.add(m)
        for g in gens:
            prod = (
                ((m[0][0] * g[0][0] + m[0][1] * g[1][0]) % 2, (m[0][0] * g[0][1] + m[0][1] * g[1][1]) % 2),
                ((m[1][0] * g[0][0] + m[1][1] * g[1][0]) % 2, (m[1][0] * g[0][1] + m[1][1] * g[1][1]) % 2),
            )
            stack.append(tuple(map(tuple, prod)))
    CharFamily(2, frozenset(orbit))


def test_fricke_family_validation():
    with pytest.raises(UsageError):
        FrickeFamily((Fraction(0), Fraction(3)))
    fam = FrickeFamily((Fraction(1, 2), Fraction(1, 3)))
    assert fam.level == 6


# ---------------------------------------------------------------------------
# deformation axiom 2, the oracle of modular._transport


@dataclass
class Axiom2Report:
    family: str
    prec: int
    n_checks: int
    tol: float
    max_residual: float
    passed: bool
    entries: list = dc_field(default_factory=list)


def _random_sl2_word(rng: random.Random):
    """A product of 2 to 6 elementary generators of SL2(Z)."""
    m = ((1, 0), (0, 1))
    for _ in range(rng.randrange(2, 7)):
        if rng.random() < 0.5:
            g = ((1, rng.choice((-1, 1))), (0, 1))
        else:
            g = ((1, 0), (rng.choice((-1, 1)), 1))
        m = modular._mat_mul2(m, g)
    return m


def check_deformation_axiom2(family, samples: int = 6, prec: int = 60, seed: int = 20260823) -> Axiom2Report:
    """Spot-check f_{a*u}(u**-1 tau) = f_a(tau) for u in SL2(Z); report only.

    Fricke families are checked at power 1.
    """
    if isinstance(family, CharFamily):
        raise UsageError("axiom check covers JFamily and FrickeFamily only")
    rng = random.Random(seed)
    mats = [((1, 1), (0, 1)), ((0, -1), (1, 0))]
    while len(mats) < samples:
        mats.append(_random_sl2_word(rng))
    report = Axiom2Report(
        family=family.describe(),
        prec=prec,
        n_checks=0,
        tol=float(mpmath.mpf(10) ** (-prec // 2)),
        max_residual=0.0,
        passed=True,
    )
    for u in mats:
        with mpmath.workdps(prec + GUARD_DIGITS):
            tau = mpmath.mpc(rng.uniform(-0.45, 0.45), rng.uniform(0.9, 1.6))
            (ua, ub), (uc, ud) = u
            tau_inv = (ud * tau - ub) / (-uc * tau + ua)
        if isinstance(family, JFamily):
            lhs = j_invariant(tau_inv, prec)
            rhs = j_invariant(tau, prec)
        else:
            lhs = fricke(modular._transport(family.a, u), tau_inv, 1, prec)
            rhs = fricke(family.a, tau, 1, prec)
        with mpmath.workdps(prec + GUARD_DIGITS):
            res = float(abs(lhs - rhs))
        report.n_checks += 1
        report.max_residual = max(report.max_residual, res)
        report.entries.append({"u": u, "tau": str(tau), "residual": res})
    report.passed = report.max_residual < report.tol
    return report


def test_axiom2_j_and_fricke():
    rep = check_deformation_axiom2(JFamily(), samples=4, prec=50)
    assert isinstance(rep, Axiom2Report)
    assert rep.passed and rep.n_checks == 4
    rep2 = check_deformation_axiom2(FrickeFamily((Fraction(1, 2), Fraction(0))), samples=5, prec=50)
    assert rep2.passed
    assert rep2.entries[0]["u"] == ((1, 1), (0, 1))
    assert rep2.entries[1]["u"] == ((0, -1), (1, 0))
    with pytest.raises(UsageError):
        check_deformation_axiom2(CharFamily(1, frozenset({((0, 0), (0, 0))})), samples=2, prec=40)


def test_eisenstein_rejects_lower_half_plane():
    with pytest.raises(UsageError):
        eisenstein(mpmath.mpc(0, -1), 40)


@pytest.mark.parametrize("d", [-1, -3, -5, -15])
def test_modular_vector_components_equal_public_functions(d):
    """The cached series path gives exactly the bits of fricke and j_invariant."""
    K = make_field(d)
    prec, bound = 40, 10
    k = fricke_power(d)
    modular.clear_caches()
    for N in (2, 3):
        families = [JFamily()] + [
            FrickeFamily((Fraction(i, N), Fraction(j, N)), level=N)
            for i in range(N)
            for j in range(N)
            if (i, j) != (0, 0)
        ]
        for fam in families:
            xi = modular_vector(fam, K, bound, prec)
            for b in xi.ideals():
                tau = cm_point(b, prec).tau
                am = (0, 0)
                if isinstance(fam, FrickeFamily):
                    (m11, m12), (m21, m22) = cm_point(b, prec).matrix
                    a1, a2 = fam.a
                    am = ((a1 * m11 + a2 * m21) % 1, (a1 * m12 + a2 * m22) % 1)
                if am == (0, 0):
                    expect = j_invariant(tau, prec)
                else:
                    expect = fricke(am, tau, k, prec)
                assert xi.value_at(b) == expect
                assert xi.value_at(b)._mpc_ == expect._mpc_


def _uncached_component(fam, b, prec, memo):
    """fam at b from j_invariant or fricke, each summing a fresh series.

    `memo` only saves calling the oracle twice on the same tau bits, index
    and precision; it never shares a value between different inputs.
    """
    tau = cm_point(b, prec).tau
    am = (0, 0)
    if isinstance(fam, FrickeFamily):
        (m11, m12), (m21, m22) = cm_point(b, prec).matrix
        a1, a2 = fam.a
        am = ((a1 * m11 + a2 * m21) % 1, (a1 * m12 + a2 * m22) % 1)
    key = (tau._mpc_, am, prec)
    if key not in memo:
        if am == (0, 0):
            memo[key] = j_invariant(tau, prec)
        else:
            memo[key] = fricke(am, tau, fricke_power(b.field.d), prec)
    return memo[key]


@pytest.mark.parametrize("d", [-1, -3, -5, -15, -23])
def test_shared_series_components_equal_uncached_oracle(d):
    """Ideals with one CM point share a series, yet every component keeps the
    bits of the uncached public functions.  Both precisions run in one
    process with no cache clear between them."""
    K = make_field(d)
    memo = {}
    modular.clear_caches()
    for prec in (60, 120):
        for N in (1, 2, 3):
            for fam, xi in zip(level_families(N), level_family_vectors(K, N, 30, prec)):
                for b in xi.ideals():
                    expect = _uncached_component(fam, b, prec, memo)
                    assert xi.value_at(b)._mpc_ == expect._mpc_, (fam, b, prec)
    modular.clear_caches()


def test_same_cm_point_in_k_with_different_tau_bits_keeps_its_own_bits():
    """(5,2,1,1) and (15,6,3,1) in Q(i) both have tau = 3/5 + i/5 in K, but the
    numeric tau of the second rounds to a different last bit: a series keyed
    by the element of K would hand it the first ideal's guard digits."""
    first, second = IdealHNF(K1, 5, 2, 1, 1), IdealHNF(K1, 15, 6, 3, 1)
    fam = FrickeFamily((Fraction(1, 3), Fraction(0)), level=3)
    modular.clear_caches()
    for prec in (60, 120):
        p1, p2 = cm_point(first, prec), cm_point(second, prec)
        assert p1.w1 / p1.w2 == p2.w1 / p2.w2
        assert p1.tau._mpc_ != p2.tau._mpc_
        for family in (JFamily(), fam):
            xi = modular_vector(family, K1, 45, prec)
            got = [xi.value_at(b)._mpc_ for b in (first, second)]
            assert got == [_uncached_component(family, b, prec, {})._mpc_ for b in (first, second)]
            assert got[0] != got[1]
    modular.clear_caches()


def test_series_summed_once_per_distinct_tau(monkeypatch, tmp_path):
    """A level-2 sweep sums one series per distinct numeric tau, not per ideal,
    in this process or in a child summing its share, and each shared series
    passes the Delta and j cross-checks."""
    log = tmp_path / "summed"
    real = modular._eis_series

    def counting(t):
        # appended by whichever process sums t, the forked children included
        with open(log, "a") as f:
            f.write(repr(t._mpc_) + "\n")
        return real(t)

    monkeypatch.setattr(modular, "_eis_series", counting)
    modular.clear_caches()
    level_family_vectors(K1, 2, 60, 120)
    taus = {cm_point(b, 120).tau._mpc_ for b in enumerate_ideals(K1, 60)}
    summed = log.read_text().splitlines()
    assert len(taus) == 29
    assert len(summed) == len(taus)
    assert set(modular._SERIES_CACHE) == {(tau, 120) for tau in taus}
    assert sorted(summed) == sorted(repr(ser.tred._mpc_) for ser in modular._SERIES_CACHE.values())
    for ser in modular._SERIES_CACHE.values():
        assert modular._checked_j(replace(ser, j=None), 120)._mpc_ == ser.j._mpc_
    modular.clear_caches()


def _force_shares(monkeypatch, k):
    """Let modular_vector sum its series in up to k processes, whatever CPUs this host has."""
    monkeypatch.setattr(modular.os, "sched_getaffinity", lambda pid: set(range(k)))


def _counting_forks(monkeypatch) -> list:
    forks = []
    real = os.fork

    def counting():
        forks.append(None)
        return real()

    monkeypatch.setattr(modular.os, "fork", counting)
    return forks


@pytest.mark.parametrize("d", [-1, -3, -5, -15])
def test_series_summed_in_three_processes_keep_every_bit(d, monkeypatch):
    """Forked shares give the j and level-2 vectors of one process, bit for bit,
    and the uncached oracle's bits (for d = -1 with the pair (5,2,1,1) and
    (15,6,3,1), whose taus agree in K but not in their last bit)."""
    K = make_field(d)
    prec, bound = 60, 45
    forks = _counting_forks(monkeypatch)

    def sweep():
        modular.clear_caches()
        vectors = [modular_vector(JFamily(), K, bound, prec)]
        modular.clear_caches()
        return vectors + level_family_vectors(K, 2, bound, prec)

    _force_shares(monkeypatch, 1)
    serial = sweep()
    assert not forks
    _force_shares(monkeypatch, 3)
    shared = sweep()
    # two children per call: the j vector's, and level_family_vectors' one
    # sweep over all four level-2 families
    assert len(forks) == 4
    memo = {}
    for fam, xi, eta in zip([JFamily(), *level_families(2)], serial, shared):
        for b in xi.ideals():
            expect = _uncached_component(fam, b, prec, memo)._mpc_
            assert xi.value_at(b)._mpc_ == eta.value_at(b)._mpc_ == expect, (fam, b)
    if d == -1:
        pair = [shared[0].value_at(b)._mpc_ for b in (IdealHNF(K1, 5, 2, 1, 1), IdealHNF(K1, 15, 6, 3, 1))]
        assert pair[0] != pair[1]
    modular.clear_caches()


def test_series_error_in_any_share_is_raised_as_one_process_raises_it(monkeypatch):
    """A series that fails in the parent's share or in a child's is summed again
    in-process, so the first failing ideal's error is raised, as with k = 1."""
    prec, bound = 60, 30
    taus = {}
    for i, b in enumerate(enumerate_ideals(K5, bound)):
        taus.setdefault((cm_point(b, prec).tau._mpc_, prec), (i, cm_point(b, prec).tau))
    _force_shares(monkeypatch, 3)
    shares = modular._striped_shares([(key, (tau, True, ())) for key, (_, tau) in taus.items()])
    assert len(shares) == 3
    # one failing series in each share: at the head of each child's share, and
    # in the parent's share after them, so the first failure is a child's
    failing_keys = [share[0][0] for share in shares[1:]] + [shares[0][1][0]]
    planted = {modular._series(taus[key][1], prec).tred._mpc_: taus[key][0] for key in failing_keys}
    assert min(planted.values()) == taus[shares[1][0][0]][0]
    real = modular._eis_series

    def failing(t):
        if t._mpc_ in planted:
            raise PrecisionError(f"planted failure at ideal {planted[t._mpc_]}")
        return real(t)

    monkeypatch.setattr(modular, "_eis_series", failing)
    raised = []
    for k in (1, 3):
        _force_shares(monkeypatch, k)
        modular.clear_caches()
        with pytest.raises(PrecisionError) as err:
            modular_vector(JFamily(), K5, bound, prec)
        raised.append(str(err.value))
    assert raised == [f"planted failure at ideal {min(planted.values())}"] * 2
    modular.clear_caches()


# what a garbled child might send in place of its pickled {key: _Series} share
_GARBLES = {
    "truncated": lambda series: pickle.dumps(series)[:-9],
    "list": lambda series: pickle.dumps(list(series.values())),
    "non_series_value": lambda series: pickle.dumps({**series, list(series)[-1]: "not a series"}),
    "key_outside_share": lambda series: pickle.dumps({**series, (None, 0): next(iter(series.values()))}),
}


def _garble_child_payload(monkeypatch, garble) -> None:
    """Make each forked child write garble(series) where it would pickle its series."""
    monkeypatch.setattr(modular.pickle, "dump", lambda series, f: f.write(garble(series)))


@pytest.mark.parametrize("garble", _GARBLES.values(), ids=_GARBLES)
def test_undecodable_child_data_is_summed_again_in_process(garble, monkeypatch):
    prec, bound = 60, 30
    _force_shares(monkeypatch, 1)
    modular.clear_caches()
    xi = modular_vector(JFamily(), K5, bound, prec)
    real_series = modular._eis_series
    _garble_child_payload(monkeypatch, garble)
    summed_here = []

    def counting(t):
        summed_here.append(t)
        return real_series(t)

    monkeypatch.setattr(modular, "_eis_series", counting)
    forks = _counting_forks(monkeypatch)
    _force_shares(monkeypatch, 3)
    modular.clear_caches()
    eta = modular_vector(JFamily(), K5, bound, prec)
    assert len(forks) == 2
    assert len(summed_here) == len(modular._SERIES_CACHE) == 32
    assert all(xi.value_at(b)._mpc_ == eta.value_at(b)._mpc_ for b in xi.ideals())
    modular.clear_caches()


def test_nothing_forks_while_a_second_thread_is_alive(monkeypatch):
    _force_shares(monkeypatch, 3)
    forks = _counting_forks(monkeypatch)
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        modular.clear_caches()
        xi = modular_vector(JFamily(), K5, 30, 60)
    finally:
        release.set()
        other.join(timeout=10)
    assert not other.is_alive()
    assert not forks
    assert len(xi.ideals()) == 45
    modular.clear_caches()


def test_striped_shares_deal_the_pending_points_in_order(monkeypatch):
    """Share i holds pending items i, i+n, i+2n, ... of n = min(CPUs, points //
    _MIN_SHARE) shares, and there is one share without fork, while a second
    thread is alive, or below the floor."""
    pending = [(i, None) for i in range(23)]
    for cpus, n in ((1, 1), (2, 2), (3, 3), (8, 23 // modular._MIN_SHARE)):
        _force_shares(monkeypatch, cpus)
        shares = modular._striped_shares(pending)
        assert len(shares) == n == min(cpus, len(pending) // modular._MIN_SHARE)
        assert sum(map(len, shares)) == len(pending)
        assert all(shares[i % n][i // n] == item for i, item in enumerate(pending))
    _force_shares(monkeypatch, 3)
    assert modular._striped_shares(pending[: 2 * modular._MIN_SHARE - 1]) == [pending[: 2 * modular._MIN_SHARE - 1]]
    assert modular._striped_shares([]) == [[]]
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        assert modular._share_count(len(pending)) == 1
    finally:
        release.set()
        other.join(timeout=10)
    monkeypatch.delattr(modular.os, "fork")
    assert modular._striped_shares(pending) == [pending]


def _log_theta_sums(monkeypatch, log) -> None:
    """Append the reduced tau of each theta sum to the file log, in whichever
    process sums it, the forked children included."""
    real = modular._theta_constants

    def logging(t, dps):
        with open(log, "a") as f:
            f.write(repr(t._mpc_) + "\n")
        return real(t, dps)

    monkeypatch.setattr(modular, "_theta_constants", logging)


def test_theta_summed_once_per_tau_across_forked_sweeps(monkeypatch, tmp_path):
    """A child's series keeps the theta constants this process held at the fork:
    a serial level-2 sweep, a three-share level-3 sweep and a level-4 sweep
    sum theta at most once per tau, counted in every process."""
    prec, bound = 60, 30
    log = tmp_path / "theta"
    _log_theta_sums(monkeypatch, log)
    _force_shares(monkeypatch, 1)
    modular.clear_caches()
    level_family_vectors(K5, 2, bound, prec)
    forks = _counting_forks(monkeypatch)
    _force_shares(monkeypatch, 3)
    level_family_vectors(K5, 3, bound, prec)
    level_family_vectors(K5, 4, bound, prec)
    assert len(forks) == 4
    summed = log.read_text().splitlines()
    assert len(set(summed)) == len(modular._SERIES_CACHE) == 32
    assert len(summed) == len(set(summed))
    modular.clear_caches()


def test_theta_first_summed_in_a_child_comes_back(monkeypatch, tmp_path):
    """Children pickle back their series with the theta constants they summed:
    a three-share level-2 sweep and then a three-share level-3 sweep sum theta
    exactly once per tau, counted in every process."""
    prec, bound = 120, 60
    log = tmp_path / "theta"
    _log_theta_sums(monkeypatch, log)
    forks = _counting_forks(monkeypatch)
    _force_shares(monkeypatch, 3)
    modular.clear_caches()
    level_family_vectors(K5, 2, bound, prec)
    level_family_vectors(K5, 3, bound, prec)
    assert len(forks) == 4
    summed = log.read_text().splitlines()
    filled = {repr(ser.tred._mpc_) for ser in modular._SERIES_CACHE.values() if ser.theta is not None}
    assert len(summed) == len(set(summed)) == 52
    assert set(summed) == filled
    modular.clear_caches()


def _family_components(vectors) -> list:
    return [[xi.value_at(b)._mpc_ for b in xi.ideals()] for xi in vectors]


@pytest.mark.parametrize("d", [-1, -3, -5, -15])
def test_components_evaluated_in_three_processes_keep_every_bit(d, monkeypatch):
    """Level-2 and level-3 vectors whose j and Fricke components are evaluated
    in three shares equal one process's and the uncached oracle's, bit for
    bit, whether the families come in one sweep or one modular_vector each."""
    K = make_field(d)
    prec, bound = 60, 45

    def sweeps():
        out = []
        for N in (2, 3):
            modular.clear_caches()
            out += level_family_vectors(K, N, bound, prec)
        for fam in level_families(2):
            modular.clear_caches()
            out.append(modular_vector(fam, K, bound, prec))
        return out

    _force_shares(monkeypatch, 1)
    serial = _family_components(sweeps())
    forks = _counting_forks(monkeypatch)
    _force_shares(monkeypatch, 3)
    shared = _family_components(sweeps())
    # two children per sweep: two level_family_vectors and four modular_vector calls
    assert len(forks) == 2 * 6
    assert shared == serial
    memo = {}
    families = [*level_families(2), *level_families(3), *level_families(2)]
    for fam, components in zip(families, serial):
        expect = [_uncached_component(fam, b, prec, memo)._mpc_ for b in enumerate_ideals(K, bound)]
        assert components == expect, fam
    modular.clear_caches()


@pytest.mark.parametrize("k", [2, 3])
def test_level_family_vectors_forks_k_minus_1_children_per_call(k, monkeypatch):
    _force_shares(monkeypatch, k)
    forks = _counting_forks(monkeypatch)
    modular.clear_caches()
    level_family_vectors(K5, 2, 45, 60)
    assert len(forks) == k - 1
    # every series and j is cached: the level-3 Fricke components are what is
    # left, and the children's come back rather than being evaluated here
    for ser in modular._SERIES_CACHE.values():
        ser.fricke.clear()
    evaluated_here = []
    real = modular._fricke_at

    def counting(a, ser, power):
        evaluated_here.append(a)
        return real(a, ser, power)

    monkeypatch.setattr(modular, "_fricke_at", counting)
    level_family_vectors(K5, 3, 45, 60)
    assert len(forks) == 2 * (k - 1)
    assert 0 < len(evaluated_here) < sum(len(ser.fricke) for ser in modular._SERIES_CACHE.values())
    # nothing is left to evaluate
    level_family_vectors(K5, 3, 45, 60)
    assert len(forks) == 2 * (k - 1)
    modular.clear_caches()


def _first_fricke_reads(K, N, bound, prec) -> dict:
    """For each CM point's tau key, the first (family, ideal) position in
    level_families(N) order that evaluates a Fricke component there."""
    first = {}
    for f, fam in enumerate(level_families(N)):
        for i, b in enumerate(enumerate_ideals(K, bound)):
            pt = cm_point(b, prec)
            if f and modular._transport(fam.a, pt.matrix) != (0, 0):
                first.setdefault((pt.tau._mpc_, prec), (f, i))
    return first


@pytest.mark.parametrize("target", ["_theta_constants", "_fricke_at"])
def test_fricke_error_in_any_share_is_raised_as_one_process_raises_it(target, monkeypatch):
    """A theta or Fricke failure in each share, the parent's and the children's,
    is evaluated again in-process: the error of the first failing component
    in family and ideal order is raised, as with k = 1."""
    prec, bound, N = 60, 30, 3
    shares = []
    real_shares = modular._striped_shares

    def recording(*args):
        shares[:] = real_shares(*args)
        return shares

    monkeypatch.setattr(modular, "_striped_shares", recording)
    _force_shares(monkeypatch, 3)
    modular.clear_caches()
    level_family_vectors(K5, N, bound, prec)
    assert len(shares) == 3
    first = _first_fricke_reads(K5, N, bound, prec)
    # the first Fricke read of each child's share fails, and one in the
    # parent's share after them, so the first failure is a child's
    heads = [share[0][0] for share in shares[1:]]
    after = min(first[key] for key in heads)
    failing_keys = heads + [next(key for key, _ in shares[0] if first.get(key, after) > after)]
    planted = {modular._SERIES_CACHE[key].tred._mpc_: first[key] for key in failing_keys}
    assert min(planted.values()) == after
    real = getattr(modular, target)

    def failing(*args):
        t = args[0] if target == "_theta_constants" else args[1].tred
        if t._mpc_ in planted:
            raise PrecisionError(f"planted failure at family {planted[t._mpc_][0]}, ideal {planted[t._mpc_][1]}")
        return real(*args)

    monkeypatch.setattr(modular, target, failing)
    raised = []
    for k in (1, 3):
        _force_shares(monkeypatch, k)
        modular.clear_caches()
        with pytest.raises(PrecisionError) as err:
            level_family_vectors(K5, N, bound, prec)
        raised.append(str(err.value))
    f, i = min(planted.values())
    assert raised == [f"planted failure at family {f}, ideal {i}"] * 2
    modular.clear_caches()


@pytest.mark.parametrize("garble", _GARBLES.values(), ids=_GARBLES)
def test_undecodable_child_components_are_evaluated_again_in_process(garble, monkeypatch):
    prec, bound = 60, 30
    _force_shares(monkeypatch, 1)
    modular.clear_caches()
    serial = _family_components(level_family_vectors(K5, 3, bound, prec))
    n_fricke = sum(len(ser.fricke) for ser in modular._SERIES_CACHE.values())
    # the series and j are cached; the children evaluate only Fricke components
    for ser in modular._SERIES_CACHE.values():
        ser.fricke.clear()
        ser.theta = None
    real_fricke = modular._fricke_at
    _garble_child_payload(monkeypatch, garble)
    evaluated_here = []

    def counting(a, ser, k):
        evaluated_here.append(a)
        return real_fricke(a, ser, k)

    monkeypatch.setattr(modular, "_fricke_at", counting)
    forks = _counting_forks(monkeypatch)
    _force_shares(monkeypatch, 3)
    shared = _family_components(level_family_vectors(K5, 3, bound, prec))
    assert len(forks) == 2
    assert len(evaluated_here) == n_fricke > 0
    assert shared == serial
    modular.clear_caches()


def test_a_failed_pipe_leaves_its_share_to_this_process(monkeypatch):
    """Out of file descriptors, no child is forked and the vectors are one process's."""
    prec, bound = 60, 30
    _force_shares(monkeypatch, 1)
    modular.clear_caches()
    serial = _family_components(level_family_vectors(K5, 2, bound, prec))

    def no_pipe():
        raise OSError(errno.EMFILE, "Too many open files")

    monkeypatch.setattr(modular.os, "pipe", no_pipe)
    forks = _counting_forks(monkeypatch)
    _force_shares(monkeypatch, 3)
    modular.clear_caches()
    assert _family_components(level_family_vectors(K5, 2, bound, prec)) == serial
    assert not forks
    modular.clear_caches()


def _fricke_at_unmemoised(a, ser, k):
    """modular._fricke_at as it was before its prefactor was kept per series."""
    p, q_, r, s = ser.g
    b1, b2 = modular._transport(a, ((s, -q_), (-r, p)))
    with mpmath.workdps(ser.dps):
        z = modular._frac_mpf(b1) * ser.tred + modular._frac_mpf(b2)
        _, w = modular._reduce_z(z, ser.tred, ser.dps)
        pval = modular._wp_theta(w, modular._theta_constants(ser.tred, ser.dps))
        if k == 1:
            return ser.g2 * ser.g3 / ser.delta * pval
        if k == 2:
            return ser.g2**2 / ser.delta * pval**2
        return ser.g3 / ser.delta * pval**3


@pytest.mark.parametrize("d", [-1, -3, -5])
def test_fricke_prefactor_kept_per_series_keeps_every_bit(d):
    """d = -1, -3, -5 take the powers 2, 3, 1."""
    prec = 60
    modular.clear_caches()
    level_family_vectors(make_field(d), 3, 20, prec)
    checked = 0
    for (tau_bits, _), ser in modular._SERIES_CACHE.items():
        fresh = modular._series(mpmath.mp.make_mpc(tau_bits), prec)
        for (a, k), value in ser.fricke.items():
            assert k == fricke_power(d)
            assert value._mpc_ == _fricke_at_unmemoised(a, fresh, k)._mpc_, (a, k)
            checked += 1
    assert checked > 20
    modular.clear_caches()


def _eis_series_mpc(t):
    """modular._eis_series's term loop on mpc operators, as it was before the libmp loop."""
    q = mpmath.expjpi(2 * t)
    terms = modular._nterms(t.imag, mpmath.mp.dps)
    e4 = mpmath.mpf(1)
    e6 = mpmath.mpf(1)
    prod = mpmath.mpf(1)
    qn = mpmath.mpc(1)
    for n in range(1, terms + 1):
        qn = qn * q
        dn = 1 - qn
        f = qn / dn
        n3 = n * n * n
        e4 += 240 * n3 * f
        e6 -= 504 * n3 * n * n * f
        prod *= dn**24
    pi4 = mpmath.pi**4
    g2 = (4 * pi4 / 3) * e4
    g3 = (8 * pi4 * mpmath.pi**2 / 27) * e6
    delta = (2 * mpmath.pi) ** 12 * q * prod
    return q, g2, g3, delta


@pytest.mark.parametrize("d", [-1, -3, -5, -15, -23])
def test_libmp_eisenstein_loop_keeps_the_mpc_loops_bits(d):
    K = make_field(d)
    taus = {}
    for prec in (60, 120):
        for b in enumerate_ideals(K, 30):
            tau = cm_point(b, prec).tau
            taus[(tau._mpc_, prec)] = (tau, prec)
    for tau, prec in taus.values():
        tred, _, dps = modular._reduced_with_guard(tau, prec)
        with mpmath.workdps(dps):
            got = [v._mpc_ for v in modular._eis_series(tred)]
            assert got == [v._mpc_ for v in _eis_series_mpc(tred)], (tau, prec)


def test_clear_caches_empties_every_modular_cache():
    modular.clear_caches()
    level_family_vectors(K5, 2, 6, 40)
    caches = {name: c for name, c in vars(modular).items() if name.endswith("_CACHE")}
    assert "_SERIES_CACHE" in caches
    assert all(caches.values()), [name for name, c in caches.items() if not c]
    modular.clear_caches()
    assert not any(caches.values()), [name for name, c in caches.items() if c]


@pytest.mark.parametrize("level", [1, 2, 3])
def test_modularity_check_names_the_families_it_compares(level, monkeypatch):
    sweeps = []
    real = modular._keyed_family_vectors

    def recording(families, field, bound, prec):
        sweeps.append([family.describe() for family in families])
        return real(families, field, bound, prec)

    monkeypatch.setattr(modular, "_keyed_family_vectors", recording)
    result = modular.modularity_check(K5, level, 6, 60)
    # one sweep evaluates every family
    assert len(sweeps) == 1
    compared = sweeps[0]
    assert result["families"] == compared
    assert len(set(compared)) == len(compared) == level * level
    assert compared[0] == "j"


# ---------------------------------------------------------------------------
# wp as a theta quotient, against the Lambert series it replaced


def _wp_core(u, q, terms):
    acc = mpmath.mpf(1) / 12 + u / (1 - u) ** 2
    qn = mpmath.mpc(1)
    for _ in range(terms):
        qn = qn * q
        a1 = qn * u
        a2 = qn / u
        acc += a1 / (1 - a1) ** 2 + a2 / (1 - a2) ** 2 - 2 * qn / (1 - qn) ** 2
    return (2 * mpmath.pi * mpmath.mpc(0, 1)) ** 2 * acc


def _wp_lambert(z, tau, prec):
    """wp by the exponential series, with tau and z reduced as modular.wp reduces them."""
    tred, g, dps = modular._reduced_with_guard(tau, prec)
    with mpmath.workdps(dps):
        _, _, r, s = g
        scale = r * mpmath.mpc(tau) + s
        zr, _ = modular._reduce_z(mpmath.mpc(z) / scale, tred, dps)
        terms = modular._nterms(tred.imag, dps) + 2
        return _wp_core(mpmath.expjpi(2 * zr), mpmath.expjpi(2 * tred), terms) / scale**2


def _assert_wp_matches_lambert(z, tau, prec):
    with mpmath.workdps(prec + 40):
        new = wp(z, tau, prec)
        oracle = _wp_lambert(z, tau, prec)
        assert abs(new - oracle) <= mpmath.mpf(10) ** -(prec + 5) * (1 + abs(oracle))


@st.composite
def _tau_and_point(draw):
    """tau in the fundamental domain with Im(tau) <= 3, and z = b1*tau + b2 off the lattice.

    Half the draws take b != 0 in (1/N)Z^2 with N <= 12 (the Fricke points),
    half take b uniform in [0, 1)^2 at least 0.05 from the lattice.
    """
    x = draw(st.floats(-0.5, 0.5))
    y_min = math.sqrt(1 - x * x)
    y = y_min + draw(st.floats(0, 1)) * (3 - y_min)
    if draw(st.booleans()):
        N = draw(st.integers(2, 12))
        b = draw(st.tuples(st.integers(0, N - 1), st.integers(0, N - 1)).filter(any))
        b1, b2 = Fraction(b[0], N), Fraction(b[1], N)
    else:
        b1, b2 = draw(st.floats(0, 1, exclude_max=True)), draw(st.floats(0, 1, exclude_max=True))
    return mpmath.mpc(x, y), b1, b2


@settings(max_examples=40, deadline=None)
@given(case=_tau_and_point())
def test_wp_theta_quotient_matches_lambert_series(case):
    tau, b1, b2 = case
    with mpmath.workdps(160):
        z = modular._frac_mpf(b1) * tau + modular._frac_mpf(b2)
        assume(all(abs(z - m * tau - n) >= 0.05 for m in range(-1, 3) for n in range(-1, 3)))
    for prec in (40, 120):
        _assert_wp_matches_lambert(z, tau, prec)


@pytest.mark.parametrize("d", [-1, -2, -3, -5, -7, -11, -15, -23, -35])
def test_wp_at_cm_points_matches_lambert_series(d):
    """The Fricke points a*tau for a in (1/3)Z^2 at the CM points of small ideals."""
    K = make_field(d)
    for b in enumerate_ideals(K, 6):
        tau = cm_point(b, 40).tau
        for fam in level_families(3)[1:]:
            with mpmath.workdps(80):
                z = modular._frac_mpf(fam.a[0]) * tau + modular._frac_mpf(fam.a[1])
            _assert_wp_matches_lambert(z, tau, 40)


@pytest.mark.parametrize("tau", [mpmath.mpc(0, 1), mpmath.mpc("0.31", "1.05"), mpmath.mpc("-0.5", "0.8660254"), mpmath.mpc("0.2", "2.9")])
def test_theta_sums_match_mpmath_jtheta(tau):
    prec = 120
    tred, _, dps = modular._reduced_with_guard(tau, prec)
    with mpmath.workdps(dps):
        th = modular._theta_constants(tred, dps)
        qh = mpmath.expjpi(tred)
        qh4 = mpmath.expjpi(tred / 4)
        # the sums are good to the working precision, well past prec
        tol = mpmath.mpf(10) ** -(dps - 5)
        assert abs(th.th2 * qh4 - mpmath.jtheta(2, 0, qh)) < tol
        assert abs(th.th3 - mpmath.jtheta(3, 0, qh)) < tol
        assert abs(th.th4 - mpmath.jtheta(4, 0, qh)) < tol
        for b1, b2 in [(0, "0.5"), ("0.5", 0), ("0.5", "0.5"), ("0.3", "0.7"), ("-0.45", "0.1")]:
            z, w = modular._reduce_z(mpmath.mpf(b1) * tred + mpmath.mpf(b2), tred, dps)
            t1, t4 = modular._theta_z(w, th.coef)
            theta1 = mpmath.jtheta(1, mpmath.pi * z, qh)
            theta4 = mpmath.jtheta(4, mpmath.pi * z, qh)
            assert abs(-1j * qh4 * t1 - theta1) < tol * (1 + abs(theta1))
            assert abs(t4 - theta4) < tol * (1 + abs(theta4))


def test_theta_term_count_is_least_and_budgeted():
    for im_tau in (math.sqrt(3) / 2, 1.0, 2.2, 3.0):
        for dps in (57, 140, 400):
            n = modular._theta_terms(im_tau, dps)
            need = (dps + 8) * math.log(10)
            assert math.pi * im_tau * (n * n - 0.25) >= need > math.pi * im_tau * ((n - 1) ** 2 - 0.25)
    with pytest.raises(PrecisionError):
        modular._theta_terms(1e-9, 10**6)


def test_truncated_theta_sums_fail_jacobi_identity(monkeypatch):
    monkeypatch.setattr(modular, "_theta_terms", lambda im_tau, dps: 2)
    with pytest.raises(PrecisionError):
        wp(mpmath.mpc("0.3", "0.4"), mpmath.mpc("0.1", "1.2"), 60)


def test_theta_constants_summed_once_per_cm_point(monkeypatch, tmp_path):
    log = tmp_path / "theta"
    _log_theta_sums(monkeypatch, log)
    modular.clear_caches()
    modular_vector(JFamily(), K5, 20, 60)
    assert not log.exists()
    level_family_vectors(K5, 3, 20, 60)
    calls = Counter(log.read_text().splitlines())
    filled = [ser for ser in modular._SERIES_CACHE.values() if ser.theta is not None]
    assert filled and max(calls.values()) == 1
    assert set(calls) == {repr(ser.tred._mpc_) for ser in filled}
    modular.clear_caches()


@pytest.mark.parametrize("d", [-1, -3, -5])
def test_level_2_components_agree_across_precisions(d):
    K = make_field(d)
    low, high = (level_family_vectors(K, 2, 15, prec) for prec in (60, 100))
    with mpmath.workdps(120):
        tol = mpmath.mpf(10) ** -60
        for xi, eta in zip(low, high):
            for b in xi.ideals():
                x = xi.value_at(b)
                assert abs(x - eta.value_at(b)) <= tol * (1 + abs(x))


@pytest.mark.parametrize("d", [-1, -3, -5])
def test_modularity_check_verdicts_agree_across_precisions(d):
    K = make_field(d)
    low, high = (modularity_check(K, 2, 20, prec) for prec in (60, 100))
    for key in ("shift_classes", "ray_classes", "mismatches", "passed"):
        assert low[key] == high[key], key


# Canonical sha256 (cli._sha256) of modularity_check at prec 120 for each
# of cli.DESK_CHECK_TRIPLES, recorded before the float prune of shift pairs,
# which must leave every payload byte-identical.
_DESK_PAYLOAD_SHA256 = {
    (-1, 2, 60): "57b4652cc25201fae163ff2d585be7e4148a10919a593222f962818bce3cd8e9",
    (-5, 1, 60): "195da6b54fcccf1eaaedb242cf8f612f4e5a013d8729abe8f8a717aae2607f21",
    (-3, 2, 40): "35e3e1ad9c5ab772bf01805a550466c831bd192d19a29729db9aafeca776aeb1",
}


def test_desk_check_payloads_are_pinned():
    assert set(_DESK_PAYLOAD_SHA256) == set(cli.DESK_CHECK_TRIPLES)
    for (d, level, bound), digest in _DESK_PAYLOAD_SHA256.items():
        assert cli._sha256(modularity_check(make_field(d), level, bound, 120)) == digest, d


def test_wittkit_check_runs_the_pinned_desk_triples(tmp_path, capsys):
    """`wittkit check` with no --d runs every default triple; each result, less
    its params stamp, is the pinned payload."""
    out = tmp_path / "check.json"
    assert cli.main(["check", "--out", str(out)]) == 0
    assert capsys.readouterr().err.count("PASS d=") == len(cli.DESK_CHECK_TRIPLES)
    data = json.loads(out.read_text())
    assert data["passed"]
    digests = []
    for result in data["results"]:
        result.pop("params")
        digests.append(cli._sha256(result))
    assert digests == [_DESK_PAYLOAD_SHA256[triple] for triple in cli.DESK_CHECK_TRIPLES]
    modular.clear_caches()


# ---------------------------------------------------------------------------
# The desk check on exact CM-point keys, against the per-ideal numeric path


def _form_root(field, form) -> QuadElement:
    """(-B + sqrt(D))/(2A) in K, with sqrt(D) = 2*omega - s."""
    A, B, _ = form
    return QuadElement(field, Fraction(-B - field.omega_s, 2 * A), Fraction(1, A))


def _component_key(b, family, prec):
    """The key an ideal's component is read under: the reduced form, and for a
    Fricke family the index carried along the CM matrix and g^-1, up to sign."""
    matrix, form, (p, q, r, s) = modular._cm_form(b)
    if isinstance(family, JFamily):
        return form, prec, (0, 0)
    a = modular._transport(modular._transport(family.a, matrix), ((s, -q), (-r, p)))
    return form, prec, min(a, modular._transport(a, ((-1, 0), (0, -1))))


def _agree(u, v, prec) -> bool:
    """Relative agreement to 10^-(prec+5); components that vanish (some Fricke
    components of d = -1 and -3) agree when both lie below 10^-prec."""
    with mpmath.workdps(prec + GUARD_DIGITS):
        tiny = mpmath.mpf(10) ** -prec
        return abs(u - v) <= abs(v) * tiny / 10**5 or max(abs(u), abs(v)) < tiny


@settings(max_examples=12, deadline=None)
@given(
    d=st.sampled_from([-1, -2, -3, -5, -6, -7, -10, -11, -14, -15, -17, -21, -23]),
    N=st.integers(1, 4),
    bound=st.integers(1, 40),
)
def test_keyed_components_match_the_per_ideal_numeric_path(d, N, bound):
    K, prec = make_field(d), 60
    families = level_families(N)
    modular.clear_caches()
    keyed = modular._keyed_family_vectors(families, K, bound, prec)
    numeric = modular.family_vectors(families, K, bound, prec)
    read = {}  # key -> the one value object its ideals read
    for family, xi, oracle in zip(families, keyed, numeric):
        for b in xi.ideals():
            value = xi.value_at(b)
            assert _agree(value, oracle.value_at(b), prec), (family, b)
            assert read.setdefault(_component_key(b, family, prec), value) is value, (family, b)
    # and keys that differ read values evaluated apart
    assert len({id(v) for v in read.values()}) == len(read)
    keyed_payload = modularity_check(K, N, bound, prec)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(modular, "_keyed_family_vectors", modular.family_vectors)
        assert modularity_check(K, N, bound, prec) == keyed_payload
    modular.clear_caches()


def _fraction_cm_basis(a: IdealHNF):
    """The CM basis in QuadElement arithmetic: the inverse's basis() with the
    omega-carrying element first, the matrix solved from omega = m11*w1 +
    m12*w2 and 1 = m22*w2 in Q, every identity checked on elements of K.
    The oracle of modular._cm_basis, which reads it off the HNF integers."""
    f = a.field
    inv = ideal_inverse(a)
    v1, v2 = inv.basis()
    w1, w2 = v2, v1
    assert ideal_from_elements(f, [w1, w2]) == inv
    m11 = 1 / w1.y
    m12 = -m11 * w1.x / w2.x
    m22 = 1 / w2.x
    assert all(m.denominator == 1 for m in (m11, m12, m22))
    assert w1.scale(m11) + w2.scale(m12) == f.omega()
    assert w2.scale(m22) == f.one()
    assert m11 * m22 == a.norm()
    return w1, w2, ((int(m11), int(m12)), (0, int(m22)))


_SMALL_D = [-1, -2, -3, -5, -6, -7, -10, -11, -13, -14, -15, -17, -19, -21, -22, -23, -26, -31]


@settings(max_examples=60, deadline=None)
@given(d=st.sampled_from(_SMALL_D), data=st.data())
def test_integer_cm_basis_matches_the_fraction_oracle(d, data):
    ideals = enumerate_ideals(make_field(d), 200)
    for b in data.draw(st.lists(st.sampled_from(ideals), min_size=1, max_size=8)):
        assert modular._cm_basis(b) == _fraction_cm_basis(b), b


@pytest.mark.parametrize(
    "tamper",
    [
        lambda a, inv: a,  # the ideal itself
        lambda a, inv: ideal_mul(inv, principal_ideal(QuadElement(a.field, Fraction(1, 2), Fraction(0)))),
        lambda a, inv: ideal_mul(inv, principal_ideal(QuadElement(a.field, Fraction(2), Fraction(0)))),
    ],
)
def test_cm_basis_rejects_a_wrong_inverse_with_a_wittkit_error(tamper, monkeypatch):
    real = modular.ideal_inverse
    monkeypatch.setattr(modular, "ideal_inverse", lambda a: tamper(a, real(a)))
    for d in (-1, -3, -5, -15):
        for b in enumerate_ideals(make_field(d), 30)[1:]:
            with pytest.raises(WittkitError):
                modular._cm_basis(b)


@pytest.mark.parametrize("d", [-1, -3, -5, -6, -15, -23])
def test_cm_forms_are_the_class_group_forms_one_per_class(d):
    """Each ideal's reduced form is one of class_group's, g takes its CM point
    to the form's root exactly in K, and two ideals share a form iff they
    share an ideal class (that of the inverse of the form's ideal)."""
    K = make_field(d)
    forms = reduced_forms(K)
    reps = class_group(K)
    seen = set()
    for b in enumerate_ideals(K, 30):
        matrix, form, (p, q, r, s) = modular._cm_form(b)
        (m11, m12), (_, m22) = matrix
        assert form in forms
        tau = (K.omega().scale(m22) - K.one().scale(m12)).scale(Fraction(1, m11))
        assert tau == cm_point(b).w1 / cm_point(b).w2
        moved = (tau.scale(p) + K.one().scale(q)) / (tau.scale(r) + K.one().scale(s))
        assert p * s - q * r == 1
        assert moved == _form_root(K, form)
        cls = next(i for i, rep in enumerate(reps) if is_principal(ideal_div(b, rep)) is not None)
        form_ideal = ideal_from_elements(K, [K.one().scale(form[0]), _form_root(K, form).scale(form[0])])
        assert is_principal(ideal_mul(b, form_ideal)) is not None
        seen.add((cls, form))
    assert len(seen) == len({c for c, _ in seen}) == len({f for _, f in seen}) == len(forms)


def test_default_desk_check_sums_one_series_per_form_and_never_forks(tmp_path, monkeypatch):
    summed = []
    real = modular._eis_series

    def counting(t):
        summed.append(t)
        return real(t)

    def no_fork():
        raise AssertionError("the desk check forked")

    monkeypatch.setattr(modular, "_eis_series", counting)
    monkeypatch.setattr(os, "fork", no_fork)
    modular.clear_caches()
    assert cli.main(["check", "--out", str(tmp_path / "check.json")]) == 0
    assert len(summed) == 1 + 2 + 1
    forms = {(-1, 2, 60): [(1, 0, 1)], (-5, 1, 60): [(1, 0, 5), (2, 2, 3)], (-3, 2, 40): [(1, 1, 1)]}
    assert forms.keys() == set(cli.DESK_CHECK_TRIPLES)
    assert set(modular._SERIES_CACHE) == {(form, 120) for fs in forms.values() for form in fs}
    modular.clear_caches()


_OLD_LM_CACHE: dict = {}


def _old_int_div(num: int, den: int) -> int:
    if num % den:
        raise WittkitError(f"expected exact division {num}/{den} in level matrix")
    return num // den


def _old_level_matrix(a: IdealHNF, N: int, prec: int = modular.DEFAULT_PREC):
    """The level matrix as it was built on its own, with its own cache and a
    second ideal inverse: (entries mod N, exact entries)."""
    if N < 1:
        raise UsageError(f"level must be >= 1, got {N}")
    f = a.field
    key = (f.d, a.key(), N)
    if key in _OLD_LM_CACHE:
        return _OLD_LM_CACHE[key]
    pt = cm_point(a, prec)
    inv = ideal_inverse(a)
    ai, bi, ci, den = inv.a, inv.b, inv.c, inv.den
    m11 = _old_int_div(den, ci)
    m12 = -_old_int_div(den * bi, ci * ai)
    m21 = 0
    m22 = _old_int_div(den, ai)
    omega = f.omega()
    one = f.one()
    if pt.w1.scale(m11) + pt.w2.scale(m12) != omega:
        raise WittkitError("level matrix row 1 does not reproduce omega")
    if pt.w1.scale(m21) + pt.w2.scale(m22) != one:
        raise WittkitError("level matrix row 2 does not reproduce 1")
    det = m11 * m22 - m12 * m21
    if det != a.norm():
        raise WittkitError(f"level matrix determinant {det} != N(a) = {a.norm()}")
    lm = (((m11 % N, m12 % N), (m21 % N, m22 % N)), ((m11, m12), (m21, m22)))
    _OLD_LM_CACHE[key] = lm
    return lm


def test_level_matrix_matches_the_old_cached_construction():
    checked = 0
    for _ in range(2):
        for d in (-1, -2, -3, -5, -15, -23):
            for a in enumerate_ideals(make_field(d), 60):
                for N in range(1, 7):
                    old_entries, old_exact = _old_level_matrix(a, N, 40)
                    exact = cm_point(a, 40).matrix
                    assert exact == old_exact
                    assert tuple(tuple(m % N for m in row) for row in exact) == old_entries
                    checked += 1
        modular.clear_caches()
    assert checked > 2000


_INT = st.integers(-10**6, 10**6)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(2, 6).flatmap(lambda N: st.tuples(st.just(N), st.integers(0, N - 1), st.integers(0, N - 1))),
    st.booleans(),
    st.lists(st.tuples(st.tuples(_INT, _INT), st.tuples(_INT, _INT)), max_size=6),
)
def test_family_indices_carry_fricke_numerators_as_transport_does(index, explicit_level, matrices):
    N, n1, n2 = index
    assume(n1 or n2)
    # an explicit level N may exceed the reduced index's own denominators
    a = (Fraction(n1, N), Fraction(n2, N))
    family = FrickeFamily(a, level=N) if explicit_level else FrickeFamily(a)
    want = [modular._transport(family.a, m) for m in matrices]
    assert modular._family_indices(family, matrices) == want
    assert modular._family_indices(JFamily(), matrices) == [(0, 0)] * len(matrices)
