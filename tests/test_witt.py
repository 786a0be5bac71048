import copy
import random
import re
from collections import Counter
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wittkit import algrec, witt
from wittkit.cyclotomic import cyclo_context
from wittkit.domains import BigComplex, ExactCyclotomic, ExactNumberField, domain_from_json
from wittkit.errors import BoundExhaustedError, UsageError, WittkitError
from wittkit.modular import FrickeFamily, JFamily, clear_caches, level_family_vectors, modular_vector
from wittkit.qfield import IdealHNF, enumerate_ideals, ideal_mul, make_field, prime_ideals, unit_ideal
from wittkit.witt import (
    WittVector,
    _kronecker_mul,
    _ModGring,
    _psi,
    _psi_step,
    all_ones,
    check_un,
    component_report,
    constant_vector,
    dim_x,
    find_modulus,
    is_periodic_mod,
    orbit_monoid,
    pointwise_add,
    pointwise_mul,
    pointwise_pow,
    pointwise_sub,
    rho_vector,
    shift,
    shift_partitions,
    zeta_gamma,
    zlinear_combine,
)

Q = make_field(1)
K5 = make_field(-5)


def _eager_copy(xi):
    """Drop the group-ring backing so checks go through the component path."""
    vals = {a: xi.value_at(a) for a in xi.ideals()}
    return WittVector(xi.field, xi.domain, xi.bound, values=vals)


def test_zeta_gamma_components():
    xi = zeta_gamma(3, 1, 30)
    ctx = cyclo_context(3)
    for a in xi.ideals():
        assert xi.value_at(a) == ctx.root(a.a)
    # component at (5) is zeta_3^2 since 5 = 2 mod 3
    five = IdealHNF(Q, 5, 0, 1)
    assert xi.value_at(five) == ctx.root(2)
    # gamma = 0 gives the all-ones vector, gamma = 1/2 gives (-1)^n
    ones = zeta_gamma(1, 0, 10)
    assert all(v == ones.domain.one() for v in ones.values_list())
    sgn = zeta_gamma(2, 1, 10)
    c2 = cyclo_context(2)
    for a in sgn.ideals():
        assert sgn.value_at(a) == c2.from_fraction((-1) ** a.a)


def test_shift_examples():
    xi = zeta_gamma(3, 1, 60)
    ctx = cyclo_context(3)
    psi2 = shift(xi, IdealHNF(Q, 2, 0, 1))
    assert psi2.bound == 30
    for a in psi2.ideals():
        assert psi2.value_at(a) == ctx.root(2 * a.a)
    assert shift(xi, unit_ideal(Q)).gring == xi.gring
    with pytest.raises(BoundExhaustedError):
        shift(zeta_gamma(3, 1, 4), IdealHNF(Q, 5, 0, 1))


def test_shift_functorial_rational():
    rng = random.Random(11)
    xi = zeta_gamma(12, 5, 1000)
    for _ in range(200):
        m = rng.randrange(2, 8)
        n = rng.randrange(2, 5)
        a = IdealHNF(Q, m, 0, 1)
        b = IdealHNF(Q, n, 0, 1)
        lhs = shift(shift(xi, a), b)
        rhs = shift(xi, ideal_mul(a, b))
        assert lhs.bound == rhs.bound
        for c in lhs.ideals():
            assert lhs.value_at(c) == rhs.value_at(c)


def test_shift_functorial_quadratic():
    rng = random.Random(12)
    p2 = IdealHNF(K5, 2, 1, 1)
    xi = rho_vector(ideal_mul(p2, p2), 400)
    small = enumerate_ideals(K5, 5)
    for _ in range(60):
        a = rng.choice(small)
        b = rng.choice(small)
        lhs = shift(shift(xi, a), b)
        rhs = shift(xi, ideal_mul(a, b))
        for c in lhs.ideals():
            assert lhs.value_at(c) == rhs.value_at(c)


def test_kronecker_mul_against_naive():
    rng = random.Random(13)
    for _ in range(40):
        L = rng.randrange(1, 15)
        M = rng.randrange(2, 10**6)
        a = [rng.randrange(M) for _ in range(L)]
        b = [rng.randrange(M) for _ in range(L)]
        want = [0] * L
        for i in range(L):
            for j in range(L):
                want[(i + j) % L] = (want[(i + j) % L] + a[i] * b[j]) % M
        assert _kronecker_mul(a, b, L, M) == want


def test_check_un_zeta_third():
    report = check_un(zeta_gamma(3, 1, 23**3), depth=3, prime_norm_bound=23)
    assert report.passed
    assert report.primes_skipped == []
    assert all(e.verdict == "pass" for e in report.entries)
    # same verdict when forced through per-component arithmetic
    eager = _eager_copy(zeta_gamma(3, 1, 60))
    report2 = check_un(eager, depth=2, prime_norm_bound=7)
    assert report2.passed
    assert report2.stats["components_scanned"] > 0


def test_check_un_depth0_failures():
    half = constant_vector(Q, ExactCyclotomic(1), 20, ExactCyclotomic(1).from_fraction(Fraction(1, 2)))
    report = check_un(half, depth=0, prime_norm_bound=5)
    assert not report.passed
    assert report.entries[0].verdict == "fail"
    # ghost-style vector xi_n = n is integral but fails divisibility at (2)
    dom = ExactCyclotomic(1)
    ghost = WittVector(Q, dom, 20, values={a: dom.from_fraction(a.a) for a in enumerate_ideals(Q, 20)})
    report = check_un(ghost, depth=1, prime_norm_bound=3)
    assert not report.passed
    fails = [e for e in report.entries if e.verdict == "fail"]
    assert fails and fails[0].kind == "divisibility"


def test_check_un_integer_combination_spec_example():
    xi = zlinear_combine([2, -3], [Fraction(1, 4), Fraction(1, 2)], 169)
    report = check_un(xi, depth=2, prime_norm_bound=13)
    assert report.passed
    assert report.stats["certificate_levels"] > 0
    # independent path: materialized components, no group-ring shortcut
    eager = _eager_copy(zlinear_combine([2, -3], [Fraction(1, 4), Fraction(1, 2)], 169))
    report2 = check_un(eager, depth=2, prime_norm_bound=13)
    assert report2.passed
    assert report2.stats["certificate_levels"] == 0


def test_check_un_random_integer_combinations():
    rng = random.Random(14)
    for _ in range(8):
        terms = rng.randrange(1, 5)
        coeffs = [rng.choice([-5, -3, -2, -1, 1, 2, 3, 4, 5]) for _ in range(terms)]
        gammas = []
        for _ in range(terms):
            q = rng.randrange(1, 13)
            gammas.append(Fraction(rng.randrange(q), q))
        xi = zlinear_combine(coeffs, gammas, 169)
        assert check_un(xi, depth=2, prime_norm_bound=13).passed


def test_check_un_fractional_coefficients_honest_fallback():
    # (1/2)([0] + [1/2]) has 0/1 components: integral at depth 0 even though
    # its coefficients are not integers, but it fails depth 1 at (2).
    mu = zlinear_combine([Fraction(1, 2), Fraction(1, 2)], [Fraction(0), Fraction(1, 2)], 60)
    assert check_un(mu, depth=0, prime_norm_bound=5).passed
    report = check_un(mu, depth=1, prime_norm_bound=5)
    assert not report.passed
    bad = [e for e in report.entries if e.verdict == "fail"]
    assert bad[0].path == ("(2)",)
    # a generic rational combination already fails integrality
    nu = zlinear_combine([Fraction(1, 2)], [Fraction(1, 3)], 60)
    assert not check_un(nu, depth=0, prime_norm_bound=5).passed


def test_check_un_skips_nonprincipal_primes():
    xi = rho_vector(IdealHNF(K5, 1, 0, 1), 60)
    report = check_un(xi, depth=1, prime_norm_bound=7)
    # at d = -5 the primes over 2, 3, 7 are non-principal; (sqrt(-5)) is principal
    assert report.primes_skipped
    assert any("not principal" in w for w in report.warnings)
    assert "(5,0+1w)" in report.primes_used
    assert report.passed


def test_check_un_rejects_inexact_domain():
    from wittkit.domains import BigComplex

    dom = BigComplex(30)
    xi = constant_vector(Q, dom, 10, dom.one())
    with pytest.raises(UsageError):
        check_un(xi, depth=0, prime_norm_bound=3)


def test_periodicity():
    xi = zeta_gamma(3, 1, 60)
    assert is_periodic_mod(xi, IdealHNF(Q, 3, 0, 1))
    assert not is_periodic_mod(xi, IdealHNF(Q, 2, 0, 1))
    ones = all_ones(Q, 40)
    for n in (1, 2, 5):
        assert is_periodic_mod(ones, IdealHNF(Q, n, 0, 1))


def test_find_modulus():
    divisors = [IdealHNF(Q, n, 0, 1) for n in (1, 2, 3, 6)]
    assert find_modulus(zeta_gamma(6, 1, 60), divisors).a == 6
    assert find_modulus(all_ones(Q, 60), divisors).a == 1
    assert find_modulus(zeta_gamma(3, 1, 60), divisors).a == 3
    # a vector with no periodic modulus among the candidates
    dom = ExactCyclotomic(1)
    ghost = WittVector(Q, dom, 20, values={a: dom.from_fraction(a.a) for a in enumerate_ideals(Q, 20)})
    assert find_modulus(ghost, divisors) is None


def _multiplier_monoid(q, primes):
    """Multiplicative closure of the prime residues in Z/q, with 1."""
    seen = {1 % q}
    frontier = [1 % q]
    while frontier:
        m = frontier.pop()
        for p in primes:
            t = m * p % q
            if t not in seen:
                seen.add(t)
                frontier.append(t)
    return seen


def test_orbit_monoid_zeta_third():
    xi = zeta_gamma(3, 1, 169)
    orbit = orbit_monoid([xi], 7)
    assert len(orbit) == 3
    # isomorphic to (Z/3, x): identify reps with their index residues
    res = [r.a % 3 for r in orbit.reps]
    assert sorted(res) == [0, 1, 2]
    for i in range(3):
        for j in range(3):
            assert res[orbit.table[i][j]] == res[i] * res[j] % 3


def test_orbit_monoid_residue_oracle():
    rng = random.Random(15)
    for q in (2, 4, 5, 6, 8, 12):
        p0 = rng.randrange(1, q)
        xi = zeta_gamma(q, p0, 169)
        orbit = orbit_monoid([xi], 13)
        primes = [2, 3, 5, 7, 11, 13]
        # shifts collapse along multipliers of gamma: residues mod q/gcd
        qq = q // __import__("math").gcd(p0, q)
        want = _multiplier_monoid(qq, primes)
        assert len(orbit) == len(want)
        assert {r.a % qq for r in orbit.reps} == want


def test_orbit_monoid_trivial_and_rho():
    assert dim_x([all_ones(Q, 60)], 7) == 1
    orbit = orbit_monoid([rho_vector(IdealHNF(Q, 2, 0, 1), 60)], 7)
    assert len(orbit) == 2
    assert orbit.table == [[0, 1], [1, 1]]


def test_orbit_monoid_bound_exhausted():
    xi = zeta_gamma(3, 1, 2)
    with pytest.raises(BoundExhaustedError):
        orbit_monoid([xi], 5)


def test_orbit_monoid_shared_bound_required():
    with pytest.raises(UsageError):
        orbit_monoid([zeta_gamma(3, 1, 60), zeta_gamma(2, 1, 50)], 5)


def test_j_partition_zeta_sixth():
    from wittkit.rayclass import j_classes

    orbit = orbit_monoid([zeta_gamma(6, 1, 169)], 7)
    assert len(orbit) == 6
    blocks = orbit.j_partition()
    # oracle: J-classes of (Z/6, x) computed from the residue table directly
    table = [[i * j % 6 for j in range(6)] for i in range(6)]
    res = [r.a % 6 for r in orbit.reps]
    want = j_classes(table)
    got = sorted(sorted(res[s] for s in b) for b in blocks)
    assert got == sorted(sorted(b) for b in want)
    assert len(blocks) == 4


def test_component_report_cyclotomic():
    report = component_report(zeta_gamma(6, 1, 169), 7)
    assert report.n_components == 4
    assert all(b.certified for b in report.blocks)
    degs = {}
    for b in report.blocks:
        degs[b.rep.a % 6] = b.degree_over_field
    # unit block generates Q(zeta_6), the (2)-block Q(zeta_3), the rest are rational
    assert degs[1] == 2
    assert degs[2] == 2
    assert degs[3] == 1
    assert degs[0] == 1


def test_component_report_constant():
    report = component_report(all_ones(Q, 60), 5)
    assert report.n_components == 1
    assert report.blocks[0].degree_over_field == 1
    assert report.blocks[0].n_values == 1


@pytest.mark.parametrize(
    "d, family, bound, degree",
    [
        (-1, FrickeFamily((Fraction(1, 2), Fraction(0))), 80, 1),
        (-2, FrickeFamily((Fraction(1, 2), Fraction(0))), 80, 1),
        (-3, FrickeFamily((Fraction(1, 2), Fraction(0))), 80, 1),
        (-5, JFamily(), 20, 2),
    ],
)
def test_component_report_over_a_certified_number_field(d, family, bound, degree):
    """A certified vector's blocks take the charpoly-factor branch.  A block of
    rational values is degree 1, certified, even when the values have
    different linear minimal polynomials; the d = -5 j values are quadratic."""
    xi = algrec.certify_vector(modular_vector(family, make_field(d), bound, 120)).vector
    assert xi.domain.kind == "numberfield"
    report = component_report(xi, 5)
    assert report.blocks
    for b in report.blocks:
        assert (b.degree_over_field, b.certified, b.method, b.note) == (degree, True, "charpoly-factor", "")
    clear_caches()


def test_pointwise_ops_and_rho_idempotence():
    rho = rho_vector(IdealHNF(Q, 3, 0, 1), 50)
    assert pointwise_mul(rho, rho).values_list() == rho.values_list()
    sq = pointwise_pow(zeta_gamma(5, 1, 50), 5)
    ctx = cyclo_context(5)
    for a in sq.ideals():
        assert sq.value_at(a) == ctx.root(5 * a.a)
    diff = pointwise_sub(zeta_gamma(5, 1, 50), zeta_gamma(5, 1, 50))
    assert all(v == {} for v in diff.values_list())


def test_rho_shift_is_all_ones():
    for field in (Q, K5):
        for a in enumerate_ideals(field, 6):
            rho = rho_vector(a, 60)
            shifted = shift(rho, a)
            assert all(v == rho.domain.one() for v in shifted.values_list())


def test_vector_json():
    xi = zeta_gamma(4, 1, 12)
    data = xi.to_json()
    assert data["schema"] == "wittkit/vector/1"
    assert len(data["values"]) == len(xi.ideals())
    assert data["domain"] == {"kind": "cyclotomic", "M": 4}


def _pairwise_partition(vectors, ideals, tol):
    """Union-find over pairwise gap < tol comparisons: the oracle for shift_partitions."""
    parent = list(range(len(ideals)))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    def shifts_equal(a, b):
        na, nb = int(a.norm()), int(b.norm())
        for xi in vectors:
            for c in enumerate_ideals(xi.field, min(xi.bound // na, xi.bound // nb)):
                va = xi.value_at(ideal_mul(a, c))
                vb = xi.value_at(ideal_mul(b, c))
                if not xi.domain.gap(va, vb) < tol:
                    return False
        return True

    for i in range(len(ideals)):
        for j in range(i + 1, len(ideals)):
            if find(i) != find(j) and shifts_equal(ideals[i], ideals[j]):
                parent[find(j)] = find(i)
    labels, canon = [], {}
    for i in range(len(ideals)):
        labels.append(canon.setdefault(find(i), len(canon)))
    return labels


_GAP_PREC = 30
_GAP_BOUND = 16


_vector_levels = st.tuples(
    st.lists(st.sampled_from([0, 8, 18]), min_size=1, max_size=4),
    st.lists(
        st.tuples(st.integers(0, 2), st.integers(0, 1)), min_size=_GAP_BOUND, max_size=_GAP_BOUND
    ),
)
_GAP_STEPS = [Fraction(1, 2), Fraction(11, 20), Fraction(3, 10), Fraction(3), Fraction(19, 4)]


@settings(max_examples=80, deadline=None)
@given(
    step=st.sampled_from(_GAP_STEPS),
    levels=st.lists(_vector_levels, min_size=1, max_size=2),
    n_ideals=st.integers(2, 8),
)
def test_shift_partitions_match_two_pairwise_passes(step, levels, n_ideals):
    """Component n is (base[n mod m] + jitter) * step * tol, so gaps straddle
    tol and 10*tol, land on them exactly for step 1/2, and chain
    non-transitively through the jitter."""
    domain = BigComplex(_GAP_PREC)
    components = enumerate_ideals(Q, _GAP_BOUND)
    with mpmath.workdps(domain.workdps):
        tol = mpmath.mpf(10) ** -(_GAP_PREC // 3)
        loose = tol * 10
        unit = tol * step.numerator / step.denominator
        vectors = []
        for base, jitter in levels:
            values = {
                a: mpmath.mpc(1 + (base[a.a % len(base)] + re) * unit, im * unit)
                for a, (re, im) in zip(components, jitter)
            }
            vectors.append(WittVector(Q, domain, _GAP_BOUND, values=values))
    ideals = enumerate_ideals(Q, n_ideals)
    strict, wide = shift_partitions(vectors, ideals, tol, loose)
    assert strict == _pairwise_partition(vectors, ideals, tol)
    assert wide == _pairwise_partition(vectors, ideals, loose)


def test_shift_partitions_chain_is_transitive_closure():
    """Gaps 0.6*tol along a chain of three give one tol class though the ends differ by 1.2*tol."""
    domain = BigComplex(_GAP_PREC)
    with mpmath.workdps(domain.workdps):
        tol = mpmath.mpf(10) ** -(_GAP_PREC // 3)
        vals = {a: mpmath.mpc(1 + a.a * tol * 6 / 10) for a in enumerate_ideals(Q, 3)}
    xi = WittVector(Q, domain, 3, values=vals)
    ideals = enumerate_ideals(Q, 3)
    assert not domain.gap(vals[ideals[0]], vals[ideals[2]]) < tol
    assert shift_partitions([xi], ideals, tol, tol * 10) == ([0, 0, 0], [0, 0, 0])


def _unpruned_shift_partitions(vectors, ideals, tol, loose):
    """shift_partitions before the float prune: every pair not yet in one tol
    class gets a gap scan.  The oracle for the pruned version."""
    n = len(ideals)
    strict, wide = witt._UnionFind(n), witt._UnionFind(n)
    products: dict = {}
    for i in range(n):
        for j in range(i + 1, n):
            if strict.find(i) == strict.find(j):
                continue
            joined = wide.find(i) == wide.find(j)
            g = witt._shift_gap(vectors, ideals[i], ideals[j], products, tol if joined else loose)
            if g < tol:
                strict.union(i, j)
            if g < loose and not joined:
                wide.union(i, j)
    return strict.labels(), wide.labels()


def _desk_tolerances(prec):
    """tol and loose as modularity_check sets them."""
    with mpmath.workdps(prec + 15):
        tol = mpmath.mpf(10) ** -(prec // 3)
        return tol, tol * 10


@pytest.mark.parametrize("d", [-1, -2, -3, -5, -15, -23])
def test_pruned_shift_partitions_match_unpruned_on_level_families(d):
    field = make_field(d)
    ideals = enumerate_ideals(field, 24)
    clear_caches()
    for prec in (60, 120):
        tol, loose = _desk_tolerances(prec)
        for N in (1, 2, 3):
            vectors = level_family_vectors(field, N, 24, prec)
            expect = _unpruned_shift_partitions(vectors, ideals, tol, loose)
            assert shift_partitions(vectors, ideals, tol, loose) == expect, (prec, N)
    clear_caches()


def _count_shift_gaps(monkeypatch) -> Counter:
    calls = Counter()
    real = witt._shift_gap

    def counting(*args):
        calls["scans"] += 1
        return real(*args)

    monkeypatch.setattr(witt, "_shift_gap", counting)
    return calls


# Steps between consecutive components, in units of loose: around loose,
# on both sides of the prune's 2*loose, and one far step.
_PRUNE_STEPS = [
    Fraction(1, 20),
    Fraction(1, 2),
    Fraction(1),
    Fraction(2),
    2 * (1 - Fraction(1, 2**40)),
    2 * (1 + Fraction(1, 2**40)),
    Fraction(3),
    Fraction(10**40),
]


@pytest.mark.parametrize(
    "prec, magnitude, pruned",
    [
        (30, "0", True),
        (30, "1", True),
        (30, "1e6", True),
        # 1e8 + 2^-27 - loose/5: a float rounding boundary splits steps below loose
        (30, "100000000.000000007250580596923828125", True),
        (600, "1e300", False),  # |x| * 2^-50 dwarfs every step but the far one
        (1260, "1e400", False),  # float(x) is inf
        (960, "0", True),  # subnormal floats; only the far step clears 2^-1000
        (990, "0", True),  # float(loose) is 0
        (975, "6.9e-324", True),  # float(loose) is 0; steps below loose round a subnormal unit apart
    ],
)
@pytest.mark.parametrize("unit", [(1, 0), (0, 1)])
def test_float_prune_keeps_partitions(prec, magnitude, pruned, unit, monkeypatch):
    """Components of norm > B/2 compare only at c = O_K, so each pair's gap is
    the difference of two components: k*loose for the steps k above."""
    tol, loose = _desk_tolerances(prec)
    bound = 2 * (len(_PRUNE_STEPS) + 1)
    ideals = enumerate_ideals(Q, bound)[bound // 2 :]
    with mpmath.workdps(3 * prec + 1000):
        pos, values = Fraction(0), {}
        m = mpmath.mpf(magnitude)
        for a, step in zip(ideals, [Fraction(0)] + _PRUNE_STEPS):
            pos += step
            values[a] = mpmath.mpc(m, -m) + mpmath.mpc(*unit) * pos.numerator * loose / pos.denominator
        for a in enumerate_ideals(Q, bound // 2):
            values[a] = mpmath.mpc(0)
    xi = WittVector(Q, BigComplex(prec), bound, values=values)
    calls = _count_shift_gaps(monkeypatch)
    expect = _unpruned_shift_partitions([xi], ideals, tol, loose)
    unpruned_scans = calls["scans"]
    calls.clear()
    assert shift_partitions([xi], ideals, tol, loose) == expect
    assert expect[1] != list(range(len(ideals)))  # some steps below loose join
    assert (calls["scans"] < unpruned_scans) == pruned


def test_pruned_pairs_need_no_gap_scan(monkeypatch):
    """On the d = -5 level-1 desk triple only the 81 pairs whose floats agree
    are scanned; the unpruned pass scans 1,803."""
    field = make_field(-5)
    ideals = enumerate_ideals(field, 60)
    tol, loose = _desk_tolerances(60)
    clear_caches()
    vectors = level_family_vectors(field, 1, 60, 60)
    calls = _count_shift_gaps(monkeypatch)
    labels = shift_partitions(vectors, ideals, tol, loose)
    assert calls["scans"] == 81
    calls.clear()
    assert _unpruned_shift_partitions(vectors, ideals, tol, loose) == labels
    assert calls["scans"] == 1803
    clear_caches()


def _count_products(monkeypatch):
    calls = Counter()
    real = witt.ideal_mul

    def counting(a, c):
        calls[a, c] += 1
        return real(a, c)

    monkeypatch.setattr(witt, "ideal_mul", counting)
    return calls


def test_shift_products_are_computed_once_per_call(monkeypatch):
    xi = rho_vector(IdealHNF(K5, 2, 1, 1), 40)
    ideals = enumerate_ideals(K5, 12)
    calls = _count_products(monkeypatch)
    monoid = orbit_monoid([xi], 5)
    assert calls and max(calls.values()) == 1
    calls.clear()
    monoid.class_of(ideals[-1])
    assert calls and max(calls.values()) == 1
    calls.clear()
    orbit_monoid([zeta_gamma(6, 1, 60)], 7)
    assert calls and max(calls.values()) == 1


def test_stored_vector_roundtrip_both_domains():
    with mpmath.workdps(60):
        values = {a: mpmath.mpc(int(a.norm()), 1) / 3 for a in enumerate_ideals(K5, 12)}
    for xi in (zeta_gamma(6, 1, 30), WittVector(K5, BigComplex(40), 12, values=values)):
        back = WittVector.from_json(xi.to_json())
        assert back.to_json() == xi.to_json()
        assert domain_from_json(xi.domain.to_json()) == xi.domain


def _sqrt2_field():
    with mpmath.workdps(80):
        return ExactNumberField([-2, 0, 1], mpmath.sqrt(2))


@pytest.mark.parametrize(
    "make_x, make_y, same",
    [
        (lambda: BigComplex(40), lambda: BigComplex(40), True),
        (lambda: ExactCyclotomic(6), lambda: ExactCyclotomic(6), True),
        (lambda: BigComplex(40), lambda: BigComplex(60), False),
        (lambda: ExactCyclotomic(3), lambda: ExactCyclotomic(6), False),
        (lambda: ExactCyclotomic(6), lambda: BigComplex(40), False),
        (_sqrt2_field, _sqrt2_field, False),
    ],
    ids=[
        "prec-40-twice",
        "conductor-6-twice",
        "prec-40-vs-60",
        "conductor-3-vs-6",
        "cyclo-vs-bigcomplex",
        "one-poly-twice",
    ],
)
def test_pointwise_add_compares_domains_by_value(make_x, make_y, same):
    dx, dy = make_x(), make_y()
    assert dx is not dy
    x, y = (constant_vector(K5, dom, 10, dom.one()) for dom in (dx, dy))
    if same:
        assert pointwise_add(x, y).domain is dx
    else:
        with pytest.raises(UsageError, match="domain mismatch"):
            pointwise_add(x, y)


@pytest.mark.parametrize(
    "change",
    [
        {"schema": "wittkit/vector/2"},
        {"bound": "30"},
        {"bound": 31},
        {"d": None},
        {"domain": {"kind": "cyclotomic"}},
        {"domain": {"kind": "numberfield", "poly": [1, 0, 1]}},
        {"domain": "cyclotomic"},
        {"values": {}},
        {"values": [[{"a": 1, "b": 0}, []]]},
        {"values": [[{"a": 1, "b": 0, "c": 1}, [["x"], "1"]]]},
    ],
)
def test_stored_vector_rejects_malformed_data(change):
    data = {**zeta_gamma(6, 1, 30).to_json(), **change}
    with pytest.raises(UsageError):
        WittVector.from_json(data)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.tuples(st.integers(-3, 3), st.integers(0, 11)), min_size=1, max_size=3),
    st.lists(st.tuples(st.integers(-3, 3), st.integers(0, 11)), min_size=1, max_size=3),
)
def test_group_ring_add_sub_match_components(xs, ys):
    # a 1/12 term in each keeps both presentations at L = 12
    x = zlinear_combine([1] + [c for c, _ in xs], [Fraction(1, 12)] + [Fraction(k, 12) for _, k in xs], 40)
    y = zlinear_combine([1] + [c for c, _ in ys], [Fraction(1, 12)] + [Fraction(k, 12) for _, k in ys], 40)
    for combine, op in ((pointwise_add, x.domain.add), (pointwise_sub, x.domain.sub)):
        z = combine(x, y)
        assert z.gring is not None and all(type(c) is Fraction and c for c in z.gring.values())
        for a in z.ideals():
            assert z.value_at(a) == op(x.value_at(a), y.value_at(a))


# ---------------------------------------------------------------------------
# exact group-ring fast path against the code it replaced


def _slow_kronecker_mul(a: list[int], b: list[int], L: int, M: int) -> list[int]:
    """Circular convolution mod x^L - 1 with coefficients mod M.

    Coefficients are packed into byte-aligned slots of one big integer so the
    convolution rides on big-int multiplication.  Slot width is chosen so
    column sums cannot overflow: L * (M-1)^2 < 256^slot_bytes.
    """
    slot_bytes = (L * (M - 1) * (M - 1)).bit_length() // 8 + 1
    pa = int.from_bytes(b"".join(c.to_bytes(slot_bytes, "little") for c in a), "little")
    pb = int.from_bytes(b"".join(c.to_bytes(slot_bytes, "little") for c in b), "little")
    prod = pa * pb
    raw = prod.to_bytes((2 * L - 1) * slot_bytes, "little")
    out = [0] * L
    for i in range(2 * L - 1):
        c = int.from_bytes(raw[i * slot_bytes : (i + 1) * slot_bytes], "little")
        if c:
            j = i % L
            out[j] = (out[j] + c) % M
    return out


def _mod_pow(g, e: int) -> list[int]:
    """Square-and-multiply power of a _ModGring through the unfolded product."""
    out = None
    base = g.arr
    while e:
        if e & 1:
            out = base if out is None else _slow_kronecker_mul(out, base, g.L, g.modulus)
        e >>= 1
        if e:
            base = _slow_kronecker_mul(base, base, g.L, g.modulus)
    if out is None:
        out = [0] * g.L
        out[0] = 1 % g.modulus
    return out


@st.composite
def _kronecker_cases(draw):
    L = draw(st.integers(1, 210))
    M = draw(st.sampled_from([1, 2, 30030, 30030**2]) | st.integers(1, 30030**3))
    coeff = st.integers(0, M - 1)
    fill = draw(st.sampled_from(["random", "worst", "mixed"]))
    if fill == "worst":
        coeff = st.just(M - 1)
    elif fill == "mixed":
        coeff = st.sampled_from([0, M - 1]) | coeff
    vec = st.lists(coeff, min_size=L, max_size=L)
    a = draw(vec)
    b = a if draw(st.booleans()) else draw(vec)
    return a, b, L, M


@settings(max_examples=150, deadline=None)
@given(_kronecker_cases())
def test_folded_kronecker_matches_unfolded_oracle(case):
    a, b, L, M = case
    a_before, b_before = list(a), list(b)
    assert _kronecker_mul(a, b, L, M) == _slow_kronecker_mul(a, b, L, M)
    assert a == a_before and b == b_before


_WORD_EDGES = [1, 2**32 - 1, 2**32, 2**32 + 1, 2**64 - 1, 2**64, 2**64 + 1]


def test_kronecker_worst_slot_is_exact():
    # every product is (M-1)^2 and every circular sum has exactly L of them
    cases = [(1, 2), (7, 30030), (210, 30030**2), (13, 2**64 + 1)]
    cases += [(L, M) for L in (1, 2, 7, 210) for M in _WORD_EDGES]
    for L, M in cases:
        worst = [M - 1] * L
        want = [L * (M - 1) ** 2 % M] * L
        assert _kronecker_mul(worst, worst, L, M) == want
        assert _kronecker_mul(worst, list(worst), L, M) == want


# 3 * (2^31)^2 < 2^64 <= 4 * (2^31)^2: the slot of three nonzero terms is one word
@pytest.mark.parametrize("M", _WORD_EDGES + [2**31 + 1])
@pytest.mark.parametrize("L", [1, 2, 7, 210])
def test_kronecker_at_word_and_limb_boundaries_matches_the_oracle(L, M):
    # n nonzero worst coefficients in a row: circular coefficient n-1 sums n
    # products (M-1)^2, the most a slot sized for n nonzero terms must hold
    for n in range(1, min(L, 5) + 1):
        a = [M - 1] * n + [0] * (L - n)
        b = a[::-1]
        assert _kronecker_mul(a, a, L, M) == _slow_kronecker_mul(a, list(a), L, M)
        assert _kronecker_mul(a, b, L, M) == _slow_kronecker_mul(a, b, L, M)
    # coefficients near 0, 2^32 and 2^64, where a slot or a limb fills up
    rng = random.Random(L * 1000 + M.bit_length())
    edges = sorted({c % M for c in (0, 1, M - 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64)})
    for _ in range(4):
        a = [rng.choice(edges + [rng.randrange(M)]) for _ in range(L)]
        b = [rng.choice(edges + [rng.randrange(M)]) for _ in range(L)]
        assert _kronecker_mul(a, b, L, M) == _slow_kronecker_mul(a, b, L, M)
        assert _kronecker_mul(a, a, L, M) == _slow_kronecker_mul(a, list(a), L, M)


def _random_integer_vectors(seed: int, n: int, bound: int = 200):
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        L = rng.choice([rng.randrange(1, 211), 30, 60, 105, 210])
        terms = rng.randrange(1, 5)
        coeffs = [rng.randrange(-9, 10) or 1 for _ in range(terms)]
        gammas = [Fraction(rng.randrange(L), L) for _ in range(terms)]
        out.append(zlinear_combine(coeffs, gammas, bound))
    return out


def test_chained_powers_match_square_and_multiply(monkeypatch):
    real = witt._chain_powers
    nodes = []

    def checked(g, norms):
        powers = real(g, norms)
        assert sorted(powers) == sorted(set(norms))
        for p, got in powers.items():
            assert got == _mod_pow(g, p), (g.L, g.modulus, p)
        nodes.append(g.L)
        return powers

    monkeypatch.setattr(witt, "_chain_powers", checked)
    vectors = _random_integer_vectors(21, 30)
    for xi in vectors:
        if xi.gring:
            assert check_un(xi, 2, 13).passed
    # depth 2 over six primes: the root node and one child per prime
    assert len(nodes) == 7 * sum(1 for xi in vectors if xi.gring)


def test_check_un_report_unchanged_by_folded_kronecker(monkeypatch):
    for xi in _random_integer_vectors(22, 8):
        fast = check_un(xi, 2, 13).to_json()
        with monkeypatch.context() as m:
            m.setattr(witt, "_kronecker_mul", _slow_kronecker_mul)
            slow = check_un(xi, 2, 13).to_json()
        assert fast == slow


def test_kronecker_calls_per_certificate_level(monkeypatch):
    real = witt._kronecker_mul
    calls = []

    def counting(a, b, L, M):
        calls.append(L)
        return real(a, b, L, M)

    monkeypatch.setattr(witt, "_kronecker_mul", counting)
    xi = zlinear_combine([2, -3, 5], [Fraction(1, 4), Fraction(1, 7), Fraction(2, 15)], 200)
    report = check_un(xi, 2, 13)
    assert report.passed and report.primes_used == ["(2)", "(3)", "(5)", "(7)", "(11)", "(13)"]
    # one level is the top integrality entry; the rest are power nodes
    nodes = report.stats["certificate_levels"] - 1
    assert nodes == 7
    assert 0 < len(calls) <= 8 * nodes


def _mod_psi(g, p: int) -> list[int]:
    """psi_p on a _ModGring one exponent at a time, reduced mod M."""
    out = [0] * g.L
    M = g.modulus
    for k, c in enumerate(g.arr):
        if c:
            i = k * p % g.L
            out[i] = (out[i] + c) % M
    return out


def _slow_psi_step(g, p: int, powed: list[int], nm: int):
    """The per-coefficient step: difference list, divisibility scan, quotient."""
    M = g.modulus
    diff = [(s - t) % M for s, t in zip(_mod_psi(g, p), powed)]
    bad = next((k for k, c in enumerate(diff) if c % p), None)
    if bad is not None:
        return bad, None
    return None, [(c // p) % nm if nm > 1 else 0 for c in diff]


@st.composite
def _psi_cases(draw):
    p = draw(st.sampled_from([2, 3, 5, 7, 11, 13]))
    L = draw(st.integers(1, 210))
    if draw(st.booleans()):  # p | L half the time
        L = p * draw(st.integers(1, 210 // p))
    M = draw(st.sampled_from([1, 2, 30030, 30030**2]) | st.integers(1, 30030**3))
    coeff = st.integers(0, M - 1)
    fill = draw(st.sampled_from(["random", "worst", "mixed"]))
    if fill == "worst":
        coeff = st.just(M - 1)
    elif fill == "mixed":
        coeff = st.sampled_from([0, M - 1]) | coeff
    g = _ModGring(draw(st.lists(coeff, min_size=L, max_size=L)), L, M, 200)
    if draw(st.booleans()):
        powed = draw(st.lists(coeff, min_size=L, max_size=L))
    else:  # psi - powed is p*x with p*x < M: divisible, with no wrap mod M
        xs = draw(st.lists(st.integers(0, (M - 1) // p), min_size=L, max_size=L))
        powed = [(s - p * x) % M for s, x in zip(_mod_psi(g, p), xs)]
        if draw(st.booleans()):  # and now and then one coefficient off by one
            k = draw(st.integers(0, L - 1))
            powed[k] = (powed[k] + 1) % M
    nm = draw(st.sampled_from([1, 2, 30030]) | st.integers(1, 30030**2))
    return g, p, powed, nm


@settings(max_examples=300, deadline=None)
@given(_psi_cases())
def test_psi_and_fused_step_match_the_per_coefficient_oracle(case):
    g, p, powed, nm = case
    arr_before, powed_before = list(g.arr), list(powed)
    assert [c % g.modulus for c in _psi(g.arr, g.L, p)] == _mod_psi(g, p)
    bad, quot = _psi_step(g, p, powed, nm)
    want_bad, want_quot = _slow_psi_step(g, p, powed, nm)
    assert bad == want_bad
    # the last level (nm = 1) builds no quotient; the oracle's is all zeros
    assert quot == (want_quot if nm > 1 else None)
    assert g.arr == arr_before and powed == powed_before


@pytest.mark.parametrize("label, bad", [("(2)", [0]), ("(5)", [9, 4]), ("(13)", [419, 17, 100])])
def test_failed_coefficient_certificate_names_the_prime_and_first_exponent(label, bad, monkeypatch):
    """The internal failure branch: a power off by one at one prime of the root."""
    real = witt._chain_powers
    nodes = []
    p = int(label[1:-1])

    def perturbed(g, norms):
        powers = real(g, norms)
        nodes.append(g.L)
        if len(nodes) == 1:
            powers[p] = list(powers[p])
            for k in bad:
                powers[p][k] = (powers[p][k] + 1) % g.modulus
        return powers

    monkeypatch.setattr(witt, "_chain_powers", perturbed)
    xi = zlinear_combine([2, -3, 5], [Fraction(1, 4), Fraction(1, 7), Fraction(2, 15)], 200)
    msg = f"at prime {re.escape(label)}, exponent {min(bad)}$"
    with pytest.raises(WittkitError, match=msg) as err:
        check_un(xi, 2, 13)
    assert str(err.value).startswith("internal: coefficient certificate failed")
    # the primes before p certified their subtrees first: the root and one node each
    assert len(nodes) == 1 + [2, 3, 5, 7, 11, 13].index(p)


def test_prime_steps_are_found_once_per_field_and_bound(monkeypatch):
    real = witt.is_principal
    calls = Counter()

    def counting(p):
        calls[p] += 1
        return real(p)

    monkeypatch.setattr(witt, "is_principal", counting)
    witt._principal_prime_steps.cache_clear()
    rho = rho_vector(IdealHNF(K5, 1, 0, 1), 60)
    cases = [
        (zlinear_combine([2, -3], [Fraction(1, 4), Fraction(1, 7)], 200), 2, 13),
        (zeta_gamma(3, 1, 60), 1, 13),
        (rho, 1, 7),
        # no principal prime of norm <= 3: check_un appends its own warning
        (rho, 1, 3),
    ]
    for xi, depth, bound in cases:
        first = check_un(xi, depth, bound)
        want = copy.deepcopy(first.to_json())  # to_json hands out the report's lists
        for field in (first.warnings, first.primes_skipped, first.primes_used):
            field.append("changed by the caller")
        for _ in range(2):
            assert check_un(xi, depth, bound).to_json() == want
    assert check_un(rho, 1, 3).warnings[-1].startswith("no principal primes of norm <= 3")
    # is_principal once per prime and (field, bound), however many calls
    assert calls == Counter(prime_ideals(Q, 13) + prime_ideals(K5, 7) + prime_ideals(K5, 3))


def _fresh_value(xi, a):
    return cyclo_context(xi.gring_L).eval_formal(xi.gring, a.a)


def test_value_at_matches_fresh_evaluation():
    vectors = [
        zlinear_combine([Fraction(1, 2), Fraction(-3, 7), 4], [Fraction(1, 6), Fraction(3, 10), Fraction(4, 15)], 200),
        zlinear_combine([1, 1], [Fraction(1, 105), Fraction(2, 35)], 200),
        zlinear_combine([Fraction(5, 3)], [Fraction(7, 60)], 90),
        zeta_gamma(11, 3, 200),
        all_ones(Q, 50),
    ]
    vectors += _random_integer_vectors(23, 10)
    for xi in vectors:
        for a in xi.ideals():
            assert xi.value_at(a) == _fresh_value(xi, a)
        # a second pass reads the memo and still agrees
        assert xi.values_list() == [_fresh_value(xi, a) for a in xi.ideals()]


def test_value_at_evaluates_each_residue_once(monkeypatch):
    from wittkit.cyclotomic import ExactCyclotomic

    real = ExactCyclotomic.eval_formal
    calls = []

    def counting(self, g, n=1):
        calls.append(n)
        return real(self, g, n)

    monkeypatch.setattr(ExactCyclotomic, "eval_formal", counting)
    xi = zlinear_combine([3, -2], [Fraction(1, 11), Fraction(5, 11)], 200)
    assert xi.gring_L == 11
    xi.values_list()
    is_periodic_mod(xi, IdealHNF(Q, 11, 0, 1))
    find_modulus(xi, [IdealHNF(Q, n, 0, 1) for n in (1, 11)])
    orbit_monoid([xi], 13)
    assert 0 < len(calls) <= 11
    # ideals with one residue share one value
    assert xi.value_at(IdealHNF(Q, 2, 0, 1)) is xi.value_at(IdealHNF(Q, 13, 0, 1))


def test_group_ring_vector_rejects_stored_values():
    dom = ExactCyclotomic(3)
    with pytest.raises(UsageError):
        WittVector(Q, dom, 10, values={unit_ideal(Q): dom.one()}, gring={1: Fraction(1)}, gring_L=3)


def test_library_ops_leave_shared_values_unchanged():
    xi = zlinear_combine([2, -1, 3], [Fraction(1, 3), Fraction(1, 4), Fraction(1, 6)], 200)
    before = {a: copy.deepcopy(v) for a, v in zip(xi.ideals(), xi.values_list())}
    # the eager copy holds the very dicts xi hands out, so the component
    # paths below work on xi's memoised values
    eager = _eager_copy(xi)
    small = _eager_copy(zlinear_combine([2, -1, 3], [Fraction(1, 3), Fraction(1, 4), Fraction(1, 6)], 60))
    three = IdealHNF(Q, 3, 0, 1)
    for x, y in ((xi, xi), (xi, eager), (eager, eager)):
        pointwise_add(x, y)
        pointwise_sub(x, y)
        pointwise_mul(x, y)
    pointwise_pow(xi, 3)
    pointwise_pow(eager, 3)
    pointwise_pow(eager, 0)
    pointwise_pow(eager, 1)
    shift(xi, three)
    shift(eager, three)
    assert check_un(xi, 2, 13).passed
    assert check_un(small, 1, 7).passed
    divisors = [IdealHNF(Q, n, 0, 1) for n in (1, 2, 3, 4, 6, 12)]
    assert find_modulus(xi, divisors).a == 12
    assert find_modulus(eager, divisors).a == 12
    assert len(orbit_monoid([xi, eager], 5)) == 10
    for a in xi.ideals():
        assert xi.value_at(a) == _fresh_value(xi, a) == before[a]
        assert eager.value_at(a) == before[a]

