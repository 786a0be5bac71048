import math
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wittkit.errors import InsufficientBoundError, UsageError
from wittkit.qfield import (
    IdealHNF,
    enumerate_ideals,
    factor_prime,
    ideal_add,
    ideal_mul,
    make_field,
    prime_ideals,
    principal_ideal,
    element,
    unit_ideal,
)
from wittkit.rayclass import (
    build_drf,
    classify_ideals,
    congruent_mod,
    drf_projection,
    drf_units,
    j_classes,
    phi_ideal,
    ray_class_number,
)

Q = make_field(1)
K1 = make_field(-1)
K5 = make_field(-5)
K3 = make_field(-3)


def _qi(n):
    return IdealHNF(Q, n, 0, 1)


def test_congruence_over_q():
    f = _qi(6)
    assert congruent_mod(_qi(2), _qi(8), f)
    assert not congruent_mod(_qi(2), _qi(4), f)
    assert congruent_mod(_qi(7), _qi(1), f)
    # positivity matters: 5 = -1 mod 6 but no positive generator works
    assert not congruent_mod(_qi(5), _qi(1), f)


def test_congruence_is_equivalence_on_samples():
    f = IdealHNF(K5, 3, 1, 1)
    pool = enumerate_ideals(K5, 25)
    labels = []
    for p in pool:
        labels.append([congruent_mod(p, q, f) for q in pool])
    n = len(pool)
    for i in range(n):
        assert labels[i][i]
        for j in range(n):
            assert labels[i][j] == labels[j][i]
            for k in range(n):
                if labels[i][j] and labels[j][k]:
                    assert labels[i][k]


def test_ray_class_number_rational_is_totient():
    for n in range(1, 30):
        assert ray_class_number(Q, _qi(n)) == sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def _phi_brute(field, f):
    # scan the a*c residues x + y*omega directly
    count = 0
    for x in range(f.a):
        for y in range(f.c):
            e = element(field, x, y)
            if ideal_add(principal_ideal(e), f) == unit_ideal(field) if not e.is_zero() else False:
                count += 1
    return count


def test_phi_ideal_against_residue_scan():
    cases = [
        (K1, principal_ideal(element(K1, 2))),
        (K1, IdealHNF(K1, 2, 1, 1)),
        (K5, principal_ideal(element(K5, 3))),
        (K5, IdealHNF(K5, 3, 1, 1)),
        (K5, principal_ideal(element(K5, 2))),
        (K3, principal_ideal(element(K3, 2))),
        (K3, principal_ideal(element(K3, 3))),
    ]
    for field, f in cases:
        assert phi_ideal(f) == _phi_brute(field, f), (field.d, f)


def test_ray_class_numbers_quadratic():
    # d = -1: units +-1, +-i; image mod (2) is {1, i}
    assert ray_class_number(K1, principal_ideal(element(K1, 2))) == 1
    assert ray_class_number(K1, unit_ideal(K1)) == 1
    assert ray_class_number(K1, principal_ideal(element(K1, 3))) == 2
    # d = -5: class number 2; -1 = 1 mod (2) so the unit image mod (2) is trivial
    assert ray_class_number(K5, unit_ideal(K5)) == 2
    assert ray_class_number(K5, principal_ideal(element(K5, 2))) == 4
    assert ray_class_number(K5, principal_ideal(element(K5, 3))) == 4
    # d = -3: six units surject onto (O/2)^* which has order 3
    assert ray_class_number(K3, principal_ideal(element(K3, 2))) == 1


def test_drf_rational_matches_multiplicative_residues():
    for n in range(2, 13):
        m = build_drf(Q, _qi(n))
        assert len(m) == n
        residues = [r.a % n for r in m.reps]
        assert sorted(residues) == list(range(n))
        for i in range(n):
            for j in range(n):
                assert m.reps[m.table[i][j]].a % n == (residues[i] * residues[j]) % n
        assert m.reps[m.identity].a % n == 1
        unit_res = sorted(residues[u] for u in drf_units(m))
        assert unit_res == [k for k in range(1, n) if math.gcd(k, n) == 1]


def test_drf_trivial_modulus_is_class_monoid():
    m = build_drf(K5, unit_ideal(K5), bound=30)
    assert len(m) == 2 and sorted(m.unit_indices) == [0, 1]
    m = build_drf(K1, unit_ideal(K1), bound=30)
    assert len(m) == 1


def test_drf_d5_modulus_3():
    # divisors (1), p3, p3bar, (3) contribute 2 + 2 + 2 + 4 classes
    f = principal_ideal(element(K5, 3))
    m = build_drf(K5, f, bound=200)
    assert len(m) == 10
    assert len(drf_units(m)) == 4
    gcd_counts = {}
    for i in range(len(m)):
        key = m.gcd_of_class(i).key()
        gcd_counts[key] = gcd_counts.get(key, 0) + 1
    split = factor_prime(K5, 3)[1]
    assert gcd_counts[unit_ideal(K5).key()] == 4
    assert gcd_counts[split[0].key()] == 2
    assert gcd_counts[split[1].key()] == 2
    assert gcd_counts[f.key()] == 2


def test_drf_d1_modulus_2():
    f = principal_ideal(element(K1, 2))
    m = build_drf(K1, f, bound=60)
    # (2) = p^2 ramified: divisors give 1 + 1 + 1 classes
    assert len(m) == 3
    assert len(drf_units(m)) == 1
    assert m.table[m.identity][m.identity] == m.identity


def test_insufficient_bound_raises():
    with pytest.raises(InsufficientBoundError):
        build_drf(Q, _qi(6), bound=5)
    with pytest.raises(InsufficientBoundError):
        build_drf(K5, principal_ideal(element(K5, 3)), bound=8)
    # bound 6 realizes every residue class mod 6 and the table closes without
    # needing products in the enumeration
    m = build_drf(Q, _qi(6), bound=6)
    assert len(m) == 6


def test_j_classes_z6():
    m = build_drf(Q, _qi(6))
    blocks = j_classes(m)
    residue_blocks = sorted(sorted(m.reps[i].a % 6 for i in b) for b in blocks)
    assert residue_blocks == [[0], [1, 5], [2, 4], [3]]


def test_j_classes_group_is_single_block():
    m = build_drf(K1, principal_ideal(element(K1, 2)), bound=60)
    blocks = j_classes(m)
    # three classes, each its own orbit size, but the unit block contains only units
    unit_block = next(b for b in blocks if m.identity in b)
    assert set(unit_block) == set(m.unit_indices)


def test_projection_q():
    big = build_drf(Q, _qi(6))
    small = build_drf(Q, _qi(3))
    proj = drf_projection(big, small)
    for i, r in enumerate(big.reps):
        assert small.reps[proj[i]].a % 3 == r.a % 3


def test_projection_quadratic():
    big = build_drf(K5, principal_ideal(element(K5, 3)), bound=200)
    small = build_drf(K5, unit_ideal(K5), bound=30)
    proj = drf_projection(big, small)
    assert set(proj) == {0, 1}


def test_projection_requires_divisibility():
    with pytest.raises(UsageError):
        drf_projection(build_drf(Q, _qi(4)), build_drf(Q, _qi(3)))


def test_gcd_of_class():
    m = build_drf(Q, _qi(6))
    for i, r in enumerate(m.reps):
        assert m.gcd_of_class(i).a == math.gcd(r.a, 6)


# ---------------------------------------------------------------------------
# the canonical-key classifier against the pairwise congruent_mod oracle

PROPERTY_FIELDS = {d: make_field(d) for d in (1, -1, -3, -5, -15)}


def _pairwise_classify(f, ideals):
    reps, labels = [], []
    for p in ideals:
        hit = next((i for i, r in enumerate(reps) if congruent_mod(p, r, f)), None)
        if hit is None:
            reps.append(p)
            hit = len(reps) - 1
        labels.append(hit)
    return reps, labels


@lru_cache(maxsize=None)
def _ideal_pool(d):
    field = PROPERTY_FIELDS[d]
    return enumerate_ideals(field, 200 if field.is_rational else 60)


@lru_cache(maxsize=None)
def _moduli(d):
    """(n) for n <= 12, then products of up to two primes of norm <= 7."""
    field = PROPERTY_FIELDS[d]
    mods = [principal_ideal(element(field, n)) for n in range(1, 13)]
    primes = prime_ideals(field, 7)
    mods += primes + [ideal_mul(p, q) for i, p in enumerate(primes) for q in primes[i:]]
    return list(dict.fromkeys(mods))


@lru_cache(maxsize=None)
def _monoid(f):
    return build_drf(f.field, f)


@st.composite
def _classification_case(draw, max_norm=None):
    d = draw(st.sampled_from(sorted(PROPERTY_FIELDS)))
    mods = [f for f in _moduli(d) if max_norm is None or f.norm() <= max_norm]
    f = draw(st.sampled_from(mods))
    ideals = draw(st.lists(st.sampled_from(_ideal_pool(d)), min_size=1, max_size=30))
    return d, f, ideals


@settings(max_examples=60, deadline=None)
@given(case=_classification_case())
def test_classify_ideals_matches_pairwise_oracle(case):
    _, f, ideals = case
    assert classify_ideals(f, ideals) == _pairwise_classify(f, ideals)


@settings(max_examples=30, deadline=None)
@given(case=_classification_case(max_norm=49), data=st.data())
def test_drf_table_and_class_of_match_pairwise_oracle(case, data):
    _, f, ideals = case
    m = _monoid(f)
    for a in ideals:
        assert congruent_mod(a, m.reps[m.class_of(a)], f)
    for a, b in zip(ideals, ideals[1:]):
        assert (m.class_of(a) == m.class_of(b)) == congruent_mod(a, b, f)
    index = st.integers(0, len(m) - 1)
    for _ in range(5):
        i, j = data.draw(index), data.draw(index)
        assert congruent_mod(ideal_mul(m.reps[i], m.reps[j]), m.reps[m.table[i][j]], f)
    assert congruent_mod(unit_ideal(f.field), m.reps[m.identity], f)


def test_classify_ideals_respects_positivity_over_q():
    # 5 = -1 mod 6, but only positive generators count, so (5) and (1) differ
    f = _qi(6)
    assert classify_ideals(f, [_qi(1), _qi(5), _qi(7), _qi(11)]) == ([_qi(1), _qi(5)], [0, 1, 0, 1])
    m = build_drf(Q, f)
    assert m.class_of(_qi(5)) != m.class_of(_qi(1)) == m.class_of(_qi(7))


def test_classify_ideals_rejects_non_integral_input():
    with pytest.raises(UsageError):
        classify_ideals(_qi(6), [IdealHNF(Q, 1, 0, 1, 2)])
    with pytest.raises(UsageError):
        classify_ideals(IdealHNF(K5, 3, 1, 1, 2), [unit_ideal(K5)])
