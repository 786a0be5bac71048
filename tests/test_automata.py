import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wittkit.automata import (
    Dfao,
    _joint_output_partition,
    check_bridy,
    dfao_from_witt,
    equivalent,
    export_dot,
    minimize,
    run,
    state_complexity,
    validate_dfao,
)
from wittkit.cyclotomic import cyclo_context
from wittkit.domains import BigComplex, ExactCyclotomic
from wittkit.errors import InsufficientBoundError, UsageError
from wittkit.qfield import IdealHNF, make_field
from wittkit.witt import all_ones, rho_vector, zeta_gamma, zlinear_combine

Q = make_field(1)


def test_dfao_zeta_third_structure():
    a = dfao_from_witt([zeta_gamma(3, 1, 169)], 7)
    assert a.n_states == 3
    # letters 2, 3, 5, 7 act as x2, x0, x2, x1 on the Z/3 index residues
    assert [p.a for p in a.alphabet] == [2, 3, 5, 7]
    res = {s: None for s in range(3)}
    ctx = cyclo_context(3)
    for s in range(3):
        for k in range(3):
            if a.outputs[0][s] == ctx.root(k):
                res[s] = k
    mults = []
    for l, p in enumerate(a.alphabet):
        t = a.transitions[a.initial][l]
        mults.append(res[t])
    assert mults == [2, 0, 2, 1]


def test_dfao_constant():
    a = dfao_from_witt([all_ones(Q, 60)], 7)
    assert a.n_states == 1
    assert a.transitions == [[0, 0, 0, 0]]


def test_minimize_padded_machine():
    base = dfao_from_witt([zeta_gamma(3, 1, 169)], 7)
    # pad with a disconnected duplicate copy: 3 unreachable states
    n = base.n_states
    trans = [row[:] for row in base.transitions] + [
        [t + n for t in row] for row in base.transitions
    ]
    outputs = [base.outputs[0] + base.outputs[0]]
    padded = Dfao(
        alphabet=base.alphabet,
        n_states=2 * n,
        initial=0,
        transitions=trans,
        outputs=outputs,
        domains=base.domains,
        bound=base.bound,
        field_d=base.field_d,
    )
    validate_dfao(padded)
    m = minimize(padded)
    assert m.n_states == 3
    assert equivalent(padded, m)


def test_minimize_merges_equivalent_states():
    # mod-6 orbit machine whose outputs only depend on the index mod 3
    base = dfao_from_witt([zeta_gamma(6, 1, 169)], 7)
    assert base.n_states == 6
    ctx = cyclo_context(6)
    six = {s: next(k for k in range(6) if base.outputs[0][s] == ctx.root(k)) for s in range(6)}
    c3 = cyclo_context(3)
    coarse = Dfao(
        alphabet=base.alphabet,
        n_states=6,
        initial=base.initial,
        transitions=base.transitions,
        outputs=[[c3.root(six[s] % 3) for s in range(6)]],
        domains=[__import__("wittkit.domains", fromlist=["ExactCyclotomic"]).ExactCyclotomic(3)],
    )
    validate_dfao(coarse)
    m = minimize(coarse)
    assert m.n_states == 3
    assert equivalent(coarse, m)


def test_minimize_idempotent_and_all_equal():
    a = dfao_from_witt([zeta_gamma(6, 1, 169)], 7)
    m = minimize(a)
    assert minimize(m).n_states == m.n_states
    dom = a.domains[0]
    flat = Dfao(
        alphabet=a.alphabet,
        n_states=4,
        initial=0,
        transitions=[[(s + 1) % 4] * len(a.alphabet) for s in range(4)],
        outputs=[[dom.one()] * 4],
        domains=[dom],
    )
    assert minimize(flat).n_states == 1


def test_run_examples():
    xi = zeta_gamma(3, 1, 169)
    a = dfao_from_witt([xi], 7)
    ctx = cyclo_context(3)
    assert run(a, []) == xi.value_at(IdealHNF(Q, 1, 0, 1))
    two = IdealHNF(Q, 2, 0, 1)
    assert run(a, [two, two]) == ctx.root(1)
    with pytest.raises(UsageError):
        run(a, [IdealHNF(Q, 11, 0, 1)])


def test_run_against_component_lookup():
    rng = random.Random(17)
    xi = zlinear_combine([1, 2], [Fraction(1, 4), Fraction(1, 6)], 2000)
    a = dfao_from_witt([xi], 7)
    for _ in range(200):
        word = []
        norm = 1
        while True:
            p = rng.choice(a.alphabet)
            if norm * p.a > xi.bound:
                break
            word.append(p)
            norm *= p.a
            if rng.random() < 0.4:
                break
        assert run(a, word) == xi.value_at(IdealHNF(Q, norm, 0, 1))


def test_run_out_of_range():
    a = dfao_from_witt([zeta_gamma(3, 1, 20)], 5)
    five = IdealHNF(Q, 5, 0, 1)
    with pytest.raises(InsufficientBoundError):
        run(a, [five, five])


def test_bridy_family():
    assert check_bridy([zeta_gamma(3, 1, 169)], 7).equal
    assert check_bridy([all_ones(Q, 169)], 7).equal
    assert check_bridy([rho_vector(IdealHNF(Q, 2, 0, 1), 169)], 7).equal
    rng = random.Random(18)
    for _ in range(5):
        terms = rng.randrange(1, 4)
        coeffs = [rng.choice([-2, -1, 1, 2]) for _ in range(terms)]
        gammas = [Fraction(rng.randrange(12), 12) for _ in range(terms)]
        rep = check_bridy([zlinear_combine(coeffs, gammas, 4000)], 13)
        assert rep.equal


def test_bridy_report_values():
    rep = check_bridy([zeta_gamma(3, 1, 169)], 7)
    assert rep.state_complexity == 3
    assert rep.orbit_dimension == 3
    assert state_complexity([all_ones(Q, 60)], 7) == 1


def test_dot_export_deterministic():
    a = minimize(dfao_from_witt([zeta_gamma(3, 1, 169)], 7))
    dot1 = export_dot(a)
    b = minimize(dfao_from_witt([zeta_gamma(3, 1, 169)], 7))
    assert dot1 == export_dot(b)
    assert dot1.startswith("digraph dfao {")
    assert dot1.count("shape=circle") == a.n_states


def test_multi_vector_machine():
    xis = [zeta_gamma(2, 1, 169), zeta_gamma(3, 1, 169)]
    a = dfao_from_witt(xis, 7)
    # joint machine separates residues mod 6
    assert a.n_states == 6
    assert len(a.outputs) == 2
    m = minimize(a)
    assert m.n_states == 6


def _old_joint_output_partition(a: Dfao) -> list[int]:
    """Initial Moore blocks: states with equal outputs in every row.

    Union-find over pairwise equality so BigComplex tolerance cannot produce
    an order-dependent partition.
    """
    n = a.n_states
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for s in range(n):
        for t in range(s + 1, n):
            rs, rt = find(s), find(t)
            if rs == rt:
                continue
            if all(
                dom.eq(row[s], row[t]) for dom, row in zip(a.domains, a.outputs)
            ):
                parent[rt] = rs
    labels, canon = [], {}
    for s in range(n):
        r = find(s)
        labels.append(canon.setdefault(r, len(canon)))
    return labels


def _rows_only(outputs, domains) -> Dfao:
    n = len(outputs[0])
    return Dfao(alphabet=[], n_states=n, initial=0, transitions=[[] for _ in range(n)],
                outputs=outputs, domains=domains)


@settings(max_examples=60, deadline=None)
@example([(0, 0, 0), (2, 0, 0), (1, 0, 0)])
@given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 3), st.integers(0, 11)), min_size=1, max_size=14))
def test_joint_output_partition_matches_its_union_find_oracle(states):
    # BigComplex points 0.6 tol apart: neighbours are equal, points two steps
    # apart are not, so equality chains non-transitively across tol
    dom = BigComplex(20)
    step = dom.tol * mpmath.mpf("0.6")
    with mpmath.workdps(dom.workdps):
        chain = [mpmath.mpc(i * step, 0) for i, _, _ in states]
        drift = [mpmath.mpc(1, j * step) for _, j, _ in states]
    ctx = cyclo_context(12)
    exact = [ctx.root(k) for _, _, k in states]
    c12 = ExactCyclotomic(12)
    for outputs, domains in [
        ([chain], [dom]),
        ([chain, drift], [dom, dom]),
        ([exact], [c12]),
        ([chain, exact], [dom, c12]),
    ]:
        a = _rows_only(outputs, domains)
        assert _joint_output_partition(a) == _old_joint_output_partition(a)
    if [i for i, _, _ in states] == [0, 2, 1]:
        # 0 and 2 differ by 1.2 tol, yet both equal 1, so all three join
        assert not dom.eq(chain[0], chain[1])
        assert _joint_output_partition(_rows_only([chain], [dom])) == [0, 0, 0]
