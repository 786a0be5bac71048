import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wittkit.cyclotomic import (
    cyclo_context,
    formal_mul,
    formal_pow,
    formal_shift,
    formal_scale,
    formal_add,
)
from wittkit.domains import ExactNumberField
from wittkit.errors import UsageError


def test_root_relations():
    for p in (2, 3, 5, 7):
        ctx = cyclo_context(p)
        total = ctx.zero()
        for k in range(p):
            total = ctx.add(total, ctx.root(k))
        assert total == ctx.zero()
    ctx = cyclo_context(4)
    # zeta_4^2 = -1
    assert ctx.root(2) == ctx.from_fraction(-1)
    ctx = cyclo_context(1)
    assert ctx.root(0) == ctx.from_fraction(1)


def test_root_of_unity_order():
    for L in (2, 3, 4, 6, 8, 9, 12, 30):
        ctx = cyclo_context(L)
        z = ctx.root(1)
        assert ctx.pow(z, L) == ctx.from_fraction(1)
        for k in range(1, L):
            assert ctx.pow(z, k) != ctx.from_fraction(1) or L % k == 0


def _rand_elt(ctx, rng, terms=3):
    out = ctx.zero()
    for _ in range(terms):
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        out = ctx.add(out, ctx.scale(ctx.root(rng.randrange(ctx.L)), c))
    return out


def test_arithmetic_matches_numeric():
    rng = random.Random(9)
    with mpmath.workdps(60):
        for L in (3, 4, 6, 12, 20, 36):
            ctx = cyclo_context(L)
            for _ in range(10):
                x = _rand_elt(ctx, rng)
                y = _rand_elt(ctx, rng)
                for exact, approx in [
                    (ctx.add(x, y), ctx.numeric(x) + ctx.numeric(y)),
                    (ctx.mul(x, y), ctx.numeric(x) * ctx.numeric(y)),
                    (ctx.pow(x, 5), ctx.numeric(x) ** 5),
                ]:
                    assert abs(ctx.numeric(exact) - approx) < mpmath.mpf(10) ** -35


def test_canonical_equality():
    ctx = cyclo_context(12)
    # zeta_12^2 = zeta_6, built along two different routes
    a = ctx.pow(ctx.root(1), 2)
    b = ctx.root(2)
    assert a == b
    # 1 + zeta_3 + zeta_3^2 = 0 entered via exponents 0, 4, 8
    z = ctx.add(ctx.add(ctx.root(0), ctx.root(4)), ctx.root(8))
    assert z == ctx.zero()


def test_integrality_and_division():
    ctx = cyclo_context(5)
    x = ctx.add(ctx.root(1), ctx.from_fraction(3))
    assert ctx.is_algebraic_integer(x)
    assert not ctx.is_algebraic_integer(ctx.scale(x, Fraction(1, 2)))
    y = ctx.scale(x, 6)
    assert ctx.div_check(y, 3) == ctx.scale(x, 2)
    assert ctx.div_check(y, 5) is None


def test_galois_and_subfield_degree():
    ctx = cyclo_context(5)
    z = ctx.root(1)
    assert ctx.galois(z, 2) == ctx.root(2)
    assert ctx.subfield_degree([z]) == 4
    real = ctx.add(ctx.root(1), ctx.root(4))  # zeta + zeta^-1
    assert ctx.subfield_degree([real]) == 2
    assert ctx.subfield_degree([ctx.from_fraction(7)]) == 1
    ctx12 = cyclo_context(12)
    assert ctx12.subfield_degree([ctx12.root(1)]) == 4
    # i = zeta_12^3 generates a degree-2 subfield
    assert ctx12.subfield_degree([ctx12.root(3)]) == 2


def test_formal_layer_homomorphism():
    rng = random.Random(17)
    L = 12
    ctx = cyclo_context(L)
    for _ in range(20):
        a = {rng.randrange(L): Fraction(rng.randint(-3, 3)) for _ in range(3)}
        b = {rng.randrange(L): Fraction(rng.randint(-3, 3)) for _ in range(3)}
        lhs = ctx.eval_formal(formal_mul(a, b, L))
        rhs = ctx.mul(ctx.eval_formal(a), ctx.eval_formal(b))
        assert lhs == rhs
        n = rng.randint(1, 20)
        assert ctx.eval_formal(formal_shift(a, n, L)) == ctx.eval_formal(a, n)
        assert ctx.eval_formal(formal_add(a, b)) == ctx.add(ctx.eval_formal(a), ctx.eval_formal(b))


def test_formal_pow_collapse():
    L = 6
    a = {1: Fraction(1), 3: Fraction(-2)}
    p3 = formal_pow(a, 3, L)
    ctx = cyclo_context(L)
    assert ctx.eval_formal(p3) == ctx.pow(ctx.eval_formal(a), 3)
    assert formal_scale(a, 0) == {}


def test_negative_exponents_raise_usage_error():
    ctx = cyclo_context(6)
    with pytest.raises(UsageError):
        ctx.pow(ctx.root(1), -1)
    with pytest.raises(UsageError):
        formal_pow({1: Fraction(1)}, -2, 6)


def _slow_root(ctx, k: int) -> dict:
    """zeta_L^k built afresh from the coordinate expansions."""
    coords = [(k * m) % q for m, q in zip(ctx.m, ctx.q)]
    terms = [((), 1)]
    for i, j in enumerate(coords):
        exp = ctx._expand_coord(i, j)
        terms = [(t + (jj,), s * ss) for t, s in terms for jj, ss in exp]
    out: dict = {}
    one = Fraction(1)
    for t, s in terms:
        out[t] = out.get(t, 0) + s * one
        if not out[t]:
            del out[t]
    return out


def test_memoised_roots_and_evaluation_match_fresh_construction():
    rng = random.Random(31)
    for L in (1, 2, 4, 9, 12, 30, 60, 105, 210):
        ctx = cyclo_context(L)
        for k in list(range(-L, 2 * L)) + [rng.randrange(-10**6, 10**6) for _ in range(10)]:
            got = ctx.root(k)
            want = _slow_root(ctx, k)
            assert got == want and list(got) == list(want)
            assert all(type(c) is Fraction for c in got.values())
        for _ in range(20):
            g = {rng.randrange(L): Fraction(rng.randrange(-9, 10), rng.randrange(1, 5)) for _ in range(3)}
            g = {k: c for k, c in g.items() if c}
            n = rng.randrange(-50, 500)
            want: dict = {}
            for k, c in g.items():
                want = ctx.add(want, ctx.scale(_slow_root(ctx, k * n), c))
            assert ctx.eval_formal(g, n) == want


def test_root_returns_a_fresh_dict():
    ctx = cyclo_context(30)
    first = ctx.root(7)
    kept = dict(first)
    first[next(iter(first))] = Fraction(99)
    first[(9, 9, 9)] = Fraction(1)
    assert ctx.root(7) == kept
    ctx.root(7).clear()
    assert ctx.root(7) == kept
    assert ctx.eval_formal({7: Fraction(1)}) == kept


# The arithmetic as it was before the shared accumulator, expansion and power
# routine, kept verbatim (self -> ctx) as the oracle for them.


def _old_mul_basis(ctx, t1: tuple, t2: tuple) -> list[tuple[tuple, int]]:
    terms: list[tuple[tuple, int]] = [((), 1)]
    for i, (j1, j2) in enumerate(zip(t1, t2)):
        exp = ctx._expand_coord(i, j1 + j2)
        terms = [(t + (jj,), s * ss) for t, s in terms for jj, ss in exp]
    return terms


def _old_mul(ctx, x: dict, y: dict) -> dict:
    out: dict = {}
    for t1, c1 in x.items():
        for t2, c2 in y.items():
            c = c1 * c2
            for t, s in _old_mul_basis(ctx, t1, t2):
                v = out.get(t, 0) + (c if s > 0 else -c)
                if v:
                    out[t] = v
                else:
                    out.pop(t, None)
    return out


def _old_pow(ctx, x: dict, e: int) -> dict:
    if e < 0:
        raise UsageError(f"exponent must be >= 0, got {e}")
    out = ctx.from_fraction(1)
    base = x
    while e:
        if e & 1:
            out = _old_mul(ctx, out, base)
        base = _old_mul(ctx, base, base) if e > 1 else base
        e >>= 1
    return out


def _old_eval_formal(ctx, g: dict, n: int = 1) -> dict:
    """Canonical value of a formal sum at scale n: sum c_k zeta_L^(k n)."""
    out: dict = {}
    L = ctx.L
    for k, c in g.items():
        for t, v in ctx._root_terms(k * n % L):
            s = out.get(t, 0) + c * v
            if s:
                out[t] = s
            else:
                out.pop(t, None)
    return out


def _old_galois(ctx, x: dict, t: int) -> dict:
    """sigma_t for t coprime to L, acting coordinate-wise."""
    if any(t % p == 0 for p, _ in ctx.prime_powers):
        raise ValueError(f"{t} is not coprime to {ctx.L}")
    out: dict = {}
    for tup, c in x.items():
        terms: list[tuple[tuple, int]] = [((), 1)]
        for i, j in enumerate(tup):
            exp = ctx._expand_coord(i, (t * j) % ctx.q[i])
            terms = [(tt + (jj,), s * ss) for tt, s in terms for jj, ss in exp]
        for tt, s in terms:
            v = out.get(tt, 0) + (c if s > 0 else -c)
            if v:
                out[tt] = v
            else:
                out.pop(tt, None)
    return out


def _old_formal_shift(g: dict, n: int, L: int) -> dict:
    out: dict = {}
    for k, c in g.items():
        kk = (k * n) % L
        s = out.get(kk, 0) + c
        if s:
            out[kk] = s
        else:
            out.pop(kk, None)
    return out


def _old_formal_mul(a: dict, b: dict, L: int) -> dict:
    if len(a) > len(b):
        a, b = b, a
    out: dict = {}
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            k = (k1 + k2) % L
            s = out.get(k, 0) + c1 * c2
            if s:
                out[k] = s
            else:
                out.pop(k, None)
    return out


def _old_formal_pow(a: dict, e: int, L: int) -> dict:
    if e < 0:
        raise UsageError(f"exponent must be >= 0, got {e}")
    out = {0: Fraction(1)}
    base = a
    while e:
        if e & 1:
            out = _old_formal_mul(out, base, L)
        base = _old_formal_mul(base, base, L) if e > 1 else base
        e >>= 1
    return out


_conductors = st.one_of(st.sampled_from([1, 8, 9, 12, 30, 210]), st.integers(1, 210))
_coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=4).filter(bool)


@st.composite
def _formal_pair(draw):
    """(L, a, b): sparse formal sums over Z/L, b often holding -a."""
    L = draw(_conductors)
    terms = st.dictionaries(st.integers(0, L - 1), _coeffs, max_size=4)
    a, b = draw(terms), draw(terms)
    if draw(st.booleans()):
        b = {**b, **formal_scale(a, -1)}
    return L, a, b


def _same(got: dict, want: dict) -> None:
    assert list(got.items()) == list(want.items())
    assert all(got.values())


@settings(max_examples=80, deadline=None)
@given(_formal_pair(), st.integers(0, 12), st.integers(-300, 300))
def test_shared_kernel_matches_the_arithmetic_it_replaced(case, e, n):
    L, a, b = case
    ctx = cyclo_context(L)
    _same(formal_shift(a, n, L), _old_formal_shift(a, n, L))
    _same(formal_mul(a, b, L), _old_formal_mul(a, b, L))
    _same(formal_pow(a, e, L), _old_formal_pow(a, e, L))
    assert formal_add(a, formal_scale(a, -1)) == {}
    x, y = ctx.eval_formal(a), ctx.eval_formal(b, n)
    _same(x, _old_eval_formal(ctx, a))
    _same(y, _old_eval_formal(ctx, b, n))
    _same(ctx.mul(x, y), _old_mul(ctx, x, y))
    assert ctx.add(x, ctx.scale(x, -1)) == {}
    assert ctx.sub(ctx.add(x, y), x) == y
    _same(ctx.mul(x, ctx.scale(x, -1)), ctx.scale(_old_mul(ctx, x, x), -1))
    if len(x) <= 8:  # keeps the dense powers in Q(zeta_210) quick
        _same(ctx.pow(x, e), _old_pow(ctx, x, e))
    t = n if math.gcd(n, L) == 1 else 1
    _same(ctx.galois(x, t), _old_galois(ctx, x, t))


def test_every_exact_power_rejects_a_negative_exponent():
    nf = ExactNumberField([-1, 0, 1], 1, 60)
    ctx = cyclo_context(12)
    for call in (
        lambda: nf.pow(nf.gen(), -1),
        lambda: ctx.pow(ctx.root(1), -1),
        lambda: formal_pow({1: Fraction(1)}, -1, 12),
    ):
        with pytest.raises(UsageError):
            call()
