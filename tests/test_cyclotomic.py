import random
from fractions import Fraction

import mpmath
import pytest

from wittkit.cyclotomic import (
    cyclo_context,
    formal_mul,
    formal_pow,
    formal_shift,
    formal_scale,
    formal_add,
)
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
    assert ctx.is_integral(x)
    assert not ctx.is_integral(ctx.scale(x, Fraction(1, 2)))
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
