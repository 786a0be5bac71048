"""Exact arithmetic in Q(zeta_L) and formal sums of roots of unity.

Canonical form.  Q(zeta_L) is the tensor product of the prime-power pieces
Q(zeta_q), q = p^e || L.  A canonical basis element is a product
prod_i zeta_{q_i}^{j_i} with 0 <= j_i < phi(q_i); elements are sparse dicts
from those exponent tuples to rationals.  This basis is integral, so a value
is an algebraic integer exactly when all its coordinates are integers.

Formal layer.  A formal sum sum_k c_k [k/L] over Z/L is kept as a sparse
dict without any cyclotomic reduction; evaluation maps [k/L] to zeta_L^k.
Formal products and powers are cheap and exact, and the evaluation map is a
ring homomorphism, which is what the Witt-vector fast path relies on.

Both layers share one kernel: _accumulate is the only loop that adds into a
sparse dict and drops zero coordinates, ExactCyclotomic._expand the only
(memoised) expansion of prod_i zeta_{q_i}^{e_i} into the basis, and power
the only square-and-multiply.

ExactCyclotomic is at once the field arithmetic and the exact coefficient
domain of Witt vectors whose components lie in Q(zeta_L) (see domains for
the other two domains).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import mpmath

from .errors import UsageError, WittkitError
from .qfield import QuadElement, _rational_integer, factor_int


def _accumulate(out: dict, items, c) -> dict:
    """out += c * sum_key v [key] over the (key, v) items, dropping zero coordinates."""
    for key, v in items:
        s = out.get(key, 0) + c * v
        if s:
            out[key] = s
        else:
            out.pop(key, None)
    return out


def power(mul, one, x, e: int):
    """x^e by square-and-multiply, for a ring given by mul and its one."""
    if e < 0:
        raise UsageError(f"exponent must be >= 0, got {e}")
    out, base = one, x
    while e:
        if e & 1:
            out = mul(out, base)
        base = mul(base, base) if e > 1 else base
        e >>= 1
    return out


@lru_cache(maxsize=None)
def cyclo_context(L: int) -> "ExactCyclotomic":
    """The shared ExactCyclotomic(L), so every user of one conductor shares its memos."""
    return ExactCyclotomic(L)


class ExactCyclotomic:
    """Q(zeta_L) in the tensor-product integral basis, as a coefficient domain.

    Values are canonical dicts, so equality is decidable and is dict
    equality.  Two domains of one conductor are equal; their descriptor is
    {"kind": "cyclotomic", "M": L}.
    """

    exact = True
    kind = "cyclotomic"

    def __init__(self, L: int):
        if L < 1:
            raise ValueError("conductor must be positive")
        self.L = L
        self.prime_powers = factor_int(L)
        self.q = [p**e for p, e in self.prime_powers]
        self.phi = [(p - 1) * p ** (e - 1) for p, e in self.prime_powers]
        self.degree = 1
        for f in self.phi:
            self.degree *= f
        # CRT exponent multipliers: zeta_L^k = prod_i zeta_{q_i}^(k*m_i)
        self.m = [pow(L // q, -1, q) for q in self.q]
        self._expansions: dict[tuple, tuple[tuple[tuple, int], ...]] = {}
        self._roots: dict[int, tuple[tuple[tuple, int], ...]] = {}

    def __repr__(self):
        return f"ExactCyclotomic({self.L})"

    def __eq__(self, other):
        return isinstance(other, ExactCyclotomic) and other.L == self.L

    def __hash__(self):
        return hash((self.kind, self.L))

    def to_json(self) -> dict:
        return {"kind": self.kind, "M": self.L}

    def _expand_coord(self, i: int, j: int) -> list[tuple[int, int]]:
        """Reduce zeta_{q_i}^j to the basis range [0, phi(q_i)): [(j', sign)]."""
        q, phi = self.q[i], self.phi[i]
        p, e = self.prime_powers[i]
        j0 = j % q
        if j0 < phi:
            return [(j0, 1)]
        # Phi_{p^e} relation: sum_{u=0}^{p-1} zeta^(u p^(e-1) + r) = 0
        r = j0 - phi
        step = p ** (e - 1)
        return [(u * step + r, -1) for u in range(p - 1)]

    def _expand(self, exps) -> tuple[tuple[tuple, int], ...]:
        """prod_i zeta_{q_i}^(exps_i) in the basis, as (basis tuple, sign) items.

        Memoised on the exponents reduced mod each q_i (at most L entries).
        Each basis tuple occurs once, and the items are shared, never handed
        out.
        """
        key = tuple(j % q for j, q in zip(exps, self.q))
        items = self._expansions.get(key)
        if items is None:
            terms: list[tuple[tuple, int]] = [((), 1)]
            for i, j in enumerate(key):
                exp = self._expand_coord(i, j)
                terms = [(t + (jj,), s * ss) for t, s in terms for jj, ss in exp]
            items = self._expansions[key] = tuple(terms)
        return items

    def _root_terms(self, k: int) -> tuple[tuple[tuple, int], ...]:
        """zeta_L^k's canonical coordinates as (basis tuple, integer) items.

        Memoised per residue k mod L, so evaluation reads the shared items
        with one lookup and builds no exponent key.  root() copies them into
        a fresh dict.
        """
        k %= self.L
        items = self._roots.get(k)
        if items is None:
            items = self._roots[k] = self._expand([k * m for m in self.m])
        return items

    def root(self, k: int) -> dict:
        """zeta_L^k as a canonical element (a fresh dict the caller may change)."""
        return {t: Fraction(s) for t, s in self._root_terms(k)}

    def zero(self) -> dict:
        return {}

    def one(self) -> dict:
        return self.from_fraction(1)

    def from_fraction(self, c) -> dict:
        c = Fraction(c)
        return {} if c == 0 else {tuple(0 for _ in self.q): c}

    def eq(self, x: dict, y: dict) -> bool:
        return x == y

    def add(self, x: dict, y: dict) -> dict:
        return formal_add(x, y)

    def scale(self, x: dict, c) -> dict:
        return formal_scale(x, c)

    def sub(self, x: dict, y: dict) -> dict:
        return self.add(x, self.scale(y, -1))

    def mul(self, x: dict, y: dict) -> dict:
        out: dict = {}
        for t1, c1 in x.items():
            for t2, c2 in y.items():
                _accumulate(out, self._expand([j1 + j2 for j1, j2 in zip(t1, t2)]), c1 * c2)
        return out

    def pow(self, x: dict, e: int) -> dict:
        return power(self.mul, self.one(), x, e)

    def eval_formal(self, g: dict, n: int = 1) -> dict:
        """Canonical value of a formal sum at scale n: sum c_k zeta_L^(k n)."""
        out: dict = {}
        L = self.L
        for k, c in g.items():
            _accumulate(out, self._root_terms(k * n % L), c)
        return out

    def galois(self, x: dict, t: int) -> dict:
        """sigma_t for t coprime to L, acting coordinate-wise."""
        if any(t % p == 0 for p, _ in self.prime_powers):
            raise ValueError(f"{t} is not coprime to {self.L}")
        out: dict = {}
        for tup, c in x.items():
            _accumulate(out, self._expand([t * j for j in tup]), c)
        return out

    def as_rational(self, x: dict):
        """The value as a Fraction when it is rational, else None."""
        if not x:
            return Fraction(0)
        if len(x) == 1:
            (k, c), = x.items()
            if all(j == 0 for j in k):
                return c
        return None

    def is_algebraic_integer(self, x: dict) -> bool:
        return all(Fraction(c).denominator == 1 for c in x.values())

    def div_check(self, x: dict, n: int) -> dict | None:
        """x / n when every coordinate stays integral, else None."""
        out = {}
        for k, c in x.items():
            q = Fraction(c, n)
            if q.denominator != 1:
                return None
            out[k] = q
        return out

    def div_prime(self, x: dict, t) -> dict | None:
        """x / t when the quotient is still an algebraic integer, else None.

        Quadratic generators are decided exactly for rational components
        (divisibility in O_K); a nonzero divisible component would have an
        irrational quotient this domain cannot hold, which is an error.
        """
        n = _rational_integer(t)
        if n is not None:
            return self.div_check(x, n)
        c = self.as_rational(x)
        if c is None:
            raise UsageError(
                "cannot divide a cyclotomic value by a quadratic generator; "
                "use a number-field domain"
            )
        quot = QuadElement(t.field, Fraction(c), Fraction(0)) * t.inverse()
        if not quot.is_integral():
            return None
        if c == 0:
            return self.zero()
        raise UsageError(
            "quotient by a quadratic generator is irrational; "
            "this domain cannot represent it"
        )

    def value_to_json(self, x: dict):
        return sorted([list(map(int, k)), str(v)] for k, v in x.items())

    def value_from_json(self, data) -> dict:
        return {tuple(k): Fraction(v) for k, v in data}

    def numeric(self, x: dict, prec: int = 50):
        """mpmath value via zeta_L = exp(2 pi i / L); for cross-checks only."""
        with mpmath.workdps(prec):
            total = mpmath.mpc(0)
            for tup, c in x.items():
                k = sum(j * (self.L // q) for j, q in zip(tup, self.q)) % self.L
                total += mpmath.mpf(c.numerator) / c.denominator * mpmath.e ** (
                    2j * mpmath.pi * k / self.L
                )
            return total

    def subfield_degree(self, values: list[dict]) -> int:
        """Degree over Q of the field the given values generate."""
        fixed = 0
        for t in range(1, self.L + 1):
            if any(t % p == 0 for p, _ in self.prime_powers):
                continue
            if all(self.galois(v, t) == v for v in values):
                fixed += 1
        if self.degree % fixed:
            raise WittkitError(f"{fixed} fixing automorphisms do not divide the degree {self.degree}")
        return self.degree // fixed


# ---------------------------------------------------------------------------
# formal sums over Z/L


def formal_shift(g: dict, n: int, L: int) -> dict:
    return _accumulate({}, (((k * n) % L, c) for k, c in g.items()), 1)


def formal_add(a: dict, b: dict) -> dict:
    return _accumulate(dict(a), b.items(), 1)


def formal_scale(a: dict, c) -> dict:
    c = Fraction(c)
    if not c:
        return {}
    return {k: v * c for k, v in a.items()}


def formal_mul(a: dict, b: dict, L: int) -> dict:
    if len(a) > len(b):
        a, b = b, a
    out: dict = {}
    for k1, c1 in a.items():
        _accumulate(out, (((k1 + k2) % L, c2) for k2, c2 in b.items()), c1)
    return out


def formal_pow(a: dict, e: int, L: int) -> dict:
    return power(lambda x, y: formal_mul(x, y, L), {0: Fraction(1)}, a, e)
