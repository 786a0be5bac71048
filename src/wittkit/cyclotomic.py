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
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import mpmath

from .errors import UsageError, WittkitError


def _factor_prime_powers(n: int) -> list[tuple[int, int]]:
    """[(p, e), ...] with n = prod p^e, ascending p."""
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


@lru_cache(maxsize=None)
def cyclo_context(L: int) -> "CycloContext":
    return CycloContext(L)


class CycloContext:
    """Arithmetic for Q(zeta_L) in the tensor-product integral basis."""

    def __init__(self, L: int):
        if L < 1:
            raise ValueError("conductor must be positive")
        self.L = L
        self.prime_powers = _factor_prime_powers(L)
        self.q = [p**e for p, e in self.prime_powers]
        self.phi = [(p - 1) * p ** (e - 1) for p, e in self.prime_powers]
        self.degree = 1
        for f in self.phi:
            self.degree *= f
        # CRT exponent multipliers: zeta_L^k = prod_i zeta_{q_i}^(k*m_i)
        self.m = [pow(L // q, -1, q) for q in self.q]
        self._coord_expansion: list[dict[int, list[tuple[int, int]]]] = [
            {} for _ in self.q
        ]
        self._roots: dict[int, tuple[tuple[tuple, int], ...]] = {}

    def _expand_coord(self, i: int, j: int) -> list[tuple[int, int]]:
        """Reduce zeta_{q_i}^j to the basis range [0, phi(q_i)): [(j', sign)]."""
        cache = self._coord_expansion[i]
        if j in cache:
            return cache[j]
        q, phi = self.q[i], self.phi[i]
        p, e = self.prime_powers[i]
        j0 = j % q
        if j0 < phi:
            out = [(j0, 1)]
        else:
            # Phi_{p^e} relation: sum_{u=0}^{p-1} zeta^(u p^(e-1) + r) = 0
            r = j0 - phi
            step = p ** (e - 1)
            out = [(u * step + r, -1) for u in range(p - 1)]
        cache[j] = out
        return out

    def _root_terms(self, k: int) -> tuple[tuple[tuple, int], ...]:
        """zeta_L^k's canonical coordinates as (basis tuple, integer) items.

        Memoised per residue k mod L, so evaluation reads the items instead of
        rebuilding tuples and Fractions for every term.  The items are shared
        and never handed out: root() copies them into a fresh dict.
        """
        k %= self.L
        items = self._roots.get(k)
        if items is None:
            coords = [(k * m) % q for m, q in zip(self.m, self.q)]
            terms: list[tuple[tuple, int]] = [((), 1)]
            for i, j in enumerate(coords):
                exp = self._expand_coord(i, j)
                terms = [(t + (jj,), s * ss) for t, s in terms for jj, ss in exp]
            out: dict = {}
            for t, s in terms:
                out[t] = out.get(t, 0) + s
                if not out[t]:
                    del out[t]
            items = self._roots[k] = tuple(out.items())
        return items

    def root(self, k: int) -> dict:
        """zeta_L^k as a canonical element (a fresh dict the caller may change)."""
        return {t: Fraction(s) for t, s in self._root_terms(k)}

    def zero(self) -> dict:
        return {}

    def from_fraction(self, c) -> dict:
        c = Fraction(c)
        return {} if c == 0 else {tuple(0 for _ in self.q): c}

    def add(self, x: dict, y: dict) -> dict:
        out = dict(x)
        for k, c in y.items():
            s = out.get(k, 0) + c
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return out

    def scale(self, x: dict, c) -> dict:
        c = Fraction(c)
        if c == 0:
            return {}
        return {k: v * c for k, v in x.items()}

    def sub(self, x: dict, y: dict) -> dict:
        return self.add(x, self.scale(y, -1))

    def _mul_basis(self, t1: tuple, t2: tuple) -> list[tuple[tuple, int]]:
        terms: list[tuple[tuple, int]] = [((), 1)]
        for i, (j1, j2) in enumerate(zip(t1, t2)):
            exp = self._expand_coord(i, j1 + j2)
            terms = [(t + (jj,), s * ss) for t, s in terms for jj, ss in exp]
        return terms

    def mul(self, x: dict, y: dict) -> dict:
        out: dict = {}
        for t1, c1 in x.items():
            for t2, c2 in y.items():
                c = c1 * c2
                for t, s in self._mul_basis(t1, t2):
                    v = out.get(t, 0) + (c if s > 0 else -c)
                    if v:
                        out[t] = v
                    else:
                        out.pop(t, None)
        return out

    def pow(self, x: dict, e: int) -> dict:
        if e < 0:
            raise UsageError(f"exponent must be >= 0, got {e}")
        out = self.from_fraction(1)
        base = x
        while e:
            if e & 1:
                out = self.mul(out, base)
            base = self.mul(base, base) if e > 1 else base
            e >>= 1
        return out

    def eval_formal(self, g: dict, n: int = 1) -> dict:
        """Canonical value of a formal sum at scale n: sum c_k zeta_L^(k n)."""
        out: dict = {}
        L = self.L
        for k, c in g.items():
            for t, v in self._root_terms(k * n % L):
                s = out.get(t, 0) + c * v
                if s:
                    out[t] = s
                else:
                    out.pop(t, None)
        return out

    def galois(self, x: dict, t: int) -> dict:
        """sigma_t for t coprime to L, acting coordinate-wise."""
        if any(t % p == 0 for p, _ in self.prime_powers):
            raise ValueError(f"{t} is not coprime to {self.L}")
        out: dict = {}
        for tup, c in x.items():
            terms: list[tuple[tuple, int]] = [((), 1)]
            for i, j in enumerate(tup):
                exp = self._expand_coord(i, (t * j) % self.q[i])
                terms = [(tt + (jj,), s * ss) for tt, s in terms for jj, ss in exp]
            for tt, s in terms:
                v = out.get(tt, 0) + (c if s > 0 else -c)
                if v:
                    out[tt] = v
                else:
                    out.pop(tt, None)
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

    def is_integral(self, x: dict) -> bool:
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
    out: dict = {}
    for k, c in g.items():
        kk = (k * n) % L
        s = out.get(kk, 0) + c
        if s:
            out[kk] = s
        else:
            out.pop(kk, None)
    return out

def formal_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, c in b.items():
        s = out.get(k, 0) + c
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


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
        for k2, c2 in b.items():
            k = (k1 + k2) % L
            s = out.get(k, 0) + c1 * c2
            if s:
                out[k] = s
            else:
                out.pop(k, None)
    return out


def formal_pow(a: dict, e: int, L: int) -> dict:
    if e < 0:
        raise UsageError(f"exponent must be >= 0, got {e}")
    out = {0: Fraction(1)}
    base = a
    while e:
        if e & 1:
            out = formal_mul(out, base, L)
        base = formal_mul(base, base, L) if e > 1 else base
        e >>= 1
    return out
