"""Truncated Witt vectors indexed by ideals, with Frobenius shifts.

A vector stores one coefficient-domain value per integral ideal of norm
<= bound, in the canonical enumeration order.  Over Q a vector can carry a
group-ring presentation (a finite sum of coefficients attached to rational
classes gamma mod 1, encoded as exponents mod L); components are then
materialized on demand as cyclotomic values e^{2 pi i gamma n}.

Periodicity mod f (is_periodic_mod, find_modulus) scans the components
under their ray keys mod f.  A group-ring vector with f = (m) over Q and
bound >= lcm(m, L) skips the scan: it is periodic mod (m) iff L | k*m for
every exponent k with a nonzero coefficient, by the linear independence of
the characters of Z/L (proof at is_periodic_mod).  Every other case keeps
the scan, which stays the oracle.

The congruence tower is tested by check_un: depth 0 is component
integrality, depth n+1 requires psi_p(xi) - xi^{N(p)} to be exactly
divisible by a generator of each principal prime, with the quotient passing
depth n.  For integer group-ring vectors the divisibility is verified on
coefficients with modular arithmetic, which is sound and fast; everything
else falls back to honest component-wise computation.
"""

from __future__ import annotations

import math
import operator
import sys
from array import array
from bisect import bisect_right
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import lru_cache

from .cyclotomic import (
    ExactCyclotomic,
    _accumulate,
    cyclo_context,
    formal_add,
    formal_mul,
    formal_pow,
    formal_scale,
    formal_shift,
)
from .domains import domain_from_json
from .errors import (
    BoundExhaustedError,
    InsufficientBoundError,
    UsageError,
    WittkitError,
    require_int,
)
from .qfield import (
    IdealHNF,
    QuadField,
    enumerate_ideals,
    factor_int,
    ideal_from_json,
    ideal_mul,
    is_principal,
    make_field,
    prime_ideals,
    unit_ideal,
)
from .rayclass import _ray_key, j_classes


_WORD = (1 << 64) - 1
_BIG_ENDIAN = sys.byteorder == "big"


@lru_cache(maxsize=256)
def _ideals(field: QuadField, bound: int) -> tuple[IdealHNF, ...]:
    return tuple(enumerate_ideals(field, bound))


def ideal_label(a: IdealHNF) -> str:
    if a.field.is_rational:
        return f"({a.a})"
    if a.c == a.a and a.b == 0:
        return f"({a.c})"
    return f"({a.a},{a.b}+{a.c}w)"


class WittVector:
    """Map from ideals of norm <= bound to values in a coefficient domain.

    A group-ring vector's component at (n) depends only on n mod L, so
    value_at evaluates each residue once and keeps it in _residues: ideals
    with the same residue share one value dict.  Sharing is safe because no
    operation mutates a value in place (constant_vector shares one value
    across every ideal in the same way).  ideals_to keeps each prefix of
    ideals() it has cut in _prefixes.
    """

    __slots__ = ("field", "domain", "bound", "gring", "gring_L", "_values", "_residues", "_prefixes")

    def __init__(self, field, domain, bound, values=None, gring=None, gring_L=1):
        if bound < 1:
            raise UsageError(f"vector bound must be >= 1, got {bound}")
        self.field = field
        self.domain = domain
        self.bound = bound
        self.gring = gring
        self.gring_L = gring_L
        self._values = dict(values) if values else {}
        self._residues: dict[int, dict] = {}
        self._prefixes: dict[int, tuple[IdealHNF, ...]] = {}
        if gring is not None:
            if not field.is_rational:
                raise UsageError("group-ring presentations exist only over Q")
            if values:
                raise UsageError("a group-ring vector takes no stored values")
            if not isinstance(domain, ExactCyclotomic) or domain.L != gring_L:
                raise UsageError("group-ring exponents must match the cyclotomic domain")

    def __repr__(self):
        tag = f", L={self.gring_L}" if self.gring is not None else ""
        return f"WittVector(d={self.field.d}, B={self.bound}, {self.domain!r}{tag})"

    def ideals(self) -> tuple[IdealHNF, ...]:
        return _ideals(self.field, self.bound)

    def ideals_to(self, bound: int) -> tuple[IdealHNF, ...]:
        """The ideals of norm <= bound: a prefix of ideals(), which is sorted by norm first."""
        out = self._prefixes.get(bound)
        if out is None:
            ideals = self.ideals()
            out = self._prefixes[bound] = ideals[: bisect_right(ideals, bound, key=IdealHNF.norm)]
        return out

    def value_at(self, a: IdealHNF):
        if self.gring is None:
            if a in self._values:
                return self._values[a]
            raise WittkitError(f"vector has no value at {ideal_label(a)}")
        r = a.a % self.gring_L
        v = self._residues.get(r)
        if v is None:
            v = self._residues[r] = self.domain.eval_formal(self.gring, r)
        return v

    def values_list(self) -> list:
        return [self.value_at(a) for a in self.ideals()]

    def to_json(self) -> dict:
        return {
            "schema": "wittkit/vector/1",
            "d": self.field.d,
            "bound": self.bound,
            "domain": self.domain.to_json(),
            "values": [
                [a.to_json(), self.domain.value_to_json(self.value_at(a))] for a in self.ideals()
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "WittVector":
        """Read back a wittkit/vector/1 object with a cyclotomic or big-complex domain."""
        if not isinstance(data, dict) or data.get("schema") != "wittkit/vector/1":
            raise UsageError("not a stored vector (schema wittkit/vector/1)")
        field = make_field(require_int(data.get("d"), "stored vector d"))
        domain, values = domain_from_json(data.get("domain")), data.get("values")
        if not isinstance(values, list) or not all(isinstance(v, list) and len(v) == 2 for v in values):
            raise UsageError("stored values must be a list of [ideal, value] pairs")
        vals = {}
        for ideal_json, vjson in values:
            try:
                vals[ideal_from_json(field, ideal_json)] = domain.value_from_json(vjson)
            except (TypeError, ValueError, IndexError):
                raise UsageError(f"malformed stored value {vjson!r}") from None
        xi = cls(field, domain, require_int(data.get("bound"), "stored vector bound"), values=vals)
        if set(vals) != set(xi.ideals()):
            raise UsageError(f"stored values do not match the ideals of norm <= {xi.bound}")
        return xi


def constant_vector(field, domain, bound, value) -> WittVector:
    vals = {a: value for a in _ideals(field, bound)}
    return WittVector(field, domain, bound, values=vals)


def all_ones(field, bound: int) -> WittVector:
    domain = cyclo_context(1)
    if field.is_rational:
        return WittVector(field, domain, bound, gring={0: Fraction(1)}, gring_L=1)
    return constant_vector(field, domain, bound, domain.one())


def zeta_gamma(q: int, p: int, bound: int) -> WittVector:
    """The vector n -> zeta_q^{pn} over Q, in the exact cyclotomic domain."""
    if q < 1:
        raise UsageError("denominator must be a positive integer")
    field = make_field(1)
    return WittVector(
        field, cyclo_context(q), bound, gring={p % q: Fraction(1)}, gring_L=q
    )


def zlinear_combine(coeffs, gammas, bound: int) -> WittVector:
    """Pointwise sum of coeff * zeta^(gamma) in the lcm cyclotomic domain."""
    if len(coeffs) != len(gammas):
        raise UsageError("need one coefficient per gamma")
    gammas = [Fraction(g) for g in gammas]
    L = 1
    for g in gammas:
        L = math.lcm(L, g.denominator)
    gring = _accumulate(
        {}, (((g.numerator * (L // g.denominator)) % L, Fraction(c)) for c, g in zip(coeffs, gammas)), 1
    )
    field = make_field(1)
    return WittVector(field, cyclo_context(L), bound, gring=gring, gring_L=L)


def rho_vector(a: IdealHNF, bound: int) -> WittVector:
    """The idempotent rho^a: component 1 on multiples of a, else 0."""
    if not a.is_integral():
        raise UsageError("rho needs an integral ideal")
    domain = cyclo_context(1)
    one, zero = domain.one(), domain.zero()
    vals = {b: (one if a.contains_ideal(b) else zero) for b in _ideals(a.field, bound)}
    return WittVector(a.field, domain, bound, values=vals)


def _same_domain(x: WittVector, y: WittVector):
    if x.field.d != y.field.d:
        raise UsageError("vectors live over different fields")
    dx, dy = x.domain, y.domain
    if dx != dy:
        raise UsageError(f"domain mismatch: {dx!r} vs {dy!r}")
    return dx


def shift(xi: WittVector, a: IdealHNF) -> WittVector:
    """Frobenius shift psi_a: component at b becomes the component at a*b."""
    if a.field.d != xi.field.d:
        raise UsageError("shift ideal lives over a different field")
    if not a.is_integral():
        raise UsageError("shifts are indexed by integral ideals")
    na = int(a.norm())
    new_bound = xi.bound // na
    if new_bound < 1:
        raise BoundExhaustedError(
            f"shift by {ideal_label(a)} (norm {na}) exhausts bound {xi.bound}"
        )
    if xi.gring is not None:
        g = formal_shift(xi.gring, a.a, xi.gring_L)
        return WittVector(xi.field, xi.domain, new_bound, gring=g, gring_L=xi.gring_L)
    vals = {b: xi.value_at(ideal_mul(a, b)) for b in _ideals(xi.field, new_bound)}
    return WittVector(xi.field, xi.domain, new_bound, values=vals)


def _pointwise(x: WittVector, y: WittVector, op_name: str) -> WittVector:
    domain = _same_domain(x, y)
    bound = min(x.bound, y.bound)
    if x.gring is not None and y.gring is not None and x.gring_L == y.gring_L:
        if op_name == "mul":
            g = formal_mul(x.gring, y.gring, x.gring_L)
        else:
            yg = formal_scale(y.gring, -1) if op_name == "sub" else y.gring
            g = formal_add(x.gring, yg)
        return WittVector(x.field, domain, bound, gring=g, gring_L=x.gring_L)
    op = getattr(domain, op_name)
    vals = {a: op(x.value_at(a), y.value_at(a)) for a in _ideals(x.field, bound)}
    return WittVector(x.field, domain, bound, values=vals)


def pointwise_add(x: WittVector, y: WittVector) -> WittVector:
    return _pointwise(x, y, "add")


def pointwise_sub(x: WittVector, y: WittVector) -> WittVector:
    return _pointwise(x, y, "sub")


def pointwise_mul(x: WittVector, y: WittVector) -> WittVector:
    return _pointwise(x, y, "mul")


def pointwise_pow(x: WittVector, e: int) -> WittVector:
    if e < 0:
        raise UsageError("pointwise powers take nonnegative exponents")
    if x.gring is not None:
        g = formal_pow(x.gring, e, x.gring_L)
        return WittVector(x.field, x.domain, x.bound, gring=g, gring_L=x.gring_L)
    vals = {a: x.domain.pow(x.value_at(a), e) for a in x.ideals()}
    return WittVector(x.field, x.domain, x.bound, values=vals)


# ---------------------------------------------------------------------------
# check_un


@dataclass
class CheckEntry:
    path: tuple[str, ...]
    kind: str  # "integrality" | "divisibility"
    verdict: str  # "pass" | "fail"
    detail: str = ""

    def to_json(self):
        return {
            "path": list(self.path),
            "kind": self.kind,
            "verdict": self.verdict,
            "detail": self.detail,
        }


@dataclass
class UnReport:
    passed: bool
    depth: int
    prime_norm_bound: int
    vector_bound: int
    field_d: int
    primes_used: list[str]
    primes_skipped: list[str]
    warnings: list[str]
    entries: list[CheckEntry]
    stats: dict = dc_field(default_factory=dict)

    def to_json(self):
        return {
            "schema": "wittkit/uncheck/1",
            "passed": self.passed,
            "depth": self.depth,
            "prime_norm_bound": self.prime_norm_bound,
            "vector_bound": self.vector_bound,
            "d": self.field_d,
            "primes_used": self.primes_used,
            "primes_skipped": self.primes_skipped,
            "warnings": self.warnings,
            "entries": [e.to_json() for e in self.entries],
            "stats": self.stats,
        }


@lru_cache(maxsize=64)
def _principal_prime_steps(field: QuadField, prime_norm_bound: int):
    """(steps, used, skipped, warnings) for the primes of norm <= the bound.

    Memoised per (field, bound), so the tuples are shared: check_un copies the
    label and warning tuples into lists of its own report.
    """
    steps, used, skipped, warnings = [], [], [], []
    for p in prime_ideals(field, prime_norm_bound):
        gen = is_principal(p)
        label = ideal_label(p)
        if gen is None:
            skipped.append(label)
            warnings.append(
                f"prime {label} of norm {int(p.norm())} is not principal; "
                "divisibility there was not tested"
            )
            continue
        steps.append((p, int(p.norm()), gen, label))
        used.append(label)
    return tuple(steps), tuple(used), tuple(skipped), tuple(warnings)


def _is_integer_gring(xi: WittVector) -> bool:
    return xi.gring is not None and all(c.denominator == 1 for c in xi.gring.values())


class _ModGring:
    """Dense coefficient array mod M over exponents mod L, with bound tracking."""

    __slots__ = ("arr", "L", "modulus", "bound")

    def __init__(self, arr, L, modulus, bound):
        self.arr = arr
        self.L = L
        self.modulus = modulus
        self.bound = bound

    @classmethod
    def from_vector(cls, xi: WittVector, modulus: int) -> "_ModGring":
        arr = [0] * xi.gring_L
        for k, c in xi.gring.items():
            arr[k] = int(c) % modulus
        return cls(arr, xi.gring_L, modulus, xi.bound)


@lru_cache(maxsize=1024)
def _psi_source(L: int, p: int) -> tuple[int, ...]:
    """For p prime to L: the exponent j * p^-1 mod L that psi_p moves to slot j."""
    q = pow(p, -1, L)
    return tuple(j * q % L for j in range(L))


def _psi(arr: list[int], L: int, p: int) -> list[int]:
    """psi_p (exponent k to k*p mod L) of a coefficient list, for a prime p.

    Group-ring vectors exist only over Q, so each step's norm p is a rational
    prime.  For p prime to L, psi_p permutes the exponents.  For p | L, slot
    m*p takes the sum of the coefficients at exponents m mod L/p and every
    other slot is 0.  Sums are not reduced: the caller reduces mod M.
    """
    if L % p:
        return list(map(arr.__getitem__, _psi_source(L, p)))
    Lp = L // p
    out = [0] * L
    out[::p] = map(sum, zip(*[arr[i : i + Lp] for i in range(0, L, Lp)]))
    return out


def _psi_step(g: _ModGring, p: int, powed: list[int], nm: int):
    """One certificate step on psi_p(g) - powed mod M: (bad, quot).

    bad is the first exponent whose coefficient p does not divide, or None.
    quot is the coefficient-wise quotient by p mod nm, built only when
    nothing is bad and nm > 1 (at the last level nothing reads it).  The
    difference is one pass; divisibility is one C-level any(), and only a
    failure walks the coefficients again to name the exponent.
    """
    M = g.modulus
    diff = list(map(M.__rmod__, map(operator.sub, _psi(g.arr, g.L, p), powed)))
    if any(map(p.__rmod__, diff)):
        return next(k for k, c in enumerate(diff) if c % p), None
    if nm == 1:
        return None, None
    return None, list(map(nm.__rmod__, map(p.__rfloordiv__, diff)))


def _kronecker_mul(a: list[int], b: list[int], L: int, M: int) -> list[int]:
    """Circular convolution mod x^L - 1 with coefficients mod M.

    Coefficients in [0, M) are packed into slots of one big integer so the
    convolution rides on big-int multiplication; a is b packs once.  Slots
    are whole 64-bit words, so packing and unpacking run through array('Q'):
    a slot is w = ceil(bits(n * (M-1)^2) / 64) words and at least one (so
    M = 1 and L = 1 get a word too), where n <= L is the smaller count of
    nonzero coefficients in a and b.  A coefficient of M > 2^64 is split
    into 64-bit limbs, one word apart, and a slot is joined back from its w
    words.  With one word and one limb (every depth-1 node of a depth-2
    certificate over primes <= 13, M = 30030) the lists pack and unpack
    as the words themselves, without the zero-filled buffer.

    Folding invariant.  Slot i of the product holds linear coefficient i,
    0 <= i <= 2L-2.  Circular coefficient j is linear coefficient j plus
    linear coefficient j+L: the sum of a_i * b_(j-i mod L) over i, in which
    each nonzero a_i meets one b index, so at most n products are nonzero,
    each at most (M-1)^2, and it fits one slot.  Hence (prod & mask) +
    (prod >> L*slot_bits) adds the high L-1 slots onto the low L with no
    carry between slots, and only L slots are unpacked.
    """
    n = L - max(a.count(0), b.count(0))
    w = max(1, -(-(n * (M - 1) * (M - 1)).bit_length() // 64))
    limbs = max(1, -(-(M - 1).bit_length() // 64))
    n_words = L * w
    one_word = w == 1 and limbs == 1

    def pack(v: list[int]) -> int:
        if one_word:
            words = array("Q", v)
        else:
            words = array("Q", bytes(8 * n_words))
            for j in range(limbs):
                words[j::w] = array("Q", v if limbs == 1 else [c >> (64 * j) & _WORD for c in v])
        if _BIG_ENDIAN:
            words.byteswap()
        return int.from_bytes(words, "little")

    pa = pack(a)
    prod = pa * (pa if a is b else pack(b))
    shift_bits = 64 * n_words
    folded = (prod & ((1 << shift_bits) - 1)) + (prod >> shift_bits)
    words = array("Q", folded.to_bytes(8 * n_words, "little"))
    if _BIG_ENDIAN:
        words.byteswap()
    if one_word:
        return list(map(M.__rmod__, words))
    out = words[0::w]
    for j in range(1, w):
        out = [c | h << (64 * j) for c, h in zip(out, words[j::w])]
    return [c % M for c in out]


def _chain_powers(g: _ModGring, norms) -> dict[int, list[int]]:
    """g^p for every p in norms, walking the sorted norms once.

    g^(p_i) = g^(p_(i-1)) * g^(p_i - p_(i-1)), with the gap powers memoised
    for this g, each built from the memo by one squaring and at most one
    multiplication by g.  Over Q with primes <= 13 (gaps 2, 1, 2, 2, 4, 2)
    that is 7 products in place of 20 for separate square-and-multiply
    powers.  Z/M[x]/(x^L - 1) is exact, so the powers are the same lists.
    """
    L, M, base = g.L, g.modulus, g.arr
    gaps = {1: base}

    def gap_pow(e: int) -> list[int]:
        out = gaps.get(e)
        if out is None:
            half = gap_pow(e // 2)
            out = _kronecker_mul(half, half, L, M)
            if e & 1:
                out = _kronecker_mul(out, base, L, M)
            gaps[e] = out
        return out

    powers: dict[int, list[int]] = {}
    prev_e, prev = 0, None
    for p in sorted(set(norms)):
        step = gap_pow(p - prev_e)
        prev = step if prev is None else _kronecker_mul(prev, step, L, M)
        prev_e = p
        powers[p] = prev
    return powers


def check_un(xi: WittVector, depth: int, prime_norm_bound: int) -> UnReport:
    """Recursive U_n membership test, reported with full truncation data."""
    if not xi.domain.exact:
        raise UsageError("check_un needs an exact domain; certify the vector first")
    if depth < 0:
        raise UsageError("depth must be >= 0")
    steps, used, skipped, warnings = _principal_prime_steps(xi.field, prime_norm_bound)
    used, skipped, warnings = list(used), list(skipped), list(warnings)
    if depth > 0 and not steps:
        warnings.append(
            f"no principal primes of norm <= {prime_norm_bound}; "
            "only depth-0 integrality was tested"
        )
    entries: list[CheckEntry] = []
    stats = {"components_scanned": 0, "certificate_levels": 0}

    ok = _vector_integral(xi, (), entries, stats)
    if depth > 0:
        if _is_integer_gring(xi) and steps:
            R = 1
            for _, np_, _, _ in steps:
                R *= np_
            mg = _ModGring.from_vector(xi, R**depth)
            ok = _rec_modular(mg, depth, (), steps, R, entries, stats) and ok
        else:
            ok = _rec_components(xi, depth, (), steps, entries, stats) and ok

    return UnReport(
        passed=ok,
        depth=depth,
        prime_norm_bound=prime_norm_bound,
        vector_bound=xi.bound,
        field_d=xi.field.d,
        primes_used=used,
        primes_skipped=skipped,
        warnings=warnings,
        entries=entries,
        stats=stats,
    )


def _vector_integral(xi: WittVector, path, entries, stats) -> bool:
    if _is_integer_gring(xi):
        stats["certificate_levels"] += 1
        entries.append(
            CheckEntry(
                path,
                "integrality",
                "pass",
                "group-ring coefficients are integers, so every component "
                "is a Z-combination of roots of unity",
            )
        )
        return True
    for a in xi.ideals():
        stats["components_scanned"] += 1
        if not xi.domain.is_algebraic_integer(xi.value_at(a)):
            entries.append(
                CheckEntry(
                    path,
                    "integrality",
                    "fail",
                    f"component at {ideal_label(a)} is not an algebraic integer",
                )
            )
            return False
    entries.append(CheckEntry(path, "integrality", "pass", ""))
    return True


def _rec_modular(mg: _ModGring, n: int, path, steps, R, entries, stats) -> bool:
    """Depth n of the tower on coefficients mod M = R^n, one pass per step.

    Per principal prime p the step is psi_p(g) - g^p mod M by index
    arithmetic (_psi_step), its divisibility by p, and the quotient mod
    R^(n-1), which the next depth tests.  Divisibility is verified mod M at
    every depth, as each entry says.
    """
    if n == 0:
        entries.append(
            CheckEntry(
                path,
                "integrality",
                "pass",
                "quotient coefficients are exact integer divisions",
            )
        )
        return True
    stats["certificate_levels"] += 1
    ok = True
    M = mg.modulus
    nm = R ** (n - 1)
    powers = _chain_powers(mg, [np_ for _, np_, _, _ in steps])
    for _, np_, _, label in steps:
        if mg.bound // np_ < 1:
            raise BoundExhaustedError(
                f"bound {mg.bound} cannot support a shift by {label} at path {path}"
            )
        bad, quot = _psi_step(mg, np_, powers[np_], nm)
        if bad is not None:
            raise WittkitError(
                "internal: coefficient certificate failed for an integer "
                f"group-ring vector at prime {label}, exponent {bad}"
            )
        entries.append(
            CheckEntry(
                path + (label,),
                "divisibility",
                "pass",
                f"all group-ring coefficients of psi - pow divisible by {np_} "
                f"(verified mod {M})",
            )
        )
        child = _ModGring(quot, mg.L, nm, mg.bound // np_)
        ok = _rec_modular(child, n - 1, path + (label,), steps, R, entries, stats) and ok
    return ok


def _rec_components(v: WittVector, n: int, path, steps, entries, stats) -> bool:
    if n == 0:
        # divisibility in _divide_vector already certified integrality
        entries.append(
            CheckEntry(path, "integrality", "pass", "certified during division")
        )
        return True
    ok = True
    for p, np_, gen, label in steps:
        if v.bound // np_ < 1:
            raise BoundExhaustedError(
                f"bound {v.bound} cannot support a shift by {label} at path {path}"
            )
        eta = pointwise_sub(shift(v, p), pointwise_pow(v, np_))
        quot, witness = _divide_vector(eta, gen, stats)
        if quot is None:
            entries.append(
                CheckEntry(path + (label,), "divisibility", "fail", witness)
            )
            ok = False
            continue
        entries.append(CheckEntry(path + (label,), "divisibility", "pass", ""))
        ok = _rec_components(quot, n - 1, path + (label,), steps, entries, stats) and ok
    return ok


def _divide_vector(eta: WittVector, gen, stats):
    vals = {}
    for a in eta.ideals():
        stats["components_scanned"] += 1
        q = eta.domain.div_prime(eta.value_at(a), gen)
        if q is None:
            return None, f"component at {ideal_label(a)} is not divisible by the generator"
        vals[a] = q
    return WittVector(eta.field, eta.domain, eta.bound, values=vals), None


# ---------------------------------------------------------------------------
# periodicity


def is_periodic_mod(xi: WittVector, f: IdealHNF) -> bool:
    """True iff each component equals the first one with the same ray key mod f.

    A group-ring vector with f = (m) over Q and bound >= lcm(m, L) is decided
    in closed form, without evaluating a component: it is periodic mod (m)
    iff L | k*m for every exponent k mod L whose coefficients sum to nonzero.
    The component at (n) is F(n) = sum_k c_k zeta_L^(kn), and over Q the ray
    key of (n) is n mod m.  F(n + m) - F(n) = sum_k c_k (zeta_L^(km) - 1)
    zeta_L^(kn) vanishes for all n iff every term does, as distinct
    characters of Z/L are linearly independent.  By CRT every pair of
    residues mod m and mod L that agree mod gcd(m, L) is taken by some
    n <= lcm(m, L), so the in-bound components already force F to be
    m-periodic.  Every other case scans the ray keys; the scan stays the
    oracle.
    """
    if not f.is_integral():
        raise UsageError("modulus must be an integral ideal")
    if xi.gring is not None and f.field.is_rational:
        m, L = f.a, xi.gring_L
        if xi.bound >= math.lcm(m, L):
            coeffs = _accumulate({}, ((k % L, c) for k, c in xi.gring.items()), 1)
            return all(k * m % L == 0 for k in coeffs)
    ideals = xi.ideals()
    if not ideals:
        raise InsufficientBoundError("vector has no components")
    key, eq = _ray_key(f), xi.domain.eq
    head: dict = {}
    for a in ideals:
        v = xi.value_at(a)
        w = head.setdefault(key(a), v)
        if w is not v and not eq(w, v):  # group-ring residues share one object
            return False
    return True


def find_modulus(xi: WittVector, candidates: list[IdealHNF]):
    """First candidate (divisors before multiples) with periodic components."""
    ordered = sorted(candidates, key=lambda f: (f.norm(), f.a, f.b, f.c))
    for f in ordered:
        if is_periodic_mod(xi, f):
            return f
    return None


# ---------------------------------------------------------------------------
# orbit monoids


@dataclass
class OrbitMonoid:
    field: QuadField
    bound: int
    prime_norm_bound: int
    vectors: list
    alphabet: list[IdealHNF]
    reps: list[IdealHNF]
    letter_action: list[list[int]]
    table: list[list[int]]
    identity: int = 0

    def __len__(self):
        return len(self.reps)

    def j_partition(self) -> list[list[int]]:
        return j_classes(self.table)

    def class_of(self, a: IdealHNF) -> int | None:
        return _locate(self.vectors, self.reps, a, {})

    def to_json(self):
        return {
            "schema": "wittkit/orbit/1",
            "d": self.field.d,
            "bound": self.bound,
            "prime_norm_bound": self.prime_norm_bound,
            "size": len(self.reps),
            "alphabet": [a.to_json() for a in self.alphabet],
            "reps": [r.to_json() for r in self.reps],
            "letter_action": self.letter_action,
            "table": self.table,
            "identity": self.identity,
            "j_classes": self.j_partition(),
        }


def _product(products: dict, a: IdealHNF, c: IdealHNF) -> IdealHNF:
    """a*c through the caller's product table.

    Each caller owns its table for the length of one call, so the products are
    shared across vectors and pairs but never outlive the call.
    """
    key = (a, c)
    ac = products.get(key)
    if ac is None:
        ac = products[key] = ideal_mul(a, c)
    return ac


def _common_ideals(xi: WittVector, a: IdealHNF, b: IdealHNF, na: int, nb: int):
    common = min(xi.bound // na, xi.bound // nb)
    if common < 1:
        raise BoundExhaustedError(
            f"cannot compare shifts by {ideal_label(a)} and {ideal_label(b)} "
            f"within bound {xi.bound}"
        )
    return xi.ideals_to(common)


def _shift_pairs(vectors, a: IdealHNF, b: IdealHNF, products: dict):
    """(domain, psi_a xi at c, psi_b xi at c) over each vector xi and each c in
    the comparable bound; a bound too small for both shifts raises on reaching it."""
    na, nb = int(a.norm()), int(b.norm())
    for xi in vectors:
        domain = xi.domain
        for c in _common_ideals(xi, a, b, na, nb):
            yield domain, xi.value_at(_product(products, a, c)), xi.value_at(_product(products, b, c))


def _shifts_equal(vectors, a: IdealHNF, b: IdealHNF, products: dict) -> bool:
    """Equality of psi_a and psi_b on every vector, over the comparable bound."""
    return a == b or all(dom.eq(x, y) for dom, x, y in _shift_pairs(vectors, a, b, products))


def _shift_gap(vectors, a: IdealHNF, b: IdealHNF, products: dict, cap):
    """Largest component gap between psi_a and psi_b over every vector.

    The scan stops at the first gap >= cap and returns it, so the result is
    below cap exactly when every gap is.  A gap is computed only where the
    domain cannot show from binades that it is below the largest one so far
    (BigComplex.gap_unless_below): such a gap, being below cap too, changes
    neither the stop nor the maximum.
    """
    worst = 0
    for dom, x, y in _shift_pairs(vectors, a, b, products):
        g = dom.gap_unless_below(x, y, worst)
        if g is None:
            continue
        if g >= cap:
            return g
        worst = max(worst, g)
    return worst


def _locate(vectors, reps: list[IdealHNF], cand: IdealHNF, products: dict) -> int | None:
    """Index of the first rep whose shifts equal cand's on every vector, else None."""
    return next((k for k, r in enumerate(reps) if _shifts_equal(vectors, cand, r, products)), None)


def orbit_monoid(vectors: list[WittVector], prime_norm_bound: int) -> OrbitMonoid:
    """Breadth-first closure of the shift orbit over primes of norm <= P."""
    if not vectors:
        raise UsageError("need at least one vector")
    field = vectors[0].field
    bound = vectors[0].bound
    for xi in vectors[1:]:
        if xi.field.d != field.d or xi.bound != bound:
            raise UsageError("orbit generators need a shared field and bound")
    alphabet = prime_ideals(field, prime_norm_bound)
    if not alphabet:
        raise UsageError(f"no primes of norm <= {prime_norm_bound}")

    reps: list[IdealHNF] = [unit_ideal(field)]
    letter_action: list[list[int]] = []
    products: dict = {}

    i = 0
    while i < len(reps):
        row = []
        for p in alphabet:
            cand = _product(products, reps[i], p)
            j = _locate(vectors, reps, cand, products)
            if j is None:
                reps.append(cand)
                j = len(reps) - 1
            row.append(j)
        letter_action.append(row)
        i += 1

    table = []
    for ri in reps:
        row = []
        for rj in reps:
            k = _locate(vectors, reps, _product(products, ri, rj), products)
            if k is None:
                raise BoundExhaustedError(
                    f"product {ideal_label(ri)}*{ideal_label(rj)} matches no rep; "
                    "orbit not provably closed at this truncation"
                )
            row.append(k)
        table.append(row)

    return OrbitMonoid(
        field=field,
        bound=bound,
        prime_norm_bound=prime_norm_bound,
        vectors=list(vectors),
        alphabet=list(alphabet),
        reps=reps,
        letter_action=letter_action,
        table=table,
    )


def dim_x(vectors: list[WittVector], prime_norm_bound: int) -> int:
    """dim_K X_Xi: the element count of the orbit monoid."""
    return len(orbit_monoid(vectors, prime_norm_bound).reps)


def _cyclic_candidates(max_den: int, coeff_bound: int, limit: int):
    """Up to limit combinations c*zeta^gamma, then c1*zeta^g1 + c2*zeta^g2.

    gamma runs over reduced fractions in (0, 1) with denominator <= max_den,
    and each c over the nonzero integers in [-coeff_bound, coeff_bound].
    """
    gammas = sorted(
        {
            Fraction(p, q)
            for q in range(2, max_den + 1)
            for p in range(1, q)
            if math.gcd(p, q) == 1
        }
    )
    coeffs = [c for c in range(-coeff_bound, coeff_bound + 1) if c]
    count = 0
    for g in gammas:
        for c in coeffs:
            yield ((c, g),)
            count += 1
            if count >= limit:
                return
    for i in range(len(gammas)):
        for j in range(i + 1, len(gammas)):
            for c1 in coeffs:
                for c2 in coeffs:
                    yield ((c1, gammas[i]), (c2, gammas[j]))
                    count += 1
                    if count >= limit:
                        return


def cyclic_search(
    target_size: int,
    *,
    max_den: int,
    coeff_bound: int,
    limit: int,
    max_hits: int,
    bound: int,
    primes: int,
) -> dict:
    """Search small integer combinations of zeta^(gamma) for a target orbit size.

    Exploratory only: hits are reported as found, and nothing is claimed
    about combinations outside the enumerated window.  Candidates whose
    orbit does not close within the bound are skipped.  Returns the
    wittkit/cyclic-search/1 payload.
    """
    hits = []
    tried = 0
    for combo in _cyclic_candidates(max_den, coeff_bound, limit):
        tried += 1
        xi = zlinear_combine([c for c, _ in combo], [g for _, g in combo], bound)
        try:
            monoid = orbit_monoid([xi], primes)
        except InsufficientBoundError:
            continue
        if len(monoid) == target_size:
            hits.append(
                {
                    "terms": [[c, str(g)] for c, g in combo],
                    "orbit_size": len(monoid),
                    "reps": [ideal_label(r) for r in monoid.reps],
                }
            )
            if len(hits) >= max_hits:
                break
    return {
        "schema": "wittkit/cyclic-search/1",
        "target_size": target_size,
        "tried": tried,
        "n_hits": len(hits),
        "hits": hits,
        "note": "exploratory search over a finite window; asserts nothing",
    }


class _UnionFind:
    __slots__ = ("parent",)

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, x: int, y: int) -> None:
        self.parent[self.find(y)] = self.find(x)

    def labels(self) -> list[int]:
        """Component labels numbered in order of first appearance."""
        canon: dict[int, int] = {}
        return [canon.setdefault(self.find(i), len(canon)) for i in range(len(self.parent))]


def pairwise_partition(n: int, same) -> list[int]:
    """Labels of the classes of range(n) under the closure of same(i, j), i < j.

    Pairs are merged with union-find and a pair already in one class is not
    compared, so a tolerance-based same() that is not transitive still
    yields a partition.  Labels number classes in order of first appearance.
    """
    uf = _UnionFind(n)
    for i in range(n):
        for j in range(i + 1, n):
            if uf.find(i) != uf.find(j) and same(i, j):
                uf.union(i, j)
    return uf.labels()


def _float_signature(vectors, a: IdealHNF) -> list[float] | None:
    """float(Re) and float(Im) of xi(a) for each vector, or None when a lies
    beyond some vector's bound or a coordinate is inf or nan."""
    if any(a.norm() > xi.bound for xi in vectors):
        return None
    sig = []
    for xi in vectors:
        v = xi.value_at(a)
        sig += (float(v.real), float(v.imag))
    return sig if all(map(math.isfinite, sig)) else None


def _floats_apart(s: list[float], t: list[float], slack: float) -> bool:
    return any(abs(x - y) > slack + (abs(x) + abs(y)) * 2.0**-50 for x, y in zip(s, t))


def shift_partitions(
    vectors: list[WittVector], ideals: list[IdealHNF], tol, loose
) -> tuple[list[int], list[int]]:
    """Partitions by shift equality within tol and within loose >= tol, in one pass.

    Both partitions are the components of "every component gap < tolerance",
    so each pair needs one gap scan, capped at loose, or at tol once the pair
    already shares a loose class; a pair sharing a tol class is skipped.  The
    vectors' domains must measure gaps (BigComplex.gap_unless_below), and
    each vector must hold a value at every ideal within its bound.

    A pair (a, b) whose float signatures (_float_signature) differ in some
    coordinate by |x - y| > 2*float(loose) + (|x| + |y|)*2^-50 + 2^-1000 is
    skipped without a scan.  This is exact: the scan compares xi(a) with
    xi(b) at c = O_K, where the gap is at least |Re or Im of xi(a) - xi(b)|,
    and float() of an mpf errs by at most |X|*2^-52 + 2^-1074 under any
    rounding mode, so after every float rounding (float(loose) included,
    even when it underflows to 0) that coordinate of xi(a) - xi(b) still
    exceeds 1.99*loose + 2^-1001, far beyond the rounding of the gap
    itself.  The scan would therefore have found a gap >= loose and joined
    neither partition; the union-find components and their
    first-appearance labels are unchanged.  A pair with a missing
    signature (a norm above some bound, or a coordinate inf or nan) is
    scanned as before, so BoundExhaustedError is raised at the same pair.
    The skip reads floats because they are still the cheapest exact test,
    though BigComplex.below no longer takes a square root: on each of the
    three desk triples at prec 120 (2 vCPUs, Python 3.11, mpmath 1.3.0 on
    its Python backend) this pass took 8-24 ms, the same skip by
    BigComplex.below at c = O_K 11-49 ms, and no skip at all 14-101 ms.
    """
    n = len(ideals)
    strict, wide = _UnionFind(n), _UnionFind(n)
    products: dict = {}
    sigs = [_float_signature(vectors, a) for a in ideals]
    slack = 2 * float(loose) + 2.0**-1000
    for i in range(n):
        for j in range(i + 1, n):
            if strict.find(i) == strict.find(j):
                continue
            if sigs[i] is not None and sigs[j] is not None and _floats_apart(sigs[i], sigs[j], slack):
                continue
            joined = wide.find(i) == wide.find(j)
            g = _shift_gap(vectors, ideals[i], ideals[j], products, tol if joined else loose)
            if g < tol:
                strict.union(i, j)
            if g < loose and not joined:
                wide.union(i, j)
    return strict.labels(), wide.labels()


# ---------------------------------------------------------------------------
# component fields


@dataclass
class ComponentBlock:
    states: list[int]
    rep: IdealHNF
    n_values: int
    degree_over_field: int | None
    certified: bool
    method: str
    note: str = ""

    def to_json(self):
        return {
            "states": self.states,
            "rep": self.rep.to_json(),
            "n_values": self.n_values,
            "degree_over_field": self.degree_over_field,
            "certified": self.certified,
            "method": self.method,
            "note": self.note,
        }


@dataclass
class ComponentReport:
    field_d: int
    bound: int
    prime_norm_bound: int
    blocks: list[ComponentBlock]

    @property
    def n_components(self) -> int:
        return len(self.blocks)

    def to_json(self):
        return {
            "schema": "wittkit/components/1",
            "d": self.field_d,
            "bound": self.bound,
            "prime_norm_bound": self.prime_norm_bound,
            "n_components": self.n_components,
            "blocks": [b.to_json() for b in self.blocks],
        }


def component_report(xi: WittVector, prime_norm_bound: int, dmax: int = 4) -> ComponentReport:
    """J-partition of the orbit monoid with per-class component-field degrees."""
    orbit = orbit_monoid([xi], prime_norm_bound)
    blocks = []
    for states in orbit.j_partition():
        values = [v for s in states for v in shift(xi, orbit.reps[s]).values_list()]
        vals, _ = distinct_values(xi.domain, values)
        deg, certified, method, note = _component_degree(xi, vals, dmax)
        blocks.append(
            ComponentBlock(
                states=states,
                rep=orbit.reps[states[0]],
                n_values=len(vals),
                degree_over_field=deg,
                certified=certified,
                method=method,
                note=note,
            )
        )
    return ComponentReport(
        field_d=xi.field.d,
        bound=xi.bound,
        prime_norm_bound=prime_norm_bound,
        blocks=blocks,
    )


def distinct_values(domain, values) -> tuple[list, list[int]]:
    """(reps, labels): each value joins the first rep the domain calls equal, else
    becomes a rep.  Never transitive, so a chain of near values can still split."""
    reps: list = []
    labels: list[int] = []
    for v in values:
        k = next((i for i, r in enumerate(reps) if domain.eq(v, r)), None)
        if k is None:
            k = len(reps)
            reps.append(v)
        labels.append(k)
    return reps, labels


def _component_degree(xi: WittVector, vals, dmax):
    domain = xi.domain
    if domain.kind == "cyclotomic":
        return domain.subfield_degree(vals), True, "cyclotomic-galois", ""
    from . import algrec

    polys = []
    for v in vals:
        if domain.kind == "numberfield":
            poly = algrec.exact_minpoly_nf(domain, v)
        else:
            poly = algrec.minpoly(v, dmax, prec=domain.prec)
            poly = poly.coeffs if poly is not None else None
        if poly is None:
            return None, False, "lll", f"no relation of degree <= {dmax} found"
        polys.append(tuple(poly))
    method = "charpoly-factor" if domain.kind == "numberfield" else "lll"
    distinct = sorted(set(polys))
    if all(len(coeffs) == 2 for coeffs in distinct):  # every value is rational
        return 1, True, method, ""
    if len(distinct) > 1:
        return (
            None,
            False,
            method,
            "values have different minimal polynomials; compositum degree not certified",
        )
    coeffs = distinct[0]
    deg = len(coeffs) - 1
    if deg == 2:
        c0, c1, c2 = coeffs
        disc = c1 * c1 - 4 * c0 * c2
        if xi.field.is_rational or not _same_quadratic(disc, xi.field.d):
            return 2, True, method, ""
        return 1, True, method, "values already generate K"
    return (
        None,
        False,
        method,
        f"degree-{deg} component; degree over K not certified beyond quadratics",
    )


def _same_quadratic(disc: int, d: int) -> bool:
    """Whether Q(sqrt(disc)) = Q(sqrt(d)) for squarefree d."""
    if disc == 0:
        return False
    sf = math.prod(p for p, e in factor_int(abs(disc)) if e % 2)
    return (sf if disc > 0 else -sf) == d
