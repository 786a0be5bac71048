"""Modular and elliptic functions at CM points, and the vectors they induce.

E4, E6 and Delta (hence g2, g3 and j) come from their q-expansions, Delta
through the eta product so that it can be cross-checked against
g2^3 - 27*g3^2.  They stay on the q-series because stored j vectors print
guard digits, so their bits must not move.  The Weierstrass function wp is
a theta quotient, wp(z) = e3 + (pi*theta2*theta3*theta4(pi*z)/theta1(pi*z))^2
at nome e^(i*pi*tau): the theta constants are summed once per series, and
each Fricke index there sums only theta1(pi*z) and theta4(pi*z), about 11
terms at 120 digits where the Lambert series took about 68.  wp' keeps its
own Lambert series, so the Weierstrass differential equation still compares
two independently summed paths.

Before any series is summed, tau is moved into the standard fundamental
domain by SL2(Z); weight factors (for g2, g3, Delta) and the Fricke index a
(via f_a(g*tau) = f_{a*g}(tau)) are transported along the same matrix, so
|q| <= e^(-pi*sqrt(3)) and term counts stay small at any precision.

A deformation family (j, a Fricke index, or a characteristic subset of
M2(Z/N)) is evaluated at every integral ideal a of norm <= B by pairing the
CM point tau of the inverse ideal with the exact matrix expressing (omega, 1)
in the chosen lattice basis, which cm_point builds and checks once per ideal
(characteristic families read it mod N); the result is a Witt vector with
big-complex components.  One evaluator does this on two kinds of key,
which differ only in how each ideal's point is built.

Numeric keys (family_vectors, so modular_vector, level_family_vectors and
every stored vector) are each ideal's numeric tau bits and precision:
stored vectors print guard digits, which depend on that tau, and it
depends on the basis of the inverse ideal, not only on the point, so a key
by the element w1/w2 of K would let one ideal decide another's digits.

Exact keys (_keyed_family_vectors, read by the desk check modularity_check
in the CLI and pipeline) are reduced forms.  Each CM point w1/w2 is an
element of K on a primitive form of discriminant disc(K); Gauss reduction
(qfield.reduce_form, class_group's convention) takes it to one of the h
reduced forms by an exact g in SL2(Z), whose root (-B + sqrt(D))/(2A) is
computed from integers.  A Fricke index is carried along the CM matrix and
g^-1 and folded under +-1, so ideals with one key read one value object.
The desk payload prints no component and its verdicts have a tolerance of
10^-(prec/3), so the last bits of a component do not reach it.

Both point builders refuse a bad precision (BigComplex) before any CM
point is built or form reduced.  The read-off (_read_off) evaluates what
the families lack at each key (the series with its j, theta constants and
Fricke components) across the CPUs in the process's affinity mask, share i
of n taking the pending keys i, i+n, ..., and reads the vectors off in
family and then ideal order.  The process takes one share and forked
children the others; each child evaluates its share with the same code
and pickles back its series whole, theta constants included, so the
cache holds what one process would have computed.  There is no option; one CPU (taskset -c 0), no fork, a second
live thread or fewer than 2*_MIN_SHARE pending keys mean one process, so
the default desk triples (at most 2 forms each, 4 series) never fork.
What a failed child leaves is evaluated in the read-off, so every error is
raised in-process, in family and then ideal order.  The public eisenstein,
j_invariant and fricke sum a fresh series on every call and serve as the
uncached oracle; family_vectors is in turn the oracle of exact keys.

The modularity desk check (modularity_check) partitions the ideals of norm
<= B by shift equality of the level-N family vectors and compares that
partition with the ray classes mod N*O_K.
"""

from __future__ import annotations

import math
import os
import pickle
import threading
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

import mpmath
from mpmath.libmp import mpc_add, mpc_div, mpc_mul, mpc_mul_int, mpc_one, mpc_pow_int, mpc_sub, round_nearest

from .domains import GUARD_DIGITS, BigComplex
from .errors import PrecisionError, UsageError, WittkitError
from .qfield import (
    IdealHNF,
    QuadElement,
    QuadField,
    _ideal_from_int_pairs,
    ideal_add,
    ideal_inverse,
    primes_over_norm,
    principal_ideal,
    reduce_form,
    valuation,
)
from .rayclass import classify_ideals
from .witt import WittVector, _ideals, ideal_label, shift_partitions

DEFAULT_PREC = 120
_TERM_BUDGET = 200000
_REDUCE_MAX = 10000


def _frac_mpf(x):
    x = Fraction(x)
    return mpmath.mpf(x.numerator) / x.denominator


def omega_numeric(field: QuadField):
    """omega, the CM point of O_K, as an mpc at the current working precision."""
    if field.is_rational:
        raise UsageError("the rational field has no CM point")
    root = mpmath.sqrt(-field.disc)
    return (field.omega_s + mpmath.mpc(0, 1) * root) / 2


def qelem_numeric(e: QuadElement):
    return _frac_mpf(e.x) + _frac_mpf(e.y) * omega_numeric(e.field)


# ---------------------------------------------------------------------------
# SL2(Z) reduction


def _reduce_tau(t):
    """Return (t', (p, q, r, s)) with t' = (p*t + q)/(r*t + s) in the fundamental domain."""
    p, q, r, s = 1, 0, 0, 1
    eps = mpmath.mpf(10) ** (-mpmath.mp.dps + 3)
    for _ in range(_REDUCE_MAX):
        n = int(mpmath.floor(t.real + mpmath.mpf("0.5")))
        if n:
            t = t - n
            p, q = p - n * r, q - n * s
        if abs(t) < 1 - eps:
            t = -1 / t
            p, q, r, s = -r, -s, p, q
        else:
            return t, (p, q, r, s)
    raise PrecisionError("tau reduction did not converge")


def _apply_mobius(g, t):
    p, q, r, s = g
    return (p * t + q) / (r * t + s)


def _reduced_with_guard(tau, prec):
    """Reduce tau and pick a working precision absorbing the Delta cancellation.

    The cross-check Delta = g2^3 - 27*g3^2 loses about 2*pi*Im(tau)*log10(e)
    digits to cancellation when Im(tau) is large, so the guard grows with the
    reduced imaginary part.
    """
    with mpmath.workdps(prec + GUARD_DIGITS):
        t = mpmath.mpc(tau)
        if not t.imag > 0:
            raise UsageError("tau must lie in the upper half plane")
        tred, g = _reduce_tau(t)
        extra = int(2 * math.pi * math.log10(math.e) * float(tred.imag)) + 2
    dps = prec + GUARD_DIGITS + extra
    with mpmath.workdps(dps):
        tred = _apply_mobius(g, mpmath.mpc(tau))
    return tred, g, dps


# ---------------------------------------------------------------------------
# Eisenstein series and j


def _nterms(im_tau, dps):
    m = int((dps + 8) * math.log(10) / (2 * math.pi * float(im_tau))) + 12
    if m > _TERM_BUDGET:
        raise PrecisionError(
            f"series needs {m} terms at Im(tau) = {float(im_tau):.3g}; precision unreachable"
        )
    return m


def _eis_series(t):
    """(q, g2, g3, Delta) at a reduced tau, Delta via the eta product.

    The term loop runs on libmp tuples at mp.prec, rounding to nearest, with
    the operations the mpc operators would call in the same order, so every
    bit is theirs; tests/test_modular.py keeps the mpc loop as the oracle.
    """
    q = mpmath.expjpi(2 * t)
    terms = _nterms(t.imag, mpmath.mp.dps)
    prec, rnd = mpmath.mp.prec, round_nearest
    qv = q._mpc_
    e4 = e6 = prod = qn = mpc_one
    for n in range(1, terms + 1):
        qn = mpc_mul(qn, qv, prec, rnd)
        dn = mpc_sub(mpc_one, qn, prec, rnd)
        f = mpc_div(qn, dn, prec, rnd)
        n3 = n * n * n
        e4 = mpc_add(e4, mpc_mul_int(f, 240 * n3, prec, rnd), prec, rnd)
        e6 = mpc_sub(e6, mpc_mul_int(f, 504 * n3 * n * n, prec, rnd), prec, rnd)
        prod = mpc_mul(prod, mpc_pow_int(dn, 24, prec, rnd), prec, rnd)
    e4, e6, prod = (mpmath.mp.make_mpc(v) for v in (e4, e6, prod))
    pi4 = mpmath.pi**4
    g2 = (4 * pi4 / 3) * e4
    g3 = (8 * pi4 * mpmath.pi**2 / 27) * e6
    delta = (2 * mpmath.pi) ** 12 * q * prod
    return q, g2, g3, delta


@dataclass(slots=True)
class _Series:
    """tau reduced by g = (p, q, r, s), the working dps, and the series there.

    A pure function of tau's bits and prec, so CM vectors share one per key
    (_series_at): per distinct (tau, prec) on the numeric path, per
    (form, prec) on exact keys.  `j` is filled on first request,
    after the Delta and j cross-checks, and `theta` on the first Fricke
    request.  `fricke` maps (index, power) to the Fricke component there
    and `prefactor` maps a power k to its factor g2*g3/Delta, g2^2/Delta or
    g3/Delta.
    """

    tred: object
    g: tuple[int, int, int, int]
    dps: int
    q: object
    g2: object
    g3: object
    delta: object
    j: object = None
    theta: _Theta | None = None
    fricke: dict = dc_field(default_factory=dict)
    prefactor: dict = dc_field(default_factory=dict)


def _series(tau, prec) -> _Series:
    tred, g, dps = _reduced_with_guard(tau, prec)
    with mpmath.workdps(dps):
        return _Series(tred, g, dps, *_eis_series(tred))


def _checked_j(ser: _Series, prec):
    """j = 1728*g2^3/Delta at the reduced tau, with Delta cross-checked
    against g2^3 - 27*g3^2 and j against the j that difference gives."""
    if ser.j is None:
        with mpmath.workdps(ser.dps):
            d_eis = ser.g2**3 - 27 * ser.g3**2
            tol = mpmath.mpf(10) ** (-(prec - 10))
            if abs(d_eis - ser.delta) > abs(ser.delta) * tol:
                raise PrecisionError("Delta series disagree beyond 10^(-prec+10)")
            jv = 1728 * ser.g2**3 / ser.delta
            j2 = 1728 * ser.g2**3 / d_eis
            if abs(j2 - jv) > (1 + abs(jv)) * tol:
                raise PrecisionError("j cross-check failed beyond 10^(-prec+10)")
        ser.j = jv
    return ser.j


def eisenstein(tau, prec: int = DEFAULT_PREC):
    """(g2, g3, Delta, j) for the lattice Z*tau + Z.

    Delta comes from the eta product and is cross-checked against
    g2^3 - 27*g3^2 to 10^(-prec+10); j = 1728*g2^3/Delta.
    """
    ser = _series(tau, prec)
    jv = _checked_j(ser, prec)
    with mpmath.workdps(ser.dps):
        _, _, r, s = ser.g
        w = r * mpmath.mpc(tau) + s
        return ser.g2 / w**4, ser.g3 / w**6, ser.delta / w**12, jv


def j_invariant(tau, prec: int = DEFAULT_PREC):
    return _checked_j(_series(tau, prec), prec)


# ---------------------------------------------------------------------------
# Weierstrass functions


def _reduce_z(z, t, dps):
    """z modulo Z*t + Z, recentred so |Im z| <= Im(t)/2; returns (z, e^(i pi z))."""
    m = int(mpmath.nint(z.imag / t.imag))
    z = z - m * t
    n = int(mpmath.nint(z.real))
    z = z - n
    w = mpmath.expjpi(z)
    if abs(w * w - 1) < mpmath.mpf(10) ** (-dps + 8):
        raise UsageError("z lies in the lattice Z*tau + Z")
    return z, w


def _theta_terms(im_tau, dps):
    """Least n with pi*Im(tau)*(n^2 - 1/4) >= (dps + 8)*ln(10).

    Term j of the theta sums below is at most e^(-pi*Im(tau)*((j-1)^2 - 1)/4)
    relative to the leading one (for |Im z| <= Im(tau)/2), so j <= 2n
    suffices.
    """
    n = math.ceil(math.sqrt((dps + 8) * math.log(10) / (math.pi * float(im_tau)) + 0.25))
    if 2 * n + 1 > _TERM_BUDGET:
        raise PrecisionError(
            f"theta sums need {2 * n + 1} terms at Im(tau) = {float(im_tau):.3g}; precision unreachable"
        )
    return n


@dataclass(frozen=True, slots=True)
class _Theta:
    """Theta constants at nome qh = e^(i pi tau), tau reduced.

    coef[j] = (-1)^floor(j/2) * qh^floor(j^2/4) for j <= 2n: the even j carry
    theta3/theta4's qh^(k^2), the odd j theta2/theta1's qh^(k(k+1)).
    th2 is theta2/qh^(1/4); e3 = -(pi^2/3)*(theta2^4 + theta3^4).
    """

    coef: tuple
    th2: object
    th3: object
    th4: object
    e3: object


def _theta_constants(t, dps) -> _Theta:
    """Sum theta2, theta3, theta4 at a reduced tau, checked by Jacobi's identity
    theta3^4 = theta2^4 + theta4^4 (three independent sums)."""
    qh = mpmath.expjpi(t)
    n = _theta_terms(t.imag, dps)
    p = step = mpmath.mpc(1)
    coef = [p, p]
    for j in range(2, 2 * n + 1):
        if j % 2 == 0:
            step *= qh
        p *= step
        coef.append(-p if j % 4 >= 2 else p)
    th2 = 2 * (sum(coef[1::4]) - sum(coef[3::4]))
    th3 = 1 + 2 * (sum(coef[4::4]) - sum(coef[2::4]))
    th4 = 1 + 2 * sum(coef[2::2])
    th2_4 = qh * th2**4
    th3_4 = th3**4
    if abs(th3_4 - th2_4 - th4**4) > mpmath.mpf(10) ** (-(dps - GUARD_DIGITS)):
        raise PrecisionError("theta constants fail Jacobi's identity")
    return _Theta(tuple(coef), th2, th3, th4, -(mpmath.pi**2 / 3) * (th2_4 + th3_4))


def _theta_z(w, coef):
    """(t1, t4) with theta1(pi z) = -i*qh^(1/4)*t1 and theta4(pi z) = t4, w = e^(i pi z).

    x_j = w^j + (-w)^(-j) follows x_(j+1) = (w - 1/w)*x_j + x_(j-1): the odd
    x_j are the sine terms of theta1, the even ones the cosine terms of
    theta4, so each term costs two multiplications.
    """
    c = w - 1 / w
    x0, x1 = 2, c
    t1, t4 = c, mpmath.mpc(1)
    for j in range(2, len(coef)):
        x0, x1 = x1, c * x1 + x0
        if j % 2:
            t1 += coef[j] * x1
        else:
            t4 += coef[j] * x1
    return t1, t4


def _wp_theta(w, th: _Theta):
    """wp(z) = e3 + (pi*theta2*theta3*theta4(pi z)/theta1(pi z))^2, w = e^(i pi z)."""
    t1, t4 = _theta_z(w, th.coef)
    # theta2/theta1(pi z) = i*th2/t1: the qh^(1/4) factors cancel
    return th.e3 - (mpmath.pi * th.th2 * th.th3 * t4 / t1) ** 2


def _wpp_core(u, q, terms):
    acc = u * (1 + u) / (1 - u) ** 3
    qn = mpmath.mpc(1)
    for _ in range(terms):
        qn = qn * q
        a1 = qn * u
        a2 = qn / u
        acc += a1 * (1 + a1) / (1 - a1) ** 3 - a2 * (1 + a2) / (1 - a2) ** 3
    return (2 * mpmath.pi * mpmath.mpc(0, 1)) ** 3 * acc


def _wp_setup(z, tau, prec):
    """Reduced tau, the weight factor r*tau + s, e^(i pi z) for the reduced z, and the dps."""
    tred, g, dps = _reduced_with_guard(tau, prec)
    with mpmath.workdps(dps):
        _, _, r, s = g
        scale = r * mpmath.mpc(tau) + s
        _, w = _reduce_z(mpmath.mpc(z) / scale, tred, dps)
    return tred, scale, w, dps


def wp(z, tau, prec: int = DEFAULT_PREC):
    """Weierstrass p-function for the lattice Z*tau + Z, as a theta quotient."""
    tred, scale, w, dps = _wp_setup(z, tau, prec)
    with mpmath.workdps(dps):
        return _wp_theta(w, _theta_constants(tred, dps)) / scale**2


def wp_prime(z, tau, prec: int = DEFAULT_PREC):
    """Derivative of wp, summed by its own Lambert series (not differenced from wp)."""
    tred, scale, w, dps = _wp_setup(z, tau, prec)
    with mpmath.workdps(dps):
        q = mpmath.expjpi(2 * tred)
        return _wpp_core(w * w, q, _nterms(tred.imag, dps) + 2) / scale**3


# ---------------------------------------------------------------------------
# Fricke functions


def _a_pair(a) -> tuple[Fraction, Fraction]:
    a1, a2 = a
    return (Fraction(a1) % 1, Fraction(a2) % 1)


def _transport(a, m) -> tuple[Fraction, Fraction]:
    """The Fricke index a carried along the integer matrix m: the row vector a*m mod 1."""
    a1, a2 = a
    (m11, m12), (m21, m22) = m
    return ((a1 * m11 + a2 * m21) % 1, (a1 * m12 + a2 * m22) % 1)


def fricke(a, tau, k: int = 1, prec: int = DEFAULT_PREC):
    """f_a(tau) = (g2*g3/Delta) * wp(a1*tau + a2)^1, with the k = 2, 3 variants
    (g2^2/Delta)*wp^2 and (g3/Delta)*wp^3 used for the extra-unit fields."""
    a1, a2 = _a_pair(a)
    if a1 == 0 and a2 == 0:
        raise UsageError("a must be nonzero mod Z^2 (the a = 0 member is j)")
    if k not in (1, 2, 3):
        raise UsageError(f"Fricke power must be 1, 2 or 3, got {k}")
    return _fricke_at((a1, a2), _series(tau, prec), k)


def _fricke_at(a, ser: _Series, k: int):
    """fricke() on a series already summed; a is a nonzero pair reduced mod 1."""
    p, q_, r, s = ser.g
    b1, b2 = _transport(a, ((s, -q_), (-r, p)))
    with mpmath.workdps(ser.dps):
        z = _frac_mpf(b1) * ser.tred + _frac_mpf(b2)
        _, w = _reduce_z(z, ser.tred, ser.dps)
        if ser.theta is None:
            ser.theta = _theta_constants(ser.tred, ser.dps)
        pval = _wp_theta(w, ser.theta)
        pre = ser.prefactor.get(k)
        if pre is None:
            pre = ser.prefactor[k] = (ser.g2 * ser.g3 if k == 1 else ser.g2**2 if k == 2 else ser.g3) / ser.delta
        return pre * (pval if k == 1 else pval**k)


def fricke_power(d: int) -> int:
    """The power forced by the unit group: 2 for d = -1, 3 for d = -3, else 1."""
    if d == -1:
        return 2
    if d == -3:
        return 3
    return 1


# ---------------------------------------------------------------------------
# CM points and level matrices


@dataclass(frozen=True)
class CmPoint:
    """tau = w1/w2 for a basis (w1, w2) of the inverse ideal, and the exact
    integer matrix writing (omega, 1) in that basis (det = N(a))."""

    w1: QuadElement
    w2: QuadElement
    tau: object
    matrix: tuple[tuple[int, int], tuple[int, int]]


_CM_CACHE: dict = {}
_SERIES_CACHE: dict = {}


def clear_caches():
    _CM_CACHE.clear()
    _SERIES_CACHE.clear()


def _int_div(num: int, den: int) -> int:
    if num % den:
        raise WittkitError(f"expected exact division {num}/{den} in level matrix")
    return num // den


def _cm_basis(a: IdealHNF):
    """(w1, w2, matrix): the basis of the inverse ideal behind a's CM point and
    the exact integer matrix writing (omega, 1) in it, each checked.

    The inverse is (1/den)*(Z*a' + Z*(b' + c'*omega)) in HNF, so w1 = (b' +
    c'*omega)/den (it carries omega, so w1/w2 lies in the upper half plane)
    and w2 = a'/den; the matrix and its checks are identities on these
    integers.
    """
    f = a.field
    if f.is_rational:
        raise UsageError("CM points exist only over imaginary quadratic fields")
    if not a.is_integral():
        raise UsageError("CM points are computed for integral ideals")
    inv = ideal_inverse(a)
    ai, bi, ci, den = inv.a, inv.b, inv.c, inv.den
    if _ideal_from_int_pairs(f, [(bi, ci), (ai, 0)], den) != inv:
        raise WittkitError("CM basis does not span the inverse ideal")
    m11, m12 = _int_div(den, ci), -_int_div(den * bi, ci * ai)
    m22 = _int_div(den, ai)
    # row 1: m11*w1 + m12*w2 = omega; row 2: m22*w2 = 1
    if m11 * bi + m12 * ai != 0 or m11 * ci != den:
        raise WittkitError("level matrix row 1 does not reproduce omega")
    if m22 * ai != den:
        raise WittkitError("level matrix row 2 does not reproduce 1")
    if m11 * m22 != a.norm():
        raise WittkitError(f"level matrix determinant {m11 * m22} != N(a) = {a.norm()}")
    w1 = QuadElement(f, Fraction(bi, den), Fraction(ci, den))
    w2 = QuadElement(f, Fraction(ai, den), Fraction(0))
    return w1, w2, ((m11, m12), (0, m22))


def cm_point(a: IdealHNF, prec: int = DEFAULT_PREC) -> CmPoint:
    """Basis (w1, w2) of the inverse ideal with tau = w1/w2 in the upper half plane."""
    key = (a.field.d, a.key(), prec)
    if key in _CM_CACHE:
        return _CM_CACHE[key]
    w1, w2, matrix = _cm_basis(a)
    with mpmath.workdps(prec + GUARD_DIGITS):
        tau = qelem_numeric(w1) / qelem_numeric(w2)
        if not tau.imag > 0:
            raise WittkitError("CM point landed outside the upper half plane")
    pt = CmPoint(w1, w2, tau, matrix)
    _CM_CACHE[key] = pt
    return pt


def _cm_form(a: IdealHNF):
    """(matrix, form, g): a's exact CM matrix (as in cm_point), the reduced form
    (A, B, C) of its CM point and the g = (p, q, r, s) in SL2(Z) taking the
    point to that form's root (-B + sqrt(D))/(2A), all in exact arithmetic.

    The point tau = (m22*omega - m12)/m11 of K is a root of a primitive form
    of discriminant disc(K), since Z*tau + Z is homothetic to a^-1; ideals
    share the reduced form exactly when they share an ideal class.
    """
    _, _, matrix = _cm_basis(a)
    (m11, m12), (_, m22) = matrix
    f = a.field
    # omega = (s + sqrt(D))/2, so tau = (x + m22*sqrt(D))/(2*m11)
    x = m22 * f.omega_s - 2 * m12
    A, B, C = 4 * m11 * m11, -4 * m11 * x, x * x - m22 * m22 * f.disc
    content = math.gcd(A, math.gcd(B, C))
    A, B, C = A // content, B // content, C // content
    if B * B - 4 * A * C != f.disc:
        raise WittkitError(f"CM point of {a!r} has a form of discriminant {B * B - 4 * A * C} != {f.disc}")
    form, g = reduce_form(A, B, C)
    return matrix, form, g


# ---------------------------------------------------------------------------
# Deformation families


@dataclass(frozen=True)
class JFamily:
    level: int = 1

    def describe(self) -> str:
        return "j"


@dataclass(frozen=True)
class FrickeFamily:
    a: tuple[Fraction, Fraction]
    level: int = 0

    def __post_init__(self):
        a1, a2 = _a_pair(self.a)
        if a1 == 0 and a2 == 0:
            raise UsageError("Fricke family needs a nonzero index (a = 0 is JFamily)")
        level = self.level or math.lcm(a1.denominator, a2.denominator)
        if a1.denominator > 1 and level % a1.denominator or a2.denominator > 1 and level % a2.denominator:
            raise UsageError(f"index {self.a} does not live at level {self.level}")
        object.__setattr__(self, "a", (a1, a2))
        object.__setattr__(self, "level", level)

    def describe(self) -> str:
        return f"fricke:{self.a[0]},{self.a[1]}"


def _mat_mul2(x, y, mod=None):
    out = (
        (x[0][0] * y[0][0] + x[0][1] * y[1][0], x[0][0] * y[0][1] + x[0][1] * y[1][1]),
        (x[1][0] * y[0][0] + x[1][1] * y[1][0], x[1][0] * y[0][1] + x[1][1] * y[1][1]),
    )
    if mod is None:
        return out
    return tuple(tuple(v % mod for v in row) for row in out)


@dataclass(frozen=True)
class CharFamily:
    """0/1 family from a subset S of M2(Z/N) closed under the right GL2(Z/N) action."""

    N: int
    S: frozenset

    def __post_init__(self):
        if self.N < 1:
            raise UsageError(f"level must be >= 1, got {self.N}")
        S = frozenset(tuple(tuple(v % self.N for v in row) for row in m) for m in self.S)
        object.__setattr__(self, "S", S)
        gens = [((1, 1), (0, 1)), ((1, 0), (1, 1))]
        gens += [((u, 0), (0, 1)) for u in range(2, self.N) if math.gcd(u, self.N) == 1]
        for m in S:
            for g in gens:
                if _mat_mul2(m, g, self.N) not in S:
                    raise UsageError("S is not closed under the right GL2(Z/N) action")

    @property
    def level(self) -> int:
        return self.N

    def describe(self) -> str:
        return f"char:N={self.N},|S|={len(self.S)}"


def _local_generator(a: IdealHNF) -> QuadElement:
    """s in a with v_p(s) = v_p(a) at every prime over N(a)."""
    targets = [(pid, valuation(pid, a)) for pid in primes_over_norm(a)]
    g1, g2 = a.basis()
    for radius in range(1, 21):
        for x in range(-radius, radius + 1):
            for y in range(-radius, radius + 1):
                if max(abs(x), abs(y)) != radius:
                    continue
                s = g1.scale(x) + g2.scale(y)
                if s.is_zero():
                    continue
                ps = principal_ideal(s)
                if all(valuation(pid, ps) == v for pid, v in targets):
                    return s
    raise WittkitError(f"no local generator found for {a!r}")


def q_tau_matrix(s: QuadElement) -> tuple[tuple[int, int], tuple[int, int]]:
    """Integer matrix of multiplication by s in the basis (omega, 1) of O_K."""
    f = s.field
    x, y = s.x, s.y
    if x.denominator != 1 or y.denominator != 1:
        raise UsageError("q_tau needs an algebraic integer")
    x, y = int(x), int(y)
    return ((x + y * f.omega_s, y * f.omega_t), (y, x))


def char_family_from_ideal(a: IdealHNF) -> CharFamily:
    """The subset image of q_tau(s)*M2(Z/N) for N = N(a); its 0/1 vector is rho^a."""
    if not a.is_integral():
        raise UsageError("characteristic families are built from integral ideals")
    n = int(a.norm())
    if n == 1:
        return CharFamily(1, frozenset({((0, 0), (0, 0))}))
    qm = q_tau_matrix(_local_generator(a))
    S = set()
    for r00 in range(n):
        for r01 in range(n):
            for r10 in range(n):
                for r11 in range(n):
                    S.add(_mat_mul2(qm, ((r00, r01), (r10, r11)), n))
    return CharFamily(n, frozenset(S))


# ---------------------------------------------------------------------------
# Components at distinct CM points, evaluated across CPUs


def _series_at(key, tau, prec: int) -> _Series:
    """The series at tau, summed once per key into _SERIES_CACHE.

    The key is (tau's bits, prec) on the numeric path and (form, prec) on
    exact keys.  Numeric keys are what _series reads, not the element w1/w2
    of K: for d = -1 the ideals (5,2,1,1) and (15,6,3,1) both have tau =
    3/5 + i/5, but the numeric tau of the second differs in the last bit,
    so its components must not reuse the first one's series.
    """
    ser = _SERIES_CACHE.get(key)
    if ser is None:
        ser = _SERIES_CACHE[key] = _series(tau, prec)
    return ser


def _read_component(ser: _Series, a, k: int, prec: int):
    """The checked j of a series for a = (0, 0), else its Fricke component at
    index a and power k, each evaluated once."""
    if a == (0, 0):
        return _checked_j(ser, prec)
    value = ser.fricke.get((a, k))
    if value is None:
        value = ser.fricke[(a, k)] = _fricke_at(a, ser, k)
    return value


_MIN_SHARE = 4  # CM points for a fork to pay off: about 200 series terms at 120 digits


def _share_count(n: int) -> int:
    """Processes to share n pending CM points out to: one per CPU the process
    may run on, but one without fork, while a second thread is alive, or for
    fewer than 2*_MIN_SHARE points."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")) or threading.active_count() > 1:
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), n // _MIN_SHARE))


def _striped_shares(pending: list) -> list[list]:
    """`pending` in _share_count shares: share i takes items i, i+n, i+2n, ..."""
    n = _share_count(len(pending))
    return [pending[i::n] for i in range(n)]


def _evaluate_share(share, k: int, prec: int) -> None:
    """Evaluate a share into _SERIES_CACHE, stopping at the first error: at each
    (key, (tau, indices)), the series and the component at each index.

    The error is not raised here: the caller evaluates what is still
    missing again, in family and ideal order, so it surfaces exactly as a
    serial sweep raises it.
    """
    for key, (tau, indices) in share:
        try:
            for a in indices:
                _read_component(_series_at(key, tau, prec), a, k, prec)
        except Exception:  # re-raised by the caller's in-order pass
            return


def _evaluate_in_child(share, k: int, prec: int, fd: int):
    """In a forked child: evaluate the share, pickle its cached series to fd and
    exit, never return."""
    status = 1
    try:
        _evaluate_share(share, k, prec)
        series = {key: _SERIES_CACHE[key] for key, _ in share if key in _SERIES_CACHE}
        with os.fdopen(fd, "wb") as f:
            pickle.dump(series, f)
        status = 0
    finally:
        os._exit(status)


def _evaluate_missing(points: list[tuple], indices: list[list], k: int, prec: int) -> None:
    """Fill _SERIES_CACHE with every series, j and Fricke component that the
    families' `indices` (per family, per ideal: (0, 0) for j, a carried
    Fricke index, or None) ask for at the ideals' (key, tau) `points` and
    it lacks, across CPUs.

    Share 0 is evaluated here, each other share in a forked child that
    pickles back its series whole, theta constants included.  The payload is
    trusted because it only crosses a pipe this process created to its own
    fork; it is kept if the child exited 0 and sent a dict from keys of its
    share to _Series.  Shares are disjoint and a child starts from this
    process's cache, so its series hold everything this process had at the
    fork and replace it.  What a failed child leaves is evaluated again by
    the caller's read-off, so every error comes from in-process code.
    """
    lacking = {}  # key -> (tau, indices the cache lacks, in first-asked order)
    for family_indices in indices:
        for (key, tau), a in zip(points, family_indices):
            if a is None:
                continue
            ser = _SERIES_CACHE.get(key)
            if ser is not None and (ser.j if a == (0, 0) else ser.fricke.get((a, k))) is not None:
                continue
            asked = lacking.setdefault(key, (tau, []))[1]
            if a not in asked:
                asked.append(a)
    shares = _striped_shares(list(lacking.items()))
    children = []  # (share, pid, read end of its pipe)
    try:
        for share in shares[1:]:
            try:
                r, w = os.pipe()
            except OSError:  # out of descriptors, say: the share is evaluated here
                continue
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                continue
            if pid == 0:
                _evaluate_in_child(share, k, prec, w)
            os.close(w)
            children.append((share, pid, os.fdopen(r, "rb")))
        _evaluate_share(shares[0], k, prec)
        sent = [f.read() for _, _, f in children]
    finally:
        codes = []
        for _, pid, f in children:
            f.close()
            codes.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
    for (share, _, _), data, code in zip(children, sent, codes):
        if code != 0:
            continue
        try:
            series = pickle.loads(data)
        except Exception:  # cut short or garbled: the read-off evaluates the share
            continue
        sound = isinstance(series, dict) and series.keys() <= dict(share).keys()
        if sound and all(type(v) is _Series for v in series.values()):
            _SERIES_CACHE.update(series)


# ---------------------------------------------------------------------------
# Modular vectors


def _j_component(a: IdealHNF, prec: int):
    tau = cm_point(a, prec).tau
    return _checked_j(_series_at((tau._mpc_, prec), tau, prec), prec)


def _family_indices(family, matrices) -> list:
    """What a family reads at each CM point, given the points' matrices: (0, 0)
    for j, the Fricke index carried along the matrix, or None for a
    characteristic family.

    A Fricke index at level N is carried as its integer numerators mod N and
    read back as the reduced Fraction pair _transport gives.
    """
    if isinstance(family, JFamily):
        return [(0, 0)] * len(matrices)
    if isinstance(family, FrickeFamily):
        N = family.level
        n1, n2 = (int(x * N) for x in family.a)
        fracs = [Fraction(i, N) for i in range(N)]
        return [
            (fracs[(n1 * m11 + n2 * m21) % N], fracs[(n1 * m12 + n2 * m22) % N])
            for (m11, m12), (m21, m22) in matrices
        ]
    if isinstance(family, CharFamily):
        return [None] * len(matrices)
    raise UsageError(f"unknown deformation family {family!r}")


def _read_off(
    families: list, field: QuadField, bound: int, domain: BigComplex, points: list, matrices: list, indices: list
) -> list[WittVector]:
    """The families' vectors in domain at the ideals of norm <= bound, given
    each ideal's (key, tau) point and exact CM matrix and each family's
    `indices` there.

    Every j and Fricke component the families read and the caches lack is
    evaluated once per key, across CPUs (_evaluate_missing), and the
    vectors are read off in family and then ideal order, evaluating here
    whatever is still missing, so an error is the one a serial sweep raises
    first.  A characteristic family reads the CM matrix mod N.
    """
    prec = domain.prec
    k = fricke_power(field.d)
    _evaluate_missing(points, indices, k, prec)
    vectors = []
    for family, family_indices in zip(families, indices):
        values = {}
        for b, (key, tau), matrix, a in zip(_ideals(field, bound), points, matrices, family_indices):
            if a is None:
                entries = tuple(tuple(m % family.N for m in row) for row in matrix)
                with mpmath.workdps(prec + GUARD_DIGITS):
                    values[b] = mpmath.mpc(1 if entries in family.S else 0)
            else:
                values[b] = _read_component(_series_at(key, tau, prec), a, k, prec)
        vectors.append(WittVector(field, domain, bound, values=values))
    return vectors


def family_vectors(families: list, field: QuadField, bound: int, prec: int) -> list[WittVector]:
    """Evaluate each family at every integral ideal of norm <= bound, at each
    ideal's own numeric CM point.

    Each point is keyed by its tau's bits and each family's index carried
    along its CM matrix once; _read_off does the rest.  The precision is
    refused (BigComplex) before any CM point is built.
    """
    if field.is_rational:
        raise UsageError("modular vectors live over imaginary quadratic fields")
    domain = BigComplex(prec)
    pts = [cm_point(b, prec) for b in _ideals(field, bound)]
    matrices = [pt.matrix for pt in pts]
    points = [((pt.tau._mpc_, prec), pt.tau) for pt in pts]
    indices = [_family_indices(fam, matrices) for fam in families]
    return _read_off(families, field, bound, domain, points, matrices, indices)


def _keyed_family_vectors(families: list, field: QuadField, bound: int, prec: int) -> list[WittVector]:
    """family_vectors on exact CM-point keys: one series per reduced form.

    Each ideal's CM point is reduced exactly (_cm_form) and keyed by its form,
    whose root tau = (-B + sqrt(D))/(2A) is computed from the integers.  j
    reads the form's series, and a Fricke component reads it at the
    family's index carried along the CM matrix and g^-1, folded under +-1
    (wp is even); ideals with one key read one value object.  The extra
    units of d = -1 and -3 are not folded.  A characteristic family (rho^a
    of char_family_from_ideal, say) reads each ideal's exact CM matrix mod
    N, as on the numeric path.  The read-off is family_vectors', and the
    precision is refused, as there, before any form is reduced.
    """
    if field.is_rational:
        raise UsageError("modular vectors live over imaginary quadratic fields")
    domain = BigComplex(prec)
    keyed = [_cm_form(b) for b in _ideals(field, bound)]
    with mpmath.workdps(prec + GUARD_DIGITS):
        roots = {
            (A, B, C): mpmath.mpc(-B, mpmath.sqrt(4 * A * C - B * B)) / (2 * A)
            for A, B, C in {form for _, form, _ in keyed}
        }
    points = [((form, prec), roots[form]) for _, form, _ in keyed]
    # the index of tau_b is a*matrix, that of the form's root a*matrix*g^-1
    carried = [_mat_mul2(m, ((s, -q), (-r, p))) for m, _, (p, q, r, s) in keyed]
    indices = []
    for family in families:
        family_indices = _family_indices(family, carried)
        # a characteristic family's None is not an index: .get leaves it None
        folded = {a: min(a, _transport(a, ((-1, 0), (0, -1)))) for a in set(family_indices) - {None}}
        indices.append([folded.get(a) for a in family_indices])
    return _read_off(families, field, bound, domain, points, [m for m, _, _ in keyed], indices)


def modular_vector(family, field: QuadField, bound: int, prec: int = DEFAULT_PREC) -> WittVector:
    """Evaluate the family at every integral ideal of norm <= bound."""
    return family_vectors([family], field, bound, prec)[0]


def level_families(N: int) -> list:
    """j, then the Fricke index a for every nonzero a in (1/N)Z^2 / Z^2."""
    families = [JFamily()]
    for i in range(N):
        for j in range(N):
            if i or j:
                families.append(FrickeFamily((Fraction(i, N), Fraction(j, N)), level=N))
    return families


def level_family_vectors(field: QuadField, N: int, bound: int, prec: int = DEFAULT_PREC) -> list[WittVector]:
    """Vectors for every index a in (1/N)Z^2 / Z^2; a = 0 contributes j."""
    return family_vectors(level_families(N), field, bound, prec)


# ---------------------------------------------------------------------------
# The modularity desk check


def modularity_check(field: QuadField, level: int, bound: int, prec: int) -> dict:
    """Compare the shift partition of Xi(level) with ray classes mod level*O_K.

    Also verifies that each shift class has a constant gcd with level*O_K,
    and flags pairs whose verdict flips within one order of the tolerance.
    The vectors of level_families(level) are evaluated on exact CM-point
    keys (_keyed_family_vectors), one series per reduced form.
    """
    if level < 1:
        raise UsageError(f"level must be >= 1, got {level}")
    if field.is_rational:
        raise UsageError("the desk check runs over imaginary quadratic fields")
    families = level_families(level)
    vectors = _keyed_family_vectors(families, field, bound, prec)
    ideals = list(_ideals(field, bound))
    tol_digits = prec // 3
    with mpmath.workdps(prec + GUARD_DIGITS):
        tol = mpmath.mpf(10) ** -tol_digits
        loose = tol * 10
    xi_labels, xi_loose = shift_partitions(vectors, ideals, tol, loose)
    nok = principal_ideal(QuadElement(field, Fraction(level), Fraction(0)))
    _, ray_labels = classify_ideals(nok, ideals)

    mismatches = []
    ambiguous = []
    n = len(ideals)
    for i in range(n):
        for j in range(i + 1, n):
            same_xi = xi_labels[i] == xi_labels[j]
            if same_xi != (ray_labels[i] == ray_labels[j]) and len(mismatches) < 40:
                mismatches.append([ideal_label(ideals[i]), ideal_label(ideals[j])])
            if not same_xi and xi_loose[i] == xi_loose[j] and len(ambiguous) < 40:
                ambiguous.append([ideal_label(ideals[i]), ideal_label(ideals[j])])

    gcd_by_class: dict[int, set] = {}
    for a, lab in zip(ideals, xi_labels):
        gcd_by_class.setdefault(lab, set()).add(ideal_add(a, nok).key())
    gcd_constant = all(len(s) == 1 for s in gcd_by_class.values())

    partitions_equal = not mismatches
    return {
        "schema": "wittkit/modcheck/1",
        "d": field.d,
        "level": level,
        "tolerance": f"1e-{tol_digits}",
        "n_ideals": n,
        "families": [fam.describe() for fam in families],
        "shift_classes": max(xi_labels) + 1,
        "ray_classes": max(ray_labels) + 1,
        "partitions_equal": partitions_equal,
        "mismatches": mismatches,
        "ambiguous_pairs": ambiguous,
        "gcd_constant_per_class": gcd_constant,
        "passed": partitions_equal and gcd_constant,
    }
