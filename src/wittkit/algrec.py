"""Algebraicity certification by integer relations.

minpoly recovers an integer polynomial vanishing at a high-precision value
through LLL on the row lattice [round(10^w Re(x^k)), round(10^w Im(x^k)), e_k].
The reduction is an in-house exact integral LLL (Cohen, A Course in
Computational Algebraic Number Theory, Alg. 2.6.7), and _lovasz_verify
re-checks every output with exact size-reduction and Lovasz tests.
A candidate is accepted only when its residual |P(x)| clears two gates: an
absolute threshold 10^(-prec/4), and a relative one demanding the residual be
far below what a generic vector of the same coefficient size would produce.
No relation is ever fabricated; failure returns None.

class_polynomial assembles prod (X - j(a^-1)) over the ideal classes and
rounds, certifying every rounding error below 0.01.  certify_vector lifts a
big-complex vector to an exact number-field vector when all components are
roots of one polynomial (or of a bounded compositum), after which
integrality and divisibility questions become exact charpoly computations.
sympy is used only for primitive elements, root isolation and factoring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

import mpmath

from .domains import GUARD_DIGITS, BigComplex, ExactNumberField, _poly_eval_numeric
from .errors import PrecisionError, UsageError, WittkitError
from .modular import _j_component
from .qfield import class_group, make_field
from .witt import WittVector, distinct_values

_LLL_DELTA = Fraction(99, 100)


# ---------------------------------------------------------------------------
# LLL with post-hoc verification


def _lovasz_verify(rows: list[list[int]], delta: Fraction) -> None:
    """Exact size-reduction and Lovasz checks on an LLL output."""
    star: list[list[Fraction]] = []
    norms: list[Fraction] = []
    mus: list[list[Fraction]] = []
    for i, b in enumerate(rows):
        v = [Fraction(x) for x in b]
        mu_row = []
        for j in range(i):
            mu = sum(Fraction(b[k]) * star[j][k] for k in range(len(b))) / norms[j]
            mu_row.append(mu)
            v = [v[k] - mu * star[j][k] for k in range(len(b))]
        star.append(v)
        norms.append(sum(x * x for x in v))
        mus.append(mu_row)
        if norms[i] == 0:
            raise UsageError("rows are linearly dependent")
    for i in range(1, len(rows)):
        for j in range(i):
            if abs(mus[i][j]) > Fraction(1, 2):
                raise WittkitError("LLL output is not size-reduced")
        if norms[i] < (delta - mus[i][i - 1] ** 2) * norms[i - 1]:
            raise WittkitError("LLL output fails the Lovasz condition")


def lll_reduce(basis: list[list[int]], delta: Fraction = _LLL_DELTA) -> list[list[int]]:
    """LLL-reduce integer rows (delta = 0.99), verifying the output exactly.

    Integral LLL (Cohen, Alg. 2.6.7): the Gram-Schmidt data is kept as the
    integers d[i] (Gram determinant of the first i rows) and
    lam[k][j] = d[j+1] * mu[k][j], so every division below is exact.  A zero
    d[k+1] means row k depends on the rows before it.
    """
    if not basis or not basis[0]:
        raise UsageError("empty basis")
    b = [[int(x) for x in row] for row in basis]
    n, width = len(b), len(b[0])
    if any(len(row) != width for row in b):
        raise UsageError("rows of unequal length")
    p, q = delta.numerator, delta.denominator
    d = [1] + [0] * n
    lam = [[0] * n for _ in range(n)]

    def gram_schmidt(k: int) -> None:
        for j in range(k + 1):
            u = sum(x * y for x, y in zip(b[k], b[j]))
            for i in range(j):
                u = (d[i + 1] * u - lam[k][i] * lam[j][i]) // d[i]
            if j < k:
                lam[k][j] = u
            elif u == 0:
                raise UsageError("rows are linearly dependent")
            else:
                d[k + 1] = u

    def reduce(k: int, l: int) -> None:
        if 2 * abs(lam[k][l]) <= d[l + 1]:
            return
        r = (2 * lam[k][l] + d[l + 1]) // (2 * d[l + 1])
        b[k] = [x - r * y for x, y in zip(b[k], b[l])]
        lam[k][l] -= r * d[l + 1]
        for i in range(l):
            lam[k][i] -= r * lam[l][i]

    def swap(k: int, kmax: int) -> None:
        b[k], b[k - 1] = b[k - 1], b[k]
        for j in range(k - 1):
            lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
        m = lam[k][k - 1]
        big = (d[k - 1] * d[k + 1] + m * m) // d[k]
        for i in range(k + 1, kmax + 1):
            t = lam[i][k]
            lam[i][k] = (d[k + 1] * lam[i][k - 1] - m * t) // d[k]
            lam[i][k - 1] = (big * t + m * lam[i][k]) // d[k + 1]
        d[k] = big

    gram_schmidt(0)
    k, kmax = 1, 0
    while k < n:
        if k > kmax:
            kmax = k
            gram_schmidt(k)
        reduce(k, k - 1)
        # Lovasz: d[k+1] d[k-1] >= delta d[k]^2 - lam[k][k-1]^2
        if q * (d[k + 1] * d[k - 1] + lam[k][k - 1] ** 2) < p * d[k] ** 2:
            swap(k, kmax)
            k = max(1, k - 1)
            continue
        for l in range(k - 2, -1, -1):
            reduce(k, l)
        k += 1
    _lovasz_verify(b, delta)
    return b


# ---------------------------------------------------------------------------
# minimal polynomials from numeric values


@dataclass(frozen=True)
class IntPoly:
    """Primitive integer polynomial, ascending coefficients, positive leading."""

    coeffs: tuple[int, ...]
    residual: float
    content: int = 1

    def __post_init__(self):
        if len(self.coeffs) < 2 or self.coeffs[-1] == 0:
            raise UsageError("IntPoly needs a nonconstant polynomial")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_monic(self) -> bool:
        return self.coeffs[-1] == 1

    def to_json(self) -> dict:
        return {
            "coeffs": list(self.coeffs),
            "residual": mpmath.nstr(mpmath.mpf(self.residual), 5),
            "content": self.content,
        }


def _normalize_int_coeffs(raw: list[int]) -> tuple[tuple[int, ...], int] | None:
    cs = list(raw)
    while cs and cs[-1] == 0:
        cs.pop()
    if len(cs) < 2:
        return None
    g = 0
    for c in cs:
        g = math.gcd(g, abs(c))
    cs = [c // g for c in cs]
    if cs[-1] < 0:
        cs = [-c for c in cs]
    return tuple(cs), g


def minpoly(x, dmax: int, prec: int = 60) -> IntPoly | None:
    """Smallest-degree integer relation for x, or None when no candidate survives.

    The input is trusted to about prec significant digits (in-process values
    are better, serialized ones are exactly that).  Three gates: an absolute
    residual cap, a residual consistent with prec-digit knowledge of x, and a
    height budget (deg+1)*log10(height) <= w-10 below which rounding noise
    cannot be assembled into a relation by pigeonhole.  Large coefficients at
    high degree therefore need prec well above (dmax+1)*(coefficient digits).
    """
    if dmax < 1:
        raise UsageError(f"dmax must be >= 1, got {dmax}")
    w = prec - 10
    with mpmath.workdps(prec + GUARD_DIGITS):
        x = mpmath.mpc(x)
        scale = mpmath.mpf(10) ** w
        powers = [mpmath.mpc(1)]
        for _ in range(dmax):
            powers.append(powers[-1] * x)
        abs_gate = mpmath.mpf(10) ** (-(prec // 4))
        ax = max(mpmath.mpf(1), abs(x))
        for deg in range(1, dmax + 1):
            rows = []
            for k in range(deg + 1):
                row = [int(mpmath.nint(powers[k].real * scale)), int(mpmath.nint(powers[k].imag * scale))]
                row += [1 if i == k else 0 for i in range(deg + 1)]
                rows.append(row)
            reduced = lll_reduce(rows)
            for cand in sorted(reduced, key=lambda r: sum(v * v for v in r)):
                norm = _normalize_int_coeffs(cand[2:])
                if norm is None:
                    continue
                coeffs, content = norm
                adeg = len(coeffs) - 1
                height = max(1, max(abs(c) for c in coeffs))
                if len(coeffs) * math.log10(height) > w - 10:
                    continue
                resid = abs(sum(c * powers[k] for k, c in enumerate(coeffs)))
                rel_gate = height * len(coeffs) * ax**adeg * mpmath.mpf(10) ** (-prec + 6)
                if resid < abs_gate and resid < rel_gate:
                    return IntPoly(coeffs=coeffs, residual=float(resid), content=content)
    return None


# ---------------------------------------------------------------------------
# class polynomials


@dataclass(frozen=True)
class ClassPolyReport:
    d: int
    prec: int
    h: int
    poly: IntPoly
    rounding_errors: tuple[float, ...]
    j_values: tuple

    def to_json(self) -> dict:
        with mpmath.workdps(40):
            j_values = [
                [mpmath.nstr(mpmath.mpc(v).real, 30), mpmath.nstr(mpmath.mpc(v).imag, 30)]
                for v in self.j_values
            ]
            errors = [mpmath.nstr(mpmath.mpf(e), 5) for e in self.rounding_errors]
        return {
            "schema": "wittkit/classpoly/1",
            "d": self.d,
            "h": self.h,
            "poly": self.poly.to_json(),
            "rounding_errors": errors,
            "j_values": j_values,
        }


def class_polynomial(d: int, prec: int = 120) -> ClassPolyReport:
    """prod over ideal classes (X - j(a^-1)), rounded and certified (< 0.01)."""
    BigComplex(prec)  # refuses a precision too low to certify anything
    field = make_field(d)
    if field.is_rational:
        raise UsageError("class polynomials need an imaginary quadratic field")
    reps = class_group(field)
    with mpmath.workdps(prec + GUARD_DIGITS):
        roots = [_j_component(a, prec) for a in reps]
        coeffs = [mpmath.mpc(1)]
        for r in roots:
            nxt = [mpmath.mpc(0)] * (len(coeffs) + 1)
            for i, c in enumerate(coeffs):
                nxt[i + 1] += c
                nxt[i] -= c * r
            coeffs = nxt
        ints = []
        errors = []
        for c in coeffs:
            n = int(mpmath.nint(c.real))
            err = abs(c - n)
            errors.append(float(err))
            if err > mpmath.mpf("0.01"):
                raise PrecisionError(
                    f"class polynomial rounding error {mpmath.nstr(err, 3)} exceeds 0.01"
                )
            ints.append(n)
        resid = max(abs(_poly_eval_numeric(ints, r)) for r in roots)
        poly = IntPoly(coeffs=tuple(ints), residual=float(resid), content=1)
    return ClassPolyReport(
        d=d,
        prec=prec,
        h=len(reps),
        poly=poly,
        rounding_errors=tuple(errors),
        j_values=tuple(roots),
    )


# ---------------------------------------------------------------------------
# vector certification


@dataclass
class CertifyReport:
    ok: bool
    poly: IntPoly | None
    vector: WittVector | None
    all_integral: bool | None
    note: str
    value_polys: list = dc_field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "schema": "wittkit/certify/1",
            "ok": self.ok,
            "all_integral": self.all_integral,
            "note": self.note,
            "poly": self.poly.to_json() if self.poly is not None else None,
            "value_polys": [p.to_json() for p in self.value_polys] if self.value_polys else [],
        }


def _cluster_values(xi: WittVector):
    """Distinct component values of a big-complex vector, with membership map."""
    reps, labels = distinct_values(xi.domain, xi.values_list())
    return reps, dict(zip(xi.ideals(), labels))


def _certify_shared_poly(xi, reps, assign, poly, prec):
    """All distinct values are roots of one polynomial P.

    The first value is the generator of Q[x]/(P).  Any other value must lie
    within 10^(-prec/2) of trace - reps[0], the other root of a quadratic
    P, and maps to trace - gen.
    """
    with mpmath.workdps(prec + GUARD_DIGITS):
        nf = ExactNumberField(list(poly.coeffs), reps[0], prec)
        trace = Fraction(-poly.coeffs[-2], poly.coeffs[-1])
        conjugate = mpmath.mpf(trace.numerator) / trace.denominator - reps[0]
        tol = mpmath.mpf(10) ** (-prec // 2)
        if any(abs(v - conjugate) >= tol for v in reps[1:]):
            return None, None, "value does not match either root of its polynomial"
        images = [nf.gen()] + [nf.sub(nf.from_fraction(trace), nf.gen())] * (len(reps) - 1)
        values = {a: images[assign[a]] for a in xi.ideals()}
        vec = WittVector(xi.field, nf, xi.bound, values=values)
        return nf, vec, ""


def _evalf_mpc(root, digits: int):
    """A sympy root evaluated to digits, as an mpc at the working precision.

    The real and imaginary parts go through their decimal strings, which
    keep every digit; complex() would keep about 16.
    """
    re, im = root.evalf(digits).as_real_imag()
    return mpmath.mpc(mpmath.mpf(str(re)), mpmath.mpf(str(im)))


def _certify_compositum(xi, reps, assign, polys, dmax, prec):
    """Distinct minimal polynomials: go through a primitive element."""
    from sympy import CRootOf, Poly, primitive_element
    from sympy.abc import x as _x

    with mpmath.workdps(prec + GUARD_DIGITS):
        gens = []
        for v, pc in zip(reps, polys):
            p = Poly([int(c) for c in reversed(pc.coeffs)], _x)
            rts = [_evalf_mpc(CRootOf(p, i), prec // 2 + 10) for i in range(p.degree())]
            best = min(range(len(rts)), key=lambda i: abs(rts[i] - v))
            if abs(rts[best] - v) > mpmath.mpf(10) ** (-prec // 4):
                return None, None, "could not match a value to a root of its polynomial"
            gens.append(CRootOf(p, best))
        try:
            f, mults, rep_lists = primitive_element(gens, _x, ex=True, polys=True)
        except Exception as exc:  # sympy raises plain exceptions on bad input
            return None, None, f"compositum construction failed: {exc}"
        fdeg = f.degree()
        if fdeg > dmax:
            return None, None, f"compositum degree {fdeg} exceeds dmax = {dmax}"
        fcs = [int(c) for c in f.all_coeffs()[::-1]]
        theta = sum(int(m) * v for m, v in zip(mults, reps))
        nf = ExactNumberField(fcs, theta, prec)
        images = []
        for rl in rep_lists:
            asc = list(reversed([Fraction(int(c.numerator), int(c.denominator)) for c in rl]))
            asc += [Fraction(0)] * (nf.deg - len(asc))
            images.append(tuple(asc[: nf.deg]))
        values = {a: images[assign[a]] for a in xi.ideals()}
        vec = WittVector(xi.field, nf, xi.bound, values=values)
        return nf, vec, ""


def certify_vector(xi: WittVector, dmax: int = 16) -> CertifyReport:
    """Express a big-complex vector exactly over one number field, if possible."""
    if not isinstance(xi.domain, BigComplex):
        raise UsageError("certify_vector starts from a big-complex vector")
    prec = xi.domain.prec
    reps, assign = _cluster_values(xi)
    polys = []
    for v in reps:
        p = minpoly(v, dmax, prec)
        if p is None:
            return CertifyReport(
                ok=False,
                poly=None,
                vector=None,
                all_integral=None,
                note=f"no integer relation of degree <= {dmax} for a component",
            )
        polys.append(p)
    distinct = sorted({p.coeffs for p in polys})
    if len(distinct) == 1 and (polys[0].degree <= 2 or len(reps) == 1):
        nf, vec, note = _certify_shared_poly(xi, reps, assign, polys[0], prec)
    else:
        nf, vec, note = _certify_compositum(xi, reps, assign, polys, dmax, prec)
    if nf is None:
        return CertifyReport(ok=False, poly=None, vector=None, all_integral=None, note=note, value_polys=polys)
    integral = all(nf.is_algebraic_integer(v) for v in {tuple(vec.value_at(a)) for a in vec.ideals()})
    gen_poly = IntPoly(coeffs=tuple(nf.int_coeffs), residual=0.0, content=1)
    return CertifyReport(
        ok=True,
        poly=gen_poly,
        vector=vec,
        all_integral=integral,
        note=note,
        value_polys=polys,
    )


# ---------------------------------------------------------------------------
# exact operations inside a certified number field


def exact_minpoly_nf(nf: ExactNumberField, v) -> tuple[int, ...]:
    """Minimal polynomial of v via charpoly factorization; exact, ascending ints."""
    from sympy import Poly, Rational, factor_list
    from sympy.abc import x as _x

    cp = nf.charpoly(v)
    p = Poly([Rational(c.numerator, c.denominator) for c in reversed(cp)], _x)
    _, factors = factor_list(p)
    for fac, _mult in sorted(factors, key=lambda fm: fm[0].degree()):
        fracs = [Fraction(int(c.numerator), int(c.denominator)) for c in fac.all_coeffs()]
        acc = nf.zero()
        for c in fracs:
            acc = nf.add(nf.mul(acc, v), nf.from_fraction(c))
        if acc == nf.zero():
            den = math.lcm(*(c.denominator for c in fracs))
            norm = _normalize_int_coeffs([int(c * den) for c in reversed(fracs)])
            if norm is None:
                raise WittkitError("degenerate minimal factor")
            return norm[0]
    raise WittkitError("no charpoly factor vanishes at the value")

