"""Ray class monoids: integral ideals up to ray-congruence for a modulus f.

Two integral ideals a, b are congruent when a*b^-1 = (t) for a generator
t in 1 + f*b^-1 (and t > 0 over Q; imaginary quadratic fields have no real
places).  The quotient of all integral ideals by this relation is a finite
commutative monoid whose unit group is the ray class group mod f.

Classes are found by a canonical key, never by pairwise search.  Over Q the
key of (n) is n mod f.  Otherwise let r be the class-group representative
of a's ideal class, so that a*conj(r) = (s) for an integral s; the key is
(class of r, min over units u of the residue of u*s mod f*conj(r)).  It is
complete: multiplying t - 1 in f*b^-1 by s_b shows that a ~_f b iff
u*s_a = s_b mod f*conj(r) for some unit u, i.e. iff s_a and s_b lie in one
unit orbit mod f*conj(r), and the minimum names that orbit.  So classifying
N ideals costs N keys and N dict lookups; `congruent_mod` stays as the
pairwise oracle the key is tested against.

Class counts are always computed twice: once by enumerating ideals up to a
bound and once from the class number formula.  Disagreement raises; it is
never papered over.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import InsufficientBoundError, UsageError, WittkitError
from .qfield import (
    IdealHNF,
    QuadField,
    class_group,
    class_number,
    enumerate_ideals,
    factor_ideal,
    ideal_add,
    ideal_div,
    ideal_divisors,
    ideal_inverse,
    ideal_mul,
    is_principal,
    unit_ideal,
)


def congruent_mod(a: IdealHNF, b: IdealHNF, f: IdealHNF) -> bool:
    """Ray congruence a ~_f b for integral ideals."""
    for p in (a, b, f):
        if not p.is_integral():
            raise UsageError("ray congruence is defined on integral ideals")
    field = a.field
    t0 = is_principal(ideal_div(a, b))
    if t0 is None:
        return False
    fb = ideal_mul(f, ideal_inverse(b))
    one = field.one()
    for u in field.units():
        t = u * t0
        if field.is_rational and t.x <= 0:
            continue
        if fb.contains(t - one):
            return True
    return False


def phi_ideal(f: IdealHNF) -> int:
    """#(O_K/f)^* from the prime factorization of f."""
    out = 1
    for prime, e in factor_ideal(f):
        np = int(prime.norm())
        out *= np ** (e - 1) * (np - 1)
    return out


def _residue(x: int, y: int, lattice: IdealHNF) -> tuple[int, int]:
    """x + y*omega modulo an integral lattice (a, b, c), as the numerators of
    its fractional coordinates in the HNF basis a, b + c*omega."""
    a, b, c = lattice.a, lattice.b, lattice.c
    return (x * c - y * b) % (a * c), y % c


def _unit_pairs(field: QuadField) -> list[tuple[int, int]]:
    return [(int(u.x), int(u.y)) for u in field.units()]


def _unit_image_size(field: QuadField, f: IdealHNF) -> int:
    """Order of the image of the global units in (O_K/f)^*."""
    return len({_residue(x, y, f) for x, y in _unit_pairs(field)})


def _ray_key(f: IdealHNF):
    """The canonical key of ~_f on integral ideals (see the module docstring)."""
    if not f.is_integral():
        raise UsageError("ray congruence is defined on integral ideals")
    field = f.field
    d = field.d

    def check(p: IdealHNF) -> None:
        if not p.is_integral():
            raise UsageError("ray congruence is defined on integral ideals")
        if p.field.d != d:
            raise UsageError("ideals from different fields")

    if field.is_rational:
        m = f.a

        def rational_key(p: IdealHNF) -> int:
            check(p)
            return p.a % m

        return rational_key

    w_s, w_t = field.omega_s, field.omega_t  # omega^2 = w_s*omega + w_t
    units = _unit_pairs(field)
    one = unit_ideal(field)
    # (conj(r) or None for the unit class, lattice f*conj(r)) per class
    classes = [(None if r == one else r.conj(), ideal_mul(f, r.conj())) for r in class_group(field)]

    def key(p: IdealHNF) -> tuple:
        check(p)
        for i, (rbar, lattice) in enumerate(classes):
            g = is_principal(p if rbar is None else ideal_mul(p, rbar))
            if g is not None:
                x, y = int(g.x), int(g.y)
                return i, min(
                    _residue(ux * x + uy * y * w_t, ux * y + uy * x + uy * y * w_s, lattice) for ux, uy in units
                )
        raise WittkitError(f"ideal {p} is in no class of the class group; class group data inconsistent")

    return key


def ray_class_number(field: QuadField, f: IdealHNF) -> int:
    """Order of the ray class group mod f (with positivity at the real place of Q)."""
    if not f.is_integral():
        raise UsageError("modulus must be integral")
    if field.is_rational:
        return phi_ideal(f)
    return class_number(field) * phi_ideal(f) // _unit_image_size(field, f)


def classify_ideals(f: IdealHNF, ideals: list[IdealHNF]) -> tuple[list[IdealHNF], list[int]]:
    """Partition ideals into ~_f classes; reps keep first-seen order."""
    key = _ray_key(f)
    reps: list[IdealHNF] = []
    labels: list[int] = []
    index: dict = {}
    for p in ideals:
        label = index.setdefault(key(p), len(reps))
        if label == len(reps):
            reps.append(p)
        labels.append(label)
    return reps, labels


@dataclass(frozen=True)
class RayClassMonoid:
    """Finite monoid of ray classes with an explicit multiplication table."""

    field: QuadField
    modulus: IdealHNF
    reps: tuple[IdealHNF, ...]
    table: tuple[tuple[int, ...], ...]
    identity: int
    unit_indices: tuple[int, ...]
    enumeration_bound: int

    def __len__(self) -> int:
        return len(self.reps)

    def mul(self, i: int, j: int) -> int:
        return self.table[i][j]

    def gcd_of_class(self, i: int) -> IdealHNF:
        return ideal_add(self.reps[i], self.modulus)

    @cached_property
    def _key_index(self):
        key = _ray_key(self.modulus)
        return key, {key(r): i for i, r in enumerate(self.reps)}

    def class_of(self, p: IdealHNF) -> int:
        key, index = self._key_index
        hit = index.get(key(p))
        if hit is None:
            raise WittkitError(f"ideal {p} matches no class; monoid data inconsistent")
        return hit

    def to_json(self) -> dict:
        return {
            "schema": "wittkit/drf/1",
            "d": self.field.d,
            "modulus": self.modulus.to_json(),
            "reps": [r.to_json() for r in self.reps],
            "table": [list(row) for row in self.table],
            "units": list(self.unit_indices),
            "jclasses": j_classes(self),
            "bound": self.enumeration_bound,
        }


def default_bound(f: IdealHNF) -> int:
    return max(200, 20 * int(f.norm()))


def build_drf(field: QuadField, f: IdealHNF, bound: int | None = None) -> RayClassMonoid:
    """Build the ray class monoid for modulus f by enumeration up to bound.

    The realized classes are checked divisor-by-divisor against the class
    number formula, and the multiplication table must close on the reps;
    anything short raises InsufficientBoundError with the smallest witness.
    """
    if not f.is_integral():
        raise UsageError("modulus must be integral")
    if bound is None:
        bound = default_bound(f)
    ideals = enumerate_ideals(field, bound)
    reps, _ = classify_ideals(f, ideals)

    # formula path: one ray class group per divisor gcd
    by_gcd: dict[tuple, int] = {}
    for r in reps:
        key = ideal_add(r, f).key()
        by_gcd[key] = by_gcd.get(key, 0) + 1
    divisors = ideal_divisors(f)
    if len(by_gcd) > len(divisors):
        raise WittkitError("more gcd classes than divisors of the modulus; ideal arithmetic is broken")
    total_expected = 0
    for d in divisors:
        expected = ray_class_number(field, ideal_div(f, d))
        total_expected += expected
        realized = by_gcd.get(d.key(), 0)
        if realized < expected:
            raise InsufficientBoundError(
                f"bound {bound} realizes {realized} of {expected} classes with gcd {d} "
                f"for modulus {f}; raise the bound"
            )
        if realized > expected:
            raise WittkitError(
                f"{realized} classes with gcd {d} but the formula gives {expected}; "
                f"enumeration and formula disagree"
            )
    if len(reps) != total_expected:
        raise WittkitError(
            f"{len(reps)} classes but the formula gives {total_expected}; enumeration and formula disagree"
        )

    n = len(reps)
    key = _ray_key(f)
    index = {key(r): i for i, r in enumerate(reps)}
    table = []
    for i in range(n):
        row = [table[j][i] for j in range(i)]  # the monoid is commutative
        for j in range(i, n):
            prod = ideal_mul(reps[i], reps[j])
            hit = index.get(key(prod))
            if hit is None:
                raise InsufficientBoundError(
                    f"product {reps[i]} * {reps[j]} = {prod} matches no class at bound {bound}"
                )
            row.append(hit)
        table.append(tuple(row))

    identity = index.get(key(unit_ideal(field)))
    if identity is None:
        raise WittkitError("the unit ideal matches no class; monoid data inconsistent")

    units = tuple(s for s in range(n) if identity in table[s])
    formula_units = ray_class_number(field, f)
    if len(units) != formula_units:
        raise WittkitError(
            f"unit group has {len(units)} elements but the formula gives {formula_units}"
        )
    return RayClassMonoid(
        field=field,
        modulus=f,
        reps=tuple(reps),
        table=tuple(table),
        identity=identity,
        unit_indices=units,
        enumeration_bound=bound,
    )


def drf_units(monoid: RayClassMonoid) -> list[int]:
    """Indices of invertible classes (the ray class group mod f)."""
    return list(monoid.unit_indices)


def j_classes(monoid_or_table) -> list[list[int]]:
    """Partition by mutual divisibility of principal ideals s*M.

    Accepts a RayClassMonoid or a bare square table.  Blocks are sorted by
    their smallest member.
    """
    table = monoid_or_table.table if isinstance(monoid_or_table, RayClassMonoid) else monoid_or_table
    n = len(table)
    orbits = [frozenset(table[s][x] for x in range(n)) for s in range(n)]
    blocks: dict[frozenset, list[int]] = {}
    for s in range(n):
        blocks.setdefault(orbits[s], []).append(s)
    return sorted((sorted(b) for b in blocks.values()), key=lambda b: b[0])


def drf_projection(src: RayClassMonoid, dst: RayClassMonoid) -> list[int]:
    """The canonical surjection DR_f' ->> DR_f for f | f', as an index map."""
    if not dst.modulus.contains_ideal(src.modulus):
        raise UsageError(f"{dst.modulus} does not divide {src.modulus}")
    mapping = [dst.class_of(r) for r in src.reps]
    if set(mapping) != set(range(len(dst))):
        raise WittkitError("projection is not surjective; monoid data inconsistent")
    for i in range(len(src)):
        for j in range(len(src)):
            if mapping[src.table[i][j]] != dst.table[mapping[i]][mapping[j]]:
                raise WittkitError("projection is not a homomorphism; monoid data inconsistent")
    return mapping
