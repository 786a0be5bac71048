"""The benchmark's four workloads, driven through wittkit's public API.

A unit is one timed call into the program.  A pass is one round of units;
each pass (and each pipeline unit) starts from empty module caches.  A
run's first pass, from `prepare`, is untimed: it warms up the process and,
for pipeline_warm, fills the disk cache.  Every unit's output is checked
against ``reference.json``, which holds what the code produced when the
benchmark was defined (see ``record.py``).
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE = Path(__file__).resolve().parent / "reference.json"


def import_wittkit():
    """Import wittkit from this checkout's sources, never from elsewhere."""
    if not (SRC / "wittkit" / "cli.py").is_file():
        raise ImportError(f"no wittkit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from wittkit import cli

    if SRC.resolve() not in Path(cli.__file__).resolve().parents:
        raise ImportError(f"wittkit resolved to {cli.__file__}, outside {SRC}")
    from wittkit import cyclotomic, modular, witt

    # bound here, before a tracer rebinds the module attributes
    _CACHE_CLEARS[:] = (modular.clear_caches, witt._ideals.cache_clear, cyclotomic.cyclo_context.cache_clear)


_CACHE_CLEARS: list = []


def reset_module_caches() -> None:
    """Empty wittkit's in-process caches, as a fresh `wittkit` process starts."""
    for clear in _CACHE_CLEARS:
        clear()


def canonical_sha256(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True)
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class Unit:
    """One timed call; `check` returns None when the output matches, else why not.

    `reference` is False for units whose recorded outcome is an exception:
    they are gated on their verdict flags instead of recorded bytes.
    """

    label: str
    call: Callable[[], object]
    check: Callable[[object], str | None]
    reset: bool = False
    reference: bool = True
    counters: Callable[[object], dict] | None = None


# ---------------------------------------------------------------------------
# desk_check: `wittkit check`, one unit per standard triple

DESK_PREC = 120


def desk_label(d: int, level: int, bound: int) -> str:
    return f"d={d} N={level} B={bound} prec={DESK_PREC}"


class DeskCheck:
    def __init__(self, ref: dict, seed: int, work_dir: Path):
        from wittkit import cli

        self.ref = ref["desk_check"]
        self.triples = [(cli.parse_field(d), d, level, bound) for d, level, bound in cli.DESK_CHECK_TRIPLES]

    def prepare(self) -> list[Unit]:
        return self.pass_units()

    def pass_units(self) -> list[Unit]:
        from wittkit import cli

        units = []
        for field, d, level, bound in self.triples:
            label = desk_label(d, level, bound)
            expected = self.ref[label]

            def check(payload, expected=expected):
                if canonical_sha256(payload) != expected["sha256"]:
                    return "check payload differs from the recorded one"
                if not payload["passed"] or payload["shift_classes"] != payload["ray_classes"]:
                    return "desk check verdict failed"
                return None

            units.append(
                Unit(
                    label,
                    lambda field=field, level=level, bound=bound: cli.modularity_check(
                        field, level, bound, DESK_PREC
                    ),
                    check,
                    reset=not units,
                )
            )
        return units


# ---------------------------------------------------------------------------
# ray_tower: criterion 3's traffic from a recorded pool

TOWER_BOUND = 200
TOWER_PRIMES = 13
TOWER_DEPTH = 2


def tower_run(spec: dict) -> dict:
    """Criterion 3 on one vector: depth-2 certificate plus modulus, or depth-0 failure."""
    from wittkit import witt
    from wittkit.qfield import QuadElement, ideal_divisors, make_field, principal_ideal

    coeffs = [Fraction(c) for c in spec["coeffs"]]
    gammas = [Fraction(g) for g in spec["gammas"]]
    xi = witt.zlinear_combine(coeffs, gammas, TOWER_BOUND)
    if not spec["integral"]:
        report = witt.check_un(xi, 0, TOWER_PRIMES)
        return {"report": report.to_json(), "modulus": None, "verdict": not report.passed}
    report = witt.check_un(xi, TOWER_DEPTH, TOWER_PRIMES)
    lcm_ideal = principal_ideal(QuadElement(make_field(1), Fraction(xi.gring_L), Fraction(0)))
    found = witt.find_modulus(xi, ideal_divisors(lcm_ideal))
    verdict = report.passed and found is not None and found.contains_ideal(lcm_ideal)
    return {
        "report": report.to_json(),
        "modulus": witt.ideal_label(found) if found is not None else None,
        "verdict": verdict,
    }


def tower_outcome(result: dict) -> dict:
    return {
        "report_sha256": canonical_sha256(result["report"]),
        "modulus": result["modulus"],
        "verdict": result["verdict"],
    }


class RayTower:
    """Each pass draws one recorded variant per slot from the seeded stream.

    A slot's variants share denominators, so every pass has the same mix of
    moduli; drawing afresh per pass spreads a run over many variants, so
    that its figures do not hang on the few one draw would pick.
    """

    def __init__(self, ref: dict, seed: int, work_dir: Path):
        self.slots = ref["ray_tower"]["slots"]
        self.rng = random.Random(seed)

    def prepare(self) -> list[Unit]:
        return self.pass_units()

    def pass_units(self) -> list[Unit]:
        units = []
        for entry in [self.rng.choice(slot) for slot in self.slots]:
            spec = entry["spec"]
            kind = "integral" if spec["integral"] else "non-integral"
            label = f"{kind} {spec['coeffs']}*{spec['gammas']}"

            def check(result, entry=entry):
                if tower_outcome(result) != entry["outcome"]:
                    return "report or modulus differs from the recorded one"
                if not result["verdict"]:
                    return "criterion 3 verdict failed"
                return None

            units.append(Unit(label, lambda spec=spec: tower_run(spec), check, reset=not units))
        return units


# ---------------------------------------------------------------------------
# pipeline_cold / pipeline_warm: the README standard config, one job per unit

VERDICT_FLAGS = ("passed", "equal", "ok")


def artifact_hashes(summary: dict, job: str) -> dict[str, str]:
    out = {}
    for p in summary["artifacts"][job]:
        path = Path(p)
        out[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def verdict_failures(summary: dict, job: str) -> list[str]:
    bad = []
    for p in summary["artifacts"][job]:
        if not p.endswith(".json"):
            continue
        data = json.loads(Path(p).read_text())
        bad += [f"{Path(p).name}:{f}" for f in VERDICT_FLAGS if data.get(f) is False]
        bad += [f"{Path(p).name}:block" for b in data.get("blocks", ()) if b.get("certified") is False]
    return bad


def pipeline_counters(summary: dict, job: str) -> dict:
    return {
        "cli.cache.hits": len(summary["cache_hits"]),
        "cli.cache.misses": len(summary["cache_misses"]),
        "cli.artifacts.bytes_written": sum(Path(p).stat().st_size for p in summary["artifacts"][job]),
    }


class Pipeline:
    """`wittkit pipeline --jobs X` for each job of the default config."""

    def __init__(self, ref: dict, seed: int, work_dir: Path, warm: bool):
        from wittkit import cli

        self.ref = ref["pipeline"]
        self.base = cli.RunConfig()
        self.jobs = list(self.base.jobs)
        self.work_dir = work_dir
        self.cache_dir = work_dir / "warm-cache" if warm else None
        self._n = 0

    def _fresh(self, tag: str) -> Path:
        self._n += 1
        path = self.work_dir / f"{tag}-{self._n}"
        path.mkdir(parents=True)
        return path

    def _units(self, out_dir: Path, cache_dir: Path) -> list[Unit]:
        from wittkit import cli

        units = []
        for job in self.jobs:
            cfg = replace(self.base, jobs=(job,), out_dir=str(out_dir), cache_dir=str(cache_dir))
            expected = self.ref[job]

            def check(summary, job=job, expected=expected):
                if expected["files"] is not None and artifact_hashes(summary, job) != expected["files"]:
                    return "artifact bytes differ from the recorded ones"
                bad = verdict_failures(summary, job)
                return f"verdict flags false: {', '.join(bad)}" if bad else None

            units.append(
                Unit(
                    job,
                    lambda cfg=cfg: cli.run_pipeline(cfg),
                    check,
                    reset=True,
                    reference=expected["files"] is not None,
                    counters=lambda summary, job=job: pipeline_counters(summary, job),
                )
            )
        return units

    def prepare(self) -> list[Unit]:
        return self.pass_units()

    def pass_units(self) -> list[Unit]:
        cache = self.cache_dir or self._fresh("cache")
        return self._units(self._fresh("out"), cache)


WORKLOADS = ("desk_check", "ray_tower", "pipeline_cold", "pipeline_warm")


def make_workload(name: str, ref: dict, seed: int, work_dir: Path):
    if name == "desk_check":
        return DeskCheck(ref, seed, work_dir)
    if name == "ray_tower":
        return RayTower(ref, seed, work_dir)
    if name in ("pipeline_cold", "pipeline_warm"):
        return Pipeline(ref, seed, work_dir, warm=name == "pipeline_warm")
    raise ValueError(f"unknown workload {name!r}")
