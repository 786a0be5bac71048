"""Record the outputs every benchmark unit is checked against.

    python3 perfbench/record.py

Runs each unit of every workload twice (the second time with a warm disk
cache for the pipeline) and writes ``perfbench/reference.json``: the desk
check payload hashes, the ray_tower input pool with each vector's report
hash and modulus, and the sha256 of every pipeline artifact.  A unit that
raises is recorded with its exception type and no artifacts; the benchmark
then gates it on its verdict flags.  Outputs that differ between the two
runs abort the recording, because the benchmark could not check them.

Re-record only when a change is meant to alter outputs, and say so.
"""

from __future__ import annotations

import json
import math
import random
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads as wl  # noqa: E402

POOL_SEED = 20260823
INTEGRAL_SLOTS = 10
NONINTEGRAL_SLOTS = 4
VARIANTS = 6


def tower_pool(rng: random.Random) -> list[list[dict]]:
    """Slots of same-denominator variants in criterion 3's distribution.

    A slot fixes the denominators, so every variant of a slot costs about
    the same (the lcm ideal sets the work in `find_modulus`); the benchmark
    seed then picks one variant per slot.
    """
    gammas_pool = sorted(
        {Fraction(p, q) for q in range(2, 13) for p in range(1, q) if math.gcd(p, q) == 1}
    )
    slots = []
    for i in range(INTEGRAL_SLOTS + NONINTEGRAL_SLOTS):
        integral = i < INTEGRAL_SLOTS
        k = rng.randint(1, 3) if integral else rng.randint(1, 2)
        dens = [g.denominator for g in rng.sample(gammas_pool, k)]
        variants = []
        while len(variants) < VARIANTS:
            gammas = [rng.choice([g for g in gammas_pool if g.denominator == q]) for q in dens]
            if len(set(gammas)) < k:
                continue
            if integral:
                coeffs = [Fraction(rng.choice([-3, -2, -1, 1, 2, 3])) for _ in range(k)]
            else:
                coeffs = [Fraction(rng.choice([1, -1]), rng.choice([2, 3, 4]))]
                coeffs += [Fraction(rng.choice([-2, -1, 1, 2])) for _ in range(k - 1)]
            variants.append(
                {"integral": integral, "coeffs": [str(c) for c in coeffs], "gammas": [str(g) for g in gammas]}
            )
        slots.append(variants)
    return slots


def record_desk_check() -> dict:
    from wittkit import cli

    out = {}
    for d, level, bound in cli.DESK_CHECK_TRIPLES:
        hashes = set()
        for _ in range(2):
            wl.reset_module_caches()
            payload = cli.modularity_check(cli.parse_field(d), level, bound, wl.DESK_PREC)
            hashes.add(wl.canonical_sha256(payload))
        if len(hashes) != 1:
            raise SystemExit(f"desk check {d, level, bound} is not deterministic")
        if not payload["passed"] or payload["shift_classes"] != payload["ray_classes"]:
            raise SystemExit(f"desk check {d, level, bound} fails its verdict")
        out[wl.desk_label(d, level, bound)] = {
            "sha256": hashes.pop(),
            "passed": payload["passed"],
            "shift_classes": payload["shift_classes"],
            "ray_classes": payload["ray_classes"],
        }
        print(f"desk_check {d, level, bound}: {out[wl.desk_label(d, level, bound)]}", file=sys.stderr)
    return out


def record_ray_tower() -> dict:
    slots = []
    for variants in tower_pool(random.Random(POOL_SEED)):
        entries = []
        for spec in variants:
            outcomes = []
            for _ in range(2):
                wl.reset_module_caches()
                outcomes.append(wl.tower_outcome(wl.tower_run(spec)))
            if outcomes[0] != outcomes[1]:
                raise SystemExit(f"ray_tower {spec} is not deterministic")
            if not outcomes[0]["verdict"]:
                raise SystemExit(f"ray_tower {spec} fails criterion 3")
            entries.append({"spec": spec, "outcome": outcomes[0]})
        slots.append(entries)
        print(f"ray_tower slot {len(slots)}: {[e['spec']['gammas'] for e in entries]}", file=sys.stderr)
    return {"pool_seed": POOL_SEED, "slots": slots}


def record_pipeline(work_dir: Path) -> dict:
    from dataclasses import replace

    from wittkit import cli

    base = cli.RunConfig()
    cache = work_dir / "cache"
    out = {}
    for job in base.jobs:
        seen = []
        for run in ("cold", "warm"):
            wl.reset_module_caches()
            cfg = replace(base, jobs=(job,), out_dir=str(work_dir / run), cache_dir=str(cache))
            try:
                summary = cli.run_pipeline(cfg)
            except Exception as exc:
                seen.append({"files": None, "seed_error": type(exc).__name__})
                continue
            seen.append({"files": wl.artifact_hashes(summary, job), "seed_error": None})
        if seen[0] != seen[1]:
            raise SystemExit(f"pipeline job {job} differs between cold and warm: {seen}")
        out[job] = seen[0]
        print(f"pipeline {job}: {out[job]}", file=sys.stderr)
    return out


def main() -> int:
    wl.import_wittkit()
    with tempfile.TemporaryDirectory(dir=wl.ROOT) as tmp:
        ref = {
            "desk_check": record_desk_check(),
            "ray_tower": record_ray_tower(),
            "pipeline": record_pipeline(Path(tmp)),
        }
    wl.REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    print(f"wrote {wl.REFERENCE}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
