"""wittkit benchmark: one closed-loop caller, one thread, outputs checked.

    python3 perfbench/run.py --workload ray_tower --seed 1 --seconds 26 --trace 0
    python3 perfbench/run.py --workload all --seconds 5

A run first makes one untimed pass (it fills the warm cache for
pipeline_warm and finishes lazy imports for the others), then runs whole
passes of units, stopping at the pass boundary nearest to ``--seconds``,
and measures set-up in fresh interpreters between passes.  Every unit's
output is checked against ``reference.json``.  The last line of standard
output is one JSON object; the lines before it give the environment, each
metric by name with its unit, and every failed unit with its exception.

End-to-end metrics (``--trace 0``):
  setup_s       median over fresh interpreters of the time from start to
                'ready': wittkit imported and the workload's inputs built
  units_per_s   correct units per second spent in units, over the whole
                run (the harness's checks between units are not counted)
  unit_p50_s    median over a pass's units of each one's mean latency
                across the run; a failed or wrong unit counts as +inf
  correct_frac  correct units over units attempted (1 - failed fraction)
  peak_rss_mib  peak resident memory of the measuring process

The three timings are given at a reference machine speed.  Before every
unit and every set-up probe the run times a fixed calibration kernel, and
each timing is scaled by CALIBRATION_REF_S over the kernel's mean time in
the same run.  On a shared host other tenants slow everything by up to a
half, in spells longer than any run; the kernel slows with the program, so
the scaled figures hold steady where wall time does not.  The timings as
measured, and the kernel's mean, are printed above the result line.
Timings average over the whole run rather than take a median of passes,
which is steadier across runs when slow spells last seconds.

With ``--trace 1`` the run adds one traced pass after the untraced ones
and reports per-layer metrics for that pass instead; the spans go to
``perfbench/out/trace-<workload>-<seed>.json``.

Exit status: 0 when every output matches, 1 when one differs or a unit
with a recorded output raised, 2 when wittkit or the reference cannot be
loaded (then no result line is printed).
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import mpmath

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import workloads as wl  # noqa: E402

SETUP_PROBES = 7
OUT = HERE / "out"
# What the calibration kernel takes on the reference machine: the 2-vCPU
# host named in baseline.json, in its fast spells.  Timings are reported as
# if the machine ran at that speed throughout (see `at_reference_speed`).
CALIBRATION_REF_S = 0.0043

END_TO_END = {
    "setup_s": "s",
    "units_per_s": "1/s",
    "unit_p50_s": "s",
    "correct_frac": "frac",
    "peak_rss_mib": "MiB",
}


@dataclass
class Outcome:
    """One unit's result: `problem` says why it failed, `wrong` if it broke the record."""

    label: str
    seconds: float
    calibration_s: float
    problem: str | None
    wrong: bool
    counters: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.problem is None


def calibration_seconds() -> float:
    """Time a fixed slice of the arithmetic wittkit spends its time in.

    Rationals, as in qfield and rayclass, and mpmath complex numbers, as in
    modular: each workload leans on one or the other.  The garbage collector
    is off meanwhile, so that the program's heap does not weigh on the kernel.
    """
    gc.disable()
    t0 = time.perf_counter()
    kept = {}
    for i in range(1, 1200):
        kept[i % 97] = (Fraction(i, i + 1) + Fraction(i + 1, i + 3)).numerator
    with mpmath.workprec(400):
        z, acc = mpmath.mpc(0.1, 0.9), mpmath.mpc(0)
        for i in range(30):
            acc += mpmath.exp(z * i) / (i + 1)
    dt = time.perf_counter() - t0
    gc.enable()
    return dt


def at_reference_speed(seconds: float, calibration: list[float]) -> float:
    """Scale a time measured alongside `calibration` samples to the reference speed.

    Other tenants of a shared host slow everything in it by up to a half, in
    spells of seconds to many minutes, and no run is long enough to average
    them out.  The calibration kernel, timed before every unit, slows with
    them, so the ratio of a run's unit time to its kernel time is steady
    where either alone is not.
    """
    return seconds * CALIBRATION_REF_S / statistics.fmean(calibration)


def run_unit(unit: wl.Unit, tracer=None) -> Outcome:
    calibration = calibration_seconds()
    if unit.reset:
        wl.reset_module_caches()
    frame = tracer.unit_begin() if tracer else None
    t0 = time.perf_counter()
    try:
        out, error = unit.call(), None
    except Exception as exc:  # every failure is recorded, whatever its type
        out, error = None, type(exc).__name__
    dt = time.perf_counter() - t0
    if tracer:
        tracer.unit_end(frame, error is None)
    if error is not None:
        return Outcome(unit.label, dt, calibration, f"raised {error}", unit.reference)
    problem = unit.check(out)
    counters = unit.counters(out) if unit.counters else {}
    return Outcome(unit.label, dt, calibration, problem, problem is not None, counters)


def run_pass(units, tracer=None) -> list[Outcome]:
    return [run_unit(u, tracer) for u in units]


def measure(work, seconds: float, probe) -> tuple[list[list[Outcome]], list[tuple[float, float]]]:
    """Whole passes, stopping at the pass boundary nearest to `seconds` (at least one).

    Set-up probes run between passes, spread over the run, so that their
    median sees the same machine as the passes do.
    """
    passes: list[list[Outcome]] = []
    setup = [probe()]
    start = time.perf_counter()
    while True:
        passes.append(run_pass(work.pass_units()))
        elapsed = time.perf_counter() - start
        if len(setup) < SETUP_PROBES and elapsed >= len(setup) * seconds / SETUP_PROBES:
            setup.append(probe())
        if elapsed + elapsed / len(passes) / 2 > seconds:
            setup += [probe() for _ in range(SETUP_PROBES - len(setup))]
            return passes, setup


def units_per_s(outcomes: list[Outcome]) -> float:
    """Correct units per second the program was busy, at the reference speed.

    The harness's checks and the calibration kernel are not counted.
    """
    busy = sum(o.seconds for o in outcomes)
    return sum(o.ok for o in outcomes) / at_reference_speed(busy, [o.calibration_s for o in outcomes])


def latency(o: Outcome) -> float:
    """A unit's latency, with a failed or wrong unit as +inf."""
    return o.seconds if o.ok else math.inf


def unit_p50(passes: list[list[Outcome]]) -> float:
    """Median over a pass's units of each one's mean latency, at the reference speed.

    Every pass runs the same units in the same order (for ray_tower, one
    variant of each slot), so this weighs every input equally, and the mean
    spreads the host's slow spells over all of a unit's repeats.
    """
    p50 = statistics.median(statistics.fmean(map(latency, col)) for col in zip(*passes))
    return at_reference_speed(p50, [o.calibration_s for p in passes for o in p])


def setup_probe_seconds(workload: str, seed: int) -> tuple[float, float]:
    """Wall time from interpreter start to 'ready' in a fresh process, and the
    mean calibration time just before it."""
    calibration = statistics.fmean(calibration_seconds() for _ in range(3))
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", workload, "--seed", str(seed)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        dt = time.perf_counter() - t0
        _, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {err.strip()[-400:]}")
    return dt, calibration


def environment() -> dict:
    import importlib.util

    from importlib.metadata import PackageNotFoundError, version

    try:
        sympy_version = version("sympy")  # importing sympy here would inflate peak_rss_mib
    except PackageNotFoundError:
        sympy_version = None
    return {
        "python": platform.python_version(),
        "sympy": sympy_version,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
    }


def git_sha() -> str | None:
    """HEAD of the checkout, read without running git; None outside a repository."""
    git = wl.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def end_to_end(passes: list[list[Outcome]], setup: list[tuple[float, float]]) -> dict:
    outcomes = [o for p in passes for o in p]
    return {
        "setup_s": at_reference_speed(statistics.median(s for s, _ in setup), [c for _, c in setup]),
        "units_per_s": units_per_s(outcomes),
        "unit_p50_s": unit_p50(passes),
        "correct_frac": sum(o.ok for o in outcomes) / len(outcomes),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


PER_LAYER = (
    # (metric name, unit, span name, Stat field)
    ("rayclass.classify_ideals.calls", "count", "rayclass.classify_ideals", "calls"),
    ("rayclass.classify_ideals.self_s", "s", "rayclass.classify_ideals", "self_s"),
    ("rayclass.classify_ideals.ideals", "count", "rayclass.classify_ideals", "items"),
    ("rayclass.congruent_mod.calls", "count", "rayclass.congruent_mod", "calls"),
    ("rayclass.congruent_mod.self_s", "s", "rayclass.congruent_mod", "self_s"),
    ("rayclass.congruent_mod.true_ratio", "ratio", "rayclass.congruent_mod", "true"),
    ("rayclass.build_drf.self_s", "s", "rayclass.build_drf", "self_s"),
    ("qfield.ideal_mul.calls", "count", "qfield.ideal_mul", "calls"),
    ("qfield.ideal_mul.self_s", "s", "qfield.ideal_mul", "self_s"),
    ("qfield.is_principal.calls", "count", "qfield.is_principal", "calls"),
    ("qfield.is_principal.self_s", "s", "qfield.is_principal", "self_s"),
    ("qfield.enumerate_ideals.calls", "count", "qfield.enumerate_ideals", "calls"),
    ("qfield.enumerate_ideals.self_s", "s", "qfield.enumerate_ideals", "self_s"),
    ("witt.shift_partition.calls", "count", "witt.shift_partition", "calls"),
    ("witt.shift_partition.self_s", "s", "witt.shift_partition", "self_s"),
    ("domains.BigComplex.eq_strict.calls", "count", "domains.BigComplex.eq_strict", "calls"),
    ("witt.check_un.calls", "count", "witt.check_un", "calls"),
    ("witt.check_un.self_s", "s", "witt.check_un", "self_s"),
    ("witt.find_modulus.self_s", "s", "witt.find_modulus", "self_s"),
    ("witt.is_periodic_mod.calls", "count", "witt.is_periodic_mod", "calls"),
    ("domains.ExactCyclotomic.eq.calls", "count", "domains.ExactCyclotomic.eq", "calls"),
    ("cyclotomic.cyclo_context.calls", "count", "cyclotomic.cyclo_context", "calls"),
    ("witt.orbit_monoid.self_s", "s", "witt.orbit_monoid", "self_s"),
    ("witt.component_report.self_s", "s", "witt.component_report", "self_s"),
    ("witt.component_report.failed", "count", "witt.component_report", "failed"),
    ("modular.fricke.calls", "count", "modular.fricke", "calls"),
    ("modular.fricke.self_s", "s", "modular.fricke", "self_s"),
    ("modular.j_invariant.calls", "count", "modular.j_invariant", "calls"),
    ("modular.j_invariant.self_s", "s", "modular.j_invariant", "self_s"),
    ("modular.eisenstein.calls", "count", "modular.eisenstein", "calls"),
    ("modular.eisenstein.self_s", "s", "modular.eisenstein", "self_s"),
    ("modular.cm_point.calls", "count", "modular.cm_point", "calls"),
    ("modular.cm_point.hit_ratio", "ratio", "modular.cm_point", "hits"),
    ("modular.level_matrix.calls", "count", "modular.level_matrix", "calls"),
    ("modular.modular_vector.calls", "count", "modular.modular_vector", "calls"),
    ("modular.modular_vector.self_s", "s", "modular.modular_vector", "self_s"),
    ("automata.dfao_from_witt.self_s", "s", "automata.dfao_from_witt", "self_s"),
    ("automata.minimize.self_s", "s", "automata.minimize", "self_s"),
    ("automata.check_bridy.self_s", "s", "automata.check_bridy", "self_s"),
    ("algrec.lll_reduce.calls", "count", "algrec.lll_reduce", "calls"),
    ("algrec.lll_reduce.self_s", "s", "algrec.lll_reduce", "self_s"),
    ("algrec.lll_reduce.failed", "count", "algrec.lll_reduce", "failed"),
    ("algrec.lll_reduce.max_dim", "count", "algrec.lll_reduce", "max_dim"),
    ("algrec.lll_reduce.max_bits", "bit", "algrec.lll_reduce", "max_bits"),
    ("algrec.minpoly.calls", "count", "algrec.minpoly", "calls"),
    ("algrec.minpoly.self_s", "s", "algrec.minpoly", "self_s"),
    ("algrec.certify_vector.self_s", "s", "algrec.certify_vector", "self_s"),
    ("algrec.certify_vector.failed", "count", "algrec.certify_vector", "failed"),
    ("algrec.class_polynomial.self_s", "s", "algrec.class_polynomial", "self_s"),
    ("cli.modularity_check.self_s", "s", "cli.modularity_check", "self_s"),
    ("cli.run_pipeline.self_s", "s", "cli.run_pipeline", "self_s"),
    ("cli.cache.bytes_read", "B", "cli._cache_load", "bytes_read"),
    ("cli.cache.bytes_written", "B", "cli._cache_store", "bytes_written"),
    ("bench.unaccounted_s", "s", layers.UNIT, "self_s"),
)
COUNTERS = (("cli.cache.hits", "count"), ("cli.cache.misses", "count"), ("cli.artifacts.bytes_written", "B"))


def per_layer(tracer, outcomes: list[Outcome], untraced_rate: float) -> dict:
    metrics = {}
    for name, unit, span, attr in PER_LAYER:
        st = tracer.stats.get(span, layers.Stat())
        value = getattr(st, attr)
        if unit == "ratio":
            value = value / st.calls if st.calls else 0.0
        metrics[name] = (value, unit)
    for name, unit in COUNTERS:
        metrics[name] = (sum(o.counters.get(name, 0) for o in outcomes), unit)
    for layer, seconds in tracer.layer_self_s().items():
        metrics[f"layer.{layer}.self_s"] = (seconds, "s")
    metrics["bench.trace_overhead_units_per_s"] = (units_per_s(outcomes) - untraced_rate, "1/s")
    return metrics


def run_workload(name: str, ref: dict, seed: int, seconds: float, traced: bool, env: dict):
    """Measure one workload.

    Returns the metrics to report, the outcomes they were computed from and
    every outcome checked (the warm-cache fill and untraced passes included).
    """
    work_dir = OUT / f"run-{name}-{seed}-{os.getpid()}"
    try:
        work = wl.make_workload(name, ref, seed, work_dir)
        prepared = run_pass(work.prepare())
        passes, setup = measure(work, seconds, lambda: setup_probe_seconds(name, seed))
        outcomes = [o for p in passes for o in p]
        e2e = end_to_end(passes, setup)
        metrics = {k: (v, END_TO_END[k]) for k, v in e2e.items()}
        checked = prepared + outcomes
        print(f"workload {name} seed {seed}: {len(passes)} passes, {len(outcomes)} units timed, "
              f"{sum(not o.ok for o in outcomes)} failed; set-up samples {[s for s, _ in setup]}")
        print(f"  pass seconds {[sum(o.seconds for o in p) for p in passes]}")
        busy = sum(o.seconds for o in outcomes)
        print(f"  as measured: {sum(o.ok for o in outcomes) / busy} correct units per busy second; "
              f"calibration kernel {statistics.fmean(o.calibration_s for o in outcomes)} s "
              f"(reference {CALIBRATION_REF_S} s)")
        lat = sorted(latency(o) for o in outcomes)
        if len(lat) >= 100:
            p90 = lat[math.ceil(0.9 * len(lat)) - 1]
            print(f"  unit_p90_s = {p90} s (nearest rank over {len(lat)} units)")
        if traced:
            for k, (v, unit) in metrics.items():
                print(f"  {k} = {v} {unit} (untraced)")
            tracer = layers.Tracer()
            tracer.install()
            try:
                outcomes = run_pass(work.pass_units(), tracer)
            finally:
                tracer.uninstall()
            metrics = per_layer(tracer, outcomes, e2e["units_per_s"])
            checked += outcomes
            missing = ", ".join(tracer.missing) or "none"
            print(f"  traced pass: {sum(s.calls for s in tracer.stats.values())} spans, "
                  f"{tracer.dropped} not kept, missing targets: {missing}")
            tracer.write(OUT / f"trace-{name}-{seed}.json", {"workload": name, "seed": seed, "env": env})
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return metrics, outcomes, checked


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        wl.import_wittkit()
        ref = json.loads(wl.REFERENCE.read_text())
    except (ImportError, OSError, ValueError) as exc:
        print(f"error: cannot load wittkit or the reference outputs: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        wl.make_workload(args.workload, ref, args.seed, OUT / "unused")
        print("ready", flush=True)
        return 0

    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    names = wl.WORKLOADS if args.workload == "all" else (args.workload,)
    metrics: dict = {}
    checked: list[Outcome] = []
    attempted = failed = 0
    for name in names:
        m, outcomes, checked_here = run_workload(name, ref, args.seed, args.seconds, bool(args.trace), env)
        prefix = f"{name}." if args.workload == "all" else ""
        for k, (v, unit) in m.items():
            print(f"  {prefix}{k} = {v} {unit}")
            # +inf (a median over mostly failed units) is not JSON: report null
            metrics[prefix + k] = {"value": v if math.isfinite(v) else None, "unit": unit}
        failures = Counter((o.label, o.problem, o.wrong) for o in checked_here if not o.ok)
        for (label, problem, wrong), n in sorted(failures.items()):
            note = ", differs from the record" if wrong else ""
            print(f"  failed unit {name}/{label}: {problem} ({n}x{note})")
        checked += checked_here
        attempted += len(outcomes)
        failed += sum(not o.ok for o in outcomes)
    correct = not any(o.wrong for o in checked)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
