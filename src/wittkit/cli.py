"""The `wittkit` command line: argument parsing, I/O and the artifact pipeline.

This module parses tokens, vector specs and configs (rejecting malformed
ones as usage errors), calls the library and writes JSON.  Subcommands:
field (inspect a base field), drf (ray class monoids), witt (vector
certificates, orbits, moduli, an exploratory cyclic search), automata (DFAO
export and the state-complexity check), modular (evaluate deformation
families at CM points), algrec (minimal polynomials, class polynomials),
check (the modularity desk check, modular.modularity_check), pipeline
(cached, deterministic artifact sets from a config file; each job returns
unstamped payloads, and run_pipeline stamps them with the truncation
parameters and the config hash).

Exit codes: 0 pass, 1 check failed, 2 usage, 3 precision or bound too small.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import sys
import tempfile
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path

import mpmath
from mpmath.libmp import from_man_exp

from . import algrec, automata, modular, rayclass, witt
from .domains import BigComplex
from .errors import (
    InsufficientBoundError,
    NoRelationError,
    PrecisionError,
    UsageError,
    WittkitError,
    require_int,
)
from .modular import modularity_check
from .qfield import (
    IdealHNF,
    QuadElement,
    QuadField,
    checked_ideal,
    class_group,
    class_number,
    enumerate_ideals,
    ideal_divisors,
    ideal_from_json,
    make_field,
    prime_ideals,
    principal_ideal,
)

EXIT_PASS = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_PRECISION = 3

DESK_CHECK_TRIPLES = ((-1, 2, 60), (-5, 1, 60), (-3, 2, 40))


# ---------------------------------------------------------------------------
# shared parsing and output helpers


def parse_field(token) -> QuadField:
    text = str(token).strip()
    if text.upper() == "Q":
        return make_field(1)
    try:
        value = int(text)
    except ValueError:
        raise UsageError(f"field must be 'Q' or an integer, got {token!r}") from None
    return make_field(value)


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"not a rational number: {text!r}") from None


def parse_ideal(field: QuadField, token) -> IdealHNF:
    """Ideal tokens: 'N' (principal), 'x,y' (generated by x + y*w), 'a:b:c[:den]'."""
    if isinstance(token, dict):
        return ideal_from_json(field, token)
    text = str(token).strip()
    if text.startswith("(") and text.endswith(")"):
        text = text[1:-1].strip()
    if ":" in text:
        try:
            parts = [int(p) for p in text.split(":")]
        except ValueError:
            raise UsageError(f"malformed HNF ideal token {token!r}") from None
        if len(parts) not in (3, 4):
            raise UsageError(f"HNF tokens need 3 or 4 integers, got {token!r}")
        return checked_ideal(field, *parts)
    if "," in text:
        xs, ys = text.split(",", 1)
        return principal_ideal(QuadElement(field, _parse_fraction(xs), _parse_fraction(ys)))
    return principal_ideal(QuadElement(field, _parse_fraction(text), Fraction(0)))


def parse_family(field: QuadField, text: str):
    t = text.strip()
    if t == "j":
        return modular.JFamily()
    if t.startswith("fricke:"):
        parts = t[len("fricke:") :].split(",")
        if len(parts) != 2:
            raise UsageError("fricke families need two indices, like fricke:1/2,0")
        return modular.FrickeFamily((_parse_fraction(parts[0]), _parse_fraction(parts[1])))
    if t.startswith("char:"):
        return modular.char_family_from_ideal(parse_ideal(field, t[len("char:") :]))
    raise UsageError(f"unknown family {text!r}; expected j, fricke:a1,a2, or char:<ideal>")


def stamp(payload: dict, *, bound=None, primes=None, depth=None, prec=None) -> dict:
    out = dict(payload)
    out["params"] = {
        "bound": bound,
        "prime_norm_bound": primes,
        "depth": depth,
        "prec": prec,
    }
    return out


def _render_json(payload) -> str:
    """A report as wittkit writes it: sorted keys, two-space indent, a final newline."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _emit(payload: dict, out: str | None) -> None:
    text = _render_json(payload)
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _canonical_bytes(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True).encode()


def _sha256(obj) -> str:
    return hashlib.sha256(_canonical_bytes(obj)).hexdigest()


def _read_json_object(path: str) -> dict:
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict):
        raise UsageError(f"{path} must hold a JSON object")
    return data


# ---------------------------------------------------------------------------
# vector specs

_SPEC_KINDS = ("zeta", "zlin", "rho", "modular")


def vector_from_spec(spec: dict) -> witt.WittVector:
    kind = spec.get("kind")

    def need(key):
        if key not in spec:
            raise UsageError(f"{kind} specs need a {key!r} field")
        return spec[key]

    def integer(key, default):
        return require_int(spec.get(key, default), f"spec field {key!r}")

    if kind == "zeta":
        g = _parse_fraction(str(need("gamma")))
        return witt.zeta_gamma(g.denominator, g.numerator, integer("bound", 200))
    if kind == "zlin":
        terms = spec.get("terms")
        if not terms or not isinstance(terms, list) or not all(
            isinstance(t, list) and len(t) == 2 for t in terms
        ):
            raise UsageError("zlin specs need a nonempty 'terms' list of [coeff, gamma] pairs")
        coeffs = [_parse_fraction(str(c)) for c, _ in terms]
        gammas = [_parse_fraction(str(g)) for _, g in terms]
        return witt.zlinear_combine(coeffs, gammas, integer("bound", 200))
    if kind == "rho":
        field = parse_field(spec.get("d", "Q"))
        return witt.rho_vector(parse_ideal(field, need("ideal")), integer("bound", 30))
    if kind == "modular":
        field = parse_field(need("d"))
        fam = parse_family(field, str(spec.get("family", "j")))
        return modular.modular_vector(fam, field, integer("bound", 40), integer("prec", 120))
    raise UsageError(f"unknown vector kind {kind!r}; expected one of {', '.join(_SPEC_KINDS)}")


def load_vector(path: str) -> witt.WittVector:
    data = _read_json_object(path)
    if data.get("schema") == "wittkit/vector/1":
        return witt.WittVector.from_json(data)
    return vector_from_spec(data)


def _vector_csv(xi: witt.WittVector) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["ideal", "re", "im"])
    for a in xi.ideals():
        re, im = xi.domain.value_to_json(xi.value_at(a))
        writer.writerow([witt.ideal_label(a), re, im])
    return buf.getvalue()


def _domain_prec(xi: witt.WittVector):
    return getattr(xi.domain, "prec", None)


# ---------------------------------------------------------------------------
# the field report, shared by `field info` and the pipeline


def field_info_payload(field: QuadField, prime_bound: int) -> dict:
    return {
        "schema": "wittkit/field/1",
        "d": field.d,
        "disc": field.disc,
        "omega_rule": f"w^2 = {field.omega_s}*w + {field.omega_t}",
        "rational": field.is_rational,
        "class_number": class_number(field),
        "class_group": [witt.ideal_label(r) for r in class_group(field)],
        "n_units": len(field.units()),
        "primes": [witt.ideal_label(p) for p in prime_ideals(field, prime_bound)],
    }


# ---------------------------------------------------------------------------
# subcommand handlers


def cmd_field_info(args) -> int:
    field = parse_field(args.d)
    payload = stamp(field_info_payload(field, args.primes), primes=args.primes)
    _emit(payload, args.out)
    return EXIT_PASS


def cmd_drf_build(args) -> int:
    field = parse_field(args.d)
    modulus = parse_ideal(field, args.modulus)
    monoid = rayclass.build_drf(field, modulus, args.bound)
    payload = stamp(monoid.to_json(), bound=monoid.enumeration_bound)
    _emit(payload, args.out)
    return EXIT_PASS


def cmd_witt_verify(args) -> int:
    xi = load_vector(args.vector)
    rep = witt.check_un(xi, args.depth, args.primes)
    payload = stamp(
        rep.to_json(),
        bound=xi.bound,
        primes=args.primes,
        depth=args.depth,
        prec=_domain_prec(xi),
    )
    _emit(payload, args.out)
    return EXIT_PASS if rep.passed else EXIT_CHECK_FAILED


def cmd_witt_orbit(args) -> int:
    xi = load_vector(args.vector)
    monoid = witt.orbit_monoid([xi], args.primes)
    payload = stamp(
        monoid.to_json(), bound=xi.bound, primes=args.primes, prec=_domain_prec(xi)
    )
    _emit(payload, args.out)
    return EXIT_PASS


def cmd_witt_modulus(args) -> int:
    xi = load_vector(args.vector)
    if args.candidate_bound is not None:
        candidates = list(enumerate_ideals(xi.field, args.candidate_bound))
    elif xi.gring is not None:
        level = principal_ideal(QuadElement(xi.field, Fraction(xi.gring_L), Fraction(0)))
        candidates = ideal_divisors(level)
    else:
        candidates = list(enumerate_ideals(xi.field, 16))
    found = witt.find_modulus(xi, candidates)
    payload = stamp(
        {
            "schema": "wittkit/modulus/1",
            "found": found is not None,
            "modulus": found.to_json() if found is not None else None,
            "label": witt.ideal_label(found) if found is not None else None,
            "n_candidates": len(candidates),
        },
        bound=xi.bound,
        prec=_domain_prec(xi),
    )
    _emit(payload, args.out)
    return EXIT_PASS


def cmd_witt_cyclic_search(args) -> int:
    payload = witt.cyclic_search(
        args.target_size,
        max_den=args.max_den,
        coeff_bound=args.coeff_bound,
        limit=args.limit,
        max_hits=args.max_hits,
        bound=args.bound,
        primes=args.primes,
    )
    _emit(stamp(payload, bound=args.bound, primes=args.primes), args.out)
    return EXIT_PASS


def cmd_automata(args) -> int:
    xi = load_vector(args.vector)
    if args.action == "check-bridy":
        rep = automata.check_bridy([xi], args.primes)
        payload = stamp(
            rep.to_json(), bound=rep.bound, primes=args.primes, prec=_domain_prec(xi)
        )
        _emit(payload, args.out)
        return EXIT_PASS if rep.equal else EXIT_CHECK_FAILED
    machine = automata.dfao_from_witt([xi], args.primes)
    if args.action == "minimize":
        machine = automata.minimize(machine)
    if args.dot:
        Path(args.dot).write_text(automata.export_dot(machine))
    payload = stamp(
        machine.to_json(), bound=machine.bound, primes=args.primes, prec=_domain_prec(xi)
    )
    _emit(payload, args.out)
    return EXIT_PASS


def cmd_modular_eval(args) -> int:
    field = parse_field(args.d)
    family = parse_family(field, args.family)
    xi = modular.modular_vector(family, field, args.bound, args.prec)
    payload = stamp(xi.to_json(), bound=args.bound, prec=args.prec)
    payload["family"] = family.describe()
    _emit(payload, args.out)
    return EXIT_PASS


def cmd_algrec_minpoly(args) -> int:
    xi = witt.WittVector.from_json(_read_json_object(args.value_from))
    if xi.domain.kind != "bigcomplex":
        raise UsageError("minpoly reads numeric vectors; this one is exact already")
    target = parse_ideal(xi.field, args.index)
    if target not in xi.ideals():
        raise UsageError(
            f"ideal {witt.ideal_label(target)} is outside the stored bound {xi.bound}"
        )
    poly = algrec.minpoly(xi.value_at(target), args.dmax, prec=xi.domain.prec)
    payload = stamp(
        {
            "schema": "wittkit/minpoly/1",
            "index": witt.ideal_label(target),
            "found": poly is not None,
            "poly": poly.to_json() if poly is not None else None,
        },
        bound=xi.bound,
        prec=xi.domain.prec,
    )
    _emit(payload, args.out)
    if poly is None:
        print(
            "no relation found: the value may be transcendental or the precision too low",
            file=sys.stderr,
        )
        return EXIT_PRECISION
    return EXIT_PASS


def cmd_algrec_classpoly(args) -> int:
    rep = algrec.class_polynomial(args.d, args.prec)
    payload = stamp(rep.to_json(), prec=args.prec)
    _emit(payload, args.out)
    return EXIT_PASS


def cmd_check(args) -> int:
    if args.d is None:
        triples = DESK_CHECK_TRIPLES
    else:
        triples = ((args.d, args.level, args.bound),)
    results = []
    for d, level, bound in triples:
        field = parse_field(d)
        result = stamp(modularity_check(field, level, bound, args.prec), bound=bound, prec=args.prec)
        results.append(result)
        verdict = "PASS" if result["passed"] else "FAIL"
        print(
            f"{verdict} d={d} N={level} B={bound} prec={args.prec}: "
            f"{result['shift_classes']} shift classes, {result['ray_classes']} ray classes, "
            f"gcds {'constant' if result['gcd_constant_per_class'] else 'NOT constant'}",
            file=sys.stderr,
        )
    passed = all(r["passed"] for r in results)
    payload = {"schema": "wittkit/check/1", "results": results, "passed": passed}
    _emit(payload, args.out)
    return EXIT_PASS if passed else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# pipeline

_ALL_JOBS = (
    "field",
    "drf",
    "vector",
    "orbit",
    "dfao",
    "bridy",
    "components",
    "classpoly",
    "certify",
    "check",
)
# a JSON artifact with one of these set to false fails the run (exit 1)
_VERDICT_FLAGS = ("passed", "equal", "ok")


@dataclass(frozen=True)
class RunConfig:
    d: int = -5
    bound: int = 40
    prime_norm_bound: int = 10
    depth: int = 2
    prec: int = 120
    level: int = 1
    modulus: str = "2"
    family: str = "j"
    dmax: int = 8
    jobs: tuple[str, ...] = _ALL_JOBS
    out_dir: str = "artifacts"
    cache_dir: str | None = None

    def validate(self) -> None:
        for name in ("d", "bound", "prime_norm_bound", "depth", "prec", "level", "dmax"):
            require_int(getattr(self, name), name)
        for name in ("modulus", "family", "out_dir"):
            if not isinstance(getattr(self, name), str):
                raise UsageError(f"{name} must be a string")
        if self.cache_dir is not None and not isinstance(self.cache_dir, str):
            raise UsageError("cache_dir must be a string")
        if not isinstance(self.jobs, tuple) or not all(isinstance(j, str) for j in self.jobs):
            raise UsageError("jobs must be a list of job names")
        for name in ("bound", "prime_norm_bound", "prec", "level", "dmax"):
            if getattr(self, name) < 1:
                raise UsageError(f"{name} must be positive")
        if self.depth < 0:
            raise UsageError("depth must be >= 0")
        if self.prec < 40:
            raise UsageError("pipeline precision must be >= 40")
        unknown = [j for j in self.jobs if j not in _ALL_JOBS]
        if unknown:
            raise UsageError(f"unknown jobs: {', '.join(unknown)}")
        if not self.jobs:
            raise UsageError("jobs must name at least one job")
        repeated = sorted({j for j in self.jobs if self.jobs.count(j) > 1})
        if repeated:
            raise UsageError(f"repeated jobs: {', '.join(repeated)}")

    def canonical(self) -> dict:
        """The knobs that affect artifact contents: all but the jobs and paths."""
        skip = ("jobs", "out_dir", "cache_dir")
        return {k: getattr(self, k) for k in self.__dataclass_fields__ if k not in skip}


def load_config(path: str | None, overrides: dict) -> RunConfig:
    data: dict = {}
    if path is not None and path.endswith(".toml"):
        try:
            import tomllib
        except ImportError:
            raise UsageError("TOML configs need Python 3.11+; use a JSON config") from None
        try:
            data = tomllib.loads(Path(path).read_text())
        except tomllib.TOMLDecodeError as e:
            raise UsageError(f"{path}: {e}") from None
    elif path is not None:
        data = _read_json_object(path)
    data.pop("schema", None)
    known = set(RunConfig.__dataclass_fields__)
    unknown = set(data) - known
    if unknown:
        raise UsageError(f"unknown config keys: {', '.join(sorted(unknown))}")
    if isinstance(data.get("jobs"), list):
        data["jobs"] = tuple(data["jobs"])
    cfg = RunConfig(**data)
    clean = {k: v for k, v in overrides.items() if v is not None}
    if "jobs" in clean:
        clean["jobs"] = tuple(j.strip() for j in clean["jobs"].split(",") if j.strip())
    if clean:
        cfg = replace(cfg, **clean)
    cfg.validate()
    return cfg


def _compute_job(cfg: RunConfig, field: QuadField, job: str, get_vector) -> dict:
    """One job's files: an unstamped payload per .json name, text for the rest.

    get_vector() gives the config family's vector.
    """
    P = cfg.prime_norm_bound
    if job == "field":
        return {"field.json": field_info_payload(field, P)}
    if job == "drf":
        return {"drf.json": rayclass.build_drf(field, parse_ideal(field, cfg.modulus)).to_json()}
    if job == "vector":
        xi = get_vector()
        return {"vector.json": {**xi.to_json(), "family": cfg.family}, "vector.csv": _vector_csv(xi)}
    if job == "orbit":
        return {"orbit.json": witt.orbit_monoid([get_vector()], P).to_json()}
    if job == "dfao":
        machine = automata.minimize(automata.dfao_from_witt([get_vector()], P))
        return {"dfao.json": machine.to_json(), "dfao.dot": automata.export_dot(machine)}
    if job == "bridy":
        return {"bridy.json": automata.check_bridy([get_vector()], P).to_json()}
    if job == "components":
        return {"components.json": witt.component_report(get_vector(), P, dmax=cfg.dmax).to_json()}
    if job == "classpoly":
        return {"classpoly.json": algrec.class_polynomial(cfg.d, cfg.prec).to_json()}
    if job == "certify":
        return {"certify.json": algrec.certify_vector(get_vector(), dmax=cfg.dmax).to_json()}
    if job == "check":
        return {"check.json": modularity_check(field, cfg.level, cfg.bound, cfg.prec)}
    raise UsageError(f"unknown job {job!r}")


def _stamp_files(cfg: RunConfig, cfg_hash: str, files: dict) -> dict:
    """File entries for one job's files; every JSON payload gets params and the config hash.

    A payload becomes {"type": "json", "data": <stamped payload>}, other
    files {"type": "text", "data": <str>}; _text_files renders the payloads
    before run_pipeline stores and writes them.  params.bound is the
    payload's own bound where it reports one (drf's enumeration bound), else
    the config's.
    """
    out = {}
    for name, data in files.items():
        if isinstance(data, str):
            out[name] = {"type": "text", "data": data}
            continue
        stamped = stamp(
            data,
            bound=data.get("bound", cfg.bound),
            primes=cfg.prime_norm_bound,
            depth=cfg.depth,
            prec=cfg.prec,
        )
        stamped["config_sha256"] = cfg_hash
        out[name] = {"type": "json", "data": stamped}
    return out


def _text_files(files: dict) -> dict:
    """The same files with each JSON payload rendered as the text written out."""
    return {
        name: entry if entry["type"] == "text" else {"type": "text", "data": _render_json(entry["data"])}
        for name, entry in files.items()
    }


def _failed_flags(path: Path | None, files: dict) -> list[str]:
    """The false verdict flags of a job's .json artifacts, read from their text.

    A .json artifact whose text is not a JSON object can only come from the
    cache entry at path, which is then reported as poisoned.
    """
    failed = []
    for name in sorted(files):
        if not name.endswith(".json"):
            continue
        try:
            data = json.loads(files[name]["data"])
        except ValueError:
            data = None
        if not isinstance(data, dict):
            raise UsageError(f"cache entry {path} holds a malformed file; delete the poisoned file")
        failed += [f"{name}:{f}" for f in _VERDICT_FLAGS if data.get(f) is False]
    return failed


def _cache_load(cache_dir: Path, key: str):
    """The checked files of the entry for key, or None when the cache lacks it.

    Job entries hold each artifact's rendered text; entries written before
    that, and the vector's bits entry, hold {"type": "json"} payloads.  An
    entry that is not JSON, fails its checksum or holds a malformed file is
    a UsageError naming the file to delete.
    """
    path = cache_dir / f"{key}.json"
    try:
        raw = path.read_bytes()
    except FileNotFoundError:
        return None
    try:
        data = json.loads(raw)
    except (json.JSONDecodeError, UnicodeDecodeError):
        raise UsageError(f"cache entry {path} is not valid JSON; delete the poisoned file") from None
    files = data.get("files") if isinstance(data, dict) else None
    if files is None or data.get("key") != key or _sha256(files) != data.get("files_sha256"):
        raise UsageError(f"cache entry {path} fails its checksum; delete the poisoned file")
    if not isinstance(files, dict) or not all(_is_file_entry(n, e) for n, e in files.items()):
        raise UsageError(f"cache entry {path} holds a malformed file; delete the poisoned file")
    return files


def _is_file_entry(name: str, entry) -> bool:
    """A bare file name mapped to {"type": "text", "data": <str>} or
    {"type": "json", "data": <object>}: the vector's bits, or a report in an
    entry written before reports were stored as text."""
    if Path(name).name != name or name in ("", ".", ".."):
        return False
    if not isinstance(entry, dict) or entry.keys() != {"type", "data"}:
        return False
    kind, data = entry["type"], entry["data"]
    return (kind == "json" and isinstance(data, dict)) or (kind == "text" and isinstance(data, str))


def _cache_store(cache_dir: Path, key: str, files: dict) -> None:
    """Write the entry for key: the files with their checksum, as compact canonical JSON.

    A reader sees the old entry or the whole new one, never a torn write.
    """
    cache_dir.mkdir(parents=True, exist_ok=True)
    payload = {
        "schema": "wittkit/cache/1",
        "key": key,
        "files_sha256": _sha256(files),
        "files": files,
    }
    fd, tmp = tempfile.mkstemp(dir=cache_dir, prefix=f".{key}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(_canonical_bytes(payload) + b"\n")
        os.replace(tmp, cache_dir / f"{key}.json")
    finally:
        Path(tmp).unlink(missing_ok=True)


# The config vector's cache entry, one per (d, family, bound, prec), read by
# the jobs that take the config's vector (the check job evaluates its own on
# exact keys): one JSON file holding each component's exact bits, so a
# reloaded vector is the computed one bit for bit (printed digits would drop
# the guard bits that certify.json's residuals show).
_VECTOR_FILE = "vector.bits.json"


def _mpc_bits(z) -> list:
    """Each part of z as its mpf tuple [sign, hex(man), exp, bc]."""
    return [[sign, hex(man), exp, bc] for sign, man, exp, bc in z._mpc_]


def _mpc_from_bits(item):
    """The mpc _mpc_bits wrote; ValueError for anything it could not have written."""
    if not isinstance(item, list) or len(item) != 2:
        raise ValueError(item)
    parts = []
    for part in item:
        if not isinstance(part, list) or len(part) != 4:
            raise ValueError(part)
        sign, man_hex, exp, bc = part
        if not isinstance(man_hex, str) or not all(type(v) is int for v in (sign, exp, bc)):
            raise ValueError(part)
        man = int(man_hex, 16)
        mpf = from_man_exp(-man if sign else man, exp)
        if mpf != (sign, man, exp, bc) or hex(man) != man_hex:
            raise ValueError(part)
        parts.append(mpf)
    return mpmath.mp.make_mpc(tuple(parts))


def _vector_key(cfg: RunConfig) -> str:
    """The config vector's own inputs, with its family in canonical form.

    j and Fricke families are named by describe(), so "fricke:2/4,0" shares
    the entry of "fricke:1/2,0"; char: families by their stripped text, since
    describe() is not unique for those.
    """
    text = cfg.family.strip()
    name = text if text.startswith("char:") else parse_family(None, text).describe()
    return _sha256({"v": 1, "vector": {"d": cfg.d, "family": name, "bound": cfg.bound, "prec": cfg.prec}})


def _vector_from_entry(path: Path, files: dict, field: QuadField, cfg: RunConfig) -> witt.WittVector:
    """Rebuild the modular vector from its cache entry, in witt._ideals order."""
    ideals = witt._ideals(field, cfg.bound)
    entry = files.get(_VECTOR_FILE)
    values = entry["data"].get("values") if entry is not None and entry["type"] == "json" else None
    try:
        if not isinstance(values, list) or len(values) != len(ideals):
            raise ValueError(values)
        components = [_mpc_from_bits(v) for v in values]
    except ValueError:
        raise UsageError(f"cache entry {path} holds a malformed vector; delete the poisoned file") from None
    return witt.WittVector(field, BigComplex(cfg.prec), cfg.bound, values=dict(zip(ideals, components)))


def run_pipeline(cfg: RunConfig) -> dict:
    cfg.validate()
    field = parse_field(cfg.d)
    out_root = Path(cfg.out_dir)
    out_root.mkdir(parents=True, exist_ok=True)
    cache_dir = Path(cfg.cache_dir) if cfg.cache_dir else None
    canonical = cfg.canonical()
    cfg_hash = _sha256(canonical)

    # "hit" or "miss" once a job asked for the vector with a cache dir set
    vector_cache = None
    vector = None

    def get_vector() -> witt.WittVector:
        """The config family's vector: from this run, else the cache, else summed."""
        nonlocal vector, vector_cache
        if vector is None:
            key = _vector_key(cfg)
            files = _cache_load(cache_dir, key) if cache_dir else None
            if files is not None:
                vector = _vector_from_entry(cache_dir / f"{key}.json", files, field, cfg)
                vector_cache = "hit"
            else:
                vector = modular.modular_vector(parse_family(field, cfg.family), field, cfg.bound, cfg.prec)
                if cache_dir:
                    bits = [_mpc_bits(vector.value_at(a)) for a in vector.ideals()]
                    _cache_store(cache_dir, key, {_VECTOR_FILE: {"type": "json", "data": {"values": bits}}})
                    vector_cache = "miss"
        return vector

    hits, misses, failed = [], [], []
    artifacts: dict[str, list[str]] = {}
    for job in cfg.jobs:
        key = _sha256({"v": 1, "job": job, "config": canonical})
        entry_path = cache_dir / f"{key}.json" if cache_dir else None
        files = _cache_load(cache_dir, key) if cache_dir else None
        if files is None:
            files = _text_files(_stamp_files(cfg, cfg_hash, _compute_job(cfg, field, job, get_vector)))
            if cache_dir:
                _cache_store(cache_dir, key, files)
            misses.append(job)
        else:
            files = _text_files(files)  # an older entry holds its reports as payloads
            hits.append(job)
        failed += _failed_flags(entry_path, files)
        paths = []
        for rel in sorted(files):
            path = out_root / rel
            path.write_text(files[rel]["data"])
            paths.append(str(path))
        artifacts[job] = paths
    return {
        "schema": "wittkit/pipeline/1",
        "config_sha256": cfg_hash,
        "out_dir": str(out_root),
        "artifacts": artifacts,
        "cache_hits": hits,
        "cache_misses": misses,
        "vector_cache": vector_cache,
        "failed_checks": failed,
    }


def cmd_pipeline(args) -> int:
    overrides = {name: getattr(args, name) for name in RunConfig.__dataclass_fields__}
    cfg = load_config(args.config, overrides)
    summary = run_pipeline(cfg)
    _emit(summary, args.out)
    return EXIT_CHECK_FAILED if summary["failed_checks"] else EXIT_PASS


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wittkit",
        description="ray class monoids, truncated Witt vectors, automata, modular vectors",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("field", help="inspect a base field")
    fsub = p.add_subparsers(dest="action", required=True)
    q = fsub.add_parser("info", help="discriminant, class group, units, small primes")
    q.add_argument("--d", required=True, help="field tag: negative squarefree integer or Q")
    q.add_argument("--primes", type=int, default=20, help="list primes of norm up to this")
    q.add_argument("--out")
    q.set_defaults(func=cmd_field_info)

    p = sub.add_parser("drf", help="ray class monoids")
    dsub = p.add_subparsers(dest="action", required=True)
    q = dsub.add_parser("build", help="build the monoid for a modulus")
    q.add_argument("--d", required=True)
    q.add_argument("--modulus", required=True, help="ideal token, like 2 or 1,1 or 2:0:2")
    q.add_argument("--bound", type=int, default=None, help="ideal enumeration bound")
    q.add_argument("--out")
    q.set_defaults(func=cmd_drf_build)

    p = sub.add_parser("witt", help="vector certificates, orbits, moduli")
    wsub = p.add_subparsers(dest="action", required=True)
    q = wsub.add_parser("verify", help="truncated unit-tower membership certificate")
    q.add_argument("--vector", required=True, help="vector spec or stored-vector JSON file")
    q.add_argument("--depth", type=int, default=2)
    q.add_argument("--primes", type=int, default=23, help="test primes of norm up to this")
    q.add_argument("--out")
    q.set_defaults(func=cmd_witt_verify)
    q = wsub.add_parser("orbit", help="shift-orbit monoid")
    q.add_argument("--vector", required=True)
    q.add_argument("--primes", type=int, default=10)
    q.add_argument("--out")
    q.set_defaults(func=cmd_witt_orbit)
    q = wsub.add_parser("modulus", help="smallest periodicity modulus")
    q.add_argument("--vector", required=True)
    q.add_argument("--candidate-bound", type=int, default=None)
    q.add_argument("--out")
    q.set_defaults(func=cmd_witt_modulus)
    q = wsub.add_parser("cyclic-search", help="exploratory search; asserts nothing")
    q.add_argument("--target-size", type=int, required=True, help="orbit monoid size to look for")
    q.add_argument("--max-den", type=int, default=6)
    q.add_argument("--coeff-bound", type=int, default=2)
    q.add_argument("--limit", type=int, default=200, help="candidates to try")
    q.add_argument("--max-hits", type=int, default=5)
    q.add_argument("--bound", type=int, default=400)
    q.add_argument("--primes", type=int, default=13)
    q.add_argument("--out")
    q.set_defaults(func=cmd_witt_cyclic_search)

    p = sub.add_parser("automata", help="DFAO construction and checks")
    asub = p.add_subparsers(dest="action", required=True)
    for action, help_text in (
        ("build", "orbit-monoid automaton"),
        ("minimize", "Moore-minimized automaton"),
        ("check-bridy", "state complexity vs orbit dimension"),
    ):
        q = asub.add_parser(action, help=help_text)
        q.add_argument("--vector", required=True)
        q.add_argument("--primes", type=int, default=10)
        q.add_argument("--dot", help="also write Graphviz source here")
        q.add_argument("--out")
        q.set_defaults(func=cmd_automata, action=action)

    p = sub.add_parser("modular", help="deformation families at CM points")
    msub = p.add_subparsers(dest="action", required=True)
    q = msub.add_parser("eval", help="evaluate a family on all in-bound ideals")
    q.add_argument("--d", required=True)
    q.add_argument("--family", default="j", help="j, fricke:a1,a2, or char:<ideal>")
    q.add_argument("--bound", type=int, default=40)
    q.add_argument("--prec", type=int, default=120)
    q.add_argument("--out")
    q.set_defaults(func=cmd_modular_eval)

    p = sub.add_parser("algrec", help="exact recognition of numeric values")
    gsub = p.add_subparsers(dest="action", required=True)
    q = gsub.add_parser("minpoly", help="integer relation for one stored component")
    q.add_argument("--value-from", required=True, help="stored-vector JSON file")
    q.add_argument("--index", required=True, help="ideal token")
    q.add_argument("--dmax", type=int, default=8)
    q.add_argument("--out")
    q.set_defaults(func=cmd_algrec_minpoly)
    q = gsub.add_parser("classpoly", help="Hilbert class polynomial from CM values")
    q.add_argument("--d", type=int, required=True)
    q.add_argument("--prec", type=int, default=120)
    q.add_argument("--out")
    q.set_defaults(func=cmd_algrec_classpoly)

    p = sub.add_parser("check", help="modularity desk check")
    p.add_argument("--d", type=int, default=None, help="default: the three standard triples")
    p.add_argument("--level", type=int, default=1)
    p.add_argument("--bound", type=int, default=40)
    p.add_argument("--prec", type=int, default=120)
    p.add_argument("--out")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("pipeline", help="cached artifact set from a config")
    p.add_argument("--config", help="JSON (or TOML on 3.11+) config file")
    p.add_argument("--d", type=int)
    p.add_argument("--bound", type=int)
    p.add_argument("--primes", type=int, dest="prime_norm_bound", metavar="PRIMES")
    p.add_argument("--depth", type=int)
    p.add_argument("--prec", type=int)
    p.add_argument("--level", type=int)
    p.add_argument("--modulus")
    p.add_argument("--family")
    p.add_argument("--dmax", type=int)
    p.add_argument("--jobs", help="comma-separated subset of: " + ", ".join(_ALL_JOBS))
    p.add_argument("--out-dir")
    p.add_argument("--cache-dir")
    p.add_argument("--out")
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (PrecisionError, InsufficientBoundError, NoRelationError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PRECISION
    except WittkitError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except (OSError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
