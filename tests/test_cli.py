import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath.libmp import from_man_exp

from wittkit import cli, cyclotomic, modular, rayclass, witt
from wittkit.domains import BigComplex
from wittkit.errors import UsageError
from wittkit.modular import CharFamily, FrickeFamily, JFamily
from wittkit.qfield import IdealHNF, QuadElement, enumerate_ideals, ideal_from_json, make_field, principal_ideal

K1 = make_field(-1)
K5 = make_field(-5)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def test_parse_field_tokens():
    assert cli.parse_field("Q").is_rational
    assert cli.parse_field("q").is_rational
    assert cli.parse_field(-5).d == -5
    with pytest.raises(UsageError):
        cli.parse_field("abc")


def test_parse_ideal_tokens():
    two = principal_ideal(QuadElement(K1, Fraction(2), Fraction(0)))
    assert cli.parse_ideal(K1, "2") == two
    assert cli.parse_ideal(K1, "(2)") == two
    assert cli.parse_ideal(K1, "2:0:2") == two
    assert int(cli.parse_ideal(K1, "1,1").norm()) == 2
    with pytest.raises(UsageError):
        cli.parse_ideal(K1, "one")
    with pytest.raises(UsageError):
        cli.parse_ideal(K1, "1:2")


def test_parse_family_tokens():
    assert isinstance(cli.parse_family(K5, "j"), JFamily)
    fam = cli.parse_family(K5, "fricke:1/2,0")
    assert isinstance(fam, FrickeFamily) and fam.level == 2
    assert isinstance(cli.parse_family(K1, "char:1,1"), CharFamily)
    with pytest.raises(UsageError):
        cli.parse_family(K5, "bogus")
    with pytest.raises(UsageError):
        cli.parse_family(K5, "fricke:1/2")


def test_field_info(capsys):
    code, data = run_cli(capsys, "field", "info", "--d", "-5", "--primes", "10")
    assert code == 0
    assert data["class_number"] == 2
    assert data["params"]["prime_norm_bound"] == 10


def test_python_dash_m_runs_the_cli_from_a_checkout():
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "wittkit", "field", "info", "--d", "-5"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["class_number"] == 2


def test_drf_build_matches_library(capsys, tmp_path):
    out = tmp_path / "drf.json"
    code, _ = run_cli(capsys, "drf", "build", "--d", "Q", "--modulus", "6", "--out", str(out))
    assert code == 0
    data = json.loads(out.read_text())
    monoid = rayclass.build_drf(make_field(1), principal_ideal(QuadElement(make_field(1), Fraction(6), Fraction(0))))
    assert data["table"] == [list(row) for row in monoid.table]
    assert data["units"] == list(monoid.unit_indices)


def _write_spec(tmp_path, name, spec):
    p = tmp_path / name
    p.write_text(json.dumps(spec))
    return str(p)


def test_witt_verify_pass_and_fail(capsys, tmp_path):
    good = _write_spec(tmp_path, "good.json", {"kind": "zeta", "gamma": "1/3", "bound": 200})
    code, data = run_cli(capsys, "witt", "verify", "--vector", good, "--depth", "2", "--primes", "13")
    assert code == 0 and data["passed"]
    assert data["params"]["depth"] == 2
    bad = _write_spec(
        tmp_path, "bad.json", {"kind": "zlin", "terms": [["1/2", "1/3"]], "bound": 200}
    )
    code, data = run_cli(capsys, "witt", "verify", "--vector", bad, "--depth", "1", "--primes", "7")
    assert code == 1 and not data["passed"]


def test_witt_orbit_and_modulus(capsys, tmp_path):
    spec = _write_spec(tmp_path, "z3.json", {"kind": "zeta", "gamma": "1/3", "bound": 200})
    code, data = run_cli(capsys, "witt", "orbit", "--vector", spec, "--primes", "10")
    assert code == 0 and data["size"] == 3
    code, data = run_cli(capsys, "witt", "modulus", "--vector", spec)
    assert code == 0 and data["found"] and data["label"] == "(3)"


def test_witt_orbit_of_a_modular_spec(capsys, tmp_path):
    spec = _write_spec(tmp_path, "j5.json", {"kind": "modular", "d": -5, "bound": 20, "prec": 60})
    code, data = run_cli(capsys, "witt", "orbit", "--vector", spec)
    assert code == 0
    assert data.pop("params") == {"bound": 20, "prime_norm_bound": 10, "depth": None, "prec": 60}
    modular.clear_caches()
    assert data == witt.orbit_monoid([modular.modular_vector(JFamily(), K5, 20, 60)], 10).to_json()
    modular.clear_caches()


def test_cyclic_search_asserts_nothing(capsys):
    code, data = run_cli(
        capsys,
        "witt",
        "cyclic-search",
        "--target-size",
        "3",
        "--max-den",
        "3",
        "--coeff-bound",
        "1",
        "--limit",
        "10",
        "--bound",
        "200",
        "--primes",
        "7",
    )
    assert code == 0
    assert data["n_hits"] >= 1
    assert any(h["terms"] in ([[1, "1/3"]], [[-1, "1/3"]]) for h in data["hits"])
    assert "asserts nothing" in data["note"]



def test_cyclic_search_command_stamps_the_library_payload(capsys):
    payload = witt.cyclic_search(
        3, max_den=3, coeff_bound=1, limit=10, max_hits=5, bound=200, primes=7
    )
    assert payload["tried"] == 10 and payload["n_hits"] >= 1 and "params" not in payload
    code, data = run_cli(
        capsys, "witt", "cyclic-search", "--target-size", "3", "--max-den", "3",
        "--coeff-bound", "1", "--limit", "10", "--bound", "200", "--primes", "7",
    )
    assert code == 0
    assert data["params"]["bound"] == 200 and data["params"]["prime_norm_bound"] == 7
    assert {k: v for k, v in data.items() if k != "params"} == payload

def test_automata_minimize_and_dot(capsys, tmp_path):
    spec = _write_spec(tmp_path, "z3.json", {"kind": "zeta", "gamma": "1/3", "bound": 200})
    dot = tmp_path / "m.dot"
    code, data = run_cli(
        capsys, "automata", "minimize", "--vector", spec, "--primes", "10", "--dot", str(dot)
    )
    assert code == 0 and data["n_states"] == 3
    assert dot.read_text().startswith("digraph dfao {")
    code, data = run_cli(capsys, "automata", "check-bridy", "--vector", spec, "--primes", "10")
    assert code == 0 and data["equal"]


def test_modular_eval_then_minpoly(capsys, tmp_path):
    vec = tmp_path / "vec.json"
    code, _ = run_cli(
        capsys,
        "modular",
        "eval",
        "--d",
        "-5",
        "--bound",
        "12",
        "--prec",
        "120",
        "--out",
        str(vec),
    )
    assert code == 0
    code, data = run_cli(
        capsys, "algrec", "minpoly", "--value-from", str(vec), "--index", "1", "--dmax", "8"
    )
    assert code == 0
    assert data["poly"]["coeffs"] == [-681472000, -1264000, 1]
    # outside the stored bound
    code, _ = run_cli(
        capsys, "algrec", "minpoly", "--value-from", str(vec), "--index", "13", "--dmax", "4"
    )
    assert code == 2


def test_minpoly_no_relation_exits_3(capsys, tmp_path):
    with mpmath.workdps(75):
        pi = mpmath.mpc(mpmath.pi)
    xi = witt.WittVector(
        K5, BigComplex(60), 4, values={a: pi for a in enumerate_ideals(K5, 4)}
    )
    vec = tmp_path / "pi.json"
    vec.write_text(json.dumps(xi.to_json()))
    code, data = run_cli(
        capsys, "algrec", "minpoly", "--value-from", str(vec), "--index", "1", "--dmax", "6"
    )
    assert code == 3
    assert data["found"] is False


def test_classpoly_cmd(capsys):
    code, data = run_cli(capsys, "algrec", "classpoly", "--d", "-15")
    assert code == 0
    assert data["poly"]["coeffs"] == [-121287375, 191025, 1]


def test_check_cmd(capsys):
    code, data = run_cli(
        capsys, "check", "--d", "-1", "--level", "2", "--bound", "30", "--prec", "120"
    )
    assert code == 0
    result = data["results"][0]
    assert result["passed"]
    assert result["shift_classes"] == result["ray_classes"] == 3
    assert result["gcd_constant_per_class"]


def test_pipeline_deterministic_and_cached(capsys, tmp_path):
    cfg = {
        "d": -5,
        "bound": 20,
        "prime_norm_bound": 10,
        "prec": 100,
        "level": 1,
        "modulus": "2",
        "family": "j",
        "dmax": 8,
        "cache_dir": str(tmp_path / "cache"),
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**cfg, "out_dir": str(tmp_path / "run1")}))
    code, first = run_cli(capsys, "pipeline", "--config", str(cfg_path))
    assert code == 0
    assert first["cache_hits"] == []
    code, second = run_cli(
        capsys, "pipeline", "--config", str(cfg_path), "--out-dir", str(tmp_path / "run2")
    )
    assert code == 0
    assert set(second["cache_hits"]) == set(first["cache_misses"])
    run1, run2 = tmp_path / "run1", tmp_path / "run2"
    names = sorted(p.name for p in run1.iterdir())
    assert names == sorted(p.name for p in run2.iterdir())
    for name in names:
        assert (run1 / name).read_bytes() == (run2 / name).read_bytes(), name


def test_pipeline_certify_and_components_on_default_config(capsys, tmp_path):
    # the README's standard config; both jobs go through minpoly's LLL
    out = tmp_path / "out"
    code = cli.main(["pipeline", "--jobs", "components,certify", "--out-dir", str(out)])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert "Traceback" not in captured.err
    certify = json.loads((out / "certify.json").read_text())
    assert certify["ok"] is True
    assert certify["all_integral"] is True
    assert certify["poly"]["coeffs"] == [-681472000, -1264000, 1]
    comps = json.loads((out / "components.json").read_text())
    assert comps["blocks"]
    for block in comps["blocks"]:
        assert block["certified"] is True
        assert block["degree_over_field"] == 2


def test_pipeline_detects_poisoned_cache(capsys, tmp_path):
    cfg = {
        "d": -5,
        "bound": 12,
        "prime_norm_bound": 10,
        "prec": 100,
        "jobs": ["field", "vector"],
        "out_dir": str(tmp_path / "out"),
        "cache_dir": str(tmp_path / "cache"),
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code, _ = run_cli(capsys, "pipeline", "--config", str(cfg_path))
    assert code == 0
    entries = sorted((tmp_path / "cache").glob("*.json"))
    assert entries
    data = json.loads(entries[0].read_text())
    first = sorted(data["files"])[0]
    entry = data["files"][first]
    if entry["type"] == "json":
        entry["data"]["d"] = 999
    else:
        entry["data"] = "tampered\n" + entry["data"]
    entries[0].write_text(json.dumps(data, sort_keys=True, indent=2) + "\n")
    code, _ = run_cli(capsys, "pipeline", "--config", str(cfg_path))
    assert code == 2


def test_pipeline_config_validation(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"d": -5, "frobnicate": 1}))
    code, _ = run_cli(capsys, "pipeline", "--config", str(bad))
    assert code == 2
    low = tmp_path / "low.json"
    low.write_text(json.dumps({"d": -5, "prec": 30}))
    code, _ = run_cli(capsys, "pipeline", "--config", str(low))
    assert code == 2
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"d": -5, "jobs": ["nonsense"]}))
    code, _ = run_cli(capsys, "pipeline", "--config", str(job))
    assert code == 2


def test_stored_vector_roundtrip(tmp_path):
    xi = witt.zeta_gamma(6, 1, 60)
    path = tmp_path / "z6.json"
    path.write_text(json.dumps(xi.to_json()))
    back = cli.load_vector(str(path))
    assert back.bound == 60
    for a in back.ideals():
        assert back.domain.eq(back.value_at(a), xi.value_at(a))


# ---------------------------------------------------------------------------
# malformed input is a usage error (exit 2), never a traceback


def _run_expecting_usage_error(capsys, *argv):
    code = cli.main(list(argv))
    err = capsys.readouterr().err
    assert code == 2, err
    assert "Traceback" not in err
    assert err.startswith("error: ")


def test_orbit_spec_without_gamma_exits_2(capsys, tmp_path):
    spec = _write_spec(tmp_path, "s.json", {"kind": "zeta"})
    _run_expecting_usage_error(capsys, "witt", "orbit", "--vector", spec)


def test_orbit_spec_with_string_bound_exits_2(capsys, tmp_path):
    spec = _write_spec(tmp_path, "s.json", {"kind": "zeta", "gamma": "1/3", "bound": "abc"})
    _run_expecting_usage_error(capsys, "witt", "orbit", "--vector", spec)


def test_orbit_spec_holding_a_list_exits_2(capsys, tmp_path):
    spec = _write_spec(tmp_path, "s.json", [{"kind": "zeta", "gamma": "1/3"}])
    _run_expecting_usage_error(capsys, "witt", "orbit", "--vector", spec)


def test_pipeline_config_with_string_bound_exits_2(capsys, tmp_path):
    cfg = _write_spec(tmp_path, "cfg.json", {"d": -5, "bound": "40"})
    _run_expecting_usage_error(
        capsys, "pipeline", "--config", cfg, "--out-dir", str(tmp_path / "out")
    )


def test_pipeline_config_with_integer_jobs_exits_2(capsys, tmp_path):
    cfg = _write_spec(tmp_path, "cfg.json", {"d": -5, "jobs": 5})
    _run_expecting_usage_error(
        capsys, "pipeline", "--config", cfg, "--out-dir", str(tmp_path / "out")
    )


def test_pipeline_malformed_toml_config_exits_2(capsys, tmp_path):
    pytest.importorskip("tomllib")
    cfg = tmp_path / "cfg.toml"
    cfg.write_text("d = \n")
    _run_expecting_usage_error(
        capsys, "pipeline", "--config", str(cfg), "--out-dir", str(tmp_path / "out")
    )


def test_toml_config_without_tomllib_exits_2(capsys, monkeypatch, tmp_path):
    """Before Python 3.11 there is no tomllib: a TOML config is a usage error."""
    monkeypatch.setitem(sys.modules, "tomllib", None)  # makes `import tomllib` raise ImportError
    cfg = tmp_path / "cfg.toml"
    cfg.write_text("d = -5\n")
    code = cli.main(["pipeline", "--config", str(cfg), "--out-dir", str(tmp_path / "out")])
    assert (code, capsys.readouterr().err) == (2, "error: TOML configs need Python 3.11+; use a JSON config\n")


def test_minpoly_on_malformed_stored_vector_exits_2(capsys, tmp_path):
    ones = {a: mpmath.mpc(1) for a in enumerate_ideals(K5, 4)}
    stored = witt.WittVector(K5, BigComplex(60), 4, values=ones).to_json()
    stored["bound"] = "4"
    vec = _write_spec(tmp_path, "v.json", stored)
    _run_expecting_usage_error(
        capsys, "algrec", "minpoly", "--value-from", vec, "--index", "1"
    )


def test_pipeline_cache_entry_holding_a_list_exits_2(capsys, tmp_path):
    argv = ["pipeline", "--jobs", "field", "--out-dir", str(tmp_path / "out")]
    argv += ["--cache-dir", str(tmp_path / "cache")]
    assert run_cli(capsys, *argv)[0] == 0
    (entry,) = (tmp_path / "cache").glob("*.json")
    entry.write_text("[]\n")
    _run_expecting_usage_error(capsys, *argv)


@pytest.mark.parametrize(
    "files",
    [
        {"field.json": {"type": "blob", "data": 5}},
        {"field.json": {"type": "text", "data": 5}},
        {"field.json": {"type": "json", "data": "text"}},
        {"field.json": {"type": ["json"], "data": {}}},
        {"field.json": "data"},
        {"../field.json": {"type": "text", "data": "outside the out dir\n"}},
        ["field.json"],
    ],
)
def test_pipeline_cache_entry_with_malformed_file_exits_2(capsys, tmp_path, files):
    """An entry whose checksum matches but whose files are the wrong shape exits 2.

    Before the shape check, the first of these died with a raw TypeError from
    Path.write_text, and the path one wrote outside the output directory.
    """
    argv = ["pipeline", "--jobs", "field", "--out-dir", str(tmp_path / "out")]
    argv += ["--cache-dir", str(tmp_path / "cache")]
    assert run_cli(capsys, *argv)[0] == 0
    (entry,) = (tmp_path / "cache").glob("*.json")
    data = json.loads(entry.read_text())
    data["files"] = files
    data["files_sha256"] = cli._sha256(files)
    entry.write_text(json.dumps(data))
    _run_expecting_usage_error(capsys, *argv)


# ---------------------------------------------------------------------------
# the pipeline's exit 1 path


def test_pipeline_exits_1_on_a_failed_check_cold_and_cached(capsys, tmp_path, monkeypatch):
    real = cli.modularity_check
    monkeypatch.setattr(cli, "modularity_check", lambda *a: {**real(*a), "passed": False})
    argv = ["pipeline", "--d", "-5", "--bound", "12", "--prec", "60", "--jobs", "check"]
    argv += ["--cache-dir", str(tmp_path / "cache")]
    code, cold = run_cli(capsys, *argv, "--out-dir", str(tmp_path / "cold"))
    assert code == 1
    assert cold["cache_misses"] == ["check"] and cold["failed_checks"] == ["check.json:passed"]
    monkeypatch.undo()
    code, warm = run_cli(capsys, *argv, "--out-dir", str(tmp_path / "warm"))
    assert code == 1
    assert warm["cache_hits"] == ["check"] and warm["failed_checks"] == ["check.json:passed"]
    assert json.loads((tmp_path / "warm" / "check.json").read_text())["passed"] is False


# ---------------------------------------------------------------------------
# exit codes under fuzzing

_FRACTION_TEXT = st.one_of(
    st.builds(lambda p, q: f"{p}/{q}", st.integers(-7, 7), st.integers(0, 12)),
    st.sampled_from(["", "abc", "0.5", "x/3", "1/"]),
)
_JUNK = st.one_of(st.none(), st.booleans(), st.lists(st.integers(0, 3), max_size=2), st.text(max_size=3))
_SPECS = st.one_of(
    st.fixed_dictionaries(
        {"kind": st.sampled_from(["zeta", "zlin", "rho", "zeta-ish"])},
        optional={
            "gamma": st.one_of(_FRACTION_TEXT, st.integers(-3, 3), _JUNK),
            "terms": st.one_of(
                st.lists(st.lists(st.one_of(_FRACTION_TEXT, st.integers(-3, 3)), min_size=2, max_size=2), max_size=3),
                st.lists(st.lists(st.integers(0, 3), max_size=3), max_size=2),
                _JUNK,
            ),
            "d": st.one_of(st.sampled_from(["Q", -1, -5, -3, 0, 2, -4, "x"]), _JUNK),
            "ideal": st.one_of(
                st.sampled_from(["2", "3", "1,1", "2:0:2", "0", "1/2", "1:2", {"a": 2}, {"a": 2, "b": 0, "c": 1}]),
                st.integers(-2, 12),
                _JUNK,
            ),
            "bound": st.one_of(st.integers(-2, 30), _JUNK),
        },
    ),
    _JUNK,
)


@settings(max_examples=60, deadline=None)
@given(spec=_SPECS, command=st.sampled_from([("orbit",), ("verify", "--depth", "1"), ("modulus",)]))
def test_fuzz_vector_specs_exit_codes(spec, command):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "spec.json"
        path.write_text(json.dumps(spec))
        argv = ["witt", command[0], "--vector", str(path), *command[1:]]
        if command[0] != "modulus":
            argv += ["--primes", "7"]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()


_CONFIGS = st.one_of(
    st.fixed_dictionaries(
        {},
        optional={
            "d": st.one_of(st.sampled_from([-1, -2, -3, -5, -15, 1, 0, 3, -4]), _JUNK),
            "bound": st.one_of(st.integers(-1, 40), _JUNK),
            "prime_norm_bound": st.one_of(st.integers(-1, 30), _JUNK),
            "depth": st.one_of(st.integers(-1, 3), _JUNK),
            "prec": st.one_of(st.integers(30, 130), _JUNK),
            "level": st.one_of(st.integers(-1, 3), _JUNK),
            "modulus": st.one_of(st.sampled_from(["2", "1,1", "x"]), _JUNK),
            "family": st.one_of(st.sampled_from(["j", "fricke:1/2,0", "bogus"]), _JUNK),
            "dmax": st.one_of(st.integers(-1, 8), _JUNK),
            "jobs": st.one_of(st.lists(st.sampled_from(["field", "drf", "nonsense"]), max_size=2), _JUNK),
            "schema": st.just("wittkit/config/1"),
            "frobnicate": _JUNK,
        },
    ),
    _JUNK,
)


@settings(max_examples=60, deadline=None)
@given(config=_CONFIGS)
def test_fuzz_pipeline_config_exit_codes(config):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(config))
        argv = ["pipeline", "--config", str(path), "--jobs", "field"]
        argv += ["--out-dir", str(Path(tmp) / "out"), "--cache-dir", str(Path(tmp) / "cache")]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()


# ---------------------------------------------------------------------------
# HNF triples from the outside must be O_K-ideals


@pytest.mark.parametrize("modulus", ["6:2:1", "3:0:1"])
def test_drf_build_on_a_lattice_that_is_not_an_ideal_exits_2(capsys, modulus):
    # Z*6 + Z*(2 + w) and Z*3 + Z*w for d = -5: 6 and 3 do not divide N(2 + w) = 9 and N(w) = 5
    _run_expecting_usage_error(capsys, "drf", "build", "--d", "-5", "--modulus", modulus)


def test_stored_vector_with_a_non_ideal_key_exits_2(capsys, tmp_path):
    ones = {a: mpmath.mpc(1) for a in enumerate_ideals(K5, 4)}
    stored = witt.WittVector(K5, BigComplex(60), 4, values=ones).to_json()
    stored["values"][1][0] = {"a": 3, "b": 0, "c": 1, "den": 1}
    vec = _write_spec(tmp_path, "v.json", stored)
    code = cli.main(["algrec", "minpoly", "--value-from", vec, "--index", "1"])
    err = capsys.readouterr().err
    assert code == 2 and "Traceback" not in err
    assert "is not an ideal of O_K" in err


def test_hnf_triples_are_accepted_exactly_when_they_are_ideals():
    for d in (-1, -2, -3, -5, -6, -15, -23):
        field = make_field(d)
        ideals = set(enumerate_ideals(field, 60))
        for c in range(1, 8):
            for a in range(c, 60 // c + 1, c):  # norm a*c <= 60
                for b in range(0, a, c):
                    token = f"{a}:{b}:{c}"
                    data = {"a": a, "b": b, "c": c, "den": 3}
                    if IdealHNF(field, a, b, c) in ideals:
                        assert cli.parse_ideal(field, token) == IdealHNF(field, a, b, c)
                        assert ideal_from_json(field, data) == IdealHNF(field, a, b, c, 3)
                    else:
                        with pytest.raises(UsageError):
                            cli.parse_ideal(field, token)
                        with pytest.raises(UsageError):
                            ideal_from_json(field, data)


# ---------------------------------------------------------------------------
# the pipeline's cache writes and its modular-vector entry

_SMALL = ["--d", "-5", "--bound", "20", "--prec", "60"]


def _reset_module_caches():
    modular.clear_caches()
    witt._ideals.cache_clear()
    cyclotomic.cyclo_context.cache_clear()


def test_pipeline_truncated_cache_entry_exits_2_naming_the_file(capsys, tmp_path):
    argv = ["pipeline", "--jobs", "field", "--out-dir", str(tmp_path / "out")]
    argv += ["--cache-dir", str(tmp_path / "cache")]
    assert run_cli(capsys, *argv)[0] == 0
    (entry,) = (tmp_path / "cache").glob("*.json")
    text = entry.read_text()
    entry.write_text(text[: len(text) // 2])
    code = cli.main(argv)
    err = capsys.readouterr().err
    assert code == 2 and "Traceback" not in err
    assert str(entry) in err and "delete the poisoned file" in err


def test_cache_store_interrupted_before_the_rename_keeps_the_old_entry(tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    old = {"a.txt": {"type": "text", "data": "old\n"}}
    cli._cache_store(cache, "k", old)

    def interrupted(src, dst):
        raise OSError("interrupted")

    monkeypatch.setattr(cli.os, "replace", interrupted)
    with pytest.raises(OSError):
        cli._cache_store(cache, "k", {"a.txt": {"type": "text", "data": "new\n"}})
    assert cli._cache_load(cache, "k") == old
    assert [p.name for p in cache.iterdir()] == ["k.json"]


def _vector_entry(cache_dir: Path, changes: dict) -> Path:
    entry = cache_dir / f"{cli._vector_key(replace(cli.RunConfig(), **changes))}.json"
    assert entry.exists()
    return entry


def test_pipeline_detects_a_poisoned_vector_entry(capsys, tmp_path):
    cache = tmp_path / "cache"
    argv = ["pipeline", *_SMALL, "--out-dir", str(tmp_path / "out"), "--cache-dir", str(cache)]
    assert run_cli(capsys, *argv, "--jobs", "vector")[0] == 0
    entry = _vector_entry(cache, {"d": -5, "bound": 20, "prec": 60})
    data = json.loads(entry.read_text())
    part = data["files"][cli._VECTOR_FILE]["data"]["values"][0][0]
    part[1] = hex(int(part[1], 16) ^ 2)
    entry.write_text(json.dumps(data))
    _run_expecting_usage_error(capsys, *argv, "--jobs", "orbit")


@pytest.mark.parametrize(
    "tamper",
    [
        lambda values: values.pop(),  # one component short
        lambda values: values.append(values[0]),  # one too many
        lambda values: values[0][0].__setitem__(2, 1.5),  # a float exponent
        lambda values: values[0][0].__setitem__(0, True),  # a bool sign
        lambda values: values[0][0].__setitem__(1, "0xg"),  # not hex
        lambda values: values[0][0].__setitem__(1, "0X1F"),  # not hex() of the mantissa
        lambda values: values[0][0].__setitem__(3, values[0][0][3] + 1),  # wrong bit count
        lambda values: values[0][0].__setitem__(1, "0x2"),  # mantissa not normalized
        lambda values: values[0].pop(),  # no imaginary part
        lambda values: values.__setitem__(0, "1.5"),
    ],
)
def test_pipeline_vector_entry_with_a_matching_checksum_but_malformed_bits_exits_2(capsys, tmp_path, tamper):
    cache = tmp_path / "cache"
    argv = ["pipeline", *_SMALL, "--out-dir", str(tmp_path / "out"), "--cache-dir", str(cache)]
    assert run_cli(capsys, *argv, "--jobs", "vector")[0] == 0
    entry = _vector_entry(cache, {"d": -5, "bound": 20, "prec": 60})
    data = json.loads(entry.read_text())
    tamper(data["files"][cli._VECTOR_FILE]["data"]["values"])
    data["files_sha256"] = cli._sha256(data["files"])
    entry.write_text(json.dumps(data))
    code = cli.main([*argv, "--jobs", "orbit"])
    err = capsys.readouterr().err
    assert code == 2 and "Traceback" not in err
    assert str(entry) in err and "delete the poisoned file" in err


def test_pipeline_reports_whether_the_vector_came_from_the_cache(capsys, tmp_path):
    argv = ["pipeline", *_SMALL, "--out-dir", str(tmp_path / "out")]
    cached = [*argv, "--cache-dir", str(tmp_path / "cache")]
    assert run_cli(capsys, *argv, "--jobs", "orbit")[1]["vector_cache"] is None
    assert run_cli(capsys, *cached, "--jobs", "field")[1]["vector_cache"] is None
    assert run_cli(capsys, *cached, "--jobs", "orbit")[1]["vector_cache"] == "miss"
    assert run_cli(capsys, *cached, "--jobs", "bridy")[1]["vector_cache"] == "hit"
    # every job hits its own entry, so the vector is never asked for
    assert run_cli(capsys, *cached, "--jobs", "orbit,bridy")[1]["vector_cache"] is None


def test_pipeline_jobs_run_alone_compute_the_vector_once(tmp_path, monkeypatch):
    """Each default job alone with one shared cache dir, as the benchmark runs them."""
    _reset_module_caches()
    cli.run_pipeline(cli.RunConfig(out_dir=str(tmp_path / "oneshot")))

    calls: dict[str, int] = {}
    job_now = [None]
    real = modular.family_vectors

    def counting(*args, **kwargs):
        calls[job_now[0]] = calls.get(job_now[0], 0) + 1
        return real(*args, **kwargs)

    monkeypatch.setattr(modular, "family_vectors", counting)

    def run_each(**changes):
        calls.clear()
        for job in cli.RunConfig().jobs:
            _reset_module_caches()
            job_now[0] = job
            cfg = cli.RunConfig(jobs=(job,), cache_dir=str(tmp_path / "cache"), **changes)
            cli.run_pipeline(cfg)
        return calls

    assert run_each(out_dir=str(tmp_path / "alone")) == {"vector": 1}
    names = sorted(p.name for p in (tmp_path / "oneshot").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "alone").iterdir())
    for name in names:
        assert (tmp_path / "oneshot" / name).read_bytes() == (tmp_path / "alone" / name).read_bytes(), name
    assert run_each(out_dir=str(tmp_path / "rerun"), dmax=6) == {}


_SMALL_CFG = {"d": -5, "bound": 20, "prec": 60}


def test_a_job_reading_its_vector_from_the_cache_does_no_cm_work(tmp_path, monkeypatch):
    cache = str(tmp_path / "cache")
    cfg = cli.RunConfig(jobs=("vector",), cache_dir=cache, out_dir=str(tmp_path / "v"), **_SMALL_CFG)
    _reset_module_caches()
    assert cli.run_pipeline(cfg)["vector_cache"] == "miss"
    _reset_module_caches()
    calls = []
    for name in ("cm_point", "_evaluate_missing"):
        real = getattr(modular, name)
        monkeypatch.setattr(modular, name, lambda *args, real=real, name=name: calls.append(name) or real(*args))
    summary = cli.run_pipeline(replace(cfg, jobs=("orbit",), out_dir=str(tmp_path / "o")))
    assert summary["vector_cache"] == "hit" and summary["cache_misses"] == ["orbit"]
    assert calls == []


def _counting_family_vectors(monkeypatch) -> list:
    """Patch modular.family_vectors to record each family it is asked for."""
    calls = []
    real = modular.family_vectors

    def counting(families, *args, **kwargs):
        calls.extend(family.describe() for family in families)
        return real(families, *args, **kwargs)

    monkeypatch.setattr(modular, "family_vectors", counting)
    return calls


def test_vector_key_names_j_and_fricke_families_canonically():
    cfg = replace(cli.RunConfig(), **_SMALL_CFG)

    def key(family):
        return cli._vector_key(replace(cfg, family=family))

    # the keys of "j" and "fricke:1/2,0" are the raw strings, as before the canonical names
    for family in ("j", "fricke:1/2,0"):
        assert key(family) == cli._sha256({"v": 1, "vector": {**_SMALL_CFG, "family": family}})
    half = key("fricke:1/2,0")
    assert key("fricke:2/4,0") == half
    assert key(" fricke:3/2,0 ") == half
    assert key("fricke:0,1/2") != half
    # char: families keep their stripped text, since describe() does not tell them apart
    assert key(" char:1,1") == key("char:1,1")
    assert key("char:1,1") != key("char:2,1")


def test_pipeline_jobs_share_a_fricke_entry_across_spellings(tmp_path, monkeypatch):
    calls = _counting_family_vectors(monkeypatch)
    _reset_module_caches()
    cache = str(tmp_path / "cache")
    cfg = cli.RunConfig(jobs=("vector",), family="fricke:1/2,0", cache_dir=cache, out_dir=str(tmp_path), **_SMALL_CFG)
    assert cli.run_pipeline(cfg)["vector_cache"] == "miss"
    assert calls == ["fricke:1/2,0"]
    calls.clear()
    _reset_module_caches()
    assert cli.run_pipeline(replace(cfg, family="fricke:2/4,0"))["vector_cache"] == "hit"
    assert calls == []


def _stamped_bytes(cfg: cli.RunConfig, payload: dict) -> bytes:
    """check.json as run_pipeline writes it, for a payload computed outside the pipeline."""
    (entry,) = cli._stamp_files(cfg, cli._sha256(cfg.canonical()), {"check.json": payload}).values()
    return (json.dumps(entry["data"], sort_keys=True, indent=2) + "\n").encode()


@pytest.mark.parametrize("level", [1, 2])
@pytest.mark.parametrize("d", [-5, -23, -1, -15, -3])
def test_pipeline_check_json_is_the_same_through_the_vector_cache(tmp_path, d, level):
    """check.json does not depend on what the cache dir holds: beside the vector
    job that fills the vector entry, check-only on that dir (job entry missed,
    then hit) and uncached, it is the desk check's payload, stamped."""
    base = cli.RunConfig(d=d, bound=20, prec=60, level=level, jobs=("check",))
    cache = str(tmp_path / "cache")
    _reset_module_caches()
    both = replace(base, jobs=("vector", "check"), dmax=7)
    fill = cli.run_pipeline(replace(both, out_dir=str(tmp_path / "fill"), cache_dir=cache))
    assert fill["vector_cache"] == "miss"
    # dmax is not read by the check, but it keys the job entry: the first check-only run misses it
    _reset_module_caches()
    warm = cli.run_pipeline(replace(base, out_dir=str(tmp_path / "warm"), cache_dir=cache))
    assert warm["cache_misses"] == ["check"] and warm["vector_cache"] is None
    _reset_module_caches()
    hit = cli.run_pipeline(replace(base, out_dir=str(tmp_path / "hit"), cache_dir=cache))
    assert hit["cache_hits"] == ["check"] and hit["vector_cache"] is None
    _reset_module_caches()
    cli.run_pipeline(replace(base, out_dir=str(tmp_path / "uncached")))
    _reset_module_caches()
    payload = modular.modularity_check(make_field(d), level, 20, 60)
    assert (tmp_path / "fill" / "check.json").read_bytes() == _stamped_bytes(both, payload)
    for run in ("warm", "hit", "uncached"):
        assert (tmp_path / run / "check.json").read_bytes() == _stamped_bytes(base, payload), run


# (d, level, bound) at prec 60; (-3, 3, 40) fails the desk check on both paths
_CHECK_GRID = [(d, level, 20) for d in (-5, -23, -1, -15, -3) for level in (1, 2)] + [(-3, 3, 40)]


@pytest.mark.parametrize("d, level, bound", _CHECK_GRID)
def test_pipeline_check_json_is_the_desk_checks_payload(capsys, tmp_path, d, level, bound):
    """The check job writes what `wittkit check` computes for the same triple,
    stamped as the pipeline stamps it, and both exit alike."""
    triple = ["--d", str(d), "--level", str(level), "--bound", str(bound), "--prec", "60"]
    _reset_module_caches()
    code = cli.main(["check", *triple, "--out", str(tmp_path / "desk.json")])
    capsys.readouterr()
    (result,) = json.loads((tmp_path / "desk.json").read_text())["results"]
    result.pop("params")
    _reset_module_caches()
    pipe_code, summary = run_cli(capsys, "pipeline", *triple, "--jobs", "check", "--out-dir", str(tmp_path / "out"))
    failed = (d, level) == (-3, 3)
    assert code == pipe_code == (1 if failed else 0)
    assert summary["failed_checks"] == (["check.json:passed"] if failed else [])
    cfg = cli.RunConfig(d=d, bound=bound, prec=60, level=level)
    assert (tmp_path / "out" / "check.json").read_bytes() == _stamped_bytes(cfg, result)


@pytest.mark.parametrize("level", [1, 2])
def test_pipeline_check_job_sums_one_series_per_form_and_writes_no_vector_entry(tmp_path, monkeypatch, level):
    summed = []
    real = modular._eis_series

    def counting(t):
        summed.append(t)
        return real(t)

    def no_fork():
        raise AssertionError("the check job forked")

    monkeypatch.setattr(modular, "_eis_series", counting)
    monkeypatch.setattr(os, "fork", no_fork)
    _reset_module_caches()
    cache = tmp_path / "cache"
    cfg = cli.RunConfig(jobs=("check",), level=level, cache_dir=str(cache), out_dir=str(tmp_path / "out"), **_SMALL_CFG)
    summary = cli.run_pipeline(cfg)
    assert summary["vector_cache"] is None and summary["failed_checks"] == []
    assert len(summed) == 2  # d = -5 has the reduced forms (1, 0, 5) and (2, 2, 3)
    job_key = cli._sha256({"v": 1, "job": "check", "config": cfg.canonical()})
    assert [p.name for p in cache.iterdir()] == [f"{job_key}.json"]
    _reset_module_caches()


def _mpf_tuples():
    return st.builds(from_man_exp, st.integers(-(2**600), 2**600), st.integers(-(2**80), 2**80))


_NOISE = mpmath.mpf("-3.2894081040678e-133")


@settings(max_examples=200, deadline=None)
@given(re=_mpf_tuples(), im=st.one_of(_mpf_tuples(), st.just(_NOISE._mpf_), st.just(from_man_exp(0, 0))))
def test_mpc_bits_round_trip_is_exact(re, im):
    z = mpmath.mp.make_mpc((re, im))
    back = cli._mpc_from_bits(json.loads(json.dumps(cli._mpc_bits(z))))
    assert back._mpc_ == z._mpc_


@pytest.mark.parametrize("d", [-1, -3, -5, -15, -23])
def test_mpc_bits_round_trip_j_vectors(d):
    xi = modular.modular_vector(JFamily(), make_field(d), 40, 120)
    for a in xi.ideals():
        z = xi.value_at(a)
        assert cli._mpc_from_bits(json.loads(json.dumps(cli._mpc_bits(z))))._mpc_ == z._mpc_
