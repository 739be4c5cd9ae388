import argparse
import functools
import json
import os
import re
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import pytest

import carlab
from carlab import cli, kernels
from carlab.cli import DEFAULT_CONFIG, load_config, main
from carlab.weights import PsiSearch

CERTIFIED = {
    "problem": {"E": 8.0, "delta0": 0.45, "s": 0.55},
    "weights": {"search": {"r1_lo": 1.0, "r1_hi": 1e6, "num_r1": 64}},
    "resolvent": {
        "box": {"half_width": 1.5, "n": 48},
        "potential": {"id": "zero"},
        "hs": [0.4, 0.3],
        "eps": {"rule": "constant", "value": 1e-2},
        "modes": ["interior"],
    },
}

# R2 of configs/baseline.json's interior fits over its five rows
BASELINE_EXP_R2, BASELINE_POLY_R2 = 0.9667463139767558, 0.9492693299072666

BASELINE_SWEEP = {
    "resolvent": {
        "box": {"half_width": 1.5, "n": 48},
        "potential": {"id": "zero"},
        "hs": [0.4, 0.3],
        "eps": {"rule": "constant", "value": 1e-2},
        "modes": ["interior"],
    },
}


def write_cfg(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run(args):
    # any warning fails the test, numpy's own included: the pyproject filter
    # sees only the warnings attributed to carlab's modules
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return main([str(a) for a in args])


def with_leaf(payload, path, value):
    """A copy of payload with the dotted path set to value."""
    payload = json.loads(json.dumps(payload))
    *sections, key = path.split(".")
    node = payload
    for name in sections:
        node = node.setdefault(name, {})
    node[key] = value
    return payload


def test_weights_baseline_exit_zero(tmp_path):
    out = tmp_path / "out"
    assert run(["weights", "--out", out]) == 0
    assert (out / "weights_table.txt").exists()
    assert (out / "weights_report.json").exists()


def test_weights_determinism(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(["weights", "--out", out1]) == 0
    assert run(["weights", "--out", out2]) == 0
    for name in ("weights_table.txt", "weights_report.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_verify_baseline_exit_three(tmp_path, capsys):
    # the envelope certificate does not exist at delta = delta0/2; the CLI
    # reports the failing checks and exits 3
    out = tmp_path / "out"
    assert run(["verify", "--out", out]) == 3
    data = json.loads((out / "margins_report.json").read_text())
    failing = {r["name"] for r in data["reports"] if not r["pass"]}
    assert "psi_inequality[envelope]" in failing


def test_verify_certified_exit_zero(tmp_path):
    cfg = write_cfg(tmp_path, CERTIFIED)
    out = tmp_path / "out"
    assert run(["verify", "--config", cfg, "--out", out]) == 0
    data = json.loads((out / "margins_report.json").read_text())
    assert all(r["pass"] for r in data["reports"])
    assert "gluing" in data


def test_verify_oversized_shift_exit_three(tmp_path):
    payload = dict(CERTIFIED)
    payload["verify"] = {"x0": [1.05 * (2.0 ** (1.0 / 1.45) - 1.0), 0.0]}
    cfg = write_cfg(tmp_path, payload)
    out = tmp_path / "out"
    assert run(["verify", "--config", cfg, "--out", out]) == 3
    data = json.loads((out / "margins_report.json").read_text())
    failing = {r["name"] for r in data["reports"] if not r["pass"]}
    assert "shift_envelope" in failing


def test_verify_instance_margins_use_configured_c(tmp_path):
    # verify must check the same potential the sweep measures, c included
    margins = {}
    for c in (0.5, 1.0):
        cfg = write_cfg(tmp_path, {"resolvent": {"potential": {"id": "radial_decay", "c": c}}},
                        name=f"c{c}.json")
        out = tmp_path / f"out{c}"
        assert run(["verify", "--config", cfg, "--out", out]) in (0, 3)
        data = json.loads((out / "margins_report.json").read_text())
        margins[c] = {r["name"]: r["min_margin"] for r in data["reports"]
                      if r["name"].endswith("[instance:radial_decay]")}
    assert len(margins[0.5]) == 2
    for name, margin in margins[0.5].items():
        assert margin != margins[1.0][name]


def test_zero_amplitude_decay_runs_without_warnings(tmp_path):
    # the envelope check once divided by c: c = 0 gave a 0/0 ratio, two
    # RuntimeWarnings and exit 2 in both commands
    payload = with_leaf(BASELINE_SWEEP, "resolvent.potential", {"id": "radial_decay", "c": 0.0})
    cfg = write_cfg(tmp_path, payload)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["verify", "--config", cfg, "--out", tmp_path / "v"]) == 3
        assert run(["sweep", "--config", cfg, "--out", tmp_path / "s"]) == 0


@pytest.mark.parametrize("command, ring, code, message", [
    ("verify", {"sigma": 1e-200}, 2, "sigma=1e-200"),
    ("sweep", {"sigma": 1e-200}, 2, "sigma=1e-200"),
    ("verify", {"rho": 1e300}, 3, "failing checks"),
    ("sweep", {"rho": 1e300}, 2, "exterior weight is zero"),
])
def test_unrepresentable_ring_runs_without_warnings(tmp_path, capsys, command, ring, code,
                                                    message):
    # sigma^2 underflowing once gave NaN envelope values and "divide by zero"
    # warnings; (r - rho)^2 overflowing printed "overflow encountered in square"
    payload = {"resolvent": {"potential": {"id": "trapping_ring", **ring}}}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run([command, "--config", write_cfg(tmp_path, payload),
                    "--out", tmp_path / "out"]) == code
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["verify", "sweep"])
@pytest.mark.parametrize("potential", [
    {"id": "trapping_ring", "A": 1.7e308, "sigma": 1.0},
    {"id": "radial_decay", "c": float("inf")},
])
def test_infinite_envelope_constant_exits_two(tmp_path, capsys, command, potential):
    # |dV| (1+r)^(1+d0) overflowing, or c = inf, left C infinite: every
    # sample passed its envelope, verify wrote -Infinity or NaN margins and
    # exited 3 with overflow warnings, and the inf sweep exited 4
    payload = {"resolvent": {"potential": potential}}
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run([command, "--config", write_cfg(tmp_path, payload), "--out", out]) == 2
    err = capsys.readouterr().err
    assert f"envelope constant of '{potential['id']}' is not finite" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["verify", "sweep"])
def test_nan_amplitude_violates_envelope(tmp_path, capsys, command):
    payload = with_leaf(BASELINE_SWEEP, "resolvent.potential",
                        {"id": "radial_decay", "c": float("nan")})
    out = tmp_path / "out"
    assert run([command, "--config", write_cfg(tmp_path, payload), "--out", out]) == 2
    err = capsys.readouterr().err
    assert "envelope constant of 'radial_decay' is not finite: c = nan" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["verify", "sweep"])
@pytest.mark.parametrize("c", [float("inf"), float("nan")], ids=["inf", "nan"])
def test_non_finite_amplitude_rejected_before_sampling(tmp_path, capsys, command, c):
    # an odd n puts a node at r = 0, where c = inf once gave dV = inf * 0 =
    # NaN, an "invalid value" warning and an envelope message naming the NaN
    payload = {"resolvent": {"potential": {"id": "radial_decay", "c": c}, "box": {"n": 65}}}
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run([command, "--config", write_cfg(tmp_path, payload), "--out", out]) == 2
    err = capsys.readouterr().err
    assert f"envelope constant of 'radial_decay' is not finite: c = {c}" in err
    assert "Warning" not in err and "Traceback" not in err
    assert not out.exists()


def test_sweep_writes_artifacts(tmp_path):
    cfg = write_cfg(tmp_path, BASELINE_SWEEP)
    out = tmp_path / "out"
    assert run(["sweep", "--config", cfg, "--out", out]) == 0
    for name in ("sweep_interior.csv", "fits_interior.json", "plotdata_interior.csv"):
        assert (out / name).exists()


def test_sweep_determinism(tmp_path):
    cfg = write_cfg(tmp_path, BASELINE_SWEEP)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(["sweep", "--config", cfg, "--out", out1]) == 0
    assert run(["sweep", "--config", cfg, "--out", out2]) == 0
    assert (out1 / "sweep_interior.csv").read_bytes() == (out2 / "sweep_interior.csv").read_bytes()


def test_sweep_solver_failure_exit_four(tmp_path):
    payload = json.loads(json.dumps(BASELINE_SWEEP))
    payload["resolvent"]["max_iter"] = 1
    cfg = write_cfg(tmp_path, payload)
    assert run(["sweep", "--config", cfg, "--out", tmp_path / "out"]) == 4


@pytest.mark.parametrize("resolvent", [
    {"hs": [1e308]},  # h^2 overflows: the LU is exactly singular
    {"eps": {"rule": "h_over", "value": 1e-300}},  # the Rayleigh quotient underflows to 0
])
def test_overflowing_sweep_exits_four(tmp_path, resolvent):
    payload = json.loads(json.dumps(BASELINE_SWEEP))
    payload["resolvent"].update(resolvent)
    cfg = write_cfg(tmp_path, payload)
    assert run(["sweep", "--config", cfg, "--out", tmp_path / "out"]) == 4


def test_exterior_cutoff_beyond_box_exits_two(tmp_path, capsys):
    # every exterior weight is 0: the sweep once wrote a NaN slope and exited 0
    cfg = write_cfg(tmp_path, {"resolvent": {"box": {"n": 5, "half_width": 2.5},
                                             "hs": [40.0, 30.0], "modes": ["exterior"],
                                             "R": 100.0}})
    out = tmp_path / "out"
    assert run(["sweep", "--config", cfg, "--out", out]) == 2
    err = capsys.readouterr().err
    assert "exterior weight is zero" in err and "Traceback" not in err
    assert not (out / "fits_exterior.json").exists()


def test_config_errors_exit_one_and_leave_nothing(tmp_path, capsys):
    out = tmp_path / "out"
    assert run(["weights", "--config", tmp_path / "missing.json", "--out", out]) == 1
    cfg = write_cfg(tmp_path, {"bogus": 1})
    assert run(["weights", "--config", cfg, "--out", out]) == 1
    cfg2 = write_cfg(tmp_path, {"resolvent": {"hs": []}}, "empty.json")
    assert run(["sweep", "--config", cfg2, "--out", out]) == 1
    cfg3 = write_cfg(tmp_path, {"resolvent": {"hs": [0.2, 0.3]}}, "asc.json")
    assert run(["sweep", "--config", cfg3, "--out", out]) == 1
    cfg4 = write_cfg(tmp_path, {"resolvent": {"box": 3}}, "box.json")
    assert run(["sweep", "--config", cfg4, "--out", out]) == 1
    assert "config section 'resolvent.box' must be an object" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("path", [
    "resolvent.box.n", "resolvent.tol", "resolvent.max_iter", "resolvent.s",
    "resolvent.eps.value", "resolvent.potential.A", "weights.r1", "verify.margin_nodes",
])
def test_non_numeric_leaf_exits_one(tmp_path, capsys, path):
    # every leaf a command casts to a number is checked with the config
    cfg = write_cfg(tmp_path, with_leaf(BASELINE_SWEEP, path, "x"))
    out = tmp_path / "out"
    assert run(["sweep", "--config", cfg, "--out", out]) == 1
    assert f"config error: {path} must be" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, path, value, bad", [
    ("weights", "weights.substep_factor", 0, "weights.substep_factor"),
    ("weights", "weights.substep_factor", -80.0, "weights.substep_factor"),
    ("weights", "weights.grid.n_outer", -1, "weights.grid.n_outer"),
    ("weights", "weights.search", {"num_r1": 2.5}, "weights.search.num_r1"),
    ("verify", "verify.e4_h_count", 0, "verify.e4_h_count"),
    ("verify", "verify.e4_h_count", -2, "verify.e4_h_count"),
    ("sweep", "resolvent.hs", [0.4, -0.1], "resolvent.hs[1]"),
    ("sweep", "resolvent.hs", [0.0], "resolvent.hs[0]"),
    ("sweep", "resolvent.hs", [float("inf"), 0.4], "resolvent.hs[0]"),
    ("sweep", "resolvent.eps.value", float("inf"), "resolvent.eps.value"),
    ("sweep", "resolvent.max_iter", 0, "resolvent.max_iter"),
    ("sweep", "resolvent.max_iter", -1, "resolvent.max_iter"),
    ("verify", "verify.x0", [float("nan"), 0.0], "verify.x0[0]"),
    ("verify", "verify.x0", [float("inf"), 0.0], "verify.x0[0]"),
    ("verify", "verify.box.half_width", float("inf"), "verify.box.half_width"),
    ("sweep", "resolvent.s", float("nan"), "resolvent.s"),
    ("weights", "weights.h", float("inf"), "weights.h"),
    ("weights", "weights.r1", float("inf"), "weights.r1"),
    ("weights", "weights.grid.r_max", float("inf"), "weights.grid.r_max"),
    ("weights", "weights.search", {"r1_hi": float("inf")}, "weights.search.r1_hi"),
    ("weights", "problem.E", float("inf"), "problem.E"),
    pytest.param("weights", "problem.E", 10**400, "problem.E",
                 id="weights-problem.E-int-1e400-problem.E"),
    ("verify", "resolvent.potential.rho", float("inf"), "resolvent.potential.rho"),
    ("sweep", "resolvent.potential", {"id": "radial_decay", "c": 10**400},
     "resolvent.potential.c"),
])
def test_out_of_range_leaf_exits_one(tmp_path, capsys, command, path, value, bad):
    # each of these once ended in a traceback, or in a run with nonsense
    cfg = write_cfg(tmp_path, with_leaf(BASELINE_SWEEP, path, value))
    out = tmp_path / "out"
    assert run([command, "--config", cfg, "--out", out]) == 1
    assert f"config error: {bad} must be" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, extra, message", [
    ("report", {"output": {"dir": "elsewhere"}}, "unknown config keys: ['output']"),
    ("sweep", {"output": {"dir": "elsewhere"}}, "unknown config keys: ['output']"),
    ("sweep", {"seed": -1}, "seed must be int >= 0"),
], ids=["output-report", "output-sweep", "negative-seed"])
def test_output_section_and_negative_seed_exit_one(tmp_path, monkeypatch, capsys,
                                                   command, extra, message):
    # --out (default "out") is the one spelling of the artifact directory, and
    # the seed is set in the config only, where SCHEMA checks it
    monkeypatch.chdir(tmp_path)
    cfg = write_cfg(tmp_path, {**BASELINE_SWEEP, **extra})
    assert run([command, "--config", cfg]) == 1
    assert f"config error: {message}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [tmp_path / "cfg.json"]


def baseline_with(path, value):
    baseline = Path(__file__).resolve().parents[1] / "configs" / "baseline.json"
    return with_leaf(json.loads(baseline.read_text()), path, value)


# an infinite tolerance passes every margin check, stops Lanczos at once (a
# baseline norm of 0.118 where it is 2.815) or lets a Riccati residual of
# 9.6e-4 through; a NaN one writes NaN into margins_report.json, and a
# negative one fails every check or every solve
@pytest.mark.parametrize("argv, payload, bad", [
    (["verify"], {"verify": {"tolerance": float("inf")}}, "verify.tolerance"),
    (["verify"], {"verify": {"tolerance": -1.0}}, "verify.tolerance"),
    (["verify"], {"verify": {"tolerance": float("nan")}}, "verify.tolerance"),
    (["sweep", "--assert-fits"], baseline_with("resolvent.tol", float("inf")), "resolvent.tol"),
    (["sweep"], baseline_with("resolvent.tol", -1.0), "resolvent.tol"),
    (["weights"], {"weights": {"r1": 1e5, "residual_tol": float("inf")}}, "weights.residual_tol"),
], ids=["verify-inf", "verify-negative", "verify-nan", "resolvent-inf", "resolvent-negative",
        "residual-inf"])
def test_tolerance_that_switches_a_certificate_off_exits_one(tmp_path, capsys, argv, payload,
                                                             bad):
    cfg = write_cfg(tmp_path, payload)
    out = tmp_path / "out"
    assert run([*argv, "--config", cfg, "--out", out]) == 1
    assert f"config error: {bad} must be" in capsys.readouterr().err
    assert not out.exists()


def test_load_config_returns_fresh_dicts():
    before = json.dumps(DEFAULT_CONFIG, sort_keys=True)
    cfg = load_config(None)
    cfg["resolvent"]["hs"].append(0.1)
    cfg["resolvent"]["box"]["n"] = 8
    assert json.dumps(DEFAULT_CONFIG, sort_keys=True) == before


def test_shipped_and_readme_configs_load(tmp_path):
    root = Path(__file__).resolve().parents[1]
    for path in sorted((root / "configs").glob("*.json")):
        assert load_config(str(path))["problem"] == json.loads(path.read_text())["problem"]
    readme = (root / "README.md").read_text()
    minimal = json.loads(readme.split("A minimal config")[1].split("```json\n")[1].split("```")[0])
    cfg = load_config(write_cfg(tmp_path, minimal))
    assert cfg["resolvent"]["hs"] == minimal["resolvent"]["hs"]
    # the benchmark's configs spell out keys the code no longer reads
    for path in sorted((root / "perfbench" / "reference").glob("*.json")):
        for item in json.loads(path.read_text())["inputs"]:
            cfg = load_config(write_cfg(tmp_path, item["config"]))
            assert cfg["problem"] == item["config"]["problem"]


@pytest.mark.parametrize("modes", [[], ["interior", "interior"], 3])
def test_bad_modes_exit_one(tmp_path, modes):
    payload = json.loads(json.dumps(BASELINE_SWEEP))
    payload["resolvent"]["modes"] = modes
    cfg = write_cfg(tmp_path, payload)
    out = tmp_path / "out"
    assert run(["sweep", "--config", cfg, "--out", out, "--assert-fits"]) == 1
    assert not out.exists()


@pytest.mark.parametrize("R", ["foo", -1])
def test_bad_exterior_radius_exits_one(tmp_path, R):
    payload = json.loads(json.dumps(BASELINE_SWEEP))
    payload["resolvent"].update(R=R, modes=["interior", "exterior"])
    cfg = write_cfg(tmp_path, payload)
    out = tmp_path / "out"
    assert run(["sweep", "--config", cfg, "--out", out]) == 1
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["sweep", "--bogus"],
    ["frob"],
    ["weights", "--tolerance", "1"],
    ["verify", "--seed", "1"],
    ["sweep", "--seed", "1"],
    ["verify", "--tolerance", "1"],
])
def test_usage_errors_exit_one(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert "usage:" in capsys.readouterr().err


def test_flags_name_no_run_value():
    # every run value is a SCHEMA leaf; a flag beside one would skip its check
    ap = cli.build_parser()
    sub = next(a for a in ap._actions if isinstance(a, argparse._SubParsersAction))
    options = {name: sorted(s for a in parser._actions for s in a.option_strings)
               for name, parser in [("", ap), *sub.choices.items()]}
    plain = ["--config", "--help", "--out", "-h"]
    assert options == {"": ["--help", "--help-config", "-h"], "weights": plain, "verify": plain,
                       "sweep": ["--assert-fits", *plain], "report": plain}


def test_invalid_params_exit_two_and_leave_nothing(tmp_path):
    cfg = write_cfg(tmp_path, {"problem": {"E": 1.0, "delta0": 0.4, "s": 0.5}})
    out = tmp_path / "out"
    assert run(["weights", "--config", cfg, "--out", out]) == 2
    assert not out.exists()


def test_nan_riccati_residual_exits_two_and_leaves_nothing(tmp_path, capsys, monkeypatch):
    # the residual gate fails on NaN, before any file is written
    monkeypatch.setattr(carlab.weights, "riccati_residual", lambda *args: float("nan"))
    out = tmp_path / "out"
    assert run(["weights", "--out", out]) == 2
    assert "construction error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["weights", "verify"])
def test_overflowing_default_r1_exits_two(tmp_path, capsys, command):
    # (1 + E delta0/4)^(1/delta) leaves the float range; this once ended in
    # a raw OverflowError traceback
    cfg = write_cfg(tmp_path, {"problem": {"E": 1e300}})
    out = tmp_path / "out"
    assert run([command, "--config", cfg, "--out", out]) == 2
    err = capsys.readouterr().err
    assert "default R1 overflows" in err and "Traceback" not in err
    assert not out.exists()


# settings only the Riccati solve rejects: weights exits 2, verify never solves
RICCATI_ONLY = {
    "h-1e-12": ({"h": 1e-12}, "steps, more than"),  # once a MemoryError, asking for 1.26 PiB
    "h-1e-20": ({"h": 1e-20}, "steps, more than"),  # once numpy's "array is too big"
    "h-1e-200": ({"h": 1e-200}, "overflows"),  # once 1.78e202 RK4 substeps
    "h-5e-324": ({"h": 5e-324}, "overflows"),  # once inf RK4 substeps, with a warning
    "r1-1e5": ({"r1": 1e5}, "residual above tolerance"),  # once 3.76e7 RK4 substeps
}
# settings the grid or the g/h1 scan reject, for both commands
UNGRIDDABLE = {
    "grid-zeros": ({"grid": {"n_inner": 0, "n_mid": 0, "n_outer": 0}},  # once an IndexError
                   "need at least 5 nodes per grid segment"),
    "grid-n_mid-4": ({"grid": {"n_mid": 4}}, "need at least 5 nodes per grid segment"),
    "r1-1e-300": ({"r1": 1e-300}, "g tail bound underflows"),  # once a ZeroDivisionError
}


@pytest.mark.parametrize("command, weights, message", [
    *(pytest.param("weights", w, m, id=f"{i}-weights") for i, (w, m) in RICCATI_ONLY.items()),
    *(pytest.param(c, w, m, id=f"{i}-{c}") for i, (w, m) in UNGRIDDABLE.items()
      for c in ("weights", "verify")),
])
def test_unbuildable_weights_exit_two_before_allocating(tmp_path, capsys, monkeypatch,
                                                        command, weights, message):
    # the step cap and the coefficient check come before any refined step
    # exists (the residual gate comes after the solve): with the step-count
    # estimate in one block, the kernel's first coefficient call is its one
    # trial evaluation
    monkeypatch.setattr(kernels, "_SPANS", 10**9)
    calls = []
    coefficients = kernels._coefficients

    def no_refined_steps(*args):
        calls.append(args)
        if len(calls) > 1 and "residual" not in message:
            raise AssertionError("the Riccati kernel built refined steps")
        return coefficients(*args)

    monkeypatch.setattr(kernels, "_coefficients", no_refined_steps)
    cfg = write_cfg(tmp_path, {"weights": weights})
    out = tmp_path / "out"
    assert run([command, "--config", cfg, "--out", out]) == 2  # a warning in carlab fails the suite
    err = capsys.readouterr().err
    assert err.startswith("construction error:") and message in err and "Traceback" not in err
    assert not out.exists()


def test_substep_factor_is_not_read(tmp_path):
    # the key is still checked (> 0), but the Riccati solve has no step setting
    cfg = write_cfg(tmp_path, {"weights": {"substep_factor": 1e300}})  # once "negative dimensions"
    assert run(["weights", "--config", cfg, "--out", tmp_path / "out"]) == 0


def test_large_r1_builds_within_the_residual_gate(tmp_path):
    # one Magnus step per span leaves the residual at 2.3e-6 here, where the
    # bend of psi past R0 sits in spans 0.25 h wide
    cfg = write_cfg(tmp_path, {"weights": {"r1": 1e3}})
    out = tmp_path / "out"
    assert run(["weights", "--config", cfg, "--out", out]) == 0
    report = json.loads((out / "weights_report.json").read_text())
    assert report["residuals"]["riccati"] <= 1e-6


def no_riccati_solve(monkeypatch):
    def fail(*args):
        raise AssertionError("the Riccati kernel ran")

    monkeypatch.setattr(kernels, "riccati_backward", fail)
    monkeypatch.setattr(carlab.weights, "riccati_backward", fail)


@pytest.mark.parametrize("weights", [
    *(w for w, _ in RICCATI_ONLY.values()), {"substep_factor": 1e300}, {"h": -1}, {"r1": 1e4},
], ids=[*RICCATI_ONLY, "substep_factor-1e300", "h--1", "r1-1e4"])
def test_verify_reads_no_table_settings(tmp_path, capsys, monkeypatch, weights):
    # these once exited 2 from the Riccati solve; verify never solves, so it
    # exits by its margins (the baseline's fail) and writes its report
    no_riccati_solve(monkeypatch)
    cfg = write_cfg(tmp_path, {"weights": weights})
    out = tmp_path / "out"
    assert run(["verify", "--config", cfg, "--out", out]) == 3
    assert "verify: failing checks: psi_inequality[envelope]" in capsys.readouterr().err
    assert (out / "margins_report.json").exists()


@pytest.mark.parametrize("config, code", [("baseline.json", 3), ("certified.json", 0)])
def test_verify_runs_no_riccati_solve(tmp_path, monkeypatch, config, code):
    no_riccati_solve(monkeypatch)
    cfg = Path(__file__).resolve().parents[1] / "configs" / config
    assert run(["verify", "--config", cfg, "--out", tmp_path / "out"]) == code


def test_residual_gate_exits_two_at_large_r1(tmp_path, capsys):
    # at R1 = 1e4 the default grid leaves the Riccati residual at 1.5e-5
    cfg = write_cfg(tmp_path, {"weights": {"r1": 1e4}})
    out = tmp_path / "out"
    assert run(["weights", "--config", cfg, "--out", out]) == 2
    assert "residual above tolerance" in capsys.readouterr().err
    assert not out.exists()


def test_unrepresentable_gluing_edge_fails_its_check(tmp_path, capsys):
    # at a corner radius of 1.4e300 both w' terms underflow; the edge
    # envelope was once 0/0, a ZeroDivisionError
    cfg = write_cfg(tmp_path, {"verify": {"box": {"half_width": 1e300}}})
    out = tmp_path / "out"
    assert run(["verify", "--config", cfg, "--out", out]) == 3
    assert "Traceback" not in capsys.readouterr().err
    data = json.loads((out / "margins_report.json").read_text())
    glue = [r for r in data["reports"] if r["name"] == "gluing_constants"]
    assert glue[0]["pass"] is False and "edge envelope underflows" in glue[0]["error"]


@pytest.mark.parametrize("command", ["weights", "verify"])
def test_falsely_scan_certified_search_exits_two(tmp_path, capsys, command):
    # a sampled scan on [0, 2 R1] once accepted R1 = 1 here and verify passed
    # all 9 checks; the envelope margin is -2.83 near r = 1.9e8
    cfg = write_cfg(tmp_path, {"problem": {"E": 8.0, "delta0": 0.1, "s": 0.54},
                               "weights": {"search": {"r1_lo": 1.0, "r1_hi": 1e6,
                                                      "num_r1": 64}},
                               "resolvent": {"potential": {"id": "zero"}}})
    out = tmp_path / "out"
    assert run([command, "--config", cfg, "--out", out]) == 2
    assert "no admissible R1" in capsys.readouterr().err
    assert not out.exists()


def test_parser_is_built_once(monkeypatch):
    monkeypatch.setattr(cli, "build_parser", functools.cache(cli.build_parser.__wrapped__))
    assert main(["--help-config"]) == 0
    with pytest.raises(SystemExit) as exc:  # the usage path still exits 1
        main(["frob"])
    assert exc.value.code == 1
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_report_aggregates(tmp_path):
    cfg = write_cfg(tmp_path, CERTIFIED)
    out = tmp_path / "out"
    assert run(["weights", "--config", cfg, "--out", out]) == 0
    assert run(["verify", "--config", cfg, "--out", out]) == 0
    assert run(["report", "--config", cfg, "--out", out]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["present"]["weights"]
    assert summary["present"]["margins"]
    assert summary["pass"] is True


def test_report_on_sweeps_alone(tmp_path):
    out = tmp_path / "out"
    assert run(["sweep", "--config", write_cfg(tmp_path, BASELINE_SWEEP), "--out", out]) == 0
    assert run(["report", "--out", out]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["present"] == {"weights": False, "margins": False, "sweeps": True}
    assert summary["pass"] is True
    assert summary["sweeps"] == {"interior": json.loads((out / "fits_interior.json").read_text())}
    assert "weights" not in summary and "margins" not in summary


def test_report_fails_with_a_failing_margin(tmp_path):
    out = tmp_path / "out"
    assert run(["verify", "--out", out]) == 3
    assert run(["report", "--out", out]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["present"] == {"weights": False, "margins": True, "sweeps": False}
    assert summary["margins"] == json.loads((out / "margins_report.json").read_text())
    assert summary["pass"] is False


def test_report_on_an_empty_directory(tmp_path):
    assert run(["report", "--out", tmp_path]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary == {"present": {"weights": False, "margins": False, "sweeps": False},
                       "pass": True, "sweeps": {}}


def test_help_config_prints_schema(capsys):
    assert main(["--help-config"]) == 0
    text = capsys.readouterr().out
    assert "problem:" in text
    assert "resolvent:" in text


def test_help_config_names_every_leaf(capsys):
    # the help is generated from the schema, so it cannot drift from the defaults
    assert main(["--help-config"]) == 0
    text = capsys.readouterr().out
    named, stack = set(), []
    for indent, key in re.findall(r"^( {0,8})(\w+):", text, re.M):
        stack[len(indent) // 2:] = [key]
        named.add(".".join(stack))

    def leaves(node, path=""):
        for key, value in node.items():
            yield from leaves(value, f"{path}{key}.") if isinstance(value, dict) else [path + key]

    assert set(leaves(DEFAULT_CONFIG)) <= named
    for field in fields(PsiSearch):
        assert field.name in text


def test_no_command_exits_one(capsys):
    assert main([]) == 1


def fresh_python(*args):
    """A new interpreter on the same carlab as this process, installed or not."""
    src = str(Path(carlab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run([sys.executable, *map(str, args)], capture_output=True, text=True,
                          env=env)


def test_console_entry_point():
    proc = fresh_python("-m", "carlab", "--help-config")
    assert proc.returncode == 0
    assert "seed" in proc.stdout


# `import carlab`, then `python -m carlab` on the given arguments; the last
# line of stdout holds the exit code and the scipy modules then loaded
RUN_MAIN = """
import json, runpy, sys
import carlab
sys.argv = ["carlab", *sys.argv[1:]]
try:
    runpy.run_module("carlab", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
"""


def run_main(*argv):
    proc = fresh_python("-c", RUN_MAIN, *argv)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_construction_commands_load_no_scipy(tmp_path):
    # the weights, their certificates and the summary are numpy work; only
    # a sweep's sparse LU needs scipy
    cfg = Path(__file__).resolve().parents[1] / "configs" / "certified.json"
    for command in ("weights", "verify", "report"):
        assert run_main(command, "--config", cfg, "--out", tmp_path) == [0, []], command
    assert (tmp_path / "summary.json").exists()
    assert run_main("--help-config") == [0, []]


TEST_ORACLES = ("effective_potential", "EffectivePotentialTable", "carleman_quadratic_form_test",
                "combined_estimate_test", "_form_arrays", "_implied_c", "QuadFormResult",
                "CombinedResult", "bump", "bump_ensemble", "BOUNDARY_MARGIN_CELLS", "phi_at")


def test_verifiers_do_not_reach_the_resolvent():
    # the estimators that took an assembled operator live in tests/estimates.py;
    # verify.py names nothing of the module that loads scipy
    from carlab import box, resolvent, verify, weights

    source = Path(verify.__file__).read_text()
    assert "resolvent" not in source and "DiscreteOperator" not in source
    for module in (carlab, verify, weights):
        assert sorted(set(TEST_ORACLES) & set(dir(module))) == [], module.__name__
    assert not hasattr(weights.WeightTables, "max_phi")
    assert not hasattr(resolvent.DiscreteOperator, "apply_shifted")
    assert not hasattr(box.BoxDiscretization, "cell_area")


def test_sweep_loads_scipy_when_it_runs(tmp_path):
    cfg = write_cfg(tmp_path, BASELINE_SWEEP)
    code, loaded = run_main("sweep", "--config", cfg, "--out", tmp_path / "out")
    assert code == 0 and "scipy.sparse.linalg" in loaded
    assert (tmp_path / "out" / "sweep_interior.csv").exists()


def test_readme_library_names_listed_and_importable():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Library entry points")[1].split("from carlab import (")[1]
    names = re.findall(r"\w+", block.split(")")[0])
    code = (f"import carlab; print(sorted(set({names!r}) - set(dir(carlab))))\n"
            f"from carlab import {', '.join(names)}")
    proc = fresh_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    assert "sweep_h" in names and "BoxDiscretization" in names


@pytest.mark.parametrize("rows", [1, 2, 3, 5])
def test_fit_targets_need_enough_rows(tmp_path, capsys, rows):
    # one row passed the exp target with R2 = 1 (lstsq's minimum-norm
    # solution, ss_tot = 0) and two rows give R2 = 1 by construction: the
    # interior target needs 3 rows, the exterior h*norm ratio 2
    baseline = Path(__file__).resolve().parents[1] / "configs" / "baseline.json"
    payload = json.loads(baseline.read_text())
    payload["resolvent"]["hs"] = payload["resolvent"]["hs"][:rows]
    cfg, out = write_cfg(tmp_path, payload), tmp_path / "out"
    assert run(["sweep", "--config", cfg, "--out", out, "--assert-fits"]) == (3 if rows < 3 else 0)
    printed = capsys.readouterr()
    missed = {mode: f"sweep[{mode}]: the {mode} target needs >= {needed} rows, got {rows}  "
                    "(target missed)" for mode, needed in (("interior", 3), ("exterior", 2))}
    assert (missed["interior"] in printed.out) == (rows < 3)
    assert (missed["exterior"] in printed.out) == (rows < 2)
    assert ("fit targets failed" in printed.err) == (rows < 3)
    # the fits files hold the fit of whatever rows there are, and their count;
    # below 3 rows they hold no R2
    fits = json.loads((out / "fits_interior.json").read_text())
    assert set(fits) >= {"exp", "poly"}
    for mode in ("interior", "exterior"):
        fits = json.loads((out / f"fits_{mode}.json").read_text())
        assert [fits[m]["rows"] for m in ("exp", "poly")] == [rows, rows]
        assert (fits["exp"]["r_squared"] is None) == (fits["poly"]["r_squared"] is None) == (rows < 3)
    if rows == 5:  # all of baseline's rows: the R2 values the fits have always had
        fits = json.loads((out / "fits_interior.json").read_text())
        assert fits["exp"]["r_squared"] == pytest.approx(BASELINE_EXP_R2, rel=1e-12)
        assert fits["poly"]["r_squared"] == pytest.approx(BASELINE_POLY_R2, rel=1e-12)
    assert run(["sweep", "--config", cfg, "--out", out]) == 0  # fits are data unless asserted


def test_assert_fits_flag(tmp_path):
    # zero potential, interior: the poly-slope window is the target; at these
    # two h values with smoothing eps the check may pass or fail, but the flag
    # must turn the result into the exit code deterministically
    payload = json.loads(json.dumps(BASELINE_SWEEP))
    payload["resolvent"]["eps"] = {"rule": "h_over", "value": 4.0}
    payload["resolvent"]["hs"] = [0.4, 0.3, 0.22]
    cfg = write_cfg(tmp_path, payload)
    out = tmp_path / "out"
    rc_plain = run(["sweep", "--config", cfg, "--out", out])
    assert rc_plain == 0  # fits are data unless asserted
    rc_assert = run(["sweep", "--config", cfg, "--out", out, "--assert-fits"])
    fits = json.loads((out / "fits_interior.json").read_text())
    in_window = 0.7 <= fits["poly"]["slope"] <= 1.3
    assert rc_assert == (0 if in_window else 3)
