import json
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

import carlab
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
])
def test_out_of_range_leaf_exits_one(tmp_path, capsys, command, path, value, bad):
    # each of these once ended in a traceback, or in a run with nonsense
    cfg = write_cfg(tmp_path, with_leaf(BASELINE_SWEEP, path, value))
    out = tmp_path / "out"
    assert run([command, "--config", cfg, "--out", out]) == 1
    assert f"config error: {bad} must be" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, extra, message", [
    (["report"], {"output": {"dir": 5}}, "output.dir must be str"),
    (["sweep"], {"output": {"dir": 5}}, "output.dir must be str"),
    (["sweep", "--seed", "-1"], {}, "seed must be int >= 0"),
])
def test_output_dir_and_seed_override_are_checked(tmp_path, monkeypatch, capsys,
                                                  argv, extra, message):
    # output.dir is only read without --out; --seed passes the config's checks
    monkeypatch.chdir(tmp_path)
    cfg = write_cfg(tmp_path, {**BASELINE_SWEEP, **extra})
    assert run([*argv, "--config", cfg]) == 1
    assert f"config error: {message}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [tmp_path / "cfg.json"]


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
])
def test_usage_errors_exit_one(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert "usage:" in capsys.readouterr().err


def test_invalid_params_exit_two_and_leave_nothing(tmp_path):
    cfg = write_cfg(tmp_path, {"problem": {"E": 1.0, "delta0": 0.4, "s": 0.5}})
    out = tmp_path / "out"
    assert run(["weights", "--config", cfg, "--out", out]) == 2
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


def test_console_entry_point():
    # the child imports the same carlab as this process, installed or not
    src = str(Path(carlab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-m", "carlab", "--help-config"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert "seed" in proc.stdout


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
