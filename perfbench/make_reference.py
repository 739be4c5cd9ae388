"""Regenerate perfbench/reference/*.json: the inputs and their checked outputs.

Run from the repository root:  python3 perfbench/make_reference.py

Every config is complete, so changes to the program's defaults leave the
load unchanged.  Rules that the program evaluates from the point itself
(the verify shift and box, the radial grid ends) stay "auto"/null; the
table h is written out as the number h1/2 ... h1/16 it resolves to here.

Checks made while generating, which stop the script if they fail:
- each sweep is run with two seeds and the norms agree to the benchmark's
  tolerance, so the reference holds for any workload seed;
- one sweep-ring64 row is compared with the dense SVD oracle
  (``dense_resolvent_norm``).
"""

import json
import os
import sys
import tempfile
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "2")  # for the one dense SVD
sys.path.insert(0, str(Path(__file__).resolve().parent))

import worker  # noqa: E402

cli = worker.import_program()

from carlab.potentials import catalog_potential, catalog_radial  # noqa: E402
from carlab.resolvent import (  # noqa: E402
    BoxDiscretization, assemble, dense_resolvent_norm, weight_diag,
)
from carlab.verify import verify_psi_inequality  # noqa: E402
from carlab.weights import (  # noqa: E402
    ProblemParams, PsiSearch, PsiSpec, compute_g_and_h1, default_r1,
    find_psi_constants, margin_scan_nodes, radial_grid, validate_params,
)

HS = [0.4, 0.3, 0.22, 0.16, 0.12]
RING = {"id": "trapping_ring", "A": 2.0, "rho": 1.0, "sigma": 0.25}
GRID = {"n_inner": 400, "n_mid": 2400, "n_outer": 800, "r_min": None, "r_max": None}
FINE_GRID = {"n_inner": 800, "n_mid": 4800, "n_outer": 1600, "r_min": None, "r_max": None}
CERTIFIED_SEARCH = {"r1_lo": 1.0, "r1_hi": 1e6, "num_r1": 64,
                    "margin_nodes": 10000, "span": 2.0, "min_margin": 0.0}
DEFAULT_SEARCH = {"r1_lo": 1.0, "r1_hi": 1e306, "num_r1": 320,
                  "margin_nodes": 10000, "span": 2.0, "min_margin": 0.0}
VERIFY = {"tolerance": 1e-12, "margin_nodes": 10000, "x0": "auto",
          "box": {"half_width": "auto", "n": 65}, "e4_h_count": 8}


def sweep_config(potential, n, modes, R):
    return {
        "problem": {"E": 1.0, "delta0": 0.4, "s": 0.6},
        "resolvent": {
            "box": {"half_width": 2.5, "n": n},
            "potential": potential,
            "hs": HS,
            "eps": {"rule": "h_over", "value": 4.0},
            "s": 0.6,
            "modes": modes,
            "R": R,
            "tol": 1e-8,
            "max_iter": 2000,
        },
    }


def weights_config(E, delta0, s, potential, search=None, r1="auto", grid=GRID, h_div=2):
    """Complete weights/verify config; h is h1/h_div, resolved here."""
    config = {
        "problem": {"E": E, "delta0": delta0, "s": s},
        "weights": {"r1": r1, "search": search, "h": "auto", "grid": dict(grid),
                    "substep_factor": 80.0, "residual_tol": 1e-6},
        "verify": json.loads(json.dumps(VERIFY)),
        "resolvent": {"potential": potential},
    }
    if h_div is not None:
        p = validate_params(ProblemParams(E=E, delta0=delta0, s=s))
        if search is not None:
            spec = find_psi_constants(p, PsiSearch(**search))
        else:
            spec = PsiSpec.from_continuity(p, default_r1(p) if r1 == "auto" else r1)
        nodes = radial_grid(spec, n_inner=grid["n_inner"], n_mid=grid["n_mid"],
                            n_outer=grid["n_outer"]).nodes
        config["weights"]["h"] = compute_g_and_h1(spec, E, extra_nodes=nodes).h1 / h_div
    return config


def run_once(name, config, kind, seed, tmp):
    config_path = Path(tmp) / f"{name}-{seed}.json"
    config_path.write_text(json.dumps({**config, "seed": seed}))
    out = Path(tmp) / f"{name}-{seed}-out"
    _, exits, error = worker.run_pipeline(cli, worker.PIPELINES[kind], config_path, out)
    if error:
        raise SystemExit(f"{name}: {error}")
    return exits, out


def sweep_reference(name, config, tmp):
    seen = []
    for seed in (11, 29):
        exits, out = run_once(name, config, "sweep", seed, tmp)
        rows = {}
        for mode in config["resolvent"]["modes"]:
            lines = (out / f"sweep_{mode}.csv").read_text().splitlines()[1:]
            rows[mode] = [[float(x) for x in (line.split(",")[i] for i in (0, 1, 5))] for line in lines]
        seen.append(rows)
    for mode, ref_rows in seen[0].items():
        for a, b in zip(ref_rows, seen[1][mode]):
            if abs(a[2] - b[2]) > worker.NORM_RTOL * abs(a[2]) / 10:
                raise SystemExit(f"{name}: norm depends on the seed: {a} vs {b}")
    expect = {"exit": exits, "rows": seen[0], "tol": config["resolvent"]["tol"],
              "max_iter": config["resolvent"]["max_iter"]}
    return {"name": name, "config": config, "expect": expect}


def dense_check(config, rows):
    """Compare the h = max(hs) interior row with the dense SVD oracle."""
    r, E = config["resolvent"], config["problem"]["E"]
    disc = BoxDiscretization(L=r["box"]["half_width"], n=r["box"]["n"])
    pot = dict(r["potential"])
    V = catalog_potential(pot.pop("id"), config["problem"]["delta0"], disc, E=E, **pot)
    h, eps, norm = rows["interior"][0]
    w = weight_diag(disc, r["s"])
    dense = dense_resolvent_norm(assemble(V, E, h, disc, check_resolution=False), eps, w, w)
    if abs(dense - norm) > worker.NORM_RTOL * dense:
        raise SystemExit(f"dense oracle {dense!r} disagrees with sweep norm {norm!r} at h = {h}")
    return {"h": h, "mode": "interior", "dense_svd": dense, "sweep": norm}


def cv_reference(name, config, tmp, known_defect=None):
    item = {"name": name, "config": config}
    if known_defect is None:
        exits, out = run_once(name, config, "construct-verify", 0, tmp)
        report = json.loads((out / "weights_report.json").read_text())
        margins = json.loads((out / "margins_report.json").read_text())["reports"]
        item["expect"] = {
            "exit": exits,
            "constants": {k: report[k] for k in ("B", "R0", "R1", "h1", "C0")},
            "margins": [[m["name"], m["pass"], m.get("min_margin")] for m in margins],
            "margins_complete": True,
        }
    else:
        item["expect"], item["known_defect"] = known_defect()
    return item


def small_delta_expectation():
    """The README's certified small-delta point crashes in the program, so
    its reference holds what the library computes without the crashing
    step: the searched constants and the two profile-inequality margins.
    The ring instance margin fails at every h, so verify must exit 3."""
    p = validate_params(ProblemParams(E=1.0, delta0=0.4, s=0.505))
    spec = find_psi_constants(p, PsiSearch(**DEFAULT_SEARCH))
    nodes = radial_grid(spec).nodes
    pot = dict(RING)
    ring = catalog_radial(pot.pop("id"), p.delta0, nodes, **pot)
    margins = [verify_psi_inequality(spec, margin_scan_nodes(spec, VERIFY["margin_nodes"])),
               verify_psi_inequality(spec, nodes, potential=ring)]
    expect = {
        "exit": {"weights": 0, "verify": 3, "report": 0},
        "constants": {"B": spec.B, "R0": spec.R0, "R1": spec.R1},
        "margins": [[m.name, m.passed, m.min_margin] for m in margins],
        "margins_complete": False,
    }
    defect = {"reason_prefix": "weights raised OverflowError",
              "note": "g_tail_bound overflows at R1 ~ 2.3e203 (ROADMAP open item 4)"}
    return expect, defect


def main():
    ref_dir = Path(__file__).resolve().parent / "reference"
    ref_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=worker.ROOT) as tmp:
        ring = sweep_reference(
            "baseline-ring64", sweep_config(RING, 64, ["interior", "exterior"], 1.75), tmp)
        ring["expect"]["dense_check"] = dense_check(ring["config"], ring["expect"]["rows"])
        free = sweep_reference(
            "free128", sweep_config({"id": "zero"}, 128, ["interior"], 1.0), tmp)
        decay = {"id": "radial_decay"}
        p0 = validate_params(ProblemParams(E=1.0, delta0=0.4, s=0.6))
        batch = [
            cv_reference("certified", weights_config(
                8.0, 0.45, 0.55, {"id": "zero"}, search=CERTIFIED_SEARCH), tmp),
            cv_reference("baseline-fixed-r1", weights_config(
                1.0, 0.4, 0.6, RING, r1=default_r1(p0)), tmp),
            cv_reference("spread-E2-h1over4", weights_config(
                2.0, 0.3, 0.575, decay, h_div=4), tmp),
            cv_reference("spread-E0.5-h1over8", weights_config(
                0.5, 0.45, 0.6, decay, h_div=8), tmp),
            cv_reference("spread-E4-h1over16", weights_config(
                4.0, 0.35, 0.55, decay, h_div=16), tmp),
            cv_reference("certified-fine-grid", weights_config(
                8.0, 0.45, 0.55, {"id": "zero"}, search=CERTIFIED_SEARCH, grid=FINE_GRID), tmp),
            cv_reference("small-delta", weights_config(
                1.0, 0.4, 0.505, RING, search=DEFAULT_SEARCH, h_div=None), tmp,
                known_defect=small_delta_expectation),
        ]
    for workload, kind, inputs in (("sweep-ring64", "sweep", [ring]),
                                   ("sweep-free128", "sweep", [free]),
                                   ("construct-verify", "construct-verify", batch)):
        payload = {"workload": workload, "kind": kind, "inputs": inputs}
        (ref_dir / f"{workload}.json").write_text(json.dumps(payload, indent=1) + "\n")
        print(f"wrote reference/{workload}.json")


if __name__ == "__main__":
    main()
