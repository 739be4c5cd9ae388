"""Batch front-end: config parsing, pipeline orchestration, reports, exit codes.

Exit code contract: 0 success, 1 usage/config, 2 construction,
3 verification, 4 solver.
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .errors import (
    CarlabError,
    CertificationError,
    ConfigError,
    ConstructionError,
    ParameterError,
    SolverError,
)
from . import reports
from .potentials import catalog_potential, catalog_radial
from .resolvent import BoxDiscretization, sweep_h
from .verify import (
    gluing_constants,
    shift_radius_bound,
    verify_barrier_facts,
    verify_E4_inequality,
    verify_psi_inequality,
    verify_shift_envelope,
)
from .weights import (
    ProblemParams,
    PsiSearch,
    PsiSpec,
    build_weight_tables,
    compute_g_and_h1,
    default_r1,
    find_psi_constants,
    margin_scan_nodes,
    radial_grid,
    validate_params,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_CONSTRUCTION = 2
EXIT_VERIFICATION = 3
EXIT_SOLVER = 4

DEFAULT_CONFIG = {
    "seed": 1234,
    "problem": {"E": 1.0, "delta0": 0.4, "s": 0.6},
    "weights": {
        "r1": "auto",
        "search": None,
        "h": "auto",
        "grid": {"n_inner": 400, "n_mid": 2400, "n_outer": 800, "r_min": None, "r_max": None},
        "substep_factor": 80.0,
        "residual_tol": 1e-6,
    },
    "verify": {
        "tolerance": 1e-12,
        "margin_nodes": 10000,
        "x0": "auto",
        "box": {"half_width": "auto", "n": 65},
        "e4_h_count": 8,
    },
    "resolvent": {
        "box": {"half_width": 2.5, "n": 64},
        "potential": {"id": "trapping_ring", "c": 1.0, "A": 2.0, "rho": 1.0, "sigma": 0.25},
        "hs": [0.4, 0.3, 0.22, 0.16, 0.12],
        "eps": {"rule": "h_over", "value": 4.0},
        "s": 0.6,
        "modes": ["interior", "exterior"],
        "R": "auto",
        "tol": 1e-8,
        "max_iter": 2000,
    },
    "output": {"dir": "out"},
}

HELP_CONFIG = """\
Configuration file (JSON). Unknown keys are rejected; omitted keys take the
defaults shown. Every run with the same config and seed writes byte-identical
artifacts.

seed: int                       rng seed for Lanczos start vectors
problem:
  E: float > 0                  energy level
  delta0: float in (0, 1/2)     long-range decay exponent
  s: float > 1/2                weight exponent; delta = 2s - 1 must be < delta0
weights:
  r1: "auto" | float            continuity-exact construction at this R1;
                                auto uses 1+R1 = 2 (1 + E delta0/4)^(1/delta)
  search: null | {r1_lo, r1_hi, num_r1, margin_nodes, span}
                                if given, run the certified constant search
                                instead of the fixed-R1 construction
  h: "auto" | float             table h; auto = h1/2
  grid: {n_inner, n_mid, n_outer, r_min, r_max}
  substep_factor: float         RK4 substep bound h/substep_factor
  residual_tol: float           Riccati residual gate
verify:
  tolerance: float              margin acceptance threshold
  margin_nodes: int             nodes of the profile-inequality scan
  x0: "auto" | [x, y]           shift; auto = (2^(1/(1+delta0)) - 1, 0)
  box: {half_width: "auto" | float, n}   2D grid for shift/gluing checks;
                                auto half_width = 2 (R1 + 1)
  e4_h_count: int               dyadic h values in (0, h1] for the E/4 check
resolvent:
  box: {half_width, n}
  potential: {id: zero | radial_decay | trapping_ring, c, A, rho, sigma}
  hs: descending floats         sweep values of h
  eps: {rule: constant | h_over, value}   eps = value, or h/value (default h/4)
  s: float                      weight exponent of the sweep
  modes: ["interior", "exterior"]  nonempty, no mode repeated
  R: "auto" | float             exterior cutoff; auto = rho + 3 sigma for the
                                ring potential, 1.0 otherwise
  tol: float                    Lanczos eigenpair residual certificate
  max_iter: int                 cap on a row's A*A applications, all sectors
output:
  dir: str                      artifact directory
"""


# ----------------------------------------------------------------------------
# config plumbing
# ----------------------------------------------------------------------------

def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _merge(defaults, given, path=""):
    """Fill defaults recursively and reject unknown keys.  A leaf whose
    default is a number must hold a number, a whole one if the default is
    an int; one whose default is "auto" or null may also keep that.  The
    commands cast these leaves with float() or int().  x0 and search hold
    a list and an object instead, which _validate_config checks."""
    if not isinstance(given, dict):
        raise ConfigError(f"config section '{path[:-1] or '<root>'}' must be an object")
    unknown = set(given) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(path + k for k in unknown)}")
    out = dict(defaults)
    for key, value in given.items():
        default, name = defaults[key], path + key
        if isinstance(default, dict):
            value = _merge(default, value, name + ".")
        elif (_is_number(default) or default in ("auto", None) and value != default
              and name not in ("weights.search", "verify.x0")):
            whole = isinstance(default, int)
            if not _is_number(value) or whole and value % 1:  # nan % 1 and inf % 1 are nan
                alt = "" if _is_number(default) else f" or {json.dumps(default)}"
                kind = "an integer" if whole else "a number"
                raise ConfigError(f"{name} must be {kind}{alt}, got {value!r}")
        out[key] = value
    return out


def load_config(path: str | None, overrides=None) -> dict:
    if path is None:
        given = {}
    else:
        try:
            with open(path) as f:
                given = json.load(f)
        except FileNotFoundError as exc:
            raise ConfigError(f"config file not found: {path}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    cfg = _merge(DEFAULT_CONFIG, given)
    for key, value in (overrides or {}).items():
        section = cfg
        parts = key.split(".")
        for p in parts[:-1]:
            section = section[p]
        section[parts[-1]] = value
    _validate_config(cfg)
    return cfg


def _validate_config(cfg: dict):
    search = cfg["weights"]["search"]
    if search is not None and not (isinstance(search, dict)
                                   and all(map(_is_number, search.values()))):
        raise ConfigError("weights.search must be null or an object of numbers")
    hs = cfg["resolvent"]["hs"]
    if not isinstance(hs, list) or not all(map(_is_number, hs)):
        raise ConfigError("resolvent.hs must be a list of numbers")
    if len(hs) == 0:
        raise ConfigError("no sweep points")
    if any(b >= a for a, b in zip(hs, hs[1:])):
        raise ConfigError("resolvent.hs must be strictly descending")
    eps = cfg["resolvent"]["eps"]
    if eps["rule"] not in ("constant", "h_over"):
        raise ConfigError(f"unknown eps rule '{eps['rule']}'")
    if not (eps["value"] > 0.0):
        raise ConfigError("eps value must be positive")
    modes = cfg["resolvent"]["modes"]
    if not isinstance(modes, list):
        raise ConfigError("resolvent.modes must be a list")
    for mode in modes:
        if mode not in ("interior", "exterior"):
            raise ConfigError(f"unknown sweep mode '{mode}'")
    if not modes or len(set(modes)) != len(modes):
        raise ConfigError(f"resolvent.modes must be nonempty without repeats, got {modes}")
    R = cfg["resolvent"]["R"]
    if R != "auto" and not R > 0.0:
        raise ConfigError(f"resolvent.R must be \"auto\" or a positive number, got {R!r}")
    pot = cfg["resolvent"]["potential"]
    if pot["id"] not in ("zero", "radial_decay", "trapping_ring"):
        raise ConfigError(f"unknown potential id '{pot['id']}'")
    x0 = cfg["verify"]["x0"]
    if x0 != "auto" and not (isinstance(x0, list) and len(x0) == 2 and all(map(_is_number, x0))):
        raise ConfigError("verify.x0 must be \"auto\" or [x, y]")


def _params(cfg) -> ProblemParams:
    prob = cfg["problem"]
    return validate_params(
        ProblemParams(E=float(prob["E"]), delta0=float(prob["delta0"]), s=float(prob["s"]))
    )


def _spec(cfg, p: ProblemParams) -> PsiSpec:
    wcfg = cfg["weights"]
    if wcfg["search"] is not None:
        try:
            search = PsiSearch(**dict(wcfg["search"]))
        except TypeError as exc:
            raise ConfigError(f"bad weights.search keys: {exc}") from exc
        return find_psi_constants(p, search)
    r1 = wcfg["r1"]
    r1 = default_r1(p) if r1 == "auto" else float(r1)
    return PsiSpec.from_continuity(p, r1)


def _tables(cfg, spec: PsiSpec):
    wcfg = cfg["weights"]
    g = wcfg["grid"]
    grid = radial_grid(
        spec,
        r_min=g["r_min"], r_max=g["r_max"],
        n_inner=int(g["n_inner"]), n_mid=int(g["n_mid"]), n_outer=int(g["n_outer"]),
    )
    h = wcfg["h"]
    if h == "auto":
        h = compute_g_and_h1(spec, spec.E, extra_nodes=grid.nodes).h1 / 2.0
    return build_weight_tables(
        spec, float(h), grid,
        substep_factor=float(wcfg["substep_factor"]),
        residual_tol=float(wcfg["residual_tol"]),
    )


# ----------------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------------

def cmd_weights(cfg, out: Path) -> int:
    p = _params(cfg)
    wt = _tables(cfg, _spec(cfg, p))
    payload = reports.weight_report_dict(wt)
    res = payload["residuals"]
    ok = (
        res["continuity_R0"] <= 1e-10
        and res["continuity_R1"] <= 1e-10
        and res["riccati"] <= float(cfg["weights"]["residual_tol"])
    )
    out.mkdir(parents=True, exist_ok=True)
    reports.write_weight_table(out / "weights_table.txt", wt)
    reports.write_report(out / "weights_report.json", payload)
    if not ok:
        print(f"weights: residual invariants failed: {res}", file=sys.stderr)
        return EXIT_CONSTRUCTION
    print(f"weights: wrote {out / 'weights_table.txt'} and weights_report.json")
    return EXIT_OK


def cmd_verify(cfg, out: Path, tolerance: float | None = None) -> int:
    p = _params(cfg)
    spec = _spec(cfg, p)
    wt = _tables(cfg, spec)
    vcfg = cfg["verify"]
    tol = float(vcfg["tolerance"]) if tolerance is None else tolerance

    margin_nodes = margin_scan_nodes(spec, int(vcfg["margin_nodes"]))
    out_reports = [verify_psi_inequality(spec, margin_nodes, tolerance=tol)]
    hs = wt.h1 * 0.5 ** np.arange(int(vcfg["e4_h_count"]) - 1, -1, -1)
    out_reports.append(verify_E4_inequality(wt, hs=hs, tolerance=tol))
    # instance margins for the configured catalog potential, radial sampling;
    # E is not passed: the trapping gate A > E only matters for sweeps
    pot = dict(cfg["resolvent"]["potential"])
    pot_id = pot.pop("id")
    v_inst = catalog_radial(
        pot_id, p.delta0, wt.grid.nodes,
        **{k: float(v) for k, v in pot.items()},
    )
    out_reports.append(
        verify_psi_inequality(spec, wt.grid.nodes, potential=v_inst, tolerance=tol)
    )
    out_reports.append(
        verify_E4_inequality(wt, potential=v_inst, hs=hs, tolerance=tol)
    )
    out_reports.extend(verify_barrier_facts(wt, tolerance=tol))

    half = vcfg["box"]["half_width"]
    half = 2.0 * (spec.R1 + 1.0) if half == "auto" else float(half)
    disc = BoxDiscretization(L=half, n=int(vcfg["box"]["n"]))
    x0 = vcfg["x0"]
    if x0 == "auto":
        x0 = [shift_radius_bound(p.delta0), 0.0]
    failures_from_errors = []
    try:
        out_reports.append(verify_shift_envelope(x0, p.delta0, disc, tolerance=tol))
    except ConstructionError as exc:
        failures_from_errors.append(("shift_envelope", str(exc)))
    glue_payload = None
    try:
        glue = gluing_constants(wt, x0, disc)
        glue_payload = {
            "K": reports.fnum(glue.K),
            "R": reports.fnum(glue.R),
            "k_weight_floor": reports.fnum(glue.k_weight_floor),
            "k_weight_cap": reports.fnum(glue.k_weight_cap),
            "edge_floor": reports.fnum(glue.edge_floor),
            "edge_cap": reports.fnum(glue.edge_cap),
        }
    except (CertificationError, ConstructionError) as exc:
        failures_from_errors.append(("gluing_constants", str(exc)))

    payload = {"reports": [r.to_dict() for r in out_reports]}
    for name, message in failures_from_errors:
        payload["reports"].append({"name": name, "error": message, "pass": False})
    if glue_payload is not None:
        payload["gluing"] = glue_payload
    out.mkdir(parents=True, exist_ok=True)
    reports.write_report(out / "margins_report.json", payload)

    failing = [r["name"] for r in payload["reports"] if not r["pass"]]
    if failing:
        print(f"verify: failing checks: {', '.join(failing)}", file=sys.stderr)
        return EXIT_VERIFICATION
    print(f"verify: all {len(payload['reports'])} checks passed")
    return EXIT_OK


FIT_TARGETS = {
    ("zero", "interior"): ("poly_slope_window", (0.7, 1.3)),
    ("radial_decay", "interior"): ("poly_slope_window", (0.7, 1.3)),
    ("trapping_ring", "interior"): ("exp_positive_r2", 0.9),
    ("zero", "exterior"): ("hnorm_ratio", 10.0),
    ("radial_decay", "exterior"): ("hnorm_ratio", 10.0),
    ("trapping_ring", "exterior"): ("hnorm_ratio", 10.0),
}


def _check_fit_target(pot_id, mode, result):
    rule = FIT_TARGETS.get((pot_id, mode))
    if rule is None:
        return True, "no target"
    kind, val = rule
    if kind == "poly_slope_window":
        slope = result.fit("poly").slope
        ok = val[0] <= slope <= val[1]
        return ok, f"poly slope {slope:.4f} in [{val[0]}, {val[1]}]"
    if kind == "exp_positive_r2":
        fit = result.fit("exp")
        ok = fit.slope > 0 and fit.r_squared >= val
        return ok, f"exp slope {fit.slope:.4f} > 0 and R2 {fit.r_squared:.4f} >= {val}"
    hn = result.hs() * result.norms()
    ratio = float(hn.max() / hn.min())
    ok = ratio <= val
    return ok, f"h*norm max/min {ratio:.4f} <= {val}"


def cmd_sweep(cfg, out: Path, assert_fits: bool = False) -> int:
    p = _params(cfg)
    rcfg = cfg["resolvent"]
    disc = BoxDiscretization(L=float(rcfg["box"]["half_width"]), n=int(rcfg["box"]["n"]))
    pot = dict(rcfg["potential"])
    pot_id = pot.pop("id")
    c = float(pot.pop("c", 1.0))
    V = catalog_potential(pot_id, p.delta0, disc, c=c, E=p.E,
                          **{k: float(v) for k, v in pot.items()})
    eps_cfg = rcfg["eps"]
    if eps_cfg["rule"] == "constant":
        eps_rule = float(eps_cfg["value"])
    else:
        eps_rule = lambda h, v=float(eps_cfg["value"]): h / v  # noqa: E731
    R = rcfg["R"]
    if R == "auto":
        R = float(pot.get("rho", 0.0)) + 3.0 * float(pot.get("sigma", 0.0)) \
            if pot_id == "trapping_ring" else 1.0
    results = sweep_h(
        V, p.E, float(rcfg["s"]), [float(h) for h in rcfg["hs"]],
        eps_rule=eps_rule, modes=rcfg["modes"], disc=disc,
        R=float(R) if "exterior" in rcfg["modes"] else None,
        tol=float(rcfg["tol"]), max_iter=int(rcfg["max_iter"]),
        seed=int(cfg["seed"]),
    )
    out.mkdir(parents=True, exist_ok=True)
    checks = []
    for mode, result in results.items():
        reports.write_sweep_csv(out / f"sweep_{mode}.csv", result)
        reports.write_report(out / f"fits_{mode}.json", reports.fit_report_dict(result))
        reports.write_plot_data(out / f"plotdata_{mode}.csv", result)
        ok, desc = _check_fit_target(pot_id, mode, result)
        checks.append((mode, ok, desc))
        print(f"sweep[{mode}]: {desc}" + ("" if ok else "  (target missed)"))
    if assert_fits and not all(ok for _, ok, _ in checks):
        bad = ", ".join(f"{m}: {d}" for m, ok, d in checks if not ok)
        print(f"sweep: fit targets failed: {bad}", file=sys.stderr)
        return EXIT_VERIFICATION
    return EXIT_OK


def cmd_report(cfg, out: Path) -> int:
    summary = {"present": {}, "pass": True}
    wpath = out / "weights_report.json"
    if wpath.exists():
        summary["weights"] = reports.read_report(wpath)
        summary["present"]["weights"] = True
    else:
        summary["present"]["weights"] = False
    mpath = out / "margins_report.json"
    if mpath.exists():
        margins = reports.read_report(mpath)
        summary["margins"] = margins
        summary["present"]["margins"] = True
        summary["pass"] = summary["pass"] and all(r["pass"] for r in margins["reports"])
    else:
        summary["present"]["margins"] = False
    sweeps = {}
    for mode in ("interior", "exterior"):
        fpath = out / f"fits_{mode}.json"
        if fpath.exists():
            sweeps[mode] = reports.read_report(fpath)
    summary["sweeps"] = sweeps
    summary["present"]["sweeps"] = bool(sweeps)
    out.mkdir(parents=True, exist_ok=True)
    reports.write_report(out / "summary.json", summary)
    print(f"report: wrote {out / 'summary.json'}")
    return EXIT_OK


# ----------------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse exits 2, the contract's construction code
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="carlab",
        description="Carleman weight workbench: construction, verification, resolvent sweeps.",
    )
    ap.add_argument("--help-config", action="store_true", help="print the config schema and exit")
    sub = ap.add_subparsers(dest="command")
    for name, doc in (
        ("weights", "construct weight tables and the constants report"),
        ("verify", "emit margin reports for the inequality chain"),
        ("sweep", "run resolvent-norm h-sweeps and fits"),
        ("report", "aggregate prior outputs into a single summary"),
    ):
        sp = sub.add_parser(name, help=doc)
        sp.add_argument("--config", type=str, default=None, help="JSON config path")
        sp.add_argument("--out", type=str, default=None, help="output directory")
        if name == "verify":
            sp.add_argument("--tolerance", type=float, default=None,
                            help="override verification tolerance")
        if name == "sweep":
            sp.add_argument("--seed", type=int, default=None, help="override config seed")
            sp.add_argument("--assert-fits", action="store_true",
                            help="turn fit targets into exit-code checks")
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.help_config:
        print(HELP_CONFIG, end="")
        return EXIT_OK
    if args.command is None:
        ap.print_help()
        return EXIT_CONFIG
    try:
        overrides = {}
        if getattr(args, "seed", None) is not None:
            overrides["seed"] = args.seed
        cfg = load_config(args.config, overrides)
        out = Path(args.out) if args.out else Path(cfg["output"]["dir"])
        if args.command == "weights":
            return cmd_weights(cfg, out)
        if args.command == "verify":
            return cmd_verify(cfg, out, tolerance=args.tolerance)
        if args.command == "sweep":
            return cmd_sweep(cfg, out, assert_fits=args.assert_fits)
        return cmd_report(cfg, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ParameterError, ConstructionError, CertificationError) as exc:
        print(f"construction error: {exc}", file=sys.stderr)
        return EXIT_CONSTRUCTION
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except CarlabError as exc:  # pragma: no cover - catch-all for the contract
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONSTRUCTION


if __name__ == "__main__":
    sys.exit(main())
