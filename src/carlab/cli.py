"""Batch front-end: config parsing, pipeline orchestration, reports, exit codes.

Exit code contract: 0 success, 1 usage/config, 2 construction,
3 verification, 4 solver.
"""

import argparse
import copy
import json
import sys
from dataclasses import fields
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

# ----------------------------------------------------------------------------
# config schema
# ----------------------------------------------------------------------------

# The config, stated once.  A leaf is (default, type, help).  The type is
# what --help-config prints and _check reads: " | "-separated alternatives,
# each "int" or "float" with an optional "> x" or ">= x" bound, "auto", null,
# "str", a bare-name choice, or a check in _NAMED.  The construction code
# makes its own domain checks (n >= 4, h > 0, the problem parameters).
SCHEMA = {
    "seed": (1234, "int >= 0", "rng seed for Lanczos start vectors"),
    "problem": {
        "E": (1.0, "float", "energy level, > 0"),
        "delta0": (0.4, "float", "long-range decay exponent, in (0, 1/2)"),
        "s": (0.6, "float", "weight exponent; delta = 2s - 1 in (0, delta0)"),
    },
    "weights": {
        "r1": ("auto", '"auto" | float', "continuity-exact construction at this R1;\n"
               "auto: 1+R1 = 2 (1 + E delta0/4)^(1/delta)"),
        "search": (None, "null | search", "if given, search R1 for certified constants:\n{"
                   + ", ".join(f.name for f in fields(PsiSearch)) + "}"),
        "h": ("auto", '"auto" | float', "table h; auto = h1/2"),
        "grid": {
            "n_inner": (400, "int >= 0", "nodes on [r_min, R0], at least 5"),
            "n_mid": (2400, "int >= 0", "nodes on [R0, R1], at least 5"),
            "n_outer": (800, "int >= 0", "nodes on [R1, r_max], at least 5"),
            "r_min": (None, "null | float", "in (0, R0); null = min(1e-4, R0/64)"),
            "r_max": (None, "null | float", "at least 2 R1; null = 2 R1"),
        },
        "substep_factor": (80.0, "float > 0", "RK4 substep bound h/substep_factor"),
        "residual_tol": (1e-6, "float", "Riccati residual gate"),
    },
    "verify": {
        "tolerance": (1e-12, "float", "margin acceptance threshold"),
        "margin_nodes": (10000, "int", "nodes of the profile-inequality scan"),
        "x0": ("auto", '"auto" | [x, y]', "shift; auto = (2^(1/(1+delta0)) - 1, 0)"),
        "box": {
            "half_width": ("auto", '"auto" | float', "shift/gluing grid; auto = 2 (R1 + 1)"),
            "n": (65, "int", "nodes per axis, at least 4"),
        },
        "e4_h_count": (8, "int >= 1", "dyadic h values in (0, h1] for the E/4 check"),
    },
    "resolvent": {
        "box": {
            "half_width": (2.5, "float", "Dirichlet box [-L, L]^2, L > 0"),
            "n": (64, "int", "nodes per axis, at least 4"),
        },
        "potential": {
            "id": ("trapping_ring", "zero | radial_decay | trapping_ring", ""),
            "c": (1.0, "float", "radial_decay amplitude"),
            "A": (2.0, "float", "trapping_ring barrier height, > E"),
            "rho": (1.0, "float", "trapping_ring radius, > 0"),
            "sigma": (0.25, "float", "trapping_ring width, > 0"),
        },
        "hs": ([0.4, 0.3, 0.22, 0.16, 0.12], "hs", "sweep h values, > 0, strictly descending"),
        "eps": {
            "rule": ("h_over", "constant | h_over", "eps = value, or eps = h/value"),
            "value": (4.0, "float > 0", ""),
        },
        "s": (0.6, "float", "weight exponent of the sweep"),
        "modes": (["interior", "exterior"], "modes", "interior and/or exterior, no repeats"),
        "R": ("auto", '"auto" | float > 0', "exterior cutoff; auto = rho + 3 sigma for the\n"
              "ring potential, 1.0 otherwise"),
        "tol": (1e-8, "float", "Lanczos eigenpair residual certificate"),
        "max_iter": (2000, "int", "cap on a row's A*A applications, all sectors"),
    },
    "output": {"dir": ("out", "str", "artifact directory")},
}
_SEARCH_SCHEMA = {f.name: (f.default, f.type.__name__, "") for f in fields(PsiSearch)}


def _each(items, kind, path) -> bool:
    for i, item in enumerate(items):
        _check(item, kind, f"{path}[{i}]")
    return True


# non-scalar leaves: False for the wrong shape, ConfigError for a bad entry
_NAMED = {
    "hs": lambda v, path: isinstance(v, list) and v != [] and _each(v, "float > 0", path)
        and all(b < a for a, b in zip(v, v[1:])),
    "modes": lambda v, path: isinstance(v, list) and v != []
        and _each(v, "interior | exterior", path) and len(set(v)) == len(v),
    "[x, y]": lambda v, path: isinstance(v, list) and len(v) == 2 and _each(v, "float", path),
    "search": lambda v, path: isinstance(v, dict) and bool(_merge(_SEARCH_SCHEMA, v, path + ".")),
}


def _check(value, kind: str, path: str):
    for alt in kind.split(" | "):
        name, *bound = alt.split(" ")
        if alt in _NAMED:
            ok = _NAMED[alt](value, path)
        elif name in ("int", "float"):  # nan % 1 and inf % 1 are nan, so not whole
            ok = isinstance(value, (int, float)) and not isinstance(value, bool) \
                and not (name == "int" and value % 1) \
                and (not bound or (value > float(bound[1]) if bound[0] == ">"
                                   else value >= float(bound[1])))
        elif alt == "str":
            ok = isinstance(value, str)
        else:  # "auto", null or a bare-name choice
            ok = value == (json.loads(alt) if alt in ('"auto"', "null") else alt)
        if ok:
            return
    raise ConfigError(f"{path} must be {kind}, got {value!r} (see carlab --help-config)")


def _merge(schema, given, path=""):
    """A fresh config of given's leaves, else the defaults, each type-checked."""
    if not isinstance(given, dict):
        raise ConfigError(f"config section '{path[:-1] or '<root>'}' must be an object")
    unknown = set(given) - set(schema)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(path + k for k in unknown)}")
    out = {}
    for key, spec in schema.items():
        if isinstance(spec, dict):
            out[key] = _merge(spec, given.get(key, {}), f"{path}{key}.")
        else:
            out[key] = copy.deepcopy(given.get(key, spec[0]))
            _check(out[key], spec[1], path + key)
    return out


def _help(schema, indent=""):
    for key, spec in schema.items():
        if isinstance(spec, dict):
            yield f"{indent}{key}:"
            yield from _help(spec, indent + "  ")
        else:
            text = spec[2].replace("\n", "\n" + " " * 34)
            yield f"{f'{indent}{key}: {spec[1]}':<33} {text}".rstrip()


DEFAULT_CONFIG = _merge(SCHEMA, {})
HELP_CONFIG = "\n".join([
    "Configuration file (JSON). Omitted keys take the defaults; unknown keys, and",
    "leaves not of their type, exit 1. Every run with the same config and seed",
    "writes byte-identical artifacts.", "", *_help(SCHEMA), ""])


def load_config(path: str | None, overrides=None) -> dict:
    """The config at path, or the defaults, with top-level overrides, checked once."""
    given = {}
    if path is not None:
        try:
            with open(path) as f:
                given = json.load(f)
        except FileNotFoundError as exc:
            raise ConfigError(f"config file not found: {path}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if isinstance(given, dict):
        given = {**given, **(overrides or {})}
    return _merge(SCHEMA, given)


def _params(cfg) -> ProblemParams:
    return validate_params(ProblemParams(**{k: float(v) for k, v in cfg["problem"].items()}))


def _spec(cfg, p: ProblemParams) -> PsiSpec:
    wcfg = cfg["weights"]
    if (search := wcfg["search"]) is not None:
        return find_psi_constants(p, PsiSearch(**{f.name: f.type(search[f.name])
                                                   for f in fields(PsiSearch) if f.name in search}))
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
    V = catalog_potential(pot_id, p.delta0, disc, E=p.E, **{k: float(v) for k, v in pot.items()})
    eps_cfg = rcfg["eps"]
    if eps_cfg["rule"] == "constant":
        eps_rule = float(eps_cfg["value"])
    else:
        eps_rule = lambda h, v=float(eps_cfg["value"]): h / v  # noqa: E731
    R = rcfg["R"]
    if R == "auto":
        R = float(pot["rho"]) + 3.0 * float(pot["sigma"]) if pot_id == "trapping_ring" else 1.0
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
        seed = getattr(args, "seed", None)
        cfg = load_config(args.config, {} if seed is None else {"seed": seed})
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
