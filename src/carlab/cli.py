"""Batch front-end: config parsing, pipeline orchestration, reports, exit codes.

The config, checked against SCHEMA, is the only way to set a run value, and
every int or float in it is finite.

Exit code contract: 0 success, 1 usage/config, 2 construction,
3 verification, 4 solver.
"""

import argparse
import copy
import functools
import json
import sys
from dataclasses import asdict, fields
from pathlib import Path

from .errors import (
    CarlabError,
    CertificationError,
    ConfigError,
    ConstructionError,
    SolverError,
)
from . import reports
from .box import BoxDiscretization
from .potentials import catalog_potential, catalog_radial
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
# each "int" or "float", finite, with an optional "> x" or ">= x" bound,
# "auto", null, a bare-name choice, or a check in _NAMED.  The construction
# code makes its own domain checks (n >= 4, h > 0, the problem parameters).
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
                   + ", ".join(f.name for f in fields(PsiSearch)) + "};\n"
                   "margin_nodes and span are checked but not read: the\n"
                   "search certifies each R1 on all of r >= 0"),
        "h": ("auto", '"auto" | float', "table h, read by `weights` only; auto = h1/2"),
        "grid": {
            "n_inner": (400, "int >= 0", "nodes on [r_min, R0], at least 5"),
            "n_mid": (2400, "int >= 0", "nodes on [R0, R1], at least 5"),
            "n_outer": (800, "int >= 0", "nodes on [R1, r_max], at least 5"),
            "r_min": (None, "null | float", "in (0, R0); null = min(1e-4, R0/64)"),
            "r_max": (None, "null | float", "at least 2 R1; null = 2 R1"),
        },
        "substep_factor": (80.0, "float > 0", "checked but not read: the Riccati solve\n"
                           "takes as many steps as its error estimate asks for"),
        "residual_tol": (1e-6, "float > 0", "Riccati residual gate, read by `weights` only"),
    },
    "verify": {
        "tolerance": (1e-12, "float >= 0", "margin acceptance threshold"),
        "margin_nodes": (10000, "int", "nodes of the profile-inequality scan"),
        "x0": ("auto", '"auto" | [x, y]', "shift; auto = (2^(1/(1+delta0)) - 1, 0)"),
        "box": {
            "half_width": ("auto", '"auto" | float', "shift/gluing grid; auto = 2 (R1 + 1)"),
            "n": (65, "int", "nodes per axis, at least 4"),
        },
        "e4_h_count": (8, "int >= 1", "checked but not read: the E/4 bound is\n"
                       "certified on all of (0, h1] from h = h1 alone"),
    },
    "resolvent": {
        "box": {
            "half_width": (2.5, "float", "Dirichlet box [-L, L]^2, L > 0"),
            "n": (64, "int", "nodes per axis, at least 4"),
        },
        "potential": {
            "id": ("trapping_ring", "zero | radial_decay | trapping_ring", ""),
            "c": (1.0, "any float", "radial_decay amplitude; the catalog names a\n"
                  "non-finite one in a construction error"),
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
        "tol": (1e-8, "float > 0", "Lanczos eigenpair residual certificate"),
        "max_iter": (2000, "int >= 1", "cap on a row's A*A applications, all sectors"),
    },
}
_SEARCH_SCHEMA = {f.name: (f.default, f.type.__name__, "") for f in fields(PsiSearch)}


def _each(items, kind, path) -> bool:
    for i, item in enumerate(items):
        _check(item, kind, f"{path}[{i}]")
    return True


# other leaves: False for the wrong shape, ConfigError for a bad entry
_NAMED = {
    "any float": lambda v, path: type(v) is float  # nan and inf included
        or type(v) is int and abs(v) <= sys.float_info.max,
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
        elif name in ("int", "float"):  # an int past the float range is not finite either
            ok = isinstance(value, (int, float)) and not isinstance(value, bool) \
                and abs(value) <= sys.float_info.max and not (name == "int" and value % 1) \
                and (not bound or (value > float(bound[1]) if bound[0] == ">"
                                   else value >= float(bound[1])))
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
    "Configuration file (JSON), the only way to set a run value. Omitted keys take",
    "the defaults; unknown keys, leaves not of their type and non-finite int or",
    "float values exit 1. A config always writes byte-identical artifacts.",
    "", *_help(SCHEMA), ""])


def load_config(path: str | None) -> dict:
    """The config at path, or the defaults, checked once."""
    given = {}
    if path is not None:
        try:
            with open(path) as f:
                given = json.load(f)
        except FileNotFoundError as exc:
            raise ConfigError(f"config file not found: {path}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
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


def _potential(cfg) -> tuple[str, dict]:
    """The configured catalog id and its parameters as floats."""
    pot = dict(cfg["resolvent"]["potential"])
    return pot.pop("id"), {k: float(v) for k, v in pot.items()}


def _grid(cfg, spec: PsiSpec):
    g = cfg["weights"]["grid"]
    return radial_grid(spec, r_min=g["r_min"], r_max=g["r_max"], n_inner=int(g["n_inner"]),
                       n_mid=int(g["n_mid"]), n_outer=int(g["n_outer"]))


# ----------------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------------

def cmd_weights(cfg, out: Path) -> int:
    wcfg = cfg["weights"]
    spec = _spec(cfg, _params(cfg))
    wt = build_weight_tables(
        spec, None if wcfg["h"] == "auto" else float(wcfg["h"]), _grid(cfg, spec),
        residual_tol=float(wcfg["residual_tol"]),
    )
    out.mkdir(parents=True, exist_ok=True)
    reports.write_weight_table(out / "weights_table.txt", wt)
    reports.write_report(out / "weights_report.json", reports.weight_report_dict(wt))
    print(f"weights: wrote {out / 'weights_table.txt'} and weights_report.json")
    return EXIT_OK


def cmd_verify(cfg, out: Path) -> int:
    p = _params(cfg)
    spec = _spec(cfg, p)
    # the chain reads psi, w, w', m and h1 only: phi and its Riccati solve
    # enter C0, not a margin; h1 comes from the scan build_weight_tables makes
    nodes = _grid(cfg, spec).nodes
    h1 = compute_g_and_h1(spec, spec.E, extra_nodes=nodes).h1
    vcfg = cfg["verify"]
    tol = float(vcfg["tolerance"])

    margin_nodes = margin_scan_nodes(spec, int(vcfg["margin_nodes"]))
    # instance margins for the configured catalog potential, radial sampling;
    # E is not passed: the trapping gate A > E only matters for sweeps
    pot_id, pot = _potential(cfg)
    v_inst = catalog_radial(pot_id, p.delta0, nodes, **pot)
    checks = [r.to_dict() for r in (
        verify_psi_inequality(spec, margin_nodes, tolerance=tol),
        verify_E4_inequality(spec, nodes, h1, tolerance=tol),
        verify_psi_inequality(spec, nodes, potential=v_inst, tolerance=tol),
        verify_E4_inequality(spec, nodes, h1, potential=v_inst, tolerance=tol),
        *verify_barrier_facts(spec, nodes, tolerance=tol),
    )]
    payload = {"reports": checks}

    half = vcfg["box"]["half_width"]
    half = 2.0 * (spec.R1 + 1.0) if half == "auto" else float(half)
    disc = BoxDiscretization(L=half, n=int(vcfg["box"]["n"]))
    x0 = vcfg["x0"]
    if x0 == "auto":
        x0 = [shift_radius_bound(p.delta0), 0.0]
    # a box check that cannot be made is a failing check, not a crash
    try:
        checks.append(verify_shift_envelope(x0, p.delta0, disc, tolerance=tol).to_dict())
    except ConstructionError as exc:
        checks.append({"name": "shift_envelope", "error": str(exc), "pass": False})
    try:
        glue = gluing_constants(spec, x0, disc)
        payload["gluing"] = {k: float(v) for k, v in asdict(glue).items()}
    except (CertificationError, ConstructionError) as exc:
        checks.append({"name": "gluing_constants", "error": str(exc), "pass": False})
    out.mkdir(parents=True, exist_ok=True)
    reports.write_report(out / "margins_report.json", payload)

    failing = [r["name"] for r in checks if not r["pass"]]
    if failing:
        print(f"verify: failing checks: {', '.join(failing)}", file=sys.stderr)
        return EXIT_VERIFICATION
    print(f"verify: all {len(checks)} checks passed")
    return EXIT_OK


def _check_fit_target(pot_id, mode, result):
    # a line fits one or two rows exactly, so they certify no shape
    rows, needed = len(result.rows), 2 if mode == "exterior" else 3
    if rows < needed:
        return False, f"the {mode} target needs >= {needed} rows, got {rows}"
    if mode == "exterior":
        hn = result.hs() * result.norms()
        ratio = float(hn.max() / hn.min())
        return ratio <= 10.0, f"h*norm max/min {ratio:.4f} <= 10.0"
    if pot_id == "trapping_ring":
        fit = result.fit("exp")
        ok = fit.slope > 0 and fit.r_squared >= 0.9
        return ok, f"exp slope {fit.slope:.4f} > 0 and R2 {fit.r_squared:.4f} >= 0.9"
    slope = result.fit("poly").slope
    return 0.7 <= slope <= 1.3, f"poly slope {slope:.4f} in [0.7, 1.3]"


def cmd_sweep(cfg, out: Path, assert_fits: bool = False) -> int:
    from .resolvent import sweep_h  # the only command that needs scipy

    p = _params(cfg)
    rcfg = cfg["resolvent"]
    disc = BoxDiscretization(L=float(rcfg["box"]["half_width"]), n=int(rcfg["box"]["n"]))
    pot_id, pot = _potential(cfg)
    V = catalog_potential(pot_id, p.delta0, disc, E=p.E, **pot)
    eps_cfg = rcfg["eps"]
    if eps_cfg["rule"] == "constant":
        eps_rule = float(eps_cfg["value"])
    else:
        eps_rule = lambda h, v=float(eps_cfg["value"]): h / v  # noqa: E731
    R = rcfg["R"]
    if R == "auto":
        R = pot["rho"] + 3.0 * pot["sigma"] if pot_id == "trapping_ring" else 1.0
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
    summary, sweeps = {}, {}
    for into, key, name in ((summary, "weights", "weights_report.json"),
                            (summary, "margins", "margins_report.json"),
                            (sweeps, "interior", "fits_interior.json"),
                            (sweeps, "exterior", "fits_exterior.json")):
        if (out / name).exists():
            into[key] = reports.read_report(out / name)
    summary["present"] = {"weights": "weights" in summary, "margins": "margins" in summary,
                          "sweeps": bool(sweeps)}
    summary["pass"] = all(r["pass"] for r in summary.get("margins", {"reports": []})["reports"])
    summary["sweeps"] = sweeps
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


@functools.cache
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
        sp.add_argument("--out", type=str, default="out", help="artifact directory (default: out)")
        if name == "sweep":
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
        cfg = load_config(args.config)
        out = Path(args.out)
        if args.command == "weights":
            return cmd_weights(cfg, out)
        if args.command == "verify":
            return cmd_verify(cfg, out)
        if args.command == "sweep":
            return cmd_sweep(cfg, out, assert_fits=args.assert_fits)
        return cmd_report(cfg, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except CarlabError as exc:
        print(f"construction error: {exc}", file=sys.stderr)
        return EXIT_CONSTRUCTION


if __name__ == "__main__":
    sys.exit(main())
