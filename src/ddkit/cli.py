"""Command line front end.

Reads one JSON config describing a model, a query, and optionally a
grid, a simulation setup, and an output target, then dispatches to the
law layer or the Monte Carlo oracle.  All numerics live in the library;
this module only parses, validates, formats, and maps errors onto exit
codes:

    0  success
    2  validation error (bad config, bad grid, unsupported request)
    3  numeric failure (an accuracy target could not be met)
    4  verify suite found a disagreement

Output files are byte-stable for a fixed config and seed: floats are
written with 17 significant digits (full round-trip precision), JSON
keys are sorted, and line endings are plain newlines.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import laws, mc, verify
from .errors import DdkitError, NumericError, ValidationError
from .laws import DrawdownQuery
from .models import DiffusionModel, model_from_dict

_MOD = "cli"

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3
EXIT_VERIFY = 4

COMMANDS = ("tail", "density", "transform", "tau-cdf", "hit", "simulate",
            "excursions", "verify")

# the one grid each command requires; None means no grid is allowed
_GRID_FOR = {
    "tail": "y_grid",
    "density": "y_grid",
    "transform": "alpha_grid",
    "tau-cdf": "t_grid",
    "hit": "y_grid",
    "excursions": "y_grid",
    "simulate": None,
    "verify": None,
}

_NEEDS_MC = ("simulate", "excursions", "verify")


@dataclass(frozen=True)
class RunConfig:
    """Validated contents of one config file for one command."""

    model: DiffusionModel
    query: DrawdownQuery
    box: tuple | None
    exit_lower: float | None
    grid: tuple | None
    mc_cfg: mc.McConfig | None
    out_path: str | None
    out_format: str


def _fail(msg, value=None, operation="run_config"):
    raise ValidationError(msg, operation=operation, value=value, module=_MOD)


def _require_keys(doc, allowed, where):
    extra = sorted(set(doc) - set(allowed))
    if extra:
        _fail(f"unknown keys in {where}: {extra}; allowed {sorted(allowed)}",
              value=extra)


def _finite(v, what):
    if not isinstance(v, (int, float)) or isinstance(v, bool) \
            or not math.isfinite(v):
        _fail(f"{what} must be a finite number", value=v)
    return float(v)


def _number(doc, key, where, default=None, required=False):
    if key not in doc:
        if required:
            _fail(f"{where} is missing required key {key!r}")
        return default
    return _finite(doc[key], f"{where}.{key}")


def _grid_values(raw, name):
    if not isinstance(raw, list) or not raw:
        _fail(f"grids.{name} must be a nonempty array", value=raw)
    return tuple(_finite(v, f"each entry of grids.{name}") for v in raw)


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        _fail(f"cannot read config file: {e}", value=path,
              operation="load_config")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ValidationError(
            f"config JSON is malformed at line {e.lineno} col {e.colno}: "
            f"{e.msg}", operation="load_config", value=path, module=_MOD)
    if not isinstance(doc, dict):
        _fail("config must be a JSON object", value=type(doc).__name__,
              operation="load_config")
    return doc


def parse_run_config(doc: dict, command: str, seed_override=None,
                     out_override=None, format_override=None) -> RunConfig:
    _require_keys(doc, ("model", "query", "grids", "mc", "output"),
                  "config")
    for key in ("model", "query"):
        if key not in doc or not isinstance(doc[key], dict):
            _fail(f"config needs a {key!r} object")

    model = model_from_dict(doc["model"])

    qdoc = doc["query"]
    _require_keys(qdoc, ("x", "delta", "alpha", "beta", "tol", "box",
                         "exit_lower"), "query")
    x = _number(qdoc, "x", "query", required=True)
    delta = _number(qdoc, "delta", "query", required=True)
    query = DrawdownQuery(
        x=x, delta=delta,
        alpha=_number(qdoc, "alpha", "query", default=0.0),
        beta=_number(qdoc, "beta", "query", default=0.0),
        tol=_number(qdoc, "tol", "query", default=1e-9))
    box = None
    if "box" in qdoc:
        raw = qdoc["box"]
        if not (isinstance(raw, list) and len(raw) == 2):
            _fail("query.box must be [lo, hi]", value=raw)
        box = tuple(_finite(v, "each entry of query.box") for v in raw)
    exit_lower = _number(qdoc, "exit_lower", "query")

    want = _GRID_FOR[command]
    gdoc = doc.get("grids", {})
    if not isinstance(gdoc, dict):
        _fail("grids must be an object", value=gdoc)
    present = sorted(gdoc)
    if want is None:
        if present:
            _fail(f"command {command!r} takes no grid; found {present}")
        grid = None
    else:
        if present != [want]:
            _fail(f"command {command!r} needs exactly grids.{want}; "
                  f"found {present}")
        grid = _grid_values(gdoc[want], want)

    mc_cfg = None
    if command in _NEEDS_MC:
        if "mc" not in doc:
            _fail(f"command {command!r} needs an mc section")
    if "mc" in doc:
        mdoc = doc["mc"]
        _require_keys(mdoc, ("n_paths", "dt", "t_max", "seed", "scheme"),
                      "mc")
        for key in ("n_paths", "dt", "t_max", "seed"):
            if key not in mdoc:
                _fail(f"mc is missing required key {key!r}")
        seed = seed_override if seed_override is not None else mdoc["seed"]
        mc_cfg = mc.McConfig(n_paths=mdoc["n_paths"], dt=mdoc["dt"],
                             t_max=mdoc["t_max"], seed=seed,
                             scheme=mdoc.get("scheme", "exact_bm"))

    odoc = doc.get("output", {})
    if not isinstance(odoc, dict):
        _fail("output must be an object", value=odoc)
    _require_keys(odoc, ("path", "format"), "output")
    out_path = out_override if out_override is not None \
        else odoc.get("path")
    out_format = format_override if format_override is not None \
        else odoc.get("format", "csv")
    if out_format not in ("csv", "json"):
        _fail("output format must be 'csv' or 'json'", value=out_format)

    return RunConfig(model=model, query=query, box=box,
                     exit_lower=exit_lower, grid=grid, mc_cfg=mc_cfg,
                     out_path=out_path, out_format=out_format)


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------

def _fmt(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return format(float(v), ".17g")


def _json_value(v):
    if isinstance(v, str):
        return v
    if isinstance(v, (bool, np.bool_)):
        return bool(v)
    if isinstance(v, (int, np.integer)):
        return int(v)
    return float(v)


def _emit(columns, rows, cfg: RunConfig, extra: dict | None = None) -> None:
    if cfg.out_format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([_fmt(v) for v in row] for row in rows)
        text = buf.getvalue()
    else:
        doc = {"columns": list(columns),
               "rows": [[_json_value(v) for v in row] for row in rows]}
        if extra:
            doc.update(extra)
        text = json.dumps(doc, sort_keys=True, indent=2,
                          separators=(",", ": ")) + "\n"
    if cfg.out_path:
        with open(cfg.out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _cmd_tail(cfg: RunConfig) -> int:
    curve = laws.tail_curve(cfg.model, cfg.query, cfg.grid)
    _emit(("y", "tail"), list(zip(curve.grid, curve.tail)), cfg)
    return EXIT_OK


def _cmd_density(cfg: RunConfig) -> int:
    curve = laws.tail_curve(cfg.model, cfg.query, cfg.grid)
    _emit(("y", "density"), list(zip(curve.grid, curve.density)), cfg)
    return EXIT_OK


def _cmd_transform(cfg: RunConfig) -> int:
    rows = []
    for a in cfg.grid:
        q = DrawdownQuery(x=cfg.query.x, delta=cfg.query.delta, alpha=a,
                          beta=cfg.query.beta, tol=cfg.query.tol)
        r = laws.joint_transform(cfg.model, q)
        rows.append((a, cfg.query.beta, r.value, r.abs_error_estimate))
    _emit(("alpha", "beta", "value", "abs_error_estimate"), rows, cfg)
    return EXIT_OK


def _cmd_tau_cdf(cfg: RunConfig) -> int:
    q = DrawdownQuery(x=cfg.query.x, delta=cfg.query.delta,
                      alpha=cfg.query.alpha, beta=0.0, tol=cfg.query.tol)
    vals = laws.tau_cdf(cfg.model, q, cfg.grid)
    _emit(("t", "cdf"), list(zip(cfg.grid, vals)), cfg)
    return EXIT_OK


def _cmd_hit(cfg: RunConfig) -> int:
    rows = []
    for y in cfg.grid:
        if cfg.exit_lower is not None:
            v = laws.exit_transform(cfg.model, cfg.query.x, cfg.exit_lower,
                                    y, cfg.query.alpha)
        else:
            v = laws.hitting_laplace(cfg.model, cfg.query.x, y,
                                     cfg.query.alpha, box=cfg.box)
        rows.append((y, v))
    _emit(("y", "value"), rows, cfg)
    return EXIT_OK


def _cmd_simulate(cfg: RunConfig) -> int:
    q = cfg.query
    col = mc.simulate(cfg.model, q.x, q.delta, cfg.mc_cfg)
    est_rows = []
    for y in (q.x + 0.5 * q.delta, q.x + q.delta, q.x + 2.0 * q.delta):
        p, se = mc.estimate_tail(col, y)
        est_rows.append((f"P(max > {y:g})", p, se))
    tr, tse = mc.estimate_transform(col, q.alpha, q.beta)
    est_rows.append((f"E[exp(-{q.alpha:g} tau - {q.beta:g} max)]", tr, tse))
    for name, v, se in est_rows:
        print(f"{name:<32} {v:.8f}  se {se:.2e}")
    print(f"unstopped fraction {col.unstopped_fraction:.4%}")
    rows = [(i, bool(col.stopped[i]), col.tau_hat[i], col.m_tau_hat[i])
            for i in range(len(col))]
    extra = {"estimates": {name: [v, se] for name, v, se in est_rows},
             "unstopped_fraction": col.unstopped_fraction}
    _emit(("path_id", "stopped", "tau_hat", "m_tau_hat"), rows, cfg,
          extra=extra)
    return EXIT_OK


def _cmd_excursions(cfg: RunConfig) -> int:
    if len(cfg.grid) != 1:
        _fail("excursions needs grids.y_grid with exactly one entry "
              "(the band top)", value=cfg.grid, operation="excursions")
    rep = verify.excursion_report(cfg.model, cfg.query.x, cfg.grid[0],
                                  cfg.query.delta, cfg.mc_cfg,
                                  tol=cfg.query.tol)
    for line in rep.lines():
        print(line)
    rows = [("analytic_mean", rep.analytic_mean),
            ("mean_fine", rep.mean_fine),
            ("mean_coarse", rep.mean_coarse),
            ("mean_extrapolated", rep.mean_extrapolated),
            ("var_over_mean", rep.var_over_mean),
            ("finished_fraction", rep.finished_fraction),
            ("passed", rep.passed)]
    _emit(("metric", "value"), rows, cfg)
    return EXIT_OK


def _cmd_verify(cfg: RunConfig) -> int:
    q = cfg.query
    rep = verify.verification_report(cfg.model, q.x, q.delta, cfg.mc_cfg,
                                     alpha=q.alpha if q.alpha > 0 else 0.5,
                                     tol=q.tol)
    for line in rep.lines():
        print(line)
    rows = [(r.name, r.analytic, r.estimate, r.std_error, r.z_score,
             r.dt_move, r.passed) for r in rep.rows]
    _emit(("check", "analytic", "estimate", "std_error", "z_score",
           "dt_move_se", "passed"), rows, cfg)
    return EXIT_OK if rep.passed else EXIT_VERIFY


_DISPATCH = {
    "tail": _cmd_tail,
    "density": _cmd_density,
    "transform": _cmd_transform,
    "tau-cdf": _cmd_tau_cdf,
    "hit": _cmd_hit,
    "simulate": _cmd_simulate,
    "excursions": _cmd_excursions,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ddkit",
        description="Drawdown laws for one-dimensional diffusions: "
                    "analytic transforms, tails, and a Monte Carlo "
                    "oracle to verify them.")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True,
                        help="JSON file with model, query, grids, mc, "
                             "output sections")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the mc seed from the config")
    parser.add_argument("--out", default=None,
                        help="override the output path (default: stdout)")
    parser.add_argument("--format", choices=("csv", "json"), default=None,
                        help="override the output format")
    args = parser.parse_args(argv)

    try:
        doc = load_config(args.config)
        cfg = parse_run_config(doc, args.command, seed_override=args.seed,
                               out_override=args.out,
                               format_override=args.format)
        return _DISPATCH[args.command](cfg)
    except NumericError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except DdkitError as e:
        print(f"invalid request: {e}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
