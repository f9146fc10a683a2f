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
import sys
from dataclasses import dataclass

import numpy as np

from . import laws, mc, verify
from .errors import (DdkitError, NumericError, ValidationError, decode_json,
                     json_object, pair, real)
from .laws import DrawdownQuery
from .models import DiffusionModel, model_from_dict

_MOD = "cli"

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3
EXIT_VERIFY = 4

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


def _object(doc, where, allowed, required=()):
    return json_object(doc, where, allowed, required, "run_config", _MOD)


def _number(qdoc, key, default=None):
    if key not in qdoc:
        return default
    return real(qdoc[key], f"query.{key}", "run_config", _MOD)


def _grid_values(raw, name):
    if not isinstance(raw, list) or not raw:
        _fail(f"grids.{name} must be a nonempty array", value=raw)
    return tuple(real(v, f"each entry of grids.{name}", "run_config", _MOD)
                 for v in raw)


def load_config(path: str):
    """The JSON document in the file at path; parse_run_config checks
    its layout."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        _fail(f"cannot read config file: {e}", value=path,
              operation="load_config")
    return decode_json(text, "config", "load_config", _MOD, value=path)


def parse_run_config(doc: dict, command: str, seed_override=None,
                     out_override=None, format_override=None) -> RunConfig:
    _, reads, want, reads_mc = _COMMANDS[command]
    sections = ("mc",) if reads_mc else ()
    _object(doc, f"config of command {command!r}",
            ("model", "query", "grids", "output") + sections,
            ("model", "query") + sections)
    model = model_from_dict(doc["model"])

    qdoc = _object(doc["query"], "query", ("x", "delta") + reads, ("x", "delta"))
    query = DrawdownQuery(
        x=_number(qdoc, "x"), delta=_number(qdoc, "delta"),
        alpha=_number(qdoc, "alpha", default=0.0),
        beta=_number(qdoc, "beta", default=0.0),
        tol=_number(qdoc, "tol", default=1e-9))
    box = None
    if "box" in qdoc:
        box = tuple(real(v, "each entry of query.box", "run_config", _MOD)
                    for v in pair(qdoc["box"], "query.box", "run_config", _MOD))
    exit_lower = _number(qdoc, "exit_lower")
    if box is not None and exit_lower is not None:
        _fail("query.box and query.exit_lower together: the exit transform "
              "reads no box")

    wants = (want,) if want else ()
    takes = f"exactly {want}" if want else "no grid"
    gdoc = _object(doc.get("grids", {}),
                   f"grids (command {command!r} takes {takes})", wants, wants)
    grid = _grid_values(gdoc[want], want) if want else None

    mc_cfg = None
    if reads_mc:
        mdoc = _object(doc["mc"], "mc", ("n_paths", "dt", "t_max", "seed",
                                         "scheme"),
                       ("n_paths", "dt", "t_max", "seed"))
        seed = seed_override if seed_override is not None else mdoc["seed"]
        mc_cfg = mc.McConfig(n_paths=mdoc["n_paths"], dt=mdoc["dt"],
                             t_max=mdoc["t_max"], seed=seed,
                             scheme=mdoc.get("scheme", "exact_bm"))
    elif seed_override is not None:
        _fail(f"--seed given, but command {command!r} reads no mc section",
              value=seed_override)

    odoc = _object(doc.get("output", {}), "output", ("path", "format"))
    out_path = out_override if out_override is not None \
        else odoc.get("path")
    if not isinstance(out_path, (str, type(None))):   # open() takes an int as a descriptor
        _fail("output.path must be a string", value=out_path)
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

def _json_value(v):
    if isinstance(v, str):
        return v
    if isinstance(v, (bool, np.bool_)):
        return bool(v)
    if isinstance(v, (int, np.integer)):
        return int(v)
    return float(v)


def _fmt(v) -> str:
    """The CSV text of _json_value(v): a bool as 1 or 0, a float to 17 digits."""
    v = _json_value(v)
    if isinstance(v, float):
        return format(v, ".17g")
    return str(int(v)) if isinstance(v, int) else v


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
        try:
            with open(cfg.out_path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as e:
            _fail(f"cannot write output.path: {e}", value=cfg.out_path, operation="emit")
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _cmd_curve(column):
    """The tail or density command: (y, column) rows of laws.tail_curve."""
    def cmd(cfg: RunConfig) -> int:
        curve = laws.tail_curve(cfg.model, cfg.query, cfg.grid)
        _emit(("y", column), list(zip(curve.grid, getattr(curve, column))), cfg)
        return EXIT_OK
    return cmd


def _cmd_transform(cfg: RunConfig) -> int:
    # the whole grid is one request: one mass table, one solve per rung
    results = laws._transform_core(cfg.model, cfg.query, cfg.grid)
    rows = [(a, cfg.query.beta, r.value, r.abs_error_estimate)
            for a, r in zip(cfg.grid, results)]
    _emit(("alpha", "beta", "value", "abs_error_estimate"), rows, cfg)
    return EXIT_OK


def _cmd_tau_cdf(cfg: RunConfig) -> int:
    vals = laws.tau_cdf(cfg.model, cfg.query, cfg.grid)
    _emit(("t", "cdf"), list(zip(cfg.grid, vals)), cfg)
    return EXIT_OK


def _cmd_hit(cfg: RunConfig) -> int:
    """(y, value) rows: laws.exit_transform with query.exit_lower, else
    laws.hitting_laplace, truncated at the edge of the optional
    query.box; a value that depends on an end of the state space exits 2."""
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
    for y in verify._tail_levels(q.x, q.delta):
        p, se = mc.estimate_tail(col, y)
        est_rows.append((f"P(max > {y:g})", p, se))
    tr, tse = mc.estimate_transform(col, q.alpha, q.beta)
    est_rows.append((f"E[exp(-{q.alpha:g} tau - {q.beta:g} max)]", tr, tse))
    for name, v, se in est_rows:
        print(f"{name:<32} {v:.8f}  se {se:.2e}")
    print(f"unstopped fraction {col.unstopped_fraction:.4%}")
    rows = [(i, bool(col.stopped[i]), col.tau_hat[i], col.m_tau_hat[i])
            for i in range(col.cfg.n_paths)]
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
            ("extrapolated_se", rep.extrapolated_se),
            ("var_over_mean", rep.var_over_mean),
            ("var_over_mean_se", rep.var_over_mean_se),
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


# command -> (handler, the query keys it reads besides x and delta, the one
# grid it requires or None, whether it reads an mc section)
_COMMANDS = {
    "tail": (_cmd_curve("tail"), ("tol",), "y_grid", False),
    "density": (_cmd_curve("density"), ("tol",), "y_grid", False),
    "transform": (_cmd_transform, ("beta", "tol"), "alpha_grid", False),
    "tau-cdf": (_cmd_tau_cdf, ("beta", "tol"), "t_grid", False),
    "hit": (_cmd_hit, ("alpha", "box", "exit_lower"), "y_grid", False),
    "simulate": (_cmd_simulate, ("alpha", "beta"), None, True),
    "excursions": (_cmd_excursions, ("tol",), "y_grid", True),
    "verify": (_cmd_verify, ("alpha", "tol"), None, True),
}

COMMANDS = tuple(_COMMANDS)


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
        return _COMMANDS[args.command][0](cfg)
    except NumericError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except DdkitError as e:
        print(f"invalid request: {e}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
