"""End-to-end checks of the command line front end.

Every test drives cli.main in process with a JSON config on disk, the
way the installed script would, and asserts on exit codes, emitted
rows, and byte stability.
"""

import json
import math
from pathlib import Path

import pytest

from ddkit import cli, laws, mc, verify

# closed forms for standard Brownian motion, delta = 1:
# P(max > y) = exp(-y), E[exp(-alpha tau)] = sech(sqrt(2 alpha) delta)
SECH1 = 0.6480542736638854
# two-sided exit through +1 before -1 under rate 1/2: sinh(1)/sinh(2)
EXIT_RATIO = 0.32402713683194318


def write_cfg(tmp_path, doc, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc), encoding="utf-8")
    return str(p)


def bm_doc(**over):
    doc = {"model": {"kind": "bm"},
           "query": {"x": 0.0, "delta": 1.0}}
    doc.update(over)
    return doc


README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def run(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_tail_rows_match_closed_form(tmp_path, capsys):
    cfg = write_cfg(tmp_path, bm_doc(grids={"y_grid": [0.0, 1.0, 2.0]}))
    code, out, _ = run(["tail", "--config", cfg], capsys)
    assert code == 0
    assert out.splitlines() == [
        "y,tail",
        "0,1",
        "1,0.36787944117144233",
        "2,0.1353352832366127",
    ]


def test_malformed_json_exits_2_with_location(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text('{"model": {"kind": "bm",}')
    code, _, err = run(["tail", "--config", str(p)], capsys)
    assert code == 2
    assert "line 1 col" in err


def test_missing_config_file_exits_2(tmp_path, capsys):
    code, _, err = run(["tail", "--config", str(tmp_path / "nope.json")],
                       capsys)
    assert code == 2
    assert "cannot read" in err


def test_wrong_grid_for_command_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, bm_doc(grids={"y_grid": [1.0]}))
    code, _, err = run(["transform", "--config", cfg], capsys)
    assert code == 2
    assert "alpha_grid" in err


def test_extra_grid_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, bm_doc(
        grids={"y_grid": [1.0], "t_grid": [1.0]}))
    code, _, err = run(["tail", "--config", cfg], capsys)
    assert code == 2
    assert "exactly" in err


def test_grid_on_gridless_command_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, bm_doc(
        grids={"y_grid": [1.0]},
        mc={"n_paths": 1000, "dt": 0.01, "t_max": 10.0, "seed": 1}))
    code, _, err = run(["simulate", "--config", cfg], capsys)
    assert code == 2
    assert "takes no grid" in err


OU_MODEL = {"kind": "ou", "params": {"theta": 1.0}}
FREE_CUSTOM = {"drift": {"form": "constant", "value": 0.0},
               "diffusion_sq": {"form": "constant", "value": 1.0}}
FORMS = {"constant": {"value": 1.0},
         "affine": {"intercept": 1.0, "slope": 0.0},
         "power": {"coef": 1.0, "exponent": 0.0},
         "quadratic": {"c0": 1.0, "c1": 0.0, "c2": 0.0}}


@pytest.mark.parametrize("level", [
    "config", "query", "mc", "output", "model", "params", "custom_params",
    *(f"form_{f}" for f in FORMS)])
def test_unknown_query_key_exits_2(tmp_path, capsys, level):
    """A misspelt key is refused at every level of the config and of the
    model document, naming the key, never dropped."""
    doc = bm_doc(grids={"y_grid": [1.0]},
                 mc={"n_paths": 1000, "dt": 0.1, "t_max": 1.0, "seed": 1},
                 output={"format": "csv"})
    if level == "params":
        doc["model"] = {"kind": "bm", "params": {"detla": 0.5}}
    elif level == "custom_params":
        doc["model"] = {"kind": "custom", "params": dict(FREE_CUSTOM, detla=0.5)}
    elif level.startswith("form_"):
        form = level[len("form_"):]
        doc["model"] = {"kind": "custom", "params": dict(
            FREE_CUSTOM, diffusion_sq=dict(FORMS[form], form=form, detla=0.5))}
    else:
        (doc if level == "config" else doc[level])["detla"] = 0.5
    cfg = write_cfg(tmp_path, doc)
    # excursions reads every section of this doc
    code, _, err = run(["excursions", "--config", cfg], capsys)
    assert code == 2
    assert "detla" in err


def test_readme_config_example_parses():
    """The config block of the README is a valid excursions config, so
    the documented layout cannot drift from the reader."""
    block = README.split("The config is one JSON object")[1]
    block = block.split("```json")[1].split("```")[0]
    cfg = cli.parse_run_config(json.loads(block), "excursions")
    assert cfg.model.kind == "drifted_bm" and cfg.model.params["mu"] == 1.0
    assert (cfg.query.x, cfg.query.delta, cfg.query.tol) == (0.0, 1.0, 1e-6)
    assert cfg.grid == (2.0,)
    assert cfg.mc_cfg.n_paths == 4000 and cfg.mc_cfg.seed == 7
    assert (cfg.out_path, cfg.out_format) == ("excursions.csv", "csv")


def test_readme_command_table_matches_the_cli():
    """Each row of the README's command table names the grid, the query
    keys and the mc section that cli._COMMANDS gives its command."""
    table = README.split("| command ")[1].split("\n\n")[0].splitlines()[2:]
    rows = {}
    for line in table:
        command, grid, keys, reads_mc = (c.strip() for c in line.split("|")[1:5])
        ticked = [k.strip("`") for k in grid.split() if k.startswith("`")]
        rows[command.strip("`")] = (
            tuple(k.strip("`,") for k in keys.split() if k.startswith("`")),
            ticked[0] if ticked else None, reads_mc == "yes")
    assert rows == {c: row[1:] for c, row in cli._COMMANDS.items()}


def test_model_params_outside_params_exits_2(tmp_path, capsys):
    doc = {"model": {"kind": "drifted_bm", "mu": 1.0},
           "query": {"x": 0.0, "delta": 1.0},
           "grids": {"y_grid": [1.0]}}
    cfg = write_cfg(tmp_path, doc)
    code, _, err = run(["tail", "--config", cfg], capsys)
    assert code == 2
    assert "params" in err


def test_missing_required_model_param_exits_2(tmp_path, capsys):
    doc = {"model": {"kind": "gbm", "params": {"mu_bar": 0.05}},
           "query": {"x": 1.0, "delta": 0.3},
           "grids": {"y_grid": [1.3]}}
    cfg = write_cfg(tmp_path, doc)
    code, _, err = run(["tail", "--config", cfg], capsys)
    assert code == 2
    assert "sigma_bar_sq" in err


@pytest.mark.parametrize("model,query_extra,needle", [
    (OU_MODEL, {"box": ["a", 3]}, "query.box"),
    (OU_MODEL, {"box": [None, 3]}, "query.box"),
    ({"kind": "drifted_bm", "params": {"mu": "abc"}}, {}, "params.mu"),
    ({"kind": "drifted_bm", "params": {"mu": None}}, {}, "params.mu"),
    ({"kind": "drifted_bm", "params": {"mu": 10 ** 400}}, {}, "params.mu"),
    ({"kind": "custom", "params": dict(
        FREE_CUSTOM, drift={"form": "constant", "value": "abc"})}, {}, "drift"),
    ({"kind": "custom", "params": dict(FREE_CUSTOM, scale_ref="zz")}, {},
     "scale_ref"),
    # a_in_state_space is no model key, whatever its value
    ({"kind": "bm", "a_in_state_space": "false"}, {}, "a_in_state_space"),
], ids=["box-str", "box-null", "mu-str", "mu-null", "mu-past-float",
        "form-value-str", "scale-ref-str", "flag-str"])
def test_malformed_model_or_query_value_exits_2(tmp_path, capsys, model,
                                                query_extra, needle):
    doc = {"model": model, "query": dict({"x": 0.0, "delta": 1.0}, **query_extra),
           "grids": {"y_grid": [0.5]}}
    cfg = write_cfg(tmp_path, doc)
    code, _, err = run(["hit", "--config", cfg], capsys)
    assert code == 2
    assert needle in err


@pytest.mark.parametrize("section,value,needle", [
    ("grids", {"y_grid": []}, "grids.y_grid must be a nonempty array"),
    ("output", {"format": "xml"}, "output format must be 'csv' or 'json'"),
    ("query", [], "query must be a JSON object"),
], ids=["empty-grid", "format-xml", "query-list"])
def test_malformed_config_section_exits_2(tmp_path, capsys, section, value, needle):
    cfg = write_cfg(tmp_path, bm_doc(**{"grids": {"y_grid": [1.0]}, section: value}))
    code, out, err = run(["tail", "--config", cfg], capsys)
    assert (code, out) == (2, "")
    assert needle in err


def test_hit_refuses_a_box_with_a_lower_exit(tmp_path, capsys):
    # the exit transform reads no box: the pair is refused, not half read
    doc = bm_doc(grids={"y_grid": [1.0]})
    doc["query"].update(alpha=0.5, box=[-0.5, 0.5], exit_lower=-1.0)
    code, out, err = run(["hit", "--config", write_cfg(tmp_path, doc)], capsys)
    assert (code, out) == (2, "")
    assert "query.box" in err and "query.exit_lower" in err


# what each command reads besides x, delta and its grid: the query keys,
# the mc section and the --seed that overrides it
READS = {"tail": {"tol"}, "density": {"tol"}, "transform": {"beta", "tol"},
         "tau-cdf": {"beta", "tol"}, "hit": {"alpha", "box", "exit_lower"},
         "simulate": {"alpha", "beta", "mc", "--seed"},
         "excursions": {"tol", "mc", "--seed"},
         "verify": {"alpha", "tol", "mc", "--seed"}}
MC_DOC = {"n_paths": 1000, "dt": 0.01, "t_max": 10.0, "seed": 1}


@pytest.mark.parametrize("command", cli.COMMANDS)
@pytest.mark.parametrize("key,value", [
    ("box", [-3.0, 3.0]), ("exit_lower", -1.0), ("alpha", 0.5), ("beta", 0.5),
    ("tol", 1e-6), ("mc", MC_DOC), ("--seed", 3)])
def test_hit_query_keys_on_other_commands_exit_2(tmp_path, capsys, command, key,
                                                 value):
    """Every command reads exactly what READS lists: each other query key,
    an mc section and --seed exit 2 naming it, before any computation;
    what it lists is parsed into the RunConfig."""
    grid = cli._COMMANDS[command][2]
    doc = bm_doc(**({"grids": {grid: [1.0]}} if grid else {}))
    if "mc" in READS[command]:
        doc["mc"] = MC_DOC
    args = ["--seed", str(value)] if key == "--seed" else []
    if key == "mc":
        doc["mc"] = value
    elif key != "--seed":
        doc["query"][key] = value
    if key in READS[command]:
        cfg = cli.parse_run_config(doc, command, seed_override=value if args else None)
        if key == "mc":
            assert cfg.mc_cfg == mc.McConfig(**value)
        elif key == "--seed":
            assert cfg.mc_cfg.seed == value
        elif key == "box":
            assert cfg.box == tuple(value)
        else:
            assert getattr(cfg.query if key != "exit_lower" else cfg, key) == value
        return
    code, out, err = run([command, "--config", write_cfg(tmp_path, doc), *args],
                         capsys)
    assert (code, out) == (2, "")
    assert (key if key == "--seed" else repr(key)) in err


def test_numeric_output_path_exits_2(tmp_path, capsys):
    """A number is no path: open() would write to that file descriptor."""
    cfg = write_cfg(tmp_path, bm_doc(grids={"y_grid": [1.0]}, output={"path": 1}))
    code, out, err = run(["tail", "--config", cfg], capsys)
    assert (code, out) == (2, "")
    assert "output.path" in err


def test_unwritable_output_path_exits_2(tmp_path, capsys):
    """A path whose directory does not exist is a request error, not a
    raw OSError."""
    out_path = str(tmp_path / "nodir" / "x.csv")
    cfg = write_cfg(tmp_path, bm_doc(grids={"y_grid": [1.0]}, output={"path": out_path}))
    code, out, err = run(["tail", "--config", cfg], capsys)
    assert (code, out) == (2, "")
    assert "output.path" in err and "nodir" in err


def test_bad_delta_exits_2(tmp_path, capsys):
    doc = bm_doc(grids={"y_grid": [1.0]})
    doc["query"]["delta"] = -1.0
    cfg = write_cfg(tmp_path, doc)
    code, _, err = run(["tail", "--config", cfg], capsys)
    assert code == 2


def test_transform_matches_closed_form(tmp_path, capsys):
    doc = bm_doc(grids={"alpha_grid": [0.5]})
    cfg = write_cfg(tmp_path, doc)
    code, out, _ = run(["transform", "--config", cfg], capsys)
    assert code == 0
    header, row = out.splitlines()
    assert header == "alpha,beta,value,abs_error_estimate"
    alpha, beta, value, err_est = (float(v) for v in row.split(","))
    assert alpha == 0.5 and beta == 0.0
    assert value == pytest.approx(SECH1, rel=1e-8)
    assert 0.0 <= err_est < 1e-8


def test_transform_grid_shares_one_table_and_one_solve_per_rung(tmp_path, capsys,
                                                               monkeypatch):
    # counts, so they cannot flake: one transform per alpha built four
    # mass tables and made eight solver calls
    rows, tables = [], []
    solve, table = laws.batch_endpoints, laws._MassTable
    monkeypatch.setattr(laws, "batch_endpoints",
                        lambda *a, **k: rows.append(len(a[2])) or solve(*a, **k))
    monkeypatch.setattr(laws, "_MassTable",
                        lambda *a, **k: tables.append(1) or table(*a, **k))
    alphas = [0.1, 0.5, 1.5, 3.0]
    cfg = write_cfg(tmp_path, bm_doc(grids={"alpha_grid": alphas}))
    code, out, _ = run(["transform", "--config", cfg], capsys)
    assert code == 0
    values = [float(line.split(",")[2]) for line in out.splitlines()[1:]]
    assert values == pytest.approx([1.0 / math.cosh(math.sqrt(2.0 * a)) for a in alphas],
                                   rel=1e-8)
    assert len(tables) == 1
    assert 0 < len(rows) <= 3


def test_tau_cdf_rows_monotone(tmp_path, capsys):
    cfg = write_cfg(tmp_path, bm_doc(grids={"t_grid": [0.5, 1.0, 2.0]}))
    code, out, _ = run(["tau-cdf", "--config", cfg], capsys)
    assert code == 0
    vals = [float(line.split(",")[1]) for line in out.splitlines()[1:]]
    assert vals == sorted(vals)
    assert 0.0 < vals[0] < vals[-1] < 1.0


def test_tau_cdf_with_beta_exits_2(tmp_path, capsys):
    # the CDF of tau is the beta = 0 law; a beta in the query is refused,
    # not dropped
    doc = bm_doc(grids={"t_grid": [1.0]})
    doc["query"]["beta"] = 0.7
    cfg = write_cfg(tmp_path, doc)
    code, out, err = run(["tau-cdf", "--config", cfg], capsys)
    assert code == 2
    assert out == ""
    assert "beta" in err


def test_hit_closed_form(tmp_path, capsys):
    doc = bm_doc(grids={"y_grid": [1.0]})
    doc["query"]["alpha"] = 0.5
    cfg = write_cfg(tmp_path, doc)
    code, out, _ = run(["hit", "--config", cfg], capsys)
    assert code == 0
    value = float(out.splitlines()[1].split(",")[1])
    assert value == pytest.approx(math.exp(-1.0), rel=1e-9)


def test_hit_with_lower_exit_barrier(tmp_path, capsys):
    doc = bm_doc(grids={"y_grid": [1.0]})
    doc["query"]["alpha"] = 0.5
    doc["query"]["exit_lower"] = -1.0
    cfg = write_cfg(tmp_path, doc)
    code, out, _ = run(["hit", "--config", cfg], capsys)
    assert code == 0
    value = float(out.splitlines()[1].split(",")[1])
    assert value == pytest.approx(EXIT_RATIO, rel=1e-9)


def test_ou_hit_without_box_exits_0(tmp_path, capsys):
    # the far end is pushed out until it no longer matters
    doc = {"model": {"kind": "ou", "params": {"theta": 1.0}},
           "query": {"x": 0.0, "delta": 1.0, "alpha": 0.5},
           "grids": {"y_grid": [1.0]}}
    cfg = write_cfg(tmp_path, doc)
    code, out, _ = run(["hit", "--config", cfg], capsys)
    assert code == 0
    assert out.splitlines()[0] == "y,value"
    # parabolic-cylinder ratio, as HIT_OU in test_laws
    assert float(out.splitlines()[1].split(",")[1]) == pytest.approx(
        0.33788458755196843, rel=1e-9)


def test_hit_on_a_finite_interval_exits_2(tmp_path, capsys):
    # BM on [0, 10] from 1 to 2 may reach 0 first, and what it does there
    # is out of scope
    doc = bm_doc(grids={"y_grid": [2.0]})
    doc["model"]["interval"] = [0.0, 10.0]
    doc["query"].update(x=1.0, delta=0.5, alpha=0.5)
    cfg = write_cfg(tmp_path, doc)
    code, out, err = run(["hit", "--config", cfg], capsys)
    assert code == 2
    assert out == ""
    assert "depends on the end 0" in err


def test_density_tracks_tail_slope(tmp_path, capsys):
    h = 1e-5
    cfg = write_cfg(tmp_path, bm_doc(
        grids={"y_grid": [1.0 - h, 1.0, 1.0 + h]}))
    code, out, _ = run(["density", "--config", cfg], capsys)
    assert code == 0
    dens = float(out.splitlines()[2].split(",")[1])
    cfg2 = write_cfg(tmp_path, bm_doc(
        grids={"y_grid": [1.0 - h, 1.0 + h]}), name="c2.json")
    code, out, _ = run(["tail", "--config", cfg2], capsys)
    assert code == 0
    lines = out.splitlines()
    t_lo = float(lines[1].split(",")[1])
    t_hi = float(lines[2].split(",")[1])
    assert dens == pytest.approx((t_lo - t_hi) / (2 * h), rel=1e-6)


def test_too_stiff_transform_exits_3(tmp_path, capsys):
    doc = {"model": {"kind": "ou", "params": {"theta": 1.0}},
           "query": {"x": 0.0, "delta": 1.0},
           "grids": {"alpha_grid": [1e14]}}
    cfg = write_cfg(tmp_path, doc)
    code, _, err = run(["transform", "--config", cfg], capsys)
    assert code == 3
    assert "numeric failure" in err


def test_transform_past_the_float_range_exits_3(tmp_path, capsys):
    # e^{-beta x} = e^{800}: the value itself overflows, a numeric failure
    doc = bm_doc(grids={"alpha_grid": [0.5]})
    doc["query"].update(x=-1.0, beta=800.0)
    code, out, err = run(["transform", "--config", write_cfg(tmp_path, doc)], capsys)
    assert (code, out) == (3, "")
    assert "numeric failure" in err and "float range" in err


def test_simulate_writes_sample_table(tmp_path, capsys):
    out_file = tmp_path / "samples.csv"
    doc = bm_doc(mc={"n_paths": 1000, "dt": 0.01, "t_max": 40.0,
                     "seed": 11},
                 output={"path": str(out_file), "format": "csv"})
    cfg = write_cfg(tmp_path, doc)
    code, out, _ = run(["simulate", "--config", cfg], capsys)
    assert code == 0
    assert "P(max > 1)" in out
    assert "unstopped fraction" in out
    lines = out_file.read_text().splitlines()
    assert lines[0] == "path_id,stopped,tau_hat,m_tau_hat"
    assert len(lines) == 1001


def test_simulate_needs_mc_section(tmp_path, capsys):
    cfg = write_cfg(tmp_path, bm_doc())
    code, _, err = run(["simulate", "--config", cfg], capsys)
    assert code == 2
    assert "mc" in err


def test_boolean_mc_number_exits_2(tmp_path, capsys):
    # JSON true is not a horizon of 1: refused before any path is drawn
    doc = bm_doc(mc={"n_paths": 1000, "dt": 0.01, "t_max": True, "seed": 1})
    doc["query"]["delta"] = 20.0
    cfg = write_cfg(tmp_path, doc)
    code, _, err = run(["simulate", "--config", cfg], capsys)
    assert code == 2
    assert "invalid request" in err and "t_max" in err


def test_overflowing_step_count_exits_2(tmp_path, capsys):
    # t_max / dt = 1 / 5e-324 is inf: refused as a config, not a traceback
    doc = bm_doc(mc={"n_paths": 1000, "dt": 5e-324, "t_max": 1.0, "seed": 0})
    cfg = write_cfg(tmp_path, doc)
    code, _, err = run(["simulate", "--config", cfg], capsys)
    assert code == 2
    assert "invalid request" in err and "step count" in err


def test_seed_flag_overrides_config(tmp_path, capsys):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    doc = bm_doc(mc={"n_paths": 1000, "dt": 0.01, "t_max": 40.0,
                     "seed": 11})
    cfg = write_cfg(tmp_path, doc)
    assert cli.main(["simulate", "--config", cfg,
                     "--out", str(out_a)]) == 0
    assert cli.main(["simulate", "--config", cfg, "--seed", "12",
                     "--out", str(out_b)]) == 0
    capsys.readouterr()
    assert out_a.read_text() != out_b.read_text()


def test_outputs_byte_stable(tmp_path, capsys):
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    doc = bm_doc(mc={"n_paths": 1000, "dt": 0.01, "t_max": 40.0,
                     "seed": 11})
    cfg = write_cfg(tmp_path, doc)
    for target in (out_a, out_b):
        assert cli.main(["simulate", "--config", cfg, "--format", "json",
                         "--out", str(target)]) == 0
    capsys.readouterr()
    assert out_a.read_bytes() == out_b.read_bytes()
    doc = json.loads(out_a.read_text())
    assert doc["columns"] == ["path_id", "stopped", "tau_hat", "m_tau_hat"]
    assert len(doc["rows"]) == 1000
    assert "estimates" in doc


def test_verify_bm_exits_0(tmp_path, capsys, monkeypatch):
    # the report extrapolates one (dt, dt/2) pair; it never halves again
    calls = []
    paired = mc.paired_simulate
    monkeypatch.setattr(mc, "paired_simulate",
                        lambda *args: calls.append(args) or paired(*args))
    out_file = tmp_path / "report.csv"
    doc = bm_doc(mc={"n_paths": 2000, "dt": 0.01, "t_max": 40.0,
                     "seed": 2},
                 output={"path": str(out_file), "format": "csv"})
    cfg = write_cfg(tmp_path, doc)
    code, out, _ = run(["verify", "--config", cfg], capsys)
    assert code == 0
    assert len(calls) == 1
    assert "dt=0.005" in out
    assert "result: PASS" in out
    assert out_file.read_text().startswith("check,analytic,estimate")


def test_verify_failure_exits_4(tmp_path, capsys, monkeypatch):
    # shrink the acceptance window so the same healthy run now fails,
    # proving the exit-code mapping rather than the statistics
    monkeypatch.setattr(verify, "_Z_MAX", 0.01)
    doc = bm_doc(mc={"n_paths": 2000, "dt": 0.01, "t_max": 40.0,
                     "seed": 2})
    cfg = write_cfg(tmp_path, doc)
    code, out, _ = run(["verify", "--config", cfg], capsys)
    assert code == 4
    assert "result: FAIL" in out


def test_excursions_band_report(tmp_path, capsys):
    doc = {"model": {"kind": "drifted_bm", "params": {"mu": 1.0}},
           "query": {"x": 0.0, "delta": 1.0},
           "grids": {"y_grid": [2.0]},
           "mc": {"n_paths": 1000, "dt": 0.01, "t_max": 200.0, "seed": 8}}
    cfg = write_cfg(tmp_path, doc)
    code, out, _ = run(["excursions", "--config", cfg], capsys)
    assert code == 0
    assert "analytic mean" in out
    # the rows carry the two standard errors that decide passed, each
    # check holding within 3 of its own
    rows = out.split("metric,value\n")[1].splitlines()
    v = {name: float(x) for name, x in (r.split(",") for r in rows)}
    assert v["extrapolated_se"] > 0.0 and v["var_over_mean_se"] > 0.0
    mean_ok = (abs(v["mean_extrapolated"] - v["analytic_mean"])
               <= 3.0 * v["extrapolated_se"])
    disp_ok = abs(v["var_over_mean"] - 1.0) <= 3.0 * v["var_over_mean_se"]
    assert v["passed"] == float(mean_ok and disp_ok)


def test_excursions_needs_single_band_top(tmp_path, capsys):
    doc = {"model": {"kind": "drifted_bm", "params": {"mu": 1.0}},
           "query": {"x": 0.0, "delta": 1.0},
           "grids": {"y_grid": [1.0, 2.0]},
           "mc": {"n_paths": 1000, "dt": 0.01, "t_max": 200.0, "seed": 8}}
    cfg = write_cfg(tmp_path, doc)
    code, _, err = run(["excursions", "--config", cfg], capsys)
    assert code == 2
    assert "exactly one" in err


def test_excursions_without_a_counted_excursion_exits_2(tmp_path, capsys):
    doc = bm_doc(grids={"y_grid": [1e-9]},
                 mc={"n_paths": 1000, "dt": 0.01, "t_max": 5.0, "seed": 1})
    cfg = write_cfg(tmp_path, doc)
    code, _, err = run(["excursions", "--config", cfg], capsys)
    assert code == 2
    assert "invalid request" in err and "widen the band" in err


def test_unknown_command_rejected(tmp_path, capsys):
    cfg = write_cfg(tmp_path, bm_doc(grids={"y_grid": [1.0]}))
    with pytest.raises(SystemExit) as exc:
        cli.main(["spectrum", "--config", cfg])
    assert exc.value.code == 2
