"""End-to-end checks of the command line front end.

Every test drives cli.main in process with a JSON config on disk, the
way the installed script would, and asserts on exit codes, emitted
rows, and byte stability.
"""

import json
import math

import pytest

from ddkit import cli, verify

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


def test_unknown_query_key_exits_2(tmp_path, capsys):
    doc = bm_doc(grids={"y_grid": [1.0]})
    doc["query"]["detla"] = 0.5
    cfg = write_cfg(tmp_path, doc)
    code, _, err = run(["tail", "--config", cfg], capsys)
    assert code == 2
    assert "detla" in err


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


OU_MODEL = {"kind": "ou", "params": {"theta": 1.0}}
FREE_CUSTOM = {"drift": {"form": "constant", "value": 0.0},
               "diffusion_sq": {"form": "constant", "value": 1.0}}


@pytest.mark.parametrize("model,query_extra,needle", [
    (OU_MODEL, {"box": ["a", 3]}, "query.box"),
    (OU_MODEL, {"box": [None, 3]}, "query.box"),
    ({"kind": "drifted_bm", "params": {"mu": "abc"}}, {}, "params.mu"),
    ({"kind": "drifted_bm", "params": {"mu": None}}, {}, "params.mu"),
    ({"kind": "custom", "params": dict(
        FREE_CUSTOM, drift={"form": "constant", "value": "abc"})}, {}, "drift"),
    ({"kind": "custom", "params": dict(FREE_CUSTOM, scale_ref="zz")}, {},
     "scale_ref"),
    ({"kind": "bm", "a_in_state_space": "false"}, {}, "a_in_state_space"),
], ids=["box-str", "box-null", "mu-str", "mu-null", "form-value-str",
        "scale-ref-str", "flag-str"])
def test_malformed_model_or_query_value_exits_2(tmp_path, capsys, model,
                                                query_extra, needle):
    doc = {"model": model, "query": dict({"x": 0.0, "delta": 1.0}, **query_extra),
           "grids": {"y_grid": [0.5]}}
    cfg = write_cfg(tmp_path, doc)
    code, _, err = run(["hit", "--config", cfg], capsys)
    assert code == 2
    assert needle in err


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


def test_tau_cdf_rows_monotone(tmp_path, capsys):
    cfg = write_cfg(tmp_path, bm_doc(grids={"t_grid": [0.5, 1.0, 2.0]}))
    code, out, _ = run(["tau-cdf", "--config", cfg], capsys)
    assert code == 0
    vals = [float(line.split(",")[1]) for line in out.splitlines()[1:]]
    assert vals == sorted(vals)
    assert 0.0 < vals[0] < vals[-1] < 1.0


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


def test_ou_hit_needs_box_exits_2(tmp_path, capsys):
    doc = {"model": {"kind": "ou", "params": {"theta": 1.0}},
           "query": {"x": 0.0, "delta": 1.0, "alpha": 0.5},
           "grids": {"y_grid": [1.0]}}
    cfg = write_cfg(tmp_path, doc)
    code, _, err = run(["hit", "--config", cfg], capsys)
    assert code == 2
    assert "box" in err


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


def test_verify_bm_exits_0(tmp_path, capsys):
    out_file = tmp_path / "report.csv"
    doc = bm_doc(mc={"n_paths": 2000, "dt": 0.01, "t_max": 40.0,
                     "seed": 2},
                 output={"path": str(out_file), "format": "csv"})
    cfg = write_cfg(tmp_path, doc)
    code, out, _ = run(["verify", "--config", cfg], capsys)
    assert code == 0
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
    assert "metric,value" in out


def test_excursions_needs_single_band_top(tmp_path, capsys):
    doc = {"model": {"kind": "drifted_bm", "params": {"mu": 1.0}},
           "query": {"x": 0.0, "delta": 1.0},
           "grids": {"y_grid": [1.0, 2.0]},
           "mc": {"n_paths": 1000, "dt": 0.01, "t_max": 200.0, "seed": 8}}
    cfg = write_cfg(tmp_path, doc)
    code, _, err = run(["excursions", "--config", cfg], capsys)
    assert code == 2
    assert "exactly one" in err


def test_unknown_command_rejected(tmp_path, capsys):
    cfg = write_cfg(tmp_path, bm_doc(grids={"y_grid": [1.0]}))
    with pytest.raises(SystemExit) as exc:
        cli.main(["spectrum", "--config", cfg])
    assert exc.value.code == 2
