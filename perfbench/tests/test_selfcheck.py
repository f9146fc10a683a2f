"""Self-check of the benchmark: each workload at a small size, except
oracle_mc, whose fixed-seed Monte Carlo requests run at full size.

    python3 -m pytest perfbench/tests -q

Takes about two minutes on two CPUs.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import refs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SEED = 5
# counts that a run reads from return values; they repeat exactly
COUNTED = ("basis.accepted_steps", "invlap.transform_evals",
           "models.scale_calls", "mc.path_steps", "max_rel_err")
# a layer metric that must be non-zero on the workload meant to move it
BUSY = {
    "transform_grid": ("basis.batched_calls", "basis.accepted_steps",
                       "invlap.inversions", "invlap.transform_evals",
                       "laws.calls", "cdf_max_abs_err"),
    "pointwise_levels": ("basis.single_calls", "models.scale_calls",
                         "laws.calls", "max_rel_err"),
    "oracle_mc": ("mc.paths", "mc.path_steps", "mc.simulate_s",
                  "mc.excursion_s", "cli.bytes_out", "path_steps_per_s"),
}


@pytest.fixture(scope="module")
def traced_runs():
    return {w: [run.run(w, SEED, 0.0, True, small=True) for _ in range(2)]
            for w in workloads.WORKLOADS}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_reports_every_metric(traced_runs, workload):
    lines, result = traced_runs[workload][0]
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {name for name, _ in run.PER_LAYER}
    text = "\n".join(lines)
    for name, unit in run.END_TO_END + run.PER_LAYER:
        assert f"  {name} " in text, name
    for name in BUSY[workload]:
        assert result["metrics"][name]["value"] > 0, name
    if workload == "oracle_mc":
        # every run prints the verdict of both excursion reports
        assert sum("report PASS" in line for line in lines) == 2
        assert result["metrics"]["mc.workers"]["value"] >= 1


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_counts_repeat_exactly(traced_runs, workload):
    first, second = (r[1]["metrics"] for r in traced_runs[workload])
    for name in COUNTED:
        assert first[name]["value"] == second[name]["value"], name


def test_untraced_run_reports_end_to_end_metrics():
    lines, result = run.run("pointwise_levels", SEED, 0.0, False, small=True)
    assert result["correct"] and result["attempted"] >= 1
    assert set(result["metrics"]) == {name for name, _ in run.END_TO_END}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    json.dumps(result)


def test_wrong_reference_counts_as_failure(monkeypatch):
    right = refs.bm_transform
    monkeypatch.setattr(refs, "bm_transform",
                        lambda alpha, delta: 1.001 * right(alpha, delta))
    lines, result = run.run("transform_grid", SEED, 0.0, False, small=True)
    assert not result["correct"] and result["failed"] > 0
    fail_frac = next(float(line.split()[1]) for line in lines
                     if line.split()[:1] == ["fail_frac"])
    assert fail_frac > 0
    assert any("FAIL transform.bm:" in line for line in lines)


def test_benchmark_json_matches_the_runner():
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == \
        list(run.PER_LAYER)
