#!/usr/bin/env python3
"""ddkit benchmark: one workload, end to end or per layer.

    python3 perfbench/run.py --workload transform_grid --seed 1 --seconds 20 --trace 0

Run from anywhere; it imports ddkit from the ``src`` directory next to
``perfbench``.  It measures set-up in fresh processes, then sends the
workload's request list again and again (a closed loop with one client)
while another pass fits in ``--seconds``, checks every answer against a
reference, and prints one metric per line followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Request latencies are scaled by a CPU-speed kernel timed next to them
(see ``run_pass``).

With ``--trace 0`` the JSON metrics are the gated end-to-end ones; with
``--trace 1`` passes alternate between untraced and traced, and the JSON
holds the per-layer metrics.  Raw latencies, and the spans of traced
passes, are written to ``.perfbench_out/`` at the end.  Without
``src/ddkit`` the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# gated end-to-end metrics: in the JSON of every untraced run
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("req_p50_s", "s"),
              ("req_p90_s", "s"), ("peak_rss_mb", "MB"))
# end-to-end figures printed by every run; in the JSON of traced runs,
# ungated, because they are zero on some workloads or on all
UNGATED = (("fail_frac", "ratio"), ("max_rel_err", "ratio"),
           ("cdf_max_abs_err", "prob"))
PER_LAYER = (
    ("setup.import_s", "s"), ("setup.import_mc_s", "s"),
    ("setup.import_laws_s", "s"), ("setup.import_basis_s", "s"),
    ("setup.import_models_s", "s"),
    ("basis.batched_calls", "count"), ("basis.batched_rows", "count"),
    ("basis.batched_s", "s"), ("basis.single_calls", "count"),
    ("basis.single_s", "s"), ("basis.accepted_steps", "count"),
    ("basis.max_w_drift", "ratio"),
    ("models.scale_calls", "count"), ("models.self_s", "s"),
    ("laws.calls", "count"), ("laws.self_s", "s"),
    ("invlap.inversions", "count"), ("invlap.transform_evals", "count"),
    ("invlap.self_s", "s"), ("invlap.max_disagreement", "prob"),
    ("mc.simulate_s", "s"), ("mc.excursion_s", "s"), ("mc.paths", "count"),
    ("mc.path_steps", "count"), ("mc.unstopped_frac", "ratio"),
    ("mc.workers", "count"),
    ("verify.self_s", "s"),
    ("cli.calls", "count"), ("cli.self_s", "s"), ("cli.bytes_out", "bytes"),
    ("trace.overhead_s", "s"), ("path_steps_per_s", "1/s"),
) + UNGATED
MAXIMA = ("basis.max_w_drift", "invlap.max_disagreement")
SETUP_REPEATS = 5
IMPORTS = {"setup.import_mc_s": "ddkit.mc", "setup.import_laws_s": "ddkit.laws",
           "setup.import_basis_s": "ddkit.basis",
           "setup.import_models_s": "ddkit.models"}


# calibrate()'s time on the reference machine in its usual state; request
# latencies are scaled to the machine speed at which it takes this
CAL_NOMINAL_S = 1e-3
# ddkit's own cap on its automatic Monte Carlo worker count
AUTO_WORKERS_MAX = 8


# ---------------------------------------------------------------------------
# set-up in fresh processes
# ---------------------------------------------------------------------------

def _child(workload, *flags):
    cmd = [sys.executable, *flags, str(HERE / "setup_child.py"), str(SRC),
           workload]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                          check=True)


def measure_setup(workload, repeats):
    """Median wall time of a fresh process that imports ddkit and ddkit.cli
    and builds the workload's models.  Call it after this process has
    imported ddkit, which writes the bytecode caches users do not pay
    for again."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        _child(workload)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def import_breakdown(workload):
    """Cumulative import times from ``-X importtime`` in a fresh process."""
    cum = {}
    for line in _child(workload, "-X", "importtime").stderr.splitlines():
        m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)$", line)
        if m:
            cum[m.group(2)] = int(m.group(1)) / 1e6
    out = {"setup.import_s": cum["ddkit"] + cum.get("ddkit.cli", 0.0)}
    out.update({k: cum.get(mod, 0.0) for k, mod in IMPORTS.items()})
    return out


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

def calibrate():
    """Wall time of a fixed CPU kernel that does not touch ddkit: float
    arithmetic in Python on small numpy arrays, the mix of ddkit's
    per-step code.  It takes about CAL_NOMINAL_S on the reference machine
    in its usual state."""
    t0 = time.perf_counter()
    a = np.linspace(0.0, 1.0, 64)
    acc = 0.0
    for i in range(150):
        a = np.sin(a) * 0.5 + a * 0.5
        acc += float(a[i % 64]) * i
    return time.perf_counter() - t0


@dataclass
class Pass:
    traced: bool
    latencies: list   # raw seconds, one per request
    scaled: list      # the same, scaled as described in run_pass
    cal: list         # calibrate() before the first request and after each
    verdicts: list
    bytes_out: int = 0
    tracer: object = None

    @property
    def wall(self):
        return sum(self.latencies)


def request_times(passes):
    """Each request's median scaled latency over the passes."""
    return [statistics.median(t) for t in zip(*(p.scaled for p in passes))]


def run_pass(requests, tracer=None):
    """Send every request once, in order, with a calibrate() run before
    the first and after each.  Returns outputs, latencies, scaled
    latencies and kernel times.

    The reference machine switches between CPU speeds up to about 1.9x
    apart, for stretches of milliseconds to minutes, so a whole run can
    fall into one speed and raw times move with the machine from run to
    run.  calibrate() slows down and speeds up with the code run next to
    it, so a request's latency is scaled to the speed at which
    calibrate() takes CAL_NOMINAL_S, judged by the kernel runs just
    before and after it.
    """
    outs, lat, scaled, cal = {}, [], [], [calibrate()]
    for i, req in enumerate(requests):
        if tracer is not None:
            tracer.request = i
        t0 = time.perf_counter()
        try:
            out = req.call()
        except (Exception, SystemExit) as exc:  # a failed request, counted
            out = exc
        lat.append(time.perf_counter() - t0)
        cal.append(calibrate())
        scaled.append(lat[-1] * CAL_NOMINAL_S / (0.5 * (cal[-2] + cal[-1])))
        outs[req.name] = out
    return outs, lat, scaled, cal


def check_pass(requests, outs):
    from workloads import Verdict
    verdicts = []
    for req in requests:
        out = outs[req.name]
        if isinstance(out, BaseException):
            v = Verdict(False, detail=f"raised {out!r}")
        else:
            try:
                v = req.check(outs)
            except Exception as exc:  # a broken output fails its check
                v = Verdict(False, detail=f"check raised {exc!r}")
        verdicts.append((req.name, v))
    return verdicts


def measure(requests, seconds, trace):
    """Repeat the request list while another pass fits in `seconds`.
    Untraced runs make at least one pass; traced runs alternate untraced
    and traced passes and make at least one of each."""
    import tracing
    from workloads import CliOut
    passes = []
    t_start = time.perf_counter()
    while True:
        t_pass = time.perf_counter()
        tracer = tracing.Tracer() if trace and len(passes) % 2 == 1 else None
        if tracer is not None:
            tracer.install()
        try:
            outs, lat, scaled, cal = run_pass(requests, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        p = Pass(tracer is not None, lat, scaled, cal,
                 check_pass(requests, outs), tracer=tracer)
        p.bytes_out = sum(o.bytes_out() for o in outs.values()
                          if isinstance(o, CliOut))
        if not passes:
            # one pass sets the high-water mark; later ones add only the
            # allocator's fragmentation, which varies with their number
            peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
        passes.append(p)
        now = time.perf_counter()
        if len(passes) >= (2 if trace else 1) and \
                now - t_start + (now - t_pass) > seconds:
            return passes, peak_rss_mb


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def end_to_end(passes, setup_s, peak_rss_mb):
    lat = request_times([p for p in passes if not p.traced])
    verdicts = [v for p in passes for _, v in p.verdicts]
    return {
        "setup_s": setup_s,
        "wall_s": sum(lat),
        "req_p50_s": statistics.median(lat),
        "req_p90_s": statistics.quantiles(lat, n=10, method="inclusive")[8],
        "peak_rss_mb": peak_rss_mb,
        "fail_frac": sum(not v.ok for v in verdicts) / len(verdicts),
        "max_rel_err": max(v.rel_err for v in verdicts),
        "cdf_max_abs_err": max(v.cdf_err for v in verdicts),
    }


def per_layer(passes, e2e, imports, workers):
    traced = [p for p in passes if p.traced]
    first = traced[0].tracer
    out = dict(imports)
    for name, unit in PER_LAYER:
        if name in out or name in e2e:
            continue
        if name in MAXIMA:
            out[name] = max(p.tracer.maxima[name] for p in traced)
        elif unit == "s":
            out[name] = statistics.median(p.tracer.counts[name] for p in traced)
        else:
            out[name] = first.counts[name]
    sim = first.counts["mc.simulated_paths"]
    out["mc.unstopped_frac"] = first.counts["mc.unstopped"] / sim if sim else 0.0
    out["mc.workers"] = workers
    out["cli.bytes_out"] = traced[0].bytes_out
    out["trace.overhead_s"] = sum(request_times(traced)) - e2e["wall_s"]
    # the Monte Carlo seeds are fixed, so every pass simulates the same
    # path-steps as the traced one counted
    out["path_steps_per_s"] = first.counts["mc.path_steps"] / e2e["wall_s"]
    out.update({k: e2e[k] for k, _ in UNGATED})
    return out


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def run(workload, seed, seconds, trace, small=False):
    """One benchmark run; returns (printable lines, result dict)."""
    # ddkit's automatic worker count, capped at the CPUs this process may use
    os.environ["DDKIT_THREADS"] = str(min(AUTO_WORKERS_MAX,
                                          len(os.sched_getaffinity(0))))
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import ddkit
    import ddkit.cli  # noqa: F401
    import tracing
    import workloads
    from ddkit.mc import thread_cap
    workers = thread_cap()
    if not ddkit.__file__.startswith(str(SRC)):
        raise RuntimeError(f"ddkit imported from {ddkit.__file__}, not {SRC}")
    calibrate()  # numpy's first calls are slower
    setup_s = measure_setup(workload, 1 if small else SETUP_REPEATS)
    imports = import_breakdown(workload) if trace else {}
    OUT.mkdir(exist_ok=True)
    # configs and CLI outputs live in a directory of this run's own, so
    # runs side by side cannot overwrite each other's files
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT)
    try:
        requests = workloads.build(workload, seed, workdir, small=small)
        passes, peak_rss_mb = measure(requests, seconds, trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    e2e = end_to_end(passes, setup_s, peak_rss_mb)
    with open(OUT / f"latencies-{workload}-seed{seed}.json", "w",
              encoding="utf-8") as fh:
        json.dump({"requests": [r.name for r in requests],
                   "passes": [{"traced": p.traced, "latencies": p.latencies,
                               "calibrate": p.cal} for p in passes]}, fh)
    shown = dict(e2e)
    units = dict(END_TO_END + UNGATED)
    if trace:
        layers = per_layer(passes, e2e, imports, workers)
        shown.update(layers)
        units.update(PER_LAYER)
        tracing.dump([p.tracer for p in passes if p.traced],
                     OUT / f"spans-{workload}-seed{seed}.jsonl")
        metrics = {k: {"value": layers[k], "unit": u} for k, u in PER_LAYER}
    else:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END}

    verdicts = [v for p in passes for _, v in p.verdicts]
    failed = sum(not v.ok for v in verdicts)
    n_plain = sum(not p.traced for p in passes)
    lines = [f"workload {workload}  seed {seed}  passes {len(passes)} "
             f"({n_plain} untraced)  requests/pass {len(requests)}  "
             f"latency samples {n_plain * len(requests)}  "
             f"mc workers {workers}",
             "  pass walls (raw s): " + " ".join(
                 f"{p.wall:.3f}{'t' if p.traced else ''}" for p in passes),
             "  calibrate() median per pass (ms): " + " ".join(
                 f"{statistics.median(p.cal) * 1e3:.3f}" for p in passes)]
    lines += [f"  {k:<26} {shown[k]:.6g} {units[k]}" for k in units]
    per_req = sorted(zip(request_times([p for p in passes if not p.traced]),
                         (r.name for r in requests)), reverse=True)
    lines.append("  slowest requests (scaled s): " + ", ".join(
        f"{name} {t:.3f}" for t, name in per_req[:8]))
    lines += [f"  note {name}: {v.note}" for name, v in passes[0].verdicts
              if v.note]
    seen = set()
    for p in passes:
        for name, v in p.verdicts:
            if not v.ok and name not in seen:
                seen.add(name)
                lines.append(f"  FAIL {name}: {v.detail}")
    result = {"correct": failed == 0, "attempted": len(verdicts),
              "failed": failed, "metrics": metrics}
    return lines, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("transform_grid", "pointwise_levels",
                                 "oracle_mc"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ddkit" / "__init__.py").is_file():
        print(f"no ddkit sources under {SRC}", file=sys.stderr)
        return 2
    lines, result = run(args.workload, args.seed, args.seconds,
                        bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
