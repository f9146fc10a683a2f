"""Spans around calls into ddkit's public functions, from outside the package.

Each wrapped function records a span (name, parent span, request id,
start, end) and, for some functions, counts read from its arguments and
return value.  A layer's self time is the time of its spans minus the
time of their direct children, so every instant is charged to the
innermost layer that was running.

ddkit imports several functions by name (``laws`` binds
``batch_endpoints``, ``solve_local_basis``, ``scale_density`` and
``scale_diff``; ``basis`` binds ``scale_density``; the package binds
most public names), so each wrapper replaces the function in every
``ddkit`` module namespace that holds it, not only where it is defined.
``cli`` and ``verify`` call ``laws.*``, ``mc.*`` and ``invlap.*`` through
the module, which the same replacement covers.

Spans are kept in memory; ``dump`` writes them out once the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# (module, function names); the module prefix is the span's layer
TRACED = (
    ("models", ("scale_density", "scale_diff", "scale")),
    ("basis", ("batch_endpoints", "solve_local_basis")),
    ("laws", ("b_factor", "c_hat", "nu", "max_tail", "max_density",
              "tail_curve", "joint_transform", "run_up_transform",
              "conditional_curve", "conditional_laplace", "hitting_laplace",
              "exit_probability", "exit_transform", "tau_cdf")),
    ("invlap", ("invert_sweep",)),
    ("mc", ("simulate", "paired_simulate", "excursion_counts")),
    ("verify", ("verification_report", "excursion_report",
                "dt_pair_simulate")),
    ("cli", ("main",)),
)

# name of the span around each evaluation of a transform handed to
# invert_sweep: laws code, run on behalf of the inversion
TRANSFORM_EVAL = "laws.transform_eval"


def _ddkit_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "ddkit" or name.startswith("ddkit."))]


def _rebind(fn, wrapper):
    """Bind wrapper wherever fn is bound in a ddkit namespace."""
    saved = []
    for mod in _ddkit_modules():
        for attr, val in list(vars(mod).items()):
            if val is fn:
                saved.append((mod, attr, fn))
                setattr(mod, attr, wrapper)
    return saved


def _restore(saved):
    for mod, attr, fn in reversed(saved):
        setattr(mod, attr, fn)


class Tracer:
    """Span recorder and per-layer counters for one traced pass."""

    def __init__(self):
        self.spans = []       # [id, parent, request, name, t0, t1, self_s]
        self._stack = []      # [span id, child time] of open spans
        self.request = None
        self.counts = defaultdict(float)
        self.maxima = defaultdict(float)
        self._saved = []

    # -- recording --------------------------------------------------------
    def span(self, name, fn, after=None, wrap_args=None):
        layer = name.split(".", 1)[0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if wrap_args is not None:
                args, kwargs = wrap_args(args, kwargs)
            sid = len(self.spans)
            parent = self._stack[-1][0] if self._stack else -1
            rec = [sid, parent, self.request, name, 0.0, 0.0, 0.0]
            self.spans.append(rec)
            frame = [sid, 0.0]
            self._stack.append(frame)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                dur = t1 - t0
                rec[4], rec[5], rec[6] = t0, t1, dur - frame[1]
                if self._stack:
                    self._stack[-1][1] += dur
                self.counts[layer + ".self_s"] += dur - frame[1]
            if after is not None:
                after(args, kwargs, out, dur)
            return out
        return wrapper

    def _count_basis_batch(self, args, kwargs, ep, dur):
        rows = len(args[2]) if len(args) > 2 else len(kwargs["l"])
        c = self.counts
        if rows > 1:
            c["basis.batched_calls"] += 1
            c["basis.batched_rows"] += rows
            c["basis.batched_s"] += dur
        else:
            c["basis.single_calls"] += 1
            c["basis.single_s"] += dur
        c["basis.accepted_steps"] += rows * ep.n_steps
        self.maxima["basis.max_w_drift"] = max(self.maxima["basis.max_w_drift"],
                                               ep.w_drift)

    def _count_basis_dense(self, args, kwargs, sb, dur):
        c = self.counts
        c["basis.single_calls"] += 1
        c["basis.single_s"] += dur
        c["basis.accepted_steps"] += sb.meta["n_steps"]
        self.maxima["basis.max_w_drift"] = max(self.maxima["basis.max_w_drift"],
                                               sb.meta["w_drift"])

    def _count_inversion(self, args, kwargs, res, dur):
        self.counts["invlap.inversions"] += 1
        self.maxima["invlap.max_disagreement"] = max(
            self.maxima["invlap.max_disagreement"], res.disagreement)

    def _wrap_transform(self, args, kwargs):
        """Wrap the transform handed to invert_sweep in a counted span."""
        def counted(_args, _kwargs, _out, _dur):
            self.counts["invlap.transform_evals"] += 1
        if args:
            args = (self.span(TRANSFORM_EVAL, args[0], counted),) + args[1:]
        else:
            kwargs = dict(kwargs, transform=self.span(
                TRANSFORM_EVAL, kwargs["transform"], counted))
        return args, kwargs

    def _count_paths(self, args, kwargs, out, dur):
        cols = out if isinstance(out, tuple) else (out,)
        c = self.counts
        c["mc.simulate_s"] += dur
        for col in cols:
            c["mc.paths"] += len(col.tau_hat)
            c["mc.simulated_paths"] += len(col.tau_hat)
            c["mc.path_steps"] += float((col.tau_hat / col.cfg.dt).round().sum())
            c["mc.unstopped"] += int((~col.stopped).sum())

    def _count_excursions(self, args, kwargs, out, dur):
        self.counts["mc.excursion_s"] += dur
        self.counts["mc.paths"] += len(out[0])

    def _count_call(self, key):
        def after(args, kwargs, out, dur):
            self.counts[key] += 1
        return after

    # -- install / remove -------------------------------------------------
    def install(self):
        import ddkit.cli  # noqa: F401  (loads every module named in TRACED)
        special = {
            "basis.batch_endpoints": dict(after=self._count_basis_batch),
            "basis.solve_local_basis": dict(after=self._count_basis_dense),
            "invlap.invert_sweep": dict(after=self._count_inversion,
                                        wrap_args=self._wrap_transform),
            "mc.simulate": dict(after=self._count_paths),
            "mc.paired_simulate": dict(after=self._count_paths),
            "mc.excursion_counts": dict(after=self._count_excursions),
            "cli.main": dict(after=self._count_call("cli.calls")),
        }
        for modname, names in TRACED:
            mod = sys.modules["ddkit." + modname]
            for fname in names:
                name = f"{modname}.{fname}"
                opts = special.get(name)
                if opts is None:
                    key = ("models.scale_calls" if modname == "models"
                           else "laws.calls" if modname == "laws" else None)
                    opts = dict(after=self._count_call(key)) if key else {}
                fn = getattr(mod, fname)
                self._saved += _rebind(fn, self.span(name, fn, **opts))

    def uninstall(self):
        _restore(self._saved)
        self._saved = []


def dump(tracers, path):
    """Write the spans of every traced pass, one JSON array per line."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(["pass", "id", "parent", "request", "name",
                             "start", "end", "self_s"]) + "\n")
        for i, tracer in enumerate(tracers):
            for rec in tracer.spans:
                fh.write(json.dumps([i] + rec) + "\n")
