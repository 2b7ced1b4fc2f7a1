"""Span tracing of dctc's layers from outside the package.

``Tracer.install`` rebinds every name under which a dctc module holds one
of ``LAYER_FUNCTIONS`` (its defining module, the modules that imported
it, and the package namespace) to a thin wrapper that records a span;
``Tracer.restore`` puts the originals back. Nothing under ``src/`` is
edited: the wrappers only see public arguments and return values.

Spans are folded as they close into per-function totals of calls,
inclusive seconds and self seconds (inclusive minus the time covered by
child spans), plus the counters the hooks below read off return values.
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
import time
from collections import Counter

# Time and ratio metrics of a layer whose wrappers saw no call: the layer
# was bypassed by the workload, so there is nothing to report, which is
# not the same as a layer that took 0 s.
UNMEASURED = -1.0

MODULES = ("qmat", "channels", "engines", "maxent", "gallery", "experiments", "cli")

# (module, function) pairs wrapped in a traced run.
LAYER_FUNCTIONS = (
    ("qmat", "check_density"),
    ("qmat", "von_neumann_entropy"),
    ("qmat", "trace_distance"),
    ("qmat", "random_density"),
    ("channels", "superoperator"),
    ("engines", "ralph_iterate"),
    ("engines", "ralph_closed_form"),
    ("engines", "fixed_subspace"),
    ("engines", "deutsch_cesaro"),
    ("engines", "limit_superoperator"),
    ("maxent", "max_entropy_fixed_state"),
    ("maxent", "entropy_gradient"),
    ("gallery", "gallery"),
    ("experiments", "run_fig2"),
    ("experiments", "run_fig3"),
    ("experiments", "deutsch_rule_grid"),
    ("experiments", "counterexample_report"),
    ("experiments", "write_csv"),
    ("experiments", "write_manifest"),
)

CLI_COMMANDS = ("demo", "sweep", "surface", "maxent", "fixedpoints", "kraus")


def _ralph_iterate_hook(tracer, dur, out, args, kwargs):
    counts = tracer.counts
    sys_ = args[0] if args else kwargs["sys"]
    counts["engines.ralph_iterate.steps"] += out.steps
    counts[f"engines.status.{out.status}"] += 1
    kind = "noisy" if sys_.p > 0 else "p0"
    counts[f"engines.ralph_iterate.{kind}.steps"] += out.steps
    counts[f"engines.ralph_iterate.{kind}.s"] += dur
    if kind == "noisy":
        # One step is a complex (d^2 x d^2) matvec: d^4 multiply-adds, 8 flops each.
        counts["engines.ralph_iterate.noisy.flops"] += 8 * sys_.d_cv ** 4 * out.steps


def _deutsch_cesaro_hook(tracer, dur, out, args, kwargs):
    tracer.counts["engines.deutsch_cesaro.steps"] += out.steps


def _max_entropy_hook(tracer, dur, out, args, kwargs):
    tracer.counts["maxent.max_entropy_fixed_state.iterations"] += out.iterations


def _superoperator_hook(tracer, dur, out, args, kwargs):
    sys_ = args[0] if args else kwargs["sys"]
    noisy = args[1] if len(args) > 1 else kwargs.get("include_noise", False)
    tracer.systems.add((sys_.u.tobytes(), sys_.rho_cr.tobytes(),
                        float(sys_.p) if noisy else 0.0))


# Read public fields of a wrapped function's arguments and return value.
HOOKS = {
    "channels.superoperator": _superoperator_hook,
    "engines.ralph_iterate": _ralph_iterate_hook,
    "engines.deutsch_cesaro": _deutsch_cesaro_hook,
    "maxent.max_entropy_fixed_state": _max_entropy_hook,
}


class Tracer:
    """Per-function span totals for one traced phase.

    ``stats[name]`` is ``[calls, seconds, self_seconds]``; ``top_s`` sums
    the spans that had no parent span; ``op_done`` closes one workload
    operation (it bounds the distinct-system count behind
    ``channels.superoperator.reuse_ratio``).
    """

    def __init__(self):
        self.stats: dict[str, list] = {}
        self.counts: Counter = Counter()
        self.top_s = 0.0
        self.cli_import_s: list[float] = []
        self.systems: set = set()   # distinct superoperator inputs in this operation
        self._stack: list[float] = []
        self._saved: list[tuple] = []

    def span(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``."""
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        stack.append(0.0)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = time.perf_counter() - t0
            child = stack.pop()
            stats[0] += 1
            stats[1] += dur
            stats[2] += dur - child
            if stack:
                stack[-1] += dur
            else:
                self.top_s += dur

    def _wrap(self, name, fn):
        hook = HOOKS.get(name)

        def traced(*args, **kwargs):
            t0 = time.perf_counter()
            out = self.span(name, fn, *args, **kwargs)
            if hook is not None:
                hook(self, time.perf_counter() - t0, out, args, kwargs)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    def install(self):
        """Rebind every dctc name bound to a layer function; raise
        ``LookupError`` naming the first one that no longer exists."""
        for mod, fname in LAYER_FUNCTIONS:
            module = importlib.import_module(f"dctc.{mod}")
            if not hasattr(module, fname):
                self.restore()
                raise LookupError(f"dctc.{mod}.{fname} no longer exists")
            orig = getattr(module, fname)
            wrapper = self._wrap(f"{mod}.{fname}", orig)
            holders = [m for key, m in sys.modules.items()
                       if key == "dctc" or key.startswith("dctc.")]
            for holder in holders:
                for attr, value in list(vars(holder).items()):
                    if value is orig:
                        setattr(holder, attr, wrapper)
                        self._saved.append((holder, attr, orig))

    def restore(self):
        """Put back every name ``install`` rebound."""
        while self._saved:
            holder, attr, orig = self._saved.pop()
            setattr(holder, attr, orig)

    def op_done(self):
        """Close one workload operation."""
        self.counts["channels.superoperator.distinct"] += len(self.systems)
        self.systems.clear()

    def to_json(self) -> dict:
        return {"stats": self.stats, "counts": dict(self.counts),
                "cli_import_s": self.cli_import_s}

    def merge(self, doc: dict):
        """Add the totals of another tracer, given as its ``to_json``."""
        for name, (calls, secs, self_s) in doc["stats"].items():
            st = self.stats.setdefault(name, [0, 0.0, 0.0])
            st[0] += calls
            st[1] += secs
            st[2] += self_s
        self.counts.update(doc["counts"])
        self.cli_import_s.extend(doc["cli_import_s"])

    def metrics(self, *, ops: int, wall_s: float, untraced_wall_s: float,
                top_s: float) -> dict[str, tuple[float, str]]:
        """Every per-layer metric as ``name -> (value, unit)``.

        ``wall_s`` is the traced phase, ``untraced_wall_s`` the same
        operations run untraced, and ``top_s`` the time the phase's
        top-level spans cover.
        """
        out: dict[str, tuple[float, str]] = {}
        stats, counts = self.stats, self.counts

        def calls(name):
            return stats.get(name, (0, 0.0, 0.0))[0]

        def timed(name, idx):
            return stats[name][idx] if calls(name) else UNMEASURED

        def ratio(num, den):
            return num / den if den else UNMEASURED

        for mod, fname in LAYER_FUNCTIONS:
            name = f"{mod}.{fname}"
            out[f"{name}.calls"] = (calls(name), "count")
            out[f"{name}.s"] = (timed(name, 1), "s")
            out[f"{name}.self_s"] = (timed(name, 2), "s")
        for cmd in CLI_COMMANDS:
            out[f"cli.{cmd}.s"] = (timed(f"cli.{cmd}", 1), "s")
        for mod in MODULES:
            spans = [st for name, st in stats.items()
                     if name.split(".")[0] == mod and st[0]]
            out[f"{mod}.self_s"] = (sum(st[2] for st in spans) if spans else UNMEASURED, "s")
        out["cli.import_s"] = (statistics.median(self.cli_import_s)
                               if self.cli_import_s else UNMEASURED, "s")

        for key in ("steps", "noisy.steps", "p0.steps"):
            out[f"engines.ralph_iterate.{key}"] = (counts[f"engines.ralph_iterate.{key}"], "count")
        for kind in ("noisy", "p0"):
            out[f"engines.ralph_iterate.{kind}.us_per_step"] = (
                ratio(1e6 * counts[f"engines.ralph_iterate.{kind}.s"],
                      counts[f"engines.ralph_iterate.{kind}.steps"]), "us")
        out["engines.ralph_iterate.noisy.mflops"] = (
            ratio(1e-6 * counts["engines.ralph_iterate.noisy.flops"],
                  counts["engines.ralph_iterate.noisy.s"]), "MFLOP/s")
        for status in ("converged", "cycle", "exhausted"):
            out[f"engines.status.{status}"] = (counts[f"engines.status.{status}"], "count")
        out["engines.deutsch_cesaro.steps"] = (counts["engines.deutsch_cesaro.steps"], "count")
        out["maxent.max_entropy_fixed_state.iterations"] = (
            counts["maxent.max_entropy_fixed_state.iterations"], "count")
        out["channels.superoperator.reuse_ratio"] = (
            ratio(counts["channels.superoperator.distinct"],
                  calls("channels.superoperator")), "ratio")

        out["trace.ops"] = (ops, "count")
        out["trace.wall_s"] = (wall_s, "s")
        out["trace.overhead_frac"] = ((wall_s - untraced_wall_s) / untraced_wall_s, "ratio")
        out["trace.unaccounted_frac"] = ((wall_s - top_s) / wall_s, "ratio")
        return out


def cli_child():
    """Entry point of one traced CLI process.

    Usage: ``python -c "...; cli_child()" STATS_JSON SUBCOMMAND [ARGS...]``.
    Imports ``dctc.cli`` (timed), runs the subcommand inside a
    ``cli.<subcommand>`` span with the layer wrappers installed, writes
    the tracer totals to STATS_JSON and exits with the command's code.
    """
    stats_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    cli = importlib.import_module("dctc.cli")
    import_s = time.perf_counter() - t0
    tracer = Tracer()
    tracer.cli_import_s.append(import_s)
    tracer.install()
    try:
        code = tracer.span(f"cli.{argv[0]}", cli.run, argv)
    finally:
        tracer.restore()
    tracer.op_done()
    with open(stats_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.to_json(), fh)
    sys.exit(code)
