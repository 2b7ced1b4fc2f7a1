"""Benchmark of dctc, built from the checkout's own source tree.

Usage::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Workloads: sweep-noisy, sweep-cycle,
surface, cli (see NOTES.md). With ``--trace 0`` the last line of standard
output is a JSON object holding every end-to-end metric of BENCHMARK.json;
with ``--trace 1`` it holds every per-layer metric, from a replay of the
same operations with span wrappers installed. The line before it,
``bench-info {...}``, carries the environment, the CSV digest, the failure
fraction and the sample counts. Exit code 2 means the checkout has no
dctc source, 3 that a traced name no longer exists.
"""

from __future__ import annotations

import os

# Pin BLAS threads before numpy is imported anywhere, children included.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_REPS = 7
PERCENTILES = (50, 75)


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("sweep-noisy", "sweep-cycle", "surface", "cli"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # A child process that only sets the workload up and prints how long it took.
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def environment() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = "unknown"
    revision = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=10)
            revision = proc.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "git_revision": revision,
        "platform": platform.platform(),
    }


def setup_probe(args, scratch: Path) -> float:
    """Import, gallery, inputs and warm-up, timed from before numpy loads."""
    t0 = time.perf_counter()
    import workloads
    workloads.WORKLOADS[args.workload](args.seed, scratch).setup()
    return time.perf_counter() - t0


def setup_samples(args) -> list[float]:
    """``SETUP_REPS`` cold set-ups, each in a fresh process."""
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--setup-probe"]
    out = []
    for _ in range(SETUP_REPS):
        proc = subprocess.run(cmd, cwd=str(ROOT), capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr[-2000:]}")
        out.append(float(proc.stdout.split()[-1]))
    return out


def percentile(values, pct) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def median_block_rate(latencies, rows, blocks: int) -> float:
    """Median over ``blocks`` consecutive, equal-count blocks of operations
    of the rows they produced per second of their latency. A median moves
    less than a mean with the seconds-long drifts in the speed of a shared
    core."""
    n = len(latencies)
    rates = []
    for b in range(blocks):
        lo, hi = b * n // blocks, (b + 1) * n // blocks
        rates.append(sum(rows[lo:hi]) / sum(latencies[lo:hi]))
    return statistics.median(rates)


def peak_rss_mb(workload: str) -> float:
    """Largest resident set: of this process, or for ``cli`` of its children."""
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def run(args, spec, scratch: Path):
    import workloads
    from tracer import UNMEASURED, Tracer

    wl = workloads.WORKLOADS[args.workload](args.seed, scratch)
    t0 = time.perf_counter()
    wl.setup()
    info = {"setup_in_process_s": time.perf_counter() - t0}

    if args.trace:
        untraced = wl.measure(seconds=args.seconds / 2)
        tracer = Tracer()
        try:
            tracer.install()
        except LookupError as exc:
            print(f"error: {exc}", file=sys.stderr)
            sys.exit(3)
        if args.workload == "cli":
            # Installed only to check the names: each command process
            # installs its own wrappers and the totals are merged here.
            tracer.restore()
        try:
            traced = wl.measure(ops=len(untraced.latencies), tracer=tracer)
        finally:
            tracer.restore()
        phases = (untraced, traced)
    else:
        phases = (wl.measure(seconds=args.seconds),)
        rss = peak_rss_mb(args.workload)
        # After the measured phase, so that for cli the children's peak
        # resident set is that of the commands alone.
        info["setup_s_samples"] = setup_samples(args)

    checks = [wl.check(ph) for ph in phases]
    attempted, failed, rows = (sum(op[i] for c in checks for op in c) for i in range(3))
    first = phases[0]
    if args.trace:
        top_s = sum(traced.latencies) if args.workload == "cli" else tracer.top_s
        computed = tracer.metrics(ops=len(traced.latencies), wall_s=traced.wall,
                                  untraced_wall_s=untraced.wall, top_s=top_s)
        wanted = spec["per_layer"]
        info["unmeasured"] = sorted(k for k, (v, _) in computed.items() if v == UNMEASURED)
    else:
        computed = {
            "setup_s": (statistics.median(info["setup_s_samples"]), "s"),
            "rows_per_s": (median_block_rate(first.latencies, [op[2] for op in checks[0]],
                                             wl.blocks(len(first.latencies))), "rows/s"),
            "peak_rss_mb": (rss, "MB"),
        }
        for pct in PERCENTILES:
            computed[f"cmd_s_p{pct}"] = (percentile(first.latencies, pct), "s")
        wanted = spec["end_to_end"]
    p75 = percentile(first.latencies, 75)
    info.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(),
        "ops": len(first.latencies), "rows": rows, "wall_s": first.wall,
        "attempted": attempted, "failed": failed, "fail_frac": failed / max(attempted, 1),
        "latency_samples": len(first.latencies),
        "latency_samples_beyond_p75": sum(x > p75 for x in first.latencies),
        "csv_sha256": wl.csv_sha256(first),
    })
    for msg in wl.checker.problems[:20]:
        print(f"check failed: {msg}", file=sys.stderr)

    metrics = {}
    for m in wanted:
        value, unit = computed[m["name"]]
        if unit != m["unit"]:
            raise RuntimeError(f"{m['name']}: unit {unit}, BENCHMARK.json says {m['unit']}")
        metrics[m["name"]] = {"value": value, "unit": unit}
    print("bench-info " + json.dumps(info, sort_keys=True))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "dctc" / "__init__.py").is_file():
        print(f"error: no dctc source under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(ROOT / "src"))
    out_root = ROOT / ".bench_out"
    out_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=out_root))
    try:
        if args.setup_probe:
            print(f"{setup_probe(args, scratch):.9f}")
            return 0
        result = run(args, spec, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            out_root.rmdir()
        except OSError:
            pass   # another run still uses it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
