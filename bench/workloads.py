"""The four benchmark workloads and the checks on their output.

Each workload is a closed loop: operation ``k + 1`` is issued only when
operation ``k`` has returned. The inputs of operation ``k`` are a pure
function of ``(seed, k)``, so a traced replay of the same operations sees
the same inputs. Output checks compare against ``reference``, which does
not call dctc. See NOTES.md for why each workload is shaped as it is.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import dctc
from dctc import experiments
import reference
from tracer import Tracer

BENCH_DIR = Path(__file__).resolve().parent
GRID = tuple(round(0.1 * i, 10) for i in range(11))   # the CLI's default s grid
SURFACE_GRID = tuple(round(0.2 * i, 10) for i in range(6))   # --grid-step 0.2

ENTROPY_TOL = 1e-6    # bits; see NOTES.md for how it follows from the engines' tol
CLOSED_FORM_TOL = 1e-8
RESIDUAL_TOL = 1e-9
SQRT2_OVER_4 = math.sqrt(2.0) / 4.0


def mix(*parts) -> int:
    """A 63-bit integer seed from the given parts."""
    h = hashlib.sha256(":".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(h[:8], "little") >> 1


def cr_state(family: str, s: float) -> np.ndarray:
    """CR qubit of the sweep families, from their documented formulas."""
    if family == "mixed":
        return np.diag([1.0, s]).astype(complex) / (1.0 + s)
    v = np.array([1.0, s], dtype=complex)
    return np.outer(v, v) / (1.0 + s * s)


def cr_pair(family: str, eps_a: float, eps_b: float) -> np.ndarray:
    """Two-qubit CR input of the surface families: each factor is
    ``[[1-eps, delta], [delta, eps]]`` with ``delta = 0`` (mixed) or at its
    PSD ceiling ``sqrt(eps (1 - eps))`` (pure)."""
    def qubit(eps):
        delta = 0.0 if family == "mixed" else math.sqrt(eps * (1.0 - eps))
        return np.array([[1.0 - eps, delta], [delta, eps]], dtype=complex)
    return np.kron(qubit(eps_a), qubit(eps_b))


class Checker:
    """Row checks against reference answers, cached per circuit input."""

    def __init__(self):
        g = dctc.gallery()
        self.unitary = {name: g[name].unitary for name in ("u1", "u2", "u3")}
        self._cache: dict = {}
        self.problems: list[str] = []

    def _ref(self, key, fn):
        if key not in self._cache:
            self._cache[key] = fn()
        return self._cache[key]

    def fail(self, msg: str) -> bool:
        self.problems.append(msg)
        return False

    def sweep_row(self, system, family, s, p, seed, status, entropy, residual) -> bool:
        """A ``run_fig2`` row: p > 0 against the closed form, p = 0 against
        the Cesaro average of the row's own initial state."""
        u, rho = self.unitary[system], cr_state(family, s)
        where = f"{system} {family} s={s} p={p} seed={seed}"
        if residual > RESIDUAL_TOL:
            return self.fail(f"{where}: residual {residual:.3e}")
        if p > 0:
            if status != "converged":
                return self.fail(f"{where}: status {status}")
            want = self._ref(("cf", system, family, s, p),
                             lambda: reference.entropy_bits(reference.closed_form_state(u, rho, p)))
        else:
            if status not in ("converged", "cycle"):
                return self.fail(f"{where}: status {status}")
            proj = self._ref(("ces", system, family, s),
                             lambda: reference.cesaro_projector(u, rho))
            tau0 = dctc.random_density(u.shape[0] // rho.shape[0], seed)
            want = reference.entropy_bits(reference.cesaro_state(proj, tau0))
        if not abs(entropy - want) <= ENTROPY_TOL:
            return self.fail(f"{where}: entropy {entropy!r}, reference {want!r}")
        return True

    def surface_cell(self, rule, family, eps_a, eps_b, p, entropy, residual) -> bool:
        """A u3 surface cell: the revised rule against the closed form, the
        Deutsch rule against the qubit maximum-entropy reference."""
        rho = cr_pair(family, eps_a, eps_b)
        u = self.unitary["u3"]
        where = f"{rule} {family} eps=({eps_a}, {eps_b}) p={p}"
        if not math.isfinite(entropy):
            return self.fail(f"{where}: entropy {entropy}")
        if rule == "revised":
            if residual > RESIDUAL_TOL:
                return self.fail(f"{where}: residual {residual:.3e}")
            want = reference.entropy_bits(reference.closed_form_state(u, rho, p))
            tol = CLOSED_FORM_TOL
        else:
            want = self._ref(("maxent", family, eps_a, eps_b),
                             lambda: reference.qubit_max_entropy_bits(u, rho))
            tol = ENTROPY_TOL
        if not abs(entropy - want) <= tol:
            return self.fail(f"{where}: entropy {entropy!r}, reference {want!r}")
        return True


class InProcess:
    """A workload whose operations are calls into the library."""

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.scratch = scratch

    def blocks(self, n_ops: int) -> int:
        """Throughput is a median over blocks of operations with the same
        mix of work: here every operation is one."""
        return n_ops

    def setup(self):
        self.checker = Checker()
        self.warm_up()

    def measure(self, seconds=None, ops=None, tracer: Tracer | None = None):
        """Issue operations until ``seconds`` have passed or ``ops`` are done."""
        lat, outs = [], []
        t0 = time.perf_counter()
        k = 0
        while (ops is None and time.perf_counter() - t0 < seconds) or (ops is not None and k < ops):
            t = time.perf_counter()
            try:
                out = self.op(k)
            except Exception as exc:  # a failed operation counts, the run goes on
                out = exc
                print(f"operation {k} raised {exc!r}", file=sys.stderr)
            lat.append(time.perf_counter() - t)
            if tracer is not None:
                tracer.op_done()
            outs.append(out)
            k += 1
        return Phase(time.perf_counter() - t0, lat, outs)

    def check(self, phase) -> list[tuple[int, int, int]]:
        """``(attempted, failed, rows)`` for each of the phase's operations."""
        out = []
        for k, result in enumerate(phase.outputs):
            want = self.expected_rows(k)
            if isinstance(result, Exception):
                out.append((want, want, 0))
                continue
            got = self.csv_rows(k, result)
            ok = sum(self.check_row(k, r) for r in got)
            out.append((want, want - min(ok, want), len(got)))
        return out

    def csv_sha256(self, phase) -> str:
        """Over the CSV ``write_csv`` makes of the first operation's rows."""
        out = phase.outputs[0]
        if isinstance(out, Exception):
            return "none"
        path = self.scratch / "rows.csv"
        experiments.write_csv(self.csv_rows(0, out), path)
        return hashlib.sha256(path.read_bytes()).hexdigest()


@dataclass
class Phase:
    """One measured phase: its wall time, and per operation the latency and
    the output (or the exception it raised)."""

    wall: float
    latencies: list
    outputs: list


class Sweep(InProcess):
    """``run_fig2`` on the s values ``s_values(k)`` with ``n_random`` seeded
    starts each; every operation has its own master seed."""

    def __init__(self, seed, scratch, *, system, s_values, p_values, n_random):
        super().__init__(seed, scratch)
        self.system, self.s_values, self.p_values = system, s_values, p_values
        self.n_random = n_random

    def config(self, k, n_random=None):
        return experiments.Fig2Config(
            family="mixed", s_values=self.s_values(k), n_random=n_random or self.n_random,
            max_iter=2000, p_values=self.p_values,
            master_seed=mix("sweep", self.system, self.seed, k), system=self.system)

    def warm_up(self):
        experiments.run_fig2(self.config(0, n_random=1))

    def op(self, k):
        return experiments.run_fig2(self.config(k))

    def expected_rows(self, k):
        return len(self.config(k).s_values) * self.n_random * len(self.p_values)

    def csv_rows(self, k, out):
        return out.rows

    def check_row(self, k, r):
        seed = experiments.derive_seed(self.config(k).master_seed, r.task)
        if r.seed != seed:
            return self.checker.fail(f"task {r.task}: seed {r.seed}, expected {seed}")
        return self.checker.sweep_row(self.system, "mixed", r.s, r.p, r.seed,
                                      r.status, r.entropy_bits, r.residual)


def sweep_noisy(seed, scratch):
    offset = mix("offset", seed) % len(GRID)
    return Sweep(seed, scratch, system="u2", p_values=(0.0, 0.01), n_random=8,
                 s_values=lambda k: (GRID[(offset + k) % len(GRID)],))


def sweep_cycle(seed, scratch):
    return Sweep(seed, scratch, system="u1", p_values=(0.0,), n_random=12,
                 s_values=lambda k: (0.0, 0.5, 1.0))


class Surface(InProcess):
    """Both u3 families under both rules on the ``--grid-step 0.2`` grid;
    the revised rule's p is drawn per operation, log-uniform in
    [1e-3, 1e-1] (the published surfaces use 0.1 and 0.001)."""

    def p_value(self, k):
        return float(10.0 ** np.random.default_rng(mix("surface", self.seed, k)).uniform(-3, -1))

    def warm_up(self):
        experiments.run_fig3(experiments.Fig3Config(family="pure", eps_values=(0.0, 1.0)))
        experiments.deutsch_rule_grid((0.0, 1.0), family="pure")

    def op(self, k):
        p = self.p_value(k)
        seed = mix("surface-seed", self.seed, k)
        out = {}
        for family in ("mixed", "pure"):
            out[("revised", family)] = experiments.run_fig3(experiments.Fig3Config(
                family=family, eps_values=SURFACE_GRID, p=p, master_seed=seed)).rows
            out[("deutsch", family)] = experiments.deutsch_rule_grid(SURFACE_GRID, family=family)
        return out

    def expected_rows(self, k):
        return 4 * len(SURFACE_GRID) ** 2

    def csv_rows(self, k, out):
        rows = []
        for (rule, family), value in out.items():
            if rule == "revised":
                rows.extend(value)
                continue
            n = len(SURFACE_GRID)
            for task in range(n * n):
                i, j = divmod(task, n)
                rows.append(experiments.RunRow(
                    "deutsch-rule", family, None, SURFACE_GRID[i], SURFACE_GRID[j], 0.0,
                    task, 0, "max-entropy", float(value[i, j]), None, 0))
        return rows

    def check_row(self, k, r):
        rule = "revised" if r.experiment == "fig3" else "deutsch"
        return self.checker.surface_cell(rule, r.family, r.eps_a, r.eps_b, r.p,
                                         r.entropy_bits, r.residual)


CLI_RUN = "import sys; from dctc.cli import run; sys.exit(run(sys.argv[1:]))"
CLI_TRACED = (f"import sys; sys.path.insert(0, {str(BENCH_DIR)!r}); "
              "from tracer import cli_child; cli_child()")


class Cli:
    """Cold processes, one per subcommand, in rounds of a fixed mix.

    A round starts only while time is left and always runs to its end,
    so every run holds whole rounds and the latency mix is the same.
    """

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.scratch = scratch
        root = BENCH_DIR.parent
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.cwd = str(root)

    def commands(self, r):
        """The subcommands of round ``r``."""
        rng = np.random.default_rng(mix("cli", self.seed, r))
        p = round(float(10.0 ** rng.uniform(-3, -1)), 6)
        seed = mix("cli-seed", self.seed, r) % 10**9
        return [
            ["demo", "u1-cycle"],
            ["demo", "u2-bistable"],
            ["demo", "kraus-refutation"],
            ["maxent", "--system", "u2"],
            ["fixedpoints", "--system", "u2"],
            ["kraus", "--system", "u2"],
            ["surface", "--rule", "revised", "--family", "pure", "--p", repr(p),
             "--grid-step", "0.2", "--seed", str(seed)],
            ["surface", "--rule", "deutsch", "--family", "mixed", "--grid-step", "0.2"],
            ["sweep", "--s-values", "0,0.5,1", "--n-random", "2", "--seed", str(seed)],
        ]

    def blocks(self, n_ops: int) -> int:
        """Throughput is a median over blocks of the same mix: one per round."""
        return n_ops // len(self.commands(0))

    def setup(self):
        """What a cold CLI process does before its command: import, the
        gallery, the command list; then one in-process warm-up command."""
        from dctc import cli
        dctc.gallery()
        self.checker = Checker()
        self.commands(0)
        out = self.scratch / "warm-up"
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.run(["fixedpoints", "--system", "u2", "--out-dir", str(out)])
        if code != 0:
            raise RuntimeError(f"warm-up command exited with {code}")

    def measure(self, seconds=None, ops=None, tracer: Tracer | None = None):
        """Run whole rounds while ``seconds`` remain, or exactly ``ops``
        commands (a multiple of the round size)."""
        lat, outs = [], []
        t0 = time.perf_counter()
        r = 0
        while (ops is None and time.perf_counter() - t0 < seconds) or (ops is not None and len(outs) < ops):
            for i, argv in enumerate(self.commands(r)):
                out_dir = self.scratch / f"{'t' if tracer else 'u'}{r}-{i}"
                out_dir.mkdir(parents=True)
                full = argv + ["--out-dir", str(out_dir)]
                if tracer is None:
                    cmd = [sys.executable, "-c", CLI_RUN] + full
                else:
                    cmd = [sys.executable, "-c", CLI_TRACED, str(out_dir / "trace.json")] + full
                t = time.perf_counter()
                try:
                    proc = subprocess.run(cmd, env=self.env, cwd=self.cwd, capture_output=True,
                                          timeout=120)
                    code, err = proc.returncode, proc.stderr.decode(errors="replace")[-400:]
                except subprocess.TimeoutExpired:
                    code, err = "timeout", ""
                lat.append(time.perf_counter() - t)
                if code != 0:
                    print(f"dctc {' '.join(argv)} exited with {code}: {err}", file=sys.stderr)
                if tracer is not None and (out_dir / "trace.json").exists():
                    tracer.merge(json.loads((out_dir / "trace.json").read_text()))
                outs.append((argv, out_dir, code))
            r += 1
        return Phase(time.perf_counter() - t0, lat, outs)

    def check(self, phase) -> list[tuple[int, int, int]]:
        """``(attempted, failed, rows)`` for each command of the phase."""
        out = []
        for argv, out_dir, code in phase.outputs:
            n, ok = self.check_command(argv, out_dir, code)
            out.append((1, int(not ok), n))
        return out

    def check_command(self, argv, out_dir: Path, code) -> tuple[int, bool]:
        """``(csv rows written, passed)`` for one finished command."""
        c = self.checker
        if code != 0:
            return 0, c.fail(f"{argv}: exit code {code}")
        table = []
        try:
            for path in sorted(out_dir.glob("*.csv")):
                with open(path, newline="", encoding="utf-8") as fh:
                    table.extend(csv.DictReader(fh))
            ok = self._check_artifacts(argv, out_dir, table)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            ok = c.fail(f"{argv}: unreadable artifact: {exc!r}")
        return len(table), ok

    def _check_artifacts(self, argv, out_dir, table) -> bool:
        c = self.checker
        cmd = argv[0]

        def doc(name):
            return json.loads((out_dir / name).read_text(encoding="utf-8"))

        if cmd == "demo" and argv[1] == "u1-cycle":
            period = doc("demo_u1_cycle.json")["period"]
            return period == 3 or c.fail(f"demo u1-cycle: period {period}")
        if cmd == "demo" and argv[1] == "kraus-refutation":
            res = doc("demo_kraus_refutation.json")["commutator_residual_mm"]
            return abs(res - SQRT2_OVER_4) <= 1e-9 or c.fail(f"kraus-refutation: residual {res}")
        if cmd == "demo":
            noisy = {round(float(r["entropy_bits"]), 6) for r in table if float(r["p"]) > 0}
            clean = {round(float(r["entropy_bits"]), 6) for r in table if float(r["p"]) == 0}
            return (len(table) == 4 and len(noisy) == 1 and len(clean) == 2) or \
                c.fail(f"demo u2-bistable: p=0 entropies {clean}, p>0 entropies {noisy}")
        if cmd == "maxent":
            s = doc("maxent.json")["entropy_bits"]
            return abs(s - math.log2(3)) <= ENTROPY_TOL or c.fail(f"maxent u2: entropy {s}")
        if cmd == "fixedpoints":
            dim = doc("fixedpoints.json")["dimension"]
            return dim == 3 or c.fail(f"fixedpoints u2: dimension {dim}")
        if cmd == "kraus":
            d = doc("kraus.json")
            return (d["operator_count"] == 4 and d["completeness_defect"] <= 1e-9
                    and abs(d["reference_commutator_residual"] - SQRT2_OVER_4) <= 1e-9) or \
                c.fail(f"kraus u2: {d['operator_count']} operators, "
                       f"residual {d['reference_commutator_residual']}")
        if cmd == "surface":
            rule = argv[argv.index("--rule") + 1]
            n = len(SURFACE_GRID) ** 2
            good = sum(c.surface_cell(rule, r["family"], float(r["eps_a"]), float(r["eps_b"]),
                                      float(r["p"]), float(r["entropy_bits"]),
                                      float(r["residual"] or 0.0)) for r in table)
            return (len(table) == n and good == n) or c.fail(f"surface {rule}: {good}/{n} cells")
        if cmd == "sweep":
            good = sum(c.sweep_row("u2", "mixed", float(r["s"]), float(r["p"]), int(r["seed"]),
                                   r["status"], float(r["entropy_bits"]), float(r["residual"]))
                       for r in table)
            return (len(table) == 12 and good == 12) or c.fail(f"sweep: {good}/{len(table)} rows")
        raise ValueError(f"no check for {argv}")

    def csv_sha256(self, phase) -> str:
        """Over the CSV files of the first round, in command order."""
        h = hashlib.sha256()
        n = len(self.commands(0))
        for argv, out_dir, code in phase.outputs[:n]:
            for path in sorted(out_dir.glob("*.csv")):
                h.update(path.read_bytes())
        return h.hexdigest()


WORKLOADS = {
    "sweep-noisy": sweep_noisy,
    "sweep-cycle": sweep_cycle,
    "surface": Surface,
    "cli": Cli,
}
