"""Batch experiment protocols with seeded, machine-readable output.

Three protocols cover the package's headline results:

* ``run_fig2``: an entropy scatter over random initial CV states, each
  iterated with and without depolarizing noise, showing which consistent
  state the noiseless orbit lands on versus the unique noisy one.
* ``run_fig3``: entropy surfaces of the unique noisy consistent state over
  a grid of CR input populations, with a pinned continuity budget.
* ``counterexample_report``: the four claims that separate the selection
  rules, executed end to end (period-3 cycling, bistability, the
  iterated-map Kraus form, and the two rules' disagreement).

Every row of every experiment is reproducible from ``(master_seed, task)``
through a counter-based SHA-256 seed split, so task-level parallelism
cannot change the output. CSV artifacts use a single fixed schema; columns
that do not apply to an experiment are left empty.
"""

from __future__ import annotations

import hashlib
import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__
from .channels import (channel_distance, choi_matrix,
                       kraus_commutator_residual, kraus_completeness_defect,
                       kraus_from_choi, noisy_cv_map, superoperator_from_kraus)
from .engines import (ConvergenceError, EngineConfig, limit_superoperator,
                      ralph_closed_form, ralph_iterate, ralph_iterate_many)
from .gallery import (cr_eps, cr_mixed, cr_pure, cr_swap_symmetric, gallery,
                      limit_kraus_ops)
from .maxent import max_entropy_fixed_state
from .qmat import maximally_mixed, random_density, trace_distance, von_neumann_entropy

# Maximum adjacent-cell entropy jump allowed on the default 11x11 noisy
# surface at p = 0.1, per CR-input family. Measured in a pre-build run of
# the closed-form solver over the same grid (mixed 0.319597272, pure
# 0.292635315) and pinned with about one percent of headroom; a run that
# exceeds its budget has regressed.
CONTINUITY_BUDGET = {"mixed": 0.3230, "pure": 0.2960}
CONTINUITY_BUDGET_P = 0.1

_DEFAULT_GRID = tuple(round(0.1 * i, 10) for i in range(11))

CSV_COLUMNS = ("experiment", "family", "s", "eps_a", "eps_b", "p", "task",
               "seed", "status", "entropy_bits", "residual", "steps")

_U64 = (1 << 64) - 1


def derive_seed(master_seed: int, task: int) -> int:
    """Counter-based seed split: a 64-bit seed from (master_seed, task).

    Hash-based so that tasks can run in any order, or concurrently, and
    still draw identical randomness.
    """
    h = hashlib.sha256(b"dctc-task"
                       + (master_seed & _U64).to_bytes(8, "little")
                       + (task & _U64).to_bytes(8, "little")).digest()
    return int.from_bytes(h[:8], "little")


@dataclass(frozen=True)
class RunRow:
    """One CSV row; fields that do not apply to the experiment are None."""

    experiment: str
    family: str
    s: float | None
    eps_a: float | None
    eps_b: float | None
    p: float
    task: int
    seed: int
    status: str
    entropy_bits: float
    residual: float
    steps: int


@dataclass(frozen=True)
class RunRecord:
    """An experiment's output: config echo, ordered rows, and extras."""

    experiment: str
    config: dict
    rows: tuple[RunRow, ...]
    wall_time_s: float
    grid: np.ndarray | None = None
    info: dict = field(default_factory=dict)


def _check_unit_interval(name, values):
    for v in values:
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"{name} value {v} outside [0, 1]")


@dataclass(frozen=True)
class Fig2Config:
    """Entropy scatter sweep: random initial CV states iterated with and
    without noise, across a family of CR inputs.

    Defaults are the full published scale (1000 states, 10000 iterations);
    the command line defaults to a desk scale and opts into this via a
    flag.
    """

    family: str = "mixed"
    s_values: tuple[float, ...] = _DEFAULT_GRID
    n_random: int = 1000
    max_iter: int = 10000
    p_values: tuple[float, ...] = (0.0, 0.01)
    master_seed: int = 42
    system: str = "u2"

    def __post_init__(self):
        object.__setattr__(self, "s_values", tuple(self.s_values))
        object.__setattr__(self, "p_values", tuple(self.p_values))
        if self.family not in ("mixed", "pure"):
            raise ValueError(f"unknown CR family {self.family!r}")
        if self.n_random < 1:
            raise ValueError("n_random must be at least 1")
        _check_unit_interval("s", self.s_values)
        for p in self.p_values:
            if not 0.0 <= p < 1.0:
                raise ValueError(f"noise strength p={p} outside [0, 1)")


@dataclass(frozen=True)
class Fig3Config:
    """Continuity surface: closed-form consistent-state entropy over a grid
    of CR populations (eps_alpha, eps_beta), one row per cell.

    The pure family puts the off-diagonal element at its PSD ceiling
    sqrt(eps (1 - eps)); the mixed family keeps it at zero. The published
    surfaces use p = 0.1 and p = 0.001; the default here is 0.1, the value
    the continuity budget is pinned at.
    """

    family: str = "pure"
    eps_values: tuple[float, ...] = _DEFAULT_GRID
    p: float = 0.1
    max_iter: int = 10000
    master_seed: int = 42
    system: str = "u3"

    def __post_init__(self):
        object.__setattr__(self, "eps_values", tuple(self.eps_values))
        if self.family not in ("mixed", "pure"):
            raise ValueError(f"unknown CR family {self.family!r}")
        _check_unit_interval("eps", self.eps_values)
        if not 0.0 < self.p < 1.0:
            raise ValueError(f"closed-form solve needs 0 < p < 1, got {self.p}")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


def _cr_qubit(family: str, s: float) -> np.ndarray:
    return cr_mixed(s) if family == "mixed" else cr_pure(s)


def _cr_pair(family: str, eps_a: float, eps_b: float) -> np.ndarray:
    if family == "mixed":
        da = db = 0.0
    else:
        da = np.sqrt(eps_a * (1.0 - eps_a))
        db = np.sqrt(eps_b * (1.0 - eps_b))
    return cr_eps(eps_a, da, eps_b, db)


def _run_tasks(worker, tasks, jobs: int):
    if jobs <= 1:
        return [worker(t) for t in tasks]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(worker, tasks))


def run_fig2(cfg: Fig2Config, *, jobs: int = 1, inject=None) -> RunRecord:
    """Run the entropy scatter sweep.

    Each task is one (s, initial state) pair; its initial CV state is
    drawn from the Ginibre ensemble with the task's derived seed, then
    iterated once per configured noise strength (same initial state for
    all of them). The work is split into (s, p) cells: a p > 0 cell runs
    all its starts in one ``ralph_iterate_many`` call, a p = 0 cell runs
    ``ralph_iterate`` per start. Cycle outcomes carry the cycle-average
    entropy and keep their "cycle" status tag.

    ``inject`` optionally maps a task index to an explicit initial state
    that replaces the seeded draw for that task; the seed column still
    records the derived seed. An index outside the sweep's tasks raises
    ``ValueError``. ``jobs`` sets thread-level parallelism over cells and
    never affects the output rows.
    """
    t_start = time.monotonic()
    sysdef = gallery()[cfg.system]
    d = sysdef.split.d_cv
    ecfg = EngineConfig(max_iter=cfg.max_iter)
    inject = {} if inject is None else dict(inject)
    n_tasks = len(cfg.s_values) * cfg.n_random
    for task in inject:
        if task not in range(n_tasks):
            raise ValueError(f"inject task index {task!r} outside range({n_tasks})")

    seeds = [derive_seed(cfg.master_seed, task) for task in range(n_tasks)]
    starts = [inject[task] if task in inject else random_density(d, seeds[task])
              for task in range(n_tasks)]

    def worker(cell):
        si, p = cell
        s = cfg.s_values[si]
        sys = sysdef.system(rho_cr=_cr_qubit(cfg.family, s), p=p)
        tasks = range(si * cfg.n_random, (si + 1) * cfg.n_random)
        cell_starts = [starts[task] for task in tasks]
        if p > 0.0:
            outs = ralph_iterate_many(sys, cell_starts, ecfg)
        else:
            outs = [ralph_iterate(sys, tau0, ecfg) for tau0 in cell_starts]
        return [RunRow("fig2", cfg.family, s, None, None, p, task, seeds[task],
                       out.status, von_neumann_entropy(out.state),
                       out.residual, out.steps)
                for task, out in zip(tasks, outs)]

    cells = [(si, p) for si in range(len(cfg.s_values)) for p in cfg.p_values]
    chunks = _run_tasks(worker, cells, jobs)
    rows = sorted((r for ch in chunks for r in ch),
                  key=lambda r: (r.task, r.p))
    return RunRecord("fig2", asdict(cfg), tuple(rows),
                     time.monotonic() - t_start)


def run_fig3(cfg: Fig3Config, *, jobs: int = 1) -> RunRecord:
    """Run the continuity surface.

    One task per (eps_alpha, eps_beta) cell, row-major; each solves the
    noisy fixed point in closed form and records its entropy. The returned
    record carries the entropy grid, the adjacent-cell continuity metric
    with its pinned budget (when one is recorded for this family and p),
    and a CR-swap symmetry check: if the circuit is invariant under
    swapping the two CR qubits the grid must be transpose-symmetric.
    """
    t_start = time.monotonic()
    sysdef = gallery()[cfg.system]
    n = len(cfg.eps_values)
    tasks = list(range(n * n))

    def worker(task):
        i, j = divmod(task, n)
        ea, eb = cfg.eps_values[i], cfg.eps_values[j]
        sys = sysdef.system(rho_cr=_cr_pair(cfg.family, ea, eb), p=cfg.p)
        tau = ralph_closed_form(sys)
        resid = trace_distance(noisy_cv_map(sys, tau), tau)
        return RunRow("fig3", cfg.family, None, ea, eb, cfg.p, task,
                      derive_seed(cfg.master_seed, task), "closed-form",
                      von_neumann_entropy(tau), resid, 0)

    rows = sorted(_run_tasks(worker, tasks, jobs), key=lambda r: r.task)
    grid = np.array([r.entropy_bits for r in rows]).reshape(n, n)

    info = {}
    if sysdef.split.d_cr == 4:
        symmetric = cr_swap_symmetric(sysdef.unitary, sysdef.split)
        info["cr_swap_symmetric"] = symmetric
        info["transpose_asymmetry"] = transpose_asymmetry(grid)
        if symmetric and info["transpose_asymmetry"] > 1e-9:
            raise AssertionError(
                "CR-swap symmetric circuit produced an asymmetric grid")
    if n >= 2:
        jump, cells = continuity_metric(grid)
        info["max_jump"] = jump
        info["jump_cells"] = [list(cells[0]), list(cells[1])]
        if cfg.p == CONTINUITY_BUDGET_P and cfg.eps_values == _DEFAULT_GRID:
            info["continuity_budget"] = CONTINUITY_BUDGET[cfg.family]
    return RunRecord("fig3", asdict(cfg), tuple(rows),
                     time.monotonic() - t_start, grid=grid, info=info)


def transpose_asymmetry(grid) -> float:
    """Largest absolute difference between a grid and its transpose."""
    g = np.asarray(grid, dtype=float)
    return float(np.abs(g - g.T).max())


def continuity_metric(grid):
    """Maximum absolute entropy difference between 4-neighbor adjacent
    cells, with the argmax cell pair ((i, j), (i2, j2)).

    Pairs touching a NaN cell are skipped; when no pair is finite the
    result is ``(nan, None)``.
    """
    g = np.asarray(grid, dtype=float)
    if g.ndim != 2 or g.shape[0] < 2 or g.shape[1] < 2:
        raise ValueError(f"need a grid of at least 2x2 cells, got {g.shape}")
    down = np.abs(np.diff(g, axis=0))
    right = np.abs(np.diff(g, axis=1))
    jumps = np.concatenate([down.ravel(), right.ravel()])
    finite = np.isfinite(jumps)
    if not finite.any():
        return float("nan"), None
    # Row-major over the downward pairs first, so ties resolve to them.
    k = int(np.argmax(np.where(finite, jumps, -1.0)))
    if k < down.size:
        i, j = divmod(k, down.shape[1])
        return float(jumps[k]), ((i, j), (i + 1, j))
    i, j = divmod(k - down.size, right.shape[1])
    return float(jumps[k]), ((i, j), (i, j + 1))


def deutsch_rule_grid(eps_values=_DEFAULT_GRID, family: str = "mixed",
                      system: str = "u3") -> np.ndarray:
    """Entropy grid for the maximum-entropy selection rule at p = 0.

    One maximum-entropy solve per (eps_alpha, eps_beta) cell. Cells where
    the solver cannot certify an interior consistent state are recorded as
    NaN rather than aborting the grid.
    """
    _check_unit_interval("eps", eps_values)
    sysdef = gallery()[system]
    n = len(eps_values)
    grid = np.full((n, n), np.nan)
    for i, ea in enumerate(eps_values):
        for j, eb in enumerate(eps_values):
            sys = sysdef.system(rho_cr=_cr_pair(family, ea, eb))
            try:
                grid[i, j] = max_entropy_fixed_state(sys).entropy_bits
            except (ConvergenceError, ValueError):
                pass
    return grid


def _mat_json(m) -> dict:
    a = np.asarray(m)
    return {"real": np.real(a).tolist(), "imag": np.imag(a).tolist()}


def _cycle_section(cyc) -> dict:
    """Section (a): the u1 orbit ``cyc`` from the maximally mixed state,
    its period-3 cycle and the cycle's orbit average."""
    cesaro = cyc.state if cyc.status == "cycle" else None
    return {
        "status": cyc.status,
        "period": cyc.period,
        "cycle_states": [_mat_json(s) for s in (cyc.cycle_states or ())],
        "orbit_average": _mat_json(cesaro) if cesaro is not None else None,
        "orbit_average_entropy_bits":
            von_neumann_entropy(cesaro) if cesaro is not None else None,
        "steps": cyc.steps,
    }


def _bistable_section(g) -> dict:
    """Section (b): u2 from two initial states, with and without noise."""
    starts = [("maximally-mixed", maximally_mixed(4)),
              ("orbit-average", np.diag([1 / 3, 0, 1 / 3, 1 / 3]).astype(complex))]
    rows = []
    for label, tau0 in starts:
        for p in (0.0, 0.01):
            out = ralph_iterate(g["u2"].system(p=p), tau0)
            rows.append({
                "tau0": label, "p": p, "status": out.status,
                "entropy_bits": von_neumann_entropy(out.state),
                "residual": out.residual, "steps": out.steps,
                "state": _mat_json(out.state),
            })
    return {"rows": rows}


def _kraus_section(g) -> dict:
    """Section (c): Kraus form of u2's iterated-map limit, its completeness
    and the reference set's non-commutation at the maximally mixed state."""
    lim = limit_superoperator(g["u2"].system())
    extracted = kraus_from_choi(choi_matrix(lim))
    reference = limit_kraus_ops()
    return {
        "operator_count": len(extracted),
        "completeness_defect": kraus_completeness_defect(extracted),
        "channel_distance_to_reference":
            channel_distance(lim, superoperator_from_kraus(reference)),
        "commutator_residual_mm": kraus_commutator_residual(reference, maximally_mixed(4)),
        "operators": [_mat_json(e) for e in extracted],
    }


def _selection_section(g) -> dict:
    """Section (d): u2's maximum-entropy choice against the vanishing-noise
    limit of the closed form."""
    sel = max_entropy_fixed_state(g["u2"].system())
    probes = []
    for p in (0.01, 1e-4, 1e-8):
        tau = ralph_closed_form(g["u2"].system(p=p))
        probes.append({"p": p,
                       "entropy_bits": von_neumann_entropy(tau),
                       "state": _mat_json(tau)})
    limit_state = np.diag([0.5, 0.0, 0.25, 0.25]).astype(complex)
    return {
        "max_entropy_entropy_bits": sel.entropy_bits,
        "max_entropy_state": _mat_json(sel.state),
        "decohered_probes": probes,
        "decohered_limit_state": _mat_json(limit_state),
        "decohered_limit_entropy_bits": von_neumann_entropy(limit_state),
        "limit_distance_at_p_1e-8": trace_distance(
            ralph_closed_form(g["u2"].system(p=1e-8)), limit_state),
        "rules_agree": bool(abs(sel.entropy_bits
                                - von_neumann_entropy(limit_state)) < 1e-6),
    }


def counterexample_report() -> dict:
    """Execute and collect the four results separating the selection rules.

    (a) the period-3 cycle and its orbit average, (b) the bistability
    table (two initial states, with and without noise), (c) the Kraus form
    of the iterated-map limit with its completeness and non-commutation
    numbers, and (d) the maximum-entropy choice against the vanishing-noise
    limit of the closed form. JSON-serializable throughout.
    """
    g = gallery()
    return {"cycle": _cycle_section(ralph_iterate(g["u1"].system(), maximally_mixed(4))),
            "bistable": _bistable_section(g),
            "kraus": _kraus_section(g),
            "selection": _selection_section(g)}


def _fmt_field(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (bool, np.bool_)):
        return str(bool(v)).lower()
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return "%.12g" % float(v)
    return str(v)


def write_csv(rows, path) -> None:
    """Write rows in the fixed schema; 12 significant digits, UTF-8, LF."""
    lines = [",".join(CSV_COLUMNS)]
    for r in rows:
        lines.append(",".join(_fmt_field(getattr(r, c)) for c in CSV_COLUMNS))
    with open(path, "wb") as fh:
        fh.write(("\n".join(lines) + "\n").encode("utf-8"))


def _write_json(path, doc) -> None:
    """Write ``doc`` as sorted, indented JSON with a trailing newline."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_manifest(record: RunRecord, path) -> None:
    """Write the run manifest: config echo, code version, wall time."""
    _write_json(path, {
        "experiment": record.experiment,
        "config": record.config,
        "version": __version__,
        "wall_time_s": record.wall_time_s,
        "row_count": len(record.rows),
        "info": _json_safe(record.info),
    })


def _json_safe(obj):
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    return obj
