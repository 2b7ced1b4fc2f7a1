import copy
import dataclasses
import json
import math
import os
import pickle

import numpy as np
import pytest

import dctc
from dctc import maxent
from dctc.channels import depolarize, superoperator, unvec, vec
from dctc.engines import (FIXED_SUBSPACE_SVD_TOL, ConvergenceError, consistency_residual,
                          ralph_closed_form)
from dctc.experiments import (
    CONTINUITY_BUDGET,
    CSV_COLUMNS,
    Fig2Config,
    Fig3Config,
    RunRow,
    _cr_pair,
    continuity_metric,
    counterexample_report,
    derive_seed,
    deutsch_rule_grid,
    run_fig2,
    run_fig3,
    transpose_asymmetry,
    write_csv,
    write_manifest,
)
from dctc.gallery import cr_eps, gallery
from dctc.maxent import max_entropy_fixed_state
from dctc.qmat import (PSD_TOL, DensityError, check_density, hermitian_basis, maximally_mixed,
                       partial_trace, trace_distance, von_neumann_entropy)

FLAT = np.diag([1 / 3, 0.0, 1 / 3, 1 / 3]).astype(complex)


def test_derive_seed():
    assert derive_seed(42, 0) == derive_seed(42, 0)
    seen = {derive_seed(42, t) for t in range(100)}
    assert len(seen) == 100
    assert derive_seed(42, 5) != derive_seed(43, 5)
    for s in seen:
        assert 0 <= s < 2 ** 64


def test_config_validation():
    with pytest.raises(ValueError):
        Fig2Config(family="thermal")
    with pytest.raises(ValueError):
        Fig2Config(s_values=(0.0, 1.5))
    with pytest.raises(ValueError):
        Fig2Config(n_random=0)
    with pytest.raises(ValueError):
        Fig2Config(p_values=(0.0, 1.0))
    with pytest.raises(ValueError):
        Fig3Config(p=0.0)
    with pytest.raises(ValueError):
        Fig3Config(eps_values=(-0.1, 0.5))
    with pytest.raises(ValueError):
        Fig3Config(family="neither")


@pytest.mark.parametrize("make", [
    lambda: Fig2Config(s_values=()),
    lambda: Fig2Config(p_values=()),
    lambda: Fig2Config(p_values=(0.0, 0.0)),
    lambda: Fig2Config(p_values=(0.01, 0.0, 0.01)),
    lambda: Fig3Config(eps_values=()),
    lambda: deutsch_rule_grid(eps_values=()),
], ids=["no-s", "no-p", "repeated-p", "repeated-p-apart", "no-eps", "grid-no-eps"])
def test_empty_and_repeated_values_rejected(make):
    """An empty value list would give a header-only CSV (or fail inside
    numpy), and a repeated noise strength would write each row twice."""
    with pytest.raises(ValueError):
        make()


def test_deutsch_rule_grid_names_a_failed_cell(fail_solve):
    """A failed solve stops the grid with the cell's populations, rather
    than leaving a NaN cell behind."""
    cause = fail_solve(2)  # row-major: cell (1, 0)
    with pytest.raises(ConvergenceError, match=r"\(eps_a, eps_b\) = \(0\.5, 0\.0\)") as info:
        deutsch_rule_grid(eps_values=(0.0, 0.5))
    assert info.value.__cause__ is cause


def test_deutsch_rule_grid_names_an_unconverged_cell(monkeypatch):
    """An ascent that stops on its step cap is a failed cell too, not a
    silent entropy."""
    monkeypatch.setattr(maxent, "GRAD_TOL", 0.0)
    monkeypatch.setattr(maxent, "MAX_ASCENT_ITER", 1)
    with pytest.raises(ConvergenceError,
                       match=r"\(eps_a, eps_b\) = \(0\.0, 0\.0\): ascent stopped unconverged"):
        deutsch_rule_grid(eps_values=(0.0, 0.5))


def test_run_fig2_small():
    cfg = Fig2Config(s_values=(0.0, 0.5), n_random=3, max_iter=2000,
                     master_seed=7)
    rec = run_fig2(cfg)
    assert rec.experiment == "fig2"
    assert len(rec.rows) == 2 * 3 * 2
    # rows come sorted by task then noise strength
    keys = [(r.task, r.p) for r in rec.rows]
    assert keys == sorted(keys)
    for r in rec.rows:
        assert r.seed == derive_seed(7, r.task)
        assert r.eps_a is None and r.eps_b is None
        assert r.status == "converged"
        assert r.s in (0.0, 0.5)
    # with noise the endpoint forgets the initial state entirely
    for s in (0.0, 0.5):
        sys = gallery()["u2"].system(rho_cr=np.diag([1 / (1 + s), s / (1 + s)]),
                                     p=0.01)
        expect = von_neumann_entropy(ralph_closed_form(sys))
        got = [r.entropy_bits for r in rec.rows if r.s == s and r.p == 0.01]
        assert len(got) == 3
        for e in got:
            assert abs(e - expect) < 1e-6


def test_run_fig2_injection():
    cfg = Fig2Config(s_values=(0.0,), n_random=2, max_iter=2000, master_seed=1)
    rec = run_fig2(cfg, inject={0: FLAT})
    r0 = [r for r in rec.rows if r.task == 0]
    assert abs(r0[0].entropy_bits - np.log2(3)) < 1e-9  # p = 0 stays put
    noisy = ralph_closed_form(gallery()["u2"].system(p=0.01))
    assert abs(r0[1].entropy_bits - von_neumann_entropy(noisy)) < 1e-6
    assert r0[0].entropy_bits > r0[1].entropy_bits + 0.01
    # the seed column still records the derived seed for injected tasks
    assert r0[0].seed == derive_seed(1, 0)
    # an index naming no task of the sweep is an error, not a no-op
    for bad in (2, 7, -1):
        with pytest.raises(ValueError, match=f"inject task index {bad} "):
            run_fig2(cfg, inject={0: FLAT, bad: FLAT})


def test_run_fig2_cycle_rows():
    cfg = Fig2Config(system="u1", s_values=(0.0,), n_random=2,
                     max_iter=2000, p_values=(0.0,))
    rec = run_fig2(cfg, inject={0: maximally_mixed(4), 1: maximally_mixed(4)})
    for r in rec.rows:
        assert r.status == "cycle"
        assert abs(r.entropy_bits - np.log2(3)) < 1e-6


def test_run_fig2_jobs_do_not_change_rows():
    cfg = Fig2Config(s_values=(0.0, 1.0), n_random=4, max_iter=1500,
                     master_seed=3)
    rows_serial = run_fig2(cfg, jobs=1).rows
    rows_parallel = run_fig2(cfg, jobs=3).rows
    assert rows_serial == rows_parallel


def test_run_fig2_builds_the_loop_map_once_per_cell(superop_builds):
    """Each (s, p) cell, p = 0 included, builds its superoperator once for
    all of its starts."""
    cfg = Fig2Config(system="u1", s_values=(0.0, 0.5, 1.0), n_random=4,
                     max_iter=200, p_values=(0.0, 0.01))
    rec = run_fig2(cfg)
    assert len(rec.rows) == 24
    assert len(superop_builds) == 6


def test_run_fig3_small():
    cfg = Fig3Config(family="mixed", eps_values=(0.0, 0.5, 1.0), p=0.1)
    rec = run_fig3(cfg)
    assert len(rec.rows) == 9
    assert rec.grid.shape == (3, 3)
    for r in rec.rows:
        assert r.status == "closed-form"
        assert r.steps == 0
        assert r.s is None
        assert r.residual < 1e-9
        i, j = divmod(r.task, 3)
        assert r.eps_a == cfg.eps_values[i]
        assert r.eps_b == cfg.eps_values[j]
        assert abs(rec.grid[i, j] - r.entropy_bits) < 1e-15
    # corner cell equals a direct closed-form solve
    sys = gallery()["u3"].system(rho_cr=cr_eps(0.0, 0.0, 0.0, 0.0), p=0.1)
    assert abs(rec.grid[0, 0]
               - von_neumann_entropy(ralph_closed_form(sys))) < 1e-12
    assert rec.info["cr_swap_symmetric"] is False
    assert np.isfinite(rec.info["transpose_asymmetry"])
    assert rec.info["max_jump"] >= 0.0
    a, b = rec.info["jump_cells"]
    assert abs(a[0] - b[0]) + abs(a[1] - b[1]) == 1
    assert "continuity_budget" not in rec.info  # only pinned on the full grid


def _reference_cell(cfg, task):
    """The per-cell worker the stacked grid replaced, written out as the
    lone real solve on the cell's Hermitian-basis coordinates and the
    residual of the cell's real noisy map on them: the reference
    ``run_fig3``'s rows must match bit for bit. The state is also the
    complex-vec solve it replaced within ``100 eps / p``, and the residual
    the complex pass ``depolarize(Tr_CR(u (rho_cr (x) tau) u^dag))`` it
    replaced within 1e-15."""
    i, j = divmod(task, len(cfg.eps_values))
    ea, eb = cfg.eps_values[i], cfg.eps_values[j]
    sys = gallery()["u3"].system(rho_cr=_cr_pair(cfg.family, ea, eb), p=cfg.p)
    d, p = sys.d_cv, cfg.p
    u = sys.u.reshape(sys.split.d_cr, d, sys.split.d_cr, d)
    m = np.einsum("abce,cf,agfh->gbhe", u, sys.rho_cr, u.conj(),
                  optimize=True).reshape(d * d, d * d)
    b = hermitian_basis(d)
    mr = (b.conj().T @ m @ b).real
    c = np.linalg.solve(np.eye(d * d) - (1.0 - p) * mr,
                        p * (vec(maximally_mixed(d)) @ b.conj()).real)
    c = c / c[:d].sum()
    tau = (c @ b.T).reshape(d, d).T
    guard = max(PSD_TOL, 100.0 * np.finfo(float).eps / p)
    tau = check_density(tau, psd_tol=guard)
    old = unvec(np.linalg.solve(np.eye(d * d, dtype=complex) - (1.0 - p) * m,
                                p * vec(maximally_mixed(d))))
    old = 0.5 * (old + old.conj().T)
    assert np.abs(tau - old / np.real(np.trace(old))).max() < 100.0 * np.finfo(float).eps / p
    noisy = (1.0 - p) * m + p * np.outer(vec(maximally_mixed(d)), vec(np.eye(d)))
    step = (b.conj().T @ noisy @ b).real.copy() @ c - c  # contiguous, so BLAS runs the matvec
    resid = 0.5 * np.abs(np.linalg.eigvalsh((step @ b.T).reshape(d, d).T)).sum()
    out = partial_trace(sys.u @ np.kron(sys.rho_cr, tau) @ sys.u.conj().T, sys.split)
    assert abs(resid - trace_distance(depolarize(0.5 * (out + out.conj().T), p), tau)) < 1e-15
    return RunRow("fig3", cfg.family, None, ea, eb, p, task,
                  derive_seed(cfg.master_seed, task), "closed-form",
                  von_neumann_entropy(tau), resid, 0)


def _row_bits(row):
    return tuple(v.hex() if isinstance(v, float) else v for v in dataclasses.astuple(row))


@pytest.mark.parametrize("p", [0.5, 0.1, 1e-3])
@pytest.mark.parametrize("family", ["mixed", "pure"])
def test_run_fig3_rows_match_the_per_cell_reference(family, p):
    """Every row of the stacked grid is the per-cell worker's, bit for bit,
    on the default grid and on one with populations at 1e-12 and 1 - 1e-9."""
    for eps in (Fig3Config().eps_values, (0.0, 1e-12, 1e-9, 0.3, 0.5, 1 - 1e-9, 1.0)):
        cfg = Fig3Config(family=family, eps_values=eps, p=p, master_seed=5)
        rows = run_fig3(cfg).rows
        assert len(rows) == len(eps) ** 2
        assert [_row_bits(r) for r in rows] == [_row_bits(_reference_cell(cfg, t))
                                                for t in range(len(rows))]


def test_run_fig3_names_a_failed_cell(bad_loop_map):
    """A cell whose fixed point fails its density check stops the grid with
    the cell's populations, chained to the check's error."""
    bad_loop_map(2)  # row-major: cell (1, 0)
    with pytest.raises(ConvergenceError, match=r"\(eps_a, eps_b\) = \(0\.5, 0\.0\)") as info:
        run_fig3(Fig3Config(eps_values=(0.0, 0.5)))
    assert isinstance(info.value.__cause__, DensityError)
    assert info.value.__cause__.index == (2,)
    assert "negative eigenvalue" in str(info.value)


def test_run_fig3_default_grid_carries_budget():
    for family in ("mixed", "pure"):
        rec = run_fig3(Fig3Config(family=family))
        assert rec.info["continuity_budget"] == CONTINUITY_BUDGET[family]
        assert rec.grid.shape == (11, 11)


def test_transpose_asymmetry():
    assert transpose_asymmetry(np.array([[1.0, 2.0], [2.0, 3.0]])) == 0.0
    assert transpose_asymmetry(np.array([[0.0, 1.0], [2.0, 0.0]])) == 1.0


def test_continuity_metric():
    jump, _ = continuity_metric(np.zeros((3, 3)))
    assert jump == 0.0
    jump, cells = continuity_metric(np.array([[0.0, 1.0], [0.0, 1.0]]))
    assert jump == 1.0
    assert cells[0][0] == cells[1][0]  # a rightward neighbor pair
    jump, cells = continuity_metric(np.array([[0.0, 0.0], [1.0, 3.0]]))
    assert jump == 3.0
    assert cells == ((0, 1), (1, 1))
    # NaN cells are skipped: the largest finite jump is 0.9, downward
    jump, cells = continuity_metric(np.array([[0.0, 0.5], [0.9, np.nan]]))
    assert jump == 0.9
    assert cells == ((0, 0), (1, 0))
    jump, cells = continuity_metric(np.full((2, 2), np.nan))
    assert np.isnan(jump) and cells is None
    with pytest.raises(ValueError):
        continuity_metric(np.zeros((1, 3)))
    with pytest.raises(ValueError):
        continuity_metric(np.zeros(4))


def test_deutsch_rule_grid_has_a_cliff():
    grid = deutsch_rule_grid(eps_values=(0.0, 0.1))
    assert grid.shape == (2, 2)
    assert not np.isnan(grid).any()
    assert grid[0, 0] > 0.99          # both CR qubits exactly ket-0
    assert grid[1, 0] < 0.05          # a 0.1 population pins the ground state
    assert abs(grid[0, 0] - grid[1, 0]) >= 0.9


EDGE = (0.0, 1e-12, 1e-9, 1e-6, 1e-3, 0.5, 1 - 1e-3, 1 - 1e-6, 1 - 1e-9, 1 - 1e-12, 1.0)
PAULI = (np.array([[0, 1], [1, 0]], dtype=complex),
         np.array([[0, -1j], [1j, 0]]),
         np.diag([1.0, -1.0]).astype(complex))
# Cliff cells (a singular value of M - Id in [1e-12, 1e-6]) whose answer
# the kernel tolerance decides: counting their singular value near 1e-9 as
# zero gives another state than resolving it.
TOLERANCE_DECIDES = {
    "mixed": {(1, 2), (2, 0), (2, 1), (2, 2)},
    "pure": {(1, 2), (1, 8), (2, 0), (2, 1), (2, 2), (2, 8), (2, 9)},
}


def _bloch_max_entropy(m, cut):
    """Reference: the largest entropy of a consistent qubit state.

    Consistent Bloch vectors solve ``(I - T) r = t`` for the Bloch form of
    the loop map ``m``; the most mixed is the minimum-norm solution, with
    singular values of ``I - T`` at or below ``cut`` counted as zero.
    """
    def image(x):
        return (m @ x.reshape(-1, order="F")).reshape(2, 2, order="F")

    t = np.array([np.trace(s @ image(np.eye(2) / 2)).real for s in PAULI])
    tm = np.array([[np.trace(si @ image(sj / 2)).real for sj in PAULI] for si in PAULI])
    u, sv, vt = np.linalg.svd(np.eye(3) - tm)
    keep = sv > cut
    r = vt[keep].T @ ((u[:, keep].T @ t) / sv[keep])
    norm = min(float(np.linalg.norm(r)), 1.0)
    return von_neumann_entropy(np.diag([(1 + norm) / 2, (1 - norm) / 2]))


@pytest.mark.parametrize("family", ["mixed", "pure"])
def test_deutsch_rule_edge_populations(family):
    """u3 at populations down to 1e-12 from 0 and 1: no NaN cell, every
    answer consistent, and every answer the qubit reference's."""
    grid = deutsch_rule_grid(EDGE, family=family)
    assert not np.isnan(grid).any()
    # no cell is negative or -0.0, pure answers included
    assert all(math.copysign(1.0, x) == 1.0 for x in grid.flat)
    cliff, outside, decided = set(), set(), set()
    for i, ea in enumerate(EDGE):
        for j, eb in enumerate(EDGE):
            sys = gallery()["u3"].system(rho_cr=_cr_pair(family, ea, eb))
            res = max_entropy_fixed_state(sys)
            assert res.entropy_bits == grid[i, j]
            assert consistency_residual(sys, res.state) < 1e-9
            m = superoperator(sys)
            sv = np.linalg.svd(m - np.eye(4), compute_uv=False)
            near = sv[(sv >= 1e-12) & (sv <= 1e-6)]
            if not near.size:
                assert abs(res.entropy_bits - _bloch_max_entropy(m, 1e-9)) < 1e-8
                continue
            # A cliff cell lands on the side of the kernel tolerance its small
            # singular value lies on, and matches the reference cut there.
            cliff.add((i, j))
            if near.min() > FIXED_SUBSPACE_SVD_TOL:
                outside.add((i, j))
            assert abs(res.entropy_bits
                       - _bloch_max_entropy(m, FIXED_SUBSPACE_SVD_TOL)) < 1e-8
            if abs(res.entropy_bits - _bloch_max_entropy(m, 1e-10)) > 1e-8:
                decided.add((i, j))
    assert len(cliff) == 16
    assert outside == {(0, 7), (3, 10)}
    assert decided == TOLERANCE_DECIDES[family]


def test_counterexample_report_contents():
    rep = counterexample_report()
    assert set(rep) == {"cycle", "bistable", "kraus", "selection"}

    cyc = rep["cycle"]
    assert cyc["status"] == "cycle"
    assert cyc["period"] == 3
    assert len(cyc["cycle_states"]) == 3
    assert abs(cyc["orbit_average_entropy_bits"] - np.log2(3)) < 1e-6

    rows = rep["bistable"]["rows"]
    assert len(rows) == 4
    assert {r["tau0"] for r in rows} == {"maximally-mixed", "orbit-average"}
    by_key = {(r["tau0"], r["p"]): r for r in rows}
    assert abs(by_key[("maximally-mixed", 0.0)]["entropy_bits"] - 1.5) < 1e-6
    assert abs(by_key[("orbit-average", 0.0)]["entropy_bits"]
               - np.log2(3)) < 1e-6
    # noise erases the dependence on the initial state
    assert abs(by_key[("maximally-mixed", 0.01)]["entropy_bits"]
               - by_key[("orbit-average", 0.01)]["entropy_bits"]) < 1e-6

    kr = rep["kraus"]
    assert kr["operator_count"] == 4
    assert kr["completeness_defect"] < 1e-9
    assert kr["channel_distance_to_reference"] < 1e-6
    assert abs(kr["commutator_residual_mm"] - np.sqrt(2) / 4) < 1e-9

    sel = rep["selection"]
    assert abs(sel["max_entropy_entropy_bits"] - np.log2(3)) < 1e-4
    assert abs(sel["decohered_limit_entropy_bits"] - 1.5) < 1e-12
    limit = np.array(sel["decohered_limit_state"]["real"])
    assert np.abs(limit - np.diag([0.5, 0.0, 0.25, 0.25])).max() < 1e-12
    assert sel["limit_distance_at_p_1e-8"] < 1e-6
    assert sel["rules_agree"] is False
    probes = {p["p"]: p["entropy_bits"] for p in sel["decohered_probes"]}
    assert probes[1e-8] < probes[1e-4] < probes[0.01]

    json.dumps(rep)  # the whole report must serialize as-is


def test_write_csv_format(tmp_path):
    rows = [
        RunRow("fig2", "mixed", 0.5, None, None, 0.01, 3, 12345, "converged",
               1.5, 1e-10, 42),
        RunRow("fig3", "pure", None, 0.1, 0.2, 0.1, 0, 99, "closed-form",
               0.918295834054, 0.0, 0),
    ]
    path = os.path.join(tmp_path, "rows.csv")
    write_csv(rows, path)
    with open(path, "rb") as fh:
        data = fh.read()
    assert b"\r" not in data
    lines = data.decode("utf-8").splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert lines[1] == "fig2,mixed,0.5,,,0.01,3,12345,converged,1.5,1e-10,42"
    assert lines[2] == ("fig3,pure,,0.1,0.2,0.1,0,99,closed-form,"
                        "0.918295834054,0,0")


def test_run_row_is_slotted_and_frozen():
    """Rows carry no per-instance ``__dict__``, stay immutable, and copy and
    pickle to equal rows."""
    row = RunRow("fig2", "mixed", 0.5, None, None, 0.01, 3, 12345, "converged",
                 1.5, 1e-10, 42)
    assert not hasattr(row, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        row.steps = 0
    assert copy.deepcopy(row) == row
    assert pickle.loads(pickle.dumps(row)) == row


def test_write_csv_deterministic(tmp_path):
    cfg = Fig2Config(s_values=(0.0,), n_random=3, max_iter=1000)
    p1 = os.path.join(tmp_path, "a.csv")
    p2 = os.path.join(tmp_path, "b.csv")
    write_csv(run_fig2(cfg).rows, p1)
    write_csv(run_fig2(cfg).rows, p2)
    with open(p1, "rb") as fh:
        b1 = fh.read()
    with open(p2, "rb") as fh:
        b2 = fh.read()
    assert b1 == b2


def test_write_manifest(tmp_path):
    rec = run_fig3(Fig3Config(eps_values=(0.0, 1.0), p=0.1))
    path = os.path.join(tmp_path, "manifest.json")
    write_manifest(rec, path)
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    assert doc["experiment"] == "fig3"
    assert doc["row_count"] == 4
    assert doc["config"]["p"] == 0.1
    assert isinstance(doc["version"], str)
    assert doc["version"] == dctc.__version__
    assert doc["wall_time_s"] >= 0.0
    assert doc["info"]["cr_swap_symmetric"] is False
