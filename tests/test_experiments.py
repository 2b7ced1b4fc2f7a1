import json
import os

import numpy as np
import pytest

import dctc
from dctc.engines import ralph_closed_form
from dctc.experiments import (
    CONTINUITY_BUDGET,
    CSV_COLUMNS,
    Fig2Config,
    Fig3Config,
    RunRow,
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
from dctc.qmat import maximally_mixed, von_neumann_entropy

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
