import numpy as np
import pytest

from dctc.channels import CtcSystem, apply_superoperator, cv_map, superoperator
from dctc.engines import (
    ConvergenceError,
    EngineConfig,
    allen_cesaro,
    consistency_residual,
    deutsch_cesaro,
    fixed_subspace,
    limit_superoperator,
    ralph_closed_form,
    ralph_iterate,
    ralph_iterate_many,
)
from dctc.gallery import gallery
from dctc.qmat import DimSplit, maximally_mixed, random_density, trace_distance

STABLE = np.diag([0.5, 0.0, 0.25, 0.25]).astype(complex)
FLAT = np.diag([1 / 3, 0.0, 1 / 3, 1 / 3]).astype(complex)
CYCLE_SET = [np.diag([0.5, 0.0, 0.25, 0.25]).astype(complex),
             np.diag([0.25, 0.0, 0.25, 0.5]).astype(complex),
             np.diag([0.25, 0.0, 0.5, 0.25]).astype(complex)]
SWAP2 = np.array([[1, 0, 0, 0],
                  [0, 0, 1, 0],
                  [0, 1, 0, 0],
                  [0, 0, 0, 1]], dtype=complex)


def test_engine_config_validation():
    with pytest.raises(ValueError):
        EngineConfig(max_iter=0)
    with pytest.raises(ValueError):
        EngineConfig(tol=0.0)
    with pytest.raises(ValueError):
        EngineConfig(cycle_window=1)


def test_cycle_detection_period_three():
    sys = gallery()["u1"].system()
    out = ralph_iterate(sys, maximally_mixed(4))
    assert out.status == "cycle"
    assert out.period == 3
    # the cycle states match the known trio as a set, up to rotation
    for ref in CYCLE_SET:
        assert min(trace_distance(ref, c) for c in out.cycle_states) < 1e-9
    # the reported state is the cycle average
    mean = sum(out.cycle_states) / 3
    assert trace_distance(out.state, mean) < 1e-10
    assert trace_distance(out.state, FLAT) < 1e-9


def test_bistable_converges_from_maximally_mixed():
    sys = gallery()["u2"].system()
    out = ralph_iterate(sys, maximally_mixed(4))
    assert out.status == "converged"
    assert np.abs(out.state - STABLE).max() < 1e-9
    assert out.residual < 1e-10


def test_bistable_flat_state_persists():
    sys = gallery()["u2"].system()
    out = ralph_iterate(sys, FLAT)
    assert out.status == "converged"
    assert np.abs(out.state - FLAT).max() < 1e-9


def test_bistable_noise_tips_the_selection():
    """With depolarization both starting points land on the same state."""
    p = 0.01
    sys = gallery()["u2"].system(p=p)
    target = np.diag([(2 - p) / 4, p / 4, 0.25, 0.25]).astype(complex)
    cfg = EngineConfig(tol=1e-12)
    for tau0 in (maximally_mixed(4), FLAT):
        out = ralph_iterate(sys, tau0, cfg)
        assert out.status == "converged"
        assert np.abs(out.state - target).max() < 1e-8
    assert trace_distance(target, STABLE) < 0.02


def test_ralph_closed_form_value():
    sys = gallery()["u2"].system(p=0.01)
    tau = ralph_closed_form(sys)
    assert np.abs(tau - np.diag([0.4975, 0.0025, 0.25, 0.25])).max() < 1e-12


def test_ralph_closed_form_monotone_in_p():
    dists = []
    for p in (0.1, 0.01, 0.001):
        tau = ralph_closed_form(gallery()["u2"].system(p=p))
        dists.append(trace_distance(tau, STABLE))
    assert dists[0] > dists[1] > dists[2]


def test_ralph_closed_form_constant_map():
    # full exchange: the loop map sends every tau to rho_cr, so the
    # geometric series sums to (1-p) rho_cr + p I/d
    rho = np.diag([0.7, 0.3]).astype(complex)
    sys = CtcSystem(SWAP2, rho, DimSplit(2, 2), p=0.5)
    tau = ralph_closed_form(sys)
    expect = 0.5 * rho + 0.5 * maximally_mixed(2)
    assert np.abs(tau - expect).max() < 1e-12


def test_ralph_closed_form_requires_noise():
    with pytest.raises(ValueError):
        ralph_closed_form(gallery()["u2"].system())


def test_deutsch_cesaro_cycle_average():
    sys = gallery()["u1"].system()
    out = deutsch_cesaro(sys, maximally_mixed(4))
    assert out.status == "converged"
    assert out.steps <= 10000
    assert trace_distance(out.state, FLAT) < 1e-3
    assert consistency_residual(sys, out.state) < 10 * 1e-10


def test_deutsch_cesaro_fixed_inputs():
    sys = gallery()["u2"].system()
    out = deutsch_cesaro(sys, FLAT)
    assert out.status == "converged"
    assert np.abs(out.state - FLAT).max() < 1e-9
    out = deutsch_cesaro(sys, maximally_mixed(4))
    assert out.status == "converged"
    assert np.abs(out.state - STABLE).max() < 1e-9


def test_deutsch_cesaro_converged_states_are_consistent():
    for name in ("u1", "u2"):
        sys = gallery()[name].system()
        for seed in range(5):
            out = deutsch_cesaro(sys, random_density(4, seed))
            if out.status == "converged":
                assert consistency_residual(sys, out.state) < 1e-9


def test_allen_cesaro_requires_noise():
    with pytest.raises(ValueError):
        allen_cesaro(gallery()["u1"].system(), maximally_mixed(4))


def test_allen_cesaro_near_cycle_average():
    sys = gallery()["u1"].system(p=0.01)
    out = allen_cesaro(sys, maximally_mixed(4))
    assert out.status == "converged"
    assert trace_distance(out.state, FLAT) < 0.02


def test_allen_cesaro_identity_unitary():
    # identity loop map: the depolarization-interleaved orbit contracts to
    # the maximally mixed state, the same point the closed form solves for
    p = 0.1
    sys = CtcSystem(np.eye(4, dtype=complex), maximally_mixed(2),
                    DimSplit(2, 2), p=p)
    tau0 = np.diag([0.9, 0.1]).astype(complex)
    out = allen_cesaro(sys, tau0)
    assert np.abs(out.state - maximally_mixed(2)).max() < 1e-9
    assert np.abs(out.state - ralph_closed_form(sys)).max() < 1e-9


def test_allen_cesaro_approaches_noiseless_average():
    sys0 = gallery()["u1"].system()
    ces = deutsch_cesaro(sys0, maximally_mixed(4)).state
    gaps = []
    for p in (0.01, 0.001):
        out = allen_cesaro(gallery()["u1"].system(p=p), maximally_mixed(4))
        gaps.append(trace_distance(out.state, ces))
    assert gaps[1] < gaps[0]
    assert gaps[1] < 2e-3


def test_pictures_agree_under_noise():
    """Iterated, averaged, and closed-form answers coincide for p > 0."""
    for name in ("u1", "u2"):
        for p in (0.1, 0.01):
            sys = gallery()[name].system(p=p)
            closed = ralph_closed_form(sys)
            for seed in range(10):
                tau0 = random_density(4, 7000 + seed)
                it = ralph_iterate(sys, tau0)
                al = allen_cesaro(sys, tau0)
                assert it.status == "converged"
                assert al.status == "converged"
                assert trace_distance(it.state, closed) < 1e-6
                assert trace_distance(al.state, closed) < 1e-6
                assert trace_distance(it.state, al.state) < 1e-6


def test_consistency_residual_values():
    sys = gallery()["u2"].system()
    assert consistency_residual(sys, STABLE) < 1e-12
    assert consistency_residual(sys, FLAT) < 1e-12
    # the cycling map sends diag(1/2,0,1/4,1/4) to diag(1/4,0,1/4,1/2);
    # trace distance between the two is 1/2 (1/4 + 1/4) = 1/4
    sys1 = gallery()["u1"].system()
    assert abs(consistency_residual(sys1, STABLE) - 0.25) < 1e-12


def test_fixed_subspace_dimensions():
    assert fixed_subspace(gallery()["u1"].system()).dim == 1
    assert fixed_subspace(gallery()["u2"].system()).dim == 3
    sys = CtcSystem(np.eye(8, dtype=complex), np.diag([1.0, 0.0]),
                    DimSplit(2, 4))
    assert fixed_subspace(sys).dim == 16


def test_fixed_subspace_basis_is_fixed_and_orthonormal():
    for name in ("u1", "u2"):
        sys = gallery()[name].system()
        m = superoperator(sys, include_noise=False)
        sub = fixed_subspace(sys)
        for i, b in enumerate(sub.basis):
            assert np.abs(b - b.conj().T).max() < 1e-12
            assert np.linalg.norm(apply_superoperator(m, b) - b) < 1e-8
            for j, c in enumerate(sub.basis):
                ip = np.real(np.trace(b.conj().T @ c))
                assert abs(ip - (1.0 if i == j else 0.0)) < 1e-9


def test_fixed_subspace_spans_known_directions():
    def project(sub, h):
        out = np.zeros_like(h)
        for b in sub.basis:
            out += np.trace(b.conj().T @ h) * b
        return out

    sub2 = fixed_subspace(gallery()["u2"].system())
    for h in (np.diag([1.0, 0, 0, 0]).astype(complex),
              np.diag([0, 0, 0.5, 0.5]).astype(complex)):
        assert np.abs(project(sub2, h) - h).max() < 1e-8

    sub1 = fixed_subspace(gallery()["u1"].system())
    h = FLAT / np.linalg.norm(FLAT)
    assert np.abs(project(sub1, h) - h).max() < 1e-8


def test_limit_superoperator_bistable():
    sys = gallery()["u2"].system()
    lim = limit_superoperator(sys)
    m = superoperator(sys, include_noise=False)
    # a genuine limit: applying the one-step map again changes nothing
    assert np.linalg.norm(m @ lim - lim) < 1e-8
    for seed in range(5):
        tau = random_density(4, seed)
        out = ralph_iterate(sys, tau).state
        assert trace_distance(apply_superoperator(lim, tau), out) < 1e-7


def test_limit_superoperator_identity():
    sys = CtcSystem(np.eye(4, dtype=complex), np.diag([1.0, 0.0]),
                    DimSplit(2, 2))
    assert np.abs(limit_superoperator(sys) - np.eye(4)).max() < 1e-12


def test_limit_superoperator_rejects_rotating_spectrum():
    with pytest.raises(ConvergenceError):
        limit_superoperator(gallery()["u1"].system())


def _lone_noisy_orbit(sys, tau0, cfg):
    """Reference: the noisy orbit of one state, one matvec per step, stopped
    when successive iterates are within ``tol`` in trace distance."""
    m = superoperator(sys, include_noise=True)
    d = sys.d_cv

    def image(x):
        y = (m @ x.reshape(-1, order="F")).reshape(d, d, order="F")
        return 0.5 * (y + y.conj().T)

    x = 0.5 * (tau0 + tau0.conj().T)
    status, steps = "exhausted", cfg.max_iter
    for n in range(1, cfg.max_iter + 1):
        y = image(x)
        if 0.5 * np.linalg.norm(y - x) < cfg.tol and trace_distance(y, x) < cfg.tol:
            x, status, steps = y, "converged", n
            break
        x = y
    return status, steps, trace_distance(image(x), x), x


def _same_outcome(a, b):
    return (a.status == b.status and a.steps == b.steps
            and a.residual == b.residual and np.array_equal(a.state, b.state))


@pytest.mark.parametrize("p", [0.05, 0.3])
@pytest.mark.parametrize("d_cr,d_cv", [(2, 2), (3, 2), (2, 3), (4, 3)])
def test_ralph_iterate_many_batch_independence(d_cr, d_cv, p, haar):
    """Each start's outcome is bit for bit its lone run's, whatever else
    shares the batch and in whatever order."""
    rng = np.random.default_rng(1000 * d_cr + 10 * d_cv + int(100 * p))
    sys = CtcSystem(haar(d_cr * d_cv, rng), random_density(d_cr, 60 + d_cv),
                    DimSplit(d_cr, d_cv), p=p)
    starts = [random_density(d_cv, 900 + k) for k in range(6)]
    cfg = EngineConfig()
    outs = ralph_iterate_many(sys, starts, cfg)
    backwards = ralph_iterate_many(sys, starts[::-1], cfg)[::-1]
    closed = ralph_closed_form(sys)
    assert len(outs) == len(starts)
    for tau0, out, rev in zip(starts, outs, backwards):
        assert out.status != "cycle"
        assert _same_outcome(out, ralph_iterate(sys, tau0, cfg))
        assert _same_outcome(out, rev)
        status, steps, resid, state = _lone_noisy_orbit(sys, tau0, cfg)
        assert (out.status, out.steps, out.residual) == (status, steps, resid)
        assert np.array_equal(out.state, state)
        assert np.abs(out.state - closed).max() < 1e-8


def test_ralph_iterate_many_mixed_endings():
    """A start at the fixed point, starts that converge and starts that run
    out of steps share one batch; each matches its lone run."""
    sys = gallery()["u2"].system(p=0.01)
    fixed = ralph_closed_form(sys)
    starts = [random_density(4, 40 + k) for k in range(5)]
    starts.insert(2, fixed)
    full = [ralph_iterate(sys, t).steps for t in starts]
    cfg = EngineConfig(max_iter=sorted(full)[3])
    outs = ralph_iterate_many(sys, starts, cfg)
    statuses = [out.status for out in outs]
    assert outs[2].status == "converged" and outs[2].steps == 1
    assert "converged" in statuses[:2] + statuses[3:] and "exhausted" in statuses
    for tau0, out in zip(starts, outs):
        assert _same_outcome(out, ralph_iterate(sys, tau0, cfg))
        if out.status == "exhausted":
            assert out.steps == cfg.max_iter
    assert ralph_iterate_many(sys, []) == []
    with pytest.raises(ValueError):
        ralph_iterate_many(gallery()["u2"].system(), starts)
