import numpy as np
import pytest

from dctc import engines, qmat
from dctc.channels import CtcSystem, apply_superoperator, cv_map, superoperator
from dctc.engines import (
    _CYCLE_DECAY_MIN,
    _CYCLE_GUARD,
    _CYCLE_WINDOW,
    ConvergenceError,
    EngineConfig,
    IterationOutcome,
    allen_cesaro,
    consistency_residual,
    deutsch_cesaro,
    fixed_subspace,
    limit_superoperator,
    ralph_closed_form,
    ralph_iterate,
    ralph_iterate_many,
)
from dctc.gallery import cr_eps, cr_mixed, cr_pure, gallery
from dctc.maxent import max_entropy_fixed_state
from dctc.qmat import (DimSplit, check_density, hermitian_basis, maximally_mixed,
                       random_density, trace_distance, von_neumann_entropy)

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
    for tol in (0.0, -1e-10, np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError):
            EngineConfig(tol=tol)


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
    assert len(fixed_subspace(gallery()["u1"].system())) == 1
    assert len(fixed_subspace(gallery()["u2"].system())) == 3
    sys = CtcSystem(np.eye(8, dtype=complex), np.diag([1.0, 0.0]),
                    DimSplit(2, 4))
    assert len(fixed_subspace(sys)) == 16


def test_fixed_subspace_basis_is_fixed_and_orthonormal():
    for name in ("u1", "u2"):
        sys = gallery()[name].system()
        m = superoperator(sys, include_noise=False)
        sub = fixed_subspace(sys)
        for i, b in enumerate(sub):
            assert np.abs(b - b.conj().T).max() < 1e-12
            assert np.linalg.norm(apply_superoperator(m, b) - b) < 1e-8
            for j, c in enumerate(sub):
                ip = np.real(np.trace(b.conj().T @ c))
                assert abs(ip - (1.0 if i == j else 0.0)) < 1e-9


def test_fixed_subspace_spans_known_directions():
    def project(sub, h):
        out = np.zeros_like(h)
        for b in sub:
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


def _case_system(case, haar):
    """A gallery system by name, or a seeded Haar circuit ``"haar<d_cr>x<d_cv>"``."""
    if not case.startswith("haar"):
        return gallery()[case].system()
    d_cr, d_cv = map(int, case[4:].split("x"))
    rng = np.random.default_rng(70 + 10 * d_cr + d_cv)
    return CtcSystem(haar(d_cr * d_cv, rng), random_density(d_cr, 70 + d_cv),
                     DimSplit(d_cr, d_cv))


HAAR_CASES = ["haar2x2", "haar3x2", "haar2x3", "haar4x3"]
# A qubit rotated about z by an irrational angle: the orbit of |+><+| is
# quasi-periodic, never fixed and never cycling; its average is I/2.
IRRATIONAL = CtcSystem(np.diag([1, 1, 1, np.exp(1j * np.sqrt(2))]),
                       np.diag([0.0, 1.0]), DimSplit(2, 2))


@pytest.mark.parametrize("case", ["u1", "u2", *HAAR_CASES])
def test_ergodic_projector_is_the_fixed_projection(case, haar):
    """P is idempotent and absorbs the map on both sides: M P = P M = P, in
    real Hermitian-basis coordinates."""
    sys = _case_system(case, haar)
    m, _, proj = engines._fixed_kernels(sys)
    assert np.abs(proj @ proj - proj).max() < 1e-12
    assert np.abs(m @ proj - proj).max() < 1e-12
    assert np.abs(proj @ m - proj).max() < 1e-12


@pytest.mark.parametrize("case", ["u1", "u2", *HAAR_CASES])
def test_deutsch_cesaro_matches_the_orbit(case, haar):
    """Wherever the p = 0 orbit settles, on a fixed point or a cycle, the
    projector's answer is that orbit's limit or cycle mean."""
    sys = _case_system(case, haar)
    settled = 0
    for seed in range(5):
        tau0 = random_density(sys.d_cv, 300 + seed)
        orbit = ralph_iterate(sys, tau0)
        out = deutsch_cesaro(sys, tau0)
        assert (out.status, out.steps) == ("converged", 0)
        assert abs(out.residual - consistency_residual(sys, out.state)) < 1e-12
        if orbit.status != "exhausted":
            settled += 1
            assert np.abs(out.state - orbit.state).max() < 1e-8
    assert settled


def test_deutsch_cesaro_quasi_periodic_orbit():
    """An orbit that never settles still has its average at once, and the
    powers of its map have no limit."""
    plus = np.full((2, 2), 0.5, dtype=complex)
    out = deutsch_cesaro(IRRATIONAL, plus)
    assert out.status == "converged" and out.steps == 0
    assert np.abs(out.state - maximally_mixed(2)).max() < 1e-12
    assert out.residual < 1e-12
    with pytest.raises(ConvergenceError):
        limit_superoperator(IRRATIONAL)


def _squared_limit(m):
    """Reference: square the map until its powers stop moving."""
    for _ in range(64):
        q = m @ m
        if np.linalg.norm(q - m) < 1e-13:
            return q
        m = q
    raise AssertionError("powers did not settle")


@pytest.mark.parametrize("case", ["u2", *HAAR_CASES])
def test_limit_superoperator_matches_squaring(case, haar):
    sys = _case_system(case, haar)
    want = _squared_limit(superoperator(sys, include_noise=False))
    assert np.abs(limit_superoperator(sys) - want).max() < 1e-10


def _lone_noisy_orbit(sys, tau0, cfg):
    """Reference: the noisy orbit of one state as its real coordinates in
    the Hermitian basis, one real matvec per step, stopped when successive
    iterates are within ``tol`` in trace distance. The residual is the
    trace distance of the final coordinates' real image from them."""
    mr, mat, dist = _real_form(superoperator(sys, include_noise=True), sys.d_cv)
    c = _coordinates(_sym(tau0))
    status, steps = "exhausted", cfg.max_iter
    for n in range(1, cfg.max_iter + 1):
        y = mr @ c
        diff = y - c
        if 0.5 * np.linalg.norm(diff) < cfg.tol and dist(diff) < cfg.tol:
            c, status, steps = y, "converged", n
            break
        c = y
    return status, steps, dist(mr @ c - c), mat(c)


def _real_form(m, d):
    """The loop map ``m`` on real Hermitian-basis coordinates, the operator
    ``B c`` of coordinates ``c``, and its trace distance from zero."""
    b = hermitian_basis(d)

    def mat(c):
        return (b @ c).reshape(d, d, order="F")

    def dist(c):
        return trace_distance(mat(c), np.zeros((d, d)))

    return np.ascontiguousarray((b.conj().T @ m @ b).real), mat, dist


def _sym(x):
    """The Hermitian part of ``x``, which the references take of every
    start and every complex-vec image."""
    return 0.5 * (x + x.conj().T)


def _coordinates(x):
    """Real Hermitian-basis coordinates of the Hermitian operator ``x``."""
    return (hermitian_basis(len(x)).conj().T @ x.reshape(-1, order="F")).real


def _complex_noisy_orbit(sys, tau0, cfg):
    """The noisy orbit as the engine ran it on complex vecs: one complex
    matvec and one Hermitization per step."""
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
    return status, steps, x


def _same_outcome(a, b):
    ca, cb = a.cycle_states or (), b.cycle_states or ()
    return (a.status == b.status and a.steps == b.steps
            and a.residual == b.residual and np.array_equal(a.state, b.state)
            and len(ca) == len(cb)
            and all(np.array_equal(x, y) for x, y in zip(ca, cb)))


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


BLOCK = engines._NOISY_BLOCK


def _assert_lone_runs(sys, starts, outs, cfg):
    """Each outcome is bit for bit ``_lone_noisy_orbit`` of its start."""
    for tau0, out in zip(starts, outs):
        status, steps, resid, state = _lone_noisy_orbit(sys, tau0, cfg)
        assert (out.status, out.steps, out.residual) == (status, steps, resid)
        assert out.state.tobytes() == state.tobytes()


def _spread_starts():
    """u2 at p = 0.25 and starts at its fixed point or mixed towards it
    from random states, so that one call's starts stop at steps spread over
    the first three blocks."""
    sys = gallery()["u2"].system(rho_cr=cr_mixed(0.3), p=0.25)
    fixed = ralph_closed_form(sys)
    mix = (1e-9, 1e-7, 1e-5, 1e-3, 1e-3, 0.1, 1.0, 1.0)
    return sys, [fixed] + [(1 - e) * fixed + e * random_density(4, 40 + i)
                           for i, e in enumerate(mix)]


@pytest.mark.parametrize("max_iter", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
def test_ralph_iterate_many_block_edges(max_iter):
    """A step cap at, or one off, a block boundary cuts the last block
    short; every outcome is its lone run's."""
    sys, starts = _spread_starts()
    cfg = EngineConfig(max_iter=max_iter)
    _assert_lone_runs(sys, starts, ralph_iterate_many(sys, starts, cfg), cfg)


def test_ralph_iterate_many_stops_across_blocks():
    """The fixed point stops at step 1, other starts stop within one block
    or in different ones, and under a cap one below the largest step count
    that one column runs out while the others stop."""
    sys, starts = _spread_starts()
    cfg = EngineConfig()
    outs = ralph_iterate_many(sys, starts, cfg)
    steps = [out.steps for out in outs]
    blocks = [(n - 1) // BLOCK for n in steps]
    assert outs[0].status == "converged" and steps[0] == 1
    assert len(set(blocks)) >= 3 and len(set(blocks)) < len(blocks)
    _assert_lone_runs(sys, starts, outs, cfg)
    assert steps.count(max(steps)) == 1
    cfg = EngineConfig(max_iter=max(steps) - 1)
    outs = ralph_iterate_many(sys, starts, cfg)
    assert [out.status for out in outs].count("exhausted") == 1
    _assert_lone_runs(sys, starts, outs, cfg)


def test_ralph_iterate_many_short_blocks_at_large_k():
    """With enough starts the buffer bound makes the block shorter than
    ``_NOISY_BLOCK``; it grows back as columns stop. Outcomes are unchanged."""
    sys, spread = _spread_starts()
    k = 160
    assert engines._NOISY_BUFFER // (k * 16) < BLOCK
    starts = (spread + [random_density(4, 500 + i) for i in range(k)])[:k]
    cfg = EngineConfig()
    _assert_lone_runs(sys, starts, ralph_iterate_many(sys, starts, cfg), cfg)


def test_ralph_iterate_many_keeps_subnormal_bits():
    """u2's noisy orbits reach subnormal coordinates, where flushing to zero
    would change the bits; the stacked steps keep the lone run's."""
    sys = gallery()["u2"].system(rho_cr=cr_mixed(0.3), p=0.01)
    starts = [random_density(4, 100 + i) for i in range(8)]
    cfg = EngineConfig(max_iter=2000)
    outs = ralph_iterate_many(sys, starts, cfg)
    parts = np.stack([out.state for out in outs]).view(float)
    assert ((parts != 0) & (np.abs(parts) < np.finfo(float).tiny)).any()
    _assert_lone_runs(sys, starts, outs, cfg)


@pytest.mark.parametrize("name,rows", [("u1", 76), ("u2", 3598)])
def test_noisy_stop_test_skips_rows_past_a_certain_stop(name, rows, monkeypatch):
    """A row within ``2 tol / sqrt(d)`` in Frobenius norm is within ``tol``
    in trace distance, so the stop test takes no eigvalsh on it or on the
    rows after it. Over 11 CR inputs of 8 starts at p = 0.01 that leaves
    76 rows on u1 and 3,598 on u2, where testing every candidate of a block
    took 985 and 4,007."""
    counts = []
    real = engines._trace_distances

    def counting(cs):
        counts.append(len(cs))
        return real(cs)

    monkeypatch.setattr(engines, "_trace_distances", counting)
    starts = [random_density(4, 1000 + i) for i in range(8)]
    for s in [round(0.1 * i, 10) for i in range(11)]:
        sys = gallery()[name].system(rho_cr=cr_mixed(s), p=0.01)
        ralph_iterate_many(sys, starts, EngineConfig(max_iter=2000))
        counts.pop()  # the residuals of the final states
    assert sum(counts) == rows


def _census_systems(haar):
    g = gallery()
    for name, crs in (("u1", [cr_mixed(0.3), cr_mixed(1.0), cr_pure(0.5), cr_pure(0.0)]),
                      ("u2", [cr_mixed(0.3), cr_mixed(1.0), cr_pure(0.5), cr_pure(0.0)]),
                      ("u3", [cr_eps(0.1, 0.0, 0.2, 0.0), cr_eps(0.3, 0.1, 0.0, 0.0),
                              cr_eps(0.0, 0.0, 0.0, 0.0), cr_eps(0.5, 0.2, 0.4, 0.1j)])):
        for cr in crs:
            for p in (0.003, 0.01, 0.05, 0.3):
                yield g[name].system(rho_cr=cr, p=p)
    rng = np.random.default_rng(5)
    for d_cr, d_cv in [(2, 2), (3, 2), (2, 3), (4, 3), (2, 4)]:
        for h, p in enumerate((0.01, 0.05, 0.3)):
            yield CtcSystem(haar(d_cr * d_cv, rng), random_density(d_cr, 100 + h),
                            DimSplit(d_cr, d_cv), p=p)


@pytest.mark.slow
def test_ralph_iterate_many_census(haar):
    """3,780 outcomes, 10 starts of 63 systems under 6 step caps, each bit
    for bit its lone run's in real Hermitian-basis coordinates."""
    for sys in _census_systems(haar):
        starts = [random_density(sys.d_cv, 7000 + i) for i in range(10)]
        for max_iter in (5, 33, 64, 700, 2000, 10000):
            cfg = EngineConfig(max_iter=max_iter)
            _assert_lone_runs(sys, starts, ralph_iterate_many(sys, starts, cfg), cfg)


@pytest.mark.slow
def test_ralph_iterate_many_matches_the_complex_orbit(haar):
    """The census systems' orbits in real Hermitian-basis coordinates
    against the complex-vec orbit they replaced: the same status and step
    count, and the same entropy within 1e-12 bits."""
    for sys in _census_systems(haar):
        starts = [random_density(sys.d_cv, 7000 + i) for i in range(10)]
        for max_iter in (5, 700, 10000):
            cfg = EngineConfig(max_iter=max_iter)
            for tau0, out in zip(starts, ralph_iterate_many(sys, starts, cfg)):
                status, steps, state = _complex_noisy_orbit(sys, tau0, cfg)
                assert (out.status, out.steps) == (status, steps)
                assert abs(von_neumann_entropy(out.state) - von_neumann_entropy(state)) < 1e-12


def _times_i(m):
    return 1j * np.eye(len(m))


def _nudged(m):
    m = m.copy()
    m[1, 0] += 1e-3
    return m


def _patch_loop_map(monkeypatch, change):
    real = engines.superoperator
    monkeypatch.setattr(engines, "superoperator",
                        lambda sys, include_noise: change(real(sys, include_noise)))


@pytest.mark.parametrize("p", [0.0, 0.01])
@pytest.mark.parametrize("breaks", [_times_i, _nudged])
def test_ralph_iterate_many_rejects_a_map_that_breaks_hermiticity(p, breaks, monkeypatch):
    """Orbits at every p need a Hermiticity-preserving loop map for their
    real coordinates. Neither X -> i X nor u2's map with 1e-3 added at one
    entry is one; on complex vecs a Hermitized p = 0 orbit took the latter
    as converging in 3 steps."""
    _patch_loop_map(monkeypatch, breaks)
    with pytest.raises(ValueError, match="does not preserve Hermiticity"):
        ralph_iterate_many(gallery()["u2"].system(p=p), [maximally_mixed(4)])


# The views of u2's noiseless loop map that read its fixed directions.
_VIEWS = {
    "fixed_subspace": fixed_subspace,
    "deutsch_cesaro": lambda sys: deutsch_cesaro(sys, maximally_mixed(4)),
    "limit_superoperator": limit_superoperator,
    "max_entropy_fixed_state": max_entropy_fixed_state,
}


@pytest.mark.parametrize("view", _VIEWS)
@pytest.mark.parametrize("breaks", [_times_i, _nudged])
def test_fixed_point_views_reject_a_map_that_breaks_hermiticity(view, breaks, monkeypatch):
    """The fixed-point views read the loop map in real coordinates too and
    reject the same maps; on complex vecs the nudged map's fixed span came
    out two-dimensional instead of three."""
    _patch_loop_map(monkeypatch, breaks)
    with pytest.raises(ValueError, match="does not preserve Hermiticity"):
        _VIEWS[view](gallery()["u2"].system())


@pytest.mark.parametrize("view", _VIEWS)
def test_fixed_point_views_need_a_fixed_direction(view, monkeypatch):
    """X -> X / 2 preserves Hermiticity but fixes nothing: the kernel of
    its SVD is empty, and each view that reads it raises."""
    _patch_loop_map(monkeypatch, lambda m: 0.5 * np.eye(len(m)))
    with pytest.raises(ConvergenceError, match="no fixed directions"):
        _VIEWS[view](gallery()["u2"].system())


@pytest.mark.parametrize("name", ["u1", "u2"])
def test_ralph_iterate_many_noiseless(name):
    """At p = 0 every start runs the cycle scan on one shared loop map; each
    outcome, cycle states included, is bit for bit its lone run's, in
    either start order. u1 starts cycle; u2 starts converge, or run out of
    steps under a cap between their step counts."""
    sys = gallery()[name].system()
    starts = [random_density(4, 40 + k) for k in range(5)] + [maximally_mixed(4)]
    cfg = EngineConfig(max_iter=64)
    outs = ralph_iterate_many(sys, starts, cfg)
    backwards = ralph_iterate_many(sys, starts[::-1], cfg)[::-1]
    statuses = {out.status for out in outs}
    if name == "u1":
        assert statuses == {"cycle"}
        assert all(out.period == 3 for out in outs)
    else:
        assert statuses == {"converged", "exhausted"}
    for tau0, out, rev in zip(starts, outs, backwards):
        assert _same_outcome(out, ralph_iterate(sys, tau0, cfg))
        assert _same_outcome(out, rev)
        if out.status == "exhausted":
            assert out.steps == cfg.max_iter


def _reference_scan(m, x, cfg):
    """Reference: the cycle scan on real Hermitian-basis coordinates, one
    real matvec per step, over a list window re-stacked every step, with
    one Python test per lag, smallest lag first. The closure defect is the
    matching lag's distance: the image of the cycle's last state is the new
    iterate."""
    mr, mat, dist = _real_form(m, x.shape[0])
    c = _coordinates(x)
    window = [c]          # x_0 .. x_{n-1}, trimmed to _CYCLE_WINDOW entries
    motions = [np.inf]    # Frobenius ||x_k - x_{k-1}||, aligned with window
    tol = cfg.tol

    for n in range(1, cfg.max_iter + 1):
        c_new = mr @ c
        d1_fro = float(np.linalg.norm(c_new - c))

        # Fixed point: trace distance between successive iterates below tol.
        if 0.5 * d1_fro < tol and dist(c_new - c) < tol:
            return IterationOutcome("converged", mat(c_new), n, dist(mr @ c_new - c_new))

        # Cycle scan over lags 2..window, smallest lag wins.
        if 0.5 * d1_fro >= _CYCLE_GUARD * tol and len(window) >= 2:
            fro = np.linalg.norm(np.stack(window) - c_new, axis=1)
            for lag in range(2, len(window) + 1):
                k = len(window) - lag  # window[k] is x_{n-lag}
                if 0.5 * fro[k] >= tol:
                    continue
                defect = dist(c_new - window[k])
                if defect >= tol:
                    continue
                prev_motion = motions[k]
                if not np.isfinite(prev_motion) or prev_motion <= 0:
                    continue  # not enough history; keep iterating
                if d1_fro / prev_motion < _CYCLE_DECAY_MIN:
                    continue  # motion is decaying: converging, not cycling
                cycle = window[k:]
                return IterationOutcome("cycle", mat(np.mean(cycle, axis=0)), n, defect,
                                        tuple(mat(y) for y in cycle))

        window.append(c_new)
        motions.append(d1_fro)
        if len(window) > _CYCLE_WINDOW:
            window.pop(0)
            motions.pop(0)
        c = c_new

    return IterationOutcome("exhausted", mat(c), cfg.max_iter, dist(mr @ c - c))


def _complex_scan(m, x, cfg):
    """The cycle scan as the engine ran it on complex vecs, one complex
    matvec and one Hermitization per step, over a list window."""
    d = x.shape[0]

    def step(y):
        return _sym((m @ y.reshape(-1, order="F")).reshape(d, d, order="F"))

    window = [x]          # x_0 .. x_{n-1}, trimmed to _CYCLE_WINDOW entries
    motions = [np.inf]    # Frobenius ||x_k - x_{k-1}||, aligned with window
    tol = cfg.tol

    for n in range(1, cfg.max_iter + 1):
        x_new = step(x)
        d1_fro = float(np.linalg.norm(x_new - x))

        # Fixed point: trace distance between successive iterates below tol.
        if 0.5 * d1_fro < tol and trace_distance(x_new, x) < tol:
            return IterationOutcome("converged", x_new, n,
                                    trace_distance(step(x_new), x_new))

        # Cycle scan over lags 2..window, smallest lag wins.
        if 0.5 * d1_fro >= _CYCLE_GUARD * tol and len(window) >= 2:
            stack = np.stack(window)
            fro = np.linalg.norm((stack - x_new).reshape(len(window), -1), axis=1)
            for lag in range(2, len(window) + 1):
                k = len(window) - lag  # window[k] is x_{n-lag}
                if 0.5 * fro[k] >= tol:
                    continue
                if trace_distance(x_new, window[k]) >= tol:
                    continue
                prev_motion = motions[k]
                if not np.isfinite(prev_motion) or prev_motion <= 0:
                    continue  # not enough history; keep iterating
                if d1_fro / prev_motion < _CYCLE_DECAY_MIN:
                    continue  # motion is decaying: converging, not cycling
                cycle = tuple(window[len(window) - lag:])
                return IterationOutcome("cycle", _sym(sum(cycle) / len(cycle)), n,
                                        trace_distance(step(cycle[-1]), cycle[0]),
                                        cycle)

        window.append(x_new)
        motions.append(d1_fro)
        if len(window) > _CYCLE_WINDOW:
            window.pop(0)
            motions.pop(0)
        x = x_new

    return IterationOutcome("exhausted", x, cfg.max_iter, trace_distance(step(x), x))


def _assert_reference_scan(sys, starts, cfg):
    """``ralph_iterate_many`` at p = 0 gives each start the reference scan's
    outcome bit for bit."""
    m = superoperator(sys, include_noise=True)
    outs = ralph_iterate_many(sys, starts, cfg)
    for tau0, out in zip(starts, outs):
        ref = _reference_scan(m, _sym(check_density(tau0)), cfg)
        assert _same_outcome(out, ref)
        assert out.state.tobytes() == ref.state.tobytes()
    return outs


def _permutation_system(d_cr, d_cv, seed):
    """A permuted basis on CR (x) CV with a random diagonal CR input: its
    noiseless orbits cycle, converge, or wander among permuted states."""
    rng = np.random.default_rng(seed)
    perm = np.eye(d_cr * d_cv, dtype=complex)[rng.permutation(d_cr * d_cv)]
    return CtcSystem(perm, np.diag(rng.dirichlet(np.ones(d_cr))).astype(complex),
                     DimSplit(d_cr, d_cv))


SCAN_SHAPES = [(2, 2), (3, 2), (2, 3), (4, 3), (2, 4)]


@pytest.mark.parametrize("max_iter", [40, 2000])
@pytest.mark.parametrize("case", ["u1", "u2", "haar", "permutation"])
def test_cycle_scan_matches_reference(case, max_iter, haar):
    """The buffered scan is the reference scan bit for bit: status, steps,
    state, residual and cycle states, on gallery circuits at several CR
    inputs of both families and on seeded Haar and permutation circuits."""
    cfg = EngineConfig(max_iter=max_iter)
    if case in ("u1", "u2"):
        systems = [gallery()[case].system(rho_cr=cr(s))
                   for cr in (cr_mixed, cr_pure) for s in (0.0, 0.3, 1.0)]
    elif case == "haar":
        systems = [CtcSystem(haar(d_cr * d_cv, np.random.default_rng(80 + i)),
                             random_density(d_cr, 90 + i), DimSplit(d_cr, d_cv))
                   for i, (d_cr, d_cv) in enumerate(SCAN_SHAPES)]
    else:
        systems = [_permutation_system(d_cr, d_cv, 110 + 10 * i + j)
                   for i, (d_cr, d_cv) in enumerate(SCAN_SHAPES) for j in range(2)]
    statuses = set()
    for sys in systems:
        starts = [random_density(sys.d_cv, 500 + k) for k in range(3)]
        statuses |= {out.status for out in _assert_reference_scan(sys, starts, cfg)}
    assert "converged" in statuses
    if case in ("u1", "permutation"):
        assert "cycle" in statuses
    if max_iter == 40:
        assert "exhausted" in statuses


def _qubit_rotation(period):
    """CV qubit turned about z by 2 pi / period at every pass, CR |0><0|."""
    u = np.kron(np.eye(2), np.diag([1.0, np.exp(2j * np.pi / period)]))
    return CtcSystem(u, np.diag([1.0, 0.0]).astype(complex), DimSplit(2, 2))


def _damped_qutrit_rotation(period, q=0.05):
    """CV qutrit: levels 0 and 1 turn by 2 pi / period at every pass; level
    2's coherences flip sign with probability ``q`` (CR diag(1 - q, q)), so
    they decay by 1 - 2q per pass and the orbit settles on the turn only
    after the scan buffer has compacted."""
    turn = np.diag([1.0, np.exp(2j * np.pi / period), 1.0])
    flip = np.diag([1.0, np.exp(2j * np.pi / period), -1.0])
    u = np.kron(np.diag([1.0, 0.0]), turn) + np.kron(np.diag([0.0, 1.0]), flip)
    return CtcSystem(u, np.diag([1.0 - q, q]).astype(complex), DimSplit(2, 3))


PLUS = np.full((2, 2), 0.5, dtype=complex)


@pytest.mark.parametrize("period,status,steps", [
    (63, "cycle", 64), (64, "cycle", 65), (65, "exhausted", 400)])
def test_cycle_scan_window_edge(period, status, steps):
    """The window holds the last _CYCLE_WINDOW = 64 states: a rotation of
    period 64 is caught one step after it closes; period 65 never is."""
    cfg = EngineConfig(max_iter=400)
    (out,) = _assert_reference_scan(_qubit_rotation(period), [PLUS], cfg)
    assert (out.status, out.steps) == (status, steps)
    if status == "cycle":
        assert out.period == period


@pytest.mark.parametrize("period,q,steps", [
    (5, 0.05, 201), (40, 0.05, 244), (64, 0.05, 268), (64, 0.1414, 129)])
def test_cycle_scan_after_compaction(period, q, steps):
    """Cycles first seen past the buffer's compaction at step 128 (every
    64 steps after): at step 129 the scan's first look at the compacted
    window still reaches lag 64."""
    cfg = EngineConfig(max_iter=2000)
    (out,) = _assert_reference_scan(_damped_qutrit_rotation(period, q),
                                    [random_density(3, 11)], cfg)
    assert (out.status, out.steps, out.period) == ("cycle", steps, period)


def test_cycle_scan_prefers_the_smallest_lag():
    """Lags 2 and 4 pass every check at step 5, so the scan's order decides.

    A linear map on qubit Pauli coefficients flips A and turns
    B -> B' -> -B, so the orbit from x_0 = I/2 + (a A + B) . sigma has
    period 4 (a difference r . sigma is |r| apart in trace distance); with
    |B'| < tol / 2 < |B| it is within tol of period 2 at odd steps only.
    The lag-1 motion clears the 10 tol guard at steps 4k and 4k + 1 only,
    so lag 2 is first weighed at step 5, when lag 4 (back to x_1) passes
    too. The smaller period wins, as in the reference scan.
    """
    cfg = EngineConfig(tol=1e-3)
    e = np.eye(3)
    a, flip_a = 5.0 * np.sqrt(2.0) * cfg.tol, (e[0] + e[2]) / np.sqrt(2.0)
    b, b_turned = 0.75 * cfg.tol * e[0], 0.25 * cfg.tol * e[1]
    cols = np.stack([flip_a, b, b_turned], axis=1)
    bloch = cols @ np.array([[-1.0, 0, 0], [0, 0, -1], [0, 1, 0]]) @ np.linalg.inv(cols)
    sigma = [np.array(s, dtype=complex) for s in
             ([[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]])]
    vecs = np.stack([s.reshape(-1, order="F") for s in sigma], axis=1)
    m = vecs @ np.block([[np.ones((1, 1)), np.zeros((1, 3))],
                         [np.zeros((3, 1)), bloch]]) @ np.linalg.inv(vecs)
    r0 = a * flip_a + b
    x0 = 0.5 * sigma[0] + sum(c * s for c, s in zip(r0, sigma[1:]))
    out = engines._run_orbit(qmat._real_map(m), _coordinates(x0), cfg)
    assert (out.status, out.steps, out.period) == ("cycle", 5, 2)
    assert _same_outcome(out, _reference_scan(m, x0, cfg))


@pytest.mark.slow
def test_cycle_scan_matches_the_complex_scan():
    """4,400 noiseless orbits (u1 and u2, both CR families, 11 values of s,
    100 starts, 2000 steps) in real Hermitian-basis coordinates against the
    complex-vec scan they replaced: the same status, step count and period,
    and the same entropy within 1e-12 bits."""
    cfg = EngineConfig(max_iter=2000)
    starts = [random_density(4, 7000 + i) for i in range(100)]
    for name in ("u1", "u2"):
        for cr in (cr_mixed, cr_pure):
            for s in [round(0.1 * i, 10) for i in range(11)]:
                sys = gallery()[name].system(rho_cr=cr(s))
                m = superoperator(sys, include_noise=True)
                for tau0, out in zip(starts, ralph_iterate_many(sys, starts, cfg)):
                    ref = _complex_scan(m, _sym(tau0), cfg)
                    assert (out.status, out.steps, out.period) == \
                        (ref.status, ref.steps, ref.period)
                    assert abs(von_neumann_entropy(out.state)
                               - von_neumann_entropy(ref.state)) < 1e-12
