import itertools
import math
import time

import numpy as np
import pytest

from dctc import maxent
from dctc.channels import CtcSystem
from dctc.engines import (ConvergenceError, _fixed_kernels, consistency_residual,
                          deutsch_cesaro, fixed_subspace)
from dctc.experiments import _DEFAULT_GRID, _cr_pair
from dctc.gallery import cr_eps, gallery
from dctc.maxent import (GRAD_TOL, _support_directions, entropy_gradient,
                         max_entropy_fixed_state)
from dctc.qmat import (
    ENTROPY_CLAMP,
    DimSplit,
    _coords,
    maximally_mixed,
    random_density,
    von_neumann_entropy,
)

FLAT = np.diag([1 / 3, 0.0, 1 / 3, 1 / 3]).astype(complex)


def _interior(dim, seed, eps=0.05):
    return (1 - eps) * random_density(dim, seed) + eps * maximally_mixed(dim)


def test_max_entropy_bistable():
    res = max_entropy_fixed_state(gallery()["u2"].system())
    assert np.abs(res.state - FLAT).max() < 1e-4
    assert abs(res.entropy_bits - 1.58496) < 1e-4
    assert res.kkt_residual < 1e-8
    assert consistency_residual(gallery()["u2"].system(), res.state) < 1e-6


def test_max_entropy_bistable_is_exact():
    """The answer is consistent and at log2 3 to rounding: no entropy above
    the largest any consistent state has, no eigenvalue below zero."""
    sys = gallery()["u2"].system()
    res = max_entropy_fixed_state(sys)
    assert abs(res.entropy_bits - np.log2(3)) < 1e-12
    assert consistency_residual(sys, res.state) <= 1e-13
    assert np.linalg.eigvalsh(res.state).min() >= -1e-15


def test_max_entropy_cycling():
    # the consistent set is a single state, so there is nothing to ascend
    res = max_entropy_fixed_state(gallery()["u1"].system())
    assert np.abs(res.state - FLAT).max() < 1e-6
    assert res.iterations == 0
    assert res.converged is True


def test_max_entropy_reports_a_stall(monkeypatch):
    """``converged`` holds only when the ascent stopped on ``GRAD_TOL``; a
    run cut off by the step cap returns its last iterate marked unconverged."""
    sys = gallery()["u2"].system()
    assert max_entropy_fixed_state(sys).converged is True
    monkeypatch.setattr(maxent, "MAX_ASCENT_ITER", 1)
    res = max_entropy_fixed_state(sys)
    assert res.converged is False
    assert res.iterations == 1 and res.kkt_residual >= GRAD_TOL


def test_max_entropy_ascent_does_not_stall():
    """On this ill-conditioned support, line searches that start at 1 took
    all ``MAX_ASCENT_ITER`` steps and stopped unconverged; starting at the
    Barzilai-Borwein step, the ascent converges in a few."""
    sys = CtcSystem(np.eye(8, dtype=complex)[[0, 3, 4, 5, 6, 1, 2, 7]],
                    random_density(2, 75), DimSplit(2, 4))
    t0 = time.perf_counter()
    res = max_entropy_fixed_state(sys)
    assert time.perf_counter() - t0 < 1.0
    assert res.converged is True and res.iterations <= 10
    assert abs(res.entropy_bits - 1.999881427651) < 1e-12


def test_max_entropy_identity_unitary():
    sys = CtcSystem(np.eye(4, dtype=complex), np.diag([1.0, 0.0]),
                    DimSplit(2, 2))
    res = max_entropy_fixed_state(sys)
    assert np.abs(res.state - maximally_mixed(2)).max() < 1e-6
    assert abs(res.entropy_bits - 1.0) < 1e-8


def test_max_entropy_beats_sampled_consistent_states():
    """No averaged orbit from a random start lands above the maximum."""
    sys = gallery()["u2"].system()
    best = max_entropy_fixed_state(sys).entropy_bits
    anchor = deutsch_cesaro(sys, maximally_mixed(4)).state
    assert best >= von_neumann_entropy(anchor) - 1e-9
    for seed in range(10):
        out = deutsch_cesaro(sys, random_density(4, seed))
        assert best >= von_neumann_entropy(out.state) - 1e-6


def _permutation_census():
    """Seeded 8x8 permutation circuits: 300 in u2's shape (CR qubit in
    |0>, four CV levels), then 60 in u3's shape (two CR qubits, one CV
    qubit), each with the mixed and the pure CR pair at random
    populations."""
    rng = np.random.default_rng(2017)
    ket0 = np.diag([1.0, 0.0]).astype(complex)
    for _ in range(300):
        yield CtcSystem(np.eye(8, dtype=complex)[rng.permutation(8)], ket0,
                        DimSplit(2, 4))
    for _ in range(60):
        u = np.eye(8, dtype=complex)[rng.permutation(8)]
        ea, eb = rng.uniform(0.0, 1.0, 2)
        for da, db in ((0.0, 0.0), (np.sqrt(ea * (1 - ea)), np.sqrt(eb * (1 - eb)))):
            yield CtcSystem(u, cr_eps(ea, da, eb, db), DimSplit(4, 2))


def test_max_entropy_permutation_census():
    """Off the gallery, every answer is finite and consistent, never below
    the entropy of the anchor ``P(I)/d``, and equal to it when the
    consistent set is the anchor alone."""
    n_point = n_gap = 0
    for k, sys in enumerate(_permutation_census()):
        res = max_entropy_fixed_state(sys)
        assert np.isfinite(res.state).all() and np.isfinite(res.entropy_bits), k
        assert consistency_residual(sys, res.state) < 1e-12, k
        anchor = deutsch_cesaro(sys, maximally_mixed(sys.d_cv)).state
        gap = res.entropy_bits - von_neumann_entropy(anchor)
        assert gap >= -1e-12, k
        if len(fixed_subspace(sys)) == 1:
            assert abs(gap) <= 1e-12, k
            n_point += 1
        n_gap += gap > 1e-9
    assert k == 419
    # both kinds of case occur: a single consistent state, and a set the
    # ascent has to climb above its anchor
    assert n_point > 0 and n_gap > 0


def test_max_entropy_deterministic():
    a = max_entropy_fixed_state(gallery()["u2"].system())
    b = max_entropy_fixed_state(gallery()["u2"].system())
    assert np.abs(a.state - b.state).max() < 1e-8
    assert a.iterations == b.iterations


def test_entropy_gradient_critical_at_maximally_mixed():
    g = entropy_gradient(maximally_mixed(2))
    # a multiple of the identity: zero once trace-projected
    off = g - np.trace(g) / 2 * np.eye(2)
    assert np.abs(off).max() < 1e-12


def test_entropy_gradient_matches_finite_differences():
    h_step = 1e-5
    rng = np.random.default_rng(5)
    for seed in range(20):
        rho = _interior(4, seed)
        g = entropy_gradient(rho)
        # random traceless Hermitian direction
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        h = 0.5 * (a + a.conj().T)
        h -= np.trace(h) / 4 * np.eye(4)
        h /= np.linalg.norm(h)
        sp = von_neumann_entropy(rho + h_step * h)
        sm = von_neumann_entropy(rho - h_step * h)
        numeric = (sp - sm) / (2 * h_step)
        analytic = float(np.real(np.trace(g.conj().T @ h)))
        assert abs(analytic - numeric) < 1e-4 * max(1.0, abs(numeric))


def test_entropy_gradient_two_level_value():
    rho = np.diag([0.75, 0.25]).astype(complex)
    g = entropy_gradient(rho)
    expect = np.diag(-(np.log2([0.75, 0.25]) + 1 / np.log(2)))
    assert np.abs(g - expect).max() < 1e-12


def test_entropy_gradient_rejects_singular_states():
    with pytest.raises(ValueError):
        entropy_gradient(np.diag([1.0, 0.0]))


def test_entropy_increases_toward_the_flat_state():
    eps = 1e-6
    rho = (1 - eps) * np.diag([0.5, 0.0, 0.25, 0.25]).astype(complex) \
        + eps * maximally_mixed(4)
    g = entropy_gradient(rho)
    direction = np.diag([-1.0, 0.0, 0.5, 0.5]).astype(complex)
    slope = float(np.real(np.trace(g.conj().T @ direction)))
    assert slope > 0.1


def test_project_affine_behaviour():
    """Projection onto the traceless fixed directions, on the coordinates of
    the anchor's support, keeps what lies in them, removes what is
    orthogonal to them, and is idempotent."""
    sys = gallery()["u2"].system()
    _, r, _ = _fixed_kernels(sys)
    w, v = np.linalg.eigh(max_entropy_fixed_state(sys).anchor)
    v = v[:, w > ENTROPY_CLAMP]
    dirs = _support_directions(r, v)
    assert dirs.shape == (2, 9)

    def project(x):
        return dirs.T @ (dirs @ x)

    def compressed(h):
        return _coords(v.conj().T @ h @ v)

    e = np.eye(4)
    for inside in (np.diag([-1.0, 0.0, 0.5, 0.5]), e[[2]].T @ e[[3]] + e[[3]].T @ e[[2]]):
        x = compressed(inside.astype(complex))
        assert np.abs(project(x) - x).max() < 1e-8
    # orthogonal to every traceless fixed direction: the identity on the
    # support, and coherences the fixed family never contains
    for outside in (np.diag([1.0, 0.0, 1.0, 1.0]), e[[0]].T @ e[[2]] + e[[2]].T @ e[[0]],
                    1j * (e[[2]].T @ e[[3]] - e[[3]].T @ e[[2]])):
        assert np.abs(project(compressed(outside.astype(complex)))).max() < 1e-8
    rng = np.random.default_rng(9)
    for _ in range(10):
        once = project(rng.standard_normal(9))
        assert np.abs(project(once) - once).max() < 1e-12


def test_max_entropy_rejects_a_span_outside_the_support(monkeypatch):
    """A support cut too small (the clamp raised past two of u2's anchor
    eigenvalues 1/4) loses the fixed directions' norm under compression;
    the solve raises instead of ascending the wrong set (it read 0.531 bits,
    "converged", against log2 3)."""
    monkeypatch.setattr(maxent, "ENTROPY_CLAMP", 0.3)
    with pytest.raises(ConvergenceError, match="leaves the anchor's support"):
        max_entropy_fixed_state(gallery()["u2"].system())


@pytest.mark.parametrize("family", ["mixed", "pure"])
def test_max_entropy_reads_a_pure_answer_as_zero(family):
    """Every Deutsch-grid cell whose anchor has rank 1 has a single
    consistent state, which is pure: its entropy is exactly +0.0, also when
    the anchor's eigenvalue rounds below 1 (u3 at (0.3, 0) and (1, 1) read
    1.6e-16 bits)."""
    pure = 0
    u3 = gallery()["u3"]
    for ea in _DEFAULT_GRID:
        for eb in _DEFAULT_GRID:
            res = max_entropy_fixed_state(u3.system(rho_cr=_cr_pair(family, ea, eb)))
            if (np.linalg.eigvalsh(res.anchor) > ENTROPY_CLAMP).sum() == 1:
                pure += 1
                assert res.entropy_bits == 0.0, (ea, eb)
                assert math.copysign(1.0, res.entropy_bits) == 1.0
    assert pure >= 11  # the eps_b = 0 row past eps_a = 0, and (1, 1)


def test_max_entropy_builds_the_loop_map_once(superop_builds):
    """One solve takes M, the anchor, its consistency check and the fixed
    span from a single superoperator build."""
    for name in ("u1", "u2", "u3"):
        superop_builds.clear()
        max_entropy_fixed_state(gallery()[name].system())
        assert len(superop_builds) == 1, name


def test_max_entropy_reports_its_fixed_span_and_anchor():
    """A solve's ``fixed_dim`` is ``fixed_subspace``'s dimension and its
    ``anchor`` is ``deutsch_cesaro`` from I/d byte for byte, on the gallery
    and 50 seeded 8 x 8 permutations in u2's shape, so a census can read
    both off the one solve."""
    rng = np.random.default_rng(40320)
    ket0 = np.diag([1.0, 0.0]).astype(complex)
    systems = [g.system() for g in gallery().values()]
    systems += [CtcSystem(np.eye(8, dtype=complex)[:, rng.permutation(8)], ket0,
                          DimSplit(2, 4)) for _ in range(50)]
    dims = set()
    for sys in systems:
        res = max_entropy_fixed_state(sys)
        assert res.fixed_dim == len(fixed_subspace(sys))
        anchor = deutsch_cesaro(sys, maximally_mixed(sys.d_cv)).state
        assert res.anchor.tobytes() == anchor.tobytes()
        dims.add(res.fixed_dim)
    assert len(dims) >= 3


@pytest.mark.slow
def test_max_entropy_full_permutation_census():
    """All 40,320 8 x 8 permutation unitaries in u2's shape (CR qubit, CV
    ququart) with CR input |0><0|: 13,824 have a unique consistent state,
    the other 26,496 a family of them. On 13,824 the maximum-entropy state
    beats the anchor P(I)/d by more than 1e-9 bits, by at most 0.1887
    bits, and every ascent converges."""
    split = DimSplit(2, 4)
    ket0 = np.diag([1.0, 0.0]).astype(complex)
    eye = np.eye(8, dtype=complex)
    unique = above = 0
    largest = 0.0
    for perm in itertools.permutations(range(8)):
        res = max_entropy_fixed_state(CtcSystem(eye[:, perm], ket0, split))
        assert res.converged, perm
        unique += res.fixed_dim == 1
        gap = res.entropy_bits - von_neumann_entropy(res.anchor)
        above += gap > 1e-9
        largest = max(largest, gap)
    assert (unique, 40320 - unique, above) == (13824, 26496, 13824)
    assert abs(largest - 0.1887) < 5e-5
