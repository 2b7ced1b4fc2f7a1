import numpy as np
import pytest

from dctc.channels import (
    CtcSystem,
    apply_superoperator,
    channel_distance,
    choi_matrix,
    cv_map,
    depolarize,
    kraus_commutator_residual,
    kraus_completeness_defect,
    kraus_from_choi,
    loop_maps,
    noisy_cv_map,
    superoperator,
    superoperator_from_kraus,
    unvec,
    vec,
)
from dctc.engines import limit_superoperator
from dctc.gallery import bistable_unitary, cycling_unitary, gallery, limit_kraus_ops
from dctc.qmat import (DimSplit, hermitian_basis, maximally_mixed, partial_trace,
                       random_density, trace_distance)

KET0 = np.diag([1.0, 0.0]).astype(complex)
STABLE = np.diag([0.5, 0.0, 0.25, 0.25]).astype(complex)


def _identity_system(d_cr=2, d_cv=4, p=0.0):
    split = DimSplit(d_cr, d_cv)
    return CtcSystem(np.eye(split.total, dtype=complex),
                     maximally_mixed(d_cr), split, p)


def test_ctc_system_validation():
    with pytest.raises(ValueError):
        CtcSystem(np.eye(8), KET0, DimSplit(2, 2))  # unitary dim mismatch
    with pytest.raises(ValueError):
        CtcSystem(np.eye(8), maximally_mixed(4), DimSplit(2, 4))  # CR dim
    with pytest.raises(ValueError):
        CtcSystem(np.eye(8), np.stack([KET0, KET0]), DimSplit(2, 4))  # a stack
    with pytest.raises(ValueError):
        CtcSystem(np.eye(8), KET0, DimSplit(2, 4), p=1.0)  # p out of range
    with pytest.raises(ValueError):
        CtcSystem(np.diag([1.0, 2.0]), np.eye(1), DimSplit(1, 2))  # not unitary


def test_cv_map_identity_unitary():
    sys = _identity_system()
    for seed in range(5):
        tau = random_density(4, seed)
        assert np.abs(cv_map(sys, tau) - tau).max() < 1e-14


def test_cv_map_cycling_step():
    sys = CtcSystem(cycling_unitary(), KET0, DimSplit(2, 4))
    out = cv_map(sys, STABLE)
    assert np.abs(out - np.diag([0.25, 0.0, 0.25, 0.5])).max() < 1e-12


def test_cv_map_bistable_from_maximally_mixed():
    # one step moves the whole level-1 population onto level 0
    sys = CtcSystem(bistable_unitary(), KET0, DimSplit(2, 4))
    out = cv_map(sys, maximally_mixed(4))
    assert np.abs(out - STABLE).max() < 1e-12


def test_cv_map_dimension_mismatch():
    sys = _identity_system()
    with pytest.raises(ValueError):
        cv_map(sys, maximally_mixed(2))
    with pytest.raises(ValueError):
        cv_map(sys, np.stack([maximally_mixed(4)] * 4))  # a stack


def test_depolarize():
    tau = random_density(4, 0)
    assert np.abs(depolarize(tau, 0.0) - tau).max() == 0.0
    assert np.abs(depolarize(tau, 1.0) - maximally_mixed(4)).max() < 1e-15
    out = depolarize(KET0, 0.5)
    assert np.abs(out - np.diag([0.75, 0.25])).max() < 1e-15
    with pytest.raises(ValueError):
        depolarize(tau, 1.5)
    with pytest.raises(ValueError):
        depolarize(tau, -0.1)


def test_noisy_cv_map_reduces_to_cv_map_at_zero():
    sys = CtcSystem(bistable_unitary(), KET0, DimSplit(2, 4), p=0.0)
    for seed in range(5):
        tau = random_density(4, seed)
        assert np.abs(noisy_cv_map(sys, tau) - cv_map(sys, tau)).max() < 1e-15


def test_noisy_cv_map_fixed_point():
    p = 0.01
    sys = CtcSystem(bistable_unitary(), KET0, DimSplit(2, 4), p=p)
    tau = np.diag([(2 - p) / 4, p / 4, 0.25, 0.25]).astype(complex)
    assert np.abs(noisy_cv_map(sys, tau) - tau).max() < 1e-12


def test_maps_preserve_density_invariants():
    """Trace, Hermiticity, and positivity survive both maps."""
    for name in ("u1", "u2"):
        sys = gallery()[name].system(p=0.1)
        for seed in range(20):
            tau = random_density(4, seed)
            for out in (cv_map(sys, tau), noisy_cv_map(sys, tau)):
                assert abs(np.trace(out) - 1.0) < 1e-12
                assert np.abs(out - out.conj().T).max() < 1e-12
                assert np.linalg.eigvalsh(out).min() > -1e-10


def test_vec_unvec_roundtrip():
    for seed in range(5):
        m = random_density(4, seed)
        assert np.abs(unvec(vec(m)) - m).max() == 0.0
    # column stacking: vec index runs down columns
    m = np.arange(4).reshape(2, 2).astype(complex)
    assert np.array_equal(vec(m), np.array([0, 2, 1, 3], dtype=complex))


def test_superoperator_identity():
    sys = _identity_system()
    m = superoperator(sys, include_noise=False)
    assert np.abs(m - np.eye(16)).max() < 1e-14


def test_superoperator_matches_direct_map():
    for name in ("u1", "u2"):
        for p in (0.0, 0.01):
            sys = gallery()[name].system(p=p)
            m_pure = superoperator(sys, include_noise=False)
            m_noisy = superoperator(sys, include_noise=True)
            for seed in range(50):
                tau = random_density(4, seed)
                d1 = trace_distance(apply_superoperator(m_pure, tau),
                                    cv_map(sys, tau))
                d2 = trace_distance(apply_superoperator(m_noisy, tau),
                                    noisy_cv_map(sys, tau))
                assert d1 < 1e-12
                assert d2 < 1e-12


def test_superoperator_spectrum_in_unit_disk():
    for name in ("u1", "u2"):
        sys = gallery()[name].system()
        w = np.linalg.eigvals(superoperator(sys, include_noise=False))
        radius = np.abs(w).max()
        assert radius <= 1 + 1e-9
        assert radius > 1 - 1e-9  # trace preservation pins an eigenvalue at 1


def test_choi_identity_map():
    m = np.eye(4, dtype=complex)
    c = choi_matrix(m)
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1.0
    assert np.abs(c - np.outer(v, v)).max() < 1e-14
    assert abs(np.trace(c) - 2.0) < 1e-12


def test_choi_fully_depolarizing():
    # map tau -> tr(tau) I/2, written directly as a superoperator
    i2 = np.eye(2, dtype=complex)
    m = np.outer(vec(i2 / 2), vec(i2).conj())
    c = choi_matrix(m)
    assert np.abs(c - np.eye(4) / 2).max() < 1e-14


def test_choi_dephasing():
    m = np.diag([1.0, 0.0, 0.0, 1.0]).astype(complex)
    c = choi_matrix(m)
    assert np.abs(c - np.diag([1.0, 0.0, 0.0, 1.0])).max() < 1e-14


def test_kraus_from_choi_identity():
    ops = kraus_from_choi(choi_matrix(np.eye(4, dtype=complex)))
    assert len(ops) == 1
    e = ops[0]
    phase = e[0, 0] / abs(e[0, 0])
    assert np.abs(e / phase - np.eye(2)).max() < 1e-12


def test_kraus_roundtrip_on_noisy_channel():
    """Vectorize, Choi-decompose, and rebuild; the channel must not move."""
    sys = gallery()["u2"].system(p=0.1)
    m = superoperator(sys, include_noise=True)
    ops = kraus_from_choi(choi_matrix(m))
    assert kraus_completeness_defect(ops) < 1e-9
    m_back = superoperator_from_kraus(ops)
    assert channel_distance(m, m_back) < 1e-9


def test_kraus_set_is_canonical_within_a_degenerate_eigenspace():
    """u2's limit Choi matrix has eigenvalue 1 four times over. The set
    extracted from it is the reference set operator by operator, and a
    1e-14 Hermiticity-preserving change of the limit moves it by at most
    1e-10, keeping it within 1e-12 of the reference set as a channel."""
    lim = limit_superoperator(gallery()["u2"].system())
    ops, reference = kraus_from_choi(choi_matrix(lim)), limit_kraus_ops()
    assert len(ops) == 4
    assert max(np.abs(e - r).max() for e, r in zip(ops, reference)) < 1e-12
    rng = np.random.default_rng(12)
    for _ in range(20):
        a, b = rng.standard_normal((2, 4, 4)) + 1j * rng.standard_normal((2, 4, 4))
        change = superoperator_from_kraus([a]) - superoperator_from_kraus([b])
        moved = kraus_from_choi(choi_matrix(lim + 1e-14 * change / np.abs(change).max()))
        assert len(moved) == 4
        assert max(np.abs(e - m).max() for e, m in zip(ops, moved)) < 1e-10
        assert channel_distance(superoperator_from_kraus(moved),
                                superoperator_from_kraus(reference)) < 1e-12


def test_kraus_from_choi_rejects_non_psd():
    with pytest.raises(ValueError):
        kraus_from_choi(np.diag([1.0, -0.5, 0.0, 0.0]))


def test_channel_distance_values():
    m = superoperator(gallery()["u2"].system(), include_noise=False)
    assert channel_distance(m, m) == 0.0
    i2 = np.eye(2, dtype=complex)
    identity = np.eye(4, dtype=complex)
    depol = np.outer(vec(i2 / 2), vec(i2).conj())
    assert abs(channel_distance(identity, depol) - np.sqrt(3.0)) < 1e-12


def test_channel_distance_gauge_invariance():
    """Mixing a Kraus set by a unitary leaves the channel unchanged."""
    ops = limit_kraus_ops()
    rng = np.random.default_rng(11)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    q, r = np.linalg.qr(g)
    v = q * (np.diag(r) / np.abs(np.diag(r)))
    mixed = [sum(v[i, j] * ops[j] for j in range(4)) for i in range(4)]
    assert channel_distance(superoperator_from_kraus(ops),
                            superoperator_from_kraus(mixed)) < 1e-10


def test_kraus_commutator_residual():
    mm = maximally_mixed(4)
    assert kraus_commutator_residual([np.eye(4, dtype=complex)], mm) == 0.0
    # the reference operator set fails to commute: the jump operator alone
    # contributes a residual of sqrt(2)/4 at the maximally mixed state
    assert abs(kraus_commutator_residual(limit_kraus_ops(), mm)
               - np.sqrt(2) / 4) < 1e-12
    q = 0.3
    z = np.diag([1.0, -1.0]).astype(complex)
    diag_set = [np.sqrt(q) * np.eye(2, dtype=complex), np.sqrt(1 - q) * z]
    tau = np.diag([0.7, 0.3]).astype(complex)
    assert kraus_commutator_residual(diag_set, tau) < 1e-15


@pytest.mark.parametrize("p", [0.0, 0.05])
@pytest.mark.parametrize("d_cr,d_cv", [(2, 2), (3, 2), (2, 3), (4, 3)])
def test_superoperator_haar_properties(d_cr, d_cv, p, haar):
    # Dense random circuits, unlike the gallery's permutations, catch a
    # swapped index in the superoperator's einsum.
    rng = np.random.default_rng(10 * d_cr + d_cv)
    split = DimSplit(d_cr, d_cv)
    ident = vec(np.eye(d_cv))
    for k in range(3):
        sys = CtcSystem(haar(split.total, rng), random_density(d_cr, 50 + k),
                        split, p)
        m = superoperator(sys, include_noise=True)
        for j in range(3):
            x = random_density(d_cv, 80 + j)
            assert np.abs(apply_superoperator(m, x) - noisy_cv_map(sys, x)).max() < 1e-13
        c = choi_matrix(m)
        assert np.linalg.eigvalsh(0.5 * (c + c.conj().T)).min() > -1e-12
        assert np.abs(ident @ m - ident).max() < 1e-13  # trace preserving
        assert np.abs(superoperator_from_kraus(kraus_from_choi(c)) - m).max() < 1e-12


@pytest.mark.parametrize("case", ["u1", "u2", "u3", (2, 2), (3, 2), (2, 3),
                                  (4, 3), (4, 2), (8, 2), (2, 8), (5, 3)])
def test_superoperator_fixed_path_matches_planned(case, haar):
    """The fixed contraction order gives the bits a planned einsum gives."""
    if isinstance(case, str):
        sys = gallery()[case].system()
    else:
        d_cr, d_cv = case
        rng = np.random.default_rng(20 * d_cr + d_cv)
        sys = CtcSystem(haar(d_cr * d_cv, rng), random_density(d_cr, 90 + d_cv),
                        DimSplit(d_cr, d_cv))
    d = sys.d_cv
    u = sys.u.reshape(sys.split.d_cr, d, sys.split.d_cr, d)
    planned = np.einsum("abce,cf,agfh->gbhe", u, sys.rho_cr, u.conj(),
                        optimize=True).reshape(d * d, d * d)
    assert np.array_equal(superoperator(sys), planned)


def _pure_states(d, n, rng):
    v = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return np.einsum("ni,nj->nij", v, v.conj())


@pytest.mark.parametrize("case", ["u1", "u2", "u3", (2, 2), (3, 2), (2, 3),
                                  (4, 3), (8, 2), (2, 8), (1, 3), (3, 1)])
def test_stacks_keep_the_lone_bits(case, haar):
    """Each loop map of a stack has the bits of the lone ``superoperator``
    call and is the unplanned three-operand einsum within 1e-15. ``cv_map``
    is that map's real view ``Re(B^H M B)`` applied to the state's
    coordinates, bit for bit, and the CV marginal ``partial_trace`` of
    ``u (rho_cr (x) tau) u^dag`` within 1e-15."""
    rng = np.random.default_rng(sum(map(ord, str(case))))
    if isinstance(case, str):
        u, split = gallery()[case].unitary, gallery()[case].split
    else:
        split = DimSplit(*case)
        u = haar(split.total, rng)
    n, d = 40, split.d_cv
    crs = np.concatenate([np.stack([random_density(split.d_cr, 300 + k) for k in range(n // 2)]),
                          _pure_states(split.d_cr, n // 2, rng)])
    taus = np.stack([random_density(d, 700 + k) for k in range(n)])
    maps = loop_maps(CtcSystem(u, crs[0], split), crs)
    u4, b = u.reshape(split.d_cr, d, split.d_cr, d), hermitian_basis(d)
    for k in range(n):
        sys = CtcSystem(u, crs[k], split)
        lone = superoperator(sys)
        assert maps[k].tobytes() == lone.tobytes(), k
        formula = np.einsum("abce,cf,agfh->gbhe", u4, crs[k], u4.conj(),
                            optimize=False).reshape(d * d, d * d)
        assert np.abs(lone - formula).max() < 1e-15, k
        mr = (b.conj().T @ lone @ b).real.copy()  # contiguous, so the matvec runs in BLAS
        img = mr @ (vec(taus[k]) @ b.conj()).real
        step = cv_map(sys, taus[k])
        assert step.tobytes() == (img @ b.T).reshape(d, d).T.tobytes(), k
        out = partial_trace(u @ np.kron(crs[k], taus[k]) @ u.conj().T, split)
        assert np.abs(step - out).max() < 1e-15, k
