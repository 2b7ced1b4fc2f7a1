import numpy as np
import pytest

from dctc.channels import (
    CtcSystem,
    apply_superoperator,
    channel_distance,
    choi_matrix,
    cr_output,
    cv_map,
    depolarize,
    kraus_apply,
    kraus_commutator_residual,
    kraus_completeness_defect,
    kraus_from_choi,
    noisy_cv_map,
    superoperator,
    superoperator_from_kraus,
    unvec,
    vec,
)
from dctc.gallery import bistable_unitary, cycling_unitary, gallery, limit_kraus_ops
from dctc.qmat import DimSplit, maximally_mixed, random_density, trace_distance

KET0 = np.diag([1.0, 0.0]).astype(complex)
STABLE = np.diag([0.5, 0.0, 0.25, 0.25]).astype(complex)
FLAT = np.diag([1 / 3, 0.0, 1 / 3, 1 / 3]).astype(complex)
SWAP2 = np.array([[1, 0, 0, 0],
                  [0, 0, 1, 0],
                  [0, 1, 0, 0],
                  [0, 0, 0, 1]], dtype=complex)


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


def test_cr_output_identity_and_swap():
    sys = _identity_system(d_cr=2, d_cv=2)
    tau = random_density(2, 3)
    assert np.abs(cr_output(sys, tau) - maximally_mixed(2)).max() < 1e-14

    for seed in range(5):
        rho = random_density(2, seed)
        tau = random_density(2, seed + 20)
        sys = CtcSystem(SWAP2, rho, DimSplit(2, 2))
        assert np.abs(cr_output(sys, tau) - tau).max() < 1e-12


def test_cr_output_bistable_flat_state():
    sys = CtcSystem(bistable_unitary(), KET0, DimSplit(2, 4))
    out = cr_output(sys, FLAT)
    assert np.abs(out - np.diag([1 / 3, 2 / 3])).max() < 1e-12


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
    for seed in range(20):
        tau = random_density(4, seed)
        assert trace_distance(kraus_apply(ops, tau),
                              apply_superoperator(m, tau)) < 1e-9


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
