import numpy as np
import pytest

from dctc.channels import CtcSystem, cv_map
from dctc.engines import consistency_residual, fixed_subspace
from dctc.gallery import (
    bistable_unitary,
    cr_eps,
    cr_mixed,
    cr_pure,
    cr_swap_symmetric,
    cycling_unitary,
    discontinuity_unitary,
    gallery,
    limit_kraus_ops,
)
from dctc.maxent import max_entropy_fixed_state
from dctc.qmat import (
    DimSplit,
    check_density,
    check_unitary,
    maximally_mixed,
    von_neumann_entropy,
)

STABLE = np.diag([0.5, 0.0, 0.25, 0.25]).astype(complex)
FLAT = np.diag([1 / 3, 0.0, 1 / 3, 1 / 3]).astype(complex)


def test_unitarity_of_all_circuits():
    assert np.abs(cycling_unitary() @ cycling_unitary().conj().T
                  - np.eye(8)).max() < 1e-15
    assert np.abs(bistable_unitary() @ bistable_unitary().conj().T
                  - np.eye(8)).max() < 1e-12
    assert np.abs(discontinuity_unitary() @ discontinuity_unitary().conj().T
                  - np.eye(8)).max() < 1e-15


def test_cycling_unitary_is_a_permutation():
    u = cycling_unitary()
    assert set(np.unique(np.abs(u))) == {0.0, 1.0}
    assert (np.abs(u).sum(axis=0) == 1.0).all()
    assert (np.abs(u).sum(axis=1) == 1.0).all()


def test_cycling_unitary_action():
    # in the joint index cr * 4 + cv, the map reads input ket -> output ket:
    # 01->00, 02->10, 03->02, 00->03, 10->01, and 11, 12, 13 stay put
    u = cycling_unitary()
    pairs = [((0, 0), (0, 1)), ((1, 0), (0, 2)), ((0, 2), (0, 3)),
             ((0, 3), (0, 0)), ((0, 1), (1, 0)), ((1, 1), (1, 1)),
             ((1, 2), (1, 2)), ((1, 3), (1, 3))]
    for (cr_o, cv_o), (cr_i, cv_i) in pairs:
        assert u[cr_o * 4 + cv_o, cr_i * 4 + cv_i] == 1.0


def test_bistable_unitary_entry_values():
    u = bistable_unitary()
    mags = np.unique(np.round(np.abs(u), 12))
    assert set(mags) == {0.0, round(1 / np.sqrt(2), 12), 1.0}


def test_bistable_fixed_states():
    sys = gallery()["u2"].system()
    for state in (STABLE, FLAT):
        assert consistency_residual(sys, state) < 1e-12
    assert abs(von_neumann_entropy(STABLE) - 1.5) < 1e-12
    assert abs(von_neumann_entropy(FLAT) - np.log2(3)) < 1e-12


def test_discontinuity_unitary_is_a_permutation():
    u = discontinuity_unitary()
    assert set(np.unique(np.abs(u))) == {0.0, 1.0}
    assert (np.abs(u).sum(axis=0) == 1.0).all()
    # kets |alpha beta cv>, read as binary numbers, are the joint indices;
    # the map reads input ket -> output ket
    pairs = [("000", "100"), ("001", "001"), ("010", "011"), ("011", "010"),
             ("100", "000"), ("101", "110"), ("110", "101"), ("111", "111")]
    for o, i in pairs:
        assert u[int(o, 2), int(i, 2)] == 1.0


def _span_projector(mats):
    q = np.linalg.qr(np.array([np.asarray(m).reshape(-1) for m in mats]).T)[0]
    return q @ q.conj().T


def test_discontinuity_fixed_sets_by_input():
    """The three documented CR inputs at eps = 0.1. Cases A and B fix the
    sets documented for each other (the recorded label swap)."""
    g = gallery()["u3"]
    ket0 = np.diag([1.0, 0.0]).astype(complex)
    ket1 = np.diag([0.0, 1.0]).astype(complex)
    mix = np.diag([0.9, 0.1]).astype(complex)

    # case A: exactly-|0> alpha with nearly-|0> beta fixes only I/2
    sub = fixed_subspace(g.system(rho_cr=np.kron(ket0, mix)))
    assert len(sub) == 1
    assert np.abs(_span_projector(sub)
                  - _span_projector([np.eye(2)])).max() < 1e-8

    # case B: both CR qubits at |0> fix every diagonal CV state, and the
    # entropy-maximizing choice is the maximally mixed one
    sys = g.system(rho_cr=np.kron(ket0, ket0))
    sub = fixed_subspace(sys)
    assert len(sub) == 2
    assert np.abs(_span_projector(sub)
                  - _span_projector([ket0, ket1])).max() < 1e-8
    res = max_entropy_fixed_state(sys)
    assert np.abs(res.state - maximally_mixed(2)).max() < 1e-6

    # case C: nearly-|0> alpha with exactly-|0> beta pins the CV ground state
    sys = g.system(rho_cr=np.kron(mix, ket0))
    sub = fixed_subspace(sys)
    assert len(sub) == 1
    b = sub[0]
    b = b / np.trace(b)
    assert np.abs(b - ket0).max() < 1e-8


def test_cr_mixed():
    assert np.abs(cr_mixed(0.0) - np.diag([1.0, 0.0])).max() < 1e-15
    assert np.abs(cr_mixed(1.0) - np.eye(2) / 2).max() < 1e-15
    assert np.abs(cr_mixed(0.5) - np.diag([2 / 3, 1 / 3])).max() < 1e-15
    for s in np.linspace(0.0, 1.0, 11):
        rho = cr_mixed(s)
        check_density(rho)
        purity = float(np.real(np.trace(rho @ rho)))
        assert abs(purity - (1 + s * s) / (1 + s) ** 2) < 1e-12
    with pytest.raises(ValueError):
        cr_mixed(1.2)


def test_cr_pure():
    assert np.abs(cr_pure(0.0) - np.diag([1.0, 0.0])).max() < 1e-15
    plus = np.full((2, 2), 0.5, dtype=complex)
    assert np.abs(cr_pure(1.0) - plus).max() < 1e-15
    for s in np.linspace(0.0, 1.0, 11):
        rho = cr_pure(s)
        check_density(rho)
        assert abs(np.real(np.trace(rho @ rho)) - 1.0) < 1e-12
    with pytest.raises(ValueError):
        cr_pure(-0.1)


def test_cr_eps():
    assert np.abs(cr_eps(0.0, 0.0, 0.0, 0.0)
                  - np.diag([1.0, 0.0, 0.0, 0.0])).max() < 1e-15
    # mixed family: diagonal factors
    rho = cr_eps(0.3, 0.0, 0.2, 0.0)
    assert np.abs(rho - np.kron(np.diag([0.7, 0.3]),
                                np.diag([0.8, 0.2]))).max() < 1e-12
    # pure family: off-diagonal at the positivity ceiling gives rank 1
    d = np.sqrt(0.3 * 0.7)
    rho = cr_eps(0.3, d, 0.3, d)
    w = np.linalg.eigvalsh(rho)
    assert w.max() > 1 - 1e-12
    assert np.abs(w[:-1]).max() < 1e-12
    with pytest.raises(ValueError):
        cr_eps(0.5, 0.6, 0.0, 0.0)


def test_known_states():
    """The u1 period-3 cycle, its average and u2's two contested states."""
    cycle = [np.diag([0.5, 0.0, 0.25, 0.25]).astype(complex),
             np.diag([0.25, 0.0, 0.25, 0.5]).astype(complex),
             np.diag([0.25, 0.0, 0.5, 0.25]).astype(complex)]
    for st in (*cycle, STABLE, FLAT):
        check_density(st)
    assert abs(von_neumann_entropy(STABLE) - 1.5) < 1e-12
    assert abs(von_neumann_entropy(FLAT) - np.log2(3)) < 1e-12
    assert np.abs(sum(cycle) / 3 - FLAT).max() < 1e-15
    # the three cycle states map one onto the next under the cycling circuit
    sys = gallery()["u1"].system()
    for k in range(3):
        assert np.abs(cv_map(sys, cycle[k]) - cycle[(k + 1) % 3]).max() < 1e-12


def test_limit_kraus_ops_completeness():
    ops = limit_kraus_ops()
    assert len(ops) == 4
    acc = sum(e.conj().T @ e for e in ops)
    assert np.abs(acc - np.eye(4)).max() < 1e-12


def test_cr_swap_symmetric():
    assert cr_swap_symmetric(np.eye(8, dtype=complex))
    assert not cr_swap_symmetric(discontinuity_unitary())
    with pytest.raises(ValueError):
        cr_swap_symmetric(np.eye(8), split=DimSplit(2, 4))


def test_gallery_structure():
    g = gallery()
    assert set(g) == {"u1", "u2", "u3"}
    assert g["u1"].split == DimSplit(2, 4)
    assert g["u2"].split == DimSplit(2, 4)
    assert g["u3"].split == DimSplit(4, 2)
    for gs in g.values():
        check_unitary(gs.unitary)
        check_density(gs.default_cr)
        assert gs.notes
    sys = g["u2"].system(p=0.02)
    assert isinstance(sys, CtcSystem)
    assert sys.p == 0.02
    override = np.diag([0.4, 0.6]).astype(complex)
    assert np.abs(g["u2"].system(rho_cr=override).rho_cr - override).max() == 0.0

