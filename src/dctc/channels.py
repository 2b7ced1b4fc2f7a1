"""The induced CV-side channel of a closed-timelike-curve circuit, and
superoperator / Choi / Kraus machinery for analyzing its iterates.

A circuit is a ``CtcSystem``: a joint unitary ``u`` on the CR x CV space
(CR-major ordering), the state ``rho_cr`` fed into the CR side, and a
depolarization strength ``p`` applied to the CV side after each pass.

One pass of the loop sends the CV state ``tau`` to
``Tr_CR( u (rho_cr (x) tau) u^dag )``; that linear map is what ``cv_map``
applies and what ``superoperator`` represents as a matrix.

Vectorization is column-stacking: ``vec(A)[i + d*j] = A[i, j]``, so
``vec(E X E^dag) = kron(conj(E), E) vec(X)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qmat import (
    DimSplit,
    check_density,
    check_unitary,
    maximally_mixed,
    partial_trace,
    _as_square,
)

KRAUS_EIG_CUTOFF = 1e-10


@dataclass(frozen=True)
class CtcSystem:
    """A closed-timelike-curve circuit: joint unitary, CR input, noise strength.

    Fields are treated as immutable; do not mutate the arrays in place.

    u : unitary on the joint space, shape (split.total, split.total)
    rho_cr : density matrix fed into the CR side, shape (split.d_cr, split.d_cr)
    split : CR/CV dimensions, CR-major ordering
    p : depolarization strength applied to the CV side, 0 <= p < 1
    """

    u: np.ndarray
    rho_cr: np.ndarray
    split: DimSplit
    p: float = 0.0

    def __post_init__(self):
        u = check_unitary(self.u)
        rho = check_density(self.rho_cr)
        if u.shape[0] != self.split.total:
            raise ValueError(
                f"unitary dimension {u.shape[0]} does not match split {self.split}")
        if rho.shape[0] != self.split.d_cr:
            raise ValueError(
                f"CR state dimension {rho.shape[0]} does not match d_cr={self.split.d_cr}")
        if not 0.0 <= self.p < 1.0:
            raise ValueError(f"noise strength p={self.p} outside [0, 1)")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "rho_cr", rho)

    @property
    def d_cv(self) -> int:
        return self.split.d_cv


def _cv_state(sys: CtcSystem, tau) -> np.ndarray:
    """Validate ``tau`` as a density matrix on the system's CV side."""
    t = check_density(tau)
    if t.shape[0] != sys.d_cv:
        raise ValueError(f"CV state dimension {t.shape[0]} does not match d_cv={sys.d_cv}")
    return t


def _interact(sys: CtcSystem, tau, keep: str) -> np.ndarray:
    """One noiseless loop pass on CV state ``tau``: the Hermitized ``keep``
    marginal of ``u (rho_cr (x) tau) u^dag``."""
    after = sys.u @ np.kron(sys.rho_cr, _cv_state(sys, tau)) @ sys.u.conj().T
    out = partial_trace(after, sys.split, keep=keep)
    return 0.5 * (out + out.conj().T)


def cv_map(sys: CtcSystem, tau) -> np.ndarray:
    """One noiseless pass: the CV marginal of ``u (rho_cr (x) tau) u^dag``."""
    return _interact(sys, tau, "cv")


def cr_output(sys: CtcSystem, tau) -> np.ndarray:
    """The CR-side marginal of ``u (rho_cr (x) tau) u^dag`` for CV state ``tau``."""
    return _interact(sys, tau, "cr")


def depolarize(tau, p: float) -> np.ndarray:
    """Depolarizing channel ``(1-p) tau + p I/d``."""
    t = check_density(tau)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"depolarization strength p={p} outside [0, 1]")
    return (1.0 - p) * t + p * maximally_mixed(t.shape[0])


def noisy_cv_map(sys: CtcSystem, tau) -> np.ndarray:
    """One pass followed by depolarization at the system's ``p``."""
    return depolarize(cv_map(sys, tau), sys.p)


def vec(mat) -> np.ndarray:
    """Column-stacking vectorization: ``vec(A)[i + d*j] = A[i, j]``."""
    return np.asarray(mat, dtype=complex).reshape(-1, order="F")


def unvec(v, dim: int | None = None) -> np.ndarray:
    """Inverse of ``vec``."""
    a = np.asarray(v, dtype=complex).reshape(-1)
    d = int(round(np.sqrt(a.size))) if dim is None else dim
    if d * d != a.size:
        raise ValueError(f"vector length {a.size} is not a perfect square")
    return a.reshape(d, d, order="F")


def _superop_dim(m) -> int:
    a = _as_square(m, "superoperator")
    d = int(round(np.sqrt(a.shape[0])))
    if d * d != a.shape[0]:
        raise ValueError(f"superoperator dimension {a.shape[0]} is not a perfect square")
    return d


def superoperator(sys: CtcSystem, include_noise: bool = False) -> np.ndarray:
    """Matrix of one loop pass on vectorized operators, shape (d^2, d^2).

    With ``u`` indexed as ``u[a, b, c, e]`` (output CR, output CV, input CR,
    input CV), entry ``[b + d*b', e + d*e']`` is
    ``sum_{a,c,f} u[a,b,c,e] rho_cr[c,f] conj(u[a,b',f,e'])``, one einsum.
    With ``include_noise`` the depolarizing step at ``sys.p`` is composed
    in as the rank-one update ``(1-p) M + p vec(I/d) vec(I)^T``.
    """
    d = sys.d_cv
    u = sys.u.reshape(sys.split.d_cr, d, sys.split.d_cr, d)
    m = np.einsum("abce,cf,agfh->gbhe", u, sys.rho_cr, u.conj(),
                  optimize=True).reshape(d * d, d * d)
    if include_noise and sys.p > 0.0:
        m = (1.0 - sys.p) * m + sys.p * np.outer(vec(maximally_mixed(d)), vec(np.eye(d)))
    return m


def apply_superoperator(m, mat) -> np.ndarray:
    """Apply a superoperator matrix to an operator."""
    d = _superop_dim(m)
    a = _as_square(mat, "operator")
    if a.shape[0] != d:
        raise ValueError(f"operator dimension {a.shape[0]} does not match superoperator {d}")
    return unvec(np.asarray(m) @ vec(a), d)


def superoperator_from_kraus(ops) -> np.ndarray:
    """Superoperator matrix ``sum_j kron(conj(E_j), E_j)`` of a Kraus set."""
    if len(ops) == 0:
        raise ValueError("empty Kraus set")
    mats = [_as_square(e, "Kraus operator") for e in ops]
    d = mats[0].shape[0]
    if any(e.shape[0] != d for e in mats):
        raise ValueError("Kraus operators have mismatched dimensions")
    e = np.array(mats)
    return np.einsum("kab,kcd->acbd", e.conj(), e).reshape(d * d, d * d)


def choi_matrix(m) -> np.ndarray:
    """Choi matrix ``sum_ij |i><j| (x) Map(|i><j|)`` of a superoperator.

    Trace equals d for a trace-preserving map; the matrix is PSD iff the map
    is completely positive.
    """
    d = _superop_dim(m)
    # Block (i, j) is unvec of column i + d*j: c[i*d + k, j*d + l] = m[k + d*l, i + d*j].
    a = np.asarray(m, dtype=complex).reshape(d, d, d, d)
    return a.transpose(3, 1, 2, 0).reshape(d * d, d * d)


def kraus_from_choi(c, cutoff: float = KRAUS_EIG_CUTOFF) -> list[np.ndarray]:
    """Kraus operators of a channel from its Choi matrix eigendecomposition.

    Eigenvalues below ``cutoff`` are dropped; a negative eigenvalue beyond
    ``-cutoff`` (not completely positive) raises ``ValueError``.
    """
    a = _as_square(c, "Choi matrix")
    if np.abs(a - a.conj().T).max() > 1e-8:
        raise ValueError("Choi matrix is not Hermitian")
    d = int(round(np.sqrt(a.shape[0])))
    if d * d != a.shape[0]:
        raise ValueError("Choi matrix dimension is not a perfect square")
    w, v = np.linalg.eigh(0.5 * (a + a.conj().T))
    if w.min() < -max(cutoff, 1e-9) * max(1.0, w.max()):
        raise ValueError(f"Choi matrix is not PSD (eigenvalue {w.min():.3e})")
    ops = []
    for k in range(w.size):
        if w[k] > cutoff:
            ops.append(np.sqrt(w[k]) * v[:, k].reshape(d, d).T)
    if not ops:
        raise ValueError("no Kraus operators above the eigenvalue cutoff")
    return ops


def kraus_apply(ops, mat) -> np.ndarray:
    """Apply a Kraus set: ``sum_j E_j mat E_j^dag``."""
    a = _as_square(mat, "operator")
    out = np.zeros_like(a)
    for e in ops:
        out += e @ a @ e.conj().T
    return out


def kraus_completeness_defect(ops) -> float:
    """Frobenius norm of ``sum_j E_j^dag E_j - I``."""
    mats = [_as_square(e, "Kraus operator") for e in ops]
    d = mats[0].shape[0]
    s = sum(e.conj().T @ e for e in mats)
    return float(np.linalg.norm(s - np.eye(d)))


def channel_distance(m_a, m_b) -> float:
    """Frobenius distance between the Choi matrices of two superoperators."""
    ca = choi_matrix(m_a)
    cb = choi_matrix(m_b)
    if ca.shape != cb.shape:
        raise ValueError("channel dimensions differ")
    return float(np.linalg.norm(ca - cb))


def kraus_commutator_residual(ops, tau0) -> float:
    """Largest Frobenius norm of ``E_j tau0 E_j^dag - E_j^dag E_j tau0``.

    Zero for every j would mean each Kraus operator leaves ``tau0``'s
    eigenbasis alone in the sense of the claimed fixed-point commutator
    identity; a nonzero maximum exhibits a counterexample to it.
    """
    t = check_density(tau0)
    best = 0.0
    for e in ops:
        a = _as_square(e, "Kraus operator")
        r = a @ t @ a.conj().T - a.conj().T @ a @ t
        best = max(best, float(np.linalg.norm(r)))
    return best
