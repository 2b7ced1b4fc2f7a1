"""The induced CV-side channel of a closed-timelike-curve circuit, and
superoperator / Choi / Kraus machinery for analyzing its iterates.

A circuit is a ``CtcSystem``: a joint unitary ``u`` on the CR x CV space
(CR-major ordering), the state ``rho_cr`` fed into the CR side, and a
depolarization strength ``p`` applied to the CV side after each pass.

One pass of the loop sends the CV state ``tau`` to
``Tr_CR( u (rho_cr (x) tau) u^dag )``; that linear map is what
``superoperator`` represents as a matrix, and ``cv_map`` applies it in the
real coordinates of ``qmat``'s coordinate map, as every engine does.

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
    _as_square,
    _coords,
    _real_map,
    _states,
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
        if rho.shape != (self.split.d_cr, self.split.d_cr):
            raise ValueError(
                f"CR state shape {rho.shape} does not match d_cr={self.split.d_cr}")
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
    if t.shape != (sys.d_cv, sys.d_cv):
        raise ValueError(f"CV state shape {t.shape} does not match d_cv={sys.d_cv}")
    return t


def cv_map(sys: CtcSystem, tau) -> np.ndarray:
    """One noiseless pass: the CV marginal of ``u (rho_cr (x) tau) u^dag``,
    as ``superoperator``'s real map applied to ``tau``'s coordinates."""
    return _states(_real_map(superoperator(sys)) @ _coords(_cv_state(sys, tau)))[0]


def depolarize(tau, p: float) -> np.ndarray:
    """Depolarizing channel ``(1-p) tau + p I/d``, on one state or on each
    of a stack of shape ``(..., d, d)``."""
    t = check_density(tau)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"depolarization strength p={p} outside [0, 1]")
    return (1.0 - p) * t + p * maximally_mixed(t.shape[-1])


def noisy_cv_map(sys: CtcSystem, tau) -> np.ndarray:
    """One pass followed by depolarization at the system's ``p``."""
    return depolarize(cv_map(sys, tau), sys.p)


def vec(mat) -> np.ndarray:
    """Column-stacking vectorization: ``vec(A)[i + d*j] = A[i, j]``."""
    return np.asarray(mat, dtype=complex).reshape(-1, order="F")


def unvec(v) -> np.ndarray:
    """Inverse of ``vec``."""
    a = np.asarray(v, dtype=complex).reshape(-1)
    d = int(round(np.sqrt(a.size)))
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
    """Matrix of one loop pass on vectorized operators, shape (d^2, d^2):
    the one-input call of ``loop_maps``.

    With ``include_noise`` the depolarizing step at ``sys.p`` is composed
    in as the rank-one update ``(1-p) M + p vec(I/d) vec(I)^T``.
    """
    m = loop_maps(sys, sys.rho_cr[None])
    return (_with_noise(sys, m) if include_noise else m)[0]


def _with_noise(sys: CtcSystem, maps) -> np.ndarray:
    """The loop-pass matrices ``maps`` (n, d^2, d^2) with the depolarizing
    step at ``sys.p`` composed in, ``superoperator``'s rank-one update."""
    if sys.p == 0.0:
        return maps
    d = sys.d_cv
    return (1.0 - sys.p) * maps + sys.p * np.outer(vec(maximally_mixed(d)), vec(np.eye(d)))


def loop_maps(sys: CtcSystem, rho_crs) -> np.ndarray:
    """Noiseless loop-pass matrices of ``sys`` with each CR input of the
    stack ``rho_crs`` (n, d_cr, d_cr) in place of ``sys.rho_cr``, shape
    (n, d^2, d^2); the CR inputs are taken as checked density matrices.

    With ``u`` indexed as ``u[a, b, c, e]`` (output CR, output CV, input CR,
    input CV), entry ``[k, b + d*b', e + d*e']`` is
    ``sum_{a,c,f} u[a,b,c,e] rho_crs[k,c,f] conj(u[a,b',f,e'])``: two
    batched matrix products, the ones numpy's planned einsum of one CR input
    runs, so every map of a stack has that einsum's and its lone call's bits.
    """
    d_cr, d = sys.split.d_cr, sys.d_cv
    u = sys.u.reshape(d_cr, d, d_cr, d)
    t = rho_crs.swapaxes(-1, -2) @ u.transpose(2, 0, 1, 3).reshape(d_cr, -1)  # [k, f, (a, b, e)]
    t = t.reshape(-1, d_cr, d_cr, d * d).transpose(0, 3, 2, 1).reshape(-1, d * d, d_cr * d_cr)
    out = t @ u.conj().transpose(0, 2, 1, 3).reshape(d_cr * d_cr, d * d)  # [k, (b, e), (b', e')]
    return out.reshape(-1, d, d, d, d).transpose(0, 3, 1, 4, 2).reshape(-1, d * d, d * d)


def apply_superoperator(m, mat) -> np.ndarray:
    """Apply a superoperator matrix to an operator."""
    d = _superop_dim(m)
    a = _as_square(mat, "operator")
    if a.shape[0] != d:
        raise ValueError(f"operator dimension {a.shape[0]} does not match superoperator {d}")
    return unvec(np.asarray(m) @ vec(a))


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


def kraus_from_choi(c) -> list[np.ndarray]:
    """Kraus operators of a channel from its Choi matrix eigendecomposition.

    Eigenvalues below ``KRAUS_EIG_CUTOFF`` are dropped; an eigenvalue below
    ``-1e-9 * max(1, largest eigenvalue)`` (not completely positive) raises
    ``ValueError``. Eigenvalues within 1e-8 of their neighbour form a
    cluster, whose operators are ``C^{1/2} q_i``: ``C`` the Choi matrix on
    the cluster, ``q_i`` the Gram-Schmidt of the cluster projector's columns
    in index order. So the set does not rotate within a degenerate
    eigenspace when ``c`` changes in its last bits.
    """
    a = _as_square(c, "Choi matrix")
    if np.abs(a - a.conj().T).max() > 1e-8:
        raise ValueError("Choi matrix is not Hermitian")
    d = int(round(np.sqrt(a.shape[0])))
    if d * d != a.shape[0]:
        raise ValueError("Choi matrix dimension is not a perfect square")
    w, v = np.linalg.eigh(0.5 * (a + a.conj().T))
    if w.min() < -1e-9 * max(1.0, w.max()):
        raise ValueError(f"Choi matrix is not PSD (eigenvalue {w.min():.3e})")
    w, v = w[w > KRAUS_EIG_CUTOFF], v[:, w > KRAUS_EIG_CUTOFF]
    ops = []
    for cluster in np.split(np.arange(w.size), np.flatnonzero(np.diff(w) > 1e-8) + 1):
        vc = v[:, cluster]
        proj, root = vc @ vc.conj().T, (vc * np.sqrt(w[cluster])) @ vc.conj().T
        for j in range(len(proj)):
            # Column j of the residual projector has squared norm proj[j, j];
            # a rank-r one has an entry of r / len(proj) or more, so r are taken.
            if proj[j, j].real > 0.5 / len(proj):
                q = proj[:, j] / np.sqrt(proj[j, j].real)
                proj = proj - np.outer(q, q.conj())
                ops.append((root @ q).reshape(d, d).T)
    if not ops:
        raise ValueError("no Kraus operators above the eigenvalue cutoff")
    return ops


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
