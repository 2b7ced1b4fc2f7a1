"""Entropy maximization over the consistent-state set.

The consistent CV states of a noiseless system form the density-matrix
slice of an affine space: anchor + (traceless directions inside the fixed
operator span). ``max_entropy_fixed_state`` walks that slice by projected
gradient ascent on the von Neumann entropy, which is concave, so the
ascent finds the selection rule's unique answer.

The anchor comes from ``deutsch_cesaro`` started at the maximally mixed
state. Directions are the traceless subspace of the fixed span (null space
of the trace functional over basis coefficients); projecting per-element
traceless parts instead would step outside the fixed set whenever the
identity operator is not itself fixed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engines import (
    ConvergenceError,
    EngineConfig,
    FixedSubspace,
    consistency_residual,
    deutsch_cesaro,
    fixed_subspace,
)
from .channels import CtcSystem
from .qmat import check_density, maximally_mixed, _as_square

_LOG2 = np.log(2.0)

GRAD_TOL = 1e-8
INTERIOR_EPS = 1e-9
MAX_ASCENT_ITER = 10000
_ARMIJO = 1e-4


@dataclass(frozen=True)
class MaxEntResult:
    """Outcome of the entropy maximization.

    state : the maximum-entropy consistent state
    entropy_bits : its von Neumann entropy
    iterations : gradient-ascent steps taken (0 when the set is a point)
    kkt_residual : Frobenius norm of the final projected gradient
    """

    state: np.ndarray
    entropy_bits: float
    iterations: int
    kkt_residual: float


def entropy_gradient(rho) -> np.ndarray:
    """Euclidean gradient of the entropy in bits, ``-(log2(rho) + I/ln 2)``.

    Requires a strictly positive density matrix; eigenvalues at or below
    1e-13 raise ``ValueError`` (rank-deficient beyond clamping).
    """
    a = _as_square(rho, "density matrix")
    a = 0.5 * (a + a.conj().T)
    w, v = np.linalg.eigh(a)
    if w.min() <= 1e-13:
        raise ValueError(
            f"entropy gradient needs a strictly positive state (min eigenvalue {w.min():.3e})")
    g = v @ np.diag(-(np.log(w) / _LOG2 + 1.0 / _LOG2)) @ v.conj().T
    return 0.5 * (g + g.conj().T)


def _trace_zero_directions(subspace: FixedSubspace) -> np.ndarray:
    """Orthonormal basis of the traceless subspace of the fixed span, shape
    ``(k, d, d)``.

    The combinations are orthonormal as they stand: orthonormal coefficient
    rows over the orthonormal ``FixedSubspace`` basis.
    """
    basis = np.array(subspace.basis)
    traces = np.real(np.trace(basis, axis1=1, axis2=2))
    if np.abs(traces).max() < 1e-12:
        coeff_rows = np.eye(len(basis))
    else:
        # Null space of the 1 x m trace functional.
        coeff_rows = np.linalg.svd(traces.reshape(1, -1))[2][1:]
    return np.tensordot(coeff_rows, basis, axes=1)


def _project(h: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """Hilbert-Schmidt orthogonal projection onto orthonormal Hermitian ``dirs``."""
    coeffs = np.real(np.einsum("kij,ij->k", dirs.conj(), h))
    return np.tensordot(coeffs, dirs, axes=1)


def project_affine(h, subspace: FixedSubspace) -> np.ndarray:
    """Project a Hermitian matrix onto the traceless directions of the
    fixed span (Hilbert-Schmidt orthogonal projection)."""
    return _project(_as_square(h, "matrix"), _trace_zero_directions(subspace))


def _entropy_clamped(rho: np.ndarray) -> float:
    w = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))
    w = w[w > 1e-15]
    return float(-(w * np.log(w)).sum() / _LOG2)


def max_entropy_fixed_state(sys: CtcSystem, *, interior_eps: float = INTERIOR_EPS,
                            grad_tol: float = GRAD_TOL,
                            max_iter: int = MAX_ASCENT_ITER,
                            engine_cfg: EngineConfig | None = None) -> MaxEntResult:
    """Maximum-entropy consistent state of the noiseless system.

    Projected gradient ascent with backtracking line search over the
    affine slice of consistent densities; each accepted step is mixed with
    ``interior_eps`` of the maximally mixed state to keep eigenvalues
    strictly positive for the gradient. Stops when the projected gradient
    norm falls below ``grad_tol`` or after ``max_iter`` steps.
    """
    d = sys.d_cv
    subspace = fixed_subspace(sys)
    anchor_out = deutsch_cesaro(sys, maximally_mixed(d), engine_cfg or EngineConfig())
    if anchor_out.status == "exhausted":
        raise ConvergenceError("no consistent anchor state: averaging did not converge")
    anchor = check_density(anchor_out.state, psd_tol=1e-9)
    if consistency_residual(sys, anchor) >= 1e-6:
        raise ConvergenceError("anchor state is not consistent within 1e-6")

    dirs = _trace_zero_directions(subspace)
    mixed = maximally_mixed(d)
    if len(dirs) == 0:
        return MaxEntResult(anchor, _entropy_clamped(anchor), 0, 0.0)

    def reg(t):
        return (1.0 - interior_eps) * t + interior_eps * mixed

    tau = anchor
    kkt = 0.0
    iterations = 0
    for iterations in range(1, max_iter + 1):
        g = entropy_gradient(reg(tau))
        gp = _project(g, dirs)
        kkt = float(np.linalg.norm(gp))
        if kkt < grad_tol:
            iterations -= 1
            break
        s0 = _entropy_clamped(reg(tau))
        alpha = 1.0
        accepted = None
        while alpha > 1e-18:
            cand = tau + alpha * gp
            w = np.linalg.eigvalsh(0.5 * (cand + cand.conj().T))
            if w.min() >= -1e-12 and _entropy_clamped(reg(cand)) >= s0 + _ARMIJO * alpha * kkt * kkt:
                accepted = cand
                break
            alpha *= 0.5
        if accepted is None:
            break
        tau = reg(accepted)

    tau = 0.5 * (tau + tau.conj().T)
    return MaxEntResult(tau, _entropy_clamped(tau), iterations, kkt)
