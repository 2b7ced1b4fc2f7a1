"""Entropy maximization over the consistent-state set.

The consistent CV states of a noiseless system form the density-matrix
slice of an affine space: anchor + (traceless directions inside the fixed
operator span). The anchor is ``deutsch_cesaro`` from the maximally mixed
state, which is ``P(I)/d`` for the loop map's ergodic projector ``P``.
Every consistent state lies in that anchor's support (``rho <= I`` gives
``rho = P(rho) <= P(I)``), and there the entropy maximizer has full rank.
``max_entropy_fixed_state`` therefore compresses the directions to the
support and runs projected gradient ascent on the von Neumann entropy,
which is concave, so the ascent finds the selection rule's unique answer.
Every accepted iterate is positive definite on the support, so no
regularizer is needed to keep the gradient finite.

Directions are the traceless subspace of the fixed span (null space
of the trace functional over basis coefficients); projecting per-element
traceless parts instead would step outside the fixed set whenever the
identity operator is not itself fixed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engines import (
    ConvergenceError,
    FixedSubspace,
    _coords,
    _fixed_kernels,
    _residuals,
    _states,
)
from .channels import CtcSystem
from .qmat import ENTROPY_CLAMP, check_density, hermitian_span, maximally_mixed, _as_square

_LOG2 = np.log(2.0)

GRAD_TOL = 1e-8
MAX_ASCENT_ITER = 10000
_ARMIJO = 1e-4


@dataclass(frozen=True)
class MaxEntResult:
    """Outcome of the entropy maximization.

    state : the maximum-entropy consistent state
    entropy_bits : its von Neumann entropy, ``+0.0`` for a pure state
    iterations : gradient-ascent steps taken (0 when the set is a point)
    kkt_residual : Frobenius norm of the final projected gradient
    converged : whether the ascent stopped on ``kkt_residual < GRAD_TOL``;
        False when it ran out of steps or its line search found no step
    fixed_dim : dimension of the fixed-operator span, ``fixed_subspace``'s
    anchor : the anchor ``P(I)/d``, ``deutsch_cesaro`` from ``I/d`` bit for
        bit
    """

    state: np.ndarray
    entropy_bits: float
    iterations: int
    kkt_residual: float
    converged: bool
    fixed_dim: int
    anchor: np.ndarray


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


def max_entropy_fixed_state(sys: CtcSystem) -> MaxEntResult:
    """Maximum-entropy consistent state of the noiseless system.

    Projected gradient ascent with backtracking line search over the
    consistent densities, compressed to the support of the anchor
    ``P(I)/d`` (its eigenvalues above ``ENTROPY_CLAMP``). Each search
    starts at the Barzilai-Borwein step (J. Barzilai, J. M. Borwein, IMA J.
    Numer. Anal. 8 (1988) 141-148), which keeps ill-conditioned supports
    from stalling at steps far below their scale. A step is
    accepted only when it keeps the compressed state positive definite and
    meets the Armijo condition. Stops when the projected gradient norm
    falls below ``GRAD_TOL`` (``converged``), or unconverged after
    ``MAX_ASCENT_ITER`` steps or a failed line search. The anchor,
    its consistency check and the fixed span all use one SVD of ``M - Id``
    in real Hermitian-basis coordinates.
    """
    basis, mr, r, proj = _fixed_kernels(sys)
    c = (proj @ _coords(basis, maximally_mixed(sys.d_cv)))[None]
    anchor = check_density(_states(basis, c)[0], psd_tol=1e-9)
    if _residuals(mr, basis, c)[0] >= 1e-6:
        raise ConvergenceError("anchor state is not consistent within 1e-6")

    # The anchor in its own eigenbasis, restricted to its support ``v``.
    w, v = np.linalg.eigh(anchor)
    w, v = w[w > ENTROPY_CLAMP], v[:, w > ENTROPY_CLAMP]
    tau = np.diag(w).astype(complex)
    entropy = float(-(w @ np.log2(w)))
    span = FixedSubspace(tuple(_states(basis, r.T)))
    dirs = v.conj().T @ _trace_zero_directions(span) @ v
    if len(dirs):
        dirs = hermitian_span(dirs)

    kkt = 0.0
    iterations = 0
    converged = False
    step = None  # the last step taken and the projected gradient it started from
    for iterations in range(1, MAX_ASCENT_ITER + 1):
        gp = _project(entropy_gradient(tau), dirs)
        kkt = float(np.linalg.norm(gp))
        if kkt < GRAD_TOL:
            iterations -= 1
            converged = True
            break
        # The line search starts at the Barzilai-Borwein step <s, s> / <s, y>,
        # s the last step and y the fall of the projected gradient since,
        # or at 1 when there is no last step or <s, y> <= 0.
        alpha = 1.0
        if step is not None:
            s, g0 = step
            sy = np.vdot(s, g0 - gp).real
            if sy > 0.0:
                alpha = np.vdot(s, s).real / sy
        while alpha > 1e-18:
            wc = np.linalg.eigvalsh(tau + alpha * gp)
            if wc.min() > ENTROPY_CLAMP:
                sc = float(-(wc @ np.log2(wc)))
                if sc >= entropy + _ARMIJO * alpha * kkt * kkt:
                    break
            alpha *= 0.5
        else:
            break
        step = (alpha * gp, gp)
        tau, entropy = tau + alpha * gp, sc

    state = v @ tau @ v.conj().T
    return MaxEntResult(0.5 * (state + state.conj().T),
                        0.0 if entropy <= 0.0 else entropy, iterations, kkt, converged,
                        r.shape[1], anchor)
