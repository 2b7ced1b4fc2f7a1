"""Entropy maximization over the consistent-state set.

The consistent CV states of a noiseless system form the density-matrix
slice of an affine space: the anchor ``P(I)/d`` (``deutsch_cesaro`` from
the maximally mixed state, ``P`` the loop map's ergodic projector) plus
the traceless operators of the fixed span. Every consistent state lies in
the anchor's support (``rho <= I`` gives ``rho = P(rho) <= P(I)``), and so
does the whole span, since every Hermitian fixed operator is a difference
of fixed states; compressing the span to the support is an isometry.
There the entropy maximizer has full rank. ``max_entropy_fixed_state``
runs projected gradient ascent on the von Neumann entropy, which is
concave, so it finds the selection rule's unique answer; every accepted
iterate is positive definite on the support, so the gradient stays finite.

All of it runs on real coordinates, through ``qmat``'s coordinate map. The
fixed span is the right kernel ``R`` of ``engines._fixed_kernels``, and the
trace is the sum of the first ``d`` coordinates, so the directions are
``R`` times the null space of that row (per-element traceless parts would
leave the fixed set when ``I`` is not fixed). Compressed directions that
are not orthonormal within 1e-6 raise ``ConvergenceError``: the support
was cut too small.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engines import ConvergenceError, _fixed_kernels, _residuals
from .channels import CtcSystem
from .qmat import (ENTROPY_CLAMP, _as_square, _coords, _entropy_bits, _states, check_density,
                   maximally_mixed)

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
    fixed_dim : dimension of the fixed-operator span, ``len`` of
        ``fixed_subspace``
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
    g = v @ np.diag(-(np.log(w) + 1.0) / np.log(2.0)) @ v.conj().T
    return 0.5 * (g + g.conj().T)


def _support_directions(r: np.ndarray, v: np.ndarray):
    """The traceless operators ``R`` (``_fixed_kernels``') spans, compressed
    to the support ``v`` (d, k), as coordinate rows in the k x k Hermitian
    basis. Rows that are not orthonormal within 1e-6 raise
    ``ConvergenceError``."""
    null = np.linalg.svd(r[:len(v)].sum(0)[None])[2][1:]
    dirs = _coords(v.conj().T @ _states(null @ r.T) @ v)
    if np.abs(dirs @ dirs.T - np.eye(len(dirs))).max(initial=0.0) > 1e-6:
        raise ConvergenceError("fixed span leaves the anchor's support")
    return dirs


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
    in real Hermitian-basis coordinates. Raises ``ConvergenceError`` when
    the anchor is not consistent within 1e-6 or the fixed span leaves its
    support. A pure answer reads exactly ``+0.0``, as in
    ``von_neumann_entropy``.
    """
    mr, r, proj = _fixed_kernels(sys)
    c = (proj @ _coords(maximally_mixed(sys.d_cv)))[None]
    anchor = check_density(_states(c)[0], psd_tol=1e-9)
    if _residuals(mr, c)[0] >= 1e-6:
        raise ConvergenceError("anchor state is not consistent within 1e-6")

    # The anchor in its own eigenbasis, restricted to its support ``v``.
    w, v = np.linalg.eigh(anchor)
    entropy = _entropy_bits(w)
    w, v = w[w > ENTROPY_CLAMP], v[:, w > ENTROPY_CLAMP]
    tau = np.diag(w).astype(complex)
    dirs = _support_directions(r, v)

    kkt = 0.0
    iterations = 0
    converged = False
    step = None  # the last step taken and the projected gradient it started from
    for iterations in range(1, MAX_ASCENT_ITER + 1):
        g = dirs.T @ (dirs @ _coords(entropy_gradient(tau)))
        kkt = float(np.linalg.norm(g))
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
            sy = s @ (g0 - g)
            if sy > 0.0:
                alpha = (s @ s) / sy
        gm = _states(g[None])[0]
        while alpha > 1e-18:
            wc = np.linalg.eigvalsh(tau + alpha * gm)
            if wc.min() > ENTROPY_CLAMP:
                sc = _entropy_bits(wc)
                if sc >= entropy + _ARMIJO * alpha * kkt * kkt:
                    break
            alpha *= 0.5
        else:
            break
        step = (alpha * g, g)
        tau, entropy = tau + alpha * gm, sc

    state = v @ tau @ v.conj().T
    return MaxEntResult(0.5 * (state + state.conj().T), entropy, iterations, kkt, converged,
                        r.shape[1], anchor)
