"""Fixed-point engines for the loop's consistency condition.

Three procedures compute consistent CV states, mirroring the three pictures
in the closed-timelike-curve literature:

* ``deutsch_cesaro``: Cesaro average of the noiseless orbit, read off the
  ergodic projector ``P`` of the noiseless loop map ``M`` (its projector
  onto the eigenvalue-1 space along the rest of the spectrum). Eigenvalue 1
  of a channel is semisimple, so ``P = R (L^T R)^{-1} L^T`` with ``R`` and
  ``L`` the right and left kernels of ``M - Id``, and the Cesaro limit from
  ``tau0`` is exactly ``P vec(tau0)``. ``limit_superoperator`` (``P``,
  when the powers of ``M`` converge) and ``fixed_subspace`` (the range of
  ``P``) are views of the same projector; all three take their kernels
  from one SVD under ``FIXED_SUBSPACE_SVD_TOL``.
* ``allen_cesaro``: Cesaro average across the depolarization-interleaved
  orbit. For ``p > 0`` the interleaved orbit contracts geometrically, so
  the average's limit equals the orbit limit: this picture is
  ``ralph_iterate`` restricted to ``p > 0``.
* ``ralph_iterate`` / ``ralph_closed_form``: direct iteration of the noisy
  map, and the same fixed point from one linear solve; ``closed_forms``
  solves a stack of CR inputs at once, and ``ralph_closed_form`` is its
  one-system call.

Every view reads ``M`` as the real matrix ``mr = Re(B^H M B)`` on the real
coordinates of the operators, ``qmat``'s coordinate map: the orbits step
``mr``, the SVD, kernels and ``P`` above are those of ``mr - Id``, and the
closed form solves ``(Id - (1-p) mr) c = p coords(I/d)``. The operator of
real coordinates is exactly Hermitian, so nothing here Hermitizes or holds
a basis, and a map that does not preserve Hermiticity raises ``ValueError``.

``ralph_iterate_many`` is the one orbit entry point (``ralph_iterate`` is
its one-start call). It builds the loop map once per call and drives
every start with it:

* at p = 0, ``_run_orbit``, the cycle scan: one start at a time, since
  noiseless orbits may cycle. A new iterate matching a window entry at lag
  T (trace distance below ``tol``) is declared a cycle only when the lag-1
  motion is at least ``10 * tol`` and has not decayed over the last period
  (ratio of Frobenius motions >= 0.99). Without the guards, an alternating
  orbit that is merely converging (a negative real eigenvalue of the map)
  would be misreported as a period-2 cycle. Guards use Frobenius norms;
  the match itself uses trace distance. The window of the last
  ``_CYCLE_WINDOW`` states slides in a buffer twice that size; only lags
  within ``tol`` in Frobenius norm (a necessary condition) are checked
  further, smallest lag first.
* at p > 0, the contraction: every start advances together, one stacked
  real matvec per step and up to ``_NOISY_BLOCK`` steps per Python round
  trip, with one stop test per block and no cycle scan (a strict
  contraction has no nontrivial cycle). Each start stops, and its row is
  computed, exactly as a lone run of the same start would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import CtcSystem, _cv_state, _with_noise, cv_map, loop_maps, superoperator
from .qmat import (PSD_TOL, _checked_spectrum, _coords, _real_map, _states, _trace_distances,
                   _vec_map, maximally_mixed, trace_distance)

FIXED_SUBSPACE_SVD_TOL = 1e-8
_CYCLE_GUARD = 10.0
_CYCLE_DECAY_MIN = 0.99
_CYCLE_WINDOW = 64  # orbit states the cycle scan keeps
_NOISY_BLOCK = 32  # most p > 0 steps per Python round trip
_NOISY_BUFFER = 2 ** 16  # real entries a p > 0 block aims to fit in


class ConvergenceError(RuntimeError):
    """A limit required by the caller does not exist numerically."""


@dataclass(frozen=True)
class EngineConfig:
    """Iteration controls shared by the fixed-point engines."""

    max_iter: int = 10000
    tol: float = 1e-10

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValueError("max_iter must be positive")
        if not 0.0 < self.tol < math.inf:  # also false for nan
            raise ValueError("tol must be positive and finite")


@dataclass(frozen=True)
class IterationOutcome:
    """Result of a fixed-point run.

    status : "converged", "cycle", or "exhausted"
    state : the consistent state; for "cycle" the Cesaro mean of the cycle,
        for "exhausted" the engine's best estimate
    steps : number of map applications performed
    residual : for "converged"/"exhausted", trace distance between the
        engine map's image of ``state`` and ``state``; for "cycle", the
        cycle-closure defect (distance from the image of the last cycle
        state to the first)
    cycle_states : the detected cycle, in orbit order, or None
    """

    status: str
    state: np.ndarray
    steps: int
    residual: float
    cycle_states: tuple[np.ndarray, ...] | None = None

    @property
    def period(self) -> int | None:
        return None if self.cycle_states is None else len(self.cycle_states)


def _residuals(mr: np.ndarray, cs: np.ndarray) -> np.ndarray:
    """Trace distance between the image under ``mr`` of each coordinate row
    of ``cs`` (n, d*d) and the row. On the (n, d*d, 1) stack numpy runs one
    matvec per row, so each distance has its lone row's bits."""
    return _trace_distances(np.matmul(mr, cs[:, :, None])[:, :, 0] - cs)


def _settled(status: str, mr: np.ndarray, c: np.ndarray, steps: int) -> IterationOutcome:
    """The outcome whose state has the coordinates ``c``, with its residual."""
    return IterationOutcome(status, _states(c[None])[0], steps, float(_residuals(mr, c[None])[0]))


def _run_orbit(mr: np.ndarray, c: np.ndarray, cfg: EngineConfig) -> IterationOutcome:
    """Drive the noiseless loop map ``mr`` from the start coordinates ``c``
    until fixed point, cycle, or exhaustion. The basis is orthonormal, so
    Frobenius norms are 2-norms of coordinates."""
    # The window x_{n-w} .. x_{n-1} (w <= _CYCLE_WINDOW) is the view
    # buf[lo:hi] of a buffer twice its size, so it slides without copying;
    # a full buffer is compacted once every _CYCLE_WINDOW steps. motions[k]
    # is the Frobenius ||buf[k] - its predecessor||, inf for x_0.
    buf = np.empty((2 * _CYCLE_WINDOW, len(c)))
    motions = np.empty(2 * _CYCLE_WINDOW)
    buf[0], motions[0] = c, np.inf
    lo, hi = 0, 1
    tol = cfg.tol

    for n in range(1, cfg.max_iter + 1):
        c_new = mr @ c
        diff = c_new - c
        d1_fro = math.sqrt(diff @ diff)

        # Fixed point: trace distance between successive iterates below tol.
        if 0.5 * d1_fro < tol and _trace_distances(diff[None])[0] < tol:
            return _settled("converged", mr, c_new, n)

        # Cycle scan over lags 2..w, smallest lag wins: only entries within
        # tol in Frobenius norm can be within tol in trace distance.
        if 0.5 * d1_fro >= _CYCLE_GUARD * tol and hi - lo >= 2:
            gap = c_new - buf[lo:hi - 1]
            near = (0.5 * np.sqrt(np.add.reduce(gap * gap, axis=1)) < tol).nonzero()[0][::-1]
            if near.size:
                dists = _trace_distances(gap[near])
                for k, dist in zip(near + lo, dists):  # buf[k] is x_{n-lag}
                    if dist >= tol:
                        continue
                    prev_motion = motions[k]
                    if not np.isfinite(prev_motion) or prev_motion <= 0:
                        continue  # not enough history; keep iterating
                    if d1_fro / prev_motion < _CYCLE_DECAY_MIN:
                        continue  # motion is decaying: converging, not cycling
                    # The image of the cycle's last state is x_n, so the
                    # closure defect is this lag's distance.
                    cycle = buf[k:hi]
                    return IterationOutcome("cycle", _states(cycle.mean(0)[None])[0],
                                            n, float(dist), tuple(_states(cycle)))

        if hi == len(buf):
            keep = _CYCLE_WINDOW - 1
            buf[:keep], motions[:keep] = buf[hi - keep:hi], motions[hi - keep:hi]
            lo, hi = 0, keep
        buf[hi], motions[hi] = c_new, d1_fro
        hi += 1
        lo = max(lo, hi - _CYCLE_WINDOW)
        c = c_new

    return _settled("exhausted", mr, c, cfg.max_iter)


def ralph_iterate_many(sys: CtcSystem, tau0s,
                       cfg: EngineConfig | None = None) -> list[IterationOutcome]:
    """Iterate the noisy map ``tau -> (1-p) D(tau) + p I/d`` from each start
    in ``tau0s``, building the loop map once for the whole call. Orbits run
    on the starts' real coordinates in the Hermitian basis, one real
    matrix-vector product per step.

    At p = 0 each start runs the cycle scan in turn. At p > 0 all starts
    advance together as one stack, in blocks of steps with one stop test
    each and with no cycle scan (a strict contraction has no nontrivial
    cycle): a start stops at the first step whose iterate is within ``tol``
    of the previous one in trace distance, or is "exhausted" after
    ``max_iter`` steps with its last iterate. Either way each outcome is
    bit for bit the one for that start alone, whichever other starts share
    the call. A loop map that does not preserve Hermiticity raises
    ``ValueError``.
    """
    cfg = cfg or EngineConfig()
    starts = [_cv_state(sys, t) for t in tau0s]
    if not starts:
        return []
    # the noiseless map at p = 0
    mr = _real_map(superoperator(sys, include_noise=True))
    x = _coords(np.stack(starts))
    if sys.p == 0.0:
        return [_run_orbit(mr, c, cfg) for c in x]
    d, tol = sys.d_cv, cfg.tol
    k, dd = len(starts), d * d
    # The block buffer holds nb + 1 iterates of every live column: nb steps
    # per Python round trip, shrunk at large k to keep the buffer near
    # _NOISY_BUFFER entries and grown back up to _NOISY_BLOCK as columns stop.
    cap = (max(1, min(_NOISY_BLOCK, _NOISY_BUFFER // (k * dd))) + 1) * k * dd
    x = x[:, :, None]
    live = np.arange(k)  # start index of each stacked column
    last = np.empty((k, dd))  # final coordinates of each start
    steps = np.zeros(k, dtype=int)  # the step each start stopped at, 0 if none
    # B is orthonormal, so ||diff||_F is the 2-norm of the coordinates'
    # difference. A Hermitian difference of two unit-trace iterates has
    # ||diff||_F^2 <= (||diff||_1^2 + tr(diff)^2) / 2, and its trace is a
    # rounding error of one step, so every column whose trace distance is
    # below tol has ||diff||_F^2 < 2 tol^2 and passes both this prefilter and
    # the lone run's 0.5 ||diff||_F < tol: the trace distance alone decides a
    # stop. The bound leaves room for |tr(diff)| up to tol / sqrt(2) and
    # prunes most columns whose trace distance is still above tol.
    fro_bound = 2.25 * tol * tol
    sure_bound = 3.6 * tol * tol / d  # 4 tol^2 / d with a 10 % margin
    a = n = 0  # live columns the buffer is built for; steps taken
    while live.size and n < cfg.max_iter:
        if a != live.size:  # (re)build the buffer when the stack narrows
            a = live.size
            nb = min(_NOISY_BLOCK, cap // (a * dd) - 1)
            xs = np.empty((nb + 1, a, dd, 1))
        b = min(nb, cfg.max_iter - n)
        xs[0] = x
        for j in range(b):
            # On a (k, d*d, 1) stack numpy runs one matrix-vector product
            # per start, which keeps the bits of the lone ``mr @ c``; the
            # matrix product ``mr @ C`` sums in another order and does not.
            np.matmul(mr, xs[j], out=xs[j + 1])
        # One stop test for the block: row j of column c is its motion at
        # step n + j + 1.
        diff = xs[1:b + 1, :, :, 0] - xs[:b, :, :, 0]
        f2 = np.einsum("jci,jci->jc", diff, diff)
        x = xs[b]
        if f2.min() < fro_bound:
            # Column c stops at its first row j within tol in trace distance.
            # A row with ||diff||_F^2 < 4 tol^2 / d is within tol without an
            # eigvalsh (||diff||_1 <= sqrt(d) ||diff||_F), so only the
            # candidates before a column's first such row are tested; the
            # rows after it lie past the column's stop.
            ok = f2 < sure_bound
            first = np.where(ok.any(0), ok.argmax(0), b)  # each column's first sure row
            cand = (f2 < fro_bound) & (np.arange(b)[:, None] < first)
            ok[cand] = _trace_distances(diff[cand]) < tol
            cols = np.flatnonzero(ok.any(0))
            j, i = ok.argmax(0)[cols], live[cols]
            last[i], steps[i] = xs[j + 1, cols, :, 0], n + j + 1
            live, x = np.delete(live, cols), np.delete(x, cols, axis=0)
        n += b
    last[live] = x[:, :, 0]
    resid, states = _residuals(mr, last), _states(last)
    return [IterationOutcome("converged" if steps[i] else "exhausted", states[i],
                             int(steps[i]) or cfg.max_iter, float(resid[i]))
            for i in range(k)]


def ralph_iterate(sys: CtcSystem, tau0, cfg: EngineConfig | None = None) -> IterationOutcome:
    """Iterate the noisy map from ``tau0``: ``ralph_iterate_many`` on the
    one start."""
    return ralph_iterate_many(sys, [tau0], cfg)[0]


def _fixed_kernels(sys: CtcSystem):
    """The noiseless loop map ``mr`` in real coordinates and, from one SVD
    of ``mr - Id``, its right kernel ``R`` (the right singular vectors whose
    singular value is at most ``FIXED_SUBSPACE_SVD_TOL``, as orthonormal
    columns: the coordinates of an orthonormal Hermitian basis of the fixed
    operators) and the ergodic projector ``P = R (L^T R)^{-1} L^T``, ``L``
    the left kernel. Eigenvalue 1 of a channel is semisimple, so ``L^T R``
    is invertible and ``P`` is the Cesaro limit ``lim (1/n) sum_k mr^k``.
    """
    mr = _real_map(superoperator(sys, include_noise=False))
    u, s, vt = np.linalg.svd(mr - np.eye(len(mr)))
    null = s <= FIXED_SUBSPACE_SVD_TOL
    if not null.any():
        raise ConvergenceError("no fixed directions found; the map should have at least one")
    r, l = vt[null].T, u[:, null]
    return mr, r, r @ np.linalg.solve(l.T @ r, l.T)


def deutsch_cesaro(sys: CtcSystem, tau0) -> IterationOutcome:
    """Cesaro limit of the noiseless orbit from ``tau0``; ``sys.p`` is ignored.

    The limit is ``P vec(tau0)`` with ``P`` the loop map's ergodic
    projector: a convergent orbit's limit, an eventually periodic orbit's
    cycle mean, and the average of a quasi-periodic one alike. The outcome
    is "converged" after 0 steps; its residual is the trace distance
    between the map's image of the state and the state.
    """
    t0 = _cv_state(sys, tau0)
    mr, _, proj = _fixed_kernels(sys)
    return _settled("converged", mr, proj @ _coords(t0), 0)


def allen_cesaro(sys: CtcSystem, tau0, cfg: EngineConfig | None = None) -> IterationOutcome:
    """Cesaro-averaged depolarization-interleaved orbit from ``tau0``.

    Requires ``sys.p > 0``. The interleaved orbit contracts geometrically,
    so its Cesaro limit equals the orbit limit, which is exactly what
    ``ralph_iterate`` computes; this is ``ralph_iterate`` restricted to
    ``p > 0``, named for the picture it stands for. Its fixed point
    coincides with ``ralph_closed_form``.
    """
    if sys.p <= 0.0:
        raise ValueError("allen_cesaro requires a system with p > 0")
    return ralph_iterate(sys, tau0, cfg)


def ralph_closed_form(sys: CtcSystem) -> np.ndarray:
    """Unique noisy fixed point, the state ``tau = (1-p) M(tau) + p I/d``,
    from one linear solve; requires ``sys.p > 0``. The one-system call of
    ``closed_forms``."""
    return closed_forms(sys, sys.rho_cr[None])[0][0]


def closed_forms(sys: CtcSystem, rho_crs):
    """``ralph_closed_form`` of ``sys`` with each CR input of the stack
    ``rho_crs`` (n, d_cr, d_cr, taken as checked) in place of
    ``sys.rho_cr``: one loop-map build, one batched real solve of
    ``(Id - (1-p) mr) c = p coords(I/d)``, one batched density check and
    one residual pass.

    Returns the fixed states, shape (n, d, d), the spectra their density
    check took, and each state's residual: the trace distance that the
    real noisy map, noise composed in as ``superoperator`` composes it,
    moves the solved coordinates. Each value has the bits of its lone
    call. A state that fails the check raises ``DensityError`` with its
    index in the stack.
    """
    if sys.p <= 0.0:
        raise ValueError("ralph_closed_form requires a system with p > 0")
    d = sys.d_cv
    maps = loop_maps(sys, rho_crs)
    mr = _real_map(maps)
    try:
        c = np.linalg.solve(np.eye(d * d) - (1.0 - sys.p) * mr,
                            sys.p * _coords(maximally_mixed(d)))
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(
            f"singular fixed-point system at p={sys.p}: {exc}") from exc
    # The exact solution has unit trace, but the system's conditioning grows
    # like 1/p, so rounding error of order eps/p survives the solve.
    # Renormalize by the trace (the sum of the first d coordinates) and widen
    # the PSD guard accordingly; at moderate p it stays at its default.
    c = c / c[:, :d].sum(-1, keepdims=True)
    guard = max(PSD_TOL, 100.0 * np.finfo(float).eps / sys.p)
    taus, spectra = _checked_spectrum(_states(c), psd_tol=guard)
    return taus, spectra, _residuals(_real_map(_with_noise(sys, maps)), c)


def consistency_residual(sys: CtcSystem, tau) -> float:
    """Trace distance between the noiseless map's image of ``tau`` and ``tau``."""
    return trace_distance(cv_map(sys, tau), tau)


def fixed_subspace(sys: CtcSystem) -> np.ndarray:
    """Orthonormal Hermitian basis of the noiseless map's fixed operators,
    shape (dim, d, d): the operators whose coordinates are the columns of
    ``_fixed_kernels``' ``R``, orthonormal because the coordinate basis and
    those columns are."""
    return _states(_fixed_kernels(sys)[1].T)


def limit_superoperator(sys: CtcSystem) -> np.ndarray:
    """Limit of the powers of the noiseless loop map, as a superoperator
    matrix on vecs.

    The limit is the ergodic projector ``P`` when every eigenvalue other
    than 1 lies strictly inside the unit disc. Raises ``ConvergenceError``
    when the spectral radius of ``M - P`` is at least
    ``1 - FIXED_SUBSPACE_SVD_TOL``: the powers then keep rotating, as they
    do for a map with non-trivial eigenvalues on the unit circle, or settle
    too slowly to tell apart from that.
    """
    mr, _, proj = _fixed_kernels(sys)
    if np.abs(np.linalg.eigvals(mr - proj)).max() >= 1.0 - FIXED_SUBSPACE_SVD_TOL:
        raise ConvergenceError(
            "superoperator powers do not converge; "
            "the map has rotating spectrum on the unit circle")
    return _vec_map(proj)
