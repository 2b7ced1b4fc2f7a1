"""Fixed-point engines for the loop's consistency condition.

Three procedures compute consistent CV states, mirroring the three pictures
in the closed-timelike-curve literature:

* ``deutsch_cesaro``: Cesaro average of the noiseless orbit. Orbits that
  reach a fixed point or an exact cycle give the limit directly (the Cesaro
  limit of a convergent sequence is its limit, and of an eventually periodic
  orbit is the cycle's arithmetic mean); otherwise the running mean is
  tracked until successive means and the consistency residual both fall
  below tolerance.
* ``allen_cesaro``: Cesaro average across the depolarization-interleaved
  orbit. For ``p > 0`` the interleaved orbit contracts geometrically, so
  the average's limit equals the orbit limit: this picture is
  ``ralph_iterate`` restricted to ``p > 0``.
* ``ralph_iterate`` / ``ralph_closed_form``: direct iteration of the noisy
  map, and the same fixed point from one linear solve of
  ``(Id - (1-p) M) vec(tau) = p vec(I/d)``.

Two orbit drivers serve them:

* ``_run_orbit``, the cycle scan: one state at a time, for the noiseless
  map (``deutsch_cesaro``, and ``ralph_iterate`` at p = 0), where orbits
  may cycle. A new iterate matching a window entry at lag T (trace
  distance below ``tol``) is declared a cycle only when the lag-1 motion
  is at least ``10 * tol`` and has not decayed over the last period (ratio
  of Frobenius motions >= 0.99). Without the guards, an alternating orbit
  that is merely converging (a negative real eigenvalue of the map) would
  be misreported as a period-2 cycle. Guards use Frobenius norms; the match
  itself uses trace distance.
* ``ralph_iterate_many``, the contraction: every start of a p > 0 system
  advances together as one stacked matvec per step, with no cycle scan
  (a strict contraction has no nontrivial cycle). Each start stops, and
  its row is computed, exactly as a lone run of the same start would.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import (
    CtcSystem,
    _cv_state,
    apply_superoperator,
    cv_map,
    superoperator,
    unvec,
    vec,
)
from .qmat import (PSD_TOL, check_density, hermitian_span, maximally_mixed,
                   trace_distance)

FIXED_SUBSPACE_SVD_TOL = 1e-8
_CYCLE_GUARD = 10.0
_CYCLE_DECAY_MIN = 0.99


class ConvergenceError(RuntimeError):
    """A limit required by the caller does not exist numerically."""


@dataclass(frozen=True)
class EngineConfig:
    """Iteration controls shared by the fixed-point engines."""

    max_iter: int = 10000
    tol: float = 1e-10
    cycle_window: int = 64

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValueError("max_iter must be positive")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.cycle_window < 2:
            raise ValueError("cycle_window must be at least 2")


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


@dataclass(frozen=True)
class FixedSubspace:
    """Orthonormal Hermitian basis of the noiseless map's fixed operators."""

    basis: tuple[np.ndarray, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)


def _sym(x: np.ndarray) -> np.ndarray:
    return 0.5 * (x + x.conj().T)


@dataclass
class _OrbitResult:
    kind: str  # "fixed" | "cycle" | "mean" | "exhausted"
    last: np.ndarray
    mean: np.ndarray  # running mean, up to date for "mean" and "exhausted" only
    steps: int
    cycle_states: tuple[np.ndarray, ...] | None = None


def _run_orbit(step, tau0: np.ndarray, cfg: EngineConfig,
               mean_stop_map=None) -> _OrbitResult:
    """Drive ``step`` from ``tau0`` until fixed point, cycle, mean
    convergence (when ``mean_stop_map`` is given), or exhaustion."""
    x = _sym(np.asarray(tau0, dtype=complex))
    mean = x.copy()
    window = [x]          # x_0 .. x_{n-1}, trimmed to cycle_window entries
    motions = [np.inf]    # Frobenius ||x_k - x_{k-1}||, aligned with window
    tol = cfg.tol

    for n in range(1, cfg.max_iter + 1):
        x_new = _sym(step(x))
        d1_fro = float(np.linalg.norm(x_new - x))

        # Fixed point: trace distance between successive iterates below tol.
        if 0.5 * d1_fro < tol and trace_distance(x_new, x) < tol:
            return _OrbitResult("fixed", x_new, mean, n)

        # Cycle scan over lags 2..window, smallest lag wins.
        if 0.5 * d1_fro >= _CYCLE_GUARD * tol and len(window) >= 2:
            stack = np.stack(window)
            fro = np.linalg.norm((stack - x_new).reshape(len(window), -1), axis=1)
            for lag in range(2, len(window) + 1):
                k = len(window) - lag  # window[k] is x_{n-lag}
                if 0.5 * fro[k] >= tol:
                    continue
                if trace_distance(x_new, window[k]) >= tol:
                    continue
                prev_motion = motions[k]
                if not np.isfinite(prev_motion) or prev_motion <= 0:
                    continue  # not enough history; keep iterating
                if d1_fro / prev_motion < _CYCLE_DECAY_MIN:
                    continue  # motion is decaying: converging, not cycling
                cycle = tuple(window[len(window) - lag:])
                return _OrbitResult("cycle", x_new, mean, n, cycle)

        prev_mean = mean
        mean = mean + (x_new - mean) / (n + 1.0)

        if mean_stop_map is not None:
            dm_fro = float(np.linalg.norm(mean - prev_mean))
            if 0.5 * dm_fro < tol and trace_distance(mean, prev_mean) < tol:
                m_sym = _sym(mean)
                resid = trace_distance(mean_stop_map(m_sym), m_sym)
                if resid < _CYCLE_GUARD * tol:
                    return _OrbitResult("mean", x_new, m_sym, n)

        window.append(x_new)
        motions.append(d1_fro)
        if len(window) > cfg.cycle_window:
            window.pop(0)
            motions.pop(0)
        x = x_new

    return _OrbitResult("exhausted", x, _sym(mean), cfg.max_iter)


def _linear_step(sys: CtcSystem):
    """The noiseless loop map as one superoperator matvec per step.

    Identical to conjugate-and-trace application up to rounding (they agree
    to machine precision) and an order of magnitude cheaper across the long
    orbits the experiments run.
    """
    m = superoperator(sys, include_noise=False)
    d = sys.d_cv

    def step(x):
        return (m @ x.reshape(-1, order="F")).reshape(d, d, order="F")

    return step


def _orbit_outcome(sys: CtcSystem, tau0, cfg: EngineConfig | None,
                   cesaro: bool) -> IterationOutcome:
    """Run one noiseless orbit from ``tau0`` with the cycle scan and package
    the result.

    ``cesaro=False`` (``ralph_iterate`` at p = 0): a cycle keeps its "cycle"
    status with the cycle-closure defect as the residual, and an exhausted
    run returns its last iterate.
    ``cesaro=True``: the running-mean stop is on; fixed points, cycle means
    and settled running means are all "converged", and an exhausted run
    returns the running mean. Other residuals are the trace distance
    between the map's image of the state and the state.
    """
    cfg = cfg or EngineConfig()
    t0 = _cv_state(sys, tau0)
    step = _linear_step(sys)
    res = _run_orbit(step, t0, cfg, mean_stop_map=step if cesaro else None)
    cycle = res.cycle_states
    if res.kind == "cycle":
        state = _sym(sum(cycle) / len(cycle))
        if not cesaro:
            resid = trace_distance(_sym(step(cycle[-1])), cycle[0])
            return IterationOutcome("cycle", state, res.steps, resid, cycle)
    elif res.kind == "fixed" or not cesaro:
        state = res.last
    else:
        state = res.mean
    status = "exhausted" if res.kind == "exhausted" else "converged"
    return IterationOutcome(status, state, res.steps,
                            trace_distance(_sym(step(state)), state), cycle)


def _trace_distances(diffs: np.ndarray, d: int) -> np.ndarray:
    """``trace_distance`` for each row of ``diffs`` (shape (c, d*d)), the
    vec of the difference of two exactly Hermitian operators.

    Such a difference is exactly Hermitian, so Hermitizing it again changes
    no bit; one ``eigvalsh`` over the (c, d, d) stack then gives each row
    the bits ``trace_distance`` gives the pair.
    """
    w = np.linalg.eigvalsh(diffs.reshape(-1, d, d).transpose(0, 2, 1))
    return 0.5 * np.abs(w).sum(-1)


def ralph_iterate_many(sys: CtcSystem, tau0s,
                       cfg: EngineConfig | None = None) -> list[IterationOutcome]:
    """``ralph_iterate`` from each start in ``tau0s``, all advanced together
    as one stacked matrix-vector product per step; requires ``sys.p > 0``.

    A start stops at the first step whose iterate is within ``tol`` of the
    previous one in trace distance, and leaves the stack there; one that
    never does is "exhausted" after ``max_iter`` steps with its last
    iterate. Each outcome is bit for bit the one for that start alone, so
    it does not depend on which other starts share the call. No cycle scan
    runs: a strict contraction has no nontrivial cycle.
    """
    if sys.p <= 0.0:
        raise ValueError("ralph_iterate_many requires a system with p > 0")
    cfg = cfg or EngineConfig()
    starts = [_sym(_cv_state(sys, t)) for t in tau0s]
    if not starts:
        return []
    d, tol = sys.d_cv, cfg.tol
    m = superoperator(sys, include_noise=True)
    # vec(X^H) = conj(vec(X)[perm])
    perm = np.arange(d * d).reshape(d, d).T.ravel()
    k = len(starts)
    x = np.stack([t.reshape(-1, order="F") for t in starts])[:, :, None]
    y, t = np.empty_like(x), np.empty_like(x)
    fro2 = np.empty((k, 1, 1))
    live = np.arange(k)  # start index of each stacked column
    last = [None] * k
    steps = [cfg.max_iter] * k
    status = ["exhausted"] * k
    # The lone run also stops only when 0.5 * ||diff||_F < tol. A traceless
    # Hermitian difference has ||diff||_1 >= sqrt(2) ||diff||_F, so every
    # column whose trace distance is below tol passes this prefilter with a
    # factor sqrt(2) to spare: the trace distance alone decides a stop.
    fro_bound = (2.0 * tol) ** 2
    a = 0
    for n in range(1, cfg.max_iter + 1):
        if a != live.size:  # (re)build the views when the stack shrinks
            a = live.size
            x, y, t, fro2 = x[:a], y[:a], t[:a], fro2[:a]
            f = t.view(float).reshape(a, 1, -1)
            ft = f.transpose(0, 2, 1)
        # y = _sym(step(x)), elementwise as the lone run computes it. On a
        # (k, d*d, 1) stack numpy runs one matrix-vector product per start,
        # which keeps the bits of the lone ``m @ vec``; the matrix product
        # ``m @ X`` sums in another order and does not.
        np.matmul(m, x, out=y)
        np.take(y, perm, axis=1, out=t, mode="clip")
        np.conjugate(t, out=t)
        np.add(y, t, out=y)
        np.multiply(y, 0.5, out=y)
        np.subtract(y, x, out=t)
        np.matmul(f, ft, out=fro2)
        if fro2.min() < fro_bound:
            near = np.flatnonzero(fro2 < fro_bound)
            done = near[_trace_distances(t[near, :, 0], d) < tol]
            if done.size:
                for c in done:
                    i = live[c]
                    last[i], steps[i], status[i] = y[c, :, 0].copy(), n, "converged"
                keep = np.ones(a, dtype=bool)
                keep[done] = False
                live = live[keep]
                if not live.size:
                    break
                np.compress(keep, y, axis=0, out=x[:live.size])
                continue
        x, y = y, x
    for c, i in enumerate(live):
        last[i] = x[c, :, 0].copy()
    # Residual: trace distance between the noisy map's image of each final
    # state and the state, as ``_orbit_outcome`` computes it.
    fin = np.stack(last)[:, :, None]
    img = np.matmul(m, fin)
    img = 0.5 * (img + img[:, perm].conj())
    resid = _trace_distances((img - fin)[:, :, 0], d)
    return [IterationOutcome(status[i], np.ascontiguousarray(last[i].reshape(d, d).T),
                             steps[i], float(resid[i]))
            for i in range(k)]


def ralph_iterate(sys: CtcSystem, tau0, cfg: EngineConfig | None = None) -> IterationOutcome:
    """Iterate the noisy map ``tau -> (1-p) D(tau) + p I/d`` from ``tau0``.

    With ``p = 0`` this is plain iteration of the loop map; orbits may then
    land on a cycle, reported with the cycle's Cesaro mean as the state.
    With ``p > 0`` it is ``ralph_iterate_many`` on the one start.
    """
    if sys.p > 0.0:
        return ralph_iterate_many(sys, [tau0], cfg)[0]
    return _orbit_outcome(sys, tau0, cfg, cesaro=False)


def deutsch_cesaro(sys: CtcSystem, tau0, cfg: EngineConfig | None = None) -> IterationOutcome:
    """Cesaro-averaged noiseless orbit from ``tau0``; ``sys.p`` is ignored.

    A convergent orbit returns its limit, an exact cycle returns the cycle's
    arithmetic mean (both equal the Cesaro limit); otherwise the running
    mean is returned once successive means differ by less than ``tol`` and
    the consistency residual is below ``10 * tol``.
    """
    return _orbit_outcome(sys, tau0, cfg, cesaro=True)


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
    """Unique noisy fixed point from the linear solve
    ``(Id - (1-p) M) vec(tau) = p vec(I/d)``; requires ``sys.p > 0``."""
    if sys.p <= 0.0:
        raise ValueError("ralph_closed_form requires a system with p > 0")
    d = sys.d_cv
    m = superoperator(sys, include_noise=False)
    a = np.eye(d * d, dtype=complex) - (1.0 - sys.p) * m
    b = sys.p * vec(maximally_mixed(d))
    try:
        x = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(
            f"singular fixed-point system at p={sys.p}: {exc}") from exc
    tau = _sym(unvec(x, d))
    # The exact solution has unit trace (the map preserves trace), but the
    # system's conditioning grows like 1/p, so rounding error of order
    # eps/p survives the solve. Renormalize and widen the PSD guard
    # accordingly; at moderate p the guard stays at its strict default.
    tau = tau / np.real(np.trace(tau))
    guard = max(PSD_TOL, 100.0 * np.finfo(float).eps / sys.p)
    return check_density(tau, psd_tol=guard)


def consistency_residual(sys: CtcSystem, tau) -> float:
    """Trace distance between the noiseless map's image of ``tau`` and ``tau``."""
    return trace_distance(cv_map(sys, tau), tau)


def fixed_subspace(sys: CtcSystem) -> FixedSubspace:
    """Hermitian basis of the noiseless map's fixed operators.

    The kernel of ``M - Id`` is found by SVD (singular values below 1e-8),
    closed under the adjoint, Hermitized, and orthonormalized.
    """
    d = sys.d_cv
    m = superoperator(sys, include_noise=False)
    k = m - np.eye(d * d, dtype=complex)
    _, s, vh = np.linalg.svd(k)
    # Kernel vectors as matrices (unvec of each); their Hermitian and
    # anti-Hermitian parts span the fixed Hermitian operators.
    b = vh[s <= FIXED_SUBSPACE_SVD_TOL].conj().reshape(-1, d, d).transpose(0, 2, 1)
    bh = b.conj().transpose(0, 2, 1)
    basis = hermitian_span(np.concatenate([0.5 * (b + bh), (b - bh) / 2j]))
    basis = [b for b in basis
             if np.linalg.norm(apply_superoperator(m, b) - b) < FIXED_SUBSPACE_SVD_TOL]
    if not basis:
        raise ConvergenceError("no fixed directions found; the map should have at least one")
    return FixedSubspace(tuple(basis))


def limit_superoperator(sys: CtcSystem, cfg: EngineConfig | None = None) -> np.ndarray:
    """Limit of the iterated noiseless map by repeated squaring.

    Squares the superoperator until successive squarings differ by less
    than ``cfg.tol`` in Frobenius norm (at most 60 squarings); raises
    ``ConvergenceError`` when the powers keep rotating, as they do for a
    map with non-trivial eigenvalues on the unit circle.
    """
    cfg = cfg or EngineConfig()
    p = superoperator(sys, include_noise=False)
    for _ in range(60):
        q = p @ p
        if float(np.linalg.norm(q - p)) < cfg.tol:
            return q
        p = q
    raise ConvergenceError(
        "superoperator powers did not converge in 60 squarings; "
        "the map has rotating spectrum on the unit circle")
