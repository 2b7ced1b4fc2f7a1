"""Reference answers computed here, in plain numpy, for checking dctc's output.

Nothing in this file calls into dctc: the circuits arrive as arrays (a
joint unitary on the CR x CV space, CR-major ordering, and a CR density
matrix) and every answer is rebuilt from the definition of the loop map
``tau -> Tr_CR(U (rho_cr (x) tau) U^dag)``.
"""

from __future__ import annotations

import numpy as np

# Powers of the loop map are averaged over this many consecutive steps, so
# every orbit period that divides it (1, 2, 3, 4, 6, 12) averages out.
CESARO_PERIOD = 12
MAX_SQUARINGS = 64

_PAULI = (np.array([[0, 1], [1, 0]], dtype=complex),
          np.array([[0, -1j], [1j, 0]], dtype=complex),
          np.array([[1, 0], [0, -1]], dtype=complex))


def loop_map(u, rho_cr) -> np.ndarray:
    """Matrix of the loop map on row-major vectorized d_cv x d_cv operators.

    Column ``(e, h)`` is the image of the matrix unit ``|e><h|``, computed
    as ``Tr_CR(U (rho_cr (x) |e><h|) U^dag)`` with ``numpy.kron`` and an
    explicit partial trace.
    """
    u = np.asarray(u, dtype=complex)
    rho_cr = np.asarray(rho_cr, dtype=complex)
    d_cr = rho_cr.shape[0]
    d = u.shape[0] // d_cr
    m = np.empty((d * d, d * d), dtype=complex)
    for col in range(d * d):
        unit = np.zeros(d * d, dtype=complex)
        unit[col] = 1.0
        joint = u @ np.kron(rho_cr, unit.reshape(d, d)) @ u.conj().T
        m[:, col] = np.trace(joint.reshape(d_cr, d, d_cr, d), axis1=0, axis2=2).reshape(-1)
    return m


def closed_form_state(u, rho_cr, p: float) -> np.ndarray:
    """The unique fixed point of ``tau -> (1-p) E(tau) + p I/d`` for p > 0,
    from one linear solve."""
    m = loop_map(u, rho_cr)
    d = int(round(np.sqrt(m.shape[0])))
    rhs = p * (np.eye(d, dtype=complex) / d).reshape(-1)
    tau = np.linalg.solve(np.eye(d * d) - (1.0 - p) * m, rhs).reshape(d, d)
    tau = 0.5 * (tau + tau.conj().T)
    return tau / np.trace(tau).real


def cesaro_projector(u, rho_cr) -> np.ndarray:
    """The noiseless map's Cesaro limit ``lim (1/n) sum_k M^k`` as a matrix.

    ``M^CESARO_PERIOD`` is squared until it stops moving, which leaves the
    part of its spectrum on the unit circle; averaging that limit over one
    period of ``M`` removes the rotating components of every period that
    divides ``CESARO_PERIOD``.
    """
    m = loop_map(u, rho_cr)
    q = np.linalg.matrix_power(m, CESARO_PERIOD)
    for _ in range(MAX_SQUARINGS):
        q2 = q @ q
        if np.linalg.norm(q2 - q) < 1e-12:
            break
        q = q2
    else:
        raise ValueError("powers of the loop map keep rotating")
    avg = np.zeros_like(m)
    power = np.eye(m.shape[0], dtype=complex)
    for _ in range(CESARO_PERIOD):
        avg += power
        power = m @ power
    return avg @ q / CESARO_PERIOD


def cesaro_state(projector, tau0) -> np.ndarray:
    """The orbit average from ``tau0`` under a projector from ``cesaro_projector``."""
    t = np.asarray(tau0, dtype=complex)
    out = (projector @ t.reshape(-1)).reshape(t.shape)
    return 0.5 * (out + out.conj().T)


def entropy_bits(rho) -> float:
    """Von Neumann entropy in bits; eigenvalues at or below 1e-12 count as 0."""
    w = np.linalg.eigvalsh(0.5 * (rho + np.conj(rho).T))
    w = w[w > 1e-12]
    return float(-(w * np.log2(w)).sum())


def qubit_max_entropy_bits(u, rho_cr) -> float:
    """Largest entropy of a consistent state when the CV side is one qubit.

    Consistent Bloch vectors solve the affine system ``(I - T) r = t`` of
    the loop map's Bloch form; the most mixed one is its minimum-norm
    solution, whose entropy is that of eigenvalues ``(1 +- |r|) / 2``.
    """
    m = loop_map(u, rho_cr)
    if m.shape[0] != 4:
        raise ValueError("the CV side is not a qubit")

    def apply(x):
        return (m @ x.reshape(-1)).reshape(2, 2)

    t = np.array([np.trace(s @ apply(np.eye(2) / 2)).real for s in _PAULI])
    tmat = np.array([[np.trace(si @ apply(sj / 2)).real for sj in _PAULI]
                     for si in _PAULI])
    a = np.eye(3) - tmat
    r = np.linalg.lstsq(a, t, rcond=1e-9)[0]
    if np.linalg.norm(a @ r - t) > 1e-9:
        raise ValueError("no consistent qubit state")
    norm = min(float(np.linalg.norm(r)), 1.0)
    return entropy_bits(np.diag([(1 + norm) / 2, (1 - norm) / 2]))
