"""Dense complex-matrix primitives for small quantum systems.

All operators are plain ``numpy`` arrays with complex dtype; nothing here is
wrapped in classes. Conventions used throughout the package:

* Composite bases are ordered CR-major: the joint index of basis state
  ``|a>`` on the chronology-respecting (CR) side and ``|b>`` on the
  chronology-violating (CV) side is ``a * d_cv + b``. This matches
  ``numpy.kron(cr_op, cv_op)``.
* Entropies are in bits (base-2 logarithms).
* Hermitian operators have real coordinates in ``hermitian_basis``, which
  only the coordinate map below reads. Its helpers take ``d`` from their
  argument's shape and give every member of a stack its lone call's bits.
* Validation tolerances live in the module constants below; only the PSD
  guard of ``check_density`` can be widened by a caller.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

HERMITIAN_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_TOL = 1e-10
UNITARY_TOL = 1e-10
ENTROPY_CLAMP = 1e-12

_LOG2 = np.log(2.0)


class DensityError(ValueError):
    """A failed density check. ``index`` locates the failing matrix in a
    stack, the first one in C order; it is ``()`` for a lone matrix."""

    def __init__(self, message: str, index: tuple = ()):
        super().__init__(message)
        self.index = index


def _as_stack(m, name: str = "matrix") -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"{name} must be a square matrix or a stack of them, "
                         f"got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} contains non-finite entries")
    return a


def _as_square(m, name: str = "matrix") -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {a.shape}")
    return _as_stack(a, name)


def check_density(rho, psd_tol: float = PSD_TOL) -> np.ndarray:
    """Validate a density matrix, or a stack of them of shape ``(..., d, d)``,
    and return it as a complex array.

    Raises ``DensityError`` (a ``ValueError``) unless every matrix is
    square, finite, Hermitian within ``HERMITIAN_TOL`` (max-abs deviation),
    has unit trace within ``TRACE_TOL``, and has eigenvalues no smaller
    than ``-psd_tol``; for a stack the error names the first failing
    matrix.
    """
    return _checked_spectrum(rho, psd_tol)[0]


def _checked_spectrum(rho, psd_tol: float = PSD_TOL):
    """``check_density`` on ``rho``, returning the checked array and the
    spectra its PSD check took, ``eigvalsh(0.5 * (a + a^H))`` of each
    matrix. Every check runs on every matrix of a stack."""
    a = np.asarray(rho, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DensityError(f"density matrix must be square, got shape {a.shape}")
    if not np.isfinite(a).all():
        i = _first(~np.isfinite(a).all(axis=(-2, -1)))
        raise DensityError(f"{_density_name(i)} contains non-finite entries", i)
    ah = a.conj().swapaxes(-1, -2)
    herm = np.abs(a - ah)
    tr = a.trace(axis1=-2, axis2=-1)
    w = np.linalg.eigvalsh(0.5 * (a + ah))
    off_trace = abs(tr - 1.0) > TRACE_TOL
    if herm.max() > HERMITIAN_TOL or off_trace.any() or w.min() < -psd_tol:
        herm, low = herm.max(axis=(-2, -1)), w.min(axis=-1)
        i = _first((herm > HERMITIAN_TOL) | off_trace | (low < -psd_tol))
        name = _density_name(i)
        if herm[i] > HERMITIAN_TOL:
            raise DensityError(f"{name} not Hermitian (defect {herm[i]:.3e})", i)
        if off_trace[i]:
            raise DensityError(f"{name} trace {tr[i]} is not 1", i)
        raise DensityError(f"{name} has negative eigenvalue {low[i]:.3e}", i)
    return a, w


def _first(bad) -> tuple:
    """Index of the first true entry of ``bad``, ``()`` when it is 0-d."""
    return tuple(int(k) for k in np.argwhere(bad)[0])


def _density_name(index: tuple) -> str:
    return f"density matrix {list(index)} of the stack" if index else "density matrix"


def check_unitary(u) -> np.ndarray:
    """Validate a unitary (``u u^dag = 1`` within ``UNITARY_TOL``) and return it."""
    a = _as_square(u, "unitary")
    defect = np.abs(a @ a.conj().T - np.eye(a.shape[0])).max()
    if defect > UNITARY_TOL:
        raise ValueError(f"matrix is not unitary (defect {defect:.3e})")
    return a


@dataclass(frozen=True)
class DimSplit:
    """Dimensions of the CR/CV tensor factorization of the joint space.

    The joint space is ordered CR-major: joint index = cr * d_cv + cv.
    """

    d_cr: int
    d_cv: int

    def __post_init__(self):
        if self.d_cr < 1 or self.d_cv < 1:
            raise ValueError("both factor dimensions must be positive")

    @property
    def total(self) -> int:
        return self.d_cr * self.d_cv


def tensor(a, b) -> np.ndarray:
    """Kronecker product with the package's CR-major ordering.

    ``tensor(cr_op, cv_op)[a*d_cv + b, a'*d_cv + b'] = cr_op[a, a'] * cv_op[b, b']``.
    """
    return np.kron(_as_square(a, "left factor"), _as_square(b, "right factor"))


def partial_trace(m, split: DimSplit, keep: str = "cv") -> np.ndarray:
    """Trace out one tensor factor of an operator on the joint space.

    Parameters
    ----------
    m : array_like
        Operator on the joint space, shape ``(split.total, split.total)``.
    split : DimSplit
        CR/CV factor dimensions (CR-major ordering).
    keep : str
        ``"cv"`` returns the CV-side reduction (trace over CR);
        ``"cr"`` returns the CR-side reduction.
    """
    a = _as_square(m, "joint operator")
    if a.shape[0] != split.total:
        raise ValueError(
            f"operator dimension {a.shape[0]} does not match split {split.d_cr}x{split.d_cv}")
    t = a.reshape(split.d_cr, split.d_cv, split.d_cr, split.d_cv)
    if keep == "cv":
        return np.einsum("abad->bd", t)
    if keep == "cr":
        return np.einsum("abcb->ac", t)
    raise ValueError(f"keep must be 'cr' or 'cv', got {keep!r}")


def von_neumann_entropy(rho) -> float:
    """Von Neumann entropy in bits, ``-sum(lam * log2(lam))``.

    Eigenvalues at or below the clamp ``1e-12`` count as zero. A pure state,
    with one eigenvalue left (1, ``1 - 1.1e-16`` or ``1 + 2.2e-16``), and a
    sum at or below zero read exactly ``+0.0``. The input must pass
    ``check_density``, whose spectrum the entropy reuses.
    """
    return _entropy_bits(_checked_spectrum(rho)[1])


def _entropy_bits(w) -> float:
    """``von_neumann_entropy`` of a state from its spectrum ``w``."""
    w = w[w > ENTROPY_CLAMP]
    if len(w) <= 1:
        return 0.0
    s = float(-(w * np.log(w)).sum() / _LOG2)
    return 0.0 if s <= 0.0 else s


def trace_distance(a, b):
    """Trace distance ``0.5 * ||a - b||_1`` between two Hermitian operators.

    Two stacks of shape ``(..., d, d)`` give the array of distances between
    their matching operators, each with the bits of the lone call.
    """
    x = _as_stack(a, "first operator")
    y = _as_stack(b, "second operator")
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch {x.shape} vs {y.shape}")
    diff = x - y
    diff = 0.5 * (diff + diff.conj().swapaxes(-1, -2))
    dist = 0.5 * np.abs(np.linalg.eigvalsh(diff)).sum(-1)
    return float(dist) if dist.ndim == 0 else dist


@functools.cache
def hermitian_basis(d: int) -> np.ndarray:
    """Orthonormal Hermitian basis of the ``d x d`` operators as the
    unitary ``(d*d, d*d)`` matrix ``B`` of the column-stacked vecs of
    ``E_jj``, then ``(E_jk + E_kj) / sqrt(2)`` and ``i (E_jk - E_kj) /
    sqrt(2)`` for ``j < k``. A Hermitian ``X`` has the real coordinates
    ``B^H vec(X)``, and ``B c`` of a real ``c`` is exactly Hermitian: the
    real and imaginary parts of each entry are one product each, and the
    entries at ``jk`` and ``kj`` are conjugates. The trace of ``B c`` is
    the sum of the first ``d`` coordinates. Cached per ``d``, read-only.
    """
    u = np.eye(d * d).reshape(d, d, d * d)  # u[k, j] = vec(E_jk)
    (j, k), r = np.triu_indices(d, 1), np.sqrt(0.5)
    cols = [u[range(d), range(d)], r * (u[k, j] + u[j, k]), 1j * r * (u[k, j] - u[j, k])]
    b = np.concatenate(cols).T
    b.flags.writeable = False
    return b


def _coords(x: np.ndarray) -> np.ndarray:
    """Real coordinates ``Re(B^H vec(x))`` of the Hermitian part of the
    operator ``x`` (d, d), or the rows of them (n, d*d) of a stack."""
    # one vector-matrix product per row, in a lone call's summation order
    rows = x.swapaxes(-1, -2).reshape(*x.shape[:-2], 1, x.shape[-1] ** 2)
    return np.matmul(rows, hermitian_basis(x.shape[-1]).conj())[..., 0, :].real


def _states(cs: np.ndarray) -> np.ndarray:
    """The exactly Hermitian operators whose coordinates are the rows of
    ``cs`` (n, d*d), as an (n, d, d) array."""
    d = math.isqrt(cs.shape[-1])
    return np.ascontiguousarray((cs @ hermitian_basis(d).T).reshape(-1, d, d).swapaxes(1, 2))


def _trace_distances(cs: np.ndarray) -> np.ndarray:
    """Half the trace norm of the operator of each coordinate row of ``cs``
    (n, d*d), with the bits ``trace_distance`` gives it against zero."""
    return 0.5 * np.abs(np.linalg.eigvalsh(_states(cs))).sum(-1)


def _real_map(m: np.ndarray) -> np.ndarray:
    """The superoperator ``m`` (d*d, d*d) on vecs, or each of a stack, as
    the real matrix ``Re(B^H m B)`` on coordinates. Raises ``ValueError``
    when a dropped imaginary part exceeds 1e-12 (``m`` breaks Hermiticity)."""
    b = hermitian_basis(math.isqrt(m.shape[-1]))
    mr = b.conj().T @ m @ b
    if np.abs(mr.imag).max() > 1e-12:
        raise ValueError("loop map does not preserve Hermiticity")
    return np.ascontiguousarray(mr.real)


def _vec_map(mr: np.ndarray) -> np.ndarray:
    """The inverse of ``_real_map``: the superoperator ``B mr B^H`` on vecs."""
    b = hermitian_basis(math.isqrt(mr.shape[-1]))
    return b @ mr @ b.conj().T


def random_density(dim: int, seed: int) -> np.ndarray:
    """Hilbert-Schmidt random density matrix ``G G^dag / tr(G G^dag)``.

    ``G`` is a ``dim x dim`` matrix of independent standard complex Gaussians
    drawn from ``numpy.random.default_rng(seed)``; the result is a
    deterministic function of ``(dim, seed)``.
    """
    if dim < 1:
        raise ValueError("dim must be positive")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    rho /= rho.trace().real
    return 0.5 * (rho + rho.conj().T)


def maximally_mixed(dim: int) -> np.ndarray:
    """The maximally mixed state ``I / dim``."""
    if dim < 1:
        raise ValueError("dim must be positive")
    return np.eye(dim, dtype=complex) / dim
