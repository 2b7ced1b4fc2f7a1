"""Dense complex-matrix primitives for small quantum systems.

All operators are plain ``numpy`` arrays with complex dtype; nothing here is
wrapped in classes. Conventions used throughout the package:

* Composite bases are ordered CR-major: the joint index of basis state
  ``|a>`` on the chronology-respecting (CR) side and ``|b>`` on the
  chronology-violating (CV) side is ``a * d_cv + b``. This matches
  ``numpy.kron(cr_op, cv_op)``.
* Entropies are in bits (base-2 logarithms).
* Validation tolerances live in the module constants below; callers that
  need looser or tighter checks pass them explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HERMITIAN_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_TOL = 1e-10
UNITARY_TOL = 1e-10
EIG_HERMITIAN_TOL = 1e-8
ENTROPY_CLAMP = 1e-12
SPAN_TOL = 1e-10

_LOG2 = np.log(2.0)


def _as_square(m, name: str = "matrix") -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} contains non-finite entries")
    return a


def check_density(rho, herm_tol: float = HERMITIAN_TOL,
                  trace_tol: float = TRACE_TOL,
                  psd_tol: float = PSD_TOL) -> np.ndarray:
    """Validate a density matrix and return it as a complex array.

    Raises ``ValueError`` unless ``rho`` is square, Hermitian within
    ``herm_tol`` (max-abs deviation), has unit trace within ``trace_tol``,
    and has eigenvalues no smaller than ``-psd_tol``.
    """
    a = _as_square(rho, "density matrix")
    herm_defect = np.abs(a - a.conj().T).max()
    if herm_defect > herm_tol:
        raise ValueError(f"density matrix not Hermitian (defect {herm_defect:.3e})")
    tr = a.trace()
    if abs(tr - 1.0) > trace_tol:
        raise ValueError(f"density matrix trace {tr} is not 1")
    w = np.linalg.eigvalsh(0.5 * (a + a.conj().T))
    if w.min() < -psd_tol:
        raise ValueError(f"density matrix has negative eigenvalue {w.min():.3e}")
    return a


def is_density(rho) -> bool:
    """True when ``check_density`` accepts ``rho``."""
    try:
        check_density(rho)
    except ValueError:
        return False
    return True


def check_unitary(u, tol: float = UNITARY_TOL) -> np.ndarray:
    """Validate a unitary matrix (``u u^dag = 1`` within ``tol``) and return it."""
    a = _as_square(u, "unitary")
    defect = np.abs(a @ a.conj().T - np.eye(a.shape[0])).max()
    if defect > tol:
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

    Eigenvalues below the clamp threshold ``1e-12`` are treated as zero.
    The input must pass ``check_density``.
    """
    a = check_density(rho)
    w = np.linalg.eigvalsh(0.5 * (a + a.conj().T))
    w = w[w > ENTROPY_CLAMP]
    return float(-(w * np.log(w)).sum() / _LOG2)


def trace_distance(a, b) -> float:
    """Trace distance ``0.5 * ||a - b||_1`` between two Hermitian operators."""
    x = _as_square(a, "first operator")
    y = _as_square(b, "second operator")
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch {x.shape} vs {y.shape}")
    diff = x - y
    diff = 0.5 * (diff + diff.conj().T)
    return float(0.5 * np.abs(np.linalg.eigvalsh(diff)).sum())


def hermitian_eig(h, herm_tol: float = EIG_HERMITIAN_TOL):
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(w, v)`` with eigenvalues ``w`` ascending and orthonormal
    eigenvector columns ``v``; raises ``ValueError`` when the input deviates
    from Hermiticity by more than ``herm_tol``.
    """
    a = _as_square(h, "hermitian matrix")
    if np.abs(a - a.conj().T).max() > herm_tol:
        raise ValueError("matrix is not Hermitian within tolerance")
    w, v = np.linalg.eigh(0.5 * (a + a.conj().T))
    return w, v


def hermitian_span(mats) -> np.ndarray:
    """Orthonormal basis of the real span of Hermitian matrices.

    Orthonormal in the Hilbert-Schmidt inner product, which is real on
    Hermitian matrices and so equals the Euclidean one on the stacked real
    and imaginary parts of the flattened matrices; the basis is the right
    singular vectors of that stack with singular value above ``SPAN_TOL``.
    Returns an array of shape ``(k, d, d)``.
    """
    a = np.asarray(mats, dtype=complex)
    flat = a.reshape(len(a), -1)
    n = flat.shape[1]
    _, s, vt = np.linalg.svd(np.concatenate([flat.real, flat.imag], axis=1),
                             full_matrices=False)
    rows = vt[s > SPAN_TOL]
    basis = (rows[:, :n] + 1j * rows[:, n:]).reshape(-1, *a.shape[1:])
    return 0.5 * (basis + basis.conj().transpose(0, 2, 1))


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
