"""Benchmark circuits and reference states.

Three joint unitaries exercise the package end to end, addressed by the
short identifiers the command line uses:

* ``u1``: a permutation that cycles three CV levels against a fresh CR
  qubit; plain iteration orbits a period-3 cycle and only the averaged
  picture singles out a consistent state.
* ``u2``: a bistable interaction with a whole family of consistent states,
  two of which (entropy 1.5 and log2(3) bits) the different selection
  rules pick apart; its iterated-map limit has the four-operator Kraus
  form returned by ``limit_kraus_ops``.
* ``u3``: a three-qubit permutation (CR = two qubits alpha, beta; CV = one
  qubit) whose consistent-state set changes abruptly with the CR input,
  the discontinuity example.

The ``u3`` kets ``|alpha beta cv>`` are binary joint indices in CR-major
order; under this reading CR input A (``|0><0| (x) diag(1-eps, eps)``)
fixes only ``I/2`` and B (``|00><00|``) the diagonal family, the reverse
of their documented labels, while C fixes the CV ground state as stated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import CtcSystem
from .qmat import DimSplit

_SQ2 = 1.0 / math.sqrt(2.0)


def _unit(dim: int, i: int, j: int) -> np.ndarray:
    m = np.zeros((dim, dim), dtype=complex)
    m[i, j] = 1.0
    return m


def _unitary_from_terms(dim: int, terms) -> np.ndarray:
    u = np.zeros((dim, dim), dtype=complex)
    for out_idx, in_idx, amp in terms:
        u[out_idx, in_idx] += amp
    return u


def _joint_idx(cr: str, cv: str, d_cv: int) -> int:
    return int(cr, 2) * d_cv + int(cv)


def cycling_unitary() -> np.ndarray:
    """8x8 permutation (CR qubit, 4-level CV) driving a period-3 CV cycle.

    Basis kets are written ``|a b>`` with CR bit ``a`` and CV level ``b``;
    the map sends ``|01>->|00>``, ``|02>->|10>``, ``|03>->|02>``,
    ``|00>->|03>``, ``|10>->|01>`` and fixes ``|11>``, ``|12>``, ``|13>``.
    """
    pairs = [("00", "01"), ("10", "02"), ("02", "03"), ("03", "00"),
             ("01", "10"), ("11", "11"), ("12", "12"), ("13", "13")]
    terms = [(_joint_idx(o[0], o[1], 4), _joint_idx(i[0], i[1], 4), 1.0)
             for o, i in pairs]
    return _unitary_from_terms(8, terms)


def bistable_unitary() -> np.ndarray:
    """8x8 unitary (CR qubit, 4-level CV) with a bistable consistent set."""
    terms_sym = [
        ("10", "00", 1.0), ("00", "01", 1.0),
        ("02", "02", _SQ2), ("13", "02", _SQ2),
        ("03", "03", _SQ2), ("12", "03", _SQ2),
        ("11", "10", 1.0), ("01", "11", 1.0),
        ("13", "12", _SQ2), ("02", "12", -_SQ2),
        ("03", "13", _SQ2), ("12", "13", -_SQ2),
    ]
    terms = [(_joint_idx(o[0], o[1], 4), _joint_idx(i[0], i[1], 4), a)
             for o, i, a in terms_sym]
    return _unitary_from_terms(8, terms)


def discontinuity_unitary() -> np.ndarray:
    """8x8 permutation (CR = qubits alpha, beta; CV = one qubit) whose
    consistent set jumps between CR inputs; the ket ``|alpha beta cv>``
    is the joint index ``int("<alpha><beta><cv>", 2)``."""
    pairs = [("000", "100"), ("001", "001"), ("010", "011"), ("011", "010"),
             ("100", "000"), ("101", "110"), ("110", "101"), ("111", "111")]
    return _unitary_from_terms(8, [(int(o, 2), int(i, 2), 1.0) for o, i in pairs])


def cr_mixed(s: float) -> np.ndarray:
    """Classically mixed CR qubit ``diag(1, s) / (1 + s)`` for ``0 <= s <= 1``."""
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"mixing parameter s={s} outside [0, 1]")
    return np.diag([1.0 / (1.0 + s), s / (1.0 + s)]).astype(complex)


def cr_pure(s: float) -> np.ndarray:
    """Pure CR qubit ``(|0> + s|1>)(<0| + s<1|) / (1 + s^2)``."""
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"superposition parameter s={s} outside [0, 1]")
    v = np.array([1.0, s], dtype=complex)
    return np.outer(v, v.conj()) / (1.0 + s * s)


def _qubit_eps(eps: float, delta: complex) -> np.ndarray:
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"population eps={eps} outside [0, 1]")
    if abs(delta) ** 2 > eps * (1.0 - eps) + 1e-12:
        raise ValueError(
            f"coherence |delta|={abs(delta):.6g} exceeds PSD bound for eps={eps}")
    return np.array([[1.0 - eps, delta], [np.conjugate(delta), eps]], dtype=complex)


def cr_eps(eps_a: float, delta_a: complex, eps_b: float, delta_b: complex) -> np.ndarray:
    """Two-qubit CR input ``rho_alpha (x) rho_beta`` with each factor
    ``[[1-eps, delta], [conj(delta), eps]]``; PSD requires
    ``|delta|^2 <= eps (1-eps)``."""
    return np.kron(_qubit_eps(eps_a, delta_a), _qubit_eps(eps_b, delta_b))


@dataclass(frozen=True)
class GallerySystem:
    """A named benchmark circuit with its default CR input."""

    name: str
    split: DimSplit
    unitary: np.ndarray
    default_cr: np.ndarray
    notes: str

    def system(self, rho_cr=None, p: float = 0.0) -> CtcSystem:
        cr = self.default_cr if rho_cr is None else rho_cr
        return CtcSystem(self.unitary, cr, self.split, p)


def gallery() -> dict[str, GallerySystem]:
    """The benchmark circuits keyed by their command-line identifiers."""
    ket0 = np.diag([1.0, 0.0]).astype(complex)
    ket00 = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
    return {
        "u1": GallerySystem(
            "u1", DimSplit(2, 4), cycling_unitary(), ket0,
            "permutation cycling three CV levels against a fresh CR qubit; "
            "iteration orbits a period-3 cycle"),
        "u2": GallerySystem(
            "u2", DimSplit(2, 4), bistable_unitary(), ket0,
            "bistable interaction; consistent family diag(a,0,b,b) plus a "
            "symmetric level-2/3 coherence"),
        "u3": GallerySystem(
            "u3", DimSplit(4, 2), discontinuity_unitary(), ket00,
            "three-qubit permutation whose consistent set jumps with the CR "
            "input; kets |alpha beta cv> are binary joint indices, under "
            "which the documented fixed sets of inputs A and B come out "
            "swapped"),
    }


def limit_kraus_ops() -> list[np.ndarray]:
    """The four 4x4 Kraus operators of the bistable circuit's iterated-map
    limit: a level-0 projector, a 1->0 jump, and balanced keep/swap
    operators on levels 2 and 3."""
    e1 = _unit(4, 0, 0)
    e2 = _unit(4, 0, 1)
    e3 = _SQ2 * (_unit(4, 2, 2) + _unit(4, 3, 3))
    e4 = _SQ2 * (_unit(4, 2, 3) + _unit(4, 3, 2))
    return [e1, e2, e3, e4]


def cr_swap_symmetric(u, split: DimSplit = DimSplit(4, 2)) -> bool:
    """Whether conjugating by the alpha/beta CR swap leaves ``u`` unchanged
    (only defined for CR = two qubits)."""
    if split.d_cr != 4:
        raise ValueError("CR swap symmetry needs a two-qubit CR side")
    s = np.zeros((4, 4))
    for a in range(2):
        for b in range(2):
            s[2 * b + a, 2 * a + b] = 1.0
    full = np.kron(s, np.eye(split.d_cv))
    return bool(np.abs(full @ np.asarray(u) @ full.T - np.asarray(u)).max() < 1e-12)
