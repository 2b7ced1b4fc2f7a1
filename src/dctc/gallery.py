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

The ``u3`` source description leaves the tensor-slot conventions implicit;
``resolve_three_qubit_ordering`` brute-forces all eight readings against
the three documented fixed sets and reports the pinned choice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import CtcSystem
from .engines import fixed_subspace
from .qmat import DimSplit, hermitian_span

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


@dataclass(frozen=True)
class Ordering:
    """How the three-qubit ket strings map onto the CR x CV factorization.

    cv_slot : "last" reads ``|x y c>`` with CV char last, "first" reads
        ``|c x y>``
    cr_order : "ab" puts the alpha qubit in the leading CR char, "ba" the
        beta qubit
    rho_index : "ket0" reads a stated unit (1,1) population as
        ``<0|rho|0>``, "ket1" as ``<1|rho|1>``
    """

    cv_slot: str = "last"
    cr_order: str = "ab"
    rho_index: str = "ket0"

    def __post_init__(self):
        if self.cv_slot not in ("last", "first"):
            raise ValueError(f"cv_slot must be 'last' or 'first', got {self.cv_slot!r}")
        if self.cr_order not in ("ab", "ba"):
            raise ValueError(f"cr_order must be 'ab' or 'ba', got {self.cr_order!r}")
        if self.rho_index not in ("ket0", "ket1"):
            raise ValueError(f"rho_index must be 'ket0' or 'ket1', got {self.rho_index!r}")


DEFAULT_ORDERING = Ordering()

_THREE_QUBIT_PAIRS = [("000", "100"), ("001", "001"), ("010", "011"),
                      ("011", "010"), ("100", "000"), ("101", "110"),
                      ("110", "101"), ("111", "111")]


def _three_qubit_index(ket: str, ordering: Ordering) -> int:
    if ordering.cv_slot == "last":
        x, y, c = ket
    else:
        c, x, y = ket
    a, b = (x, y) if ordering.cr_order == "ab" else (y, x)
    return (2 * int(a) + int(b)) * 2 + int(c)


def discontinuity_unitary(ordering: Ordering = DEFAULT_ORDERING) -> np.ndarray:
    """8x8 permutation (CR = qubits alpha, beta; CV = one qubit) whose
    consistent set jumps between CR inputs; slot conventions per
    ``ordering`` (see ``resolve_three_qubit_ordering``)."""
    terms = [(_three_qubit_index(o, ordering), _three_qubit_index(i, ordering), 1.0)
             for o, i in _THREE_QUBIT_PAIRS]
    return _unitary_from_terms(8, terms)


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
            "input; see resolve_three_qubit_ordering"),
    }


@dataclass(frozen=True)
class KnownState:
    """A labeled reference state."""

    label: str
    state: np.ndarray


def known_states() -> list[KnownState]:
    """Reference CV states: the period-3 cycle, its average, and the two
    states the selection rules disagree about."""
    def d(*xs):
        return np.diag(np.array(xs, dtype=complex))

    third = 1.0 / 3.0
    return [
        KnownState("cycle-state-1", d(0.5, 0.0, 0.25, 0.25)),
        KnownState("cycle-state-2", d(0.25, 0.0, 0.25, 0.5)),
        KnownState("cycle-state-3", d(0.25, 0.0, 0.5, 0.25)),
        KnownState("cesaro-limit", d(third, 0.0, third, third)),
        KnownState("stable-fixed", d(0.5, 0.0, 0.25, 0.25)),
        KnownState("max-entropy-fixed", d(third, 0.0, third, third)),
    ]


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


# --- ordering resolution for the three-qubit circuit ---------------------

_TARGET_LABELS = {
    "diagonal-family": "all CV states with vanishing off-diagonal coherence",
    "maximally-mixed-only": "only the maximally mixed CV state",
    "ground-only": "only the CV ket-0 projector",
}


def _classify_fixed_span(basis) -> str:
    def projector(mats):
        v = hermitian_span(mats).reshape(-1, 4)
        return v.T @ v.conj()

    p = projector(basis)
    targets = {
        "diagonal-family": [_unit(2, 0, 0), _unit(2, 1, 1)],
        "maximally-mixed-only": [np.eye(2, dtype=complex)],
        "ground-only": [_unit(2, 0, 0)],
    }
    for label, mats in targets.items():
        if np.linalg.norm(p - projector(mats)) < 1e-6:
            return label
    return f"other(dim={len(basis)})"


@dataclass(frozen=True)
class OrderingCase:
    ordering: Ordering
    rejected: bool
    score: int
    labels: dict


@dataclass(frozen=True)
class OrderingResolution:
    chosen: Ordering
    exact_match: bool
    cases: tuple[OrderingCase, ...]
    report: str


def _case_inputs(ordering: Ordering, eps: float):
    if ordering.rho_index == "ket0":
        full = np.diag([1.0, 0.0]).astype(complex)
        mix = np.diag([1.0 - eps, eps]).astype(complex)
    else:
        full = np.diag([0.0, 1.0]).astype(complex)
        mix = np.diag([eps, 1.0 - eps]).astype(complex)
    ket0 = np.diag([1.0, 0.0]).astype(complex)
    return {
        "A": (full, mix),
        "B": (ket0, ket0),
        "C": (mix, full),
    }


_STATED_SETS = {"A": "diagonal-family", "B": "maximally-mixed-only", "C": "ground-only"}


def resolve_three_qubit_ordering(eps: float = 0.1,
                                 report_path: str | None = None) -> OrderingResolution:
    """Brute-force the eight slot/index readings of the three-qubit circuit.

    For each reading, the fixed-operator span of the three documented CR
    inputs (cases A, B, C) is computed and classified. Readings whose case
    C does not pin the CV ket-0 projector are rejected outright; among the
    rest the one matching the most documented fixed sets wins, ties going
    to the pinned default. The plain-text report lists every reading and
    records any remaining discrepancy instead of reconciling it.
    """
    split = DimSplit(4, 2)
    orderings = [Ordering(cv, co, ri)
                 for cv in ("last", "first")
                 for co in ("ab", "ba")
                 for ri in ("ket0", "ket1")]
    # Evaluate the pinned default first so ties resolve to it.
    orderings.sort(key=lambda o: o != DEFAULT_ORDERING)

    cases: list[OrderingCase] = []
    for ordering in orderings:
        u = discontinuity_unitary(ordering)
        labels = {}
        for case, (rho_a, rho_b) in _case_inputs(ordering, eps).items():
            sys = CtcSystem(u, np.kron(rho_a, rho_b), split, 0.0)
            labels[case] = _classify_fixed_span(list(fixed_subspace(sys).basis))
        rejected = labels["C"] != _STATED_SETS["C"]
        score = sum(labels[c] == _STATED_SETS[c] for c in "ABC")
        cases.append(OrderingCase(ordering, rejected, score, labels))

    viable = [c for c in cases if not c.rejected]
    if not viable:
        raise RuntimeError("every slot/index reading fails the case-C check")
    chosen_case = max(viable, key=lambda c: c.score)
    chosen = chosen_case.ordering
    exact = chosen_case.score == 3

    lines = ["Three-qubit circuit: slot and index reading resolution",
             "=" * 54, "",
             f"Probe population eps = {eps}",
             "Documented fixed sets: A -> diagonal family, "
             "B -> maximally mixed only, C -> ket-0 projector only", ""]
    for c in cases:
        o = c.ordering
        tag = "REJECTED (case C mismatch)" if c.rejected else f"score {c.score}/3"
        lines.append(f"cv_slot={o.cv_slot:<5} cr_order={o.cr_order} "
                     f"rho_index={o.rho_index}: {tag}")
        for case in "ABC":
            mark = "match" if c.labels[case] == _STATED_SETS[case] else "differs"
            lines.append(f"    case {case}: {c.labels[case]} ({mark})")
    lines += ["",
              f"Chosen reading: cv_slot={chosen.cv_slot}, cr_order={chosen.cr_order}, "
              f"rho_index={chosen.rho_index} (score {chosen_case.score}/3)"]
    if not exact:
        lines += [
            "",
            "Discrepancy: under the chosen reading the computed case-A set is "
            f"'{chosen_case.labels['A']}' and the computed case-B set is "
            f"'{chosen_case.labels['B']}'; the documented labels attach those "
            "two sets the other way around. Case C matches exactly. The "
            "brute-force result is reported as found and not reconciled.",
        ]
    report = "\n".join(lines) + "\n"
    if report_path is not None:
        with open(report_path, "w", encoding="utf-8") as fh:
            fh.write(report)
    return OrderingResolution(chosen, exact, tuple(cases), report)
