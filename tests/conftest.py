import numpy as np
import pytest

from dctc import engines, experiments


@pytest.fixture
def haar():
    """``haar(n, rng)``: a Haar-random unitary, the QR of a Ginibre matrix
    with the phases of R's diagonal moved into Q."""

    def draw(n, rng):
        z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        q, r = np.linalg.qr(z)
        return q * (np.diag(r) / np.abs(np.diag(r)))

    return draw


@pytest.fixture
def superop_builds(monkeypatch):
    """The arguments of every ``superoperator`` call the engines make."""
    builds = []
    real = engines.superoperator

    def counting(*args, **kwargs):
        builds.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(engines, "superoperator", counting)
    return builds


@pytest.fixture
def fail_solve(monkeypatch):
    """``fail_solve(k)``: the grid's k-th (0-based) maximum-entropy solve
    raises the returned ``ConvergenceError``; the others run as usual."""

    def arm(k):
        real = experiments.max_entropy_fixed_state
        cause = engines.ConvergenceError("injected solver failure")
        calls = []

        def solve(sys):
            calls.append(sys)
            if len(calls) == k + 1:
                raise cause
            return real(sys)

        monkeypatch.setattr(experiments, "max_entropy_fixed_state", solve)
        return cause

    return arm
