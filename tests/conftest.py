import numpy as np
import pytest

from dctc import engines, experiments
from dctc.channels import vec


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


@pytest.fixture
def bad_loop_map(monkeypatch):
    """``bad_loop_map(k)``: in every stacked closed-form solve on a CV qubit,
    the k-th (0-based) loop map sends each state ``X`` to
    ``tr(X) diag(1.5, -0.5)``, so that cell's noisy fixed point has a
    negative eigenvalue; the other maps are as usual."""

    def arm(k):
        real = engines.loop_maps

        def maps(sys, rho_crs):
            m = real(sys, rho_crs)
            m[k] = np.outer(vec(np.diag([1.5, -0.5])), vec(np.eye(2)))
            return m

        monkeypatch.setattr(engines, "loop_maps", maps)

    return arm
