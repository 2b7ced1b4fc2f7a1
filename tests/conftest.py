import numpy as np
import pytest

from dctc import engines


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
