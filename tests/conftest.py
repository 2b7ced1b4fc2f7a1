import numpy as np
import pytest


@pytest.fixture
def haar():
    """``haar(n, rng)``: a Haar-random unitary, the QR of a Ginibre matrix
    with the phases of R's diagonal moved into Q."""

    def draw(n, rng):
        z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        q, r = np.linalg.qr(z)
        return q * (np.diag(r) / np.abs(np.diag(r)))

    return draw
