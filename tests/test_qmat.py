import math

import numpy as np
import pytest

from dctc.qmat import (
    DensityError,
    DimSplit,
    _coords,
    _real_map,
    _states,
    _trace_distances,
    _vec_map,
    check_density,
    check_unitary,
    hermitian_basis,
    maximally_mixed,
    partial_trace,
    random_density,
    tensor,
    trace_distance,
    von_neumann_entropy,
)

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
KET0 = np.diag([1.0, 0.0]).astype(complex)
KET1 = np.diag([0.0, 1.0]).astype(complex)
STABLE = np.diag([0.5, 0.0, 0.25, 0.25]).astype(complex)
FLAT = np.diag([1 / 3, 0.0, 1 / 3, 1 / 3]).astype(complex)


def _random_unitary(dim, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_dimsplit_total_and_validation():
    split = DimSplit(2, 4)
    assert split.total == 8
    with pytest.raises(ValueError):
        DimSplit(0, 4)
    with pytest.raises(ValueError):
        DimSplit(2, -1)


def test_tensor_identity_case():
    assert np.array_equal(tensor(I2, I2), np.eye(4))


def test_tensor_projector_block():
    big = tensor(KET0, STABLE)
    assert big.shape == (8, 8)
    assert np.abs(big[:4, :4] - STABLE).max() == 0.0
    assert np.abs(big[4:, :]).max() == 0.0
    assert np.abs(big[:, 4:]).max() == 0.0


def test_tensor_matches_elementwise_kronecker():
    out = tensor(X, Z)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for m in range(2):
                    assert out[i * 2 + k, j * 2 + m] == X[i, j] * Z[k, m]


def test_partial_trace_recovers_product_factors():
    """Tracing one factor of a product state returns the other exactly."""
    split = DimSplit(2, 4)
    for seed in range(10):
        rho = random_density(2, seed)
        tau = random_density(4, seed + 1000)
        joint = tensor(rho, tau)
        assert np.abs(partial_trace(joint, split, keep="cv") - tau).max() < 1e-12
        assert np.abs(partial_trace(joint, split, keep="cr") - rho).max() < 1e-12


def test_partial_trace_preserves_trace():
    split = DimSplit(2, 4)
    for seed in range(10):
        m = random_density(8, seed)
        for keep in ("cr", "cv"):
            red = partial_trace(m, split, keep=keep)
            assert abs(np.trace(red) - np.trace(m)) < 1e-12


def test_partial_trace_maximally_entangled():
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1 / np.sqrt(2)
    bell = np.outer(v, v.conj())
    red = partial_trace(bell, DimSplit(2, 2), keep="cv")
    assert np.abs(red - I2 / 2).max() < 1e-12


def test_partial_trace_errors():
    with pytest.raises(ValueError):
        partial_trace(np.eye(6), DimSplit(2, 4))
    with pytest.raises(ValueError):
        partial_trace(np.eye(8), DimSplit(2, 4), keep="both")


def test_entropy_reference_values():
    assert abs(von_neumann_entropy(STABLE) - 1.5) < 1e-12
    assert abs(von_neumann_entropy(FLAT) - np.log2(3)) < 1e-12
    assert abs(von_neumann_entropy(FLAT) - 1.58496) < 1e-5
    assert von_neumann_entropy(KET0) == 0.0
    assert abs(von_neumann_entropy(np.eye(4) / 4) - 2.0) < 1e-12


def test_entropy_clamps_tiny_negative_eigenvalues():
    rho = np.diag([1.0 + 5e-11, 0.0, -5e-11, 0.0]).astype(complex)
    s = von_neumann_entropy(rho)
    assert np.isfinite(s)
    assert abs(s) < 1e-8
    # a pure state reads exactly +0.0, also when its eigenvalue rounds
    # above or below 1
    for top in (1.0 + 2.0 ** -52, 1.0, 1.0 - 2.0 ** -53):
        s = von_neumann_entropy(np.diag([top, 0.0]).astype(complex))
        assert s == 0.0
        assert math.copysign(1.0, s) == 1.0


def test_entropy_unitary_invariance():
    for seed in range(10):
        rho = random_density(4, seed)
        u = _random_unitary(4, seed + 50)
        s0 = von_neumann_entropy(rho)
        s1 = von_neumann_entropy(u @ rho @ u.conj().T)
        assert abs(s1 - s0) < 1e-9


def _two_pass_entropy(rho):
    """Reference: the entropy from a second ``eigvalsh`` after
    ``check_density``, in bits, clamped, with a state of at most one
    eigenvalue left (pure) or a sum <= 0 read as +0.0."""
    a = check_density(rho)
    w = np.linalg.eigvalsh(0.5 * (a + a.conj().T))
    w = w[w > 1e-12]
    if len(w) <= 1:
        return 0.0
    s = float(-(w * np.log(w)).sum() / np.log(2.0))
    return 0.0 if s <= 0.0 else s


def _pure(dim, seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj())


def test_entropy_bits_match_the_two_pass_formula():
    """The entropy reuses the spectrum ``check_density`` takes; its bits are
    those of a second ``eigvalsh`` on the same array."""
    pure = [_pure(dim, seed) for dim in (2, 3, 4) for seed in range(40)]
    # some pure states have an eigenvalue that rounds to 1 + 2.2e-16
    assert any(np.linalg.eigvalsh(0.5 * (r + r.conj().T)).max() > 1.0 for r in pure)
    clamped = [np.diag(w).astype(complex) for w in
               ([1.0 + 5e-11, 0.0, -5e-11, 0.0], [1.0 - 1e-13, 1e-13],
                [0.5, 0.5 - 2e-12, 2e-12], [1.0 + 2.0 ** -52, 0.0], [1.0 - 2.0 ** -53, 0.0])]
    noisy = [random_density(dim, seed) for dim in (2, 3, 4, 6) for seed in range(25)]
    for rho in pure + clamped + noisy:
        s = von_neumann_entropy(rho)
        want = _two_pass_entropy(rho)
        assert s == want and math.copysign(1.0, s) == math.copysign(1.0, want)


def test_trace_distance_values():
    assert trace_distance(STABLE, STABLE) == 0.0
    assert abs(trace_distance(KET0, KET1) - 1.0) < 1e-12
    # 0.5 * (|1/2 - 1/3| + |1/4 - 1/3| + |1/4 - 1/3|) = 1/6
    assert abs(trace_distance(STABLE, FLAT) - 1 / 6) < 1e-12


def test_trace_distance_symmetry_and_triangle():
    for seed in range(20):
        a = random_density(4, 3 * seed)
        b = random_density(4, 3 * seed + 1)
        c = random_density(4, 3 * seed + 2)
        dab = trace_distance(a, b)
        assert abs(dab - trace_distance(b, a)) < 1e-12
        assert dab <= 1.0 + 1e-12
        assert dab <= trace_distance(a, c) + trace_distance(c, b) + 1e-10


def test_trace_distance_shape_mismatch():
    with pytest.raises(ValueError):
        trace_distance(np.eye(2), np.eye(4))


def test_random_density_is_valid_and_deterministic():
    for dim in (1, 2, 4, 8):
        a = random_density(dim, 123)
        b = random_density(dim, 123)
        assert np.array_equal(a, b)
        check_density(a)
    assert not np.allclose(random_density(4, 1), random_density(4, 2))


def test_random_density_mean_is_maximally_mixed():
    acc = np.zeros((2, 2), dtype=complex)
    n = 10000
    for seed in range(n):
        acc += random_density(2, seed)
    assert np.abs(acc / n - I2 / 2).max() < 0.02


def test_check_density_rejections():
    with pytest.raises(ValueError):
        check_density(np.array([[1.0, 1.0], [0.0, 0.0]]))  # not Hermitian
    with pytest.raises(ValueError):
        check_density(np.eye(2))  # trace 2
    with pytest.raises(ValueError):
        check_density(np.diag([1.5, -0.5]))  # negative eigenvalue
    with pytest.raises(ValueError):
        check_density(np.full((2, 2), np.nan))


def test_stacks_are_checked_and_measured_matrix_by_matrix():
    """A stack passes only if every matrix does, and a failure names the
    first failing matrix; trace distances of two stacks are the lone
    calls' bits."""
    stack = np.stack([random_density(3, seed) for seed in range(12)]).reshape(3, 4, 3, 3)
    assert np.array_equal(check_density(stack), stack)
    for index, bad in [((1, 2), np.diag([1.5, -0.5, 0.0])), ((0, 3), 2 * np.eye(3) / 3),
                       ((2, 0), np.full((3, 3), np.nan))]:
        broken = stack.copy()
        broken[index] = bad
        broken[2, 3] = np.diag([1.5, -0.5, 0.0])  # a later failure is not the one named
        name = rf"density matrix \[{index[0]}, {index[1]}\]"
        with pytest.raises(DensityError, match=name) as info:
            check_density(broken)
        assert info.value.index == index
    with pytest.raises(DensityError) as info:
        check_density(np.diag([1.5, -0.5]))
    assert info.value.index == ()
    other = stack[::-1, ::-1]
    dist = trace_distance(stack, other)
    assert dist.shape == (3, 4)
    for i in range(3):
        for j in range(4):
            assert dist[i, j].hex() == trace_distance(stack[i, j], other[i, j]).hex()


def test_check_unitary():
    check_unitary(X)
    check_unitary(_random_unitary(5, 0))
    with pytest.raises(ValueError):
        check_unitary(np.diag([1.0, 0.5]))


def test_maximally_mixed():
    assert np.array_equal(maximally_mixed(4), np.eye(4) / 4)
    with pytest.raises(ValueError):
        maximally_mixed(0)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_hermitian_basis_is_orthonormal_and_hermitian(d):
    """The columns are Hermitian operators, orthonormal in the
    Hilbert-Schmidt inner product <A, B> = tr(A^H B)."""
    b = hermitian_basis(d)
    mats = b.T.reshape(-1, d, d).transpose(0, 2, 1)  # unvec of each column
    assert b.shape == (d * d, d * d)
    assert np.array_equal(mats, mats.conj().transpose(0, 2, 1))
    gram = np.einsum("aij,bij->ab", mats.conj(), mats)
    assert np.abs(gram - np.eye(d * d)).max() < 1e-15


def _coords_formula(b, x):
    """``Re(B^H vec(x))`` written out on one operator."""
    return (x.reshape(-1, order="F") @ b.conj()).real


@pytest.mark.parametrize("d", range(1, 9))
def test_hermitian_basis_round_trip(d):
    """Any real coordinates give an exactly Hermitian operator, and a
    Hermitian operator's coordinates ``Re(B^H vec X)`` give it back. The
    coordinate map's helpers follow these formulas, and give every member
    of a stack the bits of its lone call."""
    b = hermitian_basis(d)
    c = np.random.default_rng(d).standard_normal(d * d)
    x = (b @ c).reshape(d, d, order="F")
    assert np.array_equal(x, x.conj().T)
    rho = random_density(d, 30 + d)
    coords = b.conj().T @ rho.reshape(-1, order="F")
    assert np.abs(coords.imag).max() < 1e-15
    back = (b @ coords.real).reshape(d, d, order="F")
    assert np.array_equal(back, back.conj().T)
    assert np.abs(back - rho).max() < 1e-15

    rng = np.random.default_rng(100 + d)
    xs = rng.standard_normal((6, d, d)) + 1j * rng.standard_normal((6, d, d))
    cs = rng.standard_normal((6, d * d))
    rs = rng.standard_normal((6, d * d, d * d))
    coords, states, dists = _coords(xs), _states(cs), _trace_distances(cs)
    maps = _vec_map(rs)
    real = _real_map(maps)
    assert np.abs(_coords(states) - cs).max() < 1e-14
    assert np.abs(real - rs).max() < 1e-13
    for k in range(6):
        assert coords[k].tobytes() == _coords(xs[k]).tobytes()
        assert np.array_equal(coords[k], _coords_formula(b, xs[k]))
        assert states[k].tobytes() == _states(cs[k])[0].tobytes()
        assert np.array_equal(states[k], (b @ cs[k]).reshape(d, d, order="F"))
        assert dists[k].tobytes() == _trace_distances(cs[k:k + 1])[0].tobytes()
        assert dists[k] == trace_distance(states[k], np.zeros((d, d)))
        assert maps[k].tobytes() == _vec_map(rs[k]).tobytes()
        assert real[k].tobytes() == _real_map(maps[k]).tobytes()
