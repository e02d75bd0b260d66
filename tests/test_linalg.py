import numpy as np
import pytest

from belltol.errors import ResourceCapError, ValidationError
from belltol.linalg import (
    eig_hermitian,
    hermiticity_defect,
    is_psd,
    kron,
    kron_all,
    partial_trace,
    resolve_max_dim,
)

X = np.array([[0, 1], [1, 0]], dtype=complex)


def test_kron_identity():
    assert np.array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))


def test_kron_projectors():
    got = kron(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
    assert np.array_equal(got, np.diag([0.0, 1.0, 0.0, 0.0]))


def test_kron_flip_maps_00_to_11():
    # oracle: direct 4x4 arithmetic on the basis vector
    v00 = np.zeros(4, dtype=complex)
    v00[0] = 1.0
    v11 = np.zeros(4, dtype=complex)
    v11[3] = 1.0
    assert np.allclose(kron(X, X) @ v00, v11)


def test_kron_dimension_law():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((3, 5))
    b = rng.standard_normal((2, 7))
    assert kron(a, b).shape == (6, 35)


def test_kron_associative():
    # index arithmetic is exact; entries agree up to one multiplication rounding
    rng = np.random.default_rng(29)
    a = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    b = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    c = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    left, right = kron(kron(a, b), c), kron(a, kron(b, c))
    assert left.shape == right.shape == (12, 12)
    assert np.allclose(left, right, rtol=1e-14, atol=0.0)


def test_kron_trace_multiplicative():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        lhs = np.trace(kron(a, b))
        rhs = np.trace(a) * np.trace(b)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_kron_cap():
    with pytest.raises(ResourceCapError):
        kron(np.eye(100), np.eye(100))


def test_max_dim_env(monkeypatch):
    monkeypatch.setenv("BELLTOL_MAX_DIM", "8")
    assert resolve_max_dim() == 8
    with pytest.raises(ResourceCapError):
        kron(np.eye(4), np.eye(4))
    monkeypatch.delenv("BELLTOL_MAX_DIM")
    assert resolve_max_dim() == 4096


def test_eig_diagonal():
    w, v = eig_hermitian(np.diag([3.0, 1.0]).astype(complex))
    assert np.allclose(w, [3.0, 1.0])
    assert np.allclose(v @ np.diag(w) @ v.conj().T, np.diag([3.0, 1.0]))


def test_eig_pauli_x():
    w, _ = eig_hermitian(X)
    assert np.allclose(w, [1.0, -1.0])


def test_eig_random_roundtrip():
    rng = np.random.default_rng(3)
    g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    h = (g + g.conj().T) / 2
    w, v = eig_hermitian(h)
    scale = np.max(np.abs(h))
    assert np.max(np.abs(v @ np.diag(w) @ v.conj().T - h)) < 1e-9 * scale
    assert np.max(np.abs(v @ v.conj().T - np.eye(8))) < 1e-9
    assert np.all(np.diff(w) <= 1e-12)  # descending
    assert abs(w.sum() - np.trace(h).real) <= 1e-9 * max(1.0, abs(np.trace(h).real))


def test_eig_rejects_non_hermitian():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(ValidationError, match="deviation"):
        eig_hermitian(bad)


def test_hermiticity_defect():
    assert hermiticity_defect(X) == 0.0
    assert hermiticity_defect(np.array([[0, 1], [0, 0]], dtype=complex)) == 1.0


def test_is_psd():
    assert is_psd(np.eye(2))
    assert not is_psd(np.diag([1.0, -1e-3]).astype(complex))


def test_is_psd_tolerance_is_1e_9():
    # both the eigenvalue floor and the Hermiticity check allow 1e-9
    assert is_psd(np.diag([1.0, -5e-10]).astype(complex))
    assert not is_psd(np.diag([1.0, -2e-9]).astype(complex))
    skew = np.array([[1.0, 5e-10], [0.0, 1.0]], dtype=complex)
    assert is_psd(skew)
    with pytest.raises(ValidationError, match="not Hermitian"):
        is_psd(np.array([[1.0, 2e-9], [0.0, 1.0]], dtype=complex))


def test_is_psd_ghz_projector():
    v = np.zeros(4)
    v[0] = v[3] = 1 / np.sqrt(2)
    rho = np.outer(v, v)
    assert is_psd(rho.astype(complex))
    w, _ = eig_hermitian(rho.astype(complex))
    assert np.allclose(sorted(w), [0, 0, 0, 1], atol=1e-12)


def test_kron_all():
    ops = [np.eye(2), X, np.eye(2)]
    assert kron_all(ops).shape == (8, 8)
    with pytest.raises(ValidationError):
        kron_all([])


def test_partial_trace():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    m = np.kron(a, b)
    assert np.allclose(partial_trace(m, [2, 3], [0]), a * np.trace(b))
    assert np.allclose(partial_trace(m, [2, 3], [1]), b * np.trace(a))
    c = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    m3 = np.kron(np.kron(a, b), c)
    assert np.allclose(partial_trace(m3, [2, 3, 2], [1]), b * np.trace(a) * np.trace(c))


def test_rejects_nonfinite():
    with pytest.raises(ValidationError):
        kron(np.array([[np.nan, 0], [0, 1]]), np.eye(2))
