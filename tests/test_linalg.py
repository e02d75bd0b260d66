import numpy as np
import pytest

from belltol.errors import ValidationError
from belltol.linalg import eig_hermitian, min_eigenvalue, resolve_max_dim

X = np.array([[0, 1], [1, 0]], dtype=complex)


def test_max_dim_env(monkeypatch):
    monkeypatch.setenv("BELLTOL_MAX_DIM", "8")
    assert resolve_max_dim() == 8
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


def test_eig_hermitian_tolerance_boundary():
    # the deviation from Hermiticity is tested against tol itself, max entry
    skew = np.array([[1.0, 5e-10], [0.0, 1.0]], dtype=complex)
    w, _ = eig_hermitian(skew, tol=1e-9)
    assert np.allclose(w, [1.0, 1.0], atol=1e-9)
    with pytest.raises(ValidationError, match="not Hermitian within 1e-09"):
        eig_hermitian(np.array([[1.0, 2e-9], [0.0, 1.0]], dtype=complex), tol=1e-9)


def test_eig_hermitian_stack_matches_per_matrix_calls():
    rng = np.random.default_rng(5)
    g = rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2))
    stack = (g + g.conj().swapaxes(1, 2)) / 2
    w, v = eig_hermitian(stack)
    assert w.shape == (3, 2) and v.shape == (3, 2, 2)
    for k in range(3):
        w_k, v_k = eig_hermitian(stack[k])
        assert np.array_equal(w[k], w_k) and np.array_equal(v[k], v_k)
    # one non-Hermitian member fails the one check of the whole stack
    stack[1, 0, 1] += 1e-3
    with pytest.raises(ValidationError, match="not Hermitian within"):
        eig_hermitian(stack)


def test_eig_hermitian_rejects_non_square():
    with pytest.raises(ValidationError, match="square"):
        eig_hermitian(np.zeros((2, 3)))


def test_is_psd_ghz_projector():
    v = np.zeros(4)
    v[0] = v[3] = 1 / np.sqrt(2)
    rho = np.outer(v, v)
    w, _ = eig_hermitian(rho.astype(complex))
    assert np.allclose(sorted(w), [0, 0, 0, 1], atol=1e-12)


def test_rejects_nonfinite():
    # an inf fails the finiteness check before the Hermiticity check, where
    # inf - inf would raise a RuntimeWarning instead of a ValidationError
    for bad in (np.nan, np.inf, -np.inf, complex(0.0, np.inf)):
        h = np.array([[bad, 0], [0, 1]], dtype=complex)
        for solve in (eig_hermitian, min_eigenvalue):
            for arg in (h, np.stack([np.eye(2), h])):
                with pytest.raises(ValidationError, match="non-finite"):
                    solve(arg)


def test_min_eigenvalue_checks_as_eig_hermitian():
    rng = np.random.default_rng(8)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = (g + g.conj().T) / 2
    assert min_eigenvalue(h) == pytest.approx(eig_hermitian(h)[0][-1], abs=1e-12)
    skew = np.array([[1.0, 2e-9], [0.0, 1.0]], dtype=complex)
    assert min_eigenvalue(skew, tol=5e-9) == pytest.approx(1.0, abs=1e-8)
    for bad, match in ((skew, "not Hermitian within 1e-09"),
                       (np.array([[np.nan, 0], [0, 1]]), "non-finite"),
                       (np.array([[np.inf, 0], [0, 1]]), "non-finite"),
                       (np.zeros((2, 3)), "square")):
        for solve in (eig_hermitian, min_eigenvalue):
            with pytest.raises(ValidationError, match=match):
                solve(bad, tol=1e-9)
