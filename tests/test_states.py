import json
import math

import numpy as np
import pytest

from belltol.errors import DomainError, ResourceCapError, ValidationError
from belltol.states import (
    DensityMatrix,
    NoiseSpec,
    dicke,
    ghz,
    mix,
    product_zero,
    w_state,
    white_noise,
)


def test_ghz22_matrix():
    v = np.zeros(4)
    v[0] = v[3] = 1 / math.sqrt(2)
    assert np.allclose(ghz(2, 2).matrix, np.outer(v, v), atol=1e-12)


def test_ghz23_diagonal():
    diag = np.diag(ghz(2, 3).matrix).real
    expected = np.zeros(8)
    expected[0] = expected[7] = 0.5
    assert np.allclose(diag, expected, atol=1e-12)


def test_ghz32_purity_and_reduced_state():
    g = ghz(3, 2)
    assert abs(g.purity() - 1.0) <= 1e-10
    # oracle: explicit partial-trace arithmetic via index reshaping
    t = np.asarray(g.matrix).reshape(3, 3, 3, 3)
    reduced = np.einsum("ikjk->ij", t)
    assert np.allclose(reduced, np.eye(3) / 3, atol=1e-12)


def test_ghz_is_valid_density():
    for d, n in [(2, 2), (2, 4), (3, 2), (4, 2)]:
        g = ghz(d, n)
        assert abs(np.trace(g.matrix).real - 1.0) <= 1e-10
        assert abs(g.purity() - 1.0) <= 1e-10


def test_ghz_domain_and_cap():
    with pytest.raises(DomainError):
        ghz(1, 2)
    with pytest.raises(ResourceCapError):
        ghz(2, 20)


def test_dicke31_is_w_state():
    # amplitudes 1/sqrt(3) on 001, 010, 100
    psi = np.zeros(8)
    for idx in (1, 2, 4):
        psi[idx] = 1 / math.sqrt(3)
    assert np.allclose(dicke(3, 1).matrix, np.outer(psi, psi), atol=1e-12)
    assert np.allclose(w_state(3).matrix, dicke(3, 1).matrix)


def test_dicke32_support():
    diag = np.diag(dicke(3, 2).matrix).real
    assert np.allclose(sorted(np.nonzero(diag > 1e-12)[0]), [3, 5, 6])
    assert np.allclose(diag[[3, 5, 6]], 1 / 3)


def test_dicke42_amplitudes():
    diag = np.diag(dicke(4, 2).matrix).real
    support = np.nonzero(diag > 1e-12)[0]
    assert len(support) == 6
    assert np.allclose(diag[support], 1 / 6)
    assert abs(dicke(4, 2).purity() - 1.0) <= 1e-10


def test_dicke_domain():
    with pytest.raises(DomainError):
        dicke(3, 0)
    with pytest.raises(DomainError):
        dicke(3, 3)


def test_white_noise():
    assert np.allclose(white_noise(2, 1).matrix, np.eye(2) / 2)
    assert np.allclose(white_noise(2, 2).matrix, np.diag([0.25] * 4))
    assert abs(np.trace(white_noise(3, 2).matrix).real - 1.0) <= 1e-12


def test_mix_endpoints():
    z, r = white_noise(2, 2), ghz(2, 2)
    assert np.allclose(mix(z, r, 1.0).matrix, r.matrix)
    assert np.allclose(mix(z, r, 0.0).matrix, z.matrix)


def test_mix_half_diagonal():
    m = mix(white_noise(2, 2), ghz(2, 2), 0.5)
    assert np.allclose(np.diag(m.matrix).real, [1 / 8 + 1 / 4, 1 / 8, 1 / 8, 1 / 8 + 1 / 4])


def test_mix_affine_entrywise():
    rng = np.random.default_rng(2)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    zeta = DensityMatrix(2, 2, (g @ g.conj().T) / np.trace(g @ g.conj().T).real)
    rho = ghz(2, 2)
    for beta in (0.1, 0.37, 0.99):
        m = mix(zeta, rho, beta)
        direct = (1 - beta) * zeta.matrix + beta * rho.matrix
        assert np.max(np.abs(m.matrix - direct)) <= 1e-15


def test_mix_domain_errors():
    with pytest.raises(DomainError):
        mix(white_noise(2, 2), ghz(2, 2), 1.5)
    with pytest.raises(ValidationError):
        mix(white_noise(2, 3), ghz(2, 2), 0.5)


def test_density_validation():
    with pytest.raises(ValidationError):
        DensityMatrix(2, 1, np.eye(2))  # trace 2
    with pytest.raises(ValidationError):
        DensityMatrix(2, 1, np.array([[1.5, 0], [0, -0.5]]))  # not PSD
    with pytest.raises(ValidationError):
        DensityMatrix(2, 1, np.array([[0.5, 0.5], [0.0, 0.5]]))  # not Hermitian


def test_product_zero():
    p = product_zero(2, 3)
    assert p.matrix[0, 0] == 1.0
    assert np.trace(p.matrix).real == 1.0


def test_json_roundtrip(tmp_path):
    g = ghz(3, 2)
    path = tmp_path / "state.json"
    g.save(str(path))
    back = DensityMatrix.load(str(path))
    assert (back.d, back.n) == (3, 2)
    assert np.allclose(back.matrix, g.matrix)
    data = json.loads(path.read_text())
    assert set(data) == {"d", "n", "re", "im"}
    assert len(data["re"]) == 81


def test_json_rejects_bad_shape():
    with pytest.raises(ValidationError):
        DensityMatrix.from_json_dict({"d": 2, "n": 1, "re": [1.0], "im": [0.0]})


def test_noise_spec():
    ns = NoiseSpec.white()
    assert np.allclose(ns.resolve(2, 2).matrix, white_noise(2, 2).matrix)
    ex = NoiseSpec.explicit(product_zero(2, 2))
    assert np.allclose(ex.resolve(2, 2).matrix, product_zero(2, 2).matrix)
    with pytest.raises(ValidationError):
        ex.resolve(2, 3)
    with pytest.raises(DomainError):
        NoiseSpec(kind="pink")
    with pytest.raises(ValidationError):
        NoiseSpec(kind="explicit")


@pytest.mark.parametrize("build", [
    lambda: ghz(2, 3),
    lambda: dicke(3, 1),
    lambda: w_state(3),
    lambda: white_noise(2, 3),
    lambda: product_zero(2, 3),
    lambda: NoiseSpec.white().resolve(2, 3),
], ids=["ghz", "dicke", "w_state", "white_noise", "product_zero", "noise_resolve"])
def test_builders_obey_max_dim_env(monkeypatch, build):
    monkeypatch.setenv("BELLTOL_MAX_DIM", "4")
    with pytest.raises(ResourceCapError, match="exceeds cap 4"):
        build()
