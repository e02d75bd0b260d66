import json
import math
import re

import numpy as np
import pytest

import belltol.states
from belltol.errors import DomainError, ResourceCapError, ValidationError
from belltol.states import (
    HERM_TOL,
    PSD_TOL,
    DensityMatrix,
    NoiseSpec,
    dicke,
    from_vector,
    ghz,
    mix,
    product_zero,
    w_state,
    white_noise,
)
from helpers import purity, random_density


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
    assert abs(purity(g) - 1.0) <= 1e-10
    # oracle: explicit partial-trace arithmetic via index reshaping
    t = np.asarray(g.matrix).reshape(3, 3, 3, 3)
    reduced = np.einsum("ikjk->ij", t)
    assert np.allclose(reduced, np.eye(3) / 3, atol=1e-12)


def test_ghz_is_valid_density():
    for d, n in [(2, 2), (2, 4), (3, 2), (4, 2)]:
        g = ghz(d, n)
        assert abs(np.trace(g.matrix).real - 1.0) <= 1e-10
        assert abs(purity(g) - 1.0) <= 1e-10


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
    assert abs(purity(dicke(4, 2)) - 1.0) <= 1e-10


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


@pytest.mark.parametrize("field, value", [("d", 2.9), ("d", 2.0), ("d", "2"), ("n", 2.5)])
def test_json_rejects_non_integer_d_and_n(field, value):
    # int() would read 2.9 as 2 and load a state of another dimension
    data = {**ghz(2, 2).to_json_dict(), field: value}
    with pytest.raises(ValidationError,
                       match=f"state JSON field '{field}' must be an integer, got {value!r}"):
        DensityMatrix.from_json_dict(data)


@pytest.mark.parametrize("d, n, error, message", [
    (2, -1, DomainError, "number of sites must be >= 1, got -1"),
    (1, 2, DomainError, "site dimension must be >= 2, got 1"),
    (3, 8, ResourceCapError, "total dimension 3^8 exceeds cap 4096"),
    (2, 2000, ResourceCapError, "total dimension 2^2000 exceeds cap 4096"),
    (3, 100000, ResourceCapError, "total dimension 3^100000 exceeds cap 4096"),
    (3, 10**9, ResourceCapError, "total dimension 3^1000000000 exceeds cap 4096"),
])
def test_json_checks_d_n_and_the_cap_before_d_to_the_n(monkeypatch, d, n, error, message):
    # d**n is formed only once d and n are checked and n alone does not
    # exceed the cap: 3**(10**9) would not finish, and no message prints it
    monkeypatch.delenv("BELLTOL_MAX_DIM", raising=False)
    with pytest.raises(error) as info:
        DensityMatrix.from_json_dict({**ghz(2, 2).to_json_dict(), "d": d, "n": n})
    assert str(info.value) == message


@pytest.mark.parametrize("content, reason", [
    (b"not json", "Expecting value: line 1 column 1 (char 0)"),
    (b"\xff{", "'utf-8' codec can't decode byte 0xff in position 0"),
], ids=["not-json", "not-utf8"])
def test_load_names_the_class_of_a_file_that_is_not_json(tmp_path, content, reason):
    path = tmp_path / "state.json"
    path.write_bytes(content)
    with pytest.raises(ValidationError, match=re.escape(f"malformed DensityMatrix JSON: {reason}")):
        DensityMatrix.load(str(path))


def test_load_keeps_the_messages_of_from_json_dict(tmp_path):
    path = tmp_path / "state.json"
    path.write_text(json.dumps({**ghz(2, 2).to_json_dict(), "d": 2.9}), encoding="utf-8")
    with pytest.raises(ValidationError) as info:
        DensityMatrix.load(str(path))
    assert str(info.value) == "state JSON field 'd' must be an integer, got 2.9"


def test_noise_spec():
    ns = NoiseSpec.white()
    assert np.allclose(ns.resolve(2, 2).matrix, white_noise(2, 2).matrix)
    ex = NoiseSpec.explicit(product_zero(2, 2))
    assert np.allclose(ex.resolve(2, 2).matrix, product_zero(2, 2).matrix)
    with pytest.raises(ValidationError):
        ex.resolve(2, 3)
    # the kind is read from the state: there is no second copy to disagree
    assert (ns.kind, ex.kind) == ("white", "explicit")


@pytest.mark.parametrize("build", [
    lambda: ghz(2, 3),
    lambda: dicke(3, 1),
    lambda: w_state(3),
    lambda: white_noise(2, 3),
    lambda: product_zero(2, 3),
    lambda: NoiseSpec.white().resolve(2, 3),
    lambda: from_vector(np.ones(8) / math.sqrt(8), 2, 3),
    lambda: DensityMatrix(d=2, n=3, matrix=np.eye(8) / 8),
], ids=["ghz", "dicke", "w_state", "white_noise", "product_zero", "noise_resolve", "from_vector",
        "constructor"])
def test_builders_obey_max_dim_env(monkeypatch, build):
    monkeypatch.setenv("BELLTOL_MAX_DIM", "4")
    with pytest.raises(ResourceCapError, match="exceeds cap 4"):
        build()


@pytest.mark.parametrize("build", [
    lambda: DensityMatrix(d=3, n=10**6, matrix=np.eye(2)),
    lambda: from_vector(np.ones(2), 3, 10**6),
], ids=["constructor", "from_vector"])
def test_every_state_is_capped_before_d_to_the_n(monkeypatch, build):
    # a shape check that forms d**n first refuses the shape at n = 10**6 and
    # does not finish at n = 10**9
    monkeypatch.delenv("BELLTOL_MAX_DIM", raising=False)
    with pytest.raises(ResourceCapError) as info:
        build()
    assert str(info.value) == "total dimension 3^1000000 exceeds cap 4096"


@pytest.mark.parametrize("build", [
    lambda: ghz(np.int64(2), 64),
    lambda: ghz(np.int64(3), 41),
    lambda: dicke(np.int64(64), 1),
    lambda: white_noise(np.int64(2), 64),
    lambda: product_zero(2, np.int64(64)),
], ids=["ghz-2-64", "ghz-3-41", "dicke", "white_noise", "product_zero"])
def test_builders_read_numpy_ints_as_python_ints(monkeypatch, build):
    # d**n in int64 wraps, to 0 at 2^64: the cap must see the true dimension
    monkeypatch.delenv("BELLTOL_MAX_DIM", raising=False)
    with pytest.raises(ResourceCapError, match="exceeds cap 4096"):
        build()


def test_builders_store_numpy_ints_as_python_ints():
    for state in (ghz(np.int64(2), np.int64(3)), white_noise(np.int16(2), np.uint8(3)),
                  dicke(np.int64(3), np.int64(1))):
        assert (type(state.d), type(state.n)) == (int, int)
    assert np.array_equal(ghz(np.int64(2), np.int64(3)).matrix, ghz(2, 3).matrix)


@pytest.mark.parametrize("build, name, value", [
    (lambda: ghz(2.0, 3), "d", 2.0),
    (lambda: ghz(2, 3.0), "n", 3.0),
    (lambda: dicke(4, 2.0), "k", 2.0),
    (lambda: w_state("3"), "n", "3"),
    (lambda: white_noise(2, 2.0), "n", 2.0),
    (lambda: product_zero(np.float64(2.0), 2), "d", np.float64(2.0)),
    (lambda: from_vector(np.ones(4) / 2, 2.0, 2), "d", 2.0),
], ids=["ghz-d", "ghz-n", "dicke-k", "w-n", "white-n", "product-d", "from_vector-d"])
def test_builders_refuse_non_integers_by_name(build, name, value):
    with pytest.raises(DomainError, match=re.escape(f"{name} must be an integer, got {value!r}")):
        build()


@pytest.mark.parametrize("excess, accepted", [(4e-11, True), (1.2e-10, False)])
def test_from_vector_norm_is_checked_once_within_trace_tol(excess, accepted):
    psi = np.array([1.0, 0.0, 0.0, 1.0]) * math.sqrt((1.0 + excess) / 2.0)
    if accepted:
        assert abs(purity(from_vector(psi, 2, 2)) - (1.0 + excess) ** 2) <= 1e-15
    else:
        with pytest.raises(ValidationError, match="trace"):
            from_vector(psi, 2, 2)


def test_from_vector_rejects_nan():
    with pytest.raises(ValidationError, match="non-finite"):
        from_vector(np.array([np.nan, 0.0, 0.0, 1.0]), 2, 2)


def test_from_vector_rejects_overflowing_psi():
    """Finite entries of 1e200 overflow in |psi><psi|; the norm check on psi
    rejects them before the outer product is formed."""
    with pytest.raises(ValidationError, match="trace"):
        from_vector(np.array([1e200, 0.0, 0.0, 1e200]), 2, 2)


def test_builders_never_call_the_eigensolver(monkeypatch, tmp_path):
    explicit = random_density(2, 3, np.random.default_rng(5))

    def forbidden(*args, **kwargs):
        raise AssertionError("a check of unproved states was called")

    monkeypatch.setattr(belltol.states, "min_eigenvalue", forbidden)
    # a proved state is not scanned entry by entry for finiteness either
    monkeypatch.setattr(belltol.states, "as_cmatrix", forbidden)
    white = white_noise(2, 3)
    for build in (
        lambda: ghz(2, 3),
        lambda: ghz(3, 2),
        lambda: dicke(4, 2),
        lambda: w_state(3),
        lambda: product_zero(2, 3),
        lambda: NoiseSpec.white().resolve(2, 3),
        lambda: mix(white, ghz(2, 3), 0.3),
        lambda: mix(explicit, ghz(2, 3), 0.3),
    ):
        build()
    monkeypatch.undo()

    calls = []
    real = belltol.states.min_eigenvalue

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(belltol.states, "min_eigenvalue", counted)
    DensityMatrix(2, 1, np.eye(2) / 2)
    assert len(calls) >= 1
    path = tmp_path / "state.json"
    white.save(str(path))
    calls.clear()
    DensityMatrix.load(str(path))
    assert len(calls) >= 1


def test_mix_of_states_is_a_state():
    rng = np.random.default_rng(11)
    pairs = [(random_density(2, 2, rng), random_density(2, 2, rng)),
             (random_density(3, 2, rng), ghz(3, 2)),
             (white_noise(2, 3), random_density(2, 3, rng))]
    for noise, signal in pairs:
        for beta in np.linspace(0.0, 1.0, 11):
            m = mix(noise, signal, beta).matrix
            assert np.linalg.eigvalsh(m).min() >= -PSD_TOL
            assert np.max(np.abs(m - m.conj().T)) <= HERM_TOL


def test_built_matrices_are_frozen_and_not_aliased():
    psi = np.zeros(4, dtype=complex)
    psi[0] = psi[3] = 1 / math.sqrt(2)
    state = from_vector(psi, 2, 2)
    before = state.matrix.copy()
    psi[0] = 1.0
    assert np.array_equal(state.matrix, before)
    for built in (state, white_noise(2, 2), mix(white_noise(2, 2), state, 0.4)):
        assert not built.matrix.flags.writeable


def _pure(d, n, support, amp):
    psi = np.zeros(d**n, dtype=np.complex128)
    psi[list(support)] = amp
    return np.outer(psi, psi.conj())


def _dicke_outer(n, k):
    support = [i for i in range(2**n) if i.bit_count() == k]
    return _pure(2, n, support, 1 / math.sqrt(math.comb(n, k)))


def _ghz_outer(d, n):
    return _pure(d, n, [j * (d**n - 1) // (d - 1) for j in range(d)], 1 / math.sqrt(d))


_RHO = random_density(2, 3, np.random.default_rng(7))


@pytest.mark.parametrize("build, expected", [
    (lambda: ghz(2, 10), lambda: _ghz_outer(2, 10)),
    (lambda: ghz(3, 6), lambda: _ghz_outer(3, 6)),
    (lambda: ghz(4, 4), lambda: _ghz_outer(4, 4)),
    (lambda: dicke(9, 4), lambda: _dicke_outer(9, 4)),
    (lambda: w_state(10), lambda: _dicke_outer(10, 1)),
    (lambda: product_zero(2, 10), lambda: _pure(2, 10, [0], 1.0)),
    (lambda: product_zero(3, 3), lambda: _pure(3, 3, [0], 1.0)),
    (lambda: white_noise(3, 4), lambda: np.eye(81, dtype=np.complex128) / 81),
    (lambda: mix(white_noise(2, 9), ghz(2, 9), 0.37),
     lambda: (1 - 0.37) * (np.eye(512, dtype=np.complex128) / 512) + 0.37 * _ghz_outer(2, 9)),
    (lambda: mix(_RHO, dicke(3, 2), 0.81),
     lambda: (1 - 0.81) * _RHO.matrix + 0.81 * _dicke_outer(3, 2)),
], ids=["ghz2", "ghz3", "ghz4", "dicke", "w_state", "product_zero2", "product_zero3",
        "white_noise", "mix_white", "mix_explicit"])
def test_builders_are_byte_identical_to_the_dense_formulas(build, expected):
    """Writing only the support rows, the diagonal, or one mixture array
    gives the bits of the dense formula, signed zeros included."""
    m = build().matrix
    want = expected()
    assert m.dtype == want.dtype and m.shape == want.shape
    assert m.tobytes() == want.tobytes()


def test_from_vector_with_complex_amplitudes_equals_the_outer_product():
    """Entries equal np.outer's; the bytes may not, since np.outer writes
    -0.0 into some zero rows where the built matrix keeps +0.0."""
    rng = np.random.default_rng(17)
    psi = rng.standard_normal(27) + 1j * rng.standard_normal(27)
    psi[[0, 4, 5, 13, 26]] = 0.0
    psi /= np.linalg.norm(psi)
    state = from_vector(psi, 3, 3)
    assert np.array_equal(state.matrix, np.outer(psi, psi.conj()))
    assert not state.matrix.flags.writeable


@pytest.mark.parametrize("build, support, amp", [
    (lambda: ghz(2, 12), [0, 4095], 1 / math.sqrt(2)),
    (lambda: w_state(12), [1 << k for k in range(12)], 1 / math.sqrt(12)),
    (lambda: product_zero(2, 12), [0], 1.0),
], ids=["ghz", "w_state", "product_zero"])
def test_cap_size_pure_states_build(build, support, amp):
    """Dimension 4096, the default cap. Only the support rows are read, so
    the untouched zero rows are never paged in."""
    state = build()
    m = state.matrix
    assert m.shape == (4096, 4096) and not m.flags.writeable
    assert abs(np.trace(m).real - 1.0) <= 1e-12
    rows = m[support]
    block = rows[:, support]
    assert np.array_equal(block, np.full(block.shape, amp * amp, dtype=np.complex128))
    rows[:, support] = 0.0
    assert not rows.any()
