"""Constructors and validators for multi-qudit density matrices and noisy mixtures.

Basis convention: site 0 is the most significant digit of the base-d
computational index, which fixes the Kronecker orientation everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ResourceCapError, ValidationError
from .linalg import (
    JsonFile,
    as_cmatrix,
    complex_from_json,
    complex_to_json,
    frozen,
    int_from_json,
    min_eigenvalue,
    resolve_max_dim,
)

HERM_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_TOL = 1e-9


def _check_sites(d: int, n: int) -> None:
    if d < 2:
        raise DomainError(f"site dimension must be >= 2, got {d}")
    if n < 1:
        raise DomainError(f"number of sites must be >= 1, got {n}")


def _check_trace(tr: float) -> None:
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValidationError(f"trace is {tr!r}, not 1 within {TRACE_TOL:g}")


def _check_matrix(d: int, n: int, m: np.ndarray) -> None:
    """Shape (d^n, d^n) and unit trace within TRACE_TOL, the checks every
    state passes after d >= 2 and n >= 1, proved or not."""
    dim = d**n
    if m.shape != (dim, dim):
        raise ValidationError(f"density matrix shape {m.shape} does not match d={d}, n={n}")
    _check_trace(float(np.trace(m).real))


@dataclass(frozen=True)
class DensityMatrix(JsonFile):
    """Trace-one positive operator on (C^d)^{⊗n}.

    Hermitian within 1e-10 (max entry), unit trace within 1e-10 and positive
    semidefinite within 1e-9. A matrix given to the constructor or read by
    ``load`` carries no proof, so the constructor checks that it is finite
    and all three, the last two with the eigensolver. The builders
    (``from_vector``, ``white_noise``, ``mix`` and those built on them) prove
    finiteness, Hermiticity and positivity by how they build the matrix, and
    check only shape and trace.
    """

    d: int
    n: int
    matrix: np.ndarray

    def __post_init__(self) -> None:
        _check_sites(self.d, self.n)
        m = as_cmatrix(self.matrix, "density matrix")
        _check_matrix(self.d, self.n, m)
        low = min_eigenvalue(m, tol=HERM_TOL)
        if low < -PSD_TOL:
            raise ValidationError(
                f"matrix is not PSD within {PSD_TOL:g} (min eigenvalue {low:.3e})"
            )
        object.__setattr__(self, "matrix", frozen(m))

    @classmethod
    def _proved(cls, d: int, n: int, matrix: np.ndarray) -> "DensityMatrix":
        """A state whose builder has proved it finite, Hermitian and PSD, with
        d >= 2 and n >= 1 established: only shape and trace are checked, in
        O(d^n), and no entry is scanned. ``matrix`` must be a fresh complex128
        array that no caller holds, since it is frozen in place, not copied."""
        _check_matrix(d, n, matrix)
        matrix.setflags(write=False)
        state = object.__new__(cls)
        object.__setattr__(state, "d", d)
        object.__setattr__(state, "n", n)
        object.__setattr__(state, "matrix", matrix)
        return state

    @property
    def dim(self) -> int:
        return self.d**self.n

    def to_json_dict(self) -> dict:
        return {"d": self.d, "n": self.n, **complex_to_json(self.matrix)}

    @classmethod
    def from_json_dict(cls, data: dict) -> "DensityMatrix":
        d, n = int_from_json(data, "d", "state"), int_from_json(data, "n", "state")
        return cls(d=d, n=n, matrix=complex_from_json(data, d**n, "state"))


def _check_cap(d: int, n: int) -> int:
    dim = d**n
    cap = resolve_max_dim()
    if dim > cap:
        raise ResourceCapError(f"total dimension {d}^{n} = {dim} exceeds cap {cap}")
    return dim


def from_vector(psi: np.ndarray, d: int, n: int) -> DensityMatrix:
    """Rank-1 density matrix |psi><psi| from a normalized state vector.

    psi is checked for finiteness and for ||psi||^2 = 1 within TRACE_TOL
    before anything is built, in O(d^n). Proof: the outer product is
    Hermitian exactly, and its one nonzero eigenvalue is ||psi||^2, its
    trace, so it is PSD; and since ||psi|| is about 1, no |psi_i psi_j|
    exceeds about 1, so no entry overflows and the matrix is finite.

    Only the rows where psi is nonzero are written; the others keep the
    zeros of ``np.zeros`` and are never touched. So the entries
    equal those of ``np.outer(psi, psi.conj())``, and for a psi with
    nonnegative real amplitudes the bytes do too; elsewhere a zero row of the
    outer product may hold -0.0 where this one holds +0.0.
    """
    v = np.asarray(psi, dtype=np.complex128).ravel()
    if v.size != d**n:
        raise ValidationError(f"vector length {v.size} does not match d={d}, n={n}")
    _check_sites(d, n)
    if not np.isfinite(v).all():
        raise ValidationError("density matrix contains non-finite entries")
    _check_trace(float(np.vdot(v, v).real))
    support = np.flatnonzero(v)
    m = np.zeros((v.size, v.size), dtype=np.complex128)
    m[support] = np.outer(v[support], v.conj())
    return DensityMatrix._proved(d, n, m)


def ghz(d: int, n: int) -> DensityMatrix:
    """Maximally correlated n-qudit state (1/sqrt(d)) sum_j |j...j>."""
    if d < 2:
        raise DomainError(f"d must be >= 2, got {d}")
    if n < 2:
        raise DomainError(f"n must be >= 2, got {n}")
    dim = _check_cap(d, n)
    psi = np.zeros(dim, dtype=np.complex128)
    # |j...j> has index j * (d^{n-1} + ... + 1)
    stride = (dim - 1) // (d - 1)
    psi[np.arange(d) * stride] = 1.0 / math.sqrt(d)
    return from_vector(psi, d, n)


def dicke(n: int, k: int) -> DensityMatrix:
    """Symmetrized n-qubit state with k excitations; k=1 is the W state."""
    if n < 2:
        raise DomainError(f"n must be >= 2, got {n}")
    if not 1 <= k <= n - 1:
        raise DomainError(f"k must be in 1..{n - 1}, got {k}")
    dim = _check_cap(2, n)
    psi = np.zeros(dim, dtype=np.complex128)
    amp = 1.0 / math.sqrt(math.comb(n, k))
    for idx in range(dim):
        if idx.bit_count() == k:
            psi[idx] = amp
    return from_vector(psi, 2, n)


def w_state(n: int) -> DensityMatrix:
    return dicke(n, 1)


def white_noise(d: int, n: int) -> DensityMatrix:
    """Maximally mixed state I/d^n, diagonal with positive entries: finite,
    Hermitian and PSD by construction. Only the diagonal is written."""
    _check_sites(d, n)
    dim = _check_cap(d, n)
    m = np.zeros((dim, dim), dtype=np.complex128)
    np.fill_diagonal(m, 1.0 / dim)
    return DensityMatrix._proved(d, n, m)


def product_zero(d: int, n: int) -> DensityMatrix:
    """|0...0><0...0|, a fully product (hence Bell-local) reference state."""
    _check_sites(d, n)
    dim = _check_cap(d, n)
    psi = np.zeros(dim, dtype=np.complex128)
    psi[0] = 1.0
    return from_vector(psi, d, n)


def mix(noise: DensityMatrix, signal: DensityMatrix, beta: float) -> DensityMatrix:
    """Convex mixture (1-beta)*noise + beta*signal.

    Proof: both operands are validated states and beta lies in [0, 1], so the
    mixture's Hermiticity defect is at most HERM_TOL (it is a convex
    combination of the operands' defects) and, by Weyl's inequality
    lambda_min(A + B) >= lambda_min(A) + lambda_min(B) on the Hermitian
    parts, its least eigenvalue is at least -PSD_TOL; both up to round-off.
    Each entry is a convex combination of two finite entries, so it is
    finite. The result is written into one array, whose bytes equal those of
    ``(1 - beta) * noise.matrix + beta * signal.matrix``.
    """
    if not 0.0 <= beta <= 1.0:
        raise DomainError(f"beta must lie in [0, 1], got {beta}")
    if (noise.d, noise.n) != (signal.d, signal.n):
        raise ValidationError(
            f"shape mismatch: noise is (d={noise.d}, n={noise.n}), "
            f"signal is (d={signal.d}, n={signal.n})"
        )
    m = beta * signal.matrix
    m += (1.0 - beta) * noise.matrix
    return DensityMatrix._proved(signal.d, signal.n, m)


@dataclass(frozen=True)
class NoiseSpec:
    """Noise model for mixtures: white noise, or an explicit caller-supplied
    state when ``explicit_state`` is set; ``kind`` names which.

    The library does not (and cannot, in general) verify that an explicit
    noise state is Bell-local; visibility results against explicit noise are
    conditional on that locality.
    """

    explicit_state: DensityMatrix | None = None

    @property
    def kind(self) -> str:
        return "white" if self.explicit_state is None else "explicit"

    @classmethod
    def white(cls) -> "NoiseSpec":
        return cls()

    @classmethod
    def explicit(cls, state: DensityMatrix) -> "NoiseSpec":
        return cls(state)

    def resolve(self, d: int, n: int) -> DensityMatrix:
        """Concrete noise state for a (d, n) signal."""
        if self.explicit_state is None:
            return white_noise(d, n)
        if (self.explicit_state.d, self.explicit_state.n) != (d, n):
            raise ValidationError(
                f"explicit noise is (d={self.explicit_state.d}, n={self.explicit_state.n}), "
                f"signal needs (d={d}, n={n})"
            )
        return self.explicit_state
