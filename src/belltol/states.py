"""Constructors and validators for multi-qudit density matrices and noisy mixtures.

Basis convention: site 0 is the most significant digit of the base-d
computational index, which fixes the Kronecker orientation everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ResourceCapError, ValidationError
from .linalg import (
    JsonFile,
    as_cmatrix,
    complex_from_json,
    complex_to_json,
    eig_hermitian,
    frozen,
    resolve_max_dim,
)

HERM_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_TOL = 1e-9


@dataclass(frozen=True)
class DensityMatrix(JsonFile):
    """Trace-one positive operator on (C^d)^{⊗n}.

    Validated on construction: Hermitian within 1e-10 (max entry), unit trace
    within 1e-10 and positive semidefinite within 1e-9.
    """

    d: int
    n: int
    matrix: np.ndarray

    def __post_init__(self) -> None:
        if self.d < 2:
            raise DomainError(f"site dimension must be >= 2, got {self.d}")
        if self.n < 1:
            raise DomainError(f"number of sites must be >= 1, got {self.n}")
        m = as_cmatrix(self.matrix, "density matrix")
        dim = self.d**self.n
        if m.shape != (dim, dim):
            raise ValidationError(
                f"density matrix shape {m.shape} does not match d={self.d}, n={self.n}"
            )
        w, _ = eig_hermitian(m, tol=HERM_TOL)
        tr = float(np.trace(m).real)
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValidationError(f"trace is {tr!r}, not 1 within {TRACE_TOL:g}")
        if w[-1] < -PSD_TOL:
            raise ValidationError(
                f"matrix is not PSD within {PSD_TOL:g} (min eigenvalue {w[-1]:.3e})"
            )
        object.__setattr__(self, "matrix", frozen(m))

    @property
    def dim(self) -> int:
        return self.d**self.n

    def purity(self) -> float:
        return float(np.trace(self.matrix @ self.matrix).real)

    def to_json_dict(self) -> dict:
        return {"d": self.d, "n": self.n, **complex_to_json(self.matrix)}

    @classmethod
    def from_json_dict(cls, data: dict) -> "DensityMatrix":
        d, n = int(data["d"]), int(data["n"])
        return cls(d=d, n=n, matrix=complex_from_json(data, d**n, "state"))


def _check_cap(d: int, n: int) -> int:
    dim = d**n
    cap = resolve_max_dim()
    if dim > cap:
        raise ResourceCapError(f"total dimension {d}^{n} = {dim} exceeds cap {cap}")
    return dim


def from_vector(psi: np.ndarray, d: int, n: int) -> DensityMatrix:
    """Rank-1 density matrix |psi><psi| from a normalized state vector."""
    v = np.asarray(psi, dtype=np.complex128).ravel()
    if v.size != d**n:
        raise ValidationError(f"vector length {v.size} does not match d={d}, n={n}")
    norm = float(np.linalg.norm(v))
    if abs(norm - 1.0) > 1e-9:
        raise ValidationError(f"state vector norm is {norm!r}, not 1")
    return DensityMatrix(d=d, n=n, matrix=np.outer(v, v.conj()))


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
    """Maximally mixed state I/d^n."""
    if d < 2 or n < 1:
        raise DomainError(f"need d >= 2 and n >= 1, got d={d}, n={n}")
    dim = _check_cap(d, n)
    return DensityMatrix(d=d, n=n, matrix=np.eye(dim, dtype=np.complex128) / dim)


def product_zero(d: int, n: int) -> DensityMatrix:
    """|0...0><0...0|, a fully product (hence Bell-local) reference state."""
    if d < 2 or n < 1:
        raise DomainError(f"need d >= 2 and n >= 1, got d={d}, n={n}")
    dim = _check_cap(d, n)
    psi = np.zeros(dim, dtype=np.complex128)
    psi[0] = 1.0
    return from_vector(psi, d, n)


def mix(noise: DensityMatrix, signal: DensityMatrix, beta: float) -> DensityMatrix:
    """Convex mixture (1-beta)*noise + beta*signal."""
    if not 0.0 <= beta <= 1.0:
        raise DomainError(f"beta must lie in [0, 1], got {beta}")
    if (noise.d, noise.n) != (signal.d, signal.n):
        raise ValidationError(
            f"shape mismatch: noise is (d={noise.d}, n={noise.n}), "
            f"signal is (d={signal.d}, n={signal.n})"
        )
    m = (1.0 - beta) * noise.matrix + beta * signal.matrix
    return DensityMatrix(d=signal.d, n=signal.n, matrix=m)


@dataclass(frozen=True)
class NoiseSpec:
    """Noise model for mixtures: white noise or an explicit caller-supplied state.

    The library does not (and cannot, in general) verify that an explicit
    noise state is Bell-local; visibility results against explicit noise are
    conditional on that locality.
    """

    kind: str
    explicit_state: DensityMatrix | None = field(default=None)

    def __post_init__(self) -> None:
        if self.kind not in ("white", "explicit"):
            raise DomainError(f"noise kind must be 'white' or 'explicit', got {self.kind!r}")
        if self.kind == "explicit" and self.explicit_state is None:
            raise ValidationError("explicit noise requires an explicit_state")
        if self.kind == "white" and self.explicit_state is not None:
            raise ValidationError("white noise must not carry an explicit_state")

    @classmethod
    def white(cls) -> "NoiseSpec":
        return cls(kind="white")

    @classmethod
    def explicit(cls, state: DensityMatrix) -> "NoiseSpec":
        return cls(kind="explicit", explicit_state=state)

    def resolve(self, d: int, n: int) -> DensityMatrix:
        """Concrete noise state for a (d, n) signal."""
        if self.kind == "white":
            return white_noise(d, n)
        assert self.explicit_state is not None
        if (self.explicit_state.d, self.explicit_state.n) != (d, n):
            raise ValidationError(
                f"explicit noise is (d={self.explicit_state.d}, n={self.explicit_state.n}), "
                f"signal needs (d={d}, n={n})"
            )
        return self.explicit_state
