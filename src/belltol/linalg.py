"""Dense complex linear algebra: Kronecker products, Hermitian eigensystems,
positivity checks and partial traces; the JSON form of matrices and the
``save``/``load`` pair of the package's JSON files.

All functions are pure and operate on immutable inputs; matrices are plain
``numpy`` complex arrays in row-major layout.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .errors import ResourceCapError, ValidationError

DEFAULT_MAX_DIM = 4096
MAX_DIM_ENV = "BELLTOL_MAX_DIM"

DEFAULT_HERM_TOL = 1e-10
DEFAULT_PSD_TOL = 1e-9


def resolve_max_dim() -> int:
    """Effective dimension cap: $BELLTOL_MAX_DIM, else 4096."""
    env = os.environ.get(MAX_DIM_ENV)
    if env is not None:
        try:
            value = int(env)
        except ValueError as exc:
            raise ValidationError(f"{MAX_DIM_ENV} must be an integer, got {env!r}") from exc
        if value < 1:
            raise ValidationError(f"{MAX_DIM_ENV} must be positive, got {value}")
        return value
    return DEFAULT_MAX_DIM


def as_cmatrix(a: np.ndarray | list, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D complex128 array and reject non-finite entries."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise ValidationError(f"{name} must be a 2-D matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValidationError(f"{name} contains non-finite entries")
    return m


def frozen(m: np.ndarray) -> np.ndarray:
    """Return a read-only view-safe copy, for storage in immutable containers."""
    out = np.array(m, dtype=np.complex128, order="C", copy=True)
    out.setflags(write=False)
    return out


def complex_to_json(m: np.ndarray) -> dict:
    """Row-major flat real and imaginary parts, the JSON form of a matrix."""
    return {"re": [float(x) for x in m.real.ravel()],
            "im": [float(x) for x in m.imag.ravel()]}


def complex_from_json(data: dict, dim: int, what: str) -> np.ndarray:
    """The dim x dim matrix written by ``complex_to_json``."""
    try:
        re = np.asarray(data["re"], dtype=float)
        im = np.asarray(data["im"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed {what} JSON: {exc}") from exc
    if re.shape != (dim * dim,) or im.shape != (dim * dim,):
        raise ValidationError(
            f"{what} JSON entry count {re.size}/{im.size} does not match dim {dim}"
        )
    return (re + 1j * im).reshape(dim, dim)


class JsonFile:
    """``save``/``load`` of a class's ``to_json_dict``/``from_json_dict`` as a
    UTF-8 JSON file."""

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh)

    @classmethod
    def load(cls, path: str):
        with open(path, encoding="utf-8") as fh:
            return cls.from_json_dict(json.load(fh))


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with standard row-major indexing.

    Raises ResourceCapError if the product dimension would exceed the cap
    (``resolve_max_dim``: $BELLTOL_MAX_DIM, else 4096).
    """
    a = as_cmatrix(a, "a")
    b = as_cmatrix(b, "b")
    cap = resolve_max_dim()
    rows, cols = a.shape[0] * b.shape[0], a.shape[1] * b.shape[1]
    if max(rows, cols) > cap:
        raise ResourceCapError(
            f"kron result is {rows}x{cols}, exceeding the dimension cap {cap}"
        )
    return np.kron(a, b)


def kron_all(ops: list[np.ndarray]) -> np.ndarray:
    """Left-to-right Kronecker product of a nonempty operator list."""
    if not ops:
        raise ValidationError("kron_all needs at least one operator")
    out = as_cmatrix(ops[0], "operator 0")
    for i, op in enumerate(ops[1:], start=1):
        out = kron(out, op)
    return out


def hermiticity_defect(h: np.ndarray) -> float:
    """Max-entry deviation of h from its conjugate transpose."""
    h = as_cmatrix(h, "h")
    if h.shape[0] != h.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {h.shape}")
    return float(np.max(np.abs(h - h.conj().T)))


def eig_hermitian(
    h: np.ndarray, tol: float = DEFAULT_HERM_TOL
) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(w, v)`` with eigenvalues ``w`` real and sorted in descending
    order and eigenvector columns ``v[:, k]`` matching ``w[k]``, so that
    ``h = v @ diag(w) @ v.conj().T``.

    Raises ValidationError when the max-entry deviation from Hermiticity
    exceeds ``tol``.
    """
    h = as_cmatrix(h, "h")
    defect = hermiticity_defect(h)
    if defect > tol:
        raise ValidationError(
            f"matrix is not Hermitian within {tol:g} (max deviation {defect:.3e})"
        )
    sym = (h + h.conj().T) / 2.0
    w, v = np.linalg.eigh(sym)
    # eigh returns ascending order; the exported convention is descending
    return w[::-1].copy(), v[:, ::-1].copy()


def is_psd(h: np.ndarray) -> bool:
    """True iff the smallest eigenvalue of h is >= -DEFAULT_PSD_TOL; h must be
    Hermitian within the same tolerance."""
    w, _ = eig_hermitian(h, tol=DEFAULT_PSD_TOL)
    return bool(w[-1] >= -DEFAULT_PSD_TOL)


def partial_trace(m: np.ndarray, dims: list[int], keep: list[int]) -> np.ndarray:
    """Partial trace over all sites not in ``keep``.

    ``dims`` lists the local dimension of each site, site 0 being the most
    significant factor of the row index. ``keep`` is a sorted list of site
    indices to retain.
    """
    m = as_cmatrix(m, "m")
    n = len(dims)
    total = int(np.prod(dims))
    if m.shape != (total, total):
        raise ValidationError(f"matrix shape {m.shape} does not match dims {dims}")
    keep = sorted(keep)
    if any(k < 0 or k >= n for k in keep) or not keep:
        raise ValidationError(f"keep={keep} invalid for {n} sites")
    t = m.reshape(tuple(dims) * 2)
    # contract bra/ket index pairs of traced-out sites, back to front so axis
    # numbers of untouched sites stay valid
    traced = t
    removed = 0
    for site in range(n - 1, -1, -1):
        if site in keep:
            continue
        live = n - removed
        traced = np.trace(traced, axis1=site, axis2=site + live)
        removed += 1
    kept_dim = int(np.prod([dims[k] for k in keep]))
    return traced.reshape(kept_dim, kept_dim)
