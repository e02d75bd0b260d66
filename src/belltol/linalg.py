"""Dense complex linear algebra: validated complex matrices and Hermitian
eigensystems, whose Hermiticity check is the one that states, measurement
effects and the seesaw's sign steps pass; the dimension cap of the state
builders; the JSON form of matrices and the ``save``/``load`` pair of the
package's JSON files.

All functions are pure and operate on immutable inputs; matrices are plain
``numpy`` complex arrays in row-major layout.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .errors import ValidationError

DEFAULT_MAX_DIM = 4096
MAX_DIM_ENV = "BELLTOL_MAX_DIM"

DEFAULT_HERM_TOL = 1e-10


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
    UTF-8 JSON file. ``load`` reports a document of the wrong shape (a missing
    key, or a list or number where ``from_json_dict`` reads another type) as
    a ValidationError."""

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh)

    @classmethod
    def load(cls, path: str):
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        try:
            return cls.from_json_dict(data)
        except (KeyError, TypeError, AttributeError) as exc:
            raise ValidationError(f"malformed {cls.__name__} JSON: {exc!r}") from exc


def eig_hermitian(
    h: np.ndarray, tol: float = DEFAULT_HERM_TOL
) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(w, v)`` with eigenvalues ``w`` real and sorted in descending
    order and eigenvector columns ``v[:, k]`` matching ``w[k]``, so that
    ``h = v @ diag(w) @ v.conj().T``.

    Raises ValidationError when h is not square, or when the max-entry
    deviation of h from its conjugate transpose exceeds ``tol``.
    """
    h = as_cmatrix(h, "h")
    if h.shape[0] != h.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {h.shape}")
    defect = float(np.max(np.abs(h - h.conj().T)))
    if defect > tol:
        raise ValidationError(
            f"matrix is not Hermitian within {tol:g} (max deviation {defect:.3e})"
        )
    sym = (h + h.conj().T) / 2.0
    w, v = np.linalg.eigh(sym)
    # eigh returns ascending order; the exported convention is descending
    return w[::-1].copy(), v[:, ::-1].copy()
