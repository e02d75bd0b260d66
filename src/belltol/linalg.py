"""Dense complex linear algebra: validated complex matrices; Hermitian
eigensystems and smallest eigenvalues behind one Hermiticity check, the one
that states given without a proof, measurement effects and the seesaw's
sign steps pass; the dimension cap of the state builders; the JSON form of
matrices and the ``save``/``load`` pair of the package's JSON files.

All functions are pure and operate on immutable inputs; matrices are plain
``numpy`` complex arrays in row-major layout.
"""

from __future__ import annotations

import json
import operator
import os

import numpy as np

from .errors import BelltolError, ValidationError

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
    if not np.isfinite(m).all():
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


def int_from_json(data: dict, key: str, what: str) -> int:
    """``data[key]`` as an int; a float (2.9, 2.0 too) or a string raises
    ValidationError naming the field, where ``int`` would truncate it."""
    try:
        return operator.index(data[key])
    except TypeError:
        raise ValidationError(
            f"{what} JSON field {key!r} must be an integer, got {data[key]!r}") from None


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
    UTF-8 JSON file. ``load`` reports a file that is not UTF-8 JSON, or a
    document of the wrong shape (a missing key, a list or number where
    ``from_json_dict`` reads another type, or a value that it cannot
    convert, such as a string where it reads numbers), as a ValidationError
    naming the class; the package's own errors from ``from_json_dict`` pass
    through as they are, and so does numpy's LinAlgError, a ValueError that
    is a numerical failure and not a malformed file."""

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh)

    @classmethod
    def load(cls, path: str):
        with open(path, encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
                raise ValidationError(f"malformed {cls.__name__} JSON: {exc}") from exc
        try:
            return cls.from_json_dict(data)
        except (BelltolError, np.linalg.LinAlgError):
            raise
        except (KeyError, TypeError, AttributeError, ValueError) as exc:
            raise ValidationError(f"malformed {cls.__name__} JSON: {exc!r}") from exc


def _hermitian_part(h: np.ndarray, tol: float) -> np.ndarray:
    """(h + h^dagger)/2 for a square matrix or stack h whose entries are
    finite and whose max-entry deviation from h^dagger, over the whole stack,
    is within ``tol``; ValidationError otherwise.

    The finiteness scan runs before h - h^dagger and cannot be folded into
    the deviation check: inf - inf there raises a RuntimeWarning, which the
    tests turn into an error. A cheaper finiteness check must also come
    first."""
    h = np.asarray(h, dtype=np.complex128)
    if h.ndim < 2 or h.shape[-1] != h.shape[-2] or h.shape[-1] < 1:
        raise ValidationError(f"expected a square matrix, got shape {h.shape}")
    if not np.isfinite(h).all():
        raise ValidationError("h contains non-finite entries")
    # in C order, so that for a C-order h, such as the seesaw's local
    # operators, the difference and the sum below run on matching strides
    h_dagger = np.conjugate(h.swapaxes(-1, -2), order="C")
    defect = float(np.abs(h - h_dagger).max())
    if defect > tol:
        raise ValidationError(
            f"matrix is not Hermitian within {tol:g} (max deviation {defect:.3e})"
        )
    return (h + h_dagger) / 2.0


def eig_hermitian(
    h: np.ndarray, tol: float = DEFAULT_HERM_TOL
) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, or of each matrix of a stack
    of shape (..., d, d).

    Returns ``(w, v)`` with eigenvalues ``w`` real and sorted in descending
    order along the last axis and eigenvector columns ``v[..., :, k]``
    matching ``w[..., k]``, so that ``h = v @ diag(w) @ v.conj().T`` for each
    matrix. A stack costs one LAPACK call per matrix, and each matrix gets
    the bits it would get alone. ``w`` and ``v`` are reversed views of
    ``np.linalg.eigh``'s fresh arrays, not copies.

    Raises ValidationError when h is not square, or when the max-entry
    deviation of h from its conjugate transpose, over the whole stack,
    exceeds ``tol``.
    """
    w, v = np.linalg.eigh(_hermitian_part(h, tol))
    # eigh returns ascending order; the exported convention is descending
    return w[..., ::-1], v[..., ::-1]


def min_eigenvalue(h: np.ndarray, tol: float = DEFAULT_HERM_TOL) -> float:
    """Smallest eigenvalue of a Hermitian matrix, after ``eig_hermitian``'s
    checks and with its error texts, from the eigenvalues alone
    (``np.linalg.eigvalsh``): the positivity check of a validator needs no
    eigenvectors."""
    return float(np.linalg.eigvalsh(_hermitian_part(h, tol))[0])
