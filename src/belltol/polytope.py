"""Critical visibilities for fixed measurements and membership of behaviors in
the local polytope (vertex representation), from one LP whose dual is the
checked nonlocality certificate (convex separation, arXiv:1609.05011).

Ships a self-contained dual simplex with deterministic pivoting, so results
are reproducible bit-for-bit on a given platform and BLAS thread count. It
starts from a dual feasible basis that the LP carries, so there is no phase 1:
the visibility LP has one for every behavior, the staircase strategies and
beta at beta = 1 (Lemke's dual method, Naval Res. Logist. Q. 1, 36 (1954));
``simplex_max`` states its pivoting rules.

The LP's frame, what it reads of a scenario and not of the behavior, is built
once per scenario: the vertex matrix D, the rows of D that the LP keeps and
its start basis, the staircase strategies and beta (both from
``_lp_start``), and the uniform behavior's vector, all read-only. One frame
is held, the last scenario's, keyed by the ``Scenario`` value; it is
released before a different scenario's frame is built, so at most one dense
D is held between calls.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ResourceCapError, SolverError, ValidationError
from .qvalue import MeasurementAssignment, behavior
from .scenario import (
    Behavior,
    BellFunctional,
    Scenario,
    _site_sum,
    canonical_rows,
    strategy_count,
    uniform_behavior,
)
from .states import DensityMatrix, NoiseSpec

DEFAULT_LP_TOL = 1e-9
DEFAULT_VERTEX_CAP = 100_000
# A convex-weight certificate must have every weight >= -WEIGHT_NEG_TOL, sum
# to 1 within WEIGHT_SUM_TOL and rebuild its target within REBUILD_TOL.
WEIGHT_NEG_TOL = 1e-9
WEIGHT_SUM_TOL = 1e-8
REBUILD_TOL = 1e-7
REFACTOR_EVERY = 64
# a solve of an m x n LP takes at most PIVOT_LIMIT_PER_DIM * (m + n) pivots
PIVOT_LIMIT_PER_DIM = 10

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class LinearProgram:
    """maximize c @ x  subject to  A_eq @ x = b_eq,  x >= 0, from the start
    basis ``basis``: one column index per row. ``simplex_max`` raises
    SolverError unless those columns are nonsingular and dual feasible, no
    reduced cost c - y @ A_eq with y = c_B @ B^-1 above DEFAULT_LP_TOL."""

    c: np.ndarray
    a_eq: np.ndarray
    b_eq: np.ndarray
    basis: np.ndarray

    def __post_init__(self) -> None:
        c = np.asarray(self.c, dtype=float)
        a = np.asarray(self.a_eq, dtype=float)
        b = np.asarray(self.b_eq, dtype=float)
        basis = np.asarray(self.basis)
        if a.ndim != 2 or c.ndim != 1 or b.ndim != 1:
            raise ValidationError("LP needs a matrix A_eq and vectors c, b_eq")
        if a.shape != (b.size, c.size):
            raise ValidationError(
                f"inconsistent LP shapes: A is {a.shape}, c has {c.size}, b has {b.size}"
            )
        for name, arr in (("c", c), ("A_eq", a), ("b_eq", b)):
            if not np.isfinite(arr).all():
                raise ValidationError(f"{name} has non-finite entries")
        if (basis.shape != (b.size,) or not np.issubdtype(basis.dtype, np.integer)
                or len(set(basis.tolist())) != b.size
                or not np.all((basis >= 0) & (basis < c.size))):
            raise ValidationError(f"the start basis needs {b.size} distinct column indices")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "a_eq", a)
        object.__setattr__(self, "b_eq", b)
        object.__setattr__(self, "basis", basis.astype(np.intp))


@dataclass(frozen=True)
class SimplexResult:
    status: str
    objective: float | None = None
    x: np.ndarray | None = None
    # optimal dual y: y @ A_eq >= c and y @ b_eq = objective
    dual: np.ndarray | None = None
    pivots: int = 0


def _refactor(
    lp: LinearProgram, basis: np.ndarray, pivots: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read the basis afresh from the LP: B^-1 = inv(A_B), the basic values
    x_b = B^-1 b and the reduced costs c - (c_B B^-1) A, 0 on the basis."""
    try:
        b_inv = np.linalg.inv(lp.a_eq[:, basis])
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"the basis is singular after {pivots} pivots") from exc
    x_b = b_inv @ lp.b_eq
    reduced = lp.c - (lp.c[basis] @ b_inv) @ lp.a_eq
    reduced[basis] = 0.0
    return b_inv, x_b, reduced


@functools.lru_cache(maxsize=8)
def _column_keys(n: int) -> np.ndarray:
    """Fixed pseudo-random 62-bit keys of n LP columns, read-only; a basis's
    cycle key is the XOR of its columns' keys, whatever their order."""
    keys = np.random.default_rng(0).integers(1 << 62, size=n)
    keys.setflags(write=False)
    return keys


def simplex_max(lp: LinearProgram) -> SimplexResult:
    """Dual simplex from the LP's start basis, which must be nonsingular and
    dual feasible; every pivot keeps it dual feasible, and the loop ends when
    x_b >= -DEFAULT_LP_TOL (optimal).

    The most negative basic variable leaves. The entering column is the one
    of smallest ratio reduced / alpha over the leaving row's alpha < 0 (the
    pivot taken relative to the row's scale), ties going to the largest
    |alpha|. A pivot costs one row product alpha = B^-1[row] @ A, one column
    product u = B^-1 @ A[:, col] and one rank-1 update of B^-1; x_b and the
    reduced costs take vector updates. All three are refactored, read afresh
    from the LP with B^-1 = inv(A_B), at the start and every REFACTOR_EVERY
    = 64 pivots. A basis is keyed by the XOR of fixed pseudo-random 62-bit
    keys of its columns (``_column_keys``), which two XORs update on each
    pivot and which, like a set, ignores the order of the rows; its hash is
    read once per pivot. If a key repeats, which is cycling, Bland's rule
    takes over until the objective falls: the lowest-index infeasible basic
    variable leaves and the lowest-index tied column enters. A leaving row
    with no entering column proves the LP infeasible. A start that is
    singular or not dual feasible raises SolverError, and so do a singular
    basis later and a solve that reaches PIVOT_LIMIT_PER_DIM * (m + n) pivots.
    """
    a, basis, pivots = lp.a_eq, lp.basis.copy(), 0
    max_pivots = PIVOT_LIMIT_PER_DIM * sum(a.shape)
    b_inv, x_b, reduced = _refactor(lp, basis, pivots)
    worst = float(reduced.max())
    if worst > DEFAULT_LP_TOL:
        raise SolverError(f"the start basis is not dual feasible: a reduced cost is {worst!r}")
    keys = _column_keys(lp.c.size)
    basis_key = int(np.bitwise_xor.reduce(keys[basis]))
    seen: set[int] = set()
    bland = False
    while True:
        row = int(x_b.argmin())
        if not x_b[row] < -DEFAULT_LP_TOL:
            break
        if pivots >= max_pivots:
            raise SolverError(f"the simplex reached its limit of {max_pivots} pivots")
        key = hash(basis_key)
        bland = bland or key in seen
        seen.add(key)
        if bland:  # the lowest basic index over x_b < -tol; lp.c.size exceeds them all
            row = int(np.where(x_b < -DEFAULT_LP_TOL, basis, lp.c.size).argmin())
        alpha = b_inv[row] @ a
        # pivots are relative to the row's scale: on an ill-conditioned basis
        # a round-off entry above the tolerance would leave a singular basis
        piv_tol = DEFAULT_LP_TOL * max(1.0, float(abs(alpha).max()))
        entering = alpha < -piv_tol
        entering[basis] = False
        cols = entering.nonzero()[0]
        if cols.size == 0:
            return SimplexResult(status=INFEASIBLE, pivots=pivots)
        alpha_in = alpha[cols]
        ratios = np.minimum(reduced[cols], 0.0) / alpha_in
        tied = ratios <= ratios[ratios.argmin()] + 1e-15 * (cols.size + 1)
        col = int(cols[tied][0 if bland else alpha_in[tied].argmin()])
        step = min(float(reduced[col]), 0.0) / alpha[col]
        bland = bland and step <= 0.0
        # column col enters the basis at row
        reduced -= step * alpha
        u = b_inv @ a[:, col]
        piv = float(u[row])
        if not piv < 0.0:
            raise SolverError(f"the pivot's row and column disagree after {pivots} pivots")
        basis_key ^= int(keys[basis[row]] ^ keys[col])
        basis[row] = col
        reduced[basis] = 0.0
        # product-form update: premultiply by the eta matrix sending u to e_row
        eta = u / -piv
        eta[row] = 1.0 / piv - 1.0
        b_inv += eta[:, None] * b_inv[row]
        x_b += eta * x_b[row]
        pivots += 1
        if pivots % REFACTOR_EVERY == 0:
            b_inv, x_b, reduced = _refactor(lp, basis, pivots)
    x = np.zeros(lp.c.size)
    x[basis] = np.maximum(x_b, 0.0)
    dual = lp.c[basis] @ b_inv
    return SimplexResult(status=OPTIMAL, objective=float(lp.c @ x), x=x, dual=dual,
                         pivots=pivots)


# --- local polytope ----------------------------------------------------------


def vertex_matrix(sc: Scenario) -> np.ndarray:
    """Deterministic behaviors as columns, rows in canonical order: the
    Kronecker product of per-site 0/1 (slot, local strategy) matrices, each
    the site sum of the site's unit functionals, which marks the slots each
    local strategy reads. It is taken in booleans, which move an eighth of
    the bytes of float64."""
    count = strategy_count(sc)
    if count > DEFAULT_VERTEX_CAP:
        raise ResourceCapError(
            f"{count} deterministic behaviors exceed the LP vertex cap {DEFAULT_VERTEX_CAP}"
        )
    d = np.ones((1, 1), dtype=bool)
    sites = {}  # one block per distinct list of outcome counts
    for party in sc.outcomes:
        sizes = tuple(map(len, party))
        if sizes not in sites:
            terms = _site_sum([np.eye(sum(sizes), dtype=bool)[None]], sizes, list(map(range, sizes)))
            # transposed to column-major: the broadcast & below runs about twice as fast over it
            sites[sizes] = sum(terms[1:], start=terms[0]).T
        site = sites[sizes]
        d = (d[:, None, :, None] & site[:, None]).reshape(d.shape[0] * site.shape[0], -1)
    dims = [sum(map(len, party)) for party in sc.outcomes]
    return canonical_rows(sc, d.reshape(dims + [count])).astype(float)


def _check_weights(d: np.ndarray, weights: np.ndarray, target: np.ndarray) -> None:
    """Raise SolverError unless the LP's weights are a convex combination of
    the vertex columns that rebuilds the target behavior."""
    low = float(weights.min())
    total = float(weights.sum())
    residual = float(np.max(np.abs(d @ weights - target)))
    if low < -WEIGHT_NEG_TOL or abs(total - 1.0) > WEIGHT_SUM_TOL or residual > REBUILD_TOL:
        raise SolverError(
            f"simplex weights are no local certificate: min {low:.3e}, "
            f"sum {total!r}, rebuild residual {residual:.3e}"
        )


def _check_farkas(d: np.ndarray, farkas: np.ndarray, target: np.ndarray) -> None:
    """Raise SolverError unless F[:-1] @ v <= t + DEFAULT_LP_TOL, t = -F[-1], on
    every vertex column v and F[:-1] @ target exceeds both."""
    f, bound = farkas[:-1], -float(farkas[-1])
    sup = float(np.max(f @ d))
    value = float(f @ target)
    if sup > bound + DEFAULT_LP_TOL or not value > max(sup, bound):
        raise SolverError(
            f"simplex dual is no nonlocality certificate: vertex max {sup!r}, "
            f"bound {bound!r}, target value {value!r}"
        )


def _lp_start(sc: Scenario) -> tuple[np.ndarray, np.ndarray]:
    """The visibility LP's start, as Kronecker products of per-site parts
    built in one pass: the mask of canonical rows it keeps, and the columns
    of ``vertex_matrix`` (strategy indices) of its start basis.

    Each site keeps every outcome of setting 0 and all but the last of its
    other settings, as row(s, last) = sum_a row(0, a) - sum_{a < last} row(s,
    a): a basis of the vertex matrix's row space, prod_p (1 + sum_s (m_ps -
    1)) rows, whose rows of joint setting (0, ..., 0) sum to the weight. Its
    staircase strategies are all outcomes 0, then setting 0 stepping through
    its other outcomes, then setting 1, and so on, with every other setting
    at outcome 0: as many as its kept rows, and D[keep] on these columns is
    triangular per site up to a row order, so |det| = 1."""
    keep, cols = np.ones((), dtype=bool), np.zeros(1, dtype=np.intp)
    for party in sc.outcomes:
        sizes = [len(values) for values in party]
        site = [np.arange(m) < m - (s > 0) for s, m in enumerate(sizes)]
        keep = np.multiply.outer(keep, np.concatenate(site))
        stair = [0] + [a * math.prod(sizes[s + 1:])
                       for s, m in enumerate(sizes) for a in range(1, m)]
        cols = (cols[:, None] * math.prod(sizes) + np.array(stair)).ravel()
    return canonical_rows(sc, keep), cols


@dataclass(frozen=True)
class _LpFrame:
    """What the visibility LP reads of a scenario, all read-only: the vertex
    matrix, its kept rows and the start basis (``_lp_start``'s staircase
    strategies, then beta), and the uniform behavior's vector."""

    d: np.ndarray
    keep: np.ndarray
    start: np.ndarray
    uniform: np.ndarray


# the last scenario's frame alone, keyed by the Scenario value
_FRAME: dict[Scenario, _LpFrame] = {}


def _lp_frame(sc: Scenario) -> _LpFrame:
    """The scenario's LP frame. For a scenario other than the last one's, the
    last frame is released first, then the new one is built through
    ``vertex_matrix``, ``_lp_start`` and ``uniform_behavior``, so their
    checks run once per frame."""
    frame = _FRAME.get(sc)
    if frame is None:
        _FRAME.clear()
        d = vertex_matrix(sc)
        keep, cols = _lp_start(sc)
        frame = _LpFrame(d=d, keep=keep, start=np.append(cols, d.shape[1]),
                         uniform=uniform_behavior(sc).vector())
        for arr in vars(frame).values():
            arr.setflags(write=False)
        _FRAME[sc] = frame
    return frame


def _membership(
    sc: Scenario, base: np.ndarray, delta: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray | None]:
    """The visibility LP: max beta s.t. D @ w - beta * delta = base on the
    kept rows of D (``_lp_start``), which also fix sum(w) = 1, w >= 0, 0 <=
    beta <= 1, for a local base. Returns beta, the weights and, when beta < 1 - DEFAULT_LP_TOL,
    the Farkas vector F of the dual y in canonical rows, F[:-1][keep] = -y[:k] and
    F[-1] = 0: F[:-1] @ v <= 0 on every vertex, F[:-1] @ delta >= 1 and
    F[:-1] @ base = -beta, so F[:-1] separates base + b * delta from the local
    polytope for every b in (beta, 1].

    The start basis is the staircase strategies and beta, at beta = 1. Its
    dual is y = e_k, the beta <= 1 row, so every weight and beta have reduced
    cost 0 and the slack -1: dual feasible for any base and delta. An LP that
    is infeasible, which means a nonlocal base, raises DomainError. D, the
    basis rows and the start basis are read from the scenario's LP frame
    (``_lp_frame``): one frame is held, the last scenario's, and it is
    released before another scenario's frame is built."""
    frame = _lp_frame(sc)
    d, keep = frame.d, frame.keep
    rows, count = d.shape
    k = int(keep.sum())
    # columns: weights, beta, slack of beta <= 1
    a = np.zeros((k + 1, count + 2))
    a[:k, :count] = d[keep]
    a[:k, count] = -delta[keep]
    a[k, count:] = 1.0
    b_eq = np.append(base[keep], 1.0)
    c = np.zeros(count + 2)
    c[count] = 1.0

    res = simplex_max(LinearProgram(c=c, a_eq=a, b_eq=b_eq, basis=frame.start))
    if res.status != OPTIMAL:
        raise DomainError(
            f"visibility LP ended with status {res.status!r}; at beta = 0 this "
            "means the noise behavior itself is outside the local polytope "
            "(an explicit noise state must be Bell-local)"
        )
    beta = float(res.x[count])
    weights = res.x[:count]
    _check_weights(d, weights, base + beta * delta)
    if beta >= 1.0 - DEFAULT_LP_TOL:
        return beta, weights, None
    farkas = np.zeros(rows + 1)
    farkas[:rows][keep] = -res.dual[:k]
    _check_farkas(d, farkas, base + delta)
    return beta, weights, farkas


@dataclass(frozen=True)
class LocalityResult:
    weights: np.ndarray | None = None
    farkas: np.ndarray | None = None

    @property
    def is_local(self) -> bool:
        return self.farkas is None


def is_local(b: Behavior) -> LocalityResult:
    """Decide membership of a behavior in the local polytope by the visibility
    LP from the uniform behavior, which is local, towards b: b is local iff
    beta* >= 1 - DEFAULT_LP_TOL. Returns weights over deterministic behaviors
    when local, and the LP's Farkas (separating) vector otherwise. The
    uniform behavior's vector is read from the scenario's LP frame, so it is
    built and checked once per frame."""
    base = _lp_frame(b.scenario).uniform
    _, weights, farkas = _membership(b.scenario, base, b.vector() - base)
    if farkas is None:
        return LocalityResult(weights=weights)
    return LocalityResult(farkas=farkas)


def separating_functional(sc: Scenario, farkas: np.ndarray) -> BellFunctional:
    """Bell functional built from a Farkas vector: its value on the rejected
    behavior exceeds its LHV supremum, which is -farkas[-1]."""
    slots = np.empty([sum(map(len, party)) for party in sc.outcomes])
    if farkas.size != slots.size + 1:
        raise ValidationError(
            f"Farkas vector has {farkas.size} entries, expected {slots.size + 1}"
        )
    slots.flat[canonical_rows(sc, np.arange(slots.size).reshape(slots.shape))] = farkas[:-1]
    return BellFunctional(sc, slots, "separating")


@dataclass(frozen=True)
class VisibilityResult:
    """Largest signal weight keeping a fixed-measurement behavior local."""

    certificate_kind = "local-weights"  # a class constant, not a field
    beta_star: float
    weights: np.ndarray | None
    scenario: Scenario
    # Farkas certificate of nonlocality for every beta in (beta_star, 1];
    # None when beta_star = 1
    dual: np.ndarray | None = field(default=None, repr=False)

    def to_json_dict(self) -> dict:
        out = {
            "beta_star": self.beta_star,
            "scenario": {"settings": list(self.scenario.settings)},
            "certificate_kind": self.certificate_kind,
        }
        if self.weights is not None:
            out["weights"] = [float(w) for w in self.weights]
        if self.dual is not None:
            out["dual"] = [float(v) for v in self.dual]
        return out


def critical_visibility(
    rho: DensityMatrix,
    noise: NoiseSpec,
    meas: MeasurementAssignment,
) -> VisibilityResult:
    """Maximal beta with behavior((1-beta) noise + beta rho) still local.

    The behavior is affine in beta, so a single LP with beta as an extra
    variable decides the threshold for this fixed measurement assignment, and
    its dual is the certificate of nonlocality above it. This is an upper
    bound on the scenario-level critical visibility, the infimum over
    measurements: the mixture is nonlocal once any measurements show it.
    """
    zeta = noise.resolve(rho.d, rho.n)
    b_noise = behavior(zeta, meas).vector()
    delta = behavior(rho, meas).vector() - b_noise
    sc = meas.scenario()
    beta, weights, dual = _membership(sc, b_noise, delta)
    return VisibilityResult(beta_star=min(max(beta, 0.0), 1.0), weights=weights, scenario=sc,
                            dual=dual)

