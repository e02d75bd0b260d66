"""Critical visibilities for fixed measurements and membership of behaviors in
the local polytope (vertex representation), from one LP whose dual is the
checked nonlocality certificate (convex separation, arXiv:1609.05011).

Ships a self-contained two-phase simplex solver with deterministic pivoting,
so results are reproducible bit-for-bit on a given platform. The largest
reduced cost enters (Dantzig's rule); after a stall of degenerate pivots,
Bland's anti-cycling rule takes over until a pivot makes progress.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ResourceCapError, SolverError, ValidationError
from .qvalue import MeasurementAssignment, behavior
from .scenario import (
    Behavior,
    BellFunctional,
    Scenario,
    basis_rows,
    grid_shape,
    row_layout,
    slot_shape,
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
UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LinearProgram:
    """maximize c @ x  subject to  A_eq @ x = b_eq,  x >= 0."""

    c: np.ndarray
    a_eq: np.ndarray
    b_eq: np.ndarray

    def __post_init__(self) -> None:
        c = np.asarray(self.c, dtype=float)
        a = np.asarray(self.a_eq, dtype=float)
        b = np.asarray(self.b_eq, dtype=float)
        if a.ndim != 2 or c.ndim != 1 or b.ndim != 1:
            raise ValidationError("LP needs a matrix A_eq and vectors c, b_eq")
        if a.shape != (b.size, c.size):
            raise ValidationError(
                f"inconsistent LP shapes: A is {a.shape}, c has {c.size}, b has {b.size}"
            )
        for name, arr in (("c", c), ("A_eq", a), ("b_eq", b)):
            if not np.all(np.isfinite(arr)):
                raise ValidationError(f"{name} has non-finite entries")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "a_eq", a)
        object.__setattr__(self, "b_eq", b)


@dataclass(frozen=True)
class SimplexResult:
    status: str
    objective: float | None = None
    x: np.ndarray | None = None
    # optimal dual y: y @ A_eq >= c and y @ b_eq = objective
    dual: np.ndarray | None = None


class _Tableau:
    """Revised simplex state over [A | I] with an explicit basis inverse."""

    def __init__(self, a: np.ndarray, b: np.ndarray) -> None:
        m, n = a.shape
        self.signs = np.where(b < 0.0, -1.0, 1.0)
        self.a_ext = np.hstack([a * self.signs[:, None], np.eye(m)])
        self.b = b * self.signs
        self.m = m
        self.basis = np.arange(n, n + m)
        self.b_inv = np.eye(m)
        self.x_b = self.b.copy()
        self.pivots = 0
        self.max_pivots = PIVOT_LIMIT_PER_DIM * (m + n)

    def refactor(self) -> None:
        try:
            self.b_inv = np.linalg.inv(self.a_ext[:, self.basis])
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"the basis is singular after {self.pivots} pivots") from exc
        self.x_b = self.b_inv @ self.b

    def pivot(self, row: int, col: int, u: np.ndarray) -> None:
        """Bring column ``col`` into the basis at ``row``; ``u`` is B^-1 a_col."""
        piv = u[row]
        self.basis[row] = col
        # product-form update: premultiply by the eta matrix sending u to e_row
        eta = -u / piv
        eta[row] = 1.0 / piv - 1.0
        self.b_inv += eta[:, None] * self.b_inv[row]
        self.x_b = self.x_b + eta * self.x_b[row]
        self.pivots += 1
        if self.pivots % REFACTOR_EVERY == 0:
            self.refactor()

    def run(self, cost: np.ndarray, eligible: int) -> str:
        """Maximize cost @ x over eligible columns [0, eligible); returns
        OPTIMAL or UNBOUNDED.

        The largest reduced cost enters. After m degenerate pivots in a row
        the lowest-index improving column enters (Bland's rule) until a pivot
        makes progress, so the loop cannot cycle; a solve that reaches
        ``max_pivots`` raises SolverError."""
        stalled = 0
        while True:
            y = cost[self.basis] @ self.b_inv
            reduced = cost[:eligible] - y @ self.a_ext[:, :eligible]
            reduced[self.basis[self.basis < eligible]] = 0.0
            improving = reduced > DEFAULT_LP_TOL
            if not improving.any():
                return OPTIMAL
            if self.pivots >= self.max_pivots:
                raise SolverError(f"the simplex reached its limit of {self.max_pivots} pivots")
            entering = int(np.argmax(improving if stalled >= self.m else reduced))
            u = self.b_inv @ self.a_ext[:, entering]
            # pivots are relative to the column's scale: on an ill-conditioned
            # basis a round-off entry above the tolerance would leave a
            # singular basis
            piv_tol = DEFAULT_LP_TOL * max(1.0, float(np.max(np.abs(u))))
            rows = np.flatnonzero(u > piv_tol)
            if rows.size == 0:
                return UNBOUNDED
            ratios = self.x_b[rows] / u[rows]
            # a tie replaces the best ratio by one at most 1e-15 above it, so
            # no row above this cut can win the sequential test below
            near = ratios <= ratios.min() + 1e-15 * (rows.size + 1)
            best_row, best_ratio, best_var = -1, np.inf, np.inf
            for i, ratio in zip(rows[near].tolist(), ratios[near]):
                # Bland tie-break: smallest leaving variable index
                if ratio < best_ratio - 1e-15 or (
                    abs(ratio - best_ratio) <= 1e-15 and self.basis[i] < best_var
                ):
                    best_row, best_ratio, best_var = i, ratio, self.basis[i]
            stalled = stalled + 1 if best_ratio <= 0.0 else 0
            self.pivot(best_row, entering, u)
            self.x_b = np.maximum(self.x_b, 0.0)


def simplex_max(lp: LinearProgram) -> SimplexResult:
    """Two-phase primal simplex with Dantzig pricing and Bland's rule after a
    stall (see ``_Tableau.run``); A_eq must have full row rank.

    Infeasible and unbounded instances are reported as statuses. A phase 1
    that ends other than optimal, or leaves an artificial column basic that no
    original column can replace (dependent rows), is a numerical failure and
    raises SolverError, and so do a singular basis and a solve that reaches
    PIVOT_LIMIT_PER_DIM * (m + n) pivots. An optimum carries its dual for the
    original (unflipped) rows.
    """
    a, b, c = lp.a_eq, lp.b_eq, lp.c
    m, n = a.shape
    tab = _Tableau(a, b)

    # phase 1: drive artificials to zero
    phase1_cost = np.concatenate([np.zeros(n), -np.ones(m)])
    status = tab.run(phase1_cost, eligible=n + m)
    if status != OPTIMAL:
        raise SolverError(f"phase 1 ended {status!r}, but its objective is bounded by 0")
    infeas = -float(phase1_cost[tab.basis] @ tab.x_b)
    if infeas > DEFAULT_LP_TOL:
        return SimplexResult(status=INFEASIBLE)

    # pivot artificials left basic at level 0 out of the basis
    for i in range(m):
        if tab.basis[i] < n:
            continue
        row = tab.b_inv[i] @ tab.a_ext[:, :n]
        candidates = [j for j in np.flatnonzero(np.abs(row) > DEFAULT_LP_TOL)
                      if j not in tab.basis]
        if not candidates:
            raise SolverError(f"row {i} of A_eq depends on the others")
        j = int(candidates[0])
        tab.pivot(i, j, tab.b_inv @ tab.a_ext[:, j])

    phase2_cost = np.concatenate([c, np.zeros(m)])
    status = tab.run(phase2_cost, eligible=n)
    if status == UNBOUNDED:
        return SimplexResult(status=UNBOUNDED)
    x = np.zeros(n)
    x[tab.basis] = np.maximum(tab.x_b, 0.0)
    dual = (phase2_cost[tab.basis] @ tab.b_inv) * tab.signs  # unflip the rows
    return SimplexResult(status=OPTIMAL, objective=float(c @ x), x=x, dual=dual)


# --- local polytope ----------------------------------------------------------


def vertex_matrix(sc: Scenario) -> np.ndarray:
    """Deterministic behaviors as columns, rows in canonical order."""
    count = strategy_count(sc)
    if count > DEFAULT_VERTEX_CAP:
        raise ResourceCapError(
            f"{count} deterministic behaviors exceed the LP vertex cap {DEFAULT_VERTEX_CAP}"
        )
    offsets, rows = row_layout(sc)
    grid, cols = grid_shape(sc), np.arange(count)
    d = np.zeros((rows, count))
    for s, offset in offsets.items():
        # each strategy's outcome cell in this joint setting's table
        cell = np.arange(np.prod(sc.outcome_counts(s))).reshape(slot_shape(sc, s))
        d[offset + np.broadcast_to(cell, grid).ravel(), cols] = 1.0
    return d


def functional_row_vector(f: BellFunctional) -> np.ndarray:
    """Coefficients flattened in the canonical row order."""
    return np.concatenate([f.coeffs[s].ravel() for s in sorted(f.coeffs)])


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


def _membership(
    sc: Scenario, base: np.ndarray, delta: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray | None]:
    """The visibility LP: max beta s.t. D @ w - beta * delta = base on the
    ``basis_rows`` of D, which also fix sum(w) = 1, w >= 0, 0 <= beta <= 1, for
    a local base. Returns beta, the weights and, when beta < 1 - DEFAULT_LP_TOL,
    the Farkas vector F of the dual y in canonical rows, F[:-1][keep] = -y[:k] and
    F[-1] = 0: F[:-1] @ v <= 0 on every vertex, F[:-1] @ delta >= 1 and
    F[:-1] @ base = -beta, so F[:-1] separates base + b * delta from the local
    polytope for every b in (beta, 1]."""
    d = vertex_matrix(sc)
    keep = basis_rows(sc)
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

    res = simplex_max(LinearProgram(c=c, a_eq=a, b_eq=b_eq))
    if res.status != OPTIMAL:
        raise DomainError(
            f"visibility LP ended with status {res.status!r}; at beta = 0 this "
            "means the noise behavior itself is outside the local polytope "
            "(an explicit noise state must be Bell-local)"
        )
    assert res.x is not None and res.dual is not None
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
    is_local: bool
    weights: np.ndarray | None = None
    farkas: np.ndarray | None = None


def is_local(b: Behavior) -> LocalityResult:
    """Decide membership of a behavior in the local polytope by the visibility
    LP from the uniform behavior, which is local, towards b: b is local iff
    beta* >= 1 - DEFAULT_LP_TOL. Returns weights over deterministic behaviors
    when local, and the LP's Farkas (separating) vector otherwise."""
    base = uniform_behavior(b.scenario).vector()
    _, weights, farkas = _membership(b.scenario, base, b.vector() - base)
    if farkas is None:
        return LocalityResult(is_local=True, weights=weights)
    return LocalityResult(is_local=False, farkas=farkas)


def separating_functional(sc: Scenario, farkas: np.ndarray) -> BellFunctional:
    """Bell functional built from a Farkas vector: its value on the rejected
    behavior exceeds its LHV supremum, which is -farkas[-1]."""
    offsets, rows = row_layout(sc)
    if farkas.size != rows + 1:
        raise ValidationError(
            f"Farkas vector has {farkas.size} entries, expected {rows + 1}"
        )
    blocks = np.split(farkas[:rows], list(offsets.values())[1:])
    coeffs = {s: b.reshape(sc.outcome_counts(s)) for s, b in zip(offsets, blocks)}
    return BellFunctional(scenario=sc, coeffs=coeffs, label="separating")


@dataclass(frozen=True)
class VisibilityResult:
    """Largest signal weight keeping a fixed-measurement behavior local."""

    beta_star: float
    certificate_kind: str
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
    its dual is the certificate of nonlocality above it. This is a lower
    bound on the scenario-level critical visibility, which would further
    optimize over measurements.
    """
    zeta = noise.resolve(rho.d, rho.n)
    b_noise = behavior(zeta, meas).vector()
    delta = behavior(rho, meas).vector() - b_noise
    sc = meas.scenario()
    beta, weights, dual = _membership(sc, b_noise, delta)
    return VisibilityResult(beta_star=min(max(beta, 0.0), 1.0), certificate_kind="local-weights",
                            weights=weights, scenario=sc, dual=dual)


def lhv_bounds_lp(f: BellFunctional) -> tuple[float, float]:
    """(sup, inf) of a functional over the local polytope via the LP route,
    for cross-checking the enumeration path. Raises SolverError unless both
    LPs end optimal."""
    values = functional_row_vector(f) @ vertex_matrix(f.scenario)
    a, b_eq = np.ones((1, values.size)), np.array([1.0])
    objectives = []
    for c in (values, -values):
        res = simplex_max(LinearProgram(c=c, a_eq=a, b_eq=b_eq))
        if res.status != OPTIMAL:
            raise SolverError(f"LHV extremum LP ended {res.status!r} on a nonempty polytope")
        objectives.append(float(res.objective))
    return objectives[0], -objectives[1]
