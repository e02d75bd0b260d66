"""LP membership of behaviors in the local polytope (vertex representation)
and exact critical visibilities for fixed measurements.

Ships a self-contained two-phase simplex solver with Bland's anti-cycling
rule and deterministic pivoting, so results are reproducible bit-for-bit on a
given platform.
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
    grid_shape,
    row_layout,
    slot_shape,
    strategy_count,
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
# Step above beta* at which critical_visibility probes for a Farkas certificate.
DUAL_STEP = 1e-6

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
    # Farkas vector y with y @ A <= 0 and y @ b > 0 when infeasible
    farkas: np.ndarray | None = None


class _Tableau:
    """Revised simplex state over [A | I] with an explicit basis inverse."""

    def __init__(self, a: np.ndarray, b: np.ndarray) -> None:
        m, n = a.shape
        self.signs = np.where(b < 0.0, -1.0, 1.0)
        self.a_ext = np.hstack([a * self.signs[:, None], np.eye(m)])
        self.b = b * self.signs
        self.m, self.n = m, n
        self.basis = list(range(n, n + m))
        self.b_inv = np.eye(m)
        self.x_b = self.b.copy()
        self.pivots = 0

    def refactor(self) -> None:
        self.b_inv = np.linalg.inv(self.a_ext[:, self.basis])
        self.x_b = self.b_inv @ self.b

    def pivot(self, row: int, col: int) -> None:
        u = self.b_inv @ self.a_ext[:, col]
        piv = u[row]
        self.basis[row] = col
        # product-form update: premultiply by the eta matrix sending u to e_row
        eta = -u / piv
        eta[row] = 1.0 / piv - 1.0
        self.b_inv = self.b_inv + np.outer(eta, self.b_inv[row])
        self.x_b = self.x_b + eta * self.x_b[row]
        self.pivots += 1
        if self.pivots % REFACTOR_EVERY == 0:
            self.refactor()

    def run_bland(self, cost: np.ndarray, eligible: int, tol: float) -> str:
        """Maximize cost @ x over eligible columns [0, eligible); returns
        OPTIMAL or UNBOUNDED."""
        while True:
            y = cost[self.basis] @ self.b_inv
            reduced = cost[:eligible] - y @ self.a_ext[:, :eligible]
            basic = set(self.basis)
            entering = -1
            for j in np.flatnonzero(reduced > tol):
                if int(j) not in basic:
                    entering = int(j)
                    break
            if entering < 0:
                return OPTIMAL
            u = self.b_inv @ self.a_ext[:, entering]
            best_row, best_ratio, best_var = -1, np.inf, np.inf
            for i in range(self.m):
                if u[i] > tol:
                    ratio = self.x_b[i] / u[i]
                    # Bland tie-break: smallest leaving variable index
                    if ratio < best_ratio - 1e-15 or (
                        abs(ratio - best_ratio) <= 1e-15 and self.basis[i] < best_var
                    ):
                        best_row, best_ratio, best_var = i, ratio, self.basis[i]
            if best_row < 0:
                return UNBOUNDED
            self.pivot(best_row, entering)
            self.x_b = np.maximum(self.x_b, 0.0)

    def dual(self, cost: np.ndarray) -> np.ndarray:
        y = cost[self.basis] @ self.b_inv
        return y * self.signs


def simplex_max(lp: LinearProgram, tol: float = DEFAULT_LP_TOL) -> SimplexResult:
    """Two-phase primal simplex with Bland's rule.

    Infeasible and unbounded instances are reported as statuses, never as
    exceptions; infeasibility carries a Farkas certificate for the original
    (unflipped) rows.
    """
    a, b, c = lp.a_eq, lp.b_eq, lp.c
    m, n = a.shape
    tab = _Tableau(a, b)

    # phase 1: drive artificials to zero
    phase1_cost = np.concatenate([np.zeros(n), -np.ones(m)])
    status = tab.run_bland(phase1_cost, eligible=n + m, tol=tol)
    assert status == OPTIMAL  # phase 1 is bounded by construction
    infeas = -float(phase1_cost[tab.basis] @ tab.x_b)
    if infeas > tol:
        y = tab.dual(phase1_cost)
        return SimplexResult(status=INFEASIBLE, farkas=-y)

    # pivot residual artificials out of the basis; drop redundant rows
    drop_rows: list[int] = []
    for i in range(tab.m):
        if tab.basis[i] < n:
            continue
        row = tab.b_inv[i] @ tab.a_ext[:, :n]
        candidates = np.flatnonzero(np.abs(row) > tol)
        candidates = [j for j in candidates if j not in tab.basis]
        if candidates:
            tab.pivot(i, int(candidates[0]))
        else:
            drop_rows.append(i)
    if drop_rows:
        keep = [i for i in range(tab.m) if i not in drop_rows]
        a2 = (tab.a_ext[:, :n] * tab.signs[:, None])[keep]
        b2 = (tab.b * tab.signs)[keep]
        basis = [tab.basis[i] for i in keep]
        assert all(j < n for j in basis)  # only real columns survive the drop
        tab = _Tableau(a2, b2)
        tab.basis = basis
        tab.refactor()

    phase2_cost = np.concatenate([c, np.zeros(tab.m)])
    status = tab.run_bland(phase2_cost, eligible=n, tol=tol)
    if status == UNBOUNDED:
        return SimplexResult(status=UNBOUNDED)
    x = np.zeros(n)
    for i, j in enumerate(tab.basis):
        if j < n:
            x[j] = max(tab.x_b[i], 0.0)
    return SimplexResult(status=OPTIMAL, objective=float(c @ x), x=x)


# --- local polytope ----------------------------------------------------------


def vertex_matrix(sc: Scenario, cap: int = DEFAULT_VERTEX_CAP) -> np.ndarray:
    """Deterministic behaviors as columns, rows in canonical order."""
    count = strategy_count(sc)
    if count > cap:
        raise ResourceCapError(
            f"{count} deterministic behaviors exceed the LP vertex cap {cap}"
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


@dataclass(frozen=True)
class LocalityResult:
    is_local: bool
    weights: np.ndarray | None = None
    farkas: np.ndarray | None = None


def is_local(
    b: Behavior, tol: float = DEFAULT_LP_TOL, cap: int = DEFAULT_VERTEX_CAP
) -> LocalityResult:
    """Decide membership of a behavior in the local polytope by phase-1 simplex.

    Returns nonnegative weights over deterministic behaviors when local, and a
    Farkas (separating) vector otherwise.
    """
    return _membership(b.scenario, b.vector(), tol=tol, cap=cap)


def _membership(
    sc: Scenario, target: np.ndarray, tol: float, cap: int
) -> LocalityResult:
    d = vertex_matrix(sc, cap=cap)
    rows, count = d.shape
    a = np.vstack([d, np.ones((1, count))])
    b_eq = np.concatenate([target, [1.0]])
    lp = LinearProgram(c=np.zeros(count), a_eq=a, b_eq=b_eq)
    res = simplex_max(lp, tol=tol)
    if res.status == OPTIMAL:
        _check_weights(d, res.x, target)
        return LocalityResult(is_local=True, weights=res.x)
    return LocalityResult(is_local=False, farkas=res.farkas)


def separating_functional(sc: Scenario, farkas: np.ndarray) -> BellFunctional:
    """Bell functional built from a Farkas vector: its value on the rejected
    behavior exceeds its LHV supremum."""
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
    # Farkas certificate of nonlocality just above the threshold, when any
    dual_step: float | None = None
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
            out["dual_step"] = self.dual_step
            out["dual"] = [float(v) for v in self.dual]
        return out


def critical_visibility(
    rho: DensityMatrix,
    noise: NoiseSpec,
    meas: MeasurementAssignment,
    tol: float = DEFAULT_LP_TOL,
    cap: int = DEFAULT_VERTEX_CAP,
) -> VisibilityResult:
    """Maximal beta with behavior((1-beta) noise + beta rho) still local.

    The behavior is affine in beta, so a single LP with beta as an extra
    variable decides the threshold for this fixed measurement assignment.
    This is a lower bound on the scenario-level critical visibility, which
    would further optimize over measurements.
    """
    zeta = noise.resolve(rho.d, rho.n)
    b_noise = behavior(zeta, meas).vector()
    b_signal = behavior(rho, meas).vector()
    delta = b_signal - b_noise
    sc = meas.scenario()

    d = vertex_matrix(sc, cap=cap)
    rows, count = d.shape
    # columns: weights, beta, slack of beta <= 1
    a = np.zeros((rows + 2, count + 2))
    a[:rows, :count] = d
    a[:rows, count] = -delta
    a[rows, :count] = 1.0
    a[rows + 1, count] = 1.0
    a[rows + 1, count + 1] = 1.0
    b_eq = np.concatenate([b_noise, [1.0, 1.0]])
    c = np.zeros(count + 2)
    c[count] = 1.0

    res = simplex_max(LinearProgram(c=c, a_eq=a, b_eq=b_eq), tol=tol)
    if res.status != OPTIMAL:
        raise DomainError(
            f"visibility LP ended with status {res.status!r}; at beta = 0 this "
            "means the noise behavior itself is outside the local polytope "
            "(an explicit noise state must be Bell-local)"
        )
    assert res.x is not None
    beta = float(res.x[count])
    _check_weights(d, res.x[:count], b_noise + beta * delta)
    beta_star = min(max(beta, 0.0), 1.0)

    dual_vec = None
    step_used = None
    if beta_star < 1.0 - tol:
        probe = b_noise + min(beta_star + DUAL_STEP, 1.0) * delta
        check = _membership(sc, probe, tol=tol, cap=cap)
        if not check.is_local:
            dual_vec = check.farkas
            step_used = DUAL_STEP
    return VisibilityResult(
        beta_star=beta_star,
        certificate_kind="local-weights",
        weights=res.x[:count],
        scenario=sc,
        dual_step=step_used,
        dual=dual_vec,
    )


def lhv_bounds_lp(f: BellFunctional, cap: int = DEFAULT_VERTEX_CAP) -> tuple[float, float]:
    """(sup, inf) of a functional over the local polytope via the LP route,
    for cross-checking the enumeration path."""
    d = vertex_matrix(f.scenario, cap=cap)
    values = functional_row_vector(f) @ d
    count = values.size
    a = np.ones((1, count))
    b_eq = np.array([1.0])
    sup_res = simplex_max(LinearProgram(c=values, a_eq=a, b_eq=b_eq))
    inf_res = simplex_max(LinearProgram(c=-values, a_eq=a, b_eq=b_eq))
    assert sup_res.status == OPTIMAL and inf_res.status == OPTIMAL
    assert sup_res.objective is not None and inf_res.objective is not None
    return float(sup_res.objective), float(-inf_res.objective)
