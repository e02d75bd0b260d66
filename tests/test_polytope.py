import dataclasses
import functools
import itertools
import math
import re

import numpy as np
import pytest

from helpers import (
    MIXED_SCENARIO,
    SINGLE_OUTCOME_SCENARIO,
    SX,
    SY,
    SZ,
    chsh_optimal_assignment,
    deterministic_behavior,
    mermin3_optimal_assignment,
    reference_basis_rows,
    reference_vertex_matrix,
    summation_bound,
    vertex_scan_bounds,
)

from belltol import polytope
from belltol.errors import DomainError, ResourceCapError, SolverError, ValidationError
from belltol.polytope import (
    INFEASIBLE,
    OPTIMAL,
    LinearProgram,
    critical_visibility,
    is_local,
    separating_functional,
    simplex_max,
    vertex_matrix,
)
from belltol.qvalue import Measurement, MeasurementAssignment, behavior, evaluate, seesaw
from belltol.scenario import (
    BellFunctional,
    Scenario,
    canonical_rows,
    chsh,
    grid_shape,
    lhv_bounds,
    mermin,
    uniform_behavior,
)
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

SQRT2 = math.sqrt(2.0)


def lp(c, a, b, basis):
    return LinearProgram(c=np.asarray(c, float), a_eq=np.asarray(a, float),
                         b_eq=np.asarray(b, float), basis=np.asarray(basis))


def test_simplex_single_variable():
    res = simplex_max(lp([1.0], [[1.0]], [1.0], [0]))
    assert res.status == OPTIMAL
    assert res.objective == pytest.approx(1.0, abs=1e-12)


def test_simplex_two_variables():
    res = simplex_max(lp([1.0, 1.0], [[1.0, 1.0]], [1.0], [0]))
    assert res.status == OPTIMAL
    assert res.objective == pytest.approx(1.0, abs=1e-12)


def test_simplex_infeasible():
    # x1 + x2 = 2 and x1 + x2 + x3 = 1 force x3 = -1; the start is dual
    # feasible, x3 leaves, and its row has no negative entry to enter
    res = simplex_max(lp([0.0, 0.0, -1.0], [[1.0, 1.0, 0.0], [1.0, 1.0, 1.0]], [2.0, 1.0], [0, 2]))
    assert res.status == INFEASIBLE
    assert res.x is None and res.dual is None


def test_simplex_unbounded():
    # an unbounded LP has an infeasible dual, so no start basis is dual feasible
    for basis in ([0], [1]):
        with pytest.raises(SolverError, match="not dual feasible"):
            simplex_max(lp([1.0, 0.0], [[1.0, -1.0]], [0.0], basis))


def test_simplex_negative_rhs():
    # -x - y = -1, solved as it stands: there is no row sign flip
    res = simplex_max(lp([2.0, 1.0], [[-1.0, -1.0]], [-1.0], [0]))
    assert res.status == OPTIMAL
    assert res.objective == pytest.approx(2.0, abs=1e-9)
    assert np.array_equal(res.dual, [-2.0])


def test_simplex_start_basis_is_validated():
    with pytest.raises(ValidationError, match="distinct column indices"):
        lp([1.0, 1.0], [[1.0, 1.0], [1.0, 2.0]], [1.0, 1.0], [0, 0])
    with pytest.raises(ValidationError, match="distinct column indices"):
        lp([1.0, 1.0], [[1.0, 1.0]], [1.0], [2])


def assert_optimal_dual(res, c, a, b):
    """The returned dual is feasible and closes the duality gap."""
    assert res.dual.shape == (a.shape[0],)
    assert np.all(res.dual @ a >= c - 1e-8)
    assert float(res.dual @ b) == pytest.approx(res.objective, abs=1e-8)


@pytest.mark.parametrize("c, a, b, message", [
    ([1.0], [1.0, 1.0], [1.0], "LP needs a matrix A_eq and vectors c, b_eq"),
    ([[1.0]], [[1.0]], [1.0], "LP needs a matrix A_eq and vectors c, b_eq"),
    ([1.0], [[1.0]], [[1.0]], "LP needs a matrix A_eq and vectors c, b_eq"),
    ([1.0, 1.0], [[1.0]], [1.0], "inconsistent LP shapes: A is (1, 1), c has 2, b has 1"),
    ([1.0], [[1.0]], [1.0, 1.0], "inconsistent LP shapes: A is (1, 1), c has 1, b has 2"),
    ([math.nan], [[1.0]], [1.0], "c has non-finite entries"),
    ([1.0], [[math.inf]], [1.0], "A_eq has non-finite entries"),
    ([1.0], [[1.0]], [-math.inf], "b_eq has non-finite entries"),
], ids=["a-vector", "c-matrix", "b-matrix", "c-size", "b-size", "c-nan", "a-inf", "b-inf"])
def test_lp_input_checks_name_the_fault(c, a, b, message):
    with pytest.raises(ValidationError, match=re.escape(message)):
        lp(c, a, b, [0])


def test_separating_functional_checks_the_farkas_length():
    # CHSH has 16 canonical rows, and the vector carries one bound after them
    with pytest.raises(ValidationError,
                       match=re.escape("Farkas vector has 16 entries, expected 17")):
        separating_functional(chsh().scenario, np.zeros(16))


def test_simplex_weights_that_rebuild_no_behavior_raise(monkeypatch):
    # a weight raised by 1e-6 breaks sum(w) = 1 and the rebuild of the
    # target: the LP's answer is refused, not returned
    real = polytope.simplex_max

    def one_weight_raised(lp):
        res = real(lp)
        x = res.x.copy()
        x[0] += 1e-6  # the weights lead, beta and its slack close the columns
        return dataclasses.replace(res, x=x)

    monkeypatch.setattr(polytope, "simplex_max", one_weight_raised)
    message = re.escape("simplex weights are no local certificate")
    with pytest.raises(SolverError, match=message):
        critical_visibility(ghz(2, 2), NoiseSpec.white(), chsh_optimal_assignment())
    with pytest.raises(SolverError, match=message):
        is_local(uniform_behavior(chsh().scenario))


def test_simplex_redundant_rows():
    # the simplex needs full row rank: a dependent row makes every start
    # basis singular, which is an error, not a row drop
    c, a, b = np.array([1.0, 1.0]), np.array([[1.0, 1.0], [2.0, 2.0]]), np.array([1.0, 2.0])
    with pytest.raises(SolverError, match="singular") as info:
        simplex_max(lp(c, a, b, [0, 1]))
    assert isinstance(info.value.__cause__, np.linalg.LinAlgError)


def bases(a):
    """Every nonsingular basis of A, lexicographically."""
    m, n = a.shape
    for cols in itertools.combinations(range(n), m):
        if abs(np.linalg.det(a[:, cols])) >= 1e-12:
            yield list(cols)


def brute_force_lp_max(c, a, b, tol=1e-9):
    """Vertex-scan oracle: all basic solutions of Ax = b, x >= 0."""
    best = None
    for cols in bases(a):
        x_b = np.linalg.solve(a[:, cols], b)
        if np.min(x_b) < -tol:
            continue
        x = np.zeros(a.shape[1])
        x[cols] = x_b
        val = float(c @ x)
        if best is None or val > best:
            best = val
    return best


def dual_feasible_start(c, a, b):
    """The first dual feasible basis that is primal infeasible, else the first
    dual feasible one."""
    found = None
    for cols in bases(a):
        b_inv = np.linalg.inv(a[:, cols])
        if np.max(c - (c[cols] @ b_inv) @ a) > 1e-9:
            continue
        if np.min(b_inv @ b) < -1e-9:
            return cols
        found = found or cols
    return found


def random_lps():
    """Random LPs, feasible by construction and bounded by a last row
    sum(x) = sum(x0), as the visibility LP's weights sum to 1, each with a
    dual feasible start."""
    rng = np.random.default_rng(13)
    shapes = [(int(rng.integers(2, 5)), int(rng.integers(6, 12))) for _ in range(25)]
    shapes += [(2, 50), (3, 30), (2, 40)]  # wider instances, small bases
    for m, n in shapes:
        a = np.vstack([rng.standard_normal((m - 1, n)), np.ones(n)])
        b = a @ rng.uniform(0.0, 1.0, n)
        c = rng.standard_normal(n)
        yield c, a, b, dual_feasible_start(c, a, b)


def test_simplex_random_lps_against_vertex_scan():
    solved = 0
    for c, a, b, start in random_lps():
        res = simplex_max(lp(c, a, b, start))
        assert res.status == OPTIMAL
        solved += res.pivots > 0
        assert res.objective == pytest.approx(brute_force_lp_max(c, a, b), abs=1e-8)
        # primal feasibility of the returned solution
        assert np.allclose(a @ res.x, b, atol=1e-8)
        assert np.min(res.x) >= -1e-9
        assert_optimal_dual(res, c, a, b)
    assert solved >= 10


class ReferenceTableau:
    """The simplex state, built from the LP as the package's solver builds
    its own: B^-1 = inv(A_B), x_b = B^-1 b and the reduced costs
    c - (c_B B^-1) A, zero on the basis."""

    def __init__(self, problem):
        self.a, self.b, self.c = problem.a_eq, problem.b_eq, problem.c
        self.basis = problem.basis.copy()
        self.pivots = 0
        self.refactor()

    def refactor(self):
        self.b_inv = np.linalg.inv(self.a[:, self.basis])
        self.x_b = self.b_inv @ self.b
        self.reduced = self.c - (self.c[self.basis] @ self.b_inv) @ self.a
        self.reduced[self.basis] = 0.0


def reference_pivot(tab, row, col, alpha, step):
    """The pivot as a plain rebuild of b_inv and of the reduced costs."""
    tab.reduced = tab.reduced - step * alpha
    u = tab.b_inv @ tab.a[:, col]
    piv = u[row]
    tab.basis[row] = col
    tab.reduced[tab.basis] = 0.0
    eta = -u / piv
    eta[row] = 1.0 / piv - 1.0
    tab.b_inv = tab.b_inv + np.outer(eta, tab.b_inv[row])
    tab.x_b = tab.x_b + eta * tab.x_b[row]
    tab.pivots += 1
    if tab.pivots % polytope.REFACTOR_EVERY == 0:
        tab.refactor()


def reference_solve(problem, repeated=lambda pivot: False):
    """The dual simplex as plain loops over the rows and the columns: the most
    negative basic variable leaves and the least ratio enters, ties within
    1e-15 * (candidates + 1) going to the most negative alpha. From a pivot
    where repeated(pivot) holds until the objective falls, Bland's rule: the
    lowest-index basic variable leaves and the lowest-index tied column
    enters."""
    tab = ReferenceTableau(problem)
    m, n = tab.a.shape
    bland = False
    while True:
        bland = bland or repeated(tab.pivots)
        row = -1
        for i in range(m):
            if tab.x_b[i] < -polytope.DEFAULT_LP_TOL and (
                row < 0 or (tab.basis[i] < tab.basis[row] if bland else tab.x_b[i] < tab.x_b[row])
            ):
                row = i
        if row < 0:
            break
        alpha = tab.b_inv[row] @ tab.a
        piv_tol = polytope.DEFAULT_LP_TOL * max(1.0, float(np.max(np.abs(alpha))))
        basic = set(tab.basis.tolist())
        ratios = {j: min(tab.reduced[j], 0.0) / alpha[j] for j in range(n)
                  if alpha[j] < -piv_tol and j not in basic}
        if not ratios:
            return INFEASIBLE, tab
        cut = min(ratios.values()) + 1e-15 * (len(ratios) + 1)
        col = -1
        for j, ratio in ratios.items():
            if ratio <= cut and (col < 0 or (not bland and alpha[j] < alpha[col])):
                col = j
        step = min(float(tab.reduced[col]), 0.0) / alpha[col]
        bland = bland and step <= 0.0
        reference_pivot(tab, row, col, alpha, step)
    return OPTIMAL, tab


def visibility_lp(monkeypatch, solve):
    lps = []

    def recording(problem):
        lps.append(problem)
        return simplex_max(problem)

    with monkeypatch.context() as patch:
        patch.setattr(polytope, "simplex_max", recording)
        solve()
    return lps[0]


def yx_assignment(n):
    yx = (Measurement.dichotomic_from_observable(SY), Measurement.dichotomic_from_observable(SX))
    return MeasurementAssignment((yx,) * n)


@functools.cache
def mk4_assignment(state):
    """The seed-1 seesaw's MK4 measurements on ``state``, ghz or dicke."""
    rho = ghz(2, 4) if state == "ghz" else dicke(4, 2)
    return seesaw(mermin(4), rho, restarts=5, seed=1).assignment


def reference_problems(monkeypatch):
    """Y/X visibility LPs on GHZ(3) and GHZ(4), a membership LP on GHZ(3),
    the seed-1 MK4 visibility LP on GHZ(4) and MK4 membership LPs on
    Dicke(4,2) at beta = 0.4 (local) and 0.95 (nonlocal): the degenerate
    82 x 258 shape of most LPs of a visibility pass. Then the random LPs."""
    problems = [visibility_lp(monkeypatch, lambda n=n: critical_visibility(
        ghz(2, n), NoiseSpec.white(), yx_assignment(n))) for n in (3, 4)]
    mixed = behavior(mix(white_noise(2, 3), ghz(2, 3), 0.2), yx_assignment(3))
    problems.append(visibility_lp(monkeypatch, lambda: is_local(mixed)))
    problems.append(visibility_lp(monkeypatch, lambda: critical_visibility(
        ghz(2, 4), NoiseSpec.white(), mk4_assignment("ghz"))))
    for beta in (0.4, 0.95):
        probe = behavior(mix(white_noise(2, 4), dicke(4, 2), beta), mk4_assignment("dicke"))
        problems.append(visibility_lp(monkeypatch, lambda b=probe: is_local(b)))
    problems += [lp(c, a, b, start) for c, a, b, start in random_lps()]
    return problems


def assert_reference_pivots(got, problem, repeated=lambda pivot: False):
    status, tab = reference_solve(problem, repeated)
    assert got.status == status == OPTIMAL and got.pivots == tab.pivots
    x = np.zeros(problem.c.size)
    x[tab.basis] = np.maximum(tab.x_b, 0.0)
    assert np.array_equal(got.x, x)
    assert np.array_equal(got.dual, problem.c[tab.basis] @ tab.b_inv)


def test_simplex_keeps_the_reference_pivots(monkeypatch):
    for problem in reference_problems(monkeypatch):
        assert_reference_pivots(simplex_max(problem), problem)


@pytest.mark.parametrize("keys, repeated", [
    # every basis after the first looks repeated: Bland's rule solves alone
    (lambda: itertools.repeat(0), lambda pivot: pivot >= 1),
    # one repeat at the second basis: Bland's rule until the objective falls
    (lambda: itertools.chain([0, 0], itertools.count(1)), lambda pivot: pivot == 1),
], ids=["always", "once"])
def test_simplex_bland_fallback_keeps_the_reference_pivots(monkeypatch, keys, repeated):
    # the basis keys are patched, as no LP at hand cycles; the fallback must
    # match the reference and reach the default rule's optimum
    differ = 0
    for problem in reference_problems(monkeypatch):
        with monkeypatch.context() as patch:
            patch.setattr(polytope, "hash", lambda key, keys=keys(): next(keys), raising=False)
            got = simplex_max(problem)
        assert_reference_pivots(got, problem, repeated)
        default = simplex_max(problem)
        assert got.objective == pytest.approx(default.objective, abs=1e-9)
        differ += got.pivots != default.pivots
    assert differ > 0


def test_simplex_cycle_key_is_the_xor_of_the_basis_columns(monkeypatch):
    # the key hashed at each pivot is the XOR of the basis columns' keys, so
    # it follows the set of columns, not their order across the rows
    problem = visibility_lp(monkeypatch, lambda: critical_visibility(
        ghz(2, 4), NoiseSpec.white(), yx_assignment(4)))
    column_keys = polytope._column_keys(problem.c.size)
    assert not column_keys.flags.writeable
    assert np.array_equal(column_keys, polytope._column_keys.__wrapped__(problem.c.size))
    assert column_keys.min() >= 0 and column_keys.max() < 2**62
    assert np.unique(column_keys).size == column_keys.size

    def solve_keys(lp):
        keys = []
        with monkeypatch.context() as patch:
            patch.setattr(polytope, "hash", lambda key: keys.append(key) or hash(key),
                          raising=False)
            res = simplex_max(lp)
        assert len(keys) == res.pivots > 0
        return keys

    def reference_bases(lp):
        bases = []

        def recording_pivot(tab, *args, pivot=reference_pivot):
            bases.append(frozenset(tab.basis.tolist()))
            pivot(tab, *args)

        with monkeypatch.context() as patch:
            patch.setitem(globals(), "reference_pivot", recording_pivot)
            reference_solve(lp)
        return bases

    # the start columns permuted across the rows: on this degenerate LP the
    # solve then takes other pivots, through other bases
    permuted = dataclasses.replace(problem, basis=np.roll(problem.basis, 5))
    keyed, visited = {}, []
    for lp in (problem, permuted):
        bases, keys = reference_bases(lp), solve_keys(lp)
        assert keys == [int(np.bitwise_xor.reduce(column_keys[list(b)])) for b in bases]
        # a pivot changes one column, and so the key
        assert all(a != b for a, b in zip(keys, keys[1:]))
        for basis, key in zip(bases, keys):
            assert keyed.setdefault(basis, key) == key
        visited.append(set(bases))
    # both solves pass the start's column set, and each passes sets the other does not
    assert visited[0] & visited[1] and visited[0] - visited[1] and visited[1] - visited[0]
    # distinct column sets get distinct keys
    assert len(set(keyed.values())) == len(keyed)


def test_simplex_pivot_limit_raises(monkeypatch):
    # the Y/X visibility LP of ghz(2, 4) takes 94 pivots, 82 x 258 at a
    # quarter pivot per dimension allows 85
    monkeypatch.setattr(polytope, "PIVOT_LIMIT_PER_DIM", 0.25)
    with pytest.raises(SolverError, match="limit of 85.0 pivots"):
        critical_visibility(ghz(2, 4), NoiseSpec.white(), yx_assignment(4))


def test_simplex_singular_basis_raises(monkeypatch):
    def singular(matrix):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(polytope.np.linalg, "inv", singular)
    with pytest.raises(SolverError, match="singular") as info:
        critical_visibility(ghz(2, 3), NoiseSpec.white(), yx_assignment(3))
    assert isinstance(info.value.__cause__, np.linalg.LinAlgError)


def test_vertex_soundness():
    sc = chsh().scenario
    for col, strat in enumerate(itertools.product(*map(range, grid_shape(sc)))):
        b = deterministic_behavior(sc, strat)
        res = is_local(b)
        assert res.is_local
        assert res.weights is not None
        assert abs(res.weights.sum() - 1.0) <= 1e-8
        # a vertex is no mixture of other vertices: all weight is on its own column
        assert abs(res.weights[col] - 1.0) <= 1e-10


def test_uniform_behavior_local():
    res = is_local(uniform_behavior(chsh().scenario))
    assert res.is_local and res.farkas is None and res.weights is not None


def test_bell_optimal_behavior_nonlocal():
    b = behavior(ghz(2, 2), chsh_optimal_assignment())
    res = is_local(b)
    assert not res.is_local
    assert res.farkas is not None and res.weights is None


def test_separating_functional_violates_lhv():
    b = behavior(ghz(2, 2), chsh_optimal_assignment())
    res = is_local(b)
    g = separating_functional(b.scenario, res.farkas)
    assert evaluate(g, b) > lhv_bounds(g).sup + 1e-10


def test_vertex_matrix_cap():
    with pytest.raises(ResourceCapError):
        vertex_matrix(Scenario.uniform(3, 3, 4))  # 4^9 > DEFAULT_VERTEX_CAP


def test_vertex_matrix_columns_are_deterministic_behaviors():
    sc = MIXED_SCENARIO
    d = vertex_matrix(sc)
    strategies = list(itertools.product(*map(range, grid_shape(sc))))
    assert d.shape[1] == len(strategies)
    for col, strat in zip(d.T, strategies):
        assert np.array_equal(col, deterministic_behavior(sc, strat).vector())


def test_lhv_lp_cross_check():
    for f in (chsh(), mermin(3)):
        sup, inf = vertex_scan_bounds(f)
        b = lhv_bounds(f)
        assert sup == pytest.approx(b.sup, abs=1e-9)
        assert inf == pytest.approx(b.inf, abs=1e-9)


def test_lhv_lp_cross_check_random_scenarios():
    rng = np.random.default_rng(31)
    shapes = [(2, 2, 2), (2, 2, 3), (3, 2, 2), (2, 3, 2), (2, 2, 4)]
    from belltol.scenario import BellFunctional

    # one strategy rule: the oracle's extrema are those of the vertex columns,
    # each a sum of the same J entries in another order
    for sc in [Scenario.uniform(*shape) for shape in shapes] + [MIXED_SCENARIO,
                                                                SINGLE_OUTCOME_SCENARIO]:
        coeffs = {
            s: rng.uniform(-1.0, 1.0, sc.outcome_counts(s))
            for s in sc.joint_settings()
        }
        f = BellFunctional.from_tables(sc, coeffs)
        sup, inf = vertex_scan_bounds(f)
        b = lhv_bounds(f)
        assert abs(sup - b.sup) <= summation_bound(f)
        assert abs(inf - b.inf) <= summation_bound(f)


def test_visibility_bell_state():
    vis = critical_visibility(ghz(2, 2), NoiseSpec.white(), chsh_optimal_assignment())
    assert vis.beta_star == pytest.approx(1.0 / SQRT2, abs=1e-6)
    assert vis.certificate_kind == vis.to_json_dict()["certificate_kind"] == "local-weights"
    assert vis.weights is not None


def test_visibility_mermin3():
    vis = critical_visibility(ghz(2, 3), NoiseSpec.white(), mermin3_optimal_assignment())
    assert vis.beta_star == pytest.approx(0.5, abs=1e-6)


def test_visibility_product_state():
    vis = critical_visibility(
        product_zero(2, 2), NoiseSpec.white(), chsh_optimal_assignment()
    )
    assert vis.beta_star == pytest.approx(1.0, abs=1e-9)
    assert vis.dual is None


def test_visibility_certificate_weights_reconstruct():
    vis = critical_visibility(ghz(2, 2), NoiseSpec.white(), chsh_optimal_assignment())
    sc = vis.scenario
    mixed = mix(white_noise(2, 2), ghz(2, 2), vis.beta_star)
    target = behavior(mixed, chsh_optimal_assignment()).vector()
    model = vertex_matrix(sc) @ vis.weights
    assert np.max(np.abs(model - target)) <= 1e-8


def test_visibility_dual_is_separating():
    mk4 = seesaw(mermin(4), ghz(2, 4), restarts=5, seed=1).assignment
    cases = ((ghz(2, 2), chsh_optimal_assignment()), (ghz(2, 3), mermin3_optimal_assignment()),
             (ghz(2, 4), mk4))
    for rho, assign in cases:
        vis = critical_visibility(rho, NoiseSpec.white(), assign)
        assert vis.dual is not None
        assert "dual_step" not in vis.to_json_dict()
        g = separating_functional(vis.scenario, vis.dual)
        sup = lhv_bounds(g).sup
        assert sup == pytest.approx(-vis.dual[-1], abs=1e-9)
        # one dual separates every beta above beta*, not just one probe
        for beta in (vis.beta_star + 1e-6, vis.beta_star + 1e-3, 1.0):
            mixed = mix(white_noise(2, rho.n), rho, beta)
            assert evaluate(g, behavior(mixed, assign)) > sup


def test_visibility_wrong_dual_raises(monkeypatch):
    # a dual that is no certificate must raise, never be returned
    def negated(lp):
        res = simplex_max(lp)
        return dataclasses.replace(res, dual=-res.dual)

    monkeypatch.setattr(polytope, "simplex_max", negated)
    with pytest.raises(SolverError):
        critical_visibility(ghz(2, 2), NoiseSpec.white(), chsh_optimal_assignment())
    with pytest.raises(SolverError):
        is_local(behavior(ghz(2, 2), chsh_optimal_assignment()))


def test_start_not_dual_feasible_raises(monkeypatch):
    # the slack of beta <= 1 in place of beta: y = 0, and beta's reduced cost is 1
    real = polytope.LinearProgram

    def slack_start(c, a_eq, b_eq, basis):
        return real(c=c, a_eq=a_eq, b_eq=b_eq, basis=np.append(basis[:-1], c.size - 1))

    monkeypatch.setattr(polytope, "LinearProgram", slack_start)
    with pytest.raises(SolverError, match="not dual feasible"):
        is_local(behavior(ghz(2, 2), chsh_optimal_assignment()))
    with pytest.raises(SolverError, match="not dual feasible"):
        critical_visibility(ghz(2, 2), NoiseSpec.white(), chsh_optimal_assignment())


def scenario_of(*sites):
    """A scenario from each site's outcome counts, values spread over [-1, 1]."""
    return Scenario(tuple(tuple(tuple(np.linspace(1.0, -1.0, m).tolist()) for m in site)
                          for site in sites))


# per site, the outcome counts of its settings
SITE_COUNTS = [((2, 2), (2, 2)), ((3, 3), (3, 3)), ((2, 3, 4), (3,), (2, 2)),
               ((4, 2), (2, 3, 2)), ((1, 2), (2,)), ((2,), (3,), (2,), (2,))]


@pytest.mark.parametrize("sites", SITE_COUNTS, ids=str)
def test_start_basis_is_unimodular(sites):
    # the staircase strategies on the basis rows: square, |det| = 1
    sc = scenario_of(*sites)
    keep, cols = polytope._lp_start(sc)
    block = vertex_matrix(sc)[keep][:, cols]
    assert block.shape[0] == block.shape[1]
    assert abs(np.linalg.det(block)) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("sites", SITE_COUNTS, ids=str)
def test_slot_grid_rows_equal_per_table_reference(sites):
    sc = scenario_of(*sites)
    assert np.array_equal(vertex_matrix(sc), reference_vertex_matrix(sc))
    assert np.array_equal(polytope._lp_start(sc)[0], reference_basis_rows(sc))


@pytest.mark.parametrize("sc", [MIXED_SCENARIO, Scenario.uniform(3, 2)], ids=["mixed", "uniform"])
def test_slot_grid_layout_contract(sc):
    # coeffs and tables are read-only views of one grid, and the canonical
    # rows of a Farkas vector come back unchanged through its functional
    rng = np.random.default_rng(7)
    f = BellFunctional.from_tables(sc, {s: rng.standard_normal(sc.outcome_counts(s))
                            for s in sc.joint_settings()})
    b = uniform_behavior(sc)
    for obj, tables in ((f, f.coeffs), (b, b.tables)):
        assert not obj.slots.flags.writeable
        for t in tables.values():
            assert np.shares_memory(t, obj.slots)
            with pytest.raises(ValueError, match="read-only"):
                t[(0,) * t.ndim] = 1.0
    farkas = rng.standard_normal(vertex_matrix(sc).shape[0] + 1)
    g = separating_functional(sc, farkas)
    assert np.array_equal(canonical_rows(sc, g.slots), farkas[:-1])


def test_visibility_monotone_in_beta():
    assign = chsh_optimal_assignment()
    vis = critical_visibility(ghz(2, 2), NoiseSpec.white(), assign)
    for beta in (0.0, 0.3, vis.beta_star - 1e-4):
        mixed = mix(white_noise(2, 2), ghz(2, 2), beta)
        assert is_local(behavior(mixed, assign)).is_local
    above = mix(white_noise(2, 2), ghz(2, 2), min(vis.beta_star + 1e-3, 1.0))
    assert not is_local(behavior(above, assign)).is_local


def test_canonical_rows_order_matches_behavior():
    f = chsh()
    b = behavior(ghz(2, 2), chsh_optimal_assignment())
    assert float(canonical_rows(f.scenario, f.slots) @ b.vector()) == pytest.approx(
        evaluate(f, b), abs=1e-12
    )


def assert_local_certificate(weights, sc, target):
    assert weights.min() >= -1e-9
    assert abs(weights.sum() - 1.0) <= 1e-8
    assert np.max(np.abs(vertex_matrix(sc) @ weights - target)) <= 1e-7


def test_visibility_w3_certificate_checked():
    # the native simplex once returned beta* = 1.0 here, with weights summing to 6,
    # and then raised SolverError until pivots were taken relative to the column's scale
    assign = seesaw(mermin(3), w_state(3), restarts=5, seed=2).assignment
    vis = critical_visibility(w_state(3), NoiseSpec.white(), assign)
    assert vis.beta_star == pytest.approx(0.6566083018987842, abs=1e-9)  # HiGHS
    mixed = mix(white_noise(2, 3), w_state(3), vis.beta_star)
    assert_local_certificate(vis.weights, vis.scenario, behavior(mixed, assign).vector())


def test_visibility_w4_matches_highs():
    # on all canonical rows, the simplex dropped the dependent ones after
    # phase 1 and then raised LinAlgError('Singular matrix') here
    assign = seesaw(mermin(4), w_state(4), restarts=5, seed=1).assignment
    vis = critical_visibility(w_state(4), NoiseSpec.white(), assign)
    assert vis.beta_star == pytest.approx(0.6094089531365541, abs=1e-9)  # HiGHS


def assert_visibility_certificates(vis, rho, assign, noise=None):
    """The weights rebuild the behavior at beta*, and the dual's functional
    stays within its LHV bound, -dual[-1], and exceeds it on rho."""
    noise = noise or white_noise(rho.d, rho.n)
    mixed = mix(noise, rho, vis.beta_star)
    assert_local_certificate(vis.weights, vis.scenario, behavior(mixed, assign).vector())
    g = separating_functional(vis.scenario, vis.dual)
    sup = lhv_bounds(g).sup
    assert sup == pytest.approx(-vis.dual[-1], abs=1e-9)
    assert evaluate(g, behavior(rho, assign)) > sup


@pytest.mark.parametrize("seed, highs", [(4, 0.6094089917066811), (37, 0.6094089882982651)])
def test_visibility_w4_seeds_that_made_the_basis_singular(seed, highs):
    # first-improving-column pivoting raised LinAlgError('Singular matrix')
    # from refactor here
    assign = seesaw(mermin(4), w_state(4), restarts=5, seed=seed).assignment
    vis = critical_visibility(w_state(4), NoiseSpec.white(), assign)
    assert vis.beta_star == pytest.approx(highs, abs=1e-7)
    assert_visibility_certificates(vis, w_state(4), assign)


def recorded_solves(monkeypatch):
    results = []

    def recording(problem):
        results.append(simplex_max(problem))
        return results[-1]

    monkeypatch.setattr(polytope, "simplex_max", recording)
    return results


# pivots of the seed-1 MK_n visibility LPs on ghz(2, n), the same at every
# BLAS thread count. n = 5 is not pinned: np.linalg.inv of its 244 x 244
# start basis differs in its last bits between one OpenBLAS thread and
# several, and the solve takes 604 or 491 pivots
MERMIN_PIVOTS = {3: 16, 4: 102}


@pytest.mark.parametrize("n, phase1_pivots", [(3, 84), (4, 304)])
def test_visibility_ghz_mermin_pivots(monkeypatch, n, phase1_pivots):
    # the two-phase primal simplex took phase1_pivots on these LPs; n = 5 is
    # test_visibility_ghz5_mermin
    assign = seesaw(mermin(n), ghz(2, n), restarts=5, seed=1).assignment
    solves = recorded_solves(monkeypatch)
    vis = critical_visibility(ghz(2, n), NoiseSpec.white(), assign)
    assert vis.beta_star == pytest.approx(2.0 ** (-(n - 1) / 2), abs=1e-9)
    assert solves[0].pivots == MERMIN_PIVOTS[n] < phase1_pivots


CORRELATED_NOISE = DensityMatrix(d=2, n=2, matrix=np.diag([0.5, 0.0, 0.0, 0.5]))


def zx_chsh_assignment():
    """Z, X against (Z +- X)/sqrt(2): CHSH-optimal, and the noise's ZZ
    correlation counts."""
    dich = Measurement.dichotomic_from_observable
    return MeasurementAssignment(((dich(SZ), dich(SX)),
                                  (dich((SZ + SX) / SQRT2), dich((SZ - SX) / SQRT2))))


@pytest.mark.parametrize("assign, highs", [(chsh_optimal_assignment(), 0.7071067811865479),
                                           (zx_chsh_assignment(), 0.4142135623730953)],
                         ids=["xy-plane", "zx-plane"])
def test_visibility_correlated_local_noise(assign, highs):
    # (|00><00| + |11><11|)/2 is local; in the ZX plane beta* = sqrt(2) - 1
    vis = critical_visibility(ghz(2, 2), NoiseSpec.explicit(CORRELATED_NOISE), assign)
    assert vis.beta_star == pytest.approx(highs, abs=1e-7)  # HiGHS
    assert_visibility_certificates(vis, ghz(2, 2), assign, CORRELATED_NOISE)


def test_visibility_nonlocal_noise_raises(monkeypatch):
    # noise equal to the nonlocal state: no beta is local, the LP is infeasible
    solves = recorded_solves(monkeypatch)
    with pytest.raises(DomainError, match="outside the local polytope"):
        critical_visibility(ghz(2, 2), NoiseSpec.explicit(ghz(2, 2)), chsh_optimal_assignment())
    assert [res.status for res in solves] == [INFEASIBLE]


def test_visibility_ghz5_mermin(monkeypatch):
    # beta* = 2^-(n-1)/2 at the seesaw's MK5 measurements; the two-phase
    # primal simplex took 1439 pivots
    assign = seesaw(mermin(5), ghz(2, 5), restarts=5, seed=1).assignment
    solves = recorded_solves(monkeypatch)
    vis = critical_visibility(ghz(2, 5), NoiseSpec.white(), assign)
    assert vis.beta_star == pytest.approx(0.25, abs=1e-6)
    assert solves[0].pivots < 1439
    assert_visibility_certificates(vis, ghz(2, 5), assign)


@pytest.mark.parametrize("sc", [chsh().scenario, mermin(3).scenario, MIXED_SCENARIO,
                                Scenario.uniform(2, 2, 3)], ids=["chsh", "mk3", "mixed", "2x2x3"])
def test_basis_rows_span_the_vertex_rows(sc):
    d, keep = vertex_matrix(sc), polytope._lp_start(sc)[0]
    per_site = [1 + sum(len(values) - 1 for values in party) for party in sc.outcomes]
    rank = np.linalg.matrix_rank(d)
    assert keep.sum() == rank == np.linalg.matrix_rank(d[keep]) == math.prod(per_site)


def test_visibility_lp_is_stated_on_basis_rows(monkeypatch):
    shapes = []

    def recording(lp):
        shapes.append(lp.a_eq.shape)
        return simplex_max(lp)

    monkeypatch.setattr(polytope, "simplex_max", recording)
    critical_visibility(ghz(2, 3), NoiseSpec.white(), mermin3_optimal_assignment())
    # 3^3 basis rows and beta <= 1; weights, beta and its slack
    assert shapes == [(28, 2**6 + 2)]


def frame_calls():
    """(scenario, call) of is_local and critical_visibility on the Y/X MK3
    and the seed-1 MK4 assignments, the scenarios interleaved."""
    mk3, mk4 = mermin3_optimal_assignment(), mk4_assignment("ghz")

    def probe(rho, assign, beta):
        b = behavior(mix(white_noise(2, rho.n), rho, beta), assign)
        return lambda: is_local(b)

    def visibility(rho, assign):
        return lambda: critical_visibility(rho, NoiseSpec.white(), assign)

    return [("mk3", probe(ghz(2, 3), mk3, 0.3)), ("mk3", visibility(ghz(2, 3), mk3)),
            ("mk4", probe(ghz(2, 4), mk4, 0.95)), ("mk3", probe(ghz(2, 3), mk3, 0.9)),
            ("mk4", visibility(ghz(2, 4), mk4)), ("mk4", probe(ghz(2, 4), mk4, 0.2))]


def result_bytes(res):
    """beta* (None for is_local), the weights and the Farkas vector as bytes."""
    beta = getattr(res, "beta_star", None)
    farkas = res.farkas if beta is None else res.dual
    return beta, *(None if v is None else v.tobytes() for v in (res.weights, farkas))


def test_lp_frame_is_built_once_per_scenario_and_changes_no_bit(monkeypatch):
    calls = frame_calls()
    builds = []

    def counting(sc):
        builds.append(sc)
        return vertex_matrix(sc)

    monkeypatch.setattr(polytope, "vertex_matrix", counting)
    solves = recorded_solves(monkeypatch)
    alone = []
    for _, call in calls:
        polytope._FRAME.clear()
        alone.append(result_bytes(call()))
    alone_solves = [(res.pivots, res.x.tobytes(), res.dual.tobytes()) for res in solves]
    assert len(builds) == len(calls)
    builds.clear()
    solves.clear()
    polytope._FRAME.clear()
    assert [result_bytes(call()) for _, call in calls] == alone
    assert [(res.pivots, res.x.tobytes(), res.dual.tobytes()) for res in solves] == alone_solves
    # local and nonlocal answers both, so Farkas vectors are compared too
    assert {farkas is None for _, _, farkas in alone} == {True, False}
    # one build per scenario switch, not one per LP, and one frame held
    labels = [label for label, _ in calls]
    switches = 1 + sum(a != b for a, b in zip(labels, labels[1:]))
    assert len(builds) == switches < len(calls)
    sc = builds[-1]
    assert list(polytope._FRAME) == [sc]
    frame = polytope._FRAME[sc]
    keep, cols = polytope._lp_start(sc)
    start = np.append(cols, frame.d.shape[1])
    for got, want in ((frame.d, vertex_matrix(sc)), (frame.keep, keep),
                      (frame.start, start), (frame.uniform, uniform_behavior(sc).vector())):
        assert np.array_equal(got, want) and got.dtype == want.dtype
        assert not got.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            got[0] = got[0]
    # vertex_matrix still hands out a fresh, writable array
    fresh = vertex_matrix(sc)
    assert fresh.flags.writeable and not np.shares_memory(fresh, frame.d)


@pytest.mark.parametrize("beta", [0.1, 0.25])
def test_is_local_ghz4_certificate_checked(beta):
    # "local" used to come with weights summing to between 60 and 1e14, and
    # then the phase-1 membership LP raised SolverError; beta* is 2^-1.5 here
    assign = seesaw(mermin(4), ghz(2, 4), restarts=5, seed=1).assignment
    b = behavior(mix(white_noise(2, 4), ghz(2, 4), beta), assign)
    res = is_local(b)
    assert res.is_local
    assert_local_certificate(res.weights, b.scenario, b.vector())


@pytest.mark.parametrize("case, beta", [("ghz3-yx", 0.2), ("ghz3-yx", 0.5),
                                        ("w3-mk-seed2", 0.2), ("w3-mk-seed2", 0.6)])
def test_is_local_answers_local_behaviors(case, beta):
    # ghz3-yx: the phase-1 membership LP raised LinAlgError('Singular matrix').
    # w3-mk-seed2: the visibility LP from the uniform behavior pivoted on
    # round-off into a singular basis, until pivots were taken relative to the
    # column's scale
    if case == "ghz3-yx":
        rho, assign = ghz(2, 3), mermin3_optimal_assignment()
    else:
        rho, assign = w_state(3), seesaw(mermin(3), w_state(3), restarts=5, seed=2).assignment
    b = behavior(mix(white_noise(2, 3), rho, beta), assign)
    res = is_local(b)
    assert res.is_local
    assert_local_certificate(res.weights, b.scenario, b.vector())
