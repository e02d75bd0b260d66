import dataclasses
import itertools
import math

import numpy as np
import pytest

from helpers import (
    MIXED_SCENARIO,
    SX,
    SY,
    chsh_optimal_assignment,
    mermin3_optimal_assignment,
)

from belltol import polytope
from belltol.errors import ResourceCapError, SolverError
from belltol.polytope import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    LinearProgram,
    SimplexResult,
    critical_visibility,
    functional_row_vector,
    is_local,
    lhv_bounds_lp,
    separating_functional,
    simplex_max,
    vertex_matrix,
)
from belltol.qvalue import Measurement, MeasurementAssignment, behavior, evaluate, seesaw
from belltol.scenario import (
    Scenario,
    basis_rows,
    chsh,
    deterministic_behavior,
    enumerate_strategies,
    lhv_bounds,
    mermin,
    uniform_behavior,
)
from belltol.states import NoiseSpec, ghz, mix, product_zero, w_state, white_noise

SQRT2 = math.sqrt(2.0)


def lp(c, a, b):
    return LinearProgram(c=np.asarray(c, float), a_eq=np.asarray(a, float),
                         b_eq=np.asarray(b, float))


def test_simplex_single_variable():
    res = simplex_max(lp([1.0], [[1.0]], [1.0]))
    assert res.status == OPTIMAL
    assert res.objective == pytest.approx(1.0, abs=1e-12)


def test_simplex_two_variables():
    res = simplex_max(lp([1.0, 1.0], [[1.0, 1.0]], [1.0]))
    assert res.status == OPTIMAL
    assert res.objective == pytest.approx(1.0, abs=1e-12)


def test_simplex_infeasible():
    res = simplex_max(lp([1.0], [[1.0], [1.0]], [1.0, 2.0]))
    assert res.status == INFEASIBLE
    assert res.x is None and res.dual is None


def test_simplex_unbounded():
    res = simplex_max(lp([1.0, 0.0], [[1.0, -1.0]], [0.0]))
    assert res.status == UNBOUNDED


def test_simplex_negative_rhs():
    # -x - y = -1 is x + y = 1 after row normalization
    res = simplex_max(lp([2.0, 1.0], [[-1.0, -1.0]], [-1.0]))
    assert res.status == OPTIMAL
    assert res.objective == pytest.approx(2.0, abs=1e-9)


def assert_optimal_dual(res, c, a, b):
    """The returned dual is feasible and closes the duality gap."""
    assert res.dual.shape == (a.shape[0],)
    assert np.all(res.dual @ a >= c - 1e-8)
    assert float(res.dual @ b) == pytest.approx(res.objective, abs=1e-8)


def test_simplex_redundant_rows():
    # the simplex needs full row rank: a dependent row leaves an artificial
    # column basic that nothing replaces, which is an error, not a row drop
    c, a, b = np.array([1.0, 1.0]), np.array([[1.0, 1.0], [2.0, 2.0]]), np.array([1.0, 2.0])
    with pytest.raises(SolverError, match="depends"):
        simplex_max(lp(c, a, b))


def brute_force_lp_max(c, a, b, tol=1e-9):
    """Vertex-scan oracle: all basic solutions of Ax = b, x >= 0."""
    m, n = a.shape
    best = None
    for cols in itertools.combinations(range(n), m):
        sub = a[:, cols]
        if abs(np.linalg.det(sub)) < 1e-12:
            continue
        x_b = np.linalg.solve(sub, b)
        if np.min(x_b) < -tol:
            continue
        x = np.zeros(n)
        x[list(cols)] = x_b
        val = float(c @ x)
        if best is None or val > best:
            best = val
    return best


def random_lps():
    """Random LPs, feasible by construction."""
    rng = np.random.default_rng(13)
    shapes = [(int(rng.integers(2, 5)), int(rng.integers(6, 12))) for _ in range(25)]
    shapes += [(2, 50), (3, 30), (2, 40)]  # wider instances, small bases
    for m, n in shapes:
        a = rng.standard_normal((m, n))
        b = a @ rng.uniform(0.0, 1.0, n)
        yield lp(rng.standard_normal(n), a, b)


def test_simplex_random_lps_against_vertex_scan():
    for problem in random_lps():
        c, a, b = problem.c, problem.a_eq, problem.b_eq
        res = simplex_max(problem)
        oracle = brute_force_lp_max(c, a, b)
        if res.status == UNBOUNDED:
            # oracle cannot certify unboundedness; skip the comparison
            continue
        assert res.status == OPTIMAL
        assert oracle is not None
        assert res.objective == pytest.approx(oracle, abs=1e-8)
        # primal feasibility of the returned solution
        assert np.allclose(a @ res.x, b, atol=1e-8)
        assert np.min(res.x) >= -1e-9
        assert_optimal_dual(res, c, a, b)


def reference_pivot(tab, row, col):
    """The pivot as it was written first: u recomputed, b_inv rebuilt."""
    u = tab.b_inv @ tab.a_ext[:, col]
    piv = u[row]
    tab.basis[row] = col
    eta = -u / piv
    eta[row] = 1.0 / piv - 1.0
    tab.b_inv = tab.b_inv + np.outer(eta, tab.b_inv[row])
    tab.x_b = tab.x_b + eta * tab.x_b[row]
    tab.pivots += 1
    if tab.pivots % polytope.REFACTOR_EVERY == 0:
        tab.refactor()


def reference_leaving_row(tab, u):
    """The ratio test with Bland's tie-break, as a plain loop over every row."""
    best_row, best_ratio, best_var = -1, np.inf, np.inf
    piv_tol = polytope.DEFAULT_LP_TOL * max(1.0, float(np.max(np.abs(u))))
    for i in range(tab.m):
        if u[i] > piv_tol:
            ratio = tab.x_b[i] / u[i]
            if ratio < best_ratio - 1e-15 or (
                abs(ratio - best_ratio) <= 1e-15 and tab.basis[i] < best_var
            ):
                best_row, best_ratio, best_var = i, ratio, tab.basis[i]
    return best_row, best_ratio


def reference_run(tab, cost, eligible, bland_only=False):
    """The largest reduced cost enters; after m degenerate pivots in a row the
    first improving column does, until a pivot makes progress. Plain loops
    over the columns and the rows; bland_only takes the first improving
    column always, which is the rule the simplex had first."""
    stalled = 0
    while True:
        y = cost[tab.basis] @ tab.b_inv
        reduced = cost[:eligible] - y @ tab.a_ext[:, :eligible]
        basic = set(tab.basis.tolist())
        bland = bland_only or stalled >= tab.m
        entering = -1
        for j in np.flatnonzero(reduced > polytope.DEFAULT_LP_TOL):
            if int(j) in basic:
                continue
            if entering < 0 or reduced[j] > reduced[entering]:
                entering = int(j)
            if bland:
                break
        if entering < 0:
            return OPTIMAL
        if bland and not bland_only:
            tab.bland_pivots += 1
        u = tab.b_inv @ tab.a_ext[:, entering]
        best_row, best_ratio = reference_leaving_row(tab, u)
        if best_row < 0:
            return UNBOUNDED
        stalled = stalled + 1 if best_ratio <= 0.0 else 0
        reference_pivot(tab, best_row, entering)
        tab.x_b = np.maximum(tab.x_b, 0.0)


def solve_counting_pivots(monkeypatch, problem, reference=None):
    """Solve with the simplex, or with reference_run and reference_pivot when
    reference is "dantzig" or "bland"; returns the result and the tableau."""
    tableaus = []

    class Recording(polytope._Tableau):
        def __init__(self, a, b):
            super().__init__(a, b)
            self.bland_pivots = 0
            tableaus.append(self)

        if reference is not None:
            def run(self, cost, eligible):
                return reference_run(self, cost, eligible, bland_only=reference == "bland")

            def pivot(self, row, col, u):
                reference_pivot(self, row, col)

    with monkeypatch.context() as patch:
        patch.setattr(polytope, "_Tableau", Recording)
        res = simplex_max(problem)
    return res, tableaus[0]


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


def test_simplex_keeps_the_reference_pivots(monkeypatch):
    problems = [visibility_lp(monkeypatch, lambda n=n: critical_visibility(
        ghz(2, n), NoiseSpec.white(), yx_assignment(n))) for n in (3, 4)]
    # this membership LP stalls into the first-improving-column rule
    mixed = behavior(mix(white_noise(2, 3), ghz(2, 3), 0.2), yx_assignment(3))
    problems.append(visibility_lp(monkeypatch, lambda: is_local(mixed)))
    bland_pivots = 0
    for problem in problems + list(random_lps()):
        got, tab = solve_counting_pivots(monkeypatch, problem)
        want, want_tab = solve_counting_pivots(monkeypatch, problem, reference="dantzig")
        assert got.status == want.status and tab.pivots == want_tab.pivots
        bland_pivots += want_tab.bland_pivots
        if want.status == OPTIMAL:
            assert np.array_equal(got.x, want.x) and np.array_equal(got.dual, want.dual)
            # degenerate LPs may stop at another optimal vertex, at the same objective
            bland, _ = solve_counting_pivots(monkeypatch, problem, reference="bland")
            assert got.objective == pytest.approx(bland.objective, abs=1e-9)
    assert bland_pivots > 0


def test_simplex_pivot_limit_raises(monkeypatch):
    # the Y/X visibility LP of ghz(2, 4) takes 496 pivots, 82 x 258 gives 340
    monkeypatch.setattr(polytope, "PIVOT_LIMIT_PER_DIM", 1)
    with pytest.raises(SolverError, match="limit of 340 pivots"):
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
    for col, strat in enumerate(enumerate_strategies(sc)):
        b = deterministic_behavior(sc, strat)
        res = is_local(b)
        assert res.is_local
        assert res.weights is not None
        assert abs(res.weights.sum() - 1.0) <= 1e-8
        # a vertex is no mixture of other vertices: all weight is on its own column
        assert abs(res.weights[col] - 1.0) <= 1e-10


def test_uniform_behavior_local():
    assert is_local(uniform_behavior(chsh().scenario)).is_local


def test_bell_optimal_behavior_nonlocal():
    b = behavior(ghz(2, 2), chsh_optimal_assignment())
    res = is_local(b)
    assert not res.is_local
    assert res.farkas is not None


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
    strategies = list(enumerate_strategies(sc))
    assert d.shape[1] == len(strategies)
    for col, strat in zip(d.T, strategies):
        assert np.array_equal(col, deterministic_behavior(sc, strat).vector())


def test_lhv_lp_cross_check():
    for f in (chsh(), mermin(3)):
        sup, inf = lhv_bounds_lp(f)
        b = lhv_bounds(f)
        assert sup == pytest.approx(b.sup, abs=1e-9)
        assert inf == pytest.approx(b.inf, abs=1e-9)


def test_lhv_lp_cross_check_random_scenarios():
    rng = np.random.default_rng(31)
    shapes = [(2, 2, 2), (2, 2, 3), (3, 2, 2), (2, 3, 2), (2, 2, 4)]
    from belltol.scenario import BellFunctional

    for sc in [Scenario.uniform(*shape) for shape in shapes] + [MIXED_SCENARIO]:
        coeffs = {
            s: rng.uniform(-1.0, 1.0, sc.outcome_counts(s))
            for s in sc.joint_settings()
        }
        f = BellFunctional(sc, coeffs)
        sup, inf = lhv_bounds_lp(f)
        b = lhv_bounds(f)
        assert sup == pytest.approx(b.sup, abs=1e-9)
        assert inf == pytest.approx(b.inf, abs=1e-9)


def test_visibility_bell_state():
    vis = critical_visibility(ghz(2, 2), NoiseSpec.white(), chsh_optimal_assignment())
    assert vis.beta_star == pytest.approx(1.0 / SQRT2, abs=1e-6)
    assert vis.certificate_kind == "local-weights"
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


def test_phase1_failure_raises(monkeypatch):
    # phase 1 is bounded by 0; a run that reports otherwise is a numerical failure
    monkeypatch.setattr(polytope._Tableau, "run", lambda self, cost, eligible: UNBOUNDED)
    with pytest.raises(SolverError, match="phase 1"):
        is_local(behavior(ghz(2, 2), chsh_optimal_assignment()))
    with pytest.raises(SolverError, match="phase 1"):
        critical_visibility(ghz(2, 2), NoiseSpec.white(), chsh_optimal_assignment())


def test_lhv_bounds_lp_not_optimal_raises(monkeypatch):
    # the extremum LP over a nonempty polytope is always optimal; a solve that
    # reports otherwise must raise, also under python -O
    monkeypatch.setattr(polytope, "simplex_max", lambda lp: SimplexResult(INFEASIBLE))
    with pytest.raises(SolverError, match="infeasible"):
        lhv_bounds_lp(chsh())


def test_visibility_monotone_in_beta():
    assign = chsh_optimal_assignment()
    vis = critical_visibility(ghz(2, 2), NoiseSpec.white(), assign)
    for beta in (0.0, 0.3, vis.beta_star - 1e-4):
        mixed = mix(white_noise(2, 2), ghz(2, 2), beta)
        assert is_local(behavior(mixed, assign)).is_local
    above = mix(white_noise(2, 2), ghz(2, 2), min(vis.beta_star + 1e-3, 1.0))
    assert not is_local(behavior(above, assign)).is_local


def test_functional_row_vector_order_matches_behavior():
    f = chsh()
    b = behavior(ghz(2, 2), chsh_optimal_assignment())
    assert float(functional_row_vector(f) @ b.vector()) == pytest.approx(
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


def assert_visibility_certificates(vis, rho, assign):
    """The weights rebuild the behavior at beta*, and the dual's functional
    stays within its LHV bound, -dual[-1], and exceeds it on rho."""
    mixed = mix(white_noise(rho.d, rho.n), rho, vis.beta_star)
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


def test_visibility_ghz5_mermin():
    # beta* = 2^-(n-1)/2 at the seesaw's MK5 measurements
    assign = seesaw(mermin(5), ghz(2, 5), restarts=5, seed=1).assignment
    vis = critical_visibility(ghz(2, 5), NoiseSpec.white(), assign)
    assert vis.beta_star == pytest.approx(0.25, abs=1e-6)
    assert_visibility_certificates(vis, ghz(2, 5), assign)


@pytest.mark.parametrize("sc", [chsh().scenario, mermin(3).scenario, MIXED_SCENARIO,
                                Scenario.uniform(2, 2, 3)], ids=["chsh", "mk3", "mixed", "2x2x3"])
def test_basis_rows_span_the_vertex_rows(sc):
    d, keep = vertex_matrix(sc), basis_rows(sc)
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
