import dataclasses
import itertools
import math

import numpy as np
import pytest

from helpers import MIXED_SCENARIO, chsh_optimal_assignment, mermin3_optimal_assignment

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
from belltol.qvalue import behavior, evaluate, seesaw
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


def test_simplex_random_lps_against_vertex_scan():
    rng = np.random.default_rng(13)
    shapes = [(int(rng.integers(2, 5)), int(rng.integers(6, 12))) for _ in range(25)]
    shapes += [(2, 50), (3, 30), (2, 40)]  # wider instances, small bases
    for m, n in shapes:
        a = rng.standard_normal((m, n))
        x0 = rng.uniform(0.0, 1.0, n)  # feasible by construction
        b = a @ x0
        c = rng.standard_normal(n)
        res = simplex_max(lp(c, a, b))
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
    monkeypatch.setattr(polytope._Tableau, "run_bland", lambda self, cost, eligible: UNBOUNDED)
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
