import itertools
import math

import numpy as np
import pytest

from helpers import MIXED_SCENARIO, chsh_optimal_assignment, mermin3_optimal_assignment

from belltol.errors import ResourceCapError, SolverError
from belltol.polytope import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    LinearProgram,
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


def test_simplex_infeasible_with_farkas():
    res = simplex_max(lp([1.0], [[1.0], [1.0]], [1.0, 2.0]))
    assert res.status == INFEASIBLE
    a = np.array([[1.0], [1.0]])
    b = np.array([1.0, 2.0])
    assert np.all(res.farkas @ a <= 1e-9)
    assert res.farkas @ b > 1e-9


def test_simplex_unbounded():
    res = simplex_max(lp([1.0, 0.0], [[1.0, -1.0]], [0.0]))
    assert res.status == UNBOUNDED


def test_simplex_negative_rhs():
    # -x - y = -1 is x + y = 1 after row normalization
    res = simplex_max(lp([2.0, 1.0], [[-1.0, -1.0]], [-1.0]))
    assert res.status == OPTIMAL
    assert res.objective == pytest.approx(2.0, abs=1e-9)


def test_simplex_redundant_rows():
    res = simplex_max(lp([1.0, 1.0], [[1.0, 1.0], [2.0, 2.0]], [1.0, 2.0]))
    assert res.status == OPTIMAL
    assert res.objective == pytest.approx(1.0, abs=1e-9)


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


def test_vertex_soundness():
    sc = chsh().scenario
    for strat in enumerate_strategies(sc):
        b = deterministic_behavior(sc, strat)
        res = is_local(b, tol=1e-10)
        assert res.is_local
        assert res.weights is not None
        assert abs(res.weights.sum() - 1.0) <= 1e-8


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
        vertex_matrix(Scenario.uniform(3, 3, 4), cap=100)


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
    vis = critical_visibility(ghz(2, 2), NoiseSpec.white(), chsh_optimal_assignment())
    assert vis.dual is not None
    g = separating_functional(vis.scenario, vis.dual)
    mixed = mix(white_noise(2, 2), ghz(2, 2), vis.beta_star + vis.dual_step)
    val = evaluate(g, behavior(mixed, chsh_optimal_assignment()))
    assert val > lhv_bounds(g).sup


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
    # the native simplex once returned beta* = 1.0 here, with weights summing to 6
    assign = seesaw(mermin(3), w_state(3), restarts=5, seed=2).assignment
    try:
        vis = critical_visibility(w_state(3), NoiseSpec.white(), assign)
    except SolverError:
        return
    assert vis.beta_star != 1.0
    mixed = mix(white_noise(2, 3), w_state(3), vis.beta_star)
    assert_local_certificate(vis.weights, vis.scenario, behavior(mixed, assign).vector())


@pytest.mark.parametrize("beta", [0.1, 0.25])
def test_is_local_ghz4_certificate_checked(beta):
    # "local" used to come with weights summing to between 60 and 1e14
    assign = seesaw(mermin(4), ghz(2, 4), restarts=5, seed=1).assignment
    b = behavior(mix(white_noise(2, 4), ghz(2, 4), beta), assign)
    try:
        res = is_local(b)
    except SolverError:
        return
    if res.is_local:
        assert_local_certificate(res.weights, b.scenario, b.vector())
