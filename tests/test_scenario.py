import itertools
import math

import numpy as np
import pytest

from helpers import MIXED_SCENARIO

from belltol.errors import DomainError, ResourceCapError, ValidationError
from belltol.scenario import (
    GRID_BLOCK,
    Behavior,
    LhvBounds,
    BellFunctional,
    Scenario,
    chsh,
    default_outcome_grid,
    deterministic_behavior,
    enumerate_strategies,
    extend_with_passive_parties,
    lhv_bounds,
    mermin,
    product_expectation_functional,
    strategy_count,
    uniform_behavior,
)


def brute_force_lhv(f):
    """Independent oracle: explicit loop over all outcome-index choices."""
    sc = f.scenario
    choices = [
        [list(range(len(vals))) for vals in party] for party in sc.outcomes
    ]
    flat = [c for party in choices for c in party]
    best, worst = -math.inf, math.inf
    for combo in itertools.product(*flat):
        strategy, pos = [], 0
        for party in choices:
            strategy.append(tuple(combo[pos:pos + len(party)]))
            pos += len(party)
        v = sum(
            float(f.coeffs[s][tuple(strategy[p][s_p] for p, s_p in enumerate(s))])
            for s in sc.joint_settings()
        )
        best, worst = max(best, v), min(worst, v)
    return best, worst


def test_enumeration_counts():
    assert strategy_count(chsh().scenario) == 16
    assert len(list(enumerate_strategies(chsh().scenario))) == 16
    sc3 = Scenario.uniform(3, 2, values=(1.0, -1.0))
    assert len(list(enumerate_strategies(sc3))) == 64
    sc1 = Scenario(((((1.0,),),)))
    assert list(enumerate_strategies(sc1)) == [((0,),)]


def test_enumeration_unique_and_lexicographic():
    sc = Scenario.uniform(2, 2, values=(1.0, -1.0))
    got = list(enumerate_strategies(sc))
    flat = [tuple(i for party in s for i in party) for s in got]
    assert flat == sorted(flat)
    assert len(set(got)) == len(got)


def test_enumeration_cap():
    sc = Scenario.uniform(3, 4, 4)
    with pytest.raises(ResourceCapError, match="enumeration infeasible"):
        list(enumerate_strategies(sc, cap=1000))


def test_chsh_lhv_bounds():
    b = lhv_bounds(chsh())
    assert (b.sup, b.inf, b.b_lhv) == (2.0, -2.0, 2.0)
    assert brute_force_lhv(chsh()) == (2.0, -2.0)


def test_mermin_lhv_bounds():
    for n in range(3, 8):
        b = lhv_bounds(mermin(n))
        assert (b.sup, b.inf, b.b_lhv) == (2.0, -2.0, 2.0)
    assert brute_force_lhv(mermin(3)) == (2.0, -2.0)


def test_lhv_bounds_equal_value_at_loop():
    # each strategy's tables are added in value_at's order, so the extrema are
    # equal to the loop's, not merely close
    rng = np.random.default_rng(7)
    for sc in (Scenario.uniform(2, 2, 3), Scenario.uniform(3, 2, 2), MIXED_SCENARIO):
        f = BellFunctional(sc, {
            s: rng.uniform(-1.0, 1.0, sc.outcome_counts(s)) for s in sc.joint_settings()
        })
        values = [f.value_at(strat) for strat in enumerate_strategies(sc)]
        b = lhv_bounds(f)
        assert (b.sup, b.inf) == (max(values), min(values))


def test_lhv_bounds_cap():
    with pytest.raises(ResourceCapError, match="enumeration infeasible"):
        lhv_bounds(mermin(4), cap=100)


def test_lhv_bounds_blocked_grid():
    # 2048 x 2048 strategies: the grid is evaluated in several blocks
    sc = Scenario.uniform(2, 1, 2048)
    assert strategy_count(sc) > GRID_BLOCK
    table = np.random.default_rng(3).uniform(-1.0, 1.0, (2048, 2048))
    b = lhv_bounds(BellFunctional(sc, {(0, 0): table}))
    assert (b.sup, b.inf) == (table.max(), table.min())


def test_constant_functional():
    sc = Scenario(((((1.0,),), ((1.0,),))))
    f = BellFunctional(sc, {(0, 0): np.ones((1, 1))})
    b = lhv_bounds(f)
    assert (b.sup, b.inf, b.b_lhv) == (1.0, 1.0, 1.0)


def test_violation_against_lhv_range():
    # distance from the middle of [inf, sup] in units of its half-width
    b = LhvBounds(sup=5.0, inf=1.0)
    assert b.b_lhv == 5.0
    assert [b.violation(v) for v in (3.0, 5.0, 7.0, -1.0)] == [0.0, 1.0, 2.0, 2.0]
    # a symmetric range gives |value| / b_lhv exactly
    sym = LhvBounds(sup=2.0, inf=-2.0)
    assert sym.violation(-2.0 * math.sqrt(2.0)) == 2.0 * math.sqrt(2.0) / 2.0


def test_mermin2_equals_chsh():
    c, m = chsh(), mermin(2)
    for s in c.coeffs:
        assert np.allclose(m.coeffs[s], c.coeffs[s], atol=1e-15)


def test_chsh_on_all_plus_one_strategy():
    f = chsh()
    all_plus = (((0, 0), (0, 0)))  # outcome index 0 carries value +1
    assert f.value_at(all_plus) == 2.0


def test_chsh_on_uniform_behavior():
    from belltol.qvalue import evaluate

    assert abs(evaluate(chsh(), uniform_behavior(chsh().scenario))) <= 1e-12


def test_lhv_scaling():
    f = chsh()
    b = lhv_bounds(f)
    up = lhv_bounds(f.scaled(2.5))
    assert (up.sup, up.inf) == (2.5 * b.sup, 2.5 * b.inf)
    down = lhv_bounds(f.scaled(-1.0))
    assert (down.sup, down.inf) == (-b.inf, -b.sup)


def test_product_expectation_full_subset():
    sc = Scenario.uniform(2, 2, values=(1.0, -1.0))
    f = product_expectation_functional(sc, (0, 0), [0, 1])
    table = f.coeffs[(0, 0)]
    assert np.array_equal(table, np.array([[1.0, -1.0], [-1.0, 1.0]]))
    assert np.all(f.coeffs[(0, 1)] == 0)
    assert lhv_bounds(f).sup == 1.0


def test_product_expectation_single_party():
    sc = Scenario(((((1.0,),),)))
    f = product_expectation_functional(sc, (0,), [0])
    assert lhv_bounds(f).sup == 1.0


def test_product_expectation_marginal():
    sc = Scenario.uniform(2, 2, values=(1.0, -1.0))
    f = product_expectation_functional(sc, (0, 0), [0])
    table = f.coeffs[(0, 0)]
    # constant along party 1's axis
    assert np.array_equal(table[:, 0], table[:, 1])
    assert np.array_equal(table[:, 0], np.array([1.0, -1.0]))


def test_product_expectation_errors():
    sc = Scenario.uniform(2, 2, values=(1.0, -1.0))
    with pytest.raises(DomainError):
        product_expectation_functional(sc, (0, 0), [])
    with pytest.raises(DomainError):
        product_expectation_functional(sc, (0, 5), [0])


def test_extend_with_passive_parties():
    f = extend_with_passive_parties(chsh(), 1)
    assert f.scenario.parties == 3
    assert f.scenario.settings == (2, 2, 1)
    b = lhv_bounds(f)
    assert (b.sup, b.inf, b.b_lhv) == (2.0, -2.0, 2.0)


def test_functional_json_roundtrip(tmp_path):
    f = mermin(3)
    path = tmp_path / "f.json"
    f.save(str(path))
    back = BellFunctional.load(str(path))
    assert back.scenario == f.scenario
    for s in f.coeffs:
        assert np.allclose(back.coeffs[s], f.coeffs[s])
    assert back.label == "mermin3"


def test_scenario_validation():
    with pytest.raises(ValidationError):
        Scenario((((2.0, -1.0),),))  # outcome value out of range
    with pytest.raises(DomainError):
        Scenario(())
    assert default_outcome_grid(2) == (-1.0, 1.0)
    assert default_outcome_grid(3) == (-1.0, 0.0, 1.0)


def test_functional_table_shape_checked():
    sc = Scenario.uniform(2, 2, values=(1.0, -1.0))
    bad = {s: np.zeros((3, 3)) for s in sc.joint_settings()}
    with pytest.raises(ValidationError):
        BellFunctional(sc, bad)


def test_behavior_validation():
    sc = Scenario.uniform(2, 2, values=(1.0, -1.0))
    tables = {s: np.full((2, 2), 0.25) for s in sc.joint_settings()}
    Behavior(sc, tables)  # uniform is fine

    bad = {s: np.full((2, 2), 0.25) for s in sc.joint_settings()}
    bad[(0, 0)] = np.array([[0.5, 0.5], [0.25, -0.25]])
    with pytest.raises(ValidationError):
        Behavior(sc, bad)

    # signaling: party 0's marginal depends on party 1's setting
    sig = {s: np.full((2, 2), 0.25) for s in sc.joint_settings()}
    sig[(0, 0)] = np.array([[0.5, 0.0], [0.0, 0.5]])
    sig[(0, 1)] = np.array([[0.5, 0.5], [0.0, 0.0]])
    with pytest.raises(ValidationError, match="signaling"):
        Behavior(sc, sig)


def test_deterministic_behavior_is_point_mass():
    sc = chsh().scenario
    strat = ((0, 1), (1, 0))
    b = deterministic_behavior(sc, strat)
    assert b.tables[(0, 1)][0, 0] == 1.0
    assert b.tables[(1, 0)][1, 1] == 1.0
    assert all(abs(t.sum() - 1.0) < 1e-15 for t in b.tables.values())
