import functools
import itertools
import math
import re
import types

import numpy as np
import pytest

from helpers import (
    MIXED_SCENARIO,
    SINGLE_OUTCOME_SCENARIO,
    deterministic_behavior,
    slot_shape,
    summation_bound,
)

from belltol import scenario
from belltol.errors import DomainError, ResourceCapError, ValidationError
from belltol.scenario import (
    GRID_BLOCK,
    Behavior,
    LhvBounds,
    BellFunctional,
    Scenario,
    chsh,
    default_outcome_grid,
    extend_with_passive_parties,
    grid_shape,
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
    assert strategy_count(Scenario.uniform(3, 2, values=(1.0, -1.0))) == 64
    assert strategy_count(Scenario(((((1.0,),),)))) == 1


def test_chsh_lhv_bounds():
    b = lhv_bounds(chsh())
    assert (b.sup, b.inf, b.b_lhv) == (2.0, -2.0, 2.0)
    assert brute_force_lhv(chsh()) == (2.0, -2.0)


def test_mermin_lhv_bounds():
    # dyadic coefficients sum exactly in any order
    for n in range(3, 11):
        b = lhv_bounds(mermin(n))
        assert (b.sup, b.inf, b.b_lhv) == (2.0, -2.0, 2.0)
    assert brute_force_lhv(mermin(3)) == (2.0, -2.0)


def random_functional(sc, rng):
    return BellFunctional.from_tables(sc, {
        s: rng.uniform(-1.0, 1.0, sc.outcome_counts(s)) for s in sc.joint_settings()
    })


def value_at_grid(f):
    """The functional's value on the whole strategy grid: from 0.0, each
    joint setting's table added in turn, spread over the grid."""
    sc = f.scenario
    values = np.zeros(grid_shape(sc))
    for s, table in f.coeffs.items():
        values += table.reshape(slot_shape(sc, s))
    return values


def test_lhv_bounds_equal_brute_force_loop(monkeypatch):
    # a cell sums the loop's J entries in another order, so the extrema agree
    # with the loop's within the summation bound, and need not be equal
    rng = np.random.default_rng(7)
    for sc, block in [
        (Scenario.uniform(2, 2, 3), GRID_BLOCK),
        (Scenario.uniform(3, 2, 2), GRID_BLOCK),
        (MIXED_SCENARIO, GRID_BLOCK),
        (SINGLE_OUTCOME_SCENARIO, GRID_BLOCK),
        # 9 strategies and 6 slots per site: site 0 fixed a strategy at a
        # time, site 1's first setting cut into runs of 1
        (Scenario.uniform(3, 2, 3), 50),
        # one-strategy boxes over sites whose settings have one outcome
        (SINGLE_OUTCOME_SCENARIO, 1),
        (SINGLE_OUTCOME_SCENARIO, 5),
    ]:
        monkeypatch.setattr(scenario, "GRID_BLOCK", block)
        f = random_functional(sc, rng)
        sup, inf = brute_force_lhv(f)
        # the grid and the loop add the tables in the same order
        values = value_at_grid(f)
        assert (values.max(), values.min()) == (sup, inf)
        b = lhv_bounds(f)
        assert abs(b.sup - sup) <= summation_bound(f)
        assert abs(b.inf - inf) <= summation_bound(f)


@pytest.mark.parametrize("sc, block", [
    # 4 strategies and slots per site: block 12 fixes site 0, which enters
    # as views of the slot grid, and cuts site 1's first setting into runs of
    # 1; block 40 cuts site 0's first setting into runs of 1
    (Scenario.uniform(3, 2, 2), 12),
    (Scenario.uniform(3, 2, 2), 40),
    (Scenario.uniform(3, 2, 2), GRID_BLOCK),
    # site 1's 8 strategies read 3 of its 6 slots each: one box
    (Scenario((((1.0, -1.0),), ((1.0, -1.0),) * 3)), 20),
    # one site of 32 strategies: its first setting fixed, its second cut
    # into runs of 1, the other three whole
    (Scenario.uniform(1, 5), 8),
    # 6 x 6 strategies: site 0's setting cut into runs of 3
    (Scenario.uniform(2, 1, 6), 18),
    # every box one strategy: each site enters as views
    (Scenario.uniform(2, 2, 2), 1),
    # site 0 fixed whole; site 1's 2-outcome setting cut into runs of 1 and
    # its 4-outcome setting whole
    (MIXED_SCENARIO, 7),
    # site 1's 4 slots hold its one strategy: a run of site 0's strategies
    # would enter site 1 as 2 x 4 cells, so site 0 is fixed whole
    (Scenario((((1.0, -1.0),) * 2, ((1.0,),) * 4)), 2),
], ids=["fix-site-0", "chunk-site-0", "whole", "long-rule", "cut-in-site", "run-on-cut",
        "one-strategy", "mixed", "wide-slots"])
def test_lhv_bounds_blocks_reach_every_strategy(sc, block, monkeypatch):
    # a point-mass functional is J on its own strategy and less elsewhere,
    # no array the site sum adds into has more than GRID_BLOCK cells, and a
    # random functional's boxed extrema agree with its one-box extrema
    f = random_functional(sc, np.random.default_rng(11))
    whole = lhv_bounds(f)
    monkeypatch.setattr(scenario, "GRID_BLOCK", block)
    cells = []

    def counted(a, b, out):
        cells.append(out.size)
        return np.add(a, b, out=out)

    monkeypatch.setattr(scenario, "np", types.SimpleNamespace(**{**vars(np), "add": counted}))
    joint = math.prod(sc.settings)
    for strat in itertools.product(*map(range, grid_shape(sc))):
        b = lhv_bounds(BellFunctional.from_tables(sc, deterministic_behavior(sc, strat).tables))
        assert (b.sup, b.inf) == (joint, 0.0)
    assert max(cells, default=0) <= block
    boxed = lhv_bounds(f)
    assert abs(boxed.sup - whole.sup) <= summation_bound(f)
    assert abs(boxed.inf - whole.inf) <= summation_bound(f)


def test_lhv_bounds_cap():
    sc = Scenario.uniform(2, 14)  # 2^28 strategies
    zero = BellFunctional.from_tables(
        sc, {s: np.zeros(sc.outcome_counts(s)) for s in sc.joint_settings()})
    with pytest.raises(ResourceCapError, match="enumeration infeasible"):
        lhv_bounds(zero)


def test_lhv_bounds_blocked_grid():
    # 2048 x 2048 strategies: the grid is evaluated in several blocks
    sc = Scenario.uniform(2, 1, 2048)
    assert strategy_count(sc) > GRID_BLOCK
    table = np.random.default_rng(3).uniform(-1.0, 1.0, (2048, 2048))
    b = lhv_bounds(BellFunctional.from_tables(sc, {(0, 0): table}))
    assert (b.sup, b.inf) == (table.max(), table.min())


def test_constant_functional():
    sc = Scenario(((((1.0,),), ((1.0,),))))
    f = BellFunctional.from_tables(sc, {(0, 0): np.ones((1, 1))})
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
    # outcome index 0 carries value +1
    assert value_at_grid(f)[0, 0, 0, 0] == 2.0


def test_chsh_on_uniform_behavior():
    from belltol.qvalue import evaluate

    assert abs(evaluate(chsh(), uniform_behavior(chsh().scenario))) <= 1e-12


@pytest.mark.parametrize("sc", [chsh().scenario, mermin(3).scenario, MIXED_SCENARIO,
                                Scenario.uniform(2, 2, 3)], ids=["chsh", "mk3", "mixed", "2x2x3"])
def test_uniform_behavior_equals_per_table_build(sc):
    # the grid built in one step, 1 / outer(counts), against one full table
    # of 1 / prod(m) per joint setting
    tables = {}
    for s in sc.joint_settings():
        shape = sc.outcome_counts(s)
        tables[s] = np.full(shape, 1.0 / float(np.prod(shape)))
    b = uniform_behavior(sc)
    assert np.array_equal(b.slots, Behavior.from_tables(sc, tables).slots)
    assert b.tables.keys() == tables.keys()
    assert all(np.array_equal(b.tables[s], t) for s, t in tables.items())


@pytest.mark.parametrize("sc", [MIXED_SCENARIO, SINGLE_OUTCOME_SCENARIO,
                                Scenario.uniform(3, 2, 3)], ids=["mixed", "single", "3x2x3"])
def test_product_expectation_equals_per_table_build(sc):
    # every bit, signed zeros included, of one outer product at the joint
    # setting and a +0.0 table at each other one: a 0.0 outcome value gives
    # -0.0 cells inside the block, and none may leak out of it
    for target in sc.joint_settings():
        for subset in (range(sc.parties), [0]):
            tables = {s: np.zeros(sc.outcome_counts(s)) for s in sc.joint_settings()}
            tables[target] = functools.reduce(np.multiply.outer, [
                sc.outcomes[p][s] if p in subset else np.ones(len(sc.outcomes[p][s]))
                for p, s in enumerate(target)])
            f = product_expectation_functional(sc, target, subset)
            ref = BellFunctional.from_tables(sc, tables).slots
            assert f.slots.tobytes() == ref.tobytes()


def test_mermin_and_its_scaling_equal_per_table_build():
    # weights times the outer product of +/-1 values, table by table, then
    # each table scaled: every bit, signed zeros included
    for n in range(2, 6):
        f = mermin(n)
        w = 2.0 * scenario._mk_weights(n)
        tables = {}
        for s in f.scenario.joint_settings():
            values = [f.scenario.outcomes[p][s_p] for p, s_p in enumerate(s)]
            tables[s] = w[s] * functools.reduce(np.multiply.outer, values)
        for got, want in ((f, tables), (f.scaled(0.37), {s: 0.37 * t for s, t in tables.items()})):
            ref = BellFunctional.from_tables(f.scenario, want).slots
            assert got.slots.tobytes() == ref.tobytes()


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


@pytest.mark.parametrize("build", [
    chsh, lambda: mermin(4).scaled(-0.5), lambda: extend_with_passive_parties(chsh(), 2),
    lambda: product_expectation_functional(MIXED_SCENARIO, (1, 0), [0, 1]),
    lambda: uniform_behavior(MIXED_SCENARIO),
    lambda: deterministic_behavior(chsh().scenario, (0, 1, 1, 0)),
], ids=["chsh", "scaled", "passive", "product", "uniform", "from-tables"])
def test_objects_hold_only_their_slot_grid(build):
    # the tables are views derived from the one stored grid, read-only with it
    obj = build()
    views = obj.coeffs if isinstance(obj, BellFunctional) else obj.tables
    assert set(vars(obj)) <= {"scenario", "slots", "label"}
    assert not obj.slots.flags.writeable and obj.slots.flags.c_contiguous
    assert list(views) == list(obj.scenario.joint_settings())
    for s, view in views.items():
        assert np.shares_memory(view, obj.slots) and not view.flags.writeable
        assert view.shape == obj.scenario.outcome_counts(s)


def test_constructor_keeps_a_c_order_float_grid():
    sc = Scenario.uniform(2, 2, values=(1.0, -1.0))
    g = np.arange(16.0).reshape(4, 4)
    f = BellFunctional(sc, g, "kept")
    assert f.slots is g and not g.flags.writeable and f.label == "kept"
    u = np.full((4, 4), 0.25)
    assert Behavior(sc, u).slots is u and not u.flags.writeable


@pytest.mark.parametrize("grid", [
    np.arange(16.0).reshape(4, 4).tolist(), np.arange(16).reshape(4, 4),
    np.asfortranarray(np.arange(16.0).reshape(4, 4)),
], ids=["list", "int", "fortran"])
def test_constructor_copies_any_other_grid(grid):
    sc = Scenario.uniform(2, 2, values=(1.0, -1.0))
    f = BellFunctional(sc, grid)
    assert f.slots is not grid and f.slots.dtype == np.float64
    assert f.slots.flags.c_contiguous and not f.slots.flags.writeable
    assert np.array_equal(f.slots, np.arange(16.0).reshape(4, 4))
    if isinstance(grid, np.ndarray):
        assert grid.flags.writeable


def test_constructor_checks_shape_and_finiteness():
    sc = Scenario.uniform(2, 2, values=(1.0, -1.0))
    shapes = re.escape("slot grid has shape (2, 2), expected (4, 4)")
    with pytest.raises(ValidationError, match=shapes):
        BellFunctional(sc, np.zeros((2, 2)))
    g = np.full((4, 4), 0.25)
    g[2, 1] = np.nan  # site 0's setting 1, site 1's setting 0
    with pytest.raises(ValidationError, match=re.escape("joint setting (1, 0) has non-finite")):
        Behavior(sc, g)


def test_functional_table_shape_checked():
    sc = Scenario.uniform(2, 2, values=(1.0, -1.0))
    bad = {s: np.zeros((3, 3)) for s in sc.joint_settings()}
    with pytest.raises(ValidationError):
        BellFunctional.from_tables(sc, bad)


def test_behavior_validation():
    sc = Scenario.uniform(2, 2, values=(1.0, -1.0))
    tables = {s: np.full((2, 2), 0.25) for s in sc.joint_settings()}
    Behavior.from_tables(sc, tables)  # uniform is fine

    bad = {s: np.full((2, 2), 0.25) for s in sc.joint_settings()}
    bad[(0, 0)] = np.array([[0.5, 0.5], [0.25, -0.25]])
    with pytest.raises(ValidationError):
        Behavior.from_tables(sc, bad)

    # signaling: party 0's marginal depends on party 1's setting
    sig = {s: np.full((2, 2), 0.25) for s in sc.joint_settings()}
    sig[(0, 0)] = np.array([[0.5, 0.0], [0.0, 0.5]])
    sig[(0, 1)] = np.array([[0.5, 0.5], [0.0, 0.0]])
    with pytest.raises(ValidationError, match="signaling"):
        Behavior.from_tables(sc, sig)


def loop_check(sc, tables):
    """Reference: the distribution and nonsignaling checks one joint setting
    at a time, with Behavior's limits and error texts."""
    for s in sorted(tables):
        t = tables[s]
        if t.min() < -1e-12:
            raise ValidationError(f"negative probability {t.min():.3e} at joint setting {s}")
        if abs(float(t.sum()) - 1.0) > 1e-9:
            raise ValidationError(f"table at joint setting {s} sums to {float(t.sum())!r}")
    for party in range(sc.parties):
        others = [range(m) for p, m in enumerate(sc.settings) if p != party]
        for rest in itertools.product(*others):
            def joint(s_party):
                return rest[:party] + (s_party,) + rest[party:]

            ref = tables[joint(0)].sum(axis=party)
            for s_party in range(1, sc.settings[party]):
                diff = np.max(np.abs(tables[joint(s_party)].sum(axis=party) - ref))
                if diff > 1e-9:
                    raise ValidationError(
                        f"signaling marginal for party {party}: settings 0 vs "
                        f"{s_party} differ by {diff:.3e}"
                    )


def random_local_tables(sc, rng):
    """A mixture of three product behaviors whose local distributions are
    point masses half of the time, so that tables hold exact zeros."""
    tables = {s: np.zeros(sc.outcome_counts(s)) for s in sc.joint_settings()}
    for w in rng.dirichlet(np.ones(3)):
        local = [[np.eye(len(v))[rng.integers(len(v))] if rng.random() < 0.5
                  else rng.dirichlet(np.ones(len(v))) for v in party] for party in sc.outcomes]
        for s in tables:
            tables[s] += w * functools.reduce(
                np.multiply.outer, [local[p][s_p] for p, s_p in enumerate(s)])
    return tables


def plant(tables, rng):
    """One planted fault, on either side of its limit: a negative entry, an
    unnormalized table, or mass moved along one party's outcomes."""
    s = list(tables)[rng.integers(len(tables))]
    t = tables[s]
    kind = rng.integers(4)
    if kind == 1:
        cell = np.unravel_index(np.argmin(t), t.shape)
        x = float(rng.choice([5e-13, 2e-12, 1e-10, 1e-3]))
        t[np.unravel_index(np.argmax(t), t.shape)] += t[cell] + x
        t[cell] = -x
    elif kind == 2:
        t *= 1.0 + float(rng.choice([5e-10, 2e-9, 1e-3]))
    elif kind == 3:
        src = np.unravel_index(np.argmax(t), t.shape)
        party = int(rng.integers(t.ndim))
        dst = list(src)
        dst[party] = (dst[party] + 1) % t.shape[party]
        x = float(rng.choice([5e-10, 2e-9, 1e-3]))
        t[src] -= x
        t[tuple(dst)] += x


@pytest.mark.parametrize("sc", [Scenario.uniform(3, 2), Scenario.uniform(2, 3, 3), MIXED_SCENARIO],
                         ids=["uniform-3-2-2", "uniform-2-3-3", "mixed"])
def test_behavior_checks_match_loop_reference(sc):
    rng = np.random.default_rng(len(sc.settings) * 10 + sum(sc.settings))
    outcomes = set()
    for _ in range(60):
        tables = random_local_tables(sc, rng)
        plant(tables, rng)
        try:
            loop_check(sc, tables)
            want = None
        except ValidationError as exc:
            want = str(exc)
        try:
            Behavior.from_tables(sc, tables)
            got = None
        except ValidationError as exc:
            got = str(exc)
        # the sums may differ in the last bits, so numbers are compared by form
        number = r"-?\d\.\d+(e[-+]\d+)?"
        assert (want is None) == (got is None)
        if want is not None:
            assert re.sub(number, "x", got) == re.sub(number, "x", want)
        outcomes.add(want.split()[0] if want else "accepted")
    # every kind of fault was planted and rejected, and some inputs passed
    assert outcomes == {"accepted", "negative", "table", "signaling"}


def test_behavior_names_missing_and_unexpected_joint_settings():
    sc = Scenario.uniform(2, 2, values=(1.0, -1.0))
    tables = {s: np.full((2, 2), 0.25) for s in sc.joint_settings()}
    tables[(2, 0)] = tables.pop((0, 1))
    with pytest.raises(ValidationError, match=re.escape(
            "no table for joint setting (0, 1); a table for joint setting (2, 0), which does "
            "not exist with settings per party (2, 2)")):
        Behavior.from_tables(sc, tables)
    del tables[(2, 0)]
    with pytest.raises(ValidationError, match=r"^no table for joint setting \(0, 1\)$"):
        Behavior.from_tables(sc, tables)
    tables[(0, 1)], tables[(0, 0, 0)] = tables[(0, 0)], tables[(0, 0)]
    with pytest.raises(ValidationError, match=r"^a table for joint setting \(0, 0, 0\)"):
        Behavior.from_tables(sc, tables)


@pytest.mark.parametrize("entry", [math.nan, math.inf], ids=["nan", "inf"])
def test_behavior_rejects_non_finite_entries(entry):
    # NaN compares False in the sign and sum checks, so only a finiteness check
    # keeps it out of evaluate and violation
    sc = Scenario.uniform(2, 2, values=(1.0, -1.0))
    tables = {s: np.full((2, 2), 0.25) for s in sc.joint_settings()}
    tables[(1, 0)] = np.array([[0.25, 0.25], [0.25, entry]])
    with pytest.raises(ValidationError, match="non-finite"):
        Behavior.from_tables(sc, tables)


def test_deterministic_behavior_is_point_mass():
    sc = chsh().scenario
    b = deterministic_behavior(sc, (0, 1, 1, 0))
    assert b.tables[(0, 1)][0, 0] == 1.0
    assert b.tables[(1, 0)][1, 1] == 1.0
    assert all(abs(t.sum() - 1.0) < 1e-15 for t in b.tables.values())
