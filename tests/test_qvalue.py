import math

import numpy as np
import pytest

from helpers import (
    MIXED_SCENARIO,
    SX,
    SY,
    chsh_optimal_assignment,
    expectation,
    local_operator,
    mermin3_optimal_assignment,
    pure_state_tables,
    random_assignment,
    random_density,
    random_povm,
)

from belltol import qvalue
from belltol.errors import (
    DegenerateFunctionalError,
    UnsupportedFunctionalError,
    ValidationError,
)
from belltol.polytope import is_local, separating_functional
from belltol.qvalue import (
    Measurement,
    MeasurementAssignment,
    behavior,
    correlation_form,
    evaluate,
    seesaw,
    sign_operator,
    upsilon_lower_bound,
    violation_ratio,
)
from belltol.scenario import (
    BellFunctional,
    Scenario,
    _mk_weights,
    _product_table,
    chsh,
    extend_with_passive_parties,
    lhv_bounds,
    mermin,
    product_expectation_functional,
    uniform_behavior,
)
from belltol.states import dicke, from_vector, ghz, mix, product_zero, white_noise

SQRT2 = math.sqrt(2.0)


def test_measurement_validation():
    with pytest.raises(ValidationError):
        Measurement((np.eye(2), np.eye(2)), (1.0, -1.0))  # sums to 2I
    with pytest.raises(ValidationError):
        Measurement((np.diag([1.5, 0.0]), np.diag([-0.5, 1.0])), (1.0, -1.0))  # not PSD
    with pytest.raises(ValidationError):
        Measurement((np.eye(2),), (2.0,))  # value out of range
    m = Measurement.computational_basis(3)
    assert m.n_outcomes == 3
    assert np.allclose(sum(m.effects), np.eye(3))


@pytest.mark.parametrize("skew, ok", [(5e-10, True), (2e-9, False)])
def test_measurement_hermiticity_boundary(skew, ok):
    # effects [[1, s], [0, 0]] and [[0, -s], [0, 1]] sum to I exactly and
    # deviate from Hermiticity by s; EFFECT_PSD_TOL = 1e-9 is the limit
    e0 = np.array([[1.0, skew], [0.0, 0.0]], dtype=complex)
    e1 = np.array([[0.0, -skew], [0.0, 1.0]], dtype=complex)
    if ok:
        assert Measurement((e0, e1), (1.0, -1.0)).n_outcomes == 2
    else:
        with pytest.raises(ValidationError, match="not Hermitian"):
            Measurement((e0, e1), (1.0, -1.0))


def test_dichotomic_from_observable():
    m = Measurement.dichotomic_from_observable(SX)
    assert m.outcome_values == (1.0, -1.0)
    assert np.allclose(m.observable(), SX)


def test_behavior_product_state():
    rho = product_zero(2, 2)
    assign = MeasurementAssignment((
        (Measurement.computational_basis(2, values=(1.0, -1.0)),),
        (Measurement.computational_basis(2, values=(1.0, -1.0)),),
    ))
    b = behavior(rho, assign)
    assert b.tables[(0, 0)][0, 0] == pytest.approx(1.0, abs=1e-12)


def test_behavior_white_noise_uniform():
    b = behavior(white_noise(2, 2), chsh_optimal_assignment())
    for t in b.tables.values():
        assert np.allclose(t, 0.25, atol=1e-12)


def test_behavior_chsh_correlators():
    b = behavior(ghz(2, 2), chsh_optimal_assignment())
    lam = np.array([1.0, -1.0])
    signs = {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): -1}
    for s, sign in signs.items():
        corr = float(lam @ b.tables[s] @ lam)
        assert corr == pytest.approx(sign / SQRT2, abs=1e-9)


def ghz_vector(d: int, n: int) -> np.ndarray:
    psi = np.zeros(d**n, dtype=complex)
    for j in range(d):
        psi[int("".join([str(j)] * n), d)] = 1.0 / math.sqrt(d)
    return psi


def assert_pure_tables(psi, rho, meas):
    b = behavior(rho, meas)
    want = pure_state_tables(psi, meas)
    assert set(b.tables) == set(want)
    for s, table in want.items():
        assert np.max(np.abs(b.tables[s] - table)) <= 1e-12
    return len(want)


@pytest.mark.parametrize("d, n, outcomes", [(2, 8, 2), (3, 3, 3)])
def test_behavior_matches_state_vector_ghz(d, n, outcomes):
    rng = np.random.default_rng(40 + n)
    psi = ghz_vector(d, n)
    rho = ghz(d, n)
    assert np.max(np.abs(rho.matrix - np.outer(psi, psi.conj()))) <= 1e-15
    meas = random_assignment(d, n, 2, outcomes, rng)
    assert assert_pure_tables(psi, rho, meas) == 2**n


def test_behavior_matches_state_vector_ragged_outcomes():
    rng = np.random.default_rng(48)
    meas = MeasurementAssignment(tuple(
        tuple(Measurement(random_povm(3, len(vals), rng).effects, vals) for vals in party)
        for party in MIXED_SCENARIO.outcomes
    ))
    psi = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    psi /= np.linalg.norm(psi)
    assert_pure_tables(psi, from_vector(psi, 3, 2), meas)


def test_behavior_dimension_mismatch():
    with pytest.raises(ValidationError):
        behavior(ghz(2, 3), chsh_optimal_assignment())


def test_evaluate_tsirelson():
    val = evaluate(chsh(), behavior(ghz(2, 2), chsh_optimal_assignment()))
    assert val == pytest.approx(2.0 * SQRT2, abs=1e-9)


def test_evaluate_rejects_other_outcome_order():
    # equal shapes, but outcome index 0 is -1 in f and +1 in b: pairing the
    # tables would give a wrong number
    f = product_expectation_functional(Scenario.uniform(2, 2), (0, 0), [0])
    b = behavior(ghz(2, 2), chsh_optimal_assignment())
    assert f.scenario.settings == b.scenario.settings
    with pytest.raises(ValidationError, match="outcomes"):
        evaluate(f, b)


def test_evaluate_deterministic_within_lhv():
    from belltol.scenario import deterministic_behavior, enumerate_strategies

    f = chsh()
    for strat in enumerate_strategies(f.scenario):
        v = evaluate(f, deterministic_behavior(f.scenario, strat))
        assert -2.0 - 1e-12 <= v <= 2.0 + 1e-12


def test_evaluate_uniform_behavior_mean():
    f = chsh()
    got = evaluate(f, uniform_behavior(f.scenario))
    expected = sum(float(t.sum()) / t.size for t in f.coeffs.values())
    assert got == pytest.approx(expected, abs=1e-12)


def test_violation_ratio_bell_state():
    assert violation_ratio(chsh(), ghz(2, 2), chsh_optimal_assignment()) == pytest.approx(
        SQRT2, abs=1e-6
    )


def test_violation_ratio_mermin3():
    assert violation_ratio(
        mermin(3), ghz(2, 3), mermin3_optimal_assignment()
    ) == pytest.approx(2.0, abs=1e-6)


def test_violation_ratio_product_state():
    assert violation_ratio(chsh(), product_zero(2, 2), chsh_optimal_assignment()) <= 1.0 + 1e-9


def test_violation_ratio_degenerate():
    sc = Scenario.uniform(2, 2, values=(1.0, -1.0))
    zero = BellFunctional(sc, {s: np.zeros((2, 2)) for s in sc.joint_settings()})
    with pytest.raises(DegenerateFunctionalError):
        violation_ratio(zero, ghz(2, 2), chsh_optimal_assignment())


def test_violation_ratio_constant_functional_degenerate():
    # constant and nonzero on the local polytope: no LHV range to measure against
    sc = Scenario.uniform(2, 2, values=(1.0, -1.0))
    const = BellFunctional(sc, {s: np.full((2, 2), 0.75) for s in sc.joint_settings()})
    assert lhv_bounds(const).sup == lhv_bounds(const).inf == 3.0
    with pytest.raises(DegenerateFunctionalError):
        violation_ratio(const, ghz(2, 2), chsh_optimal_assignment())
    with pytest.raises(DegenerateFunctionalError):
        seesaw(const, ghz(2, 2), restarts=2, seed=1)


def _shifted(f: BellFunctional, c: float) -> BellFunctional:
    """f + c on every behavior: c/K added to every entry of each of the K tables."""
    k = len(f.coeffs)
    return BellFunctional(f.scenario, {s: t + c / k for s, t in f.coeffs.items()})


@pytest.mark.parametrize("c", [-3.0, 0.5, 3.0])
@pytest.mark.parametrize("f, n, assign, ratio", [
    (chsh(), 2, chsh_optimal_assignment, SQRT2),
    (mermin(3), 3, mermin3_optimal_assignment, 2.0),
])
def test_violation_ratio_shift_invariant(f, n, assign, ratio, c):
    g = _shifted(f, c)
    bounds = lhv_bounds(g)
    assert (bounds.sup, bounds.inf) == pytest.approx((2.0 + c, -2.0 + c), abs=1e-12)
    assert violation_ratio(g, ghz(2, n), assign()) == pytest.approx(ratio, abs=1e-9)
    assert seesaw(g, ghz(2, n), restarts=5, seed=1).value == pytest.approx(ratio, abs=1e-9)


def test_violation_ratio_scale_invariant():
    r1 = violation_ratio(chsh(), ghz(2, 2), chsh_optimal_assignment())
    r2 = violation_ratio(chsh().scaled(7.5), ghz(2, 2), chsh_optimal_assignment())
    assert r1 == pytest.approx(r2, abs=1e-12)


def test_affinity_in_state():
    rng = np.random.default_rng(17)
    # CHSH on the (-1, +1) outcomes of random_povm; reversing both outcome
    # orders leaves its correlator tables as they are
    f = BellFunctional(Scenario.uniform(2, 2), chsh().coeffs)
    for _ in range(10):
        zeta = random_density(2, 2, rng)
        rho = random_density(2, 2, rng)
        assign = random_assignment(2, 2, 2, 2, rng)
        beta = float(rng.uniform(0.0, 1.0))
        lhs = evaluate(f, behavior(mix(zeta, rho, beta), assign))
        rhs = (1 - beta) * evaluate(f, behavior(zeta, assign)) + beta * evaluate(
            f, behavior(rho, assign)
        )
        assert lhs == pytest.approx(rhs, abs=1e-9)


def test_behavior_invariants_random_povms():
    rng = np.random.default_rng(23)
    for _ in range(10):
        d = int(rng.integers(2, 4))
        rho = random_density(d, 2, rng)
        assign = random_assignment(d, 2, 2, int(rng.integers(2, 4)), rng)
        b = behavior(rho, assign)  # constructor enforces the invariants
        for t in b.tables.values():
            assert t.min() >= -1e-12
            assert abs(t.sum() - 1.0) <= 1e-9


def test_correlation_form():
    terms = correlation_form(chsh())
    weights = {t.setting: t.weight for t in terms}
    assert weights == {(0, 0): 1.0, (0, 1): 1.0, (1, 0): 1.0, (1, 1): -1.0}
    assert all(t.participates == (True, True) for t in terms)

    padded = extend_with_passive_parties(chsh(), 1)
    terms = correlation_form(padded)
    assert all(t.participates == (True, True, True) for t in terms)

    sc = Scenario.uniform(2, 2, values=(1.0, -1.0))
    marginal = product_expectation_functional(sc, (0, 0), [0])
    terms = correlation_form(marginal)
    assert terms[0].participates == (True, False)


def test_correlation_form_expands_joint_probability():
    # p(+1, +1) = (1 + <A> + <B> + <AB>) / 4
    sc = Scenario.uniform(2, 2, values=(1.0, -1.0))
    tables = {s: np.zeros((2, 2)) for s in sc.joint_settings()}
    tables[(0, 0)] = np.array([[1.0, 0.0], [0.0, 0.0]])  # a joint probability
    terms = correlation_form(BellFunctional(sc, tables))
    assert [(t.setting, t.weight, t.participates) for t in terms] == [
        ((0, 0), 0.25, (False, False)),
        ((0, 0), 0.25, (False, True)),
        ((0, 0), 0.25, (True, False)),
        ((0, 0), 0.25, (True, True)),
    ]


@pytest.mark.parametrize("n", range(2, 9))
def test_correlation_form_mermin_weights(n):
    terms = correlation_form(mermin(n))
    expected = {s: 2.0 * c for s, c in _mk_weights(n).items() if c != 0.0}
    assert len(terms) == len(expected)
    assert {t.setting: t.weight for t in terms} == expected
    assert all(t.participates == (True,) * n for t in terms)


def random_pm_functional(n: int, rng: np.random.Generator) -> BellFunctional:
    """Dense random functional, each setting valued (+1, -1) or (-1, +1)."""
    orders = ((1.0, -1.0), (-1.0, 1.0))
    sc = Scenario(tuple(
        tuple(orders[int(rng.integers(2))] for _ in range(int(rng.integers(1, 3))))
        for _ in range(n)
    ))
    return BellFunctional(
        sc, {s: rng.standard_normal((2,) * n) for s in sc.joint_settings()}
    )


@pytest.mark.parametrize("n", [2, 3, 4])
def test_correlation_form_random_pm_functionals(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(3):
        f = random_pm_functional(n, rng)
        sc = f.scenario
        rebuilt = {s: np.zeros((2,) * n) for s in f.coeffs}
        for t in correlation_form(f):
            factors = [np.asarray(sc.outcomes[p][s_p]) if t.participates[p] else np.ones(2)
                       for p, s_p in enumerate(t.setting)]
            rebuilt[t.setting] += t.weight * _product_table(factors)
        for s, table in f.coeffs.items():
            assert np.max(np.abs(rebuilt[s] - table)) <= 1e-12
        rho = random_density(2, n, rng)
        res = seesaw(f, rho, restarts=2, seed=int(rng.integers(100)))
        replay = evaluate(f, behavior(rho, res.assignment))
        assert res.objective == pytest.approx(replay, abs=1e-9)


def terms_ops(t, obs):
    return [obs[p][s_p] if t.participates[p] else None for p, s_p in enumerate(t.setting)]


@pytest.mark.parametrize("d, n", [(2, 3), (2, 4), (2, 5), (2, 6), (3, 3), (3, 4)])
def test_site_contraction_matches_per_term_reference(d, n):
    rng = np.random.default_rng(200 + 10 * d + n)
    rho_t = random_density(d, n, rng).matrix.reshape((d,) * (2 * n))
    subset = sorted(int(p) for p in rng.choice(n, size=int(rng.integers(1, n)), replace=False))
    marginal = product_expectation_functional(
        Scenario.uniform(n, 2, values=(1.0, -1.0)), tuple(int(s) for s in rng.integers(2, size=n)),
        subset,
    )
    functionals = [mermin(n), marginal]
    if n <= 4:
        functionals.append(random_pm_functional(n, rng))
    for f in functionals:
        settings = f.scenario.settings
        terms = correlation_form(f)
        c = qvalue._correlator_tensor(terms, settings)
        obs = [[qvalue._random_observable(d, rng) for _ in range(m)] for m in settings]
        stacks = [np.stack([np.eye(d), *row]) for row in obs]

        want = sum(t.weight * expectation(rho_t, terms_ops(t, obs)) for t in terms)
        assert abs(qvalue._objective(rho_t, c, stacks) - want) <= 1e-12
        for party in range(n):
            got = qvalue._local_operators(rho_t, c, stacks, party)
            assert got.shape == (settings[party] + 1, d, d)
            for s in range(settings[party]):
                want = np.zeros((d, d), dtype=complex)
                for t in terms:
                    if t.participates[party] and t.setting[party] == s:
                        want += t.weight * local_operator(rho_t, terms_ops(t, obs), party)
                assert np.max(np.abs(got[s + 1] - want)) <= 1e-12


def test_correlation_form_rejects_many_outcomes():
    sc = Scenario.uniform(2, 2, 3)
    tables = {s: np.zeros((3, 3)) for s in sc.joint_settings()}
    with pytest.raises(UnsupportedFunctionalError):
        correlation_form(BellFunctional(sc, tables))


def test_sign_operator():
    assert np.allclose(sign_operator(np.diag([2.0, -3.0]).astype(complex)), np.diag([1.0, -1.0]))
    # near-zero eigenvalues resolve to +1
    assert np.allclose(sign_operator(np.zeros((2, 2), dtype=complex)), np.eye(2))


def test_seesaw_chsh_bell_state():
    res = seesaw(chsh(), ghz(2, 2), restarts=5, seed=1)
    assert res.value == pytest.approx(SQRT2, abs=1e-6)
    assert res.restarts_used == 5


def test_seesaw_monotone_trace():
    res = seesaw(mermin(3), ghz(2, 3), restarts=4, seed=7)
    diffs = np.diff(np.array(res.trace))
    assert np.all(diffs >= -1e-12)


def test_seesaw_mermin8_ghz8():
    res = seesaw(mermin(8), ghz(2, 8), restarts=2, seed=5)
    assert res.value == pytest.approx(2.0**3.5, abs=1e-9)
    assert res.converged


def test_seesaw_white_noise():
    res = seesaw(chsh(), white_noise(2, 2), restarts=3, seed=1)
    assert abs(res.value) <= 1e-9


def test_seesaw_rejects_unsupported():
    sc = Scenario.uniform(2, 2, 3)
    tables = {s: np.zeros((3, 3)) for s in sc.joint_settings()}
    f = BellFunctional(sc, tables)
    with pytest.raises(UnsupportedFunctionalError):
        seesaw(f, ghz(2, 2), restarts=1, seed=0)


def test_seesaw_assignment_reproduces_value():
    res = seesaw(chsh(), ghz(2, 2), restarts=5, seed=1)
    replay = violation_ratio(chsh(), ghz(2, 2), res.assignment)
    assert replay == pytest.approx(res.value, abs=1e-9)


def test_seesaw_converged_flag(monkeypatch):
    assert seesaw(mermin(3), ghz(2, 3), restarts=2, seed=1).converged
    monkeypatch.setattr(qvalue, "MAX_SWEEPS", 1)
    res = seesaw(mermin(3), ghz(2, 3), restarts=2, seed=1)
    assert not res.converged
    assert len(res.trace) == 1


def test_seesaw_on_separating_functional():
    b = behavior(ghz(2, 2), chsh_optimal_assignment())
    res = is_local(b)
    assert not res.is_local
    g = separating_functional(b.scenario, res.farkas)
    found = seesaw(g, ghz(2, 2), restarts=5, seed=1)
    assert found.objective > lhv_bounds(g).sup + 1e-6
    # the LP's functional is CHSH up to scale and shift: its ratio is CHSH's
    assert found.value == pytest.approx(SQRT2, abs=1e-6)
    assert violation_ratio(g, ghz(2, 2), found.assignment) == pytest.approx(found.value, abs=1e-9)


def test_seesaw_deterministic_in_seed():
    a = seesaw(chsh(), ghz(2, 2), restarts=3, seed=42)
    b = seesaw(chsh(), ghz(2, 2), restarts=3, seed=42)
    assert a.value == b.value
    assert a.trace == b.trace


def assignment_effects(res):
    return [e for party in res.assignment.measurements for m in party for e in m.effects]


@pytest.mark.parametrize("f, rho, first", [(mermin(4), ghz(2, 4), 1),
                                           (mermin(4), dicke(4, 2), 1),
                                           (mermin(3), ghz(2, 3), 2)])
def test_seesaw_ties_go_to_the_earliest_restart(f, rho, first):
    # later restarts reach the same optimum up to round-off; the restart that
    # first reached it is kept, so more restarts change no assignment
    many = assignment_effects(seesaw(f, rho, restarts=5, seed=1))
    few = assignment_effects(seesaw(f, rho, restarts=first, seed=1))
    assert all(np.array_equal(x, y) for x, y in zip(many, few, strict=True))


def test_upsilon_lower_bound_library():
    pair = extend_with_passive_parties(chsh(), 1)
    found = upsilon_lower_bound(ghz(2, 3), [pair, mermin(3)], restarts=8, seed=1)
    assert found.value == pytest.approx(2.0, abs=1e-6)
    assert found.best_label == "mermin3"
    values = dict(found.per_functional)
    assert values["chsh+1passive"] == pytest.approx(SQRT2, abs=1e-6)


def test_upsilon_lower_bound_bell():
    found = upsilon_lower_bound(ghz(2, 2), [chsh()], restarts=5, seed=1)
    assert found.value == pytest.approx(SQRT2, abs=1e-6)


def test_upsilon_lower_bound_product_state():
    found = upsilon_lower_bound(product_zero(2, 2), [chsh()], restarts=5, seed=1)
    assert found.value <= 1.0 + 1e-9


def test_assignment_json_roundtrip(tmp_path):
    assign = chsh_optimal_assignment()
    path = tmp_path / "assign.json"
    assign.save(str(path))
    back = MeasurementAssignment.load(str(path))
    assert back.parties == 2
    for p in range(2):
        for s in range(2):
            for e_new, e_old in zip(back.measurements[p][s].effects,
                                    assign.measurements[p][s].effects):
                assert np.allclose(e_new, e_old)


def test_assignment_json_rejects_bad_effects():
    data = chsh_optimal_assignment().to_json_dict()
    effect = data["parties"][0][0]["effects"][0]
    effect["re"] = effect["re"][:3]
    with pytest.raises(ValidationError, match="entry count"):
        MeasurementAssignment.from_json_dict(data)
    del effect["im"]
    with pytest.raises(ValidationError, match="malformed"):
        MeasurementAssignment.from_json_dict(data)


def test_evaluate_convexity_equality():
    # for fixed measurements the functional value is exactly affine in the state
    rng = np.random.default_rng(5)
    f = chsh()
    assign = chsh_optimal_assignment()
    parts = [random_density(2, 2, rng) for _ in range(3)]
    gammas = np.array([0.2, 0.5, 0.3])
    mixed = parts[0]
    mixed = mix(mixed, parts[1], gammas[1] / (gammas[0] + gammas[1]))
    mixed = mix(mixed, parts[2], gammas[2])
    direct = sum(
        g * evaluate(f, behavior(p, assign)) for g, p in zip(gammas, parts)
    )
    assert evaluate(f, behavior(mixed, assign)) == pytest.approx(direct, abs=1e-9)
