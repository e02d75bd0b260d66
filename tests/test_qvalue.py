import functools
import itertools
import json
import math
import re

import numpy as np
import pytest

from helpers import (
    MIXED_SCENARIO,
    SX,
    SY,
    chsh_optimal_assignment,
    deterministic_behavior,
    expectation,
    local_operator,
    mermin3_optimal_assignment,
    planar_observable,
    pure_state_tables,
    random_assignment,
    random_density,
    random_observable,
    random_povm,
    reference_effect_tensor,
)

from belltol import qvalue
from belltol.errors import (
    DegenerateFunctionalError,
    DomainError,
    SolverError,
    UnsupportedFunctionalError,
    ValidationError,
)
from belltol.polytope import is_local, separating_functional
from belltol.qvalue import (
    Measurement,
    MeasurementAssignment,
    behavior,
    evaluate,
    seesaw,
    sign_operator,
    upsilon_lower_bound,
)
from belltol.scenario import (
    Behavior,
    BellFunctional,
    Scenario,
    _mk_weights,
    chsh,
    extend_with_passive_parties,
    grid_shape,
    lhv_bounds,
    mermin,
    product_expectation_functional,
    uniform_behavior,
)
from belltol.states import dicke, from_vector, ghz, mix, product_zero, w_state, white_noise

SQRT2 = math.sqrt(2.0)


QUBIT_ID = Measurement((np.eye(2),), (1.0,))


@pytest.mark.parametrize("build, error, message", [
    (lambda: Measurement((), ()), ValidationError, "a measurement needs at least one effect"),
    (lambda: Measurement((np.eye(2),), (1.0, -1.0)), ValidationError,
     "1 effects but 2 outcome values"),
    (lambda: Measurement((np.eye(2, 3),), (1.0,)), ValidationError,
     "effect 0 is not square: (2, 3)"),
    (lambda: Measurement((np.eye(2), np.zeros((3, 3))), (1.0, -1.0)), ValidationError,
     "effects have inconsistent dimensions"),
    (lambda: MeasurementAssignment(()), ValidationError, "assignment needs at least one party"),
    (lambda: MeasurementAssignment(((QUBIT_ID,), (Measurement((np.eye(3),), (1.0,)),))),
     ValidationError, "site dimensions differ: [2, 3]"),
    (lambda: behavior(white_noise(3, 2), MeasurementAssignment(((QUBIT_ID,), (QUBIT_ID,)))),
     ValidationError, "assignment site dimension 2 != state dimension 3"),
    (lambda: upsilon_lower_bound(ghz(2, 2), []), DomainError,
     "functional library must be nonempty"),
], ids=["no-effects", "value-count", "not-square", "mixed-dims", "no-parties",
        "mixed-site-dims", "site-dim-vs-state", "empty-library"])
def test_input_checks_name_the_fault(build, error, message):
    with pytest.raises(error, match=re.escape(message)):
        build()


def test_measurement_validation():
    with pytest.raises(ValidationError):
        Measurement((np.eye(2), np.eye(2)), (1.0, -1.0))  # sums to 2I
    with pytest.raises(ValidationError):
        Measurement((np.diag([1.5, 0.0]), np.diag([-0.5, 1.0])), (1.0, -1.0))  # not PSD
    with pytest.raises(ValidationError):
        Measurement((np.eye(2),), (2.0,))  # value out of range
    m = Measurement(tuple(np.diag(row) for row in np.eye(3)), (-1.0, 0.0, 1.0))
    assert len(m.effects) == 3
    assert np.allclose(sum(m.effects), np.eye(3))


@pytest.mark.parametrize("skew, ok", [(5e-10, True), (2e-9, False)])
def test_measurement_hermiticity_boundary(skew, ok):
    # effects [[1, s], [0, 0]] and [[0, -s], [0, 1]] sum to I exactly and
    # deviate from Hermiticity by s; EFFECT_PSD_TOL = 1e-9 is the limit
    e0 = np.array([[1.0, skew], [0.0, 0.0]], dtype=complex)
    e1 = np.array([[0.0, -skew], [0.0, 1.0]], dtype=complex)
    if ok:
        assert len(Measurement((e0, e1), (1.0, -1.0)).effects) == 2
    else:
        with pytest.raises(ValidationError, match="not Hermitian"):
            Measurement((e0, e1), (1.0, -1.0))


def test_dichotomic_from_observable():
    m = Measurement.dichotomic_from_observable(SX)
    assert m.outcome_values == (1.0, -1.0)
    assert np.allclose(sum(v * e for v, e in zip(m.outcome_values, m.effects)), SX)


def test_behavior_product_state():
    rho = product_zero(2, 2)
    z = Measurement((np.diag([1.0, 0.0]), np.diag([0.0, 1.0])), (1.0, -1.0))
    assign = MeasurementAssignment(((z,), (z,)))
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


def kron_trace_tables(rho, meas) -> dict:
    """p(a | s) = tr[rho (E_1 x ... x E_n)], one Kronecker product per entry."""
    tables = {}
    for s in meas.scenario().joint_settings():
        effects = [meas.measurements[p][s_p].effects for p, s_p in enumerate(s)]
        table = np.zeros([len(e) for e in effects])
        for a in np.ndindex(table.shape):
            op = functools.reduce(np.kron, [effects[p][a_p] for p, a_p in enumerate(a)])
            table[a] = np.trace(rho.matrix @ op).real
        tables[s] = table
    return tables


# (d, n, outcome values per party and setting): qubits with M_p = 6 effects
# per site, more than d^2 = 4; qutrits with 3-outcome POVMs, M_p = 12 > 9;
# ragged outcome counts, a one-outcome setting included
PM = (1.0, -1.0)
THREE = (-1.0, 0.0, 1.0)


@pytest.mark.parametrize("d, n, outcomes", [
    (2, 3, ((PM,) * 3,) * 3),
    (3, 2, ((THREE,) * 4,) * 2),
    (3, 2, MIXED_SCENARIO.outcomes),
], ids=["qubits-3-settings", "qutrits-4-povms", "ragged"])
def test_behavior_mixed_states_match_kronecker_trace(d, n, outcomes):
    rng = np.random.default_rng(60 + 10 * d + n)
    rho = random_density(d, n, rng)
    meas = MeasurementAssignment(tuple(
        tuple(Measurement(random_povm(d, len(vals), rng).effects, vals) for vals in party)
        for party in outcomes
    ))
    b = behavior(rho, meas)
    want = kron_trace_tables(rho, meas)
    assert set(b.tables) == set(want)
    for s, table in want.items():
        assert np.max(np.abs(b.tables[s] - table)) <= 1e-12


def test_behavior_ghz10_planar_correlators():
    # <(cos a X + sin a Y) x ... > on GHZ is cos of the summed angles
    n = 10
    phis = np.random.default_rng(10).uniform(0.0, 2.0 * math.pi, size=(n, 2))
    meas = MeasurementAssignment(tuple(
        tuple(Measurement.dichotomic_from_observable(planar_observable(phi)) for phi in row)
        for row in phis
    ))
    b = behavior(ghz(2, n), meas)
    assert len(b.tables) == 2**n
    signs = functools.reduce(np.multiply.outer, [np.array([1.0, -1.0])] * n)
    for s, table in b.tables.items():
        want = math.cos(sum(phis[p, s_p] for p, s_p in enumerate(s)))
        assert abs(float(np.sum(signs * table)) - want) <= 1e-12


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
    f = chsh()
    for strat in itertools.product(*map(range, grid_shape(f.scenario))):
        v = evaluate(f, deterministic_behavior(f.scenario, strat))
        assert -2.0 - 1e-12 <= v <= 2.0 + 1e-12


def test_evaluate_uniform_behavior_mean():
    f = chsh()
    got = evaluate(f, uniform_behavior(f.scenario))
    expected = sum(float(t.sum()) / t.size for t in f.coeffs.values())
    assert got == pytest.approx(expected, abs=1e-12)


def test_violation_ratio_bell_state():
    b = behavior(ghz(2, 2), chsh_optimal_assignment())
    assert lhv_bounds(chsh()).violation(evaluate(chsh(), b)) == pytest.approx(SQRT2, abs=1e-6)


def test_violation_ratio_mermin3():
    b = behavior(ghz(2, 3), mermin3_optimal_assignment())
    assert lhv_bounds(mermin(3)).violation(evaluate(mermin(3), b)) == pytest.approx(2.0, abs=1e-6)


def test_violation_ratio_product_state():
    b = behavior(product_zero(2, 2), chsh_optimal_assignment())
    assert lhv_bounds(chsh()).violation(evaluate(chsh(), b)) <= 1.0 + 1e-9


def test_violation_ratio_degenerate():
    sc = Scenario.uniform(2, 2, values=(1.0, -1.0))
    zero = BellFunctional.from_tables(sc, {s: np.zeros((2, 2)) for s in sc.joint_settings()})
    value = evaluate(zero, behavior(ghz(2, 2), chsh_optimal_assignment()))
    with pytest.raises(DegenerateFunctionalError):
        lhv_bounds(zero).violation(value)


def test_violation_ratio_constant_functional_degenerate(monkeypatch):
    # constant and nonzero on the local polytope: no LHV range to measure against
    sc = Scenario.uniform(2, 2, values=(1.0, -1.0))
    const = BellFunctional.from_tables(sc, {s: np.full((2, 2), 0.75) for s in sc.joint_settings()})
    assert lhv_bounds(const).sup == lhv_bounds(const).inf == 3.0
    value = evaluate(const, behavior(ghz(2, 2), chsh_optimal_assignment()))
    with pytest.raises(DegenerateFunctionalError):
        lhv_bounds(const).violation(value)
    # the seesaw raises before any sweep
    monkeypatch.setattr(qvalue, "_run_batch", None)
    with pytest.raises(DegenerateFunctionalError):
        seesaw(const, ghz(2, 2), restarts=2, seed=1)


def _shifted(f: BellFunctional, c: float) -> BellFunctional:
    """f + c on every behavior: c/K added to every entry of each of the K tables."""
    k = len(f.coeffs)
    return BellFunctional.from_tables(f.scenario, {s: t + c / k for s, t in f.coeffs.items()})


@pytest.mark.parametrize("c", [-3.0, 0.5, 3.0])
@pytest.mark.parametrize("f, n, assign, ratio", [
    (chsh(), 2, chsh_optimal_assignment, SQRT2),
    (mermin(3), 3, mermin3_optimal_assignment, 2.0),
])
def test_violation_ratio_shift_invariant(f, n, assign, ratio, c):
    g = _shifted(f, c)
    bounds = lhv_bounds(g)
    assert (bounds.sup, bounds.inf) == pytest.approx((2.0 + c, -2.0 + c), abs=1e-12)
    value = evaluate(g, behavior(ghz(2, n), assign()))
    assert bounds.violation(value) == pytest.approx(ratio, abs=1e-9)
    assert seesaw(g, ghz(2, n), restarts=5, seed=1).value == pytest.approx(ratio, abs=1e-9)


def test_violation_ratio_scale_invariant():
    b = behavior(ghz(2, 2), chsh_optimal_assignment())
    big = chsh().scaled(7.5)
    assert lhv_bounds(big).violation(evaluate(big, b)) == pytest.approx(
        lhv_bounds(chsh()).violation(evaluate(chsh(), b)), abs=1e-12)
    # the seesaw runs at an LHV half-range of 2, so its stopping rule, its
    # vanishing-operator test and its checks hold at every scale
    for c in (1e-11, 1e-9, 1e6, 1e9, 1e12):
        res = seesaw(mermin(3).scaled(c), ghz(2, 3), restarts=5, seed=1)
        assert res.value == pytest.approx(2.0, abs=1e-9)
    res = seesaw(mermin(3).scaled(1e-9), w_state(3), seed=1)
    assert len(res.trace) == len(seesaw(mermin(3), w_state(3), seed=1).trace) == 205
    assert res.value == pytest.approx(1.522978002403502, abs=1e-9)
    assert res.objective == pytest.approx(1e-9 * 2 * res.value, rel=1e-9)


def test_affinity_in_state():
    rng = np.random.default_rng(17)
    # CHSH on the (-1, +1) outcomes of random_povm; reversing both outcome
    # orders leaves its correlator tables as they are
    f = BellFunctional.from_tables(Scenario.uniform(2, 2), chsh().coeffs)
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


def effect_stacks(d, settings, rng):
    """Per site, the effects E_s of random projective measurements, one per
    setting."""
    eye = np.eye(d, dtype=complex)
    return [[(eye + random_observable(d, rng)) / 2 for _ in range(m)] for m in settings]


def assert_effect_tensor_matches_evaluate(f, rng):
    # sum(C * T) over random projector stacks [I, E_s] is the functional's
    # value on the measurements (E_s, I - E_s)
    sc = f.scenario
    rho = random_density(2, sc.parties, rng)
    effects = effect_stacks(2, sc.settings, rng)
    stacks = [np.stack([np.eye(2), *row])[None] for row in effects]
    left = functools.reduce(qvalue._advance, [qvalue._site(stack) for stack in stacks],
                            qvalue._site_pairs(rho))
    got = qvalue._objective(left, qvalue._effect_tensor(f))
    meas = MeasurementAssignment(tuple(
        tuple(Measurement((e, np.eye(2) - e), v) for e, v in zip(row, sc.outcomes[p]))
        for p, row in enumerate(effects)
    ))
    assert abs(got[0] - evaluate(f, behavior(rho, meas))) <= 1e-12


def test_correlation_form():
    # on the stacks [I, E_0, E_1], each CHSH correlator of weight w puts w on
    # I x I, -2w on I x E and E x I, and 4w on E x E
    c = qvalue._effect_tensor(chsh())
    assert np.array_equal(c, [[2.0, -4.0, 0.0], [-4.0, 4.0, 4.0], [0.0, 4.0, -4.0]])
    rng = np.random.default_rng(99)
    assert_effect_tensor_matches_evaluate(extend_with_passive_parties(chsh(), 1), rng)
    sc = Scenario.uniform(2, 2, values=(1.0, -1.0))
    assert_effect_tensor_matches_evaluate(product_expectation_functional(sc, (0, 0), [0]), rng)


def test_correlation_form_expands_joint_probability():
    # p(+1, +1 | 0, 0) = tr[rho (E_0 x E_0)]: a single 1 on the two E_0 entries
    sc = Scenario.uniform(2, 2, values=(1.0, -1.0))
    tables = {s: np.zeros((2, 2)) for s in sc.joint_settings()}
    tables[(0, 0)] = np.array([[1.0, 0.0], [0.0, 0.0]])  # a joint probability
    want = np.zeros((3, 3))
    want[1, 1] = 1.0
    assert np.array_equal(qvalue._effect_tensor(BellFunctional.from_tables(sc, tables)), want)


@pytest.mark.parametrize("n", range(2, 9))
def test_correlation_form_mermin_weights(n):
    # a correlator of weight w puts 2^n w on its effects E_(s_0) x ... x E_(s_(n-1))
    c = qvalue._effect_tensor(mermin(n))
    expected = 2.0 * _mk_weights(n)
    for s in itertools.product(range(2), repeat=n):
        assert c[tuple(s_p + 1 for s_p in s)] == 2.0**n * expected[s]
    assert_effect_tensor_matches_evaluate(mermin(n), np.random.default_rng(110 + n))


@pytest.mark.parametrize("f", [mermin(4), extend_with_passive_parties(chsh(), 2)],
                         ids=["mk4", "chsh+2passive"])
def test_effect_tensor_equals_stacked_reference(f):
    assert np.array_equal(qvalue._effect_tensor(f), reference_effect_tensor(f))


def random_pm_functional(n: int, rng: np.random.Generator) -> BellFunctional:
    """Dense random functional, each setting valued (+1, -1) or (-1, +1)."""
    orders = ((1.0, -1.0), (-1.0, 1.0))
    sc = Scenario(tuple(
        tuple(orders[int(rng.integers(2))] for _ in range(int(rng.integers(1, 3))))
        for _ in range(n)
    ))
    return BellFunctional.from_tables(
        sc, {s: rng.standard_normal((2,) * n) for s in sc.joint_settings()}
    )


@pytest.mark.parametrize("n", [2, 3, 4])
def test_correlation_form_random_pm_functionals(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(3):
        f = random_pm_functional(n, rng)
        assert_effect_tensor_matches_evaluate(f, rng)
        rho = random_density(2, n, rng)
        res = seesaw(f, rho, restarts=2, seed=int(rng.integers(100)))
        replay = evaluate(f, behavior(rho, res.assignment))
        assert res.objective == pytest.approx(replay, abs=1e-9)


@pytest.mark.parametrize("d, n", [(2, 3), (2, 4), (2, 5), (2, 6), (3, 3), (3, 4)])
def test_site_contraction_matches_per_term_reference(d, n):
    rng = np.random.default_rng(200 + 10 * d + n)
    other = np.random.default_rng(300 + 10 * d + n)
    rho = random_density(d, n, rng)
    rho_t = rho.matrix.reshape((d,) * (2 * n))
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
        c = qvalue._effect_tensor(f)
        # a batch of two restarts, the second with effects of its own
        batch = [effect_stacks(d, settings, g) for g in (rng, other)]
        sites = [qvalue._site(np.stack([np.stack([np.eye(d), *eff[p]]) for eff in batch]))
                 for p in range(n)]
        lefts = [qvalue._site_pairs(rho)]
        for site in sites:
            lefts.append(qvalue._advance(lefts[-1], site))

        objective = qvalue._objective(lefts[-1], c)
        assert objective.shape == (2,)
        # per site and setting, the effects (E, I - E) of its two outcomes
        pairs = [[[np.stack([e, np.eye(d) - e]) for e in row] for row in eff] for eff in batch]
        for r in range(2):
            want = sum(
                np.sum(table * expectation(rho_t, [pairs[r][p][s_p] for p, s_p in enumerate(s)]))
                for s, table in f.coeffs.items()
            )
            assert abs(objective[r] - want) <= 1e-12
        for party in range(n):
            got = qvalue._local_operators(lefts[party], sites,
                                          qvalue._party_coefficients(c)[party][1:], party)
            assert got.shape == (2, settings[party], d * d)
            got = got.reshape(2, -1, d, d)
            for r in range(2):
                want = np.zeros((settings[party], d, d), dtype=complex)
                for s, table in f.coeffs.items():
                    # E_s enters its first outcome with +1 and I - E_s its second with -1
                    signed = np.moveaxis(table, party, 0)
                    k = local_operator(rho_t, [pairs[r][p][s_p] for p, s_p in enumerate(s)], party)
                    want[s[party]] += np.tensordot(signed[0] - signed[1], k, axes=n - 1)
                for s in range(settings[party]):
                    assert np.max(np.abs(got[r, s] - want[s])) <= 1e-12


def test_correlation_form_rejects_many_outcomes():
    # a setting with three outcomes, or with one, has no [I, E] form
    for ragged in ((1.0, 0.0, -1.0), (1.0,)):
        sc = Scenario((((1.0, -1.0), ragged), ((1.0, -1.0), (1.0, -1.0))))
        tables = {s: np.zeros(sc.outcome_counts(s)) for s in sc.joint_settings()}
        with pytest.raises(UnsupportedFunctionalError, match="party 0, setting 1"):
            seesaw(BellFunctional.from_tables(sc, tables), ghz(2, 2))


def test_sign_operator():
    assert np.allclose(sign_operator(np.diag([2.0, -3.0]).astype(complex)), np.diag([1.0, -1.0]))
    # near-zero eigenvalues resolve to +1
    assert np.allclose(sign_operator(np.zeros((2, 2), dtype=complex)), np.eye(2))
    # a stack (restart, setting, d, d) gives each matrix the bits it gets alone
    rng = np.random.default_rng(4)
    g = rng.standard_normal((2, 3, 3, 3)) + 1j * rng.standard_normal((2, 3, 3, 3))
    stack = g + g.conj().swapaxes(-1, -2)
    stack[1, 2] = 0.0
    got = sign_operator(stack)
    assert got.shape == stack.shape
    for idx in np.ndindex(2, 3):
        assert np.array_equal(got[idx], sign_operator(stack[idx]))
    assert np.allclose(got[1, 2], np.eye(3))


def test_seesaw_chsh_bell_state():
    res = seesaw(chsh(), ghz(2, 2), restarts=5, seed=1)
    assert res.value == pytest.approx(SQRT2, abs=1e-6)


def test_seesaw_monotone_trace():
    res = seesaw(mermin(3), ghz(2, 3), restarts=4, seed=7)
    diffs = np.diff(np.array(res.trace))
    assert np.all(diffs >= -1e-12)


def test_seesaw_mermin8_ghz8():
    res = seesaw(mermin(8), ghz(2, 8), restarts=2, seed=5)
    assert res.value == pytest.approx(2.0**3.5, abs=1e-9)
    assert res.converged


def test_seesaw_mermin10_ghz10():
    # the paper's GHZ value 2^((n-1)/2) at n = 10
    res = seesaw(mermin(10), ghz(2, 10), restarts=2, seed=1)
    assert res.value == pytest.approx(2.0**4.5, abs=1e-9)


def test_seesaw_white_noise():
    res = seesaw(chsh(), white_noise(2, 2), restarts=3, seed=1)
    assert abs(res.value) <= 1e-9


def test_seesaw_rejects_unsupported():
    sc = Scenario.uniform(2, 2, 3)
    tables = {s: np.zeros((3, 3)) for s in sc.joint_settings()}
    f = BellFunctional.from_tables(sc, tables)
    with pytest.raises(UnsupportedFunctionalError):
        seesaw(f, ghz(2, 2), restarts=1, seed=0)


def test_seesaw_any_two_outcome_values():
    # CHSH's tables on outcomes valued (1, 0): the same [I, E] form, so the
    # same run, with the assignment's effects in the functional's order
    f = BellFunctional.from_tables(Scenario.uniform(2, 2, values=(1.0, 0.0)), chsh().coeffs)
    want = seesaw(chsh(), ghz(2, 2), restarts=5, seed=1)
    got = seesaw(f, ghz(2, 2), restarts=5, seed=1)
    assert got.objective == want.objective and got.value == want.value
    assert got.assignment.scenario() == f.scenario
    assert evaluate(f, behavior(ghz(2, 2), got.assignment)) == pytest.approx(got.objective, abs=1e-9)


def test_seesaw_checks_arguments_first(monkeypatch):
    # a party mismatch or no restarts is reported before the LHV enumeration,
    # which grows as 4^n for n parties
    def enumerate_nothing(f):
        raise RuntimeError("lhv_bounds was called")

    monkeypatch.setattr(qvalue, "lhv_bounds", enumerate_nothing)
    with pytest.raises(ValidationError, match="functional has 4 parties, state has 3"):
        seesaw(mermin(4), ghz(2, 3))
    with pytest.raises(DomainError, match="restarts must be >= 1"):
        seesaw(mermin(3), ghz(2, 3), restarts=0)


@pytest.mark.parametrize("run", [
    lambda: seesaw(chsh(), ghz(2, 2), seed=-1),
    lambda: upsilon_lower_bound(ghz(2, 2), [chsh()], seed=-1),
], ids=["seesaw", "upsilon"])
def test_negative_seed_is_refused_before_any_work(monkeypatch, run):
    # np.random.default_rng names neither the seed nor its value
    def enumerate_nothing(f):
        raise RuntimeError("lhv_bounds was called")

    monkeypatch.setattr(qvalue, "lhv_bounds", enumerate_nothing)
    with pytest.raises(DomainError, match=re.escape("seed must be >= 0, got -1")):
        run()


def test_seesaw_assignment_reproduces_value():
    res = seesaw(chsh(), ghz(2, 2), restarts=5, seed=1)
    replay = lhv_bounds(chsh()).violation(evaluate(chsh(), behavior(ghz(2, 2), res.assignment)))
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
    replay = evaluate(g, behavior(ghz(2, 2), found.assignment))
    assert lhv_bounds(g).violation(replay) == pytest.approx(found.value, abs=1e-9)


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


@pytest.mark.parametrize("f, rho", [(mermin(3), w_state(3)), (mermin(3), ghz(3, 3))],
                         ids=["w3", "ghz33"])
@pytest.mark.parametrize("size", [1, 2])
def test_seesaw_batches_change_no_bit(monkeypatch, f, rho, size):
    whole = seesaw(f, rho, restarts=5, seed=1)
    # every intermediate has (d^2)^n cells per restart here (m <= d^2), so this
    # cap runs the five restarts in batches of ``size``
    monkeypatch.setattr(qvalue, "BATCH_CELLS", size * (rho.d**2) ** rho.n)
    split = seesaw(f, rho, restarts=5, seed=1)
    assert split.value == whole.value and split.objective == whole.objective
    assert split.trace == whole.trace and split.converged == whole.converged
    assert all(np.array_equal(x, y) for x, y in
               zip(assignment_effects(split), assignment_effects(whole), strict=True))


@pytest.mark.parametrize("f, rho, seed, restarts, sweeps, objective", [
    (mermin(3), w_state(3), 5, 3, 183, 3.045956004787664),
    (mermin(4), w_state(4), 1, 3, 76, 3.1085947889124252),
    (extend_with_passive_parties(chsh(), 2), dicke(4, 2), 5, 3, 53, 2.403700850128998),
    (mermin(3), ghz(3, 3), 1, 4, 4, 3.333333333333332),
], ids=["w3", "w4", "chsh-d42", "ghz33"])
def test_seesaw_pinned_runs(f, rho, seed, restarts, sweeps, objective):
    # the best restart's sweeps and objective as the per-restart seesaw found them
    res = seesaw(f, rho, restarts=restarts, seed=seed)
    assert len(res.trace) == sweeps
    assert res.converged
    assert res.objective == pytest.approx(objective, abs=1e-12)


@pytest.mark.parametrize("d", [2, 3])
def test_initial_stacks_match_per_restart_draws(d):
    # the batch's stacked draws are the per-restart, per-draw loop's, bit for bit
    settings, seed, restarts = (2, 1, 3), 9, range(3, 7)
    got = qvalue._initial_stacks(d, settings, seed, restarts)
    eye = np.eye(d, dtype=complex)
    for i, restart in enumerate(restarts):
        rng = np.random.default_rng([seed, restart])
        for p, m in enumerate(settings):
            want = np.stack([eye] + [(eye + random_observable(d, rng)) / 2 for _ in range(m)])
            assert np.array_equal(got[p][i], want)


def test_advance_over_leading_batch_axes():
    # closing a site under leading axes (2, 3), the site broadcast along the
    # second, gives what closing each leading index on its own gives; so
    # does L_0's one row against a site of two
    rng = np.random.default_rng(41)

    def draw(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    left, site = draw(2, 3, 4 * 4 * 4, 5), draw(2, 1, 4, 6)
    got = qvalue._advance(left, site)
    assert got.shape == (2, 3, 16, 30)
    for i, j in itertools.product(range(2), range(3)):
        assert np.array_equal(got[i, j], qvalue._advance(left[i, j][None], site[i])[0])
    left, site = draw(1, 16, 1), draw(2, 4, 3)
    got = qvalue._advance(left, site)
    assert got.shape == (2, 4, 3)
    for r in range(2):
        assert np.array_equal(got[r], qvalue._advance(left, site[r][None])[0])


def test_seesaw_keeps_effects_whose_operator_vanishes():
    # <A_0 B_0> alone: setting 1's operator is 0 at both sites, so its effect
    # stays the initial draw while setting 0's is updated in the same stack
    f = product_expectation_functional(chsh().scenario, (0, 0), [0, 1])
    res = seesaw(f, ghz(2, 2), restarts=1, seed=4)
    start = qvalue._initial_stacks(2, (2, 2), 4, range(1))
    for p, (_, kept) in enumerate(res.assignment.measurements):
        assert np.array_equal(kept.effects[0], start[p][0, 2])
    assert res.objective == pytest.approx(1.0, abs=1e-9)


def test_one_sweep_updates_a_mixed_stack(monkeypatch):
    # <A_0 B_1 C_0> on a random state: in every party's stack one setting's
    # operator vanishes and the other's does not, so each update moves some
    # effects and keeps others
    n, d, seed, restarts = 3, 2, 6, range(2)
    f = product_expectation_functional(Scenario.uniform(n, 2, values=(1.0, -1.0)), (0, 1, 0),
                                       range(n))
    rho = random_density(d, n, np.random.default_rng(61))
    c = qvalue._effect_tensor(f)
    monkeypatch.setattr(qvalue, "MAX_SWEEPS", 1)
    runs = qvalue._run_batch(rho, c, seed, restarts)

    rho_t = rho.matrix.reshape((d,) * (2 * n))
    stacks = qvalue._initial_stacks(d, (2,) * n, seed, restarts)
    for party in range(n):
        weights = np.moveaxis(c, party, 0)
        moved = set()
        for r in restarts:
            k_all = local_operator(rho_t, [stack[r] for stack in stacks], party)
            for s in range(2):
                k = np.tensordot(weights[s + 1], k_all, axes=n - 1)
                got = runs[r].effects[party][s]
                if np.max(np.abs(k)) > qvalue.SIGN_EIG_TOL:
                    w, v = np.linalg.eigh((k + k.conj().T) / 2)
                    sign = (v * np.where(w < -qvalue.SIGN_EIG_TOL, -1.0, 1.0)) @ v.conj().T
                    want = (np.eye(d) + sign) / 2
                    assert np.max(np.abs(got - want)) <= 1e-12
                    stacks[party][r, s + 1] = want
                    moved.add(s)
                else:
                    assert np.array_equal(got, stacks[party][r, s + 1])
        assert moved == {(0, 1, 0)[party]}


def test_restarts_stopped_at_max_sweeps(monkeypatch):
    # with MAX_SWEEPS cut to the sweep at which the first restart converges,
    # that restart still reports converged and every later one does not;
    # each keeps the first MAX_SWEEPS values of its uncut trace
    rho, f = w_state(3), mermin(3)
    c = qvalue._effect_tensor(f)
    full = qvalue._run_batch(rho, c, 1, range(4))
    assert all(run.converged for run in full)
    first = min(len(run.trace) for run in full)
    assert any(len(run.trace) > first for run in full)
    monkeypatch.setattr(qvalue, "MAX_SWEEPS", first)
    cut = qvalue._run_batch(rho, c, 1, range(4))
    for whole, run in zip(full, cut):
        assert run.converged == (len(whole.trace) == first)
        assert run.trace == whole.trace[:first]


@pytest.mark.parametrize("strided", [False, True])
def test_stacks_view_writes_the_site(strided):
    # _stacks inverts _site as a view, also of a site that is not C-contiguous:
    # splitting its d^2 axis in two never needs a copy
    rng = np.random.default_rng(9)
    ops = rng.standard_normal((2, 3, 2, 2)) + 1j * rng.standard_normal((2, 3, 2, 2))
    site = qvalue._site(ops)
    if strided:
        site = np.repeat(site, 2, axis=2)[:, :, ::2]
        assert not site.flags.c_contiguous
    view = qvalue._stacks(site, 2)
    assert np.array_equal(view, ops)
    view[1, 2] = 0.0
    ops[1, 2] = 0.0
    assert np.array_equal(site, qvalue._site(ops))
    # a batch whose restarts have all stopped has empty sites
    assert qvalue._stacks(site[:0], 2).shape == (0, 3, 2, 2)


def test_seesaw_self_check_catches_a_planted_fault(monkeypatch):
    # an objective that its assignment does not reach is an error, not a value
    real = qvalue._objective
    monkeypatch.setattr(qvalue, "_objective", lambda left, c: real(left, c) + 1e-6)
    with pytest.raises(SolverError, match="differs from its assignment's value"):
        seesaw(mermin(3), ghz(2, 3), restarts=2, seed=1)


def test_seesaw_objective_that_falls_raises(monkeypatch):
    # the per-sweep check covers every restart of the batch; only the second
    # and third restarts' objectives are pulled down, further each sweep
    real = qvalue._objective
    calls = []

    def falling(left, c):
        calls.append(1)
        out = real(left, c)
        out[1:] -= 1e-6 * len(calls)
        return out

    monkeypatch.setattr(qvalue, "_objective", falling)
    with pytest.raises(SolverError, match="seesaw objective decreased"):
        seesaw(mermin(3), ghz(2, 3), restarts=3, seed=1)


def pr_box() -> Behavior:
    """Popescu-Rohrlich box: outcomes equal unless both settings are 1."""
    same, differ = np.eye(2) / 2, (1 - np.eye(2)) / 2
    return Behavior.from_tables(Scenario.uniform(2, 2, values=(1.0, -1.0)),
                    {(x, y): differ if x * y else same for x in range(2) for y in range(2)})


def test_algebraic_bound_bounds_every_behavior():
    rng = np.random.default_rng(17)
    functionals = ([mermin(n) for n in (2, 3, 4)]
                   + [extend_with_passive_parties(chsh(), k) for k in (1, 2, 3)]
                   + [random_pm_functional(n, rng) for n in (2, 3, 3, 4)])
    for f in functionals:
        sc = f.scenario
        bounds = lhv_bounds(f)
        cap = qvalue._violation_cap(f, bounds)
        # Y is symmetric about the LHV range, so -f has the same bound
        flipped = f.scaled(-1)
        assert qvalue._violation_cap(flipped, lhv_bounds(flipped)) == pytest.approx(cap, rel=1e-12)
        behaviors = []
        for _ in range(3):
            meas = MeasurementAssignment(tuple(
                tuple(Measurement(random_povm(2, 2, rng).effects, values) for values in party)
                for party in sc.outcomes))
            behaviors.append(behavior(random_density(2, sc.parties, rng), meas))
            strategy = tuple(int(a) for m in sc.settings for a in rng.integers(2, size=m))
            behaviors.append(deterministic_behavior(sc, strategy))
        for b in behaviors:
            assert bounds.violation(evaluate(f, b)) <= cap + 1e-12
    # padded CHSH's quantum cap, Tsirelson's sqrt 2, lies below its
    # algebraic cap 2, which the PR box reaches
    for k in (1, 2, 3):
        padded = extend_with_passive_parties(chsh(), k)
        assert qvalue._violation_cap(padded, lhv_bounds(padded)) == pytest.approx(SQRT2, abs=1e-12)
    assert qvalue._violation_cap(chsh(), lhv_bounds(chsh())) == pytest.approx(SQRT2, abs=1e-12)
    assert lhv_bounds(chsh()).violation(evaluate(chsh(), pr_box())) == 2.0


@pytest.mark.parametrize("d", [2, 3])
def test_quantum_bound_bounds_every_quantum_behavior(d):
    # dense random tables carry marginal terms at every site
    rng = np.random.default_rng(23 + d)
    functionals = ([random_pm_functional(n, rng) for n in (2, 2, 3, 3)]
                   + [mermin(3), extend_with_passive_parties(chsh(), 1)])
    for f in functionals:
        sc = f.scenario
        bounds = lhv_bounds(f)
        cap = qvalue._violation_cap(f, bounds)
        for _ in range(4):
            meas = MeasurementAssignment(tuple(
                tuple(Measurement(random_povm(d, 2, rng).effects, values) for values in party)
                for party in sc.outcomes))
            b = behavior(random_density(d, sc.parties, rng), meas)
            assert bounds.violation(evaluate(f, b)) <= cap + 1e-12
        # and the seesaw's optimized measurements, maximizing f and -f
        found = seesaw(f, random_density(d, sc.parties, rng), restarts=2, seed=1)
        assert found.value <= cap + 1e-9
        assert seesaw(f.scaled(-1), random_density(d, sc.parties, rng), restarts=2,
                      seed=1).value <= cap + 1e-9


def test_quantum_bound_of_one_correlator_is_one():
    # a correlator, marginal or not, of +1/-1 outcomes lies in [-1, 1], as LHV ones do
    sc = Scenario.uniform(3, 2, values=(1.0, -1.0))
    for subset in ([1], [0, 2], [0, 1, 2]):
        f = product_expectation_functional(sc, (0, 1, 0), subset)
        assert qvalue._violation_cap(f, lhv_bounds(f)) == 1.0


def ghz_reaches(f, angles: list[tuple[float, ...]]) -> float:
    """Violation ratio of ``f`` on the qubit GHZ state, each site measuring
    the planar observables at ``angles``."""
    meas = MeasurementAssignment(tuple(
        tuple(Measurement.dichotomic_from_observable(planar_observable(a)) for a in site)
        for site in angles))
    return lhv_bounds(f).violation(evaluate(f, behavior(ghz(2, len(angles)), meas)))


@pytest.mark.parametrize("passive", [0, 1, 2, 3])
def test_quantum_bound_is_tsirelson_for_padded_chsh(passive):
    f = chsh() if passive == 0 else extend_with_passive_parties(chsh(), passive)
    cap = qvalue._violation_cap(f, lhv_bounds(f))
    assert cap == pytest.approx(SQRT2, abs=1e-12)
    # a constant added to every entry shifts k0 alone
    shifted = BellFunctional(f.scenario, f.slots + 0.25)
    assert qvalue._violation_cap(shifted, lhv_bounds(shifted)) == pytest.approx(cap, abs=1e-12)
    # <sigma(a) sigma(b) X ... X> = cos(a + b) on the GHZ state
    angles = [(0.0, math.pi / 2), (-math.pi / 4, math.pi / 4)] + [(0.0,)] * passive
    assert ghz_reaches(f, angles) == pytest.approx(cap, abs=1e-9)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_quantum_bound_is_tight_for_mermin_klyshko(n):
    f = mermin(n)
    cap = qvalue._violation_cap(f, lhv_bounds(f))
    assert cap == pytest.approx(2.0 ** ((n - 1) / 2), rel=1e-12)
    # settings x and x + pi/2 at every site, n x = -(n - 1) pi/4, reach the maximum
    x = -(n - 1) * math.pi / (4 * n)
    assert ghz_reaches(f, [(x, x + math.pi / 2)] * n) == pytest.approx(cap, abs=1e-9)


def test_quantum_bound_holds_for_quantum_behaviors_only():
    # the PR box reaches CHSH's algebraic bound 2, above Tsirelson's sqrt 2
    bounds = lhv_bounds(chsh())
    assert bounds.violation(evaluate(chsh(), pr_box())) == 2.0 > qvalue._violation_cap(chsh(), bounds)


def counted_seesaw(monkeypatch) -> list[str]:
    """Labels of the functionals that upsilon_lower_bound runs a seesaw on."""
    calls = []
    real = qvalue.seesaw

    def counted(f, *args, **kwargs):
        calls.append(f.label)
        return real(f, *args, **kwargs)

    monkeypatch.setattr(qvalue, "seesaw", counted)
    return calls


def assert_same_search(got, want):
    assert got.value == want.value and got.best_label == want.best_label
    a, b = got.result, want.result
    assert (a.value, a.objective, a.trace, a.converged) == \
        (b.value, b.objective, b.trace, b.converged)
    assert all(np.array_equal(x, y) for x, y in
               zip(assignment_effects(a), assignment_effects(b), strict=True))


@pytest.mark.parametrize("rho, skipped", [
    (ghz(2, 4), True), (dicke(4, 2), True), (dicke(6, 3), True),
    (w_state(3), True), (ghz(3, 3), True), (product_zero(2, 3), False),
], ids=["ghz24", "dicke42", "dicke63", "w3", "ghz33", "product23"])
def test_best_only_skips_only_what_cannot_be_picked(monkeypatch, rho, skipped):
    # Mermin passes padded CHSH's algebraic bound 2 on the first three states
    # and its quantum bound sqrt 2 on W(3) and the qutrit GHZ state; the
    # product state reaches no violation, so CHSH still runs
    library = [mermin(rho.n), extend_with_passive_parties(chsh(), rho.n - 2)]
    calls = counted_seesaw(monkeypatch)
    full = upsilon_lower_bound(rho, library, restarts=3, seed=1)
    assert len(calls) == 2
    calls.clear()
    fast = upsilon_lower_bound(rho, library, restarts=3, seed=1, best_only=True)
    assert calls == [f.label for f in library[:1 if skipped else 2]]
    assert_same_search(fast, full)
    assert fast.per_functional == full.per_functional[:len(calls)]
    assert (full.value > SQRT2) == skipped


def algebraic_cap(f: BellFunctional) -> float:
    """Largest violation ratio of ``f`` on any behavior, quantum or not: each
    table's value lies between its least and its largest entry."""
    bounds, tables = lhv_bounds(f), f.coeffs.values()
    return max(bounds.violation(sum(float(t.max()) for t in tables)),
               bounds.violation(sum(float(t.min()) for t in tables)))


def test_best_only_skips_on_the_lesser_cap(monkeypatch):
    # on dense random tables the algebraic cap is often below the quantum
    # one, and then it alone decides the skip; CHSH sets the best at sqrt 2
    rng = np.random.default_rng(3)
    library = [chsh()] + [BellFunctional(f.scenario, f.slots, f"r{i}")
                          for i, f in enumerate(random_pm_functional(2, rng) for _ in range(12))]
    caps = [qvalue._violation_cap(f, lhv_bounds(f)) for f in library]
    assert all(cap <= algebraic_cap(f) for cap, f in zip(caps, library))
    calls = counted_seesaw(monkeypatch)
    full = upsilon_lower_bound(ghz(2, 2), library, restarts=3, seed=1)
    calls.clear()
    fast = upsilon_lower_bound(ghz(2, 2), library, restarts=3, seed=1, best_only=True)
    assert_same_search(fast, full)
    assert fast.per_functional == tuple(p for p in full.per_functional if p[0] in calls)
    # each skipped functional is out of reach of the best value before it
    values = dict(full.per_functional)
    for i, (f, cap) in enumerate(zip(library, caps)):
        best = max(values[g.label] for g in library[:i]) if i else -math.inf
        assert (f.label in calls) == (best <= cap + qvalue.RESTART_GAIN_TOL * max(1.0, cap))
    assert any(f.label not in calls and cap == algebraic_cap(f) < SQRT2
               for f, cap in zip(library, caps))


def test_best_only_raises_as_the_seesaw_would(monkeypatch):
    # a skipped functional is checked as the seesaw checks it
    three = Scenario.uniform(4, 2, 3)
    unsupported = BellFunctional.from_tables(
        three, {s: np.ones((3,) * 4) for s in three.joint_settings()})
    with pytest.raises(UnsupportedFunctionalError):
        upsilon_lower_bound(ghz(2, 4), [mermin(4), unsupported], restarts=2, seed=1,
                            best_only=True)
    with pytest.raises(ValidationError, match="functional has 2 parties, state has 4"):
        upsilon_lower_bound(ghz(2, 4), [mermin(4), chsh()], restarts=2, seed=1, best_only=True)


def test_upsilon_lower_bound_library():
    pair = extend_with_passive_parties(chsh(), 1)
    found = upsilon_lower_bound(ghz(2, 3), [pair, mermin(3)], restarts=8, seed=1)
    assert found.value == found.result.value == pytest.approx(2.0, abs=1e-6)
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


@pytest.mark.parametrize("value", [2.7, 2.0, "2"])
def test_assignment_json_rejects_non_integer_d(value):
    # int() would read 2.7 as 2 and load the qubit effects as they are
    data = {**chsh_optimal_assignment().to_json_dict(), "d": value}
    with pytest.raises(ValidationError,
                       match=f"assignment JSON field 'd' must be an integer, got {value!r}"):
        MeasurementAssignment.from_json_dict(data)


def test_assignment_json_rejects_d_below_one():
    # numpy would read d = -2 as a reshape to (-2, -2) of four entries
    data = {**chsh_optimal_assignment().to_json_dict(), "d": -2}
    with pytest.raises(ValidationError) as info:
        MeasurementAssignment.from_json_dict(data)
    assert str(info.value) == "assignment JSON field 'd' must be >= 1, got -2"


def test_assignment_load_wraps_outcome_values_it_cannot_convert(tmp_path):
    data = chsh_optimal_assignment().to_json_dict()
    data["parties"][0][0]["outcome_values"] = "ab"
    path = tmp_path / "assign.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    with pytest.raises(ValidationError) as info:
        MeasurementAssignment.load(str(path))
    assert str(info.value) == ("malformed MeasurementAssignment JSON: "
                               "ValueError(\"could not convert string to float: 'a'\")")


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
