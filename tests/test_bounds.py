import math

import numpy as np
import pytest

from belltol.bounds import (
    GENERALIZED,
    GHZ_33_DISCREPANCY_NOTE,
    PROJECTIVE,
    S_INF,
    dicke_bounds,
    dicke_half_asymptotic,
    family_report,
    generic_noise_bounds,
    generic_upsilon_upper,
    ghz_noise_bounds,
    ghz_qubit_asymptotic,
    ghz_qubit_exact,
    ghz_upsilon_upper,
    max_tolerable_noise,
    sweep_reports,
    tolerance_from_violation,
    w_bounds,
)
from belltol.errors import DomainError

SQRT2 = math.sqrt(2.0)


def test_tolerance_from_violation():
    assert tolerance_from_violation(1.0) == 1.0
    assert tolerance_from_violation(SQRT2) == pytest.approx(0.8284271247461902, abs=1e-12)
    assert tolerance_from_violation(2.0) == pytest.approx(2.0 / 3.0, abs=1e-15)
    with pytest.raises(DomainError):
        tolerance_from_violation(0.5)


def test_tolerance_from_violation_refuses_nan():
    # nan compares false with everything, so a test for upsilon < 1 lets it through
    with pytest.raises(DomainError, match="maximal violation must be >= 1"):
        tolerance_from_violation(float("nan"))


def test_tolerance_strictly_decreasing():
    us = np.linspace(1.0, 50.0, 200)
    ts = [tolerance_from_violation(u) for u in us]
    assert all(a > b for a, b in zip(ts, ts[1:]))


def test_max_tolerable_noise():
    assert max_tolerable_noise(1.0) == 0.0
    assert max_tolerable_noise(2.0 / 3.0) == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert max_tolerable_noise(2.0 / (1.0 + SQRT2)) == pytest.approx(
        (SQRT2 - 1.0) / (SQRT2 + 1.0), abs=1e-12
    )
    with pytest.raises(DomainError):
        max_tolerable_noise(0.0)


def test_noise_composition_identity():
    # 1 - 2/(1+u) == (u-1)/(u+1) across random violations
    rng = np.random.default_rng(19)
    for u in rng.uniform(1.0, 1e6, 1000):
        got = max_tolerable_noise(tolerance_from_violation(u))
        assert abs(got - (u - 1.0) / (u + 1.0)) <= 1e-12


def test_generic_upsilon_upper():
    val, term = generic_upsilon_upper(2, 2, 2, PROJECTIVE)
    assert val == pytest.approx(SQRT2, abs=1e-15)
    assert term == "d^((n-1)/2)"
    # generalized bound depends on min(d, s) only
    val, term = generic_upsilon_upper(3, 3, 2, GENERALIZED)
    assert val == 9.0
    assert term == "(2*min(d,s)-1)^(n-1)"
    val, term = generic_upsilon_upper(2, 3, S_INF, GENERALIZED)
    assert val == 9.0
    assert term == "(2d-1)^(n-1)"
    # past the golden CSV (s <= 3, n <= 5): d < s, and terms saturated to inf
    for args, want in [
        ((2, 3, 4, PROJECTIVE), (9.0, "(2*min(d,s)-1)^(n-1)")),
        ((3, 4, 5, PROJECTIVE), (125.0, "(2*min(d,s)-1)^(n-1)")),
        ((2, 1100, 4, GENERALIZED), (math.inf, "(2*min(d,s)-1)^(n-1)")),
        ((3, 2000, S_INF, GENERALIZED), (math.inf, "(2d-1)^(n-1)")),
    ]:
        assert generic_upsilon_upper(*args) == want


def test_generic_upsilon_domains():
    with pytest.raises(DomainError):
        generic_upsilon_upper(1, 2, 2, PROJECTIVE)
    with pytest.raises(DomainError):
        generic_upsilon_upper(2, 1, 2, PROJECTIVE)
    with pytest.raises(DomainError):
        generic_upsilon_upper(2, 2, 1, PROJECTIVE)
    with pytest.raises(DomainError):
        generic_upsilon_upper(2, 2, 2, "magic")


@pytest.mark.parametrize("upper", [generic_upsilon_upper, ghz_upsilon_upper])
def test_upsilon_upper_reads_numpy_ints_as_python_ints(upper):
    # (2d-1)^(n-1) at d = 3, n = 100 wraps in int64 to a negative bound
    for d, n, s, mt in ((3, 100, S_INF, GENERALIZED), (5, 30, 4, PROJECTIVE),
                        (2, 1100, 3, GENERALIZED), (3, 70, 2, PROJECTIVE)):
        want = upper(d, n, s, mt)
        assert upper(np.int64(d), np.int32(n), s, mt) == want
        assert upper(d, n, np.int64(s) if s != S_INF else np.float64(s), mt) == want


@pytest.mark.parametrize("noise_bounds", [generic_noise_bounds, ghz_noise_bounds])
def test_noise_bounds_report_python_ints(noise_bounds):
    r = noise_bounds(np.int64(3), np.uint8(40), np.int16(4), PROJECTIVE)
    assert r.row() == noise_bounds(3, 40, 4, PROJECTIVE).row()
    assert type(r.d) is type(r.n) is type(r.s) is int


@pytest.mark.parametrize("d, n, s", [
    (2.0, 3, 2), (2, 3.0, 2), ("2", 3, 2), (2, "3", 2), (np.float64(3), 3, 2),
    (2, 3, "5"), (2, 3, "inf"), (2, 3, 2.5), (2, 3, b"5"), (2, 3, -S_INF), (2, 3, math.nan),
], ids=repr)
def test_bounds_refuse_non_integer_inputs(d, n, s):
    for call in (generic_upsilon_upper, ghz_upsilon_upper, generic_noise_bounds,
                 ghz_noise_bounds):
        with pytest.raises(DomainError, match="must be an integer"):
            call(d, n, s, GENERALIZED)


@pytest.mark.parametrize("s, want", [(2, 2), (3.0, 3), (np.float64(4.0), 4), (np.int64(5), 5),
                                     (S_INF, S_INF), (None, S_INF), (np.inf, S_INF)])
def test_settings_counts_that_bounds_accept(s, want):
    r = generic_noise_bounds(2, 3, s, GENERALIZED)
    assert r.s == want and type(r.s) is type(want)


def test_dicke_bounds_read_numpy_ints_as_python_ints():
    # 2^(n-1) at n = 80 wraps in int64 and left the lower endpoint at 1
    assert dicke_bounds(np.int64(80), np.int64(1)).row() == dicke_bounds(80, 1).row()
    assert dicke_half_asymptotic(np.int64(100)) == dicke_half_asymptotic(100)
    with pytest.raises(DomainError, match="must be an integer"):
        dicke_bounds(4.0, 2)


def test_generic_noise_bounds():
    for d in (2, 3, 4, 7):
        r = generic_noise_bounds(d, 2, 2, GENERALIZED)
        assert r.max_noise.upper == pytest.approx(0.5, abs=1e-12)
    for d in (2, 3, 5):
        r = generic_noise_bounds(d, 3, 2, GENERALIZED)
        assert r.max_noise.upper == pytest.approx(0.8, abs=1e-12)
    r = generic_noise_bounds(2, 2, S_INF, GENERALIZED)
    assert r.tolerance.lower == pytest.approx(0.5, abs=1e-12)


def test_ghz_upsilon_upper():
    val, term = ghz_upsilon_upper(2, 3, 2, PROJECTIVE)
    assert val == pytest.approx(2.0, abs=1e-12)
    assert term == "d^((n-1)/2)"
    val, term = ghz_upsilon_upper(3, 3, S_INF, GENERALIZED)
    assert val == 9.0
    assert term == "1+2^(n-1)(d-1)"
    val, term = ghz_upsilon_upper(2, 2, 2, PROJECTIVE)
    assert val == pytest.approx(SQRT2, abs=1e-15)
    # past the golden CSV (s <= 3, n <= 5): d < s, and terms saturated to inf,
    # where the least label wins the tie
    for args, want in [
        ((2, 3, 4, PROJECTIVE), (5.0, "1+2^(n-1)(d-1)")),
        ((3, 4, 5, PROJECTIVE), (17.0, "1+2^(n-1)(d-1)")),
        ((2, 1100, 4, GENERALIZED), (math.inf, "(2s-1)^(n-1)")),
        ((3, 2000, S_INF, GENERALIZED), (math.inf, "1+2^(n-1)(d-1)")),
    ]:
        assert ghz_upsilon_upper(*args) == want


def test_ghz_noise_bounds_two_qudit_overall():
    for d in (2, 3, 4, 5, 9):
        r = ghz_noise_bounds(d, 2, S_INF, GENERALIZED)
        assert r.max_noise.upper == pytest.approx((d - 1) / d, abs=1e-12)


def test_ghz_noise_bounds_qubit_overall():
    r = ghz_noise_bounds(2, 3, S_INF, GENERALIZED)
    assert r.tolerance.lower == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert r.tolerance.upper == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_ghz_33_discrepancy_flag():
    r = ghz_noise_bounds(3, 3, 2, PROJECTIVE)
    assert r.max_noise.upper == pytest.approx(0.5, abs=1e-12)
    assert r.upsilon.active_term == "d^((n-1)/2)"
    assert GHZ_33_DISCREPANCY_NOTE in r.notes
    # neighbours carry no such note
    assert GHZ_33_DISCREPANCY_NOTE not in ghz_noise_bounds(3, 3, 2, GENERALIZED).notes
    assert GHZ_33_DISCREPANCY_NOTE not in ghz_noise_bounds(3, 4, 2, PROJECTIVE).notes


def test_ghz_qubit_exact():
    r2 = ghz_qubit_exact(2)
    assert r2.tolerance.upper == pytest.approx(2.0 / (1.0 + SQRT2), abs=1e-12)
    assert r2.max_noise.lower == pytest.approx((SQRT2 - 1.0) / (SQRT2 + 1.0), abs=1e-12)
    r3 = ghz_qubit_exact(3)
    assert r3.tolerance.upper == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert r3.max_noise.lower == pytest.approx(1.0 / 3.0, abs=1e-12)
    r5 = ghz_qubit_exact(5)
    assert r5.tolerance.upper == pytest.approx(0.4, abs=1e-12)
    assert r5.tolerance.lower == pytest.approx(1.0 / 9.0, abs=1e-12)


def test_ghz_qubit_endpoints_decrease_in_n():
    los = [ghz_qubit_exact(n).tolerance.lower for n in range(2, 12)]
    his = [ghz_qubit_exact(n).tolerance.upper for n in range(2, 12)]
    assert all(a > b for a, b in zip(los, los[1:]))
    assert all(a > b for a, b in zip(his, his[1:]))


def test_ghz_qubit_asymptotic():
    assert ghz_qubit_asymptotic(3) == 1.0
    assert ghz_qubit_asymptotic(21) == 2.0 ** -9
    exact = 2.0 / (1.0 + 2.0 ** 10)
    approx = ghz_qubit_asymptotic(21)
    assert abs(approx / exact - 1.0) < 2.0 ** -9 * 2.0


@pytest.mark.parametrize("n", [3.5, np.float64(7)])
def test_ghz_qubit_asymptotic_refuses_non_integer_n(n):
    with pytest.raises(DomainError, match="n must be an integer"):
        ghz_qubit_asymptotic(n)


def test_ghz_qubit_asymptotic_reads_numpy_ints():
    assert ghz_qubit_asymptotic(np.int64(21)) == ghz_qubit_asymptotic(21) == 2.0 ** -9


def test_ghz_qubit_asymptotic_past_float_range():
    # 2^(-(n-3)/2) for n whose (n - 3) / 2.0 overflows a float underflows to 0
    assert ghz_qubit_asymptotic(10**400) == 0.0
    assert ghz_qubit_asymptotic(2) == math.sqrt(2.0)
    assert all(ghz_qubit_asymptotic(n) == 2.0 ** (-(n - 3) / 2.0) for n in range(2, 3000))


def test_specialization_chain():
    # the GHZ bound never exceeds the generic one
    for d in range(2, 7):
        for n in range(2, 7):
            for s in (2, 3, 4, 5, 6, S_INF):
                for mt in (PROJECTIVE, GENERALIZED):
                    if s == S_INF and mt == PROJECTIVE:
                        continue
                    g, _ = ghz_upsilon_upper(d, n, s, mt)
                    u, _ = generic_upsilon_upper(d, n, s, mt)
                    assert g <= u + 1e-12


def test_dicke_bounds_n2():
    r = dicke_bounds(2, 1)
    assert r.tolerance.lower == pytest.approx(0.5, abs=1e-12)
    assert r.tolerance.upper == pytest.approx(2.0 / (1.0 + SQRT2), abs=1e-12)


def test_dicke_bounds_n4k2():
    r = dicke_bounds(4, 2)
    assert r.tolerance.upper == pytest.approx(1.0 / (1.0 + 4.0 * (SQRT2 - 1.0) / 6.0), abs=1e-12)
    assert r.tolerance.upper == pytest.approx(0.7836116248912243, abs=1e-12)
    assert r.tolerance.lower == pytest.approx(2.0 / 28.0, abs=1e-12)


def test_w_bounds():
    r2 = w_bounds(2)
    assert r2.tolerance.upper == pytest.approx(2.0 / (1.0 + SQRT2), abs=1e-12)
    assert r2.tolerance.lower == pytest.approx(0.5, abs=1e-12)
    r3 = w_bounds(3)
    assert r3.tolerance.upper == pytest.approx(3.0 / (3.0 + 2.0 * (SQRT2 - 1.0)), abs=1e-12)
    r4 = w_bounds(4)
    assert r4.tolerance.upper == pytest.approx(1.0 / SQRT2, abs=1e-12)
    # simplified form n/(n + 2^(n-2)(sqrt2-1)) agrees with the k=1 Dicke value
    for n in range(2, 12):
        simplified = n / (n + 2.0 ** (n - 2) * (SQRT2 - 1.0))
        assert w_bounds(n).tolerance.upper == pytest.approx(simplified, abs=1e-12)


def test_dicke_intervals_non_crossing():
    for n in range(2, 31):
        for k in range(1, n):
            r = dicke_bounds(n, k)
            assert r.tolerance.lower <= r.tolerance.upper
            assert r.upsilon.lower <= r.upsilon.upper
            assert r.max_noise.lower <= r.max_noise.upper


def test_dicke_domain():
    with pytest.raises(DomainError):
        dicke_bounds(3, 3)
    with pytest.raises(DomainError):
        dicke_bounds(1, 1)


def test_dicke_half_asymptotic_n20():
    res = dicke_half_asymptotic(20)
    # Stirling check on the binomial itself
    assert 0.98 <= res.binomial_ratio <= 1.02
    assert res.approx_threshold == pytest.approx(1.7229026552691722, abs=1e-9)
    assert res.approx_threshold > 1.0  # vacuous at this size, reported as-is


def test_dicke_half_asymptotic_n200():
    res = dicke_half_asymptotic(200)
    assert abs(res.binomial_ratio - 1.0) <= 0.01
    assert res.binomial == math.comb(200, 100)


@pytest.mark.parametrize("n", [1024, 4096])
def test_dicke_half_asymptotic_past_float_range(n):
    # 2^n overflows a float: the Stirling form saturates to inf, and the
    # ratio, 1 - 1/(4n) + O(n^-2), stays finite
    res = dicke_half_asymptotic(n)
    assert res.binomial_stirling == math.inf
    assert res.binomial_ratio == pytest.approx(1.0 - 1.0 / (4 * n), abs=1.0 / n**2)
    assert 0.0 < res.exact_threshold < res.approx_threshold


def test_dicke_half_asymptotic_rejects_odd():
    with pytest.raises(DomainError):
        dicke_half_asymptotic(21)


def test_report_identities():
    # tolerance and noise endpoints tied to the violation interval within 1e-12
    reports = sweep_reports("ghz", [2, 3], [2, 3, 4], [2, 3, S_INF],
                            [PROJECTIVE, GENERALIZED])
    reports += sweep_reports("dicke", [2], [3, 4], [S_INF], [GENERALIZED])
    for r in reports:
        assert abs(r.tolerance.lower - 2.0 / (1.0 + r.upsilon.upper)) <= 1e-12
        assert abs(r.tolerance.upper - 2.0 / (1.0 + r.upsilon.lower)) <= 1e-12
        assert abs(r.max_noise.lower - (1.0 - r.tolerance.upper)) <= 1e-12
        assert abs(r.max_noise.upper - (1.0 - r.tolerance.lower)) <= 1e-12
        assert r.upsilon.lower >= 1.0


def test_family_report_dispatch():
    assert family_report("generic", 3, 3, 2, PROJECTIVE).family == "generic"
    assert family_report("w", 2, 3, S_INF, GENERALIZED).family == "w"
    assert family_report("dicke", 2, 4, S_INF, GENERALIZED, k=2).k == 2
    with pytest.raises(DomainError):
        family_report("dicke", 2, 4, S_INF, GENERALIZED)  # k missing
    with pytest.raises(DomainError):
        family_report("w", 3, 3, S_INF, GENERALIZED)  # W is a qubit family
    with pytest.raises(DomainError):
        family_report("unknown", 2, 2, 2, PROJECTIVE)


def test_report_row_shape():
    row = ghz_qubit_exact(3).row()
    assert row["regime"] == "overall"
    assert row["s"] == "inf"
    assert set(row) >= {
        "family", "d", "n", "s", "meas_type", "upsilon_lo", "upsilon_hi",
        "tol_lo", "tol_hi", "noise_lo", "noise_hi", "active_term", "regime",
    }
