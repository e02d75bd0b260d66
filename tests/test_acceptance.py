"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they pass.
"""

import csv
import math
import os
import time

import numpy as np
import pytest

from helpers import random_assignment, random_density, vertex_scan_bounds

import belltol as bt
from belltol.bounds import (
    GENERALIZED,
    GHZ_33_DISCREPANCY_NOTE,
    PROJECTIVE,
    S_INF,
    sweep_reports,
)
from belltol.scenario import BellFunctional, Scenario

SQRT2 = math.sqrt(2.0)
DATA = os.path.join(os.path.dirname(__file__), "data")


def announce(number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number}: {status} — {detail}")


@pytest.fixture(scope="module")
def ghz_seesaw():
    """Seesaw on ghz(2, n) with mermin(n), 20 restarts, seed 1, for n = 2, 3, 4."""
    results = {}
    start = time.monotonic()
    for n in (2, 3, 4):
        results[n] = bt.seesaw(bt.mermin(n), bt.ghz(2, n), restarts=20, seed=1)
    elapsed = time.monotonic() - start
    return results, elapsed


def test_criterion_1_ghz_qubit_projective_value(ghz_seesaw):
    results, elapsed = ghz_seesaw
    ok = elapsed < 60.0
    details = [f"runtime {elapsed:.2f}s"]
    for n, res in results.items():
        target = 2.0 ** ((n - 1) / 2.0)
        ok = ok and abs(res.value - target) <= 1e-6
        details.append(f"n={n}: {res.value:.9f} vs {target:.9f}")
    announce(1, ok, "; ".join(details))
    assert ok


def test_criterion_2_tolerance_formula(ghz_seesaw):
    results, _ = ghz_seesaw
    ok = True
    details = []
    for n, res in results.items():
        computed = bt.tolerance_from_violation(res.value)
        target = 2.0 / (1.0 + 2.0 ** ((n - 1) / 2.0))
        ok = ok and abs(computed - target) <= 1e-6
        details.append(f"n={n}: 2/(1+Y)={computed:.9f} vs {target:.9f}")
    t3 = bt.tolerance_from_violation(2.0)
    m3 = bt.max_tolerable_noise(t3)
    ok = ok and abs(t3 - 2.0 / 3.0) <= 1e-12 and abs(m3 - 1.0 / 3.0) <= 1e-12
    details.append(f"n=3 exact: T={t3!r}, M={m3!r}")
    announce(2, ok, "; ".join(details))
    assert ok


def test_criterion_3_lhv_constants():
    ok = True
    details = []
    for f in (bt.chsh(), bt.mermin(3), bt.mermin(4)):
        b = bt.lhv_bounds(f)
        sup_scan, inf_scan = vertex_scan_bounds(f)
        exact = b.b_lhv == 2.0
        crossed = abs(sup_scan - b.sup) <= 1e-9 and abs(inf_scan - b.inf) <= 1e-9
        ok = ok and exact and crossed
        details.append(f"{f.label}: b_lhv={b.b_lhv} scan=({sup_scan:.12f},{inf_scan:.12f})")
    announce(3, ok, "; ".join(details))
    assert ok


def test_criterion_4_critical_visibility():
    cases = [
        ("ghz(2,2)+chsh", bt.ghz(2, 2), bt.chsh(), 1.0 / SQRT2),
        ("ghz(2,3)+mermin3", bt.ghz(2, 3), bt.mermin(3), 0.5),
    ]
    ok = True
    details = []
    for name, state, functional, target in cases:
        assignment = bt.seesaw(functional, state, restarts=20, seed=1).assignment
        start = time.monotonic()
        vis = bt.critical_visibility(state, bt.NoiseSpec.white(), assignment)
        lp_time = time.monotonic() - start
        ok = ok and abs(vis.beta_star - target) <= 1e-6 and lp_time < 1.0
        details.append(f"{name}: beta*={vis.beta_star:.9f} vs {target:.9f} ({lp_time*1e3:.0f} ms)")
    announce(4, ok, "; ".join(details))
    assert ok


def _golden_rows():
    with open(os.path.join(DATA, "bounds_golden.csv")) as fh:
        return {
            (r["family"], r["d"], r["n"], r["s"], r["k"], r["meas_type"]): r
            for r in csv.DictReader(fh)
        }


def test_criterion_5_bound_tables():
    golden = _golden_rows()
    reports = []
    for family in ("generic", "ghz"):
        reports += sweep_reports(family, [2, 3, 4, 5], [2, 3, 4, 5],
                                 [2, 3, S_INF], [PROJECTIVE, GENERALIZED])
    reports += sweep_reports("w", [2], [2, 3, 4, 5], [S_INF], [GENERALIZED])
    for n in (2, 3, 4, 5):
        reports += sweep_reports("dicke", [2], [n], [S_INF], [GENERALIZED])

    seen = set()
    worst = 0.0
    for r in reports:
        row = r.row()
        key = (row["family"], str(row["d"]), str(row["n"]), str(row["s"]),
               str(row["k"]), row["meas_type"])
        if key in seen:
            continue
        seen.add(key)
        g = golden[key]
        for col in ("upsilon_lo", "upsilon_hi", "tol_lo", "tol_hi",
                    "noise_lo", "noise_hi"):
            worst = max(worst, abs(row[col] - float(g[col])))
        assert row["active_term"] == g["active_term"], key
        assert row["regime"] == g["regime"], key
    assert len(seen) == len(golden), (len(seen), len(golden))

    # named spot values, against hand arithmetic
    spots = [
        abs(bt.generic_noise_bounds(3, 2, 2, GENERALIZED).max_noise.upper - 0.5),
        abs(bt.generic_noise_bounds(4, 3, 2, GENERALIZED).max_noise.upper - 0.8),
        abs(bt.ghz_noise_bounds(3, 2, S_INF, GENERALIZED).max_noise.upper - 2.0 / 3.0),
        abs(bt.ghz_noise_bounds(5, 2, S_INF, GENERALIZED).max_noise.upper - 4.0 / 5.0),
    ]
    for n in (2, 3, 4, 5):
        r = bt.ghz_qubit_exact(n)
        spots.append(abs(r.tolerance.lower - 1.0 / (1.0 + 2.0 ** (n - 2))))
        spots.append(abs(r.tolerance.upper - 2.0 / (1.0 + 2.0 ** ((n - 1) / 2.0))))
    ok = worst <= 1e-12 and max(spots) <= 1e-12
    announce(5, ok, f"{len(seen)} golden rows, worst gap {worst:.2e}, "
                    f"spot gap {max(spots):.2e}")
    assert ok


def test_criterion_6_property_suites():
    rng = np.random.default_rng(2024)
    # behavior normalization + nonsignaling on 100 random state+POVM instances
    worst_sum, worst_ns = 0.0, 0.0
    for i in range(100):
        parties = 2 if i % 3 else 3
        d = 2 if parties == 3 else int(rng.integers(2, 4))
        outcomes = int(rng.integers(2, 4))
        rho = random_density(d, parties, rng)
        assign = random_assignment(d, parties, 2, outcomes, rng)
        b = bt.behavior(rho, assign)
        for s, table in b.tables.items():
            worst_sum = max(worst_sum, abs(float(table.sum()) - 1.0))
            assert table.min() >= -1e-12
        for party in range(parties):
            marg0 = None
            for s in sorted(b.tables):
                if any(s[p] != 0 for p in range(parties) if p != party):
                    continue
                m = b.tables[s].sum(axis=party)
                if marg0 is None or s[party] == 0:
                    marg0 = m
                else:
                    worst_ns = max(worst_ns, float(np.max(np.abs(m - marg0))))
    ok = worst_sum <= 1e-9 and worst_ns <= 1e-9

    # affinity of the functional value in the state
    worst_aff = 0.0
    # CHSH on the (-1, +1) outcomes of random_povm; reversing both outcome
    # orders leaves its correlator tables as they are
    f = BellFunctional.from_tables(Scenario.uniform(2, 2), bt.chsh().coeffs)
    for _ in range(100):
        zeta = random_density(2, 2, rng)
        rho = random_density(2, 2, rng)
        assign = random_assignment(2, 2, 2, 2, rng)
        beta = float(rng.uniform())
        lhs = bt.evaluate(f, bt.behavior(bt.mix(zeta, rho, beta), assign))
        rhs = (1 - beta) * bt.evaluate(f, bt.behavior(zeta, assign)) \
            + beta * bt.evaluate(f, bt.behavior(rho, assign))
        worst_aff = max(worst_aff, abs(lhs - rhs))
    ok = ok and worst_aff <= 1e-9

    # seesaw sweeps never decrease
    worst_drop = 0.0
    for seed in (1, 2, 3):
        res = bt.seesaw(bt.mermin(3), bt.ghz(2, 3), restarts=5, seed=seed)
        diffs = np.diff(np.array(res.trace))
        if diffs.size:
            worst_drop = max(worst_drop, float(max(0.0, -diffs.min())))
    ok = ok and worst_drop <= 1e-12

    # enumeration vs LP equivalence, including a 10^4-strategy scenario
    shapes = [(2, 2, 2), (3, 2, 2), (2, 3, 2), (2, 2, 3), (2, 2, 4),
              (4, 2, 2), (2, 2, 10)]
    worst_scan = 0.0
    for parties, settings, outcomes in shapes:
        sc = Scenario.uniform(parties, settings, outcomes)
        count = bt.strategy_count(sc)
        assert count <= 10**4
        coeffs = {
            s: rng.uniform(-1.0, 1.0, sc.outcome_counts(s))
            for s in sc.joint_settings()
        }
        f_rand = BellFunctional.from_tables(sc, coeffs)
        b = bt.lhv_bounds(f_rand)
        sup_scan, inf_scan = vertex_scan_bounds(f_rand)
        worst_scan = max(worst_scan, abs(sup_scan - b.sup), abs(inf_scan - b.inf))
    ok = ok and worst_scan <= 1e-9

    announce(6, ok, f"behavior sum gap {worst_sum:.2e}, nonsignaling gap "
                    f"{worst_ns:.2e}, affinity gap {worst_aff:.2e}, "
                    f"seesaw drop {worst_drop:.2e}, lhv-vs-scan gap {worst_scan:.2e}")
    assert ok


def test_criterion_7_asymptotics():
    exact = 2.0 / (1.0 + 2.0 ** 10)
    approx = bt.ghz_qubit_asymptotic(21)
    gap21 = abs(approx / exact - 1.0)

    res = bt.dicke_half_asymptotic(200)
    gap200 = abs(res.binomial_ratio - 1.0)
    ok = gap21 < 0.01 and gap200 < 0.01
    announce(7, ok, f"ghz n=21 relative gap {gap21:.3e}; "
                    f"dicke n=200 binomial Stirling ratio {res.binomial_ratio:.6f}")
    assert ok


def test_criterion_8_paper_discrepancy_flag():
    r = bt.ghz_noise_bounds(3, 3, 2, PROJECTIVE)
    ok = (
        abs(r.max_noise.upper - 0.5) <= 1e-12
        and r.upsilon.active_term == "d^((n-1)/2)"
        and GHZ_33_DISCREPANCY_NOTE in r.notes
        and "2/3" in GHZ_33_DISCREPANCY_NOTE
    )
    announce(8, ok, f"noise_hi={r.max_noise.upper}, active={r.upsilon.active_term}, "
                    f"note attached: {GHZ_33_DISCREPANCY_NOTE in r.notes}")
    assert ok
