"""The benchmark's three workloads.

Each workload's ``setup(seed)`` returns a Plan: a fixed list of jobs (the
timed calls into belltol), the name of its top-rung job, a warm-up and a
``check`` that compares every pass's outputs with independent computations
from ``reference``. All passes of a run repeat the same jobs on the same
inputs. Jobs look belltol's functions up on their modules at call time, so
the tracer's rebinding is seen.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import operator
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from belltol import cli, polytope, qvalue, scenario, states

import reference as ref

# Seesaw restarts per CLI job. Over 30-200 seeds per state, a single
# restart of the Mermin seesaw ended below its best value on a share of about
# 0.19 (ghz:2,3), 0.135 (ghz:3,3), 0.03 (ghz:2,4), 0.07 (ghz:2,5 and
# ghz:2,6), 0.015 (w:3), 0.005 (w:4) and 0 (w:5, dicke:4,2, dicke:6,3). The
# counts below keep a miss, which fails the checks, near one job in a
# million; five on ghz:2,6, where a restart costs 0.45-0.6 s, make it about
# two in 10^6, and two on dicke:6,3, where none fell short, keep the top rung
# near 3 s. Four on the W violations keep a miss below 10^-7.
TOLERANCE_RESTARTS = {"ghz:2,3": "8", "ghz:3,3": "8", "ghz:2,4": "8", "ghz:2,5": "8",
                      "ghz:2,6": "5", "dicke:6,3": "2"}
DEFAULT_TOLERANCE_RESTARTS = "3"
VIOLATION_RESTARTS = {"ghz:2,6": "5", "w:3": "4", "w:4": "4"}
DEFAULT_VIOLATION_RESTARTS = "8"
# best Mermin value that single seesaw restarts reached over the seeds
# above, rounded down at 1e-6; qubit GHZ states have the closed form
# 2^((n-1)/2) instead. The CHSH fallback of the tolerance library sits well
# below each (1.2 on w:3), so a seesaw that stops short fails the check.
MERMIN_FLOOR = {"ghz:3,3": 1.666666, "w:3": 1.522978, "w:4": 1.554297, "w:5": 1.569841,
                "dicke:4,2": 2.121320, "dicke:6,3": 3.535533}
# seconds of one pass with its calibration units at reference speed, as
# measured over ten seeds; they fix the number of passes of a run
TOLERANCE_PASS_S = 27.0
VISIBILITY_PASS_S = 16.0
LARGE_STATE_PASS_S = 14.0
# copies of the tolerance-ladder top rung per pass
TOLERANCE_TOP_COPIES = 4
# relative rounding of a printed effect entry (half a unit in the 9th
# significant digit) doubled, as an observable is E+ - E-
PRINT_REL = 1e-9

SY = np.array([[0, -1j], [1j, 0]])
SX = np.array([[0, 1], [1, 0]], dtype=complex)


@dataclass
class Job:
    name: str
    call: Callable[[], object]
    # untimed reduction of the call's result to what the checks need, run
    # right after the call so large results are not kept
    digest: Callable[[object], object]


@dataclass
class Plan:
    jobs: list[Job]
    # the workload's largest jobs: one or several of the same size, spread
    # over the pass so that their times are taken at different moments
    top_rungs: tuple[str, ...]
    check: Callable[[dict[str, object]], list[str]]
    warmup: Callable[[], None]
    # seconds of one pass with its calibration units, at reference speed
    # (see calibrate.py); a run holds round(--seconds / pass_s) passes
    pass_s: float
    # jobs that fail on every run because of a known fault of belltol, with
    # the exception each raises; any other failure is an error of the run
    known_faults: dict[str, type[BaseException]] = field(default_factory=dict)


def _seeds(seed: int, count: int) -> list[int]:
    rng = np.random.default_rng([seed, 7])
    return [int(x) for x in rng.integers(1, 2**31 - 1, size=count)]


def _close(errors: list[str], label: str, got: float, want: float, tol: float) -> None:
    if not abs(got - want) <= tol:
        errors.append(f"{label}: got {got!r}, expected {want!r} within {tol:g}")


# --- tolerance-ladder ---------------------------------------------------------


def _run_cli(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"belltol {' '.join(argv)} exited with {code}")
    return buf.getvalue()


def _cli_job(argv: list[str]) -> Job:
    return Job(" ".join(argv), lambda: _run_cli(argv), lambda out: json.loads(out)["results"])


def _state_vector(spec: str) -> np.ndarray:
    kind, _, arg = spec.partition(":")
    nums = [int(x) for x in arg.split(",")]
    if kind == "ghz":
        return ref.ghz_vector(*nums)
    if kind == "w":
        return ref.dicke_vector(nums[0], 1)
    return ref.dicke_vector(*nums)


def _parties(spec: str) -> int:
    kind, _, arg = spec.partition(":")
    nums = [int(x) for x in arg.split(",")]
    return nums[1] if kind == "ghz" else nums[0]


def _family_lower(spec: str) -> float:
    kind, _, arg = spec.partition(":")
    nums = [int(x) for x in arg.split(",")]
    if kind == "ghz":
        return ref.ghz_tolerance_lower(*nums)
    return ref.w_dicke_tolerance_lower(nums[0])


def tolerance_ladder(seed: int) -> Plan:
    """CLI bounds / tolerance / violation over the qubit GHZ ladder n = 3..6,
    one qutrit GHZ, W n = 3..5 and Dicke (4,2), (6,3).

    The top rung, tolerance on dicke:6,3, runs TOLERANCE_TOP_COPIES times
    per pass, spread over it. The rungs next to the median (tolerance and
    violation on ghz:2,5 and dicke:4,2) run twice. Every job has a seed of
    its own. With 27 jobs the median sits among the eight jobs of
    0.24-0.37 s, so job_p50_s does not jump to a neighbour of very different
    length."""
    tol_states = [f"ghz:2,{n}" for n in range(3, 7)] + [
        "ghz:3,3", "w:3", "w:4", "w:5", "dicke:4,2"]
    viol_states = [f"ghz:2,{n}" for n in range(3, 7)] + ["w:3", "w:4", "dicke:4,2"]
    twice = [("tolerance", "ghz:2,5"), ("tolerance", "dicke:4,2"),
             ("violation", "ghz:2,5"), ("violation", "dicke:4,2")]
    seeds = iter(_seeds(seed, len(tol_states) + len(viol_states) + len(twice)
                        + TOLERANCE_TOP_COPIES))
    kinds: dict[str, tuple[str, str]] = {}

    def run(kind: str, spec: str) -> Job:
        if kind == "tolerance":
            argv = ["tolerance", "--state", spec, "--restarts",
                    TOLERANCE_RESTARTS.get(spec, DEFAULT_TOLERANCE_RESTARTS)]
        else:
            argv = ["violation", "--state", spec, "--functional", f"mermin:{_parties(spec)}",
                    "--restarts", VIOLATION_RESTARTS.get(spec, DEFAULT_VIOLATION_RESTARTS)]
        job = _cli_job(argv + ["--seed", str(next(seeds))])
        kinds[job.name] = (kind, spec)
        return job

    jobs = [
        _cli_job(["bounds", "--family", "ghz", "--d", "2..3", "--n", "3..7", "--s", "2,inf"]),
        _cli_job(["bounds", "--family", "w", "--n", "3..5"]),
        _cli_job(["bounds", "--family", "dicke", "--n", "4..6"]),
    ]
    jobs += [run("tolerance", spec) for spec in tol_states]
    jobs += [run("violation", spec) for spec in viol_states]
    jobs += [run(kind, spec) for kind, spec in twice]
    tops = [run("tolerance", "dicke:6,3") for _ in range(TOLERANCE_TOP_COPIES)]
    # the top rungs split the other jobs into equal runs, the last at the end
    base, jobs, prev = jobs, [], 0
    for i, top in enumerate(tops):
        cut = round((i + 1) * len(base) / len(tops))
        jobs += base[prev:cut] + [top]
        prev = cut
    tops = tuple(job.name for job in tops)

    def check(outputs: dict[str, object]) -> list[str]:
        errors: list[str] = []
        for name, res in outputs.items():
            if name.startswith("bounds"):
                _check_bound_rows(name, res, errors)
                continue
            kind, spec = kinds[name]
            if kind == "tolerance":
                lo, hi = res["tolerance_interval"]
                upsilon = res["upsilon_seesaw"]
                _close(errors, f"{name}: tolerance lower", lo, _family_lower(spec), 1e-8)
                if not lo <= hi <= 2.0 / (1.0 + upsilon) + 1e-8:
                    errors.append(f"{name}: interval [{lo}, {hi}] inconsistent with the seesaw value")
                if spec.startswith("ghz:2,"):
                    n = int(spec.split(",")[1])
                    _close(errors, f"{name}: GHZ seesaw value", upsilon, ref.ghz_violation(n), 1e-6)
                elif not upsilon >= MERMIN_FLOOR[spec]:
                    errors.append(f"{name}: seesaw value {upsilon!r} below {MERMIN_FLOOR[spec]}, "
                                  "the best Mermin value single restarts reach")
                continue
            psi = _state_vector(spec)
            n = psi.ndim
            reported = res["upsilon_lower_bound"]
            if spec.startswith("ghz:2,"):
                _close(errors, f"{name}: GHZ violation", reported, ref.ghz_violation(n), 1e-6)
            # the CLI prints 9 significant digits, effects included; their
            # rounding propagates through every correlator of the sum
            weights = ref.mk_weights(n)
            tol = 1e-8 + PRINT_REL * n * sum(abs(w) for w in weights.values()) / 2.0
            value = ref.mk_value(psi, ref.observables_from_assignment(res["assignment"]))
            _close(errors, f"{name}: re-evaluated assignment", value, reported, tol)
            if value > ref.ghz_violation(n) + tol:
                errors.append(f"{name}: value {value} exceeds the MK quantum maximum")
        return errors

    def warmup() -> None:
        _run_cli(["bounds", "--family", "ghz", "--n", "3"])
        _run_cli(["tolerance", "--state", "ghz:2,3", "--restarts", "1"])

    return Plan(jobs, tops, check, warmup, TOLERANCE_PASS_S)


def _check_bound_rows(name: str, rows: list[dict], errors: list[str]) -> None:
    for row in rows:
        label = f"{name}: row d={row['d']} n={row['n']} s={row['s']} {row['meas_type']}"
        lo, hi = row["tol_lo"], row["tol_hi"]
        if not 0.0 < lo <= hi <= 1.0:
            errors.append(f"{label}: tolerance interval [{lo}, {hi}] out of order")
        _close(errors, f"{label}: noise_hi", row["noise_hi"], 1.0 - lo, 1e-8)
        _close(errors, f"{label}: noise_lo", row["noise_lo"], 1.0 - hi, 1e-8)
        if row["family"] == "ghz" and row["s"] == "inf":
            _close(errors, f"{label}: tol_lo", lo, ref.ghz_tolerance_lower(row["d"], row["n"]), 1e-8)
        elif row["family"] in ("w", "dicke"):
            _close(errors, f"{label}: tol_lo", lo, ref.w_dicke_tolerance_lower(row["n"]), 1e-8)


# --- visibility-lp -----------------------------------------------------------


def _yx(n: int) -> qvalue.MeasurementAssignment:
    pair = (qvalue.Measurement.dichotomic_from_observable(SY),
            qvalue.Measurement.dichotomic_from_observable(SX))
    return qvalue.MeasurementAssignment((pair,) * n)


def _cglmp3() -> qvalue.MeasurementAssignment:
    """CGLMP measurements for two qutrits: Alice phases 0, 1/2, Bob 1/4, -1/4."""
    d = 3
    values = tuple(np.linspace(-1.0, 1.0, d))

    def meas(alpha: float, sign: int) -> qvalue.Measurement:
        vecs = [np.exp(2j * np.pi * np.arange(d) * (sign * k + alpha) / d) / math.sqrt(d)
                for k in range(d)]
        return qvalue.Measurement(tuple(np.outer(v, v.conj()) for v in vecs), values)

    return qvalue.MeasurementAssignment(
        ((meas(0.0, 1), meas(0.5, 1)), (meas(0.25, -1), meas(-0.25, -1))))


@dataclass
class _Case:
    """A state, its reference vector and a fixed measurement assignment."""

    state: object
    psi: np.ndarray
    meas: object
    analytic_beta: float | None = None
    _lp: tuple | None = None

    def lp_data(self):
        """Own vertex matrix and behavior vectors of signal and white noise."""
        if self._lp is None:
            effects = [[m.effects for m in party] for party in self.meas.measurements]
            counts = [[len(e) for e in party] for party in effects]
            psi = self.psi.ravel()
            dim = psi.size
            signal = ref.behavior_vector(np.outer(psi, psi.conj()), effects)
            noise = ref.behavior_vector(np.eye(dim) / dim, effects)
            self._lp = (ref.vertex_matrix(counts), noise, signal)
        return self._lp


def visibility_lp(seed: int) -> Plan:
    """critical_visibility and is_local on assignments fixed here, up to four
    parties. The seesaw assignments use seed 1 whatever the benchmark seed:
    other seeds give W(3) assignments on which the native simplex returns a
    wrong beta*, so only the nonlocal membership probes follow the seed."""
    ghz3, ghz4, ghz32 = states.ghz(2, 3), states.ghz(2, 4), states.ghz(3, 2)
    w3, w4, d42 = states.w_state(3), states.w_state(4), states.dicke(4, 2)
    mk3, mk4 = scenario.mermin(3), scenario.mermin(4)
    seesaw = qvalue.seesaw
    cases = {
        "ghz3-yx": _Case(ghz3, ref.ghz_vector(2, 3), _yx(3), 0.5),
        "ghz4-yx": _Case(ghz4, ref.ghz_vector(2, 4), _yx(4)),
        "ghz3-mk": _Case(ghz3, ref.ghz_vector(2, 3),
                         seesaw(mk3, ghz3, restarts=5, seed=1).assignment, 2.0 ** -1),
        "ghz4-mk": _Case(ghz4, ref.ghz_vector(2, 4),
                         seesaw(mk4, ghz4, restarts=5, seed=1).assignment, 2.0 ** -1.5),
        "cglmp": _Case(ghz32, ref.ghz_vector(3, 2), _cglmp3(), ref.cglmp3_visibility()),
        "w3-mk": _Case(w3, ref.dicke_vector(3, 1),
                       seesaw(mk3, w3, restarts=5, seed=1).assignment),
        "dicke42-mk": _Case(d42, ref.dicke_vector(4, 2),
                            seesaw(mk4, d42, restarts=5, seed=1).assignment),
        "w4-mk": _Case(w4, ref.dicke_vector(4, 1),
                       seesaw(mk4, w4, restarts=5, seed=1).assignment),
    }
    white = states.NoiseSpec.white()

    # (case, beta) of every membership probe. Local probes sit at fixed betas;
    # those at 0.2 and 0.5 under ghz3-yx are fault F1 and fail on every run.
    # Nonlocal probes are stratified over (lo, 1] so their total cost varies
    # little with the seed. The job list is balanced around the nine local
    # dicke42-mk probes (0.35-0.5 s each): about as many jobs are shorter (the
    # 3-party visibilities, F1, F2, the fastest nonlocal probes) as longer, so
    # the median job is one of them. A median among 10-20 ms jobs moved by
    # 0.3 of itself between runs.
    probes = [("dicke42-mk", beta) for beta in (0.2, 0.225, 0.25, 0.275, 0.3, 0.325, 0.35,
                                                0.375, 0.4)]
    probes += [("ghz3-yx", 0.2), ("ghz3-yx", 0.5)]
    rng = np.random.default_rng([seed, 11])
    for label, lo, strata in (("dicke42-mk", 0.52, 3), ("ghz4-mk", 0.40, 2),
                              ("ghz4-yx", 0.55, 2)):
        for i in range(strata):
            probes.append((label, lo + (1.0 - lo) * (i + rng.uniform(0.05, 0.95)) / strata))

    jobs: list[Job] = []
    kinds: dict[str, tuple] = {}
    # fault F2 is the w4-mk visibility
    for label in ("ghz3-yx", "ghz3-mk", "ghz4-mk", "ghz4-yx", "cglmp", "w3-mk",
                  "dicke42-mk", "w4-mk"):
        case = cases[label]
        name = f"critical_visibility {label}"
        jobs.append(Job(
            name,
            lambda c=case: polytope.critical_visibility(c.state, white, c.meas),
            lambda r: (r.beta_star, np.array(r.weights)),
        ))
        kinds[name] = ("visibility", case)
    for label, beta in probes:
        case = cases[label]
        mixed = qvalue.behavior(states.mix(states.white_noise(case.state.d, case.state.n),
                                           case.state, beta), case.meas)
        name = f"is_local {label} beta={beta:.6f}"
        jobs.append(Job(name, lambda b=mixed: _membership_job(b), _membership_digest))
        kinds[name] = ("membership", case, beta)

    def check(outputs: dict[str, object]) -> list[str]:
        errors: list[str] = []
        for name, out in outputs.items():
            kind, case = kinds[name][:2]
            vertices, noise, signal = case.lp_data()
            delta = signal - noise
            if kind == "visibility":
                beta, weights = out
                _close(errors, f"{name}: beta* vs HiGHS", beta,
                       ref.highs_visibility(vertices, noise, delta), 1e-7)
                if case.analytic_beta is not None:
                    _close(errors, f"{name}: beta* vs closed form", beta, case.analytic_beta, 1e-7)
                _check_weights(errors, name, vertices, weights, noise + beta * delta)
                continue
            beta = kinds[name][2]
            target = noise + beta * delta
            local, weights, farkas, lhv_sup = out
            if local != ref.highs_is_local(vertices, target):
                errors.append(f"{name}: is_local={local} disagrees with HiGHS")
            if local:
                _check_weights(errors, name, vertices, weights, target)
                continue
            f = farkas[:-1]
            own_sup = float(np.max(f @ vertices))
            _close(errors, f"{name}: lhv_bounds sup vs own vertices", lhv_sup, own_sup, 1e-9)
            if not float(f @ target) > own_sup + 1e-12:
                errors.append(f"{name}: separating functional {float(f @ target)!r} does "
                              f"not exceed its local supremum {own_sup!r}")
        return errors

    def warmup() -> None:
        polytope.critical_visibility(ghz3, white, cases["ghz3-yx"].meas)
        polytope.is_local(qvalue.behavior(ghz3, cases["ghz3-yx"].meas))

    singular = np.linalg.LinAlgError
    faults = {"critical_visibility w4-mk": singular,  # F2
              **{f"is_local ghz3-yx beta={beta:.6f}": singular for beta in (0.2, 0.5)}}  # F1
    assert faults.keys() <= kinds.keys()
    return Plan(jobs, ("critical_visibility ghz4-mk",), check, warmup, VISIBILITY_PASS_S, faults)


def _membership_job(b):
    res = polytope.is_local(b)
    if res.is_local:
        return res, None
    f = polytope.separating_functional(b.scenario, res.farkas)
    return res, scenario.lhv_bounds(f)


def _membership_digest(out):
    res, lhv = out
    if res.is_local:
        return True, np.array(res.weights), None, None
    return False, None, np.array(res.farkas), lhv.sup


def _check_weights(errors, name, vertices, weights, target) -> None:
    if weights.min() < -1e-9:
        errors.append(f"{name}: negative weight {weights.min()!r}")
    _close(errors, f"{name}: weight sum", float(weights.sum()), 1.0, 1e-9)
    residual = float(np.max(np.abs(vertices @ weights - target)))
    if residual > 1e-7:
        errors.append(f"{name}: weights rebuild the behavior only to {residual:.3e}")


# --- large-state ------------------------------------------------------------


def _random_bases(rng, parties: int, settings: int) -> list[list[np.ndarray]]:
    out = []
    for _ in range(parties):
        row = []
        for _ in range(settings):
            z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            q, r = np.linalg.qr(z)
            row.append(q * (np.diag(r) / np.abs(np.diag(r))))
        out.append(row)
    return out


def _assignment(bases) -> qvalue.MeasurementAssignment:
    return qvalue.MeasurementAssignment(tuple(
        tuple(qvalue.Measurement(tuple(np.outer(u[:, k], u[:, k].conj()) for k in range(2)),
                                 (1.0, -1.0)) for u in row)
        for row in bases))


# parties with two settings in the large-state top rung (2^TOP_WIDE tables),
# and its copies per pass
TOP_WIDE = 4
TOP_COPIES = 4


def large_state(seed: int) -> Plan:
    """State construction at dimension 512-1024, then behavior and evaluate
    for fixed product measurements at n = 6 (two settings), 7 (two settings
    on four parties) and 8 (one setting).

    The top rung, the n = 7 table set, runs TOP_COPIES times per pass on
    as many sets of bases, spread over the pass. All 128 tables of two
    settings on every party take 11-16 s, one sample per run that moved by a
    third between runs. 16 tables take 1.0-2.1 s, moving by up to 2x between
    calls in a row, so a run takes the median of eight samples. Sizes are chosen so that the median job sits among several jobs
    of similar length (0.6-0.7 s), which keeps job_p50_s from jumping between
    neighbours of very different length."""
    rng = np.random.default_rng([seed, 13])
    bases6 = _random_bases(rng, 6, 2)
    # two settings on the first TOP_WIDE parties, one on the others
    bases7 = [[row[:2] if p < TOP_WIDE else row[:1] for p, row in enumerate(_random_bases(rng, 7, 2))]
              for _ in range(TOP_COPIES)]
    bases8 = _random_bases(rng, 8, 1)
    z8 = [[np.eye(2, dtype=complex)] for _ in range(8)]
    beta9, beta6, beta8 = (float(x) for x in rng.uniform(0.1, 0.9, size=3))
    k9, k8 = int(rng.integers(1, 9)), int(rng.integers(1, 8))

    jobs: list[Job] = []
    expect: dict[str, tuple] = {}

    def construct(name, call, psi, beta=None):
        jobs.append(Job(name, call, lambda rho: _state_digest(rho, psi, beta)))
        expect[name] = ("state", psi, beta, None, None)

    def measure(name, build, psi, bases, mermin, beta=None):
        """behavior, then evaluate with MK (two settings everywhere) or the
        full correlator at setting 0 of every party."""
        meas = _assignment(bases)
        n = psi.ndim
        weights = ref.mk_weights(n) if mermin else {(0,) * n: 1.0}

        def call():
            b = qvalue.behavior(build(), meas)
            f = (scenario.mermin(n) if mermin
                 else scenario.product_expectation_functional(b.scenario, (0,) * n, range(n)))
            return b, qvalue.evaluate(f, b)
        jobs.append(Job(name, call, lambda out: (dict(out[0].tables), out[1])))
        expect[name] = ("behavior", psi, beta, bases, weights)

    tops = tuple(f"behavior ghz(2,7) x2^{TOP_WIDE} {tag}" for tag in "abcd"[:TOP_COPIES])

    def top(i):
        measure(tops[i], lambda: states.ghz(2, 7), ref.ghz_vector(2, 7), bases7[i], False)

    top(0)
    construct("ghz(2,10)", lambda: states.ghz(2, 10), ref.ghz_vector(2, 10))
    construct(f"dicke(9,{k9})", lambda: states.dicke(9, k9), ref.dicke_vector(9, k9))
    construct("w_state(10)", lambda: states.w_state(10), ref.dicke_vector(10, 1))
    zero = np.zeros((2,) * 10, dtype=complex)
    zero[(0,) * 10] = 1.0
    construct("product_zero(2,10)", lambda: states.product_zero(2, 10), zero)
    top(1)
    construct("ghz(3,6)", lambda: states.ghz(3, 6), ref.ghz_vector(3, 6))
    construct("ghz(4,5)", lambda: states.ghz(4, 5), ref.ghz_vector(4, 5))
    construct(f"mix(white(2,9), ghz(2,9), {beta9:.6f})",
              lambda: states.mix(states.white_noise(2, 9), states.ghz(2, 9), beta9),
              ref.ghz_vector(2, 9), beta9)
    top(2)
    measure("behavior ghz(2,6) x2", lambda: states.ghz(2, 6), ref.ghz_vector(2, 6),
            bases6, True)
    measure(f"behavior mix(white, dicke(6,3), {beta6:.6f}) x2",
            lambda: states.mix(states.white_noise(2, 6), states.dicke(6, 3), beta6),
            ref.dicke_vector(6, 3), bases6, True, beta6)
    zname = f"behavior dicke(8,{k8}) Z"
    measure(zname, lambda: states.dicke(8, k8), ref.dicke_vector(8, k8), z8, False)
    top(3)
    measure(f"behavior mix(white, ghz(2,8), {beta8:.6f}) x1",
            lambda: states.mix(states.white_noise(2, 8), states.ghz(2, 8), beta8),
            ref.ghz_vector(2, 8), bases8, False, beta8)

    def check(outputs: dict[str, object]) -> list[str]:
        errors: list[str] = []
        for name, out in outputs.items():
            kind, psi, beta, bases, weights = expect[name]
            if kind == "state":
                deviation, trace, purity = out
                if deviation > 1e-12:
                    errors.append(f"{name}: matrix differs from the reference by {deviation:.3e}")
                _close(errors, f"{name}: trace", trace, 1.0, 1e-10)
                want = 1.0 if beta is None else beta**2 + (1.0 - beta**2) / psi.size
                _close(errors, f"{name}: purity", purity, want, 1e-10)
                continue
            tables, value = out
            n = psi.ndim
            want_tables = functools.reduce(operator.mul, (len(row) for row in bases))
            if len(tables) != want_tables:
                errors.append(f"{name}: {len(tables)} tables, expected {want_tables}")
            own_value = 0.0
            signs = functools.reduce(np.multiply.outer, [np.array([1.0, -1.0])] * n)
            for s, table in tables.items():
                want = ref.projective_table(psi, [bases[p][s_p] for p, s_p in enumerate(s)])
                if beta is not None:
                    want = (1.0 - beta) / 2**n + beta * want
                err = float(np.max(np.abs(table - want)))
                if err > 1e-10:
                    errors.append(f"{name}: table {s} off by {err:.3e}")
                own_value += weights.get(s, 0.0) * float(np.sum(signs * want))
            _close(errors, f"{name}: evaluate", value, own_value, 1e-9)
            if name == zname:
                _close(errors, f"{name}: <Z^n> of Dicke(8,{k8})", value, (-1.0) ** k8, 1e-10)
        return errors

    def warmup() -> None:
        small = _assignment(_random_bases(np.random.default_rng(0), 3, 2))
        qvalue.evaluate(scenario.mermin(3), qvalue.behavior(states.ghz(2, 3), small))
        states.mix(states.white_noise(2, 8), states.ghz(2, 8), 0.5)

    return Plan(jobs, tops, check, warmup, LARGE_STATE_PASS_S)


def _state_digest(rho, psi: np.ndarray, beta: float | None):
    m = rho.matrix
    v = psi.ravel()
    if beta is None:
        deviation = float(np.max(np.abs(m - np.outer(v, v.conj()))))
    else:
        dim = v.size
        want = beta * np.outer(v, v.conj())
        want[np.diag_indices(dim)] += (1.0 - beta) / dim
        deviation = float(np.max(np.abs(m - want)))
    return deviation, float(np.trace(m).real), float(np.vdot(m, m).real)


WORKLOADS = {
    "tolerance-ladder": tolerance_ladder,
    "visibility-lp": visibility_lp,
    "large-state": large_state,
}
