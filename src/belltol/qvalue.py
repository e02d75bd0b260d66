"""Quantum behaviors from states and POVMs, functional evaluation, and seesaw
lower bounds on the maximal Bell violation.

The seesaw takes any functional whose outcomes are (+1, -1) pairs. It expands
each table exactly into correlators (products of outcome values over subsets
of sites), where the optimal single-party update is the closed-form
sign-operator step.

Both ``behavior`` and the seesaw contract the state with one stack of m
operators per site, site 0 first, one ``tensordot`` each (``_site_contract``):
a setting's effects for ``behavior``, [I, O_0, ..., O_(S-1)] for the seesaw,
whose correlator tensor weighs all terms at once. Site p costs about
d^(2(n-p)) m_0 ... m_p multiply-adds, so while m < d^2 a table costs
O(m d^(2n)) and a seesaw sweep n + 1 such contractions, whatever the terms.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, UnsupportedFunctionalError, ValidationError
from .linalg import (
    JsonFile,
    as_cmatrix,
    complex_from_json,
    complex_to_json,
    eig_hermitian,
    frozen,
)
from .scenario import Behavior, BellFunctional, Scenario, lhv_bounds
from .states import DensityMatrix

COMPLETENESS_TOL = 1e-9
EFFECT_PSD_TOL = 1e-9
SIGN_EIG_TOL = 1e-12
# Sweeps per seesaw restart; a restart that reaches it reports converged=False.
MAX_SWEEPS = 500
# A restart stops when a sweep gains less than SWEEP_TOL, and replaces the best
# only if it beats it by more than RESTART_GAIN_TOL * max(1, |best|).
SWEEP_TOL = 1e-10
RESTART_GAIN_TOL = 1e-9


@dataclass(frozen=True)
class Measurement:
    """Finite POVM with an outcome value in [-1, 1] attached to each effect."""

    effects: tuple[np.ndarray, ...]
    outcome_values: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.effects) < 1:
            raise ValidationError("a measurement needs at least one effect")
        if len(self.effects) != len(self.outcome_values):
            raise ValidationError(
                f"{len(self.effects)} effects but {len(self.outcome_values)} outcome values"
            )
        dim = None
        canon = []
        for i, e in enumerate(self.effects):
            m = as_cmatrix(e, f"effect {i}")
            if m.shape[0] != m.shape[1]:
                raise ValidationError(f"effect {i} is not square: {m.shape}")
            if dim is None:
                dim = m.shape[0]
            elif m.shape[0] != dim:
                raise ValidationError("effects have inconsistent dimensions")
            w, _ = eig_hermitian(m, tol=EFFECT_PSD_TOL)
            if w[-1] < -EFFECT_PSD_TOL:
                raise ValidationError(
                    f"effect {i} is not PSD (min eigenvalue {w[-1]:.3e})"
                )
            canon.append(frozen(m))
        total = sum(canon)
        if np.max(np.abs(total - np.eye(dim))) > COMPLETENESS_TOL:
            raise ValidationError("effects do not sum to the identity within 1e-9")
        values = tuple(float(v) for v in self.outcome_values)
        if any(not -1.0 <= v <= 1.0 for v in values):
            raise ValidationError("outcome values must lie in [-1, 1]")
        object.__setattr__(self, "effects", tuple(canon))
        object.__setattr__(self, "outcome_values", values)

    @property
    def dim(self) -> int:
        return self.effects[0].shape[0]

    @property
    def n_outcomes(self) -> int:
        return len(self.effects)

    @classmethod
    def computational_basis(cls, d: int, values=None) -> "Measurement":
        vals = values if values is not None else tuple(np.linspace(-1.0, 1.0, d)) if d > 1 else (1.0,)
        eye = np.eye(d, dtype=np.complex128)
        return cls(tuple(np.outer(eye[:, k], eye[:, k].conj()) for k in range(d)), tuple(vals))

    @classmethod
    def dichotomic_from_observable(cls, obs: np.ndarray) -> "Measurement":
        """Projective +1/-1 measurement splitting the observable's spectrum at 0."""
        w, v = eig_hermitian(obs)
        plus = np.zeros_like(obs, dtype=np.complex128)
        for k, eig in enumerate(w):
            if eig >= 0.0:
                plus += np.outer(v[:, k], v[:, k].conj())
        minus = np.eye(obs.shape[0], dtype=np.complex128) - plus
        return cls((plus, minus), (1.0, -1.0))

    def observable(self) -> np.ndarray:
        """Weighted effect sum, the Hermitian operator with these outcome values."""
        return sum(v * e for v, e in zip(self.outcome_values, self.effects))


@dataclass(frozen=True)
class MeasurementAssignment(JsonFile):
    """One Measurement per (party, setting); all sites share the dimension d."""

    measurements: tuple[tuple[Measurement, ...], ...]

    def __post_init__(self) -> None:
        if len(self.measurements) < 1:
            raise ValidationError("assignment needs at least one party")
        dims = {m.dim for party in self.measurements for m in party}
        if len(dims) != 1:
            raise ValidationError(f"site dimensions differ: {sorted(dims)}")
        object.__setattr__(self, "measurements", tuple(tuple(p) for p in self.measurements))

    @property
    def parties(self) -> int:
        return len(self.measurements)

    @property
    def site_dim(self) -> int:
        return self.measurements[0][0].dim

    def scenario(self) -> Scenario:
        return Scenario(
            tuple(tuple(m.outcome_values for m in party) for party in self.measurements)
        )

    def to_json_dict(self) -> dict:
        return {
            "d": self.site_dim,
            "parties": [
                [
                    {"effects": [complex_to_json(e) for e in m.effects],
                     "outcome_values": list(m.outcome_values)}
                    for m in party
                ]
                for party in self.measurements
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "MeasurementAssignment":
        d = int(data["d"])
        built = []
        for party in data["parties"]:
            row = []
            for m in party:
                effects = tuple(complex_from_json(e, d, "effect") for e in m["effects"])
                row.append(Measurement(effects, tuple(m["outcome_values"])))
            built.append(tuple(row))
        return cls(tuple(built))


def _rho_tensor(rho: DensityMatrix) -> np.ndarray:
    return rho.matrix.reshape((rho.d,) * (2 * rho.n))


def _site_contract(
    rho_t: np.ndarray, stacks: list[np.ndarray], open_site: int | None = None
) -> np.ndarray:
    """T[m_1, ..., m_n] = tr[rho (A_1[m_1] x ... x A_n[m_n])] for operator
    stacks A_p of shape (m_p, d, d), indexed [m, bra, ket].

    Sites are contracted in order, one ``tensordot`` each, against the (ket,
    bra) axis pair of ``rho_t``; the tensor shrinks by d^2 and grows by m_p at
    every site. An ``open_site`` is skipped: its (ket, bra) pair leads the
    result, K[k, b] with tr[rho (... x B x ...)] = tr[K B] for an operator B
    at that site.
    """
    n = len(stacks)
    t = rho_t
    for site, stack in enumerate(stacks):
        if site == open_site:
            continue
        # axes left: kets of the open site (when before this one) and of sites
        # site..n-1, then their bras in the same order, then the m axes so far
        before = int(open_site is not None and open_site < site)
        t = np.tensordot(t, stack, axes=([before, n - site + 2 * before], [2, 1]))
    return t


def behavior(rho: DensityMatrix, meas: MeasurementAssignment) -> Behavior:
    """Joint probability tables p(outcomes | settings) = tr[rho (M_1 x ... x M_n)]."""
    if meas.parties != rho.n:
        raise ValidationError(f"assignment has {meas.parties} parties, state has {rho.n}")
    if meas.site_dim != rho.d:
        raise ValidationError(
            f"assignment site dimension {meas.site_dim} != state dimension {rho.d}"
        )
    sc = meas.scenario()
    rho_t = _rho_tensor(rho)
    effects = [[np.stack(m.effects) for m in party] for party in meas.measurements]
    tables = {}
    for s in sc.joint_settings():
        table = _site_contract(rho_t, [effects[p][s_p] for p, s_p in enumerate(s)]).real
        # clip roundoff-negative entries at the 1e-12 invariant boundary
        table[(table < 0) & (table > -1e-12)] = 0.0
        tables[s] = table
    return Behavior(scenario=sc, tables=tables)


def evaluate(f: BellFunctional, b: Behavior) -> float:
    """Sum over joint settings and outcomes of coefficient times probability.

    The two scenarios must list the same outcome values in the same order:
    tables of equal shape over reordered outcomes would pair the wrong
    entries."""
    if f.scenario.outcomes != b.scenario.outcomes:
        raise ValidationError(
            f"functional outcomes {f.scenario.outcomes} != behavior outcomes "
            f"{b.scenario.outcomes}"
        )
    return sum(float(np.sum(table * b.tables[s])) for s, table in f.coeffs.items())


def violation_ratio(
    f: BellFunctional, rho: DensityMatrix, meas: MeasurementAssignment
) -> float:
    """Violation ratio (``LhvBounds.violation``) of the functional's value for a
    fixed measurement assignment."""
    return lhv_bounds(f).violation(evaluate(f, behavior(rho, meas)))


# --- seesaw -----------------------------------------------------------------


@dataclass(frozen=True)
class CorrelationTerm:
    """One correlator of a functional at one joint setting: weight times the
    product of outcome values over the participating sites."""

    setting: tuple[int, ...]
    weight: float
    participates: tuple[bool, ...]


def correlation_form(f: BellFunctional) -> list[CorrelationTerm]:
    """Expand a functional into correlation terms, one per joint setting and
    subset of participating sites with a nonzero weight.

    Requires two outcomes valued (+1, -1) or (-1, +1) at every setting, and
    raises UnsupportedFunctionalError otherwise. Contracting each table axis
    with 1/2 [[1, 1], [v0, v1]] is the exact inverse of the correlator
    expansion (Werner & Wolf, PRA 64, 032112 (2001)), so every such
    functional has this form; index 1 on an axis means that site
    participates.
    """
    sc = f.scenario
    for p, party in enumerate(sc.outcomes):
        for s, vals in enumerate(party):
            if sorted(vals) != [-1.0, 1.0]:
                raise UnsupportedFunctionalError(
                    f"party {p}, setting {s} outcomes {vals} are not a (+1, -1) pair"
                )
    keys = list(f.coeffs)
    c = np.stack([f.coeffs[s] for s in keys])
    for p in range(sc.parties):
        # party p's axis of every table at once, one matrix per joint setting
        h = 0.5 * np.array([((1.0, 1.0), sc.outcomes[p][s[p]]) for s in keys])
        c = np.moveaxis(np.einsum("kij,k...j->k...i", h, np.moveaxis(c, p + 1, -1)), -1, p + 1)
    terms = [
        CorrelationTerm(keys[k], float(c[(k, *idx)]), tuple(bool(i) for i in idx))
        for k, *idx in zip(*np.nonzero(np.abs(c) > 1e-15))
    ]
    if not terms:
        raise UnsupportedFunctionalError("functional is identically zero")
    return terms


@dataclass(frozen=True)
class SeesawResult:
    value: float  # violation ratio of the objective, LhvBounds.violation
    assignment: MeasurementAssignment
    trace: tuple[float, ...]
    restarts_used: int
    objective: float = 0.0  # signed functional value at the returned assignment
    converged: bool = True  # False when the returned restart hit MAX_SWEEPS


def _haar_basis(d: int, rng: np.random.Generator) -> np.ndarray:
    """Columns of a Haar-random unitary (Ginibre + QR with phase fix)."""
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    return q @ np.diag(np.diag(r) / np.abs(np.diag(r)))


def _random_observable(d: int, rng: np.random.Generator) -> np.ndarray:
    # even +1/-1 eigenvalue split over a Haar-random basis
    basis = _haar_basis(d, rng)
    signs = np.array([1.0 if k < (d + 1) // 2 else -1.0 for k in range(d)])
    return (basis * signs) @ basis.conj().T


def sign_operator(h: np.ndarray) -> np.ndarray:
    """sign(h) via eigendecomposition; eigenvalues within 1e-12 of zero map to +1."""
    w, v = eig_hermitian(h, tol=1e-8)
    signs = np.where(w < -SIGN_EIG_TOL, -1.0, 1.0)
    return (v * signs) @ v.conj().T


def _dichotomic(obs: np.ndarray, values: tuple[float, ...]) -> Measurement:
    """Projective measurement of a +1/-1 observable with its effects in the
    order of ``values``, a setting's outcome values in the functional."""
    m = Measurement.dichotomic_from_observable(obs)
    if values == m.outcome_values:
        return m
    return Measurement(m.effects[::-1], values)


def _correlator_tensor(terms: list[CorrelationTerm], settings: tuple[int, ...]) -> np.ndarray:
    """C with objective sum(C * T), T = _site_contract over the stacks
    [I, O_0, ..., O_(S-1)]: index 0 at a site means the site does not take
    part, index s + 1 that it measures setting s."""
    c = np.zeros(tuple(m + 1 for m in settings))
    for t in terms:
        c[tuple(s + 1 if on else 0 for s, on in zip(t.setting, t.participates))] += t.weight
    return c


def _objective(rho_t: np.ndarray, c: np.ndarray, stacks: list[np.ndarray]) -> float:
    return float(np.sum(c * _site_contract(rho_t, stacks).real))


def _local_operators(
    rho_t: np.ndarray, c: np.ndarray, stacks: list[np.ndarray], party: int
) -> np.ndarray:
    """K of shape (S + 1, d, d) with objective = sum_s tr[K[s + 1] O_s] +
    tr[K[0]] in party's observables O_s, the other parties' held fixed."""
    others = list(range(1, len(stacks)))
    return np.tensordot(
        np.moveaxis(c, party, 0),
        _site_contract(rho_t, stacks, open_site=party),
        axes=(others, [a + 1 for a in others]),
    )


def seesaw(
    f: BellFunctional,
    rho: DensityMatrix,
    restarts: int = 20,
    seed: int = 0,
) -> SeesawResult:
    """Heuristic lower bound on the maximal violation of ``f`` by ``rho``.

    Alternates over parties, replacing each party's dichotomic observables by
    the sign of the local operator obtained by contracting the state with the
    other parties' fixed observables; the objective never decreases. Each
    restart draws fresh Haar-random projective observables from a stream
    seeded by (seed, restart) and stops when a sweep gains less than
    SWEEP_TOL, or after MAX_SWEEPS sweeps. Returns the best restart, ties
    going to the earliest; its ``value`` is the objective's violation ratio
    against the functional's LHV range, so adding a constant to ``f`` leaves
    it unchanged. The search only raises ``f``: to look below its LHV range,
    pass ``f.scaled(-1)``.
    """
    terms = correlation_form(f)
    bounds = lhv_bounds(f)
    sc = f.scenario
    if sc.parties != rho.n:
        raise ValidationError(f"functional has {sc.parties} parties, state has {rho.n}")
    if restarts < 1:
        raise DomainError(f"restarts must be >= 1, got {restarts}")
    d = rho.d
    rho_t = _rho_tensor(rho)
    c = _correlator_tensor(terms, sc.settings)
    eye = np.eye(d, dtype=np.complex128)

    best_objective = -math.inf
    best_obs: list[np.ndarray] | None = None
    best_trace: tuple[float, ...] = ()
    best_converged = True
    for restart in range(restarts):
        rng = np.random.default_rng([seed, restart])
        stacks = [
            np.stack([eye] + [_random_observable(d, rng) for _ in range(sc.settings[p])])
            for p in range(sc.parties)
        ]
        value = _objective(rho_t, c, stacks)
        trace = []
        converged = False
        for _ in range(MAX_SWEEPS):
            for party in range(sc.parties):
                locals_ = _local_operators(rho_t, c, stacks, party)
                for s_here, k in enumerate(locals_[1:], start=1):
                    # a vanishing local operator carries no update direction
                    # (every observable is optimal); keep the current one
                    if np.max(np.abs(k)) > SIGN_EIG_TOL:
                        stacks[party][s_here] = sign_operator(k)
            new_value = _objective(rho_t, c, stacks)
            trace.append(new_value)
            if new_value < value - 1e-12:
                raise ValidationError(
                    f"seesaw objective decreased from {value!r} to {new_value!r}"
                )
            if new_value - value < SWEEP_TOL:
                value = new_value
                converged = True
                break
            value = new_value
        gain = RESTART_GAIN_TOL * max(1.0, abs(best_objective))
        if best_obs is None or value > best_objective + gain:
            best_obs = [stack[1:] for stack in stacks]
            best_trace = tuple(trace)
            best_objective = value
            best_converged = converged

    assert best_obs is not None
    assignment = MeasurementAssignment(
        tuple(
            tuple(_dichotomic(o, sc.outcomes[p][s]) for s, o in enumerate(row))
            for p, row in enumerate(best_obs)
        )
    )
    return SeesawResult(
        value=bounds.violation(best_objective),
        assignment=assignment,
        trace=best_trace,
        restarts_used=restarts,
        objective=best_objective,
        converged=best_converged,
    )


@dataclass(frozen=True)
class UpsilonLowerBound:
    value: float
    best_label: str
    result: SeesawResult
    per_functional: tuple[tuple[str, float], ...]


def upsilon_lower_bound(
    rho: DensityMatrix,
    functional_library: list[BellFunctional],
    restarts: int = 20,
    seed: int = 0,
) -> UpsilonLowerBound:
    """Best seesaw violation over a functional library: a certified lower bound
    on the maximal violation, with the achieving functional's identity."""
    if not functional_library:
        raise DomainError("functional library must be nonempty")
    best: SeesawResult | None = None
    best_i = -1
    per = []
    for i, f in enumerate(functional_library):
        res = seesaw(f, rho, restarts=restarts, seed=seed)
        per.append((f.label or f"functional{i}", res.value))
        if best is None or res.value > best.value:
            best, best_i = res, i
    assert best is not None
    label = functional_library[best_i].label or f"functional{best_i}"
    return UpsilonLowerBound(
        value=best.value, best_label=label, result=best, per_functional=tuple(per),
    )


def write_sweep_trace(path: str, trace: tuple[float, ...]) -> None:
    """Per-sweep objective values as a two-column CSV."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sweep", "objective"])
        for i, v in enumerate(trace):
            writer.writerow([i + 1, repr(v)])
