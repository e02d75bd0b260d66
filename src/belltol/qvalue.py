"""Quantum behaviors from states and POVMs, functional evaluation, and seesaw
lower bounds on the maximal Bell violation.

The seesaw takes any functional with exactly two outcomes at every setting,
whatever their values. It works on effects: each site's stack is
[I, E_0, ..., E_(S-1)], E_s the effect of setting s's first outcome, and the
functional's tables map directly onto one coefficient tensor over these
stacks (``_effect_tensor``). The optimal single-party update is then the
projector onto the nonnegative eigenspace of each local operator.

``behavior`` closes the state once for all its tables: each site's stack
holds the effects of all its settings, setting-major, M_p of them, and the
sites are closed in order by the seesaw's kernel below (``_advance``). Site p
costs about d^(2(n-p)) M_0 ... M_p multiply-adds, and the (M_0, ..., M_(n-1))
result is the behavior's slot grid (``scenario.setting_views``).

The seesaw advances all its restarts as one batch. Each party holds an
array (R, m, d, d) of stacks [I, E_0, ..., E_(S-1)], one per restart, and the
state is laid out with each site's (ket, bra) pair fused into one axis of
length d^2, so closing a site is one ``matmul`` over the batch. A sweep keeps
a left environment L_p, the state closed at sites 0..p-1 with their
operators of this sweep. Party p's local operators K are L_p closed at
sites p+1..n-1 and contracted with the coefficient tensor, which weighs all
tables at once, without its identity row. Party p's update is one
``sign_operator`` call, so one eigensolver call, on the stack of all its
restarts and settings; the projectors (I + sign K)/2 are written into the
party's site in place, except where K vanishes. L_(p+1) is L_p closed at
site p, and L_n gives the sweep's objective. A sweep is n(n-1)/2 + 2n
contractions for the whole batch, the largest of about m d^(2n)
multiply-adds per restart.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SolverError, UnsupportedFunctionalError, ValidationError
from .linalg import (
    JsonFile,
    as_cmatrix,
    complex_from_json,
    complex_to_json,
    eig_hermitian,
    frozen,
    int_from_json,
    min_eigenvalue,
)
from .scenario import (
    NEG_PROB_TOL,
    Behavior,
    BellFunctional,
    LhvBounds,
    Scenario,
    lhv_bounds,
)
from .states import DensityMatrix

COMPLETENESS_TOL = 1e-9
EFFECT_PSD_TOL = 1e-9
# The seesaw tolerances below hold in the units where the functional's LHV
# half-range is 2, to which seesaw scales it (its "units").
SIGN_EIG_TOL = 1e-12
# Sweeps per seesaw restart; a restart that reaches it reports converged=False.
MAX_SWEEPS = 500
# A restart stops when a sweep gains less than SWEEP_TOL, and replaces the best
# only if it beats it by more than RESTART_GAIN_TOL * max(1, |best|).
SWEEP_TOL = 1e-10
RESTART_GAIN_TOL = 1e-9
# seesaw re-evaluates its returned assignment and raises SolverError when the
# value differs from the objective by more than SELF_CHECK_TOL * max(1, |objective|).
SELF_CHECK_TOL = 1e-9
# The seesaw advances its restarts together, as many per batch as keep the
# batch's largest intermediate within BATCH_CELLS complex cells (at least one),
# in the manner of scenario.GRID_BLOCK; the others run in later batches.
BATCH_CELLS = 2**20


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
            low = min_eigenvalue(m, tol=EFFECT_PSD_TOL)
            if low < -EFFECT_PSD_TOL:
                raise ValidationError(f"effect {i} is not PSD (min eigenvalue {low:.3e})")
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
        d = int_from_json(data, "d", "assignment")
        built = []
        for party in data["parties"]:
            row = []
            for m in party:
                effects = tuple(complex_from_json(e, d, "effect") for e in m["effects"])
                row.append(Measurement(effects, tuple(m["outcome_values"])))
            built.append(tuple(row))
        return cls(tuple(built))


def behavior(rho: DensityMatrix, meas: MeasurementAssignment) -> Behavior:
    """Joint probability tables p(outcomes | settings) = tr[rho (M_1 x ... x M_n)]."""
    if meas.parties != rho.n:
        raise ValidationError(f"assignment has {meas.parties} parties, state has {rho.n}")
    if meas.site_dim != rho.d:
        raise ValidationError(
            f"assignment site dimension {meas.site_dim} != state dimension {rho.d}"
        )
    sites = [_site(np.stack([e for m in party for e in m.effects])[None])
             for party in meas.measurements]
    t = _site_pairs(rho)  # rebound site by site: functools.reduce would hold L_0 to the end
    for site in sites:
        t = _advance(t, site)
    t = t.real.reshape([site.shape[2] for site in sites])
    # clip roundoff-negative entries down to Behavior's negativity bound
    t[(t < 0) & (t > -NEG_PROB_TOL)] = 0.0
    return Behavior(meas.scenario(), t)


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
    return float(np.vdot(f.slots, b.slots))


# --- seesaw -----------------------------------------------------------------


@dataclass(frozen=True)
class SeesawResult:
    value: float  # violation ratio of the objective, LhvBounds.violation
    assignment: MeasurementAssignment
    trace: tuple[float, ...]
    converged: bool  # False when the returned restart hit MAX_SWEEPS

    @property
    def objective(self) -> float:
        """Signed functional value at the returned assignment, the last sweep's."""
        return self.trace[-1]


def _initial_stacks(
    d: int, settings: tuple[int, ...], seed: int, restarts: range
) -> list[np.ndarray]:
    """Per party, the stacks (R, S_p + 1, d, d) [I, E_0, ..., E_(S_p-1)] the
    restarts start from: E = (I + O)/2, O an observable with an even +1/-1
    eigenvalue split over the columns of a Haar-random unitary (Ginibre + QR
    with phase fix). Each restart draws its Ginibre matrices, party by party
    and setting by setting, from its own stream ``default_rng([seed,
    restart])``, so its stacks do not depend on the batch it runs in; one
    stacked QR and one stacked product serve every draw of the batch."""
    total = sum(settings)
    z = np.stack([np.random.default_rng([seed, restart]).standard_normal((total, 2, d, d))
                  for restart in restarts])
    q, r = np.linalg.qr((z[:, :, 0] + 1j * z[:, :, 1]) / math.sqrt(2.0))
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    phases = np.zeros_like(r)
    phases[..., range(d), range(d)] = diag / np.abs(diag)
    basis = q @ phases
    signs = np.array([1.0 if k < (d + 1) // 2 else -1.0 for k in range(d)])
    effects = (np.eye(d) + (basis * signs) @ basis.conj().swapaxes(-1, -2)) / 2
    stacks = []
    for p, first in enumerate(np.cumsum([0, *settings[:-1]])):
        stack = np.empty((len(restarts), settings[p] + 1, d, d), dtype=np.complex128)
        stack[:, 0] = np.eye(d)
        stack[:, 1:] = effects[:, first:first + settings[p]]
        stacks.append(stack)
    return stacks


def sign_operator(h: np.ndarray) -> np.ndarray:
    """sign(h) of each matrix of a stack (..., d, d), by one eigensolver call;
    eigenvalues within SIGN_EIG_TOL of zero, in the seesaw's units, map to
    +1. The stack must be Hermitian within 1e-8 * max(1, max|h|)."""
    w, v = eig_hermitian(h, tol=1e-8 * max(1.0, float(np.abs(h).max())))
    signs = np.where(w < -SIGN_EIG_TOL, -1.0, 1.0)
    return (v * signs[..., None, :]) @ v.conj().swapaxes(-1, -2)


def _check_two_outcomes(sc: Scenario) -> None:
    """Raise UnsupportedFunctionalError unless every setting has two outcomes."""
    for p, party in enumerate(sc.outcomes):
        for s, vals in enumerate(party):
            if len(vals) != 2:
                raise UnsupportedFunctionalError(
                    f"party {p}, setting {s} has {len(vals)} outcomes, the seesaw needs 2"
                )


@functools.lru_cache(maxsize=None)
def _site_map(m: int) -> np.ndarray:
    """The (m + 1, 2m) matrix that writes each of m settings' f(0) E + f(1)
    (I - E) as f(1) I + (f(0) - f(1)) E, read-only."""
    w = np.vstack([np.tile([0.0, 1.0], m), np.kron(np.eye(m), [1.0, -1.0])])
    w.setflags(write=False)
    return w


def _effect_tensor(f: BellFunctional) -> np.ndarray:
    """C with objective sum(C * T), T the state closed (``_advance``) at the
    stacks [I, E_0, ..., E_(S-1)], E_s the effect of setting s's first outcome:
    index 0 at a site means the identity, index s + 1 the effect E_s (the
    per-site basis of Collins & Gisin, J. Phys. A 37, 1775 (2004)).

    Each site axis of the functional's slot grid is contracted with its
    ``_site_map``, made once per settings count. Every setting must have two
    outcomes (``_check_two_outcomes``)."""
    c = f.slots
    for p, m in enumerate(f.scenario.settings):
        c = np.moveaxis(np.tensordot(_site_map(m), c, axes=(1, p)), 0, p)
    return c


def _site_pairs(rho: DensityMatrix) -> np.ndarray:
    """The state with each site's (ket, bra) pair fused into one axis of
    length d^2, site 0 outermost: the left environment L_0, of shape
    (1, d^(2n), 1), that every restart shares."""
    n = rho.n
    axes = [a for p in range(n) for a in (p, n + p)]
    return rho.matrix.reshape((rho.d,) * (2 * n)).transpose(axes).reshape(1, -1, 1)


def _site(ops: np.ndarray) -> np.ndarray:
    """A party's stacks (R, m, d, d), indexed [m, bra, ket], as the (R, d^2, m)
    matrices whose rows are indexed (ket, bra), like the state's site axes."""
    r, m, d, _ = ops.shape
    return ops.transpose(0, 3, 2, 1).reshape(r, d * d, m)


def _stacks(site: np.ndarray, d: int) -> np.ndarray:
    """The inverse of ``_site``: a party's stacks (R, m, d, d) as a view of
    its site (R, d^2, m), so that writing an effect writes the site.
    Splitting the d^2 axis in two is a view whatever the site's strides;
    should ``reshape`` ever copy, RuntimeError is raised rather than letting
    the writes land in the copy."""
    stacks = site.reshape(len(site), d, d, site.shape[2])
    if site.size and not np.may_share_memory(stacks, site):
        raise RuntimeError("a party's site is not laid out for its stacks to be a view of it")
    return stacks.transpose(0, 3, 2, 1)


def _advance(left: np.ndarray, site: np.ndarray) -> np.ndarray:
    """L_(p+1) from L_p, (..., d^2 D, M), and site p, (..., d^2, m), whose
    leading axes broadcast: the axes of the open sites p..n-1 by the m axes
    of the closed sites 0..p-1. From L_0 (``_site_pairs``, one row), closed
    at every site in turn, it gives L_n, (R, 1, m_0 ... m_(n-1))."""
    k = site.shape[-2]
    paired = left.reshape(left.shape[:-2] + (k, -1)).swapaxes(-1, -2)
    out = np.matmul(paired, site)
    return out.reshape(out.shape[:-2] + (left.shape[-2] // k, -1))


def _party_coefficients(c: np.ndarray) -> list[np.ndarray]:
    """Per party p, the coefficient tensor as the (m_p, M / m_p) matrix whose
    rows are p's stack entries and whose columns run over the other sites'
    entries in site order; without its first row, the identity's, it is the
    (m_p - 1, M / m_p) matrix that ``_local_operators`` contracts with."""
    return [np.moveaxis(c, p, 0).reshape(m, -1) for p, m in enumerate(c.shape)]


def _local_operators(
    env: np.ndarray, sites: list[np.ndarray], coeffs: np.ndarray, party: int
) -> np.ndarray:
    """K of shape (R, m_p - 1, d^2) with objective sum_s tr[K[:, s] E_s] plus
    a term free of party p's effects E_0, ..., E_(m_p - 2), K[:, s] read as
    [ket, bra]: its left environment L_p, given as ``env``, closed at the
    sites p+1..n-1 by ``_advance`` with site p's d^2 axis as a batch axis,
    then contracted with p's coefficient matrix ``coeffs``
    (``_party_coefficients``) without the identity's row, which weighs no
    effect. ``env`` is rebound as it shrinks, so a caller that holds no
    reference to L_p does not keep it alive."""
    env = env.reshape(len(env), sites[party].shape[1], -1, env.shape[2])
    for site in sites[party + 1:]:
        env = _advance(env, site[:, None])
    return np.matmul(coeffs, env[:, :, 0].swapaxes(1, 2))


def _objective(left: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Per-restart objective from the left environment L_n, (R, 1, M)."""
    return (left.real @ c.ravel())[:, 0]


@dataclass(frozen=True)
class _Restart:
    trace: tuple[float, ...]
    converged: bool
    effects: list[np.ndarray]  # per party, (S_p, d, d)

    @property
    def objective(self) -> float:
        return self.trace[-1]


def _run_batch(
    rho: DensityMatrix, c: np.ndarray, seed: int, restarts: range
) -> list[_Restart]:
    """Seesaw restarts ``restarts`` advanced together, each from its own
    ``_initial_stacks``; a restart leaves the batch when a sweep gains less
    than SWEEP_TOL (converged) or at sweep MAX_SWEEPS (not converged), and
    one whose objective falls raises SolverError. The coefficient tensor
    ``c`` is in the seesaw's units.

    What does not change from sweep to sweep is made once per batch: the
    initial stacks of all restarts, each party's coefficient matrix without
    its identity row and the state laid out as L_0. Each party's stacks are
    held only as its site, shrunk with the batch, and an update writes its
    effects into the site through ``_stacks``. A sweep's bookkeeping (the
    check that no objective fell, the traces) is one array operation over
    the batch."""
    n, d = rho.n, rho.d
    eye = np.eye(d, dtype=np.complex128)
    stacks = _initial_stacks(d, tuple(m - 1 for m in c.shape), seed, restarts)
    sites = [_site(stack) for stack in stacks]
    coeffs = [w[1:] for w in _party_coefficients(c)]
    state = _site_pairs(rho)
    value = _objective(functools.reduce(_advance, sites, state), c)

    active = list(restarts)
    traces: dict[int, list[float]] = {r: [] for r in restarts}
    done: dict[int, _Restart] = {}
    for sweep in range(1, MAX_SWEEPS + 1):
        left = state
        for party in range(n):
            k = _local_operators(left, sites, coeffs[party], party)
            k = k.reshape(len(k), -1, d, d)
            # the best effect projects onto the nonnegative eigenspace of K; a
            # vanishing K carries no update direction (every effect is
            # optimal), so the current effect stays
            moves = np.abs(k).max(axis=(2, 3)) > SIGN_EIG_TOL
            if moves.any():
                # (I + sign K)/2 formed in place, with its bits: S + I is I + S,
                # and halving is exact
                best = sign_operator(k)
                best += eye
                best /= 2
                np.copyto(_stacks(sites[party], d)[:, 1:], best, where=moves[..., None, None])
            left = _advance(left, sites[party])
        new_value = _objective(left, c)
        fell = new_value < value - 1e-12 * np.maximum(1.0, np.abs(value))
        if fell.any():
            i = int(np.argmax(fell))
            raise SolverError(
                f"seesaw objective decreased from {float(value[i])!r} to {float(new_value[i])!r} "
                "(at an LHV half-range of 2)"
            )
        for r, v in zip(active, new_value.tolist()):
            traces[r].append(v)
        converged = new_value - value < SWEEP_TOL
        stop = converged | (sweep == MAX_SWEEPS)
        value = new_value
        if stop.any():
            for i in np.flatnonzero(stop):
                done[active[i]] = _Restart(tuple(traces[active[i]]), bool(converged[i]),
                                           [_stacks(site, d)[i, 1:] for site in sites])
            keep = ~stop
            value = value[keep]
            sites = [site[keep] for site in sites]
            active = [r for r, s in zip(active, keep) if s]
            if not active:
                break
    return [done[r] for r in restarts]


def _check_args(f: BellFunctional, rho: DensityMatrix, restarts: int, seed: int) -> None:
    """``seesaw``'s argument checks, in its order: the party count, the
    restarts, the seed (``np.random.default_rng`` takes no negative one),
    then two outcomes per setting, which ``_effect_tensor`` needs."""
    if f.scenario.parties != rho.n:
        raise ValidationError(f"functional has {f.scenario.parties} parties, state has {rho.n}")
    if restarts < 1:
        raise DomainError(f"restarts must be >= 1, got {restarts}")
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    _check_two_outcomes(f.scenario)


def seesaw(
    f: BellFunctional,
    rho: DensityMatrix,
    restarts: int = 20,
    seed: int = 0,
) -> SeesawResult:
    """Heuristic lower bound on the maximal violation of ``f`` by ``rho``.

    ``f`` needs exactly two outcomes at every setting, whatever their values
    (UnsupportedFunctionalError otherwise). Alternates over parties,
    replacing the effect E_s of each setting's first outcome by the projector
    onto the nonnegative eigenspace of its local operator, the state
    contracted with the other parties' fixed effects; the objective never
    decreases. Each restart draws fresh Haar-random projective measurements
    from a stream seeded by (seed, restart) and stops when a sweep gains less
    than SWEEP_TOL, or after MAX_SWEEPS sweeps. Returns the best restart,
    ties going to the earliest; its ``value`` is the objective's violation
    ratio against the functional's LHV range, so adding a constant to ``f``
    leaves it unchanged. The search only raises ``f``: to look below its LHV
    range, pass ``f.scaled(-1)``.

    The sweeps and checks run on ``f`` scaled to an LHV half-range of 2 (as
    Mermin-Klyshko and CHSH functionals are, at scale 1), so their tolerances
    hold at any scale; objective and trace return in ``f``'s units. An ``f``
    constant on the local polytope raises DegenerateFunctionalError first.

    The returned objective is checked against the functional's value on the
    returned assignment, ``evaluate(f, behavior(rho, assignment))``: a
    difference above SELF_CHECK_TOL * max(1, |objective|) raises SolverError,
    so the value returned is one that the assignment reaches.

    The restarts run as batches (``_run_batch``) of as many as keep the
    largest intermediate within BATCH_CELLS; a restart's arithmetic does not
    depend on the batch it runs in.
    """
    _check_args(f, rho, restarts, seed)
    bounds = lhv_bounds(f)
    scale = 2.0 / bounds.half
    c = _effect_tensor(f) * scale
    d = rho.d
    # every intermediate has one axis per site, of length m_p or d^2
    per_restart = math.prod(max(m, d * d) for m in c.shape)
    size = max(1, BATCH_CELLS // per_restart)
    runs: list[_Restart] = []
    for first in range(0, restarts, size):
        runs += _run_batch(rho, c, seed, range(first, min(first + size, restarts)))

    best = runs[0]
    for run in runs[1:]:
        if run.objective > best.objective + RESTART_GAIN_TOL * max(1.0, abs(best.objective)):
            best = run
    sc = f.scenario
    assignment = MeasurementAssignment(
        tuple(
            tuple(Measurement((e, np.eye(d) - e), values) for e, values in zip(row, sc.outcomes[p]))
            for p, row in enumerate(best.effects)
        )
    )
    objective = best.objective / scale
    replay = evaluate(f, behavior(rho, assignment))
    if abs(replay * scale - best.objective) > SELF_CHECK_TOL * max(1.0, abs(best.objective)):
        raise SolverError(
            f"seesaw objective {objective!r} differs from its assignment's value {replay!r}"
        )
    return SeesawResult(
        value=bounds.violation(objective),
        assignment=assignment,
        trace=tuple(v / scale for v in best.trace),
        converged=best.converged,
    )


def _algebraic_bound(f: BellFunctional, bounds: LhvBounds) -> float:
    """Largest violation ratio of ``f`` on any behavior, quantum or not: each
    table's value lies between its least and its largest entry, so the value
    lies in [A_inf, A_sup], the sums of those entries, and its ratio is at
    most max(A_sup - mid, mid - A_inf) / half. DegenerateFunctionalError when
    ``f`` is constant on the local polytope, as from ``bounds.violation``."""
    tables = f.coeffs.values()
    return max(bounds.violation(sum(float(t.max()) for t in tables)),
               bounds.violation(sum(float(t.min()) for t in tables)))


def _quantum_bound(f: BellFunctional, bounds: LhvBounds) -> float:
    """An upper bound on the violation ratio of ``f`` over every quantum
    behavior, in any local dimension and with any two-outcome POVMs. Each site's coefficients over
    [I, E_0, ..., E_(S-1)] (``_effect_tensor``) are rewritten over [I, O_0,
    ..., O_(S-1)], O_s = 2 E_s - I, with ||O_s|| <= 1, and the all-identity
    coefficient k0 is set aside. For each site p, W_p is the rest as the
    unfolding of site p against the others (``_party_coefficients``),
    restricted to its r_p nonzero rows and c_p nonzero columns; with the
    state purified to |psi>, f - k0 = sum_ij W_p[i, j] <psi|A_i (x) B_j|psi>,
    the vectors A_i|psi> and B_j|psi> of norm at most 1, so Cauchy-Schwarz
    gives |f - k0| <= ||W_p||_2 sqrt(r_p c_p) for every p. ||W_p||_2 comes
    from the eigenvalues of the Gram matrix W_p W_p^T. Tight for CHSH with
    any number of passive parties (sqrt 2, Tsirelson's bound: Lett. Math.
    Phys. 4, 93 (1980)) and for Mermin-Klyshko functionals (2^((n-1)/2))."""
    k = _effect_tensor(f)
    for p, m in enumerate(k.shape):
        # E_s = (I + O_s)/2: E_s's coefficient moves half to O_s, half to I
        centering = np.eye(m) / 2
        centering[0] = 0.5
        centering[0, 0] = 1.0
        k = np.moveaxis(np.tensordot(centering, k, axes=(1, p)), 0, p)
    k0 = float(k.flat[0])
    k.flat[0] = 0.0
    q = math.inf
    for w in _party_coefficients(k):
        nonzero = w != 0.0
        w = w[nonzero.any(axis=1)][:, nonzero.any(axis=0)]
        top = float(np.linalg.eigvalsh(w @ w.T)[-1]) if w.size else 0.0
        q = min(q, math.sqrt(top * w.size))
    return max(bounds.violation(k0 + q), bounds.violation(k0 - q))


def _out_of_reach(best: float, cap: float) -> bool:
    """Whether ``best`` exceeds the violation cap ``cap`` by more than
    RESTART_GAIN_TOL * max(1, cap), so that no value within the cap can be
    picked over it."""
    return best > cap + RESTART_GAIN_TOL * max(1.0, cap)


@dataclass(frozen=True)
class UpsilonLowerBound:
    best_label: str
    result: SeesawResult
    per_functional: tuple[tuple[str, float], ...]

    @property
    def value(self) -> float:
        return self.result.value


def upsilon_lower_bound(
    rho: DensityMatrix,
    functional_library: list[BellFunctional],
    restarts: int = 20,
    seed: int = 0,
    best_only: bool = False,
) -> UpsilonLowerBound:
    """Best seesaw violation over a functional library, in library order, ties
    going to the earliest: a certified lower bound on the maximal violation
    (each seesaw checks its objective against its assignment), with the
    achieving functional's identity.

    With ``best_only``, for a caller that needs only the best value, a
    functional runs only if it could beat the best value found so far: it
    is skipped when that value exceeds a cap on the functional's violation
    by more than RESTART_GAIN_TOL * max(1, cap). The cheap algebraic cap
    (``_algebraic_bound``, over all behaviors) is tried first, and only if
    it does not skip the certified quantum cap (``_quantum_bound``, over
    all quantum behaviors, which builds the coefficient tensor); every
    seesaw value is that of a quantum behavior, so it lies within both.
    The pick needs a strictly higher value, so a skipped functional could
    never have been picked: ``value``, ``best_label`` and ``result`` are
    those of the full run, and ``per_functional`` lists the functionals that
    ran. A functional the seesaw rejects raises as it would have, skipped or
    not."""
    if not functional_library:
        raise DomainError("functional library must be nonempty")
    best: SeesawResult | None = None
    best_i = -1
    per = []
    for i, f in enumerate(functional_library):
        if best_only and best is not None:
            _check_args(f, rho, restarts, seed)
            bounds = lhv_bounds(f)
            if (_out_of_reach(best.value, _algebraic_bound(f, bounds))
                    or _out_of_reach(best.value, _quantum_bound(f, bounds))):
                continue
        res = seesaw(f, rho, restarts=restarts, seed=seed)
        per.append((f.label or f"functional{i}", res.value))
        if best is None or res.value > best.value:
            best, best_i = res, i
    assert best is not None
    label = functional_library[best_i].label or f"functional{best_i}"
    return UpsilonLowerBound(best_label=label, result=best, per_functional=tuple(per))


def write_sweep_trace(path: str, trace: tuple[float, ...]) -> None:
    """Per-sweep objective values as a two-column CSV."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sweep", "objective"])
        for i, v in enumerate(trace):
            writer.writerow([i + 1, repr(v)])
