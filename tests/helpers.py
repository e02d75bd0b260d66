"""Seeded random quantum objects used as test inputs."""

from __future__ import annotations

import itertools
import math

import numpy as np

from belltol.polytope import vertex_matrix
from belltol.qvalue import Measurement, MeasurementAssignment
from belltol.scenario import Behavior, Scenario, canonical_rows, grid_shape
from belltol.states import DensityMatrix

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)

# settings with different outcome counts, a one-outcome setting included
MIXED_SCENARIO = Scenario((
    ((1.0, -1.0), (1.0, 0.0, -1.0)),
    ((1.0,), (1.0, -1.0), (-1.0, -1.0 / 3.0, 1.0 / 3.0, 1.0)),
))


# single-outcome settings at every site, and a site with only those
SINGLE_OUTCOME_SCENARIO = Scenario((
    ((1.0,), (1.0, -1.0)),
    ((-1.0,),),
    ((1.0, -1.0), (0.5,), (1.0, 0.0, -1.0)),
))


def summation_bound(f) -> float:
    """Most by which two sums of a strategy's J entries, one per joint
    setting, in two orders can differ: each is within (J - 1) 2^-53 sum_s
    max|t_s| of the exact sum."""
    tables = f.coeffs.values()
    return 2 * (len(tables) - 1) * 2.0**-53 * sum(float(np.abs(t).max()) for t in tables)


def planar_observable(phi: float) -> np.ndarray:
    return math.cos(phi) * SX + math.sin(phi) * SY


def chsh_optimal_assignment() -> MeasurementAssignment:
    """Angles reaching the two-qubit correlation maximum 2*sqrt(2)."""
    return MeasurementAssignment((
        (Measurement.dichotomic_from_observable(planar_observable(0.0)),
         Measurement.dichotomic_from_observable(planar_observable(math.pi / 2))),
        (Measurement.dichotomic_from_observable(planar_observable(-math.pi / 4)),
         Measurement.dichotomic_from_observable(planar_observable(math.pi / 4))),
    ))


def vertex_scan_bounds(f) -> tuple[float, float]:
    """(sup, inf) of a functional over the local polytope: the optima of the
    LP over convex weights of the vertices, read off the vertex matrix."""
    values = canonical_rows(f.scenario, f.slots) @ vertex_matrix(f.scenario)
    return float(values.max()), float(values.min())


def mermin3_optimal_assignment() -> MeasurementAssignment:
    """Every party measures Y then X; |MK_3| reaches 4 on the 3-qubit GHZ state."""
    pair = (Measurement.dichotomic_from_observable(SY),
            Measurement.dichotomic_from_observable(SX))
    return MeasurementAssignment((pair, pair, pair))


def random_density(d: int, n: int, rng: np.random.Generator) -> DensityMatrix:
    """Full-rank Ginibre density matrix on (C^d)^(x n)."""
    dim = d**n
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    return DensityMatrix(d=d, n=n, matrix=m / np.trace(m).real)


def purity(rho: DensityMatrix) -> float:
    """tr(rho^2)."""
    return float(np.trace(rho.matrix @ rho.matrix).real)


def haar_basis(d: int, rng: np.random.Generator) -> np.ndarray:
    """Columns of a Haar-random unitary (Ginibre + QR with phase fix), one
    draw at a time: the reference for the seesaw's stacked draws."""
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    return q @ np.diag(np.diag(r) / np.abs(np.diag(r)))


def random_observable(d: int, rng: np.random.Generator) -> np.ndarray:
    """Even +1/-1 eigenvalue split over a ``haar_basis``."""
    basis = haar_basis(d, rng)
    signs = np.array([1.0 if k < (d + 1) // 2 else -1.0 for k in range(d)])
    return (basis * signs) @ basis.conj().T


def random_povm(d: int, outcomes: int, rng: np.random.Generator) -> Measurement:
    """Random POVM: Ginibre lumps E_k = S^{-1/2} G_k G_k^† S^{-1/2}."""
    lumps = []
    for _ in range(outcomes):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        lumps.append(g @ g.conj().T)
    total = sum(lumps)
    w, v = np.linalg.eigh(total)
    inv_sqrt = (v / np.sqrt(w)) @ v.conj().T
    effects = tuple(inv_sqrt @ lump @ inv_sqrt for lump in lumps)
    values = tuple(np.linspace(-1.0, 1.0, outcomes)) if outcomes > 1 else (1.0,)
    return Measurement(effects, values)


def random_assignment(
    d: int, parties: int, settings: int, outcomes: int, rng: np.random.Generator
) -> MeasurementAssignment:
    return MeasurementAssignment(tuple(
        tuple(random_povm(d, outcomes, rng) for _ in range(settings))
        for _ in range(parties)
    ))


# --- reference contractions ---------------------------------------------------
# One einsum over the state's tensor: the tests check qvalue's site-by-site
# contraction against these. Each site gives a stack (k, d, d) of operators,
# such as a setting's effects, which adds an output axis of length k.


def _operands(rho_t: np.ndarray, stacks: list[np.ndarray], skip: int | None = None) -> list:
    """einsum operands of rho_t with the stack of every site but ``skip``."""
    n = len(stacks)
    args: list = [rho_t, list(range(2 * n))]
    for site, stack in enumerate(stacks):
        if site != skip:
            args.extend([stack, [2 * n + site, n + site, site]])
    return args


def expectation(rho_t: np.ndarray, stacks: list[np.ndarray]) -> np.ndarray:
    """tr[rho (A_1 x ... x A_n)] for every choice of one operator per stack,
    with one axis per site."""
    n = len(stacks)
    return np.einsum(*_operands(rho_t, stacks), [2 * n + s for s in range(n)],
                     optimize=True).real


def local_operator(rho_t: np.ndarray, stacks: list[np.ndarray], site: int) -> np.ndarray:
    """K with tr[rho (A_1 x ... B ... x A_n)] = tr[K B], B at ``site``, for
    every choice of one operator per other stack; those axes come first."""
    n = len(stacks)
    out = [2 * n + s for s in range(n) if s != site] + [site, n + site]
    return np.einsum(*_operands(rho_t, stacks, skip=site), out, optimize=True)


def pure_state_tables(psi: np.ndarray, meas: MeasurementAssignment) -> dict:
    """p(m | s) = ||(sqrt(E_1) x ... x sqrt(E_n)) psi||^2 for every joint
    setting s, applying each site's effect roots to its axis of the state
    vector."""
    def root(e: np.ndarray) -> np.ndarray:
        w, v = np.linalg.eigh(e)
        return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T

    d = meas.site_dim
    # each (party, setting) stacks its effects' square roots into m * d rows
    roots = [[np.vstack([root(e) for e in m.effects]) for m in party]
             for party in meas.measurements]
    tables = {}
    for s in meas.scenario().joint_settings():
        ks = [roots[p][s_p] for p, s_p in enumerate(s)]
        amp = psi.reshape((d,) * len(ks))
        for p, k in enumerate(ks):
            amp = np.moveaxis(np.tensordot(k, amp, axes=([1], [p])), 0, p)
        shape = [x for k in ks for x in (k.shape[0] // d, d)]
        tables[s] = np.sum(np.abs(amp.reshape(shape)) ** 2, axis=tuple(range(1, len(shape), 2)))
    return tables


# --- reference layouts ----------------------------------------------------------
# The canonical rows and the seesaw's coefficient tensor built one joint
# setting at a time, from each table's offset in the canonical row order: the
# tests check the slot-grid code against these.


def _row_offsets(sc: Scenario) -> tuple[dict[tuple[int, ...], int], int]:
    """Offset of each joint setting's block in the canonical row order, and
    the row count."""
    sizes = {s: math.prod(sc.outcome_counts(s)) for s in sorted(sc.joint_settings())}
    starts = itertools.accumulate(sizes.values(), initial=0)
    return dict(zip(sizes, starts)), sum(sizes.values())


def slot_shape(sc: Scenario, joint_setting: tuple[int, ...]) -> tuple[int, ...]:
    """Shape that lays a joint setting's table on the strategy grid: party p's
    axis on slot (p, s_p), size 1 on every other slot."""
    shape = [1] * sum(sc.settings)
    for p, s_p in enumerate(joint_setting):
        shape[sum(sc.settings[:p]) + s_p] = len(sc.outcomes[p][s_p])
    return tuple(shape)


def reference_vertex_matrix(sc: Scenario) -> np.ndarray:
    """Deterministic behaviors as columns, rows in canonical order: each
    strategy's outcome cell in each table, at that table's offset."""
    offsets, rows = _row_offsets(sc)
    grid = grid_shape(sc)
    cols = np.arange(math.prod(grid))
    d = np.zeros((rows, cols.size))
    for s, offset in offsets.items():
        cell = np.arange(math.prod(sc.outcome_counts(s))).reshape(slot_shape(sc, s))
        d[offset + np.broadcast_to(cell, grid).ravel(), cols] = 1.0
    return d


def deterministic_behavior(sc: Scenario, strategy: tuple[int, ...]) -> Behavior:
    """Point mass of one deterministic strategy, given as one outcome index
    per (party, setting) slot in the order of the strategy grid
    (``grid_shape``): each table is 1 at the outcomes its strategy picks."""
    ends = list(itertools.accumulate(sc.settings, initial=0))
    tables = {}
    for s in sc.joint_settings():
        t = np.zeros(sc.outcome_counts(s))
        t[tuple(strategy[ends[p] + s_p] for p, s_p in enumerate(s))] = 1.0
        tables[s] = t
    return Behavior.from_tables(sc, tables)


def reference_basis_rows(sc: Scenario) -> np.ndarray:
    """Mask of canonical rows: in each table, every outcome of setting 0 and
    all but the last outcome of the other settings, site by site."""
    offsets, rows = _row_offsets(sc)
    keep = np.zeros(rows, dtype=bool)
    for s, offset in offsets.items():
        block = np.ones((), dtype=bool)
        for p, s_p in enumerate(s):
            m = len(sc.outcomes[p][s_p])
            block = np.multiply.outer(block, np.arange(m) < m - (s_p > 0))
        keep[offset:offset + block.size] = block.ravel()
    return keep


def reference_effect_tensor(f) -> np.ndarray:
    """The seesaw's coefficient tensor over the stacks [I, E_0, ..., E_(S-1)]
    for two outcomes per setting: the tables stacked in sorted joint-setting
    order, each site's (setting, outcome) axes fused, then each site axis
    contracted with the map f(0) E + f(1) (I - E) -> f(1) I + (f(0) - f(1)) E."""
    n, settings = f.scenario.parties, f.scenario.settings
    c = np.stack([f.coeffs[s] for s in sorted(f.coeffs)]).reshape(settings + (2,) * n)
    c = c.transpose([a for p in range(n) for a in (p, n + p)]).reshape([2 * m for m in settings])
    for p, m in enumerate(settings):
        w = np.vstack([np.tile([0.0, 1.0], m), np.kron(np.eye(m), [1.0, -1.0])])
        c = np.moveaxis(np.tensordot(w, c, axes=(1, p)), 0, p)
    return c
