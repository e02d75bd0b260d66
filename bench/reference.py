"""Independent reference computations for the benchmark's output checks.

Nothing here calls belltol: states are built as vectors, correlators and
outcome tables come from contracting those vectors one site at a time, local
vertices are enumerated with itertools, and LPs are solved by HiGHS through
scipy. Row order follows belltol's documented canonical layout (joint settings
in lexicographic order, each outcome table flattened row-major), so vectors
from both sides can be compared entry by entry.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


# --- closed forms from the paper -------------------------------------------


def ghz_violation(n: int) -> float:
    """Maximal Mermin-Klyshko violation of the n-qubit GHZ state, in LHV units."""
    return 2.0 ** ((n - 1) / 2.0)


def ghz_tolerance_lower(d: int, n: int) -> float:
    """2 / (1 + Y) with Y = 1 + 2^(n-1) (d-1); 1/(1 + 2^(n-2)) for qubits."""
    return 2.0 / (2.0 + 2.0 ** (n - 1) * (d - 1))


def w_dicke_tolerance_lower(n: int) -> float:
    return 2.0 / (1.0 + 3.0 ** (n - 1))


def cglmp3_visibility() -> float:
    """Critical visibility of the two-qutrit maximally entangled state under
    the CGLMP measurements."""
    return (6.0 * math.sqrt(3.0) - 9.0) / 2.0


def mk_weights(n: int) -> dict[tuple[int, ...], float]:
    """Correlator weights of the Mermin-Klyshko functional, LHV constant 2.

    From M_n + i M'_n = ((1 - i)/2)^(n-1) prod_k (a_k + i a'_k): the weight of
    the joint setting s is 2 Re[((1 - i)/2)^(n-1) i^|s|].
    """
    phase = ((1 - 1j) / 2.0) ** (n - 1)
    out = {}
    for s in itertools.product((0, 1), repeat=n):
        w = 2.0 * (phase * 1j ** sum(s)).real
        if abs(w) > 1e-15:
            out[s] = w
    return out


# --- state vectors -----------------------------------------------------------


def ghz_vector(d: int, n: int) -> np.ndarray:
    psi = np.zeros((d,) * n, dtype=complex)
    for j in range(d):
        psi[(j,) * n] = 1.0
    return psi / math.sqrt(d)


def dicke_vector(n: int, k: int) -> np.ndarray:
    psi = np.zeros((2,) * n, dtype=complex)
    for ones in itertools.combinations(range(n), k):
        idx = [0] * n
        for p in ones:
            idx[p] = 1
        psi[tuple(idx)] = 1.0
    return psi / math.sqrt(math.comb(n, k))


def apply_site(psi: np.ndarray, op: np.ndarray, site: int) -> np.ndarray:
    """(I x ... x op_site x ... x I) psi for psi shaped (d,)*n."""
    return np.moveaxis(np.tensordot(op, psi, axes=([1], [site])), 0, site)


def product_expectation(psi: np.ndarray, ops) -> float:
    """<psi| op_0 x op_1 x ... |psi>, identity where an op is None."""
    phi = psi
    for site, op in enumerate(ops):
        if op is not None:
            phi = apply_site(phi, op, site)
    return complex(np.vdot(psi, phi)).real


def mk_value(psi: np.ndarray, observables) -> float:
    """|MK_n| / 2 for observables[party][setting] on a pure state."""
    n = psi.ndim
    total = 0.0
    for s, w in mk_weights(n).items():
        total += w * product_expectation(psi, [observables[p][s_p] for p, s_p in enumerate(s)])
    return abs(total) / 2.0


def projective_table(psi: np.ndarray, bases) -> np.ndarray:
    """p(a_1..a_n) = |<b_a1 x ... x b_an|psi>|^2, bases[p] a unitary whose
    columns are party p's measurement vectors."""
    amp = psi
    for site, u in enumerate(bases):
        amp = apply_site(amp, u.conj().T, site)
    return np.abs(amp) ** 2


def observables_from_assignment(data: dict) -> list[list[np.ndarray]]:
    """Observables sum_k v_k E_k from belltol's assignment JSON."""
    d = int(data["d"])
    out = []
    for party in data["parties"]:
        row = []
        for m in party:
            obs = np.zeros((d, d), dtype=complex)
            for e, v in zip(m["effects"], m["outcome_values"]):
                eff = (np.asarray(e["re"]) + 1j * np.asarray(e["im"])).reshape(d, d)
                obs += float(v) * eff
            row.append(obs)
        out.append(row)
    return out


# --- behaviors and the local polytope ----------------------------------------


def behavior_vector(rho: np.ndarray, effects) -> np.ndarray:
    """Canonical behavior vector of a density matrix; effects[p][s] lists the
    effect matrices of party p, setting s. Built from full Kronecker products,
    so it is meant for a few small parties."""
    n = len(effects)
    rows = []
    for s in itertools.product(*(range(len(p)) for p in effects)):
        choice = [effects[p][s_p] for p, s_p in enumerate(s)]
        for outcome in itertools.product(*(range(len(c)) for c in choice)):
            op = np.ones((1, 1), dtype=complex)
            for p in range(n):
                op = np.kron(op, choice[p][outcome[p]])
            rows.append(np.trace(rho @ op).real)
    return np.asarray(rows)


def vertex_matrix(outcome_counts) -> np.ndarray:
    """Deterministic behaviors as columns; outcome_counts[p][s] is the number
    of outcomes of party p at setting s. Strategies run lexicographically
    over the flattened (party, setting) outcome choices."""
    widths = [len(p) for p in outcome_counts]
    flat_ranges = [range(m) for party in outcome_counts for m in party]
    strategies = list(itertools.product(*flat_ranges))
    starts = np.cumsum([0] + widths[:-1])
    blocks = []
    for s in itertools.product(*(range(w) for w in widths)):
        counts = [outcome_counts[p][s_p] for p, s_p in enumerate(s)]
        size = int(np.prod(counts))
        block = np.zeros((size, len(strategies)))
        for v, strat in enumerate(strategies):
            idx = [strat[starts[p] + s_p] for p, s_p in enumerate(s)]
            block[np.ravel_multi_index(idx, counts), v] = 1.0
        blocks.append(block)
    return np.vstack(blocks)


def highs_visibility(vertices: np.ndarray, b_noise: np.ndarray, delta: np.ndarray) -> float:
    """max beta with b_noise + beta delta in conv(vertices), 0 <= beta <= 1."""
    from scipy.optimize import linprog

    rows, count = vertices.shape
    a_eq = np.zeros((rows + 1, count + 1))
    a_eq[:rows, :count] = vertices
    a_eq[:rows, count] = -delta
    a_eq[rows, :count] = 1.0
    b_eq = np.concatenate([b_noise, [1.0]])
    c = np.zeros(count + 1)
    c[count] = -1.0
    bounds = [(0, None)] * count + [(0, 1)]
    res = linprog(c, A_eq=a_eq, b_eq=b_eq, bounds=bounds, method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS visibility LP ended with status {res.status}: {res.message}")
    return float(res.x[count])


def highs_is_local(vertices: np.ndarray, target: np.ndarray) -> bool:
    from scipy.optimize import linprog

    rows, count = vertices.shape
    a_eq = np.vstack([vertices, np.ones((1, count))])
    b_eq = np.concatenate([target, [1.0]])
    res = linprog(np.zeros(count), A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if res.status not in (0, 2):
        raise RuntimeError(f"HiGHS membership LP ended with status {res.status}: {res.message}")
    return res.status == 0
