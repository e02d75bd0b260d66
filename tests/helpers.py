"""Seeded random quantum objects used as test inputs."""

from __future__ import annotations

import math

import numpy as np

from belltol.qvalue import Measurement, MeasurementAssignment
from belltol.scenario import Scenario
from belltol.states import DensityMatrix

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)

# settings with different outcome counts, a one-outcome setting included
MIXED_SCENARIO = Scenario((
    ((1.0, -1.0), (1.0, 0.0, -1.0)),
    ((1.0,), (1.0, -1.0), (-1.0, -1.0 / 3.0, 1.0 / 3.0, 1.0)),
))


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
