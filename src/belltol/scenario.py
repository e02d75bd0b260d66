"""Correlation scenarios, Bell functionals over discrete outcomes, behaviors,
deterministic-strategy enumeration and exact LHV constants.

A functional is stored as one dense real coefficient table per joint setting,
so evaluation against a behavior is a plain tensor contraction.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import DegenerateFunctionalError, DomainError, ResourceCapError, ValidationError
from .linalg import JsonFile

DEFAULT_ENUM_CAP = 10**8
# Most strategy-grid cells lhv_bounds holds at once (8 MB of float64).
GRID_BLOCK = 2**20

# A deterministic strategy fixes one outcome index per (party, setting).
Strategy = tuple[tuple[int, ...], ...]


def default_outcome_grid(m: int) -> tuple[float, ...]:
    """Equally spaced outcome values from -1 to +1; (-1, +1) for m = 2."""
    if m < 1:
        raise DomainError(f"need at least one outcome, got {m}")
    if m == 1:
        return (1.0,)
    return tuple(float(x) for x in np.linspace(-1.0, 1.0, m))


@dataclass(frozen=True)
class Scenario:
    """Measurement layout: per party, per setting, the list of outcome values.

    Outcome values are reals in [-1, 1]; parties and settings are 0-indexed.
    """

    outcomes: tuple[tuple[tuple[float, ...], ...], ...]

    def __post_init__(self) -> None:
        if len(self.outcomes) < 1:
            raise DomainError("a scenario needs at least one party")
        canon = []
        for p, party in enumerate(self.outcomes):
            if len(party) < 1:
                raise DomainError(f"party {p} needs at least one setting")
            rows = []
            for s, values in enumerate(party):
                if len(values) < 1:
                    raise DomainError(f"party {p}, setting {s} has no outcomes")
                vals = tuple(float(v) for v in values)
                if any(not -1.0 <= v <= 1.0 or not math.isfinite(v) for v in vals):
                    raise ValidationError(
                        f"outcome values for party {p}, setting {s} must lie in [-1, 1]"
                    )
                rows.append(vals)
            canon.append(tuple(rows))
        object.__setattr__(self, "outcomes", tuple(canon))

    @classmethod
    def uniform(
        cls, parties: int, settings: int, n_outcomes: int = 2,
        values: Sequence[float] | None = None,
    ) -> "Scenario":
        """Same settings count and outcome values at every site."""
        vals = tuple(values) if values is not None else default_outcome_grid(n_outcomes)
        return cls(tuple(tuple(vals for _ in range(settings)) for _ in range(parties)))

    @property
    def parties(self) -> int:
        return len(self.outcomes)

    @property
    def settings(self) -> tuple[int, ...]:
        return tuple(len(p) for p in self.outcomes)

    def outcome_counts(self, joint_setting: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(len(self.outcomes[p][s]) for p, s in enumerate(joint_setting))

    def joint_settings(self) -> Iterator[tuple[int, ...]]:
        """All joint settings, lexicographically."""
        return itertools.product(*(range(len(p)) for p in self.outcomes))


def grid_shape(sc: Scenario) -> tuple[int, ...]:
    """Shape of the strategy grid: one axis per (party, setting) slot, party
    by party, sized by the outcome count. Its C-order ravel is the strategy
    order of ``enumerate_strategies``, the vertex matrix and LP weights."""
    return tuple(len(values) for party in sc.outcomes for values in party)


def slot_shape(sc: Scenario, joint_setting: tuple[int, ...]) -> tuple[int, ...]:
    """Shape that lays a joint setting's table on the strategy grid: party p's
    axis on slot (p, s_p), size 1 on every other slot."""
    shape = [1] * sum(sc.settings)
    for p, s_p in enumerate(joint_setting):
        shape[sum(sc.settings[:p]) + s_p] = len(sc.outcomes[p][s_p])
    return tuple(shape)


def strategy_count(sc: Scenario) -> int:
    return math.prod(grid_shape(sc))


def _check_enum_cap(sc: Scenario) -> None:
    total = strategy_count(sc)
    if total > DEFAULT_ENUM_CAP:
        raise ResourceCapError(
            f"enumeration infeasible: {total} deterministic strategies exceed cap "
            f"{DEFAULT_ENUM_CAP}"
        )


def enumerate_strategies(sc: Scenario) -> Iterator[Strategy]:
    """Yield every deterministic strategy once, lexicographically in the
    flattened (party, setting) index tuple."""
    _check_enum_cap(sc)
    ends = list(itertools.accumulate(sc.settings, initial=0))
    return (
        tuple(flat[a:b] for a, b in zip(ends, ends[1:]))
        for flat in itertools.product(*map(range, grid_shape(sc)))
    )


def _setting_tables(
    sc: Scenario, tables: dict[tuple[int, ...], np.ndarray]
) -> dict[tuple[int, ...], np.ndarray]:
    """Read-only float copies of one finite table per joint setting, shaped by
    its outcome counts, in sorted joint-setting order."""
    expected = set(sc.joint_settings())
    if set(tables) != expected:
        raise ValidationError(
            f"tables cover {len(tables)} joint settings, expected {len(expected)}"
        )
    canon: dict[tuple[int, ...], np.ndarray] = {}
    for s in sorted(tables):
        t = np.array(tables[s], dtype=float)
        if t.shape != sc.outcome_counts(s):
            raise ValidationError(
                f"table for joint setting {s} has shape {t.shape}, "
                f"expected {sc.outcome_counts(s)}"
            )
        if not np.all(np.isfinite(t)):
            raise ValidationError(f"table for joint setting {s} has non-finite entries")
        t.setflags(write=False)
        canon[s] = t
    return canon


@dataclass(frozen=True)
class BellFunctional(JsonFile):
    """Linear functional on behaviors: one dense coefficient table per joint
    setting, table axes ordered by party."""

    scenario: Scenario
    coeffs: dict[tuple[int, ...], np.ndarray]
    label: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", _setting_tables(self.scenario, self.coeffs))

    def scaled(self, c: float, label: str | None = None) -> "BellFunctional":
        return BellFunctional(
            scenario=self.scenario,
            coeffs={s: c * t for s, t in self.coeffs.items()},
            label=self.label if label is None else label,
        )

    def value_at(self, strategy: Strategy) -> float:
        """Functional value on one deterministic strategy."""
        total = 0.0
        for s, table in self.coeffs.items():
            idx = tuple(strategy[p][s_p] for p, s_p in enumerate(s))
            total += float(table[idx])
        return total

    def to_json_dict(self) -> dict:
        return {
            "label": self.label,
            "settings": list(self.scenario.settings),
            "outcomes": [[list(v) for v in party] for party in self.scenario.outcomes],
            "coeffs": {
                ",".join(str(i + 1) for i in s): t.tolist() for s, t in self.coeffs.items()
            },
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "BellFunctional":
        sc = Scenario(tuple(tuple(tuple(v) for v in party) for party in data["outcomes"]))
        coeffs = {}
        for key, table in data["coeffs"].items():
            s = tuple(int(tok) - 1 for tok in key.split(","))
            coeffs[s] = np.asarray(table, dtype=float)
        return cls(scenario=sc, coeffs=coeffs, label=str(data.get("label", "")))


@dataclass(frozen=True)
class LhvBounds:
    """Exact extrema of a functional over deterministic strategies, and the
    violation ratio measured against that LHV range."""

    sup: float
    inf: float

    def __post_init__(self) -> None:
        if self.inf > self.sup + 1e-12:
            raise ValidationError(f"inf {self.inf} exceeds sup {self.sup}")

    @property
    def b_lhv(self) -> float:
        """LHV constant max(|sup|, |inf|)."""
        return max(abs(self.sup), abs(self.inf))

    def violation(self, value: float) -> float:
        """Violation ratio Y = |value - mid| / half of the LHV range [inf, sup],
        mid = (sup + inf)/2 and half = (sup - inf)/2: invariant under adding a
        constant to the functional or scaling it, and |value| / b_lhv when the
        range is symmetric about 0. Y > 1 exactly when value is not local."""
        half = (self.sup - self.inf) / 2.0
        if half <= 0.0:
            raise DegenerateFunctionalError("functional is constant on the local polytope")
        return abs(value - (self.sup + self.inf) / 2.0) / half


def lhv_bounds(f: BellFunctional) -> LhvBounds:
    """Exact LHV constants: the functional's value on every cell of the strategy
    grid, summed in ``f.value_at``'s order, a block of whole trailing slots at
    a time."""
    sc = f.scenario
    _check_enum_cap(sc)
    grid = grid_shape(sc)
    split = next(k for k in range(len(grid) + 1) if math.prod(grid[k:]) <= GRID_BLOCK)
    values = np.empty((1,) * split + grid[split:])
    tables = [table.reshape(slot_shape(sc, s)) for s, table in f.coeffs.items()]
    sup, inf = -math.inf, math.inf
    for head in itertools.product(*map(range, grid[:split])):
        values.fill(0.0)
        for t in tables:
            values += t[tuple(slice(i, i + 1) if n > 1 else slice(None)
                              for i, n in zip(head, t.shape))]
        sup, inf = max(sup, float(values.max())), min(inf, float(values.min()))
    return LhvBounds(sup=sup, inf=inf)


def _product_table(values: Sequence[Sequence[float]]) -> np.ndarray:
    """Outer product of per-party value vectors."""
    table = np.asarray(values[0], dtype=float)
    for v in values[1:]:
        table = np.multiply.outer(table, np.asarray(v, dtype=float))
    return table


def correlation_functional(
    sc: Scenario, weights: dict[tuple[int, ...], float], label: str = ""
) -> BellFunctional:
    """Functional whose table at joint setting s is w_s times the full product
    of the parties' outcome values (a weighted sum of correlation functions)."""
    coeffs = {}
    for s in sc.joint_settings():
        w = float(weights.get(s, 0.0))
        vals = [sc.outcomes[p][s_p] for p, s_p in enumerate(s)]
        coeffs[s] = w * _product_table(vals)
    return BellFunctional(scenario=sc, coeffs=coeffs, label=label)


def chsh() -> BellFunctional:
    """Two-party two-setting correlation functional A1B1 + A1B2 + A2B1 - A2B2,
    outcomes (+1, -1); LHV constant 2."""
    sc = Scenario.uniform(2, 2, values=(1.0, -1.0))
    weights = {(0, 0): 1.0, (0, 1): 1.0, (1, 0): 1.0, (1, 1): -1.0}
    return correlation_functional(sc, weights, label="chsh")


def _mk_weights(n: int) -> dict[tuple[int, ...], float]:
    # M_1 = a_1; M_k = (M_{k-1} (a_k + a_k') + M'_{k-1} (a_k - a_k')) / 2,
    # where priming swaps the two settings of every party.
    weights: dict[tuple[int, ...], float] = {(0,): 1.0}
    for _ in range(n - 1):
        primed = {tuple(1 - s for s in key): c for key, c in weights.items()}
        new: dict[tuple[int, ...], float] = {}
        for key, c in weights.items():
            for s in (0, 1):
                new[key + (s,)] = new.get(key + (s,), 0.0) + 0.5 * c
        for key, c in primed.items():
            for s, sign in ((0, 1.0), (1, -1.0)):
                new[key + (s,)] = new.get(key + (s,), 0.0) + 0.5 * c * sign
        weights = new
    return weights


def mermin(n: int) -> BellFunctional:
    """Mermin-Klyshko correlation functional for n parties, two dichotomic
    (+1/-1) settings per site, scaled so the LHV constant is 2 for every n
    (mermin(2) coincides with chsh())."""
    if n < 2:
        raise DomainError(f"n must be >= 2, got {n}")
    sc = Scenario.uniform(n, 2, values=(1.0, -1.0))
    weights = {key: 2.0 * c for key, c in _mk_weights(n).items() if c != 0.0}
    return correlation_functional(sc, weights, label=f"mermin{n}")


def product_expectation_functional(
    sc: Scenario, joint_setting: tuple[int, ...], site_subset: Sequence[int]
) -> BellFunctional:
    """Expectation of the product of outcomes over ``site_subset`` at one joint
    setting (a single correlation function); excluded sites enter as constant 1."""
    subset = sorted(set(site_subset))
    if not subset:
        raise DomainError("site subset must be nonempty")
    if any(p < 0 or p >= sc.parties for p in subset):
        raise DomainError(f"site subset {subset} invalid for {sc.parties} parties")
    joint_setting = tuple(joint_setting)
    if len(joint_setting) != sc.parties or any(
        s < 0 or s >= sc.settings[p] for p, s in enumerate(joint_setting)
    ):
        raise DomainError(f"invalid joint setting {joint_setting} for scenario {sc.settings}")
    coeffs = {}
    for s in sc.joint_settings():
        if s == joint_setting:
            vals = [
                sc.outcomes[p][s_p] if p in subset else np.ones(len(sc.outcomes[p][s_p]))
                for p, s_p in enumerate(s)
            ]
            coeffs[s] = _product_table(vals)
        else:
            coeffs[s] = np.zeros(sc.outcome_counts(s))
    return BellFunctional(scenario=sc, coeffs=coeffs, label="product-expectation")


def extend_with_passive_parties(f: BellFunctional, extra: int) -> BellFunctional:
    """Append ``extra`` single-setting parties with outcomes (+1, -1) whose
    outcome value multiplies every table (keeps correlation form)."""
    if extra < 1:
        raise DomainError(f"extra must be >= 1, got {extra}")
    tail = tuple(((1.0, -1.0),) for _ in range(extra))
    sc = Scenario(f.scenario.outcomes + tail)
    lam = np.array([1.0, -1.0])
    coeffs = {}
    for s, table in f.coeffs.items():
        t = table
        for _ in range(extra):
            t = np.multiply.outer(t, lam)
        coeffs[s + (0,) * extra] = t
    label = f.label + f"+{extra}passive" if f.label else ""
    return BellFunctional(scenario=sc, coeffs=coeffs, label=label)


@dataclass(frozen=True)
class Behavior:
    """Joint outcome probability tables, one per joint setting.

    Construction validates finiteness, normalization (1e-9), nonnegativity
    (1e-12) and nonsignaling (1e-9).
    """

    scenario: Scenario
    tables: dict[tuple[int, ...], np.ndarray]

    def __post_init__(self) -> None:
        object.__setattr__(self, "tables", _setting_tables(self.scenario, self.tables))
        self._check_distribution()
        self._check_nonsignaling()

    def _check_distribution(self) -> None:
        for s, t in self.tables.items():
            if t.min() < -1e-12:
                raise ValidationError(
                    f"negative probability {t.min():.3e} at joint setting {s}"
                )
            total = float(t.sum())
            if abs(total - 1.0) > 1e-9:
                raise ValidationError(f"table at joint setting {s} sums to {total!r}")

    def _check_nonsignaling(self) -> None:
        sc = self.scenario
        for party in range(sc.parties):
            others = [range(m) for p, m in enumerate(sc.settings) if p != party]
            for rest in itertools.product(*others):
                def joint(s_party: int) -> tuple[int, ...]:
                    s = list(rest)
                    s.insert(party, s_party)
                    return tuple(s)

                ref = self.tables[joint(0)].sum(axis=party)
                for s_party in range(1, sc.settings[party]):
                    marg = self.tables[joint(s_party)].sum(axis=party)
                    if np.max(np.abs(marg - ref)) > 1e-9:
                        raise ValidationError(
                            f"signaling marginal for party {party}: settings 0 vs "
                            f"{s_party} differ by {np.max(np.abs(marg - ref)):.3e}"
                        )

    def vector(self) -> np.ndarray:
        """Flatten in the canonical row order shared with the LP vertex matrix."""
        return np.concatenate([self.tables[s].ravel() for s in sorted(self.tables)])


def row_layout(sc: Scenario) -> tuple[dict[tuple[int, ...], int], int]:
    """Offsets of each joint setting's block in the canonical row order of
    ``Behavior.vector``, and the total row count."""
    sizes = {s: math.prod(sc.outcome_counts(s)) for s in sorted(sc.joint_settings())}
    starts = itertools.accumulate(sizes.values(), initial=0)
    return dict(zip(sizes, starts)), sum(sizes.values())


def basis_rows(sc: Scenario) -> np.ndarray:
    """Mask of canonical rows that are a basis of the vertex matrix's row space,
    the Kronecker product of per-site bases: each site keeps every outcome of
    setting 0 and all but the last of its other settings, as row(s, last) =
    sum_a row(0, a) - sum_{a < last} row(s, a). That is prod_p (1 + sum_s
    (m_ps - 1)) rows; those of joint setting (0, ..., 0) sum to the weight."""
    offsets, rows = row_layout(sc)
    keep = np.zeros(rows, dtype=bool)
    for s, offset in offsets.items():
        block = np.ones((), dtype=bool)
        for p, s_p in enumerate(s):
            m = len(sc.outcomes[p][s_p])
            block = np.multiply.outer(block, np.arange(m) < m - (s_p > 0))
        keep[offset:offset + block.size] = block.ravel()
    return keep


def deterministic_behavior(sc: Scenario, strategy: Strategy) -> Behavior:
    """Point-mass behavior of one deterministic strategy."""
    tables = {}
    for s in sc.joint_settings():
        t = np.zeros(sc.outcome_counts(s))
        t[tuple(strategy[p][s_p] for p, s_p in enumerate(s))] = 1.0
        tables[s] = t
    return Behavior(scenario=sc, tables=tables)


def uniform_behavior(sc: Scenario) -> Behavior:
    """Independent uniform outcomes at every site."""
    tables = {}
    for s in sc.joint_settings():
        shape = sc.outcome_counts(s)
        tables[s] = np.full(shape, 1.0 / float(np.prod(shape)))
    return Behavior(scenario=sc, tables=tables)
