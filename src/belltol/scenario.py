"""Correlation scenarios, Bell functionals over discrete outcomes, behaviors,
deterministic-strategy enumeration and exact LHV constants.

A functional or a behavior holds only its read-only slot grid ``slots``:
site p's axis holds its settings' outcomes, setting-major, so joint setting
s's table is the block at each site's s_p. Builders hand their grid over;
``coeffs`` and ``tables`` are views of its blocks (``setting_views``), and
``from_tables`` lays a dict of tables out on a new grid. ``canonical_rows``
reads a grid in the LP's row order.

A deterministic strategy is one local strategy per site, and a local
strategy reads one slot of its site's axis per setting. So a functional's
value on every strategy comes from its slot grid site by site: each site's
axis is replaced by its local strategies, the sum over the site's settings
of the slots they read (Collins & Gisin, J. Phys. A 37, 1775 (2004)). One
site sum (``_site_sum``) does this for ``lhv_bounds`` and, on unit
functionals, for the vertex matrix: one broadcast add per setting over the
site's local strategies, which run in C order over its settings.
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
# Most cells of any array lhv_bounds makes (8 MB of float64): a block of
# strategies, or a grid part way from slots to strategies.
GRID_BLOCK = 2**20
# A behavior's entries must be >= -NEG_PROB_TOL, each table must sum to 1
# within NORMALIZATION_TOL, and marginals must agree within NONSIGNALING_TOL.
NEG_PROB_TOL = 1e-12
NORMALIZATION_TOL = 1e-9
NONSIGNALING_TOL = 1e-9


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
    order of the vertex matrix and LP weights."""
    return tuple(len(values) for party in sc.outcomes for values in party)


def strategy_count(sc: Scenario) -> int:
    return math.prod(grid_shape(sc))


def _check_enum_cap(sc: Scenario) -> None:
    total = strategy_count(sc)
    if total > DEFAULT_ENUM_CAP:
        raise ResourceCapError(
            f"enumeration infeasible: {total} deterministic strategies exceed cap "
            f"{DEFAULT_ENUM_CAP}"
        )


def setting_views(sc: Scenario, slots: np.ndarray) -> dict[tuple[int, ...], np.ndarray]:
    """Each joint setting's block of a slot grid, as views in sorted
    joint-setting order: on site p's axis, the outcomes of setting s_p. Axes
    past the sites are kept whole."""
    cuts = [[slice(a, b) for a, b in itertools.pairwise(
        itertools.accumulate(map(len, party), initial=0))] for party in sc.outcomes]
    return {s: slots[index] for s, index in zip(sc.joint_settings(), itertools.product(*cuts))}


def canonical_rows(sc: Scenario, slots: np.ndarray) -> np.ndarray:
    """A slot grid read in the canonical row order of ``Behavior.vector`` and
    the vertex matrix: sorted joint settings, each table raveled. Axes past
    the sites are kept whole."""
    tail = slots.shape[sc.parties:]
    return np.concatenate([v.reshape((-1, *tail)) for v in setting_views(sc, slots).values()])


@dataclass(frozen=True)
class _SlotGrid:
    """A scenario and its tables held as one read-only slot grid: a C-order
    float64 grid is kept as it is, anything else is copied to one."""

    scenario: Scenario
    slots: np.ndarray

    def __post_init__(self) -> None:
        sc, slots = self.scenario, np.ascontiguousarray(self.slots, dtype=float)
        shape = tuple(sum(map(len, party)) for party in sc.outcomes)
        if slots.shape != shape:
            raise ValidationError(f"slot grid has shape {slots.shape}, expected {shape}")
        if not np.isfinite(slots).all():
            s = next(s for s, v in setting_views(sc, slots).items() if not np.isfinite(v).all())
            raise ValidationError(f"table for joint setting {s} has non-finite entries")
        slots.setflags(write=False)
        object.__setattr__(self, "slots", slots)

    @classmethod
    def from_tables(cls, sc: Scenario, tables: dict[tuple[int, ...], np.ndarray], **fields):
        """One table per joint setting, shaped by its outcome counts, laid out
        on a new slot grid."""
        slots = np.empty([sum(map(len, party)) for party in sc.outcomes])
        views = setting_views(sc, slots)
        if tables.keys() != views.keys():
            missing = [f"no table for joint setting {s}" for s in views if s not in tables]
            unexpected = [f"a table for joint setting {s}, which does not exist with settings "
                          f"per party {sc.settings}" for s in tables if s not in views]
            raise ValidationError("; ".join(missing[:1] + unexpected[:1]))
        for s, view in views.items():
            t = np.asarray(tables[s], dtype=float)
            if t.shape != view.shape:
                raise ValidationError(
                    f"table for joint setting {s} has shape {t.shape}, expected {view.shape}"
                )
            view[...] = t
        return cls(sc, slots, **fields)


@dataclass(frozen=True)
class BellFunctional(_SlotGrid, JsonFile):
    """Linear functional on behaviors: one dense coefficient table per joint
    setting, table axes ordered by party, as the blocks of the slot grid."""

    label: str = ""

    @property
    def coeffs(self) -> dict[tuple[int, ...], np.ndarray]:
        return setting_views(self.scenario, self.slots)

    def scaled(self, c: float) -> "BellFunctional":
        """The functional times c, with its label: the slot grid multiplied once."""
        return BellFunctional(self.scenario, c * self.slots, self.label)

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
            try:
                s = tuple(int(tok) - 1 for tok in key.split(","))
            except ValueError:
                raise ValidationError(f"functional JSON key {key!r} is not a list of "
                                      "1-based settings such as '1,2'") from None
            coeffs[s] = table
        return cls.from_tables(sc, coeffs, label=str(data.get("label", "")))


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

    @property
    def half(self) -> float:
        """Half-width (sup - inf)/2 of the LHV range; DegenerateFunctionalError
        when it is 0, for a functional constant on the local polytope."""
        half = (self.sup - self.inf) / 2.0
        if half <= 0.0:
            raise DegenerateFunctionalError("functional is constant on the local polytope")
        return half

    def violation(self, value: float) -> float:
        """Violation ratio Y = |value - mid| / half of the LHV range [inf, sup],
        mid = (sup + inf)/2: invariant under adding a constant to the
        functional or scaling it, and |value| / b_lhv when the range is
        symmetric about 0. Y > 1 exactly when value is not local."""
        return abs(value - (self.sup + self.inf) / 2.0) / self.half


def _site_sum(terms: list[np.ndarray], sizes: Sequence[int],
              box: Sequence[range]) -> list[np.ndarray]:
    """Terms shaped (L, slots of one site, *rest) summed into a box of the
    site's local strategies, one run of outcomes per setting: each setting
    adds its run of slots, broadcast over the box's other settings, in
    setting order. The sum is shaped (L * strategies in the box, *rest), C
    order over (L, box). A box of one strategy returns the views it reads."""
    # setting s's run of slots on the axis of its outcomes, after L
    blank = (None,) * len(box)
    index = [(slice(None), *blank[:s], slice(a + r.start, a + r.stop), *blank[s + 1:])
             for s, (a, r) in enumerate(zip(itertools.accumulate(sizes, initial=0), box))]
    parts = [term[i] for term in terms for i in index]
    lens = [len(r) for r in box]
    rest = terms[0].shape[2:]
    if len(parts) == 1 or math.prod(lens) == 1:
        return [part.reshape(-1, *rest) for part in parts]
    total = np.add(parts[0], parts[1], out=np.empty(
        (len(terms[0]), *lens, *rest), dtype=parts[0].dtype))
    for part in parts[2:]:
        total += part
    return [total.reshape(-1, *rest)]


def lhv_bounds(f: BellFunctional) -> LhvBounds:
    """Exact LHV constants: the functional's extrema over the strategy grid,
    built from the slot grid site by site (``_site_sum``). A cell is the sum
    of J entries, one per joint setting, that its strategy reads.

    The grid is taken a box at a time, so that no array made holds more than
    GRID_BLOCK cells: the axes before a cut take one outcome each, the cut
    axis the longest run that fits, later axes whole. Sites before the cut
    enter as the views of the slot grid that their strategy reads."""
    sc = f.scenario
    _check_enum_cap(sc)
    sizes = [tuple(map(len, party)) for party in sc.outcomes]
    shape, slots = grid_shape(sc), f.slots.shape
    ends = list(itertools.accumulate(map(len, sizes)))

    def widest(cut: int) -> int:
        # the most cells of an array made at the cut's site or a later one,
        # per outcome of the cut axis: the box so far times the later slots
        site = sum(end <= cut for end in ends)
        return max(math.prod(shape[cut + 1:ends[p]]) * math.prod(slots[p + 1:])
                   for p in range(site, len(sizes)))

    cut = next(a for a in range(len(shape)) if widest(a) <= GRID_BLOCK)
    steps = [1] * cut + [GRID_BLOCK // widest(cut)] + list(shape[cut + 1:])
    runs = [[range(k, min(k + step, n)) for k in range(0, n, step)]
            for n, step in zip(shape, steps)]
    sup, inf = -math.inf, math.inf
    for box in itertools.product(*runs):
        terms = [f.slots[None]]
        for m, end in zip(sizes, ends):
            terms = _site_sum(terms, m, box[end - len(m):end])
        values = sum(terms[1:], start=terms[0])
        sup, inf = max(sup, float(values.max())), min(inf, float(values.min()))
    return LhvBounds(sup=sup, inf=inf)


def _slot_product(weights: np.ndarray, sites: Sequence[Sequence[Sequence[float]]]) -> np.ndarray:
    """The product-form slot grid of one weight per joint setting and the
    slot values ``sites[p][s]`` of site p's setting s: the cell of joint
    setting s at slots (a_1, ..., a_n) is weights[s] times its slots'
    values, multiplied in site order. Built site by site: the grid is
    repeated along site p's axis by its settings' outcome counts, then
    multiplied in place by site p's slot values."""
    grid = np.asarray(weights, dtype=float)
    for p, site in enumerate(sites):
        grid = grid.repeat([len(values) for values in site], axis=p)
        grid *= np.concatenate(site).reshape((-1,) + (1,) * (grid.ndim - p - 1))
    return grid


def correlation_functional(sc: Scenario, weights: np.ndarray, label: str = "") -> BellFunctional:
    """Functional whose table at joint setting s is weights[s] times the full
    product of the parties' outcome values (a weighted sum of correlation
    functions), written as one product-form slot grid (``_slot_product``)."""
    w = np.asarray(weights, dtype=float)
    if w.shape != sc.settings:
        raise ValidationError(f"weights have shape {w.shape}, expected {sc.settings}")
    return BellFunctional(sc, _slot_product(w, sc.outcomes), label)


def chsh() -> BellFunctional:
    """Two-party two-setting correlation functional A1B1 + A1B2 + A2B1 - A2B2,
    outcomes (+1, -1); LHV constant 2."""
    sc = Scenario.uniform(2, 2, values=(1.0, -1.0))
    return correlation_functional(sc, [[1.0, 1.0], [1.0, -1.0]], label="chsh")


def _mk_weights(n: int) -> np.ndarray:
    # M_1 = a_1; M_k = (M_{k-1} (a_k + a_k') + M'_{k-1} (a_k - a_k')) / 2,
    # where priming swaps the two settings of every party, which reverses
    # every axis of the weight tensor.
    weights = np.array([1.0, 0.0])
    for _ in range(n - 1):
        half, primed = 0.5 * weights, 0.5 * weights[(slice(None, None, -1),) * weights.ndim]
        weights = np.stack([half + primed, half - primed], axis=-1)
    return weights


def mermin(n: int) -> BellFunctional:
    """Mermin-Klyshko correlation functional for n parties, two dichotomic
    (+1/-1) settings per site, scaled so the LHV constant is 2 for every n
    (mermin(2) coincides with chsh())."""
    if n < 2:
        raise DomainError(f"n must be >= 2, got {n}")
    sc = Scenario.uniform(n, 2, values=(1.0, -1.0))
    return correlation_functional(sc, 2.0 * _mk_weights(n), label=f"mermin{n}")


def product_expectation_functional(
    sc: Scenario, joint_setting: tuple[int, ...], site_subset: Sequence[int]
) -> BellFunctional:
    """Expectation of the product of outcomes over ``site_subset`` at one joint
    setting (a single correlation function); excluded sites enter as constant 1.
    The slot grid is +0.0 off that joint setting's block, which is written as
    the product-form grid (``_slot_product``) of the sites' one setting each."""
    subset = sorted(set(site_subset))
    if not subset:
        raise DomainError("site subset must be nonempty")
    if any(p < 0 or p >= sc.parties for p in subset):
        raise DomainError(f"site subset {subset} invalid for {sc.parties} parties")
    joint_setting = tuple(joint_setting)
    if len(joint_setting) != sc.parties or any(
        not 0 <= s < m for s, m in zip(joint_setting, sc.settings)
    ):
        raise DomainError(f"invalid joint setting {joint_setting} for scenario {sc.settings}")
    slots = np.zeros([sum(map(len, party)) for party in sc.outcomes])
    sites = [[party[s] if p in subset else (1.0,) * len(party[s])]
             for p, (party, s) in enumerate(zip(sc.outcomes, joint_setting))]
    block = tuple(slice(sum(map(len, party[:s])), sum(map(len, party[:s + 1])))
                  for party, s in zip(sc.outcomes, joint_setting))
    slots[block] = _slot_product(np.ones([1] * sc.parties), sites)
    return BellFunctional(sc, slots, "product-expectation")


def extend_with_passive_parties(f: BellFunctional, extra: int) -> BellFunctional:
    """Append ``extra`` single-setting parties with outcomes (+1, -1) whose
    outcome value multiplies every table."""
    if extra < 1:
        raise DomainError(f"extra must be >= 1, got {extra}")
    tail = tuple(((1.0, -1.0),) for _ in range(extra))
    sc = Scenario(f.scenario.outcomes + tail)
    slots = f.slots
    for _ in range(extra):
        slots = np.multiply.outer(slots, [1.0, -1.0])
    label = f.label + f"+{extra}passive" if f.label else ""
    return BellFunctional(sc, slots, label)


@dataclass(frozen=True)
class Behavior(_SlotGrid):
    """Joint outcome probability tables, one per joint setting, as the blocks
    of the slot grid.

    Construction validates finiteness, normalization (NORMALIZATION_TOL),
    nonnegativity (NEG_PROB_TOL) and nonsignaling (NONSIGNALING_TOL).
    """

    @property
    def tables(self) -> dict[tuple[int, ...], np.ndarray]:
        return setting_views(self.scenario, self.slots)

    def __post_init__(self) -> None:
        """Contracting a site's axis with its (setting, slot) indicator sums
        each setting's outcomes and appends the setting axis last. An error
        names the first offending joint setting, or party and setting, in
        sorted order."""
        super().__post_init__()
        sc = self.scenario
        counts = [[len(values) for values in party] for party in sc.outcomes]
        indicators = [np.repeat(np.eye(len(m)), m, axis=1) for m in counts]
        total = self.slots
        for ind in indicators:
            total = np.tensordot(total, ind, axes=(0, 1))
        off = np.abs(total - 1.0)
        if self.slots.min() < -NEG_PROB_TOL or off.max() > NORMALIZATION_TOL:
            # self.tables lists the joint settings in C order
            low = np.reshape([t.min() for t in self.tables.values()], sc.settings)
            bad = (low < -NEG_PROB_TOL) | (off > NORMALIZATION_TOL)
            s = tuple(int(i) for i in np.argwhere(bad)[0])
            if low[s] < -NEG_PROB_TOL:
                raise ValidationError(f"negative probability {low[s]:.3e} at joint setting {s}")
            raise ValidationError(f"table at joint setting {s} sums to {float(total[s])!r}")
        for party, ind in enumerate(indicators):
            # the other parties' marginals, by party's setting on the last axis
            marg = np.tensordot(self.slots, ind, axes=(party, 1))
            diff = np.abs(marg - marg[..., :1])
            if diff.max() > NONSIGNALING_TOL:
                # the largest difference per joint setting: (other settings, setting)
                others = [p for p in range(sc.parties) if p != party]
                for axis, p in enumerate(others):
                    starts = list(itertools.accumulate(counts[p][:-1], initial=0))
                    diff = np.maximum.reduceat(diff, starts, axis=axis)
                first = tuple(np.argwhere(diff > NONSIGNALING_TOL)[0])
                raise ValidationError(
                    f"signaling marginal for party {party}: settings 0 vs "
                    f"{first[-1]} differ by {diff[first]:.3e}"
                )

    def vector(self) -> np.ndarray:
        """Flatten in the canonical row order shared with the LP vertex matrix."""
        return canonical_rows(self.scenario, self.slots)


def uniform_behavior(sc: Scenario) -> Behavior:
    """Independent uniform outcomes at every site: 1 / prod_p m_p on the
    slot grid, the reciprocal of the product-form grid of each slot's
    outcome count (``_slot_product``)."""
    counts = _slot_product(np.ones(sc.settings), [[(len(v),) * len(v) for v in party]
                                                  for party in sc.outcomes])
    return Behavior(sc, 1.0 / counts)
