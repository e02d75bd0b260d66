"""Per-layer tracing from outside the program.

The tracer rebinds public functions of belltol's modules to timed wrappers.
A function is rebound in every loaded belltol module whose namespace holds it,
so ``from .linalg import eig_hermitian`` bindings in other modules are
replaced too and calls made through any of them are seen. No file of the
package changes; ``uninstall`` puts the originals back.

Each wrapper records a span (id, parent, job, layer, start, end). A span's self
time is its duration minus the durations of its direct child spans. Counts
are taken from the call's arguments and results at the same boundary.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from typing import Callable


def _outcomes_product(sc) -> int:
    total = 1
    for party in sc.outcomes:
        for values in party:
            total *= len(values)
    return total


def _joint_settings(sc) -> int:
    total = 1
    for party in sc.outcomes:
        total *= len(party)
    return total


def _stdout_pos() -> int:
    """Characters written so far to a seekable stdout (the jobs capture CLI
    output in a StringIO); 0 where stdout cannot tell."""
    try:
        return sys.stdout.tell()
    except (AttributeError, OSError, ValueError):
        return 0


@dataclass(frozen=True)
class Layer:
    """One traced boundary: ``module.attr`` recorded as span ``span``.

    ``count`` maps (args, kwargs, result) to extra counts for that call.
    ``timed=False`` counts calls without opening a span.
    """

    module: str
    attr: str
    span: str
    count: Callable | None = None
    timed: bool = True


def _lhv_counts(args, kwargs, result):
    return {"scenario.lhv_strategies": _outcomes_product(args[0].scenario)}


def _behavior_counts(args, kwargs, result):
    return {"qvalue.behavior_tables": _joint_settings(result.scenario)}


def _state_counts(args, kwargs, result):
    return {"states.matrix_bytes": result.dim * result.dim * 16}


def _lp_counts(args, kwargs, result):
    rows, cols = args[0].a_eq.shape
    return {"polytope.lp_cells": rows * cols}


def _vertex_counts(args, kwargs, result):
    return {"polytope.vertex_entries": int(result.size)}


LAYERS = (
    Layer("belltol.linalg", "eig_hermitian", "linalg.eigh"),
    Layer("belltol.states", "ghz", "states.construct", _state_counts),
    Layer("belltol.states", "dicke", "states.construct", _state_counts),
    Layer("belltol.states", "w_state", "states.construct", _state_counts),
    Layer("belltol.states", "white_noise", "states.construct", _state_counts),
    Layer("belltol.states", "product_zero", "states.construct", _state_counts),
    Layer("belltol.states", "mix", "states.construct", _state_counts),
    Layer("belltol.scenario", "lhv_bounds", "scenario.lhv", _lhv_counts),
    Layer("belltol.qvalue", "seesaw", "qvalue.seesaw"),
    Layer("belltol.qvalue", "sign_operator", "qvalue.sign_update", timed=False),
    Layer("belltol.qvalue", "behavior", "qvalue.behavior", _behavior_counts),
    Layer("belltol.polytope", "simplex_max", "polytope.simplex", _lp_counts),
    Layer("belltol.polytope", "vertex_matrix", "polytope.vertex_matrix", _vertex_counts),
    Layer("belltol.polytope", "critical_visibility", "polytope.visibility"),
    # the membership routine behind is_local and the visibility probe
    Layer("belltol.polytope", "_membership", "polytope.membership"),
    # sweep_reports calls family_report; sharing one span name, the outer
    # call alone adds time and its report count
    Layer("belltol.bounds", "family_report", "bounds.report", lambda a, k, r: {"bounds.reports": 1}),
    Layer("belltol.bounds", "sweep_reports", "bounds.report",
          lambda a, k, r: {"bounds.reports": len(r)}),
    Layer("belltol.cli", "main", "cli.main"),
)


class Tracer:
    """Records spans while ``active``; ``delays`` plants a sleep inside the
    named spans (used by the self-test).

    Calls, inclusive time and counts are taken from the outermost span of a
    name only, so nested same-layer calls (``w_state`` -> ``dicke``,
    ``sweep_reports`` -> ``family_report``) count once.
    """

    def __init__(self, delays: dict[str, float] | None = None) -> None:
        self.active = False
        self.job = -1
        self.delays = dict(delays or {})
        # (span id, parent id or -1, job, layer, start, end)
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self._open: list[tuple[int, str, list[float]]] = []  # id, layer, [child time]
        self._next_id = 0
        self._installed: list[tuple[object, str, object]] = []
        self.counts: dict[str, int] = {}
        self.self_time: dict[str, float] = {}
        self.incl_time: dict[str, float] = {}
        self.calls: dict[str, int] = {}

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        for layer in LAYERS:
            original = getattr(sys.modules[layer.module], layer.attr)
            wrapper = self._wrap(layer, original)
            for name, mod in list(sys.modules.items()):
                if mod is None or not (name == "belltol" or name.startswith("belltol.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._installed.append((mod, key, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._installed):
            setattr(mod, key, original)
        self._installed.clear()

    def _wrap(self, layer: Layer, fn):
        tracer = self
        span, count, timed = layer.span, layer.count, layer.timed
        is_cli = span == "cli.main"

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if not timed:
                tracer.calls[span] = tracer.calls.get(span, 0) + 1
                return fn(*args, **kwargs)
            out_pos = _stdout_pos() if is_cli else 0
            span_id = tracer._next_id
            tracer._next_id += 1
            frame = [0.0]
            tracer._open.append((span_id, span, frame))
            start = time.perf_counter()
            try:
                delay = tracer.delays.get(span)
                if delay:
                    time.sleep(delay)
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._open.pop()
                outer = tracer._close(span_id, span, start, end, frame[0])
            if outer:
                extra = count(args, kwargs, result) if count is not None else {}
                if is_cli:
                    extra = {"cli.output_bytes": _stdout_pos() - out_pos}
                for key, value in extra.items():
                    tracer.counts[key] = tracer.counts.get(key, 0) + value
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", layer.attr)
        return traced

    def _close(self, span_id: int, span: str, start: float, end: float, child: float) -> bool:
        dur = end - start
        parent = -1
        if self._open:
            parent = self._open[-1][0]
            self._open[-1][2][0] += dur
        self.spans.append((span_id, parent, self.job, span, start, end))
        self.self_time[span] = self.self_time.get(span, 0.0) + (dur - child)
        outer = all(name != span for _, name, _ in self._open)
        if outer:
            self.calls[span] = self.calls.get(span, 0) + 1
            self.incl_time[span] = self.incl_time.get(span, 0.0) + dur
        return outer

    # -- per-pass statistics ----------------------------------------------------

    def dump(self) -> dict:
        """Every recorded span, for the trace file."""
        names = sorted({span[3] for span in self.spans})
        index = {name: i for i, name in enumerate(names)}
        return {
            "layers": names,
            "span_fields": ["id", "parent", "job", "layer", "start_s", "end_s"],
            "spans": [[i, p, job, index[name], round(s, 7), round(e, 7)]
                      for i, p, job, name, s, e in self.spans],
        }

    def reset(self) -> None:
        self.counts.clear()
        self.self_time.clear()
        self.incl_time.clear()
        self.calls.clear()

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything recorded since the last reset."""
        incl, self_t, calls, counts = self.incl_time, self.self_time, self.calls, self.counts
        lhv_s = incl.get("scenario.lhv", 0.0)
        strategies = counts.get("scenario.lhv_strategies", 0)
        return {
            "scenario.lhv_s": lhv_s,
            "scenario.lhv_calls": calls.get("scenario.lhv", 0),
            "scenario.lhv_strategies": strategies,
            "scenario.lhv_strategies_per_s": strategies / lhv_s if lhv_s > 0 else 0.0,
            "qvalue.seesaw_self_s": self_t.get("qvalue.seesaw", 0.0),
            "qvalue.seesaw_calls": calls.get("qvalue.seesaw", 0),
            "qvalue.sign_updates": calls.get("qvalue.sign_update", 0),
            "qvalue.behavior_s": incl.get("qvalue.behavior", 0.0),
            "qvalue.behavior_tables": counts.get("qvalue.behavior_tables", 0),
            "states.construct_s": incl.get("states.construct", 0.0),
            "states.construct_calls": calls.get("states.construct", 0),
            "states.matrix_mb": counts.get("states.matrix_bytes", 0) / 1e6,
            "linalg.eigh_s": incl.get("linalg.eigh", 0.0),
            "linalg.eigh_calls": calls.get("linalg.eigh", 0),
            "polytope.simplex_s": incl.get("polytope.simplex", 0.0),
            "polytope.simplex_calls": calls.get("polytope.simplex", 0),
            "polytope.lp_cells": counts.get("polytope.lp_cells", 0),
            "polytope.vertex_matrix_s": incl.get("polytope.vertex_matrix", 0.0),
            "polytope.vertex_entries": counts.get("polytope.vertex_entries", 0),
            "polytope.visibility_self_s": self_t.get("polytope.visibility", 0.0),
            "polytope.membership_self_s": self_t.get("polytope.membership", 0.0),
            "bounds.report_s": incl.get("bounds.report", 0.0),
            "bounds.report_calls": counts.get("bounds.reports", 0),
            "cli.self_s": self_t.get("cli.main", 0.0),
            "cli.output_bytes": counts.get("cli.output_bytes", 0),
        }
