"""Batch command-line front end: reproducible bound tables, seesaw violation
searches, LP visibilities and combined tolerance brackets, as JSON (bound
tables also as CSV) that embeds its own run configuration.

Exit codes: 0 success, 2 domain error, an unreadable or malformed input file
or an unwritable output file, 3 unsupported functional (a seesaw functional
with a setting that does not have exactly two outcomes), 4 resource cap
exceeded, 1 internal error (a SolverError from an LP solve or its certificate
check, from the seesaw's self-check or from a seesaw objective that falls, or
a numerical failure such as numpy's LinAlgError).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .bounds import (
    GENERALIZED,
    MEAS_TYPES,
    PROJECTIVE,
    S_INF,
    family_report,
    sweep_reports,
    tolerance_from_violation,
)
from .errors import (
    BelltolError,
    DomainError,
    ResourceCapError,
    UnsupportedFunctionalError,
    ValidationError,
)
from .polytope import critical_visibility
from .qvalue import (
    SWEEP_TOL,
    MeasurementAssignment,
    seesaw,
    upsilon_lower_bound,
    write_sweep_trace,
)
from .scenario import BellFunctional, chsh, extend_with_passive_parties, mermin
from .states import DensityMatrix, NoiseSpec, dicke, ghz, product_zero, w_state

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_DOMAIN = 2
EXIT_UNSUPPORTED = 3
EXIT_CAP = 4

FIXED_MEAS_CAVEAT = (
    "fixed-measurement result: a lower bound on the scenario-level critical "
    "visibility, which would further optimize over measurements"
)
EXPLICIT_NOISE_CAVEAT = "conditional on locality of the supplied noise state"


def _sig9(x):
    """Round floats to 9 significant digits for stable printed output."""
    if isinstance(x, float):
        if math.isinf(x) or math.isnan(x):
            return x
        return float(f"{x:.9g}")
    if isinstance(x, dict):
        return {k: _sig9(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_sig9(v) for v in x]
    return x


def _zero_round_off(x):
    """``x`` with every float below 1e-12 in magnitude, -0.0 included, in it
    or in the dicts and lists that it nests printed as 0.0, so round-off in
    entries that are 0 does not change stdout. Files that ``save`` writes
    keep full precision."""
    if isinstance(x, float):
        return 0.0 if abs(x) < 1e-12 else x
    if isinstance(x, dict):
        return {k: _zero_round_off(v) for k, v in x.items()}
    if isinstance(x, list):
        return [_zero_round_off(v) for v in x]
    return x


def _parse_int(text: str, source: str) -> int:
    """``int(text)``; a text that is not an integer raises DomainError
    naming ``source``, the spec or list that ``text`` came from."""
    try:
        return int(text)
    except ValueError as exc:
        raise DomainError(f"cannot parse {source}: {exc}") from None


def _parse_int_list(text: str, allow_inf: bool = False) -> list:
    """'2', '2..4' or '2,3,inf' -> list of ints (and inf when allowed)."""
    source = f"integer list {text!r}"
    out: list = []
    for piece in text.split(","):
        piece = piece.strip()
        if piece == "inf":
            if not allow_inf:
                raise DomainError("'inf' is not accepted here")
            out.append(S_INF)
        elif ".." in piece:
            lo_s, hi_s = piece.split("..", 1)
            lo, hi = _parse_int(lo_s, source), _parse_int(hi_s, source)
            if hi < lo:
                raise DomainError(f"empty range {piece!r}")
            out.extend(range(lo, hi + 1))
        else:
            out.append(_parse_int(piece, source))
    if not out:
        raise DomainError(f"empty list {text!r}")
    return out


def _parse_state(spec: str) -> tuple[DensityMatrix, str, int | None]:
    """'ghz:d,n' | 'dicke:n,k' | 'w:n' | 'product:d,n' | 'json:path' -> the
    state, its family and its excitation count k (Dicke and W states). Only
    the spec's integers are reported as unparsable; the builder's and the
    file's own errors pass through as they are."""
    kind, _, arg = spec.partition(":")
    if kind == "json":
        return DensityMatrix.load(arg), "custom", None
    builders = {"ghz": (ghz, 2), "dicke": (dicke, 2), "w": (w_state, 1),
                "product": (product_zero, 2)}
    if kind not in builders:
        raise DomainError(f"unknown state spec {spec!r}")
    build, count = builders[kind]
    ints = [_parse_int(x, f"state spec {spec!r}") for x in arg.split(",")]
    if len(ints) != count:
        raise DomainError(f"cannot parse state spec {spec!r}: expected {count} integers")
    return build(*ints), kind, {"dicke": ints[-1], "w": 1}.get(kind)


def _parse_functional(spec: str, parties: int) -> BellFunctional:
    """'chsh' | 'mermin:n' | 'json:path'; chsh on > 2 parties is padded with
    passive single-setting sites, and mermin:n needs n = ``parties``."""
    if spec == "chsh":
        f = chsh()
        if parties > 2:
            f = extend_with_passive_parties(f, parties - 2)
        return f
    kind, _, arg = spec.partition(":")
    if kind == "mermin":
        n = _parse_int(arg, f"functional spec {spec!r}") if arg else parties
        if n != parties:
            # checked before mermin(n) builds its 2^n tables of 2^n entries
            raise DomainError(f"functional {spec!r} has {n} parties, state has {parties}")
        return mermin(n)
    if kind == "json":
        return BellFunctional.load(arg)
    raise DomainError(f"unknown functional spec {spec!r}")


def _parse_noise(spec: str) -> NoiseSpec:
    if spec == "white":
        return NoiseSpec.white()
    kind, _, arg = spec.partition(":")
    if kind == "json":
        return NoiseSpec.explicit(DensityMatrix.load(arg))
    raise DomainError(f"unknown noise spec {spec!r}")


def _emit(args: argparse.Namespace, results, csv_rows: list[dict] | None = None,
          **config) -> None:
    """Write the report to stdout, or the same bytes to ``args.out``: JSON
    whose config lists the subcommand and then ``config`` in call order, or
    csv_rows as CSV when given."""
    if csv_rows is None:
        payload = {
            "version": __version__,
            "generated_at": datetime.now(timezone.utc).isoformat(),
            "config": {"subcommand": args.subcommand, **config},
            "results": results,
        }
        text = json.dumps(_sig9(payload), indent=2)
    else:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(csv_rows[0].keys()))
        writer.writeheader()
        for row in csv_rows:
            writer.writerow({k: f"{v:.9g}" if isinstance(v, float) else v
                             for k, v in row.items()})
        text = buf.getvalue()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            print(text, file=fh)
    else:
        print(text)


# --- subcommands ---------------------------------------------------------------


def cmd_bounds(args: argparse.Namespace) -> int:
    d_values = _parse_int_list(args.d) if args.d else [2]
    n_values = _parse_int_list(args.n)
    s_values = _parse_int_list(args.s, allow_inf=True) if args.s else [S_INF]
    meas = [args.meas] if args.meas != "both" else list(MEAS_TYPES)
    reports = sweep_reports(
        args.family, d_values, n_values, s_values, meas, k=args.k
    )
    rows = [r.row() for r in reports]
    _emit(args, rows, rows if args.format == "csv" else None, family=args.family,
          d=args.d, n=args.n, s=args.s, meas=args.meas, k=args.k)
    return EXIT_OK


def cmd_violation(args: argparse.Namespace) -> int:
    state = _parse_state(args.state)[0]
    specs = args.functional or ["mermin"]
    library = [_parse_functional(s, state.n) for s in specs]
    found = upsilon_lower_bound(state, library, restarts=args.restarts, seed=args.seed)
    if args.trace:
        write_sweep_trace(args.trace, found.result.trace)
    result = {
        "upsilon_lower_bound": found.value,
        "best_functional": found.best_label,
        "per_functional": [
            {"functional": name, "value": val} for name, val in found.per_functional
        ],
        "sweeps": len(found.result.trace),
        "assignment": _zero_round_off(found.result.assignment.to_json_dict()),
    }
    _emit(args, result, state=args.state, functional=specs, seed=args.seed,
          restarts=args.restarts, sweep_tol=SWEEP_TOL, trace=args.trace)
    return EXIT_OK


def cmd_visibility(args: argparse.Namespace) -> int:
    state = _parse_state(args.state)[0]
    noise = _parse_noise(args.noise)
    if args.measurements == "seesaw":
        functional = _parse_functional(args.functional, state.n)
        opt = seesaw(functional, state, restarts=args.restarts, seed=args.seed)
        assignment = opt.assignment
        meas_origin = {"kind": "seesaw", "seesaw_value": opt.value}
    elif args.measurements.startswith("json:"):
        assignment = MeasurementAssignment.load(args.measurements.removeprefix("json:"))
        meas_origin = {"kind": "file", "path": args.measurements}
    else:
        raise DomainError(f"unknown measurements spec {args.measurements!r}")
    vis = critical_visibility(state, noise, assignment)
    caveats = [FIXED_MEAS_CAVEAT]
    if noise.kind == "explicit":
        caveats.append(EXPLICIT_NOISE_CAVEAT)
    result = {
        "beta_star": vis.beta_star,
        "certificate_kind": vis.certificate_kind,
        "caveats": caveats,
        "measurements": meas_origin,
        "report": _zero_round_off(vis.to_json_dict()),
    }
    _emit(args, result, state=args.state, noise=args.noise, measurements=args.measurements,
          functional=args.functional, seed=args.seed, restarts=args.restarts)
    return EXIT_OK


def cmd_tolerance(args: argparse.Namespace) -> int:
    state, family, k = _parse_state(args.state)
    specs = args.functional or (
        ["mermin", "chsh"] if state.n > 2 else ["chsh"]
    )
    library = [_parse_functional(s, state.n) for s in specs]
    # only the best value is printed, so a functional that cannot beat it is skipped
    found = upsilon_lower_bound(
        state, library, restarts=args.restarts, seed=args.seed, best_only=True
    )
    seesaw_tol_upper = tolerance_from_violation(max(found.value, 1.0))

    if family in ("ghz", "dicke", "w"):
        formula = family_report(family, state.d, state.n, S_INF, GENERALIZED, k=k)
        tol = formula.tolerance
        source = f"formula family {formula.family!r}"
        if abs(seesaw_tol_upper - tol.upper) <= 1e-6:
            upper_src = f"{source}, witnessed by seesaw via {found.best_label}"
        elif seesaw_tol_upper < tol.upper:
            upper_src = f"seesaw via {found.best_label}"
        else:
            upper_src = source
        tol_lo, tol_hi = tol.lower, min(tol.upper, seesaw_tol_upper)
        provenance = {
            "lower": f"{source}, active term {tol.active_term}",
            "upper": upper_src,
            "formula_upper": tol.upper,
            "seesaw_upper": seesaw_tol_upper,
        }
        notes, warning = list(formula.notes), None
    else:
        tol_lo, tol_hi = None, seesaw_tol_upper
        provenance = {"upper": f"seesaw via {found.best_label}"}
        notes, warning = [], (f"state family {family!r} has no closed-form bound family; "
                              "formula side omitted")

    result = {
        "tolerance_interval": [tol_lo, tol_hi],
        "max_noise_interval": [1.0 - tol_hi, None if tol_lo is None else 1.0 - tol_lo],
        "upsilon_seesaw": found.value,
        "best_functional": found.best_label,
        "provenance": provenance,
        "notes": notes,
    }
    if warning:
        result["warning"] = warning
    _emit(args, result, state=args.state, functional=specs, seed=args.seed,
          restarts=args.restarts)
    return EXIT_OK


# --- parser -------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process and shared by every ``main``
    call: parsing leaves it as it was (no argument has a mutable default)."""
    parser = argparse.ArgumentParser(
        prog="belltol",
        description="Noise tolerances of nonlocal multi-qudit states",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("bounds", help="closed-form bound tables with sweeps")
    p.add_argument("--family", required=True, choices=["generic", "ghz", "w", "dicke"])
    p.add_argument("--d", help="qudit dimension: '3', '2..4' or '2,3'")
    p.add_argument("--n", required=True, help="party count: '3', '2..5' or '2,4'")
    p.add_argument("--s", help="settings per site: '2', '2,3,inf' ('inf' = all settings)")
    p.add_argument("--meas", default="both", choices=[PROJECTIVE, GENERALIZED, "both"])
    p.add_argument("--k", type=int, help="Dicke excitation count (dicke only)")
    p.set_defaults(func=cmd_bounds)

    q = sub.add_parser("violation", help="seesaw lower bound on the maximal violation")
    q.add_argument("--functional", action="append",
                   help="chsh | mermin:n | json:path (repeatable)")
    q.add_argument("--trace", help="write the best restart's per-sweep objective CSV here")
    q.set_defaults(func=cmd_violation)

    r = sub.add_parser("visibility", help="LP critical visibility for fixed measurements")
    r.add_argument("--noise", default="white", help="white | json:path")
    r.add_argument("--measurements", default="seesaw", help="seesaw | json:path")
    r.add_argument("--functional", default="chsh", help="functional guiding the seesaw")
    r.set_defaults(func=cmd_visibility)

    t = sub.add_parser("tolerance", help="bracketing interval for the noise tolerance")
    t.add_argument("--functional", action="append",
                   help="seesaw library (default: mermin + chsh)")
    t.set_defaults(func=cmd_tolerance)

    p.add_argument("--format", default="json", choices=["json", "csv"])
    for p_ in (p, q, r, t):
        if p_ is not p:
            p_.add_argument("--state", required=True,
                            help="ghz:d,n | dicke:n,k | w:n | product:d,n | json:path")
            p_.add_argument("--seed", type=int, default=1)
            p_.add_argument("--restarts", type=int, default=20)
        p_.add_argument("--out", help="write output to this path instead of stdout")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UnsupportedFunctionalError as exc:
        print(f"error: unsupported functional: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except ResourceCapError as exc:
        print(f"error: resource cap: {exc}", file=sys.stderr)
        return EXIT_CAP
    except np.linalg.LinAlgError as exc:  # a ValueError, but no domain error
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (DomainError, ValidationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except BelltolError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
