"""Closed-form noise-tolerance and maximal-violation bound families for
generic N-qudit states, GHZ states, Dicke states and the W state, plus their
large-N asymptotics.

Everything here follows from one identity: the worst-case (over all local
noises) critical visibility of a nonlocal state equals 2 / (1 + Y), where Y
is the state's maximal Bell violation for the regime in question. Upper
bounds on Y therefore give lower bounds on the tolerance, and lower bounds on
Y give upper bounds. Binomials are evaluated in exact integer arithmetic and
converted to floating point last.

The generic and GHZ upper bounds on Y are each the least of a few terms,
read from one table (``_MIN_TERMS``) by regime: s = inf, generalized, two
projective settings, s > 2 projective. The GHZ state is an N-qudit state, and
its row is the generic one with 2*min(d,s)-1 read as 2s-1 (infinite, so left
out, at s = inf), plus the term 1 + 2^(n-1)(d-1) in every regime.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import DomainError

PROJECTIVE = "projective"
GENERALIZED = "generalized"
MEAS_TYPES = (PROJECTIVE, GENERALIZED)

#: sentinel for the all-settings ("overall") regime
S_INF = math.inf

SQRT2 = math.sqrt(2.0)

GHZ_33_DISCREPANCY_NOTE = (
    "known discrepancy: the commonly quoted tolerable-noise bound 2/3 for the "
    "three-qutrit case (d=3, N=3, two settings, projective) exceeds the literal "
    "minimum 1/2 of this bound family, attained by the d^((n-1)/2) term; the "
    "computed value 1/2 is reported"
)

DICKE_LOWER_NOTE = (
    "the Dicke violation lower endpoint comes from an externally derived Bell "
    "inequality and carries no in-package numerical witness"
)


def _index(value, what: str) -> int:
    """value as a Python int: a numpy integer would wrap in the exact-integer
    terms. A float, a string or anything else without __index__ raises."""
    try:
        return operator.index(value)
    except TypeError:
        raise DomainError(f"{what} must be an integer, got {value!r}") from None


def _checked(d: int, n: int, s, mt: str) -> tuple[int, int, float, str]:
    """(d, n, s, mt) normalized, d, n and a finite s to Python ints, after
    checking d and n, then mt, then s."""
    d, n = _index(d, "qudit dimension"), _index(n, "party count")
    if d < 2:
        raise DomainError(f"qudit dimension must be >= 2, got {d}")
    if n < 2:
        raise DomainError(f"party count must be >= 2, got {n}")
    if mt not in MEAS_TYPES:
        raise DomainError(f"measurement type must be one of {MEAS_TYPES}, got {mt!r}")
    if s == S_INF or s is None:
        return d, n, S_INF, mt
    if isinstance(s, numbers.Real) and not isinstance(s, numbers.Integral) and float(s).is_integer():
        s = int(s)  # 2.0, np.float64(3.0)
    s = _index(s, "settings count")
    if s < 2:
        raise DomainError(f"settings count must be >= 2, got {s}")
    return d, n, s, mt


def tolerance_from_violation(upsilon: float) -> float:
    """Worst-case critical visibility 2 / (1 + Y); strictly decreasing in Y."""
    if not upsilon >= 1.0:
        raise DomainError(f"maximal violation must be >= 1, got {upsilon}")
    return 2.0 / (1.0 + upsilon)


def max_tolerable_noise(t: float) -> float:
    """Largest any-local-noise fraction preserving nonlocality: 1 - tolerance."""
    if not 0.0 < t <= 1.0:
        raise DomainError(f"tolerance must lie in (0, 1], got {t}")
    return 1.0 - t


@dataclass(frozen=True)
class BoundInterval:
    lower: float
    upper: float
    active_term: str = ""

    def __post_init__(self) -> None:
        if not 0.0 <= self.lower <= self.upper:
            raise DomainError(
                f"invalid interval [{self.lower}, {self.upper}]"
            )


@dataclass(frozen=True)
class ToleranceReport:
    """Bracketing interval for the maximal violation Y of one (family, d, n,
    s, meas) tuple, and the noise tolerance T and maximal tolerable noise M
    it implies: T = 2/(1+Y) endpoint-for-endpoint (upper Y gives lower T) and
    M = 1 - T endpoint-wise."""

    family: str
    d: int
    n: int
    s: float
    meas_type: str
    upsilon: BoundInterval
    k: int | None = None
    notes: tuple[str, ...] = field(default=())

    @property
    def tolerance(self) -> BoundInterval:
        ups = self.upsilon
        return BoundInterval(tolerance_from_violation(ups.upper),
                             tolerance_from_violation(ups.lower), ups.active_term)

    @property
    def max_noise(self) -> BoundInterval:
        tol = self.tolerance
        return BoundInterval(1.0 - tol.upper, 1.0 - tol.lower, tol.active_term)

    @property
    def regime(self) -> str:
        return "overall" if self.s == S_INF else "per-settings"

    def row(self) -> dict:
        """Flat mapping for CSV/JSON sweep tables."""
        tol, noise = self.tolerance, self.max_noise
        return {
            "family": self.family,
            "d": self.d,
            "n": self.n,
            "s": "inf" if self.s == S_INF else int(self.s),
            "k": "" if self.k is None else self.k,
            "meas_type": self.meas_type,
            "upsilon_lo": self.upsilon.lower,
            "upsilon_hi": self.upsilon.upper,
            "tol_lo": tol.lower,
            "tol_hi": tol.upper,
            "noise_lo": noise.lower,
            "noise_hi": noise.upper,
            "active_term": self.upsilon.active_term,
            "regime": self.regime,
            "notes": "; ".join(self.notes),
        }


def _fpow(base, exp: float) -> float:
    """float(base) ** exp, saturating to +inf instead of raising
    OverflowError; with exp = 1 the saturating float of an int or Fraction."""
    try:
        return float(base) ** exp
    except OverflowError:
        return math.inf


# --- generic N-qudit and GHZ states ------------------------------------------

#: each min-term label's value at (d, n, s), s an int wherever a label reads it
_TERMS = {
    "(2d-1)^(n-1)": lambda d, n, s: _fpow((2 * d - 1) ** (n - 1), 1),
    "(2*min(d,s)-1)^(n-1)": lambda d, n, s: _fpow((2 * min(d, s) - 1) ** (n - 1), 1),
    "(2s-1)^(n-1)": lambda d, n, s: _fpow((2 * s - 1) ** (n - 1), 1),
    "d^((n-1)/2)": lambda d, n, s: _fpow(d, (n - 1) / 2.0),
    "3^(n-1)": lambda d, n, s: _fpow(3.0, n - 1),
    "d^(s(n-1)/2)": lambda d, n, s: _fpow(d, s * (n - 1) / 2.0),
    "1+2^(n-1)(d-1)": lambda d, n, s: 1.0 + _fpow(2.0, n - 1) * (d - 1),
}

#: per (family, regime), the labels whose least term bounds Y from above
_MIN_TERMS = {
    ("generic", "overall"): ("(2d-1)^(n-1)",),
    ("generic", GENERALIZED): ("(2*min(d,s)-1)^(n-1)",),
    ("generic", "two projective"): ("d^((n-1)/2)", "3^(n-1)"),
    ("generic", PROJECTIVE): ("d^(s(n-1)/2)", "(2*min(d,s)-1)^(n-1)"),
    ("ghz", "overall"): ("1+2^(n-1)(d-1)",),
    ("ghz", GENERALIZED): ("(2s-1)^(n-1)", "1+2^(n-1)(d-1)"),
    ("ghz", "two projective"): ("d^((n-1)/2)", "3^(n-1)", "1+2^(n-1)(d-1)"),
    ("ghz", PROJECTIVE): ("d^(s(n-1)/2)", "(2s-1)^(n-1)", "1+2^(n-1)(d-1)"),
}


def _upsilon_upper(family: str, d: int, n: int, s: float, mt: str) -> tuple[float, str]:
    """(value, label) of the least of ``family``'s terms in the regime of the
    checked (s, mt), ties to the least label; only that regime's terms are
    computed."""
    regime = "overall" if s == S_INF else "two projective" if (mt, s) == (PROJECTIVE, 2) else mt
    return min([(_TERMS[label](d, n, s), label) for label in _MIN_TERMS[family, regime]])


def generic_upsilon_upper(d: int, n: int, s, mt: str) -> tuple[float, str]:
    """Upper bound on the maximal violation of an arbitrary N-qudit state under
    S-setting scenarios (S = inf selects the all-settings regime)."""
    return _upsilon_upper("generic", *_checked(d, n, s, mt))


def generic_noise_bounds(d: int, n: int, s, mt: str) -> ToleranceReport:
    """Tolerance and tolerable-noise bounds for an arbitrary nonlocal N-qudit
    state. Only an upper violation bound exists in this generality, so the
    violation interval starts at the trivial 1."""
    d, n, s, mt = _checked(d, n, s, mt)
    hi, term = _upsilon_upper("generic", d, n, s, mt)
    return ToleranceReport(family="generic", d=d, n=n, s=s, meas_type=mt,
                           upsilon=BoundInterval(1.0, hi, term))


def ghz_upsilon_upper(d: int, n: int, s, mt: str) -> tuple[float, str]:
    """Upper bound on the maximal violation of the N-qudit GHZ state; tighter
    than the generic family thanks to the extra 1 + 2^(n-1)(d-1) term."""
    return _upsilon_upper("ghz", *_checked(d, n, s, mt))


def ghz_noise_bounds(d: int, n: int, s, mt: str) -> ToleranceReport:
    """GHZ-specific tolerance/noise bounds. For qubits (d = 2) the interval is
    tightened by the exact two-setting projective violation, which lower-bounds
    the maximal violation in every regime with s >= 2."""
    d, n, s, mt = _checked(d, n, s, mt)
    hi, term = _upsilon_upper("ghz", d, n, s, mt)
    lo = 1.0
    notes: tuple[str, ...] = ()
    if d == 2:
        lo = min(_fpow(2.0, (n - 1) / 2.0), hi)
        notes = ("violation lower endpoint: exact two-setting projective value "
                 "2^((n-1)/2) of the n-qubit maximally correlated state",)
    if (d, n, s, mt) == (3, 3, 2, PROJECTIVE):
        notes = notes + (GHZ_33_DISCREPANCY_NOTE,)
    return ToleranceReport(family="ghz", d=d, n=n, s=s, meas_type=mt,
                           upsilon=BoundInterval(lo, hi, term), notes=notes)


def ghz_qubit_exact(n: int) -> ToleranceReport:
    """All-regime summary for the n-qubit GHZ state.

    Under two-setting projective scenarios the maximal violation is exactly
    2^((n-1)/2), so the overall violation lies in [2^((n-1)/2), 1 + 2^(n-1)],
    the overall tolerance in [1/(1+2^(n-2)), 2/(1+2^((n-1)/2))] and the
    maximal tolerable noise in the complementary interval. The tolerance
    upper endpoint equals the exact two-setting projective tolerance.
    """
    return ghz_noise_bounds(2, n, S_INF, GENERALIZED)


def ghz_qubit_asymptotic(n: int) -> float:
    """Large-n approximation 2^(-(n-3)/2) of the n-qubit GHZ tolerance
    threshold 2/(1+2^((n-1)/2))."""
    n = _index(n, "n")
    if n < 2:
        raise DomainError(f"n must be >= 2, got {n}")
    # as a mantissa and an int exponent, so that n past the float range gives
    # 0.0 where (n - 3) / 2.0 would raise OverflowError
    return math.ldexp(1.0 if (n - 3) % 2 == 0 else math.sqrt(0.5), -((n - 3) // 2))


# --- Dicke and W states -------------------------------------------------------


def _dicke_upsilon_lower(n: int, k: int) -> float:
    # exact rational 2^(n-1)/C(n,k) before the sqrt(2)-1 factor
    return 1.0 + _fpow(Fraction(2 ** (n - 1), math.comb(n, k)), 1) * (SQRT2 - 1.0)


def dicke_bounds(n: int, k: int) -> ToleranceReport:
    """Overall-regime tolerance bounds for the n-qubit Dicke state with k
    excitations. The tolerance upper endpoint is also the nonlocality
    threshold: above it, the mixture with any local noise stays nonlocal."""
    n, k = _index(n, "n"), _index(k, "k")
    if n < 2:
        raise DomainError(f"n must be >= 2, got {n}")
    if not 1 <= k <= n - 1:
        raise DomainError(f"k must be in 1..{n - 1}, got {k}")
    lo = _dicke_upsilon_lower(n, k)
    hi = _fpow(3.0, n - 1)
    return ToleranceReport(
        family="dicke" if k != 1 else "w", d=2, n=n, s=S_INF, meas_type=GENERALIZED,
        upsilon=BoundInterval(lo, hi, "3^(n-1)"), k=k, notes=(DICKE_LOWER_NOTE,),
    )


def w_bounds(n: int) -> ToleranceReport:
    """N-qubit W state bounds: the k = 1 Dicke case, whose tolerance upper
    endpoint simplifies to n / (n + 2^(n-2)(sqrt(2)-1))."""
    return dicke_bounds(n, 1)


@dataclass(frozen=True)
class DickeHalfAsymptotic:
    """Exact vs approximate nonlocality threshold for the half-excited Dicke
    state, plus the binomial against its Stirling form (the approximation's
    only ingredient)."""

    n: int
    exact_threshold: float
    approx_threshold: float
    binomial: int
    binomial_stirling: float

    @property
    def binomial_ratio(self) -> float:
        """binomial / (2^n sqrt(2 / (pi n))), with binomial / 2^n a correctly
        rounded quotient of integers, so it stays finite where the Stirling
        form saturates to inf."""
        return self.binomial / 2**self.n * math.sqrt(math.pi * self.n) / SQRT2


def dicke_half_asymptotic(n: int) -> DickeHalfAsymptotic:
    """Large-even-n threshold (4*sqrt(2)/(sqrt(2)-1)) / sqrt(pi n) for the
    n-qubit Dicke state with n/2 excitations, next to the exact value. The
    approximation can exceed 1 at moderate n; it is reported as-is."""
    n = _index(n, "n")
    if n < 2 or n % 2 != 0:
        raise DomainError(f"n must be even and >= 2, got {n}")
    k = n // 2
    exact = 1.0 / (1.0 + float(Fraction(2 ** (n - 2), math.comb(n, k))) * (SQRT2 - 1.0))
    approx = (4.0 * SQRT2 / (SQRT2 - 1.0)) / math.sqrt(math.pi * n)
    stirling = _fpow(2.0, n) * SQRT2 / math.sqrt(math.pi * n)
    return DickeHalfAsymptotic(
        n=n,
        exact_threshold=exact,
        approx_threshold=approx,
        binomial=math.comb(n, k),
        binomial_stirling=stirling,
    )


# --- sweeps -------------------------------------------------------------------


def family_report(family: str, d: int, n: int, s, mt: str, k: int | None = None) -> ToleranceReport:
    """Dispatch one (family, parameters) tuple to its bound family."""
    if family == "generic":
        return generic_noise_bounds(d, n, s, mt)
    if family == "ghz":
        return ghz_noise_bounds(d, n, s, mt)
    if family == "w":
        if d != 2:
            raise DomainError("the W family is defined for qubits (d = 2)")
        return w_bounds(n)
    if family == "dicke":
        if d != 2:
            raise DomainError("the Dicke family is defined for qubits (d = 2)")
        if k is None:
            raise DomainError("the Dicke family needs an excitation count k")
        return dicke_bounds(n, k)
    raise DomainError(f"unknown state family {family!r}")


def sweep_reports(
    family: str,
    d_values: list[int],
    n_values: list[int],
    s_values: list,
    meas_types: list[str],
    k: int | None = None,
) -> list[ToleranceReport]:
    """One report per (d, n, s, meas type, k) with a row, in that order. The
    all-settings regime s = inf has one row, meas type GENERALIZED, which
    covers both types, and it is the only regime of the W and Dicke
    families. A sweep that selects no row raises DomainError, and so does a
    k for any family but dicke (W is the Dicke k = 1 case)."""
    if k is not None and family != "dicke":
        raise DomainError(f"k is for the dicke family only, not {family}")
    overall_only = family in ("w", "dicke")
    regimes = [(s, mt) for s in s_values for mt in meas_types
               if (s, mt) != (S_INF, PROJECTIVE) and not (overall_only and s != S_INF)]
    reports = []
    for d in d_values:
        for n in n_values:
            # every k of n; below n = 2, k = 1 alone, which dicke_bounds refuses for its n
            k_values = list(range(1, max(n, 2))) if family == "dicke" and k is None else [k]
            for s, mt in regimes:
                for kk in k_values:
                    reports.append(family_report(family, d, n, s, mt, k=kk))
    if not reports:
        if regimes or not (s_values and meas_types):
            cause = "a parameter list is empty"
        elif overall_only:
            cause = f"the {family} family has one regime, s = inf with meas type {GENERALIZED!r}"
        else:
            cause = f"s = inf has one row, meas type {GENERALIZED!r}, which covers both types"
        raise DomainError(f"the sweep selects no row: {cause}")
    return reports
