"""belltol: noise tolerances of nonlocal multi-qudit states.

Exact LHV constants over every deterministic strategy, summed site by site,
quantum behaviors and seesaw violation search, LP critical visibilities over
the local polytope, and closed-form tolerance/noise bound families for
generic, GHZ, W and Dicke states.
"""

from .bounds import (
    BoundInterval,
    DickeHalfAsymptotic,
    S_INF,
    ToleranceReport,
    dicke_bounds,
    dicke_half_asymptotic,
    generic_noise_bounds,
    generic_upsilon_upper,
    ghz_noise_bounds,
    ghz_qubit_asymptotic,
    ghz_qubit_exact,
    ghz_upsilon_upper,
    max_tolerable_noise,
    tolerance_from_violation,
    w_bounds,
)
from .errors import (
    BelltolError,
    DegenerateFunctionalError,
    DomainError,
    ResourceCapError,
    SolverError,
    UnsupportedFunctionalError,
    ValidationError,
)
from .linalg import eig_hermitian
from .polytope import (
    LinearProgram,
    LocalityResult,
    SimplexResult,
    VisibilityResult,
    critical_visibility,
    is_local,
    separating_functional,
    simplex_max,
)
from .qvalue import (
    Measurement,
    MeasurementAssignment,
    SeesawResult,
    UpsilonLowerBound,
    behavior,
    evaluate,
    seesaw,
    upsilon_lower_bound,
)
from .scenario import (
    Behavior,
    BellFunctional,
    LhvBounds,
    Scenario,
    chsh,
    extend_with_passive_parties,
    lhv_bounds,
    mermin,
    product_expectation_functional,
    strategy_count,
    uniform_behavior,
)
from .states import (
    DensityMatrix,
    NoiseSpec,
    dicke,
    ghz,
    mix,
    product_zero,
    w_state,
    white_noise,
)

__version__ = "0.1.0"
