"""Orbit recurrence statistics for Markov shifts and expanding interval maps.

The library simulates typical orbits, computes the longest self-match length
and the closest distance between iterates, and checks their growth laws
against exact entropy/dimension oracles computed from transfer matrices.
"""

__version__ = "0.1.0"

from .diagnostics import BoundCheck, quasi_bernoulli_constant, sigma_bounds_check
from .estimators import (
    CollisionEntropyEstimate,
    CorrelationCurve,
    SlopeFit,
    correlation_integral,
    d2_estimate,
    default_r_grid,
    exponent_fit,
    h2_collision_estimate,
)
from .intervalmaps import (
    FirstReturnSample,
    GaussMap,
    IntervalMap,
    KDoubling,
    MPInduced,
    OrbitBuffer,
    PiecewiseAffine,
    doubling_orbit_exact,
    gauss_inverse_cdf,
    iterate,
    mp_first_return,
)
from .matcher import (
    MatchResult,
    ReturnSetEstimate,
    longest_self_match,
    longest_self_match_bruteforce,
    match_curve,
    return_set_measure,
)
from .proximity import (
    ProximityResult,
    alpha_of,
    closest_pair,
    closest_pair_bruteforce,
    proximity_curve,
    short_return_measure,
)
from .symbolic import (
    BernoulliMeasure,
    GibbsMeasure,
    MarkovMeasure,
    SystemDiagnostics,
    TransitionSystem,
    full_shift,
    sample_sequence,
    stationary_distribution,
    validate_system,
)
from .thermo import (
    EntropyResult,
    PressureResult,
    gurevich_pressure,
    psi_mixing_table,
    renyi_entropy_exact,
    z_decay_check,
    z_partition_sum,
)
