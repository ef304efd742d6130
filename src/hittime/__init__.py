"""Certified arbitrary-precision expected hitting times for dice-sum walks.

A cumulative sum of fair die rolls is run until it enters a target set of
nonnegative integers.  This package computes the expected number of rolls
by a constant-memory truncated recursion, solved forward with one jump
across each long gap between targets, and, for the perfect-square
target, wraps the result in a rigorously bounded two-sided error
interval so that a stated number of leading decimal digits is provably
correct.
"""

__version__ = "0.1.0"

from .certify import (
    CertifiedEstimate,
    OvershootBounds,
    certified_digit_count,
    certify_squares,
    overshoot_bounds,
    sigma_series,
)
from .hitprob import (
    CharacteristicRoots,
    compute_roots,
    epsilon,
    pn_exact,
)
from .numerics import (
    PrecisionContext,
    PrecisionTooLowError,
    digit_string,
    make_context,
)
from .oracle import (
    McConfig,
    McResult,
    dp_tables,
    exact_dp,
    simulate_hitting,
)
from .walkmodel import (
    DieModel,
    TargetSet,
    TruncationSolution,
    solve_pair,
)

__all__ = [
    "__version__",
    "PrecisionContext",
    "PrecisionTooLowError",
    "make_context",
    "digit_string",
    "DieModel",
    "TargetSet",
    "TruncationSolution",
    "solve_pair",
    "pn_exact",
    "compute_roots",
    "epsilon",
    "CharacteristicRoots",
    "sigma_series",
    "overshoot_bounds",
    "certify_squares",
    "certified_digit_count",
    "OvershootBounds",
    "CertifiedEstimate",
    "dp_tables",
    "exact_dp",
    "simulate_hitting",
    "McConfig",
    "McResult",
]
