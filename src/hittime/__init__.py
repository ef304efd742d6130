"""Certified arbitrary-precision expected hitting times for dice-sum walks.

A cumulative sum of fair die rolls is run until it enters a target set of
nonnegative integers.  This package computes the expected number of rolls
by a constant-memory truncated recursion, solved forward with one jump
across each long gap between targets, and, for the perfect-square
target, wraps the result in a rigorously bounded two-sided error
interval so that a stated number of leading decimal digits is provably
correct.

The names re-exported from :mod:`hittime.oracle` load it, and numpy with
it, on first use, so importing the package does not import numpy.
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

_ORACLE_NAMES = frozenset({"dp_tables", "exact_dp", "simulate_hitting", "McConfig", "McResult"})


def __getattr__(name: str):
    if name in _ORACLE_NAMES:
        from . import oracle
        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
