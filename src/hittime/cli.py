"""Command-line front end.

Subcommands::

    certify    certified expected hitting time to the perfect squares
    solve      raw truncated solve (E_N(s), P_s) for any target
    pn         table of ever-hit probabilities p_n to 15 digits (--exact for fractions)
    roots      characteristic roots and their moduli
    simulate   Monte Carlo estimate of the hitting time

Each command returns its JSON payload and its text lines, and
:func:`main` prints the one ``--format`` asks for.

Exit codes: 0 success, 2 usage/config error (a
:class:`~hittime.walkmodel.ConfigError`, or a target or output path that
cannot be read or written), 3 insufficient precision (a
:class:`~hittime.numerics.PrecisionTooLowError`: a ``--precision``
below 30 digits), 4 internal failure (any other
``ValueError`` included).  All real numbers in JSON output are
decimal digit strings, never binary floats, so reports are
precision-lossless and diffable.  ``--precision`` sets the working
precision of ``solve`` and ``roots``; on ``certify`` it sets the digits
printed and the cap on the certified count, while the solve runs on the
grid its radius can use, a function of ``--K`` alone
(:func:`hittime.certify.solve_digits`).  No environment variable is
read.  Progress for long solves, in gaps between targets covered, goes
to stderr only.  An ``--out`` file is opened before any work, so a path
that cannot be written fails at once.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import os
import sys
import time
from decimal import ROUND_CEILING, ROUND_FLOOR, Decimal
from fractions import Fraction
from typing import Iterator, TextIO

from . import __version__, certify, hitprob, walkmodel
from .numerics import PrecisionTooLowError, digit_string, make_context, round_to_digits
from .walkmodel import ConfigError

__all__ = ["main"]

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PRECISION = 3
EXIT_NUMERIC = 4


def _parse_target(selector: str) -> walkmodel.TargetSet:
    if selector == "squares":
        return walkmodel.TargetSet.perfect_squares()
    path = selector[len("file:"):] if selector.startswith("file:") else selector
    if not os.path.exists(path):
        raise ConfigError(f"unknown target {selector!r} (not a builtin, not a file)")
    return walkmodel.TargetSet.from_file(path)


def _resolve_precision(args, default: int) -> int:
    return default if args.precision is None else args.precision


@contextlib.contextmanager
def _output(out_path: str | None) -> Iterator[TextIO]:
    """The ``--out`` file, opened before any work so a bad path fails at once."""
    if out_path is None or out_path == "-":
        yield sys.stdout
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            yield fh


def _progress_printer():
    """Stderr progress for a solve, which reports gaps between targets covered.

    The solve reports at targets only, with the whole gaps covered so far.
    Its cost per gap is roughly constant on the squares, while the states
    per gap grow, so the ETA extrapolates the rate in gaps, taken since
    the previous line.  The first line has no ETA: its rate counts every
    gap covered since the start, the cheap short ones too.
    """
    last = [time.monotonic(), None]  # time and count of the previous line

    def progress(done: int, total: int) -> None:
        now = time.monotonic()
        if now - last[0] < 2.0:
            return
        first = last[1] is None
        rate = (done - (last[1] or 0)) / (now - last[0])
        last[:] = now, done
        eta = f", ETA {(total - done) / rate:,.0f} s" if rate > 0 and not first else ""
        print(f"covered {done}/{total} gaps ({rate:,.1f}/s{eta})", file=sys.stderr)

    return progress


def cmd_certify(args) -> tuple[dict, list[str]]:
    k = args.K
    if k is None:
        raise ConfigError("certify needs --K")
    if args.precision is not None:
        make_context(args.precision)  # refuse below 30 digits before the solve
    t0 = time.monotonic()
    est = certify.certify_squares(k, start=args.s, progress=_progress_printer())
    runtime = time.monotonic() - t0
    # the default follows K, which certify_squares has checked
    digits = _resolve_precision(args, default=certify.recommended_digits(k))
    report = certification_report(est, digits, runtime)
    lines = [
        f"K = {k}   N = {report['N']}   start = {report['start']}   precision = {digits} digits",
        f"E_N({report['start']})      = {report['E_N_0']}",
        f"P_s(A_N)    = {report['P0_AN']}",
        f"L_N         = {digit_string(est.bounds.lower, 40, ROUND_FLOOR)}",
        f"U_N         = {digit_string(est.bounds.upper, 40, ROUND_CEILING)}",
        f"point_value = {report['point_value']}",
        f"error_radius = {digit_string(Decimal(report['error_radius']), 40, ROUND_CEILING)}",
        f"certified_digits = {report['certified_digits']}",
        f"runtime_seconds = {runtime:.2f}",
    ]
    return report, lines


def certification_report(est: certify.CertifiedEstimate, digits: int,
                         runtime: float) -> dict:
    """JSON-ready certification report at ``digits`` significant digits.

    This is where the exact certified values become decimals, each rounded
    once, outward: lower ends (point, E_N, P, L_N) down and upper ends
    (U_N, radius) up.  The radius is measured from the printed point, so
    the printed ``[point, point + radius]`` contains the proven interval.
    An ``exact`` estimate keeps radius 0.  The certified count reported
    is the estimate's, capped at the decimal places the printed point
    shows, ``digits - 1 - point.adjusted()``, so it carries every counted
    place.
    """
    sol, bounds, w = est.solution, est.bounds, digits
    point = round_to_digits(est.point_value, w, ROUND_FLOOR)
    radius = (Fraction(0) if est.exact
              else est.point_value + est.error_radius - Fraction(point))
    return {
        "schema": SCHEMA_VERSION,
        "K": bounds.K,
        "N": sol.cutoff,
        "start": sol.start,
        "precision_digits": w,
        "E_N_0": digit_string(sol.e_lo, w, ROUND_FLOOR),
        "P0_AN": digit_string(sol.p_lo, w, ROUND_FLOOR),
        "L_N": digit_string(bounds.lower, w, ROUND_FLOOR),
        "U_N": digit_string(bounds.upper, w, ROUND_CEILING),
        "point_value": str(point),
        "error_radius": digit_string(radius, w, ROUND_CEILING),
        "certified_digits": min(est.certified_digits, w - 1 - point.adjusted()),
        "exact": est.exact,
        "runtime_seconds": f"{runtime:.3f}",
    }


def cmd_solve(args) -> tuple[dict, list[str]]:
    n = args.N
    if n is None:
        raise ConfigError("solve needs --N")
    if n < 0:
        raise ConfigError("--N must be nonnegative")
    target = _parse_target(args.target)
    die = walkmodel.DieModel(args.die)
    k = math.isqrt(n)
    precision = _resolve_precision(
        args, default=certify.recommended_digits(k) if k * k == n else 60)
    ctx = make_context(precision)
    if args.s < 0:
        raise ConfigError("--s must be nonnegative")
    t0 = time.monotonic()
    sol = walkmodel.solve_pair(target, die, n, args.s, ctx, progress=_progress_printer())
    runtime = time.monotonic() - t0
    uncertified = not (args.target == "squares" and args.die == 6)
    w = ctx.working_digits
    payload = {
        "schema": SCHEMA_VERSION,
        "N": n,
        "start": sol.start,
        "die_sides": die.sides,
        "target": args.target,
        "precision_digits": w,
        "E_N": digit_string(sol.e_n_value, w),
        "P_overshoot": digit_string(sol.overshoot_prob, w),
        "uncertified": uncertified,
        "runtime_seconds": f"{runtime:.3f}",
    }
    lines = ["UNCERTIFIED (raw truncated solve; no error bounds attached)"] if uncertified else []
    lines += [
        f"N = {n}   start = {sol.start}   die = {die.sides}   precision = {w}",
        f"E_N({sol.start}) = {payload['E_N']}",
        f"P_{sol.start}(A_N) = {payload['P_overshoot']}",
    ]
    # a P below the grid 2^-c has lower end 0; its upper end then tells a
    # positive P from none
    if sol.p_lo == 0 < sol.p_hi:
        upper = payload["P_overshoot_upper"] = digit_string(sol.p_hi, w, ROUND_CEILING)
        lines.append(f"P_{sol.start}(A_N) < {upper}   (below the working grid;"
                     " a higher --precision gives its digits)")
    return payload, lines


def cmd_pn(args) -> tuple[dict, list[str]]:
    if args.max < 1:
        raise ConfigError("--max must be >= 1")
    rows = []
    den = 1
    for q in itertools.islice(hitprob.pn_numerators(), 1, args.max + 1):
        den *= 6  # p_n = q / 6^n, in lowest terms
        # p_n lies in [1/6, 1) and its denominator has a factor 3, so its
        # 15 significant digits are 15 decimal places, never cut short
        rows.append(f"{q}/{den}" if args.exact else digit_string(Fraction(q, den), 15))
    payload = {"schema": SCHEMA_VERSION,
               "rows": [{"n": n, "p_n": p} for n, p in enumerate(rows, start=1)]}
    return payload, ["n,p_n"] + [f"{n},{p}" for n, p in enumerate(rows, start=1)]


def cmd_roots(args) -> tuple[dict, list[str]]:
    precision = _resolve_precision(args, default=50)
    ctx = make_context(precision)
    roots = hitprob.compute_roots(ctx)
    w = ctx.working_digits

    def cpx(z: hitprob.DecimalComplex) -> dict:
        return {"re": digit_string(z.re, w), "im": digit_string(z.im, w)}

    payload = {
        "schema": SCHEMA_VERSION,
        "precision_digits": w,
        "root_unit": digit_string(roots.root_unit, w),
        "u": digit_string(roots.u, w),
        "v_plus": cpx(roots.v_plus),
        "v_minus": cpx(roots.v_minus),
        "w_plus": cpx(roots.w_plus),
        "w_minus": cpx(roots.w_minus),
        "modulus_u": digit_string(roots.modulus_u, w),
        "modulus_v": digit_string(roots.modulus_v, w),
        "modulus_w": digit_string(roots.modulus_w, w),
    }
    lines = [f"characteristic roots at {w} digits"]
    for key, val in itertools.islice(payload.items(), 2, None):  # past schema and digits
        if isinstance(val, dict):
            sign, mag = ("-", val["im"][1:]) if val["im"].startswith("-") else ("+", val["im"])
            lines.append(f"{key:10s} = {val['re']} {sign} {mag} i")
        else:
            lines.append(f"{key:10s} = {val}")
    return payload, lines


def cmd_simulate(args) -> tuple[dict, list[str]]:
    from . import oracle  # numpy, which no other command needs

    target = _parse_target(args.target)
    die = walkmodel.DieModel(args.die)
    cfg = oracle.McConfig(trials=args.trials, seed=args.seed, die=die,
                          target=target, start=args.s, max_steps=args.max_steps)
    t0 = time.monotonic()
    res = oracle.simulate_hitting(cfg)
    runtime = time.monotonic() - t0
    payload = {
        "schema": SCHEMA_VERSION,
        "target": args.target,
        "start": args.s,
        "die_sides": die.sides,
        "trials": args.trials,
        "seed": args.seed,
        "mean": f"{res.mean!r}",
        "std_error": f"{res.std_error!r}",
        "trials_completed": res.trials_completed,
        "capped_trials": res.capped_trials,
        "flagged": res.flagged,
        "runtime_seconds": f"{runtime:.3f}",
    }
    lines = [
        f"mean = {res.mean!r}  (std_error = {res.std_error:.3g}, "
        f"{res.trials_completed} completed, {res.capped_trials} capped)",
    ]
    if res.flagged:
        lines.append("FLAGGED: capped trials present; mean is not a valid E[T] estimate")
    return payload, lines


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hittime",
        description="Certified expected hitting times for dice-sum processes.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_precision(p, default):
        p.add_argument("--precision", type=int, default=None,
                       help=f"working decimal digits, at least 30 (default: {default})")

    def add_common(p, formats=("json", "text"), default_format="json"):
        p.add_argument("--format", choices=formats, default=default_format)
        p.add_argument("--out", default=None, help="output path (default stdout)")

    p = sub.add_parser("certify", help="certified estimate for the perfect squares")
    p.add_argument("--K", type=int, default=None, help="cutoff root; N = K^2")
    p.add_argument("--s", type=int, default=0, help="start state (default 0)")
    add_precision(p, "ceil(0.15 K) + 60")
    add_common(p)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("solve", help="raw truncated solve (uncertified)")
    p.add_argument("--target", required=True, help="'squares' or a target file path")
    p.add_argument("--N", type=int, default=None, help="cutoff state")
    p.add_argument("--s", type=int, default=0)
    p.add_argument("--die", type=int, default=6)
    add_precision(p, "ceil(0.15 sqrt(N)) + 60 for a square N, else 60")
    add_common(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("pn", help="ever-hit probability table")
    p.add_argument("--max", type=int, required=True, help="largest n")
    p.add_argument("--exact", action="store_true", help="emit exact fractions")
    add_common(p, formats=("csv", "json"), default_format="csv")
    p.set_defaults(func=cmd_pn)

    p = sub.add_parser("roots", help="characteristic roots and moduli")
    add_precision(p, 50)
    add_common(p)
    p.set_defaults(func=cmd_roots)

    p = sub.add_parser("simulate", help="Monte Carlo hitting-time estimate")
    p.add_argument("--target", default="squares")
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--s", type=int, default=0)
    p.add_argument("--die", type=int, default=6)
    p.add_argument("--max-steps", type=int, default=10**6)
    add_common(p)
    p.set_defaults(func=cmd_simulate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with _output(args.out) as out:
            payload, lines = args.func(args)
            text = json.dumps(payload, indent=2) if args.format == "json" else "\n".join(lines)
            out.write(text + "\n")
    except PrecisionTooLowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECISION
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (hitprob.RootRefinementError, ArithmeticError, ValueError) as exc:
        # any ValueError but a ConfigError is internal, certify's
        # DivergentSeriesError and InvertedIntervalError among them;
        # ArithmeticError holds oracle's AllTrialsCappedError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
