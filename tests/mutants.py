"""Mutation check: each seeded slip must fail the tests named for it.

Run from anywhere, with the test dependencies installed::

    python tests/mutants.py            # every entry
    python tests/mutants.py NAME ...   # the entries with these names

For each entry the script copies ``src/`` and ``tests/`` to a temporary
directory and makes the entry's edits there: each replaces a fragment,
which must occur exactly once in its file, by the mutant.  An entry may
edit several files, say the kernel and the reference in
``tests/conftest.py`` that repeats its rule.  It then runs the entry's
tests in the copy, with ``HYPOTHESIS_PROFILE=ci`` and ``PYTHONPATH``
pointed at the copy's ``src/``, and requires every one of them to fail.
It exits 1 if a fragment is missing or occurs more than once, or if a
named test passes or is skipped on its mutant (the mutant survives it).
pytest does not collect this file.

Add an entry when a change brings in a rule that a one-line slip could
break while the rest of the code stays plausible (an index, an order, a
read-back), naming a few fast tests that catch the slip: tests without
hypothesis fail at once, where a property test first shrinks its example.  A mutant that
no test kills needs a new test first.  Name no test that reads a file
outside ``src/`` and ``tests/``, such as ``README.md``: it fails in the
copy whatever the mutant.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Edit(NamedTuple):
    path: str  # from the repository root, under src/ or tests/
    fragment: str  # occurs exactly once in the file
    replacement: str


class Mutant(NamedTuple):
    name: str
    edits: tuple[Edit, ...]
    tests: tuple[str, ...]  # pytest node ids, from the repository root


def one(path: str, fragment: str, replacement: str) -> tuple[Edit, ...]:
    return (Edit(path, fragment, replacement),)


KERNEL = "src/hittime/walkmodel.py"
REFERENCE = "tests/conftest.py"
WALK = "tests/test_walkmodel.py::"
CLI = "tests/test_cli.py::"
ORACLE = "tests/test_oracle.py::"
HITPROB = "tests/test_hitprob.py::"
SCALE = WALK + "test_jumps_equal_full_product_reference_at_scale[d6-K500]"

MUTANTS = (
    # the kernel keeps r as its values; a stepped run works on its
    # differences and reads the values back
    Mutant("no-read-back", one(KERNEL,
           "rev = list(itertools.accumulate(row))", "pass"),
           (WALK + "test_matches_exact_oracle_all_states",
            WALK + "test_general_die_sizes",
            SCALE)),
    Mutant("differences-reversed", one(KERNEL,
           "deque(map(operator.sub, rev, [0, *rev]), maxlen=m)",
           "deque([*map(operator.sub, rev, [0, *rev])][::-1], maxlen=m)"),
           (WALK + "test_matches_exact_oracle_all_states",
            WALK + "test_general_die_sizes",
            SCALE)),
    Mutant("zero-row-on-last-entry", one(KERNEL,
           "if not rev[-1]:", "if not rev[0]:"),
           (WALK + "test_matches_exact_oracle_all_states",
            WALK + "test_vanished_row_keeps_the_support_rule[no-block]",
            SCALE)),
    Mutant("target-shifts-right", one(KERNEL,
           "rev = [0, *rev[:-1]]", "rev = [*rev[1:], 0]"),
           (WALK + "test_hand_derived_small_values",
            WALK + "test_absorbing_state",
            WALK + "test_general_die_sizes")),
    # progress comes at targets, at most once per PROGRESS_INTERVAL states
    Mutant("progress-unthrottled", one(KERNEL,
           "report_at = t + PROGRESS_INTERVAL", "report_at = t"),
           (WALK + "test_progress_reports_ascending_states",)),
    # rules of the kernel that tests/conftest.forward_reference repeats;
    # a slip in the kernel alone breaks the bit-exact references
    Mutant("e-term-without-rho", one(KERNEL,
           " - (m - 1) * rho) // (m + 1)", ") // (m + 1)"),
           (SCALE, WALK + "test_fixed_power_jumps_a_shorter_run", CLI + "test_certify_payload_pinned")),
    Mutant("kappa-halved", one(KERNEL,
           "rate = 2 * m + (m * m >> CUT_GUARD)", "rate = m + (m * m >> CUT_GUARD)"),
           (SCALE, WALK + "test_vanished_row_keeps_the_support_rule[block]",
            CLI + "test_certify_payload_pinned")),
    Mutant("width-e-without-states", one(KERNEL,
           "width_e = (n + 1 - s_min) * (4 * width_p + 1)", "width_e = 4 * width_p + 1"),
           (SCALE, WALK + "test_vanished_row_keeps_the_support_rule[block]",
            WALK + "test_kernel_meets_stepped_twin_at_certify_scale")),
    Mutant("cut-deeper", one(KERNEL,
           "(total + rho).bit_length() - CUT_GUARD)", "(total + rho).bit_length() + CUT_GUARD)"),
           (SCALE, WALK + "test_fixed_power_jumps_a_shorter_run", CLI + "test_certify_payload_pinned")),
    # the same rules slipped in the kernel and its reference alike, which
    # then agree bit for bit: the enclosure tests and the pins must catch
    # them.  kappa halved is still a sound rate wherever every jump crosses
    # at least M + 1 states, as with JUMP_MIN = 128, so no enclosure fails
    # and only the pins kill it
    Mutant("kappa-halved-in-both", (
           Edit(KERNEL, "rate = 2 * m + (m * m >> CUT_GUARD)", "rate = m + (m * m >> CUT_GUARD)"),
           Edit(REFERENCE, "rate = 2 * m + m * m // (1 << CUT_GUARD)",
                "rate = m + m * m // (1 << CUT_GUARD)")),
           (CLI + "test_certify_payload_pinned", CLI + "test_text_formats_pinned")),
    Mutant("cut-deeper-in-both", (
           Edit(KERNEL, "(total + rho).bit_length() - CUT_GUARD)",
                "(total + rho).bit_length() + CUT_GUARD)"),
           Edit(REFERENCE, "(sum(lo) + rho).bit_length() - CUT_GUARD)",
                "(sum(lo) + rho).bit_length() + CUT_GUARD)")),
           (WALK + "test_kernel_encloses_exact_values[jumping]",
            WALK + "test_a_priori_widths_cover_the_ceiling_twin", CLI + "test_certify_payload_pinned")),
    Mutant("width-e-without-states-in-both", (
           Edit(KERNEL, "width_e = (n + 1 - s_min) * (4 * width_p + 1)", "width_e = 4 * width_p + 1"),
           Edit(REFERENCE, "e_hi = e_lo + (n + 1 - s_min) * (4 * width_p + 1)",
                "e_hi = e_lo + 4 * width_p + 1")),
           (WALK + "test_kernel_meets_stepped_twin_at_certify_scale",
            WALK + "test_fixed_power_jumps_a_shorter_run",
            WALK + "test_kernel_encloses_exact_values[jumping]")),
    # the kernel's own shortcuts
    Mutant("p-zero-rule-short-block", one(KERNEL,
           "m - 1 in map(operator.sub", "m - 2 in map(operator.sub"),
           ("tests/test_certify.py::test_degenerate_composition_has_zero_radius",
            WALK + "test_vanished_row_keeps_the_support_rule[block]")),
    Mutant("flat-window-i-base", one(KERNEL,
           "new = [(i + 1) * base >> keep", "new = [i * base >> keep"),
           (WALK + "test_kernel_meets_stepped_twin_at_certify_scale",
            WALK + "test_fixed_power_jumps_a_shorter_run", CLI + "test_certify_payload_pinned")),
    Mutant("fixed-two-ends", one(KERNEL,
           "return power.count(power[0]) == len(power)", "return power[0] == power[-1]"),
           (WALK + "test_fixed_point_needs_every_kept_value", SCALE,
            WALK + "test_fixed_power_jumps_a_shorter_run")),
    Mutant("block-split-sign", one(KERNEL,
           "pu1 + v1 - c1", "pu1 + v1 + c1"),
           (WALK + "test_jump_products_on_every_basis_pair[6]", SCALE,
            WALK + "test_kernel_meets_stepped_twin_at_certify_scale")),
    # the overshoot bound, the report and the CLI
    Mutant("epsilon-window-without-first", one("src/hittime/hitprob.py",
           "for j, q in enumerate(window, start=n))", "for j, q in enumerate(window, start=n) if j > n)"),
           (HITPROB + "test_epsilon_first_value", HITPROB + "test_epsilon_never_understates",
            HITPROB + "test_epsilon_envelope_two_sided")),
    Mutant("k-unchecked", one("src/hittime/certify.py",
           "if k < MIN_K:", "if k < 0:"),
           ("tests/test_certify.py::test_overshoot_bounds_validation",
            CLI + "test_certify_rejects_small_k")),
    Mutant("report-uncapped", one("src/hittime/cli.py",
           "min(est.certified_digits, w - 1 - point.adjusted())", "est.certified_digits"),
           (CLI + "test_certify_report_caps_certified_digits",
            CLI + "test_certify_rejects_bad_precision")),
    Mutant("oracle-imported-by-cli", one("src/hittime/cli.py",
           "from . import __version__, certify, hitprob, walkmodel",
           "from . import __version__, certify, hitprob, oracle, walkmodel"),
           (CLI + "test_import_leaves_numpy_unloaded",)),
    # the Monte Carlo oracle
    Mutant("first-hit-off-by-one", one("src/hittime/oracle.py",
           "return hit, (x & -x) * 0x0001020304050607 >> 56",
           "return hit, ((x & -x) * 0x0001020304050607 >> 56) + 1"),
           (ORACLE + "test_simulation_matches_exact_mean_across_dice[6]",
            CLI + "test_simulate_deterministic")),
    Mutant("pool-width-untrimmed", one("src/hittime/oracle.py",
           "width = min(_SLICE, cfg.max_steps - int(rolls.max()))", "width = _SLICE"),
           (ORACLE + "test_simulation_at_the_int64_edge",)),
)


def check(mutant: Mutant) -> str | None:
    """Run one entry; return why it fails, or None when every test kills it."""
    with tempfile.TemporaryDirectory() as tmp:
        for tree in ("src", "tests"):
            shutil.copytree(ROOT / tree, Path(tmp) / tree,
                            ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        for edit in mutant.edits:
            path = Path(tmp) / edit.path
            text = path.read_text()
            count = text.count(edit.fragment)
            if count != 1:
                return f"its fragment occurs {count} times in {edit.path}"
            path.write_text(text.replace(edit.fragment, edit.replacement))
        env = {**os.environ, "HYPOTHESIS_PROFILE": "ci", "PYTHONPATH": str(Path(tmp) / "src")}
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rA", "-p", "no:cacheprovider",
             *mutant.tests],
            cwd=tmp, env=env, capture_output=True, text=True)
    if run.returncode not in (0, 1):
        return f"pytest exited {run.returncode}:\n{run.stdout}{run.stderr}"
    failed = set(re.findall(r"^FAILED (\S+)", run.stdout, re.MULTILINE))
    survived = [t for t in mutant.tests if t not in failed]
    if survived:
        return "it survives " + ", ".join(survived)
    return None


def main(names: list[str]) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    failed = 0
    for mutant in chosen:
        start = time.perf_counter()
        why = check(mutant)
        took = time.perf_counter() - start
        print(f"{mutant.name}: {'killed' if why is None else 'FAILED, ' + why} ({took:.1f} s)")
        failed += why is not None
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
