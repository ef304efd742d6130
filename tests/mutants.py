"""Mutation check: each seeded slip in ``src/`` must fail the tests named for it.

Run from anywhere, with the test dependencies installed::

    python tests/mutants.py            # every entry
    python tests/mutants.py NAME ...   # the entries with these names

For each entry the script copies ``src/`` to a temporary directory and
replaces the entry's source fragment, which must occur exactly once in its
module, by the mutant.  It then runs the entry's tests with
``HYPOTHESIS_PROFILE=ci`` and ``PYTHONPATH`` pointed at the copy, and
requires every one of them to fail.  It exits 1 if a fragment is missing
or occurs more than once, or if a named test passes or is skipped on its
mutant (the mutant survives it).  pytest does not collect this file.

Add an entry when a change brings in a rule that a one-line slip could
break while the rest of the code stays plausible (an index, an order, a
read-back), naming a few fast tests that catch the slip: tests without
hypothesis fail at once, where a property test first shrinks its example.  A mutant that
no test kills needs a new test first.
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


class Mutant(NamedTuple):
    name: str
    module: str  # path under src/
    fragment: str  # occurs exactly once in the module
    replacement: str
    tests: tuple[str, ...]  # pytest node ids, from the repository root


WALK = "tests/test_walkmodel.py::"
CLI = "tests/test_cli.py::"
ORACLE = "tests/test_oracle.py::"
HITPROB = "tests/test_hitprob.py::"
SCALE = WALK + "test_jumps_equal_full_product_reference_at_scale[d6-K500]"

MUTANTS = (
    # the kernel keeps r as its values; a stepped run works on its
    # differences and reads the values back
    Mutant("no-read-back", "hittime/walkmodel.py",
           "rev = list(itertools.accumulate(row))", "pass",
           (WALK + "test_matches_exact_oracle_all_states",
            WALK + "test_general_die_sizes",
            SCALE)),
    Mutant("differences-reversed", "hittime/walkmodel.py",
           "deque(map(operator.sub, rev, [0, *rev]), maxlen=m)",
           "deque([*map(operator.sub, rev, [0, *rev])][::-1], maxlen=m)",
           (WALK + "test_matches_exact_oracle_all_states",
            WALK + "test_general_die_sizes",
            SCALE)),
    Mutant("zero-row-on-last-entry", "hittime/walkmodel.py",
           "if not rev[-1]:", "if not rev[0]:",
           (WALK + "test_matches_exact_oracle_all_states",
            WALK + "test_vanished_row_keeps_the_support_rule[no-block]",
            SCALE)),
    Mutant("target-shifts-right", "hittime/walkmodel.py",
           "rev = [0, *rev[:-1]]", "rev = [*rev[1:], 0]",
           (WALK + "test_hand_derived_small_values",
            WALK + "test_absorbing_state",
            WALK + "test_general_die_sizes")),
    # rules of the kernel that tests/conftest.forward_reference repeats;
    # a slip in the kernel alone breaks the bit-exact references
    Mutant("e-term-without-rho", "hittime/walkmodel.py",
           " - (m - 1) * rho) // (m + 1)", ") // (m + 1)",
           (SCALE, WALK + "test_fixed_power_jumps_a_shorter_run", CLI + "test_certify_payload_pinned")),
    Mutant("kappa-halved", "hittime/walkmodel.py",
           "rate = 2 * m + (m * m >> CUT_GUARD)", "rate = m + (m * m >> CUT_GUARD)",
           (SCALE, WALK + "test_vanished_row_keeps_the_support_rule[block]",
            CLI + "test_certify_payload_pinned")),
    Mutant("width-e-without-states", "hittime/walkmodel.py",
           "width_e = (n + 1 - s_min) * (4 * width_p + 1)", "width_e = 4 * width_p + 1",
           (SCALE, WALK + "test_vanished_row_keeps_the_support_rule[block]",
            WALK + "test_kernel_meets_stepped_twin_at_certify_scale")),
    Mutant("cut-deeper", "hittime/walkmodel.py",
           "(total + rho).bit_length() - CUT_GUARD)", "(total + rho).bit_length() + CUT_GUARD)",
           (SCALE, WALK + "test_fixed_power_jumps_a_shorter_run", CLI + "test_certify_payload_pinned")),
    # the kernel's own shortcuts
    Mutant("p-zero-rule-short-block", "hittime/walkmodel.py",
           "m - 1 in map(operator.sub", "m - 2 in map(operator.sub",
           ("tests/test_certify.py::test_degenerate_composition_has_zero_radius",
            WALK + "test_vanished_row_keeps_the_support_rule[block]")),
    Mutant("flat-window-i-base", "hittime/walkmodel.py",
           "new = [(i + 1) * base >> keep", "new = [i * base >> keep",
           (WALK + "test_kernel_meets_stepped_twin_at_certify_scale",
            WALK + "test_fixed_power_jumps_a_shorter_run", CLI + "test_certify_payload_pinned")),
    Mutant("fixed-two-ends", "hittime/walkmodel.py",
           "return power.count(power[0]) == len(power)", "return power[0] == power[-1]",
           (WALK + "test_fixed_point_needs_every_kept_value", SCALE,
            WALK + "test_fixed_power_jumps_a_shorter_run")),
    Mutant("block-split-sign", "hittime/walkmodel.py",
           "pu1 + v1 - c1", "pu1 + v1 + c1",
           (WALK + "test_jump_products_on_every_basis_pair[6]", SCALE,
            WALK + "test_kernel_meets_stepped_twin_at_certify_scale")),
    # the overshoot bound, the report and the CLI
    Mutant("epsilon-window-without-first", "hittime/hitprob.py",
           "for j, q in enumerate(window, start=n))", "for j, q in enumerate(window, start=n) if j > n)",
           (HITPROB + "test_epsilon_first_value", HITPROB + "test_epsilon_never_understates",
            HITPROB + "test_epsilon_envelope_two_sided")),
    Mutant("k-unchecked", "hittime/certify.py",
           "if k < MIN_K:", "if k < 0:",
           ("tests/test_certify.py::test_overshoot_bounds_validation",
            CLI + "test_certify_rejects_small_k")),
    Mutant("report-uncapped", "hittime/cli.py",
           "min(est.certified_digits, w - GUARD_DIGITS)", "est.certified_digits",
           (CLI + "test_certify_report_caps_certified_digits",
            CLI + "test_certify_rejects_bad_precision")),
    Mutant("oracle-imported-by-cli", "hittime/cli.py",
           "from . import __version__, certify, hitprob, walkmodel",
           "from . import __version__, certify, hitprob, oracle, walkmodel",
           (CLI + "test_import_leaves_numpy_unloaded",)),
    # the Monte Carlo oracle
    Mutant("first-hit-off-by-one", "hittime/oracle.py",
           "return hit, (x & -x) * 0x0001020304050607 >> 56",
           "return hit, ((x & -x) * 0x0001020304050607 >> 56) + 1",
           (ORACLE + "test_simulation_matches_exact_mean_across_dice[6]",
            CLI + "test_simulate_deterministic")),
    Mutant("pool-width-untrimmed", "hittime/oracle.py",
           "width = min(_SLICE, cfg.max_steps - int(rolls.max()))", "width = _SLICE",
           (ORACLE + "test_simulation_at_the_int64_edge",)),
)


def check(mutant: Mutant) -> str | None:
    """Run one entry; return why it fails, or None when every test kills it."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src,
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        path = src / mutant.module
        text = path.read_text()
        count = text.count(mutant.fragment)
        if count != 1:
            return f"its fragment occurs {count} times in {mutant.module}"
        path.write_text(text.replace(mutant.fragment, mutant.replacement))
        env = {**os.environ, "HYPOTHESIS_PROFILE": "ci", "PYTHONPATH": str(src)}
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rA", "-p", "no:cacheprovider",
             *mutant.tests],
            cwd=ROOT, env=env, capture_output=True, text=True)
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
