"""End-to-end command-line behavior: formats, exit codes, self-consistency."""

import contextlib
import dataclasses
import decimal
import io
import itertools
import json
import os
import random
import subprocess
import sys
import tracemalloc
from decimal import ROUND_CEILING, Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import agreed_digits, pn_reference, rational_to_decimal
from test_acceptance import REFERENCE_E0
from hittime import certify, cli, hitprob, oracle, walkmodel
from hittime.cli import main
from hittime.numerics import digit_string, make_context, round_to_digits
from hittime.oracle import exact_dp
from hittime.walkmodel import TargetSet


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_certify_json_report(capsys):
    code, out, _ = run_cli(capsys, "certify", "--K", "500", "--precision", "200")
    assert code == 0
    report = json.loads(out)
    assert report["schema"] == 1
    assert report["K"] == 500
    assert report["N"] == 250000
    assert report["precision_digits"] == 200
    assert report["certified_digits"] >= 21
    assert report["point_value"].startswith("7.079764237551105103895")
    # every real is a decimal digit string, parseable losslessly
    for key in ("E_N_0", "P0_AN", "L_N", "U_N", "point_value", "error_radius"):
        Decimal(report[key])
    # self-consistency: interval reconstructed from the report is valid
    point = Decimal(report["point_value"])
    radius = Decimal(report["error_radius"])
    assert radius > 0
    e_n = Decimal(report["E_N_0"])
    p0 = Decimal(report["P0_AN"])
    low = Decimal(report["L_N"])
    high = Decimal(report["U_N"])
    assert low < high
    # point = E_N + L*P and radius = (U-L)*P plus the solve's proven widths
    # (e_hi - e_lo) + U*(p_hi - p_lo), allowing reporting round-off; the
    # radius is measured from the printed point, which is rounded down by
    # up to one unit in its last printed digit
    w = report["precision_digits"]
    est = certify.certify_squares(500)
    sol = est.solution
    widths = (sol.e_hi - sol.e_lo) + est.bounds.upper * (sol.p_hi - sol.p_lo)
    with decimal.localcontext(decimal.Context(prec=250)):
        assert abs(point - (e_n + low * p0)) <= Decimal("1e-180")
        expected = (high - low) * p0 + Decimal(widths.numerator) / widths.denominator
        assert abs(radius - expected) \
            <= Decimal(10) ** (1 - w) + abs(radius) * Decimal("1e-150")


def test_certify_report_contains_proven_interval():
    # every printed end is rounded outward from the exact interval:
    # point down, point + radius up, so the print contains the proof
    for k in (500, 501, 502, 503):
        est = certify.certify_squares(k)
        report = cli.certification_report(est, 200, 0.0)
        point = Fraction(Decimal(report["point_value"]))
        radius = Fraction(Decimal(report["error_radius"]))
        assert point <= est.point_value
        assert point + radius >= est.point_value + est.error_radius
        assert Fraction(Decimal(report["E_N_0"])) <= est.solution.e_lo
        assert Fraction(Decimal(report["P0_AN"])) <= est.solution.p_lo
        assert Fraction(Decimal(report["L_N"])) <= est.bounds.lower
        assert Fraction(Decimal(report["U_N"])) >= est.bounds.upper
        assert report["certified_digits"] == est.certified_digits


def test_certify_report_caps_certified_digits():
    # the report counts at most its printed digits less GUARD_DIGITS; an
    # exact estimate, from a start on a square, certifies more places
    est = certify.certify_squares(4, start=4)
    assert est.exact and est.certified_digits > 46
    digits = certify.recommended_digits(4)  # 61, certify's default at K = 4
    assert cli.certification_report(est, digits, 0.0)["certified_digits"] == 46


def test_certify_text_report(capsys):
    # the text report prints the JSON report's numbers, with L_N, U_N and
    # the radius rounded outward again to 40 digits
    _, out, _ = run_cli(capsys, "certify", "--K", "10")
    report = json.loads(out)
    code, out, _ = run_cli(capsys, "certify", "--K", "10", "--format", "text")
    assert code == 0
    fields = {key.strip(): value
              for key, value in (line.split(" = ", 1) for line in out.splitlines()[1:])}
    assert fields["point_value"] == report["point_value"]
    assert fields["E_N(0)"] == report["E_N_0"]
    assert fields["P_s(A_N)"] == report["P0_AN"]
    assert Decimal(fields["L_N"]) <= Decimal(report["L_N"])
    assert Decimal(fields["U_N"]) >= Decimal(report["U_N"])
    assert Decimal(fields["error_radius"]) >= Decimal(report["error_radius"])
    assert int(fields["certified_digits"]) == report["certified_digits"]


def test_certify_rejects_small_k(capsys):
    code, _, err = run_cli(capsys, "certify", "--K", "3")
    assert code == 2
    assert "K" in err
    # K is checked before its default precision, ceil(0.15 K) + 60, is
    # formed: at K = -1000 that would be -90 digits, a precision error
    code, _, err = run_cli(capsys, "certify", "--K", "-1000")
    assert code == 2
    assert "K must be >= 4" in err
    code, out, err = run_cli(capsys, "certify")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "--K" in err and err.count("\n") == 1


def test_certify_rejects_bad_precision(capsys):
    # only the supported minimum of 30 digits refuses
    code, _, err = run_cli(capsys, "certify", "--K", "500", "--precision", "20")
    assert code == 3
    assert "30" in err
    # below recommended_digits(500) = 135, certify prints fewer digits and
    # counts at most 40 - GUARD_DIGITS of them
    code, out, _ = run_cli(capsys, "certify", "--K", "500", "--precision", "40")
    assert code == 0
    report = json.loads(out)
    assert report["precision_digits"] == 40
    assert report["certified_digits"] == 25
    assert report["point_value"][:27] == REFERENCE_E0[:27]


def test_inverted_interval_is_internal_failure(capsys, monkeypatch):
    real = certify.overshoot_bounds

    def swapped(k):
        b = real(k)
        return dataclasses.replace(b, lower=b.upper * 10**9, upper=b.lower)

    monkeypatch.setattr(certify, "overshoot_bounds", swapped)
    code, out, err = run_cli(capsys, "certify", "--K", "10")
    assert code == 4
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_internal_value_error_exits_4(capsys, monkeypatch):
    # a ValueError that is no ConfigError is an internal failure, not a
    # usage error
    def solve_pair(*args, **kwargs):
        raise ValueError("internal slip")

    monkeypatch.setattr(walkmodel, "solve_pair", solve_pair)
    code, out, err = run_cli(capsys, "certify", "--K", "10")
    assert code == 4
    assert out == ""
    assert err == "error: internal slip\n"


@pytest.mark.parametrize("argv", [
    ["solve", "--target", "squares", "--N", "16", "--die", "1"],
    ["simulate", "--trials", "10", "--die", "1"],
    ["simulate", "--trials", "0"],
    ["simulate", "--trials", "10", "--max-steps", "0"],
    ["simulate", "--trials", "10", "--s", "-1"],
    ["simulate", "--trials", "10", "--seed", "-1"],
    ["simulate", "--trials", "10", "--max-steps", str(2**62)],
    ["certify", "--K", "50", "--s", "2501"],
], ids=["solve-die", "simulate-die", "trials", "max-steps", "start", "seed", "int64",
        "certify-start"])
def test_input_errors_exit_2(capsys, argv):
    # DieModel's, McConfig's and certify_squares' checks on outside input
    # raise ConfigError, so they stay usage errors
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["certify", "--N", "100"],
    ["certify", "--K", "10", "--target", "squares"],
    ["certify", "--K", "10", "--die", "6"],
    ["simulate", "--precision", "40"],
    ["solve", "--target", "squares", "--N", "256", "--K", "16"],
    ["pn", "--max", "5", "--precision", "40"],
], ids=["certify-N", "certify-target", "certify-die", "simulate-precision", "solve-K",
        "pn-precision"])
def test_removed_options_are_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_readme_cli_lines_parse():
    # every command the README's CLI block shows is accepted by the parser
    # (parsed only, never run)
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    commands = [line.split("#", 1)[0].split() for line in block.splitlines()
                if line.startswith("hittime ")]
    assert len(commands) >= 8
    parser = cli.build_parser()
    for words in commands:
        parser.parse_args(words[1:])


def test_solve_matches_exact_oracle(capsys):
    code, out, _ = run_cli(capsys, "solve", "--target", "squares", "--N", "256",
                           "--s", "0", "--precision", "50")
    assert code == 0
    payload = json.loads(out)
    assert payload["uncertified"] is False
    ctx = make_context(50)
    e_ref, p_ref = exact_dp(TargetSet.perfect_squares(), 256, 0)
    assert agreed_digits(Decimal(payload["E_N"]),
                         rational_to_decimal(e_ref, ctx), 50) >= 45
    assert agreed_digits(Decimal(payload["P_overshoot"]),
                         rational_to_decimal(p_ref, ctx), 50) >= 45


def test_solve_absorbing_file_target(capsys, tmp_path):
    p = tmp_path / "myset.txt"
    p.write_text("50\n100\n")
    code, out, _ = run_cli(capsys, "solve", "--target", f"file:{p}", "--N", "100",
                           "--s", "100", "--precision", "40")
    assert code == 0
    payload = json.loads(out)
    assert Decimal(payload["E_N"]) == 0
    assert Decimal(payload["P_overshoot"]) == 0
    assert payload["uncertified"] is True


def test_solve_text_label(capsys, tmp_path):
    p = tmp_path / "t.txt"
    p.write_text("5\n")
    code, out, _ = run_cli(capsys, "solve", "--target", str(p), "--N", "5",
                           "--s", "0", "--precision", "40", "--format", "text")
    assert code == 0
    assert "UNCERTIFIED" in out


def test_solve_prints_tiny_overshoot_with_its_upper_end(capsys, tmp_path):
    # one target in each run of 20 states drives P to about 3.4e-220,
    # below the grid 2^-c of the default 60 digits: solve prints P's lower
    # end, 0, and beside it the positive upper end, and a precision whose
    # grid reaches P prints its leading digits and no upper end
    rng = random.Random(20)
    members = [20 * i + rng.randrange(1, 21) for i in range(1500)]
    path = tmp_path / "sparse.txt"
    path.write_text("".join(f"{h}\n" for h in members))
    argv = ("solve", "--target", f"file:{path}", "--N", "30000")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    payload = json.loads(out)
    assert payload["precision_digits"] == 60
    assert payload["E_N"] == "15.9710789023938953098942094778838171381152531827031169576720"
    assert payload["P_overshoot"] == "0"
    sol = walkmodel.solve_pair(TargetSet.from_list(members), walkmodel.DieModel(6), 30000, 0,
                               make_context(60))
    assert sol.p_lo == 0 < sol.p_hi
    upper = payload["P_overshoot_upper"]
    assert upper == digit_string(sol.p_hi, 60, ROUND_CEILING)
    assert Decimal("3.4E-220") < Decimal(upper)
    code, out, _ = run_cli(capsys, *argv, "--format", "text")
    assert code == 0
    assert f"P_0(A_N) = 0\nP_0(A_N) < {upper}   (below the working grid;" in out
    code, out, _ = run_cli(capsys, *argv, "--precision", "250")
    assert code == 0
    payload = json.loads(out)
    assert "P_overshoot_upper" not in payload
    assert round_to_digits(Decimal(payload["P_overshoot"]), 60) == Decimal(
        "3.41794290731095512408072174708377861003626237180634192919488E-220")


def test_solve_missing_target_file(capsys):
    code, _, err = run_cli(capsys, "solve", "--target", "file:/no/such/file",
                           "--N", "10")
    assert code == 2
    assert "target" in err


def test_unusable_paths_are_usage_errors(capsys, tmp_path):
    # an output file in a missing directory; a directory given as the
    # target; a target file that is not text
    binary = tmp_path / "binary.txt"
    binary.write_bytes(b"\xff\xfe3\n")
    for argv in (["--target", "squares", "--out", str(tmp_path / "missing" / "x.json")],
                 ["--target", str(tmp_path)], ["--target", str(binary)]):
        code, out, err = run_cli(capsys, "solve", "--N", "16", *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


def test_unwritable_out_fails_before_solving(capsys, monkeypatch, tmp_path):
    def solve_pair(*args, **kwargs):
        raise AssertionError("solved before opening --out")

    monkeypatch.setattr(walkmodel, "solve_pair", solve_pair)
    code, out, err = run_cli(capsys, "certify", "--K", "50",
                             "--out", str(tmp_path / "missing" / "x.json"))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_pn_exact_listing(capsys):
    code, out, _ = run_cli(capsys, "pn", "--max", "8", "--exact")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,p_n"
    assert lines[1:] == ["1,1/6", "2,7/36", "3,49/216", "4,343/1296",
                         "5,2401/7776", "6,16807/46656", "7,70993/279936",
                         "8,450295/1679616"]


def test_pn_exact_listing_past_64(capsys):
    # rows are not capped at n = 64: every row up to 70 is the exact p_n
    code, out, _ = run_cli(capsys, "pn", "--max", "70", "--exact")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 71
    for n, line in enumerate(lines[1:], start=1):
        p = pn_reference(n)
        assert line == f"{n},{p.numerator}/{p.denominator}"


def test_pn_figure_table(capsys):
    # rows n = 1 .. 100 of p_n to 15 significant digits, the same in CSV
    # and JSON, settling near 2/7
    code, out, _ = run_cli(capsys, "pn", "--max", "100")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 101
    assert lines[0] == "n,p_n"
    rows = [line.split(",") for line in lines[1:]]
    assert [int(n) for n, _ in rows] == list(range(1, 101))
    assert digit_string(Decimal(rows[0][1]), 10) == "0.1666666667"
    assert all(len(p.replace("0.", "", 1)) <= 15 for _, p in rows)
    assert abs(Fraction(rows[-1][1]) - Fraction(2, 7)) < Fraction(1, 10**10)
    code, out, _ = run_cli(capsys, "pn", "--max", "100", "--format", "json")
    assert code == 0
    assert json.loads(out)["rows"] == [{"n": int(n), "p_n": p} for n, p in rows]


def test_pn_zero_rows_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "pn", "--max", "0")
    assert code == 2


def test_roots_output(capsys):
    code, out, _ = run_cli(capsys, "roots")
    assert code == 0
    payload = json.loads(out)
    assert digit_string(Decimal(payload["modulus_w"]), 10) == "0.7302499667"
    assert digit_string(Decimal(payload["modulus_u"]), 10) == "0.6703320476"
    assert digit_string(Decimal(payload["modulus_v"]), 10) == "0.6828225223"


# `hittime roots --precision 60 --format json`, all 13 digit strings: a
# change to the seeds or the Newton iteration must leave every digit in place.
ROOTS_60 = {
    "schema": 1,
    "precision_digits": 60,
    "root_unit": "1",
    "u": "-0.670332047603096827743186427118089883457556818497339432262921",
    "v_plus": {
        "re": "-0.375695199225259924691710623749239479642381682264224768074617",
        "im": "0.570175161011412263754748824948192987755334168587814915812429",
    },
    "v_minus": {
        "re": "-0.375695199225259924691710623749239479642381682264224768074617",
        "im": "-0.570175161011412263754748824948192987755334168587814915812429",
    },
    "w_plus": {
        "re": "0.294194556360141671896637170641617754704493424846227817539411",
        "im": "0.668367097443301064782919206076663991653900676984483675436802",
    },
    "w_minus": {
        "re": "0.294194556360141671896637170641617754704493424846227817539411",
        "im": "-0.668367097443301064782919206076663991653900676984483675436802",
    },
    "modulus_u": "0.670332047603096827743186427118089883457556818497339432262921",
    "modulus_v": "0.682822522296458558434907497826633231264120991375852695540360",
    "modulus_w": "0.730249966748868585923911353809306217889785837198487026536365",
}


def test_roots_payload_pinned(capsys):
    code, out, _ = run_cli(capsys, "roots", "--precision", "60", "--format", "json")
    assert code == 0
    assert out == json.dumps(ROOTS_60, indent=2) + "\n"


# `hittime certify --K 500 --precision 200 --format json`, its values but
# `error_radius`.  The solve runs on the grid of certify.solve_digits(500),
# 74 digits, so the digits of E_N_0, P0_AN and point_value past what the
# enclosure supports (116, 47 and 68 significant digits) are that grid's
# rounding residue: a change to the solve's grid moves them, while a
# change to its lower ends or to L_N and U_N must leave every digit in
# place.
CERTIFY_500_200 = {
    "E_N_0": (
        "7.07976423755110510389555305690818489468171144426320880590887310"
        "1517292927553395149931679503118284241222152625135033019637168053"
        "9818970832623996629239576489909741050864988099703218626340997012"
        "462360285"
    ),
    "P0_AN": (
        "1.02536401332114330176158135290038287030427589785993463459175186"
        "4924890935364676831080145462797625871226779648667756793289902166"
        "9322171499768975762859300628058072161785011795092862383485420526"
        "923764837E-73"
    ),
    "L_N": (
        "585.999999999999999999999999999999999999999999999999999999999999"
        "9999999999999999999999999999999999999999999999999999999999999999"
        "9999999987133542624760335090975547863899899980999134835308940429"
        "403282041"
    ),
    "U_N": (
        "3520.00000000000000000000000000000000000000000000000000000000000"
        "0000000000000000000000000000000000000000000000000000000000000000"
        "0000000007725713138960972227528905965683059820437740006665310957"
        "289618036"
    ),
    "point_value": (
        "7.07976423755110510389555305690818489468171144426320880590887310"
        "1517292987639726330550676986346951521184588824965600634229337641"
        "0585563678610084752940199502874982250273748638596092745646477880"
        "345030107"
    ),
    "certified_digits": 68,
}

# `hittime solve --target squares --N 10000 --format json` but its
# `runtime_seconds`.
SOLVE_10000 = {
    "schema": 1,
    "N": 10000,
    "start": 0,
    "die_sides": 6,
    "target": "squares",
    "precision_digits": 75,
    "E_N": (
        "7.07976423755051005616949668953651815134283497351584058848475334"
        "537293333280"
    ),
    "P_overshoot": (
        "2.89795970481997096590946431261765031788226472889057798963380790"
        "498590628694E-15"
    ),
    "uncertified": False,
}


def test_certify_payload_pinned(capsys):
    code, out, _ = run_cli(capsys, "certify", "--K", "500", "--precision", "200",
                           "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert {key: report[key] for key in CERTIFY_500_200} == CERTIFY_500_200
    code, out, _ = run_cli(capsys, "solve", "--target", "squares", "--N", "10000",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    del payload["runtime_seconds"]
    assert payload == SOLVE_10000


TEXT_OUTPUTS = [
    (("certify", "--K", "10", "--format", "text"),
     "K = 10   N = 100   start = 0   precision = 62 digits\n"
     "E_N(0)      = 6.0391239141805396771824605092070798425346946851268273007267145\n"
     "P_s(A_N)    = 0.041073550143038930565983497942045809582967066156972200171099731\n"
     "L_N         = 14.10775581398433307589204826462408658986\n"
     "U_N         = 91.41615066221100588756408006249710591938\n"
     "point_value = 6.6185795300119741853101213718568244582578016912238807768274944\n"
     "error_radius = 3.175330232276490779926983194577352231358\n"
     "certified_digits = 0\n"),
    (("solve", "--target", "{sparse}", "--N", "30", "--precision", "30", "--format", "text"),
     "UNCERTIFIED (raw truncated solve; no error bounds attached)\n"
     "N = 30   start = 0   die = 6   precision = 30\n"
     "E_N(0) = 5.38931742281014501732610681489\n"
     "P_0(A_N) = 0.413056025929862980366638856315\n"),
    (("solve", "--target", "{short}", "--N", "4000", "--precision", "30", "--format", "text"),
     "UNCERTIFIED (raw truncated solve; no error bounds attached)\n"
     "N = 4000   start = 0   die = 6   precision = 30\n"
     "E_N(0) = 2.00000000000000000000000000000\n"
     "P_0(A_N) = 0\n"
     "P_0(A_N) < 9.88578139942156017670749487011E-80   (below the working grid;"
     " a higher --precision gives its digits)\n"),
    (("pn", "--max", "3"),
     "n,p_n\n1,0.166666666666667\n2,0.194444444444444\n3,0.226851851851852\n"),
    (("pn", "--max", "3", "--exact"),
     "n,p_n\n1,1/6\n2,7/36\n3,49/216\n"),
    (("roots", "--precision", "30", "--format", "text"),
     "characteristic roots at 30 digits\n"
     "root_unit  = 1\n"
     "u          = -0.670332047603096827743186427118\n"
     "v_plus     = -0.375695199225259924691710623749 + 0.570175161011412263754748824948 i\n"
     "v_minus    = -0.375695199225259924691710623749 - 0.570175161011412263754748824948 i\n"
     "w_plus     = 0.294194556360141671896637170642 + 0.668367097443301064782919206077 i\n"
     "w_minus    = 0.294194556360141671896637170642 - 0.668367097443301064782919206077 i\n"
     "modulus_u  = 0.670332047603096827743186427118\n"
     "modulus_v  = 0.682822522296458558434907497827\n"
     "modulus_w  = 0.730249966748868585923911353809\n"),
    (("simulate", "--trials", "1000", "--seed", "1", "--format", "text"),
     "mean = 6.457  (std_error = 0.321, 1000 completed, 0 capped)\n"),
    (("simulate", "--target", "{bounded}", "--trials", "1000", "--seed", "1", "--format", "text"),
     "mean = 2.9356521739130437  (std_error = 0.0849, 575 completed, 425 capped)\n"
     "FLAGGED: capped trials present; mean is not a valid E[T] estimate\n"),
]


def test_text_formats_pinned(capsys, tmp_path):
    # every text and CSV format byte for byte, but certify's runtime line:
    # a file target without and with P's upper end (the odd states to 1499,
    # where the row is zero at 30 digits, then 3000 .. 3004), and simulate
    # plain and flagged on a bounded file
    files = {"sparse": "3\n7\n20\n",
             "short": "".join(f"{h}\n" for h in [*range(1, 1500, 2), *range(3000, 3005)]),
             "bounded": "# bound 40\n3\n7\n20\n"}
    for name, text in files.items():
        (tmp_path / f"{name}.txt").write_text(text)
        files[name] = f"file:{tmp_path / name}.txt"
    for argv, expected in TEXT_OUTPUTS:
        code, out, _ = run_cli(capsys, *(a.format(**files) for a in argv))
        assert code == 0
        kept = "".join(line for line in out.splitlines(True)
                       if not line.startswith("runtime_seconds = "))
        assert kept == expected, argv


def test_roots_nonconvergence_exits_4(capsys, monkeypatch):
    # one Newton step from a double-precision seed cannot reach 60 digits
    monkeypatch.setattr(hitprob, "_NEWTON_MAX_ITER", 1)
    code, out, err = run_cli(capsys, "roots", "--precision", "60")
    assert code == 4
    assert out == ""
    assert "did not converge" in err


def test_roots_printed_residuals(capsys):
    # evaluating the polynomial at the printed (rounded) roots must leave a
    # residual below 10^-(digits-15)
    code, out, _ = run_cli(capsys, "roots", "--precision", "50")
    assert code == 0
    payload = json.loads(out)
    digits = payload["precision_digits"]
    tol = Fraction(1, 10 ** (digits - 15))
    for key in ("v_plus", "v_minus", "w_plus", "w_minus"):
        re = Fraction(Decimal(payload[key]["re"]))
        im = Fraction(Decimal(payload[key]["im"]))
        # Horner for 6z^6 - z^5 - z^4 - z^3 - z^2 - z - 1 in exact rationals
        acc = (Fraction(6), Fraction(0))
        for coeff in (-1, -1, -1, -1, -1, -1):
            acc = (acc[0] * re - acc[1] * im + coeff, acc[0] * im + acc[1] * re)
        assert acc[0] ** 2 + acc[1] ** 2 < (6 * tol) ** 2
    for key in ("root_unit", "u"):
        x = Fraction(Decimal(payload[key]))
        val = Fraction(6)
        for coeff in (-1, -1, -1, -1, -1, -1):
            val = val * x + coeff
        assert abs(val) < 6 * tol


def test_import_leaves_numpy_unloaded():
    # only simulate needs numpy; the package and the CLI load it on first use
    src = str(Path(cli.__file__).resolve().parents[1])
    code = ("import hittime, hittime.cli, sys; assert 'numpy' not in sys.modules; "
            "hittime.simulate_hitting; assert 'numpy' in sys.modules")
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_simulate_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "simulate", "--target", "squares",
                             "--trials", "20000", "--seed", "42")
    code2, out2, _ = run_cli(capsys, "simulate", "--target", "squares",
                             "--trials", "20000", "--seed", "42")
    assert code1 == code2 == 0
    r1 = json.loads(out1)
    r2 = json.loads(out2)
    r1.pop("runtime_seconds")
    r2.pop("runtime_seconds")
    assert r1 == r2
    assert abs(float(r1["mean"]) - 7.08) < 0.2


def test_simulate_empty_target_file(capsys, tmp_path):
    p = tmp_path / "empty.txt"
    p.write_text("")
    code, _, err = run_cli(capsys, "simulate", "--target", f"file:{p}")
    assert code == 2
    assert "empty" in err


def test_simulate_huge_horizon_is_usage_error(capsys, tmp_path):
    # a finite target's membership table is sized by the highest state a
    # walk can reach; past the cap the run exits 2 before allocating it
    p = tmp_path / "huge.txt"
    p.write_text("1000000000000\n")
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "simulate", "--target", f"file:{p}",
                                 "--trials", "10", "--max-steps", str(10**12))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(oracle._TABLE_MAX) in err
    assert peak < 10**6


@pytest.mark.parametrize("seed", [-1, 2**128])
def test_simulate_seed_out_of_range_is_usage_error(capsys, seed):
    # Philox keys are 128-bit; McConfig names the range before numpy sees it
    code, out, err = run_cli(capsys, "simulate", "--trials", "10", "--seed", str(seed))
    assert code == 2
    assert out == ""
    assert err == f"error: seed must lie in [0, 2^128), got {seed}\n"


class _RecordingEnviron(dict):
    """``os.environ`` stand-in that records every variable looked up."""

    def __init__(self, *args):
        super().__init__(*args)
        self.reads = []

    def __getitem__(self, key):
        self.reads.append(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.reads.append(key)
        return super().get(key, default)

    def __contains__(self, key):
        self.reads.append(key)
        return super().__contains__(key)


def test_precision_ignores_environment(capsys, monkeypatch):
    # the precision comes from --precision or the default alone: solve
    # looks up no environment variable of its own (argparse's gettext may
    # read the locale ones), and N = 16 = 4^2 gets recommended_digits(4)
    environ = _RecordingEnviron(os.environ)
    monkeypatch.setattr(os, "environ", environ)
    code, out, _ = run_cli(capsys, "solve", "--target", "squares", "--N", "16")
    assert code == 0
    assert json.loads(out)["precision_digits"] == 61 == certify.recommended_digits(4)
    assert not [key for key in environ.reads if key.startswith("HITTIME")]


def test_solve_requires_n(capsys):
    code, out, err = run_cli(capsys, "solve", "--target", "squares")
    assert code == 2
    assert out == ""
    assert err == "error: solve needs --N\n"


def test_output_file(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "pn", "--max", "3", "--out", str(out_path))
    assert code == 0
    assert out == ""
    assert out_path.read_text().startswith("n,p_n")


def test_progress_printer_reports_rate_and_eta(capsys, monkeypatch):
    ticks = itertools.count(100.0, 10.0)
    monkeypatch.setattr(cli.time, "monotonic", lambda: next(ticks))
    code, _, err = run_cli(capsys, "certify", "--K", "40")
    assert code == 0
    assert err == ""  # short solves stay quiet, however slow the clock says they are
    clock = [100.0]
    monkeypatch.setattr(cli.time, "monotonic", lambda: clock[0])
    progress = cli._progress_printer()
    clock[0] = 101.0
    progress(1000, 5001)  # under 2 s since the last line: nothing
    clock[0] = 110.0
    progress(1000, 5001)  # 1,000 of 5,001 gaps in 10 s
    clock[0] = 111.0
    progress(1000, 5001)  # under 2 s since the last line: nothing
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "covered 1000/5001 gaps (100.0/s)\n"  # the first line has no ETA
    # the rate is taken since the previous line, and a count includes the
    # covered share of the current gap
    clock[0] = 113.0
    progress(1000, 5001)
    clock[0] = 117.0
    progress(1000.4, 5001)
    assert capsys.readouterr().err == ("covered 1000/5001 gaps (0.0/s)\n"
                                       "covered 1000.4/5001 gaps (0.1/s, ETA 40,006 s)\n")
    # no gap done yet: a rate of 0 and no ETA, with no division by zero
    progress = cli._progress_printer()
    clock[0] = 120.0
    progress(0, 5001)
    assert capsys.readouterr().err == "covered 0/5001 gaps (0.0/s)\n"


@st.composite
def cli_argv(draw, targets, outs):
    """Argv the parser accepts for one subcommand: small sizes, precision 10 to 80."""
    command = draw(st.sampled_from(["certify", "solve", "pn", "roots", "simulate"]))
    argv = [command]

    def option(flag, values):
        value = draw(st.none() | values)
        if value is not None:
            argv.extend([flag, str(value)])

    if command in ("certify", "solve", "roots"):
        option("--precision", st.integers(10, 80))
    option("--out", st.sampled_from(outs))
    formats = ["csv", "json"] if command == "pn" else ["json", "text"]
    option("--format", st.sampled_from(formats))
    if command in ("certify", "solve") and draw(st.sampled_from([True, True, False])):
        root = draw(st.integers(-1, 40))
        if command == "certify":
            argv.extend(["--K", str(root)])
        else:
            argv.extend(["--N", str(draw(st.sampled_from([root * root, root - 1])))])
    if command in ("certify", "solve", "simulate"):
        option("--s", st.integers(-1, 60))
    if command in ("solve", "simulate"):
        option("--die", st.sampled_from([6, 6, 6, 0, 1, 9]))
        if command == "solve":
            argv.extend(["--target", draw(st.sampled_from(targets))])
        else:
            option("--target", st.sampled_from(targets))
    if command == "pn":
        argv.extend(["--max", str(draw(st.integers(-1, 200)))])
        if draw(st.booleans()):
            argv.append("--exact")
    if command == "simulate":
        argv.extend(["--trials", str(draw(st.integers(-1, 200)))])
        option("--seed", st.integers(-1, 2**70))
        option("--max-steps", st.integers(-1, 30))
    return argv


@settings(deadline=None)
@given(data=st.data())
def test_fuzzed_argv_exits_with_documented_code(tmp_path_factory, data):
    # every run exits 0, 2, 3 or 4, and a failing run says why on one
    # stderr line
    base = tmp_path_factory.getbasetemp()
    complete, bounded, origin = base / "complete.txt", base / "bounded.txt", base / "origin.txt"
    complete.write_text("3\n7\n20\n")
    bounded.write_text("# bound 100\n5\n50\n")
    origin.write_text("0\n")  # no walk from s > 0 can hit it: simulate exits 4
    targets = ["squares", "squares", str(complete), f"file:{bounded}", str(origin),
               str(base / "missing.txt")]
    outs = ["-", str(base / "out.txt"), str(base / "out.txt"), str(base / "missing" / "out.txt")]
    argv = data.draw(cli_argv(targets, outs), label="argv")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3, 4)
    errors = [line for line in err.getvalue().splitlines() if line.startswith("error:")]
    assert len(errors) == (1 if code else 0)
    if code:
        assert err.getvalue() == errors[0] + "\n"
