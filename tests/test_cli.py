import json
import os
import signal
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import cfrealize
from cfrealize import cli, coefficient, read_series
from cfrealize.cli import _emit, _write_replicates, build_parser, main
from cfrealize.errors import CFError
from cfrealize.fps import MAX_CELLS, MAX_WORDS, word_count
from conftest import assert_no_child, count_forks

DRIFT_MODEL = "n = 1\nm = 1\nx0 = 0\ng0 = 1\ng1 = 0\nh = x1\n"
SCALAR_BILINEAR = (
    "type = bilinear\nn = 1\nm = 1\nx0 = 1\nA0 = 3/2\nA1 = -2\nC = 1\n"
)
QUADRATIC_MODEL = "n = 1\nm = 1\nx0 = 1/2\ng0 = x1\ng1 = 1\nh = x1^2\n"
COMMANDS = "coeffs rank lierank realize simulate compare ito-check hijab-check demo-zakai".split()


def refuse_constant(name):
    raise AssertionError(f"report holds {name}, which strict JSON cannot")


def loads(text: str):
    """A JSON report, refusing the NaN and Infinity that strict JSON lacks."""
    return json.loads(text, parse_constant=refuse_constant)


def write(path: Path, text: str) -> str:
    path.write_text(text)
    return str(path)


def read_bytes_map(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


class TestCoeffs:
    def test_pure_drift_single_record(self, tmp_path, capsys):
        model = write(tmp_path / "model.txt", DRIFT_MODEL)
        out = tmp_path / "out"
        assert main(["coeffs", "--model", model, "--deg", "3", "--out", str(out)]) == 0
        summary = loads((out / "summary.json").read_text())
        assert summary["nonzero_total"] == 1
        s = read_series(out / "series.txt")
        assert s.coeffs == {(0,): 1}

    def test_scalar_bilinear_counts_letters(self, tmp_path):
        from fractions import Fraction

        model = write(tmp_path / "model.txt", SCALAR_BILINEAR)
        out = tmp_path / "out"
        assert main(["coeffs", "--model", model, "--deg", "4", "--out", str(out)]) == 0
        s = read_series(out / "series.txt")
        a, b = Fraction(3, 2), Fraction(-2)
        from cfrealize import words_up_to

        for w in words_up_to(1, 4):
            zeros = sum(1 for c in w if c == 0)
            assert coefficient(s, w) == a**zeros * b ** (len(w) - zeros)

    def test_malformed_polynomial_names_token(self, tmp_path, capsys):
        model = write(
            tmp_path / "model.txt", "n = 1\nm = 1\nx0 = 0\ng0 = 1 + qq\ng1 = 0\nh = x1\n"
        )
        rc = main(["coeffs", "--model", model, "--deg", "2", "--out", str(tmp_path / "o")])
        assert rc != 0
        err = capsys.readouterr().err
        assert "q" in err

    @pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"])
    def test_non_ascii_byte_names_its_line(self, tmp_path, capsys, newline):
        lines = [b"n = 1", b"m = 1", b"x0 = 0", b"g0 = 1", b"g1 = 0", b"h = x1"]
        model = tmp_path / "model.txt"
        model.write_bytes(newline.join(lines) + newline)
        out = tmp_path / "out"
        assert main(["coeffs", "--model", str(model), "--deg", "2", "--out", str(out)]) == 0
        assert read_series(out / "series.txt").coeffs == {(0,): 1}
        lines[4] += b"  # caf\xc3\xa9"
        model.write_bytes(newline.join(lines) + newline)
        capsys.readouterr()
        bad = tmp_path / "bad"
        assert main(["coeffs", "--model", str(model), "--deg", "2", "--out", str(bad)]) == 1
        assert capsys.readouterr().err == "error: non-ASCII byte 0xc3 in model file (line 5)\n"
        assert not bad.exists()

    def test_byte_identical_reruns(self, tmp_path):
        model = write(tmp_path / "model.txt", SCALAR_BILINEAR)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        main(["coeffs", "--model", model, "--deg", "3", "--out", str(out1)])
        main(["coeffs", "--model", model, "--deg", "3", "--out", str(out2)])
        assert read_bytes_map(out1) == read_bytes_map(out2)


class TestOversizedFlags:
    TWO_CHANNEL = "type = bilinear\nn = 1\nm = 2\nx0 = 1\nA0 = 1\nA1 = 2\nA2 = 3\nC = 1\n"

    def run_traced(self, argv):
        tracemalloc.start()
        try:
            rc = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return rc, peak

    def test_coeffs_degree_fails_before_allocating(self, tmp_path, capsys):
        model = write(tmp_path / "model.txt", self.TWO_CHANNEL)
        out = str(tmp_path / "out")
        rc, peak = self.run_traced(["coeffs", "--model", model, "--deg", "40", "--out", out])
        assert rc == 1
        assert peak < 2**20
        assert str(word_count(2, 40)) in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_series_flags_checked(self, tmp_path, capsys):
        model = write(tmp_path / "model.txt", self.TWO_CHANNEL)
        out = tmp_path / "out"
        assert main(["coeffs", "--model", model, "--deg", "2", "--out", str(out)]) == 0
        series = str(out / "series.txt")
        base = ["--rows", "1", "--cols", "1", "--bracket", "1", "--obs", "1"]
        for flag in ("--rows", "--cols", "--bracket", "--obs"):
            argv = ["rank", "--series", series] + base
            argv[argv.index(flag) + 1] = str(10**9)
            capsys.readouterr()
            rc, peak = self.run_traced(argv)
            assert rc == 1 and peak < 2**20
            assert f"{flag} {10**9} asks for more than 2^{10**9} words" in capsys.readouterr().err
        rc, peak = self.run_traced(["realize", "--series", series, "--deg", "13", "--out", str(out)])
        assert rc == 1 and peak < 2**20
        assert word_count(2, 13) > MAX_WORDS
        assert str(word_count(2, 13)) in capsys.readouterr().err


    @pytest.mark.parametrize(
        "argv, flags",
        [
            (["compare", "--model", "M", "--deg", "16"], "--deg 16 and --grid 4096"),
            (["simulate", "--model", "M", "--reps", "100000"], "--reps 100000 and --grid 4096"),
            (["simulate", "--model", "M", "--grid", "1000000000"], "--reps 1 and --grid 1000000000"),
        ],
    )
    def test_oversized_study_fails_before_sampling(self, tmp_path, capsys, argv, flags):
        # compare --deg 16 on m = 1 passes the word limit, but its integral
        # table would hold 131 071 x 4 097 floats
        assert word_count(1, 16) <= MAX_WORDS
        model = write(tmp_path / "model.txt", QUADRATIC_MODEL)
        out = tmp_path / "out"
        argv = [model if a == "M" else a for a in argv]
        rc, peak = self.run_traced(argv + ["--seed", "1", "--out", str(out)])
        assert rc == 1 and peak < 2**20
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flags} ask for ")
        assert err.endswith(f"float cells, above the limit of {MAX_CELLS}\n")
        assert not out.exists()

    def test_default_studies_within_cell_limit(self):
        # the largest default study: demo-zakai, 200 x 4 097 states of n = 2
        parser = build_parser()
        args = parser.parse_args(["demo-zakai", "--seed", "1", "--out", "o"])
        assert args.reps * (args.grid + 1) * 2 <= MAX_CELLS
        args = parser.parse_args(["compare", "--model", "M", "--deg", "6", "--seed", "1", "--out", "o"])
        assert word_count(2, 6) * (args.grid + 1) <= MAX_CELLS
        for argv, scale in ((["ito-check"], 4), (["hijab-check", "--model", "M"], 2)):
            args = parser.parse_args(argv + ["--seed", "1"])
            assert args.reps * (args.grid * scale + 1) * 2 <= MAX_CELLS


class TestBadCounts:
    # A0 = 10^64: the coefficient of 0^k is 10^(64k), past the float range
    # from k = 5 on.
    HUGE = "type = bilinear\nn = 1\nm = 1\nx0 = 1\nA0 = 1" + "0" * 64 + "\nA1 = 0\nC = 1\n"

    @pytest.mark.parametrize(
        "argv", [["coeffs", "--mode", "float"], ["compare", "--seed", "1", "--grid", "8"]]
    )
    def test_float_overflow_names_word(self, tmp_path, capsys, argv):
        model = write(tmp_path / "model.txt", self.HUGE)
        out = tmp_path / "out"
        rc = main(argv + ["--model", model, "--deg", "6", "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "coefficient of word (0, 0, 0, 0, 0) is outside the float range" in err
        assert not out.exists()

    def test_rational_past_digit_limit_names_word(self, tmp_path, capsys):
        # A0 = 10^600: the coefficient of 0^8 is 10^4800, more digits than
        # int-to-text conversion allows by default.
        huge = "type = bilinear\nn = 1\nm = 1\nx0 = 1\nA0 = 1" + "0" * 600 + "\nA1 = 0\nC = 1\n"
        model = write(tmp_path / "model.txt", huge)
        out = tmp_path / "out"
        assert main(["coeffs", "--model", model, "--deg", "8", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: coefficient of word (0, 0, 0, 0, 0, 0, 0, 0) has more than")
        assert not out.exists()

    STUDY_COMMANDS = [
        ["simulate", "--model", "M"],
        ["compare", "--model", "M", "--deg", "2"],
        ["ito-check"],
        ["hijab-check", "--model", "M"],
        ["demo-zakai"],
    ]

    @staticmethod
    def refused_study(tmp_path, capsys, command, flags):
        """The error output of a study refused with exit code 1; nothing is written."""
        model = write(tmp_path / "model.txt", QUADRATIC_MODEL)
        out = tmp_path / "out"
        argv = [model if a == "M" else a for a in command]
        assert main(argv + flags + ["--seed", "1", "--out", str(out)]) == 1
        assert not out.exists()
        return capsys.readouterr().err

    @pytest.mark.parametrize("command", STUDY_COMMANDS)
    @pytest.mark.parametrize("reps", [0, -3])
    def test_replicate_count_below_one_rejected(self, tmp_path, capsys, command, reps):
        err = self.refused_study(tmp_path, capsys, command, ["--reps", str(reps)])
        assert f"--reps must be at least 1, got {reps}" in err

    @pytest.mark.parametrize("command", STUDY_COMMANDS)
    @pytest.mark.parametrize("grid", [0, -3])
    def test_grid_below_one_rejected(self, tmp_path, capsys, command, grid):
        err = self.refused_study(tmp_path, capsys, command, ["--reps", "2", "--grid", str(grid)])
        assert err == f"error: --grid must be at least 1, got {grid}\n"


class TestRank:
    def test_zero_series_both_ranks_zero(self, tmp_path, capsys):
        zero_model = write(
            tmp_path / "model.txt", "n = 1\nm = 1\nx0 = 0\ng0 = 0\ng1 = 0\nh = x1\n"
        )
        out = tmp_path / "out"
        main(["coeffs", "--model", zero_model, "--deg", "6", "--out", str(out)])
        capsys.readouterr()  # drop the coeffs status line
        rc = main(
            [
                "rank",
                "--series",
                str(out / "series.txt"),
                "--rows",
                "2",
                "--cols",
                "2",
                "--bracket",
                "3",
                "--obs",
                "3",
            ]
        )
        assert rc == 0
        payload = loads(capsys.readouterr().out)
        assert payload["hankel"]["rank"] == 0
        assert payload["lie"]["rank"] == 0

    def test_rank_annotated_with_truncation(self, tmp_path, capsys):
        model = write(tmp_path / "model.txt", SCALAR_BILINEAR)
        out = tmp_path / "out"
        main(["coeffs", "--model", model, "--deg", "6", "--out", str(out)])
        capsys.readouterr()  # drop the coeffs status line
        main(["rank", "--series", str(out / "series.txt"), "--rows", "3", "--cols", "3"])
        payload = loads(capsys.readouterr().out)
        assert payload["hankel"]["rank"] <= 1
        assert payload["hankel"]["truncation"] == {"d_c": 3, "d_r": 3}

    @pytest.mark.parametrize(
        "given, missing", [(["--bracket", "3"], "--obs"), (["--obs", "3"], "--bracket")]
    )
    def test_lie_rank_needs_both_flags(self, tmp_path, capsys, given, missing):
        model = write(tmp_path / "model.txt", SCALAR_BILINEAR)
        out = tmp_path / "out"
        main(["coeffs", "--model", model, "--deg", "6", "--out", str(out)])
        capsys.readouterr()  # drop the coeffs status line
        rank = ["rank", "--series", str(out / "series.txt"), "--rows", "3", "--cols", "3"]
        assert main(rank + given + ["--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: the Lie rank needs both --bracket and --obs; {missing} is missing\n"
        assert not (out / "rank.json").exists()

    def test_insufficient_degree_fails(self, tmp_path, capsys):
        model = write(tmp_path / "model.txt", SCALAR_BILINEAR)
        out = tmp_path / "out"
        main(["coeffs", "--model", model, "--deg", "4", "--out", str(out)])
        rc = main(["rank", "--series", str(out / "series.txt"), "--rows", "3", "--cols", "3"])
        assert rc != 0
        assert "insufficient" in capsys.readouterr().err

    @pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"])
    def test_non_ascii_byte_names_its_line(self, tmp_path, capsys, newline):
        lines = [b"cfseries m=1 N=1 mode=rational", b";0/1", b"0;1/2\xc3\xa9", b"1;0/1"]
        series = tmp_path / "series.txt"
        series.write_bytes(newline.join(lines) + newline)
        rc = main(["rank", "--series", str(series), "--rows", "0", "--cols", "0"])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: non-ASCII byte 0xc3 in series file (line 3)\n"
        )

    def test_malformed_word_names_its_line(self, tmp_path, capsys):
        text = "cfseries m=1 N=1 mode=rational\n;0/1\nx;1/2\n1;0/1\n"
        series = write(tmp_path / "series.txt", text)
        rc = main(["rank", "--series", series, "--rows", "0", "--cols", "0"])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: malformed word in series record near 'x' (line 3)\n"
        )

    @pytest.mark.parametrize(
        "old, new, error",
        [
            ("0;1/2", "0;1.5", "bad coefficient value near '1.5' (line 3)"),
            (";0/1\n", ";0/1\n\n", "missing ';' in series record near '' (line 3)"),
            ("0;1/2", "0;+1/2", "bad coefficient value near '+1/2' (line 3)"),
            ("cfseries m=1", "cfseries  m=1",
             "malformed series header near 'cfseries  m=1 N=1 mode=rational' (line 1)"),
        ],
        ids=["decimal", "blank-line", "plus", "header-spacing"],
    )
    def test_form_outside_the_language_refused(self, tmp_path, capsys, old, new, error):
        text = "cfseries m=1 N=1 mode=rational\n;0/1\n0;1/2\n1;0/1\n".replace(old, new)
        series = write(tmp_path / "series.txt", text)
        out = tmp_path / "out"
        # The unchanged file gives a rank.json under these flags.
        rc = main(["rank", "--series", series, "--rows", "0", "--cols", "1", "--out", str(out)])
        assert rc == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {error}\n")
        assert not (out / "rank.json").exists()


class TestParserReuse:
    def fresh_stdout(self, argv, capsys):
        """Standard output of one command parsed by a parser of its own."""
        args = build_parser().parse_args(argv)
        assert args.fn(args) == 0
        return capsys.readouterr().out

    def test_flags_of_one_call_do_not_reach_the_next(self, tmp_path, capsys):
        model = write(tmp_path / "model.txt", QUADRATIC_MODEL)
        out = tmp_path / "out"
        main(["coeffs", "--model", model, "--deg", "6", "--mode", "float", "--out", str(out)])
        capsys.readouterr()  # drop the coeffs status line
        rank = ["rank", "--series", str(out / "series.txt"), "--rows", "3", "--cols", "3"]
        flagged = tmp_path / "flagged"
        extra = ["--bracket", "3", "--obs", "3", "--tol", "1e-6", "--out", str(flagged)]
        assert main(rank + extra) == 0
        assert "lie" in loads(capsys.readouterr().out)
        (flagged / "rank.json").unlink()
        assert main(rank) == 0
        assert capsys.readouterr().out == self.fresh_stdout(rank, capsys)
        assert not (flagged / "rank.json").exists()
        assert not (out / "rank.json").exists()

    @pytest.mark.parametrize("command", COMMANDS)
    def test_help_text_unchanged_by_reuse(self, capsys, command):
        texts = []
        for parse in (main, build_parser().parse_args, main):
            with pytest.raises(SystemExit) as exc:
                parse([command, "--help"])
            assert exc.value.code == 0
            texts.append(capsys.readouterr().out)
        assert texts[0] == texts[1] == texts[2]
        with pytest.raises(SystemExit):
            main(["--help"])
        assert capsys.readouterr().out == build_parser().format_help()


class TestRealize:
    def test_round_trip_through_files(self, tmp_path):
        model = write(tmp_path / "model.txt", SCALAR_BILINEAR)
        out = tmp_path / "c1"
        main(["coeffs", "--model", model, "--deg", "6", "--out", str(out)])
        rout = tmp_path / "r"
        rc = main(["realize", "--series", str(out / "series.txt"), "--out", str(rout)])
        assert rc == 0
        verify = loads((rout / "verify.json").read_text())
        assert verify["dimension"] == 1
        assert verify["max_discrepancy"] == "0"
        # feeding the synthesized model back through coeffs reproduces the series
        out2 = tmp_path / "c2"
        main(["coeffs", "--model", str(rout / "model.txt"), "--deg", "6", "--out", str(out2)])
        assert (out / "series.txt").read_bytes() == (out2 / "series.txt").read_bytes()

    def test_zero_series_empty_model(self, tmp_path):
        zero_model = write(
            tmp_path / "model.txt", "n = 1\nm = 1\nx0 = 0\ng0 = 0\ng1 = 0\nh = x1\n"
        )
        out = tmp_path / "out"
        main(["coeffs", "--model", zero_model, "--deg", "4", "--out", str(out)])
        rout = tmp_path / "r"
        assert main(["realize", "--series", str(out / "series.txt"), "--out", str(rout)]) == 0
        assert loads((rout / "verify.json").read_text())["dimension"] == 0

    def test_unstabilized_rank_nonzero_exit(self, tmp_path, capsys):
        model = write(tmp_path / "model.txt", QUADRATIC_MODEL)
        out = tmp_path / "out"
        main(["coeffs", "--model", model, "--deg", "4", "--out", str(out)])
        rc = main(["realize", "--series", str(out / "series.txt"), "--out", str(tmp_path / "r")])
        assert rc != 0
        assert "stabilized" in capsys.readouterr().err


class TestSimulateAndCompare:
    def test_simulate_requires_seed(self, tmp_path, capsys):
        model = write(tmp_path / "model.txt", DRIFT_MODEL)
        with pytest.raises(SystemExit):
            main(["simulate", "--model", model, "--out", str(tmp_path / "s")])

    def test_simulate_deterministic(self, tmp_path):
        model = write(tmp_path / "model.txt", QUADRATIC_MODEL)
        s1, s2 = tmp_path / "s1", tmp_path / "s2"
        argv = ["simulate", "--model", model, "--grid", "64", "--reps", "2", "--seed", "5"]
        assert main(argv + ["--out", str(s1)]) == 0
        assert main(argv + ["--out", str(s2)]) == 0
        assert read_bytes_map(s1) == read_bytes_map(s2)
        header = (s1 / "rep000.csv").read_text().splitlines()[0]
        assert header == "t,W1,Y_sim"

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_simulate_non_finite_state_exits_1(self, tmp_path, capsys):
        # g0 is inf - inf at x0; the first state is NaN, and no summary with
        # a NaN (not valid JSON) is written
        model = write(
            tmp_path / "model.txt",
            "n = 2\nm = 1\nx0 = 10000000, 10000000\n"
            "g0 = x1^16*x1^16*x1^16 - x2^16*x2^16*x2^16, 0\ng1 = 0, 0\nh = x1\n",
        )
        out = tmp_path / "s"
        argv = ["simulate", "--model", model, "--grid", "8", "--reps", "2", "--seed", "1"]
        assert main(argv + ["--out", str(out)]) == 1
        assert "state not finite or past divergence guard" in capsys.readouterr().err
        assert not (out / "summary.json").exists()

    @pytest.mark.parametrize("horizon", ["inf", "nan"])
    def test_horizon_not_positive_and_finite_refused(self, tmp_path, capsys, recwarn, horizon):
        model = write(tmp_path / "model.txt", QUADRATIC_MODEL)
        out = tmp_path / "s"
        argv = ["simulate", "--model", model, "--horizon", horizon, "--seed", "1", "--out", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == f"error: horizon must be positive and finite, got {float(horizon)!r}\n"
        assert not recwarn.list  # refused before any arithmetic on the horizon
        assert not out.exists()

    def test_compare_medians_decrease(self, tmp_path):
        model = write(tmp_path / "model.txt", QUADRATIC_MODEL)
        out = tmp_path / "cmp"
        rc = main(
            [
                "compare",
                "--model",
                model,
                "--deg",
                "5",
                "--grid",
                "1024",
                "--reps",
                "40",
                "--seed",
                "3",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        med = loads((out / "summary.json").read_text())[
            "median_terminal_error_per_degree"
        ]
        assert med["5"] <= med["2"]
        header = (out / "rep000.csv").read_text().splitlines()[0]
        assert header == "t,W1,Y_sim,Y_cf"


class TestChecks:
    def test_ito_check_passes(self, tmp_path, capsys):
        rc = main(
            ["ito-check", "--grid", "128", "--reps", "40", "--seed", "2", "--out", str(tmp_path)]
        )
        assert rc == 0
        payload = loads((tmp_path / "residuals.json").read_text())
        assert payload["pass"] is True
        assert payload["linear_rms"] <= 1e-10

    def test_hijab_check_passes(self, tmp_path, capsys):
        model = write(tmp_path / "model.txt", QUADRATIC_MODEL)
        rc = main(
            [
                "hijab-check",
                "--model",
                model,
                "--grid",
                "128",
                "--reps",
                "40",
                "--seed",
                "2",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 0
        payload = loads((tmp_path / "hijab.json").read_text())
        assert payload["ito_decay_factor"] >= 1.2

    def test_hijab_check_two_channels(self, tmp_path, capsys):
        # dX = -X/2 dt + X/2 o dW1 + X/3 o dW2 with Y = X
        model = write(
            tmp_path / "model.txt",
            "n = 1\nm = 2\nx0 = 1\ng0 = -1/2*x1\ng1 = 1/2*x1\ng2 = 1/3*x1\nh = x1\n",
        )
        argv = ["--grid", "256", "--reps", "100", "--seed", "2", "--out", str(tmp_path)]
        assert main(["hijab-check", "--model", model, *argv]) == 0
        payload = loads((tmp_path / "hijab.json").read_text())
        assert payload["pass"] is True
        assert payload["ito_decay_factor"] >= 1.2

    # A decay factor needs every residual RMS finite and positive.  The tiny
    # horizon makes both RMS 0; the huge one overflows them to NaN, and the
    # Hijab model's state past the divergence guard.
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["ito-check", "--horizon", "1e-300", "--grid", "1", "--reps", "1"], "1 grid steps is 0.0"),
            (
                ["hijab-check", "--model", "M", "--horizon", "1e-300", "--grid", "1", "--reps", "1"],
                "1 grid steps is 0.0",
            ),
            (["ito-check", "--horizon", "1e308", "--grid", "4", "--reps", "2"], "4 grid steps is nan"),
        ],
    )
    def test_degenerate_study_names_grid_and_rms(self, tmp_path, capsys, argv, message):
        model = write(tmp_path / "model.txt", QUADRATIC_MODEL)
        out = tmp_path / "out"
        argv = [model if a == "M" else a for a in argv]
        assert main(argv + ["--seed", "1", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: residual RMS on {message}; no decay factor exists\n"
        assert not out.exists()

    def test_demo_zakai(self, tmp_path, capsys):
        out = tmp_path / "zakai"
        rc = main(
            [
                "demo-zakai",
                "--grid",
                "512",
                "--reps",
                "10",
                "--seed",
                "4",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        summary = loads((out / "summary.json").read_text())
        assert summary["positivity_violations"] == 0
        assert summary["hankel_rank"]["rank"] <= 2
        assert 0.0 <= summary["pi_range"][0] <= summary["pi_range"][1] <= 1.0
        assert summary["unit_phi_max_deviation"] <= 1e-12

    @pytest.mark.parametrize("horizon", ["nan", "-1"])
    def test_demo_zakai_refused_horizon_writes_nothing(self, tmp_path, capsys, horizon):
        out = tmp_path / "z"
        argv = ["--horizon", horizon, "--grid", "8", "--reps", "1", "--seed", "1", "--out", str(out)]
        assert main(["demo-zakai", *argv]) == 1
        err = capsys.readouterr().err
        assert err == f"error: horizon must be positive and finite, got {float(horizon)!r}\n"
        assert not out.exists()


def run_python(*argv):
    """Run Python in a child process that imports the same cfrealize as this
    process, however pytest found it."""
    package_root = str(Path(cfrealize.__file__).resolve().parent.parent)
    path = [package_root, os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env)


def run_module(*argv):
    """Run ``python -m cfrealize`` as ``run_python`` does."""
    return run_python("-m", "cfrealize", *argv)


class TestReplicateWorkers:
    """The replicate CSVs are written by forked workers: a failed write
    surfaces here as one error line, and no child outlives a call."""

    GRID = np.linspace(0.0, 1.0, 5)

    @staticmethod
    def columns(count):
        return {"W1": np.arange(count * 5.0).reshape(count, 5) / 3}

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_directory_in_the_way_is_one_error_line(self, tmp_path, capsys, monkeypatch, cpus):
        forks = count_forks(monkeypatch, cpus)
        model = write(tmp_path / "model.txt", QUADRATIC_MODEL)
        out = tmp_path / "cmp"
        (out / "rep001.csv").mkdir(parents=True)
        argv = ["compare", "--model", model, "--deg", "2", "--grid", "16", "--reps", "3"]
        assert main(argv + ["--seed", "1", "--out", str(out)]) == 1
        assert len(forks) == cpus - 1
        assert_no_child()
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert repr(str(out / "rep001.csv")) in err
        assert (out / "rep001.csv").is_dir()
        assert not (out / "summary.json").exists()
        assert not [p.name for p in out.iterdir() if p.name.startswith(".tmp-")]

    def test_own_share_raising_waits_for_the_running_child(self, tmp_path, monkeypatch):
        count_forks(monkeypatch, 2)
        parent, atomic_write = os.getpid(), cli._atomic_write

        def failing_here(path, text):
            if os.getpid() == parent:
                raise OSError(f"refused {path}")
            time.sleep(0.3)  # the child still runs when this process raises
            atomic_write(path, text)

        monkeypatch.setattr(cli, "_atomic_write", failing_here)
        with pytest.raises(OSError, match="refused .*rep000.csv"):
            _write_replicates(str(tmp_path), self.GRID, self.columns(2), 2)
        assert (tmp_path / "rep001.csv").is_file()  # the child's write ended first
        assert_no_child()

    @pytest.mark.parametrize("how", ["killed", "raises"])
    def test_failed_child_share_is_written_here(self, tmp_path, monkeypatch, how):
        _write_replicates(str(tmp_path / "want"), self.GRID, self.columns(5), 5)
        forks = count_forks(monkeypatch, 3)
        parent, atomic_write = os.getpid(), cli._atomic_write

        def failing_in_children(path, text):
            if os.getpid() != parent:
                if how == "killed":
                    os.kill(os.getpid(), signal.SIGKILL)
                raise KeyboardInterrupt
            atomic_write(path, text)

        monkeypatch.setattr(cli, "_atomic_write", failing_in_children)
        _write_replicates(str(tmp_path / "got"), self.GRID, self.columns(5), 5)
        assert len(forks) == 2
        assert_no_child()
        assert read_bytes_map(tmp_path / "got") == read_bytes_map(tmp_path / "want")

    def test_children_flush_no_stdio_and_run_no_atexit(self, tmp_path):
        # stdout to a pipe is block-buffered: a child that flushed it, or ran
        # the atexit hook, would print its line twice
        script = (
            "import atexit, os\n"
            "import numpy as np\n"
            "from cfrealize.cli import _write_replicates\n"
            "os.sched_getaffinity = lambda pid: {0, 1, 2}\n"
            "atexit.register(print, 'atexit')\n"
            "print('before')\n"
            f"_write_replicates({str(tmp_path)!r}, np.linspace(0, 1, 3), {{'W1': np.zeros((3, 3))}}, 3)\n"
        )
        proc = run_python("-c", script)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == "before\natexit\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["rep000.csv", "rep001.csv", "rep002.csv"]


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        model = tmp_path / "model.txt"
        model.write_text(DRIFT_MODEL)
        proc = run_module("coeffs", "--model", str(model), "--deg", "2", "--out", str(tmp_path / "o"))
        assert proc.returncode == 0, proc.stderr

    def test_overflowing_study_prints_one_error_line(self):
        # numpy's floating-point warnings would precede the one CFError line
        proc = run_module("ito-check", "--horizon", "1e308", "--grid", "4", "--reps", "2", "--seed", "1")
        assert proc.returncode == 1
        assert proc.stderr == "error: residual RMS on 4 grid steps is nan; no decay factor exists\n"


class TestStrictJson:
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_report_written_nowhere(self, tmp_path, capsys, value):
        args = build_parser().parse_args(["ito-check", "--seed", "1", "--out", str(tmp_path)])
        with pytest.raises(CFError, match="report residuals.json would hold a NaN or infinite value"):
            _emit(args, "residuals.json", {"reports": [{"rms": value}]})
        assert capsys.readouterr().out == ""
        assert list(tmp_path.iterdir()) == []
