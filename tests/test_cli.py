"""Command-line behavior: flags, outputs, and the documented exit codes."""

import argparse
import contextlib
import io
import json
import re
import shlex
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from flatplate.cli import build_parser, main
from flatplate.hpm import HpmConfig, build_series, series_from_document


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SERIES_PAST_THE_LIMIT = [("--order", "60", "--domain-length", "1e40"),
                         ("--order", "25", "--epsilon", "1e-300")]
L41_PAST_THE_LIMIT = ("--order", "60", "--domain-length", f"{10**40 + 1}/{10**40}")


class TestSeriesCommand:
    def test_order_zero_pretty(self, capsys):
        code, out, _ = run(capsys, "series", "--order", "0")
        assert code == 0
        assert "f0 = (1/10)*eta^2" in out

    def test_order_three_shows_leading_coefficient(self, capsys):
        code, out, _ = run(capsys, "series", "--order", "3")
        assert code == 0
        assert "1348969/7741440" in out

    def test_zero_domain_length_is_an_argument_error(self, capsys):
        code, _, err = run(capsys, "series", "--order", "3", "--domain-length", "0")
        assert code == 2
        assert "L > 0" in err

    @pytest.mark.parametrize("order", ["61", "1000000000"])
    def test_order_above_cap_exit_2_with_one_line(self, capsys, order):
        code, out, err = run(capsys, "series", "--order", order)
        assert code == 2 and out == ""
        assert err == f"error: order must be at most 60, got {order}\n"

    def test_malformed_rational_names_the_flag(self, capsys):
        code, _, err = run(capsys, "series", "--domain-length", "five")
        assert code == 2
        assert "--domain-length" in err

    def test_json_round_trips_bit_exactly(self, capsys, tmp_path):
        out_path = tmp_path / "series.json"
        code, _, _ = run(capsys, "series", "--order", "2", "--format", "json",
                         "--out", str(out_path))
        assert code == 0
        series = series_from_document(json.loads(out_path.read_text()))
        expected = build_series(HpmConfig(order=2))
        assert series.config == expected.config
        assert series.f_corrections == expected.f_corrections
        assert series.theta_corrections == expected.theta_corrections

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "series", "--order", "0", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "component,j,power,num,den"
        assert "f,0,2,1,10" in lines

    def test_rational_domain_length_literal(self, capsys):
        code, out, _ = run(capsys, "series", "--order", "0", "--domain-length", "11/2")
        assert code == 0
        assert "f0 = (1/11)*eta^2" in out  # 1/(2L) with L = 11/2

    @pytest.mark.parametrize("length", ["1e400", "1e-400"])
    def test_wall_slope_beyond_the_float_range_prints_exactly(self, capsys, length):
        # the json and csv formats write this series; the pretty one must too
        code, out, err = run(capsys, "series", "--domain-length", length)
        assert (code, err) == (0, "")
        series = build_series(HpmConfig(order=3, L=Fraction(length)))
        wall = 2 * series.partial_sum("f").coefficient(2)
        assert out.splitlines()[-1] == f"f''(0) = {wall} (beyond the float range)"
        for fmt in ("json", "csv"):
            assert run(capsys, "series", "--domain-length", length, "--format", fmt)[0] == 0

    def test_unknown_flag_rejected(self, capsys):
        code, _, _ = run(capsys, "series", "--no-such-flag")
        assert code == 2

    def test_int_string_limit_exit_2_with_one_line(self, capsys, tmp_path):
        # L = 10^40 at order 60 puts integers of more than 4300 digits into
        # the document, past Python's int-to-string limit
        target = tmp_path / "P.json"
        code, out, err = run(capsys, "series", "--order", "60", "--domain-length", "1e40",
                             "--format", "json", "--out", str(target))
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "4300" in err
        assert "Traceback" not in err
        assert not target.exists()

    # compare and figure pass the limit in the summary, at str() of the exact
    # wall slope, at order 60 on an L of 41-digit numerator and denominator
    @pytest.mark.parametrize(
        ("subcommand", "flags", "out_flags"),
        [*(pytest.param("series", flags, ("--format", fmt, "--out"), id=f"flags{i}-{fmt}")
           for i, flags in enumerate(SERIES_PAST_THE_LIMIT) for fmt in ("json", "csv", "pretty")),
         pytest.param("compare", L41_PAST_THE_LIMIT, ("--csv",), id="compare--csv"),
         pytest.param("figure", L41_PAST_THE_LIMIT, ("--svg",), id="figure--svg")],
    )
    def test_int_string_limit_names_the_levers(self, capsys, tmp_path, subcommand, flags,
                                               out_flags):
        target = tmp_path / "P.out"
        code, out, err = run(capsys, subcommand, *flags, *out_flags, str(target))
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "4300" in err
        for lever in ("--order", "--domain-length", "--epsilon", "PYTHONINTMAXSTRDIGITS"):
            assert lever in err
        assert not target.exists()

    def test_other_render_errors_keep_their_message(self, capsys, monkeypatch):
        import flatplate.cli

        def fail(series, fmt):
            raise ValueError("no such component")

        monkeypatch.setattr(flatplate.cli, "_render_series", fail)
        code, out, err = run(capsys, "series", "--order", "0")
        assert code == 2 and out == ""
        assert err == "error: no such component\n"

    def test_out_to_unwritable_path(self, capsys, tmp_path):
        target = tmp_path / "missing-dir" / "series.json"
        code, _, err = run(capsys, "series", "--format", "json", "--out", str(target))
        assert code == 4
        assert "series.json" in err


class TestShootCommand:
    def test_defaults_print_slope_and_residual(self, capsys):
        code, out, _ = run(capsys, "shoot")
        assert code == 0
        assert "s* = 0.3320573" in out
        assert "residual" in out

    def test_trajectory_out(self, capsys, tmp_path):
        target = tmp_path / "traj.csv"
        code, _, _ = run(capsys, "shoot", "--eta-max", "2", "--step", "0.01",
                         "--tol", "1e-6", "--trajectory-out", str(target))
        assert code == 0
        lines = target.read_text().splitlines()
        assert lines[0] == "eta,f,fp,fpp"
        assert len(lines) == 1 + 201

    @pytest.mark.parametrize("name", ["a b.csv", "a\nb.csv", "a\rb.csv"])
    def test_stamp_lines_stay_comments(self, capsys, tmp_path, name):
        target = tmp_path / name
        argv = ["shoot", "--eta-max", "2", "--step", "0.01", "--tol", "1e-6",
                "--stamp", "--trajectory-out", str(target)]
        code, _, _ = run(capsys, *argv)
        assert code == 0
        with open(target, newline="") as handle:
            lines = handle.read().splitlines()  # at \r as well as \n
        header = lines.index("eta,f,fp,fpp")
        assert header == 2
        assert all(line.startswith("# ") for line in lines[:header])
        invocation = lines[1].removeprefix("# invocation=")
        if name == "a b.csv":
            assert shlex.split(invocation) == ["flatplate", *argv]
        else:
            escaped = name.replace("\n", "\\n").replace("\r", "\\r")
            assert invocation.endswith(escaped + "'")

    @pytest.mark.parametrize("eta_max, slope", [("1", "1.0211569"), ("0.5", "2.0104570")])
    def test_short_domain(self, capsys, eta_max, slope):
        code, out, _ = run(capsys, "shoot", "--eta-max", eta_max)
        assert code == 0
        assert f"s* = {slope}" in out

    @pytest.mark.parametrize("eta_max, step", [("1e-6", "1e-9"), ("1e-7", "1e-10")])
    def test_tiny_domain_solves(self, capsys, eta_max, step):
        # s* is about 1/eta_max there, so f'' starts far above DIVERGENCE_LIMIT
        code, out, err = run(capsys, "shoot", "--eta-max", eta_max, "--step", step)
        assert code == 0, err
        residual = re.search(r"residual \|f'\(eta_max\) - 1\| = (\S+)", out)
        assert float(residual.group(1)) <= 1e-8

    @pytest.mark.parametrize("eta_max, step, slope",
                             [("0.5", "5e-7", "2.0104570"), ("0.001", "1e-8", "1000.0000208")])
    def test_short_domain_at_the_step_budget_solves(self, capsys, eta_max, step, slope):
        # eta_max/step is 10^6 and 10^5: the search marches a step that
        # keeps it within twice the caller's steps, though a = s^(1/3) > 1
        code, out, err = run(capsys, "shoot", "--eta-max", eta_max, "--step", step,
                             "--tol", "1e-8")
        assert code == 0, err
        assert f"s* = {slope} " in out
        residual = re.search(r"residual \|f'\(eta_max\) - 1\| = (\S+)", out)
        assert float(residual.group(1)) <= 1e-8

    @pytest.mark.parametrize("eta_max, step, slope",
                             [("3", "1", "0.4047844"), ("0.999", "0.999", "1.0227267")])
    def test_coarse_grid_takes_a_second_newton_step(self, capsys, eta_max, step, slope):
        # one Newton step leaves residuals of about 1.7e-6 and 7e-8 here
        code, out, err = run(capsys, "shoot", "--eta-max", eta_max, "--step", step)
        assert code == 0, err
        assert f"s* = {slope} " in out and "search passes = 3" in out
        residual = re.search(r"residual \|f'\(eta_max\) - 1\| = (\S+)", out)
        assert float(residual.group(1)) <= 1e-8

    def test_invalid_settings_exit_2(self, capsys):
        code, _, err = run(capsys, "shoot", "--step", "0")
        assert code == 2
        assert "step" in err

    @pytest.mark.parametrize(
        "flags",
        [("--eta-max", "inf"), ("--eta-max", "nan"), ("--tol", "inf"),
         ("--eta-max", "-inf"), ("--step", "1e-9")],
    )
    def test_unusable_settings_exit_2_with_one_line(self, capsys, flags):
        code, out, err = run(capsys, "shoot", *flags)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("sub", ["shoot", "compare"])
    def test_solver_failure_exit_3_with_one_line(self, capsys, sub):
        # the solver's residual at eta_max = 3 is about 2.6e-15 after one Newton
        # step and 2.2e-16 after the second
        code, out, err = run(capsys, sub, "--eta-max", "3", "--tol", "1e-300")
        assert (code, out) == (3, "")
        assert err.startswith("shooting failed: far-boundary residual") and err.count("\n") == 1

    def test_step_budget_error_tells_the_ratio_from_the_budget(self, capsys):
        # eta_max/step is 1000001.0, which the ".3g" format printed as 1e+06
        code, out, err = run(capsys, "shoot", "--eta-max", "1000.001", "--step", "0.001")
        assert (code, out) == (2, "")
        assert err == "error: eta_max/step = 1000001.0 exceeds the budget of 1000000 steps\n"


class TestCompareCommand:
    def test_summary_contains_headline_values(self, capsys, tmp_path):
        csv_path = tmp_path / "cmp.csv"
        svg_path = tmp_path / "cmp.svg"
        code, out, _ = run(capsys, "compare", "--csv", str(csv_path), "--svg", str(svg_path))
        assert code == 0
        assert "0.3320574" in out
        assert "0.349" in out
        assert csv_path.exists() and svg_path.exists()

    def test_probe_outside_grid_noted(self, capsys):
        code, out, _ = run(capsys, "compare", "--grid", "0:5:0.05",
                           "--eta-max", "6", "--step", "0.01")
        assert code == 0
        assert "not evaluated" in out and "probe" in out

    @pytest.mark.parametrize("probe", ["nan", "inf", "-inf"])
    def test_nonfinite_probe_exit_2(self, capsys, probe):
        code, _, err = run(capsys, "compare", f"--probe={probe}",
                           "--eta-max", "6", "--step", "0.01")
        assert code == 2
        assert err.startswith("error: probe") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "flags, code, text",
        [
            (("--grid", "-1:5:0.1"), 0, "eta in [-1, 5] (61 points)"),
            (("--grid", "-.5:5:0.5"), 0, "eta in [-0.5, 5] (12 points)"),
            (("--y-window", "-1,2"), 0, "written"),
            (("--probe", "-1"), 0, "probe eta = -1:"),
            (("--probe", "-inf"), 2, "error: probe eta must be finite"),
            (("--probe", "-nan"), 2, "error: probe eta must be finite"),
        ],
    )
    def test_negative_value_after_a_space(self, capsys, tmp_path, flags, code, text):
        # argparse used to take these values for flags and exit 2 with
        # "expected one argument"
        fast = ("--eta-max", "6", "--step", "0.01", "--svg", str(tmp_path / "f.svg"))
        got, out, err = run(capsys, "compare", *fast, *flags)
        assert got == code
        assert text in out + err

    @pytest.mark.parametrize(
        "flags",
        [("--grid", "0:inf:1"), ("--grid", "nan:1:1"), ("--grid", "0:12:1e-9"),
         ("--y-window", "0,inf"), ("--y-window=-1e308,1e308",)],
    )
    def test_unusable_grid_or_window_exit_2_with_one_line(self, capsys, tmp_path, flags):
        code, _, err = run(capsys, "compare", "--eta-max", "6", "--step", "0.01",
                           "--svg", str(tmp_path / "f.svg"), *flags)
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_grid_budget_error_prints_the_exact_count(self, capsys):
        # 1 000 001 points, which the ".3g" format printed as 1e+06
        code, out, err = run(capsys, "compare", "--grid", "0:1000000:1")
        assert (code, out) == (2, "")
        assert err == "error: grid of 1000001 points exceeds the budget of 1000000 points\n"

    @pytest.mark.parametrize("sub", ["compare", "figure"])
    def test_grid_shorter_than_one_step_exit_2_with_one_line(self, capsys, tmp_path, sub):
        # the span is 1e-7 steps, within the reachability tolerance of zero
        svg_path, csv_path = tmp_path / "f.svg", tmp_path / "c.csv"
        code, out, err = run(capsys, sub, "--svg", str(svg_path), "--csv", str(csv_path),
                             "--grid", "0:1e-7:1")
        assert code == 2 and out == ""
        assert err.startswith("error: grid") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not svg_path.exists() and not csv_path.exists()

    @pytest.mark.parametrize("sub,svg", [("compare", False), ("compare", True), ("figure", True)])
    @pytest.mark.parametrize("window", ["0,inf", "1,1", "nan,1"])
    def test_unusable_window_rejected_before_any_solve(self, capsys, tmp_path, sub, svg, window):
        svg_path = tmp_path / "f.svg"
        flags = ("--svg", str(svg_path)) if svg else ()
        code, out, err = run(capsys, sub, *flags, f"--y-window={window}")
        assert code == 2 and out == ""
        assert err.startswith("error: y window") and err.count("\n") == 1
        assert not svg_path.exists()

    @pytest.mark.parametrize("flags", [("--domain-length", "1e-300"), ("--grid", "0:1e300:1e299")])
    def test_float_overflow_exit_2_with_one_line(self, capsys, flags):
        code, _, err = run(capsys, "compare", "--eta-max", "6", "--step", "0.01", *flags)
        assert code == 2
        assert err.startswith("error: out of float range") and err.count("\n") == 1

    def test_float_overflow_prints_the_message(self, capsys, fresh_cli):
        # float ** int raises OverflowError((34, 'Numerical result out of range')),
        # which names neither the power of the default f' nor the grid point
        argv = ("compare", "--eta-max", "6", "--step", "0.01", "--grid", "0:1e300:1e299")
        expected = "error: out of float range: eta^10 overflows at |eta| up to 1e+300\n"
        code, _, err = run(capsys, *argv)
        assert (code, err) == (2, expected)
        proc = fresh_cli(*argv)  # without numpy: the stdlib kernels
        assert (proc.returncode, proc.stderr) == (2, expected)

    @pytest.mark.parametrize("argv, named", [
        (("compare", "--with-theta", "--epsilon", "1e400"), "epsilon"),
        (("compare", "--domain-length", "1e400"), "domain length"),
        (("compare", "--domain-length", "1e-300"), "eta^"),
        (("compare", "--with-theta", "--epsilon", "1e-300"), "eta^"),
        (("compare", "--order", "60", "--domain-length", "1e10"), "eta^"),
        (("figure", "--svg", "out.svg", "--domain-length", "1e200"), "eta^"),
    ])
    def test_float_overflow_names_what_overflowed(self, capsys, tmp_path, monkeypatch,
                                                  argv, named):
        # a Fraction's float overflows with "integer division result too large
        # for a float", which names neither the value nor where it came from
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and named in err, err
        assert not (tmp_path / "out.svg").exists()

    def test_probe_deviation_reported(self, capsys):
        code, out, _ = run(capsys, "compare", "--probe", "10")
        assert code == 0
        assert "114.97" in out

    def test_with_theta_extends_csv(self, capsys, tmp_path):
        csv_path = tmp_path / "theta.csv"
        code, _, _ = run(capsys, "compare", "--with-theta", "--csv", str(csv_path),
                         "--eta-max", "6", "--step", "0.01")
        assert code == 0
        header = csv_path.read_text().splitlines()[0]
        assert header == "eta,fprime_numerical,fprime_hpm,theta_numerical,theta_hpm"

    def test_with_theta_rejects_epsilon_below_the_float_range(self, capsys, tmp_path):
        # the exact epsilon is positive, so the series accepts it; theta cannot
        csv_path = tmp_path / "theta.csv"
        code, out, err = run(capsys, "compare", "--with-theta", "--epsilon", "1e-400",
                             "--csv", str(csv_path))
        assert code == 2
        assert out == ""
        assert err == "error: epsilon underflows to 0.0 as a float, and theta needs it positive\n"
        assert not csv_path.exists()

    @pytest.mark.parametrize("epsilon", ["1e-308", "1e-320"])
    def test_tiny_epsilon_warns_nothing(self, fresh_python, epsilon):
        # -inner / (2 epsilon) overflows to -inf; numpy must not warn about it
        proc = fresh_python("-W", "error", "-m", "flatplate", "compare", "--with-theta",
                            "--epsilon", epsilon, "--csv", "theta.csv")
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
        assert "RuntimeWarning" not in proc.stderr

    def test_unwritable_csv_path(self, capsys, tmp_path):
        target = tmp_path / "missing-dir" / "cmp.csv"
        code, _, err = run(capsys, "compare", "--csv", str(target),
                           "--eta-max", "6", "--step", "0.01")
        assert code == 4
        assert "cmp.csv" in err

    def test_stamp_adds_comments_only_when_asked(self, capsys, tmp_path):
        plain = tmp_path / "plain.csv"
        stamped = tmp_path / "stamped.csv"
        fast = ("--grid", "0:6:0.5", "--eta-max", "6", "--step", "0.01")
        code, _, _ = run(capsys, "compare", *fast, "--csv", str(plain))
        assert code == 0
        code, _, _ = run(capsys, "compare", *fast, "--csv", str(stamped), "--stamp")
        assert code == 0
        assert not plain.read_text().startswith("#")
        first, second = stamped.read_text().splitlines()[:2]
        assert first.startswith("# generated-at=")
        assert second.startswith("# invocation=flatplate compare")


class TestFigureCommand:
    def test_requires_svg(self, capsys):
        code, _, err = run(capsys, "figure")
        assert code == 2
        assert err.endswith("error: the following arguments are required: --svg\n")

    def test_writes_figure(self, capsys, tmp_path):
        svg_path = tmp_path / "fig.svg"
        code, out, _ = run(capsys, "figure", "--svg", str(svg_path),
                           "--eta-max", "6", "--step", "0.01")
        assert code == 0
        assert svg_path.exists()
        assert "figure written" in out

    def test_narrow_window_keeps_the_figure_small(self, capsys, tmp_path):
        # the tail lies ~1e302 px outside this window; unclamped, the figure was 155 KB
        svg_path = tmp_path / "fig.svg"
        code, _, _ = run(capsys, "figure", "--y-window=0,1e-300", "--eta-max", "2",
                         "--step", "0.01", "--svg", str(svg_path))
        assert code == 0
        assert svg_path.stat().st_size < 20_000


class TestConfigFile:
    def test_config_overrides_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        for encoding in ("utf-8", "utf-8-sig"):  # the second writes a byte-order mark
            cfg.write_text("order=0\ndomain-length=10\n", encoding=encoding)
            code, out, _ = run(capsys, "series", "--config", str(cfg))
            assert code == 0, encoding
            assert "f0 = (1/20)*eta^2" in out

    def test_explicit_flag_beats_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("order=0\n")
        code, out, _ = run(capsys, "series", "--config", str(cfg), "--order", "1")
        assert code == 0
        assert "f1 =" in out

    def test_abbreviated_flag_beats_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("eta-max=12\n")
        code, out, _ = run(capsys, "shoot", "--config", str(cfg), "--eta-m", "8")
        assert code == 0
        assert "eta_max = 8)" in out

    def test_config_value_is_converted_by_the_flag_type(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("eta-max=6\nstep=0.01\ngrid=0:6:0.5\n")
        code, out, _ = run(capsys, "compare", "--config", str(cfg))
        assert code == 0
        assert "eta in [0, 6] (13 points)" in out

    def test_config_switch(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("with-theta=yes\neta-max=6\nstep=0.01\n")
        csv_path = tmp_path / "theta.csv"
        code, _, _ = run(capsys, "compare", "--config", str(cfg), "--csv", str(csv_path))
        assert code == 0
        assert csv_path.read_text().splitlines()[0].endswith("theta_numerical,theta_hpm")

    def test_config_switches_off_with_comment_and_blank_lines(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment\n\nwith-theta=off\nstamp=0\neta-max=6\nstep=0.01\n")
        csv_path = tmp_path / "plain.csv"
        code, _, _ = run(capsys, "compare", "--config", str(cfg), "--csv", str(csv_path))
        assert code == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "eta,fprime_numerical,fprime_hpm"
        assert not any(line.startswith("#") for line in lines)

    def test_bad_config_switch(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("stamp=maybe\n")
        code, _, err = run(capsys, "shoot", "--config", str(cfg))
        assert code == 2
        assert "stamp" in err

    def test_config_value_outside_choices(self, capsys, tmp_path):
        # argparse checks choices only for values given on the command line
        cfg = tmp_path / "run.cfg"
        cfg.write_text("format=abc\n")
        code, out, err = run(capsys, "series", "--config", str(cfg))
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1
        assert "format" in err and "abc" in err

    def test_config_value_inside_choices(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("format=csv\norder=0\n")
        code, out, _ = run(capsys, "series", "--config", str(cfg))
        assert code == 0
        assert out.splitlines()[0] == "component,j,power,num,den"

    def test_figure_svg_from_config(self, capsys, tmp_path):
        svg_path = tmp_path / "fig.svg"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"svg={svg_path}\neta-max=6\nstep=0.01\n")
        code, out, _ = run(capsys, "figure", "--config", str(cfg))
        assert code == 0
        assert svg_path.exists()
        assert "figure written" in out

    def test_figure_without_svg_anywhere(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("eta-max=6\nstep=0.01\n")
        code, out, err = run(capsys, "figure", "--config", str(cfg))
        assert code == 2 and out == ""
        assert err.endswith("error: the following arguments are required: --svg\n")

    def test_unknown_config_key(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("no-such-key=5\n")
        code, _, err = run(capsys, "series", "--config", str(cfg))
        assert code == 2
        assert "no-such-key" in err

    def test_bad_config_value(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("order=three\n")
        code, _, err = run(capsys, "series", "--config", str(cfg))
        assert code == 2
        assert "order" in err


class TestHelp:
    @pytest.mark.parametrize("sub", ["series", "shoot", "compare", "figure"])
    def test_every_subcommand_has_help(self, capsys, sub):
        code, out, _ = run(capsys, sub, "--help")
        assert code == 0
        assert "usage:" in out
        assert "exit codes" in out

    def test_top_level_help(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0
        assert "series" in out and "figure" in out


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_transcripts() -> list[tuple[str, str]]:
    """(command, expected stdout) for every ``$ `` line in a fenced block of
    README.md: the output runs to the next ``$ `` line or the end of the
    block, less trailing blank lines."""
    transcripts = []
    for block in re.findall(r"^```.*?\n(.*?)^```", README.read_text(encoding="utf-8"),
                            re.DOTALL | re.MULTILINE):
        for chunk in re.split(r"^\$ ", block, flags=re.MULTILINE)[1:]:
            command, _, output = chunk.partition("\n")
            output = output.rstrip("\n")
            transcripts.append((command, output + "\n" if output else ""))
    return transcripts


TRANSCRIPTS = _readme_transcripts()


class TestReadmeTranscripts:
    def test_readme_has_transcripts(self):
        assert len(TRANSCRIPTS) >= 3

    @pytest.mark.parametrize("command, expected", TRANSCRIPTS, ids=[c for c, _ in TRANSCRIPTS])
    def test_transcript(self, capsys, tmp_path, monkeypatch, command, expected):
        monkeypatch.chdir(tmp_path)  # transcripts write their files to the working directory
        program, *argv = shlex.split(command)
        assert program == "flatplate"
        code, out, err = run(capsys, *argv)
        assert code == 0, err
        assert out == expected


# Values every flag may receive besides its own cheap valid ones.
HOSTILE = ("-1,2", "inf", "-inf", "nan", "0:inf:1", "0:12:1e-9", "1e-300", "abc", "", "-1", "0")


def _values(*valid):
    return st.sampled_from(valid + HOSTILE)


# Output paths stay under the test's directory: the last two fail with exit 4.
_PATHS = st.sampled_from(("{tmp}/out", "{tmp}/missing-dir/out", "{tmp}"))
_SERIES_FLAGS = {
    "--order": _values("0", "3", "6", "61", "1000000000"),
    "--domain-length": _values("5", "11/2", "1"),
    "--epsilon": _values("1", "1/2", "10"),
}
_SHOOT_FLAGS = {
    "--eta-max": _values("0.5", "1", "5", "10"),
    "--step": _values("0.01", "0.05", "0.1", "1"),
    "--tol": _values("1e-8", "1e-12"),
    "--stamp": None,
}
_COMPARE_FLAGS = {
    **_SERIES_FLAGS,
    **_SHOOT_FLAGS,
    "--grid": _values("0:6:0.5", "-1:5:0.1", "0:20000:100", "0:1e-7:1"),
    "--probe": _values("10", "2.5"),
    "--y-window": _values("-0.2,1.4", "-1,2", "0,1e8"),
    "--with-theta": None,
    "--csv": _PATHS,
    "--svg": _PATHS,
}
FLAGS = {
    "series": {**_SERIES_FLAGS, "--format": _values("json", "csv", "pretty"), "--out": _PATHS},
    "shoot": {**_SHOOT_FLAGS, "--trajectory-out": _PATHS},
    "compare": _COMPARE_FLAGS,
    "figure": _COMPARE_FLAGS,
}


def test_fuzz_flags_match_the_parser():
    # a flag the parser has but FLAGS lacks would never be fuzzed
    actions = build_parser()._actions
    (subparsers,) = [a for a in actions if isinstance(a, argparse._SubParsersAction)]
    assert set(subparsers.choices) == set(FLAGS)
    for sub, parser in subparsers.choices.items():
        options = {s for action in parser._actions for s in action.option_strings}
        assert options - {"-h", "--help", "--config"} == set(FLAGS[sub]), sub


@st.composite
def argv_for_main(draw):
    """A subcommand and up to five of its flags, as --flag value or --flag=value."""
    sub = draw(st.sampled_from(sorted(FLAGS)))
    argv = [sub]
    for flag in draw(st.lists(st.sampled_from(sorted(FLAGS[sub])), unique=True, max_size=5)):
        values = FLAGS[sub][flag]
        if values is None:
            argv.append(flag)
        elif draw(st.booleans()):
            argv.append(f"{flag}={draw(values)}")
        else:
            argv += [flag, draw(values)]
    return argv


# Config-file values for on/off keys.
_SWITCH_VALUES = st.sampled_from(("yes", "maybe", ""))


@st.composite
def config_for_main(draw):
    """A subcommand and up to five config lines: key=value lines for its flags
    or an unknown key, and bare keys without '='."""
    sub = draw(st.sampled_from(sorted(FLAGS)))
    lines = []
    keys = st.sampled_from([*sorted(FLAGS[sub]), "--no-such-key"])
    for flag in draw(st.lists(keys, max_size=5)):
        values = FLAGS[sub].get(flag)
        value = draw(_SWITCH_VALUES if values is None else values)
        lines.append(draw(st.sampled_from((f"{flag[2:]}={value}", flag[2:]))))
    return sub, lines


@st.composite
def settings_for_main(draw):
    """A subcommand and up to five distinct (flag, value) pairs of its flags;
    on/off flags take the config-file values of ``_SWITCH_VALUES``."""
    sub = draw(st.sampled_from(sorted(FLAGS)))
    pairs = []
    for flag in draw(st.lists(st.sampled_from(sorted(FLAGS[sub])), unique=True, max_size=5)):
        values = FLAGS[sub][flag]
        pairs.append((flag, draw(_SWITCH_VALUES if values is None else values)))
    return sub, pairs


def _run_main_quietly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


class TestMainFuzz:
    @pytest.fixture(scope="class")
    def out_dir(self, tmp_path_factory):
        return tmp_path_factory.mktemp("main-fuzz")

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(argv=argv_for_main())
    @example(argv=["compare", "--grid", "0:inf:1"])
    @example(argv=["figure", "--svg", "{tmp}/out", "--grid", "0:1e-7:1"])
    @example(argv=["compare", "--probe", "-inf"])
    @example(argv=["series", "--domain-length", "1e-300"])
    def test_exit_code_without_traceback(self, out_dir, argv):
        argv = [arg.replace("{tmp}", str(out_dir)) for arg in argv]
        code, err = _run_main_quietly(argv)
        assert code in {0, 2, 3, 4}, (argv, err)
        assert "Traceback" not in err

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(case=config_for_main())
    @example(case=("series", ["order=1000000000"]))
    @example(case=("figure", ["svg={tmp}/out", "y-window=0,inf"]))
    def test_config_file_exit_code_without_traceback(self, out_dir, case):
        sub, lines = case
        config = out_dir / "fuzz.cfg"
        config.write_text("".join(f"{line}\n" for line in lines).replace("{tmp}", str(out_dir)))
        code, err = _run_main_quietly([sub, "--config", str(config)])
        assert code in {0, 2, 3, 4}, (lines, err)
        assert "Traceback" not in err

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(case=settings_for_main())
    @example(case=("series", [("--format", "abc")]))
    @example(case=("figure", [("--svg", "{tmp}/out"), ("--eta-max", "6"), ("--step", "0.01")]))
    def test_config_file_matches_flags(self, out_dir, case):
        # the same settings as key=value lines and as --key=value flags end alike
        sub, pairs = case
        switches = {flag for flag, _ in pairs if FLAGS[sub][flag] is None}
        assume(all(value == "yes" for flag, value in pairs if flag in switches))
        config = out_dir / "same.cfg"
        config.write_text(
            "".join(f"{flag[2:]}={value}\n" for flag, value in pairs).replace("{tmp}", str(out_dir))
        )
        flags = [flag if flag in switches else f"{flag}={value}" for flag, value in pairs]
        flags = [arg.replace("{tmp}", str(out_dir)) for arg in flags]
        config_code, config_err = _run_main_quietly([sub, "--config", str(config)])
        flag_code, flag_err = _run_main_quietly([sub, *flags])
        assert config_code == flag_code, (pairs, config_err, flag_err)
