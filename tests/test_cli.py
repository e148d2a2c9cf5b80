"""Command-line behavior: flags, outputs, and the documented exit codes."""

import json

import pytest

from flatplate.cli import main
from flatplate.hpm import HpmConfig, build_series, series_from_document


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_unknown_flag_rejected(self, capsys):
        code, _, _ = run(capsys, "series", "--no-such-flag")
        assert code == 2

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

    def test_bracket_without_sign_change(self, capsys):
        code, _, err = run(capsys, "shoot", "--bracket", "0.5,0.6")
        assert code == 3
        assert "g(0.5)" in err and "g(0.6)" in err

    def test_trajectory_out(self, capsys, tmp_path):
        target = tmp_path / "traj.csv"
        code, _, _ = run(capsys, "shoot", "--eta-max", "2", "--step", "0.01",
                         "--tol", "1e-6", "--bracket", "0.4,1.2",
                         "--trajectory-out", str(target))
        assert code == 0
        lines = target.read_text().splitlines()
        assert lines[0] == "eta,f,fp,fpp"
        assert len(lines) == 1 + 201

    def test_invalid_settings_exit_2(self, capsys):
        code, _, err = run(capsys, "shoot", "--step", "0")
        assert code == 2
        assert "step" in err

    @pytest.mark.parametrize(
        "flags",
        [("--eta-max", "inf"), ("--eta-max", "nan"), ("--tol", "inf"),
         ("--bracket=-inf,1",), ("--step", "1e-9")],
    )
    def test_unusable_settings_exit_2_with_one_line(self, capsys, flags):
        code, out, err = run(capsys, "shoot", *flags)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


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
        code, _, _ = run(capsys, "figure")
        assert code == 2

    def test_writes_figure(self, capsys, tmp_path):
        svg_path = tmp_path / "fig.svg"
        code, out, _ = run(capsys, "figure", "--svg", str(svg_path),
                           "--eta-max", "6", "--step", "0.01")
        assert code == 0
        assert svg_path.exists()
        assert "figure written" in out


class TestConfigFile:
    def test_config_overrides_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("order=0\ndomain-length=10\n")
        code, out, _ = run(capsys, "series", "--config", str(cfg))
        assert code == 0
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
        cfg.write_text("eta-max=6\nstep=0.01\nbracket=0.2,0.9\n")
        code, out, _ = run(capsys, "shoot", "--config", str(cfg))
        assert code == 0
        assert "eta_max = 6)" in out

    def test_config_switch(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("with-theta=yes\neta-max=6\nstep=0.01\n")
        csv_path = tmp_path / "theta.csv"
        code, _, _ = run(capsys, "compare", "--config", str(cfg), "--csv", str(csv_path))
        assert code == 0
        assert csv_path.read_text().splitlines()[0].endswith("theta_numerical,theta_hpm")

    def test_bad_config_switch(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("stamp=maybe\n")
        code, _, err = run(capsys, "shoot", "--config", str(cfg))
        assert code == 2
        assert "stamp" in err

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
