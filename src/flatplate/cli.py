"""Command-line front end: reproducible series/shooting/comparison runs.

Four subcommands: ``series`` (exact correction polynomials), ``shoot``
(numerical reference solution), ``compare`` (metrics + optional CSV/SVG),
``figure`` (the comparison figure).  Exit codes are stable: 0 success,
2 argument error, 3 solver failure, 4 I/O failure.

Data outputs contain no timestamps, so identical invocations are
bit-identical; ``--stamp`` opts into metadata comment lines.  A ``--config``
file of flat key=value pairs can override defaults; explicit flags win over
the config file.  Values that start with a minus sign may follow their flag
after a space (``--grid -1:5:0.1``, ``--probe -inf``).
"""

from __future__ import annotations

import argparse
import json
import re
import shlex
import sys
from datetime import datetime, timezone
from typing import Sequence

from .exact import as_rational
from .hpm import HpmConfig, HpmSeries, build_series, series_to_document
from .report import (
    Grid,
    check_y_window,
    compare,
    emit_csv,
    emit_svg_figure,
    round_half_up,
    summary_lines,
)
from .shooting import (
    IntegratorSettings,
    ShootingError,
    solve_shooting,
    write_trajectory_csv,
)

_EXIT_CODES_HELP = (
    "exit codes: 0 success, 2 argument error, 3 solver failure, 4 I/O failure"
)

# Arguments argparse must read as values, not as flags: every number, range
# or pair that starts with a minus sign (-1:5:0.1, -1,2, -.5, -inf, -nan).
# No flag name starts this way.
_NEGATIVE_VALUE = re.compile(r"^-(\.?\d|inf|nan)", re.IGNORECASE)


def _numbers(metavar: str):
    """argparse type for numbers spelled like ``metavar``: "LO,HI" or
    "START:STOP:STEP" (the separator and the count come from the metavar)."""
    sep = "," if "," in metavar else ":"
    count = metavar.count(sep) + 1

    def parse(text: str) -> tuple[float, ...]:
        try:
            values = tuple(float(part) for part in text.split(sep))
        except ValueError:
            values = ()
        if len(values) != count:
            raise argparse.ArgumentTypeError(f"expected {metavar}, got {text!r}")
        return values

    return parse


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in {"1", "true", "yes", "on"}:
        return True
    if lowered in {"0", "false", "no", "off"}:
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _add_series_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--order", type=int, default=3, help="highest correction order kept")
    parser.add_argument(
        "--domain-length",
        default="5",
        metavar="L",
        help="truncated domain length, a rational literal like 5 or 11/2",
    )
    parser.add_argument(
        "--epsilon",
        default="1",
        metavar="E",
        help="temperature-equation coefficient, a rational literal",
    )


def _add_shoot_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--eta-max", type=float, default=10.0, help="truncation of infinity")
    parser.add_argument("--step", type=float, default=1.0e-3, help="fixed RK4 step")
    parser.add_argument("--tol", type=float, default=1.0e-8, help="far-boundary residual tolerance")


def _add_compare_flags(parser: argparse.ArgumentParser) -> None:
    _add_series_flags(parser)
    _add_shoot_flags(parser)
    parser.add_argument(
        "--grid",
        type=_numbers("START:STOP:STEP"),
        default=(0.0, 12.0, 0.05),
        metavar="START:STOP:STEP",
        help="comparison grid in eta",
    )
    parser.add_argument("--probe", type=float, default=10.0, metavar="ETA",
                        help="eta at which the outside-the-domain deviation is measured")
    parser.add_argument("--csv", help="write the gridded profiles here")
    parser.add_argument("--svg", help="write the comparison figure here")
    parser.add_argument(
        "--y-window",
        type=_numbers("LO,HI"),
        default=(-0.2, 1.4),
        metavar="LO,HI",
        help="figure y-axis clamp window",
    )
    parser.add_argument(
        "--with-theta",
        action="store_true",
        help="add temperature columns from both methods to the CSV",
    )
    parser.add_argument("--stamp", action="store_true", help="add metadata comments to CSV output")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flatplate",
        description="Exact truncated-domain series and shooting solutions "
        "for the flat-plate boundary layer.",
        epilog=_EXIT_CODES_HELP,
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_series = sub.add_parser(
        "series",
        help="build the exact correction polynomials",
        epilog=_EXIT_CODES_HELP,
    )
    _add_series_flags(p_series)
    p_series.add_argument(
        "--format", choices=("json", "csv", "pretty"), default="pretty", help="output format"
    )
    p_series.add_argument("--out", help="output path (default: stdout)")
    p_series.set_defaults(handler=run_series)

    p_shoot = sub.add_parser(
        "shoot",
        help="solve for f''(0) by shooting",
        epilog=_EXIT_CODES_HELP,
    )
    _add_shoot_flags(p_shoot)
    p_shoot.add_argument("--trajectory-out", help="write the converged trajectory CSV here")
    p_shoot.add_argument("--stamp", action="store_true",
                         help="add metadata comments to CSV output")
    p_shoot.set_defaults(handler=run_shoot)

    p_compare = sub.add_parser(
        "compare",
        help="compare the series against the numerical solution",
        epilog=_EXIT_CODES_HELP,
    )
    _add_compare_flags(p_compare)
    p_compare.set_defaults(handler=run_compare)

    p_figure = sub.add_parser(
        "figure",
        help="emit the comparison figure (requires --svg)",
        epilog=_EXIT_CODES_HELP,
    )
    _add_compare_flags(p_figure)
    p_figure.set_defaults(handler=run_compare)

    for p in (p_series, p_shoot, p_compare, p_figure):
        p.add_argument("--config", help="flat key=value file overriding flag defaults")
        p.set_defaults(command_parser=p)
        p._negative_number_matcher = _NEGATIVE_VALUE
    return parser


# Namespace entries that are not flags and so cannot come from a config file.
_NOT_CONFIGURABLE = {"subcommand", "handler", "command_parser", "config"}


def _load_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for raw in handle:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ValueError(f"config line is not key=value: {line!r}")
            values[key.strip()] = value.strip()
    return values


def _config_defaults(args: argparse.Namespace) -> dict:
    """Config-file values keyed by flag destination, to become parser defaults.

    argparse converts string defaults with the flag's ``type=`` when the flag
    is absent, so only the on/off flags need converting here; it checks
    ``choices`` only on the command line, so they are checked here.
    """
    actions = {action.dest: action for action in args.command_parser._actions}
    defaults = {}
    for key, raw in _load_config_file(args.config).items():
        dest = key.replace("-", "_")
        if dest not in vars(args) or dest in _NOT_CONFIGURABLE:
            raise ValueError(f"unknown config key {key!r}")
        choices = actions[dest].choices
        if isinstance(getattr(args, dest), bool):
            try:
                defaults[dest] = _parse_bool(raw)
            except ValueError as exc:
                raise ValueError(f"config key {key!r}: {exc}") from None
        elif choices is not None and raw not in choices:
            raise ValueError(
                f"config key {key!r}: expected one of {', '.join(choices)}, got {raw!r}"
            )
        else:
            defaults[dest] = raw
    return defaults


def _stamp_lines(args: argparse.Namespace) -> tuple[str, ...]:
    if not getattr(args, "stamp", False):
        return ()
    when = datetime.now(timezone.utc).replace(microsecond=0).isoformat()
    # shell-quoted, and one line whatever the paths hold, so it stays a comment
    invocation = shlex.join(["flatplate", *args.raw_argv])
    invocation = invocation.replace("\r", "\\r").replace("\n", "\\n")
    return (f"generated-at={when}", f"invocation={invocation}")


def _series_from_args(args: argparse.Namespace) -> HpmSeries:
    config = HpmConfig(
        order=args.order,
        L=as_rational(args.domain_length, flag="--domain-length"),
        epsilon=as_rational(args.epsilon, flag="--epsilon"),
    )
    return build_series(config)


def _settings_from_args(args: argparse.Namespace) -> IntegratorSettings:
    return IntegratorSettings(eta_max=args.eta_max, step=args.step, shoot_tol=args.tol)


def _render_series(series: HpmSeries, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(series_to_document(series), indent=2) + "\n"
    if fmt == "csv":
        lines = ["component,j,power,num,den"]
        for name, corrections in (("f", series.f_corrections), ("theta", series.theta_corrections)):
            for j, poly in enumerate(corrections):
                for power, coeff in poly.terms():
                    lines.append(f"{name},{j},{power},{coeff.numerator},{coeff.denominator}")
        return "\n".join(lines) + "\n"
    cfg = series.config
    lines = [f"order = {cfg.order}, L = {cfg.L}, epsilon = {cfg.epsilon}"]
    for j, poly in enumerate(series.f_corrections):
        lines.append(f"f{j} = {poly}")
    for j, poly in enumerate(series.theta_corrections):
        lines.append(f"theta{j} = {poly}")
    f_sum = series.partial_sum("f")
    theta_sum = series.partial_sum("theta")
    lines.append(f"f = {f_sum}")
    lines.append(f"theta = {theta_sum}")
    wall = 2 * f_sum.coefficient(2)
    lines.append(
        f"f''(0) = {wall} ~ {float(wall):.7f} ({round_half_up(float(wall), 3)} at 3 decimals)"
    )
    return "\n".join(lines) + "\n"


def run_series(args: argparse.Namespace) -> int:
    series = _series_from_args(args)
    text = _render_series(series, args.format)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


def run_shoot(args: argparse.Namespace) -> int:
    settings = _settings_from_args(args)
    result = solve_shooting(settings)
    print(f"s* = {result.s_star:.7f}  (f''(0) from shooting, eta_max = {settings.eta_max:g})")
    print(f"residual |f'(eta_max) - 1| = {result.residual:.3e}  (tol {settings.shoot_tol:g})")
    print(f"search passes = {result.iterations}")
    if args.trajectory_out:
        write_trajectory_csv(result.trajectory, args.trajectory_out, _stamp_lines(args))
        print(f"trajectory written to {args.trajectory_out}")
    return 0


def run_compare(args: argparse.Namespace) -> int:
    check_y_window(args.y_window)  # before the solves, whether or not a figure is asked for
    series = _series_from_args(args)
    settings = _settings_from_args(args)
    start, stop, step = args.grid
    grid = Grid(start=start, stop=stop, step=step)
    shot = solve_shooting(settings)
    report = compare(series, shot, grid, probe_eta=args.probe, with_theta=args.with_theta)
    for line in summary_lines(report):
        print(line)
    if args.csv:
        emit_csv(report, args.csv, _stamp_lines(args))
        print(f"profiles written to {args.csv}")
    if args.svg:
        emit_svg_figure(report, args.svg, y_window=args.y_window)
        print(f"figure written to {args.svg}")
    return 0


def _parse_args(argv: list[str]) -> argparse.Namespace:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config:
        # config values become defaults, so a flag given on the command line
        # wins however it is spelled, abbreviations included
        args.command_parser.set_defaults(**_config_defaults(args))
        args = parser.parse_args(argv)
    if args.subcommand == "figure" and not args.svg:  # may come from the config file
        args.command_parser.error("the following arguments are required: --svg")
    args.raw_argv = argv
    return args


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _parse_args(argv)
        return args.handler(args)
    except SystemExit as exc:  # argparse has already printed the message
        return int(exc.code or 0)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:  # the series, or a power of eta, leaves the float range
        print(f"error: out of float range: {exc}", file=sys.stderr)
        return 2
    except ShootingError as exc:
        print(f"shooting failed: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        target = getattr(exc, "filename", None)
        where = f" ({target})" if target else ""
        print(f"i/o failure{where}: {exc}", file=sys.stderr)
        return 4


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
