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

Each run loads only what its subcommand runs, and importing this module
loads none of the layers.  ``_series_from_args``, which the ``series``,
``compare`` and ``figure`` handlers run, imports the series engine
(``exact``, ``hpm``); the ``shoot``, ``compare`` and ``figure`` handlers
import ``shooting`` and ``report`` when they start.  Every handler calls
the functions of a layer through its module, but for ``series_to_document``,
read on this module (see ``_render_series``).  So ``--help``, a usage error
and ``shoot`` never load the series engine, and ``series`` never loads the
shooting or report layers.  No default run loads ``dataclasses``: the
records of every layer load it only for a caller of the dataclasses API
(see ``_record``).  Seven functions of those layers, two of them from
``hpm``, stay readable as attributes of this module (see ``__getattr__``),
because the benchmark's tracer, bench/tracer.py, wraps them here by name.

A run ends through ``entry``: it freezes the heap once ``main`` returns, so
the interpreter's exit skips collecting and freeing the cyclic garbage of
the run.  atexit handlers still run and stdout and stderr are still
flushed.  In-process callers of ``main`` keep a normal collector.
"""

from __future__ import annotations

import argparse
import gc
import re
import sys
from importlib import import_module
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    from .hpm import HpmSeries
    from .shooting import IntegratorSettings

# Functions of the series engine, shooting and report layers that
# bench/tracer.py reads, and wraps, on this module without loading any layer
# at import.  Each read fetches the current attribute of the home module the
# package names for it.
_DEFERRED = (
    "build_series",
    "series_to_document",
    "solve_shooting",
    "write_trajectory_csv",
    "compare",
    "emit_csv",
    "emit_svg_figure",
)


def __getattr__(name: str):
    if name in _DEFERRED:
        return getattr(import_module(__package__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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


# Flag groups: each maps a flag to its add_argument keywords, in --help order.
_SERIES_FLAGS = {
    "--order": dict(type=int, default=3, help="highest correction order kept"),
    "--domain-length": dict(
        default="5", metavar="L", help="truncated domain length, a rational literal like 5 or 11/2"
    ),
    "--epsilon": dict(
        default="1", metavar="E", help="temperature-equation coefficient, a rational literal"
    ),
}
_SERIES_OUTPUT_FLAGS = {
    "--format": dict(choices=("json", "csv", "pretty"), default="pretty", help="output format"),
    "--out": dict(help="output path (default: stdout)"),
}
_SHOOT_FLAGS = {
    "--eta-max": dict(type=float, default=10.0, help="truncation of infinity"),
    "--step": dict(type=float, default=1.0e-3, help="fixed RK4 step"),
    "--tol": dict(type=float, default=1.0e-8, help="far-boundary residual tolerance"),
}
_TRAJECTORY_FLAGS = {"--trajectory-out": dict(help="write the converged trajectory CSV here")}
_COMPARE_FLAGS = {
    "--grid": dict(
        type=_numbers("START:STOP:STEP"),
        default=(0.0, 12.0, 0.05),
        metavar="START:STOP:STEP",
        help="comparison grid in eta",
    ),
    "--probe": dict(
        type=float,
        default=10.0,
        metavar="ETA",
        help="eta at which the outside-the-domain deviation is measured",
    ),
    "--csv": dict(help="write the gridded profiles here"),
    "--svg": dict(help="write the comparison figure here"),
    "--y-window": dict(
        type=_numbers("LO,HI"),
        default=(-0.2, 1.4),
        metavar="LO,HI",
        help="figure y-axis clamp window",
    ),
    "--with-theta": dict(
        action="store_true", help="add temperature columns from both methods to the CSV"
    ),
}
_STAMP_FLAGS = {"--stamp": dict(action="store_true", help="add metadata comments to CSV output")}


# Namespace entries that are not flags and so cannot come from a config file.
_NOT_CONFIGURABLE = {"subcommand", "handler", "command_parser", "config"}


def _load_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path, "r", encoding="utf-8-sig") as handle:
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
    import shlex  # only stamped runs pay for these imports
    from datetime import datetime, timezone

    when = datetime.now(timezone.utc).replace(microsecond=0).isoformat()
    # shell-quoted, and one line whatever the paths hold, so it stays a comment
    invocation = shlex.join(["flatplate", *args.raw_argv])
    invocation = invocation.replace("\r", "\\r").replace("\n", "\\n")
    return (f"generated-at={when}", f"invocation={invocation}")


def _series_from_args(args: argparse.Namespace) -> HpmSeries:
    from . import hpm
    from .exact import as_rational

    config = hpm.HpmConfig(
        order=args.order,
        L=as_rational(args.domain_length, flag="--domain-length"),
        epsilon=as_rational(args.epsilon, flag="--epsilon"),
    )
    return hpm.build_series(config)


def _settings_from_args(args: argparse.Namespace) -> IntegratorSettings:
    from .shooting import IntegratorSettings

    return IntegratorSettings(eta_max=args.eta_max, step=args.step, shoot_tol=args.tol)


def _render_series(series: HpmSeries, fmt: str) -> str:
    if fmt == "json":
        import json

        # read on this module, where bench/tracer.py wraps it (see _DEFERRED)
        document = sys.modules[__name__].series_to_document(series)
        return json.dumps(document, indent=2) + "\n"
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
    try:
        approx = float(wall)
    except OverflowError:  # the exact value prints at any L; its float may not exist
        lines.append(f"f''(0) = {wall} (beyond the float range)")
    else:
        from ._format import round_half_up

        lines.append(f"f''(0) = {wall} ~ {approx:.7f} ({round_half_up(approx, 3)} at 3 decimals)")
    return "\n".join(lines) + "\n"


def run_series(args: argparse.Namespace) -> int:
    text = _render_series(_series_from_args(args), args.format)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


# The handlers below import the layers they run and call through the
# modules at call time, so a function replaced on its module (as
# bench/tracer.py does) is the one that runs.


def run_shoot(args: argparse.Namespace) -> int:
    from . import shooting

    settings = _settings_from_args(args)
    result = shooting.solve_shooting(settings)
    print(f"s* = {result.s_star:.7f}  (f''(0) from shooting, eta_max = {settings.eta_max:g})")
    print(f"residual |f'(eta_max) - 1| = {result.residual:.3e}  (tol {settings.shoot_tol:g})")
    print(f"search passes = {result.iterations}")
    if args.trajectory_out:
        shooting.write_trajectory_csv(result.trajectory, args.trajectory_out, _stamp_lines(args))
        print(f"trajectory written to {args.trajectory_out}")
    return 0


def run_compare(args: argparse.Namespace) -> int:
    from . import report, shooting

    report.check_y_window(args.y_window)  # before the solves, whether or not a figure is asked for
    series = _series_from_args(args)
    settings = _settings_from_args(args)
    start, stop, step = args.grid
    grid = report.Grid(start=start, stop=stop, step=step)
    shot = shooting.solve_shooting(settings)
    result = report.compare(series, shot, grid, probe_eta=args.probe, with_theta=args.with_theta)
    for line in report.summary_lines(result):
        print(line)
    if args.csv:
        report.emit_csv(result, args.csv, _stamp_lines(args))
        print(f"profiles written to {args.csv}")
    if args.svg:
        report.emit_svg_figure(result, args.svg, y_window=args.y_window)
        print(f"figure written to {args.svg}")
    return 0


# (name, help, flag groups, handler), one row per subcommand, in --help order.
_COMPARE_GROUPS = (_SERIES_FLAGS, _SHOOT_FLAGS, _COMPARE_FLAGS, _STAMP_FLAGS)
_SUBCOMMANDS = (
    ("series", "build the exact correction polynomials",
     (_SERIES_FLAGS, _SERIES_OUTPUT_FLAGS), run_series),
    ("shoot", "solve for f''(0) by shooting",
     (_SHOOT_FLAGS, _TRAJECTORY_FLAGS, _STAMP_FLAGS), run_shoot),
    ("compare", "compare the series against the numerical solution",
     _COMPARE_GROUPS, run_compare),
    ("figure", "emit the comparison figure (requires --svg)",
     _COMPARE_GROUPS, run_compare),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flatplate",
        description="Exact truncated-domain series and shooting solutions "
        "for the flat-plate boundary layer.",
        epilog=_EXIT_CODES_HELP,
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, help_text, groups, handler in _SUBCOMMANDS:
        p = sub.add_parser(name, help=help_text, epilog=_EXIT_CODES_HELP)
        for group in groups:
            for flag, keywords in group.items():
                p.add_argument(flag, **keywords)
        p.add_argument("--config", help="flat key=value file overriding flag defaults")
        p.set_defaults(handler=handler, command_parser=p)
        p._negative_number_matcher = _NEGATIVE_VALUE
    return parser


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


def _shooting_errors() -> tuple[type[Exception], ...]:
    """ShootingError once the solver is loaded, else nothing: only the solver
    raises it.  An ``except`` clause evaluates this only when an exception
    reaches it, so a run that never shoots never loads the solver for it."""
    shooting = sys.modules.get(f"{__package__}.shooting")
    return (shooting.ShootingError,) if shooting else ()


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _parse_args(argv)
        return args.handler(args)
    except SystemExit as exc:  # argparse has already printed the message
        return int(exc.code or 0)
    except ValueError as exc:
        message = str(exc)
        if "integer string conversion" in message:  # str() of an exact value, in any subcommand
            message = (
                "a coefficient passes Python's int-to-string limit of "
                f"{sys.get_int_max_str_digits()} digits; lower --order, give --domain-length and "
                "--epsilon fewer digits, or set the PYTHONINTMAXSTRDIGITS environment variable"
            )
        print(f"error: {message}", file=sys.stderr)
        return 2
    except OverflowError as exc:  # the series, or a power of eta, leaves the float range
        # float ** int raises it with (errno, text) as its args; print the text
        print(f"error: out of float range: {exc.args[-1] if exc.args else exc}", file=sys.stderr)
        return 2
    except _shooting_errors() as exc:
        print(f"shooting failed: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        target = getattr(exc, "filename", None)
        where = f" ({target})" if target else ""
        print(f"i/o failure{where}: {exc}", file=sys.stderr)
        return 4


def entry() -> None:
    """Console-script and ``python -m flatplate`` entry: ``main``, then exit.

    ``gc.freeze()`` moves every tracked object to the permanent generation,
    which no collection visits, so the exit-time collections of
    ``Py_FinalizeEx`` find nothing to collect or free, in a process that is
    about to end anyway.  atexit handlers still run, and stdout and stderr
    are still flushed.  This is safe because every file a run writes is
    closed before ``main`` returns (every writer uses ``with open``): no
    output waits on a finalizer that the freeze would skip.
    """
    code = main()
    gc.freeze()
    raise SystemExit(code)


if __name__ == "__main__":
    entry()
