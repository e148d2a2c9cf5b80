#!/usr/bin/env python3
"""Self-test of the benchmark's output checks and of its printed metrics.

    python3 bench/selftest.py

Produces one good output per workload with the real program, asserts that
the checks pass it, then asserts that they fail each corrupted copy: one
JSON byte flipped, s* shifted by 1e-5, a truncated CSV and an SVG without
the ``hpm`` polyline.  Finally runs every workload briefly through
``run.py`` and asserts that one command prints every end-to-end metric of
BENCHMARK.json by name with its unit.  Exits 1 on the first failed
assertion.
"""

from __future__ import annotations

import json
import random
import re
import shutil
import subprocess
import sys
from fractions import Fraction

import run

S_STAR_SHIFT = 1.0e-5


def expect(condition: bool, what: str) -> None:
    if not condition:
        print(f"FAIL {what}")
        sys.exit(1)
    print(f"ok   {what}")


def passes(workload, op, output) -> bool:
    return run.checked(workload, op, output, [])


def flip_digit(data: bytes) -> bytes:
    """Flip the low bit of the middle digit of a coefficient, so the
    JSON still parses but one exact value changes."""
    digits = [m.start(1) for m in re.finditer(rb'"num": "-?[0-9]*([0-9])"', data)]
    i = digits[len(digits) // 2]
    return data[:i] + bytes([data[i] ^ 1]) + data[i + 1:]


def without_hpm_curve(svg: str) -> str:
    return re.sub(r'<polyline id="hpm"[^>]*/>', "", svg)


def truncated(text: str) -> str:
    return text[: len(text) // 2]


def shifted_summary(stdout: str) -> str:
    def shift(match):
        return f"numerical = {float(match.group(1)) + S_STAR_SHIFT:.7f}"

    return re.sub(r"numerical = (-?[0-9.]+)", shift, stdout)


def test_cli_paper(workdir) -> None:
    cli = run.CliPaper(random.Random(0), workdir)
    series_out = cli.run("series", None)
    expect(passes(cli, "series", series_out), "cli_paper series output passes")
    proc, path = series_out
    path.write_bytes(flip_digit(path.read_bytes()))
    expect(not passes(cli, "series", series_out), "cli_paper fails a flipped JSON byte")

    compare_out = cli.run("compare", None)
    expect(passes(cli, "compare", compare_out), "cli_paper compare output passes")
    proc, path = compare_out
    shifted = subprocess.CompletedProcess(proc.args, proc.returncode,
                                          shifted_summary(proc.stdout), proc.stderr)
    expect(not passes(cli, "compare", (shifted, path)), "cli_paper fails s* shifted by 1e-5")
    path.write_text(truncated(path.read_text()))
    expect(not passes(cli, "compare", compare_out), "cli_paper fails a truncated CSV")

    figure_out = cli.run("figure", None)
    expect(passes(cli, "figure", figure_out), "cli_paper figure output passes")
    path = figure_out[1]
    path.write_text(without_hpm_curve(path.read_text()))
    expect(not passes(cli, "figure", figure_out), "cli_paper fails an SVG without hpm")


def test_series_ladder(workdir) -> None:
    ladder = run.SeriesLadder(random.Random(0), workdir)
    op = (12, Fraction(7, 2), Fraction(7, 10))
    series, text, values = ladder.run(op, None)
    expect(passes(ladder, op, (series, text, values)), "series_ladder output passes")
    bad = flip_digit(text.encode()).decode()
    expect(not passes(ladder, op, (series, bad, values)), "series_ladder fails a flipped JSON byte")


def test_profile_export(workdir) -> None:
    from flatplate import shooting

    export = run.ProfileExport(random.Random(0), workdir)
    run.set_up(export)
    op = (8.0, 12, 0.01)
    output = export.run(op, None)
    expect(passes(export, op, output), "profile_export output passes")

    settings, trajectory, theta, result, paths = output
    s_star = export.shots[8.0].s_star + S_STAR_SHIFT
    moved = shooting.integrate_blasius(s_star, settings)
    expect(not passes(export, op, (settings, moved, theta, result, paths)),
           "profile_export fails s* shifted by 1e-5")

    csv_text = paths["csv"].read_text()
    paths["csv"].write_text(truncated(csv_text))
    expect(not passes(export, op, output), "profile_export fails a truncated CSV")
    paths["csv"].write_text(csv_text)

    paths["svg"].write_text(without_hpm_curve(paths["svg"].read_text()))
    expect(not passes(export, op, output), "profile_export fails an SVG without hpm")


def test_printed_metrics() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect({m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS,
           "BENCHMARK.json end_to_end matches the harness")
    expect({m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS,
           "BENCHMARK.json per_layer matches the harness")
    for workload in [w["name"] for w in spec["workloads"]]:
        proc = subprocess.run(
            [sys.executable, str(run.ROOT / spec["command"][1]), "--workload", workload,
             "--seed", "7", "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, cwd=run.ROOT,
        )
        lines = proc.stdout.splitlines()
        result = json.loads(lines[-1])
        expect(proc.returncode == 0 and result["correct"] and result["failed"] == 0,
               f"{workload}: brief run is correct")
        for m in spec["end_to_end"]:
            shown = any(re.match(rf"\s+{re.escape(m['name'])}\s+\S+\s+{re.escape(m['unit'])}$", l)
                        for l in lines)
            expect(shown and result["metrics"][m["name"]]["unit"] == m["unit"],
                   f"{workload}: prints {m['name']} in {m['unit']}")


def main() -> int:
    if not (run.SRC / "flatplate" / "__init__.py").is_file():
        print(f"error: no flatplate sources under {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    workdir = run.OUT / "selftest"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        test_cli_paper(workdir)
        test_series_ladder(workdir)
        test_profile_export(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    test_printed_metrics()
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
