"""Run one traced `flatplate` command in this process.

    python3 bench/launcher.py SPANS_JSON [flatplate arguments ...]

Times the import of ``flatplate.cli`` and the call of ``flatplate.cli.main``
with the benchmark's wrappers installed, writes the spans to SPANS_JSON and
exits with main's exit code.  ``flatplate`` must be importable (the harness
puts the checkout's ``src`` on PYTHONPATH).
"""

import json
import sys
import time

from tracer import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    start = time.perf_counter()
    import flatplate.cli

    tracer.seconds["cli.import_s"] = time.perf_counter() - start
    with tracer.installed(), tracer.span("cli.main"):
        code = flatplate.cli.main(argv)
    with open(spans_path, "w", encoding="utf-8") as handle:
        json.dump(tracer.to_obj(), handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
