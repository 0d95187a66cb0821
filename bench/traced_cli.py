"""Run the orbitrecur CLI with every layer's public functions traced.

Usage: python traced_cli.py TRACE_JSON CLI_ARGS...

The CLI arguments go to `orbitrecur.expcli.main` unchanged. On exit the
per-function counts and times, and the time taken to import the package,
are written to TRACE_JSON; the exit code is the CLI's.
"""

from __future__ import annotations

import json
import sys
import time

from tracer import Tracer


def main() -> int:
    trace_path, cli_args = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import orbitrecur.expcli as expcli
    import_s = time.perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    try:
        return expcli.main(cli_args)
    finally:
        tracer.uninstall()
        with open(trace_path, "w") as fh:
            json.dump({"import_s": import_s, "functions": tracer.summary()}, fh)


if __name__ == "__main__":
    sys.exit(main())
