"""Run ``latdeg.cli.main`` with benchmark spans installed.

Usage (from the repository root, with ``src`` on PYTHONPATH):

    python bench/cli_driver.py <latdeg cli arguments>

Stdout and the exit code are the CLI's own.  The last stderr line is
``LATDEG_BENCH_TRACE <json>`` with the spans, the exact counts, and the
CLOCK_MONOTONIC readings taken when this script started and when
``import latdeg.cli`` returned, so the parent can split a process into
interpreter start, import and ``main``.
"""

import time

START = time.monotonic()

import json  # noqa: E402
import sys  # noqa: E402

import latdeg.cli  # noqa: E402

IMPORTED = time.monotonic()

import tracing  # noqa: E402


def main() -> int:
    tracer = tracing.Tracer()
    with tracer.installed():
        code = latdeg.cli.main(sys.argv[1:])
    sys.stdout.flush()
    payload = tracer.export()
    payload.update(start=START, imported=IMPORTED)
    sys.stderr.write("\n" + tracing.TRACE_PREFIX + json.dumps(payload) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
