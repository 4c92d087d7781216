"""Run one ``dagdecode`` CLI invocation with the span tracer installed.

Usage: ``python3 cli_traced.py SPANS_FILE -- <dagdecode arguments>``

Behaves like the ``dagdecode`` console script (same stdout, stderr and exit
code) and additionally writes the recorded spans and counters as JSON to
SPANS_FILE. ``PYTHONPATH`` must point at the checkout's ``src``.
"""

import json
import sys
from pathlib import Path

import dagdecode.cli
import spans  # beside this script, so on sys.path when it runs


def main() -> int:
    spans_file, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: cli_traced.py SPANS_FILE -- <dagdecode arguments>")
    tracer = spans.Tracer()
    tracer.install(count_reads=True)
    try:
        code = dagdecode.cli.run_cli(argv)
    finally:
        tracer.uninstall()
        Path(spans_file).write_text(json.dumps(tracer.dump()))
    return code


if __name__ == "__main__":
    sys.exit(main())
