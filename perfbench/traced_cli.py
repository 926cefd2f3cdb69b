"""Run one qtimeline CLI command with the benchmark's tracer installed.

Usage: python3 perfbench/traced_cli.py SPANS.npz <qtimeline arguments...>

Exits with the command's exit code and writes the command's spans to
SPANS.npz.  Used by the ``cli`` workload's traced runs in place of
``python -m qtimeline.cli``.
"""

import sys

import qtimeline.cli

from tracer import Tracer


def main() -> int:
    spans_path, args = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        return qtimeline.cli.main(args)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
