"""Traced CLI launcher: installs the span wrappers, then runs hbq.cli.main.

Usage (from a checkout root, PYTHONPATH=src):
    python perfbench/launch_cli.py SPANFILE OPID -- <hbq cli arguments>

The report goes to stdout exactly as ``python -m hbq.cli`` writes it; the
spans go to SPANFILE when the command returns.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import hbq  # noqa: E402,F401
import hbq.acceptance  # noqa: E402,F401
import hbq.cli  # noqa: E402

import tracing  # noqa: E402


def main() -> int:
    span_file, op_id, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: launch_cli.py SPANFILE OPID -- ARGS")
    tracer = tracing.Tracer()
    tracing.install(tracer)
    tracer.begin_op(op_id)
    try:
        code = hbq.cli.main(argv)
    finally:
        tracer.end_op()
        sys.stdout.flush()
        with open(span_file, "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
