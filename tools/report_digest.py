"""Digest of the CLI's reports: one line per command with its argv, exit
code and the sha256 of its stdout and of its stderr.

The commands are the benchmark's own: ``perfbench/ops.py::cli_ops(7, 400)``
and the ten ``VERIFY_COMMANDS``, each in json, text and csv.  They all run
in this one process through ``hbq.cli.main``, so two checkouts compare by
diffing their digests:

    python tools/report_digest.py > after.txt
    python tools/report_digest.py PATH/TO/OTHER/CHECKOUT > before.txt

A command that raises past ``main`` is recorded with exit code 1 and the
exception's type and message as its stderr, as the interpreter would end
it, without the traceback's file paths.  The tool reads ``perfbench/`` and
writes nothing.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
from pathlib import Path

FORMATS = ("json", "text", "csv")


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def commands(ops):
    """Every command's argv, without its format, then each format."""
    bases = [op["argv"][:-2] for op in ops.cli_ops(7, 400)]
    bases += [list(argv) for argv in ops.VERIFY_COMMANDS]
    return [base + ["--format", fmt] for base in bases for fmt in FORMATS]


def run(main, argv):
    """Exit code, stdout and stderr of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except Exception as exc:  # a traceback in a real run
            code = 1
            err.write(f"{type(exc).__name__}: {exc}\n")
    return code, out.getvalue(), err.getvalue()


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    root = Path(argv[0] if argv else Path(__file__).resolve().parents[1])
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import ops
    from hbq.cli import main as cli_main

    for cmd in commands(ops):
        code, out, err = run(cli_main, cmd)
        print(f"{' '.join(cmd)}\t{code}\t{_sha(out)}\t{_sha(err)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
