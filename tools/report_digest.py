"""Digest of the CLI's reports: one line per command with its argv, exit
code and the sha256 of its stdout and of its stderr.

The commands are the benchmark's own: ``perfbench/ops.py::cli_ops(7, 400)``
and the ten ``VERIFY_COMMANDS``, then ``NEGATIVE``, negative values written
as separate tokens, each in json, text and csv; then ``REFUSED``, one
command per (command, selection) that the CLI refuses, and ``EDGES``, the
refusals at each cap of the row q^(-n)[n], both in json.  They all
run in this one process through ``hbq.cli.main``, so two checkouts compare
by diffing their digests:

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

# a value that starts with `-` and a digit, as its own token
NEGATIVE = """\
zeta --fn lerch --s 2 --z -1e-5
zeta --fn zeta --s -1.5,2
zeta --fn hurwitz --s -1.5,2 --a 0.5
"""

# per (command, selection): an option it does not read, or a needed one left
# out (numbers --kind q-genocchi, characters --n, qzeta --fn l)
REFUSED = """\
numbers --kind bernoulli --n-max 2 --q 1/2 --m 4
numbers --kind euler --tol 1e-9
numbers --kind genocchi --q 1/2
numbers --kind q-euler --m 2 --q 1/2 --n-max 3
numbers --kind q-genocchi --m 2
characters --f 5 --index 2
characters --f 5 --n 2
zeta --fn zeta --s 2 --a 0.5
zeta --fn zeta-star --s 2 --z 0.1
zeta --fn genocchi-zeta --s 2 --route direct
zeta --fn hurwitz --s 2 --z 0.1
zeta --fn lerch --s 2 --b 3
zeta --fn odd-power --s 2 --a 0.5
zeta --fn digamma --s 2 --a 5 --z 0.1 --b 3
qzeta --fn im --s 2 --q 1/2 --chi 5:1 --x 0.5
qzeta --fn im-hurwitz --s 2 --q 1/2 --x 0.5 --chi 5:1
qzeta --fn l --s 2 --q 1/2
qzeta --fn plain --s 2 --q 1/2 --genocchi-scale
qzeta --fn cck --s 2 --q 1/2 --x 0.5
qsum --kind gen --h 1 --k 2 --q 1/2 --p 3
qsum --kind hardy-berndt --h 1 --k 2 --q 1 --p 3
qsum --kind dedekind --h 1 --k 3 --q 1 --chi 5:1
verify thm4 --s 3
verify thm5 --x 0.3
verify thm6 --k-max 3
verify mellin-defs --chi 5:1 --x 0.25
verify thm19 --chi 5:2
verify thm20 --x 0.3
verify thm21 --k-max 3
verify thm22 --x 0.3
verify thm23 --k-max 3
verify all --tol 1e-30
"""

# the refusals at the caps: the literal sums' work cap (two kinds) and float
# range; the Mellin route's term cap, float range and node tolerance; the
# product identities' n-terms past the float range, and right sides past it
EDGES = """\
qsum --kind gen --variant S --h 1 --k 2 --q 99999/100000
qsum --kind gen --variant S --h 1 --k 2 --q 1/2 --eps 1e-300,5e-324 --order 1
qsum --kind dedekind --p 3 --h 1 --k 3 --q 999/1000
verify mellin-defs --q 999/1000
verify mellin-defs --s 1.02
verify mellin-defs --s 1000 --q 1/2
verify thm19 --s 1.001
verify thm19 --s 1.01 --q 1/20
verify thm19 --s 1.0284
verify thm21 --s 3,151
verify thm21 --s 3,200
verify thm21 --s 2.5,160
"""


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def commands(ops):
    """Every command's argv, without its format, then each format."""
    bases = [op["argv"][:-2] for op in ops.cli_ops(7, 400)]
    bases += [list(argv) for argv in ops.VERIFY_COMMANDS]
    bases += [line.split() for line in NEGATIVE.splitlines()]
    return ([base + ["--format", fmt] for base in bases for fmt in FORMATS]
            + [line.split() + ["--format", "json"]
               for line in (REFUSED + EDGES).splitlines()])


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
