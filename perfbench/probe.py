"""Set-up probe: a fresh interpreter imports hbq and makes one cheap call
into each layer, then prints its timings and environment as JSON.

Run from a checkout root:  PYTHONPATH=src python perfbench/probe.py
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

import hbq  # noqa: E402
import hbq.acceptance  # noqa: E402
import hbq.cli  # noqa: E402

T1 = time.perf_counter()
SCIPY_MODULES = sum(1 for m in sys.modules if m == "scipy" or m.startswith("scipy."))

from fractions import Fraction  # noqa: E402

half = hbq.QParam.real(Fraction(1, 2))
hbq.sawtooth(Fraction(1, 3))
hbq.dedekind_sum(1, 3)
hbq.number_table("bernoulli", 4)
hbq.riemann_zeta(2, 1e-8)
hbq.characters_mod(5)
hbq.q_alt_zeta(2, half, 1e-8)
hbq.oscillatory_sum("S", 1, 2, hbq.QParam.one())
hbq.mellin_transform("F", 2, half, cfg=hbq.QuadratureConfig(tol=1e-6))
hbq.acceptance.run_criterion(7)
hbq.cli.main(["finite", "--variant", "S", "--h", "1", "--k", "2",
              "--format", "json", "--out", os.devnull])
T2 = time.perf_counter()

import numpy  # noqa: E402
import scipy  # noqa: E402
from hbq import _kernels  # noqa: E402

print(json.dumps({"import_hbq_s": T1 - T0, "scipy_modules": SCIPY_MODULES,
                  "first_call_s": T2 - T1, "kernel_mode": _kernels.KERNEL_MODE,
                  "numpy": numpy.__version__, "scipy": scipy.__version__,
                  "python": sys.version.split()[0]}))
