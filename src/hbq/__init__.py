"""hbq: exact and q-deformed Hardy-Berndt / Dedekind sums, Genocchi-type
zeta and l functions, and the verification machinery tying them together.

The exact layers are imported here.  The q-series and Mellin layers
(``qzeta`` and ``mellin``) load on first use of one of their names; numpy
loads only when an array kernel in ``_kernels`` first runs.
"""

import importlib

from .characters import (DirichletCharacter, character_from_label,
                         characters_mod, chi_eval)
from .core import (ConvergenceError, DomainError, ParityError, PoleError,
                   QParam, QRegime, SeriesValue, VerificationOutcome,
                   as_fraction, qbracket, sawtooth)
from .numbers import (NumberKind, NumberTable, bernoulli_polynomial,
                      number_table, q_euler_number, q_genocchi_number)
from .qsums import (DEFAULT_SCHEDULE, HB_SCALE, RegularizationSchedule,
                    YSumResult, classical_trig_series,
                    dedekind_oscillatory_sum, eval_gen, oscillatory_sum,
                    q_dedekind_sum, q_hardy_berndt_sum)
from .sums import (HARDY_VARIANTS, ParityCondition, dedekind_sum,
                   hardy_berndt_sum, parity_condition)
from .zeta import (digamma, genocchi_zeta, genocchi_zeta_exact, hurwitz_zeta,
                   lerch_phi, odd_power_sum, riemann_zeta,
                   zeta_exact_nonpositive, zeta_star)

__version__ = "0.1.0"

# name -> submodule for the lazily loaded layers (PEP 562); eager imports
# raised `import hbq, hbq.cli` from 65 to 79 ms, compiling included
_LAZY = dict.fromkeys(("QuadratureConfig", "branch_prefactor",
                       "mellin_transform", "verify_mellin_roundtrip",
                       "verify_product_identity"), "mellin") \
    | dict.fromkeys(("cck_zeta", "q_alt_l", "q_alt_zeta",
                     "q_alt_zeta_hurwitz", "q_plain_zeta",
                     "verify_conductor_decomposition"), "qzeta")


def __getattr__(name):
    if name in ("mellin", "qzeta"):
        return importlib.import_module(f".{name}", __name__)
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
