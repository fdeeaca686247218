"""hbq: exact and q-deformed Hardy-Berndt / Dedekind sums, Genocchi-type
zeta and l functions, and the verification machinery tying them together.

Every layer loads on first use of one of its names (PEP 562), and each name
is then kept here, so ``import hbq`` loads no layer and a later read of
``hbq.QParam`` is a plain attribute read; numpy loads only when an array
kernel in ``_kernels`` first runs.
"""

import importlib

__version__ = "0.1.0"

# name -> the layer that defines it
_LAZY = {name: module for module, names in {
    "characters": "DirichletCharacter character_from_label characters_mod "
                  "chi_eval",
    "core": "ConvergenceError DomainError ParityError PoleError QParam QRegime "
            "SeriesValue VerificationOutcome as_fraction qbracket sawtooth",
    "numbers": "NumberKind NumberTable bernoulli_polynomial number_table "
               "q_euler_number q_genocchi_number",
    "qsums": "DEFAULT_SCHEDULE HB_SCALE RegularizationSchedule YSumResult "
             "classical_trig_series dedekind_oscillatory_sum eval_gen "
             "oscillatory_sum q_dedekind_sum q_hardy_berndt_sum",
    "sums": "HARDY_VARIANTS ParityCondition dedekind_sum hardy_berndt_sum "
            "parity_condition",
    "zeta": "digamma genocchi_zeta genocchi_zeta_exact hurwitz_zeta lerch_phi "
            "odd_power_sum riemann_zeta zeta_exact_nonpositive zeta_star",
    "mellin": "QuadratureConfig branch_prefactor mellin_transform "
              "verify_mellin_roundtrip verify_product_identity",
    "qzeta": "cck_zeta q_alt_l q_alt_zeta q_alt_zeta_hurwitz q_plain_zeta "
             "verify_conductor_decomposition",
}.items() for name in names.split()}


def __getattr__(name):
    if name in _LAZY.values():  # a layer itself, as `hbq.qzeta`
        return importlib.import_module(f".{name}", __name__)
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
