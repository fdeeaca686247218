"""Cold start: ``import hbq`` and the exact commands load neither numpy nor
scipy.  Each check runs a fresh interpreter and reads its ``sys.modules``;
nothing is timed."""

import importlib
import json
import os
import subprocess
import sys

import hbq

SRC = os.path.dirname(os.path.dirname(os.path.abspath(hbq.__file__)))


def _heavy_modules_after(code: str) -> list:
    """numpy and scipy modules loaded by a fresh interpreter that imports
    hbq and hbq.cli and then runs ``code``."""
    script = "\n".join((
        "import json, os, sys",
        "import hbq, hbq.cli",
        code,
        "print(json.dumps(sorted(m for m in sys.modules",
        "                        if m.split('.')[0] in ('numpy', 'scipy'))))",
    ))
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def _cli(*argv) -> str:
    return (f"assert hbq.cli.main({list(argv) + ['--out', os.devnull]!r}) == 0")


def test_exact_commands_load_neither_numpy_nor_scipy():
    assert _heavy_modules_after("") == []
    assert _heavy_modules_after(_cli("finite", "--variant", "S", "--h", "1",
                                     "--k", "2", "--format", "json")) == []
    assert _heavy_modules_after(_cli("verify", "thm4", "--k-max", "5")) == []


def test_acceptance_imports_without_numpy():
    # the verify grids live in hbq.acceptance, which loads the numpy layers
    # only inside the checks that need them
    assert _heavy_modules_after("import hbq.acceptance") == []


def test_numpy_layers_load_scipy_only_when_used():
    loaded = _heavy_modules_after("hbq.q_alt_zeta, hbq.mellin_transform")
    assert "numpy" in loaded
    assert not any(m.split(".")[0] == "scipy" for m in loaded)
    loaded = _heavy_modules_after("hbq.riemann_zeta(complex(2, 1))")
    assert "scipy.special" in loaded and "scipy.integrate" not in loaded


def test_lazy_names_are_the_module_objects():
    modules = {m: importlib.import_module(f"hbq.{m}") for m in ("mellin", "qzeta")}
    assert set(hbq._LAZY) == {name for mod in modules.values()
                              for name in mod.__all__}
    for name, module in hbq._LAZY.items():
        assert getattr(hbq, name) is getattr(modules[module], name)
        assert name in dir(hbq)
    assert hbq.qzeta is modules["qzeta"] and hbq.mellin is modules["mellin"]
