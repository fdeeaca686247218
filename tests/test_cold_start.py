"""Cold start: ``import hbq``, ``import hbq.qzeta``, the exact commands, the
real-s q-series commands, the short direct series and the product identities
load neither numpy nor scipy, numpy is imported only inside the array
kernels, no computation loads scipy, and a command loads only the hbq layers
it calls.  Each check runs a fresh interpreter and reads its
``sys.modules``; nothing is timed."""

import ast
import glob
import importlib
import json
import os
import subprocess
import sys

import pytest

import hbq

SRC = os.path.dirname(os.path.dirname(os.path.abspath(hbq.__file__)))


def _heavy_modules_after(code: str, roots=("numpy", "scipy")) -> list:
    """The modules of the packages ``roots`` (numpy and scipy by default)
    loaded by a fresh interpreter that imports hbq and hbq.cli and then runs
    ``code``."""
    script = "\n".join((
        "import json, os, sys",
        "import hbq, hbq.cli",
        code,
        "print(json.dumps(sorted(m for m in sys.modules",
        f"                        if m.split('.')[0] in {roots!r})))",
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
    # its psi rows are pure Python at the benchmark's size too
    assert _heavy_modules_after(_cli("verify", "thm4", "--k-max", "40")) == []


def test_qzeta_imports_without_numpy():
    # the direct route's array kernel imports numpy on its first call, not
    # when hbq.qzeta is imported, and only for sums of more than
    # qzeta._PY_TERMS terms; the CRVZ route (rational q, at real s and at
    # complex s near q = 1) never does
    assert _heavy_modules_after("import hbq.qzeta") == []
    # no antiperiod, so the direct route, in 44 terms
    assert _heavy_modules_after(_cli("qzeta", "--fn", "plain", "--s", "2",
                                     "--q", "1/2")) == []
    assert _heavy_modules_after(_cli("qzeta", "--fn", "im", "--s", "2",
                                     "--q", "1/2")) == []
    assert _heavy_modules_after(_cli("qzeta", "--fn", "im", "--s", "1.5,7",
                                     "--q", "99999/100000")) == []
    assert _heavy_modules_after(_cli("qzeta", "--fn", "cck", "--s", "2",
                                     "--q", "99999/100000")) == []


def test_short_series_verify_targets_load_no_numpy():
    # the conductor decompositions sum at most 45 terms a series
    assert _heavy_modules_after(_cli("verify", "thm5")) == []
    assert _heavy_modules_after(_cli("verify", "thm6")) == []


@pytest.mark.parametrize("target", ["thm19", "thm20", "thm21", "thm22", "thm23"])
def test_product_identity_verify_targets_load_no_numpy(target):
    # the damped double sums take a short m-head in a plain loop and the
    # rest of the m-sum from Hurwitz zetas
    assert _heavy_modules_after(_cli("verify", target)) == []


def test_acceptance_imports_without_numpy():
    # the verify grids live in hbq.acceptance, which loads the numpy layers
    # only inside the checks that need them
    assert _heavy_modules_after("import hbq.acceptance") == []


def test_no_computation_loads_scipy():
    # Gamma and the Mellin quadrature run on the standard library
    half = "hbq.QParam.real('1/2')"
    for code in (f"hbq.mellin_transform('F', 2, {half})",
                 "hbq.riemann_zeta(complex(2, 1))",
                 _cli("verify", "thm19"),
                 _cli("verify", "mellin-defs")):
        loaded = _heavy_modules_after(code)
        assert not any(m.split(".")[0] == "scipy" for m in loaded), code
    assert "numpy" in loaded  # mellin-defs' generating series reached numpy


def _imports():
    """(file name, line, top-level module names, inside a function) for each
    import statement in hbq."""
    for path in glob.glob(os.path.join(SRC, "hbq", "*.py")):
        with open(path) as f:
            tree = ast.parse(f.read(), path)
        inside = {id(node) for fn in ast.walk(tree)
                  if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                  for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            yield (os.path.basename(path), node.lineno,
                   {n.split(".")[0] for n in names}, id(node) in inside)


def test_scipy_is_not_a_dependency():
    for name, line, modules, _ in _imports():
        assert "scipy" not in modules, (name, line)
    tomllib = pytest.importorskip("tomllib")
    with open(os.path.join(os.path.dirname(SRC), "pyproject.toml"), "rb") as f:
        deps = tomllib.load(f)["project"]["dependencies"]
    assert [d.split(">")[0].split("=")[0].strip() for d in deps] == ["numpy"]


def test_numpy_is_imported_only_inside_the_array_kernels():
    # one place decides how arrays are used: the function bodies of
    # hbq._kernels; every other module reads chi from the character table
    for name, line, modules, in_function in _imports():
        if "numpy" in modules:
            assert name == "_kernels.py" and in_function, (name, line)


def test_lazy_names_are_the_module_objects():
    # every layer loads on first use of its names: the 56 names hbq exports,
    # each its layer's own object, are all of its layers' `__all__` but
    # `characters.chi_table`
    layers = sorted(set(hbq._LAZY.values()))
    assert layers == ["characters", "core", "mellin", "numbers", "qsums",
                      "qzeta", "sums", "zeta"]
    modules = {m: importlib.import_module(f"hbq.{m}") for m in layers}
    assert len(hbq._LAZY) == 56
    assert set(hbq._LAZY) == {name for mod in modules.values()
                              for name in mod.__all__} - {"chi_table"}
    for name, module in hbq._LAZY.items():
        assert getattr(hbq, name) is getattr(modules[module], name)
        assert name in vars(hbq)  # kept: a later read is an attribute read
        assert name in dir(hbq)
    for layer in layers:
        assert getattr(hbq, layer) is modules[layer]


def test_each_command_loads_only_the_layers_it_calls():
    # `finite` calls `sums`, which reads the Bernoulli rows of `numbers`;
    # once, `import hbq` loaded every exact layer, and `hbq.cli` the rest
    def loaded(*argv):
        return _heavy_modules_after(_cli(*argv), ("hbq",))

    base = ["hbq", "hbq.cli", "hbq.core"]
    assert loaded("finite", "--variant", "S", "--h", "1", "--k", "2",
                  "--format", "json") == sorted(base + ["hbq.numbers", "hbq.sums"])
    assert loaded("zeta", "--fn", "zeta", "--s", "2") == \
        sorted(base + ["hbq._kernels", "hbq.numbers", "hbq.zeta"])
    # neither calls sums or numbers
    assert loaded("characters", "--f", "5") == sorted(base + ["hbq.characters"])
    assert loaded("qzeta", "--fn", "im", "--s", "2", "--q", "1/2") == \
        sorted(base + ["hbq._kernels", "hbq.characters", "hbq.qzeta"])
