"""Package surface: exported names, the module layering, the
dependencies and the SLGL_THREADS parser."""

import ast
import importlib
import os
import sys

import pytest

import slgl

MODULES = ("density", "baseline", "forward", "kernels", "glm", "reconstruct")
PACKAGE_DIR = os.path.dirname(slgl.__file__)


@pytest.mark.parametrize("module", ("slgl",) + tuple(f"slgl.{m}" for m in MODULES))
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing


@pytest.mark.parametrize("module", ("kernels", "glm", "reconstruct"))
def test_inverse_half_does_not_import_the_forward_oracle(module):
    # the oracle checks the inverse pipeline, so the pipeline must not
    # depend on it: its input type lives in baseline
    path = importlib.import_module(f"slgl.{module}").__file__
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imported = []  # module names, and the names taken from them (``from . import forward``)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported += [node.module or ""] + [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
    assert not [name for name in imported if name.split(".")[-1] == "forward"]


@pytest.mark.parametrize("name", sorted(n for n in os.listdir(PACKAGE_DIR) if n.endswith(".py")))
def test_package_imports_numpy_and_the_standard_library_only(name):
    # scipy is often installed beside numpy, but the package does not declare it
    with open(os.path.join(PACKAGE_DIR, name), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names]
    imported += [node.module for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.level == 0]
    top = {name.split(".")[0] for name in imported}
    assert top and not top - {"numpy"} - sys.stdlib_module_names


@pytest.mark.parametrize("raw, expected", [(None, None), ("", None), ("3", 3)])
def test_thread_cap_accepts_unset_empty_and_positive(monkeypatch, raw, expected):
    if raw is None:
        monkeypatch.delenv("SLGL_THREADS", raising=False)
    else:
        monkeypatch.setenv("SLGL_THREADS", raw)
    assert slgl.thread_cap() == expected


@pytest.mark.parametrize("raw", ["0", "-2", "zero", "1.5"])
def test_thread_cap_rejects_malformed_values(monkeypatch, raw):
    monkeypatch.setenv("SLGL_THREADS", raw)
    with pytest.raises(ValueError, match="SLGL_THREADS"):
        slgl.thread_cap()


@pytest.mark.parametrize("raw, expected", [("0", None), ("x", None), ("2", "2")])
def test_import_time_cap_skips_bad_values(monkeypatch, raw, expected):
    monkeypatch.setenv("SLGL_THREADS", raw)
    # setenv first, so the undo also removes what the cap sets
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "")
    monkeypatch.delenv("OPENBLAS_NUM_THREADS")
    slgl._cap_threads()
    assert os.environ.get("OPENBLAS_NUM_THREADS") == expected
