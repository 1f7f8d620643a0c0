"""The package namespace: which submodules each import loads, and that every
public name resolves to its defining module. Each check runs in a fresh
interpreter, since this process has already imported the whole package."""

import json
import pathlib
import subprocess
import sys

import pytest

import ibplane

MODULES = sorted(p.stem for p in pathlib.Path(ibplane.__file__).parent.glob("*.py")
                 if p.stem != "__init__")


def fresh(code):
    """Run code after `import sys` in a new interpreter; return the printed
    JSON value, or None when it prints nothing."""
    r = subprocess.run([sys.executable, "-c", "import sys\n" + code],
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    return json.loads(r.stdout) if r.stdout else None


LOADED = 'print(__import__("json").dumps(sorted(m[8:] for m in sys.modules if m.startswith("ibplane."))))'


@pytest.mark.parametrize("stmt, loaded", [
    ("import ibplane", []),
    ("from ibplane import presets, solver", ["errors", "presets", "prob", "solver"]),
    ("from ibplane import mlp, presets, prob", ["errors", "mlp", "presets", "prob"]),
    ("from ibplane import cli", ["cli", "errors"]),
])
def test_import_loads_only_what_it_names(stmt, loaded):
    assert fresh(f"{stmt}\n{LOADED}") == loaded


def test_public_names_are_their_modules_objects():
    assert fresh("""
import ibplane
assert ibplane.__all__
for name in ibplane.__all__:
    obj = getattr(ibplane, name)
    assert obj.__module__.startswith("ibplane."), name
    assert getattr(sys.modules[obj.__module__], name) is obj, name
    assert name in dir(ibplane), name
""") is None


def test_submodules_resolve_after_a_plain_import():
    assert fresh(f"""
import ibplane
for m in {MODULES!r}:
    assert getattr(ibplane, m) is sys.modules["ibplane." + m], m
    assert m in dir(ibplane), m
""") is None


def test_unknown_name_raises_and_loads_nothing():
    assert fresh(f"""
import ibplane
try:
    ibplane.ib_solver
except AttributeError as e:
    assert "ib_solver" in str(e)
else:
    raise SystemExit("no AttributeError")
try:
    from ibplane import nope
except ImportError:
    pass
else:
    raise SystemExit("no ImportError")
{LOADED}
""") == []
