import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import smoothing_lab

PACKAGE = Path(smoothing_lab.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert {n: line for n, line in imported.items() if n not in used} == {}


# a 3-dim model shaped like ex3: 1/4 [B0], 1/4 [B1], 1/2 [B0, B1, B2], with
# the mean's spectral radius at 1
_B = np.array([[[0.6, 0.1, 0.3], [0.2, 0.5, 0.2], [0.1, 0.3, 0.7]],
               [[0.3, 0.6, 0.1], [0.4, 0.2, 0.5], [0.2, 0.1, 0.3]],
               [[0.1, 0.2, 0.2], [0.3, 0.1, 0.1], [0.5, 0.4, 0.2]]])
_B /= np.abs(np.linalg.eigvals(0.75 * (_B[0] + _B[1]) + 0.5 * _B[2])).max()
SING3 = {"dim": 3, "kind": "ExplicitAtoms", "atoms": [
    {"prob": 0.25, "branch": [_B[0].tolist()]},
    {"prob": 0.25, "branch": [_B[1].tolist()]},
    {"prob": 0.5, "branch": _B.tolist()},
]}


def _run_fresh(code: str, cwd) -> str:
    """stdout of `code` run in a fresh interpreter that imports this package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(PACKAGE.parent)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_package_import_loads_no_layer(tmp_path):
    out = _run_fresh("""
import sys
import smoothing_lab as sl
print(sorted(m for m in sys.modules if m.startswith("smoothing_lab.")))
print(sl.models.EXAMPLE_NAMES)    # a submodule before any other name
print([n for n in sl.__all__ if n not in dir(sl) or getattr(sl, n).__name__ != n])
""", tmp_path)
    assert out.splitlines() == ["[]", "('ex1', 'ex2', 'ex3')", "[]"]


def test_package_names_are_looked_up_in_their_layer(monkeypatch):
    # a tracer swaps a layer's functions and puts them back; a reference the
    # package kept would record spans after the tracer was gone
    from smoothing_lab import cascade

    original = cascade.martingale_samples
    assert smoothing_lab.martingale_samples is original
    monkeypatch.setattr(cascade, "martingale_samples", len)
    assert smoothing_lab.martingale_samples is len
    monkeypatch.undo()
    assert smoothing_lab.martingale_samples is original


# every command loads the parser's modules; each loads only its own layers
PARSER_MODULES = {"cli", "_common", "errors", "matrices", "models"}


@pytest.mark.parametrize("argv, layers", [
    (["simulate", "--model", "ex2", "--k", "2000", "--rounds", "5",
      "--seed", "1", "--out", "new.csv"], {"cascade"}),
    (["diagnose", "--model", "ex2", "--pool", "pool.csv", "--seed", "1",
      "--out-prefix", "d", "--probes", "8", "--max-exp", "6"],
     {"cascade", "diagnostics"}),
    (["spectrum", "--model", "ex3", "--seed", "1", "--out-prefix", "s",
      "--chain-n", "8", "--trials", "100", "--lyap-n", "10",
      "--lyap-trials", "100", "--grid-size", "8"], {"spectral"}),
    (["support", "--model", "ex2", "--out", "s.json"], {"support"}),
    (["support", "--model", "ex2", "--pool", "pool.csv", "--out", "s.json"],
     {"cascade", "support"}),
    (["check", "--model", "ex2"], {"cascade", "diagnostics", "support"}),
], ids=["simulate", "diagnose", "spectrum", "support", "support-pool",
        "check"])
def test_each_command_loads_only_its_layers(tmp_path, argv, layers):
    pool, _ = smoothing_lab.run_fixed_point(
        smoothing_lab.example_model("ex2"), k=2000, rounds=5, seed=1)
    smoothing_lab.pool_to_csv(pool, tmp_path / "pool.csv")
    out = _run_fresh(f"""
import sys
from smoothing_lab.cli import main
assert main({argv!r}) == 0
print(sorted(m for m in sys.modules if m.startswith("smoothing_lab.")))
""", tmp_path)
    assert out.splitlines()[-1] == str(
        sorted(f"smoothing_lab.{m}" for m in PARSER_MODULES | layers))


@pytest.mark.parametrize("dim", [2, 3])
def test_support_below_four_dims_never_imports_scipy(tmp_path, dim):
    # a 2-dim model's cone is a segment and a 3-dim model's a polygon, both
    # in closed form; only hulls of affine rank >= 3 need Qhull, so these
    # paths must not pay for importing scipy
    model = "ex1"
    if dim == 3:
        model = str(tmp_path / "sing3.json")
        Path(model).write_text(json.dumps(SING3), encoding="utf-8")
    code = f"""
import sys
from smoothing_lab.cli import main
assert main(["simulate", "--model", {model!r}, "--k", "2000", "--rounds", "10",
             "--seed", "1", "--out", "pool.csv"]) == 0
assert main(["support", "--model", {model!r}, "--pool", "pool.csv",
             "--out", "support.json"]) == 0
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    assert _run_fresh(code, tmp_path).strip() == "[]"
    hull = json.loads((tmp_path / "support.json").read_text())["hull_extremes"]
    assert len(hull) >= dim and len(hull[0]) == dim   # a polygon for dim 3
