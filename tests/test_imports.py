import ast
import os
import subprocess
import sys
from pathlib import Path

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


def test_two_dim_support_never_imports_scipy(tmp_path):
    # the cone of a 2-dim model is a segment; only hulls of affine rank >= 2
    # need Qhull, so this path must not pay for importing scipy
    code = """
import sys
from smoothing_lab.cli import main
assert main(["simulate", "--model", "ex1", "--k", "2000", "--rounds", "10",
             "--seed", "1", "--out", "pool.csv"]) == 0
assert main(["support", "--model", "ex1", "--pool", "pool.csv",
             "--out", "support.json"]) == 0
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(PACKAGE.parent)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
