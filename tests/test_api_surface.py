"""Every optional parameter of a public library function has a caller.

A parameter that no call in the package, the tests or the benchmark ever
passes is a setting that nothing exercises; it belongs in a module constant.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "smoothing_lab"

# per-call overrides of the SMOOTHING_LAB_BUDGET environment variable: the
# variable is how budgets are set in practice, and the argument stays so
# that one call can run under a budget of its own
BUDGET_PARAMETERS = {
    ("models", "explicit_atoms", "max_atoms"),
    ("cascade", "survival_counts", "node_budget"),
    ("support", "find_l1_l2", "max_elements"),
}


def public_functions() -> dict:
    """(module, name) -> (positional parameter names, optional names)."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                a = node.args
                positional = [x.arg for x in a.posonlyargs + a.args]
                optional = positional[len(positional) - len(a.defaults):] + [
                    x.arg for x, d in zip(a.kwonlyargs, a.kw_defaults)
                    if d is not None]
                out[(path.stem, node.name)] = (positional, optional)
    return out


def passed_parameters(functions: dict) -> set:
    """(module, name, parameter) for every parameter some call passes, by
    keyword or by position.  Calls are matched by the function's name."""
    by_name: dict = {}
    for key in functions:
        by_name.setdefault(key[1], []).append(key)
    passed = set()
    for folder in ("src", "tests", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            for call in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if not isinstance(call, ast.Call):
                    continue
                func = call.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                for key in by_name.get(name, ()):
                    positional, optional = functions[key]
                    n = len(call.args)
                    if any(isinstance(x, ast.Starred) for x in call.args):
                        n = len(positional)
                    names = set(positional[:n])
                    for kw in call.keywords:
                        # **kwargs may carry any of them
                        names |= set(optional) if kw.arg is None else {kw.arg}
                    passed |= {key + (x,) for x in names}
    return passed


def test_every_optional_parameter_is_passed():
    functions = public_functions()
    optional = {key + (x,) for key, (_, names) in functions.items()
                for x in names}
    never = optional - passed_parameters(functions)
    assert never <= BUDGET_PARAMETERS, sorted(never - BUDGET_PARAMETERS)
