"""Every public library function, and each of its optional parameters, has a
caller outside the unit tests.

A caller is code in the package itself, the acceptance gate or the benchmark
harness.  A function or parameter that only unit tests reach is surface that
nothing exercises: the function goes, and the parameter becomes a module
constant.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "smoothing_lab"
CALLER_FILES = (sorted((ROOT / "src").rglob("*.py"))
                + [ROOT / "tests" / "test_acceptance.py"]
                + sorted((ROOT / "perfbench").rglob("*.py")))

# optional parameters kept although no caller passes them
UNPASSED_PARAMETERS = {
    ("models", "explicit_atoms", "max_atoms"):
        "per-call override of the SMOOTHING_LAB_BUDGET element budget",
    ("cascade", "survival_counts", "node_budget"):
        "per-call override of the SMOOTHING_LAB_BUDGET node budget",
    ("cascade", "martingale_samples", "node_budget"):
        "per-call override of the SMOOTHING_LAB_BUDGET node budget",
    ("support", "enumerate_semigroup", "max_elements"):
        "per-call override of the SMOOTHING_LAB_BUDGET element budget",
    ("support", "find_l1_l2", "max_elements"):
        "per-call override of the SMOOTHING_LAB_BUDGET element budget",
    ("cli", "main", "argv"):
        "None reads sys.argv; the benchmark passes a list through a local name",
    ("spectral", "find_alpha", "n"):
        "the benchmark's chain-step probe reads it from the bound signature",
    ("spectral", "find_alpha", "trials"):
        "the benchmark's chain-step probe reads it from the bound signature",
}

def _ref_name(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _is_property(node: ast.FunctionDef) -> bool:
    return any(_ref_name(d) in ("property", "cached_property")
               for d in node.decorator_list)


def public_definitions() -> dict:
    """(module, qualified name) -> FunctionDef, for top-level functions and
    the non-property methods of top-level classes."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                out[(path.stem, node.name)] = node
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("_")
                            and not _is_property(item)):
                        out[(path.stem, f"{node.name}.{item.name}")] = item
    return out


def _caller_trees():
    """(package module stem or None, parsed tree) of every caller file."""
    for path in CALLER_FILES:
        stem = path.stem if path.parent == PACKAGE else None
        yield stem, ast.parse(path.read_text(encoding="utf-8"))


def _references(node, enclosing=frozenset()):
    """(name, whether it is an attribute, names of the enclosing defs) of
    every bare name and attribute."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        enclosing = enclosing | {node.name}
    name = _ref_name(node)
    if name is not None:
        yield name, isinstance(node, ast.Attribute), enclosing
    for child in ast.iter_child_nodes(node):
        yield from _references(child, enclosing)


def referenced_definitions(definitions: dict) -> set:
    """The definitions that some caller file calls or names, matched by name;
    a method counts only as an attribute (x.name), so a local variable of
    the same name does not, and a reference inside the definition itself
    does not count."""
    by_name: dict = {}
    for key in definitions:
        by_name.setdefault(key[1].rsplit(".", 1)[-1], []).append(key)
    used = set()
    for stem, tree in _caller_trees():
        for name, attribute, enclosing in _references(tree):
            for key in by_name.get(name, ()):
                if ("." in key[1] and not attribute
                        or key[0] == stem and name in enclosing):
                    continue
                used.add(key)
    return used


def test_every_public_function_has_a_caller():
    definitions = public_definitions()
    unused = set(definitions) - referenced_definitions(definitions)
    assert not unused, sorted(unused)


def public_functions() -> dict:
    """(module, name) -> (positional parameter names, optional names)."""
    out = {}
    for (module, name), node in public_definitions().items():
        if "." in name:
            continue
        a = node.args
        positional = [x.arg for x in a.posonlyargs + a.args]
        optional = positional[len(positional) - len(a.defaults):] + [
            x.arg for x, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
        out[(module, name)] = (positional, optional)
    return out


def passed_parameters(functions: dict) -> set:
    """(module, name, parameter) for every parameter some caller passes, by
    keyword or by position.  Calls are matched by the function's name."""
    by_name: dict = {}
    for key in functions:
        by_name.setdefault(key[1], []).append(key)
    passed = set()
    for _, tree in _caller_trees():
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            for key in by_name.get(_ref_name(call.func), ()):
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
    assert never == set(UNPASSED_PARAMETERS), sorted(
        never ^ set(UNPASSED_PARAMETERS))
