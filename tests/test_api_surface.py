"""Every public library function, each of its optional parameters, every
dataclass field and every CLI flag has a reader outside the unit tests.

A caller is code in the package itself, the acceptance gate or the benchmark
harness.  A function or parameter that only unit tests reach is surface that
nothing exercises: the function goes, and the parameter becomes a module
constant.  A field that no caller reads is work done for nobody, and a flag
that no README example, acceptance item or benchmark workload passes is a
setting nothing exercises.
"""
import argparse
import ast
import re
from pathlib import Path

from smoothing_lab.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "smoothing_lab"
CALLER_FILES = (sorted((ROOT / "src").rglob("*.py"))
                + [ROOT / "tests" / "test_acceptance.py"]
                + sorted((ROOT / "perfbench").rglob("*.py")))
FLAG_FILES = (ROOT / "README.md", ROOT / "tests" / "test_acceptance.py",
              ROOT / "perfbench" / "workloads.py")

# optional parameters kept although no caller passes them
UNPASSED_PARAMETERS = {
    ("cli", "main", "argv"):
        "None reads sys.argv; the benchmark passes a list through a local name",
    ("spectral", "find_alpha", "n"):
        "the benchmark's chain-step probe reads it from the bound signature",
    ("spectral", "find_alpha", "trials"):
        "the benchmark's chain-step probe reads it from the bound signature",
}

# dataclass fields kept although no caller reads them
UNREAD_FIELDS = {
    ("spectral", "TransferDiscretization", "s"):
        "ROADMAP item 1 replaces this layout with a gather form",
    ("spectral", "TransferDiscretization", "eigenfunction"):
        "ROADMAP item 1 replaces this layout with a gather form",
    ("support", "ConeHull", "directions"):
        "the hull's deduplicated input, which the LP reference tests use",
}

# CLI flags kept although no README example, acceptance item or benchmark
# workload passes them: per-run sizes and grids, whose defaults suit the
# bundled models
UNPASSED_FLAGS = {
    "--init": "initial vector of a pool run",
    "--s-grid": "orders of the spectral curves",
    "--chain-n": "chain length of the spectral curves",
    "--lyap-n": "chain length of the Lyapunov estimate",
    "--max-exp": "largest dyadic radius of the transform curve",
    "--harmonic-b": "orders of the harmonic moments",
    "--grid": "probe count of the survival-count check",
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


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(_ref_name(d.func if isinstance(d, ast.Call) else d)
               == "dataclass" for d in node.decorator_list)


def dataclass_fields() -> set:
    """(module, class, field) of every field of a top-level dataclass."""
    out = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                out |= {(path.stem, node.name, item.target.id)
                        for item in node.body
                        if isinstance(item, ast.AnnAssign)
                        and isinstance(item.target, ast.Name)}
    return out


def read_attributes() -> set:
    """Names read as an attribute (x.name) somewhere in a caller file."""
    return {node.attr for _, tree in _caller_trees()
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}


def test_every_dataclass_field_is_read():
    # fields are matched by name, as functions are above
    read = read_attributes()
    unread = {key for key in dataclass_fields() if key[2] not in read}
    assert unread == set(UNREAD_FIELDS), sorted(unread ^ set(UNREAD_FIELDS))


def cli_flags() -> set:
    """Every option string of every subcommand, help aside."""
    (sub,) = [a for a in build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    return {flag for parser in sub.choices.values()
            for action in parser._actions for flag in action.option_strings
            if not isinstance(action, argparse._HelpAction)}


def test_every_cli_flag_is_passed():
    passed = set()
    for path in FLAG_FILES:
        passed |= set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*",
                                 path.read_text(encoding="utf-8")))
    never = cli_flags() - passed
    assert never == set(UNPASSED_FLAGS), sorted(never ^ set(UNPASSED_FLAGS))
