"""The four benchmark workloads: their operations, inputs and correctness gates.

Each workload is a closed loop: one client runs its operations back to back
in one process tree, and nothing runs concurrently.  An operation is either a
`python -m smoothing_lab.cli` command or a public library call made through
`libcall.py`, exactly as a user would run it.  Paths inside an operation are
relative to the run directory, so repeated passes write byte-identical files
(manifests record the paths they were given).
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

INPUTS = "../inputs"


@dataclass(frozen=True)
class Op:
    """One timed operation of a workload."""

    name: str
    command: str            # simulate | diagnose | spectrum | support | check | tree
    argv: tuple             # CLI argv, or libcall.py argv when library is True
    library: bool = False
    gate: Callable[[Path], list] | None = None   # run dir -> problems found


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    models: tuple           # bundled names or generated *.json files
    pools: tuple            # (file, model, k, rounds, seed index), made untimed
    ops: Callable[[list], list]   # op seeds -> [Op, ...]
    limits: tuple = ()


# ---------------------------------------------------------------------------
# Oracles and gates
# ---------------------------------------------------------------------------


def _bisect(f, lo: float, hi: float) -> float:
    """Root of an increasing-or-decreasing f with a sign change on [lo, hi]."""
    flo = f(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if (f(mid) > 0) == (flo > 0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


A0_EX3 = _bisect(lambda a: 2.5 ** a + (5 / 3) ** a - 4.0, 1e-6, 5.0)
ALPHA_EX3 = _bisect(lambda s: 0.4 ** s + 0.6 ** s - 4.0 / 3.0, 1e-6, 1.0)
MARTINGALE_MEAN = np.array([0.4, 0.6])
EX2_DIRECTIONS = np.array([[1 / 2, 1 / 2], [1 / 3, 2 / 3], [2 / 5, 3 / 5]])


def _load(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def _csv_rows(path: Path) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def gate_ex2_diagnose(run: Path) -> list:
    problems = []
    last = _csv_rows(run / "ex2_diag_ecf.csv")[-1]
    if float(last["radius"]) != 2.0 ** 14 or not float(last["sup_modulus"]) < 0.2:
        problems.append(f"ex2 |phi| at radius {last['radius']} is "
                        f"{last['sup_modulus']}, want < 0.2 at 2^14")
    min_n = _load(run / "ex2_diag_summary.json")["min_E_Ndelta"][0]
    if not min_n >= 2.0:
        problems.append(f"ex2 min_E_Ndelta[0] = {min_n}, want >= 2")
    return problems


def gate_ex3_spectrum(run: Path) -> list:
    problems = []
    summary = _load(run / "ex3_spec.json")
    if summary["a0"] is None or abs(summary["a0"] - A0_EX3) > 1e-3:
        problems.append(f"ex3 a0 = {summary['a0']}, oracle {A0_EX3}")
    if summary["alpha"] is None or abs(summary["alpha"] - ALPHA_EX3) > 1e-2:
        problems.append(f"ex3 alpha = {summary['alpha']}, oracle {ALPHA_EX3}")
    checked = 0
    for row in _csv_rows(run / "ex3_spec.csv"):
        if row["kappa_tilde"] == "":
            continue
        s = float(row["s"])
        exact = (2.0 ** s + 3.0 ** s) / (2.0 * 5.0 ** s)
        checked += 1
        if abs(float(row["kappa_tilde"]) - exact) > 1e-3:
            problems.append(f"ex3 kappa_tilde({s}) = {row['kappa_tilde']}, "
                            f"closed form {exact}")
    if checked == 0:
        problems.append("ex3 spectrum reported no kappa_tilde values")
    return problems


def gate_martingale(out: str) -> Callable[[Path], list]:
    def gate(run: Path) -> list:
        w = np.load(run / out)
        mean = w.mean(axis=0)
        se = w.std(axis=0, ddof=1) / math.sqrt(w.shape[0])
        if np.all(np.abs(mean - MARTINGALE_MEAN) <= 4.0 * se):
            return []
        return [f"{out}: mean {mean.tolist()} is more than 4 standard errors "
                f"{se.tolist()} from {MARTINGALE_MEAN.tolist()}"]
    return gate


def gate_ex2_support(run: Path) -> list:
    dirs = np.array(_load(run / "ex2_support.json")["lambda_directions"])
    if dirs.shape != EX2_DIRECTIONS.shape:
        return [f"ex2 support found {len(dirs)} directions, want 3"]
    unmatched = [v.tolist() for v in EX2_DIRECTIONS
                 if np.abs(dirs - v).max(axis=1).min() > 1e-9]
    return [f"ex2 support misses directions {unmatched}"] if unmatched else []


def gate_ex1_support(run: Path) -> list:
    out = _load(run / "ex1_support.json")
    problems = []
    if out.get("inside_fraction") != 1.0:
        problems.append(f"ex1 inside_fraction = {out.get('inside_fraction')}")
    for side, want in (("l1", 0.8), ("l2", 1.2)):
        got = None if out[side] is None else out[side]["radius"]
        if got is None or abs(got - want) > 1e-9:
            problems.append(f"ex1 witness {side} radius = {got}, want {want}")
    return problems


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def _cli(name, command, *argv, gate=None) -> Op:
    return Op(name=name, command=command, argv=(command,) + argv, gate=gate)


def _pool_ops(seeds) -> list:
    iid3 = f"{INPUTS}/gen-iid3.json"
    return [
        _cli("simulate ex2", "simulate", "--model", "ex2", "--k", "50000",
             "--rounds", "50", "--seed", str(seeds[0]), "--out", "ex2_pool.csv"),
        _cli("diagnose ex2", "diagnose", "--model", "ex2", "--pool",
             "ex2_pool.csv", "--seed", str(seeds[1]), "--out-prefix", "ex2_diag",
             gate=gate_ex2_diagnose),
        _cli("simulate gen-iid3", "simulate", "--model", iid3, "--k", "12500",
             "--rounds", "50", "--seed", str(seeds[2]), "--out", "iid3_pool.csv"),
        _cli("diagnose gen-iid3", "diagnose", "--model", iid3, "--pool",
             "iid3_pool.csv", "--probes", "32", "--seed", str(seeds[3]),
             "--out-prefix", "iid3_diag"),
    ]


# Chains at a quarter of the CLI defaults (20k / 10k trials) keep one pass
# near five seconds.  The ex3 gates read the transfer operator and find_alpha,
# whose sizes these flags do not change, so ex3 keeps the default grid.
_CHAIN_FLAGS = ("--trials", "5000", "--lyap-trials", "2500")


def _spectral_ops(seeds) -> list:
    return [
        _cli("spectrum ex3", "spectrum", "--model", "ex3", "--seed",
             str(seeds[0]), *_CHAIN_FLAGS, "--out-prefix", "ex3_spec",
             gate=gate_ex3_spectrum),
        _cli("spectrum gen-sing3", "spectrum", "--model",
             f"{INPUTS}/gen-sing3.json", "--seed", str(seeds[1]),
             *_CHAIN_FLAGS, "--grid-size", "256", "--out-prefix", "sing3_spec"),
    ]


def _tree_ops(seeds) -> list:
    def lib(name, *argv, gate=None):
        return Op(name=name, command="tree", argv=argv, library=True, gate=gate)

    return [
        lib("martingale ex1", "martingale", "--model", "ex1", "--depth", "12",
            "--trials", "1024", "--seed", str(seeds[0]),
            "--out", "ex1_martingale.npy",
            gate=gate_martingale("ex1_martingale.npy")),
        lib("martingale ex2", "martingale", "--model", "ex2", "--depth", "8",
            "--trials", "512", "--seed", str(seeds[1]),
            "--out", "ex2_martingale.npy",
            gate=gate_martingale("ex2_martingale.npy")),
        lib("survival ex2", "survival", "--model", "ex2", "--probes", "128",
            "--depth", "10", "--seed", str(seeds[2]),
            "--out", "ex2_survival.npy"),
    ]


def _semigroup_ops(seeds) -> list:
    return [
        _cli("support ex2", "support", "--model", "ex2", "--length", "5",
             "--out", "ex2_support.json", gate=gate_ex2_support),
        _cli("support gen-sing3", "support", "--model",
             f"{INPUTS}/gen-sing3.json", "--length", "4", "--pool",
             f"{INPUTS}/sing3_pool.csv", "--out", "sing3_support.json"),
        _cli("support ex1", "support", "--model", "ex1", "--length", "3",
             "--pool", f"{INPUTS}/ex1_pool.csv", "--out", "ex1_support.json",
             gate=gate_ex1_support),
        _cli("check ex2", "check", "--model", "ex2", "--json", "ex2_check.json"),
    ]


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="pool",
            why="Pool sampling, CSV write/read and the ECF kernel; a 2-atom "
                "model beside a 117-atom one, so a branch-table or kernel "
                "change that helps one and costs the other shows.",
            models=("ex2", "gen-iid3.json"), pools=(), ops=_pool_ops,
            limits=("gen-iid3 stays under the 200k explicit-atom budget: "
                    "wider i.i.d. models raise BudgetExceeded today.",),
        ),
        Workload(
            name="spectral",
            why="Chain Monte Carlo and the transfer operator only; the 3-dim "
                "model takes the Delaunay interpolation path that the 2-dim "
                "ex3 bypasses.",
            models=("ex3", "gen-sing3.json"), pools=(), ops=_spectral_ops,
            limits=("Chains run at 5k/2.5k trials, a quarter of the CLI "
                    "defaults; gen-sing3 uses a 256-point grid.",),
        ),
        Workload(
            name="tree",
            why="The only workload on the weighted branching tree; its peak "
                "memory comes from one call, so a memory-for-speed trade "
                "shows in peak_rss_mb.",
            models=("ex1", "ex2"), pools=(), ops=_tree_ops,
            limits=("1024 ex1 trials instead of the acceptance 10k; peak "
                    "memory depends on the 512-tree chunk, not on trials.",),
        ),
        Workload(
            name="semigroup",
            why="The support layer without sampling: ex2 products collapse "
                "(quadratic dedup), gen-sing3 ones do not and cone membership "
                "solves one LP per pool sample.",
            models=("ex1", "ex2", "gen-sing3.json"),
            pools=(("sing3_pool.csv", "gen-sing3.json", 500, 50, 4),
                   ("ex1_pool.csv", "ex1", 100000, 50, 5)),
            ops=_semigroup_ops,
            limits=("The gen-sing3 membership pool is 500 samples because "
                    "of the per-sample LP; gen-sing3 is enumerated to length "
                    "4 and ex2 to length 5, not 6.",),
        ),
    )
}


# ---------------------------------------------------------------------------
# Checks that apply to every operation
# ---------------------------------------------------------------------------


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def nonfinite_values(path: Path) -> list:
    """Problems with the numbers in one output file (CSV, JSON or .npy)."""
    try:
        if path.suffix == ".json":
            stack = [json.loads(path.read_text(encoding="utf-8"),
                                parse_constant=_reject_constant)]
            while stack:
                item = stack.pop()
                if isinstance(item, dict):
                    stack.extend(item.values())
                elif isinstance(item, list):
                    stack.extend(item)
                elif isinstance(item, float) and not math.isfinite(item):
                    return [f"{path.name}: non-finite number {item}"]
        elif path.suffix == ".csv":
            with open(path, newline="", encoding="utf-8") as fh:
                rows = csv.reader(fh)
                next(rows)
                for row in rows:
                    for cell in row:
                        if cell != "" and not math.isfinite(float(cell)):
                            return [f"{path.name}: non-finite cell {cell}"]
        elif path.suffix == ".npy":
            if not np.isfinite(np.load(path)).all():
                return [f"{path.name}: non-finite array entry"]
    except ValueError as exc:
        return [f"{path.name}: {exc}"]
    return []
