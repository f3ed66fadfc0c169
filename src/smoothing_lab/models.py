"""Finite-atom models of the branch point process (N, A_1, ..., A_N).

A ``ModelSpec`` is the compiled branch law: either the joint law as a finite
list of (probability, branch) atoms, each branch a nonempty list of nonzero
nonnegative matrices, with the law of N (``n_law``) read off the atoms; or
the law of N and a finite single-matrix law (``mu_atoms``) whose i.i.d.
draws, given N = n, make up the branch, with ``atoms = None``.  Every
derived law (exact expectations, conditional laws, samplers) reads that
form, so the finite-atom arithmetic stays in this module.  Every sampler
draws from, and gathers rows of, a compiled ``BranchTable``: one per model,
built on first use, and one per single-matrix chain law.

A model file declares the law in one of three styles, and
``model_from_dict`` is the one reader of the style:

* ``ExplicitAtoms``: the (probability, branch) atoms themselves.
* ``IIDCoefficients``: the law of N and the single-matrix law.
* ``ScalarRandomized``: a fixed base branch multiplied by one random
  positive scalar drawn from a finite law (the scalar is shared across the
  whole branch), compiled to one atom (p, x * base) per scalar atom (p, x).
"""
from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._common import DEFAULT_ELEMENT_BUDGET, resolve_budget
from .errors import BudgetExceeded, NoSingletonBranch
from .matrices import check_nonneg_matrix

_PROB_TOL = 1e-12
_MATRIX_TOL = 1e-12
_IID_TOL = 1e-9               # slack on the factorised branch probabilities
_COUNTED_ATOMS = 8            # largest table drawn by counting CDF crossings
_GUIDE_STEPS = 3              # full passes of the guide-table walk


def _check_prob_list(ps, what: str) -> None:
    ps = np.asarray(ps, dtype=float)
    if ps.size == 0:
        raise ValueError(f"{what}: empty probability list")
    if not np.all((ps > 0) & (ps <= 1)):
        raise ValueError(f"{what}: probabilities must lie in (0, 1]")
    if abs(ps.sum() - 1.0) > _PROB_TOL:
        raise ValueError(f"{what}: probabilities sum to {ps.sum()!r}, not 1")


def _check_branch(branch, dim: int, what: str) -> tuple:
    if len(branch) == 0:
        raise ValueError(f"{what}: empty branch (N = 0 is not allowed)")
    out = []
    for m in branch:
        m = check_nonneg_matrix(m)
        if m.shape[0] != dim:
            raise ValueError(f"{what}: matrix dimension {m.shape[0]} != {dim}")
        if not m.any():
            raise ValueError(f"{what}: zero matrix in branch")
        out.append(m)
    return tuple(out)


@dataclass(frozen=True)
class BranchTable:
    """The joint branch law compiled into arrays: atom b, with probability
    probs[b], is the branch mats[offsets[b]:offsets[b] + sizes[b]] summing to
    sums[b].  cols[i, j] = mats[:, i, j] is the entry stack that `row`, the
    one gather of branch-matrix rows, reads: the chain step calls it on its
    own, and the slot fold of a pool round and a tree level once per slot
    and row, adding in slot order as sums[b] does.  cdf holds the normalised
    cumulative probabilities that `draw` inverts.  The arrays are read-only,
    since every reader shares them."""

    probs: np.ndarray    # (B,)
    mats: np.ndarray     # (M, d, d)
    sizes: np.ndarray    # (B,)
    size_range: np.ndarray  # (2,), sizes.min() and .max() for every fold
    offsets: np.ndarray  # (B,)
    sums: np.ndarray     # (B, d, d)
    cols: np.ndarray     # (d, d, M)
    cdf: np.ndarray      # (B,), cdf[-1] == 1

    @classmethod
    def compile(cls, atoms) -> "BranchTable":
        """The table of a list of (probability, branch) pairs."""
        mats = np.stack([m for _, br in atoms for m in br])
        sizes = np.array([len(br) for _, br in atoms])
        offsets = np.cumsum(sizes) - sizes
        probs = np.array([p for p, _ in atoms])
        cdf = probs.cumsum()
        cdf /= cdf[-1]
        sums = mats[offsets]            # each branch added in slot order
        for s in range(1, sizes.max()):
            sums[sizes > s] += mats[offsets[sizes > s] + s]
        table = cls(probs=probs, mats=mats, sizes=sizes, offsets=offsets,
                    size_range=np.array([sizes.min(), sizes.max()]),
                    sums=sums, cols=mats.transpose(1, 2, 0).copy(), cdf=cdf)
        for a in vars(table).values():
            a.flags.writeable = False
        return table

    @functools.cached_property
    def guide(self) -> np.ndarray:
        """guide[j]: the number of cdf entries <= j / G, for G the power of
        two from 4B.  Built by the first draw that reads it, so the word
        tables of the chains, which are never drawn, have none."""
        buckets = 1 << (4 * self.cdf.size - 1).bit_length()
        guide = self.cdf.searchsorted(np.arange(buckets) / buckets,
                                      side="right")
        guide.flags.writeable = False
        return guide

    def draw(self, rng, size, out=None, u=None):
        """Atom ids drawn i.i.d. from probs: the ids, and the uniforms
        consumed, of rng.choice(B, size, p=probs), bit for bit.

        A uniform u gives the number of cdf entries <= u.  Small tables count
        the crossings of cdf[:-1] directly.  Larger ones start at the guide
        entry of u's bucket, floor(u G) (exact, G being a power of two), and
        step up while cdf[id] <= u; ids still short after _GUIDE_STEPS full
        passes, in a bucket crowded with atoms, take the binary search.
        Buffers not given are new; given, size is a count, the uniforms go
        to the head of `u` and the ids to `out`, of any integer dtype that
        holds them.
        """
        u = rng.random(size) if u is None else rng.random(out=u[:size])
        ids = np.empty(np.shape(u), dtype=np.int64) if out is None else out
        if self.cdf.size > _COUNTED_ATOMS:
            at = self.guide.take((u * self.guide.size).astype(np.intp))
            for _ in range(_GUIDE_STEPS):
                step = self.cdf.take(at) <= u
                if not step.any():
                    break
                at += step
            else:
                late = self.cdf.take(at) <= u
                at[late] = self.cdf.searchsorted(u[late], side="right")
            ids[...] = at
        else:
            ids[...] = 0
            for c in self.cdf[:-1]:
                ids += u >= c
        return ids

    def row(self, i: int, ids: np.ndarray, x: np.ndarray, out=None,
            term=None) -> np.ndarray:
        """Row i of mats[ids[e]] @ x[:, ..., e] along x's last axis e, summed
        entry by entry into `out`, so no (E, d, d) array is built: one chain
        step, or one slot of a fold.  The first entry is gathered into
        `out`, the others into `term` (mode="clip": the ids are in range),
        and multiplied by x[j] there.  Buffers not given are new; given ones
        hold one entry per id, so x is then (d, E)."""
        cols = self.cols[i]
        out = np.multiply(cols[0].take(ids, out=out, mode="clip"), x[0],
                          out=out)
        for j in range(1, x.shape[0]):
            out += np.multiply(cols[j].take(ids, out=term, mode="clip"), x[j],
                               out=term)
        return out


@dataclass(frozen=True)
class ModelSpec:
    """Validated finite-atom branch law in its compiled form.

    It takes either atoms, with n_law derived as one (n, prob) entry per
    atom, or the n_law and mu_atoms of an i.i.d. law, with atoms None; any
    other combination raises ValueError.
    """

    dim: int
    atoms: tuple | None = None          # ((prob, (matrix, ...)), ...)
    n_law: tuple | None = None          # ((n, prob), ...)
    mu_atoms: tuple | None = None       # ((prob, matrix), ...)

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        given = tuple(x is not None for x in (self.atoms, self.n_law,
                                              self.mu_atoms))
        if given == (True, False, False):
            atoms = tuple((float(prob), _check_branch(br, self.dim, "atom"))
                          for prob, br in self.atoms)
            _check_prob_list([p for p, _ in atoms], "atoms")
            object.__setattr__(self, "atoms", atoms)
            n_law = tuple((len(br), p) for p, br in atoms)
        elif given == (False, True, True):
            n_law = tuple((int(n), float(p)) for n, p in self.n_law)
            if any(n < 1 for n, _ in n_law):
                raise ValueError("n_law values must be >= 1 (N = 0 is not allowed)")
            _check_prob_list([p for _, p in n_law], "n_law")
            mu = tuple(
                (float(p), _check_branch([m], self.dim, "mu atom")[0])
                for p, m in self.mu_atoms
            )
            _check_prob_list([p for p, _ in mu], "mu_atoms")
            object.__setattr__(self, "mu_atoms", mu)
        else:
            raise ValueError("a model takes atoms, or n_law and mu_atoms")
        object.__setattr__(self, "n_law", n_law)
        en = expected_n(self)
        if not en > 1.0:
            raise ValueError(f"E[N] = {en} must exceed 1")

    @functools.cached_property
    def branch_table(self) -> BranchTable:
        """The compiled branch law, expanded once on first use."""
        return BranchTable.compile(explicit_atoms(self))


def expected_n(spec: ModelSpec) -> float:
    return float(sum(p * n for n, p in spec.n_law))


def explicit_atoms(spec: ModelSpec) -> list:
    """The joint branch law as a flat list of (probability, branch) pairs.

    For an i.i.d. model this enumerates the product law per value of N,
    which is exponential in N; the budget guard keeps desk-scale use honest.
    """
    budget = resolve_budget(DEFAULT_ELEMENT_BUDGET)
    if spec.atoms is not None:
        return [(p, list(br)) for p, br in spec.atoms]
    total = sum(len(spec.mu_atoms) ** n for n, _ in spec.n_law)
    if total > budget:
        raise BudgetExceeded(
            f"expanding the i.i.d. law needs {total} atoms, budget {budget}"
        )
    out = []
    for n, pn in spec.n_law:
        for combo in itertools.product(spec.mu_atoms, repeat=n):
            prob = pn * float(np.prod([q for q, _ in combo]))
            out.append((prob, [m for _, m in combo]))
    return out


def mean_sum_matrix(spec: ModelSpec) -> np.ndarray:
    """Exact E[A_1 + ... + A_N]."""
    if spec.atoms is None:
        return expected_n(spec) * sum(p * m for p, m in spec.mu_atoms)
    out = np.zeros((spec.dim, spec.dim))
    for p, br in spec.atoms:
        out += p * sum(br)
    return out


def mu_mean(spec: ModelSpec) -> np.ndarray:
    """Mean of the size-biased single-matrix law: mean_sum / E[N]."""
    return mean_sum_matrix(spec) / expected_n(spec)


def same_matrix(stack, m) -> np.ndarray:
    """Whether each matrix of stack (..., d, d) equals m: max|E - m| <=
    _MATRIX_TOL * max|m|, a rule that does not depend on scale."""
    return np.abs(stack - m).max(axis=(-2, -1)) <= _MATRIX_TOL * np.abs(m).max()


def _find_matrix(pairs, m) -> int | None:
    """Index of the first (weight, matrix) pair whose matrix is the same as m."""
    return next((i for i, (_, mi) in enumerate(pairs) if same_matrix(mi, m)),
                None)


def _merge_weighted(pairs) -> list:
    """Merge (weight, matrix) pairs whose matrices agree within tolerance."""
    merged: list = []
    for w, m in pairs:
        i = _find_matrix(merged, m)
        if i is None:
            merged.append((w, m))
        else:
            merged[i] = (merged[i][0] + w, merged[i][1])
    return merged


def mu_atom_law(spec: ModelSpec) -> list:
    """Atoms of the size-biased single-matrix law: weight of m is
    E[#{i <= N : A_i = m}] / E[N]."""
    if spec.atoms is None:
        return list(spec.mu_atoms)
    en = expected_n(spec)
    return _merge_weighted([(p / en, m) for p, br in spec.atoms for m in br])


def mu_support(spec: ModelSpec) -> list:
    """Distinct matrices charged by the single-matrix law."""
    return [m for _, m in mu_atom_law(spec)]


def prob_n_equals(spec: ModelSpec, k: int) -> float:
    """Exact P[N = k]."""
    return float(sum(p for n, p in spec.n_law if n == k))


def conditioned_a1_atoms(spec: ModelSpec) -> list:
    """Law of A_1 conditioned on {N = 1}, as (probability, matrix) atoms."""
    p1 = prob_n_equals(spec, 1)
    if p1 <= 0:
        raise NoSingletonBranch("P[N = 1] = 0 for this model")
    if spec.atoms is None:
        return list(spec.mu_atoms)
    return _merge_weighted([(p / p1, br[0]) for p, br in spec.atoms
                            if len(br) == 1])


def check_furstenberg_kesten(spec: ModelSpec) -> tuple:
    """(holds, c): every A_1 realization strictly positive with entry ratio <= c.

    c is the smallest admissible constant over atoms; infinity when some
    realization has a zero entry.
    """
    firsts = ([m for _, m in spec.mu_atoms] if spec.atoms is None
              else [br[0] for _, br in spec.atoms])
    worst = 1.0
    for m in firsts:
        if np.any(m <= 0):
            return False, float("inf")
        worst = max(worst, float(m.max() / m.min()))
    return True, worst


def check_iid_coefficients(spec: ModelSpec) -> bool:
    """Whether, given N, the branch matrices are conditionally i.i.d.

    Exact finite-atom test: each positional marginal must match the
    size-biased single-matrix law, and each conditional branch probability
    must factorize as the product of marginal masses.
    """
    if spec.atoms is None:
        return True
    mu = mu_atom_law(spec)
    by_n: dict = {}
    for p, br in spec.atoms:
        by_n.setdefault(len(br), []).append((p, br))
    for group in by_n.values():
        pn = sum(p for p, _ in group)
        for p, br in group:
            found = [_find_matrix(mu, m) for m in br]
            if None in found:
                return False
            if abs(p / pn - float(np.prod([mu[i][0] for i in found]))) > _IID_TOL:
                return False
    return True


# ---------------------------------------------------------------------------
# JSON loading and the bundled example models
# ---------------------------------------------------------------------------

def model_from_dict(data) -> ModelSpec:
    """The compiled model of a parsed JSON document, the one reader of its
    declaration style; ValueError when the document is not an object with
    an integer dim, or an entry is malformed."""
    if not isinstance(data, dict):
        raise ValueError("a model is a JSON object")
    kind = data.get("kind")
    dim = data.get("dim")
    if isinstance(dim, bool) or not isinstance(dim, int):
        raise ValueError(f"dim must be an integer, got {dim!r}")
    try:
        if kind == "ExplicitAtoms":
            return ModelSpec(dim=dim, atoms=tuple(
                (a["prob"],
                 tuple(np.array(m, dtype=float) for m in a["branch"]))
                for a in data["atoms"]
            ))
        if kind == "IIDCoefficients":
            return ModelSpec(
                dim=dim,
                n_law=tuple((a["n"], a["prob"]) for a in data["n_law"]),
                mu_atoms=tuple(
                    (a["prob"], np.array(a["matrix"], dtype=float))
                    for a in data["mu_atoms"]
                ),
            )
        if kind == "ScalarRandomized":
            # ModelSpec checks the scaled branches and the probabilities
            base = [np.array(m, dtype=float) for m in data["base_branch"]]
            law = tuple((float(a["prob"]), float(a["value"]))
                        for a in data["scalar_law"])
            if not all(0 < x < np.inf for _, x in law):
                raise ValueError("scalar_law values must be positive and finite")
            return ModelSpec(dim=dim, atoms=tuple(
                (p, tuple(x * m for m in base)) for p, x in law))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed {kind} entry: {exc!r}") from exc
    raise ValueError(f"unknown model kind {kind!r}")


def load_model(path) -> ModelSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_dict(json.load(fh))


_MODEL_DIR = Path(__file__).resolve().parent / "models"
EXAMPLE_NAMES = ("ex1", "ex2", "ex3")


def example_path(name: str) -> Path:
    if name not in EXAMPLE_NAMES:
        raise ValueError(f"unknown bundled model {name!r}; have {EXAMPLE_NAMES}")
    return _MODEL_DIR / f"{name}.json"


def example_model(name: str) -> ModelSpec:
    return load_model(example_path(name))
