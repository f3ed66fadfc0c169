"""Seeding and budget plumbing.

All sampling entry points accept either an integer seed or a ready
``numpy.random.Generator``.  Integers are fed to the counter-based Philox
bit generator, so independent replicas can be given disjoint streams by
spawning children from one ``SeedSequence``.
"""
from __future__ import annotations

import os

import numpy as np

from .errors import BudgetExceeded

BUDGET_ENV_VAR = "SMOOTHING_LAB_BUDGET"
DEFAULT_NODE_BUDGET = 10_000_000
DEFAULT_ELEMENT_BUDGET = 200_000


def as_generator(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.Generator(np.random.Philox(seed))
    if isinstance(seed, (int, np.integer)):
        return np.random.Generator(np.random.Philox(np.random.SeedSequence(int(seed))))
    raise TypeError(f"seed must be an int, SeedSequence or Generator, got {seed!r}")


def spawn_generators(seed, n: int) -> list:
    """n generators on disjoint Philox streams, deterministic in (seed, n)."""
    if isinstance(seed, np.random.Generator):
        # child streams drawn through the generator itself stay reproducible
        keys = seed.integers(0, 2**63 - 1, size=n)
        return [as_generator(int(k)) for k in keys]
    if isinstance(seed, (int, np.integer)):
        seed = np.random.SeedSequence(int(seed))
    return [np.random.Generator(np.random.Philox(c)) for c in seed.spawn(n)]


def resolve_budget(default: int) -> int:
    """SMOOTHING_LAB_BUDGET when set, else `default`; a value that is not
    an integer of at least 1 raises ValueError."""
    env = os.environ.get(BUDGET_ENV_VAR)
    if not env:
        return default
    try:
        budget = int(env)
    except ValueError:
        budget = 0
    if budget < 1:
        raise ValueError(f"{BUDGET_ENV_VAR} must be an integer of at least 1, "
                         f"got {env!r}")
    return budget


def charge_budget(count: int, budget: int, what: str) -> None:
    if count > budget:
        raise BudgetExceeded(f"{what}: {count} exceeds budget {budget}")
