"""Seeded inputs: the two generated models and the untimed support pools.

Every input is a pure function of the workload seed.  The program under test
only ever sees the files written here.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

DIM = 3
ENTRY_LOW, ENTRY_HIGH = 0.05, 1.0
IID_N_LAW = ((2, 0.4), (3, 0.3), (4, 0.3))
IID_MU_PROBS = (0.4, 0.35, 0.25)
SING_ATOMS = ((0.25, (0,)), (0.25, (1,)), (0.5, (0, 1, 2)))


def _matrices(rng: np.random.Generator, count: int) -> np.ndarray:
    return rng.uniform(ENTRY_LOW, ENTRY_HIGH, size=(count, DIM, DIM))


def _radius(m: np.ndarray) -> float:
    return float(np.abs(np.linalg.eigvals(m)).max())


def gen_iid3(rng: np.random.Generator) -> dict:
    """3-dim i.i.d. model, N in {2,3,4}, three mu-atoms, critical mean.

    The product law has 3^2 + 3^3 + 3^4 = 117 explicit atoms.
    """
    mats = _matrices(rng, len(IID_MU_PROBS))
    en = sum(n * p for n, p in IID_N_LAW)
    mean = en * np.einsum("i,ijk->jk", np.array(IID_MU_PROBS), mats)
    mats /= _radius(mean)
    return {
        "dim": DIM, "kind": "IIDCoefficients",
        "n_law": [{"n": n, "prob": p} for n, p in IID_N_LAW],
        "mu_atoms": [{"prob": p, "matrix": m.tolist()}
                     for p, m in zip(IID_MU_PROBS, mats)],
    }


def gen_sing3(rng: np.random.Generator) -> dict:
    """3-dim explicit model shaped like ex3: 1/4 [B0], 1/4 [B1],
    1/2 [B0, B1, B2], scaled to a critical mean."""
    mats = _matrices(rng, 3)
    mean = sum(p * mats[list(ids)].sum(axis=0) for p, ids in SING_ATOMS)
    mats /= _radius(mean)
    return {
        "dim": DIM, "kind": "ExplicitAtoms",
        "atoms": [{"prob": p, "branch": [mats[i].tolist() for i in ids]}
                  for p, ids in SING_ATOMS],
    }


def write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def file_hash(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
