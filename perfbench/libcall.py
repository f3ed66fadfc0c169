"""Public library calls of the tree workload, run the way a user script would.

    python3 perfbench/libcall.py martingale --model ex1 --depth 12 \
        --trials 2048 --seed 7 --out w.npy
    python3 perfbench/libcall.py survival --model ex2 --probes 128 \
        --depth 10 --seed 7 --out counts.npy

The functions are looked up on the package at call time, so a traced run that
has wrapped them sees these calls.
"""
from __future__ import annotations

import argparse

import numpy as np

import smoothing_lab as sl


def _model(name: str):
    if name in sl.models.EXAMPLE_NAMES:
        return sl.example_model(name)
    return sl.load_model(name)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="libcall")
    parser.add_argument("call", choices=("martingale", "survival"))
    parser.add_argument("--model", required=True)
    parser.add_argument("--depth", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trials", type=int, default=1)
    parser.add_argument("--probes", type=int, default=128)
    args = parser.parse_args(argv)
    spec = _model(args.model)
    if args.call == "martingale":
        result = sl.martingale_samples(spec, depth=args.depth,
                                       trials=args.trials, seed=args.seed)
    else:
        result = sl.survival_counts(spec, sl.sphere_grid(spec.dim, args.probes),
                                    depth=args.depth, seed=args.seed)
    np.save(args.out, result)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
