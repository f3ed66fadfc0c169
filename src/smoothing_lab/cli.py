"""Batch command-line driver.

Subcommands: simulate, spectrum, support, diagnose, check.  Every sampling
subcommand requires --seed; outputs are CSV (17 significant digits, so runs
hash identically) plus JSON summaries.  File names append to the --out or
--out-prefix path exactly as given, dots included, and each run but check's
writes <--out or --out-prefix>.manifest.json, which records every parsed
argument and so reproduces the run byte for byte.

Exit codes: 0 success, 2 input error, 3 computation error, 4 budget error;
main returns them, argparse's own 2 and --help's 0 included.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from ._common import open_replacing
from .errors import (
    BudgetExceeded,
    EmptyTail,
    InsufficientDecay,
    SmoothingLabError,
)
from .models import EXAMPLE_NAMES, example_path, load_model

# each command imports its own layers, so a process loads only the layers
# of the command it runs


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _load_model_arg(arg: str) -> tuple:
    if arg in EXAMPLE_NAMES:
        path = example_path(arg)
    else:
        path = Path(arg)
        if not path.exists():
            raise ValueError(f"model file not found: {arg}")
    try:
        return load_model(path), str(path)
    except ValueError as exc:  # malformed JSON or a malformed model
        raise ValueError(f"invalid model file {path}: {exc}") from exc


def _json_text(path, payload) -> tuple:
    """(path, strict JSON text); a non-finite value raises ValueError."""
    return path, json.dumps(payload, indent=2, sort_keys=True,
                            allow_nan=False) + "\n"


def _csv_text(path, header, rows) -> tuple:
    """(path, CSV text); a non-finite number raises ValueError, as in JSON."""
    numbers = (int, float, np.floating)
    lines = [",".join(header)]
    for row in rows:
        for x in row:
            if isinstance(x, numbers) and not np.isfinite(x):
                raise ValueError(f"non-finite value {x!r} for {path}")
        lines.append(",".join(_fmt(x) if isinstance(x, numbers)
                              else str(x) for x in row))
    return path, "\n".join(lines) + "\n"


def _write_texts(texts) -> None:
    """Write each (path, text) in order, each by rename.  Every text is
    built, and so checked, before the first file opens, so a run writes all
    or none."""
    for path, text in texts:
        with open_replacing(path) as fh:
            fh.write(text)


def _appended(path, suffix: str) -> Path:
    """`path` with `suffix` appended to its name as given, dots included."""
    path = Path(path)
    return path.with_name(path.name + suffix)


def _manifest(args, model_path: str, outputs, **extra) -> tuple:
    """(path, text) of <--out or --out-prefix>.manifest.json: every parsed
    argument, with the command, model and seed under keys of their own, plus
    `extra`.  The manifest is written last, after every output."""
    given = vars(args)
    parameters = {k: v for k, v in given.items()
                  if k not in ("func", "command", "model", "seed")}
    path = _appended(given.get("out") or given["out_prefix"], ".manifest.json")
    return _json_text(path, {
        "command": args.command, "model_path": model_path,
        "seed": given.get("seed"), "parameters": {**parameters, **extra},
        "output_paths": [str(p) for p in outputs], "tool_version": __version__,
    })


def _parse_vector(text: str) -> np.ndarray:
    try:
        vec = np.array([float(x) for x in text.split(",")], dtype=float)
    except ValueError as exc:
        raise ValueError(f"cannot parse vector {text!r}") from exc
    if not np.isfinite(vec).all():
        raise ValueError(f"vector {text!r} has a non-finite entry")
    return vec


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_simulate(args) -> int:
    from .cascade import heavy_tail_pool, pool_to_csv, run_fixed_point

    spec, model_path = _load_model_arg(args.model)
    initial_pool = None
    init = None
    if args.init_tail_index is not None:
        initial_pool = heavy_tail_pool(spec, args.k, args.init_tail_index,
                                       seed=args.seed)
    elif args.init is not None:
        init = _parse_vector(args.init)
        if init.size != spec.dim:
            raise ValueError("--init dimension does not match the model")
    pool, history = run_fixed_point(
        spec, k=args.k, rounds=args.rounds, init=init, seed=args.seed,
        initial_pool=initial_pool,
    )
    manifest = _manifest(args, model_path, [args.out],
                         mean_norm_history=[float(h) for h in history])
    pool_to_csv(pool, args.out)
    _write_texts([manifest])
    return 0


def cmd_spectrum(args) -> int:
    from .spectral import spectral_profile

    spec, model_path = _load_model_arg(args.model)
    s_grid = None
    if args.s_grid:
        s_grid = _parse_vector(args.s_grid)
    profile = spectral_profile(
        spec, s_grid, chain_n=args.chain_n, chain_trials=args.trials,
        lyap_n=args.lyap_n, lyap_trials=args.lyap_trials,
        grid_size=args.grid_size, seed=args.seed,
    )
    rows = []
    for i, s in enumerate(profile.s_grid):
        kt = profile.kappa_tilde.get(float(s), "")
        rows.append([s, profile.kappa[i], profile.kappa_stderr[i],
                     profile.m[i], kt])
    texts = [
        _csv_text(_appended(args.out_prefix, ".csv"),
                  ["s", "kappa", "stderr", "m", "kappa_tilde"], rows),
        _json_text(_appended(args.out_prefix, ".json"), {
            "gamma": profile.gamma,
            "gamma_stderr": profile.gamma_stderr,
            "alpha": profile.alpha,
            "a0": profile.a0,
        }),
    ]
    _write_texts(texts + [_manifest(args, model_path, [p for p, _ in texts])])
    return 0


def cmd_support(args) -> int:
    from .support import (check_allowability, check_positivity, cone_hull,
                          empirical_support_check, enumerate_semigroup,
                          lambda_set, lambda_stability,
                          search_radius_witnesses)

    spec, model_path = _load_model_arg(args.model)
    enum = enumerate_semigroup(spec, args.length)
    dirs = lambda_set(enum)
    payload = {
        "length": args.length,
        "lambda_directions": [v.tolist() for v, _ in dirs],
        "lambda_words": [list(w) for _, w in dirs],
        "lambda_stable": lambda_stability(enum),
        "allowability": check_allowability(spec),
        "positivity": check_positivity(spec),
    }
    hull = None
    if dirs:
        hull = cone_hull(np.array([v for v, _ in dirs]))
        payload["hull_extremes"] = hull.extremes.tolist()
    if args.pool:
        if hull is None:
            raise ValueError("no strictly positive semigroup element at this "
                             "depth, so there is no cone to test")
        from .cascade import pool_from_csv

        pool = pool_from_csv(args.pool)
        frac, gaps = empirical_support_check(pool, hull)
        payload["inside_fraction"] = frac
        payload["coverage_gaps"] = gaps.tolist()
    res = search_radius_witnesses(spec)
    for side, witness in (("l1", res.small), ("l2", res.large)):
        payload[side] = None if witness is None else {
            "matrix": witness.matrix.tolist(),
            "radius": witness.radius,
            "word": list(witness.word),
            "certificate": witness.describe(),
        }
    _write_texts([_json_text(args.out, payload),
                  _manifest(args, model_path, [args.out])])
    return 0


def cmd_diagnose(args) -> int:
    from .cascade import pool_from_csv
    from .diagnostics import (decay_fit, harmonic_moment, kill_counts,
                              small_ball_exponent, sphere_grid,
                              transform_curve)

    spec, model_path = _load_model_arg(args.model)
    pool = pool_from_csv(args.pool)
    if pool.dim != spec.dim:
        raise ValueError("pool dimension does not match the model")

    curve = transform_curve(pool, max_exp=args.max_exp, n_probes=args.probes)
    try:
        a_hat, ci = decay_fit(curve, seed=args.seed)
    except InsufficientDecay:
        a_hat, ci = None, (None, None)
    curve_rows = [[r, m, curve.stderr]
                  for r, m in zip(curve.radii, curve.modulus)]

    probes = sphere_grid(spec.dim, args.probes or 128)
    deltas = np.array([0.0, 1e-4, 1e-3, 1e-2, 0.1])
    stats = kill_counts(spec, probes, deltas)
    kc_rows = []
    for i in range(probes.shape[0]):
        for j, dlt in enumerate(deltas):
            kc_rows.append(list(probes[i]) + [dlt, stats.means[i, j]])

    summary: dict = {
        "a_hat_ecf": None if a_hat is None else [a_hat, ci[0], ci[1]],
        "min_E_Ndelta": stats.min_mean_per_delta().tolist(),
        "delta_grid": deltas.tolist(),
    }
    try:
        slope, sci = small_ball_exponent(pool, seed=args.seed)
        summary["a0_smallball"] = [slope, sci[0], sci[1]]
    except EmptyTail:
        summary["a0_smallball"] = None
    table = {}
    for b in args.harmonic_b:
        value, finite = harmonic_moment(pool, b, seed=args.seed)
        table[str(b)] = {"estimate": value, "finite": finite}
    summary["harmonic_table"] = table

    texts = [
        _csv_text(_appended(args.out_prefix, "_ecf.csv"),
                  ["radius", "sup_modulus", "stderr"], curve_rows),
        _csv_text(_appended(args.out_prefix, "_killcounts.csv"),
                  [f"t{k}" for k in range(spec.dim)] + ["delta", "mean"],
                  kc_rows),
        _json_text(_appended(args.out_prefix, "_summary.json"), summary),
    ]
    _write_texts(texts + [_manifest(args, model_path, [p for p, _ in texts])])
    return 0


def cmd_check(args) -> int:
    from .diagnostics import kill_counts, sphere_grid
    from .models import (check_furstenberg_kesten, check_iid_coefficients,
                         expected_n, prob_n_equals)
    from .support import (check_allowability, check_positivity,
                          search_radius_witnesses)

    spec, _ = _load_model_arg(args.model)
    fk_holds, fk_c = check_furstenberg_kesten(spec)
    res = search_radius_witnesses(spec)
    probes = sphere_grid(spec.dim, args.grid)
    stats = kill_counts(spec, probes, np.array([0.0]))
    means0 = stats.means[:, 0]
    p_zero = np.array([law[0].get(0, 0.0) for law in stats.counts])
    p_one = np.array([law[0].get(1, 0.0) for law in stats.counts])

    rows = [
        ("branching", expected_n(spec) > 1.0,
         f"E[N] = {expected_n(spec):.6g}, P[N=1] = {prob_n_equals(spec, 1):.6g}"),
        ("allowability", check_allowability(spec),
         "each generator has a positive entry in every row and column"),
        ("positivity", check_positivity(spec),
         "some product strictly positive"),
        ("radius_witnesses", res.small is not None and res.large is not None,
         "r(l1) = {}, r(l2) = {}".format(
             "-" if res.small is None else f"{res.small.radius:.6g}",
             "-" if res.large is None else f"{res.large.radius:.6g}")),
        ("iid_coefficients", check_iid_coefficients(spec),
         "branch matrices conditionally i.i.d. given N"),
        ("entry_ratio", fk_holds,
         f"c = {fk_c:.6g}" if fk_holds else "some first matrix has a zero entry"),
        ("survival_counts",
         bool((means0 > 1.0).all() and (p_zero == 0.0).all()
              and (p_one < 1.0).all()),
         f"min E[N(t)] = {means0.min():.6g} over {args.grid} probes, "
         f"max P[N(t)=0] = {p_zero.max():.3g}, max P[N(t)=1] = {p_one.max():.3g}"),
    ]
    width = max(len(name) for name, _, _ in rows)
    lines = []
    for name, ok, detail in rows:
        verdict = "PASS" if ok else "FAIL"
        lines.append(f"{name:<{width}}  {verdict}  {detail}")
    print("\n".join(lines))
    if args.json:
        _write_texts([_json_text(args.json, {
            "model": args.model,
            "results": [
                {"name": n, "holds": bool(ok), "detail": d} for n, ok, d in rows
            ],
        })])
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smoothing-lab",
        description="Simulate and verify fixed points of the multivariate "
                    "smoothing transform with nonnegative matrix weights.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="population-dynamics pool snapshot")
    p.add_argument("--model", required=True,
                   help=f"model JSON path or one of {', '.join(EXAMPLE_NAMES)}")
    p.add_argument("--k", type=int, required=True, help="pool size")
    p.add_argument("--rounds", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="pool CSV path")
    start = p.add_mutually_exclusive_group()
    start.add_argument("--init", default=None,
                       help="comma-separated initial vector (default: Perron "
                            "eigenvector of the mean sum matrix)")
    start.add_argument("--init-tail-index", type=float, default=None,
                       help="start from a Pareto pool with this tail index "
                            "(for models whose mean matrix is subcritical)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("spectrum", help="spectral curves and exponents")
    p.add_argument("--model", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out-prefix", required=True)
    p.add_argument("--s-grid", default=None, help="comma-separated orders")
    p.add_argument("--chain-n", type=int, default=64)
    p.add_argument("--trials", type=int, default=20_000)
    p.add_argument("--lyap-n", type=int, default=1000)
    p.add_argument("--lyap-trials", type=int, default=10_000)
    p.add_argument("--grid-size", type=int, default=512)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("support", help="semigroup directions, cones, witnesses")
    p.add_argument("--model", required=True)
    p.add_argument("--length", type=int, default=3, help="max product length")
    p.add_argument("--pool", default=None, help="pool CSV to test against the cone")
    p.add_argument("--out", required=True, help="JSON output path")
    p.set_defaults(func=cmd_support)

    p = sub.add_parser("diagnose", help="transform curves and moment diagnostics")
    p.add_argument("--model", required=True)
    p.add_argument("--pool", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out-prefix", required=True)
    p.add_argument("--probes", type=int, default=None)
    p.add_argument("--max-exp", type=int, default=14,
                   help="largest dyadic radius exponent")
    p.add_argument("--harmonic-b", type=float, nargs="+", default=[0.5, 1.5])
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("check", help="run the model-condition checkers")
    p.add_argument("--model", required=True)
    p.add_argument("--grid", type=int, default=128)
    p.add_argument("--json", default=None, help="also write verdicts as JSON")
    p.set_defaults(func=cmd_check)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:   # a line argparse rejects, or --help
        return exc.code
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        # the package rejects bad arguments and malformed files with
        # ValueError; a path that cannot be read or written raises OSError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceeded as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return 4
    except SmoothingLabError as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
