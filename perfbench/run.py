"""smoothing-lab benchmark.

    python3 perfbench/run.py --workload pool --seed 1 --seconds 27 --trace 0

Run from the root of a source checkout.  The program is used from `src/`
as it stands; nothing is installed.  Inputs are generated from --seed.  The
workload's operations then run back to back, in passes, until --seconds have
been measured and at least two passes are done; a second pass checks that
every output repeats byte for byte.

--trace 0 runs each operation in a fresh interpreter, as a user would, and
reports the end-to-end metrics.  --trace 1 runs one untraced and one traced
pass in this process, through `smoothing_lab.cli.main(argv)` and the library,
with the public functions of every layer wrapped, and reports the per-layer
metrics of `layers.py`.  The last line of stdout is the JSON result; the line
before it is the run record (machine, versions, input hashes, per-command
times, failures).  Scratch files go to `.perfbench_work/` in the checkout.
"""
from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

import inputs
from layers import PER_LAYER
from workloads import WORKLOADS, nonfinite_values

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd().resolve()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
RUN_DEADLINE_S = 150.0      # no operation starts or runs past this
MAX_PASSES = 50
SETUP_PROBES = 5

SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
import smoothing_lab.cli
from smoothing_lab.models import EXAMPLE_NAMES, example_path, load_model
for name in sys.argv[1:]:
    load_model(example_path(name) if name in EXAMPLE_NAMES else name)
print(repr(time.perf_counter() - t0))
"""


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


# ---------------------------------------------------------------------------
# Inputs and the run record
# ---------------------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def prepare_inputs(workload, seed: int) -> tuple:
    """Write the generated models and untimed pools; return op seeds and
    the hash of every input file."""
    from smoothing_lab.models import load_model

    if WORK.exists():
        shutil.rmtree(WORK)
    in_dir = WORK / "inputs"
    for d in (in_dir, WORK / "run", WORK / "logs"):
        d.mkdir(parents=True)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    generators = {"gen-iid3.json": inputs.gen_iid3,
                  "gen-sing3.json": inputs.gen_sing3}
    for name, make in generators.items():   # fixed order: same draws per seed
        model = make(rng)
        if name in workload.models:
            inputs.write_json(in_dir / name, model)
            load_model(in_dir / name)
    seeds = [int(s) for s in rng.integers(0, 2**31 - 1, size=8)]
    for out, model, k, rounds, seed_idx in workload.pools:
        proc = subprocess.run(
            [sys.executable, "-m", "smoothing_lab.cli", "simulate", "--model",
             model, "--k", str(k), "--rounds", str(rounds), "--seed",
             str(seeds[seed_idx]), "--out", out],
            cwd=in_dir, env=child_env(), capture_output=True, timeout=60)
        if proc.returncode != 0:
            raise BenchError(f"preparing {out} failed: {proc.stderr.decode()}")
    hashes = {p.name: inputs.file_hash(p) for p in sorted(in_dir.iterdir())}
    return seeds, hashes


def _git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def run_record(args, input_hashes: dict) -> dict:
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = None
    source = hashlib.sha256()
    for path in sorted((SRC / "smoothing_lab").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            source.update(path.relative_to(SRC).as_posix().encode())
            source.update(path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(), "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__, "blas": blas,
        "blas_threads_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_sha": _git_sha(), "source_sha256": source.hexdigest(),
        "inputs_sha256": input_hashes,
    }


# ---------------------------------------------------------------------------
# Running operations
# ---------------------------------------------------------------------------


def _run_subprocess(op, run_dir: Path, log: Path, timeout: float) -> tuple:
    """(exit code, seconds, stdout bytes, peak RSS in MB) of one child."""
    if op.library:
        argv = [sys.executable, str(HERE / "libcall.py"), *op.argv]
    else:
        argv = [sys.executable, "-m", "smoothing_lab.cli", *op.argv]
    with open(log.with_suffix(".out"), "wb") as out, \
            open(log.with_suffix(".err"), "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=run_dir, env=child_env(),
                                stdout=out, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            if proc.returncode is None:     # interrupted: leave no child
                proc.kill()
                proc.wait()
        elapsed = time.perf_counter() - t0
    return (proc.returncode, elapsed, log.with_suffix(".out").read_bytes(),
            usage.ru_maxrss / 1024.0)


def _run_inprocess(op, run_dir: Path, log: Path, timeout: float) -> tuple:
    """(exit code, seconds, stdout bytes, None) of one call in this process."""
    import libcall
    from smoothing_lab import cli

    def expire(signum, frame):
        raise TimeoutError("run deadline reached")

    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(run_dir)
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    t0 = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            entry = libcall.main if op.library else cli.main
            code = entry(list(op.argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:   # a crash is a failed operation, not the end of the run
        code = 1
        err.write(traceback.format_exc())
    finally:
        elapsed = time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        os.chdir(cwd)
    log.with_suffix(".err").write_text(err.getvalue(), encoding="utf-8")
    return code, elapsed, out.getvalue().encode(), None


def run_pass(ops, label: str, execute, deadline: float) -> list:
    """Run every op once in an empty run directory; return one record each."""
    run_dir = WORK / "run"
    for leftover in run_dir.iterdir():
        leftover.unlink()
    records = []
    for i, op in enumerate(ops):
        rec = {"op": op.name, "command": op.command, "seconds": None,
               "rss_mb": None, "digest": {}, "problems": []}
        records.append(rec)
        remaining = deadline - time.perf_counter()
        if remaining <= 0:
            rec["problems"].append("not run: run deadline reached")
            continue
        before = set(os.listdir(run_dir))
        log = WORK / "logs" / f"{label}-{i}"
        code, rec["seconds"], stdout, rec["rss_mb"] = execute(
            op, run_dir, log, remaining)
        if code != 0:
            tail = log.with_suffix(".err").read_text(errors="replace")[-400:]
            rec["problems"].append(f"exit code {code}: {tail.strip()}")
        rec["digest"]["<stdout>"] = hashlib.sha256(stdout).hexdigest()
        for name in sorted(set(os.listdir(run_dir)) - before):
            path = run_dir / name
            rec["digest"][name] = inputs.file_hash(path)
            rec["problems"] += nonfinite_values(path)
        if code == 0 and op.gate is not None:
            try:
                rec["problems"] += op.gate(run_dir)
            except Exception as exc:    # a malformed output fails the gate
                rec["problems"].append(f"gate error: {exc!r}")
    return records


def check_repeats(passes: list) -> None:
    """Flag every op whose outputs differ from its first pass."""
    first = passes[0]
    for later in passes[1:]:
        for ref, rec in zip(first, later):
            if rec["seconds"] is not None and ref["seconds"] is not None \
                    and rec["digest"] != ref["digest"]:
                changed = sorted(
                    k for k in set(rec["digest"]) | set(ref["digest"])
                    if rec["digest"].get(k) != ref["digest"].get(k))
                rec["problems"].append(
                    f"outputs differ from pass 1: {changed}")


def measure_setup(models: tuple) -> list:
    """Seconds to import smoothing_lab.cli and load the workload's models,
    each in a fresh interpreter; one untimed warm-up first."""
    paths = [m if not m.endswith(".json") else str(WORK / "inputs" / m)
             for m in models]
    times = []
    for i in range(SETUP_PROBES + 1):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, *paths],
                              env=child_env(), capture_output=True, timeout=60)
        if proc.returncode != 0:
            raise BenchError(f"setup probe failed: {proc.stderr.decode()}")
        if i > 0:
            times.append(float(proc.stdout.decode().strip().splitlines()[-1]))
    return times


# ---------------------------------------------------------------------------
# The two kinds of run
# ---------------------------------------------------------------------------


def _pass_seconds(records: list) -> float:
    return sum(r["seconds"] or 0.0 for r in records)


def untraced_run(workload, ops, seconds: float, t_start: float):
    setup = measure_setup(workload.models)
    deadline = t_start + RUN_DEADLINE_S
    passes = []
    t0 = time.perf_counter()
    while len(passes) < 2 or (
            len(passes) < MAX_PASSES
            and time.perf_counter() - t0 + _pass_seconds(passes[-1]) <= seconds):
        passes.append(run_pass(ops, f"pass{len(passes)}", _run_subprocess,
                               deadline))
    check_repeats(passes)
    # per operation, the median over passes; a workload's time is their sum
    op_median = [statistics.median(p[i]["seconds"] or 0.0 for p in passes)
                 for i in range(len(ops))]
    per_command: dict = {}
    for op, seconds in zip(ops, op_median):
        key = f"{op.command}_s"
        per_command[key] = per_command.get(key, 0.0) + seconds
    metrics = {
        "wall_s": (sum(op_median), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (statistics.median(
            max(r["rss_mb"] or 0.0 for r in p) for p in passes), "MB"),
    }
    extra = {"setup_probes_s": setup, "per_command_s": per_command}
    return passes, metrics, extra


def traced_run(workload_name: str, ops, seconds: float, t_start: float):
    """Pairs of one untraced and one traced pass, in alternating order,
    until --seconds are measured; each metric is the median over pairs."""
    import scipy.optimize  # noqa: F401  lazily imported by the package;
    import scipy.spatial   # noqa: F401  load before any pass is timed

    import libcall  # noqa: F401
    import smoothing_lab.cli  # noqa: F401
    from tracer import Tracer, TraceError

    deadline = t_start + RUN_DEADLINE_S
    passes, pairs = [], []
    t0 = time.perf_counter()
    while not pairs or (
            2 * len(pairs) < MAX_PASSES
            and time.perf_counter() - t0 + sum(pairs[-1][1:]) <= seconds):
        tracer = Tracer()
        walls = {}
        for traced in ((False, True) if len(pairs) % 2 == 0 else (True, False)):
            label = f"{'traced' if traced else 'untraced'}{len(pairs)}"
            if traced:
                tracer.install()
            try:
                records = run_pass(ops, label, _run_inprocess, deadline)
            finally:
                tracer.uninstall()
            passes.append(records)
            walls[traced] = _pass_seconds(records)
        pairs.append((tracer, walls[True], walls[False]))
    check_repeats(passes)
    with open(WORK / "spans.jsonl", "w", encoding="utf-8") as fh:
        for i, (tracer, _, _) in enumerate(pairs):
            tracer.write(fh, pair=i)
    uncalled = pairs[0][0].uncalled(workload_name)
    if uncalled:
        raise TraceError(f"watched functions never called on "
                         f"{workload_name}: {uncalled}")
    per_pair = []
    for tracer, traced_wall, untraced_wall in pairs:
        values = tracer.metrics()
        values["trace.wall_s"] = traced_wall
        values["trace.overhead_s"] = traced_wall - untraced_wall
        values["trace.spans"] = len(tracer.spans)
        per_pair.append(values)
    metrics = {m.name: (statistics.median(v[m.name] for v in per_pair), m.unit)
               for m in PER_LAYER}
    extra = {"untraced_wall_s": statistics.median(p[2] for p in pairs),
             "dominant": pairs[0][0].dominant()}
    return passes, metrics, extra


def _check_benchmark_file() -> None:
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return
    listed = [m["name"] for m in json.loads(spec_path.read_text())["per_layer"]]
    if listed != [m.name for m in PER_LAYER]:
        raise BenchError("BENCHMARK.json per_layer does not match layers.py")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    t_start = time.perf_counter()
    # run `finally` blocks, which stop any child, when asked to terminate
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    if not (SRC / "smoothing_lab" / "cli.py").is_file():
        print(f"error: no smoothing_lab sources under {SRC}; run from the "
              "root of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    try:
        _check_benchmark_file()
        seeds, hashes = prepare_inputs(workload, args.seed)
        ops = workload.ops(seeds)
        if args.trace:
            passes, metrics, extra = traced_run(workload.name, ops,
                                                args.seconds, t_start)
        else:
            passes, metrics, extra = untraced_run(workload, ops, args.seconds,
                                                  t_start)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    records = [r for p in passes for r in p]
    failed = [r for r in records if r["problems"]]
    record = run_record(args, hashes)
    record.update(extra)
    record.update({
        "why": workload.why, "limits": list(workload.limits),
        "passes": len(passes),
        "fail_ratio": len(failed) / len(records),
        "operations": [{"op": r["op"], "seconds": r["seconds"],
                        "rss_mb": r["rss_mb"]} for r in records],
        "failures": [{"op": r["op"], "problems": r["problems"]} for r in failed],
    })
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": not failed, "attempted": len(records), "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
