import csv
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest

import smoothing_lab as sl
from smoothing_lab import _common, cli, diagnostics, spectral
from smoothing_lab.cli import main
from smoothing_lab.errors import EmptyTail


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_simulate_writes_pool_and_manifest(tmp_path):
    out = tmp_path / "pool.csv"
    rc = main(["simulate", "--model", "ex1", "--k", "1000", "--rounds", "5",
               "--seed", "7", "--out", str(out)])
    assert rc == 0
    pool = sl.pool_from_csv(out)
    assert pool.size == 1000 and pool.dim == 2
    manifest = json.loads((tmp_path / "pool.csv.manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert manifest["seed"] == 7
    assert len(manifest["parameters"]["mean_norm_history"]) == 6


def test_simulate_zero_rounds_constant(tmp_path):
    out = tmp_path / "pool.csv"
    rc = main(["simulate", "--model", "ex1", "--k", "50", "--rounds", "0",
               "--seed", "1", "--out", str(out), "--init", "0.25,0.75"])
    assert rc == 0
    pool = sl.pool_from_csv(out)
    assert np.array_equal(pool.samples, np.tile([0.25, 0.75], (50, 1)))


def test_simulate_reruns_identically(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    for out in (out1, out2):
        assert main(["simulate", "--model", "ex2", "--k", "500", "--rounds",
                     "8", "--seed", "21", "--out", str(out)]) == 0
    assert sha(out1) == sha(out2)


def test_simulate_missing_model(tmp_path, capsys):
    rc = main(["simulate", "--model", "nope.json", "--k", "10", "--rounds",
               "1", "--seed", "1", "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "model file not found" in capsys.readouterr().err


def test_spectrum_ex3(tmp_path):
    prefix = tmp_path / "spec3"
    rc = main(["spectrum", "--model", "ex3", "--seed", "5",
               "--out-prefix", str(prefix),
               "--s-grid=-1.0,-0.5,0.0,1.0",
               "--chain-n", "30", "--trials", "4000",
               "--lyap-n", "200", "--lyap-trials", "2000",
               "--grid-size", "64"])
    assert rc == 0
    summary = json.loads(prefix.with_suffix(".json").read_text())
    assert summary["a0"] == pytest.approx(0.9457899479870234, abs=1e-6)
    assert summary["alpha"] == pytest.approx(0.5778, abs=0.05)
    lines = prefix.with_suffix(".csv").read_text().splitlines()
    assert lines[0] == "s,kappa,stderr,m,kappa_tilde"
    assert len(lines) == 5


def test_spectrum_dotted_prefix_keeps_its_name(tmp_path):
    prefix = tmp_path / "run.s0.5"
    assert main(["spectrum", "--model", "ex1", "--seed", "9",
                 "--out-prefix", str(prefix), "--s-grid", "0.5,1.0",
                 "--chain-n", "10", "--trials", "1000",
                 "--lyap-n", "100", "--lyap-trials", "500"]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "run.s0.5.csv", "run.s0.5.json", "run.s0.5.manifest.json"]
    manifest = json.loads((tmp_path / "run.s0.5.manifest.json").read_text())
    assert manifest["output_paths"] == [f"{prefix}.csv", f"{prefix}.json"]


def test_spectrum_does_not_solve_the_adjoint(tmp_path):
    # nearly diagonal atoms: the eigenvalue converges, the adjoint iteration
    # for the eigenmeasure (which spectrum never reads) would stall
    a = np.array([[0.5, 5e-6], [5e-6, 0.5]])
    model = {"dim": 2, "kind": "ExplicitAtoms", "atoms": [
        {"prob": 0.5, "branch": [a.tolist()]},
        {"prob": 0.5, "branch": [a.tolist()] * 3}]}
    path = tmp_path / "diag.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model, fh)
    prefix = tmp_path / "diag"
    assert main(["spectrum", "--model", str(path), "--seed", "1",
                 "--out-prefix", str(prefix), "--s-grid=-0.5,0.5",
                 "--grid-size", "64", "--chain-n", "10", "--trials", "500",
                 "--lyap-n", "50", "--lyap-trials", "200"]) == 0
    summary = json.loads((tmp_path / "diag.json").read_text())
    assert summary["a0"] == pytest.approx(1.0000144277997314, abs=1e-6)


def test_spectrum_ex1_alpha_one(tmp_path):
    prefix = tmp_path / "spec1"
    rc = main(["spectrum", "--model", "ex1", "--seed", "6",
               "--out-prefix", str(prefix), "--s-grid", "0.0,1.0",
               "--chain-n", "20", "--trials", "2000",
               "--lyap-n", "200", "--lyap-trials", "2000"])
    assert rc == 0
    summary = json.loads(prefix.with_suffix(".json").read_text())
    assert summary["alpha"] == 1.0
    assert summary["a0"] is None
    assert summary["gamma"] < -np.log(2)


def test_spectrum_reruns_identically(tmp_path):
    prefixes = [tmp_path / "r1", tmp_path / "r2"]
    for prefix in prefixes:
        assert main(["spectrum", "--model", "ex1", "--seed", "9",
                     "--out-prefix", str(prefix), "--s-grid", "0.5,1.0",
                     "--chain-n", "10", "--trials", "1000",
                     "--lyap-n", "100", "--lyap-trials", "500"]) == 0
    assert sha(prefixes[0].with_suffix(".csv")) == sha(prefixes[1].with_suffix(".csv"))
    assert sha(prefixes[0].with_suffix(".json")) == sha(prefixes[1].with_suffix(".json"))


def test_support_ex1(tmp_path):
    out = tmp_path / "sup.json"
    pool_path = tmp_path / "pool.csv"
    assert main(["simulate", "--model", "ex1", "--k", "5000", "--rounds",
                 "30", "--seed", "3", "--out", str(pool_path)]) == 0
    rc = main(["support", "--model", "ex1", "--length", "3",
               "--pool", str(pool_path), "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert len(payload["lambda_directions"]) == 2
    assert payload["inside_fraction"] == 1.0
    assert payload["l1"]["radius"] == pytest.approx(0.8, abs=1e-9)
    assert payload["l2"]["radius"] == pytest.approx(1.2, abs=1e-9)
    assert payload["lambda_stable"] is True


def test_support_ex3_partial_witnesses(tmp_path):
    out = tmp_path / "sup3.json"
    rc = main(["support", "--model", "ex3", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["l1"] is not None
    assert payload["l2"] is None


def test_diagnose_ex2(tmp_path):
    pool_path = tmp_path / "pool.csv"
    assert main(["simulate", "--model", "ex2", "--k", "20000", "--rounds",
                 "40", "--seed", "12", "--out", str(pool_path)]) == 0
    # the same pool at another scale: the tail verdicts must not move
    scaled_path = tmp_path / "scaled.csv"
    pool = sl.pool_from_csv(pool_path)
    sl.pool_to_csv(sl.SamplePool(dim=2, samples=pool.samples * 1e3),
                   scaled_path)
    summaries = []
    for path, prefix in ((pool_path, "diag"), (scaled_path, "scaled")):
        rc = main(["diagnose", "--model", "ex2", "--pool", str(path),
                   "--seed", "13", "--out-prefix", str(tmp_path / prefix),
                   "--probes", "32", "--max-exp", "12",
                   "--harmonic-b", "0.5", "8", "30"])
        assert rc == 0
        summaries.append(json.loads(
            (tmp_path / f"{prefix}_summary.json").read_text()))
    summary, scaled = summaries
    assert min(summary["min_E_Ndelta"]) >= 0.0
    assert summary["min_E_Ndelta"][0] >= 2.0
    assert summary["a_hat_ecf"] is not None and summary["a_hat_ecf"][0] > 0
    ecf_lines = (tmp_path / "diag_ecf.csv").read_text().splitlines()
    assert ecf_lines[0] == "radius,sup_modulus,stderr"
    assert len(ecf_lines) == 14  # exponents 0..12

    _, lo, hi = summary["a0_smallball"]
    assert scaled["a0_smallball"] == pytest.approx(summary["a0_smallball"],
                                                   rel=1e-9)
    verdicts = {}
    for b, entry in summary["harmonic_table"].items():
        assert set(entry) == {"estimate", "finite"}
        b = float(b)
        assert entry["finite"] is (True if b < lo else False if b > hi
                                   else None)
        verdicts[b] = entry["finite"]
    assert verdicts == {0.5: True, 8.0: None, 30.0: False}
    assert {float(b): e["finite"] for b, e in
            scaled["harmonic_table"].items()} == verdicts


def test_diagnose_empty_tail_gives_null(tmp_path, monkeypatch):
    pool_path = tmp_path / "pool.csv"
    assert main(["simulate", "--model", "ex2", "--k", "1000", "--rounds",
                 "5", "--seed", "12", "--out", str(pool_path)]) == 0

    def empty_tail(*args, **kwargs):
        raise EmptyTail("no sample at or below the largest epsilon")

    monkeypatch.setattr(diagnostics, "small_ball_exponent", empty_tail)
    prefix = tmp_path / "diag"
    assert main(["diagnose", "--model", "ex2", "--pool", str(pool_path),
                 "--seed", "13", "--out-prefix", str(prefix),
                 "--probes", "8", "--max-exp", "4"]) == 0
    summary = json.loads((tmp_path / "diag_summary.json").read_text())
    assert summary["a0_smallball"] is None


# one atom with two copies of A, where rho(2A) = 1 and 2A maps every z to
# (|z|/2)(1, 1): the fixed point is a point mass
QUARTER = [[0.25, 0.25], [0.25, 0.25]]
POINT_MASS_MODEL = {"kind": "ExplicitAtoms", "dim": 2,
                    "atoms": [{"prob": 1.0, "branch": [QUARTER, QUARTER]}]}


def test_diagnose_point_mass_resolves_no_tail(tmp_path):
    # the quantile grid of a point mass collapses to one radius, where the
    # singular fit wrote a spurious "a0_smallball": [0.0, 0.0, 0.0]
    model = tmp_path / "point-mass.json"
    model.write_text(json.dumps(POINT_MASS_MODEL))
    pool_path = tmp_path / "pool.csv"
    assert main(["simulate", "--model", str(model), "--k", "1000",
                 "--rounds", "5", "--seed", "1", "--out", str(pool_path)]) == 0
    assert main(["diagnose", "--model", str(model), "--pool", str(pool_path),
                 "--seed", "1", "--out-prefix", str(tmp_path / "diag"),
                 "--probes", "8", "--max-exp", "4"]) == 0
    summary = json.loads((tmp_path / "diag_summary.json").read_text())
    assert summary["a0_smallball"] is None
    assert summary["harmonic_table"]
    assert all(e["finite"] is None for e in summary["harmonic_table"].values())


def test_check_exits_zero_on_examples(capsys):
    for name in ("ex1", "ex2", "ex3"):
        assert main(["check", "--model", name, "--grid", "32"]) == 0
        out = capsys.readouterr().out
        assert "branching" in out and "entry_ratio" in out


def test_check_json_output(tmp_path):
    out = tmp_path / "check.json"
    assert main(["check", "--model", "ex2", "--json", str(out),
                 "--grid", "32"]) == 0
    payload = json.loads(out.read_text())
    # the model as given: a resolved path would differ between checkouts
    assert payload["model"] == "ex2"
    names = {r["name"]: r["holds"] for r in payload["results"]}
    assert names["branching"] and names["entry_ratio"]
    assert names["survival_counts"]
    assert not names["iid_coefficients"]


def test_check_ex1_survival_verdict(tmp_path):
    # probes orthogonal to the first eigen-direction are killed by the
    # (a1, a1) branch, so the survival verdict must be negative here
    out = tmp_path / "check1.json"
    assert main(["check", "--model", "ex1", "--json", str(out),
                 "--grid", "128"]) == 0
    payload = json.loads(out.read_text())
    names = {r["name"]: r["holds"] for r in payload["results"]}
    assert names["iid_coefficients"]
    assert not names["survival_counts"]


def _wielandt_matrix():
    # the 4-dim Wielandt pattern: its first positive power is the tenth
    w = np.zeros((4, 4))
    w[[0, 1, 2], [1, 2, 3]] = 1.0
    w[3, [0, 1]] = 1.0
    return (w / 2).tolist()


EXACT_CHECK_MODELS = {
    "wielandt.json": ({"kind": "ExplicitAtoms", "dim": 4, "atoms": [
        {"prob": 0.5, "branch": [_wielandt_matrix()]},
        {"prob": 0.5, "branch": [_wielandt_matrix()] * 3}]},
        {"allowability": True, "positivity": True}),
    "zero-row.json": ({"kind": "ExplicitAtoms", "dim": 2, "atoms": [
        {"prob": 1.0, "branch": [[[1.0, 1.0], [0.0, 0.0]]] * 3}]},
        {"allowability": False, "positivity": False}),
}


@pytest.mark.parametrize("name", sorted(EXACT_CHECK_MODELS))
def test_allowability_and_positivity_do_not_depend_on_a_depth(tmp_path, name):
    # the Wielandt product first turns positive at length 10, past every
    # depth asked for; a zero row shows at length 1, past depth 0
    model, expected = EXACT_CHECK_MODELS[name]
    path = tmp_path / name
    path.write_text(json.dumps(model))
    assert main(["check", "--model", str(path), "--grid", "16",
                 "--json", str(tmp_path / "check.json")]) == 0
    results = json.loads((tmp_path / "check.json").read_text())["results"]
    verdicts = {r["name"]: r["holds"] for r in results}
    for length in ("0", "3"):
        assert main(["support", "--model", str(path), "--length", length,
                     "--out", str(tmp_path / "sup.json")]) == 0
        payload = json.loads((tmp_path / "sup.json").read_text())
        for key, holds in expected.items():
            assert verdicts[key] is holds and payload[key] is holds


def test_check_enumerates_no_semigroup(monkeypatch, capsys):
    from smoothing_lab import support

    def refuse(*args):
        raise AssertionError("check enumerated the semigroup")

    monkeypatch.setattr(support, "enumerate_semigroup", refuse)
    assert main(["check", "--model", "ex2", "--grid", "16"]) == 0
    assert "positivity        PASS" in capsys.readouterr().out


def test_budget_exit_code(tmp_path, monkeypatch):
    monkeypatch.setenv("SMOOTHING_LAB_BUDGET", "3")
    rc = main(["support", "--model", "ex2", "--length", "6",
               "--out", str(tmp_path / "s.json")])
    assert rc == 4


def test_oversized_transfer_grid_exit_code(tmp_path):
    rc = main(["spectrum", "--model", "ex3", "--seed", "1", "--trials", "500",
               "--lyap-n", "50", "--lyap-trials", "500",
               "--out-prefix", str(tmp_path / "gs"),
               "--grid-size", "1000000000000"])
    assert rc == 4
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("init", [(), ("--init-tail-index", "0.6")])
def test_oversized_pool_exit_code(tmp_path, init):
    # charged against the node budget before the 1.46 TiB pool is allocated
    rc = main(["simulate", "--model", "ex2", "--k", "100000000000",
               "--rounds", "1", "--seed", "1", *init,
               "--out", str(tmp_path / "pool.csv")])
    assert rc == 4
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("value", ["abc", "1.5", "0", "-5"])
def test_bad_budget_exit_code(tmp_path, monkeypatch, capsys, value):
    monkeypatch.setenv("SMOOTHING_LAB_BUDGET", value)
    rc = main(["support", "--model", "ex2", "--length", "6",
               "--out", str(tmp_path / "s.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: SMOOTHING_LAB_BUDGET") and repr(value) in err
    assert not any(tmp_path.iterdir())


POOL_FILES = {"bad.csv": "x0,x1\n1,2,3\n", "neg.csv": "x0,x1\n1,-2\n",
              "good.csv": "z0,z1\n0.4,0.6\n0.2,0.3\n",
              "nan.csv": "z0,z1\n0.4,0.6\nnan,0.3\n",
              "inf.csv": "z0,z1\n0.4,inf\n0.2,0.3\n",
              "dim1.csv": "z0\n0.4\n0.2\n",
              "dim3.csv": "z0,z1,z2\n0.4,0.6,0.1\n0.2,0.3,0.5\n"}

HALF = [[0.5, 0.5], [0.5, 0.5]]
MODEL_FILES = {
    "dim-str.json": {"kind": "ExplicitAtoms", "dim": "2",
                     "atoms": [{"prob": 1.0, "branch": [HALF, HALF]}]},
    "dim-missing.json": {"kind": "ExplicitAtoms",
                         "atoms": [{"prob": 1.0, "branch": [HALF, HALF]}]},
    "list.json": [{"kind": "ExplicitAtoms", "dim": 2}],
    "atom-lists.json": {"kind": "ExplicitAtoms", "dim": 2,
                        "atoms": [[1.0, [HALF, HALF]]]},
}


@pytest.mark.parametrize("argv, says", [
    (["diagnose", "--model", "ex1", "--pool", "missing.csv", "--seed", "1",
      "--out-prefix", "d"], "missing.csv"),
    (["diagnose", "--model", "ex1", "--pool", "bad.csv", "--seed", "1",
      "--out-prefix", "d"], "malformed"),
    (["diagnose", "--model", "ex1", "--pool", "neg.csv", "--seed", "1",
      "--out-prefix", "d"], "nonnegative"),
    (["support", "--model", "ex1", "--pool", "missing.csv", "--out", "s.json"],
     "missing.csv"),
    (["support", "--model", "ex1", "--pool", "bad.csv", "--out", "s.json"],
     "malformed"),
    (["support", "--model", "ex1", "--pool", "neg.csv", "--out", "s.json"],
     "nonnegative"),
    (["simulate", "--model", "ex1", "--k", "0", "--rounds", "1", "--seed", "1",
      "--out", "p.csv"], "k must"),
    (["simulate", "--model", "ex1", "--k", "10", "--rounds", "1", "--seed",
      "1", "--out", "p.csv", "--init-tail-index", "-1"], "tail_index"),
    (["spectrum", "--model", "ex1", "--seed", "1", "--out-prefix", "s",
      "--chain-n", "0"], "chain length"),
    (["support", "--model", "ex1", "--length", "-1", "--out", "s.json"],
     "max_length"),
    (["spectrum", "--model", "ex1", "--seed", "1", "--out-prefix", "s",
      "--trials", "0"], "trials"),
    (["spectrum", "--model", "ex1", "--seed", "1", "--out-prefix", "s",
      "--chain-n", "8", "--trials", "100", "--lyap-trials", "0"], "trials"),
    (["diagnose", "--model", "ex1", "--pool", "good.csv", "--seed", "1",
      "--out-prefix", "d", "--probes", "0"], "probe count"),
    (["diagnose", "--model", "ex1", "--pool", "nan.csv", "--seed", "1",
      "--out-prefix", "d"], "non-finite"),
    (["diagnose", "--model", "ex1", "--pool", "inf.csv", "--seed", "1",
      "--out-prefix", "d"], "non-finite"),
    (["support", "--model", "ex1", "--pool", "nan.csv", "--out", "s.json"],
     "non-finite"),
    (["support", "--model", "ex1", "--pool", "inf.csv", "--out", "s.json"],
     "non-finite"),
    (["support", "--model", "ex1", "--pool", "dim1.csv", "--out", "s.json"],
     "directions of dimension 1 against a cone of dimension 2"),
    (["support", "--model", "ex1", "--pool", "dim3.csv", "--out", "s.json"],
     "directions of dimension 3 against a cone of dimension 2"),
    (["check", "--model", "ex2", "--length", "2"],
     "unrecognized arguments: --length 2"),
    (["diagnose", "--model", "ex1", "--pool", "good.csv", "--seed", "1",
      "--out-prefix", "d", "--max-exp", "-1"], "max_exp"),
    (["simulate", "--model", "ex1", "--k", "10", "--rounds", "1", "--seed",
      "1", "--out", "p.csv", "--init", "nan,1"], "non-finite"),
    (["spectrum", "--model", "ex1", "--seed", "1", "--out-prefix", "s",
      "--s-grid", "nan,0.5", "--chain-n", "8", "--trials", "100"],
     "non-finite"),
    (["diagnose", "--model", "ex1", "--pool", "good.csv", "--seed", "1",
      "--out-prefix", "d", "--harmonic-b", "nan"], "finite and positive"),
    (["simulate", "--model", "ex1", "--k", "10", "--rounds", "1", "--seed",
      "1", "--out", "p.csv", "--init", "1,1", "--init-tail-index", "0.5"],
     "not allowed with argument --init"),
    (["spectrum", "--model", "ex3", "--seed", "1", "--out-prefix", "s",
      "--chain-n", "8", "--trials", "100", "--lyap-n", "10",
      "--lyap-trials", "100", "--grid-size", "1"], "grid_size"),
    (["check", "--model", "dim-str.json"], "dim must be an integer"),
    (["check", "--model", "dim-missing.json"], "dim must be an integer"),
    (["check", "--model", "list.json"], "JSON object"),
    (["check", "--model", "atom-lists.json"], "malformed"),
    (["simulate", "--model", "ex1", "--k", "x", "--rounds", "1", "--seed",
      "1", "--out", "p.csv"], "invalid int value"),
    (["diagnose", "--model", "ex1", "--pool", "good.csv", "--seed", "1",
      "--out-prefix", "d", "--max-exp", "60"], "max_exp"),
    (["diagnose", "--model", "ex1", "--pool", "good.csv", "--seed", "1",
      "--out-prefix", "d", "--max-exp", "1100"], "max_exp"),
    (["simulate", "--model", "ex1", "--k", "10", "--rounds", "1", "--seed",
      "1", "--out", "p.csv", "--init", "0,0"], "positive entry"),
    (["simulate", "--model", "ex1", "--k", "10", "--rounds", "1", "--seed",
      "1", "--out", "p.csv", "--init-tail-index", "inf"], "tail_index"),
], ids=["diagnose-missing", "diagnose-malformed", "diagnose-negative",
        "support-missing", "support-malformed", "support-negative",
        "simulate-k0", "simulate-tail-index", "spectrum-chain-n",
        "support-length", "spectrum-trials", "spectrum-lyap-trials",
        "diagnose-probes", "diagnose-nan", "diagnose-inf", "support-nan",
        "support-inf", "support-pool-dim1", "support-pool-dim3",
        "check-length", "diagnose-max-exp", "simulate-init-nan",
        "spectrum-s-grid-nan", "diagnose-harmonic-b-nan",
        "simulate-init-and-tail-index", "spectrum-grid-size-1", "model-dim-str",
        "model-dim-missing", "model-list", "model-atom-lists",
        "simulate-k-not-int", "diagnose-max-exp-60", "diagnose-max-exp-1100",
        "simulate-init-zero", "simulate-tail-index-inf"])
def test_bad_input_exit_code(tmp_path, monkeypatch, capsys, argv, says):
    monkeypatch.chdir(tmp_path)
    for name, text in POOL_FILES.items():
        (tmp_path / name).write_text(text)
    for name, data in MODEL_FILES.items():
        (tmp_path / name).write_text(json.dumps(data))
    assert main(argv) == 2
    err = capsys.readouterr().err
    # argparse rejects a malformed command line itself: its usage line, then
    # "<prog>: error: <message>"
    assert err.startswith("error: ") or (err.startswith("usage: ")
                                         and ": error: " in err)
    assert "Traceback" not in err
    assert says in err and "zero-size" not in err
    assert {p.name for p in tmp_path.iterdir()} == set(POOL_FILES) | set(
        MODEL_FILES)


@pytest.mark.parametrize("argv", [["--help"], ["simulate", "--help"]])
def test_help_exits_zero(capsys, argv):
    assert main(argv) == 0
    assert capsys.readouterr().out.startswith("usage: ")


@pytest.mark.parametrize("order, code", [("nan", 2), ("-1", 2), ("5000", 3)])
def test_diagnose_rejected_order_writes_nothing(tmp_path, monkeypatch, order,
                                                code):
    # the harmonic orders are checked, and 0.5^-5000 overflows, before the
    # first output is written
    monkeypatch.chdir(tmp_path)
    (tmp_path / "p.csv").write_text(POOL_FILES["good.csv"])
    assert main(["diagnose", "--model", "ex1", "--pool", "p.csv", "--seed",
                 "1", "--out-prefix", "d", "--harmonic-b", order]) == code
    assert [p.name for p in tmp_path.iterdir()] == ["p.csv"]


def test_simulate_overflowing_mean_norm_exits_3(tmp_path, capsys):
    # a finite start whose norm overflows: no pool and no manifest
    out = tmp_path / "r.csv"
    assert main(["simulate", "--model", "ex1", "--k", "10", "--rounds", "1",
                 "--seed", "1", "--out", str(out),
                 "--init", "1e308,1e308"]) == 3
    assert "computation error" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_spectrum_vanishing_products_write_nothing(tmp_path, monkeypatch,
                                                  capsys):
    # products of the nilpotent atom vanish: the chains raise, so no CSV of
    # nan values is left behind
    monkeypatch.chdir(tmp_path)
    nil = [[0.0, 1.0], [0.0, 0.0]]
    (tmp_path / "nil.json").write_text(json.dumps({
        "kind": "ExplicitAtoms", "dim": 2,
        "atoms": [{"prob": 0.5, "branch": [nil, nil]},
                  {"prob": 0.5, "branch": [nil, [[0.6, 0.2], [0.3, 0.5]]]}]}))
    assert main(["spectrum", "--model", "nil.json", "--seed", "1",
                 "--out-prefix", "nil", "--chain-n", "16", "--trials", "200",
                 "--lyap-n", "50", "--lyap-trials", "100"]) == 3
    assert "computation error" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["nil.json"]


def test_json_outputs_reject_non_finite_values(tmp_path):
    path = tmp_path / "x.json"
    with pytest.raises(ValueError):
        cli._write_texts([cli._json_text(path, {"x": [1.0, float("inf")]})])
    assert not path.exists()


def test_failed_write_leaves_no_partial_file(tmp_path):
    # the second text cannot be encoded: the first file is complete, the
    # second keeps its old content, and no temporary file is left
    first, second = tmp_path / "a.csv", tmp_path / "b.json"
    second.write_text("old\n")
    with pytest.raises(UnicodeEncodeError):
        cli._write_texts([(first, "x,y\n" * 1000),
                          (second, "z" * 100_000 + "\ud800")])
    assert first.read_text() == "x,y\n" * 1000
    assert second.read_text() == "old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.csv", "b.json"]


def test_failed_rename_removes_the_temporary_file(tmp_path, monkeypatch):
    renames = []

    def failing_replace(src, dst):
        renames.append(dst)
        raise OSError("rename failed")

    monkeypatch.setattr(_common.os, "replace", failing_replace)
    with pytest.raises(OSError, match="rename failed"):
        cli._write_texts([(tmp_path / "a.csv", "x\n")])
    assert renames == [tmp_path / "a.csv"]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("s_grid", ["-2000,0.5", "3000"])
def test_spectrum_out_of_range_kappa_writes_nothing(tmp_path, monkeypatch,
                                                    capsys, s_grid):
    # the 64-th root of E||chain||^s overflows at s = -2000 and underflows to
    # a spurious zero at s = 3000, though its log is finite
    monkeypatch.chdir(tmp_path)
    assert main(["spectrum", "--model", "ex1", "--seed", "1", "--out-prefix",
                 "big", f"--s-grid={s_grid}", "--chain-n", "64", "--trials",
                 "1000", "--lyap-n", "50", "--lyap-trials", "100"]) == 3
    assert "computation error" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_spectrum_out_of_range_transfer_order_exits_3(tmp_path, monkeypatch,
                                                     capsys):
    # |A v|^-800 overflows: the transfer weights are checked and the order
    # named, where the power iteration used to stall after two warnings
    monkeypatch.chdir(tmp_path)
    assert main(["spectrum", "--model", "ex3", "--seed", "1", "--out-prefix",
                 "big", "--s-grid=-800,0.5", "--chain-n", "64", "--trials",
                 "1000", "--lyap-n", "50", "--lyap-trials", "100"]) == 3
    assert "order -800" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("bad", [float("inf"), float("nan"), np.float64("-inf")])
def test_csv_outputs_reject_non_finite_values(tmp_path, bad):
    path = tmp_path / "x.csv"
    with pytest.raises(ValueError, match="non-finite"):
        cli._write_texts([cli._csv_text(path, ["a", "b"],
                                        [[1.0, ""], [2.0, bad]])])
    assert not path.exists()


def test_spectrum_non_finite_kappa_writes_nothing(tmp_path, monkeypatch,
                                                 capsys):
    # the CSV is checked before the JSON is written: a nan that got past
    # the estimators leaves no JSON behind
    real = spectral.spectral_profile

    def nan_kappa(*args, **kwargs):
        profile = real(*args, **kwargs)
        profile.kappa[0] = float("nan")
        return profile

    monkeypatch.setattr(spectral, "spectral_profile", nan_kappa)
    monkeypatch.chdir(tmp_path)
    assert main(["spectrum", "--model", "ex1", "--seed", "1", "--out-prefix",
                 "P", "--s-grid", "0.5", "--chain-n", "8", "--trials", "200",
                 "--lyap-n", "20", "--lyap-trials", "50"]) == 2
    assert "non-finite" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_diagnose_non_finite_summary_writes_nothing(tmp_path, monkeypatch,
                                                    capsys):
    # the summary JSON is checked before the two CSVs are written
    monkeypatch.setattr(diagnostics, "decay_fit",
                        lambda *args, **kwargs: (float("nan"), (0.5, 1.5)))
    monkeypatch.chdir(tmp_path)
    (tmp_path / "p.csv").write_text(POOL_FILES["good.csv"])
    assert main(["diagnose", "--model", "ex1", "--pool", "p.csv", "--seed",
                 "1", "--out-prefix", "D"]) == 2
    assert "not JSON compliant" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["p.csv"]


def test_support_dotted_outputs_keep_their_manifests(tmp_path):
    for out in ("run.s0.5", "run.s0.7"):
        assert main(["support", "--model", "ex1", "--length", "2",
                     "--out", str(tmp_path / out)]) == 0
    for out in ("run.s0.5", "run.s0.7"):
        manifest = json.loads(
            (tmp_path / f"{out}.manifest.json").read_text())
        assert manifest["output_paths"] == [str(tmp_path / out)]


MANIFEST_RUNS = {
    "simulate": ("pool.csv", ["--k", "200", "--rounds", "2", "--seed", "1",
                              "--out", "pool.csv"]),
    "spectrum": ("spec", ["--seed", "1", "--out-prefix", "spec",
                          "--s-grid", "0.5", "--chain-n", "8",
                          "--trials", "100", "--lyap-n", "10",
                          "--lyap-trials", "100"]),
    "support": ("sup.json", ["--length", "2", "--out", "sup.json"]),
    "diagnose": ("diag", ["--pool", "pool.csv", "--seed", "2",
                          "--out-prefix", "diag", "--probes", "8",
                          "--max-exp", "4"]),
}


@pytest.mark.parametrize("command", sorted(MANIFEST_RUNS))
def test_manifest_records_every_argument(tmp_path, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    for name in dict.fromkeys(["simulate", command]):
        assert main([name, "--model", "ex1", *MANIFEST_RUNS[name][1]]) == 0
    base = MANIFEST_RUNS[command][0]
    manifest = json.loads((tmp_path / f"{base}.manifest.json").read_text())
    subparsers = next(a for a in cli.build_parser()._actions
                      if a.dest == "command").choices
    names = {a.dest for a in subparsers[command]._actions} - {
        "help", "model", "seed"}
    if command == "simulate":
        names.add("mean_norm_history")
    assert set(manifest["parameters"]) == names
    assert manifest["command"] == command


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def _check_new_files(directory, before) -> set:
    """Parse every file written since `before` strictly: JSON must hold no
    NaN or Infinity, every non-empty CSV cell below the header must be a
    finite float, and every path a manifest lists must exist."""
    new = set(directory.iterdir()) - before
    assert new
    for path in new:
        text = path.read_text(encoding="utf-8")
        if path.suffix == ".json":
            payload = json.loads(text, parse_constant=_reject_constant)
            if path.name.endswith(".manifest.json"):
                outputs = payload["output_paths"]
                assert outputs and all(Path(p).exists() for p in outputs)
        else:
            assert path.suffix == ".csv"
            for row in list(csv.reader(io.StringIO(text)))[1:]:
                assert all(math.isfinite(float(x)) for x in row if x), row
    return before | new


def test_every_subcommand_runs_on_every_example(tmp_path):
    # small parameters throughout; each bundled model must exit 0 everywhere
    # and write only strict JSON and finite CSV
    files = set()
    for name in ("ex1", "ex2", "ex3"):
        pool_path = tmp_path / f"{name}.csv"
        assert main(["simulate", "--model", name, "--k", "4000", "--rounds",
                     "20", "--seed", "41", "--out", str(pool_path)]) == 0
        files = _check_new_files(tmp_path, files)
        assert main(["spectrum", "--model", name, "--seed", "42",
                     "--out-prefix", str(tmp_path / f"{name}_spec"),
                     "--s-grid", "0.5,1.0", "--chain-n", "10",
                     "--trials", "500", "--lyap-n", "50",
                     "--lyap-trials", "200", "--grid-size", "32"]) == 0
        files = _check_new_files(tmp_path, files)
        assert main(["support", "--model", name, "--length", "2",
                     "--pool", str(pool_path),
                     "--out", str(tmp_path / f"{name}_sup.json")]) == 0
        files = _check_new_files(tmp_path, files)
        assert main(["diagnose", "--model", name, "--pool", str(pool_path),
                     "--seed", "43",
                     "--out-prefix", str(tmp_path / f"{name}_diag"),
                     "--probes", "16", "--max-exp", "8"]) == 0
        files = _check_new_files(tmp_path, files)
        assert main(["check", "--model", name, "--grid", "16",
                     "--json", str(tmp_path / f"{name}_check.json")]) == 0
        files = _check_new_files(tmp_path, files)
