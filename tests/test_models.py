import ast
import json
from pathlib import Path

import numpy as np
import pytest

import smoothing_lab as sl
from smoothing_lab._common import as_generator
from smoothing_lab.errors import NoSingletonBranch
from smoothing_lab.models import BranchTable, model_from_dict

from conftest import A1, A2


def test_expected_n(ex1, ex2, ex3):
    assert sl.expected_n(ex1) == 2.0
    assert sl.expected_n(ex2) == 3.0
    assert sl.expected_n(ex3) == 1.5


def test_prob_n_equals(ex1, ex3):
    assert sl.prob_n_equals(ex3, 1) == 0.5
    assert sl.prob_n_equals(ex1, 1) == 0.0
    assert sl.prob_n_equals(ex1, 2) == 1.0
    assert sl.prob_n_equals(ex3, 7) == 0.0


def test_mean_sum_matrix(ex1, ex2, ex3):
    assert np.allclose(sl.mean_sum_matrix(ex1), A1 + A2, atol=1e-15)
    assert np.allclose(sl.mean_sum_matrix(ex2), A1 + A2, atol=1e-15)
    assert np.allclose(sl.mean_sum_matrix(ex3), 0.75 * (A1 + A2), atol=1e-15)


def test_mean_sum_matches_atom_enumeration(ex1):
    # independent enumeration of the four equally likely branches
    expected = np.zeros((2, 2))
    for a in (A1, A2):
        for b in (A1, A2):
            expected += 0.25 * (a + b)
    assert np.allclose(sl.mean_sum_matrix(ex1), expected, atol=1e-15)


def test_mu_mean(ex1, ex2, ex3):
    assert np.allclose(sl.mu_mean(ex1), (A1 + A2) / 2, atol=1e-15)
    assert np.allclose(sl.mu_mean(ex2), (A1 + A2) / 3, atol=1e-15)
    assert np.allclose(sl.mu_mean(ex3), (A1 + A2) / 2, atol=1e-15)


def test_mean_sum_is_en_times_mu_mean(ex1, ex2, ex3):
    for spec in (ex1, ex2, ex3):
        assert np.allclose(
            sl.mean_sum_matrix(spec), sl.expected_n(spec) * sl.mu_mean(spec),
            atol=1e-14,
        )


def test_mu_atom_law(ex3):
    law = sl.mu_atom_law(ex3)
    assert len(law) == 2
    weights = sorted(w for w, _ in law)
    assert weights == pytest.approx([0.5, 0.5], abs=1e-12)


def table_branch(table, b):
    return table.mats[table.offsets[b]:table.offsets[b] + table.sizes[b]]


def drawn_branch(spec, seed):
    table = spec.branch_table
    return table_branch(table, table.draw(as_generator(seed), 1)[0])


def test_drawn_branch_shapes(ex1, ex2, ex3):
    b1 = drawn_branch(ex1, 1)
    assert len(b1) == 2
    for m in b1:
        assert np.allclose(m, A1) or np.allclose(m, A2)

    b2 = drawn_branch(ex2, 2)
    assert len(b2) == 3
    x = b2[0][0, 0] / A1[0, 0]
    assert min(abs(x - 0.25), abs(x - 0.75)) < 1e-12
    x = 0.25 if abs(x - 0.25) < 1e-12 else 0.75
    assert np.allclose(b2[0], x * A1)
    assert np.allclose(b2[1], x * A2)
    assert np.allclose(b2[2], x * (A1 + A2))

    b3 = drawn_branch(ex3, 3)
    assert len(b3) in (1, 2)
    if len(b3) == 2:
        assert np.allclose(b3[0], A1)
        assert np.allclose(b3[1], A2)


def test_drawn_branch_stream(ex3):
    # one rng.choice over the atoms per draw: the atoms drawn for seeds 0-9
    # are fixed, whatever the layout of the compiled branch table
    drawn = [0, 0, 2, 0, 1, 2, 2, 1, 1, 1]
    for seed, b in enumerate(drawn):
        branch = drawn_branch(ex3, seed)
        expected = ex3.atoms[b][1]
        assert len(branch) == len(expected)
        assert all(np.array_equal(m, e) for m, e in zip(branch, expected))


def test_branch_frequencies_match_probabilities(ex3):
    table = ex3.branch_table
    trials = 100_000
    ids = table.draw(np.random.default_rng(99), trials)
    single = table.sizes[ids] == 1
    is_a1 = np.array([np.allclose(table_branch(table, b)[0], A1)
                      for b in range(table.probs.size)])
    # four standard errors of a fair coin over 1e5 draws
    se = 4 * 0.5 / np.sqrt(trials)
    assert single.mean() == pytest.approx(0.5, abs=se)
    assert is_a1[ids[single]].mean() == pytest.approx(0.5, abs=3e-2)


class FixedUniforms:
    """A generator stand-in whose uniforms are given."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)

    def random(self, size=None, out=None):
        if out is None:
            return self.u.copy()
        out[...] = self.u
        return out


@pytest.mark.parametrize("atoms", [1, 2, 3, 8, 9, 117, "crowded"])
def test_branch_table_draw_matches_choice(atoms):
    # counted crossings up to 8 atoms, the guide table above: both are
    # rng.choice's ids and consume its uniforms.  "crowded" puts 999 atoms
    # of mass 1e-6 ahead of one of mass about 1, so its first buckets hold
    # hundreds of atoms and those ids fall back to the binary search
    if atoms == "crowded":
        probs = np.r_[np.full(999, 1e-6), 1 - 999e-6]
        atoms = probs.size
    else:
        probs = np.random.default_rng(atoms).uniform(0.1, 1.0, atoms)
        probs /= probs.sum()
    table = BranchTable.compile([(p, [A1]) for p in probs])
    for seed in range(20):
        for size in (1, 7, (3, 5)):
            rng, ref = as_generator(seed), as_generator(seed)
            ids = table.draw(rng, size)
            expected = ref.choice(atoms, size, p=table.probs)
            assert type(ids) is type(expected)
            assert np.array_equal(ids, expected)
            assert np.shape(ids) == np.shape(expected)
            assert rng.random() == ref.random()
        # the buffer form: narrow ids written into `out`, and the uniforms
        # into the head of a longer `u`
        rng, ref = as_generator(seed), as_generator(seed)
        out = np.full(7, 255, dtype=np.min_scalar_type(atoms))
        u = np.full(10, np.nan)
        assert table.draw(rng, 7, out=out, u=u) is out
        assert np.array_equal(out, ref.choice(atoms, 7, p=table.probs))
        assert np.isnan(u[7:]).all()
        assert rng.random() == ref.random()
    # uniforms on every bucket edge j / G, on every cdf entry, and just
    # below each, all mapped to the number of cdf entries <= u
    edges = np.arange(table.guide.size) / table.guide.size
    u = np.concatenate([edges, table.cdf[:-1], np.nextafter(table.cdf[:-1], 0),
                        [np.nextafter(1.0, 0.0)]])
    ids = table.draw(FixedUniforms(u), u.size)
    assert np.array_equal(ids, table.cdf.searchsorted(u, side="right"))
    assert np.array_equal(ids, (table.cdf[None, :] <= u[:, None]).sum(axis=1))


def test_branch_table_draw_on_a_cdf_entry():
    # the first uniform of seed 5 is cdf[0] exactly, which rng.choice maps
    # to the next atom
    u = as_generator(5).random()
    table = BranchTable.compile([(u, [A1]), (1.0 - u, [A2])])
    assert table.cdf[0] == u
    assert as_generator(5).choice(2, p=table.probs) == 1
    assert table.draw(as_generator(5), 1)[0] == 1


def test_branch_table_entry_stack(ex2, ex3):
    for spec in (ex2, ex3):
        table = spec.branch_table
        assert np.array_equal(table.cols, table.mats.transpose(1, 2, 0))
        assert not table.cols.flags.writeable
        with pytest.raises(ValueError):
            table.cols[0, 0, 0] = 1.0


def test_branch_sums_add_in_slot_order():
    # Y_b = ((m0 + m1) + m2) + ..., the order in which the slot fold adds a
    # branch, for branches shorter and longer than a pairwise block of 8
    rng = np.random.default_rng(3)
    atoms = [(0.25, list(rng.uniform(0.1, 1.0, (n, 3, 3))
                         * 10.0 ** rng.uniform(-4, 4, (n, 1, 1))))
             for n in (1, 3, 9, 16)]
    want = []
    for _, branch in atoms:
        total = branch[0].copy()
        for m in branch[1:]:
            total += m
        want.append(total)
    assert np.array_equal(BranchTable.compile(atoms).sums, np.stack(want))


def test_validation_rejects_bad_specs():
    with pytest.raises(ValueError):  # probabilities must sum to one
        sl.ModelSpec(dim=2, atoms=((0.5, (A1,)), (0.4, (A2, A2))))
    with pytest.raises(ValueError):  # E[N] must exceed one
        sl.ModelSpec(dim=2, atoms=((1.0, (A1,)),))
    with pytest.raises(ValueError):  # zero matrix forbidden
        sl.ModelSpec(dim=2, atoms=((1.0, (A1, np.zeros((2, 2)))),))
    with pytest.raises(ValueError):  # empty branch means N = 0
        sl.ModelSpec(dim=2, atoms=((0.5, ()), (0.5, (A1, A2))))
    with pytest.raises(ValueError):  # negative entries
        sl.ModelSpec(dim=2, atoms=((1.0, (-A1, A2)),))
    with pytest.raises(ValueError):  # n_law with N = 0
        sl.ModelSpec(dim=2, n_law=((0, 0.5), (3, 0.5)),
                     mu_atoms=((1.0, A1),))


@pytest.mark.parametrize("name, field, key, bad", [
    ("ex1", "mu_atoms", "prob", "NaN"),
    ("ex1", "n_law", "prob", "NaN"),
    ("ex3", "atoms", "prob", "NaN"),
    ("ex2", "scalar_law", "prob", "NaN"),
    ("ex2", "scalar_law", "value", "NaN"),
    ("ex2", "scalar_law", "value", "Infinity"),
])
def test_load_rejects_non_finite(tmp_path, name, field, key, bad):
    # JSON NaN and Infinity parse to floats, so validation must catch them
    data = json.loads(sl.example_path(name).read_text())
    data[field][0][key] = "BAD"
    path = tmp_path / "model.json"
    path.write_text(json.dumps(data).replace('"BAD"', bad))
    with pytest.raises(ValueError):
        sl.load_model(path)


def test_furstenberg_kesten(ex1, ex2, ex3):
    assert sl.check_furstenberg_kesten(ex3) == (True, pytest.approx(2.0))
    assert sl.check_furstenberg_kesten(ex1) == (True, pytest.approx(2.0))
    holds, c = sl.check_furstenberg_kesten(ex2)
    assert holds and c == pytest.approx(1.0)
    with_id = sl.ModelSpec(
        dim=2, atoms=((0.5, (np.eye(2),)), (0.5, (A1, A2))),
    )
    holds, c = sl.check_furstenberg_kesten(with_id)
    assert not holds and c == np.inf


def test_conditioned_a1_atoms(ex1, ex2, ex3):
    law = sl.conditioned_a1_atoms(ex3)
    assert len(law) == 2
    for p, m in law:
        assert p == pytest.approx(0.5)
        assert np.allclose(m, A1) or np.allclose(m, A2)
    with pytest.raises(NoSingletonBranch):
        sl.conditioned_a1_atoms(ex1)
    with pytest.raises(NoSingletonBranch):
        sl.conditioned_a1_atoms(ex2)


def test_iid_check(ex1, ex2, ex3):
    assert sl.check_iid_coefficients(ex1)
    assert not sl.check_iid_coefficients(ex2)
    assert not sl.check_iid_coefficients(ex3)
    # an explicit-atom spec that happens to be i.i.d. is recognized
    atoms = []
    for a in (A1, A2):
        for b in (A1, A2):
            atoms.append((0.25, (a, b)))
    flat = sl.ModelSpec(dim=2, atoms=tuple(atoms))
    assert sl.check_iid_coefficients(flat)


@pytest.mark.parametrize("scale", [1.0, 1e-12, 1e12])
def test_mu_law_merge_is_scale_invariant(ex3, scale):
    # the merge and the i.i.d. mass lookup compare matrices relative to their
    # size, so scaling every matrix changes no atom count
    scaled = sl.ModelSpec(dim=2, atoms=tuple(
        (p, tuple(scale * m for m in br)) for p, br in ex3.atoms))
    assert len(sl.mu_atom_law(scaled)) == 2
    assert len(sl.conditioned_a1_atoms(scaled)) == 2
    flat = sl.ModelSpec(dim=2, atoms=tuple(
        (0.25, (scale * a, scale * b)) for a in (A1, A2) for b in (A1, A2)))
    assert sl.check_iid_coefficients(flat)
    # matrices that differ in a leading digit stay apart at every scale
    near = sl.ModelSpec(dim=2, atoms=(
        (1.0, (scale * A1, scale * A1 * (1 + 1e-9))),))
    assert len(sl.mu_atom_law(near)) == 2


STYLE_FIELDS = {"kind", "base_branch", "scalar_law"}


def style_reads(node, where=""):
    """The qualified name of the def around each read of a declaration-style
    field (x.kind, x.base_branch, x.scalar_law), its JSON key ("kind",
    "base_branch", "scalar_law") or a KIND_* constant."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        where = f"{where}.{node.name}" if where else node.name
    if (isinstance(node, ast.Constant) and node.value in STYLE_FIELDS
            or isinstance(getattr(node, "ctx", None), ast.Load) and (
                isinstance(node, ast.Attribute) and node.attr in STYLE_FIELDS
                or isinstance(node, ast.Name)
                and node.id.startswith("KIND_"))):
        yield where
    for child in ast.iter_child_nodes(node):
        yield from style_reads(child, where)


def test_declaration_style_is_read_only_at_construction():
    # every derived law reads the compiled form: the style is read only
    # where a model file is parsed
    readers = {(path.stem, where)
               for path in sorted(Path(sl.__file__).parent.glob("*.py"))
               for where in style_reads(ast.parse(path.read_text("utf-8")))}
    assert readers == {("models", "model_from_dict")}, sorted(readers)


def attribute_reads(node, attr, where=""):
    """The qualified name of the def around each read of x.<attr>."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        where = f"{where}.{node.name}" if where else node.name
    if (isinstance(node, ast.Attribute) and node.attr == attr
            and isinstance(node.ctx, ast.Load)):
        yield where
    for child in ast.iter_child_nodes(node):
        yield from attribute_reads(child, attr, where)


def test_entry_stack_is_read_only_by_the_row_gather():
    # every sampler gathers branch-matrix rows through BranchTable.row
    readers = {(path.stem, where)
               for path in sorted(Path(sl.__file__).parent.glob("*.py"))
               for where in attribute_reads(
                   ast.parse(path.read_text("utf-8")), "cols")}
    assert readers == {("models", "BranchTable.row")}, sorted(readers)


def test_row_gives_the_same_bytes_with_and_without_buffers():
    rng = np.random.default_rng(3)
    table = BranchTable.compile([(0.2, [rng.random((3, 3))]),
                                 (0.8, list(rng.random((2, 3, 3))))])
    ids = rng.integers(0, table.mats.shape[0], size=50)
    for x in (rng.random((3, 50)), rng.random((3, 3, 50))):
        for i in range(3):
            expect = table.mats[ids, i, 0] * x[0]
            for j in (1, 2):
                expect = expect + table.mats[ids, i, j] * x[j]
            fresh = table.row(i, ids, x)
            assert np.array_equal(fresh, expect)
            if x.ndim == 3:  # the chains keep no buffers
                continue
            # the edge fold keeps the sum and the gather buffer
            for n_kept in (1, 2):
                buffers = [np.full(50, np.nan) for _ in range(n_kept)]
                assert table.row(i, ids, x, *buffers) is buffers[0]
                assert np.array_equal(buffers[0], fresh)


def test_spec_takes_atoms_or_an_iid_law():
    iid = {"n_law": ((2, 1.0),), "mu_atoms": ((1.0, A1),)}
    atoms = ((1.0, (A1, A2)),)
    assert sl.ModelSpec(dim=2, atoms=atoms).n_law == ((2, 1.0),)
    assert sl.ModelSpec(dim=2, **iid).atoms is None
    for bad in ({"atoms": atoms, "n_law": iid["n_law"]},
                {"atoms": atoms, "mu_atoms": iid["mu_atoms"]},
                {"atoms": atoms, **iid},
                {"n_law": iid["n_law"]},
                {"mu_atoms": iid["mu_atoms"]},
                {}):
        with pytest.raises(ValueError):
            sl.ModelSpec(dim=2, **bad)
    with pytest.raises(TypeError):  # the style is not a field
        sl.ModelSpec(dim=2, kind="ExplicitAtoms", atoms=atoms)


def explicit_twin(spec):
    return sl.ModelSpec(dim=spec.dim, atoms=tuple(
        (p, tuple(br)) for p, br in sl.explicit_atoms(spec)))


THREE_POINT_SCALAR = {
    "dim": 2, "kind": "ScalarRandomized",
    "base_branch": [A1.tolist(), A2.tolist()],
    "scalar_law": [{"prob": 0.1, "value": 0.5}, {"prob": 0.2, "value": 1.0},
                   {"prob": 0.7, "value": 1.5}],
}


@pytest.mark.parametrize("data", [
    json.loads(sl.example_path("ex2").read_text()), THREE_POINT_SCALAR,
], ids=["ex2", "p127"])
def test_scalar_spec_matches_its_explicit_atoms(data):
    # the loader compiles a scalar file to the atoms (p, x * base), so it and
    # the explicit spec of the same atoms give bit-identical derived laws
    scalar = model_from_dict(data)
    twin = explicit_twin(scalar)
    base = [np.array(m) for m in data["base_branch"]]
    for (p, br), a in zip(scalar.atoms, data["scalar_law"]):
        assert p == a["prob"]
        assert all(np.array_equal(m, a["value"] * b) for m, b in zip(br, base))
    assert sl.expected_n(scalar) == float(len(base))
    assert sl.expected_n(scalar) == sl.expected_n(twin)
    for k in range(5):
        assert sl.prob_n_equals(scalar, k) == sl.prob_n_equals(twin, k)
    assert np.array_equal(sl.mean_sum_matrix(scalar), sl.mean_sum_matrix(twin))
    assert np.array_equal(sl.mu_mean(scalar), sl.mu_mean(twin))
    law, twin_law = sl.mu_atom_law(scalar), sl.mu_atom_law(twin)
    assert [w for w, _ in law] == [w for w, _ in twin_law]
    assert all(np.array_equal(m, t) for (_, m), (_, t) in zip(law, twin_law))
    assert sl.check_furstenberg_kesten(scalar) == sl.check_furstenberg_kesten(twin)
    assert sl.check_iid_coefficients(scalar) == sl.check_iid_coefficients(twin)
    for spec in (scalar, twin):
        with pytest.raises(NoSingletonBranch):
            sl.conditioned_a1_atoms(spec)
    for name in ("probs", "mats", "sizes", "offsets", "sums", "cdf"):
        assert np.array_equal(getattr(scalar.branch_table, name),
                              getattr(twin.branch_table, name))


@pytest.mark.parametrize("base_branch, scalar_law", [
    ([], [{"prob": 1.0, "value": 2.0}]),
    ([[[0.0, 0.0], [0.0, 0.0]]], [{"prob": 1.0, "value": 2.0}]),
    ([A1.tolist(), A2.tolist()], [{"prob": 1.0, "value": 0.0}]),
    ([A1.tolist(), A2.tolist()], [{"prob": 1.0, "value": -1.0}]),
    ([A1.tolist(), A2.tolist()], [{"prob": 0.5, "value": 1.0}]),
    ([A1.tolist(), A2.tolist()], [{"prob": 1.0}]),
])
def test_scalar_file_validation(base_branch, scalar_law):
    with pytest.raises(ValueError):
        model_from_dict({"dim": 2, "kind": "ScalarRandomized",
                            "base_branch": base_branch,
                            "scalar_law": scalar_law})


def test_compiled_form(ex1, ex2, ex3):
    assert ex1.atoms is None and ex1.n_law == ((2, 1.0),)
    assert [(p, len(br)) for p, br in ex2.atoms] == [(0.5, 3), (0.5, 3)]
    assert sl.expected_n(ex2) == 3.0 and sl.prob_n_equals(ex2, 3) == 1.0
    for spec in (ex2, ex3):
        assert spec.n_law == tuple((len(br), p) for p, br in spec.atoms)
