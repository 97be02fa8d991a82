"""Atom container: construction, validation, canonical merging, JSON."""

import json
import math

import numpy as np
import pytest

from polarlens import (
    DistributionError,
    JointDistribution,
    canonicalize_orientation,
    conditional_renyi,
    from_json_dict,
    level_profile,
    load_file,
    make_bec,
    make_bsc,
    make_from_atoms,
    random_joint,
)

ORDERS = (0.0, 0.1, 0.5, 1.0, 2.0, 10.0, 100.0, math.inf)


def test_bsc_atoms():
    d = make_bsc(0.2)
    assert d.n_atoms == 2
    assert d.mass == pytest.approx(1.0, abs=1e-15)
    rows = sorted(d.atoms())
    assert rows[0].p0 == pytest.approx(0.1)
    assert rows[0].p1 == pytest.approx(0.4)
    assert rows[1].p0 == pytest.approx(0.4)
    assert rows[1].p1 == pytest.approx(0.1)


def test_bsc_skewed_prior():
    d = make_bsc(0.2, prior0=0.25)
    total0 = float(np.sum(d.weight * d.p0))
    assert total0 == pytest.approx(0.25, abs=1e-15)


def test_bsc_degenerate_prior_drops_empty_column():
    # prior0=1 kills the X=1 row; both output symbols stay but one would
    # be massless under crossover 0, and massless atoms must not appear
    d = make_bsc(0.0, prior0=1.0)
    assert d.n_atoms == 1
    assert d.mass == pytest.approx(1.0)
    assert (d.p0 + d.p1 > 0).all()


def test_bec_structure():
    d = make_bec(0.5)
    # non-erased symbols are deterministic, the erased one is a prior copy
    seen_erasure = False
    for atom in d.atoms():
        if atom.p0 > 0 and atom.p1 > 0:
            seen_erasure = True
            assert atom.p0 == pytest.approx(atom.p1)
        else:
            assert atom.p0 == 0 or atom.p1 == 0
    assert seen_erasure
    assert d.mass == pytest.approx(1.0)


def test_make_from_atoms_pairs_get_unit_weight():
    d = make_from_atoms([(0.3, 0.2), (0.1, 0.4)])
    assert d.n_atoms == 2
    assert (d.weight == 1.0).all()


def test_make_from_atoms_with_weights():
    d = make_from_atoms([(0.2, 0.05, 2.0), (0.25, 0.25, 1.0)])
    assert d.mass == pytest.approx(1.0)
    assert d.weight.tolist() == [2.0, 1.0]


@pytest.mark.parametrize(
    "atoms",
    [
        [],
        [(0.5, -0.5, 1.0)],
        [(math.nan, 0.5, 1.0)],
        [(0.5, 0.5, 0.0)],
        [(0.0, 0.0, 1.0)],
        [(0.3, 0.3, 1.0)],
        [0.5],
        [(0.5, None, 1.0)],
    ],
)
def test_rejects_bad_atoms(atoms):
    with pytest.raises((DistributionError, ValueError)):
        make_from_atoms(atoms)


def test_normalization_tol_none_accepts_subnormalized():
    d = make_from_atoms([(0.25, 0.25, 1.0)], normalization_tol=None)
    assert d.mass == pytest.approx(0.5)


def test_admitted_mass_off_one_is_divided_out():
    # at mass 0.6 the order-1 entries of this law were -0.4418 and 1.4908
    loose = make_from_atoms([[0.3, 0.1, 1], [0.1, 0.1, 1]], normalization_tol=0.5)
    assert loose.mass == pytest.approx(1.0, abs=1e-15)
    unit = make_from_atoms([[0.3, 0.1, 1 / 0.6], [0.1, 0.1, 1 / 0.6]])
    orders = (0.5, 1.0, 2.0)
    got = level_profile(loose, 1, orders).entries
    assert ((got >= 0.0) & (got <= 1.0)).all()
    assert got == pytest.approx(level_profile(unit, 1, orders).entries, abs=1e-15)
    # a mass within MASS_TOL keeps its weights bit for bit
    assert make_from_atoms([[0.5, 0.5 + 5e-10, 1.0]]).weight.tolist() == [1.0]


def test_crossover_bounds():
    with pytest.raises((DistributionError, ValueError)):
        make_bsc(1.5)
    with pytest.raises((DistributionError, ValueError)):
        make_bec(-0.1)


def test_arrays_read_only():
    d = make_bsc(0.3)
    with pytest.raises(ValueError):
        d.p0[0] = 0.9


def test_dedup_groups_bitwise_equal_atoms():
    d = make_from_atoms(
        [(0.2, 0.05, 1.0), (0.2, 0.05, 2.0), (0.25, 0.25, 1.0)],
        normalization_tol=None,
    )
    g = canonicalize_orientation(d)
    assert g.n_atoms == 2
    row = [a for a in g.atoms() if a.p0 == 0.2][0]
    assert row.weight == 3.0


def test_dedup_idempotent_and_mass_preserving():
    rng = np.random.default_rng(11)
    for _ in range(40):
        d = random_joint(rng)
        g = canonicalize_orientation(d)
        assert g.mass == pytest.approx(d.mass, abs=1e-12)
        gg = canonicalize_orientation(g)
        assert gg.n_atoms == g.n_atoms
        assert np.array_equal(gg.p0, g.p0)
        assert np.array_equal(gg.weight, g.weight)


def test_dedup_order_invariant():
    rng = np.random.default_rng(5)
    base = [(0.11, 0.07, 1.0), (0.11, 0.07, 1.0), (0.31, 0.02, 2.0), (0.155, 0.155, 1.0)]
    ref = canonicalize_orientation(make_from_atoms(base, normalization_tol=None))
    for _ in range(10):
        perm = rng.permutation(len(base))
        d = canonicalize_orientation(
            make_from_atoms([base[i] for i in perm], normalization_tol=None)
        )
        assert np.array_equal(d.p0, ref.p0)
        assert np.array_equal(d.p1, ref.p1)
        assert np.array_equal(d.weight, ref.weight)


def test_canonicalize_orients_and_groups():
    d = make_bsc(0.2)
    c = canonicalize_orientation(d)
    assert c.n_atoms == 1
    assert c.p0[0] == pytest.approx(0.4)
    assert c.p1[0] == pytest.approx(0.1)
    assert c.weight[0] == 2.0


def test_canonicalize_preserves_conditionals():
    # flipping p0/p1 within atoms relabels X per symbol; every H_a(X|Y)
    # is invariant because power sums see the same multiset of pairs
    rng = np.random.default_rng(23)
    for _ in range(25):
        d = random_joint(rng)
        c = canonicalize_orientation(d)
        assert (c.p0 >= c.p1).all()
        for a in ORDERS:
            assert conditional_renyi(c, a) == pytest.approx(
                conditional_renyi(d, a), abs=1e-12
            )


def test_canonicalize_preserves_descendant_profiles():
    rng = np.random.default_rng(31)
    for _ in range(5):
        d = random_joint(rng, max_symbols=4)
        c = canonicalize_orientation(d)
        pd = level_profile(d, 3, orders=ORDERS)
        pc = level_profile(c, 3, orders=ORDERS)
        assert np.max(np.abs(pd.entries - pc.entries)) < 1e-12


def test_json_round_trip(tmp_path):
    d = make_from_atoms([(0.45, 0.05, 1.0), (0.05, 0.2, 1.0), (0.125, 0.125, 1.0)])
    blob = d.to_json_dict()
    back = from_json_dict(blob)
    assert np.array_equal(back.p0, d.p0)
    assert np.array_equal(back.p1, d.p1)
    assert np.array_equal(back.weight, d.weight)

    path = tmp_path / "dist.json"
    path.write_text(json.dumps(blob))
    loaded = load_file(path)
    assert np.array_equal(loaded.p0, d.p0)


def test_load_file_rejects_garbage(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"atoms": [[0.5, 0.5, -1.0]]}')
    with pytest.raises((DistributionError, ValueError)):
        load_file(path)


def test_random_joint_valid():
    rng = np.random.default_rng(7)
    for _ in range(50):
        d = random_joint(rng, min_symbols=2, max_symbols=8)
        assert 2 <= d.n_atoms <= 8
        assert d.mass == pytest.approx(1.0, abs=1e-9)
        assert isinstance(d, JointDistribution)
