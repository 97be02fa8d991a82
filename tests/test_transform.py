"""Basic transform step, split evaluation, profiles, addressing."""

import math

import numpy as np
import pytest

from polarlens import (
    CapacityError,
    DistributionError,
    SubchannelIndex,
    child_entropies,
    conditional_renyi,
    dedup,
    level_profile,
    level_profile_sweep,
    make_bec,
    make_bsc,
    make_from_atoms,
    one_step_report,
    random_joint,
    split_power_sums,
    synthesize,
    transform_pair,
)

ORDERS = (0.0, 0.1, 0.5, 1.0, 2.0, 10.0, 100.0, math.inf)


def _atom_set(d):
    return sorted((a.p0, a.p1, a.weight) for a in d.atoms())


def test_transform_pair_raw_atoms():
    # hand-expanded pair rule on the uncanonicalized BSC(0.2)
    d = make_bsc(0.2)
    pair = transform_pair(d, canonical=False)
    assert _atom_set(pair.minus) == [
        (pytest.approx(0.08), pytest.approx(0.17), 2.0),
        (pytest.approx(0.17), pytest.approx(0.08), 2.0),
    ]
    assert _atom_set(pair.plus) == [
        (pytest.approx(0.01), pytest.approx(0.16), 2.0),
        (pytest.approx(0.04), pytest.approx(0.04), 4.0),
        (pytest.approx(0.16), pytest.approx(0.01), 2.0),
    ]
    assert pair.minus.mass == pytest.approx(1.0, abs=1e-12)
    assert pair.plus.mass == pytest.approx(1.0, abs=1e-12)


def test_transform_drops_massless_plus_atoms():
    d = make_from_atoms([(1.0, 0.0, 1.0)])
    pair = transform_pair(d, canonical=False)
    # the (a1*b0, a0*b1) branch of a noiseless pair carries no mass
    assert pair.plus.n_atoms == 1
    assert (pair.plus.p0 + pair.plus.p1 > 0).all()
    assert pair.minus.n_atoms == 1


def test_noiseless_and_pure_noise_are_fixed_points():
    clean = make_from_atoms([(1.0, 0.0, 1.0)])
    noisy = make_from_atoms([(0.25, 0.25, 2.0)])
    for root, want in ((clean, 0.0), (noisy, 1.0)):
        pair = transform_pair(root)
        for child in pair:
            for a in ORDERS:
                assert conditional_renyi(child, a) == pytest.approx(want, abs=1e-12)


def test_compound_pair_mass_and_conservation():
    rng = np.random.default_rng(101)
    for _ in range(30):
        a = random_joint(rng)
        b = random_joint(rng)
        rep = one_step_report(a, b, orders=ORDERS)
        for r in rep:
            assert abs(r.conservation_residual) <= 1e-9
            assert r.minus_above_max
            assert r.plus_below_min


def test_one_step_bsc02_frozen_triples():
    reps = one_step_report(make_bsc(0.2), orders=(1.0, 2.0, 10.0))
    want = {
        1.0: (0.9043814577244942, 0.5394747320502309),
        2.0: (0.8241880062782685, 0.2885986907705016),
        10.0: (0.618129477069248, 0.09726598360032351),
    }
    for r in reps:
        lo, hi = want[r.order.alpha]
        assert r.minus == pytest.approx(lo, abs=1e-12)
        assert r.plus == pytest.approx(hi, abs=1e-12)
        assert r.parent_a == pytest.approx(r.parent_b, abs=0)


def test_child_entropies_match_materialized_children():
    rng = np.random.default_rng(113)
    from polarlens.distributions import canonicalize_orientation

    for _ in range(25):
        parent = canonicalize_orientation(random_joint(rng))
        got = child_entropies(parent, ORDERS)
        pair = transform_pair(parent, canonical=False)
        for row, a in enumerate(ORDERS):
            assert got[row, 0] == pytest.approx(
                conditional_renyi(pair.minus, a), abs=1e-12
            )
            assert got[row, 1] == pytest.approx(
                conditional_renyi(pair.plus, a), abs=1e-12
            )


def test_child_entropies_bounds():
    rng = np.random.default_rng(127)
    from polarlens.distributions import canonicalize_orientation

    for _ in range(25):
        parent = canonicalize_orientation(random_joint(rng))
        vals = child_entropies(parent, ORDERS)
        assert (vals >= 0.0).all()
        assert (vals <= 1.0).all()


def test_child_entropies_rejects_non_canonical_parent():
    from polarlens.distributions import canonicalize_orientation

    raw = make_bec(0.35)  # the p0 = 0 < p1 atom would divide p1 / p0 by zero
    with pytest.raises(DistributionError):
        child_entropies(raw, ORDERS)
    vals = child_entropies(canonicalize_orientation(raw), ORDERS)
    assert np.isfinite(vals).all()


def test_split_power_sums_contract():
    rng = np.random.default_rng(131)
    for _ in range(20):
        a = random_joint(rng)
        b = random_joint(rng)
        for alpha in (0.3, 0.7, 2.0, 5.0):
            s = split_power_sums(a, b, alpha=alpha)
            scale = 1.0 - alpha
            rep = {r.order.alpha: r for r in one_step_report(a, b, orders=(alpha,))}
            assert (s.log_s2 - s.log_s1) / scale == pytest.approx(
                rep[alpha].minus, abs=1e-9
            )
            assert (s.log_s3 - s.log_s2) / scale == pytest.approx(
                rep[alpha].plus, abs=1e-9
            )
            # s3 - s4 telescopes back to channel a's own entropy
            assert (s.log_s3 - s.log_s4) / scale == pytest.approx(
                conditional_renyi(a, alpha), abs=1e-9
            )


def test_split_power_sums_ordering_carries_minus_inequality():
    rng = np.random.default_rng(137)
    for _ in range(50):
        a = random_joint(rng)
        b = random_joint(rng)
        s_low = split_power_sums(a, b, alpha=0.45)
        s_high = split_power_sums(a, b, alpha=3.5)
        assert s_low.log_s2 >= s_low.log_s4 - 1e-12
        assert s_high.log_s2 <= s_high.log_s4 + 1e-12


def test_subchannel_index_paths():
    assert SubchannelIndex(0, 1).path() == ()
    assert SubchannelIndex(0, 1).path_string() == "(root)"
    assert SubchannelIndex(3, 1).path() == (0, 0, 0)
    assert SubchannelIndex(3, 8).path() == (1, 1, 1)
    assert SubchannelIndex(3, 5).path() == (1, 0, 0)
    assert SubchannelIndex(3, 5).path_string() == "+--"
    assert SubchannelIndex(2, 2).child(1) == SubchannelIndex(3, 4)
    with pytest.raises(ValueError):
        SubchannelIndex(2, 5)
    with pytest.raises(ValueError):
        SubchannelIndex(2, 0)


def test_synthesize_matches_profile_columns():
    root = make_bsc(0.2)
    prof = level_profile(root, 3, orders=ORDERS)
    for i in (1, 3, 6, 8):
        sub = synthesize(root, SubchannelIndex(3, i))
        for row, a in enumerate(ORDERS):
            assert prof.entries[row, i - 1] == pytest.approx(
                conditional_renyi(sub, a), abs=1e-12
            )


def test_profile_average_is_root_entropy():
    rng = np.random.default_rng(139)
    for _ in range(8):
        root = random_joint(rng, max_symbols=4)
        prof = level_profile(root, 3, orders=ORDERS)
        for a in ORDERS:
            assert prof.average(a) == pytest.approx(
                conditional_renyi(root, a), abs=1e-9
            )


def test_level_profile_sweep_consistent_with_single_levels():
    root = make_bsc(0.3)
    sweep = level_profile_sweep(root, 4, orders=(0.5, 1.0, 2.0))
    assert [p.level for p in sweep] == [1, 2, 3, 4]
    for p in sweep:
        single = level_profile(root, p.level, orders=(0.5, 1.0, 2.0))
        assert np.array_equal(p.entries, single.entries)
        assert p.entries.shape == (3, 2**p.level)


def test_presentation_permutation_sorts_shannon_row():
    prof = level_profile(make_bsc(0.2), 4, orders=(0.5, 1.0, 2.0))
    perm = prof.presentation_permutation()
    shannon = prof.row(1.0)[perm]
    assert (np.diff(shannon) >= 0).all()


def test_transform_capacity_error():
    # raw child count is 2 * na * nb; the cap cuts exactly there
    n = 60
    rng = np.random.default_rng(149)
    p = rng.uniform(0.1, 1.0, size=(n, 2))
    p /= p.sum()
    d = make_from_atoms(np.column_stack([p, np.ones(n)]))
    with pytest.raises(CapacityError):
        transform_pair(d, atom_cap=2 * n * n - 1)
    pair = transform_pair(d, atom_cap=2 * n * n)
    assert pair.minus.mass == pytest.approx(1.0, abs=1e-9)


def test_child_entropies_pair_grid_work_budget():
    from polarlens.distributions import canonicalize_orientation
    from polarlens.transform import _SPLIT_WORK_FACTOR

    n = 60
    rng = np.random.default_rng(157)
    p = rng.uniform(0.1, 1.0, size=(n, 2))
    p /= p.sum()
    parent = canonicalize_orientation(
        make_from_atoms(np.column_stack([p, np.ones(n)]))
    )
    groups = parent.n_atoms
    # budget one element short of the grid: non-integral orders refuse
    tight = (2 * groups * groups - 1) // _SPLIT_WORK_FACTOR
    with pytest.raises(CapacityError):
        child_entropies(parent, (0.5,), atom_cap=tight)
    with pytest.raises(CapacityError):
        child_entropies(parent, (1.0,), atom_cap=tight)
    # integral orders ride the moment path and skip the pair grid
    vals = child_entropies(parent, (2.0,), atom_cap=tight)
    assert vals.shape == (1, 2)
    # support and max-mass children are closed-form, no grid either
    vals = child_entropies(parent, (0.0, math.inf), atom_cap=tight)
    assert vals.shape == (2, 2)
    # one more element of budget admits the grid
    vals = child_entropies(parent, (0.5,), atom_cap=tight + 1)
    assert vals.shape == (1, 2)


def test_dedup_before_transform_changes_nothing():
    rng = np.random.default_rng(151)
    for _ in range(10):
        d = random_joint(rng)
        doubled = make_from_atoms(
            np.concatenate(
                [
                    np.column_stack([d.p0, d.p1, d.weight / 2]),
                    np.column_stack([d.p0, d.p1, d.weight / 2]),
                ]
            )
        )
        for a in ORDERS:
            assert conditional_renyi(dedup(doubled), a) == pytest.approx(
                conditional_renyi(d, a), abs=1e-12
            )
