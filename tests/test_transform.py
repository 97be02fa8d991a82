"""Basic transform step, split evaluation and profiles."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarlens import (
    CapacityError,
    DistributionError,
    child_entropies,
    conditional_renyi,
    level_profile,
    level_profile_sweep,
    make_bec,
    make_bsc,
    make_from_atoms,
    one_step_report,
    random_joint,
    transform_pair,
)

ORDERS = (0.0, 0.1, 0.5, 1.0, 2.0, 10.0, 100.0, math.inf)


def _atom_set(d):
    return sorted((a.p0, a.p1, a.weight) for a in d.atoms())


def test_transform_pair_raw_atoms():
    # hand-expanded pair rule on BSC(0.2); the mirror pairs merge canonically
    d = make_bsc(0.2)
    pair = transform_pair(d)
    assert _atom_set(pair.minus) == [
        (pytest.approx(0.17), pytest.approx(0.08), 4.0),
    ]
    assert _atom_set(pair.plus) == [
        (pytest.approx(0.04), pytest.approx(0.04), 4.0),
        (pytest.approx(0.16), pytest.approx(0.01), 4.0),
    ]
    assert pair.minus.mass == pytest.approx(1.0, abs=1e-12)
    assert pair.plus.mass == pytest.approx(1.0, abs=1e-12)


def test_transform_drops_massless_plus_atoms():
    d = make_from_atoms([(1.0, 0.0, 1.0)])
    pair = transform_pair(d)
    # the (a1*b0, a0*b1) branch of a noiseless pair carries no mass
    assert pair.plus.n_atoms == 1
    assert (pair.plus.p0 + pair.plus.p1 > 0).all()
    assert pair.minus.n_atoms == 1


def test_compound_step_children_are_canonical():
    # hand-expanded pair rule on BSC(0.1) x BSC(0.3): every minus atom is
    # (0.165, 0.085) up to a flip, and the plus atoms are two mirror pairs
    pair = transform_pair(make_bsc(0.1), make_bsc(0.3))
    assert _atom_set(pair.minus) == [(pytest.approx(0.165), pytest.approx(0.085), 4.0)]
    assert _atom_set(pair.plus) == [
        (pytest.approx(0.0675), pytest.approx(0.0175), 4.0),
        (pytest.approx(0.1575), pytest.approx(0.0075), 4.0),
    ]
    for child in pair:
        assert (child.p0 >= child.p1).all()
        keys = list(zip(child.p0, child.p1))
        assert all(x < y for x, y in zip(keys, keys[1:]))
        assert child.mass == pytest.approx(1.0, abs=1e-12)


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
            assert r.minus >= max(r.parent_a, r.parent_b) - 1e-10
            assert r.plus <= min(r.parent_a, r.parent_b) + 1e-10


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
        pair = transform_pair(parent, _copy(parent))
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


def test_synthesize_matches_profile_columns():
    from polarlens.distributions import canonicalize_orientation

    root = make_bsc(0.2)
    prof = level_profile(root, 3, orders=ORDERS)
    for i in (1, 3, 6, 8):
        # the path to subchannel i: bits of i - 1, most significant first,
        # 0 for the minus child and 1 for the plus child
        sub = canonicalize_orientation(root)
        for k in (2, 1, 0):
            sub = transform_pair(sub)[((i - 1) >> k) & 1]
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
    # a sweep splits only its deepest level, which is bitwise the single
    # call's; the levels above come from their own states, within rounding
    # of the split that a single call to that level runs
    root = make_bsc(0.3)
    sweep = level_profile_sweep(root, 4, orders=(0.5, 1.0, 2.0))
    assert [p.level for p in sweep] == [1, 2, 3, 4]
    for p in sweep:
        single = level_profile(root, p.level, orders=(0.5, 1.0, 2.0))
        if p.level == 4:
            assert np.array_equal(p.entries, single.entries)
        else:
            assert np.max(np.abs(p.entries - single.entries)) <= 1e-15, p.level
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
    from polarlens import as_order
    from polarlens.distributions import canonicalize_orientation
    from polarlens.transform import _SPLIT_WORK_FACTOR, _RatioView

    n = 60
    rng = np.random.default_rng(157)
    p = rng.uniform(0.1, 1.0, size=(n, 2))
    p /= p.sum()
    parent = canonicalize_orientation(
        make_from_atoms(np.column_stack([p, np.ones(n)]))
    )
    view = _RatioView.from_atoms(parent, [as_order(40.5), as_order(512.0)])
    groups, proxies = view.ratios.size, view.proxy_counts[0]
    assert proxies < groups == parent.n_atoms

    def tight(points):
        # budget one element short of the 2 * points^2 grid
        return (2 * points * points - 1) // _SPLIT_WORK_FACTOR

    # order 1 and every finite order up to 6 stream the proxy grid
    for a in (0.5, 1.0, 2.0):
        with pytest.raises(CapacityError):
            child_entropies(parent, (a,), atom_cap=tight(proxies))
        assert child_entropies(parent, (a,), atom_cap=tight(proxies) + 1).shape == (1, 2)
    # orders above 32 stream the direct grid over the ratio groups kept by
    # pruning: all of them at 40.5, fewer at 512
    kept = view.kept_groups(512.0).size
    assert view.kept_groups(40.5).size == groups > kept
    with pytest.raises(CapacityError):
        child_entropies(parent, (40.5,), atom_cap=tight(groups))
    vals = child_entropies(parent, (0.5, 1.0, 40.5), atom_cap=tight(groups) + 1)
    assert vals.shape == (3, 2)
    with pytest.raises(CapacityError):
        child_entropies(parent, (512.0,), atom_cap=tight(kept))
    # support and max-mass children are closed-form, no grid
    vals = child_entropies(parent, (0.0, 512.0, math.inf), atom_cap=tight(kept) + 1)
    assert vals.shape == (3, 2)
    # one order over budget refuses the whole call, whatever its position
    with pytest.raises(CapacityError):
        child_entropies(parent, (0.0, 0.5), atom_cap=tight(proxies))


def _equal_mass_root(n):
    """n atoms of equal p0 and distinct odds: pruning keeps every ratio group."""
    r = np.arange(1, n + 1) / (n + 1)
    total = np.sum(1.0 + r)
    return make_from_atoms(np.column_stack([np.full(n, 1.0 / total), r / total, np.ones(n)]))


def test_child_entropies_budget_counts_the_streamed_grid():
    # 60,000 ratio groups, but the proxy grid of orders 0.5, 1 and 2 has a
    # few hundred points: the default budget admits them and refuses the
    # direct grid of 40.5, where pruning keeps every group
    root = _equal_mass_root(60000)
    vals = child_entropies(root, (0.5, 1.0, 2.0))
    assert ((vals >= 0.0) & (vals <= 1.0)).all()
    with pytest.raises(CapacityError):
        child_entropies(root, (40.5,))


def test_child_entropies_budget_counts_the_kept_groups():
    # the full grid over 2,000 ratio groups is over budget, the kept one not
    from polarlens import as_order
    from polarlens.distributions import canonicalize_orientation
    from polarlens.transform import _SPLIT_WORK_FACTOR, _RatioView

    root = canonicalize_orientation(random_joint(np.random.default_rng(1), 2000, 2000))
    view = _RatioView.from_atoms(root, [as_order(40.5)])
    groups, kept = view.ratios.size, view.kept_groups(40.5).size
    assert groups == 2000 and kept < groups
    cap = (2 * groups * groups - 1) // _SPLIT_WORK_FACTOR
    assert 2 * kept * kept <= _SPLIT_WORK_FACTOR * cap
    want = child_entropies(root, (40.5,))
    assert np.array_equal(child_entropies(root, (40.5,), atom_cap=cap), want)


def test_sweep_split_refusal_names_level_and_parent():
    with pytest.raises(CapacityError) as exc:
        level_profile_sweep(_equal_mass_root(60000), 1, (40.5,))
    message = str(exc.value)
    assert "level 1" in message and "parent 1 of 1" in message and "order 40.5" in message


SPLIT_ORDERS = (math.inf, 2.0, 0.0, 0.5, 1.0, 2.0, 7.5, 40.5, 600.0)


def _split_class(o):
    from polarlens.transform import _PROXY_MAX_ORDER

    if o.kind in ("zero", "infinity"):
        return o.kind
    return "walk" if o.alpha <= _PROXY_MAX_ORDER else "grid"


@pytest.mark.parametrize("which", ["bsc-level4", "random"])
def test_child_entropies_rows_do_not_depend_on_the_other_orders(which):
    from polarlens import as_order
    from polarlens.distributions import canonicalize_orientation

    if which == "random":
        parent = canonicalize_orientation(random_joint(np.random.default_rng(163)))
    else:
        parent = max(_levels(make_bsc(0.2), 4)[4], key=lambda p: p.n_atoms)
    orders = [as_order(o) for o in SPLIT_ORDERS]
    combined = child_entropies(parent, orders)
    classes = {}
    for k, o in enumerate(orders):
        classes.setdefault(_split_class(o), []).append(k)
        assert np.array_equal(child_entropies(parent, [o]), combined[[k]]), o
    assert len(classes) == 4
    for idx in classes.values():
        assert np.array_equal(child_entropies(parent, [orders[k] for k in idx]), combined[idx])
    assert np.array_equal(child_entropies(parent, orders[::-1]), combined[::-1])


def _combined_call_parent(which):
    from polarlens.distributions import canonicalize_orientation

    if which == "tiny-grid":  # two ratio groups: the walk is one row at a time
        return canonicalize_orientation(make_bec(0.35, prior0=0.3))
    if which == "bsc-level5":
        return max(_levels(make_bsc(0.2), 5)[5], key=lambda p: p.n_atoms)
    # posteriors near 2e-315: the walker's and the parent's terms go subnormal
    return canonicalize_orientation(make_bsc(2e-315))


@pytest.mark.parametrize("which", ["tiny-grid", "bsc-level5", "subnormal"])
def test_combined_calls_match_single_order_calls(which):
    # a combined call shares one pair walk and one pass over the symbols
    # between its orders; each order must still get the bits it gets alone
    from polarlens import as_order, conditional_entropies, renyi_entropies, renyi_entropy
    from polarlens.transform import _RatioView

    parent = _combined_call_parent(which)
    if which == "tiny-grid":
        assert _RatioView.from_atoms(parent, [as_order(1.0)]).proxy_counts[0] < 8
    orders = [as_order(o) for o in SPLIT_ORDERS + (0.1, 3.5, 6.0, 31.9, 1e5)]
    combined = child_entropies(parent, orders)
    conditional = conditional_entropies(parent, orders)
    masses = renyi_entropies(parent.symbol_mass, orders, parent.weight)
    for k, o in enumerate(orders):
        assert np.array_equal(child_entropies(parent, [o]), combined[[k]]), o
        assert conditional_entropies(parent, [o])[0] == conditional[k] == conditional_renyi(parent, o)
        assert renyi_entropy(parent.symbol_mass, o, parent.weight) == masses[k], o
    assert np.array_equal(child_entropies(parent, orders[::-1]), combined[::-1])
    assert np.array_equal(conditional_entropies(parent, orders[::-1]), conditional[::-1])


def test_dedup_before_transform_changes_nothing():
    from polarlens.distributions import canonicalize_orientation

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
            assert conditional_renyi(canonicalize_orientation(doubled), a) == pytest.approx(
                conditional_renyi(d, a), abs=1e-12
            )


def test_sweep_refuses_a_level_before_working_on_it(monkeypatch):
    import polarlens.transform as transform

    calls = []
    real = transform._RatioView.children

    def counted(view):
        calls.append(view.sizes.tolist())
        return real(view)

    monkeypatch.setattr(transform._RatioView, "children", counted)
    # BSC(0.2) level-3 states hold 1, 2, 2, 3, 2, 3, 4, 5 points: the eighth
    # is the first whose 3 * 5 * 6 / 2 = 45 raw points exceed the cap of 44
    with pytest.raises(CapacityError) as err:
        level_profile_sweep(make_bsc(0.2), 5, orders=(0.5, 2.0), atom_cap=44)
    assert str(err.value) == (
        "level 4 cannot be built: parent 8 of 8 would create 45 raw "
        "points (cap 44); raise atom_cap to allow it"
    )
    # one step per level, levels 1 to 3 only: the root and levels 1 and 2 step
    assert calls == [[1], [1, 2], [1, 2, 2, 3]]
    # the deepest level is never built, so it needs no room
    assert len(level_profile_sweep(make_bsc(0.2), 4, orders=(0.5,), atom_cap=44)) == 4


# ---------------------------------------------------------------------------
# Self-paired transforms: the full outer product, folded by the canonical
# merge, against the i <= j triangle.
# ---------------------------------------------------------------------------


def _copy(d):
    """An equal but distinct distribution."""
    from polarlens import JointDistribution

    return JointDistribution(d.p0.copy(), d.p1.copy(), d.weight.copy())


def _triangle(parent):
    """Both canonical children of a step of ``parent`` with itself, over its atom
    pairs i <= j only, off-diagonal pairs at weight 2 wi wj."""
    from polarlens import JointDistribution
    from polarlens.distributions import canonicalize_orientation

    i, j = np.triu_indices(parent.n_atoms)
    a0, a1, b0, b1 = parent.p0[i], parent.p1[i], parent.p0[j], parent.p1[j]
    w = np.where(i == j, 1.0, 2.0) * parent.weight[i] * parent.weight[j]
    d00, d11, d10, d01 = a0 * b0, a1 * b1, a1 * b0, a0 * b1
    m0, m1 = d00 + d11, d10 + d01
    l0, l1 = m0 > 0.0, m1 > 0.0
    plus = [np.concatenate(c) for c in ((d00[l0], d10[l1]), (d11[l0], d01[l1]), (w[l0], w[l1]))]
    return [canonicalize_orientation(JointDistribution(*c)) for c in ((m0, m1, w), plus)]


def _assert_triangle_matches_full(parent):
    tri = _triangle(parent)
    full = transform_pair(parent)
    for got, want in zip(tri, full):
        assert got.n_atoms == want.n_atoms
        assert np.array_equal(got.p0, want.p0)
        assert np.array_equal(got.p1, want.p1)
        assert np.all(np.abs(got.weight - want.weight) <= 1e-15 * want.weight)


def _levels(root, deepest):
    from polarlens.distributions import canonicalize_orientation

    levels = [[canonicalize_orientation(root)]]
    for _ in range(deepest):
        levels.append([c for p in levels[-1] for c in transform_pair(p)])
    return levels


@pytest.mark.parametrize("root", [make_bsc(0.2), make_bec(0.35)], ids=["bsc", "bec"])
def test_self_paired_triangle_matches_full_grid(root):
    levels = _levels(root, 5)
    for parent in levels[3] + levels[4]:
        _assert_triangle_matches_full(parent)
    # level 5 holds the largest parents; the three largest cover the blocks
    for parent in sorted(levels[5], key=lambda p: p.n_atoms)[-3:]:
        _assert_triangle_matches_full(parent)


def test_self_paired_dedup_sees_the_triangle(monkeypatch):
    # a self-paired step merges the full square, as a step of two parents does
    import polarlens.transform as transform

    seen = []
    real = transform.canonicalize_orientation

    def counted(d):
        seen.append(d.n_atoms)
        return real(d)

    parent = max(_levels(make_bsc(0.2), 4)[4], key=lambda p: p.n_atoms)
    n = parent.n_atoms
    monkeypatch.setattr(transform, "canonicalize_orientation", counted)
    transform_pair(parent)
    transform_pair(parent, _copy(parent))
    # all-positive BSC atoms: no plus atom is massless
    assert seen == [n * n, 2 * n * n, n * n, 2 * n * n]


@pytest.mark.parametrize(
    "atoms",
    [
        [(1.0, 0.0, 1.0)],  # noiseless: its flipped plus atoms carry no mass
        [(0.25, 0.25, 2.0)],  # pure noise, p0 = p1
        [(0.3, 0.0, 1.0), (0.1, 0.1, 2.0), (0.2, 0.05, 1.0), (0.05, 0.0, 1.0)],
    ],
    ids=["noiseless", "noise", "mixed"],
)
def test_self_paired_triangle_edge_atoms(atoms):
    from polarlens.distributions import canonicalize_orientation

    _assert_triangle_matches_full(canonicalize_orientation(make_from_atoms(atoms)))


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(
    atoms=st.lists(
        st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(1, 3)),
        min_size=1,
        max_size=40,
    ).filter(lambda xs: any(a + b > 0 for a, b, _ in xs))
)
def test_self_paired_triangle_property(atoms):
    # small integer lattices give ties, duplicates and zero entries
    from polarlens.distributions import canonicalize_orientation

    arr = np.array([(a, b, w) for a, b, w in atoms if a + b > 0], dtype=float)
    arr[:, :2] /= np.sum(arr[:, 2] * (arr[:, 0] + arr[:, 1]))
    _assert_triangle_matches_full(
        canonicalize_orientation(make_from_atoms(arr, normalization_tol=None))
    )


def test_self_paired_blocks_and_threads_do_not_change_bytes(monkeypatch):
    import polarlens.transform as transform

    parent = max(_levels(make_bsc(0.2), 4)[4], key=lambda p: p.n_atoms)

    def arrays(chunk, **kwargs):
        monkeypatch.setattr(transform, "_PAIR_CHUNK", chunk)
        pair = transform_pair(parent, **kwargs)
        return [x for d in pair for x in (d.p0, d.p1, d.weight)]

    for kwargs in ({}, {"b": _copy(parent)}):
        # 64 elements per block: two rows of the 27-atom parent per block
        single = arrays(1 << 30, **kwargs)
        blocked = arrays(64, **kwargs)
        assert all(np.array_equal(x, y) for x, y in zip(blocked, single))


# ---------------------------------------------------------------------------
# Far-interval walks over proxy points against a dense grid over the groups.
# ---------------------------------------------------------------------------

PROXY_ORDERS = (1e-3, 0.1, 0.5, 0.999, 1.0, 1.001, 3.7, 7.5, 20.5, 31.9, 32.0)


#: Odds draws: uniform on [0, 1]; log-uniform down to 2^-1000, which leaves
#: few groups per dyadic box; log-uniform over four boxes near 2^-1000.
RATIO_DRAWS = {"uniform": (None, None), "log": (0.0, 1000.0), "deep": (996.0, 1000.0)}

#: The draws of the far-interval walk: RATIO_DRAWS and odds hugging the
#: subnormal floor, where the far nodes c u_m of the lowest boxes are
#: subnormal.
FAR_DRAWS = {**RATIO_DRAWS, "floor": (1000.0, 1022.0)}


def _ratio_view(seed, groups, draw, orders):
    """The state at ``orders`` of ``groups`` atoms with random odds, r = 0 and r = 1 included."""
    from polarlens import as_order
    from polarlens.transform import _RatioView

    rng = np.random.default_rng(seed)
    lo, hi = FAR_DRAWS[draw]
    if lo is None:
        r = rng.uniform(0.0, 1.0, groups)
    else:
        r = np.exp2(-rng.uniform(lo, hi, groups))
    r[:2] = (0.0, 1.0)
    p0 = rng.uniform(0.1, 1.0, groups)
    atoms = np.column_stack([p0, p0 * r, rng.uniform(0.5, 2.0, groups)])
    root = make_from_atoms(atoms, normalization_tol=None)
    return _RatioView.from_atoms(root, [as_order(a) for a in orders])


def _dense_minus(ratios, nu, alpha):
    """H_alpha of the minus child by the full pair grid over ``ratios`` weighted ``nu``.

    Ratios (x, y) make a symbol of posterior a = (1 + xy) c, b = (x + y) c,
    c = 1 / ((1 + x)(1 + y)), weighted nu_x nu_y; no box, proxy or far node.
    """
    from polarlens.entropy import as_order, posterior_entropy, posterior_eps, posterior_logs, posterior_term

    eps = posterior_eps(as_order(alpha))
    inv = 1.0 / (1.0 + ratios)
    sums = []
    for s in range(0, ratios.size, 256):
        x = ratios[s : s + 256, None]
        c = inv[s : s + 256, None] * inv
        a, b = (1.0 + x * ratios) * c, (x + ratios) * c
        if eps is None:
            k = a**alpha + b**alpha
        else:
            k = posterior_term(posterior_logs(a), eps) + posterior_term(posterior_logs(b), eps)
        sums += (np.sum(k * nu, axis=1) * nu[s : s + 256]).tolist()
    mean = math.fsum(sums) / math.fsum(nu) ** 2
    return math.log2(mean) / (1.0 - alpha) if eps is None else posterior_entropy(mean, eps)


def _proxy_errors(view, orders):
    """Minus-child entropy by the far-interval walk over the proxy points,
    against the dense pair grid over the ratio groups, at every order."""
    from polarlens.entropy import as_order
    from polarlens.transform import _far_walk

    errs = {}
    for a in orders:
        lnu = view.symbol_log2_weights(a)
        nu = np.exp2(lnu - lnu.max())
        ((walk,),) = _far_walk(*view.proxies(nu[None]), [as_order(a)])
        errs[a] = abs(walk - _dense_minus(view.ratios, nu, a))
    return errs


@pytest.mark.parametrize("draw", sorted(FAR_DRAWS))
@pytest.mark.parametrize("groups", [200, 1000])
def test_proxy_pair_sums_match_direct_grid(groups, draw):
    view = _ratio_view(163 + groups, groups, draw, PROXY_ORDERS)
    assert view.ratios.size == groups
    if draw in ("uniform", "deep"):
        assert view.proxy_counts[0] < groups
    if draw == "floor":  # boxes of c <= 2^-1014: their far nodes c u_m are subnormal
        assert view.ratios[1] < 2.0**-1014
    for key, err in _proxy_errors(view, PROXY_ORDERS).items():
        assert err <= 1e-13, key


def test_proxy_pair_sums_on_bsc_level6_parent():
    from polarlens import as_order
    from polarlens.distributions import canonicalize_orientation
    from polarlens.transform import _RatioView

    level = [canonicalize_orientation(make_bsc(0.2))]
    for _ in range(6):
        level = [child for parent in level for child in transform_pair(parent)]
    views = [_RatioView.from_atoms(parent, [as_order(a) for a in PROXY_ORDERS]) for parent in level]
    view = min((v for v in views if v.ratios.size >= 3000), key=lambda v: v.ratios.size)
    assert view.proxy_counts[0] < view.ratios.size // 4
    for key, err in _proxy_errors(view, PROXY_ORDERS).items():
        assert err <= 1e-13, key


@settings(derandomize=True, database=None, max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    groups=st.integers(200, 3000),
    draw=st.sampled_from(sorted(RATIO_DRAWS)),
    alpha=st.floats(1e-3, 32.0),
)
def test_proxy_pair_sums_property(seed, groups, draw, alpha):
    errs = _proxy_errors(_ratio_view(seed, groups, draw, (alpha,)), (alpha,))
    assert max(errs.values()) <= 1e-13


@settings(derandomize=True, database=None, max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    groups=st.integers(200, 2000),
    draw=st.sampled_from(sorted(RATIO_DRAWS)),
    alpha=st.floats(6.0, 1e5),
)
def test_pruned_pair_grid_property(seed, groups, draw, alpha):
    # the pairs of the dropped groups total under 2^-58 of the pair sum
    from polarlens.transform import _pair_grid_sum

    view = _ratio_view(seed, groups, draw, (alpha,))
    lw, kept = view.group_log2_sums(alpha), view.kept_groups(alpha)
    full = _pair_grid_sum(view.ratios, lw, alpha)
    pruned = _pair_grid_sum(view.ratios[kept], lw[kept], alpha)
    assert abs(math.expm1((pruned - full) * math.log(2.0))) <= 2.0**-50


def test_proxy_map_passes_small_boxes_through():
    # a BEC parent has two ratio groups, r = 0 and r = 1: nothing to squeeze
    from polarlens import as_order
    from polarlens.distributions import canonicalize_orientation
    from polarlens.transform import _RatioView

    view = _RatioView.from_atoms(canonicalize_orientation(make_bec(0.35)), [as_order(1.0)])
    values = np.array([[0.3, 0.7], [1.0, 0.25]])
    points, mapped, starts = view.proxies(values)
    assert view.proxy_counts.tolist() == [2] and starts.tolist() == [0]
    assert np.array_equal(points, view.ratios)
    assert np.array_equal(mapped, values)


def _level_states(root, level, orders):
    """The stack of the ratio states of ``root``'s level ``level``."""
    from polarlens import as_order
    from polarlens.distributions import canonicalize_orientation
    from polarlens.transform import _RatioView

    view = _RatioView.from_atoms(canonicalize_orientation(root), [as_order(a) for a in orders])
    for _ in range(level):
        view = view.children()
    return view


def _one_each(view):
    """Each subchannel of a stack as a stack of one, in order."""
    from polarlens.transform import _RatioView

    ends = np.append(view.starts, view.ratios.size).tolist()
    return [
        _RatioView(view.ratios[a:b], view.orders, view.rows[:, a:b], np.array([0]))
        for a, b in zip(ends[:-1], ends[1:])
    ]


def _segments(view):
    """The ratios of each subchannel of a stack."""
    return np.split(view.ratios, view.starts[1:])


def _assert_kernel_by_order(view):
    """Order 1 and every finite order up to 32 walk, one flag per order; no other order does."""
    from polarlens import DEFAULT_ATOM_CAP
    from polarlens.transform import _plan

    walk, kept = _plan(view, DEFAULT_ATOM_CAP)
    want = [o.kind in ("one", "finite") and o.alpha <= 32.0 for o in view.orders]
    assert walk.tolist() == want
    assert sorted(kept) == [k for k, o in enumerate(view.orders) if o.kind == "finite" and o.alpha > 32.0]


def test_split_kernel_is_chosen_by_order_alone():
    # the BSC(0.2) level-6 parents hold 2 to 5,963 ratio groups and 2 to a
    # few hundred proxy points, yet each order takes one kernel on all 64
    from polarlens import EXTENDED_ORDER_GRID

    view = _level_states(make_bsc(0.2), 6, EXTENDED_ORDER_GRID[1:] + (7.5, 20.0, 32.0, 40.5))
    assert view.starts.size == 64 and len(view.orders) == len(EXTENDED_ORDER_GRID) + 3
    _assert_kernel_by_order(view)


def test_walked_high_orders_match_the_pruned_grid():
    # orders in (6, 32] walk the proxy points with the u^a + v^a kernel; the
    # log-domain grid over the kept ratio groups is the reference on every
    # level-6 parent
    from polarlens import DEFAULT_ATOM_CAP
    from polarlens.entropy import log2_sum_exp2
    from polarlens.transform import _pair_grid_sum, _split

    orders = (7.5, 10.0, 20.0, 32.0)
    view = _level_states(make_bsc(0.2), 6, orders)
    walked = _split(view, view.entropies(), DEFAULT_ATOM_CAP)[:, 0::2]
    for k, a in enumerate(orders):
        lw = view.group_log2_sums(a) - log2_sum_exp2(view.symbol_log2_weights(a), view.starts)[view.seg]
        kept = view.kept_groups(a)
        for i, g in enumerate(np.split(kept, np.searchsorted(kept, view.starts[1:]))):
            grid = _pair_grid_sum(view.ratios[g], lw[g], a) / (1.0 - a)
            assert abs(walked[k, i] - grid) <= 1e-15, (a, i)


def test_stacked_split_columns_are_those_of_a_stack_of_one():
    # the parents of a sweep's deepest level share one far-interval walk;
    # each parent's columns must be bitwise those of _split on it alone,
    # in any stack order
    from polarlens import DEFAULT_ATOM_CAP, EXTENDED_ORDER_GRID
    from polarlens.transform import _RatioView, _split

    orders = EXTENDED_ORDER_GRID[1:] + (7.5, 40.5)
    view = _level_states(make_bsc(0.2), 6, orders)
    h = view.entropies()
    stacked = _split(view, h, DEFAULT_ATOM_CAP)
    ones = _one_each(view)
    for i, one in enumerate(ones):
        assert np.array_equal(_split(one, h[[i]], DEFAULT_ATOM_CAP), stacked[:, 2 * i : 2 * i + 2])
    reverse = _split(_RatioView.stacked(ones[::-1]), h[::-1], DEFAULT_ATOM_CAP)
    pairs = reverse.reshape(len(view.orders), -1, 2)[:, ::-1].reshape(len(view.orders), -1)
    assert np.array_equal(pairs, stacked)
    sweep = level_profile_sweep(make_bsc(0.2), 7, orders)
    assert np.array_equal(stacked, sweep[-1].entries)
    _assert_kernel_by_order(view)


# ---------------------------------------------------------------------------
# Orders near 1 on roots that materialize: the posterior kernel at 40 digits.
# ---------------------------------------------------------------------------

NEAR_ONE_ORDERS = (0.1, 0.5, 0.999999, 1.0, 1.000001, 1.5)


def _reference_entropy(d, alpha):
    """H_alpha of a materialized distribution, summed in mpmath at 40 digits.

    Order 1 is the limit of the ratio form, so it is divided by the mass.
    """
    import mpmath

    with mpmath.workdps(40):
        cols = [[mpmath.mpf(v) for v in c.tolist()] for c in (d.p0, d.p1, d.weight)]
        atoms = [(w, x, y, x + y) for x, y, w in zip(*cols)]
        if alpha == 1.0:

            def xlnx(v):
                return v * mpmath.log(v) if v else v

            h = mpmath.fsum(w * (xlnx(s) - xlnx(x) - xlnx(y)) for w, x, y, s in atoms)
            return float(h / (mpmath.fsum(w * s for w, _, _, s in atoms) * mpmath.log(2)))
        a = mpmath.mpf(alpha)
        num = mpmath.fsum(w * (x**a + y**a) for w, x, y, _ in atoms)
        den = mpmath.fsum(w * s**a for w, _, _, s in atoms)
        return float(mpmath.log(num / den, 2) / (1 - a))


def _exact_levels(atoms, depth):
    """Levels 0 .. depth of float (p0, p1, w) atoms, each a list of subchannels, exactly.

    Each entry is Fraction(float) of the root's.  Every subchannel's atoms
    are oriented (p0 >= p1) and equal atoms merged; a step builds the
    atom pairs i <= j, those off the diagonal at weight 2, with the pair
    rule of transform.py's docstring.  Subchannel i's children are 2i - 1
    (minus) and 2i (plus).
    """
    from fractions import Fraction

    def merged(triples):
        out = {}
        for a0, a1, w in triples:
            if a0 or a1:
                key = (max(a0, a1), min(a0, a1))
                out[key] = out.get(key, 0) + w
        return [(a0, a1, w) for (a0, a1), w in out.items()]

    levels = [[merged([tuple(Fraction(v) for v in atom) for atom in atoms])]]
    for _ in range(depth):
        children = []
        for d in levels[-1]:
            minus, plus = [], []
            for i, (a0, a1, wa) in enumerate(d):
                for j in range(i, len(d)):
                    b0, b1, wb = d[j]
                    w = wa * wb * (1 if i == j else 2)
                    minus.append((a0 * b0 + a1 * b1, a1 * b0 + a0 * b1, w))
                    plus += [(a0 * b0, a1 * b1, w), (a1 * b0, a0 * b1, w)]
            children += [merged(minus), merged(plus)]
        levels.append(children)
    return levels


def _exact_entropy(d, order):
    """H of exact (p0, p1, w) atoms at ``order`` (a float, inf included), at 40 digits.

    Orders 0 and inf are ratios of exact support counts and maxima; order
    1 divides by the mass, as in :func:`_reference_entropy`.
    """
    import mpmath

    with mpmath.workdps(40):

        def mp(x):
            return mpmath.mpf(x.numerator) / x.denominator

        if order == 0.0:
            joint = sum(w * ((a0 > 0) + (a1 > 0)) for a0, a1, w in d)
            return float(mpmath.log(mp(joint / sum(w for _, _, w in d)), 2))
        if order == math.inf:
            return float(mpmath.log(mp(max(a0 + a1 for a0, a1, _ in d) / max(a0 for a0, _, _ in d)), 2))
        atoms = [(mp(w), mp(a0), mp(a1)) for a0, a1, w in d]
        if order == 1.0:

            def xlnx(v):
                return v * mpmath.log(v) if v else v

            h = mpmath.fsum(w * (xlnx(x + y) - xlnx(x) - xlnx(y)) for w, x, y in atoms)
            return float(h / (mpmath.fsum(w * (x + y) for w, x, y in atoms) * mpmath.log(2)))
        a = mpmath.mpf(order)
        num = mpmath.fsum(w * (x**a + (y**a if y else 0)) for w, x, y in atoms)
        den = mpmath.fsum(w * (x + y) ** a for w, x, y in atoms)
        return float(mpmath.log(num / den, 2) / (1 - a))


def test_sweep_matches_exact_rational_subchannels():
    # BSC(0.2)'s float entries carried exactly to n = 5; order inf was
    # 6.6e-15 off through the atom engine's maxima
    from polarlens import EXTENDED_ORDER_GRID

    root = make_bsc(0.2)
    orders = EXTENDED_ORDER_GRID + (40.5,)
    exact = _exact_levels(zip(root.p0.tolist(), root.p1.tolist(), root.weight.tolist()), 5)
    sweep = level_profile_sweep(root, 5, orders)
    for level in range(1, 6):
        for k, a in enumerate(orders):
            ref = [_exact_entropy(d, a) for d in exact[level]]
            assert np.max(np.abs(sweep[level - 1].entries[k] - ref)) <= 1e-15, (level, a)


@pytest.mark.parametrize(
    "root,level",
    [
        (make_bsc(0.49), 4),
        (make_bsc(0.49), 5),
        (make_bsc(0.2), 4),
        (make_bsc(0.2), 5),
        (make_bec(0.35, 0.3), 2),
        (make_bec(0.35, 0.3), 3),
    ],
    ids=["bsc0.49-n4", "bsc0.49-n5", "bsc0.2-n4", "bsc0.2-n5", "bec0.35-prior0.3-n2",
         "bec0.35-prior0.3-n3"],
)
def test_near_order_one_matches_40_digit_reference(root, level):
    # the ratio form was up to 9.7e-9 off here, and BSC(0.49) left [0, 1]
    entries = level_profile(root, level, NEAR_ONE_ORDERS).entries
    assert ((entries >= 0.0) & (entries <= 1.0)).all()
    children = _levels(root, level)[level]
    for k, a in enumerate(NEAR_ONE_ORDERS):
        ref = [_reference_entropy(d, a) for d in children]
        assert np.max(np.abs(entries[k] - ref)) <= 1e-14, a


def _mp_split_references(parent, orders):
    """H_alpha of the minus child of a canonical parent at each order, at 40 digits.

    Groups the parent's atoms by bitwise-equal odds ratio p1/p0 and sums
    over pairs of ratio groups (x, y): the pair's symbols have
    posterior u = (1 + xy) / S, v = (x + y) / S, S = (1 + x)(1 + y), and
    mass weight m_x m_y S, with m = sum w p0 per group; at order a the
    weight is M_x M_y S^a, with M = sum w p0^a, so the pair adds
    M_x M_y (S^a u^a + S^a v^a) = M_x M_y ((1 + xy)^a + (x + y)^a).  Pair
    (y, x) adds what (x, y) does, and each pair's s, u, v and logs, and
    each ln p0, are taken once for every order.
    """
    import mpmath

    distinct, group = np.unique(parent.p1 / parent.p0, return_inverse=True)
    with mpmath.workdps(40):
        ratios = [mpmath.mpf(x) for x in distinct.tolist()]
        log_p0 = [mpmath.log(x) for x in parent.p0.tolist()]
        w = [mpmath.mpf(x) for x in parent.weight.tolist()]
        pairs = []  # (multiplicity, i, j, s u, s v, ln(s u), ln(s v), ln s)
        for i, x in enumerate(ratios):
            for j in range(i, len(ratios)):
                y = ratios[j]
                su, sv = 1 + x * y, x + y
                ls = mpmath.log((1 + x) * (1 + y))
                logs = (mpmath.log(su), mpmath.log(sv) if sv else None, ls)
                pairs.append((1 if i == j else 2, i, j, su, sv, *logs))
        refs = []
        for alpha in orders:
            a = mpmath.mpf(alpha)
            group_sums = [mpmath.mpf(0)] * len(ratios)
            for g, lp, m in zip(group.tolist(), log_p0, w):
                group_sums[g] += m * mpmath.exp(a * lp)
            norm = mpmath.fsum(m * (1 + x) ** a for m, x in zip(group_sums, ratios)) ** 2
            if alpha == 1.0:
                # s (u ln u + v ln v) = s u (ln(s u) - ln s) + s v (ln(s v) - ln s)
                terms = (
                    k * group_sums[i] * group_sums[j]
                    * (su * (lu - ls) + (sv * (lv - ls) if sv else 0))
                    for k, i, j, su, sv, lu, lv, ls in pairs
                )
                refs.append(-mpmath.fsum(terms) / (norm * mpmath.log(2)))
            else:
                terms = (
                    k * group_sums[i] * group_sums[j]
                    * (mpmath.exp(a * lu) + (mpmath.exp(a * lv) if sv else 0))
                    for k, i, j, su, sv, lu, lv, ls in pairs
                )
                refs.append(mpmath.log(mpmath.fsum(terms) / norm, 2) / (1 - a))
    return refs


#: Orders of every other split kernel: the posterior walker on proxy
#: points (2 to 6), the u^a + v^a walker on them (7.5 to 31.9) and the
#: log-domain grid over the ratio groups kept by pruning (40.5 on; on the
#: test's parent it keeps 2 of 90 groups at 100).
SPLIT_REFERENCE_ORDERS = (2.0, 3.0, 4.0, 6.0, 7.5, 10.0, 20.5, 31.9, 40.5, 100.0, 600.0, 1e5)


def test_posterior_proxy_path_matches_40_digit_reference():
    # the smallest level-6 BSC(0.2) parent whose ratios fill a dyadic box
    # with more than 24 groups, so the pair grid runs over proxy points;
    # every finite order, not only those near 1
    import mpmath

    from polarlens import as_order
    from polarlens.transform import _RatioView

    parents = _levels(make_bsc(0.2), 6)[6]
    orders = NEAR_ONE_ORDERS + SPLIT_REFERENCE_ORDERS
    views = [_RatioView.from_atoms(p, [as_order(a) for a in orders]) for p in parents]
    k = min(
        (k for k, v in enumerate(views) if v.proxy_counts[0] < v.ratios.size),
        key=lambda k: views[k].ratios.size,
    )
    # pruning drops groups at some grid order, so its bound is exercised too
    assert any(views[k].kept_groups(a).size < views[k].ratios.size for a in orders if a > 32)
    rows = child_entropies(parents[k], orders)
    refs = _mp_split_references(parents[k], orders)
    for (minus, plus), a, ref_minus in zip(rows, orders, refs):
        with mpmath.workdps(40):
            ref_plus = 2 * mpmath.mpf(_reference_entropy(parents[k], a)) - ref_minus
        assert abs(minus - float(ref_minus)) <= 1e-14, a
        assert abs(plus - float(ref_plus)) <= 1e-14, a


def _mp_children(atoms):
    """Both children of a list of (p0, p1, w) mpf atoms, in full precision."""
    minus, plus = [], []
    for a0, a1, wa in atoms:
        for b0, b1, wb in atoms:
            minus.append((a0 * b0 + a1 * b1, a1 * b0 + a0 * b1, wa * wb))
            plus += [(a0 * b0, a1 * b1, wa * wb), (a1 * b0, a0 * b1, wa * wb)]
    return minus, plus


@pytest.mark.parametrize("alpha", [1e-3, 1e-2])
def test_subnormal_posteriors_keep_their_terms(alpha):
    # BSC(2e-315) has posterior 2e-315 on every output symbol; clamping it
    # at the smallest normal double took its term from 0.48 to 4e-8 at 1e-3
    import mpmath

    from polarlens import high_precision_conditional

    root = make_bsc(2e-315)
    assert abs(conditional_renyi(root, alpha) - high_precision_conditional(root, alpha)) <= 1e-14
    with mpmath.workdps(40):
        atoms = [tuple(map(mpmath.mpf, t)) for t in zip(root.p0, root.p1, root.weight)]
        a = mpmath.mpf(alpha)
        ref = []
        for child in _mp_children(atoms):
            num = mpmath.fsum(w * (x**a + y**a) for x, y, w in child)
            den = mpmath.fsum(w * (x + y) ** a for x, y, w in child)
            ref.append(float(mpmath.log(num / den, 2) / (1 - a)))
    entries = level_profile(root, 1, [alpha]).entries[0]
    assert np.max(np.abs(entries - ref)) <= 1e-14


def test_subnormal_products_are_refused():
    # level 6 of BSC(1e-5) underflowed products to 0 and one level-7 entry
    # came out below 1
    with pytest.raises(DistributionError) as ratios:
        level_profile(make_bsc(1e-5), 7, [0.5])
    assert str(ratios.value) == (
        "level 6 cannot be built: parent 32 of 32: "
        "product 1.000e-160 * 1.000e-160 of smallest positive ratios underflows"
    )
    # order 0 forms no products; every BSC subchannel has full support, so
    # each of its entries is exactly 1
    assert np.all(level_profile(make_bsc(1e-5), 7, [0]).entries == 1.0)
    with pytest.raises(DistributionError, match="smallest positive entries underflows"):
        transform_pair(make_bsc(2e-315))
    # zero entries are no products at risk
    assert transform_pair(make_bec(0.35, 0.3)).minus.n_atoms > 0


def test_transform_pair_refusals_name_the_transform():
    # transform_pair and the sweep's up-front level check share one check
    with pytest.raises(DistributionError) as low:
        transform_pair(make_bsc(2e-315))
    assert str(low.value) == (
        "transform: product 1.000e-315 * 1.000e-315 of smallest positive entries underflows"
    )
    with pytest.raises(CapacityError) as big:
        transform_pair(make_bsc(0.2), atom_cap=7)
    assert str(big.value) == (
        "transform would create 8 raw atoms (cap 7); raise atom_cap to allow it"
    )


# ---------------------------------------------------------------------------
# Erasure-type roots: the two-point state sweep against its references.
# ---------------------------------------------------------------------------

#: Orders whose entries must be within 1e-14 of the 60-digit reference.
#: Order inf doubles the error of its start at every level, so the start
#: carries its fraction as hi + lo.
STATE_ORDERS = (0.0, 0.1, 0.5, 0.999999, 1.0, 1.000001, 2.0, 3.0, 10.0, 37.0, 100.0, math.inf)
#: Orders held to 1e-13: high finite orders, whose steps round their
#: log2(1 + 2^-|d|) terms and later doubling steps amplify that.
STATE_HIGH_ORDERS = (100.5, 300.0, 512.0, 1000.0, 1001.0, 1e4, 1e5)


@pytest.mark.parametrize("erasure", [0.35, 0.45, 0.5])
def test_erasure_sweep_matches_60_digit_reference(erasure):
    from polarlens import bec_reference_profile

    sweep = level_profile_sweep(make_bec(erasure), 10, STATE_ORDERS + STATE_HIGH_ORDERS)
    k = len(STATE_ORDERS)
    for level in (1, 2, 3, 5, 7, 10):
        ref = bec_reference_profile(erasure, level, STATE_ORDERS + STATE_HIGH_ORDERS)
        dev = np.abs(sweep[level - 1].entries - ref)
        assert dev[:k].max() <= 1e-14, (level, dev[:k].max(axis=1))
        assert dev[k:].max() <= 1e-13, (level, dev[k:].max(axis=1))


@settings(derandomize=True, database=None, max_examples=25, deadline=None)
@given(erasure=st.floats(0.05, 0.95), alpha=st.floats(0.0, 100.0))
def test_erasure_sweep_reference_property(erasure, alpha):
    from polarlens import bec_reference_profile

    got = level_profile(make_bec(erasure), 8, [alpha]).entries
    assert np.max(np.abs(got - bec_reference_profile(erasure, 8, [alpha]))) <= 1e-14


@pytest.mark.parametrize("erasure", [0.35, 0.5])
def test_erasure_sweep_matches_atom_engine(erasure):
    # the atom engine run directly: materialized parents, then split children
    levels = _levels(make_bec(erasure), 5)
    sweep = level_profile_sweep(make_bec(erasure), 6, ORDERS)
    for level, profile in enumerate(sweep, 1):
        atoms = np.hstack([child_entropies(p, ORDERS) for p in levels[level - 1]])
        assert np.max(np.abs(profile.entries - atoms)) <= 1e-13, level


def test_erasure_type_roots_beyond_the_bec():
    # several clean and erased symbols of different masses: still two ratio
    # classes, so the state sweep runs; the atom engine and the oracle agree
    from polarlens import brute_force_profile

    root = make_from_atoms(
        [(0.2, 0.0, 1.0), (0.0, 0.15, 1.0), (0.1, 0.0, 2.0), (0.1, 0.1, 1.0), (0.125, 0.125, 1.0)]
    )
    sweep = level_profile_sweep(root, 5, ORDERS)
    levels = _levels(root, 4)
    for level, profile in enumerate(sweep, 1):
        atoms = np.hstack([child_entropies(p, ORDERS) for p in levels[level - 1]])
        assert np.max(np.abs(profile.entries - atoms)) <= 1e-13, level
    slow = brute_force_profile(root, 2, ORDERS)
    assert np.max(np.abs(sweep[1].entries - slow)) <= 1e-9


def test_erasure_state_path_is_taken_only_for_ratios_zero_and_one(monkeypatch):
    import polarlens.transform as transform

    calls = []
    real = transform._split

    def counted(view, *args, **kwargs):
        calls.append(_segments(view))
        return real(view, *args, **kwargs)

    monkeypatch.setattr(transform, "_split", counted)
    level_profile_sweep(make_bec(0.35), 4, ORDERS)
    level_profile_sweep(make_from_atoms([(0.5, 0.0), (0.125, 0.125, 2.0)]), 4, ORDERS)
    assert calls == []
    # a non-uniform prior moves the erased ratio off 1: ratio states again,
    # and only the stack of the two level-1 states is split, in one call
    level_profile_sweep(make_bec(0.35, prior0=0.3), 2, ORDERS)
    states = _segments(_level_states(make_bec(0.35, prior0=0.3), 1, ORDERS[1:]))
    assert len(calls) == 1 and len(calls[0]) == len(states) == 2
    assert all(np.array_equal(got, want) for got, want in zip(calls[0], states))


def test_sweep_splits_only_the_deepest_level(monkeypatch):
    import polarlens.transform as transform

    split = []
    real = transform._split

    def counted(view, *args, **kwargs):
        split.append(_segments(view))
        return real(view, *args, **kwargs)

    monkeypatch.setattr(transform, "_split", counted)
    level_profile_sweep(make_bsc(0.2), 5, ORDERS)
    # one call, which receives the stack of the 16 level-4 states and no other
    states = _segments(_level_states(make_bsc(0.2), 4, ORDERS[1:]))
    assert len(split) == 1 and len(split[0]) == len(states) == 16
    assert all(np.array_equal(got, want) for got, want in zip(split[0], states))


@pytest.mark.parametrize("erasure", [0.0, 1.0])
def test_erasure_roots_with_one_ratio_class_are_exact(erasure):
    import warnings

    orders = ORDERS + (0.999999, 1.000001, 1e4, 1e300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sweep = level_profile_sweep(make_bec(erasure), 10, orders)
    for profile in sweep:
        assert np.all(profile.entries == erasure)
        assert not np.any(np.signbit(profile.entries))  # no -0.0 in the output


def test_erasure_near_order_one_stays_in_range():
    # the atom engine's ratio form left [0, 1] by 2.2e-8 here
    from polarlens import bec_reference_profile

    orders = (0.999999, 1.000001)
    entries = level_profile(make_bec(0.35), 7, orders).entries
    assert ((entries >= 0.0) & (entries <= 1.0)).all()
    assert np.max(np.abs(entries - bec_reference_profile(0.35, 7, orders))) <= 1e-14


def test_pruned_grid_on_deep_erasure_parents():
    # the state sweep takes BEC roots away from child_entropies; this keeps
    # the pruned log-domain grid covered on the parents whose pair sums fall
    # far below the float range
    orders = (300.0, 512.0)
    parents = _levels(make_bec(0.5), 5)[5]
    split = np.hstack([child_entropies(p, orders) for p in parents])
    assert ((split >= 0.0) & (split <= 1.0)).all()
    state = level_profile(make_bec(0.5), 6, orders).entries
    assert np.max(np.abs(split - state)) <= 1e-12


def test_erasure_sweep_refuses_an_output_over_budget(monkeypatch):
    import polarlens.transform as transform

    def no_work(*args, **kwargs):
        raise AssertionError("no state may be computed before the budget check")

    monkeypatch.setattr(transform, "_erasure_start", no_work)
    monkeypatch.setattr(transform, "_erasure_children", no_work)
    # three orders: levels 1 to 3 hold 3 * (2 + 4 + 8) = 42 entries
    with pytest.raises(CapacityError) as err:
        level_profile_sweep(make_bec(0.35), 4, (0.5, 2.0, math.inf), atom_cap=42)
    assert str(err.value) == (
        "level 4: profiles through level 4 hold 90 entries over 3 orders "
        "(cap 42); raise atom_cap to allow it"
    )
    with pytest.raises(CapacityError, match="^level 3: "):
        level_profile_sweep(make_bec(0.35), 30, (0.5, 2.0, math.inf), atom_cap=41)
    monkeypatch.undo()
    assert len(level_profile_sweep(make_bec(0.35), 3, (0.5, 2.0, math.inf), atom_cap=42)) == 3


#: One order of every branch of the erasure state, and both sides of each cut.
STACK_ORDERS = (0.0, 0.001, 0.5, 0.999999, 1.0, 1.000001, 2.0, 100.0, 1000.5, 1e300, math.inf)

ERASURE_ROOTS = {
    "bec0.05": make_bec(0.05),
    "bec0.35": make_bec(0.35),
    "bec0.5": make_bec(0.5),
    "bec0": make_bec(0.0),
    "bec1": make_bec(1.0),
    "beyond": make_from_atoms(
        [(0.2, 0.0, 1.0), (0.0, 0.15, 1.0), (0.1, 0.0, 2.0), (0.1, 0.1, 1.0), (0.125, 0.125, 1.0)]
    ),
}


def _same_bytes(a, b) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name", list(ERASURE_ROOTS))
def test_stacked_erasure_sweep_is_each_order_alone(name):
    root = ERASURE_ROOTS[name]
    sweep = level_profile_sweep(root, 8, STACK_ORDERS)
    for k, order in enumerate(STACK_ORDERS):
        alone = level_profile_sweep(root, 8, [order])
        for profile, own in zip(sweep, alone):
            assert _same_bytes(profile.entries[k], own.entries[0]), (order, profile.level)


@pytest.mark.parametrize("seed", [None, 1, 2, 3])
def test_stacked_zero_order_is_each_root_alone(seed):
    # order 0 of a non-erasure root, twice in one stack beside ratio orders,
    # and one step of it in child_entropies
    from polarlens.distributions import canonicalize_orientation

    if seed is None:
        root, depth = make_bsc(0.2), 5
    else:  # the ratio orders of a random root reach level 3 in the atom cap
        root, depth = random_joint(np.random.default_rng(seed), 2, 5), 3
    sweep = level_profile_sweep(root, depth, (0.0, 0.5, 0.0, math.inf))
    alone = level_profile_sweep(root, depth, [0.0])
    for profile, own in zip(sweep, alone):
        assert _same_bytes(profile.entries[0], own.entries[0])
        assert _same_bytes(profile.entries[2], own.entries[0])
    parent = canonicalize_orientation(root)
    both = child_entropies(parent, (0.0, 2.0, 0.0))
    assert _same_bytes(both[[0, 2]], np.vstack([child_entropies(parent, [0.0])] * 2))


def test_erasure_blocks_do_not_change_bytes(monkeypatch):
    # blocks of three orders each against the one block of the default budget
    import polarlens.transform as transform

    root = ERASURE_ROOTS["beyond"]
    calls = []
    real = transform._erasure_sweep

    def counted(root, orders, *args):
        calls.append(len(orders))
        return real(root, orders, *args)

    monkeypatch.setattr(transform, "_erasure_sweep", counted)
    want = level_profile_sweep(root, 8, STACK_ORDERS)
    assert calls == [len(STACK_ORDERS)]
    monkeypatch.setattr(transform, "_PAIR_CHUNK", 4 * 3 * 256)
    got = level_profile_sweep(root, 8, STACK_ORDERS)
    assert calls[1:] == [3, 3, 3, 2]
    assert all(_same_bytes(a.entries, b.entries) for a, b in zip(got, want))


def _count_erasure_calls(monkeypatch):
    """Record the (rows, columns) of the states each erasure step and evaluation receives."""
    import polarlens.transform as transform

    calls = {"_erasure_children": [], "_erasure_entropy": []}
    for name, seen in calls.items():
        real = getattr(transform, name)

        def call(branch, cols, whole, *frac, real=real, seen=seen):
            seen.append(whole.shape)
            return real(branch, cols, whole, *frac)

        monkeypatch.setattr(transform, name, call)
    return calls


@pytest.mark.parametrize(
    "orders, branches",
    [((0.0, 2.0, 3.0, 10.0, 100.0, math.inf), 2), ((0.5, 1.0, 2.0, 1e4, math.inf), 4)],
)
def test_erasure_sweep_steps_each_branch_once_per_level(orders, branches, monkeypatch):
    # a structural guard in place of a timing test: one step and one
    # evaluation per level and branch, whatever the number of orders
    calls = _count_erasure_calls(monkeypatch)
    level_profile_sweep(make_bec(0.35), 7, orders)
    assert [len(seen) for seen in calls.values()] == [7 * branches, 7 * branches]
    assert sum(rows for rows, _ in calls["_erasure_entropy"]) == 7 * len(orders)


def test_erasure_stacks_stay_within_a_block(monkeypatch):
    # no call receives more than _PAIR_CHUNK / 4 entries, unless one
    # order's level alone is larger: then that order runs alone
    import polarlens.transform as transform
    from polarlens import EXTENDED_ORDER_GRID

    limit = transform._PAIR_CHUNK // 4
    calls = _count_erasure_calls(monkeypatch)
    for level in (12, 14, 17):
        level_profile_sweep(make_bec(0.35), level, EXTENDED_ORDER_GRID)
    shapes = calls["_erasure_children"] + calls["_erasure_entropy"]
    assert all(rows * cols <= limit or rows == 1 for rows, cols in shapes)
    assert max(rows for rows, _ in shapes) == 6  # orders 0 to 100 stack at n = 12
    assert (1, 1 << 17) in calls["_erasure_entropy"]


def test_erasure_infinity_matches_60_digit_reference_at_depth():
    # the start's fraction as hi + lo: exact doublings keep order inf on the
    # reference, where one double for it is 3.3e-13 off at n = 16
    from polarlens import bec_reference_profile

    got = level_profile(make_bec(0.35), 16, [math.inf]).entries
    assert np.max(np.abs(got - bec_reference_profile(0.35, 16, [math.inf]))) <= 1e-15


# ---------------------------------------------------------------------------
# Order 0 of every root: the erasure state of its weighted counts.
# ---------------------------------------------------------------------------


def _zero_roots():
    """Roots with clean and two-sided outputs, and one with no clean output."""
    from pathlib import Path

    from polarlens import load_file

    return {
        "bec0.35-prior0.3": make_bec(0.35, prior0=0.3),
        "four-atoms": load_file(str(Path(__file__).parent / "data" / "four-atoms.json")),
        "mixed": make_from_atoms(
            [(0.3, 0.0, 1.0), (0.0, 0.2, 1.0), (0.1, 0.05, 2.0), (0.15, 0.05, 1.0)]
        ),
    }


def _zero_order_reference(root, level):
    """Order-0 entries at ``level`` from the root's exact weighted counts.

    B counts the outputs with both entries positive and Z those with one.
    A minus child has (B, Z) -> (2BZ + B^2, Z^2), a plus child
    (2B^2, Z^2 + 4BZ), and H_0 = log2((Z + 2B) / (Z + B)).  Fractions
    carry the counts, so only the logarithm rounds, at 40 digits.
    """
    from fractions import Fraction

    import mpmath

    b = z = Fraction(0)
    for p0, p1, w in zip(root.p0.tolist(), root.p1.tolist(), root.weight.tolist()):
        if p0 > 0.0 and p1 > 0.0:
            b += Fraction(w)
        else:
            z += Fraction(w)
    states = [(b, z)]
    for _ in range(level):
        states = [
            child
            for b, z in states
            for child in ((2 * b * z + b * b, z * z), (2 * b * b, z * z + 4 * b * z))
        ]
    out = []
    with mpmath.workdps(40):
        for b, z in states:
            r = Fraction(z + 2 * b) / (z + b)
            out.append(float(mpmath.log(mpmath.mpf(r.numerator) / r.denominator, 2)))
    return np.array(out)


@pytest.mark.parametrize("name", ["bec0.35-prior0.3", "four-atoms", "mixed"])
def test_zero_order_matches_exact_counts(name):
    root = _zero_roots()[name]
    sweep = level_profile_sweep(root, 10, [0])
    for profile in sweep:
        ref = _zero_order_reference(root, profile.level)
        assert np.max(np.abs(profile.entries[0] - ref)) <= 1e-15, profile.level
    if name == "four-atoms":  # no clean output: full support everywhere
        assert all(np.all(p.entries == 1.0) for p in sweep)


# four-atoms.json has mass 1 + 4e-10, which the oracle checks against the
# root's own mass; its level 3 fills the oracle's whole state cap
@pytest.mark.parametrize(
    "name, depth", [("bec0.35-prior0.3", 3), ("four-atoms", 2), ("mixed", 3)]
)
def test_zero_order_matches_brute_force(name, depth):
    from polarlens import brute_force_profile

    root = _zero_roots()[name]
    sweep = level_profile_sweep(root, depth, [0])
    for level in range(1, depth + 1):
        slow = brute_force_profile(root, level, [0])
        assert np.max(np.abs(sweep[level - 1].entries - slow)) <= 1e-9, level


# level 4 of the four-atom roots exceeds the default atom cap
@pytest.mark.parametrize("name, depth", [("bec0.35-prior0.3", 5), ("four-atoms", 4), ("mixed", 4)])
def test_zero_order_split_column_matches_sweep(name, depth):
    # one step of the state maps from each materialized parent's own counts
    root = _zero_roots()[name]
    levels = _levels(root, depth - 1)
    sweep = level_profile_sweep(root, depth, [0])
    for level, profile in enumerate(sweep, 1):
        split = np.hstack([child_entropies(p, [0]) for p in levels[level - 1]])
        assert np.max(np.abs(profile.entries - split)) <= 1e-15, level


@pytest.mark.parametrize(
    "root", [make_bsc(0.2), make_bec(0.35, prior0=0.3)], ids=["bsc", "bec-prior"]
)
def test_zero_only_sweep_needs_no_atoms(root, monkeypatch):
    import polarlens.transform as transform

    def no_atoms(*args, **kwargs):
        raise AssertionError("order 0 alone must not build or split atoms or ratio states")

    monkeypatch.setattr(transform, "transform_pair", no_atoms)
    monkeypatch.setattr(transform, "child_entropies", no_atoms)
    monkeypatch.setattr(transform._RatioView, "from_atoms", no_atoms)
    monkeypatch.setattr(transform, "_split", no_atoms)
    sweep = level_profile_sweep(root, 20, [0])
    assert len(sweep) == 20 and sweep[-1].entries.shape == (1, 1 << 20)
    for profile in sweep:
        assert abs(profile.average(0) - profile.root_entropy[0]) <= 1e-12, profile.level
    if root.p1.min() > 0.0:  # the BSC: full support everywhere
        assert all(np.all(p.entries == 1.0) for p in sweep)


def test_mixed_call_refusal_says_order_zero_runs_alone():
    # the 26th level-5 state of BSC(0.2) has 31 points; the three orders'
    # entries through level 7 (762) fit the cap
    cap = 1000
    with pytest.raises(CapacityError) as plain:
        level_profile_sweep(make_bsc(0.2), 7, [0.5, math.inf], atom_cap=cap)
    assert str(plain.value) == (
        "level 6 cannot be built: parent 26 of 32 would create 1488 raw points "
        "(cap 1000); raise atom_cap to allow it"
    )
    with pytest.raises(CapacityError) as mixed:
        level_profile_sweep(make_bsc(0.2), 7, [0.5, 0, math.inf], atom_cap=cap)
    assert str(mixed.value) == str(plain.value) + "; order 0 alone runs without ratio states"
    alone = level_profile_sweep(make_bsc(0.2), 7, [0], atom_cap=cap)
    assert np.all(alone[-1].entries == 1.0)


# ---------------------------------------------------------------------------
# Ratio states: every other order of every other root, with no child atoms.
# ---------------------------------------------------------------------------


def test_ratio_state_sweep_builds_no_atoms(monkeypatch):
    import polarlens.transform as transform
    from polarlens import EXTENDED_ORDER_GRID

    def no_atoms(*args, **kwargs):
        raise AssertionError("a sweep must not build or merge atoms")

    want = level_profile_sweep(make_bsc(0.2), 5, EXTENDED_ORDER_GRID)
    monkeypatch.setattr(transform, "transform_pair", no_atoms)
    monkeypatch.setattr(transform, "canonicalize_orientation", no_atoms)
    got = level_profile_sweep(make_bsc(0.2), 5, EXTENDED_ORDER_GRID)
    assert all(np.array_equal(g.entries, w.entries) for g, w in zip(got, want))


def test_one_order_sweep_rows_are_the_grid_rows():
    # the states share one argsort per child, and every row merges alone
    from polarlens import EXTENDED_ORDER_GRID

    grid = level_profile_sweep(make_bsc(0.2), 6, EXTENDED_ORDER_GRID + (40.5,))
    for k, a in enumerate(EXTENDED_ORDER_GRID + (40.5,)):
        alone = level_profile_sweep(make_bsc(0.2), 6, [a])
        for g, one in zip(grid, alone):
            assert np.array_equal(one.entries[0], g.entries[k]), (g.level, a)


@settings(derandomize=True, database=None, max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    symbols=st.integers(2, 8),
    depth=st.integers(1, 3),
    alpha=st.sampled_from([1e-3, 0.3, 0.999999, 1.5, 4.5, 37.5, 300.5]),
)
def test_ratio_states_match_materialized_atoms(seed, symbols, depth, alpha):
    # level 3 of a root with more than three atoms holds millions of atoms
    from polarlens import EXTENDED_ORDER_GRID, as_order, conditional_entropies_many
    from polarlens.distributions import canonicalize_orientation
    from polarlens.transform import _RatioView

    root = random_joint(np.random.default_rng(seed), symbols, symbols)
    depth = min(depth, 3 if root.n_atoms <= 3 else 2)
    orders = EXTENDED_ORDER_GRID + (alpha,)
    sweep = level_profile_sweep(root, depth, orders)
    levels = _levels(root, depth)
    view = _RatioView.from_atoms(levels[0][0], [as_order(a) for a in orders[1:]])
    for level in range(1, depth + 1):
        want = conditional_entropies_many(levels[level], orders).T
        assert np.max(np.abs(sweep[level - 1].entries - want)) <= 1e-13, level
        view = view.children()
        assert view.starts.size == 1 << level
        for v in _one_each(view):
            assert v.ratios.min() >= 0.0 and v.ratios.max() <= 1.0
            assert np.all(np.diff(v.ratios) > 0.0)
            assert np.all(v.rows.max(axis=1) == 0.0)


def test_state_entropies_match_the_atoms():
    # the evaluator of every level above a sweep's deepest, order inf included
    from polarlens import as_order, conditional_entropies
    from polarlens.distributions import canonicalize_orientation
    from polarlens.transform import _RatioView

    orders = [as_order(a) for a in (0.1, 0.5, 1.0, 2.0, 10.0, 40.5, 100.0, 300.5, 1e5, math.inf)]
    rng = np.random.default_rng(281)
    for _ in range(300):
        n = int(rng.integers(1, 9))
        p = rng.exponential(size=(n, 2))
        p[rng.random(n) < 0.3, 1] = 0.0  # ratio-0 atoms
        w = rng.integers(1, 4, size=n).astype(float)
        p /= np.sum(w[:, None] * p)
        d = make_from_atoms(np.column_stack([p, w]))
        (got,) = _RatioView.from_atoms(canonicalize_orientation(d), orders).entropies()
        assert np.max(np.abs(got - conditional_entropies(d, orders))) <= 1e-15


@pytest.mark.parametrize("cap", [float("nan"), None, 0, -5, 2.5, 1e9])
def test_atom_cap_must_be_a_positive_integer(cap):
    from polarlens.distributions import canonicalize_orientation

    parent = canonicalize_orientation(make_bsc(0.2))
    calls = [
        lambda: transform_pair(parent, atom_cap=cap),
        lambda: child_entropies(parent, [1.0], atom_cap=cap),
        lambda: level_profile_sweep(make_bsc(0.2), 2, [1.0], atom_cap=cap),
        lambda: level_profile_sweep(make_bec(0.35), 2, [1.0], atom_cap=cap),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=f"atom_cap must be an integer >= 1, got {cap!r}"):
            call()


@pytest.mark.parametrize("level", [2.5, "3", True, 0, -1])
def test_max_level_must_be_a_positive_integer(level):
    # 2.5 and "3" raised a raw TypeError, and True ran as level 1
    for call in (level_profile_sweep, level_profile):
        for root in (make_bsc(0.2), make_bec(0.35)):
            with pytest.raises(ValueError, match=f"^max_level must be an integer >= 1, got {re.escape(repr(level))}$"):
                call(root, level, [1.0])


def test_ratio_state_blocks_do_not_change_bytes(monkeypatch):
    import polarlens.transform as transform
    from polarlens import as_order

    def states(chunk):
        monkeypatch.setattr(transform, "_PAIR_CHUNK", chunk)
        view = transform._RatioView.from_atoms(_levels(make_bsc(0.2), 0)[0][0], orders)
        for _ in range(6):
            view = view.children()
        return view

    orders = [as_order(a) for a in ORDERS[1:]]
    # a part of at most 16 raw-row elements: every state of a point or more steps alone
    got, want = states(64), states(1 << 30)
    for x in ("ratios", "rows", "starts"):
        assert np.array_equal(getattr(got, x), getattr(want, x))


def _stack_roots():
    """(root, deepest level) of the stacked-state checks: named roots, then 20 random ones."""
    from pathlib import Path

    from polarlens import load_file

    rng = np.random.default_rng(307)
    named = [
        (make_bsc(0.2), 6),
        (make_bec(0.35, prior0=0.3), 4),
        (load_file(str(Path(__file__).parent / "data" / "four-atoms.json")), 3),
    ]
    # level 3 of a random root of more than three atoms holds a million points
    randoms = [random_joint(rng, 2, 6) for _ in range(20)]
    return named + [(d, 3 if d.n_atoms <= 3 else 2) for d in randoms]


def test_stacked_step_is_the_step_of_each_state_alone():
    # every child of a level stepped as one stack is bitwise the child of
    # its parent stepped as a stack of one, and its entropies are too
    from polarlens.transform import _RatioView

    for root, deepest in _stack_roots():
        view = _level_states(root, 0, ORDERS[1:])
        for _ in range(deepest):
            stepped = view.children()
            alone = _RatioView.stacked([one.children() for one in _one_each(view)])
            for x in ("ratios", "rows", "starts"):
                assert np.array_equal(getattr(stepped, x), getattr(alone, x)), x
            h = stepped.entropies()
            assert h.shape == (stepped.starts.size, len(ORDERS) - 1)
            assert np.array_equal(h, np.vstack([one.entropies() for one in _one_each(stepped)]))
            view = stepped


def test_stacked_parts_do_not_change_bytes(monkeypatch):
    # parts of a few parents each, and one parent larger than a part
    import polarlens.transform as transform

    view = _level_states(make_bsc(0.2), 4, ORDERS[1:])
    cost = 3 * view.sizes * (view.sizes + 1) // 2 * len(view.orders)
    whole = view.children()
    want = whole.entropies()
    assert len(view.parts(cost)) == 1 and len(whole.parts(whole.sizes * len(whole.orders))) == 1
    # parts of at most 1,000 row elements
    monkeypatch.setattr(transform, "_PAIR_CHUNK", 4 * 1000)
    sizes = [p.starts.size for p in view.parts(cost)]
    first = np.cumsum([0] + sizes[:-1])  # the first parent of each part
    assert max(sizes) > 1 and any(n == 1 and cost[f] > 1000 for n, f in zip(sizes, first))
    stepped = view.children()
    for x in ("ratios", "rows", "starts"):
        assert np.array_equal(getattr(stepped, x), getattr(whole, x)), x
    assert len(stepped.parts(stepped.sizes * len(stepped.orders))) > 1
    assert np.array_equal(stepped.entropies(), want)


def test_split_refusal_names_the_first_parent_over_budget():
    # the level's plan refuses before any kernel runs, naming the first
    # parent over budget (28 and 30 are over too) and its first order
    from polarlens.transform import _plan

    view = _level_states(make_bsc(0.2), 5, (2.0, 0.5))
    assert view.proxy_counts[[25, 26, 27, 29]].tolist() == [31, 78, 71, 100]
    with pytest.raises(CapacityError) as err:
        _plan(view, 100, "level 6")
    assert str(err.value) == (
        "level 6: parent 27 of 32: order 2: pair grid over 78 points exceeds work budget 100 * 100"
    )


def test_sweep_works_level_by_level(monkeypatch):
    # a structural guard in place of a timing test: one step and one
    # evaluation per level, one split for the deepest
    import polarlens.transform as transform

    calls = {"children": 0, "entropies": 0, "_split": 0}

    def counted(owner, name):
        real = getattr(owner, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, call)

    counted(transform._RatioView, "children")
    counted(transform._RatioView, "entropies")
    counted(transform, "_split")
    level_profile_sweep(make_bsc(0.2), 5, ORDERS)
    assert calls == {"children": 4, "entropies": 5, "_split": 1}
