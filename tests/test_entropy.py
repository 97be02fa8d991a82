"""Order handling, power-sum kernel, and the conditional entropy branches."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarlens import (
    DistributionError,
    JointDistribution,
    MAX_FINITE_ORDER,
    ORDER_INF,
    ORDER_ONE,
    ORDER_ZERO,
    Order,
    as_order,
    chain_rule_entropies,
    chain_rule_entropies_many,
    chain_rule_residual,
    conditional_entropies,
    conditional_entropies_many,
    conditional_renyi,
    joint_renyi,
    log2_power_sum,
    make_bec,
    make_bsc,
    make_from_atoms,
    output_renyi,
    random_joint,
    renyi_entropies,
    renyi_entropy,
    snap_to_unit,
)
from polarlens.entropy import log2_sum_exp2, segment_sums

# BSC(0.2), uniform prior: frozen against independent high-precision runs
BSC02 = {
    0.0: 1.0,
    0.5: 0.84799690655495,
    1.0: 0.7219280948873621,
    2.0: 0.556393348524385,
    100.0: 0.3251798938256185,
    math.inf: 0.3219280948873622,
}


def test_as_order_parsing():
    assert as_order(2.0) == Order("finite", 2.0)
    assert as_order("inf") == ORDER_INF
    assert as_order("infinity") == ORDER_INF
    assert as_order("oo") == ORDER_INF
    assert as_order(math.inf) == ORDER_INF
    assert as_order(0) == ORDER_ZERO
    assert as_order(1.0) == ORDER_ONE
    assert as_order(1.0 + 1e-12) == ORDER_ONE  # inside the alpha=1 band
    assert as_order(ORDER_ONE) is ORDER_ONE
    assert as_order(MAX_FINITE_ORDER) == Order("finite", 1e300)


@pytest.mark.parametrize("bad", [-1.0, -0.001, math.nan, "junk", 1e301, "1e308"])
def test_as_order_rejects(bad):
    with pytest.raises(ValueError):
        as_order(bad)


@pytest.mark.parametrize("flag", [True, False, np.True_, np.False_])
def test_as_order_refuses_booleans(flag):
    # True and False are not orders 1 and 0: a profile asked for [True]
    # must not return its Shannon entries
    from polarlens import level_profile, make_bsc

    with pytest.raises(ValueError, match="bool"):
        as_order(flag)
    with pytest.raises(ValueError, match="bool"):
        level_profile(make_bsc(0.2), 2, [flag])


def test_order_str():
    assert str(as_order(0.5)) == "0.5"
    assert str(ORDER_ONE) == "1"
    assert str(ORDER_INF) == "inf"
    assert str(as_order(100)) == "100"


@pytest.mark.parametrize("alpha", [1.000000002, 0.123456789, 0.5488135039273248])
def test_order_str_round_trips(alpha):
    assert float(str(as_order(alpha))) == alpha


def test_log2_power_sum_singleton_exact():
    # one surviving term: bitwise a*log2(v) + log2(w), no shift round-trip
    v = np.array([0.3])
    w = np.array([2.0])
    got = log2_power_sum(v, 2.5, w)
    assert got == 2.5 * math.log2(0.3) + math.log2(2.0)
    # zeros drop out, so a lone positive entry is still a singleton
    got = log2_power_sum(np.array([0.0, 0.3]), 2.5, np.array([5.0, 2.0]))
    assert got == 2.5 * math.log2(0.3) + math.log2(2.0)


def test_log2_power_sum_empty_is_minus_inf():
    assert log2_power_sum(np.array([]), 2.0, np.array([])) == -math.inf


def test_log2_sum_exp2_rows_are_their_one_row_calls():
    # finite rows, an all -inf row, rows of one entry and rows of none all
    # run the one shifted path; each row is bitwise its 1-D call
    rng = np.random.default_rng(7)
    stack = rng.uniform(-60.0, 5.0, size=(5, 11))
    stack[1] = -math.inf
    stack[3, ::2] = -math.inf
    for terms in (stack, stack[:, :1], stack[:, :0], np.empty((2, 0))):
        got = log2_sum_exp2(terms)
        assert got.shape == terms.shape[:-1]
        for row, value in zip(terms, got.tolist()):
            one = log2_sum_exp2(row)
            assert type(one) is float and _same_bits(one, value)
            if not np.isfinite(row).any():
                assert one == -math.inf
    assert log2_sum_exp2(stack[0, :1]) == stack[0, 0]
    assert log2_sum_exp2(np.array([3.0, 3.0])) == 4.0


def test_segments_are_their_own_calls():
    # segments of 1 to 300 entries (pairwise sums change shape at 8 and
    # 128), an all -inf segment among them: each sum is bitwise np.sum of
    # its segment, and each log-sum-exp bitwise its 1-D call
    rng = np.random.default_rng(11)
    sizes = np.array([1, 2, 7, 8, 9, 127, 128, 129, 300, 5, 1])
    starts = np.cumsum(sizes) - sizes
    terms = rng.uniform(-60.0, 5.0, size=(3, sizes.sum()))
    terms[1, starts[4] : starts[5]] = -math.inf
    sums, logs = segment_sums(np.exp2(terms), starts), log2_sum_exp2(terms, starts)
    assert sums.shape == logs.shape == (3, sizes.size)
    for k, row in enumerate(terms):
        for i, seg in enumerate(np.split(row, starts[1:])):
            assert _same_bits(float(np.sum(np.exp2(seg))), float(sums[k, i]))
            assert _same_bits(log2_sum_exp2(seg), float(logs[k, i]))


def test_log2_power_sum_matches_direct():
    rng = np.random.default_rng(3)
    for _ in range(50):
        v = rng.uniform(0.01, 1.0, size=rng.integers(1, 12))
        w = rng.uniform(0.5, 3.0, size=v.size)
        a = float(rng.uniform(0.05, 8.0))
        direct = math.log2(float(np.sum(w * v**a)))
        assert log2_power_sum(v, a, w) == pytest.approx(direct, abs=1e-12)


def test_renyi_entropy_uniform_and_deterministic():
    for a in (0.0, 0.5, 1.0, 2.0, 17.0, math.inf):
        assert renyi_entropy(np.full(8, 0.125), a) == pytest.approx(3.0, abs=1e-12)
        assert renyi_entropy(np.array([1.0]), a) == pytest.approx(0.0, abs=1e-15)


def test_renyi_entropy_mass_check():
    with pytest.raises(ValueError):
        renyi_entropy(np.array([0.3, 0.3]), 2.0)
    # a negative entry with a mass of 1; a NaN or infinite entry, whose mass
    # is NaN or infinite
    for probs, weights in (
        ([1.5, -0.5], None),
        ([math.nan, 1.0], None),
        ([1.0, math.inf], None),
        ([0.5, 0.5], [3.0, -1.0]),
        ([1.0, 0.0], [1.0, math.nan]),
    ):
        with pytest.raises(DistributionError):
            renyi_entropy(probs, 2.0, weights)


@pytest.mark.parametrize(
    "probs,weights",
    [([0.5, 0.5], [1.0]), ([0.5, 0.5], [1.0, 1.0, 1.0]), ([0.5, 0.5], [[1.0, 1.0]])],
    ids=["fewer-weights", "more-weights", "other-shape"],
)
def test_renyi_entropy_refuses_mismatched_weights(probs, weights):
    # a short weight vector used to raise IndexError, a long one a broadcast ValueError
    for orders in ([1, 2], [1], [0, 0.5, math.inf]):
        with pytest.raises(DistributionError, match="weights of shape"):
            renyi_entropies(probs, orders, weights)
    # a law built around the validating constructors, with one weight too many
    law = JointDistribution(np.array([0.5]), np.array([0.5]), np.array([1.0, 1.0]))
    for entropy in (joint_renyi, output_renyi):
        with pytest.raises(DistributionError, match="weights of shape"):
            entropy(law, 2.0)


def test_bsc_conditional_frozen_values():
    d = make_bsc(0.2)
    for a, want in BSC02.items():
        assert conditional_renyi(d, a) == pytest.approx(want, abs=1e-12)


def test_bsc_half_is_pure_noise():
    d = make_bsc(0.5)
    for a in BSC02:
        assert conditional_renyi(d, a) == pytest.approx(1.0, abs=1e-12)


def test_bec_conditional_values():
    # Shannon conditional of a BEC is the erasure rate; other orders are
    # ratio-of-power-sums values, checked against direct arithmetic
    e = 0.35
    d = make_bec(e)
    assert conditional_renyi(d, 1.0) == pytest.approx(e, abs=1e-12)
    for a in (0.1, 0.5, 2.0, 10.0):
        num = 2 * (0.325**a) + 2 * (0.175**a)
        den = 2 * (0.325**a) + 0.35**a
        want = math.log2(num / den) / (1.0 - a)
        assert conditional_renyi(d, a) == pytest.approx(want, abs=1e-12)


def test_output_and_joint_consistency():
    d = make_bsc(0.2)
    assert output_renyi(d, 2.0) == pytest.approx(1.0, abs=1e-12)
    assert joint_renyi(d, 2.0) == pytest.approx(
        conditional_renyi(d, 2.0) + 1.0, abs=1e-12
    )


def test_zero_order_counts_support():
    d = make_from_atoms([(0.5, 0.25, 1.0), (0.25, 0.0, 1.0)])
    # joint support 3, output support 2
    assert conditional_renyi(d, 0.0) == pytest.approx(math.log2(3 / 2), abs=1e-15)


def test_zero_order_support_eps():
    d = make_from_atoms([(0.5, 0.25, 1.0), (0.25, 1e-12, 1.0)], normalization_tol=None)
    assert conditional_renyi(d, 0.0) == pytest.approx(1.0, abs=1e-15)


def test_infinity_order_closed_form():
    d = make_bsc(0.2)
    # -log2 max joint + log2 max output = log2(0.5/0.4)
    assert conditional_renyi(d, math.inf) == pytest.approx(
        math.log2(1.25), abs=1e-15
    )


def test_continuity_at_one():
    rng = np.random.default_rng(17)
    for _ in range(20):
        d = random_joint(rng)
        h1 = conditional_renyi(d, 1.0)
        for a in (1.0 - 1e-4, 1.0 + 1e-4):
            assert conditional_renyi(d, a) == pytest.approx(h1, abs=1e-3)


def test_large_order_approaches_infinity_branch():
    rng = np.random.default_rng(29)
    for _ in range(20):
        d = random_joint(rng)
        hinf = conditional_renyi(d, math.inf)
        assert conditional_renyi(d, 1e4) == pytest.approx(hinf, abs=1e-2)


def test_conditional_bounds():
    rng = np.random.default_rng(41)
    for _ in range(60):
        d = random_joint(rng)
        for a in (0.0, 0.1, 0.5, 1.0, 2.0, 10.0, 100.0, math.inf):
            h = conditional_renyi(d, a)
            assert 0.0 <= h <= 1.0, (a, h)


def test_chain_rule_residual_vanishes():
    rng = np.random.default_rng(53)
    worst = 0.0
    for _ in range(60):
        d = random_joint(rng)
        for a in (0.0, 0.1, 0.5, 1.0, 2.0, 10.0, 100.0, math.inf):
            worst = max(worst, abs(chain_rule_residual(d, a)))
    assert worst <= 1e-10


def test_snap_to_unit():
    assert snap_to_unit(-5e-10) == 0.0
    assert snap_to_unit(1.0 + 5e-10) == 1.0
    assert snap_to_unit(0.5) == 0.5
    assert snap_to_unit(0.0) == 0.0
    assert snap_to_unit(1.0) == 1.0
    # beyond tolerance: left alone so real defects surface
    assert snap_to_unit(-2e-9) == -2e-9
    assert snap_to_unit(1.1) == 1.1
    # an array is snapped elementwise, by the same rule
    values = np.array([-5e-10, 1.0 + 5e-10, 0.5, 0.0, 1.0, -2e-9, 1.1])
    assert np.array_equal(snap_to_unit(values), [0.0, 1.0, 0.5, 0.0, 1.0, -2e-9, 1.1])
    # a 0-d array is a number
    for value, snapped in zip(values.tolist(), [0.0, 1.0, 0.5, 0.0, 1.0, -2e-9, 1.1]):
        got = snap_to_unit(np.array(value))
        assert type(got) is float and got == snapped


#: Orders of the stacked-evaluator checks: both closure points, both sides
#: of order 1, the posterior form's range and past it.
STACK_ORDERS = (0.0, 1e-3, 0.5, 0.999999, 1.0, 1.000001, 2.5, 6.0, 7.5, 300.5, 1e5, math.inf)


def _stack_law(rng, atoms, zeros):
    """A law of ``atoms`` atoms with non-unit weights; ``zeros`` zeroes some p0 or p1 entries."""
    raw = rng.exponential(size=(2, atoms))
    if zeros:
        raw[rng.random((2, atoms)) < 0.35] = 0.0
        raw[0, raw.sum(axis=0) == 0.0] = 1.0  # no atom loses all its mass
    w = rng.integers(1, 6, size=atoms) * rng.choice([1.0, 0.37])
    raw /= np.sum(w * raw.sum(axis=0))
    return make_from_atoms(np.column_stack([raw[0], raw[1], w]))


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def _assert_stacks_match_one_law_calls(laws):
    cond = conditional_entropies_many(laws, STACK_ORDERS)
    chain = chain_rule_entropies_many(laws, STACK_ORDERS)
    assert cond.shape == (len(laws), len(STACK_ORDERS))
    assert chain.shape == (len(laws), 4, len(STACK_ORDERS))
    for k, d in enumerate(laws):
        assert _same_bits(cond[k], conditional_entropies(d, STACK_ORDERS)), k
        assert _same_bits(chain[k], chain_rule_entropies(d, STACK_ORDERS)), k
        # the stacked Renyi rows: output marginal, and the joint law with its zeros
        joint = np.concatenate([d.p0, d.p1])
        assert _same_bits(chain[k, 1], renyi_entropies(d.symbol_mass, STACK_ORDERS, d.weight)), k
        assert _same_bits(chain[k, 2], renyi_entropies(joint, STACK_ORDERS, np.tile(d.weight, 2))), k


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 40), min_size=1, max_size=4).map(lambda s: [*s, 9 + s[0] % 32]),
    copies=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_evaluators_match_one_law_calls(sizes, copies, seed):
    # each size comes several times, with and without zero entries, so
    # buckets hold several laws, and one size of 9 atoms or more runs
    # numpy's unrolled pairwise sum; the laws are interleaved by size
    rng = np.random.default_rng(seed)
    laws = [_stack_law(rng, n, zeros=(c + n) % 2 == 0) for c in range(copies) for n in sizes]
    rng.shuffle(laws)
    _assert_stacks_match_one_law_calls(laws)


def test_stacked_bucket_spans_several_blocks():
    # 800 laws of 40 atoms at 12 orders are 384,000 elements per pass: two
    # blocks of the conditional stack, three of the chain stack
    from polarlens.entropy import STACK_BLOCK

    rng = np.random.default_rng(29)
    laws = [_stack_law(rng, 40, zeros=False) for _ in range(800)]
    assert STACK_BLOCK < 800 * len(STACK_ORDERS) * 40 <= 2 * STACK_BLOCK
    _assert_stacks_match_one_law_calls(laws)


def test_laws_of_equal_atom_count_share_one_stack(monkeypatch):
    # zero patterns differ from law to law, so the joint laws and output
    # marginals hold different numbers of positive entries
    from polarlens import entropy

    rng = np.random.default_rng(37)
    laws = [_stack_law(rng, 5, zeros=True) for _ in range(10)]
    assert len({np.count_nonzero(d.p0) + np.count_nonzero(d.p1) for d in laws}) > 1
    stacked, calls = entropy._stacked_chain, []

    def counted(*args):
        calls.append(len(args[0]))
        return stacked(*args)

    monkeypatch.setattr(entropy, "_stacked_chain", counted)
    chain = chain_rule_entropies_many(laws, STACK_ORDERS)
    assert calls == [10]
    monkeypatch.undo()
    for k, d in enumerate(laws):
        assert _same_bits(chain[k], chain_rule_entropies(d, STACK_ORDERS)), k


def test_stacked_results_come_back_in_input_order():
    rng = np.random.default_rng(31)
    laws = [_stack_law(rng, n, zeros=False) for n in (3, 12, 1, 3, 40, 12, 3, 9)]
    cond = conditional_entropies_many(laws, STACK_ORDERS)
    for k, d in enumerate(laws):
        assert _same_bits(cond[k], conditional_entropies(d, STACK_ORDERS)), k
    # a permuted input permutes the rows and nothing else
    perm = rng.permutation(len(laws))
    assert _same_bits(conditional_entropies_many([laws[k] for k in perm], STACK_ORDERS), cond[perm])
    assert conditional_entropies_many([], STACK_ORDERS).shape == (0, len(STACK_ORDERS))
    assert chain_rule_entropies_many([], STACK_ORDERS).shape == (0, 4, len(STACK_ORDERS))
