"""Enumeration oracle, high-precision evaluators, norm inequality checks."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from polarlens import (
    CapacityError,
    DistributionError,
    bec_reference_profile,
    brute_force_profile,
    conditional_renyi,
    generator_matrix,
    high_precision_conditional,
    level_profile,
    make_bec,
    make_bsc,
    make_from_atoms,
    minkowski_check,
    one_step_report,
    random_joint,
)
from polarlens.bruteforce import _logsumexp

ORDERS = (0.0, 0.1, 0.5, 1.0, 2.0, 10.0, 100.0, math.inf)


def test_generator_matrix_small():
    assert np.array_equal(generator_matrix(0), np.array([[1]]))
    assert np.array_equal(generator_matrix(1), np.array([[1, 0], [1, 1]]))
    g2 = generator_matrix(2)
    # bit-reversal reorders the kron rows: rows for inputs 1,2 swap
    f2 = np.kron([[1, 0], [1, 1]], [[1, 0], [1, 1]])
    assert np.array_equal(g2, f2[[0, 2, 1, 3]])


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_generator_matrix_self_inverse(n):
    g = generator_matrix(n)
    size = 1 << n
    assert np.array_equal(g.dot(g) % 2, np.eye(size, dtype=g.dtype))


def test_generator_matrix_level_bounds():
    with pytest.raises(ValueError):
        generator_matrix(5)
    with pytest.raises(ValueError):
        generator_matrix(-1)


@pytest.mark.parametrize("level", [True, False, 2.0, 1.5, "2", None])
def test_oracle_levels_must_be_integers(level):
    # no bool or non-integral level runs as a level or fails with a raw TypeError
    with pytest.raises(ValueError, match="level must be an integer"):
        generator_matrix(level)
    with pytest.raises(ValueError, match="level must be an integer"):
        brute_force_profile(make_bsc(0.2), level, [2.0])
    with pytest.raises(ValueError, match="level must be an integer"):
        bec_reference_profile(0.3, level, [2.0])


def _far_tail_terms(top_count):
    # over 1,000 terms 700 to 2,000 nats below the top, which the floor
    # raises to e^-700, next to -inf entries and top_count tied maxima
    rng = np.random.default_rng(193)
    tail = 4.5 - rng.uniform(700.0, 2000.0, size=1500)
    return np.concatenate([[4.5] * top_count, [-np.inf] * 20, tail, [3.25]])


def _accumulator_shaped_terms():
    # a * ln q + ln w over (classes, 2) joint columns with some empty cells
    rng = np.random.default_rng(181)
    q = rng.exponential(size=(40, 2))
    q[rng.random(size=q.shape) < 0.2] = 0.0
    with np.errstate(divide="ignore"):
        return 3.7 * np.log(q) + np.log(rng.integers(1, 9, size=40))[:, None]


@pytest.mark.parametrize(
    "terms",
    [
        [-7.3],
        [3.0, 3.0, 1.0, -2.5],
        [-np.inf, 0.5, -np.inf, -1.25],
        [2.0, 2.0, -np.inf],
        [10.0, -750.0, -1000.0, 8.5],
        [-1.0e3, -1.9e3, -1.0e3],
        _accumulator_shaped_terms(),
        _far_tail_terms(1),
        _far_tail_terms(3),
        _far_tail_terms(1)[:-1],
    ],
    ids=["single", "tied-max", "neg-inf", "tied-with-neg-inf", "underflow", "far-below-zero",
         "accumulator-2d", "far-tail", "far-tail-tied-max", "far-tail-only"],
)
def test_logsumexp_within_two_ulp_of_50_digits(terms):
    terms = np.asarray(terms, dtype=np.float64)
    with mpmath.workdps(50):
        want = float(mpmath.log(mpmath.fsum(mpmath.exp(mpmath.mpf(t)) for t in terms.ravel())))
    got = _logsumexp(terms)
    assert isinstance(got, float)
    assert abs(got - want) <= 2 * np.spacing(abs(want)), (got, want)


def test_brute_force_matches_one_step():
    d = make_bsc(0.2)
    prof = brute_force_profile(d, 1, orders=ORDERS)
    reps = one_step_report(d, orders=ORDERS)
    for row, r in enumerate(reps):
        assert prof[row, 0] == pytest.approx(r.minus, abs=1e-12)
        assert prof[row, 1] == pytest.approx(r.plus, abs=1e-12)


@pytest.mark.parametrize("level", [2, 3])
def test_brute_force_matches_split_engine_bsc(level):
    d = make_bsc(0.2)
    bf = brute_force_profile(d, level, orders=ORDERS)
    sp = level_profile(d, level, orders=ORDERS)
    assert np.max(np.abs(bf - sp.entries)) <= 1e-9


def test_brute_force_matches_split_engine_random():
    rng = np.random.default_rng(163)
    for _ in range(6):
        d = random_joint(rng, max_symbols=5)
        bf = brute_force_profile(d, 2, orders=ORDERS)
        sp = level_profile(d, 2, orders=ORDERS)
        assert np.max(np.abs(bf - sp.entries)) <= 1e-9


@pytest.mark.parametrize(
    "orders,level",
    [
        ((math.inf, 2.0, 0.0, 0.5, 1.0, 2.0, 100.0), 2),
        ((0.0, 1.0, math.inf), 2),
        ((3.7, 0.5, 300.5), 2),
        # 3**8 = 6,561 tuples in four chunks
        ((1.000001, math.inf, 0.0, 1.0, 0.999999, 10.0), 3),
    ],
    ids=["mixed-with-repeat", "limits-only", "finite-only", "multi-chunk"],
)
def test_brute_force_rows_match_one_order_calls(orders, level):
    # every order reads the chunk's shared prefix laws and logs; each row
    # must be bitwise what the order gets on its own
    d = random_joint(np.random.default_rng(191), min_symbols=3, max_symbols=3)
    rows = brute_force_profile(d, level, orders=orders)
    assert rows.shape == (len(orders), 2**level)
    for row, order in zip(rows, orders):
        alone = brute_force_profile(d, level, orders=(order,))[0]
        assert row.tobytes() == alone.tobytes(), order


def test_brute_force_state_cap():
    rng = np.random.default_rng(167)
    d = random_joint(rng, min_symbols=8, max_symbols=8)
    # 8^8 * 2^8 tuples is past the default cap
    with pytest.raises(CapacityError):
        brute_force_profile(d, 3, orders=(1.0,))


def test_brute_force_rejects_negative_level():
    with pytest.raises(ValueError, match="level"):
        brute_force_profile(make_bsc(0.2), -1, orders=(1.0,))


def test_brute_force_mass_guard():
    d = make_from_atoms([(0.25, 0.25, 1.0)], normalization_tol=None)
    with pytest.raises(DistributionError):
        brute_force_profile(d, 1, orders=(1.0,))


def test_brute_force_checks_mass_against_the_root():
    # four-atoms.json is admitted at mass 1 + 4e-10; its level-2 joint law
    # masses to that to the fourth power, 1.6e-9 off 1
    from pathlib import Path

    from polarlens import EXTENDED_ORDER_GRID, load_file

    root = load_file(str(Path(__file__).parent / "data" / "four-atoms.json"))
    assert abs(root.mass**4 - 1.0) > 1e-9
    slow = brute_force_profile(root, 2, EXTENDED_ORDER_GRID)
    fast = level_profile(root, 2, EXTENDED_ORDER_GRID)
    assert np.max(np.abs(fast.entries - slow)) <= 1e-9


#: The generator at level 2, written out: Kronecker square of [[1, 0], [1, 1]]
#: with its middle rows swapped (bit reversal).
_G2 = ((1, 0, 0, 0), (1, 0, 1, 0), (1, 1, 0, 0), (1, 1, 1, 1))

_REFERENCE_ORDERS = (0.0, 0.1, 0.5, 0.999999, 1.0, 1.000001, 1.2, 2.0, 10.0, 100.0, 300.5,
                     1000.0, math.inf)


def _level2_reference(root, orders):
    """Level-2 subchannel entropies from prefix laws enumerated at 40 digits.

    Subchannel i is H(Y, U^i) - H(Y, U^{i-1}), read off the laws of
    (Y, U_1..U_j) for j = 0..4 with the root's floats taken at face value.
    """
    with mpmath.workdps(40):
        atoms = [(mpmath.mpf(w), (mpmath.mpf(q0), mpmath.mpf(q1)))
                 for w, q0, q1 in zip(root.weight.tolist(), root.p0.tolist(),
                                      root.p1.tolist())]
        words = [tuple(u >> (3 - k) & 1 for k in range(4)) for u in range(16)]
        codewords = [tuple(sum(u[r] * _G2[r][c] for r in range(4)) % 2 for c in range(4))
                     for u in words]
        # laws[j] lists (w, v) over every output tuple and input prefix of length j
        laws = [[] for _ in range(5)]
        for ys in np.ndindex(*(root.n_atoms,) * 4):
            w = mpmath.fprod(atoms[y][0] for y in ys)
            joint = [mpmath.fprod(atoms[y][1][x] for y, x in zip(ys, xs)) for xs in codewords]
            for j in range(5):
                step = 1 << (4 - j)
                laws[j] += [(w, mpmath.fsum(joint[k : k + step])) for k in range(0, 16, step)]
        mass = mpmath.fsum(w * v for w, v in laws[0])
        out = np.empty((len(orders), 4))
        for row, a in enumerate(orders):
            # logs[j] in nats: subchannel i is (logs[i] - logs[i - 1]) / ln 2
            if a == 0.0:
                logs = [mpmath.log(mpmath.fsum(w for w, v in law if v > 0)) for law in laws]
            elif a == math.inf:
                logs = [-mpmath.log(max(v for _, v in law)) for law in laws]
            elif a == 1.0:
                logs = [-mpmath.fsum(w * v * mpmath.log(v) for w, v in law if v > 0) / mass
                        for law in laws]
            else:
                b = mpmath.mpf(a)
                logs = [mpmath.log(mpmath.fsum(w * v**b for w, v in law if v > 0)) / (1 - b)
                        for law in laws]
            out[row] = [float((logs[i + 1] - logs[i]) / mpmath.log(2)) for i in range(4)]
        return out


@pytest.mark.parametrize(
    "root",
    [random_joint(np.random.default_rng(191), 3, 3), make_bec(0.35, prior0=0.3)],
    ids=["random-3-atoms", "bec0.35-prior0.3"],
)
def test_brute_force_matches_40_digit_prefix_laws(root):
    ref = _level2_reference(root, _REFERENCE_ORDERS)
    got = brute_force_profile(root, 2, _REFERENCE_ORDERS)
    assert np.max(np.abs(got - ref)) <= 5e-15


def test_brute_force_memory_peak():
    # only one prefix level, and the eps terms of the level above it, are
    # alive at a time
    import tracemalloc

    from polarlens import EXTENDED_ORDER_GRID

    d = random_joint(np.random.default_rng(191), min_symbols=3, max_symbols=3)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        brute_force_profile(d, 3, EXTENDED_ORDER_GRID)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak < 24 * 2**20, peak / 2**20


def test_high_precision_agrees_with_float_engine():
    rng = np.random.default_rng(173)
    for _ in range(10):
        d = random_joint(rng)
        for a in (0.35, 2.0, 7.5):
            hp = high_precision_conditional(d, a)
            assert conditional_renyi(d, a) == pytest.approx(float(hp), abs=1e-12)


def test_rational_conditional_exact_on_dyadics():
    # dyadic masses make the power sums exact rationals
    d = make_from_atoms([(0.375, 0.125, 1.0), (0.125, 0.375, 1.0)])
    for a in (2, 3, 5):
        hr = high_precision_conditional(d, a)
        num = Fraction(2) * (Fraction(3, 8) ** a + Fraction(1, 8) ** a)
        den = Fraction(2) * Fraction(1, 2) ** a
        want = (num / den).numerator, (num / den).denominator
        direct = (math.log2(want[0]) - math.log2(want[1])) / (1 - a)
        assert float(hr) == pytest.approx(direct, abs=1e-12)
        assert conditional_renyi(d, float(a)) == pytest.approx(float(hr), abs=1e-12)


def test_high_precision_conditional_rejects_limit_orders():
    d = make_bsc(0.25)
    for order in (0, 1, 1.0 + 1e-10, math.inf, "inf"):
        with pytest.raises(ValueError, match="finite orders"):
            high_precision_conditional(d, order)


@pytest.mark.parametrize("erasure,level", [(0.35, 3), (0.1, 3), (0.5, 2), (0.8, 1)])
def test_bec_reference_matches_brute_force(erasure, level):
    # two independent routes to the same entries: enumeration of the
    # length-2^n code and the scalar erasure recursions at 60 digits
    orders = ORDERS + (3.0, 300.0)
    slow = brute_force_profile(make_bec(erasure), level, orders)
    ref = bec_reference_profile(erasure, level, orders)
    assert ref.shape == (len(orders), 2**level)
    assert np.max(np.abs(ref - slow)) <= 1e-13


@pytest.mark.parametrize("level", [0, 1, 2, 3])
def test_brute_force_near_order_one_matches_bec_reference(level):
    # the eps form; the log-sum-exp difference over 1 - alpha was 1.06e-9 off.
    # Its level differences are taken row by row: subtracting whole-level
    # totals was 1.2e-14 off at level 3 and order 1.2
    orders = (0.999999, 1.0, 1.000001, 1.2)
    slow = brute_force_profile(make_bec(0.35), level, orders)
    assert np.max(np.abs(slow - bec_reference_profile(0.35, level, orders))) <= 6e-15


def test_bec_reference_order_one_is_the_erasure_probability():
    # Arikan's z recursion at level 2: z- = 2z - z^2, z+ = z^2, each twice
    z = 0.35
    zm, zp = 2 * z - z * z, z * z
    want = [2 * zm - zm * zm, zm * zm, 2 * zp - zp * zp, zp * zp]
    assert bec_reference_profile(z, 2, [1.0])[0] == pytest.approx(want, abs=1e-15)


def test_bec_reference_levels_and_limits():
    assert np.array_equal(bec_reference_profile(0.0, 3, ORDERS), np.zeros((8, 8)))
    assert np.array_equal(bec_reference_profile(1.0, 3, ORDERS), np.ones((8, 8)))
    # level 0 is the root itself
    root = [conditional_renyi(make_bec(0.35), a) for a in ORDERS]
    assert bec_reference_profile(0.35, 0, ORDERS)[:, 0] == pytest.approx(root, abs=1e-15)
    with pytest.raises(ValueError):
        bec_reference_profile(0.35, -1, ORDERS)
    with pytest.raises(DistributionError):
        bec_reference_profile(1.5, 2, ORDERS)


def test_minkowski_directions():
    rng = np.random.default_rng(179)
    for _ in range(100):
        k = int(rng.integers(1, 7))
        x = rng.uniform(0.0, 2.0, size=k)
        y = rng.uniform(0.0, 2.0, size=k)
        p = float(rng.choice([0.3, 0.5, 0.9, 1.0, 1.5, 2.0, 3.0, 10.0]))
        rep = minkowski_check(x, y, p)
        assert rep.satisfied, (p, rep)
        if p >= 1.0:
            assert rep.lhs <= rep.rhs + 1e-12
        else:
            assert rep.lhs >= rep.rhs - 1e-12


def test_minkowski_rejects_nan_and_negative_inputs():
    for x, y, p in (
        ([math.nan, 1.0], [1.0, 1.0], 2.0),
        ([1.0, 1.0], [1.0, math.inf], 2.0),
        ([1.0, -1.0], [1.0, 1.0], 2.0),
        ([1.0, 1.0], [1.0, 1.0], math.nan),
        ([1.0, 1.0], [1.0, 1.0], 0.0),
    ):
        with pytest.raises(ValueError):
            minkowski_check(x, y, p)


def test_minkowski_equality_on_parallel_vectors():
    x = np.array([0.2, 0.5, 0.1])
    for lam in (0.25, 1.0, 3.0):
        rep = minkowski_check(x, lam * x, 0.4)
        assert rep.near_equality
        rep = minkowski_check(x, lam * x, 2.0)
        assert rep.near_equality
    rep = minkowski_check(x, np.array([0.5, 0.1, 0.4]), 2.0)
    assert not rep.near_equality
