"""Polarization fractions, designed extreme source, perturbation accuracy,
effective sets."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from polarlens import (
    ExtremeExampleParams,
    PerturbationSpec,
    PolarizationProfile,
    as_order,
    conditional_renyi,
    effective_set,
    extreme_example_closed_form,
    extreme_example_distribution,
    extreme_example_sweep,
    make_bsc,
    make_from_atoms,
    perturbation_distribution,
    perturbation_sweep,
)
from polarlens.distributions import _freeze


def _tiny_profile():
    orders = (as_order(2.0),)
    entries = np.array([[0.95, 0.02, 0.5, 0.99]])
    return PolarizationProfile(
        2, orders, _freeze(entries), _freeze(np.array([0.6]))
    )


def test_extremal_fractions_counting():
    prof = _tiny_profile()
    assert prof.extreme_fractions(2.0, 0.1) == (0.25, 0.5)
    root = float(prof.root_entropy[0])
    assert root == 0.6
    assert 1.0 - root == pytest.approx(0.4)


def test_extremal_fractions_band_validation():
    prof = _tiny_profile()
    for bad in (0.0, 0.5, -0.1, 1.0, math.nan):
        with pytest.raises(ValueError):
            prof.extreme_fractions(2.0, bad)


def test_extreme_params_validation():
    with pytest.raises(ValueError):
        ExtremeExampleParams(alpha0=1.0, size=8)
    with pytest.raises(ValueError):
        ExtremeExampleParams(alpha0=2.0, size=1)
    # M = 2**size is carried as a float: 2**1023 is the last finite power
    assert ExtremeExampleParams(alpha0=2.0, size=1023).symbol_count == 2.0**1023
    with pytest.raises(ValueError, match="1023"):
        ExtremeExampleParams(alpha0=2.0, size=1024)


@pytest.mark.parametrize("size", [8.7, 8.0, True, "8"])
def test_extreme_sizes_must_be_integers(size):
    # 8.7 is neither run as size 8 nor given 2**8.7 symbols
    with pytest.raises(ValueError, match="size must be an integer"):
        ExtremeExampleParams(alpha0=2.0, size=size)
    with pytest.raises(ValueError, match="size must be an integer"):
        extreme_example_sweep(2.0, [8, size])
    assert ExtremeExampleParams(alpha0=2.0, size=np.int64(8)).symbol_count == 256.0


def test_extreme_split_formula():
    p = ExtremeExampleParams(alpha0=2.0, size=16)
    want = 0.5 * 15.0 ** ((2.0 - 0.25) / 1.0)
    assert p.split_minus_one == pytest.approx(want, rel=1e-15)
    assert p.split_minus_one == pytest.approx(57.16493416739416, rel=1e-12)


def test_extreme_spot_values():
    p = ExtremeExampleParams(alpha0=2.0, size=16)
    assert extreme_example_closed_form(p, 2.0) == pytest.approx(0.7338, abs=1e-3)
    assert extreme_example_closed_form(p, 3.0) == pytest.approx(0.3460, abs=1e-3)


def test_extreme_distribution_matches_closed_form():
    for alpha0, size in ((2.0, 8), (2.0, 20), (3.0, 12), (1.5, 10)):
        p = ExtremeExampleParams(alpha0=alpha0, size=size)
        d = extreme_example_distribution(p)
        assert d.mass == pytest.approx(1.0, abs=1e-12)
        for a in (alpha0, alpha0 + 1.0, 0.5):
            assert conditional_renyi(d, a) == pytest.approx(
                extreme_example_closed_form(p, a), abs=1e-9
            )


@pytest.mark.parametrize("alpha0", [1.5, 20.0])
def test_extreme_distribution_at_largest_size(alpha0):
    # M = 2**1023 is the largest finite power; no intermediate may overflow
    rows = extreme_example_sweep(alpha0, [1023])
    assert len(rows) == 2
    assert max(r.abs_diff for r in rows) <= 1e-9


def test_extreme_sweep_opposite_monotonicity():
    rows = extreme_example_sweep(2.0, range(8, 29))
    h2 = [r.closed_form for r in rows if r.order.alpha == 2.0]
    h3 = [r.closed_form for r in rows if r.order.alpha == 3.0]
    assert all(b > a for a, b in zip(h2, h2[1:]))
    assert all(b < a for a, b in zip(h3, h3[1:]))
    assert max(r.abs_diff for r in rows) <= 1e-9


def test_extreme_closed_form_large_order_no_overflow():
    p = ExtremeExampleParams(alpha0=2.0, size=24)
    h = extreme_example_closed_form(p, 400.0)
    assert 0.0 <= h <= 1.0
    assert math.isfinite(h)


def test_perturbation_spec_validation():
    ok = dict(mode="uniform", base_weights=(0.5, 0.5), deltas=(0.1, -0.1))
    PerturbationSpec(**ok)
    with pytest.raises(ValueError):
        PerturbationSpec(**{**ok, "mode": "other"})
    with pytest.raises(ValueError):
        PerturbationSpec(**{**ok, "deltas": (0.3, 0.0)})  # |d| > Q/2
    with pytest.raises(ValueError):
        PerturbationSpec(**{**ok, "base_weights": (0.5, 0.4)})  # sum != 1
    with pytest.raises(ValueError):
        perturbation_sweep(PerturbationSpec(**ok), ["inf"])
    with pytest.raises(ValueError):
        PerturbationSpec(mode="deterministic", base_weights=(0.5, 0.5), deltas=(-0.1, 0.0))
    assert len(perturbation_sweep(PerturbationSpec(**ok), [2.0], halvings=0)) == 1
    with pytest.raises(ValueError, match="halvings"):
        perturbation_sweep(PerturbationSpec(**ok), [2.0], halvings=-1)
    # every check fails on NaN, in either mode
    for mode in ("uniform", "deterministic"):
        for q, dv in (((1.0,), (math.nan,)), ((0.5, math.nan), (0.01, 0.0))):
            with pytest.raises(ValueError):
                PerturbationSpec(mode, q, dv)
    # weights, deltas and orders are sequences; all orders are checked first
    with pytest.raises(TypeError, match="strings"):
        PerturbationSpec("uniform", "1", (0.01,))
    # a mapping would be read as its keys; bools and strings are not numbers
    for q, dv in (({1.0: 0}, (0.01,)), ((True,), (0.01,)), ((1.0,), ("0.01",))):
        with pytest.raises(TypeError):
            PerturbationSpec("uniform", q, dv)
    for orders in ("23", "2.5", {2.0: 0}):
        with pytest.raises(TypeError, match="string"):
            perturbation_sweep(PerturbationSpec(**ok), orders)
    with pytest.raises(ValueError, match="finite alpha"):
        perturbation_sweep(PerturbationSpec(**ok), [2.0, 3.0, 1])


def test_perturbation_distribution_marginals():
    spec = PerturbationSpec(mode="uniform", base_weights=(0.6, 0.4), deltas=(0.05, -0.02))
    d = perturbation_distribution(spec)
    assert d.symbol_mass.tolist() == pytest.approx([0.6, 0.4])
    spec = PerturbationSpec(mode="deterministic", base_weights=(0.5, 0.5), deltas=(0.1, 0.0))
    d = perturbation_distribution(spec)
    assert d.symbol_mass.tolist() == pytest.approx([0.5, 0.5])


def test_uniform_alpha2_approximation_is_exact():
    # expansion terminates at the quadratic term, so rel_error is literal 0
    spec = PerturbationSpec(mode="uniform", base_weights=(1.0,), deltas=(0.01,))
    for row in perturbation_sweep(spec, [2.0], halvings=5):
        assert row.rel_error == 0.0
        q_delta = 0.01 * row.scale
        assert row.exact == pytest.approx(4.0 * q_delta**2, rel=1e-12)


def test_uniform_alpha3_approximation_is_exact():
    spec = PerturbationSpec(
        mode="uniform", base_weights=(0.5, 0.3, 0.2), deltas=(0.1, -0.05, 0.02)
    )
    for row in perturbation_sweep(spec, [3.0], halvings=5):
        assert row.rel_error == 0.0


def test_deterministic_alpha3_error_strictly_shrinks():
    spec = PerturbationSpec(mode="deterministic", base_weights=(0.5, 0.5), deltas=(0.01, 0.01))
    rows = perturbation_sweep(spec, [3.0], halvings=5)
    errs = [r.rel_error for r in rows]
    assert all(b < a for a, b in zip(errs, errs[1:])), errs


def test_deterministic_half_order_spot_value():
    spec = PerturbationSpec(mode="deterministic", base_weights=(0.5, 0.5), deltas=(1e-4, 1e-4))
    [row] = perturbation_sweep(spec, [0.5], halvings=0)
    exact, approx = row.exact, row.approx
    assert exact == pytest.approx(0.014042, abs=5e-6)
    assert abs(approx - exact) / abs(exact) <= 1e-6


def test_mpmath_branch_agrees_with_direct_float():
    spec = PerturbationSpec(mode="uniform", base_weights=(0.7, 0.3), deltas=(0.01, -0.003))
    q = np.array(spec.base_weights)
    dv = np.array(spec.deltas)
    a = 2.5
    direct = float(
        np.sum((q / 2 + dv) ** a + (q / 2 - dv) ** a) / (2 ** (1 - a) * np.sum(q**a)) - 1
    )
    [row] = perturbation_sweep(spec, [a], halvings=0)
    assert row.exact == pytest.approx(direct, rel=1e-10)


def _reference_deviations(spec, order, scale):
    """One loop per number type and form, as before the evaluators merged."""
    a_ord = as_order(order)
    pairs = [(q, d * scale) for q, d in zip(spec.base_weights, spec.deltas)]
    if a_ord.kind == "finite" and float(a_ord.alpha).is_integer() and a_ord.alpha >= 2.0:
        a = int(a_ord.alpha)
        num = den = acc = Fraction(0)
        for qf, df in pairs:
            q, dv = Fraction(qf), Fraction(df)
            if spec.mode == "uniform":
                num += (q / 2 + dv) ** a + (q / 2 - dv) ** a
            else:
                num += dv**a + (q - dv) ** a
            den += q**a
        if spec.mode == "uniform":
            den = den * Fraction(2) ** (1 - a)
        exact = float(num / den - 1)
        den = Fraction(0)
        for qf, df in pairs:
            q, dv = Fraction(qf), Fraction(df)
            den += q**a
            if spec.mode == "uniform":
                acc += dv * dv * q ** (a - 2)
            else:
                acc += dv**a - a * dv * q ** (a - 1)
        if spec.mode == "uniform":
            acc = 2 * a * (a - 1) * acc
        return exact, float(acc / den)
    a = mpmath.mpf(a_ord.alpha)
    with mpmath.workdps(50):
        num = den = mpmath.mpf(0)
        for qf, df in pairs:
            q, dv = mpmath.mpf(qf), mpmath.mpf(df)
            if spec.mode == "uniform":
                num += (q / 2 + dv) ** a + (q / 2 - dv) ** a
            else:
                num += (dv**a if dv > 0 else mpmath.mpf(0)) + (q - dv) ** a
            den += q**a
        if spec.mode == "uniform":
            den = den * mpmath.mpf(2) ** (1 - a)
        exact = float(num / den - 1)
    with mpmath.workdps(50):
        den = acc = mpmath.mpf(0)
        for qf, df in pairs:
            q, dv = mpmath.mpf(qf), mpmath.mpf(df)
            den += q**a
            if spec.mode == "uniform":
                acc += dv * dv * q ** (a - 2)
            else:
                acc += (dv**a if dv > 0 else mpmath.mpf(0)) - a * dv * q ** (a - 1)
        if spec.mode == "uniform":
            acc = 2 * a * (a - 1) * acc
        return exact, float(acc / den)


def test_perturbation_evaluator_matches_per_type_reference_bitwise():
    specs = (
        ("uniform", (0.5, 0.25, 0.125, 0.125), (0.01, -0.02, 0.005, 0.003)),
        # the zero delta hits 0**a at non-integral orders
        ("deterministic", (0.4, 0.3, 0.2, 0.1), (0.01, 0.0, 0.002, 0.0005)),
    )
    alphas = (2.0, 3.0, 0.5, 2.5, 7.5)
    scales = (1.0, 0.5, 0.25, 0.125)
    for mode, q, dv in specs:
        spec = PerturbationSpec(mode=mode, base_weights=q, deltas=dv)
        rows = perturbation_sweep(spec, alphas, halvings=3)
        # order by order, and scale by scale within each order
        assert [(r.order, r.scale) for r in rows] == [
            (as_order(a), s) for a in alphas for s in scales
        ]
        for row in rows:
            want = _reference_deviations(spec, row.order, row.scale)
            assert (row.exact, row.approx) == want, (mode, row.order, row.scale)


def test_exact_matches_entropy_shift_direction():
    # positive deviation of the joint power sum at a > 1 lowers the entropy
    spec = PerturbationSpec(mode="uniform", base_weights=(0.5, 0.5), deltas=(0.05, 0.05))
    assert perturbation_sweep(spec, [2.0], halvings=0)[0].exact > 0.0
    d = perturbation_distribution(spec)
    assert conditional_renyi(d, 2.0) < 1.0


def test_effective_set_pick_order_flips_with_alpha():
    d = extreme_example_distribution(ExtremeExampleParams(alpha0=2.0, size=16))
    low = effective_set(d, 2.0)
    high = effective_set(d, 3.0)
    # atom 0 is the deterministic class, atom 1 the uninformative class
    assert low.indices[0] == 1
    assert high.indices[0] == 0


def test_effective_set_shares_and_entropy():
    d = make_from_atoms([(0.45, 0.05, 1.0), (0.2, 0.28, 1.0), (0.01, 0.01, 1.0)])
    rep = effective_set(d, 2.0)
    assert set(rep.indices) == {0, 1}  # the near-massless atom is skipped
    assert rep.num_share > 0.99
    assert rep.den_share > 0.99
    assert rep.entropy == pytest.approx(conditional_renyi(d, 2.0), abs=5e-3)


def test_effective_set_validation():
    d = make_bsc(0.2)
    with pytest.raises(ValueError):
        effective_set(d, "inf")
