"""Acceptance gate: ten numbered criteria, one pass/fail line each.

Each test prints "criterion N: PASS" or "criterion N: FAIL" and then
asserts, so a plain run shows the scoreboard and a verbose run maps each
line to its test.  Tolerances and runtime budgets are pinned inline.
"""

import math
import time
from functools import lru_cache

import numpy as np

from polarlens import (
    EXTENDED_ORDER_GRID,
    ExtremeExampleParams,
    PerturbationSpec,
    chain_rule_residual,
    conditional_renyi,
    extreme_example_closed_form,
    extreme_example_sweep,
    level_profile_sweep,
    make_bsc,
    one_step_report,
    perturbation_sweep,
    random_joint,
)
from polarlens import cli

PAPER_GRID = (0.1, 0.5, 1.0, 2.0, 10.0, 100.0)


def _report(n: int, ok: bool, detail: str = "") -> None:
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'}" + (f"  ({detail})" if detail else ""))
    assert ok, f"criterion {n} failed: {detail}"


def _verify(suite: str, trials: int, seed: int, tmp_path) -> dict:
    """`polarlens verify` in-process: its exit status and its --out row."""
    out = tmp_path / f"{suite}.csv"
    code = cli.main(["verify", "--suite", suite, "--trials", str(trials),
                     "--seed", str(seed), "--out", str(out)])
    (section,) = cli.read_tables(str(out))
    (row,) = section.rows
    return {"code": code, **dict(zip(section.columns, row))}


@lru_cache(maxsize=None)
def _bsc_sweep():
    """Levels 1..7 of BSC(0.2) over the extended order grid, computed once."""
    return level_profile_sweep(make_bsc(0.2), 7, orders=EXTENDED_ORDER_GRID)


def test_criterion_01_chain_rule_identity():
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        d = random_joint(rng)
        for a in (0.1, 0.5, 2.0, 10.0, 100.0):
            worst = max(worst, abs(chain_rule_residual(d, a)))
    elapsed = time.perf_counter() - t0
    _report(1, worst <= 1e-10 and elapsed < 1.0, f"worst={worst:.3e} t={elapsed:.2f}s")


def test_criterion_02_one_step_conservation():
    t0 = time.perf_counter()
    root = make_bsc(0.2)
    reps = one_step_report(root, orders=PAPER_GRID)
    worst = max(abs(r.conservation_residual) for r in reps)
    at2 = {r.order.alpha: r for r in reps}[2.0]
    root2 = conditional_renyi(root, 2.0)
    triple_ok = (
        abs(at2.minus - 0.8242) <= 1e-3
        and abs(at2.plus - 0.2886) <= 1e-3
        and abs(root2 - 0.5564) <= 1e-3
    )
    elapsed = time.perf_counter() - t0
    _report(
        2,
        worst <= 1e-9 and triple_ok and elapsed < 1.0,
        f"worst={worst:.3e} triple=({at2.minus:.4f},{at2.plus:.4f},{root2:.4f}) t={elapsed:.2f}s",
    )


def test_criterion_03_one_step_inequalities(tmp_path):
    t0 = time.perf_counter()
    result = _verify("lemma1", 1000, 3, tmp_path)
    elapsed = time.perf_counter() - t0
    _report(
        3,
        result["code"] == 0 and int(result["violations"]) == 0 and elapsed < 30.0,
        f"checks={result['checks']} violations={result['violations']} t={elapsed:.1f}s",
    )


def test_criterion_04_oracle_equivalence(tmp_path):
    t0 = time.perf_counter()
    result = _verify("oracle", 20, 7, tmp_path)
    elapsed = time.perf_counter() - t0
    worst = float(result["worst"])
    _report(
        4,
        result["code"] == 0 and int(result["violations"]) == 0 and worst <= 1e-9
        and elapsed < 60.0,
        f"worst={worst:.3e} t={elapsed:.1f}s",
    )


def test_criterion_05_level_average_identity():
    t0 = time.perf_counter()
    sweep = _bsc_sweep()
    root = make_bsc(0.2)
    worst = 0.0
    for prof in sweep:
        for a in PAPER_GRID:
            worst = max(worst, abs(prof.average(a) - conditional_renyi(root, a)))
    elapsed = time.perf_counter() - t0
    _report(5, worst <= 1e-6 and elapsed < 300.0, f"worst={worst:.3e} t={elapsed:.1f}s")


def test_criterion_06_entropy_endpoints():
    sweep = _bsc_sweep()
    root = make_bsc(0.2)
    zero_exact = all((prof.row(0.0) == 1.0).all() for prof in sweep)
    noiseless_fraction = max(
        float(np.mean(prof.row(0.0) < 1.0)) for prof in sweep
    )
    min_entropy = conditional_renyi(root, math.inf)
    inf_ok = abs(min_entropy - math.log2(1.25)) <= 1e-12
    mean100_ok = all(
        abs(prof.average(100.0) - conditional_renyi(root, 100.0)) <= 1e-6
        for prof in sweep
    )
    _report(
        6,
        zero_exact and noiseless_fraction == 0.0 and inf_ok and mean100_ok,
        f"H0exact={zero_exact} Hinf={min_entropy:.4f}",
    )


def test_criterion_07_polarization_trends():
    # exact finite-n fractions wobble level to level (alpha=0.5 dips at
    # n=5), so the trend is pinned endpoint to endpoint: n=7 vs n=4
    sweep = _bsc_sweep()
    ok = True
    detail = []
    for a in (0.5, 1.0, 2.0):
        pooled = []
        for prof in sweep[3:7]:  # levels 4..7
            frac_low, frac_high = prof.extreme_fractions(a, 0.1)
            pooled.append(frac_low + frac_high)
        ok = ok and pooled[-1] >= pooled[0]
        detail.append(f"a={a}:{pooled[0]:.3f}->{pooled[-1]:.3f}")
    prof7 = sweep[-1]
    low_set = set((np.flatnonzero(prof7.row(0.1) > 0.5) + 1).tolist())
    high_set = set((np.flatnonzero(prof7.row(100.0) > 0.5) + 1).tolist())
    differ = len(low_set ^ high_set) > 0
    _report(7, ok and differ, "; ".join(detail) + f" symdiff={len(low_set ^ high_set)}")


def test_criterion_08_designed_source_sweep():
    t0 = time.perf_counter()
    rows = extreme_example_sweep(2.0, range(8, 29))
    h2 = [r.closed_form for r in rows if r.order.alpha == 2.0]
    h3 = [r.closed_form for r in rows if r.order.alpha == 3.0]
    monotone = all(b > a for a, b in zip(h2, h2[1:])) and all(
        b < a for a, b in zip(h3, h3[1:])
    )
    agree = max(r.abs_diff for r in rows) <= 1e-9
    p16 = ExtremeExampleParams(alpha0=2.0, size=16)
    spots = (
        abs(extreme_example_closed_form(p16, 2.0) - 0.7338) <= 1e-3
        and abs(extreme_example_closed_form(p16, 3.0) - 0.3460) <= 1e-3
    )
    elapsed = time.perf_counter() - t0
    _report(
        8,
        monotone and agree and spots and elapsed < 1.0,
        f"agree={max(r.abs_diff for r in rows):.2e} t={elapsed:.2f}s",
    )


def test_criterion_09_perturbation_accuracy():
    t0 = time.perf_counter()
    uni = PerturbationSpec(mode="uniform", base_weights=(1.0,), deltas=(0.01,))
    rel2 = [r.rel_error for r in perturbation_sweep(uni, [2.0], halvings=5)]
    closed2 = all(
        abs(r.exact - 4.0 * (0.01 * r.scale) ** 2) <= 1e-12 * abs(r.exact)
        for r in perturbation_sweep(uni, [2.0], halvings=5)
    )
    rel3 = [r.rel_error for r in perturbation_sweep(uni, [3.0], halvings=5)]
    shrinking = all(b <= a for a, b in zip(rel3, rel3[1:]))
    det = PerturbationSpec(mode="deterministic", base_weights=(0.5, 0.5), deltas=(1e-4, 1e-4))
    [row] = perturbation_sweep(det, [0.5], halvings=0)
    exact, approx = row.exact, row.approx
    det_ok = (
        abs(exact - 0.014042) <= 1e-6
        and abs(approx - exact) / abs(exact) <= 1e-6
    )
    elapsed = time.perf_counter() - t0
    _report(
        9,
        max(rel2) <= 1e-12 and closed2 and shrinking and det_ok and elapsed < 1.0,
        f"rel2={max(rel2):.1e} det={exact:.6f} t={elapsed:.2f}s",
    )


def test_criterion_10_numerical_stability():
    sweep = _bsc_sweep()
    row100 = sweep[-1].row(100.0)
    in_bounds = bool(
        np.isfinite(row100).all() and (row100 >= 0.0).all() and (row100 <= 1.0).all()
    )
    root = make_bsc(0.2)
    continuity = abs(conditional_renyi(root, 1.001) - conditional_renyi(root, 1.0))
    _report(
        10,
        in_bounds and continuity <= 1e-3,
        f"alpha100 range=[{row100.min():.2e},{row100.max():.6f}] |dH|={continuity:.2e}",
    )
