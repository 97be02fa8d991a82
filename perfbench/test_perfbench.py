"""Self-tests of the benchmark's failure accounting and metric lists.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import json

import numpy as np
import pytest

import run

run.use_checkout_library()

import tracing  # noqa: E402
import workloads  # noqa: E402
from polarlens import level_profile_sweep, make_bsc  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_crashing_op_is_one_counted_failure(capsys):
    # BEC(0.5) at n=9 overflows total_weight**2 in the Shannon pair kernel
    # (an uncaught OverflowError, CLI exit 1 with a traceback).  The round
    # must count it once and go on to the next op.
    crash = workloads.cli_op(["polarize", "--channel", "bec:0.5", "--n", "9", "--alpha", "1"])
    fine = workloads.cli_op(["entropy", "--channel", "bsc:0.2"])
    assert run.run_round([("crash", crash), ("fine", fine), ("crash-again", crash)]) == (3, 2)
    assert "OverflowError" in capsys.readouterr().err


def test_nonzero_exit_and_missed_check_are_failures():
    usage = workloads.cli_op(["polarize", "--channel", "nosuch:1"])
    missed = workloads.cli_op(["entropy", "--channel", "bsc:0.2"], lambda out: ["wrong"])
    assert run.run_round([("usage", usage), ("missed", missed)]) == (2, 2)


def test_closed_loop_runs_at_least_one_round():
    times, attempted, failed = run.closed_loop([("noop", lambda: [])], 0.0)
    assert (len(times), attempted, failed) == (1, 1, 0)


def test_sweep_check_flags_a_broken_profile():
    orders = (0.0, 0.5, 1.0, 2.0)
    profiles = level_profile_sweep(make_bsc(0.2), 3, orders)
    assert workloads.check_sweep(profiles, 3, orders, zero_row_exact=True) == []
    bad = profiles[-1].entries.copy()
    bad[1, 0], bad[1, 1] = bad[1, 1], bad[1, 0]  # swap one minus/plus pair
    profiles[-1] = profiles[-1].__class__(3, profiles[-1].orders, bad, profiles[-1].root_entropy)
    assert any("plus child" in p for p in workloads.check_sweep(profiles, 3, orders, True))


@pytest.mark.parametrize("seed", [0, 1, 12345])
def test_inputs_follow_the_seed(seed, tmp_path):
    a = workloads.build("bsc7-grid", seed, tmp_path).orders
    assert a == workloads.build("bsc7-grid", seed, tmp_path).orders
    assert not any(float(o).is_integer() for o in a[1:3])
    mix = workloads.VerifyMix(seed, tmp_path / "mix")
    assert [n for n, _ in mix.ops()].count("verify-martingale") == len(workloads.MARTINGALE_SIZES)
    mix.close()
    assert not (tmp_path / "mix").exists()


def test_benchmark_json_lists_what_the_runs_print():
    assert [m["name"] for m in SPEC["per_layer"]] == [n for n, _ in tracing.PER_LAYER]
    assert [m["unit"] for m in SPEC["per_layer"]] == [u for _, u in tracing.PER_LAYER]
    assert {m["name"] for m in SPEC["end_to_end"]} == {"solve_s", "setup_s", "peak_rss_mib", "ok_frac"}
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


def test_split_by_class_matches_combined_call():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        level_profile_sweep(make_bsc(0.2), 3, (0.0, 0.5, 1.0, 2.0, np.inf))
    finally:
        tracer.uninstall()
    assert tracer.split_by_class() == []
    assert [lv["parents"] for lv in tracer.level_shape()] == [1, 2, 4]
    metrics = tracing.layer_metrics(tracer, 1.0, 1.0)
    assert metrics["transform.split_calls"]["value"] == 7
    assert metrics["transform.pair_calls"]["value"] == 3
