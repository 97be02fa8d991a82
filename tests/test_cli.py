"""Command-line surface: subcommands, formats, exit codes, determinism."""

import contextlib
import dataclasses
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarlens import cli, from_json_dict
from polarlens.cli import (
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VIOLATION,
    main,
    make_section,
    parse_tables,
    read_tables,
    render_tables,
    resolve_channel,
)


def run(args):
    return main(list(args))


def test_entropy_stdout_csv(capsys):
    assert run(["entropy", "--channel", "bsc:0.2", "--alpha", "0,1,2,inf"]) == EXIT_OK
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == "# entropies"
    assert lines[1] == "alpha,conditional,output,joint,chain_residual"
    table = {row.split(",")[0]: row.split(",") for row in lines[2:]}
    assert float(table["0"][1]) == 1.0
    assert float(table["1"][1]) == pytest.approx(0.7219280948873621, abs=1e-12)
    assert float(table["2"][1]) == pytest.approx(0.556393348524385, abs=1e-12)
    assert float(table["inf"][1]) == pytest.approx(0.3219280948873622, abs=1e-12)
    assert all(abs(float(r[4])) <= 1e-10 for r in table.values())


def test_entropy_near_order_one_keeps_the_chain_rule(capsys):
    # the output and joint entropies divided a log-sum by 1 - alpha here:
    # chain_residual was -3.0e-10 and 2.1e-10, past the chain suite's 1e-10
    import mpmath

    from polarlens import make_bsc

    assert run(["entropy", "--channel", "bsc:0.2", "--alpha", "0.999999,1,1.000001"]) == EXIT_OK
    rows = [line.split(",") for line in capsys.readouterr().out.strip().splitlines()[2:]]
    assert [r[0] for r in rows] == ["0.999999", "1", "1.000001"]
    d = make_bsc(0.2)
    with mpmath.workdps(40):
        # the joint entries as doubles, whose mass is 1 + 5.6e-17: divided out
        p = [mpmath.mpf(x) for x in np.concatenate([d.p0, d.p1]).tolist()]
        mass = mpmath.fsum(p)
        for alpha, _, _, joint, residual in rows:
            assert abs(float(residual)) <= 1e-15, alpha
            a = mpmath.mpf(float(alpha))
            if alpha == "1":
                ref = -mpmath.fsum(x * mpmath.log(x, 2) for x in p) / mass
            else:
                ref = mpmath.log(mpmath.fsum(x**a for x in p) / mass, 2) / (1 - a)
            assert abs(float(joint) - float(ref)) <= 1e-15, alpha


def test_entropy_json_round_trip(tmp_path, capsys):
    out = tmp_path / "e.json"
    code = run(
        ["entropy", "--channel", "bec:0.4", "--alpha", "1,2", "--format", "json",
         "--out", str(out)]
    )
    assert code == EXIT_OK
    sections = read_tables(str(out))
    assert sections[0].name == "entropies"
    assert len(sections[0].rows) == 2
    # the conversion note lands on stderr, data stays in the file
    assert "wrote" in capsys.readouterr().err


def test_polarize_shapes_and_summary(tmp_path):
    out = tmp_path / "p.csv"
    code = run(
        ["polarize", "--channel", "bsc:0.2", "--n", "3", "--alpha", "0.5,1,2",
         "--delta", "0.1,0.01", "--out", str(out)]
    )
    assert code == EXIT_OK
    entries, summary = read_tables(str(out))
    assert list(entries.columns) == ["n", "index", "alpha", "entropy"]
    assert len(entries.rows) == 8 * 3
    assert list(summary.columns[:4]) == ["alpha", "band", "frac_low", "frac_high"]
    assert len(summary.rows) == 3 * 2
    for row in summary.rows:
        mean = float(row[6])
        root = float(row[7])
        assert mean == pytest.approx(root, abs=1e-9)


HIGH_ORDERS = "500,512,513,650.5,660,700.5,1023,1100,5000.5,1e5"


@pytest.mark.parametrize(
    "channel,n,alphas",
    [
        ("bsc:0.2", 3, HIGH_ORDERS),
        ("bsc:0.49", 3, HIGH_ORDERS),
        ("bec:0.35", 3, HIGH_ORDERS),
        # deep erasure states whose pair sums fall far below the float range
        ("bec:0.5", 6, "300,512"),
    ],
)
def test_polarize_high_orders(tmp_path, channel, n, alphas):
    # BSC parents: log-domain pair grids over the ratio groups kept by
    # pruning; BEC roots: the erasure sweep's closed-form maps
    out = tmp_path / "p.csv"
    code = run(
        ["polarize", "--channel", channel, "--n", str(n), "--alpha", alphas,
         "--delta", "0.1", "--out", str(out)]
    )
    assert code == EXIT_OK
    entries, summary = read_tables(str(out))
    values = [float(r[3]) for r in entries.rows]
    assert len(values) == 2**n * len(alphas.split(","))
    assert all(0.0 <= v <= 1.0 for v in values)  # NaN fails both comparisons
    for row in summary.rows:
        assert abs(float(row[6]) - float(row[7])) <= 1e-6


@pytest.mark.parametrize("channel", ["bsc:0.2", "bec:0.35"])
@pytest.mark.parametrize("alpha", ["1e-300", "0.999999", "1.000001", "1e300", "1e308", "inf"])
def test_polarize_order_range_contract(channel, alpha, capsys):
    # every order gives finite entries in [0, 1] or one clean line and exit 2
    code = run(["polarize", "--channel", channel, "--n", "3", "--alpha", alpha])
    out, err = capsys.readouterr()
    if code == EXIT_USAGE:
        assert out == "" and len(err.splitlines()) == 1 and "Traceback" not in err
        return
    assert code == EXIT_OK
    entries, summary = parse_tables(out)
    values = [float(r[3]) for r in entries.rows]
    assert len(values) == 8
    assert all(0.0 <= v <= 1.0 for v in values)  # NaN fails both comparisons
    root = float(summary.rows[0][7])
    assert abs(sum(values) / len(values) - root) <= 1e-6


def test_polarize_erasure_order_one_at_depth(capsys):
    # BEC(0.5) at n=9 overflowed total_weight**2 in the atom engine's
    # Shannon kernel: exit 1 with an OverflowError traceback
    code = run(["polarize", "--channel", "bec:0.5", "--n", "9", "--alpha", "1"])
    out, err = capsys.readouterr()
    assert code == EXIT_OK and err == ""
    entries, _ = parse_tables(out)
    values = [float(r[3]) for r in entries.rows]
    assert len(values) == 2**9
    assert all(0.0 <= v <= 1.0 for v in values)


def test_polarize_erasure_depth_is_bounded_by_its_output(capsys):
    # no atoms bound an erasure sweep, so the entries of all its levels do
    code = run(["polarize", "--channel", "bec:0.35", "--n", "30"])
    out, err = capsys.readouterr()
    assert code == EXIT_USAGE and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("polarlens: resource limit: level 22: ")


@pytest.mark.parametrize("n", [2, 3])
def test_polarize_refuses_subnormal_products(n, capsys):
    # products of bsc:2e-315's subnormal entries underflow: --n 2 was up to
    # 0.229 off a 40-digit reference, --n 3 printed nan, both with exit 0
    code = run(["polarize", "--channel", "bsc:2e-315", "--n", str(n), "--alpha", "0.5"])
    out, err = capsys.readouterr()
    assert code == EXIT_USAGE and out == ""
    assert err == (
        "polarlens: level 1 cannot be built: parent 1 of 1: "
        "product 2.000e-315 * 2.000e-315 of smallest positive ratios underflows\n"
    )


def test_polarize_subnormal_root_runs_one_level(capsys):
    # level 1 is split from the root alone, with no product materialized
    assert run(["polarize", "--channel", "bsc:2e-315", "--n", "1"]) == EXIT_OK
    entries, _ = parse_tables(capsys.readouterr().out)
    assert all(0.0 <= float(r[3]) <= 1.0 for r in entries.rows)


def test_polarize_rejects_orders_too_large_to_evaluate(capsys):
    code = run(["polarize", "--channel", "bsc:0.49", "--n", "4", "--alpha", "1e307"])
    out, err = capsys.readouterr()
    assert code == EXIT_USAGE and out == ""
    assert len(err.splitlines()) == 1 and "use inf" in err


def test_polarize_sort_shannon_needs_order_one(capsys):
    code = run(["polarize", "--n", "2", "--alpha", "2", "--sort-shannon"])
    out, err = capsys.readouterr()
    assert code == EXIT_USAGE and out == ""
    assert err == "polarize: --sort-shannon needs order 1 in --alpha\n"


@pytest.mark.parametrize(
    "args,topic",
    [
        (["verify", "--suite", "chain", "--trials", "-3"], "--trials"),
        (["verify", "--suite", "chain", "--trials", "0"], "--trials"),
        (["polarize", "--n", "2", "--alpha", ""], "--alpha"),
        (["entropy", "--channel", "bsc:0.2", "--alpha", ""], "--alpha"),
        (["entropy", "--channel", "bsc:0.2", "--alpha", " , "], "--alpha"),
        (["polarize", "--n", "2", "--alpha", "1", "--delta", ""], "--delta"),
        # bands are checked before the sweep, so n=30 fails on the band, not on capacity
        (["polarize", "--n", "30", "--delta", "0.7"], "band"),
        (["polarize", "--n", "30", "--delta", "0.1,0"], "band"),
        (["example-extreme", "--nmin", "1024", "--nmax", "1025"], "1023"),
        (["example-extreme", "--alpha", ""], "--alpha"),
    ],
    ids=["trials-negative", "trials-zero", "polarize-no-order", "entropy-no-order",
         "entropy-blank-orders", "polarize-no-band", "polarize-band-above",
         "polarize-band-zero", "extreme-size-overflow", "extreme-no-order"],
)
def test_empty_or_negative_inputs_exit_2(args, topic, capsys):
    assert run(args) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1 and topic in err


def test_polarize_sort_shannon_column(tmp_path):
    out = tmp_path / "p.csv"
    run(
        ["polarize", "--channel", "bsc:0.2", "--n", "2", "--alpha", "1",
         "--delta", "0.1", "--sort-shannon", "--out", str(out)]
    )
    entries = read_tables(str(out))[0]
    assert entries.columns[-1] == "shannon_rank"
    by_index = {int(r[1]): int(r[4]) for r in entries.rows}
    ranked = sorted(by_index, key=lambda i: by_index[i])
    values = {int(r[1]): float(r[3]) for r in entries.rows}
    ordered = [values[i] for i in ranked]
    assert ordered == sorted(ordered)


def test_polarize_close_orders_keep_distinct_labels(tmp_path):
    out = tmp_path / "p.csv"
    run(
        ["polarize", "--channel", "bsc:0.2", "--n", "2", "--alpha",
         "1.000000002,1.00000001", "--out", str(out)]
    )
    entries = read_tables(str(out))[0]
    assert {r[2] for r in entries.rows} == {"1.000000002", "1.00000001"}


def test_example_extreme_defaults(capsys):
    assert run(["example-extreme"]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[1] == "N,alpha,closed_form,direct_eval,abs_diff"
    rows = [line.split(",") for line in lines[2:]]
    assert len(rows) == 21 * 2  # N in [8, 28], two orders
    assert max(float(r[4]) for r in rows) <= 1e-9


def test_example_extreme_domain_errors(capsys):
    assert run(["example-extreme", "--alpha0", "1.0"]) == EXIT_USAGE
    assert capsys.readouterr().err == "polarlens: alpha0 must exceed 1\n"
    assert run(["example-extreme", "--nmin", "9", "--nmax", "4"]) == EXIT_USAGE


def test_perturb_spec_file(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(
        json.dumps(
            {
                "mode": "uniform",
                "base_weights": [1.0],
                "deltas": [0.01],
                "alphas": [2, 3],
                "halvings": 2,
            }
        )
    )
    assert run(["perturb", "--spec", str(spec)]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[1] == "mode,alpha,delta_scale,exact,approx,rel_error"
    rows = [line.split(",") for line in lines[2:]]
    assert len(rows) == 2 * 3
    assert all(float(r[5]) == 0.0 for r in rows)


def test_perturb_bad_spec(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text('{"mode": "uniform"}')
    assert run(["perturb", "--spec", str(spec)]) == EXIT_USAGE
    assert run(["perturb", "--spec", str(tmp_path / "missing.json")]) == EXIT_USAGE
    spec.write_text("not json")
    assert run(["perturb", "--spec", str(spec)]) == EXIT_USAGE
    capsys.readouterr()
    good = {"mode": "uniform", "base_weights": [1.0], "deltas": [0.01], "alpha": 2}
    spec.write_text(json.dumps(good))
    assert run(["perturb", "--spec", str(spec), "--halvings", "-1"]) == EXIT_USAGE
    spec.write_text(json.dumps({**good, "halvings": -1}))
    assert run(["perturb", "--spec", str(spec)]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and err.count("halvings must be >= 0") == 2
    assert len(err.splitlines()) == 2
    spec.write_text(json.dumps({**good, "alphas": []}))
    assert run(["perturb", "--spec", str(spec)]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1 and "alpha" in err
    # a string is not a list of orders; NaN and Infinity are JSON to Python
    for bad in (
        {"alphas": "23"},
        {"alphas": "2.5"},
        {"base_weights": "1"},
        {"alpha": 2.5, "deltas": [math.nan]},
        {"alpha": 2.5, "base_weights": [0.5, math.nan], "deltas": [0.01, 0.0]},
        {"alpha": 2.5, "deltas": [math.inf]},
        {"halvings": math.inf},
        {"halvings": 1.9},
        {"halvings": True},
        {"halvings": "2"},
        # a JSON object is not a list, and bools and strings are not numbers
        {"base_weights": {"1": 0}},
        {"alphas": {"2": 0}},
        {"base_weights": [True]},
        {"deltas": ["0.01"]},
    ):
        spec.write_text(json.dumps({**good, **bad}))
        assert run(["perturb", "--spec", str(spec)]) == EXIT_USAGE, bad
        out, err = capsys.readouterr()
        assert out == "" and err.count("perturb: malformed spec: ") == 1, bad
        assert len(err.splitlines()) == 1, bad


@pytest.mark.parametrize(
    "suite,trials",
    [("chain", 10), ("lemma1", 50), ("martingale", 3), ("minkowski", 50), ("oracle", 3)],
)
def test_verify_suites_pass(suite, trials, capsys):
    assert run(["verify", "--suite", suite, "--trials", str(trials), "--seed", "7"]) == EXIT_OK
    out = capsys.readouterr().out
    assert f"suite {suite}:" in out
    assert "PASS" in out
    assert "violations=0" in out


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_verify_writes_its_line_to_out(fmt, tmp_path, capsys):
    path = tmp_path / f"v.{fmt}"
    code = run(["verify", "--suite", "chain", "--trials", "3", "--seed", "1",
                "--out", str(path), "--format", fmt])
    assert code == EXIT_OK
    out, err = capsys.readouterr()
    assert err == f"wrote {path}\n"
    printed = dict(kv.split("=") for kv in out.split()[2:-1])
    (section,) = read_tables(str(path))
    assert section.name == "verify"
    assert list(section.columns) == ["suite", "trials", "checks", "violations", "worst"]
    (row,) = section.rows
    assert str(row[0]) == "chain"
    for col in ("trials", "checks", "violations"):
        assert int(row[section.columns.index(col)]) == int(printed[col])
    assert float(row[4]) == pytest.approx(float(printed["worst"]), rel=1e-3)


def _corrupt_first(orig, corrupt):
    """``orig`` with its first result passed through ``corrupt``."""
    calls = []

    def patched(*args, **kwargs):
        result = orig(*args, **kwargs)
        calls.append(result)
        return corrupt(result) if len(calls) == 1 else result

    return patched


def _shift_first_entry(values, shift):
    values = np.array(values, dtype=float)
    values.flat[0] += shift
    return values


def _shift_first_residual(rows, shift):
    rows = np.array(rows, dtype=float)
    rows[0, 3, 0] += shift  # row 3 of the first law's block holds its residuals
    return rows


# per suite: the function it checks, and how to push one of its deviations
# by ``shift`` (1.0 is past every bound; NaN must fail too)
CORRUPTIONS = {
    "chain": ("chain_rule_entropies_many", _shift_first_residual),
    "lemma1": (
        "one_step_reports",
        lambda pairs, shift: [
            [pairs[0][0]._replace(minus=pairs[0][0].minus - shift)] + pairs[0][1:]
        ] + pairs[1:],
    ),
    "martingale": (
        "level_profile_sweep",
        lambda profiles, shift: [
            dataclasses.replace(
                profiles[0], entries=_shift_first_entry(profiles[0].entries, shift)
            )
        ] + profiles[1:],
    ),
    "oracle": ("brute_force_profile", _shift_first_entry),
    # the suite reads minkowski_check's verdicts, so a push is a failed verdict
    "minkowski": (
        "minkowski_check",
        lambda rep, shift: rep._replace(lhs=rep.lhs + shift)
        if math.isnan(shift) else rep._replace(satisfied=False),
    ),
}


@pytest.mark.parametrize("shift", [1.0, math.nan], ids=["past-bound", "nan"])
@pytest.mark.parametrize("suite", sorted(CORRUPTIONS))
def test_verify_fails_on_one_bad_deviation(suite, shift, monkeypatch, tmp_path, capsys):
    attr, corrupt = CORRUPTIONS[suite]
    monkeypatch.setattr(cli, attr, _corrupt_first(getattr(cli, attr), lambda r: corrupt(r, shift)))
    path = tmp_path / "v.csv"
    code = run(["verify", "--suite", suite, "--trials", "10", "--seed", "3", "--out", str(path)])
    out = capsys.readouterr().out
    assert code == EXIT_VIOLATION and out.rstrip().endswith("FAIL")
    printed = dict(kv.split("=") for kv in out.split()[2:-1])
    assert int(printed["violations"]) >= 1
    if math.isnan(shift):
        assert printed["worst"] == "nan"
    (section,) = read_tables(str(path))
    row = dict(zip(section.columns, section.rows[0]))
    for col in ("trials", "checks", "violations"):
        assert int(row[col]) == int(printed[col])
    assert f"{float(row['worst']):.3e}" == printed["worst"]


def _chain_one_law_at_a_time(trials, seed):
    from polarlens import EXTENDED_ORDER_GRID, chain_rule_entropies, random_joint

    rng = np.random.default_rng(seed)
    for _ in range(trials):
        d = random_joint(rng)
        for residual in chain_rule_entropies(d, EXTENDED_ORDER_GRID)[3].tolist():
            yield abs(residual), 1e-10


def _lemma1_one_pair_at_a_time(trials, seed):
    from polarlens import EXTENDED_ORDER_GRID, conditional_entropies, random_joint, transform_pair

    rng = np.random.default_rng(seed)
    for t in range(trials):
        a = random_joint(rng)
        b = a if t % 3 == 0 else random_joint(rng)
        pair = transform_pair(a, b)
        ha, hb, hm, hp = (
            conditional_entropies(d, EXTENDED_ORDER_GRID).tolist()
            for d in (a, b, pair.minus, pair.plus)
        )
        for x, y, m, p in zip(ha, hb, hm, hp):
            yield max(x, y) - m, 1e-12
            yield p - min(x, y), 1e-12
            yield abs((m + p) - (x + y)), 1e-9


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize(
    "suite,reference",
    [("chain", _chain_one_law_at_a_time), ("lemma1", _lemma1_one_pair_at_a_time)],
    ids=["chain", "lemma1"],
)
def test_stacked_suites_yield_the_per_trial_checks(suite, reference, seed):
    # the suites draw every law first and evaluate them in stacked passes;
    # the checks, their order and their bits are those of one law at a time
    def bits(checks):
        return [(dev.hex(), bound.hex()) for dev, bound in checks]

    got = bits(cli._SUITES[suite](1000, seed))
    assert got == bits(reference(1000, seed))
    assert len(got) == 1000 * 8 * (1 if suite == "chain" else 3)


def test_verify_unknown_suite():
    with pytest.raises(SystemExit) as exc:
        run(["verify", "--suite", "bogus"])
    assert exc.value.code == 2


def test_resolve_channel_forms(tmp_path):
    d = resolve_channel("bsc:0.3", 0.5)
    assert d.n_atoms == 2
    d = resolve_channel("bec:0.5", 0.5)
    assert d.mass == pytest.approx(1.0)
    path = tmp_path / "d.json"
    path.write_text(json.dumps({"atoms": [[0.4, 0.1, 1.0], [0.1, 0.4, 1.0]]}))
    d = resolve_channel(f"file:{path}", 0.5)
    assert d.n_atoms == 2
    with pytest.raises(ValueError):
        resolve_channel("gauss:1.0", 0.5)
    with pytest.raises(ValueError):
        resolve_channel("bsc:oops", 0.5)


def test_bad_channel_exit_codes(capsys):
    assert run(["entropy", "--channel", "bsc:1.5"]) == EXIT_USAGE
    assert run(["entropy", "--channel", "file:/does/not/exist.json"]) == EXIT_USAGE
    assert "polarlens:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "blob",
    [
        # NaN passed the mass check and printed entries outside [0, 1]
        {"atoms": [[0.3, 0.1, 1], [0.1, 0.1, 1]], "normalization_tol": math.nan},
        {"atoms": [[0.45, 0.05, 1], [0.05, 0.45, 1]], "normalization_tol": -1e-9},
        {"atoms": [[0.45, 0.05, 1], [0.05, 0.45, 1]], "normalization_tol": None},
        {"atoms": [[0.45, 0.05, 1], [0.05, 0.45, 1]], "normalization_tol": [1]},
        {"atoms": 5},
        {"atoms": [0.5]},
        # bools and strings were coerced by float(): all zeros, and 1.0
        {"atoms": [[True, False]]},
        {"atoms": [["0.5", "0.5"]]},
    ],
    ids=["tol-nan", "tol-negative", "tol-null", "tol-list", "atoms-number", "atom-number",
         "atom-bools", "atom-strings"],
)
def test_malformed_distribution_file_exits_2(blob, tmp_path, capsys):
    path = tmp_path / "d.json"
    path.write_text(json.dumps(blob))
    code = run(["polarize", "--channel", f"file:{path}", "--n", "1", "--alpha", "0.5,1,2"])
    assert code == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1 and err.startswith("polarlens: ")
    assert ("normalization_tol" if "normalization_tol" in blob else "atom") in err


def _polarize_entries(blob, tmp_path, capsys) -> np.ndarray:
    path = tmp_path / "d.json"
    path.write_text(json.dumps(blob))
    code = run(["polarize", "--channel", f"file:{path}", "--n", "1", "--alpha", "0.5,1,2"])
    assert code == EXIT_OK
    entries = parse_tables(capsys.readouterr().out)[0]
    return np.array([float(row[3]) for row in entries.rows])


def test_file_mass_off_one_is_evaluated_at_unit_mass(tmp_path, capsys):
    # mass 0.6 admitted by its tolerance printed Shannon entries -0.44 and 1.49
    loose = {"atoms": [[0.3, 0.1, 1], [0.1, 0.1, 1]], "normalization_tol": 0.5}
    got = _polarize_entries(loose, tmp_path, capsys)
    unit = {"atoms": [[0.3, 0.1, 1 / 0.6], [0.1, 0.1, 1 / 0.6]]}
    want = _polarize_entries(unit, tmp_path, capsys)
    assert np.all((0.0 <= got) & (got <= 1.0))
    assert np.max(np.abs(got - want)) <= 1e-12
    # a mass within the default tolerance keeps its weights bit for bit
    atoms = [[0.3, 0.1, 1], [0.1, 0.1, 3.0000000004]]
    assert from_json_dict({"atoms": atoms}).weight.tolist() == [1.0, 3.0000000004]


#: Valid inputs of the two JSON files the CLI reads; the fuzz below swaps
#: one value for a small JSON value and wants exit 0, or 2 with one line.
FUZZ_BASES = {
    "perturb": {
        "mode": "uniform",
        "base_weights": [0.5, 0.5],
        "deltas": [0.01, -0.02],
        "alphas": [2, 2.5],
        "halvings": 1,
    },
    "entropy": {
        "atoms": [[0.45, 0.05, 1.0], [0.05, 0.2, 1.0], [0.125, 0.125, 1.0]],
        "normalization_tol": 1e-9,
    },
}

# integers stay small: a large valid halvings count is slow, not wrong
_JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 8),
    st.sampled_from([math.nan, math.inf, -math.inf, 1.9]),
)
_JSON_VALUES = st.one_of(
    _JSON_SCALARS,
    st.text(max_size=3),
    st.lists(_JSON_SCALARS, max_size=3),
    st.dictionaries(st.text(max_size=2), _JSON_SCALARS, max_size=2),
)


@pytest.mark.parametrize("kind", sorted(FUZZ_BASES))
@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(data=st.data())
def test_json_inputs_exit_0_or_2(kind, data, tmp_path_factory):
    blob = dict(FUZZ_BASES[kind])
    key = data.draw(st.sampled_from(sorted(blob)), label="key")
    blob[key] = data.draw(_JSON_VALUES, label="value")
    path = tmp_path_factory.getbasetemp() / f"fuzz-{kind}.json"
    path.write_text(json.dumps(blob))
    if kind == "perturb":
        args = ["perturb", "--spec", str(path)]
    else:
        args = ["entropy", "--channel", f"file:{path}"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(args)
    assert code in (EXIT_OK, EXIT_USAGE)
    if code == EXIT_USAGE:
        assert out.getvalue() == ""
        assert len(err.getvalue().splitlines()) == 1 and "Traceback" not in err.getvalue()
    else:
        assert out.getvalue() != ""


def test_capacity_exit_code(tmp_path, capsys):
    path = tmp_path / "d.json"
    path.write_text(
        json.dumps(
            {"atoms": [[0.45, 0.05, 1.0], [0.05, 0.2, 1.0], [0.125, 0.125, 1.0]]}
        )
    )
    code = run(
        ["polarize", "--channel", f"file:{path}", "--n", "3", "--alpha", "0.5",
         "--atom-cap", "10"]
    )
    assert code == EXIT_USAGE
    assert "resource limit" in capsys.readouterr().err


@pytest.mark.parametrize("cap", ["-5", "0"])
def test_atom_cap_below_one_is_a_usage_error(cap, capsys):
    code = run(["polarize", "--channel", "bsc:0.2", "--n", "2", "--alpha", "1", "--atom-cap", cap])
    assert code == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and err == f"polarlens: atom_cap must be an integer >= 1, got {cap}\n"


def test_table_round_trip():
    sections = [
        make_section("demo", ["a", "b"], [[1, 0.25], ["x", float("inf")]]),
        make_section("empty", ["only"], []),
    ]
    for fmt in ("csv", "json"):
        text = render_tables(sections, fmt)
        assert parse_tables(text) == sections


def test_float_cells_round_trip_exactly():
    value = 0.1 + 0.2  # not representable prettily; repr must round-trip
    section = make_section("v", ["x"], [[value]])
    text = render_tables([section], "csv")
    back = parse_tables(text)
    assert float(back[0].rows[0][0]) == value
