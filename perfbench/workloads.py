"""Workload inputs, ops and correctness checks.

Every workload is built from its seed alone and exposes ``ops()``: the
list of (name, callable) pairs that make up one round of its fixed work.
A callable returns a list of problems; an empty list means its output
passed every check.

Why these workloads:

* ``bsc7-grid`` -- BSC(0.2) swept to n=7 over {0, a_lo, a_hi, 1, 2, 10,
  100, inf}.  The non-integer and Shannon pair grids over the ratio groups
  take most of the time.  Grid cost does not depend on alpha, so seeds
  other than 0 (which uses the paper's 0.1 and 0.5) draw fresh
  non-integer orders at the same cost.  The crossover stays at 0.2
  because the grid work changes sevenfold across [0.1, 0.3].
* ``bec7-moments`` -- BEC(0.35) swept to n=7 over {0, 2, 3, m, 100, inf}.
  BEC parents have two ratio groups, so the grids vanish and the time
  goes to materialization (outer products plus canonical dedup).  n=7 is
  the deepest level the default atom cap allows at this erasure rate.
* ``verify-mix`` -- in-process CLI calls: every verify suite, the
  designed-source sweep and a perturbation sweep, i.e. the verification
  use of the same layers on generic random roots.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import shutil
from pathlib import Path

import numpy as np

from polarlens import cli, level_profile_sweep, make_bec, make_bsc, random_joint

#: Martingale bound of the tier-1 tests: |level mean - root entropy|.
MEAN_TOL = 1e-6
#: Slack on the minus >= plus order of every parent's children.
ORDER_SLACK = 1e-12
#: Designed-source closed form vs direct evaluation.
EXTREME_TOL = 1e-9

#: Root sizes (atoms) of the oracle suite's one trial per call: (level 2, level 3).
ORACLE_SIZES = ((2, 3), (4, 2), (6, 3), (8, 2))
#: Root sizes of the martingale suite's one trial per call.
MARTINGALE_SIZES = tuple(range(2, 9)) * 3


def check_sweep(profiles, levels: int, orders, zero_row_exact: bool) -> list[str]:
    """Range, martingale and minus/plus order checks on a level sweep."""
    problems = []
    if len(profiles) != levels:
        return [f"expected {levels} levels, got {len(profiles)}"]
    for prof in profiles:
        e = prof.entries
        lvl = prof.level
        if e.shape != (len(orders), 1 << lvl):
            problems.append(f"level {lvl}: entries of shape {e.shape}")
            continue
        if not (np.all(np.isfinite(e)) and e.min() >= 0.0 and e.max() <= 1.0):
            problems.append(f"level {lvl}: entry outside [0, 1] or not finite")
        dev = float(np.max(np.abs(e.mean(axis=1) - prof.root_entropy)))
        if not dev <= MEAN_TOL:
            problems.append(f"level {lvl}: level mean off root entropy by {dev:.3e}")
        gap = float(np.max(e[:, 1::2] - e[:, 0::2]))
        if gap > ORDER_SLACK:
            problems.append(f"level {lvl}: plus child exceeds minus child by {gap:.3e}")
        if zero_row_exact and not np.all(e[0] == 1.0):
            problems.append(f"level {lvl}: order-0 row is not exactly 1.0")
    return problems


class Sweep:
    """``level_profile_sweep`` of one root to a fixed depth."""

    def __init__(self, name, root, levels, orders, zero_row_exact):
        self.name = name
        self.root = root
        self.levels = levels
        self.orders = tuple(orders)
        self.zero_row_exact = zero_row_exact

    def ops(self):
        return [(self.name, self.sweep)]

    def sweep(self) -> list[str]:
        profiles = level_profile_sweep(self.root, self.levels, self.orders)
        return check_sweep(profiles, self.levels, self.orders, self.zero_row_exact)

    def close(self):
        pass


def bsc7_grid(seed: int) -> Sweep:
    if seed == 0:
        a_lo, a_hi = 0.1, 0.5
    else:
        rng = np.random.default_rng(seed)  # continuous draws: never integers
        a_lo, a_hi = float(rng.uniform(0.05, 0.95)), float(rng.uniform(1.05, 9.95))
    orders = (0.0, a_lo, a_hi, 1.0, 2.0, 10.0, 100.0, math.inf)
    return Sweep("sweep-bsc", make_bsc(0.2), 7, orders, zero_row_exact=True)


def bec7_moments(seed: int) -> Sweep:
    m = 10 if seed == 0 else int(np.random.default_rng(seed).integers(4, 65))
    orders = (0.0, 2.0, 3.0, float(m), 100.0, math.inf)
    return Sweep("sweep-bec", make_bec(0.35), 7, orders, zero_row_exact=False)


def run_cli(argv) -> tuple[int, str, str]:
    """``cli.main`` in this process with its output captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, out.getvalue(), err.getvalue()


def cli_op(argv, check=None):
    """An op running one CLI command: exit status 0, then ``check(stdout)``."""

    def op() -> list[str]:
        rc, out, err = run_cli(argv)
        if rc != 0:
            return [f"exit status {rc}: {err.strip()[-500:]}"]
        return check(out) if check else []

    return op


def check_verify(out: str) -> list[str]:
    return [] if "violations=0" in out and "PASS" in out else [f"suite reported: {out.strip()}"]


def _rows(out: str):
    [section] = cli.parse_tables(out)
    return [dict(zip(section.columns, row)) for row in section.rows]


def check_extreme(out: str) -> list[str]:
    rows = _rows(out)
    worst = max(float(r["abs_diff"]) for r in rows)
    ok = len(rows) == 2 * 21 and worst <= EXTREME_TOL
    return [] if ok else [f"{len(rows)} rows, worst abs_diff {worst:.3e}"]


def check_perturb(rows_expected: int):
    def check(out: str) -> list[str]:
        rows = _rows(out)
        finite = all(
            math.isfinite(float(r[k])) for r in rows for k in ("exact", "approx", "rel_error")
        )
        ok = finite and len(rows) == rows_expected
        return [] if ok else [f"{len(rows)} rows, all finite: {finite}"]

    return check


def _seeds_with_sizes(start: int, sizes, size_of):
    """CLI seeds, scanned upward from ``start``, whose first trial draws ``sizes``.

    Suite cost depends on the drawn root sizes (the level-3 oracle over a
    3-atom root enumerates 25x the states of a 2-atom root), so each call
    runs one trial whose sizes are fixed here while the values follow the
    workload seed.
    """
    seeds = []
    candidates = itertools.count(start)
    for want in sizes:
        seeds.append(next(c for c in candidates if size_of(c) == want))
    return seeds


def _oracle_sizes(cli_seed: int):
    rng = np.random.default_rng(cli_seed)
    return random_joint(rng, 2, 8).n_atoms, random_joint(rng, 2, 3).n_atoms


def _martingale_size(cli_seed: int) -> int:
    return random_joint(np.random.default_rng(cli_seed)).n_atoms


class VerifyMix:
    """The verify suites, the designed-source sweep and a perturbation sweep."""

    ALPHAS = (2, 3, 2.5, 7.5)
    HALVINGS = 5

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng(seed)
        q = rng.exponential(size=200)
        q /= q.sum()
        spec = {
            "mode": "uniform",
            "base_weights": q.tolist(),
            "deltas": (q / 2.0 * rng.uniform(-0.5, 0.5, size=q.size)).tolist(),
            "alphas": list(self.ALPHAS),
        }
        spec_path = workdir / "perturb-spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")

        s = str(seed)
        base = seed * 1_000_003
        self._ops = []
        for c in _seeds_with_sizes(base, ORACLE_SIZES, _oracle_sizes):
            self._suite("oracle", 1, c)
        for c in _seeds_with_sizes(base, MARTINGALE_SIZES, _martingale_size):
            self._suite("martingale", 1, c)
        self._suite("lemma1", 1000, seed)
        self._suite("chain", 1000, seed)
        self._suite("minkowski", 2000, seed)
        self._ops.append((
            "example-extreme",
            cli_op(["example-extreme", "--nmin", "8", "--nmax", "28",
                    "--format", "json", "--seed", s], check_extreme),
        ))
        self._ops.append((
            "perturb",
            cli_op(["perturb", "--spec", str(spec_path), "--halvings", str(self.HALVINGS),
                    "--format", "json", "--seed", s],
                   check_perturb(len(self.ALPHAS) * (self.HALVINGS + 1))),
        ))

    def _suite(self, suite: str, trials: int, cli_seed: int):
        argv = ["verify", "--suite", suite, "--trials", str(trials), "--seed", str(cli_seed)]
        self._ops.append((f"verify-{suite}", cli_op(argv, check_verify)))

    def ops(self):
        return list(self._ops)

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


def build(name: str, seed: int, workdir: Path):
    if name == "bsc7-grid":
        return bsc7_grid(seed)
    if name == "bec7-moments":
        return bec7_moments(seed)
    if name == "verify-mix":
        return VerifyMix(seed, workdir)
    raise ValueError(f"unknown workload {name!r}")
