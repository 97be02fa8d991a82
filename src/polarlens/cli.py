"""Command-line surface.

Subcommands
-----------
polarize         full sub-channel entropy profile of a channel at one level
verify           randomized/self-checking property suites
example-extreme  closed form vs direct evaluation of the designed source
perturb          exact vs approximate power-sum deviation sweeps
entropy          conditional/marginal/joint entropies of a distribution file

All tabular output goes through one writer with two formats (csv, json)
that carry identical cell strings, so files round-trip between formats
without value change.  Exit status: 0 = success, 1 = property violation,
2 = usage or resource errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import NamedTuple, Sequence

import numpy as np

from .bruteforce import brute_force_profile, minkowski_check
from .distributions import (
    CapacityError,
    DistributionError,
    JointDistribution,
    load_file,
    make_bec,
    make_bsc,
    random_joint,
)
from .entropy import (
    EXTENDED_ORDER_GRID,
    ORDER_ONE,
    Order,
    as_order,
    chain_rule_entropies,
    chain_rule_entropies_many,
    conditional_renyi,  # noqa: F401  perfbench/tracing.py patches this attribute
)
from .experiments import PerturbationSpec, extreme_example_sweep, perturbation_sweep
from .transform import (
    DEFAULT_ATOM_CAP,
    check_band,
    level_profile,
    level_profile_sweep,
    one_step_reports,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2


# ---------------------------------------------------------------------------
# Table plumbing: one section = name + header + string rows
# ---------------------------------------------------------------------------


class Section(NamedTuple):
    name: str
    columns: tuple[str, ...]
    rows: list[tuple[str, ...]]


def _cell(value) -> str:
    """Stringify a cell; floats use repr so they round-trip bit-exactly."""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def make_section(name: str, columns: Sequence[str], raw_rows) -> Section:
    rows = [tuple(_cell(v) for v in row) for row in raw_rows]
    return Section(name, tuple(columns), rows)


def render_tables(sections: list[Section], fmt: str) -> str:
    if fmt == "json":
        payload = {
            "sections": [
                {"name": s.name, "columns": list(s.columns), "rows": [list(r) for r in s.rows]}
                for s in sections
            ]
        }
        return json.dumps(payload, indent=2) + "\n"
    if fmt == "csv":
        blocks = []
        for s in sections:
            lines = [f"# {s.name}", ",".join(s.columns)]
            lines.extend(",".join(r) for r in s.rows)
            blocks.append("\n".join(lines))
        return "\n\n".join(blocks) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


def parse_tables(text: str) -> list[Section]:
    """Read either format back into sections (cells stay strings)."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        payload = json.loads(text)
        return [
            Section(s["name"], tuple(s["columns"]), [tuple(r) for r in s["rows"]])
            for s in payload["sections"]
        ]
    sections: list[Section] = []
    for block in stripped.split("\n\n"):
        lines = [ln for ln in block.strip().splitlines() if ln]
        if not lines:
            continue
        name = "table"
        if lines[0].startswith("#"):
            name = lines[0][1:].strip()
            lines = lines[1:]
        columns = tuple(lines[0].split(","))
        rows = [tuple(ln.split(",")) for ln in lines[1:]]
        sections.append(Section(name, columns, rows))
    return sections


def read_tables(path: str) -> list[Section]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_tables(fh.read())


def _emit(sections: list[Section], out: str | None, fmt: str) -> None:
    text = render_tables(sections, fmt)
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {out}", file=sys.stderr)


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------


def _parse_orders(text: str) -> tuple[Order, ...]:
    orders = tuple(as_order(tok) for tok in text.split(",") if tok.strip())
    if not orders:
        raise ValueError("--alpha needs at least one order")
    return orders


def _parse_bands(text: str) -> tuple[float, ...]:
    bands = tuple(check_band(float(tok)) for tok in text.split(",") if tok.strip())
    if not bands:
        raise ValueError("--delta needs at least one band")
    return bands


def resolve_channel(spec: str, prior0: float) -> JointDistribution:
    kind, _, arg = spec.partition(":")
    if kind == "bsc":
        return make_bsc(float(arg), prior0)
    if kind == "bec":
        return make_bec(float(arg), prior0)
    if kind == "file":
        return load_file(arg)
    raise DistributionError(
        f"channel spec {spec!r} not understood; use bsc:p, bec:e, or file:PATH"
    )


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_polarize(ns) -> int:
    orders = _parse_orders(ns.alpha)
    if ns.sort_shannon and ORDER_ONE not in orders:
        print("polarize: --sort-shannon needs order 1 in --alpha", file=sys.stderr)
        return EXIT_USAGE
    bands = _parse_bands(ns.delta)
    root = resolve_channel(ns.channel, ns.prior0)
    profile = level_profile(root, ns.n, orders, atom_cap=ns.atom_cap)
    columns = ["n", "index", "alpha", "entropy"]
    ranks = None
    if ns.sort_shannon:
        perm = profile.presentation_permutation()
        ranks = np.empty(perm.shape[0], dtype=np.int64)
        ranks[perm] = np.arange(perm.shape[0])
        columns.append("shannon_rank")
    rows = []
    for i in range(1 << ns.n):
        for k, order in enumerate(profile.orders):
            row = [ns.n, i + 1, order, float(profile.entries[k, i])]
            if ranks is not None:
                row.append(int(ranks[i]))
            rows.append(row)
    entries = make_section("entries", columns, rows)

    # entries polarize toward {0, 1} with a conserved level mean, so
    # frac_high tends to the root entropy and frac_low to its complement:
    # those limits are the predicted columns
    summary_rows = []
    for band in bands:
        for k, order in enumerate(profile.orders):
            low, high = profile.extreme_fractions(order, band)
            root = float(profile.root_entropy[k])
            summary_rows.append(
                [order, band, low, high, 1.0 - root, root, profile.average(order), root]
            )
    summary = make_section(
        "summary",
        [
            "alpha",
            "band",
            "frac_low",
            "frac_high",
            "predicted_low",
            "predicted_high",
            "level_mean",
            "root_entropy",
        ],
        summary_rows,
    )
    _emit([entries, summary], ns.out, ns.format)
    return EXIT_OK


def cmd_entropy(ns) -> int:
    root = resolve_channel(ns.channel, ns.prior0)
    orders = _parse_orders(ns.alpha)
    # columns: conditional, output, joint, chain residual
    rows = [[o, *terms] for o, terms in zip(orders, chain_rule_entropies(root, orders).T.tolist())]
    section = make_section(
        "entropies", ["alpha", "conditional", "output", "joint", "chain_residual"], rows
    )
    _emit([section], ns.out, ns.format)
    return EXIT_OK


def cmd_example_extreme(ns) -> int:
    if not 2 <= ns.nmin < ns.nmax:
        print("example-extreme: need 2 <= nmin < nmax", file=sys.stderr)
        return EXIT_USAGE
    orders = _parse_orders(ns.alpha) if ns.alpha is not None else None
    rows = [
        [r.size, r.order, r.closed_form, r.direct, r.abs_diff]
        for r in extreme_example_sweep(ns.alpha0, range(ns.nmin, ns.nmax + 1), orders)
    ]
    section = make_section(
        "extreme_example", ["N", "alpha", "closed_form", "direct_eval", "abs_diff"], rows
    )
    _emit([section], ns.out, ns.format)
    return EXIT_OK


def cmd_perturb(ns) -> int:
    try:
        with open(ns.spec, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"perturb: cannot read spec {ns.spec}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        alphas = raw["alphas"] if "alphas" in raw else [raw["alpha"]]
        if not alphas:
            raise ValueError("alphas needs at least one order")
        halvings = ns.halvings if ns.halvings is not None else raw.get("halvings", 5)
        spec = PerturbationSpec(raw["mode"], raw["base_weights"], raw["deltas"])
        rows = [[spec.mode, *row] for row in perturbation_sweep(spec, alphas, halvings)]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        print(f"perturb: malformed spec: {exc}", file=sys.stderr)
        return EXIT_USAGE
    section = make_section(
        "perturbation",
        ["mode", "alpha", "delta_scale", "exact", "approx", "rel_error"],
        rows,
    )
    _emit([section], ns.out, ns.format)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Verification suites
# ---------------------------------------------------------------------------


# Each suite yields checks (deviation, bound) drawn from its seeded rng; a
# check passes only if deviation <= bound, so a NaN deviation fails.


#: Trials the chain and lemma1 suites draw, and evaluate in stacked passes,
#: at once: enough to fill the stacks, few enough that a batch's laws,
#: children and reports stay near 1 MiB.
_SUITE_BATCH = 200


def _batches(trials: int):
    for start in range(0, trials, _SUITE_BATCH):
        yield range(start, min(trials, start + _SUITE_BATCH))


def _suite_chain(trials: int, seed: int):
    rng = np.random.default_rng(seed)
    for batch in _batches(trials):
        laws = [random_joint(rng) for _ in batch]
        for rows in chain_rule_entropies_many(laws, EXTENDED_ORDER_GRID):
            for residual in rows[3].tolist():
                yield abs(residual), 1e-10


def _suite_lemma1(trials: int, seed: int):
    rng = np.random.default_rng(seed)
    for batch in _batches(trials):
        pairs = []
        for t in batch:
            a = random_joint(rng)
            pairs.append((a, a if t % 3 == 0 else random_joint(rng)))
        for reps in one_step_reports(pairs, orders=EXTENDED_ORDER_GRID):
            for rep in reps:
                lo, hi = min(rep.parent_a, rep.parent_b), max(rep.parent_a, rep.parent_b)
                yield hi - rep.minus, 1e-12  # minus must dominate both parents
                yield rep.plus - lo, 1e-12  # plus must trail both parents
                yield abs(rep.conservation_residual), 1e-9


def _suite_martingale(trials: int, seed: int):
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        d = random_joint(rng)
        for profile in level_profile_sweep(d, 3, EXTENDED_ORDER_GRID):
            for k, order in enumerate(profile.orders):
                yield abs(profile.average(order) - float(profile.root_entropy[k])), 1e-6


def _suite_oracle(trials: int, seed: int):
    rng = np.random.default_rng(seed)
    cases = [(make_bsc(0.2), 2), (make_bsc(0.2), 3)]
    for _ in range(trials):
        cases += [(random_joint(rng, 2, 8), 2), (random_joint(rng, 2, 3), 3)]
    for root, level in cases:
        fast = level_profile(root, level, EXTENDED_ORDER_GRID)
        slow = brute_force_profile(root, level, EXTENDED_ORDER_GRID)
        for dev in np.abs(fast.entries - slow).ravel().tolist():
            yield dev, 1e-9


def _suite_minkowski(trials: int, seed: int):
    rng = np.random.default_rng(seed)
    for t in range(trials):
        dim = int(rng.integers(1, 7))
        x = rng.exponential(size=dim)
        y = float(rng.exponential()) * x if t % 10 == 0 else rng.exponential(size=dim)
        p = float(rng.choice([0.3, 0.5, 0.9, 1.0, 1.5, 2.0, 3.0, 10.0]))
        rep = minkowski_check(x, y, p)
        # minkowski_check's verdicts decide: bound inf if it held, NaN if not
        deficit = rep.lhs - rep.rhs if p >= 1 else rep.rhs - rep.lhs
        yield deficit, math.inf if rep.satisfied else math.nan
        if t % 10 == 0:
            # positively dependent vectors must sit on the equality case;
            # deviation 0.0 keeps this check out of the worst deviation
            yield 0.0, math.inf if rep.near_equality else math.nan


_SUITES = {
    "chain": _suite_chain,
    "lemma1": _suite_lemma1,
    "martingale": _suite_martingale,
    "oracle": _suite_oracle,
    "minkowski": _suite_minkowski,
}


def cmd_verify(ns) -> int:
    if ns.trials < 1:
        print("verify: --trials must be at least 1", file=sys.stderr)
        return EXIT_USAGE
    checks = violations = 0
    worst = 0.0
    for deviation, bound in _SUITES[ns.suite](ns.trials, ns.seed):
        checks += 1
        violations += not (deviation <= bound)
        if deviation > worst or math.isnan(deviation):
            worst = deviation
    status = "PASS" if violations == 0 else "FAIL"
    print(
        f"suite {ns.suite}: trials={ns.trials} checks={checks} "
        f"violations={violations} worst={worst:.3e} {status}"
    )
    if ns.out:
        section = make_section(
            "verify",
            ["suite", "trials", "checks", "violations", "worst"],
            [[ns.suite, ns.trials, checks, violations, worst]],
        )
        _emit([section], ns.out, ns.format)
    return EXIT_OK if violations == 0 else EXIT_VIOLATION


# ---------------------------------------------------------------------------
# Argument wiring
# ---------------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", default=None, help="output file (default: stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--seed", type=int, default=0, help="seed for randomized draws")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polarlens",
        description="Exact conditional Renyi entropy polarization toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("polarize", help="sub-channel entropy profile at a level")
    p.add_argument("--channel", default="bsc:0.2", help="bsc:p | bec:e | file:PATH")
    p.add_argument("--prior0", type=float, default=0.5)
    p.add_argument("--n", type=int, default=7, help="transform depth")
    p.add_argument("--alpha", default="0.1,0.5,1,2,10,100", help="comma list; 0 and inf allowed")
    p.add_argument("--delta", default="0.1,0.01", help="extremal band widths")
    p.add_argument("--atom-cap", type=int, default=DEFAULT_ATOM_CAP)
    p.add_argument("--sort-shannon", action="store_true")
    _add_common(p)
    p.set_defaults(func=cmd_polarize)

    p = sub.add_parser("verify", help="run a property suite")
    p.add_argument("--suite", choices=sorted(_SUITES), required=True)
    p.add_argument("--trials", type=int, default=100)
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("example-extreme", help="designed-source sweep")
    p.add_argument("--alpha0", type=float, default=2.0)
    p.add_argument("--nmin", type=int, default=8)
    p.add_argument("--nmax", type=int, default=28)
    p.add_argument("--alpha", default=None, help="override evaluated orders")
    _add_common(p)
    p.set_defaults(func=cmd_example_extreme)

    p = sub.add_parser("perturb", help="perturbation accuracy sweep from a JSON spec")
    p.add_argument("--spec", required=True, help="JSON perturbation spec file")
    p.add_argument("--halvings", type=int, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_perturb)

    p = sub.add_parser("entropy", help="entropies of one distribution")
    p.add_argument("--channel", required=True, help="bsc:p | bec:e | file:PATH")
    p.add_argument("--prior0", type=float, default=0.5)
    p.add_argument("--alpha", default="0,0.5,1,2,inf")
    _add_common(p)
    p.set_defaults(func=cmd_entropy)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        return ns.func(ns)
    except (CapacityError, MemoryError) as exc:
        print(f"polarlens: resource limit: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DistributionError, ValueError) as exc:
        print(f"polarlens: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
