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
    DEFAULT_ORDER_GRID,
    EXTENDED_ORDER_GRID,
    Order,
    as_order,
    chain_rule_residual,
    conditional_renyi,
    joint_renyi,
    output_renyi,
)
from .experiments import (
    PerturbationSpec,
    extreme_example_sweep,
    extremal_fractions,
    perturbation_sweep,
)
from .transform import (
    DEFAULT_ATOM_CAP,
    level_profile,
    level_profile_sweep,
    one_step_report,
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
    if isinstance(value, Order):
        return str(value)
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
    return tuple(as_order(tok) for tok in text.split(",") if tok.strip())


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.split(",") if tok.strip())


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
    bands = _parse_floats(ns.delta)
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

    summary_rows = []
    for band in bands:
        for k, frac in enumerate(extremal_fractions(profile, band)):
            summary_rows.append(
                [
                    frac.order,
                    band,
                    frac.frac_low,
                    frac.frac_high,
                    frac.predicted_low,
                    frac.predicted_high,
                    profile.average(frac.order),
                    float(profile.root_entropy[k]),
                ]
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
    rows = []
    for order in _parse_orders(ns.alpha):
        rows.append(
            [
                order,
                conditional_renyi(root, order),
                output_renyi(root, order),
                joint_renyi(root, order),
                chain_rule_residual(root, order),
            ]
        )
    section = make_section(
        "entropies", ["alpha", "conditional", "output", "joint", "chain_residual"], rows
    )
    _emit([section], ns.out, ns.format)
    return EXIT_OK


def cmd_example_extreme(ns) -> int:
    if not ns.alpha0 > 1:
        print("example-extreme: --alpha0 must exceed 1", file=sys.stderr)
        return EXIT_USAGE
    if not 2 <= ns.nmin < ns.nmax:
        print("example-extreme: need 2 <= nmin < nmax", file=sys.stderr)
        return EXIT_USAGE
    orders = _parse_orders(ns.alpha) if ns.alpha else None
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
        halvings = int(ns.halvings if ns.halvings is not None else raw.get("halvings", 5))
        rows = []
        for alpha in alphas:
            spec = PerturbationSpec(
                mode=raw["mode"],
                base_weights=tuple(raw["base_weights"]),
                deltas=tuple(raw["deltas"]),
                order=as_order(alpha),
            )
            for row in perturbation_sweep(spec, halvings):
                rows.append(
                    [spec.mode, spec.order, row.scale, row.exact, row.approx, row.rel_error]
                )
    except (KeyError, TypeError, ValueError) as exc:
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


class SuiteResult(NamedTuple):
    suite: str
    trials: int
    checks: int
    violations: int
    worst: float


def _suite_chain(trials: int, seed: int) -> SuiteResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    checks = violations = 0
    for _ in range(trials):
        d = random_joint(rng)
        for order in EXTENDED_ORDER_GRID:
            resid = abs(chain_rule_residual(d, order))
            worst = max(worst, resid)
            checks += 1
            violations += resid > 1e-10
    return SuiteResult("chain", trials, checks, violations, worst)


def _suite_lemma1(trials: int, seed: int) -> SuiteResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    checks = violations = 0
    for t in range(trials):
        a = random_joint(rng)
        b = a if t % 3 == 0 else random_joint(rng)
        for rep in one_step_report(a, b, EXTENDED_ORDER_GRID, slack=1e-12):
            lo, hi = min(rep.parent_a, rep.parent_b), max(rep.parent_a, rep.parent_b)
            gaps = (
                hi - rep.minus,  # minus must dominate both parents
                rep.plus - lo,  # plus must trail both parents
                abs(rep.conservation_residual),
            )
            worst = max(worst, *gaps)
            checks += 3
            violations += (gaps[0] > 1e-12) + (gaps[1] > 1e-12) + (gaps[2] > 1e-9)
    return SuiteResult("lemma1", trials, checks, violations, worst)


def _suite_martingale(trials: int, seed: int) -> SuiteResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    checks = violations = 0
    for _ in range(trials):
        d = random_joint(rng)
        for profile in level_profile_sweep(d, 3, EXTENDED_ORDER_GRID):
            for k, order in enumerate(profile.orders):
                dev = abs(profile.average(order) - float(profile.root_entropy[k]))
                worst = max(worst, dev)
                checks += 1
                violations += dev > 1e-6
    return SuiteResult("martingale", trials, checks, violations, worst)


def _suite_oracle(trials: int, seed: int) -> SuiteResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    checks = violations = 0

    def compare(root: JointDistribution, level: int):
        nonlocal worst, checks, violations
        fast = level_profile(root, level, EXTENDED_ORDER_GRID)
        slow = brute_force_profile(root, level, EXTENDED_ORDER_GRID)
        dev = float(np.max(np.abs(fast.entries - slow)))
        worst = max(worst, dev)
        checks += slow.size
        violations += dev > 1e-9

    for level in (2, 3):
        compare(make_bsc(0.2), level)
    for _ in range(trials):
        compare(random_joint(rng, 2, 8), 2)
        compare(random_joint(rng, 2, 3), 3)
    return SuiteResult("oracle", trials, checks, violations, worst)


def _suite_minkowski(trials: int, seed: int) -> SuiteResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    checks = violations = 0
    for t in range(trials):
        dim = int(rng.integers(1, 7))
        x = rng.exponential(size=dim)
        y = float(rng.exponential()) * x if t % 10 == 0 else rng.exponential(size=dim)
        p = float(rng.choice([0.3, 0.5, 0.9, 1.0, 1.5, 2.0, 3.0, 10.0]))
        rep = minkowski_check(x, y, p)
        deficit = rep.lhs - rep.rhs if p >= 1 else rep.rhs - rep.lhs
        worst = max(worst, deficit)
        checks += 1
        violations += not rep.satisfied
        if t % 10 == 0:
            # positively dependent vectors must sit on the equality case
            checks += 1
            violations += not rep.near_equality
    return SuiteResult("minkowski", trials, checks, violations, worst)


_SUITES = {
    "chain": _suite_chain,
    "lemma1": _suite_lemma1,
    "martingale": _suite_martingale,
    "oracle": _suite_oracle,
    "minkowski": _suite_minkowski,
}


def cmd_verify(ns) -> int:
    result = _SUITES[ns.suite](ns.trials, ns.seed)
    status = "PASS" if result.violations == 0 else "FAIL"
    print(
        f"suite {result.suite}: trials={result.trials} checks={result.checks} "
        f"violations={result.violations} worst={result.worst:.3e} {status}"
    )
    if ns.out:
        section = make_section(
            "verify",
            ["suite", "trials", "checks", "violations", "worst"],
            [[result.suite, result.trials, result.checks, result.violations, result.worst]],
        )
        _emit([section], ns.out, ns.format)
    return EXIT_OK if result.violations == 0 else EXIT_VIOLATION


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
