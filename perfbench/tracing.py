"""Spans around the library's public functions, for the traced run only.

Each wrapped function is replaced under the name its consuming module
imported it as (``polarlens.transform.child_entropies``,
``polarlens.cli.brute_force_profile``, ...), so calls made inside the
library are timed where they happen.  A span is (name, start, end, parent)
plus the counts taken at that boundary; spans stay in memory until the run
ends.  Untraced runs never import this module.
"""

from __future__ import annotations

import functools
import time

import numpy as np

import polarlens.cli
import polarlens.entropy
import polarlens.experiments
import polarlens.transform
from polarlens import as_order

#: Integral orders from 2 up to this take the split kernel's moment expansion.
MOMENT_MAX_ORDER = 512

#: Order classes of the split kernel, each timed on its own.
CLASSES = ("zero", "inf", "moment", "grid", "shannon")

SUITES = ("chain", "lemma1", "martingale", "minkowski", "oracle")

#: Every per-layer metric, with its unit, in the order it is reported.
PER_LAYER = (
    [("transform.split_s", "s"), ("transform.split_calls", "count")]
    + [(f"transform.split_{c}_s", "s") for c in CLASSES]
    + [
        ("transform.ratio_groups", "count"),
        ("transform.max_ratio_groups", "count"),
        ("transform.grid_elems", "count"),
        ("transform.grid_elems_per_s", "1/s"),
        ("transform.moment_terms", "count"),
        ("transform.grid_shannon_share", "ratio"),
        ("transform.pair_s", "s"),
        ("transform.pair_self_s", "s"),
        ("transform.pair_calls", "count"),
        ("transform.raw_atoms", "count"),
        ("transform.kept_atoms", "count"),
        ("transform.keep_ratio", "ratio"),
        ("transform.pair_share", "ratio"),
        ("distributions.canonical_s", "s"),
        ("distributions.canonical_atoms_in", "count"),
        ("entropy.conditional_s", "s"),
        ("entropy.conditional_calls", "count"),
        ("entropy.power_sum_s", "s"),
        ("entropy.power_sum_calls", "count"),
        ("bruteforce.oracle_s", "s"),
        ("bruteforce.oracle_calls", "count"),
        ("bruteforce.joint_states", "count"),
        ("experiments.perturb_s", "s"),
        ("experiments.perturb_rows", "count"),
        ("experiments.extreme_s", "s"),
    ]
    + [(f"cli.suite_s.{s}", "s") for s in SUITES]
    + [
        ("cli.render_s", "s"),
        ("cli.output_bytes", "bytes"),
        ("trace.solve_s", "s"),
        ("trace.overhead_s", "s"),
    ]
)


def order_class(o) -> str:
    if o.kind == "zero":
        return "zero"
    if o.kind == "infinity":
        return "inf"
    if o.kind == "one":
        return "shannon"
    return "moment" if o.is_integer and o.alpha <= MOMENT_MAX_ORDER else "grid"


def ratio_groups(parent) -> int:
    """Distinct odds p1/p0 after scaling by the largest symbol mass.

    This is the grouping the split kernel's pair grids run over.
    """
    m = np.max(parent.p0 + parent.p1)
    return int(np.unique((parent.p1 / m) / (parent.p0 / m)).size)


def _pair_counts(result, a, b=None, **_):
    b = a if b is None else b
    return {"raw": 2 * a.n_atoms * b.n_atoms, "kept": result.minus.n_atoms + result.plus.n_atoms}


def _oracle_counts(result, root, level, *_, **__):
    n = 1 << level
    return {"states": root.n_atoms**n * 2**n}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, counts]
        self._stack = []
        self._patches = []
        self._split_fn = polarlens.transform.child_entropies
        self.splits = []  # (parent, orders, combined result) per split call
        self.class_seconds = dict.fromkeys(CLASSES, 0.0)
        self.split_groups = []  # ratio groups per split call, 0 if none needed
        self.grid_elems = 0
        self.moment_terms = 0

    def _open(self, name: str):
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        return span

    def _close(self, span):
        span[2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, module, attr: str, name: str, counts=None):
        orig = getattr(module, attr)

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = orig(*args, **kwargs)
            finally:
                self._close(span)
            if counts is not None:
                span[4] = counts(result, *args, **kwargs)
            return result

        setattr(module, attr, traced)
        self._patches.append((module, attr, orig))

    def _split_counts(self, result, parent, orders, **_):
        self.splits.append((parent, tuple(orders), result))
        return {"atoms": parent.n_atoms}

    def install(self):
        transform, entropy, cli = polarlens.transform, polarlens.entropy, polarlens.cli
        self._wrap(transform, "child_entropies", "transform.split", self._split_counts)
        self._wrap(transform, "transform_pair", "transform.pair", _pair_counts)
        self._wrap(transform, "canonicalize_orientation", "distributions.canonical",
                   lambda r, d, *a, **k: {"atoms_in": d.n_atoms})
        for module in (entropy, transform, polarlens.experiments, cli):
            self._wrap(module, "conditional_renyi", "entropy.conditional")
        for module in (entropy, transform):
            self._wrap(module, "log2_power_sum", "entropy.power_sum")
        self._wrap(cli, "brute_force_profile", "bruteforce.oracle", _oracle_counts)
        self._wrap(cli, "perturbation_sweep", "experiments.perturb",
                   lambda r, *a, **k: {"rows": len(r)})
        self._wrap(cli, "extreme_example_sweep", "experiments.extreme")
        self._wrap(cli, "render_tables", "cli.render",
                   lambda r, *a, **k: {"bytes": len(r.encode())})

    def uninstall(self):
        while self._patches:
            module, attr, orig = self._patches.pop()
            setattr(module, attr, orig)

    def suite_spans(self, ops):
        """The round's ops, each under a span named ``op.<name>``."""

        def spanned(name, fn):
            def op():
                span = self._open("op." + name)
                try:
                    return fn()
                finally:
                    self._close(span)

            return op

        return [(name, spanned(name, fn)) for name, fn in ops]

    def split_by_class(self) -> list[str]:
        """Re-run every traced split call one order class at a time.

        Each class's columns must equal the combined call's bit for bit.
        Runs after the traced round, unwrapped, so it does not count
        toward the traced round's time.
        """
        problems = []
        for parent, orders, combined in self.splits:
            orders = [as_order(o) for o in orders]
            rows = {}
            for k, o in enumerate(orders):
                rows.setdefault(order_class(o), []).append(k)
            for cls, idx in rows.items():
                t0 = time.perf_counter()
                part = self._split_fn(parent, [orders[k] for k in idx])
                self.class_seconds[cls] += time.perf_counter() - t0
                if not np.array_equal(part, combined[idx]):
                    problems.append(f"{cls} orders alone differ from the combined call")
            g = ratio_groups(parent) if rows.keys() - {"zero", "inf"} else 0
            self.split_groups.append(g)
            self.grid_elems += g * g * (len(rows.get("grid", ())) + len(rows.get("shannon", ())))
            self.moment_terms += g * sum(int(orders[k].alpha) + 1 for k in rows.get("moment", ()))
        return problems

    def level_shape(self) -> list[dict]:
        """Per-level parent shape, for a round that is one level sweep."""
        out = []
        start, level = 0, 0
        while start < len(self.splits):
            width = 1 << level
            parents = [s[0] for s in self.splits[start : start + width]]
            groups = self.split_groups[start : start + width]
            out.append({
                "level": level,
                "parents": len(parents),
                "atoms": sum(p.n_atoms for p in parents),
                "max_atoms": max(p.n_atoms for p in parents),
                "ratio_groups": sum(groups),
                "max_ratio_groups": max(groups, default=0),
            })
            start += width
            level += 1
        return out

    def span_records(self) -> list[list]:
        t0 = self.spans[0][1] if self.spans else 0.0
        return [[n, s - t0, e - t0, p, c] for n, s, e, p, c in self.spans]

    def totals(self) -> dict:
        """name -> [seconds, calls, summed counts]."""
        out = {}
        for name, start, end, _, counts in self.spans:
            entry = out.setdefault(name, [0.0, 0, {}])
            entry[0] += end - start
            entry[1] += 1
            for key, value in (counts or {}).items():
                entry[2][key] = entry[2].get(key, 0) + value
        return out


def layer_metrics(tracer: Tracer, untraced_s: float, traced_s: float) -> dict:
    tot = tracer.totals()

    def seconds(name):
        return tot.get(name, [0.0, 0, {}])[0]

    def calls(name):
        return tot.get(name, [0.0, 0, {}])[1]

    def count(name, key):
        return tot.get(name, [0.0, 0, {}])[2].get(key, 0)

    cs = tracer.class_seconds
    grid_s = cs["grid"] + cs["shannon"]
    class_s = sum(cs.values())
    # the class re-run gives the proportions; the traced round gives the time
    grid_in_round = seconds("transform.split") * grid_s / class_s if class_s > 0 else 0.0
    raw = count("transform.pair", "raw")
    kept = count("transform.pair", "kept")
    canonical_in_pair = sum(
        e - s
        for n, s, e, p, _ in tracer.spans
        if n == "distributions.canonical" and p >= 0 and tracer.spans[p][0] == "transform.pair"
    )
    values = {
        "transform.split_s": seconds("transform.split"),
        "transform.split_calls": calls("transform.split"),
        **{f"transform.split_{c}_s": cs[c] for c in CLASSES},
        "transform.ratio_groups": sum(tracer.split_groups),
        "transform.max_ratio_groups": max(tracer.split_groups, default=0),
        "transform.grid_elems": tracer.grid_elems,
        "transform.grid_elems_per_s": tracer.grid_elems / grid_s if grid_s > 0 else 0.0,
        "transform.moment_terms": tracer.moment_terms,
        "transform.grid_shannon_share": grid_in_round / traced_s,
        "transform.pair_s": seconds("transform.pair"),
        "transform.pair_self_s": seconds("transform.pair") - canonical_in_pair,
        "transform.pair_calls": calls("transform.pair"),
        "transform.raw_atoms": raw,
        "transform.kept_atoms": kept,
        "transform.keep_ratio": kept / raw if raw else 0.0,
        "transform.pair_share": seconds("transform.pair") / traced_s,
        "distributions.canonical_s": seconds("distributions.canonical"),
        "distributions.canonical_atoms_in": count("distributions.canonical", "atoms_in"),
        "entropy.conditional_s": seconds("entropy.conditional"),
        "entropy.conditional_calls": calls("entropy.conditional"),
        "entropy.power_sum_s": seconds("entropy.power_sum"),
        "entropy.power_sum_calls": calls("entropy.power_sum"),
        "bruteforce.oracle_s": seconds("bruteforce.oracle"),
        "bruteforce.oracle_calls": calls("bruteforce.oracle"),
        "bruteforce.joint_states": count("bruteforce.oracle", "states"),
        "experiments.perturb_s": seconds("experiments.perturb"),
        "experiments.perturb_rows": count("experiments.perturb", "rows"),
        "experiments.extreme_s": seconds("experiments.extreme"),
        **{f"cli.suite_s.{s}": seconds(f"op.verify-{s}") for s in SUITES},
        "cli.render_s": seconds("cli.render"),
        "cli.output_bytes": count("cli.render", "bytes"),
        "trace.solve_s": traced_s,
        "trace.overhead_s": traced_s - untraced_s,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
