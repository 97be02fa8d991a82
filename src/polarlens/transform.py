"""One-step channel combining/splitting and deep polarization profiles.

The basic transform takes two independent channel uses with inputs
X1 = U1 xor U2 and X2 = U2 and produces two synthetic channels:

* minus: U1 observed through (Y1, Y2),
* plus:  U2 observed through (Y1, Y2, U1).

On the atom representation the step is a weighted outer product.  For a
pair of parent atoms (a0, a1, wa) and (b0, b1, wb):

* minus atom  (a0*b0 + a1*b1,  a1*b0 + a0*b1)          weight wa*wb
* plus atoms  (a0*b0, a1*b1) and (a1*b0, a0*b1)        weight wa*wb each

Plus atoms of zero mass (both coordinates zero) are dropped; they are
output symbols that never occur.

Materializing subchannels squares the atom count per level, so deep
profiles are computed without building the final level.  For a parent
channel with power sums num = sum w * (p0^a + p1^a) and
den = sum w * (p0 + p1)^a, the self-paired children satisfy exactly

    den(minus) = den^2      num(plus) = num^2      den(plus) = num(minus)

leaving num(minus), a genuine pairwise sum, as the only new quantity per
parent.  It is evaluated by grouping atoms on their exact odds ratio
p1/p0, which collapses the pair grid by orders of magnitude, and by a
binomial moment expansion when the order is a small-to-moderate integer.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .distributions import (
    CapacityError,
    DistributionError,
    JointDistribution,
    canonicalize_orientation,
    dedup,
    _freeze,
)
from .entropy import (
    ORDER_ONE,
    Order,
    as_order,
    conditional_renyi,
    log2_power_sum,  # noqa: F401  perfbench/tracing.py patches this attribute
    power_sums,
    snap_to_unit,
)

#: Refuse transforms whose raw (pre-dedup) output would exceed this many atoms.
DEFAULT_ATOM_CAP = 50_000_000

#: Split evaluation streams its pair grids in constant memory, so its work
#: budget is this factor times the atom cap rather than the cap itself.
_SPLIT_WORK_FACTOR = 100

#: Elements per temporary block in chunked pair evaluations.
_PAIR_CHUNK = 1 << 22


def _thread_count() -> int:
    raw = os.environ.get("POLARLENS_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def _chunked_map(work, starts):
    """Apply ``work`` to every chunk start, preserving list order.

    Chunk boundaries depend only on problem size, and partial results are
    reduced in submission order, so the outcome is independent of the
    thread count.
    """
    threads = _thread_count()
    if threads == 1 or len(starts) <= 1:
        return [work(s) for s in starts]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(work, starts))


class TransformPair(NamedTuple):
    """The two synthetic channels produced by one combining/splitting step."""

    minus: JointDistribution
    plus: JointDistribution


def transform_pair(
    a: JointDistribution,
    b: JointDistribution | None = None,
    *,
    atom_cap: int = DEFAULT_ATOM_CAP,
    canonical: bool = True,
) -> TransformPair:
    """Apply one polar step to two independent parents (b defaults to a).

    Outputs are deduplicated; with ``canonical`` they are additionally
    reoriented so p0 >= p1 per atom, which shrinks them further without
    touching any entropy of theirs or of their descendants.

    Raises
    ------
    CapacityError
        If the raw product would exceed ``atom_cap`` atoms.
    """
    if b is None:
        b = a
    na, nb = a.n_atoms, b.n_atoms
    if 2 * na * nb > atom_cap:
        raise CapacityError(
            f"transform would create {2 * na * nb} raw atoms (cap {atom_cap}); "
            "raise atom_cap to allow it"
        )
    rows = max(1, _PAIR_CHUNK // max(1, nb))
    starts = list(range(0, na, rows))

    def build(s: int):
        a0 = a.p0[s : s + rows, None]
        a1 = a.p1[s : s + rows, None]
        wa = a.weight[s : s + rows, None]
        d00 = (a0 * b.p0).ravel()
        d11 = (a1 * b.p1).ravel()
        d10 = (a1 * b.p0).ravel()
        d01 = (a0 * b.p1).ravel()
        w = (wa * b.weight).ravel()
        return d00, d11, d10, d01, w

    parts = _chunked_map(build, starts)
    d00 = np.concatenate([p[0] for p in parts])
    d11 = np.concatenate([p[1] for p in parts])
    d10 = np.concatenate([p[2] for p in parts])
    d01 = np.concatenate([p[3] for p in parts])
    w = np.concatenate([p[4] for p in parts])

    minus = JointDistribution(_freeze(d00 + d11), _freeze(d10 + d01), _freeze(w))

    pp0 = np.concatenate([d00, d10])
    pp1 = np.concatenate([d11, d01])
    pw = np.concatenate([w, w])
    live = (pp0 + pp1) > 0.0
    plus = JointDistribution(_freeze(pp0[live]), _freeze(pp1[live]), _freeze(pw[live]))

    post = canonicalize_orientation if canonical else dedup
    return TransformPair(post(minus), post(plus))


@dataclass(frozen=True)
class SubchannelIndex:
    """Position of a synthetic channel: level n, index i in [1, 2^n].

    The path to a subchannel is the binary expansion of i - 1, most
    significant bit first; 0 selects the minus child, 1 the plus child.
    """

    level: int
    index: int

    def __post_init__(self):
        if self.level < 0:
            raise ValueError("level must be >= 0")
        if not 1 <= self.index <= (1 << self.level):
            raise ValueError(
                f"index must lie in [1, {1 << self.level}] at level {self.level}"
            )

    def path(self) -> tuple[int, ...]:
        bits = []
        v = self.index - 1
        for k in range(self.level - 1, -1, -1):
            bits.append((v >> k) & 1)
        return tuple(bits)

    def path_string(self) -> str:
        return "".join("+" if b else "-" for b in self.path()) or "(root)"

    def child(self, bit: int) -> "SubchannelIndex":
        if bit not in (0, 1):
            raise ValueError("bit must be 0 (minus) or 1 (plus)")
        return SubchannelIndex(self.level + 1, 2 * self.index - 1 + bit)


def synthesize(
    root: JointDistribution,
    index: SubchannelIndex,
    *,
    atom_cap: int = DEFAULT_ATOM_CAP,
) -> JointDistribution:
    """Materialize the joint distribution of one subchannel.

    Walks the path from the root, squaring the current channel at each
    step.  Atom counts grow quadratically per level, so this is meant for
    shallow levels and spot checks; deep profiles use the split evaluation
    in :func:`level_profile` instead.
    """
    cur = canonicalize_orientation(root)
    for bit in index.path():
        pair = transform_pair(cur, atom_cap=atom_cap)
        cur = pair.plus if bit else pair.minus
    return cur


# ---------------------------------------------------------------------------
# Split evaluation of child entropies without materializing the children.
# ---------------------------------------------------------------------------


class _RatioView:
    """Parent atoms scaled and grouped by their exact odds ratio p1/p0.

    Scaling: probabilities by 1/max symbol mass, weights by 1/total weight.
    Grouping by bitwise-equal ratio is an exact reordering of pair sums,
    since every pair term factors through p0i^a * p0j^a * f(r_i, r_j).
    """

    def __init__(self, d: JointDistribution):
        self.total_weight = float(np.sum(d.weight))
        self.max_mass = float(np.max(d.p0 + d.p1))
        p0 = d.p0 / self.max_mass
        p1 = d.p1 / self.max_mass
        w = d.weight / self.total_weight
        r = p1 / p0  # canonical atoms have p0 >= p1, hence p0 > 0
        order = np.argsort(r, kind="stable")
        self.p0 = p0[order]
        self.w = w[order]
        self.atom_ratios = r[order]
        boundary = np.empty(r.shape[0], dtype=bool)
        boundary[0] = True
        boundary[1:] = self.atom_ratios[1:] != self.atom_ratios[:-1]
        self.starts = np.flatnonzero(boundary)
        self.ratios = self.atom_ratios[self.starts]

    def group_sum(self, values: np.ndarray) -> np.ndarray:
        """Sum an atom-aligned array within each ratio group."""
        return np.add.reduceat(values, self.starts)


def _pair_grid_sum(view: _RatioView, alpha: float) -> float:
    """sum_{a,b} G(a) G(b) [(1 + r_a r_b)^alpha + (r_a + r_b)^alpha]."""
    ga = view.group_sum(view.w * view.p0**alpha)
    ratios = view.ratios
    n = ratios.shape[0]
    rows = max(1, _PAIR_CHUNK // n)
    starts = list(range(0, n, rows))

    def work(s: int) -> float:
        rc = ratios[s : s + rows, None]
        gc = ga[s : s + rows, None]
        cross = rc * ratios
        both = (1.0 + cross) ** alpha + (rc + ratios) ** alpha
        return float(np.sum(gc * ga * both))

    return math.fsum(_chunked_map(work, starts))


def _pair_moment_sum(view: _RatioView, alpha: int) -> float:
    """Binomial expansion of the pair sum for integral orders.

    (p0i p0j + p1i p1j)^a and (p1i p0j + p0i p1j)^a expand into products
    of mixed moments M_k = sum_i w p0^(a-k) p1^k, giving an O(atoms * a)
    evaluation with all-positive terms.
    """
    ga = view.group_sum(view.w * view.p0 ** float(alpha))
    moments = np.empty(alpha + 1)
    cur = np.ones_like(view.ratios)
    for k in range(alpha + 1):
        moments[k] = float(np.sum(ga * cur))
        cur = cur * view.ratios
    return math.fsum(
        math.comb(alpha, k) * (moments[k] * moments[k] + moments[k] * moments[alpha - k])
        for k in range(alpha + 1)
    )


#: Integral orders above this use the pair grid; the moment expansion
#: stays cheaper and sharper up to a few hundred.
_MOMENT_MAX_ORDER = 512


def minus_num_log2(view: _RatioView, alpha: float) -> float:
    """log2 of the minus child's joint power sum, with the view's scaling undone."""
    if float(alpha).is_integer() and 2 <= alpha <= _MOMENT_MAX_ORDER:
        pair = _pair_moment_sum(view, int(alpha))
    else:
        pair = _pair_grid_sum(view, alpha)
    return (
        2.0 * math.log2(view.total_weight)
        + 2.0 * alpha * math.log2(view.max_mass)
        + math.log2(pair)
    )


def _xlog2x(values: np.ndarray) -> np.ndarray:
    """Elementwise v * log2(v), taking 0 * log2(0) as 0."""
    out = np.zeros_like(values)
    np.log2(values, out=out, where=values > 0.0)
    out *= values
    return out


def _minus_shannon_joint(view: _RatioView) -> float:
    """Shannon entropy (bits) of the minus child's full joint law.

    Grouped like the power sums: with E(a) = sum w~ p0~ and
    L(a) = sum w~ p0~ log2 p0~ per ratio group, every pair block reduces
    to closed form in (E, L) and the pair's combined ratio terms.
    """
    e = view.group_sum(view.w * view.p0)
    with np.errstate(divide="ignore"):
        lg = np.where(view.p0 > 0.0, np.log2(view.p0), 0.0)
    l2 = view.group_sum(view.w * view.p0 * lg)
    r = view.ratios
    n = r.shape[0]
    rows = max(1, _PAIR_CHUNK // (4 * n))
    starts = list(range(0, n, rows))

    def work(s: int) -> float:
        rc = r[s : s + rows, None]
        ec = e[s : s + rows, None]
        lc = l2[s : s + rows, None]
        q0 = 1.0 + rc * r
        q1 = rc + r
        el = ec * l2 + lc * e
        ee = ec * e
        with np.errstate(divide="ignore", invalid="ignore"):
            lq1 = np.where(q1 > 0.0, np.log2(q1), 0.0)
        t = q0 * (el + ee * np.log2(q0)) + q1 * (el + ee * lq1)
        return float(np.sum(t))

    t_sum = math.fsum(_chunked_map(work, starts))
    mass = float(np.sum(view.w * view.p0 * (1.0 + view.atom_ratios)))
    scale = view.total_weight**2 * view.max_mass**2
    return -scale * (t_sum + 2.0 * math.log2(view.max_mass) * mass * mass)


def _support_triple(d: JointDistribution) -> tuple[float, float, float, float]:
    """Weighted counts (C0, C1, B, W): support of each input, both, and all."""
    c0 = float(np.sum(d.weight, where=d.p0 > 0.0))
    c1 = float(np.sum(d.weight, where=d.p1 > 0.0))
    b = float(np.sum(d.weight, where=(d.p0 > 0.0) & (d.p1 > 0.0)))
    return c0, c1, b, float(np.sum(d.weight))


def _zero_order_children(d: JointDistribution) -> tuple[float, float]:
    """H_0 of both children from the parent's support counts alone.

    Which child entries are positive depends only on which parent entries
    are, so inclusion-exclusion over the pair grid gives exact weighted
    support sizes without building it.
    """
    c0, c1, b, w = _support_triple(d)
    minus_c0 = c0 * c0 + c1 * c1 - b * b
    minus_c1 = 2.0 * c0 * c1 - b * b
    plus_c0 = c0 * c0 + c1 * c0
    plus_c1 = c1 * c1 + c0 * c1
    plus_symbols = minus_c0 + minus_c1
    # ratio-of-counts form: for all-positive parents both ratios are exact
    # powers of two in floating point, so these come out exactly 1.0
    h_minus = math.log2((minus_c0 + minus_c1) / (w * w))
    h_plus = math.log2((plus_c0 + plus_c1) / plus_symbols)
    return h_minus, h_plus


def _infinity_children(d: JointDistribution) -> tuple[float, float]:
    """H_inf of both children from parent maxima.

    The largest minus-child entry sits on the diagonal of the pair grid
    (Cauchy-Schwarz), and the largest plus-child symbol mass equals that
    same quantity, so three parent maxima settle both children.
    """
    max_mass = float(np.max(d.p0 + d.p1))
    max_entry = float(np.max(d.p0))  # canonical orientation: p0 >= p1
    diag = float(np.max(d.p0 * d.p0 + d.p1 * d.p1))
    h_minus = 2.0 * math.log2(max_mass) - math.log2(diag)
    h_plus = math.log2(diag) - 2.0 * math.log2(max_entry)
    return h_minus, h_plus


def child_entropies(
    parent: JointDistribution,
    orders: Sequence,
    *,
    atom_cap: int = DEFAULT_ATOM_CAP,
) -> np.ndarray:
    """Conditional entropies of both children of one parent, by split rules.

    The parent must be in canonical orientation (p0 >= p1 per atom).
    Returns an array of shape (len(orders), 2) with columns (minus, plus).
    Exact up to float rounding; no child distribution is materialized.

    Raises
    ------
    DistributionError
        If some atom has p1 > p0; see :func:`canonicalize_orientation`.
    CapacityError
        If an order needs a full pair grid over the parent's ratio groups
        and that grid exceeds ``_SPLIT_WORK_FACTOR * atom_cap`` elements.
        The grid is streamed, not stored, so its budget is time, not
        memory; raising ``atom_cap`` widens both budgets together.
    """
    if np.any(parent.p1 > parent.p0):
        raise DistributionError("parent must be canonical (p0 >= p1 per atom)")
    orders = [as_order(o) for o in orders]
    out = np.empty((len(orders), 2))
    finite = [o for o in orders if o.kind == "finite"]
    need_one = any(o.kind == "one" for o in orders)
    view = _RatioView(parent) if (finite or need_one) else None

    grid_orders = need_one or any(
        not (o.is_integer and o.alpha <= _MOMENT_MAX_ORDER) for o in finite
    )
    if grid_orders and view is not None:
        groups = view.ratios.shape[0]
        if 2 * groups * groups > _SPLIT_WORK_FACTOR * atom_cap:
            raise CapacityError(
                f"pair grid over {groups} ratio groups exceeds work budget "
                f"{_SPLIT_WORK_FACTOR} * {atom_cap}"
            )

    if need_one:
        w = parent.weight
        joint = -float(
            np.sum(w * _xlog2x(parent.p0)) + np.sum(w * _xlog2x(parent.p1))
        )
        symbol = -float(np.sum(w * _xlog2x(parent.symbol_mass)))
        joint_minus = _minus_shannon_joint(view)
        h1_minus = joint_minus - 2.0 * symbol
        h1_plus = 2.0 * joint - joint_minus

    zero_vals = inf_vals = None
    for row, o in enumerate(orders):
        if o.kind == "zero":
            if zero_vals is None:
                zero_vals = _zero_order_children(parent)
            out[row] = zero_vals
        elif o.kind == "infinity":
            if inf_vals is None:
                inf_vals = _infinity_children(parent)
            out[row] = inf_vals
        elif o.kind == "one":
            out[row] = (h1_minus, h1_plus)
        else:
            a = o.alpha
            lognum, logden = power_sums(parent, a)
            lognum_minus = minus_num_log2(view, a)
            out[row, 0] = (lognum_minus - 2.0 * logden) / (1.0 - a)
            out[row, 1] = (2.0 * lognum - lognum_minus) / (1.0 - a)
    for row in range(out.shape[0]):
        out[row, 0] = snap_to_unit(out[row, 0])
        out[row, 1] = snap_to_unit(out[row, 1])
    return out


@dataclass(frozen=True)
class PolarizationProfile:
    """Conditional entropies of every level-n subchannel, for a set of orders.

    entries[k, i - 1] is the entropy of subchannel i (1-based) at ``level``
    under orders[k]; root_entropy[k] is the level-0 value.
    """

    level: int
    orders: tuple[Order, ...]
    entries: np.ndarray
    root_entropy: np.ndarray

    def order_index(self, order) -> int:
        o = as_order(order)
        for k, known in enumerate(self.orders):
            if known == o:
                return k
        raise KeyError(f"order {o} not in profile")

    def row(self, order) -> np.ndarray:
        return self.entries[self.order_index(order)]

    def average(self, order) -> float:
        return float(np.mean(self.row(order)))

    def extreme_fractions(self, order, delta: float) -> tuple[float, float]:
        """Fractions of subchannels with entropy < delta and > 1 - delta."""
        row = self.row(order)
        n = row.shape[0]
        return float(np.sum(row < delta) / n), float(np.sum(row > 1.0 - delta) / n)

    def presentation_permutation(self) -> np.ndarray:
        """0-based column order sorting entries by ascending Shannon entropy.

        Purely presentational; stored entries stay index-aligned so oracle
        comparisons are unaffected.  Requires order 1 in the profile.
        """
        return np.argsort(self.row(ORDER_ONE), kind="stable")


def level_profile(
    root: JointDistribution,
    level: int,
    orders: Sequence = None,
    *,
    atom_cap: int = DEFAULT_ATOM_CAP,
) -> PolarizationProfile:
    """Entropies of all 2**level subchannels of ``root``.

    Internal levels 0 .. level-1 are materialized (deduplicated, canonical);
    the final level is evaluated by the split rules, so the quadratic blowup
    of the last transform never happens.  Subchannel i's parent is
    ceil(i / 2): children (2j - 1, 2j) of parent j are its minus and plus
    outputs.
    """
    return level_profile_sweep(root, level, orders, atom_cap=atom_cap)[-1]


def level_profile_sweep(
    root: JointDistribution,
    max_level: int,
    orders: Sequence = None,
    *,
    atom_cap: int = DEFAULT_ATOM_CAP,
) -> list[PolarizationProfile]:
    """Profiles for every level 1 .. max_level in one walk.

    Level k entropies come from split evaluation of the materialized level
    k-1 parents, so the sweep costs barely more than the deepest profile.
    """
    if max_level < 1:
        raise ValueError("max_level must be >= 1")
    if orders is None:
        from .entropy import DEFAULT_ORDER_GRID

        orders = DEFAULT_ORDER_GRID
    orders = tuple(as_order(o) for o in orders)
    root_entropy = np.array([conditional_renyi(root, o) for o in orders])

    profiles: list[PolarizationProfile] = []
    current = [canonicalize_orientation(root)]
    for lvl in range(1, max_level + 1):
        cols = [child_entropies(parent, orders, atom_cap=atom_cap) for parent in current]
        entries = np.hstack(cols)
        profiles.append(
            PolarizationProfile(lvl, orders, _freeze(entries), _freeze(root_entropy.copy()))
        )
        if lvl < max_level:
            nxt = []
            for parent in current:
                nxt.extend(transform_pair(parent, atom_cap=atom_cap, canonical=True))
            current = nxt
    return profiles


class SplitPowerSums(NamedTuple):
    """The four power sums (base-2 logs) behind one transform step.

    With num/den the joint/output power sums of a channel at order a:

    * log_s1 = log den(a) + log den(b)   (output law of the joined pair)
    * log_s2 = log num(minus child)      (also the plus child's den)
    * log_s3 = log num(a) + log num(b)   (also the plus child's num)
    * log_s4 = log den(a) + log num(b)

    so (log_s2 - log_s1)/(1-a) is the minus entropy, (log_s3 - log_s2)/(1-a)
    the plus entropy, and (log_s3 - log_s4)/(1-a) recovers channel a's own
    entropy.  The s2/s4 ordering carries the sign of the minus inequality.
    """

    log_s1: float
    log_s2: float
    log_s3: float
    log_s4: float


def split_power_sums(
    a: JointDistribution, b: JointDistribution | None = None, alpha: float = 2.0
) -> SplitPowerSums:
    """Power sums of one step at a finite order != 1 (see SplitPowerSums)."""
    if b is None:
        b = a
    alpha = float(alpha)
    if not (alpha > 0.0 and math.isfinite(alpha)) or abs(alpha - 1.0) <= 1e-9:
        raise ValueError("split power sums are defined for finite alpha > 0, != 1")

    num_a, den_a = power_sums(a, alpha)
    num_b, den_b = power_sums(b, alpha)
    minus = transform_pair(a, b, canonical=False).minus
    num_minus, _ = power_sums(minus, alpha)
    return SplitPowerSums(
        log_s1=den_a + den_b,
        log_s2=num_minus,
        log_s3=num_a + num_b,
        log_s4=den_a + num_b,
    )


class OneStepReport(NamedTuple):
    """Entropies and checks for one combining/splitting step at one order."""

    order: Order
    parent_a: float
    parent_b: float
    minus: float
    plus: float
    conservation_residual: float
    minus_above_max: bool
    plus_below_min: bool


def one_step_report(
    a: JointDistribution,
    b: JointDistribution | None = None,
    orders: Sequence = None,
    slack: float = 1e-10,
) -> list[OneStepReport]:
    """Evaluate one transform step directly and check its order inequalities.

    For every order: minus >= max(parent entropies), plus <= min(parent
    entropies), and minus + plus = parent_a + parent_b (conservation).
    Checks allow ``slack`` of rounding.  This path materializes the
    children, deliberately bypassing the split evaluation, so the two can
    be played against each other in tests.
    """
    if orders is None:
        from .entropy import DEFAULT_ORDER_GRID

        orders = DEFAULT_ORDER_GRID
    if b is None:
        b = a
    pair = transform_pair(a, b, canonical=False)
    reports = []
    for o in (as_order(x) for x in orders):
        ha = conditional_renyi(a, o)
        hb = conditional_renyi(b, o)
        hm = conditional_renyi(pair.minus, o)
        hp = conditional_renyi(pair.plus, o)
        resid = (hm + hp) - (ha + hb)
        reports.append(
            OneStepReport(
                order=o,
                parent_a=ha,
                parent_b=hb,
                minus=hm,
                plus=hp,
                conservation_residual=resid,
                minus_above_max=hm >= max(ha, hb) - slack,
                plus_below_min=hp <= min(ha, hb) + slack,
            )
        )
    return reports
