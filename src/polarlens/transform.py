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

Children always come out in canonical orientation (p0 >= p1 per atom,
bitwise-equal atoms merged).  When a channel is combined with itself,
pair (j, i) gives bitwise the same minus atom as (i, j), and the same
plus atoms up to an input flip, so the canonical merge folds the mirror
pairs of the full outer product.

Materializing subchannels squares the atom count per level, so sweeps
build no atoms past the root.  At a finite order alpha every entropy of
a subchannel and of its descendants depends only on its ratio measure
mu(r) = sum w p0^alpha over its atoms of odds ratio r = p1/p0 in [0, 1]
(at order inf, on the largest p0 of each ratio), and the polar maps send
that measure to itself: points x, y give the minus point (x + y) /
(1 + xy) of mass mu_x mu_y (1 + xy)^alpha, and the plus points xy of mass
mu_x mu_y and min/max(x, y) of mass mu_x mu_y max(x, y)^alpha.  A sweep
carries each subchannel as such a ratio state: its distinct ratios and
one row of log2 masses per order.  They are power sums within a ratio
class, not merged symbols, so the chain-rule entropies stay exact.  A
level is one stack of the states of all its subchannels
(:class:`_RatioView`), and the level is the unit of work: one step makes
the stack of the next level, one evaluation gives every entropy of a
level, one plan and one split serve the deepest.  Each works by
segmented reductions over the stack, in parts of whole subchannels that
bound its memory, and every subchannel gets bitwise what a stack of it
alone gets.  Every level above the deepest takes its entropies from its
own states, one symbol per ratio group.  The deepest level is never
built: its entropies come from split evaluation of the states of the
level before.  A self-paired parent's minus child has one symbol per
pair of parent atoms, weighted nu_i nu_j (the symbol weights of
:mod:`polarlens.entropy`), whose posterior depends only on the two
atoms' odds ratios: its mean is a pair sum over the parent's ratio
groups, and H(plus) = 2 H(parent) - H(minus).  Each order takes one
kernel, by the order alone.  Order 1 and every finite order up to
_PROXY_MAX_ORDER (32) walk the pairs of proxy points, with the posterior
kernel up to POSTERIOR_MAX_ORDER (6) and a^alpha + b^alpha above (each
dyadic box of ratios with more than 24 groups becomes 24 Chebyshev
points with barycentric Lagrange weights, exact up to rounding as the
kernels are analytic there).  The walk splits near from far, as the
fast multipole method does (Greengard & Rokhlin, J. Comput. Phys. 1987):
a box [c, 2c) meets its own points as a full square and every point
below it through 24 Chebyshev nodes on [0, c], exact up to rounding for
the same reason, whose weights one upward pass carries from box to box.
A box of P points costs P (P + 24) elements, where the symmetric grid
cost half the square of the parent's point count.  Every finite order
above 32 sums a^alpha + b^alpha over the grid of the ratio groups that
can move the pair sum, a certified pruning that drops under 2^-58 of it,
in the log domain, so nothing overflows; order inf takes a diagonal
rule.  Every parent of a level walks in one stacked pass: the boxes of
all parents run bucketed by size, each block takes its posteriors and
their logs once, and each order applies its own kernel and weights.  A
box's sum depends on that box alone, so every parent and order gets
bitwise the value of a walk of it alone.

Erasure-type roots never need atoms past the root, and order 0 of no
root does.  Canonical atoms fall in two classes, p1 > 0 and p1 = 0.  When
every canonical atom has p1 = 0 or p1 = p0 (odds ratio 0 or 1, as a BEC
with a uniform prior), both polar maps keep that ratio set, so at order
alpha a subchannel is fixed by t = mu(1) / mu(0), with mu(r) = sum w
p0^alpha over its atoms of ratio r, and at order inf by the ratio s of
the largest p0 of each class.  At order 0 mu counts atoms, and which
child entries are positive depends only on which parent entries are, so
t follows the same maps from any root.  The maps act in closed form:

    minus   t -> 2t + 2^alpha t^2      s -> max(s, 2 s^2)
    plus    t -> 2t^2 / (1 + 4t)       s -> s^2 / max(1, s)

the Renyi counterparts of the erasure recursion z -> 2z - z^2, z^2
(Arikan, IEEE T-IT 2009) and of the likelihood-ratio law of density
evolution (Mori & Tanaka, IEEE Comm. Letters 2009).  These sweeps carry
one number per subchannel and order, log2 t split into an integral part
and a fraction (two doubles, hi + lo, at order inf, whose maps only double
and shift), exact up to rounding.  The numbers of a level form one stack,
a row per order and a column per subchannel, and the orders that share a
branch of the closed forms (finite up to 1000, order 1, finite above
1000, order inf) step and evaluate together: one call per level and
branch, each row bitwise that of its order alone.  Orders stack in blocks
whose deepest level holds at most _PAIR_CHUNK / 4 entries, so from n = 16
each order runs alone.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import mpmath
import numpy as np

from .distributions import (
    CapacityError,
    DistributionError,
    JointDistribution,
    canonicalize_orientation,
    _freeze,
)
from .entropy import (
    ORDER_ONE,
    Order,
    as_order,
    conditional_entropies,
    conditional_entropies_many,
    conditional_renyi,  # noqa: F401  perfbench/tracing.py patches this attribute
    log2_power_sum,  # noqa: F401  perfbench/tracing.py patches this attribute
    log2_sum_exp2,
    posterior_entropy,
    posterior_eps,
    posterior_logs,
    posterior_term,
    segment_sums,
    snap_to_unit,
    symbol_mean_entropies,
    _TINY,
)

#: Refuse transforms whose raw (pre-merge) output would exceed this many
#: atoms, and sweep steps whose raw ratio-state points would.
DEFAULT_ATOM_CAP = 50_000_000

#: Split evaluation streams its pair grids in constant memory, so its work
#: budget is this factor times the atom cap rather than the cap itself.
_SPLIT_WORK_FACTOR = 100

#: Elements per temporary block in chunked pair evaluations.  Blocks of
#: 2^18 float64 (2 MiB) stay in cache: a 3,000-group direct grid ran 2-3x
#: faster than at 2^22, and materialization did not slow down.
_PAIR_CHUNK = 1 << 18

_LN2 = math.log(2.0)


def _check_count(name: str, value) -> None:
    """Refuse a ``value`` that is not an integer >= 1 (a NaN ``atom_cap`` would disable every budget)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


def _check_step(
    raw: int, low: tuple, atom_cap: int, where: str, names=("atoms", "entries"), hint: str = ""
) -> None:
    """Refuse a step over ``atom_cap`` raw outputs, or whose products underflow.

    ``raw`` counts the step's raw outputs and ``low`` holds the two
    factors' smallest positive values; ``names`` names both in the
    messages.  Products below the smallest normal double lose their
    digits.  Both messages start with ``where``; the raw one ends with
    ``hint``.
    """
    if raw > atom_cap:
        raise CapacityError(
            f"{where} would create {raw} raw {names[0]} (cap {atom_cap}); "
            f"raise atom_cap to allow it{hint}"
        )
    if low[0] * low[1] < _TINY:
        raise DistributionError(
            f"{where}: product {low[0]:.3e} * {low[1]:.3e} of smallest positive {names[1]} underflows"
        )


def _stack_atoms(pieces) -> JointDistribution:
    """Concatenate (p0, p1, weight) pieces, in order, into one distribution."""
    return JointDistribution(*(_freeze(np.concatenate(col)) for col in zip(*pieces)))


class TransformPair(NamedTuple):
    """The two synthetic channels produced by one combining/splitting step."""

    minus: JointDistribution
    plus: JointDistribution


def transform_pair(
    a: JointDistribution,
    b: JointDistribution | None = None,
    *,
    atom_cap: int = DEFAULT_ATOM_CAP,
) -> TransformPair:
    """Apply one polar step to two independent parents (b defaults to a).

    Both children come out in canonical orientation (see
    :func:`canonicalize_orientation`): every atom has p0 >= p1, and
    bitwise-equal atoms are merged.  No entropy of the children or of
    their descendants depends on the orientation.

    Every step builds the full outer product of the two parents' atoms.
    In a step of a channel with itself (``b`` is None or ``a`` itself),
    pair (j, i) yields bitwise the same minus atom as (i, j) and the same
    plus atoms up to an input flip, so the canonical merge folds them.

    Raises
    ------
    ValueError
        If ``atom_cap`` is not an integer >= 1.
    CapacityError, DistributionError
        From :func:`_check_step`: if the raw product would exceed
        ``atom_cap`` atoms, or the two parents' smallest positive entries
        multiply to below the smallest normal double.
    """
    _check_count("atom_cap", atom_cap)
    if b is None:
        b = a
    na, nb = a.n_atoms, b.n_atoms
    low = [np.min(x, where=x > 0.0, initial=1.0) for x in (np.r_[a.p0, a.p1], np.r_[b.p0, b.p1])]
    _check_step(2 * na * nb, low, atom_cap, "transform")
    rows = max(1, _PAIR_CHUNK // max(1, nb))

    def build(s: int):
        a0 = a.p0[s : s + rows, None]
        a1 = a.p1[s : s + rows, None]
        d00, d11 = np.ravel(a0 * b.p0), np.ravel(a1 * b.p1)
        d10, d01 = np.ravel(a1 * b.p0), np.ravel(a0 * b.p1)
        w = np.ravel(a.weight[s : s + rows, None] * b.weight)
        m0, m1 = d00 + d11, d10 + d01
        # each plus atom has the mass of one minus coordinate; drop the massless
        l0, l1 = m0 > 0.0, m1 > 0.0
        return (m0, m1, w), (d00[l0], d11[l0], w[l0]), (d10[l1], d01[l1], w[l1])

    parts = [build(s) for s in range(0, na, rows)]
    minus = _stack_atoms([p[0] for p in parts])
    plus = _stack_atoms([p[1] for p in parts] + [p[2] for p in parts])
    return TransformPair(canonicalize_orientation(minus), canonicalize_orientation(plus))


# ---------------------------------------------------------------------------
# Split evaluation of child entropies without materializing the children.
# ---------------------------------------------------------------------------


#: Chebyshev points that stand in for the ratio groups of one dyadic box,
#: and for every point below a box in a walk.
_PROXY_NODES = 24

#: Orders above this run the pair grid over the kept ratio groups, never
#: the proxies.  The interpolation error scales with the sup of the kernel
#: on a box, which is up to 2^alpha times its smallest term.  Measured at
#: 24 nodes against the direct grid, on BSC(0.2) level-6 parents and random
#: ratio sets: at most 1e-14 relative up to alpha 50.5, then 1.6e-12 at
#: 64.5 and 2.8e-8 at 100.5.
_PROXY_MAX_ORDER = 32

#: Margin in bits of the pruning above POSTERIOR_MAX_ORDER; see
#: :meth:`_RatioView.kept_groups`.
_PRUNE_BITS = 60

#: Exponent given to the r = 0 box: 2^(_ZERO_BOX - 1) is 0.0.
_ZERO_BOX = -2000

# Second-kind Chebyshev points on [0, 1], ascending, and their barycentric
# weights, which do not depend on the interval they are mapped to.
_CHEB_UNIT = 0.5 - 0.5 * np.cos(np.pi * np.arange(_PROXY_NODES) / (_PROXY_NODES - 1))
_CHEB_BARY = (-1.0) ** np.arange(_PROXY_NODES)
_CHEB_BARY[[0, -1]] *= 0.5


def _cheb_basis(t: np.ndarray) -> np.ndarray:
    """The Lagrange basis of the unit Chebyshev points at each t in [0, 1], a row each.

    Barycentric form.  A t on a node takes that node's unit row, and a t
    below 2^-100 (where 1 / t could overflow) the row of node 0, from which
    its own differs by under 2^-88.
    """
    t = np.where(t < 2.0**-100, 0.0, t)
    coef = t[:, None] - _CHEB_UNIT
    with np.errstate(divide="ignore"):
        np.divide(_CHEB_BARY, coef, out=coef)  # infinite on a node only
    total = coef.sum(axis=1, keepdims=True)
    on_node = np.flatnonzero(np.isinf(total))
    hit = np.argmax(np.isinf(coef[on_node]), axis=1)
    total[on_node] = 1.0
    coef /= total
    coef[on_node] = np.eye(_PROXY_NODES)[hit]
    return coef


@functools.cache
def _far_maps() -> np.ndarray:
    """Entry g carries weights on the nodes of [0, c 2^-g] to the nodes of [0, c].

    Row n of entry g is the basis of the upper nodes at lower node n.  From
    g = 128 on every row is that of node 0, so the table stops there.  It
    is built on first use: a process that splits nothing never holds it.
    """
    maps = _cheb_basis(np.ldexp(_CHEB_UNIT, -np.arange(129)[:, None]).ravel())
    return maps.reshape(129, _PROXY_NODES, _PROXY_NODES)


def _dyadic_boxes(r: np.ndarray, item: np.ndarray | None = None) -> tuple:
    """(first index, size, exponent e) of each dyadic box [2^(e-1), 2^e) of sorted ``r``.

    A box is a run of equal np.frexp exponent; r = 0 is a box of its own,
    with e = _ZERO_BOX, and no box spans two values of ``item``.
    """
    _, e = np.frexp(r)
    e[r == 0.0] = _ZERO_BOX
    cut = e[1:] != e[:-1]
    if item is not None:
        cut |= item[1:] != item[:-1]
    first = np.flatnonzero(np.concatenate(([True], cut)))
    return first, np.diff(first, append=r.size), e[first]


def _blocks(cost: np.ndarray, limit: int) -> list[int]:
    """Cut points of runs of consecutive items whose ``cost`` totals at most ``limit``.

    An item over ``limit`` runs alone.  Runs i go from cuts[i] to cuts[i + 1].
    """
    cuts, total = [0], 0
    for i, c in enumerate(cost.tolist()):
        if total and total + c > limit:
            cuts.append(i)
            total = 0
        total += c
    return cuts + [len(cost)]


class _RatioView:
    """The ratio states of a stack of subchannels: odds ratios and per-order masses.

    The state of one subchannel is its canonical atoms' sorted distinct
    odds ratios r = p1/p0 in [0, 1], one point per ratio group, and one
    row per order of ``orders``: log2 of sum w p0^alpha over each group at
    a finite order (order 1 included), and log2 of the group's largest p0
    at order inf; each row is shifted so that its largest entry is 0.
    These are power sums within a ratio class, not merged symbols, and
    every entropy of the subchannel and of its descendants at those orders
    depends on them alone: the pair terms of the polar maps factor through
    p0i^a p0j^a f(r_i, r_j) (see :meth:`children`).

    A stack concatenates the states of its subchannels: ``ratios`` and the
    columns of ``rows`` run over every point of every subchannel, and
    subchannel i's points begin at ``starts[i]``.  A sweep holds each level
    as one stack, and a single subchannel is a stack of one.  Every method
    works on the whole stack with segmented reductions, and each
    subchannel gets bitwise what a stack of it alone gets.

    The pair kernels f(1 + xy) + f(x + y) are analytic in x on every dyadic
    box [c, 2c] for y >= 0, and on [0, c] for y >= c: the nearest
    singularity is at x = -y, so both intervals sit in a Bernstein ellipse
    of parameter 3 + sqrt(8).  So the groups of a box can be replaced by
    _PROXY_NODES Chebyshev points carrying barycentric Lagrange weights
    (see :meth:`proxies`), and every point below a box by _PROXY_NODES
    Chebyshev points on [0, c] (see :func:`_far_walk`), exact up to
    rounding.
    """

    def __init__(self, ratios: np.ndarray, orders: Sequence[Order], rows: np.ndarray, starts: np.ndarray):
        self.ratios = ratios
        self.orders = list(orders)
        self.rows = rows
        self.starts = starts
        self.sizes = np.diff(starts, append=ratios.size)
        self.seg = np.repeat(np.arange(starts.size), self.sizes)  # subchannel of every point
        self._row_of = {o.alpha: k for k, o in enumerate(self.orders)}
        self._log2_1r = np.log1p(ratios) / _LN2

    @classmethod
    def from_atoms(cls, d: JointDistribution, orders: Sequence[Order]) -> "_RatioView":
        """The stack of one of ``d``, whose atoms have p0 >= p1, at finite and infinite ``orders``.

        Probabilities are scaled by the largest p0 and weights by the
        largest weight first, so the logs of the terms that matter are
        near 0.
        """
        lp0 = np.log2(d.p0 / np.max(d.p0))  # canonical atoms have p0 >= p1, hence p0 > 0
        lw = np.log2(d.weight / np.max(d.weight))
        raw = np.array([lp0 if o.kind == "infinity" else lw + o.alpha * lp0 for o in orders])
        return cls._merged(d.p1 / d.p0, raw, orders, np.zeros(d.n_atoms, dtype=np.int64))

    @classmethod
    def _merged(cls, ratios, raw, orders: Sequence[Order], child) -> "_RatioView":
        """The stack of raw points, point k going to subchannel child[k]: bitwise-equal ratios merge.

        Every subchannel number up to the largest must occur.  One stable
        lexsort by subchannel, then ratio, serves every row, so each
        subchannel's points keep their input order within a group.  A
        finite row sums its group's terms in the log domain, shifted by the
        group's largest; the row of order inf takes the group's largest
        term.  Each subchannel's rows are then shifted to a largest entry 0.
        """
        order = np.lexsort((ratios, child))
        r, c = ratios[order], child[order]
        new = np.concatenate(([True], (r[1:] != r[:-1]) | (c[1:] != c[:-1])))
        first = np.flatnonzero(new)
        group = np.cumsum(new) - 1
        rows = np.empty((len(orders), first.size))
        for k, o in enumerate(orders):
            t = raw[k, order]
            rows[k] = np.maximum.reduceat(t, first)
            if o.kind != "infinity":
                rows[k] += np.log2(np.add.reduceat(np.exp2(t - rows[k, group]), first))
        view = cls(r[first], orders, rows, np.flatnonzero(np.diff(c[first], prepend=-1)))
        rows -= np.maximum.reduceat(rows, view.starts, axis=1)[:, view.seg]
        return view

    @classmethod
    def stacked(cls, views: Sequence["_RatioView"]) -> "_RatioView":
        """One stack of the subchannels of ``views``, in order; they share their orders."""
        offsets = np.cumsum([0] + [v.ratios.size for v in views[:-1]])
        starts = np.concatenate([v.starts + o for v, o in zip(views, offsets)])
        ratios, rows = np.concatenate([v.ratios for v in views]), np.hstack([v.rows for v in views])
        return cls(ratios, views[0].orders, rows, starts)

    def parts(self, cost: np.ndarray) -> list["_RatioView"]:
        """The stack cut into stacks of consecutive subchannels, by :func:`_blocks`.

        ``cost`` holds one entry per subchannel; each part's total is at
        most _PAIR_CHUNK / 4, and a subchannel over that is a part alone.
        """
        cuts = _blocks(cost, _PAIR_CHUNK // 4)
        ends = self.starts.tolist() + [self.ratios.size]
        spans = [(slice(ends[a], ends[b]), a, b) for a, b in zip(cuts[:-1], cuts[1:])]
        return [
            _RatioView(self.ratios[s], self.orders, self.rows[:, s], self.starts[a:b] - s.start)
            for s, a, b in spans
        ]

    def children(self) -> "_RatioView":
        """The stack of the minus and plus children of a step of each subchannel with itself.

        Subchannel i's children are 2i (minus) and 2i + 1 (plus).  Points
        x, y of a state, over its triangle i <= j, give with c = 1 off the
        diagonal (pair weight 2) and 0 on it:

        * minus: (x + y) / (1 + xy) at L_i + L_j + alpha log2(1 + xy) + c;
        * plus: xy at L_i + L_j + c, and min/max(x, y) at
          L_i + L_j + alpha log2 max(x, y) + c, dropped when x = y = 0.

        The row of order inf takes alpha = 1 and no c.  Parents step in
        :meth:`parts` by the rows of their 3 n (n + 1) / 2 raw points, and
        each part merges by itself: no step holds the raw points of more
        than one part.  Each child receives its raw points in the order of
        the triangle, rows first, and the plus child all its products
        before its quotients, so every child is bitwise the child of a
        stack of one, whatever the parts.
        """
        r, sizes, orders = self.ratios, self.sizes, self.orders
        if len(parts := self.parts(3 * sizes * (sizes + 1) // 2 * len(orders))) > 1:
            return _RatioView.stacked([part.children() for part in parts])
        inf = np.array([[o.kind == "infinity"] for o in orders])
        alpha = np.where(inf, 1.0, [[o.alpha] for o in orders])
        # point g pairs with itself and every later point of its subchannel
        g = np.arange(r.size)
        count = (self.starts + sizes)[self.seg] - g
        i = np.repeat(g, count)
        j = np.arange(i.size) - np.repeat(np.cumsum(count) - count - g, count)
        x, y = r[i], r[j]
        pair = self.rows[:, i] + self.rows[:, j]
        pair += np.where(inf, 0.0, i != j)
        xy = x * y
        hi, lo = np.maximum(x, y), np.minimum(x, y)
        keep = hi > 0.0
        minus = 2 * self.seg[i]
        ratios = np.concatenate(((x + y) / (1.0 + xy), xy, lo[keep] / hi[keep]))
        child = np.concatenate((minus, minus + 1, minus[keep] + 1))
        raw = (pair + alpha * (np.log1p(xy) / _LN2), pair, pair[:, keep] + alpha * np.log2(hi[keep]))
        return _RatioView._merged(ratios, np.hstack(raw), orders, child)

    def check_step(self, atom_cap: int, where: str, hint: str) -> None:
        """:func:`_check_step` on the raw points and ratio products of :meth:`children`.

        The first subchannel that either check refuses is named in the
        message, after ``where``, as "parent i of N".
        """
        n = self.sizes
        raw = 3 * n * (n + 1) // 2
        low = np.minimum.reduceat(np.where(self.ratios > 0.0, self.ratios, 1.0), self.starts)
        i = int(np.argmax((raw > atom_cap) | (low * low < _TINY)))  # the first refused, if any
        where = f"{where}: parent {i + 1} of {n.size}"
        _check_step(int(raw[i]), (low[i], low[i]), atom_cap, where, ("points", "ratios"), hint)

    def entropies(self) -> np.ndarray:
        """H of each subchannel at each of its orders, unsnapped, (subchannels x orders).

        A ratio group x is one symbol of posterior (1, x) / (1 + x) and
        log2 weight L + alpha log2(1 + x) at order alpha; finite orders go
        through :func:`symbol_mean_entropies`.  At order inf H is the
        log2 of the largest symbol mass over the largest entry,
        max(L + log2(1 + x)) - max(L) on that order's row.
        """
        orders, starts = self.orders, self.starts
        if len(parts := self.parts(self.sizes * len(orders))) > 1:
            return np.concatenate([part.entropies() for part in parts])
        out = np.empty((starts.size, len(orders)))
        fin = [k for k, o in enumerate(orders) if o.kind != "infinity"]
        if fin:
            lw = self.symbol_rows(fin)
            uv = np.stack([1.0 / (1.0 + self.ratios), self.ratios / (1.0 + self.ratios)])
            out[:, fin] = symbol_mean_entropies(lw, uv, [orders[k] for k in fin], starts)
        inf = [k for k, o in enumerate(orders) if o.kind == "infinity"]
        top = np.maximum.reduceat(self.rows[inf] + self._log2_1r, starts, axis=1)
        out[:, inf] = (top - np.maximum.reduceat(self.rows[inf], starts, axis=1)).T
        return out

    def symbol_rows(self, ks: Sequence[int]) -> np.ndarray:
        """The :meth:`symbol_log2_weights` of orders ``ks``, a row each, largest 0 per subchannel."""
        lw = np.array([self.symbol_log2_weights(self.orders[k].alpha) for k in ks])
        lw -= np.maximum.reduceat(lw, self.starts, axis=1)[:, self.seg]
        return lw

    def symbol_log2_weights(self, alpha: float) -> np.ndarray:
        """The order-alpha row plus alpha log2(1 + x): log2 of sum w s^alpha per group x, shifted."""
        return self.group_log2_sums(alpha) + alpha * self._log2_1r

    def group_log2_sums(self, alpha: float) -> np.ndarray:
        """The row of order ``alpha``: log2 of sum w p0^alpha per group, largest 0 per subchannel."""
        return self.rows[self._row_of[alpha]]

    def kept_groups(self, alpha: float) -> np.ndarray:
        """Indices of the ratio groups that can move their subchannel's order-alpha pair sum.

        A pair term is G_x G_y [(1 + xy)^alpha + (x + y)^alpha], with
        G = sum w p0^alpha per group, and for ratios in [0, 1] the bracket
        lies in [1, 2^(alpha + 1)], so the pair sum is at least (sum G)^2.
        The groups with log2 G below log2 sum G - (_PRUNE_BITS + alpha +
        log2 #groups) hold under 2^-(_PRUNE_BITS + alpha) of sum G together,
        so every pair they take part in totals under 2^(2 - _PRUNE_BITS) of
        the pair sum: a certified relative bound at every alpha > 0.
        """
        lg = self.group_log2_sums(alpha)
        total = zip(log2_sum_exp2(lg, self.starts).tolist(), self.sizes.tolist())
        floor = [t - (_PRUNE_BITS + alpha + math.log2(n)) for t, n in total]
        return np.flatnonzero(lg >= np.repeat(floor, self.sizes))

    @property
    def proxy_counts(self) -> np.ndarray:
        """The number of proxy points of each subchannel (see :meth:`proxies`)."""
        first, size, _ = _dyadic_boxes(self.ratios, self.seg)
        return np.bincount(self.seg[first], np.minimum(size, _PROXY_NODES)).astype(np.int64)

    def proxies(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The sorted proxy points, each row of ``values`` (one entry per group) on them,
        and the first proxy of each subchannel.

        Ratios are sorted, so the dyadic boxes are runs of consecutive
        groups of one subchannel.  The r = 0 group and every box of at most
        _PROXY_NODES groups pass through unchanged, their values bit for
        bit; every other box becomes _PROXY_NODES Chebyshev points spanning
        its groups, and each group spreads its value over them by its
        Lagrange basis values.  For every kernel K above, sum_a values_a
        K(r_a, y) then equals sum_m out_m K(x_m, y) up to rounding.  The
        basis values, _PROXY_NODES per squeezed group, are built for runs
        of whole boxes of at most _PAIR_CHUNK / 4 of them and go with their
        run; a box's values depend on that box alone.
        """
        r = self.ratios
        first, size, _ = _dyadic_boxes(r, self.seg)
        big = size > _PROXY_NODES
        width = np.where(big, _PROXY_NODES, size)
        base = np.cumsum(width) - width  # first proxy of every box
        of = np.repeat(np.arange(first.size), size)  # box of every group
        points = np.empty(int(width.sum()))
        out = np.empty((len(values), points.size))

        keep = np.flatnonzero(~big[of])
        keep_at = base[of[keep]] + keep - first[of[keep]]
        points[keep_at] = r[keep]
        out[:, keep_at] = values[:, keep]

        lo = r[first[big]]
        hi = r[first[big] + size[big] - 1]
        nodes = base[big][:, None] + np.arange(_PROXY_NODES)
        points[nodes] = lo[:, None] + (hi - lo)[:, None] * _CHEB_UNIT
        squeeze = np.flatnonzero(big[of])
        row = (np.cumsum(big) - 1)[of[squeeze]]  # row of nodes for every group
        seg = np.append(np.cumsum(size[big]) - size[big], squeeze.size)  # first group of each row
        cuts = _blocks(size[big] * _PROXY_NODES, _PAIR_CHUNK // 4)
        for a, b in zip(cuts[:-1], cuts[1:]):
            g = slice(seg[a], seg[b])
            basis = _cheb_basis((r[squeeze[g]] - lo[row[g]]) / (hi - lo)[row[g]])
            for v, o in zip(values, out):
                o[nodes[a:b]] = np.add.reduceat(v[squeeze[g], None] * basis, seg[a:b] - seg[a], axis=0)
        return points, out, base[np.flatnonzero(np.diff(self.seg[first], prepend=-1))]


def _pair_grid_sum(ratios: np.ndarray, log_weights: np.ndarray, alpha: float) -> float:
    """log2 of sum_{a,b} w_a w_b [(1 + r_a r_b)^alpha + (r_a + r_b)^alpha].

    The weights come as log2 w.  Each chunk is summed relative to its own
    largest term, so neither the weights nor the powers over- or underflow
    at any order.
    """
    n = ratios.shape[0]
    rows = max(1, _PAIR_CHUNK // n)

    def work(s: int) -> tuple[float, float]:
        rc = ratios[s : s + rows, None]
        lw = log_weights[s : s + rows, None] + log_weights
        with np.errstate(divide="ignore"):
            t0 = np.log2(1.0 + rc * ratios)
            t1 = np.log2(rc + ratios)
        t0 *= alpha
        t0 += lw
        t1 *= alpha
        t1 += lw
        top = float(max(t0.max(), t1.max()))
        if top == -math.inf:
            return top, 0.0
        t0 -= top
        t1 -= top
        # terms under 2^-1000 of the largest cannot move the sum; flooring
        # them there keeps exp2 off its slow subnormal path
        np.maximum(t0, -1000.0, out=t0)
        np.maximum(t1, -1000.0, out=t1)
        both = np.exp2(t0)
        both += np.exp2(t1)
        return top, float(np.sum(both))

    parts = [work(s) for s in range(0, n, rows)]
    top = max(t for t, _ in parts)
    return top + math.log2(math.fsum(v * 2.0 ** (t - top) for t, v in parts))


def _far_walk(x, w, starts, orders: Sequence[Order]) -> np.ndarray:
    """H of the minus child of each walk at every order, (walks x orders).

    ``x`` are the sorted proxy points of every walk, at most _PROXY_NODES
    in each dyadic box, walk i's beginning at ``starts[i]``; row k of ``w``
    holds their symbol weights at orders[k].  Ratios
    (x, y) make a minus-child symbol of posterior a = (1 + xy) c,
    b = (x + y) c, c = 1 / ((1 + x)(1 + y)), weighted w_x w_y; the mean of
    its kernel, the posterior form or a^alpha + b^alpha, is the pair sum
    over (sum w)^2.

    A box [c, 2c) meets its own points as a full square, and every point
    below it through _PROXY_NODES far weights on the Chebyshev nodes of
    [0, c], counted twice for the mirror pairs (see :class:`_RatioView`).
    The far weights come from one upward pass: each point is projected
    onto the nodes of the box above its own, and the running weights are
    carried from box to box by one map of :func:`_far_maps` per octave
    gap.  The boxes of every walk run in one pass, bucketed by their row
    count padded to a multiple of 4, and evaluated in blocks of at most
    _PAIR_CHUNK / 4 elements, as a block holds six arrays that size; each
    block takes its posteriors and their logs once for every order.  A
    box's sum depends on that box alone and a walk's total is an exactly
    rounded sum over its boxes, so every entry is bitwise that of a walk
    at that order alone, stacked with no other walk.
    """
    item = np.repeat(np.arange(starts.size), np.diff(starts, append=x.size))
    first, size, e = _dyadic_boxes(x, item)
    nbox = first.size
    start = np.flatnonzero(np.diff(item[first], prepend=-1))  # first box of each walk
    rank = np.arange(nbox) - start[item[first]]
    c = np.ldexp(1.0, e - 1)
    far = np.zeros((len(orders), nbox, _PROXY_NODES))

    # upward pass: each box but the top one of its walk feeds the box above
    feeds = np.append(rank[1:] != 0, False)
    below = np.flatnonzero(feeds)
    box = np.repeat(np.arange(nbox), size)
    low = feeds[box]
    basis = _cheb_basis(x[low] / c[box[low] + 1])
    seg = np.cumsum(size[below]) - size[below]
    for k in range(len(orders)):
        far[k, below + 1] = np.add.reduceat(w[k, low, None] * basis, seg, axis=0)
    del basis
    maps = _far_maps()
    gap = np.minimum(np.diff(e, prepend=e[0]), len(maps) - 1)
    for step in range(1, int(rank.max()) + 1):
        at = np.flatnonzero(rank == step)
        # one (1 x nodes) @ (nodes x nodes) product per walk and order
        far[:, at] += (far[:, at - 1, None] @ maps[gap[at]])[:, :, 0]

    inv = 1.0 / (1.0 + x)
    nodes = c[:, None] * _CHEB_UNIT
    node_inv = 1.0 / (1.0 + nodes)
    eps = [posterior_eps(o) for o in orders]

    def block(b: np.ndarray, p: int) -> np.ndarray:
        """The pair sums of boxes ``b``, each padded to ``p`` rows, at every order."""
        # pad rows repeat the box's last point, at weight 0
        j = first[b, None] + np.minimum(np.arange(p), size[b, None] - 1)
        own = np.where(np.arange(p) < size[b, None], w[:, j], 0.0)
        cols = np.concatenate([own, 2.0 * far[:, b]], axis=2)
        xr = x[j][:, :, None]
        y = np.concatenate([x[j], nodes[b]], axis=1)[:, None, :]
        cc = inv[j][:, :, None] * np.concatenate([inv[j], node_inv[b]], axis=1)[:, None, :]
        a = xr * y
        a += 1.0
        a *= cc
        bb = xr + y
        bb *= cc
        if any(v is not None for v in eps):
            logs = posterior_logs(a, out=cc), posterior_logs(bb)
        del cc
        k, tmp = np.empty_like(a), np.empty_like(a)
        out = np.empty((len(orders), b.size))
        for row, (o, v) in enumerate(zip(orders, eps)):
            if v is None:
                np.power(a, o.alpha, out=k)
                k += np.power(bb, o.alpha, out=tmp)
            else:
                posterior_term(logs[0], v, out=k)
                k += posterior_term(logs[1], v, out=tmp)
            k *= cols[row][:, None, :]
            r = np.sum(k, axis=2)
            r *= own[row]
            out[row] = np.sum(r, axis=1)
        return out

    sums = np.empty((len(orders), nbox))
    rows = np.where(size <= 2, size, -(-size // 4) * 4)  # padded rows of every box
    for p in np.unique(rows).tolist():
        boxes = np.flatnonzero(rows == p)
        per = max(1, _PAIR_CHUNK // 4 // (p * (p + _PROXY_NODES)))
        for s in range(0, boxes.size, per):
            sums[:, boxes[s : s + per]] = block(boxes[s : s + per], p)

    total = segment_sums(w, starts).T.tolist()
    out = np.empty((starts.size, len(orders)))
    for i, boxes in enumerate(np.split(sums, start[1:], axis=1)):
        for k, (o, v) in enumerate(zip(orders, eps)):
            mean = math.fsum(boxes[k].tolist()) / float(total[i][k]) ** 2
            out[i, k] = math.log2(mean) / (1.0 - o.alpha) if v is None else posterior_entropy(mean, v)
    return out


def _plan(view: _RatioView, atom_cap: int, where: str = "") -> tuple[np.ndarray, dict]:
    """Which orders walk, one flag per order, and the kept groups of every grid order.

    Order 1 and every finite order up to _PROXY_MAX_ORDER walk the proxy
    points of every state; every finite order above it runs the grid over
    each state's kept groups; order inf does neither.  Refuses the first
    state, and in it the first finite order, whose grid exceeds its work
    budget (see :func:`child_entropies`); given ``where``, the message
    names it and the state.
    """
    n, kept = view.starts.size, {}
    walk = np.array([o.alpha <= _PROXY_MAX_ORDER for o in view.orders], dtype=bool)
    size = np.zeros((n, len(view.orders)), dtype=np.int64)
    size[:, walk] = view.proxy_counts[:, None]
    for k, o in enumerate(view.orders):
        if not walk[k] and o.kind != "infinity":
            kept[k] = view.kept_groups(o.alpha)
            size[:, k] = np.bincount(view.seg[kept[k]], minlength=n)
    over = np.flatnonzero(2 * size * size > _SPLIT_WORK_FACTOR * atom_cap)
    if over.size:
        i, k = divmod(int(over[0]), len(view.orders))
        message = (
            f"order {view.orders[k]}: pair grid over {size[i, k]} points exceeds "
            f"work budget {_SPLIT_WORK_FACTOR} * {atom_cap}"
        )
        raise CapacityError(f"{where}: parent {i + 1} of {n}: {message}" if where else message)
    return walk, kept


def _split(view: _RatioView, h: np.ndarray, atom_cap: int, where: str = "") -> np.ndarray:
    """H of both children of each state of a stack at each of its orders, (orders x 2 states).

    Column 2i holds state i's minus child and 2i + 1 its plus child.  ``h``
    holds the states' own :meth:`_RatioView.entropies`, unsnapped.
    :func:`_plan` checks every state's work budget before any kernel runs.
    Each grid order runs its grid over the kept groups of every state.
    The walker orders take their weights onto the proxy points of the
    whole stack at once, and every state walks them in one
    :func:`_far_walk`.  H(plus) = 2 h - H(minus) at finite orders.
    At order inf the largest minus-child entry sits on the diagonal of the
    pair grid (Cauchy-Schwarz), and the largest plus-child symbol mass
    equals that same quantity, so the largest diagonal term p0^2 (1 + x^2)
    over the largest entry squared is H(plus), and H(minus) = 2 h -
    H(plus).  Each state's columns are bitwise those of a stack of it
    alone.
    """
    orders, starts, seg = view.orders, view.starts, view.seg
    walk, kept = _plan(view, atom_cap, where)
    minus = np.zeros((starts.size, len(orders)))
    for k, idx in kept.items():
        a = orders[k].alpha
        lw = view.group_log2_sums(a) - log2_sum_exp2(view.symbol_log2_weights(a), starts)[seg]
        for i, g in enumerate(np.split(idx, np.searchsorted(idx, starts[1:]))):
            minus[i, k] = _pair_grid_sum(view.ratios[g], lw[g], a) / (1.0 - a)
    ks = np.flatnonzero(walk)
    if ks.size:
        # the group weights are freed once on the proxy points: the walk holds only those
        proxies = view.proxies(np.exp2(view.symbol_rows(ks)))
        minus[:, ks] = _far_walk(*proxies, [orders[k] for k in ks])
    plus = 2.0 * h - minus
    inf = [k for k, o in enumerate(orders) if o.kind == "infinity"]
    if inf:
        row = view.group_log2_sums(math.inf)  # log2 of the largest p0 per group
        diag = np.maximum.reduceat(2.0 * row + np.log1p(view.ratios * view.ratios) / _LN2, starts)
        plus[:, inf] = (diag - 2.0 * np.maximum.reduceat(row, starts))[:, None]
        minus[:, inf] = 2.0 * h[:, inf] - plus[:, inf]
    return snap_to_unit(np.stack([minus.T, plus.T], axis=2).reshape(len(orders), -1))


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
    Every row is bitwise the one a call with that order alone gives.
    Orders other than 0 build the parent's ratio state once (see
    :class:`_RatioView`), evaluate H of the parent on it and split it as a
    stack of one, by the code a sweep runs on all the parents of its
    deepest level at once; order 0 takes one step of the erasure maps
    from the parent's weighted counts, by the code of an erasure sweep
    (see :func:`level_profile_sweep`).

    Raises
    ------
    ValueError
        If ``atom_cap`` is not an integer >= 1.
    DistributionError
        If some atom has p1 > p0; see :func:`canonicalize_orientation`.
    CapacityError
        Before any kernel runs, if the pair grid of some order, n points
        square, has 2 n^2 > ``_SPLIT_WORK_FACTOR * atom_cap`` elements.
        n counts the points that order's grid streams: the proxy points
        at order 1 and at every finite order up to 32, the ratio groups
        kept by pruning above 32.  For the walker 2 n^2 is an upper
        bound: its boxes stream their own squares and 24 far nodes per
        point.  Orders 0 and inf stream no
        grid: order inf takes three maxima of its row.  The grid is
        streamed, not stored, so its budget is time, not memory; raising
        ``atom_cap`` widens both budgets together.
    """
    _check_count("atom_cap", atom_cap)
    if np.any(parent.p1 > parent.p0):
        raise DistributionError("parent must be canonical (p0 >= p1 per atom)")
    orders = [as_order(o) for o in orders]
    out = np.empty((len(orders), 2))
    rest = [k for k, o in enumerate(orders) if o.kind != "zero"]
    if rest:
        view = _RatioView.from_atoms(parent, [orders[k] for k in rest])
        out[rest] = _split(view, view.entropies(), atom_cap)
    zero = [k for k, o in enumerate(orders) if o.kind == "zero"]
    _erasure_sweep(parent, [orders[k] for k in zero], [out], zero)
    return snap_to_unit(out)


def check_band(band: float) -> float:
    """Return ``band`` if it is an extremal band width in (0, 0.5)."""
    if not 0.0 < band < 0.5:
        raise ValueError("band must lie in (0, 0.5)")
    return band


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
        """Fractions of subchannels with entropy < delta and > 1 - delta.

        ``delta`` must lie in (0, 0.5), so the two bands never overlap.
        """
        check_band(delta)
        row = self.row(order)
        n = row.shape[0]
        return float(np.sum(row < delta) / n), float(np.sum(row > 1.0 - delta) / n)

    def presentation_permutation(self) -> np.ndarray:
        """0-based column order sorting entries by ascending Shannon entropy.

        Purely presentational; stored entries stay index-aligned so oracle
        comparisons are unaffected.  Requires order 1 in the profile.
        """
        return np.argsort(self.row(ORDER_ONE), kind="stable")


# ---------------------------------------------------------------------------
# Erasure-type roots: a two-point ratio state per subchannel and order.
# ---------------------------------------------------------------------------

#: Finite orders up to this evaluate a state through expm1(ln 2 * (alpha - 1)),
#: which stays finite to alpha 1025; higher ones go through the log domain.
_EXPM1_MAX_ORDER = 1000.0

#: Per child of an erasure step, minus then plus, on the leading axis of a
#: (2 x orders x subchannels) array: what a finite order adds to a whole
#: that does not double, and the sign of order inf's test; and what order
#: inf adds to a doubled whole.
_SIDES = np.array([1.0, -1.0])[:, None, None]
_INF_SIDES = np.array([1.0, 0.0])[:, None, None]


def _is_erasure_type(d: JointDistribution) -> bool:
    """True if every atom of canonical ``d`` has odds ratio 0 or 1."""
    return bool(np.all((d.p1 == 0.0) | (d.p1 == d.p0)))


def _erasure_branch(o: Order) -> str:
    """The branch of the closed forms that steps and evaluates order ``o``.

    "expm1" serves finite orders up to _EXPM1_MAX_ORDER, order 0 included,
    and "log" those above it; orders 1 and inf have their own.
    """
    if o.kind in ("one", "infinity"):
        return o.kind
    return "expm1" if o.alpha <= _EXPM1_MAX_ORDER else "log"


def _erasure_start(root: JointDistribution, o: Order) -> tuple[float, float, float]:
    """The state of a canonical root at order ``o``: log2 of it, split.

    Atoms fall in two classes, p1 > 0 (ratio 1 on an erasure-type root)
    and p1 = 0.  Finite orders carry t = mu(1) / mu(0), where mu sums
    w p0^alpha over a class; order inf carries s = max p0 of the first
    class / max p0 of the second.  Order 0 takes t from the weighted
    counts, summed in floats: it is valid for every root, since which
    child entries are positive depends only on which parent entries are.
    The log2 comes as (whole, hi, lo): an integral float and a fraction
    hi + lo, hi in [-1/2, 1/2] and lo its rounding error, so that t keeps
    full relative precision however far it is from 1; an empty class gives
    whole = -inf or +inf.  Finite orders use hi alone; order inf keeps lo,
    as its maps double the error of the start at every level.  Other
    orders are summed at 40 digits: p0^alpha multiplies the relative error
    of a double by alpha, and the recursion doubles it at every level.
    """
    classes = (root.p1 > 0.0, root.p1 == 0.0)
    with mpmath.workdps(40):
        if o.kind == "zero":
            sides = [mpmath.mpf(np.sum(root.weight, where=m)) for m in classes]
        elif o.kind == "infinity":
            sides = [mpmath.mpf(np.max(root.p0, where=m, initial=0.0)) for m in classes]
        else:
            a = mpmath.mpf(o.alpha)
            sides = [
                mpmath.fsum(
                    mpmath.mpf(w) * mpmath.mpf(p) ** a
                    for w, p in zip(root.weight[m].tolist(), root.p0[m].tolist())
                )
                for m in classes
            ]
        if not sides[0] or not sides[1]:
            return (math.inf if sides[0] else -math.inf), 0.0, 0.0
        log_t = mpmath.log(sides[0] / sides[1], 2)
        whole = float(mpmath.nint(log_t))
        hi = float(log_t - whole)
        return whole, hi, float(log_t - whole - hi)


def _erasure_columns(branch: str, orders: Sequence[Order]) -> dict[str, np.ndarray]:
    """The constants of ``orders`` on ``branch``, computed with math, one (orders x 1) column each.

    Every finite order has big = floor(alpha), rest = alpha - big and
    eps = alpha - 1; the expm1 branch adds c = eps ln 2 and expm1(+-c).
    "step" holds the (1 - big, big, rest) of the minus child and the
    (-2, 1, 0) of the plus child, three (2 x orders x 1) arrays.
    """
    if branch == "infinity":
        return {}
    table = []
    for o in orders:
        big = math.floor(o.alpha)
        rest, eps = o.alpha - big, o.alpha - 1.0
        c = eps * _LN2
        up, down = (math.expm1(c), math.expm1(-c)) if branch == "expm1" else (0.0, 0.0)
        table.append((1.0 - big, -2.0, big, 1.0, rest, 0.0, eps, c, up, down))
    # one array, all views of it: a stack of one costs a single conversion
    t = np.array(table, dtype=float).T[:, :, None]
    return {
        "step": (t[0:2], t[2:4], t[4:6]),
        "big": t[2], "rest": t[4], "eps": t[6], "c": t[7], "up": t[8], "down": t[9],
    }


def _erasure_children(branch: str, cols: dict, whole: np.ndarray, *frac: np.ndarray) -> tuple:
    """Children of every state of a stack on ``branch``, minus and plus interleaved, split alike.

    A stack holds one row per order and one column per subchannel:
    ``whole`` and the fraction ``frac``, which is (hi,) on a finite branch
    and (hi, lo) at order inf; ``cols`` holds the orders' constants (see
    :func:`_erasure_columns`).  Both polar maps keep the ratio set {0, 1}:
    a minus atom has ratio (ri + rj) / (1 + ri rj) and mass
    mu_i mu_j (1 + ri rj)^alpha, the plus atoms ratios ri rj and
    min/max(ri, rj).  So with l = log2 t:

    * minus, t -> 2t + 2^alpha t^2: l -> max(1 + l, alpha + 2l) + log2(1 + 2^-|d|),
      d = 1 - alpha - l;
    * plus, t -> 2t^2 / (1 + 4t): l -> min(l - 1, 2l + 1) - log2(1 + 2^-|y|),
      y = -2 - l;

    and order inf has s -> max(s, 2s^2) and s -> s^2 / max(1, s), whose
    logs are exact in the split form.  The integral parts add exactly;
    d and y are rounded only inside the small log2(1 + 2^-|.|) terms.  At
    order inf hi and lo only double and shift by integers, which is exact,
    and a two-sum renormalizes the pair after the shift.  Both children
    run as one (2 x orders x subchannels) array, the plus child's test as
    -y >= 0, and every entry is computed elementwise with bitwise the
    result of its own map, so each row is bitwise that of a stack of it
    alone.
    """
    # the minus and plus child of every state on a leading axis, so that
    # every operation runs along whole rows; interleaved once at the end
    if branch == "infinity":
        # whole is integral, |hi| <= 1/2 and |lo| <= ulp(hi) / 2: the sign
        # of (whole + side) + hi is that of the whole sum, exactly
        hi, lo = frac
        grow = _SIDES * ((whole + _INF_SIDES) + hi) > 0.0
        whole = np.where(grow, 2.0 * whole + _INF_SIDES, whole)
        hi, lo = np.where(grow, 2.0 * hi, hi), np.where(grow, 2.0 * lo, lo)
        shift = np.rint(hi)
        whole += shift
        hi -= shift
        # fast two-sum, exact as hi is 0 or |hi| >= |lo|: s + lo is hi + lo
        s = hi + lo
        lo -= s - hi
        children = whole, s, lo
    else:
        (frac,) = frac
        lead, big, rest = cols["step"]
        d = (lead - whole) - (rest + frac)  # d, and y
        np.negative(d[1], out=d[1])  # the plus child tests -y >= 0
        first = d >= 0.0
        whole = np.where(first, whole + _SIDES, 2.0 * whole + big)
        frac = np.where(first, frac, 2.0 * frac + rest)
        term = np.logaddexp2(0.0, -np.abs(d))
        frac[0] += term[0]
        frac[1] -= term[1]
        shift = np.rint(frac)  # back to a fraction in [-1/2, 1/2], exactly
        whole += shift
        frac -= shift
        children = whole, frac
    out = np.empty((len(children), whole.shape[1], 2 * whole.shape[2]))
    for c, rows in zip(children, out):
        rows[:, 0::2], rows[:, 1::2] = c
    return tuple(out)


def _erasure_entropy(branch: str, cols: dict, whole: np.ndarray, *frac: np.ndarray) -> np.ndarray:
    """H of every state of a stack on ``branch``, (orders x subchannels).

    Order inf: log2 max(1, 2s) - log2 max(1, s).  Finite orders:
    H = log2((1 + 2t) / (1 + 2^alpha t)) / (1 - alpha); with
    q = 2t / (1 + 2t), p = 1 - q and c = (alpha - 1) ln 2 that is
    log1p(q expm1(c)) / c, and also 1 + log1p(p expm1(-c)) / c.  The first
    form serves q <= 1/2, the second q > 1/2, so both ends come out exact;
    order 1 is their c = 0 case, H = q.  Above _EXPM1_MAX_ORDER both forms
    stay in the log domain.
    """
    if branch == "infinity":
        return np.minimum(np.maximum(((1.0 + whole) + frac[0]) + frac[1], 0.0), 1.0)
    (frac,) = frac
    x = (whole + 1.0) + frac  # log2(2t)
    low = x <= 0.0
    # log2 q = (whole + 1) + q_frac on the low half, log2 p = -(whole + 1)
    # + p_frac on the high half; q and p are at most 1/2 there, and 1/2
    # stands in elsewhere.  Exponents are clamped so that nothing overflows.
    q_frac = frac - np.logaddexp2(0.0, np.minimum(x, 0.0))
    p_frac = -frac - np.logaddexp2(0.0, -np.maximum(x, 0.0))
    q = np.ldexp(np.exp2(q_frac), np.minimum(np.maximum(whole, -1100.0), 0.0).astype(np.int64) + 1)
    p = np.ldexp(np.exp2(p_frac), -1 - np.minimum(np.maximum(whole, -1.0), 1100.0).astype(np.int64))
    q, p = np.where(low, q, 0.5), np.where(low, 0.5, p)
    if branch == "one":
        return np.where(low, q, 1.0 - p)
    if branch == "expm1":
        c = cols["c"]
        h_low = np.log1p(q * cols["up"]) / c
        h_high = 1.0 + np.log1p(p * cols["down"]) / c
    else:
        # the same two forms, log2((1 - q) + q 2^eps) kept in the log domain
        big, rest, eps = cols["big"], cols["rest"], cols["eps"]
        h_low = np.logaddexp2(np.log1p(-q) / _LN2, (big + whole) + (rest + q_frac)) / eps
        h_high = 1.0 + np.logaddexp2(np.log1p(-p) / _LN2, (p_frac - rest) - (big + whole)) / eps
    return snap_to_unit(np.where(low, h_low, h_high))


def _erasure_sweep(root: JointDistribution, orders: Sequence[Order], entries, at: Sequence[int]):
    """Write the entries of canonical ``root`` at ``orders`` into ``entries``.

    Level L at orders[k] goes into row at[k] of entries[L - 1].  Runs on
    the root's state (see :func:`_erasure_start`), which serves
    every order of an erasure-type root and order 0 of every root.  The
    states of all ``orders`` on one branch form one stack, a row per
    order, so each level takes one :func:`_erasure_children` and one
    :func:`_erasure_entropy` call per branch present, and every row is
    bitwise what a sweep of its order alone gives.
    """
    branches = [_erasure_branch(o) for o in orders]
    for branch in dict.fromkeys(branches):
        ks = [k for k, b in enumerate(branches) if b == branch]
        stacked = [orders[k] for k in ks]
        rows, cols = np.array([at[k] for k in ks]), _erasure_columns(branch, stacked)
        start = np.array([_erasure_start(root, o) for o in stacked]).T[:, :, None]
        state = tuple(start if branch == "infinity" else start[:2])
        for level in entries:
            state = _erasure_children(branch, cols, *state)
            level[rows] = _erasure_entropy(branch, cols, *state)


def level_profile(
    root: JointDistribution,
    level: int,
    orders: Sequence,
    *,
    atom_cap: int = DEFAULT_ATOM_CAP,
) -> PolarizationProfile:
    """Entropies of all 2**level subchannels of ``root``.

    Subchannel i's parent is ceil(i / 2): children (2j - 1, 2j) of parent
    j are its minus and plus outputs.  See :func:`level_profile_sweep` for
    how the levels are computed and what is refused.
    """
    return level_profile_sweep(root, level, orders, atom_cap=atom_cap)[-1]


def level_profile_sweep(
    root: JointDistribution,
    max_level: int,
    orders: Sequence,
    *,
    atom_cap: int = DEFAULT_ATOM_CAP,
) -> list[PolarizationProfile]:
    """Profiles for every level 1 .. max_level in one walk.

    Order 0 of every root, and every order of an erasure-type root, run on
    one number per subchannel and order, with no atoms.  Canonical atoms
    fall in two classes, p1 > 0 and p1 = 0.  At order 0 the weighted count
    of each class fixes every entry, since which child entries are positive
    depends only on which parent entries are.  An erasure-type root, one
    whose canonical atoms all have p1 = 0 or p1 = p0 (odds ratio 0 or 1, as
    a BEC with a uniform prior), keeps that ratio set at every level, since
    both polar maps take {0, 1} into itself; there the summed p0^alpha of
    each class, or at order inf the largest p0 of each, fixes every entry.
    The quotient of the two follows the polar maps in closed form, exactly
    up to rounding.  These orders run in blocks whose deepest level holds
    at most _PAIR_CHUNK / 4 entries (one order alone from max_level 16 on),
    and each block steps and evaluates one stack per level and branch of
    the closed forms (see :func:`_erasure_sweep`).

    Every other order of every other root runs on one ratio state per
    subchannel: its distinct odds ratios and one row of log2 masses per
    order, built from the root's atoms once and stepped level by level
    with no atoms.  A level is one stack of the states of all its
    subchannels (see :class:`_RatioView`): one :meth:`_RatioView.children`
    call steps it into the next, bitwise the states a step of each
    subchannel alone would give, and every level below max_level takes
    its entries from one :meth:`_RatioView.entropies` call on its stack.
    Only level max_level comes from split evaluation of the stack of the
    level before, whose entropies the sweep already holds, in one
    :func:`_split` call, so the deepest level is never built and the sweep
    costs barely more than the deepest profile.

    Raises
    ------
    ValueError
        If ``max_level`` or ``atom_cap`` is not an integer >= 1 (a bool
        is refused too).
    CapacityError
        Before any work, when some order runs on the erasure state and the
        profiles' sum over levels L of 2^L * len(orders) entries exceeds
        ``atom_cap``; the message names the first level over it.  Before
        any split, when some parent of the deepest level exceeds its split
        work budget; the message names max_level and the first such
        parent.
    CapacityError, DistributionError
        Before any work on a level that :func:`_check_step` refuses for
        one of its parent states: a step of n points makes 3 n (n + 1) / 2
        raw points, refused over ``atom_cap``, and a product of the
        smallest positive ratio with itself below the smallest normal
        double is refused too.  The message names the level and the first
        parent refused; when the call includes order 0, the raw-point
        refusal adds that order 0 alone runs without ratio states.
    """
    _check_count("max_level", max_level)
    _check_count("atom_cap", atom_cap)
    orders = tuple(as_order(o) for o in orders)
    root_entropy = conditional_entropies(root, orders)
    # no entropy depends on the orientation (see canonicalize_orientation)
    root = JointDistribution(np.maximum(root.p0, root.p1), np.minimum(root.p0, root.p1), root.weight)
    erasure = _is_erasure_type(root)
    state = [k for k, o in enumerate(orders) if erasure or o.kind == "zero"]
    ratio = [k for k in range(len(orders)) if k not in state]
    total = 0
    for lvl in range(1, max_level + 1) if state else ():
        total += len(orders) << lvl
        if total > atom_cap:
            raise CapacityError(
                f"level {lvl}: profiles through level {lvl} hold {total} entries "
                f"over {len(orders)} orders (cap {atom_cap}); raise atom_cap to allow it"
            )
    entries = [np.empty((len(orders), 1 << lvl)) for lvl in range(1, max_level + 1)]
    # state orders stack while a block's deepest level holds at most _PAIR_CHUNK / 4 entries
    cuts = _blocks(np.full(len(state), 1 << max_level), _PAIR_CHUNK // 4)
    for a, b in zip(cuts[:-1], cuts[1:]):
        _erasure_sweep(root, [orders[k] for k in state[a:b]], entries, state[a:b])
    if ratio:
        hint = "; order 0 alone runs without ratio states" if state else ""
        view = _RatioView.from_atoms(root, [orders[k] for k in ratio])
        h = view.entropies()
        for lvl in range(1, max_level):
            # the refusals of a step, checked for the whole level up front
            view.check_step(atom_cap, f"level {lvl} cannot be built", hint)
            view = view.children()
            h = view.entropies()
            entries[lvl - 1][ratio] = snap_to_unit(h.T)
        entries[-1][ratio] = _split(view, h, atom_cap, f"level {max_level}")
    return [
        PolarizationProfile(lvl, orders, _freeze(rows), _freeze(root_entropy.copy()))
        for lvl, rows in enumerate(entries, 1)
    ]


class OneStepReport(NamedTuple):
    """Entropies of one combining/splitting step at one order."""

    order: Order
    parent_a: float
    parent_b: float
    minus: float
    plus: float
    conservation_residual: float


def one_step_reports(pairs, *, orders: Sequence) -> list[list[OneStepReport]]:
    """Evaluate one transform step directly for each (a, b) pair, at every order.

    ``b`` None (or ``a`` itself) is a step of ``a`` with itself.  Lemma 1:
    minus >= max(parent entropies), plus <= min(parent entropies), and
    minus + plus = parent_a + parent_b; the caller judges the reports with
    its own tolerances.  This path materializes the children, deliberately
    bypassing the split evaluation, so the two can be played against each
    other in tests.  Every parent and child of every pair is evaluated in
    one :func:`conditional_entropies_many` call.
    """
    orders = [as_order(x) for x in orders]
    laws: list[JointDistribution] = []
    rows = []
    for a, b in pairs:
        pair = transform_pair(a, b)
        k = len(laws)
        own = b is None or b is a
        laws += [a, pair.minus, pair.plus] if own else [a, b, pair.minus, pair.plus]
        rows.append((k, k if own else k + 1, len(laws) - 2, len(laws) - 1))
    h = conditional_entropies_many(laws, orders).tolist()
    return [
        [
            OneStepReport(o, x, y, m, p, (m + p) - (x + y))
            for o, x, y, m, p in zip(orders, h[ia], h[ib], h[im], h[ip])
        ]
        for ia, ib, im, ip in rows
    ]


def one_step_report(
    a: JointDistribution,
    b: JointDistribution | None = None,
    *,
    orders: Sequence,
) -> list[OneStepReport]:
    """The :func:`one_step_reports` of one pair."""
    return one_step_reports([(a, b)], orders=orders)[0]
