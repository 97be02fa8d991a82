"""Renyi entropies of weighted joint distributions.

Every finite order a is one mean over the output symbols.  A symbol of
mass s has posterior (u, v) = (p0, p1) / s and weight nu = w s^a, taken on
the law's own scale as (w / max w) (s / max s)^a, and the conditional
entropy is

    H_a(X|Y) = log2 E_nu[u^a + v^a] / (1 - a),

which equals the ratio form log2(sum P(x,y)^a / sum P(y)^a) / (1 - a), so
H_a(X|Y) + H_a(Y) = H_a(X,Y) for every order.  Near a = 1 that divides a
log by 1 - a, so order 1 and every finite order up to POSTERIOR_MAX_ORDER,
integers included, finish the same mean in the posterior form: with
a = 1 + eps,

    H_a(X|Y) = -log1p(eps E_nu[k]) / (eps ln 2),
    k = [u expm1(eps ln u) + v expm1(eps ln v)] / eps,

whose eps = 0 case is the Shannon entropy -E[u ln u + v ln v] / ln 2.  The
limits a -> 0, infinity are taken analytically and dispatched through
:class:`Order`.

Each evaluator has one stacked core, which reads a (laws x atoms) stack
of equal-size laws once for all the orders it is given: the symbol
masses, posteriors and their logs are taken once, and each order class
runs as one array over laws, orders and symbols.  Its reductions run
along the symbols and its scalar finishes in float arithmetic, so rows
do not depend on each other: every law and order gets the bits a call
with it alone gives.  :func:`conditional_entropies`,
:func:`renyi_entropies` and :func:`chain_rule_entropies` are stacks of
one.  The ``_many`` forms of the conditional and chain evaluators take a
sequence of laws, bucket them by atom count, cut each bucket into blocks
of at most STACK_BLOCK elements, and return one row per law in input
order.  The one-order names wrap the one-law ones.  The finite branch of
the conditional core, :func:`symbol_mean_entropies`, reads only the rows
of log2 nu and the posteriors, one segment of symbols per law, or,
given where each segment begins, ragged segments of one axis, each sum
bitwise the segment's own np.sum (:func:`segment_sums`).  So the stacked
ratio states of :mod:`polarlens.transform` take their entropies through
it too, one segment per subchannel.

All logarithms are base 2; entropies of a binary conditional are in [0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import MASS_TOL, DistributionError, JointDistribution

#: Width of the band around a = 1 treated as the Shannon limit.
ONE_BAND = 1e-9

#: Largest finite order accepted.  |log2 x| <= 1075 for every positive
#: double and no kernel sums more than four such terms times the order, so
#: every log-domain term stays finite; use inf beyond this.
MAX_FINITE_ORDER = 1e300

#: Largest order the posterior form serves, integers included: its
#: log1p(eps E[k]) loses up to 2^(a - 1) ulps, as E[u^a + v^a] >= 2^(1 - a).
#: Against 40-digit pair sums over 69 parents (BSC(0.2) at levels 4-6,
#: BSC(0.49) at level 4, BEC(0.35) with prior 0.3 at level 2), both split
#: children were 1.6e-15, 1.9e-15, 3.1e-15 and 7.4e-15 off at 2.5, 3.5, 4.5
#: and 5.5, and 3.1e-15, 2.7e-15, 1.1e-15 and 9.8e-16 with u^a + v^a on the
#: same walker; conditional_renyi on 112 laws, 6.7e-16 to 3.4e-15 against
#: at most 5.6e-16 in the log domain.
POSTERIOR_MAX_ORDER = 6.0

#: Smallest normal double: the posterior kernel clamps its logs here.
_TINY = np.finfo(np.float64).tiny

#: Elements (laws x orders x atoms) the plural evaluators stack at most at
#: once: 2 MiB of float64 per array of a stacked pass.
STACK_BLOCK = 1 << 18

#: The paper's order grid plus both closure points of the order axis.
EXTENDED_ORDER_GRID = (0.0, 0.1, 0.5, 1.0, 2.0, 10.0, 100.0, math.inf)


@dataclass(frozen=True)
class Order:
    """A Renyi order with its analytic branch resolved.

    kind is one of "zero", "finite", "one", "infinity"; alpha carries the
    numeric value for the finite branch (and 0.0 / 1.0 / inf otherwise).
    """

    kind: str
    alpha: float

    def __str__(self) -> str:
        if self.kind == "infinity":
            return "inf"
        short = format(self.alpha, "g")
        return short if float(short) == self.alpha else repr(self.alpha)

    @property
    def is_integer(self) -> bool:
        """True for the finite branch at an integral alpha >= 2."""
        return (
            self.kind == "finite"
            and self.alpha >= 2.0
            and float(self.alpha).is_integer()
        )


ORDER_ZERO = Order("zero", 0.0)
ORDER_ONE = Order("one", 1.0)
ORDER_INF = Order("infinity", math.inf)


def as_order(value) -> Order:
    """Coerce a float, string, or Order into an :class:`Order`.

    Strings accept "inf" / "infinity" (case-insensitive) and anything
    float() can parse.  Values within ONE_BAND of 1 collapse onto the
    Shannon branch; booleans, negative orders and finite orders above
    MAX_FINITE_ORDER are rejected with a ValueError.
    """
    if isinstance(value, Order):
        return value
    if isinstance(value, (bool, np.bool_)):
        raise ValueError(f"Renyi order must be a number, not a bool: {value!r}")
    if isinstance(value, str):
        s = value.strip().lower()
        if s in ("inf", "infinity", "oo"):
            return ORDER_INF
        try:
            value = float(s)
        except ValueError:
            raise ValueError(f"cannot parse Renyi order {value!r}") from None
    a = float(value)
    if math.isnan(a) or a < 0.0:
        raise ValueError(f"Renyi order must be >= 0, got {a!r}")
    if a == 0.0:
        return ORDER_ZERO
    if math.isinf(a):
        return ORDER_INF
    if a > MAX_FINITE_ORDER:
        raise ValueError(f"finite Renyi order must be <= {MAX_FINITE_ORDER:g}, got {a!r}; use inf")
    if abs(a - 1.0) <= ONE_BAND:
        return ORDER_ONE
    return Order("finite", a)


def log2_power_sum(values: np.ndarray, alpha, weights: np.ndarray):
    """log2 of sum_i w_i * values_i**alpha along the last axis, by :func:`log2_sum_exp2`.

    Zero values drop out: log2 0 = -inf, so their power contributes nothing
    for alpha > 0.  A column of orders gives one row, and one sum, per
    order; ``alpha`` broadcasts against a stack of rows.
    """
    values = np.atleast_1d(np.asarray(values, dtype=np.float64))
    weights = np.atleast_1d(np.asarray(weights, dtype=np.float64))
    with np.errstate(divide="ignore"):
        return log2_sum_exp2(alpha * np.log2(values) + np.log2(weights))


def segment_sums(x: np.ndarray, starts: np.ndarray | None = None) -> np.ndarray:
    """Sums along the last axis, of each row, or of each segment that begins at ``starts``.

    Each is bitwise np.sum of its row or segment alone: reduceat adds a
    segment's first entry to the pairwise sum of the rest, where np.sum
    adds every entry pairwise onto 0, so a 0 goes before each segment.
    """
    if starts is None:
        return x.sum(axis=-1)
    return np.add.reduceat(np.insert(x, starts, 0.0, axis=-1), starts + np.arange(starts.size), axis=-1)


def log2_sum_exp2(terms: np.ndarray, starts: np.ndarray | None = None):
    """log2 of sum 2^terms along the last axis, shifted by the largest term.

    One sum per row, as an array of the leading shape, or a float for 1-D
    input; each is bitwise that of its row alone.  An empty or all -inf row
    sums to -inf.  Given ``starts``, one sum per row and per segment of the
    last axis that begins there, each bitwise that of the segment alone.
    """
    if starts is None:
        top = terms.max(axis=-1, initial=-math.inf)
        spread = top[..., None]
    else:
        top = np.maximum.reduceat(terms, starts, axis=-1)
        spread = np.repeat(top, np.diff(starts, append=terms.shape[-1]), axis=-1)
    sums = segment_sums(np.exp2(terms - np.where(spread > -math.inf, spread, 0.0)), starts)
    pairs = zip(top.ravel().tolist(), sums.ravel().tolist())
    out = [t + math.log2(s) if s else t for t, s in pairs]
    return out[0] if top.ndim == 0 else np.array(out).reshape(top.shape)


def symbol_terms(p0, p1, weight, alpha) -> tuple[np.ndarray, np.ndarray]:
    """(log2 nu, (u, v)) per output symbol as in the module docstring; largest nu 1.

    Symbols run along the last axis and the two posteriors stack on the
    axis before it.  A column of orders gives one row of log2 nu per order,
    for every law of a stack whose rows carry a unit axis before the symbols.
    """
    s = p0 + p1
    lw = np.log2(weight / weight.max(axis=-1, keepdims=True)) + alpha * np.log2(
        s / s.max(axis=-1, keepdims=True)
    )
    return lw - lw.max(axis=-1, keepdims=True), np.stack([p0, p1], axis=-2) / s[..., None, :]


def log2_power_kernel(u: np.ndarray, v: np.ndarray, alpha) -> np.ndarray:
    """log2(u^alpha + v^alpha) elementwise, a row per order of a column; a zero posterior drops out."""
    with np.errstate(divide="ignore"):
        return np.logaddexp2(alpha * np.log2(u), alpha * np.log2(v))


def posterior_eps(o: Order) -> float | None:
    """alpha - 1 if the posterior form serves order ``o``, else None."""
    finite = o.kind == "finite" and o.alpha <= POSTERIOR_MAX_ORDER
    return o.alpha - 1.0 if finite or o.kind == "one" else None


def posterior_logs(x: np.ndarray, out: np.ndarray | None = None) -> tuple:
    """(x, ln x clamped at the smallest normal double, into ``out``, subnormal mask).

    The mask marks the positive x below the clamp, None if there are none;
    :func:`posterior_term` treats them apart.
    """
    low = (x > 0.0) & (x < _TINY) if np.min(x) < _TINY else None
    lx = np.maximum(x, _TINY, out=out)
    np.log(lx, out=lx)
    return x, lx, low if low is not None and low.any() else None


def posterior_term(post: tuple, eps, out: np.ndarray | None = None) -> np.ndarray:
    """x expm1(eps ln x), and x ln x at eps = 0, from :func:`posterior_logs`; 0 stays 0.

    ``eps`` is one value or a column with one per row.  Each term times
    its symbol weight sums to num / den - 1 of the ratio form, and at
    eps = 0, where that vanishes, to its derivative in eps.  The clamp
    keeps expm1 finite for every eps > -1; subnormal x take exp((1 + eps)
    ln x) - x instead, which cannot overflow either.
    """
    x, lx, low = post
    column = isinstance(eps, np.ndarray)
    if not column and eps == 0.0:
        t = np.multiply(x, lx, out=out)
    else:
        t = np.multiply(lx, eps, out=out)
        np.expm1(t, out=t)
        if column:
            np.copyto(t, lx, where=eps == 0.0)
        t *= x
    if low is not None:
        low = np.broadcast_to(low, t.shape)
        sub = np.broadcast_to(x, t.shape)[low]
        e = np.broadcast_to(eps, t.shape)[low]
        ls = np.log(sub)
        t[low] = np.where(e != 0.0, np.exp((1.0 + e) * ls) - sub, sub * ls)
    return t


def posterior_entropy(mean: float, eps: float) -> float:
    """H in bits from the weighted mean of :func:`posterior_term` over both posteriors."""
    if eps == 0.0:
        return -mean / math.log(2.0)
    return -math.log1p(mean) / (eps * math.log(2.0))


def _posterior_entropies(means: np.ndarray, eps: np.ndarray) -> np.ndarray:
    """:func:`posterior_entropy` of every mean, a column per order, in float arithmetic."""
    e = eps.ravel().tolist()
    return np.array([[posterior_entropy(m, x) for m, x in zip(row, e)] for row in means.tolist()])


def _log2_each(values: np.ndarray) -> list[float]:
    """math.log2 of every entry of a 1-D array, in float arithmetic."""
    return [math.log2(x) for x in values.tolist()]


def _many(core, laws, orders, shape=(), width=1) -> np.ndarray:
    """``core`` over stacks of the laws of equal atom count, one row per law in input order.

    A law of n atoms spans ``width`` n elements at every order, and a bucket
    goes in blocks of at most STACK_BLOCK elements (at least one law), so
    memory stays bounded however many laws there are.
    """
    laws = list(laws)
    orders = [as_order(o) for o in orders]
    out = np.empty((len(laws), *shape, len(orders)))
    buckets: dict = {}
    for i, d in enumerate(laws):
        buckets.setdefault(d.n_atoms, []).append(i)
    for n, idx in buckets.items():
        step = max(1, STACK_BLOCK // max(1, len(orders) * width * n))
        for start in range(0, len(idx), step):
            block = idx[start : start + step]
            columns = zip(*((laws[i].p0, laws[i].p1, laws[i].weight) for i in block))
            out[block] = core(*map(np.stack, columns), orders)
    return out


def _stacked_renyi(p: np.ndarray, w: np.ndarray, orders: list[Order]) -> np.ndarray:
    """:func:`renyi_entropies` of each row of a (vectors x entries) stack, a row of orders each.

    The sums run along the last axis and every scalar finish in float
    arithmetic, so each row is bitwise the row of a stack of one.
    """
    mass = (w * p).sum(axis=-1)
    err = np.abs(mass - 1.0)
    if not (err <= MASS_TOL).all():
        worst = err[~(err <= MASS_TOL)][0]
        raise DistributionError(f"probability mass deviates from 1 by {worst:.3e}")
    if not np.minimum(p, w).min() >= 0.0:
        raise DistributionError("probabilities and weights must be nonnegative")
    # order inf, and a scale for order 1
    h = np.empty((len(p), len(orders)))
    h[:] = np.negative(_log2_each(p.max(axis=-1)))[:, None]
    fin = [k for k, o in enumerate(orders) if o.kind == "finite"]
    if fin:
        a = np.array([[orders[k].alpha] for k in fin])
        sums = log2_power_sum(p[:, None], a, w[:, None])
        h[:, fin] = (sums - np.array(_log2_each(mass))[:, None]) / (1.0 - a[:, 0])
    zero = [k for k, o in enumerate(orders) if o.kind == "zero"]
    if zero:
        support = w.sum(axis=-1, where=p > 0.0)
        h[:, zero] = np.array(_log2_each(support))[:, None]
    post = [k for k, o in enumerate(orders) if posterior_eps(o) is not None]
    if post:
        eps = np.array([[posterior_eps(orders[k])] for k in post])
        # the scale 2^-h, where the posterior mean is near 0 and keeps its digits
        scale = np.array([[2.0**x for x in row] for row in h[:, post].tolist()])
        t = p[:, None] * scale[:, :, None]
        wt = w[:, None]
        means = (wt * posterior_term(posterior_logs(t), eps)).sum(axis=-1)
        means /= (wt * t).sum(axis=-1)
        h[:, post] += _posterior_entropies(means, eps)
    return h


def renyi_entropies(probs, orders, weights=None) -> np.ndarray:
    """Renyi entropies of a (weighted multiset) probability vector, in bits, one per order.

    ``weights`` are multiplicities: weight w at value p represents w symbols
    of probability p each, so the vector masses to sum(w * p) = 1.
    Order 0 counts the positive entries; finite orders divide by the mass,
    log2(sum w p^a / sum w p) / (1 - a), as Renyi's entropy of an incomplete
    distribution, corrected in the posterior form where :func:`posterior_eps`
    serves.  Weights of another shape than ``probs``, a negative entry, or a
    mass off 1 by more than ``MASS_TOL`` (as with any NaN or infinite entry)
    raise DistributionError.  One row of the core that
    :func:`chain_rule_entropies_many` stacks.
    """
    orders = [as_order(o) for o in orders]
    p = np.asarray(probs, dtype=np.float64)
    w = np.ones_like(p) if weights is None else np.asarray(weights, dtype=np.float64)
    if w.shape != p.shape:
        raise DistributionError(
            f"weights of shape {w.shape} do not match probabilities of shape {p.shape}"
        )
    return _stacked_renyi(p.reshape(1, -1), w.reshape(1, -1), orders)[0]


def renyi_entropy(probs, order, weights=None) -> float:
    """The :func:`renyi_entropies` of one order."""
    return float(renyi_entropies(probs, [order], weights)[0])


def joint_renyi(d: JointDistribution, order) -> float:
    """H_a(X, Y): Renyi entropy of the full joint law."""
    return renyi_entropy(np.concatenate([d.p0, d.p1]), order, np.concatenate([d.weight, d.weight]))


def output_renyi(d: JointDistribution, order) -> float:
    """H_a(Y): Renyi entropy of the output marginal."""
    return renyi_entropy(d.symbol_mass, order, d.weight)


def snap_to_unit(value):
    """Snap rounding-scale excursions outside [0, 1] back onto the interval.

    Conditional entropies of a binary input provably lie in [0, 1]; float
    evaluation can land a hair outside near the endpoints.  Violations
    beyond 1e-9 are left alone so real defects stay visible.  An array is
    snapped elementwise into a new array, and a 0-d array or a number into
    a float.
    """
    value = np.where((-1e-9 <= value) & (value < 0.0), 0.0, value)
    value = np.where((1.0 < value) & (value <= 1.0 + 1e-9), 1.0, value)
    return float(value) if value.ndim == 0 else value


def _stacked_conditional(
    p0: np.ndarray, p1: np.ndarray, w: np.ndarray, orders: list[Order]
) -> np.ndarray:
    """:func:`conditional_entropies` of each law of a (laws x atoms) stack, a row of orders each.

    The reductions run along the atoms and every scalar finish in float
    arithmetic, so each row is bitwise the row of a stack of one.
    """
    out = np.empty((len(p0), len(orders)))
    s = p0 + p1
    kinds = {o.kind for o in orders}
    if "zero" in kinds:
        alive = (p0 > 0.0).astype(np.int64) + (p1 > 0.0)
        joint_support = (w * alive).sum(axis=-1)
        out_support = w.sum(axis=-1, where=s > 0.0)
        zero = _log2_each(joint_support / out_support)
    if "infinity" in kinds:
        top = zip(_log2_each(s.max(axis=-1)), _log2_each(np.maximum(p0, p1).max(axis=-1)))
        inf = [y - xy for y, xy in top]
    for k, o in enumerate(orders):
        if o.kind == "zero":
            out[:, k] = zero
        elif o.kind == "infinity":
            out[:, k] = inf
    fin = [k for k, o in enumerate(orders) if o.kind in ("finite", "one")]
    if fin:
        alpha = np.array([[orders[k].alpha] for k in fin])
        lw, uv = symbol_terms(p0[:, None], p1[:, None], w[:, None], alpha)
        # orders, then laws, then symbols: a law's symbols are one segment
        lw, uv = lw.transpose(1, 0, 2), uv[:, 0].transpose(1, 0, 2)
        out[:, fin] = symbol_mean_entropies(lw, uv, [orders[k] for k in fin])
    return snap_to_unit(out)


def symbol_mean_entropies(lw: np.ndarray, uv: np.ndarray, orders: list[Order], starts=None) -> np.ndarray:
    """H at finite ``orders`` of each segment of symbols, (segments x orders).

    ``lw`` holds log2 nu on a leading axis of orders and ``uv`` the two
    posteriors on a leading axis of (u, v), the symbols along the last
    axis.  A segment is a row of the axis before the symbols, or, given
    ``starts``, the run of the last axis that begins at each start; each
    order's largest nu in each segment is 1.  The posterior rows (order 1
    included) finish in the posterior form, the others in the log domain.
    Every sum is bitwise that of its segment alone.
    """
    out = np.empty((lw.shape[-2] if starts is None else starts.size, len(orders)))
    column = (-1,) + (1,) * (uv.ndim - 1)  # one order per leading entry
    post = [k for k, o in enumerate(orders) if posterior_eps(o) is not None]
    rest = [k for k in range(len(orders)) if k not in post]
    if rest:
        a, lwa = np.array([orders[k].alpha for k in rest]), lw[rest]
        lk = log2_power_kernel(uv[0], uv[1], a.reshape(column))
        lk += lwa
        sums = log2_sum_exp2(np.concatenate([lk, lwa]), starts)
        out[:, rest] = ((sums[: a.size] - sums[a.size :]) / (1.0 - a[:, None])).T
    if post:
        eps = np.array([posterior_eps(orders[k]) for k in post]).reshape(column + (1,))
        nu = np.exp2(lw[post])
        terms = posterior_term(posterior_logs(uv), eps)  # orders x (u, v) x symbols
        kernel = terms[:, 0]
        kernel += terms[:, 1]
        kernel *= nu
        means = segment_sums(kernel, starts) / segment_sums(nu, starts)
        out[:, post] = _posterior_entropies(means.T, eps)
    return out


def conditional_entropies(d: JointDistribution, orders) -> np.ndarray:
    """Conditional Renyi entropies H_a(X|Y) in bits, one per order.

    Branches:

    * a = 0: log2 of (weighted joint support size / weighted output
      support size), counting the positive entries.
    * a = inf: log2(max_y P(y)) - log2(max_{x,y} P(x,y)).
    * a = 1 and every finite a up to POSTERIOR_MAX_ORDER: the posterior
      form in the module docstring (at a = 1, Shannon's H(X,Y) - H(Y)).
    * every other finite a: log2 E_nu[u^a + v^a] / (1 - a), in the log
      domain (see the module docstring).

    The posteriors and their logs are taken once; each finite branch runs
    as one (orders x symbols) array, whose rows do not depend on each
    other.  A stack of one for :func:`conditional_entropies_many`.
    """
    orders = [as_order(o) for o in orders]
    return _stacked_conditional(d.p0[None], d.p1[None], d.weight[None], orders)[0]


def conditional_entropies_many(laws, orders) -> np.ndarray:
    """:func:`conditional_entropies` of each law, a (laws x orders) array.

    Laws of equal atom count run as one stack; every row is bitwise the
    one-law call's.
    """
    return _many(_stacked_conditional, laws, orders)


def conditional_renyi(d: JointDistribution, order) -> float:
    """The :func:`conditional_entropies` of one order."""
    return float(conditional_entropies(d, [order])[0])


def _stacked_chain(
    p0: np.ndarray, p1: np.ndarray, w: np.ndarray, orders: list[Order]
) -> np.ndarray:
    """:func:`chain_rule_entropies` of each law of a (laws x atoms) stack, (laws x 4 x orders)."""
    cond = _stacked_conditional(p0, p1, w, orders)
    out = _stacked_renyi(p0 + p1, w, orders)
    joint = _stacked_renyi(np.concatenate([p0, p1], axis=1), np.concatenate([w, w], axis=1), orders)
    return np.stack([cond, out, joint, cond + out - joint], axis=1)


def chain_rule_entropies(d: JointDistribution, orders) -> np.ndarray:
    """Rows H_a(X|Y), H_a(Y), H_a(X,Y) and the residual H_a(X|Y) + H_a(Y) - H_a(X,Y).

    One column per order; the residual is identically zero up to rounding.
    A stack of one for :func:`chain_rule_entropies_many`.
    """
    orders = [as_order(o) for o in orders]
    return _stacked_chain(d.p0[None], d.p1[None], d.weight[None], orders)[0]


def chain_rule_entropies_many(laws, orders) -> np.ndarray:
    """:func:`chain_rule_entropies` of each law, a (laws x 4 x orders) array.

    Laws of equal atom count run as one stack; every row is bitwise the
    one-law call's.
    """
    return _many(_stacked_chain, laws, orders, (4,), 2)


def chain_rule_residual(d: JointDistribution, order) -> float:
    """H_a(X|Y) + H_a(Y) - H_a(X,Y) at one order; identically zero up to rounding."""
    return float(chain_rule_entropies(d, [order])[3, 0])
