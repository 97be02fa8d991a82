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

The evaluators read a law once for all the orders they are given
(:func:`conditional_entropies`, :func:`renyi_entropies`,
:func:`chain_rule_entropies`): the symbol masses, posteriors and their
logs are taken once, and each order class runs as one (orders x symbols)
array whose rows do not depend on each other, so every order gets the
bits a call with it alone gives.  The one-order names wrap them.

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
    Shannon branch; negative orders and finite orders above
    MAX_FINITE_ORDER are rejected.
    """
    if isinstance(value, Order):
        return value
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
    """log2 of sum_i w_i * values_i**alpha, by :func:`log2_sum_exp2`.

    Zero values drop out (their power contributes nothing for alpha > 0).
    A column of orders gives one row, and one sum, per order.
    """
    values = np.asarray(values, dtype=np.float64).ravel()
    weights = np.asarray(weights, dtype=np.float64).ravel()
    mask = values > 0.0
    return log2_sum_exp2(alpha * np.log2(values[mask]) + np.log2(weights[mask]))


def log2_sum_exp2(terms: np.ndarray):
    """log2 of sum 2^terms, shifted by the largest term; bitwise it for one.

    A 2-D array gives one sum per row, as an array.
    """
    if terms.ndim == 1:
        top = float(terms.max()) if terms.size else -math.inf
        if terms.size == 1 or top == -math.inf:
            return top
        return top + math.log2(float(np.sum(np.exp2(terms - top))))
    if terms.shape[1] <= 1 or np.isneginf(top := np.max(terms, axis=1)).any():
        return np.array([log2_sum_exp2(row) for row in terms])
    shifted = terms - top[:, None]
    sums = np.sum(np.exp2(shifted, out=shifted), axis=1)
    return np.array([t + math.log2(v) for t, v in zip(top.tolist(), sums.tolist())])


def symbol_terms(d: JointDistribution, alpha) -> tuple[np.ndarray, np.ndarray]:
    """(log2 nu, (u, v)) per output symbol as in the module docstring; largest nu 1.

    The posteriors come as the rows of one array.  A column of orders
    gives one row of log2 nu per order.
    """
    s = d.symbol_mass
    lw = np.log2(d.weight / d.weight.max()) + alpha * np.log2(s / s.max())
    return lw - lw.max(axis=-1, keepdims=True), np.stack([d.p0, d.p1]) / s


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


def _posterior_entropies(means: np.ndarray, eps: np.ndarray) -> list[float]:
    """:func:`posterior_entropy` of every row, in float arithmetic."""
    return [posterior_entropy(m, e) for m, e in zip(means.tolist(), eps.ravel().tolist())]


def renyi_entropies(probs, orders, weights=None) -> np.ndarray:
    """Renyi entropies of a (weighted multiset) probability vector, in bits, one per order.

    ``weights`` are multiplicities: weight w at value p represents w symbols
    of probability p each, so the vector masses to sum(w * p) = 1.
    Order 0 counts the positive entries; finite orders divide by the mass,
    log2(sum w p^a / sum w p) / (1 - a), as Renyi's entropy of an incomplete
    distribution, corrected in the posterior form where :func:`posterior_eps`
    serves.  A negative entry or a mass off 1 by more than ``MASS_TOL`` (as
    with any NaN or infinite entry) raises DistributionError.
    """
    orders = [as_order(o) for o in orders]
    p = np.asarray(probs, dtype=np.float64).ravel()
    w = np.ones_like(p) if weights is None else np.asarray(weights, dtype=np.float64).ravel()
    mass = float(np.sum(w * p))
    err = abs(mass - 1.0)
    if not err <= MASS_TOL:
        raise DistributionError(f"probability mass deviates from 1 by {err:.3e}")
    if not np.minimum.reduce(np.minimum(p, w)) >= 0.0:
        raise DistributionError("probabilities and weights must be nonnegative")
    h = np.full(len(orders), -math.log2(float(p.max())))  # order inf, and a scale for order 1
    fin = [k for k, o in enumerate(orders) if o.kind == "finite"]
    if fin:
        a = np.array([[orders[k].alpha] for k in fin])
        h[fin] = (log2_power_sum(p, a, w) - math.log2(mass)) / (1.0 - a[:, 0])
    for k, o in enumerate(orders):
        if o.kind == "zero":
            h[k] = math.log2(float(np.sum(w[p > 0.0])))
    post = [k for k, o in enumerate(orders) if posterior_eps(o) is not None]
    if post:
        eps = np.array([[posterior_eps(orders[k])] for k in post])
        # the scale 2^-h, where the posterior mean is near 0 and keeps its digits
        t = p * np.array([[2.0 ** float(h[k])] for k in post])
        means = np.sum(w * posterior_term(posterior_logs(t), eps), axis=1) / np.sum(w * t, axis=1)
        h[post] += _posterior_entropies(means, eps)
    return h


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
    snapped elementwise into a new array.
    """
    if isinstance(value, np.ndarray):
        value = np.where((-1e-9 <= value) & (value < 0.0), 0.0, value)
        return np.where((1.0 < value) & (value <= 1.0 + 1e-9), 1.0, value)
    if -1e-9 <= value < 0.0:
        return 0.0
    if 1.0 < value <= 1.0 + 1e-9:
        return 1.0
    return value


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
    as one (orders x symbols) array, whose rows do not depend on each other.
    """
    orders = [as_order(o) for o in orders]
    out = [0.0] * len(orders)
    for k, o in enumerate(orders):
        if o.kind == "zero":
            alive = (d.p0 > 0.0).astype(np.int64) + (d.p1 > 0.0)
            joint_support = float(np.sum(d.weight * alive))
            out_support = float(np.sum(d.weight, where=d.symbol_mass > 0.0))
            out[k] = math.log2(joint_support / out_support)
        elif o.kind == "infinity":
            top = float(np.maximum(d.p0, d.p1).max())
            out[k] = math.log2(float(d.symbol_mass.max())) - math.log2(top)
    # the finite branch: rows of log2 nu, posterior rows first (order 1 included)
    post = [k for k, o in enumerate(orders) if posterior_eps(o) is not None]
    rest = [k for k, o in enumerate(orders) if o.kind == "finite" and k not in post]
    if post or rest:
        alpha = np.array([orders[k].alpha for k in post + rest])
        lw, uv = symbol_terms(d, alpha[:, None])
        if rest:
            a, lwa = alpha[len(post) :], lw[len(post) :]
            lk = log2_power_kernel(*uv, a[:, None])
            lk += lwa
            sums = log2_sum_exp2(np.concatenate([lk, lwa]))
            for k, h in zip(rest, ((sums[: a.size] - sums[a.size :]) / (1.0 - a)).tolist()):
                out[k] = h
        if post:
            eps = alpha[: len(post), None, None] - 1.0
            nu = np.exp2(lw[: len(post)], out=lw[: len(post)])
            terms = posterior_term(posterior_logs(uv), eps)  # orders x (u, v) x symbols
            kernel = terms[:, 0]
            kernel += terms[:, 1]
            kernel *= nu
            means = np.sum(kernel, axis=1) / np.sum(nu, axis=1)
            for k, h in zip(post, _posterior_entropies(means, eps)):
                out[k] = h
    return np.array([snap_to_unit(h) for h in out])


def conditional_renyi(d: JointDistribution, order) -> float:
    """The :func:`conditional_entropies` of one order."""
    return float(conditional_entropies(d, [order])[0])


def chain_rule_entropies(d: JointDistribution, orders) -> np.ndarray:
    """Rows H_a(X|Y), H_a(Y), H_a(X,Y) and the residual H_a(X|Y) + H_a(Y) - H_a(X,Y).

    One column per order; the residual is identically zero up to rounding.
    """
    orders = [as_order(o) for o in orders]
    cond = conditional_entropies(d, orders)
    out = renyi_entropies(d.symbol_mass, orders, d.weight)
    joint = renyi_entropies(np.concatenate([d.p0, d.p1]), orders, np.concatenate([d.weight] * 2))
    return np.array([cond, out, joint, cond + out - joint])


def chain_rule_residual(d: JointDistribution, order) -> float:
    """H_a(X|Y) + H_a(Y) - H_a(X,Y) at one order; identically zero up to rounding."""
    return float(chain_rule_entropies(d, [order])[3, 0])
