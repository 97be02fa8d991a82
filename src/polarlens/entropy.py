"""Renyi entropies of weighted joint distributions.

The conditional entropy implemented here is the ratio form

    H_a(X|Y) = (1 / (1 - a)) * log2( sum_{x,y} P(x,y)^a / sum_y P(y)^a ),

which satisfies the chain rule H_a(X|Y) + H_a(Y) = H_a(X,Y) exactly for
every order a.  The limits a -> 0, 1, infinity are taken analytically and
dispatched through :class:`Order` so callers never pass raw floats near
the removable singularity at a = 1.

All logarithms are base 2; entropies of a binary conditional are in [0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import DistributionError, JointDistribution

#: Width of the band around a = 1 treated as the Shannon limit.
ONE_BAND = 1e-9

#: Orders used by sweep commands unless the caller overrides them.
DEFAULT_ORDER_GRID = (0.1, 0.5, 1.0, 2.0, 10.0, 100.0)

#: Default grid plus both closure points of the order axis.
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
        if self.kind == "one":
            return "1"
        return format(self.alpha, "g")

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
    Shannon branch; negative orders are rejected.
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
    if abs(a - 1.0) <= ONE_BAND:
        return ORDER_ONE
    return Order("finite", a)


def log2_power_sum(values: np.ndarray, alpha: float, weights=None) -> float:
    """log2 of sum_i w_i * values_i**alpha, computed in the log domain.

    Zero values drop out (their power contributes nothing for alpha > 0).
    The max-shift makes the result safe for alpha up to a few hundred even
    when values span many decades; for a single surviving term the result
    is bitwise alpha*log2(v) + log2(w).
    """
    values = np.asarray(values, dtype=np.float64).ravel()
    if weights is None:
        weights = np.ones_like(values)
    else:
        weights = np.asarray(weights, dtype=np.float64).ravel()
    mask = values > 0.0
    if not np.any(mask):
        return -math.inf
    terms = alpha * np.log2(values[mask]) + np.log2(weights[mask])
    m = float(terms.max())
    if terms.size == 1:
        return m
    return m + math.log2(float(np.sum(np.exp2(terms - m))))


def power_sums(d: JointDistribution, alpha: float) -> tuple[float, float]:
    """(log2 num, log2 den): num = sum w (p0^a + p1^a), den = sum w (p0 + p1)^a."""
    num = log2_power_sum(
        np.concatenate([d.p0, d.p1]), alpha, np.concatenate([d.weight, d.weight])
    )
    den = log2_power_sum(d.symbol_mass, alpha, d.weight)
    return num, den


def _shannon_bits(values: np.ndarray, weights: np.ndarray) -> float:
    """-sum w * v * log2(v) over positive entries, in bits."""
    mask = values > 0.0
    v = values[mask]
    w = weights[mask]
    return float(-np.sum(w * v * np.log2(v)))


def renyi_entropy(
    probs,
    order,
    weights=None,
    *,
    support_eps: float = 0.0,
    normalization_tol: float | None = 1e-9,
) -> float:
    """Renyi entropy of a (weighted multiset) probability vector, in bits.

    ``weights`` are multiplicities: weight w at value p represents w symbols
    of probability p each, so the vector masses to sum(w * p) = 1.
    ``support_eps`` is the threshold of the order-0 support count (exact
    zero by default); ``normalization_tol`` of None skips the mass check.
    """
    o = as_order(order)
    p = np.asarray(probs, dtype=np.float64).ravel()
    w = np.ones_like(p) if weights is None else np.asarray(weights, dtype=np.float64).ravel()
    if normalization_tol is not None:
        err = abs(float(np.sum(w * p)) - 1.0)
        if err > normalization_tol:
            raise DistributionError(f"probability mass deviates from 1 by {err:.3e}")
    if o.kind == "zero":
        return math.log2(float(np.sum(w[p > support_eps])))
    if o.kind == "one":
        return _shannon_bits(p, w)
    if o.kind == "infinity":
        return -math.log2(float(p.max()))
    return log2_power_sum(p, o.alpha, w) / (1.0 - o.alpha)


def joint_renyi(d: JointDistribution, order) -> float:
    """H_a(X, Y): Renyi entropy of the full joint law."""
    o = as_order(order)
    p = np.concatenate([d.p0, d.p1])
    w = np.concatenate([d.weight, d.weight])
    return renyi_entropy(p, o, w)


def output_renyi(d: JointDistribution, order) -> float:
    """H_a(Y): Renyi entropy of the output marginal."""
    return renyi_entropy(d.symbol_mass, order, d.weight)


def snap_to_unit(value: float, tol: float = 1e-9) -> float:
    """Snap rounding-scale excursions outside [0, 1] back onto the interval.

    Conditional entropies of a binary input provably lie in [0, 1]; float
    evaluation can land a hair outside near the endpoints.  Violations
    beyond ``tol`` are left alone so real defects stay visible.
    """
    if -tol <= value < 0.0:
        return 0.0
    if 1.0 < value <= 1.0 + tol:
        return 1.0
    return value


def conditional_renyi(d: JointDistribution, order, *, support_eps: float = 0.0) -> float:
    """Conditional Renyi entropy H_a(X|Y) in bits.

    Branches:

    * a = 0: log2 of (weighted joint support size / weighted output
      support size), counting entries above ``support_eps``.
    * a = 1: Shannon conditional entropy H(X,Y) - H(Y).
    * a = inf: log2(max_y P(y)) - log2(max_{x,y} P(x,y)).
    * otherwise the ratio form in the module docstring.
    """
    o = as_order(order)
    s = d.symbol_mass
    if o.kind == "zero":
        alive = (d.p0 > support_eps).astype(np.int64) + (d.p1 > support_eps)
        joint_support = float(np.sum(d.weight * alive))
        out_support = float(np.sum(d.weight, where=s > support_eps))
        value = math.log2(joint_support / out_support)
    elif o.kind == "one":
        hj = _shannon_bits(d.p0, d.weight) + _shannon_bits(d.p1, d.weight)
        hy = _shannon_bits(s, d.weight)
        value = hj - hy
    elif o.kind == "infinity":
        top = float(np.maximum(d.p0, d.p1).max())
        value = math.log2(float(s.max())) - math.log2(top)
    else:
        a = o.alpha
        lognum, logden = power_sums(d, a)
        value = (lognum - logden) / (1.0 - a)
    return snap_to_unit(value)


def chain_rule_residual(d: JointDistribution, order) -> float:
    """H_a(X|Y) + H_a(Y) - H_a(X,Y); identically zero up to rounding."""
    o = as_order(order)
    return conditional_renyi(d, o) + output_renyi(d, o) - joint_renyi(d, o)
