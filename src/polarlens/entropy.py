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


def log2_power_sum(values: np.ndarray, alpha: float, weights: np.ndarray) -> float:
    """log2 of sum_i w_i * values_i**alpha, by :func:`log2_sum_exp2`.

    Zero values drop out (their power contributes nothing for alpha > 0).
    """
    values = np.asarray(values, dtype=np.float64).ravel()
    weights = np.asarray(weights, dtype=np.float64).ravel()
    mask = values > 0.0
    return log2_sum_exp2(alpha * np.log2(values[mask]) + np.log2(weights[mask]))


def log2_sum_exp2(terms: np.ndarray) -> float:
    """log2 of sum 2^terms, shifted by the largest term; bitwise it for one."""
    top = float(terms.max()) if terms.size else -math.inf
    if terms.size == 1 or top == -math.inf:
        return top
    return top + math.log2(float(np.sum(np.exp2(terms - top))))


def symbol_terms(d: JointDistribution, alpha: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(log2 nu, u, v) per output symbol as in the module docstring; largest nu 1."""
    s = d.symbol_mass
    lw = np.log2(d.weight / d.weight.max()) + alpha * np.log2(s / s.max())
    return lw - lw.max(), d.p0 / s, d.p1 / s


def log2_power_kernel(u: np.ndarray, v: np.ndarray, alpha: float) -> np.ndarray:
    """log2(u^alpha + v^alpha) elementwise; a zero posterior drops out."""
    with np.errstate(divide="ignore"):
        return np.logaddexp2(alpha * np.log2(u), alpha * np.log2(v))


def posterior_eps(o: Order) -> float | None:
    """alpha - 1 if the posterior form serves order ``o``, else None."""
    finite = o.kind == "finite" and o.alpha <= POSTERIOR_MAX_ORDER
    return o.alpha - 1.0 if finite or o.kind == "one" else None


def posterior_kernel(u: np.ndarray, v: np.ndarray, eps: float) -> np.ndarray:
    """eps * k(u, v) elementwise, and k itself at eps = 0, into ``u`` (and ``v``).

    Its weighted mean is num / den - 1 of the ratio form, and at eps = 0,
    where that vanishes, its derivative in eps.
    """
    u = _posterior_term(u, eps)
    u += _posterior_term(v, eps)
    return u


def _posterior_term(x: np.ndarray, eps: float) -> np.ndarray:
    """x expm1(eps ln x), and x ln x at eps = 0, into ``x``; 0 stays 0.

    ln x is clamped at the smallest normal double, where expm1 cannot
    overflow for any eps > -1.  Positive x below it (subnormal) then take
    exp((1 + eps) ln x) - x instead, which cannot overflow either.
    """
    low = (x > 0.0) & (x < _TINY) if np.min(x) < _TINY else None
    sub = x[low] if low is not None else None
    lx = np.maximum(x, _TINY)
    np.log(lx, out=lx)
    if eps != 0.0:
        np.expm1(np.multiply(lx, eps, out=lx), out=lx)
    x *= lx
    if sub is not None and sub.size:
        ls = np.log(sub)
        x[low] = np.exp((1.0 + eps) * ls) - sub if eps != 0.0 else sub * ls
    return x


def posterior_entropy(mean: float, eps: float) -> float:
    """H in bits from the weighted mean of :func:`posterior_kernel`."""
    if eps == 0.0:
        return -mean / math.log(2.0)
    return -math.log1p(mean) / (eps * math.log(2.0))


def renyi_entropy(probs, order, weights=None) -> float:
    """Renyi entropy of a (weighted multiset) probability vector, in bits.

    ``weights`` are multiplicities: weight w at value p represents w symbols
    of probability p each, so the vector masses to sum(w * p) = 1.
    Order 0 counts the positive entries; finite orders divide by the mass,
    log2(sum w p^a / sum w p) / (1 - a), as Renyi's entropy of an incomplete
    distribution, corrected in the posterior form where :func:`posterior_eps`
    serves.  A negative entry or a mass off 1 by more than ``MASS_TOL`` (as
    with any NaN or infinite entry) raises DistributionError.
    """
    o = as_order(order)
    p = np.asarray(probs, dtype=np.float64).ravel()
    w = np.ones_like(p) if weights is None else np.asarray(weights, dtype=np.float64).ravel()
    mass = float(np.sum(w * p))
    err = abs(mass - 1.0)
    if not err <= MASS_TOL:
        raise DistributionError(f"probability mass deviates from 1 by {err:.3e}")
    if not np.minimum.reduce(np.minimum(p, w)) >= 0.0:
        raise DistributionError("probabilities and weights must be nonnegative")
    if o.kind == "zero":
        return math.log2(float(np.sum(w[p > 0.0])))
    if o.kind == "finite":
        h = (log2_power_sum(p, o.alpha, w) - math.log2(mass)) / (1.0 - o.alpha)
    else:
        h = -math.log2(float(p.max()))  # order inf, and a scale for order 1
    eps = posterior_eps(o)
    if eps is None:
        return h
    t = p * 2.0**h  # the scale 2^-h, where the posterior mean is near 0 and keeps its digits
    mean = float(np.sum(w * _posterior_term(t.copy(), eps)) / np.sum(w * t))
    return h + posterior_entropy(mean, eps)


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


def conditional_renyi(d: JointDistribution, order) -> float:
    """Conditional Renyi entropy H_a(X|Y) in bits.

    Branches:

    * a = 0: log2 of (weighted joint support size / weighted output
      support size), counting the positive entries.
    * a = inf: log2(max_y P(y)) - log2(max_{x,y} P(x,y)).
    * a = 1 and every finite a up to POSTERIOR_MAX_ORDER: the posterior
      form in the module docstring (at a = 1, Shannon's H(X,Y) - H(Y)).
    * every other finite a: log2 E_nu[u^a + v^a] / (1 - a), in the log
      domain (see the module docstring).
    """
    o = as_order(order)
    if o.kind == "zero":
        alive = (d.p0 > 0.0).astype(np.int64) + (d.p1 > 0.0)
        joint_support = float(np.sum(d.weight * alive))
        out_support = float(np.sum(d.weight, where=d.symbol_mass > 0.0))
        value = math.log2(joint_support / out_support)
    elif o.kind == "infinity":
        top = float(np.maximum(d.p0, d.p1).max())
        value = math.log2(float(d.symbol_mass.max())) - math.log2(top)
    else:
        lw, u, v = symbol_terms(d, o.alpha)
        eps = posterior_eps(o)
        if eps is None:
            lk = lw + log2_power_kernel(u, v, o.alpha)
            value = (log2_sum_exp2(lk) - log2_sum_exp2(lw)) / (1.0 - o.alpha)
        else:
            nu = np.exp2(lw)
            mean = float(np.sum(nu * posterior_kernel(u, v, eps)) / np.sum(nu))
            value = posterior_entropy(mean, eps)
    return snap_to_unit(value)


def chain_rule_residual(d: JointDistribution, order) -> float:
    """H_a(X|Y) + H_a(Y) - H_a(X,Y); identically zero up to rounding."""
    o = as_order(order)
    return conditional_renyi(d, o) + output_renyi(d, o) - joint_renyi(d, o)
