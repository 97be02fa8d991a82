"""Experiment layer: designed counterexamples, perturbation accuracy
studies, and the dominant-symbol diagnostic.

These are the headline computations the library exists for; each one is a
thin, pure composition of the distribution and entropy layers, so it
can be driven equally from tests, scripts, or the command line.
"""

from __future__ import annotations

import math
import numbers
from contextlib import nullcontext
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, NamedTuple, Sequence

import mpmath
import numpy as np

from .distributions import MASS_TOL, JointDistribution, make_from_atoms, _freeze
from .entropy import (
    Order,
    as_order,
    conditional_entropies,
    conditional_renyi,
    log2_power_kernel,
    symbol_terms,
)


# ---------------------------------------------------------------------------
# Designed source with opposite extreme behavior across orders
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExtremeExampleParams:
    """Parameters of the two-class source whose conditional entropies sit
    near opposite endpoints for different orders.

    A fraction 1/length of the output mass is carried by symbols that
    determine the input; the rest is carried by symbols that reveal
    nothing.  ``split`` (called L below) is tuned so that, as ``size``
    grows, the entropy at ``alpha0`` climbs to 1 while at ``alpha0 + 1``
    it collapses to 0.  A ValueError refuses an ``alpha0`` of at most 1
    and a ``size`` that is a bool, not an integer, or outside 2..1023.
    """

    alpha0: float
    size: int

    def __post_init__(self):
        if not self.alpha0 > 1.0:
            raise ValueError("alpha0 must exceed 1")
        if isinstance(self.size, bool) or not isinstance(self.size, numbers.Integral):
            raise ValueError(f"size must be an integer, got {self.size!r}")
        if self.size < 2:
            raise ValueError("size must be >= 2")
        if self.size > 1023:
            raise ValueError("size must be <= 1023, or M = 2**size overflows a float")

    @property
    def split_minus_one(self) -> float:
        """L - 1 = (size-1)^((alpha0 - 1/(2 alpha0)) / (alpha0 - 1)) / 2."""
        a = self.alpha0
        exponent = (a - 0.5 / a) / (a - 1.0)
        return 0.5 * (self.size - 1.0) ** exponent

    @property
    def symbol_count(self) -> float:
        """M = 2**size, carried analytically through real-valued weights."""
        return float(2.0**self.size)


def extreme_example_closed_form(params: ExtremeExampleParams, alpha) -> float:
    """Closed-form conditional entropy of the designed source.

    H = (1/(1-a)) * log2[ ((L-1)^(a-1) + 2^(1-a) (N-1)^a)
                          / ((L-1)^(a-1) + (N-1)^a) ]

    evaluated in the log domain so large orders cannot overflow.
    """
    o = as_order(alpha)
    if o.kind != "finite":
        raise ValueError("closed form holds for finite alpha > 0, != 1")
    a = o.alpha
    lm1 = params.split_minus_one
    n1 = params.size - 1.0
    shared = (a - 1.0) * math.log2(lm1)
    log_num = np.logaddexp2(shared, (1.0 - a) + a * math.log2(n1))
    log_den = np.logaddexp2(shared, a * math.log2(n1))
    return float(log_num - log_den) / (1.0 - a)


def extreme_example_distribution(params: ExtremeExampleParams) -> JointDistribution:
    """The designed source as an explicit two-atom weighted distribution.

    Deterministic class: column (L/(N M), 0) with weight M/L.
    Uninformative class: column (c, c), c = (N-1)L / (2 N M (L-1)),
    with weight M (L-1)/L.  Total mass is 1 by construction.
    """
    lm1 = params.split_minus_one
    split = lm1 + 1.0
    n = float(params.size)
    m = params.symbol_count
    # M = 2**size enters last: an exact power-of-two scaling that cannot
    # overflow an intermediate product at sizes up to 1023
    det_value = split / n / m
    uni_value = (n - 1.0) * split / (2.0 * n * lm1) / m
    return make_from_atoms(
        [
            (det_value, 0.0, m / split),
            (uni_value, uni_value, m * (lm1 / split)),
        ]
    )


class ExtremeExampleRow(NamedTuple):
    size: int
    order: Order
    closed_form: float
    direct: float
    abs_diff: float


def extreme_example_sweep(
    alpha0: float,
    sizes: Sequence[int],
    orders: Sequence | None = None,
) -> list[ExtremeExampleRow]:
    """Closed form vs direct evaluation over a range of sizes.

    Default orders are (alpha0, alpha0 + 1), the pair whose curves move in
    opposite directions as size grows.  Every size is checked as
    :class:`ExtremeExampleParams` checks it, so 8.7 is refused, not run as 8.
    """
    # checked before the orders, so a bad alpha0 is refused as such
    every = [ExtremeExampleParams(alpha0=alpha0, size=size) for size in sizes]
    if orders is None:
        orders = (alpha0, alpha0 + 1.0)
    orders = [as_order(o) for o in orders]
    rows = []
    for params in every:
        direct_values = conditional_entropies(extreme_example_distribution(params), orders)
        for o, direct in zip(orders, direct_values.tolist()):
            closed = extreme_example_closed_form(params, o)
            rows.append(ExtremeExampleRow(params.size, o, closed, direct, abs(closed - direct)))
    return rows


# ---------------------------------------------------------------------------
# Perturbation accuracy study
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PerturbationSpec:
    """A base output law Q with per-symbol perturbations delta.

    uniform mode: input is a fair bit nudged per symbol; joint columns
    (Q/2 + delta, Q/2 - delta), requiring |delta| <= Q/2.

    deterministic mode: input is a constant leaked slightly; joint columns
    (delta, Q - delta), requiring 0 <= delta <= Q.

    Both modes keep the output marginal exactly Q, so the deviation of the
    joint power sum from its unperturbed value isolates the entropy shift.
    Every check is written so that NaN fails it.
    """

    mode: str
    base_weights: tuple[float, ...]
    deltas: tuple[float, ...]

    def __post_init__(self):
        if self.mode not in ("uniform", "deterministic"):
            raise ValueError('mode must be "uniform" or "deterministic"')
        for name in ("base_weights", "deltas"):
            values = getattr(self, name)
            if isinstance(values, (str, Mapping)):
                raise TypeError(
                    "base_weights and deltas must be sequences, not strings or mappings"
                )
            values = tuple(values)
            for v in values:
                if isinstance(v, bool) or not isinstance(v, numbers.Real):
                    raise TypeError(f"{name} entries must be real numbers, not {v!r}")
            object.__setattr__(self, name, tuple(float(v) for v in values))
        q = np.array(self.base_weights)
        dv = np.array(self.deltas)
        if q.size == 0 or q.size != dv.size:
            raise ValueError("base_weights and deltas must have equal positive length")
        if not np.all(q > 0.0):
            raise ValueError("base weights must be positive")
        if not abs(float(q.sum()) - 1.0) <= MASS_TOL:
            raise ValueError("base weights must sum to 1")
        if self.mode == "uniform":
            if not np.all(np.abs(dv) <= q / 2.0):
                raise ValueError("uniform mode needs |delta| <= Q/2 per symbol")
        else:
            if not np.all((dv >= 0.0) & (dv <= q)):
                raise ValueError("deterministic mode needs 0 <= delta <= Q per symbol")


def perturbation_distribution(spec: PerturbationSpec) -> JointDistribution:
    """The perturbed joint law described by the spec."""
    q = np.array(spec.base_weights)
    dv = np.array(spec.deltas)
    if spec.mode == "uniform":
        p0, p1 = q / 2.0 + dv, q / 2.0 - dv
    else:
        p0, p1 = dv, q - dv
    return make_from_atoms(np.column_stack([p0, p1, np.ones_like(q)]))


def _perturbation_deviations(spec, order: Order, scales: Sequence[float]) -> list[tuple]:
    """(exact, approx) deviations at one order, with every delta times each of ``scales``.

    Sum Q^a and each symbol's Q^(a-2) (uniform mode) or Q^(a-1)
    (deterministic mode) do not depend on the scale and are computed once;
    then one pass over the symbols per scale.  The number type carries the
    arithmetic policy perturbation_sweep states.
    """
    if order.is_integer:
        num_t, a, precision = Fraction, int(order.alpha), nullcontext()
    else:
        num_t, a, precision = mpmath.mpf, mpmath.mpf(order.alpha), mpmath.workdps(50)
    uniform = spec.mode == "uniform"
    out = []
    with precision:
        qs = [num_t(qf) for qf in spec.base_weights]
        den = num_t(0)
        for q in qs:
            den += q**a
        lead = [q ** (a - 2) if uniform else q ** (a - 1) for q in qs]
        for scale in scales:
            num = acc = num_t(0)
            for q, q_lead, df in zip(qs, lead, spec.deltas):
                dv = num_t(df * scale)
                if uniform:
                    num += (q / 2 + dv) ** a + (q / 2 - dv) ** a
                    acc += dv * dv * q_lead
                else:
                    # 0**a is exactly 0 for every order a > 0, rational or mpf
                    dv_a = dv**a
                    num += dv_a + (q - dv) ** a
                    acc += dv_a - a * dv * q_lead
            if uniform:
                exact = num / (den * num_t(2) ** (1 - a)) - 1
                out.append((float(exact), float(2 * a * (a - 1) * acc / den)))
            else:
                out.append((float(num / den - 1), float(acc / den)))
    return out


class PerturbationRow(NamedTuple):
    order: Order
    scale: float
    exact: float
    approx: float
    rel_error: float


def perturbation_sweep(
    spec: PerturbationSpec, orders: Sequence, halvings: int = 5
) -> list[PerturbationRow]:
    """exact vs approx deviation at each order as the deltas are halved.

    Rows run order by order; within one, scale 1 is the spec as given and
    each later row halves the deltas.  Every order must be finite, > 0 and
    != 1, and all are checked before any is evaluated; ``halvings`` must be
    an integer >= 0.

    exact, the power-sum deviation of the perturbed joint:
      uniform:       sum[(Q/2+d)^a + (Q/2-d)^a] / (2^(1-a) sum Q^a) - 1
      deterministic: sum[d^a + (Q-d)^a] / (sum Q^a) - 1
    approx, its small-perturbation approximation:
      uniform:       2 a (a-1) sum[d^2 Q^(a-2)] / sum Q^a   (second order;
                     terminates the expansion, so it is exact at a = 2, 3)
      deterministic: (sum d^a - a sum[d Q^(a-1)]) / sum Q^a

    Both are evaluated in exact rational arithmetic at integral orders
    (binary64 inputs are exact rationals) and at 50 digits elsewhere, so
    the small-delta cancellation in the trailing "- 1" costs no precision
    and the rel_error |approx - exact| / |exact| (0 when both vanish)
    measures the approximation, not the evaluator.
    """
    if isinstance(orders, (str, Mapping)):
        raise TypeError(f"orders must be a sequence, not a string or mapping: {orders!r}")
    orders = [as_order(o) for o in orders]
    if any(o.kind != "finite" for o in orders):
        raise ValueError("perturbation study needs finite alpha > 0, != 1")
    if isinstance(halvings, bool) or not isinstance(halvings, numbers.Integral):
        raise TypeError(f"halvings must be an integer, got {halvings!r}")
    if halvings < 0:
        raise ValueError(f"halvings must be >= 0, got {halvings}")
    rows = []
    scales = [0.5**k for k in range(halvings + 1)]
    for order in orders:
        for scale, (exact, approx) in zip(scales, _perturbation_deviations(spec, order, scales)):
            if exact == 0.0:
                rel = 0.0 if approx == 0.0 else math.inf
            else:
                rel = abs(approx - exact) / abs(exact)
            rows.append(PerturbationRow(order, scale, exact, approx, rel))
    return rows


# ---------------------------------------------------------------------------
# Dominant-symbol (effective-set) diagnostic
# ---------------------------------------------------------------------------


class EffectiveSetReport(NamedTuple):
    """Smallest atom subset dominating both power sums at one order.

    ``indices`` lists atom positions in greedy pick order (largest combined
    share first); shares are the subset's fractions of the full numerator
    and denominator sums; ``entropy`` is the conditional entropy of the
    subset renormalized to unit mass.
    """

    order: Order
    indices: tuple[int, ...]
    num_share: float
    den_share: float
    entropy: float


def effective_set(d: JointDistribution, alpha) -> EffectiveSetReport:
    """Greedy cover of the power sums: which symbols actually matter at alpha.

    Atoms are added by descending combined contribution until both the
    numerator share and the denominator share exceed 0.99.  Which class
    of symbols dominates flips with the order; that flip is the point of
    the diagnostic.
    """
    o = as_order(alpha)
    if o.kind != "finite":
        raise ValueError("effective set is defined for finite alpha > 0, != 1")
    # numerator terms nu (u^a + v^a) and denominator terms nu, as conditional_renyi sums them
    lw, (u, v) = symbol_terms(d.p0, d.p1, d.weight, o.alpha)
    lk = lw + log2_power_kernel(u, v, o.alpha)
    num_c, den_c = np.exp2(lk - lk.max()), np.exp2(lw)
    num_share = num_c / num_c.sum()
    den_share = den_c / den_c.sum()
    score = num_share + den_share
    picked = np.argsort(-score, kind="stable")
    cum_num = np.cumsum(num_share[picked])
    cum_den = np.cumsum(den_share[picked])
    enough = np.flatnonzero((cum_num > 0.99) & (cum_den > 0.99))
    count = int(enough[0]) + 1 if enough.size else d.n_atoms
    chosen = picked[:count]
    sub_mass = float(np.sum(d.weight[chosen] * d.symbol_mass[chosen]))
    sub = JointDistribution(
        _freeze(d.p0[chosen]),
        _freeze(d.p1[chosen]),
        _freeze(d.weight[chosen] / sub_mass),
    )
    return EffectiveSetReport(
        order=o,
        indices=tuple(int(i) for i in chosen),
        num_share=float(cum_num[count - 1]),
        den_share=float(cum_den[count - 1]),
        entropy=conditional_renyi(sub, o),
    )
