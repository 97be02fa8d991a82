"""Experiment layer: polarization fractions, designed counterexamples,
perturbation accuracy studies, and the dominant-symbol diagnostic.

These are the headline computations the library exists for; each one is a
thin, pure composition of the distribution/entropy/transform layers, so it
can be driven equally from tests, scripts, or the command line.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

import mpmath
import numpy as np

from .distributions import JointDistribution, make_from_atoms, _freeze
from .entropy import Order, as_order, conditional_renyi
from .transform import PolarizationProfile, level_profile_sweep


# ---------------------------------------------------------------------------
# Extremal fractions of a polarization profile
# ---------------------------------------------------------------------------


class ExtremalFractions(NamedTuple):
    """How much of one level sits near the entropy endpoints at one order.

    The level averages are conserved and entries polarize toward {0, 1},
    so frac_high tends to the root entropy and frac_low to its complement;
    those limits are reported as the predicted columns.
    """

    order: Order
    frac_high: float
    frac_low: float
    predicted_high: float
    predicted_low: float


def extremal_fractions(
    profile: PolarizationProfile, band: float
) -> list[ExtremalFractions]:
    """Per-order fractions of entries above 1 - band and below band."""
    if not 0.0 < band < 0.5:
        raise ValueError("band must lie in (0, 0.5)")
    out = []
    for k, order in enumerate(profile.orders):
        low, high = profile.extreme_fractions(order, band)
        root = float(profile.root_entropy[k])
        out.append(
            ExtremalFractions(
                order=order,
                frac_high=high,
                frac_low=low,
                predicted_high=root,
                predicted_low=1.0 - root,
            )
        )
    return out


def fraction_trend(
    root: JointDistribution,
    max_level: int,
    orders: Sequence,
    band: float,
    **profile_opts,
) -> list[tuple[int, list[ExtremalFractions]]]:
    """Extremal fractions at every level 1 .. max_level, one walk."""
    profiles = level_profile_sweep(root, max_level, orders, **profile_opts)
    return [(p.level, extremal_fractions(p, band)) for p in profiles]


def high_entropy_indices(
    profile: PolarizationProfile, order, threshold: float = 0.5
) -> np.ndarray:
    """1-based subchannel indices whose entropy exceeds ``threshold``."""
    return np.flatnonzero(profile.row(order) > threshold) + 1


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
    it collapses to 0.
    """

    alpha0: float
    size: int

    def __post_init__(self):
        if not self.alpha0 > 1.0:
            raise ValueError("alpha0 must exceed 1")
        if self.size < 2:
            raise ValueError("size must be >= 2")

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
    det_value = split / (n * m)
    uni_value = (n - 1.0) * split / (2.0 * n * m * lm1)
    return make_from_atoms(
        [
            (det_value, 0.0, m / split),
            (uni_value, uni_value, m * lm1 / split),
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
    opposite directions as size grows.
    """
    if orders is None:
        orders = (alpha0, alpha0 + 1.0)
    orders = [as_order(o) for o in orders]
    rows = []
    for size in sizes:
        params = ExtremeExampleParams(alpha0=alpha0, size=int(size))
        d = extreme_example_distribution(params)
        for o in orders:
            closed = extreme_example_closed_form(params, o)
            direct = conditional_renyi(d, o)
            rows.append(ExtremeExampleRow(int(size), o, closed, direct, abs(closed - direct)))
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
    """

    mode: str
    base_weights: tuple[float, ...]
    deltas: tuple[float, ...]
    order: Order

    def __post_init__(self):
        if self.mode not in ("uniform", "deterministic"):
            raise ValueError('mode must be "uniform" or "deterministic"')
        object.__setattr__(self, "base_weights", tuple(float(q) for q in self.base_weights))
        object.__setattr__(self, "deltas", tuple(float(v) for v in self.deltas))
        object.__setattr__(self, "order", as_order(self.order))
        q = np.array(self.base_weights)
        dv = np.array(self.deltas)
        if q.size == 0 or q.size != dv.size:
            raise ValueError("base_weights and deltas must have equal positive length")
        if np.any(q <= 0.0):
            raise ValueError("base weights must be positive")
        if abs(float(q.sum()) - 1.0) > 1e-9:
            raise ValueError("base weights must sum to 1")
        if self.mode == "uniform":
            if np.any(np.abs(dv) > q / 2.0):
                raise ValueError("uniform mode needs |delta| <= Q/2 per symbol")
        else:
            if np.any(dv < 0.0) or np.any(dv > q):
                raise ValueError("deterministic mode needs 0 <= delta <= Q per symbol")
        if self.order.kind != "finite":
            raise ValueError("perturbation study needs finite alpha > 0, != 1")

    def scaled(self, factor: float) -> "PerturbationSpec":
        """Same spec with every delta multiplied by ``factor``."""
        return PerturbationSpec(
            mode=self.mode,
            base_weights=self.base_weights,
            deltas=tuple(v * factor for v in self.deltas),
            order=self.order,
        )


def perturbation_distribution(spec: PerturbationSpec) -> JointDistribution:
    """The perturbed joint law described by the spec."""
    q = np.array(spec.base_weights)
    dv = np.array(spec.deltas)
    if spec.mode == "uniform":
        p0, p1 = q / 2.0 + dv, q / 2.0 - dv
    else:
        p0, p1 = dv, q - dv
    return make_from_atoms(np.column_stack([p0, p1, np.ones_like(q)]))


def _perturbation_deviations(spec: PerturbationSpec) -> tuple[float, float]:
    """(exact, approx) deviations of the spec, from one pass over its symbols.

    The number type carries the arithmetic policy perturbation_exact
    states: Fraction for integral orders, 50-digit mpf for all others.
    """
    if spec.order.is_integer:
        num_t, a, precision = Fraction, int(spec.order.alpha), nullcontext()
    else:
        num_t, a, precision = mpmath.mpf, mpmath.mpf(spec.order.alpha), mpmath.workdps(50)
    with precision:
        num = den = acc = num_t(0)
        for qf, df in zip(spec.base_weights, spec.deltas):
            q = num_t(qf)
            dv = num_t(df)
            den += q**a
            if spec.mode == "uniform":
                num += (q / 2 + dv) ** a + (q / 2 - dv) ** a
                acc += dv * dv * q ** (a - 2)
            else:
                # 0**a is exactly 0 for every order a > 0, rational or mpf
                dv_a = dv**a
                num += dv_a + (q - dv) ** a
                acc += dv_a - a * dv * q ** (a - 1)
        if spec.mode == "uniform":
            return (
                float(num / (den * num_t(2) ** (1 - a)) - 1),
                float(2 * a * (a - 1) * acc / den),
            )
        return float(num / den - 1), float(acc / den)


def perturbation_exact(spec: PerturbationSpec) -> float:
    """The exact power-sum deviation of the perturbed joint.

    uniform:       Delta = sum[(Q/2+d)^a + (Q/2-d)^a] / (2^(1-a) sum Q^a) - 1
    deterministic: Delta = sum[d^a + (Q-d)^a] / (sum Q^a) - 1

    Integral orders are evaluated in exact rational arithmetic (binary64
    inputs are exact rationals), everything else at 50 digits, so the
    small-delta cancellation in the trailing "- 1" costs no precision.
    """
    return _perturbation_deviations(spec)[0]


def perturbation_approx(spec: PerturbationSpec) -> float:
    """The small-perturbation approximation of the deviation.

    uniform:       2 a (a-1) sum[d^2 Q^(a-2)] / sum Q^a   (second order;
                   terminates the expansion, so it is exact at a = 2, 3)
    deterministic: (sum d^a - a sum[d Q^(a-1)]) / sum Q^a

    Arithmetic policy matches perturbation_exact, so comparisons between
    the two measure the approximation, not the evaluator.
    """
    return _perturbation_deviations(spec)[1]


class PerturbationRow(NamedTuple):
    scale: float
    exact: float
    approx: float
    rel_error: float


def perturbation_sweep(spec: PerturbationSpec, halvings: int = 5) -> list[PerturbationRow]:
    """exact vs approx deviation as the deltas are halved repeatedly.

    Scale 1 is the spec as given; each subsequent row halves the deltas.
    rel_error is |approx - exact| / |exact| (0 when both vanish).
    """
    rows = []
    for k in range(halvings + 1):
        scale = 0.5**k
        exact, approx = _perturbation_deviations(spec.scaled(scale))
        if exact == 0.0:
            rel = 0.0 if approx == 0.0 else math.inf
        else:
            rel = abs(approx - exact) / abs(exact)
        rows.append(PerturbationRow(scale, exact, approx, rel))
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


def effective_set(d: JointDistribution, alpha, eps: float = 0.01) -> EffectiveSetReport:
    """Greedy cover of the power sums: which symbols actually matter at alpha.

    Atoms are added by descending combined contribution until both the
    numerator share and the denominator share exceed 1 - eps.  Which class
    of symbols dominates flips with the order; that flip is the point of
    the diagnostic.
    """
    o = as_order(alpha)
    if o.kind != "finite":
        raise ValueError("effective set is defined for finite alpha > 0, != 1")
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    a = o.alpha
    s = d.symbol_mass
    scale_p = float(np.max(np.maximum(d.p0, d.p1)))
    scale_s = float(np.max(s))
    num_c = d.weight * ((d.p0 / scale_p) ** a + (d.p1 / scale_p) ** a)
    den_c = d.weight * (s / scale_s) ** a
    num_share = num_c / num_c.sum()
    den_share = den_c / den_c.sum()
    score = num_share + den_share
    picked = np.argsort(-score, kind="stable")
    cum_num = np.cumsum(num_share[picked])
    cum_den = np.cumsum(den_share[picked])
    enough = np.flatnonzero((cum_num > 1.0 - eps) & (cum_den > 1.0 - eps))
    count = int(enough[0]) + 1 if enough.size else d.n_atoms
    chosen = picked[:count]
    sub_mass = float(np.sum(d.weight[chosen] * s[chosen]))
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
