"""Independent reference evaluation of subchannel entropies.

Everything here recomputes what :mod:`polarlens.transform` produces, but
by direct enumeration of the whole input/output space of the length-N
code, with none of the split identities, ratio grouping, or base-2
kernels of the fast path.  Agreement between the two is the main
correctness argument for the engine, so this module deliberately shares
as little machinery with it as possible (natural-log accumulation through
its own log-sum-exp, plain supports and maxima for the limit orders).

Cost is A**N * 2**N joint entries for an A-atom root at level n (N = 2**n),
so this is for shallow levels only; the cap guards against surprises.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product as iter_product
from typing import NamedTuple

import mpmath
import numpy as np

from .distributions import CapacityError, DistributionError, JointDistribution
from .entropy import Order, as_order

#: Maximum number of joint entries (output tuples times input words).
DEFAULT_STATE_CAP = 1 << 24

#: Output tuples enumerated per vectorized block.
_CHUNK_TUPLES = 2048

_LN2 = math.log(2.0)


def generator_matrix(level: int) -> np.ndarray:
    """Binary generator of the length-2**level transform, x = u @ G mod 2.

    Kronecker powers of [[1, 0], [1, 1]] with bit-reversal row ordering,
    so that input u_i feeds subchannel i of the recursive construction.
    The matrix is its own inverse over GF(2).  Capped at level 4; that is
    the whole point of this module (ground truth at toy scale).
    """
    if not 0 <= level <= 4:
        raise ValueError("generator matrix is provided for levels 0..4")
    n = 1 << level
    g = np.array([[1]], dtype=np.uint8)
    base = np.array([[1, 0], [1, 1]], dtype=np.uint8)
    for _ in range(level):
        g = np.kron(g, base)
    # bit-reversal permutation of the rows
    rev = np.zeros(n, dtype=np.int64)
    for i in range(n):
        v = 0
        for k in range(level):
            v = (v << 1) | ((i >> k) & 1)
        rev[i] = v
    return g[rev]


def _input_to_codeword_index(level: int) -> np.ndarray:
    """For every input word u (u_1 as MSB), the index of x = u G mod 2."""
    n = 1 << level
    g = generator_matrix(level)
    u = np.arange(1 << n, dtype=np.int64)
    bits = (u[:, None] >> np.arange(n - 1, -1, -1)) & 1
    x = bits.astype(np.uint8) @ g % 2
    weights = (1 << np.arange(n - 1, -1, -1)).astype(np.int64)
    return x.astype(np.int64) @ weights


def _logsumexp(a) -> float:
    """ln sum(exp(a)) over every entry of an array with a finite maximum.

    The m entries equal to the maximum are taken out of the shifted sum,
    which then enters through log1p (Blanchard, Higham & Higham, IMA J.
    Numer. Anal. 41(4), 2021): ln m + max + log1p(sum(exp(rest - max)) / m).
    """
    a = np.asarray(a, dtype=np.float64)
    top = a.max()
    at_top = a == top
    m = np.count_nonzero(at_top)
    rest = np.sum(np.exp(np.where(at_top, -np.inf, a) - top)) / m
    return float(np.log1p(rest) + np.log(m) + top)


class _Accumulator:
    """Per-subchannel running totals, fed chunk by chunk.

    Finite orders accumulate log num / log den through ``_logsumexp``; the
    limit orders keep supports, Shannon sums, or maxima directly.
    """

    def __init__(self, order: Order):
        self.order = order
        self.log_num_parts: list[float] = []
        self.log_den_parts: list[float] = []
        self.joint_support = 0.0
        self.symbol_support = 0.0
        self.joint_plogp = 0.0
        self.symbol_plogp = 0.0
        self.max_joint = 0.0
        self.max_symbol = 0.0

    def feed(self, q: np.ndarray, logw: np.ndarray) -> None:
        """q: (classes, 2) joint columns; logw: (classes,) ln multiplicity."""
        s = q.sum(axis=1)
        kind = self.order.kind
        w = np.exp(logw)
        if kind == "zero":
            self.joint_support += float(np.sum(w * (q > 0.0).sum(axis=1)))
            self.symbol_support += float(np.sum(w, where=s > 0.0))
        elif kind == "one":
            with np.errstate(divide="ignore", invalid="ignore"):
                qlq = np.where(q > 0.0, q * np.log(q), 0.0)
                sls = np.where(s > 0.0, s * np.log(s), 0.0)
            self.joint_plogp += float(np.sum(w * qlq.sum(axis=1)))
            self.symbol_plogp += float(np.sum(w * sls))
        elif kind == "infinity":
            self.max_joint = max(self.max_joint, float(q.max(initial=0.0)))
            self.max_symbol = max(self.max_symbol, float(s.max(initial=0.0)))
        else:
            a = self.order.alpha
            with np.errstate(divide="ignore"):
                lq = np.log(q, out=np.full_like(q, -np.inf), where=q > 0.0)
                ls = np.log(s, out=np.full_like(s, -np.inf), where=s > 0.0)
            self.log_num_parts.append(_logsumexp(a * lq + logw[:, None]))
            self.log_den_parts.append(_logsumexp(a * ls + logw))

    def entropy_bits(self) -> float:
        kind = self.order.kind
        if kind == "zero":
            return math.log2(self.joint_support / self.symbol_support)
        if kind == "one":
            return (self.symbol_plogp - self.joint_plogp) / _LN2
        if kind == "infinity":
            return math.log2(self.max_symbol / self.max_joint)
        log_num = _logsumexp(self.log_num_parts)
        log_den = _logsumexp(self.log_den_parts)
        return (log_num - log_den) / ((1.0 - self.order.alpha) * _LN2)


def brute_force_profile(
    root: JointDistribution,
    level: int,
    orders,
) -> np.ndarray:
    """Entropies of all subchannels at ``level`` by full enumeration.

    Returns shape (len(orders), 2**level), subchannel i in column i - 1.

    Output tuples are enumerated atom-class by atom-class (the root's
    weights multiply through as tuple multiplicities), inputs by all
    2**N binary words mapped through the generator matrix.

    Raises
    ------
    CapacityError
        If A**N * 2**N exceeds ``DEFAULT_STATE_CAP``.
    """
    orders = [as_order(o) for o in orders]
    n = 1 << level
    a_count = root.n_atoms
    total = (a_count**n) * (1 << n)
    if total > DEFAULT_STATE_CAP:
        raise CapacityError(
            f"brute force would touch {total} joint entries (cap {DEFAULT_STATE_CAP})"
        )

    xidx = _input_to_codeword_index(level)
    p = np.stack([root.p0, root.p1], axis=0)  # (2, A)
    logw_atom = np.log(root.weight)

    accs = [[_Accumulator(o) for _ in range(n)] for o in orders]

    # bits[k, x] = k-th coordinate (1-based position k+1) of codeword x
    xs = np.arange(1 << n, dtype=np.int64)
    xbits = (xs[:, None] >> np.arange(n - 1, -1, -1)) & 1  # (2**N, N)

    mass = 0.0
    tuples = list(iter_product(range(a_count), repeat=n))
    for start in range(0, len(tuples), _CHUNK_TUPLES):
        chunk = np.array(tuples[start : start + _CHUNK_TUPLES], dtype=np.int64)
        t_count = chunk.shape[0]
        # joint probability of (x, y-tuple) per class, in x order
        px = np.ones((t_count, 1 << n))
        for k in range(n):
            px *= p[xbits[:, k], chunk[:, k][:, None]]
        logw = logw_atom[chunk].sum(axis=1)
        mass += float(np.sum(np.exp(logw) * px.sum(axis=1)))
        # reorder columns into u order: column u holds P(x(u), y)
        pu = px[:, xidx]
        for i in range(1, n + 1):
            q = pu.reshape(t_count, 1 << (i - 1), 2, 1 << (n - i)).sum(axis=3)
            q = q.reshape(t_count * (1 << (i - 1)), 2)
            lw = np.repeat(logw, 1 << (i - 1))
            for o_row, order in enumerate(orders):
                accs[o_row][i - 1].feed(q, lw)

    if abs(mass - 1.0) > 1e-9:
        raise DistributionError(
            f"enumerated joint law has mass {mass!r}; expected 1 within 1e-9"
        )
    out = np.empty((len(orders), n))
    for o_row in range(len(orders)):
        for i in range(n):
            out[o_row, i] = accs[o_row][i].entropy_bits()
    return out


def high_precision_conditional(d: JointDistribution, alpha: float) -> float:
    """Conditional entropy at finite alpha != 1 via 50-digit arithmetic.

    Atom floats are taken at face value (exact binary rationals).  Useful
    as a third opinion when the fast path and the brute force disagree.
    """
    if alpha <= 0 or abs(alpha - 1.0) < 1e-12 or math.isinf(alpha):
        raise ValueError("high-precision path covers finite alpha > 0, != 1")
    with mpmath.workdps(50):
        num = mpmath.mpf(0)
        den = mpmath.mpf(0)
        for atom in d.atoms():
            w = mpmath.mpf(atom.weight)  # float -> mpf is exact
            a0 = mpmath.mpf(atom.p0)
            a1 = mpmath.mpf(atom.p1)
            if a0 > 0:
                num += w * a0**alpha
            if a1 > 0:
                num += w * a1**alpha
            den += w * (a0 + a1) ** alpha
        h = (mpmath.log(num) - mpmath.log(den)) / ((1 - mpmath.mpf(alpha)) * mpmath.log(2))
        return float(h)


def rational_conditional_renyi(d: JointDistribution, alpha: int) -> float:
    """Conditional entropy at a positive integer order >= 2, exactly.

    Every binary64 probability is an exact rational, so for integral alpha
    the two power sums are computed as exact fractions; only the final two
    logarithms are rounded (at 50 digits).  Confirms the float kernels
    carry no systematic bias.
    """
    if not (isinstance(alpha, int) and alpha >= 2):
        raise ValueError("rational evaluation needs an integer order >= 2")
    num = Fraction(0)
    den = Fraction(0)
    for atom in d.atoms():
        w = Fraction(atom.weight)
        f0 = Fraction(atom.p0)
        f1 = Fraction(atom.p1)
        num += w * (f0**alpha + f1**alpha)
        den += w * (f0 + f1) ** alpha
    with mpmath.workdps(50):
        log_ratio = (
            mpmath.log(num.numerator)
            - mpmath.log(num.denominator)
            - mpmath.log(den.numerator)
            + mpmath.log(den.denominator)
        )
        return float(log_ratio / ((1 - alpha) * mpmath.log(2)))


class MinkowskiReport(NamedTuple):
    """Outcome of one p-norm triangle-inequality check."""

    lhs: float
    rhs: float
    satisfied: bool
    near_equality: bool


def minkowski_check(x, y, p: float) -> MinkowskiReport:
    """Check the p-norm triangle inequality direction on two vectors.

    lhs = ||x + y||_p against rhs = ||x||_p + ||y||_p: for p >= 1 the
    inequality is lhs <= rhs, for 0 < p < 1 it reverses.  Equality within
    1e-12 is flagged; it occurs exactly when x and y are positively
    linearly dependent.  This scalar fact drives the ordering of the minus
    child's entropy against its parents'.
    """
    if p <= 0:
        raise ValueError("p must be positive")
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if np.any(x < 0) or np.any(y < 0):
        raise ValueError("vectors must be nonnegative")

    def norm(v):
        vs = v[v > 0]
        if vs.size == 0:
            return 0.0
        m = vs.max()
        return float(m * np.sum((vs / m) ** p) ** (1.0 / p))

    lhs = norm(x + y)
    rhs = norm(x) + norm(y)
    slack = 1e-12
    ok = lhs <= rhs + slack if p >= 1.0 else lhs >= rhs - slack
    return MinkowskiReport(lhs, rhs, ok, abs(lhs - rhs) < slack)
