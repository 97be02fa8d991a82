"""Independent reference evaluation of subchannel entropies.

Everything here recomputes what :mod:`polarlens.transform` produces, but
by direct enumeration of the whole input/output space of the length-N
code, with none of the split identities, ratio grouping, or base-2
kernels of the fast path.  Agreement between the two is the main
correctness argument for the engine, so this module deliberately shares
as little machinery with it as possible (natural-log accumulation through
its own log-sum-exp, plain supports and maxima for the limit orders).
Subchannel i is the chain-rule difference H(Y, U^i) - H(Y, U^{i-1}) of
two prefix laws, each summed once, in pairs from the one below it, and
read once by every order.  One exact evaluator,
:func:`high_precision_conditional`, gives a third opinion in rational or
50-digit arithmetic, and :func:`bec_reference_profile` runs the erasure
channel's scalar recursions at 60 digits, to any depth.

Each position translation k -> k xor b of the length-N code (N = 2**n) is
an automorphism that successive-cancellation decoding absorbs (Bardet,
Dragoi, Otmani & Tillich, ISIT 2016; Geiselhart, Elkelesh, Ebada,
Cammerer & ten Brink, "On the automorphism group of polar codes", ISIT
2021): two output tuples that differ by one give every prefix law the
same multiset of values at the same weight.  So the enumeration visits one
output tuple per translation orbit, weighted by the orbit's size, and
reads about 2 A**N 2**N / N prefix-law values per order for an A-atom root
at level n, each order's terms floored at e^-700 of their largest.  The
cap still counts the whole joint law, A**N * 2**N entries; this is for
shallow levels only, and the cap guards against surprises.
"""

from __future__ import annotations

import math
import numbers
from fractions import Fraction
from typing import NamedTuple

import mpmath
import numpy as np

from .distributions import MASS_TOL, CapacityError, DistributionError, JointDistribution, make_bec
from .entropy import as_order

#: Maximum number of joint entries (output tuples times input words), all
#: of them counted though one tuple per translation orbit is visited.
DEFAULT_STATE_CAP = 1 << 24

#: Output tuples (orbit representatives) evaluated per vectorized chunk.
_CHUNK_TUPLES = 2048

_LN2 = math.log(2.0)

#: Finite orders within this of 1 take the eps form of brute_force_profile:
#: on level 3 of BEC(0.35) and BEC(0.5) it was at most 3.6e-15 off the 60-digit
#: reference from 0.75 to 1.25 (the log-sum-exp ratio: up to 1.5e-14), but
#: its q expm1(eps ln q) terms cancel beyond (9.4e-15 at 1.4).
_EPS_FORM_BAND = 0.25

#: Integral orders up to this take exact Fraction powers in
#: high_precision_conditional, whose digits, and cost, grow with the order
#: (BSC(0.2), shared 2-core host: 0.01 s at 512, 0.03 s at 1e3, 2.8 s at
#: 1e4, and 1e300 never returns); larger ones take the 50-digit branch
#: (under 1 ms to 1e5, 0.06-0.2 s at 1e300).
_EXACT_ORDER_MAX = 512


def _check_level(level) -> None:
    """Refuse a ``level`` that is a bool or not an integer >= 0."""
    if isinstance(level, bool) or not isinstance(level, numbers.Integral) or level < 0:
        raise ValueError(f"level must be an integer >= 0, got {level!r}")


def generator_matrix(level: int) -> np.ndarray:
    """Binary generator of the length-2**level transform, x = u @ G mod 2.

    Kronecker powers of [[1, 0], [1, 1]] with bit-reversal row ordering,
    so that input u_i feeds subchannel i of the recursive construction.
    The matrix is its own inverse over GF(2).  Capped at level 4; that is
    the whole point of this module (ground truth at toy scale).

    Raises
    ------
    ValueError
        If ``level`` is a bool or not an integer from 0 to 4.
    """
    _check_level(level)
    if level > 4:
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


def _translation_orbits(a_count: int, level: int):
    """Yield (classes, sizes): one output tuple per translation orbit.

    Tuples of N = 2**level atom classes run in lexicographic order, tuple
    k with class (k // A**(N-1-pos)) % A at position pos.  A translation
    b in [0, N) moves position pos to pos ^ b.  Each orbit is yielded once,
    as its smallest tuple (a row of ``classes``), with its size: N over the
    number of translations that fix it.  Tuples are scanned in blocks and
    yielded in chunks of at most ``_CHUNK_TUPLES`` rows; the sizes add up to
    A**N.
    """
    n = 1 << level
    count = a_count**n
    place = a_count ** np.arange(n - 1, -1, -1, dtype=np.int64)
    block = _CHUNK_TUPLES * n
    for start in range(0, count, block):
        k = np.arange(start, min(start + block, count), dtype=np.int64)
        classes = k[:, None] // place % a_count
        least = np.ones(k.size, dtype=bool)
        fixed = np.ones(k.size, dtype=np.int64)
        for b in range(1, n):
            image = classes[:, np.arange(n) ^ b] @ place
            least &= k <= image
            fixed += image == k
        classes, sizes = classes[least], n // fixed[least]
        for s in range(0, sizes.size, _CHUNK_TUPLES):
            yield classes[s : s + _CHUNK_TUPLES], sizes[s : s + _CHUNK_TUPLES]


def _logsumexp(a: np.ndarray) -> float:
    """ln sum(exp(a)) over every entry of a float array with a finite maximum.

    The m entries equal to the maximum are taken out of the shifted sum,
    which then enters through log1p (Blanchard, Higham & Higham, IMA J.
    Numer. Anal. 41(4), 2021): ln m + max + log1p(sum(exp(rest - max)) / m).
    Shifted terms below -700 (-inf included) are raised to it, which keeps
    exp off its slow subnormal path below -708 and moves a sum of at most
    2**24 terms by under 2**-980 of itself.  The terms overwrite ``a``.
    """
    top = a.max()
    at_top = a == top
    m = np.count_nonzero(at_top)
    a -= top
    np.maximum(a, -700.0, out=a)
    np.copyto(a, -np.inf, where=at_top)
    rest = np.sum(np.exp(a, out=a)) / m
    return float(np.log1p(rest) + np.log(m) + top)


def brute_force_profile(
    root: JointDistribution,
    level: int,
    orders,
) -> np.ndarray:
    """Entropies of all subchannels at ``level`` by full enumeration.

    Returns shape (len(orders), 2**level), subchannel i in column i - 1.

    Output tuples are enumerated atom-class by atom-class (the root's
    weights multiply through as tuple multiplicities), one per orbit of
    the N position translations k -> k xor b, times the orbit's size: a
    translation permutes the values of every prefix law of a tuple and
    keeps its weight (see the module docstring), so every sum and maximum
    below is that of the full enumeration.  Inputs run over all 2**N
    binary words mapped through the generator matrix (Arikan, IEEE T-IT
    2009).  Subchannel i is H(Y, U^i) - H(Y, U^{i-1}) over the prefix
    laws v_j of (Y, U_1..U_j): v_N = P(y, u), and v_j sums v_{j+1} over
    u_{j+1} in pairs.  Each chunk of tuples walks j = N..0, one level held
    at a time, and every order reads each level once, about 2 A**N 2**N / N
    values per order: a finite order alpha sums J_j = ln sum w v_j^alpha
    through a log-sum-exp floored at e^-700 and gives (J_i - J_{i-1}) /
    ((1 - alpha) ln 2); orders 0 and inf take weighted supports and peaks.
    Near order 1, where that quotient loses digits, alpha = 1 + eps also
    sums num - den = sum w [sum_x q_x expm1(eps ln q_x) - s expm1(eps ln
    s)] row by row, s a row of level i - 1 and q its pair at level i (q ln q
    over eps at eps = 0), and gives -log1p((num - den) / den) / (eps ln 2).

    Raises
    ------
    ValueError
        If ``level`` is a bool or not an integer >= 0.
    CapacityError
        If A**N * 2**N, the whole joint law, exceeds ``DEFAULT_STATE_CAP``.
    DistributionError
        If the root's mass is off 1 by more than ``MASS_TOL``, or the
        enumerated joint law's mass is off the root's to the N-th power by
        more than 1e-9.
    """
    _check_level(level)
    orders = [as_order(o) for o in orders]
    finite = list(dict.fromkeys(o.alpha for o in orders if o.kind == "finite"))
    near = [a - 1.0 for a in finite if abs(a - 1.0) <= _EPS_FORM_BAND]
    near += [0.0] if any(o.kind == "one" for o in orders) else []
    n = 1 << level
    a_count = root.n_atoms
    tuple_count = a_count**n
    total = tuple_count * (1 << n)
    if total > DEFAULT_STATE_CAP:
        raise CapacityError(
            f"brute force would touch {total} joint entries (cap {DEFAULT_STATE_CAP})"
        )
    root_mass = root.mass
    if not abs(root_mass - 1.0) <= MASS_TOL:
        raise DistributionError(f"root has mass {root_mass!r}; expected 1 within {MASS_TOL:g}")

    p = np.stack([root.p0, root.p1], axis=0)  # (2, A)
    logw_atom = np.log(root.weight)

    # xbits[u, k] = k-th coordinate (1-based position k+1) of the codeword x(u)
    xidx = _input_to_codeword_index(level)
    xbits = (xidx[:, None] >> np.arange(n - 1, -1, -1)) & 1  # (2**N, N)
    # per prefix length j = 0..N: weighted support, peak, log-sum-exp parts
    support = np.zeros(n + 1)
    peak = np.zeros(n + 1)
    lse_parts = []  # one (finite orders, N + 1) array per chunk
    excess = np.zeros((len(near), n))  # num - den of the eps form, per subchannel

    mass = 0.0
    for chunk, sizes in _translation_orbits(a_count, level):
        # v[u, t] = P(x(u), tuple t): the law of (Y, U_1..U_N), input word first
        v = p[:, chunk[:, 0]][xbits[:, 0]]
        for pos in range(1, n):
            v *= p[:, chunk[:, pos]][xbits[:, pos]]
        # each representative stands for its whole orbit
        logw = logw_atom[chunk].sum(axis=1) + np.log(sizes)
        w_tuple = np.exp(logw)
        part = np.empty((len(finite), n + 1))
        above = []  # level j + 1's eps terms
        for j in range(n, -1, -1):
            if j < n:
                v = v[0::2] + v[1::2]  # sums out u_{j+1}
            lv = np.log(v, out=np.full_like(v, -np.inf), where=v > 0.0)
            t = np.empty_like(lv)
            for f, a in enumerate(finite):
                np.multiply(lv, a, out=t)
                t += logw
                part[f, j] = _logsumexp(t)
            support[j] += np.sum(w_tuple * np.count_nonzero(v, axis=0))
            peak[j] = max(peak[j], v.max())
            terms = []
            for e in near:
                if e:
                    np.expm1(np.multiply(lv, e, out=t), out=t)
                terms.append(np.multiply(v, t if e else lv, out=np.zeros_like(v), where=v > 0.0))
            del t, lv  # freed before the differences' temporaries
            for f, (hi, lo) in enumerate(zip(above, terms)):
                excess[f, j] += np.sum(w_tuple * (hi[0::2] + hi[1::2] - lo))
            above = terms
        lse_parts.append(part)
        mass += float(np.sum(w_tuple * v[0]))

    # N independent uses of the root; every branch below is scale-free, so
    # a root admitted off unit mass is checked against its own mass
    expected = root_mass**n
    if abs(mass - expected) > 1e-9:
        raise DistributionError(
            f"enumerated joint law has mass {mass!r}; expected {expected!r} within 1e-9"
        )
    # each part array is read once, so its log-sum-exp may overwrite it
    lse_parts = np.stack(lse_parts, axis=-1)
    lse = np.array([_logsumexp(part) for part in lse_parts.reshape(-1, lse_parts.shape[-1])])
    lse = lse.reshape(lse_parts.shape[:2])
    out = np.empty((len(orders), n))
    for row, order in enumerate(orders):
        # subchannel i + 1 joins level i + 1 to the condition at level i
        for i in range(n):
            eps = order.alpha - 1.0
            if order.kind == "zero":
                h = math.log2(support[i + 1] / support[i])
            elif order.kind == "infinity":
                h = math.log2(peak[i] / peak[i + 1])
            elif eps == 0.0:
                h = -excess[near.index(eps), i] / (mass * _LN2)
            else:
                f = finite.index(order.alpha)
                if eps in near:
                    ratio = excess[near.index(eps), i] / math.exp(lse[f, i])
                    h = -math.log1p(ratio) / (eps * _LN2)
                else:
                    h = (lse[f, i + 1] - lse[f, i]) / (-eps * _LN2)
            out[row, i] = h
    return out


def high_precision_conditional(d: JointDistribution, alpha) -> float:
    """Conditional entropy at a finite order, exactly or at 50 digits.

    Atom floats are taken at face value (exact binary rationals).  For
    integral orders from 2 to ``_EXACT_ORDER_MAX`` the two power sums are
    exact Fractions and only the final logarithms are rounded (at 50
    digits); every other finite order, larger integral ones included, sums
    in 50-digit mpf.  A third opinion when the fast path and the brute
    force disagree, and a check that the float kernels carry no systematic
    bias.
    """
    order = as_order(alpha)
    if order.kind != "finite":
        raise ValueError(f"exact evaluation covers finite orders other than 1, got {order}")
    if order.is_integer and order.alpha <= _EXACT_ORDER_MAX:
        num_t, a = Fraction, int(order.alpha)
    else:
        num_t, a = mpmath.mpf, mpmath.mpf(order.alpha)
    with mpmath.workdps(50):
        num = den = num_t(0)
        for atom in d.atoms():
            w, a0, a1 = num_t(atom.weight), num_t(atom.p0), num_t(atom.p1)
            # 0**a is exactly 0 for every order a > 0, rational or mpf
            num += w * a0**a
            num += w * a1**a
            den += w * (a0 + a1) ** a
        if num_t is Fraction:
            # mpmath builds no mpf from a Fraction: take the logs of its parts
            log_ratio = (
                mpmath.log(num.numerator)
                - mpmath.log(num.denominator)
                - mpmath.log(den.numerator)
                + mpmath.log(den.denominator)
            )
        else:
            log_ratio = mpmath.log(num) - mpmath.log(den)
        return float(log_ratio / ((1 - a) * mpmath.log(2)))


def _erasure_maps(root: JointDistribution, order):
    """(start, minus, plus, value) of the scalar erasure recursion at one order."""
    erased = (root.p1 == root.p0).tolist()
    # the larger entry of each output: P(X=0, y) after an input flip
    p0 = [mpmath.mpf(v) for v in np.maximum(root.p0, root.p1).tolist()]
    w = [mpmath.mpf(v) for v in root.weight.tolist()]

    def class_sum(power, keep):
        return mpmath.fsum(wi * pi**power for wi, pi, k in zip(w, p0, erased) if k == keep)

    if order.kind == "one":
        z = 2 * class_sum(1, True) / (2 * class_sum(1, True) + class_sum(1, False))
        return z, (lambda z: 2 * z - z * z), (lambda z: z * z), (lambda z: z)
    if order.kind == "infinity":
        s = max(p for p, k in zip(p0, erased) if k) / max(p for p, k in zip(p0, erased) if not k)
        return (
            s,
            lambda s: max(s, 2 * s * s),
            lambda s: s * s / max(1, s),
            lambda s: mpmath.log(max(1, 2 * s), 2) - mpmath.log(max(1, s), 2),
        )
    a = mpmath.mpf(order.alpha)
    scale = mpmath.power(2, a)
    return (
        class_sum(a, True) / class_sum(a, False),
        lambda t: 2 * t + scale * t * t,
        lambda t: 2 * t * t / (1 + 4 * t),
        lambda t: mpmath.log((1 + 2 * t) / (1 + scale * t), 2) / (1 - a),
    )


def bec_reference_profile(erasure: float, level: int, orders) -> np.ndarray:
    """Entropies of all subchannels of ``make_bec(erasure)`` at 60 digits.

    Returns shape (len(orders), 2**level), subchannel i in column i - 1, as
    :func:`brute_force_profile` does.  The root's atoms are taken at face
    value (exact binary rationals).  With a uniform prior every output is
    clean (P(X=1, y) = 0 up to an input flip) or erased (P(X=0, y) =
    P(X=1, y)), and each subchannel is one path of a scalar recursion,
    run in mpmath:

    * order 1: the erasure probability z, z -> 2z - z^2 (minus) and
      z -> z^2 (plus), whose value is z itself (Arikan 2009);
    * other finite orders, 0 included: t = mu(erased) / mu(clean), where
      mu sums w * P(X=0, y)^alpha over a class of outputs (at order 0 it
      counts them); t -> 2t + 2^alpha t^2 and t -> 2t^2 / (1 + 4t), with
      value log2((1 + 2t) / (1 + 2^alpha t)) / (1 - alpha);
    * order inf: s, the largest P(X=0, y) of the erased class over that of
      the clean class; s -> max(s, 2s^2) and s -> s^2 / max(1, s), with
      value log2 max(1, 2s) - log2 max(1, s).

    BEC(0) and BEC(1) stay noiseless and useless at every depth: all their
    entries are 0 and 1.  Cost is 2**(level + 1) scalar steps per order.

    Raises
    ------
    ValueError
        If ``level`` is a bool or not an integer >= 0.
    """
    _check_level(level)
    root = make_bec(erasure)
    orders = [as_order(o) for o in orders]
    out = np.empty((len(orders), 1 << level))
    if erasure in (0.0, 1.0):
        out.fill(erasure)
        return out
    with mpmath.workdps(60):
        for row, order in enumerate(orders):
            start, minus, plus, value = _erasure_maps(root, order)
            states = [start]
            for _ in range(level):
                states = [f(x) for x in states for f in (minus, plus)]
            out[row] = [float(value(x)) for x in states]
    return out


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
    if not p > 0:
        raise ValueError("p must be positive")
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if not (np.all(np.isfinite(x) & (x >= 0)) and np.all(np.isfinite(y) & (y >= 0))):
        raise ValueError("vectors must be finite and nonnegative")

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
