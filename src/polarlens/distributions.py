"""Weighted joint distributions of a binary input and a finite output alphabet.

A channel observation is modeled by its joint distribution P(X, Y) with
X in {0, 1}.  Internally the distribution is a weighted multiset of atoms:
an atom (p0, p1, weight) stands for ``weight`` output symbols y that share
the same joint column (P(X=0, y), P(X=1, y)) = (p0, p1).  Weights are
positive reals, so scaled symbol classes (for example "all symbols of the
uniform part") can be carried without enumerating them.

Atoms are value-level objects: two atoms merge only when their probability
pairs are bitwise identical.  Merging symbols by summing their probability
columns is never done here, because the conditional entropy measures used
downstream are not invariant under that operation.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

import numpy as np

#: Default tolerance on |total mass - 1| accepted at construction.
MASS_TOL = 1e-9


class DistributionError(ValueError):
    """The given atoms do not form a valid weighted joint distribution."""


class CapacityError(RuntimeError):
    """An operation would materialize more atoms than the configured cap."""


class JointAtom(NamedTuple):
    """One output-symbol class: joint column (p0, p1) with a real multiplicity."""

    p0: float
    p1: float
    weight: float


@dataclass(frozen=True, eq=False)
class JointDistribution:
    """Immutable weighted multiset of joint-probability atoms.

    Attributes
    ----------
    p0, p1 : np.ndarray
        Joint probabilities P(X=0, y) and P(X=1, y) per atom.
    weight : np.ndarray
        Positive real multiplicity of each atom.
    """

    p0: np.ndarray
    p1: np.ndarray
    weight: np.ndarray

    @property
    def n_atoms(self) -> int:
        return self.p0.shape[0]

    @property
    def mass(self) -> float:
        """Total probability, sum of weight * (p0 + p1)."""
        return float(np.sum(self.weight * (self.p0 + self.p1)))

    @property
    def symbol_mass(self) -> np.ndarray:
        """Per-atom output-symbol probability p0 + p1."""
        return self.p0 + self.p1

    def atoms(self) -> Iterator[JointAtom]:
        for a, b, w in zip(self.p0, self.p1, self.weight):
            yield JointAtom(float(a), float(b), float(w))

    def to_json_dict(self) -> dict:
        return {"atoms": [[a.p0, a.p1, a.weight] for a in self.atoms()]}


def _check_count(name: str, value) -> None:
    """Refuse a ``value`` that is not an integer >= 1 (a NaN ``atom_cap`` would disable every budget)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    arr.setflags(write=False)
    return arr


def _from_arrays(
    p0: np.ndarray,
    p1: np.ndarray,
    weight: np.ndarray,
    *,
    normalization_tol: float | None = MASS_TOL,
) -> JointDistribution:
    """Validating constructor shared by every public builder.

    Drops nothing and copies nothing beyond dtype coercion; callers are
    expected to have removed zero-mass atoms already.
    """
    p0 = np.asarray(p0, dtype=np.float64)
    p1 = np.asarray(p1, dtype=np.float64)
    weight = np.asarray(weight, dtype=np.float64)
    if not (p0.shape == p1.shape == weight.shape) or p0.ndim != 1:
        raise DistributionError("atom arrays must be 1-D and of equal length")
    if p0.size == 0:
        raise DistributionError("a distribution needs at least one atom")
    for name, arr in (("p0", p0), ("p1", p1), ("weight", weight)):
        if not np.all(np.isfinite(arr)):
            raise DistributionError(f"non-finite {name} entry")
    if np.any(p0 < 0.0) or np.any(p1 < 0.0):
        raise DistributionError("negative probability entry")
    if np.any(weight <= 0.0):
        raise DistributionError("atom weights must be positive")
    if np.any(p0 + p1 <= 0.0):
        raise DistributionError("zero-mass atom (p0 + p1 must be positive)")
    d = JointDistribution(_freeze(p0), _freeze(p1), _freeze(weight))
    if normalization_tol is not None:
        err = abs(d.mass - 1.0)
        if not err <= normalization_tol:
            raise DistributionError(
                f"total mass deviates from 1 by {err:.3e} "
                f"(tolerance {normalization_tol:.1e})"
            )
    return d


def make_from_atoms(
    atoms: Sequence | np.ndarray,
    *,
    normalization_tol: float | None = MASS_TOL,
) -> JointDistribution:
    """Build a distribution from (p0, p1, weight) triples.

    Parameters
    ----------
    atoms : sequence of triples or (n, 3) array
        Joint columns with multiplicities.  A bare (p0, p1) pair gets
        weight 1.
    normalization_tol : float or None
        Accepted deviation of the total mass from 1.  A mass admitted off 1
        by more than ``MASS_TOL`` is divided out of the weights, so the law
        has unit mass; None admits any mass and keeps the weights as given.

    Raises
    ------
    DistributionError
        On an atom that is not a pair or triple of numbers, negative or
        non-finite entries, non-positive weights, zero-mass atoms, or a
        normalization failure.
    """
    rows = []
    for atom in atoms:
        try:
            t = tuple(float(v) for v in atom)
        except (TypeError, ValueError):
            t = ()  # not a sequence of numbers: refused below
        if len(t) == 2:
            t = (*t, 1.0)
        if len(t) != 3:
            raise DistributionError(f"atom {atom!r} is not a (p0, p1, weight) triple")
        rows.append(t)
    if not rows:
        raise DistributionError("a distribution needs at least one atom")
    arr = np.array(rows, dtype=np.float64)
    d = _from_arrays(arr[:, 0], arr[:, 1], arr[:, 2], normalization_tol=normalization_tol)
    if normalization_tol is None or abs(d.mass - 1.0) <= MASS_TOL:
        return d
    return _from_arrays(d.p0, d.p1, d.weight / d.mass)


def make_bsc(crossover: float, prior0: float = 0.5) -> JointDistribution:
    """Joint distribution of a binary symmetric channel with input prior.

    Output symbol y=0 carries the column (prior0*(1-crossover), (1-prior0)*crossover)
    and y=1 the mirrored column.  Zero-mass symbols (degenerate priors or
    crossover values) are dropped.
    """
    if not 0.0 <= crossover <= 1.0:
        raise DistributionError("crossover probability must lie in [0, 1]")
    if not 0.0 <= prior0 <= 1.0:
        raise DistributionError("prior0 must lie in [0, 1]")
    q0, q1 = prior0, 1.0 - prior0
    cols = np.array(
        [
            [q0 * (1.0 - crossover), q1 * crossover],
            [q0 * crossover, q1 * (1.0 - crossover)],
        ]
    )
    keep = cols.sum(axis=1) > 0.0
    cols = cols[keep]
    return _from_arrays(cols[:, 0], cols[:, 1], np.ones(len(cols)))


def make_bec(erasure: float, prior0: float = 0.5) -> JointDistribution:
    """Joint distribution of a binary erasure channel with input prior.

    Three symbol classes: the two noiseless outputs and the erasure symbol
    that keeps both inputs alive.  Zero-mass classes are dropped.
    """
    if not 0.0 <= erasure <= 1.0:
        raise DistributionError("erasure probability must lie in [0, 1]")
    if not 0.0 <= prior0 <= 1.0:
        raise DistributionError("prior0 must lie in [0, 1]")
    q0, q1 = prior0, 1.0 - prior0
    cols = np.array(
        [
            [q0 * (1.0 - erasure), 0.0],
            [0.0, q1 * (1.0 - erasure)],
            [q0 * erasure, q1 * erasure],
        ]
    )
    keep = cols.sum(axis=1) > 0.0
    cols = cols[keep]
    return _from_arrays(cols[:, 0], cols[:, 1], np.ones(len(cols)))


def random_joint(
    rng: np.random.Generator,
    min_symbols: int = 2,
    max_symbols: int = 8,
) -> JointDistribution:
    """Draw a generic joint distribution for randomized checks.

    Entries are independent exponential variates normalized to total mass 1,
    so every joint entry is strictly positive and the atom count is uniform
    on [min_symbols, max_symbols].  Both sizes must be integers, not bools,
    with 1 <= min_symbols <= max_symbols; anything else raises ValueError.
    """
    _check_count("min_symbols", min_symbols)
    _check_count("max_symbols", max_symbols)
    if max_symbols < min_symbols:
        raise ValueError("need 1 <= min_symbols <= max_symbols")
    k = int(rng.integers(min_symbols, max_symbols + 1))
    raw = rng.exponential(size=(2, k))
    raw /= raw.sum()
    return _from_arrays(raw[0], raw[1], np.ones(k))


def canonicalize_orientation(d: JointDistribution) -> JointDistribution:
    """Reorient every atom so p0 >= p1, then merge bitwise-equal atoms.

    Flipping the input label per output symbol changes the joint law of
    (X, Y) but no conditional entropy of it or of any transform descendant,
    because the one-step construction commutes with per-symbol flips.
    Canonical orientation exposes many more bitwise duplicates, which is
    what keeps deep synthesis tractable.  Merged atoms sum their weights,
    and the result is sorted by (p0, p1), so it does not depend on the
    order of the input atoms.
    """
    hi = np.maximum(d.p0, d.p1)
    lo = np.minimum(d.p0, d.p1)
    order = np.lexsort((lo, hi))
    p0, p1, weight = hi[order], lo[order], d.weight[order]
    boundary = np.empty(p0.shape[0], dtype=bool)
    boundary[0] = True
    boundary[1:] = (p0[1:] != p0[:-1]) | (p1[1:] != p1[:-1])
    starts = np.flatnonzero(boundary)
    return JointDistribution(
        _freeze(p0[starts]), _freeze(p1[starts]), _freeze(np.add.reduceat(weight, starts))
    )


def _is_json_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def from_json_dict(obj: dict) -> JointDistribution:
    """Build a distribution from the JSON file schema.

    Expected shape: {"atoms": [[p0, p1, weight], ...]} whose entries are
    numbers, with an optional "normalization_tol" override of ``MASS_TOL``,
    a finite number >= 0, passed to :func:`make_from_atoms`.
    """
    if not isinstance(obj, dict) or not isinstance(obj.get("atoms"), list):
        raise DistributionError('distribution JSON must contain an "atoms" list')
    tol = obj.get("normalization_tol", MASS_TOL)
    if not _is_json_number(tol) or not 0 <= tol < math.inf:
        raise DistributionError(f'"normalization_tol" must be a finite number >= 0, not {tol!r}')
    for atom in obj["atoms"]:
        if not isinstance(atom, list) or not all(_is_json_number(v) for v in atom):
            raise DistributionError(f"atom {atom!r} is not a list of numbers")
    return make_from_atoms(obj["atoms"], normalization_tol=tol)


def load_file(path: str) -> JointDistribution:
    """Load a distribution from a JSON file (see ``from_json_dict``)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise DistributionError(f"cannot read distribution file {path}: {exc}") from exc
    return from_json_dict(obj)
