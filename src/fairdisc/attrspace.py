"""Attribute spaces, categorical distributions over them, and the bias-to-fair sweep."""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

# Entries must sum to 1 within this tolerance to count as a distribution.
SUM_TOL = 1e-9
# Below this deviation we keep the entries as given instead of renormalizing,
# so exact constructions (uniform, extreme points) stay bit-exact.
_DRIFT_TOL = 1e-12
# JSON decodes numbers to exactly int or float; bool is its own type.
_JSON_NUMBERS = frozenset((int, float))


def is_number_list(value) -> bool:
    """True for a decoded JSON list whose items are all numbers (not bools)."""
    return isinstance(value, list) and _JSON_NUMBERS.issuperset(map(type, value))


@dataclass(frozen=True)
class AttributeSpace:
    """Product space of named categorical attributes.

    Outcomes are the Cartesian product of the per-attribute value lists,
    ordered lexicographically by attribute index, so outcome i maps to a
    unique value combination and to the i-th one-hot vector.
    """

    attributes: tuple[tuple[str, tuple[str, ...]], ...]

    def __post_init__(self):
        if not self.attributes:
            raise ValidationError("attribute space needs at least one attribute")
        attrs = tuple((str(name), tuple(str(v) for v in values)) for name, values in self.attributes)
        object.__setattr__(self, "attributes", attrs)
        for name, values in attrs:
            if not values:
                raise ValidationError(f"attribute {name!r} has no values")
            if len(set(values)) != len(values):
                raise ValidationError(f"attribute {name!r} has duplicate values")
        if self.k < 2:
            raise ValidationError(f"attribute space must have k >= 2 outcomes, got k={self.k}")

    @property
    def k(self) -> int:
        """Total number of outcomes (product of per-attribute cardinalities)."""
        n = 1
        for _, values in self.attributes:
            n *= len(values)
        return n

    @classmethod
    def of_size(cls, k: int, name: str = "u") -> "AttributeSpace":
        """Anonymous single-attribute space with k outcomes labelled 0..k-1."""
        if k < 2:
            raise ValidationError(f"k must be >= 2, got {k}")
        return cls(((name, tuple(str(i) for i in range(k))),))

    def outcome_labels(self) -> list[tuple[str, ...]]:
        return list(itertools.product(*(values for _, values in self.attributes)))

    def one_hot(self, index: int) -> np.ndarray:
        if not 0 <= index < self.k:
            raise ValidationError(f"outcome index {index} out of range for k={self.k}")
        v = np.zeros(self.k)
        v[index] = 1.0
        return v

    def to_dict(self) -> dict:
        return {"attributes": [{"name": n, "values": list(vs)} for n, vs in self.attributes]}


@dataclass(frozen=True, eq=False)
class CategoricalDistribution:
    """Probability vector over the outcomes of an AttributeSpace.

    Entries must be non-negative and sum to 1 within SUM_TOL; real drift
    beyond _DRIFT_TOL is renormalized away at construction. The stored
    array is read-only.
    """

    space: AttributeSpace
    p: np.ndarray

    def __post_init__(self):
        arr = np.array(self.p, dtype=float)
        if arr.shape != (self.space.k,):
            raise ValidationError(f"distribution has shape {arr.shape}, expected ({self.space.k},)")
        if not np.isfinite(arr).all():
            raise ValidationError("distribution entries must be finite")
        if (arr < 0).any():
            raise ValidationError("distribution entries must be non-negative")
        total = arr.sum()
        if abs(total - 1.0) > SUM_TOL:
            raise ValidationError(f"distribution entries sum to {float(total)}, expected 1")
        if abs(total - 1.0) > _DRIFT_TOL:
            arr = arr / total
        arr.setflags(write=False)
        object.__setattr__(self, "p", arr)

    @property
    def k(self) -> int:
        return self.space.k

    def to_dict(self) -> dict:
        return {"space": self.space.to_dict(), "p": [float(x) for x in self.p]}


def uniform(space: AttributeSpace) -> CategoricalDistribution:
    """The fair reference: every outcome gets exactly 1/k."""
    return CategoricalDistribution(space, np.full(space.k, 1.0 / space.k))


def ab_extreme_points(space: AttributeSpace) -> list[CategoricalDistribution]:
    """The k absolutely-biased extreme points (all mass on one outcome)."""
    return [CategoricalDistribution(space, space.one_hot(i)) for i in range(space.k)]


def sweep(space: AttributeSpace, step: float) -> list[CategoricalDistribution]:
    """Stepwise interpolation from the first extreme point to the uniform distribution.

    Epoch 1 puts all mass on outcome 0. Each later epoch moves `step` of
    probability mass from outcome 0 into the lowest-index outcome still
    below 1/k; the last transfer into each outcome is clamped so the
    outcome lands exactly on 1/k. The final epoch is the uniform
    distribution, reachable for every k because of the clamping.
    """
    k = space.k
    target = 1.0 / k
    if not (step > 0):
        raise ValidationError(f"step must be positive, got {step}")
    if step > target + _DRIFT_TOL:
        raise ValidationError(f"step must be <= 1/k = {target}, got {step}")

    epochs = [CategoricalDistribution(space, space.one_hot(0))]
    transfers = int(math.ceil(target / step - 1e-9))
    for j in range(1, k):
        for i in range(1, transfers + 1):
            v = min(i * step, target)
            if target - v < _DRIFT_TOL:
                v = target
            p = np.zeros(k)
            p[1:j] = target
            p[j] = v
            p[0] = 1.0 - (j - 1) * target - v
            if j == k - 1 and v == target:
                epochs.append(uniform(space))
            else:
                epochs.append(CategoricalDistribution(space, p))
    return epochs


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

def space_from_dict(obj) -> AttributeSpace:
    if not isinstance(obj, dict) or not isinstance(obj.get("attributes"), list):
        raise ValidationError('attribute-space JSON must be {"attributes": [...]}')
    attrs = []
    for entry in obj["attributes"]:
        try:
            attrs.append((entry["name"], tuple(entry["values"])))
        except (TypeError, KeyError) as exc:
            raise ValidationError(f"bad attribute entry {entry!r}: {exc}") from exc
    return AttributeSpace(tuple(attrs))


def load_space(path) -> AttributeSpace:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: invalid JSON: {exc}") from exc
    return space_from_dict(obj)


def load_distribution(path, space: AttributeSpace | None = None) -> CategoricalDistribution:
    """Read a distribution file: {"space": <path or inline>, "p": [...]}.

    A relative "space" path is resolved against the distribution file's
    directory. An explicit `space` argument overrides the file's.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(obj, dict) or "p" not in obj:
        raise ValidationError(f'{path}: distribution JSON must contain "p"')
    if not is_number_list(obj["p"]):
        raise ValidationError(f'{path}: "p" must be a list of numbers')
    if space is None:
        ref = obj.get("space")
        if isinstance(ref, dict):
            space = space_from_dict(ref)
        elif isinstance(ref, str):
            ref_path = ref if os.path.isabs(ref) else os.path.join(os.path.dirname(str(path)), ref)
            space = load_space(ref_path)
        elif isinstance(obj.get("k"), int):
            space = AttributeSpace.of_size(obj["k"])
        else:
            raise ValidationError(f'{path}: no "space" given and none supplied')
    return CategoricalDistribution(space, np.asarray(obj["p"], dtype=float))
