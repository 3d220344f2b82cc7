"""Attribute spaces, categorical distributions over them, and the bias-to-fair sweep."""

from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, check_int, check_path, check_real, check_type

# Input limits, each checked at one site before anything of its size is built.
# Most outcomes a space may have (check_k).
MAX_OUTCOMES = 1000
# Most floats one block of rows may hold (check_block): a sweep path, or the
# sampled AB block of run_ep_analysis. A k x k matrix always fits.
MAX_BLOCK_ENTRIES = 2 * 10**6
# Most samples per estimate; Generator.multinomial takes a C long (Sampled).
MAX_SAMPLES = 2**63 - 1

# Entries must sum to 1 within this tolerance to count as a distribution, or as a confusion row.
SUM_TOL = 1e-9
# Below this deviation we keep the entries as given instead of renormalizing,
# so exact constructions (uniform and one-hot rows) stay bit-exact.
_DRIFT_TOL = 1e-12
# JSON decodes numbers to exactly int or float; bool is its own type.
_JSON_NUMBERS = frozenset((int, float))


def is_number_list(value) -> bool:
    """True for a decoded JSON list whose items are all numbers (not bools)."""
    return isinstance(value, list) and _JSON_NUMBERS.issuperset(map(type, value))


def float_array(value, what: str) -> np.ndarray:
    """A new C-ordered float array of `value`; an entry not a number, or an int past float range, is a ValidationError,
    and so is a complex one, whose imaginary part numpy would drop with a warning. Anything but a numpy array or scalar
    is first read with the dtype numpy gives it, which is complex if an entry is, even a numpy complex in a list."""
    try:
        arr = value if isinstance(value, (np.ndarray, np.generic)) else np.asarray(value)
        if arr.dtype.kind != "c":
            return np.array(arr, dtype=float, order="C")
    except OverflowError:
        raise ValidationError(f"{what} must be finite numbers") from None
    except (TypeError, ValueError):
        pass
    raise ValidationError(f"{what} must be an array of numbers")


def float_rows(value, what: str = "rows") -> np.ndarray:
    """`value` as C-ordered float rows over a last axis of outcomes: a C-contiguous float64 ndarray in place (never to be
    written), anything else by `float_array`; a scalar, or no outcomes, is a ValidationError."""
    in_place = type(value) is np.ndarray and value.dtype == np.float64 and value.flags.c_contiguous
    rows = value if in_place else float_array(value, what)
    if not rows.shape or not rows.shape[-1]:
        raise ValidationError(f"{what} must have a last axis of at least one outcome, got shape {rows.shape}")
    return rows


def check_k(k: int) -> int:
    """`k` if a space may have k outcomes, an integer 2 <= k <= MAX_OUTCOMES; else a ValidationError."""
    return check_int("k", k, 2, MAX_OUTCOMES)


def check_block(rows: int, k: int, what: str) -> None:
    """Reject a block of `rows` x k floats beyond MAX_BLOCK_ENTRIES, before it is allocated."""
    if rows * k > MAX_BLOCK_ENTRIES:
        raise ValidationError(f"{what} needs {rows} x {k} floats, more than {MAX_BLOCK_ENTRIES} in one block")


@contextmanager
def json_file(path):
    """Yield the decoded JSON file at `path`; each ValidationError, of the file or the caller's block, names it once."""
    check_path(path)
    try:
        what = "invalid path"  # open refuses a path with a NUL byte by ValueError.
        with open(path, "r", encoding="utf-8") as fh:
            what = "invalid JSON"
            obj = json.load(fh)
    # Bad JSON, bytes that are not UTF-8, integers over Python's digit limit, too deep nesting; an OSError passes.
    except (ValueError, RecursionError) as exc:
        raise ValidationError(f"{path}: {what}: {exc}") from exc
    try:
        yield obj
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def json_text(value) -> str:
    """The JSON file of `value`, a distribution or a confusion model, as its loader reads it: `value.to_dict()`,
    indented by 2, ending in a newline."""
    return json.dumps(value.to_dict(), indent=2) + "\n"


def check_rows(arr: np.ndarray, what: str = "distribution entries") -> np.ndarray:
    """The row sums over the last axis of `what`, each row checked finite, non-negative and summing to 1 within SUM_TOL."""
    if not np.isfinite(arr).all():
        raise ValidationError(f"{what} must be finite")
    if (arr < 0).any():
        raise ValidationError(f"{what} must be non-negative")
    total = arr.sum(axis=-1, keepdims=True)
    off = np.abs(total - 1.0) > SUM_TOL
    if off.any():
        raise ValidationError(f"{what} sum to {float(total[off][0])}, expected 1")
    return total


def normalized_rows(arr: np.ndarray, what: str = "distribution entries") -> np.ndarray:
    """`arr` checked by `check_rows`, with each row whose sum is off 1 by more than _DRIFT_TOL divided by that sum."""
    total = check_rows(arr, what)
    return np.where(np.abs(total - 1.0) > _DRIFT_TOL, arr / total, arr)


@dataclass(frozen=True)
class AttributeSpace:
    """Product space of named categorical attributes.

    Outcomes are the Cartesian product of the per-attribute value lists,
    ordered lexicographically by attribute index, so outcome i maps to a
    unique value combination and to the i-th one-hot vector.
    """

    attributes: tuple[tuple[str, tuple[str, ...]], ...]

    def __post_init__(self):
        if not (isinstance(self.attributes, tuple) and all(isinstance(a, tuple) and len(a) == 2 for a in self.attributes)):
            raise ValidationError(f"attribute space must be a tuple of (name, values) pairs, got {self.attributes!r}")
        if not self.attributes:
            raise ValidationError("attribute space needs at least one attribute")
        for name, values in self.attributes:
            if not isinstance(name, str):
                raise ValidationError(f"attribute name must be a string, got {name!r}")
            if not isinstance(values, tuple) or not all(isinstance(v, str) for v in values):
                raise ValidationError(f"attribute {name!r} values must be a tuple of strings, got {values!r}")
            if not values:
                raise ValidationError(f"attribute {name!r} has no values")
            if len(set(values)) != len(values):
                raise ValidationError(f"attribute {name!r} has duplicate values")
        check_k(self.k)

    @property
    def k(self) -> int:
        """Total number of outcomes (product of per-attribute cardinalities)."""
        return math.prod(len(values) for _, values in self.attributes)

    @classmethod
    def of_size(cls, k: int) -> "AttributeSpace":
        """Anonymous single-attribute space "u" with k outcomes labelled 0..k-1; k is checked first."""
        return cls((("u", tuple(str(i) for i in range(check_k(k)))),))

    def to_dict(self) -> dict:
        return {"attributes": [{"name": n, "values": list(vs)} for n, vs in self.attributes]}


@dataclass(frozen=True, eq=False)
class CategoricalDistribution:
    """Probability vector over the outcomes of an AttributeSpace.

    Entries are checked and renormalized by `normalized_rows`. The stored array
    is read-only, and `np.asarray(d, dtype=float)` is it, so `d` serves as a row.
    """

    space: AttributeSpace
    p: np.ndarray

    def __post_init__(self):
        check_type("space", self.space, AttributeSpace)
        arr = float_array(self.p, "distribution entries")
        if arr.shape != (self.space.k,):
            raise ValidationError(f"distribution has shape {arr.shape}, expected ({self.space.k},)")
        arr = normalized_rows(arr)
        arr.setflags(write=False)
        object.__setattr__(self, "p", arr)

    @property
    def k(self) -> int:
        return self.space.k

    def __array__(self, dtype=None, copy=None):
        return np.array(self.p, dtype=dtype, copy=copy)

    def to_dict(self) -> dict:
        return {"space": self.space.to_dict(), "p": [float(x) for x in self.p]}


def check_sweep(k: int, step: float) -> int:
    """Check k, the step and the path's floats for `sweep(k, step)`; return its transfers per outcome."""
    target = 1.0 / check_k(k)
    check_real("step", step)
    if not (step > 0):
        raise ValidationError(f"step must be positive, got {step}")
    if step > target + _DRIFT_TOL:
        raise ValidationError(f"step must be <= 1/k = {target}, got {step}")
    transfers = math.ceil(min(target / step - 1e-9, MAX_BLOCK_ENTRIES))
    check_block(1 + (k - 1) * transfers, k, f"sweep step {step}")
    return transfers


def sweep(k: int, step: float) -> np.ndarray:
    """Stepwise interpolation from the first extreme point to the uniform distribution.

    Returns one row per epoch. Epoch 1 puts all mass on outcome 0. Each
    later epoch moves `step` of probability mass from outcome 0 into the
    lowest-index outcome still below 1/k; the last transfer into each
    outcome is clamped so the outcome lands exactly on 1/k. The final
    epoch is the uniform distribution, reachable for every k because of
    the clamping. A path of more than MAX_BLOCK_ENTRIES floats (rows x k) is
    rejected before it is built: 10**6 rows at k = 2, 2,000 at k = 1000.
    """
    transfers = check_sweep(k, step)
    target = 1.0 / k
    v = np.minimum(np.arange(1, transfers + 1) * step, target)
    v[target - v < _DRIFT_TOL] = target
    path = np.zeros((1 + (k - 1) * transfers, k))
    path[0, 0] = 1.0
    for j in range(1, k):
        block = path[1 + (j - 1) * transfers:1 + j * transfers]
        block[:, 1:j] = target
        block[:, j] = v
        block[:, 0] = 1.0 - (j - 1) * target - v
    # Epochs that fill the last outcome are exactly uniform.
    path[-transfers:][v == target] = target
    return normalized_rows(path)


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

def space_from_dict(obj) -> AttributeSpace:
    """The space of a decoded JSON object {"attributes": [{"name": ..., "values": [...]}, ...]}."""
    entries = obj.get("attributes") if isinstance(obj, dict) else None
    if not isinstance(entries, list) or not all(isinstance(e, dict) and isinstance(e.get("values"), list)
                                                for e in entries):
        raise ValidationError('attribute-space JSON must be {"attributes": [{"name": ..., "values": [...]}, ...]}')
    return AttributeSpace(tuple((e.get("name"), tuple(e["values"])) for e in entries))


def load_space(path) -> AttributeSpace:
    """The space in the JSON file at `path`; its errors name the file."""
    with json_file(path) as obj:
        return space_from_dict(obj)


def load_distribution(path) -> CategoricalDistribution:
    """Read a distribution file: {"space": <path or inline>, "p": [...]}, or {"k": k, "p": [...]}.

    A relative "space" path is resolved against the file's directory; a "k" beside a "space" must equal its k.
    Every error in the file names it, and one in a referenced space file names both files, this one first.
    """
    with json_file(path) as obj:
        if not isinstance(obj, dict) or "p" not in obj:
            raise ValidationError('distribution JSON must contain "p"')
        if not is_number_list(obj["p"]):
            raise ValidationError('"p" must be a list of numbers')
        ref = obj.get("space")
        if isinstance(ref, dict):
            space = space_from_dict(ref)
        elif isinstance(ref, str):
            # join keeps an absolute `ref` as it is.
            space = load_space(os.path.join(os.path.dirname(os.fsdecode(path)), ref))
        elif "space" in obj:
            raise ValidationError(f'"space" must be an object or a path, got {ref!r}')
        elif "k" in obj:
            space = AttributeSpace.of_size(obj["k"])
        else:
            raise ValidationError('no "space" or "k" given')
        if check_k(obj.get("k", space.k)) != space.k:
            raise ValidationError(f'"k" is {obj["k"]}, but the space has {space.k} outcomes')
        return CategoricalDistribution(space, obj["p"])
