"""Attribute-classifier noise models and estimated attribute distributions.

A classifier is modelled by a row-stochastic confusion matrix: row i gives
the prediction distribution for items whose true outcome is i. Estimated
distributions come out either in closed form (expectation) or by seeded
sampling. Real classifier outputs can be ingested from prediction files
instead.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .attrspace import AttributeSpace, CategoricalDistribution, as_rows, float_array, is_number_list, normalized_rows
from .errors import ValidationError

ROW_SUM_TOL = 1e-9
PROBS_SUM_TOL = 1e-6


@dataclass(frozen=True, eq=False)
class ConfusionModel:
    """k x k row-stochastic matrix; m[i][j] = P(predict j | true i)."""

    k: int
    m: np.ndarray

    def __post_init__(self):
        arr = float_array(self.m, "confusion entries")
        if arr.shape != (self.k, self.k):
            raise ValidationError(f"confusion matrix has shape {arr.shape}, expected ({self.k}, {self.k})")
        if not np.isfinite(arr).all() or (arr < 0).any():
            raise ValidationError("confusion entries must be finite and non-negative")
        bad = np.abs(arr.sum(axis=1) - 1.0) > ROW_SUM_TOL
        if bad.any():
            raise ValidationError(f"confusion rows {np.flatnonzero(bad).tolist()} do not sum to 1")
        arr.setflags(write=False)
        object.__setattr__(self, "m", arr)


@dataclass(frozen=True)
class Expectation:
    """Closed-form estimation: p' = m^T p, no sampling."""


@dataclass(frozen=True)
class Sampled:
    """Monte-carlo estimation: n draws through the classifier, seeded."""

    n: int
    seed: int

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError(f"sample count must be >= 1, got {self.n}")


EstimationMode = Expectation | Sampled

EXPECTATION = Expectation()


def perfect(k: int) -> ConfusionModel:
    """The identity: every outcome classified correctly."""
    return ConfusionModel(k, np.eye(k))


def uniform_noise(k: int, eps: float) -> ConfusionModel:
    """Mix the identity with a fully random classifier: (1-eps) I + (eps/k) J."""
    if not 0.0 <= eps <= 1.0:
        raise ValidationError(f"eps must be in [0, 1], got {eps}")
    return ConfusionModel(k, (1.0 - eps) * np.eye(k) + (eps / k) * np.ones((k, k)))


def from_accuracies(acc) -> ConfusionModel:
    """Diagonal of per-class accuracies, errors spread uniformly off-diagonal."""
    a = np.asarray(acc, dtype=float)
    if a.ndim != 1 or len(a) < 2:
        raise ValidationError("need a vector of at least 2 per-class accuracies")
    if (a < 0).any() or (a > 1).any():
        raise ValidationError("accuracies must be in [0, 1]")
    k = len(a)
    m = np.tile(((1.0 - a) / (k - 1))[:, None], (1, k))
    np.fill_diagonal(m, a)
    return ConfusionModel(k, m)


def per_class_accuracy(model: ConfusionModel) -> np.ndarray:
    """Diagonal of the confusion matrix."""
    return np.diag(model.m).copy()


def derive_seed(base_seed: int, *parts: int) -> int:
    """Stable 64-bit seed for one trial/cell, independent of execution order."""
    ss = np.random.SeedSequence([int(base_seed)] + [int(p) for p in parts])
    return int(ss.generate_state(1, np.uint64)[0])


def estimate(model: ConfusionModel, rows, mode: EstimationMode = EXPECTATION,
             seeds=None) -> np.ndarray:
    """Estimated attribute distributions of data whose true distributions are `rows`.

    `rows` is a distribution or an array of shape (..., k); the result has
    the same shape. Expectation mode returns m^T p for every row exactly.
    Sampled mode draws n true outcomes per row, pushes each through the
    matching confusion row, and returns the normalized prediction tallies;
    row r draws from its own stream, seeded by seeds[r] (default mode.seed).
    """
    rows = as_rows(rows)
    if rows.shape[-1] != model.k:
        raise ValidationError(f"confusion model is {model.k}x{model.k}, distribution has k={rows.shape[-1]}")
    if isinstance(mode, Expectation):
        # One matrix-vector product per row: P @ m rounds differently for k >= 4.
        return normalized_rows((model.m.T @ rows[..., None])[..., 0])
    flat = rows.reshape(-1, model.k)
    seeds = [mode.seed] * len(flat) if seeds is None else seeds
    tallies = [_sample(model, p, mode.n, seed) for p, seed in zip(flat, seeds, strict=True)]
    return normalized_rows(np.reshape(tallies, rows.shape))


def _sample(model: ConfusionModel, p: np.ndarray, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return sum(rng.multinomial(c, model.m[i]) for i, c in enumerate(rng.multinomial(n, p)) if c > 0) / n


# ---------------------------------------------------------------------------
# Prediction-file ingestion
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PredictionRecord:
    """One classified item: soft probabilities or a hard label, optional truth."""

    id: str
    probs: np.ndarray | None = None
    pred: int | None = None
    truth: int | None = None

    def __post_init__(self):
        if (self.probs is None) == (self.pred is None):
            raise ValidationError(f"record {self.id!r}: exactly one of probs/pred is required")
        if self.probs is not None:
            arr = float_array(self.probs, f"record {self.id!r}: probs")
            if arr.ndim != 1 or not np.isfinite(arr).all() or (arr < 0).any():
                raise ValidationError(f"record {self.id!r}: probs must be a non-negative vector")
            total = float(arr.sum())
            if abs(total - 1.0) > PROBS_SUM_TOL:
                raise ValidationError(f"record {self.id!r}: probs sum to {total}, expected 1")
            arr.setflags(write=False)
            object.__setattr__(self, "probs", arr)

    @property
    def is_soft(self) -> bool:
        return self.probs is not None

    def predicted_index(self) -> int:
        return int(np.argmax(self.probs)) if self.is_soft else int(self.pred)


def ingest_predictions(space: AttributeSpace, records: Iterable[PredictionRecord]
                       ) -> tuple[CategoricalDistribution, ConfusionModel | None]:
    """Aggregate prediction records into an estimated distribution.

    Soft records average their probability vectors; hard records tally
    predicted labels. Mixing the two kinds is rejected. When every record
    carries a truth label, a row-normalized confusion matrix over
    (truth, prediction) counts is returned as well; truth classes that
    never occur keep an identity row (no error evidence for them).
    """
    k = space.k
    soft_sum = np.zeros(k)
    hard_counts = np.zeros(k)
    confusion_counts = np.zeros((k, k))
    n_soft = n_hard = 0
    all_truth = True

    for rec in records:
        if rec.is_soft:
            if len(rec.probs) != k:
                raise ValidationError(f"record {rec.id!r}: probs have length {len(rec.probs)}, expected {k}")
            soft_sum += rec.probs
            n_soft += 1
        else:
            if not 0 <= rec.pred < k:
                raise ValidationError(f"record {rec.id!r}: pred {rec.pred} out of range for k={k}")
            hard_counts[rec.pred] += 1
            n_hard += 1
        if rec.truth is None:
            all_truth = False
        else:
            if not 0 <= rec.truth < k:
                raise ValidationError(f"record {rec.id!r}: truth {rec.truth} out of range for k={k}")
            confusion_counts[rec.truth, rec.predicted_index()] += 1

    if n_soft and n_hard:
        raise ValidationError("prediction stream mixes soft (probs) and hard (pred) records")
    if not n_soft and not n_hard:
        raise ValidationError("prediction stream is empty")

    if n_soft:
        # Each record may be off by PROBS_SUM_TOL, so renormalize the sum
        # itself rather than divide by the record count.
        estimated = CategoricalDistribution(space, soft_sum / soft_sum.sum())
    else:
        estimated = CategoricalDistribution(space, hard_counts / n_hard)

    confusion = None
    if all_truth:
        m = np.eye(k)
        seen = confusion_counts.sum(axis=1) > 0
        m[seen] = confusion_counts[seen] / confusion_counts[seen].sum(axis=1, keepdims=True)
        confusion = ConfusionModel(k, m)
    return estimated, confusion


def parse_prediction_line(line: str, lineno: int) -> PredictionRecord:
    """Parse one JSONL prediction record: {"id", "probs"|"pred", "true"?}."""
    try:
        obj = json.loads(line)
    except ValueError as exc:
        raise ValidationError(f"line {lineno}: invalid JSON: {exc}") from exc
    if not isinstance(obj, dict) or "id" not in obj:
        raise ValidationError(f'line {lineno}: record must be an object with an "id"')
    probs, pred = obj.get("probs"), obj.get("pred")
    truth = obj.get("true", obj.get("truth"))
    if probs is not None and not is_number_list(probs):
        raise ValidationError(f"line {lineno}: probs must be a list of numbers")
    _check_label("pred", pred, lineno)
    _check_label("true", truth, lineno)
    try:
        return PredictionRecord(id=str(obj["id"]), probs=probs, pred=pred, truth=truth)
    except ValidationError as exc:
        raise ValidationError(f"line {lineno}: {exc}") from exc


def _check_label(name: str, value, lineno: int) -> None:
    if value is not None and (not isinstance(value, int) or isinstance(value, bool)):
        raise ValidationError(f"line {lineno}: {name} must be an integer label, got {value!r}")


def load_predictions(path) -> list[PredictionRecord]:
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.strip():
                records.append(parse_prediction_line(line, lineno))
    return records


def load_confusion(path) -> ConfusionModel:
    """Read a confusion file: {"k": 2, "m": [[...], ...]}."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except ValueError as exc:
            raise ValidationError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(obj, dict) or "k" not in obj or "m" not in obj:
        raise ValidationError(f'{path}: confusion JSON must contain "k" and "m"')
    k, m = obj["k"], obj["m"]
    if not isinstance(k, int) or isinstance(k, bool):
        raise ValidationError(f'{path}: "k" must be an integer, got {k!r}')
    if not (isinstance(m, list) and len(m) == k and all(is_number_list(row) and len(row) == k for row in m)):
        raise ValidationError(f'{path}: "m" must be {k} rows of {k} numbers')
    return ConfusionModel(k, m)


# Bundled accuracy presets: (k, average accuracy), spread uniformly
# off-diagonal. set1-* are standalone classifiers, set2-* an attribute
# increment family.
PRESET_ACCURACIES = {
    "set1-a": (2, 0.98),
    "set1-b": (2, 0.81),
    "set1-c": (4, 0.83),
    "set1-d": (4, 0.72),
    "set2-k2": (2, 0.98),
    "set2-k4": (4, 0.86),
    "set2-k8": (8, 0.78),
    "set2-k16": (16, 0.66),
}


def preset(name: str, k: int | None = None) -> ConfusionModel:
    """Resolve a named preset to a confusion model.

    "perfect" works at any k (k required). "set2" picks the family member
    matching k. Fixed-k presets reject a mismatching k.
    """
    if name == "perfect":
        if k is None:
            raise ValidationError('preset "perfect" needs an explicit k')
        return perfect(k)
    if name == "set2":
        if k is None:
            raise ValidationError('preset family "set2" needs an explicit k')
        name = f"set2-k{k}"
    if name not in PRESET_ACCURACIES:
        valid = ", ".join(["perfect", "set2", *PRESET_ACCURACIES])
        raise ValidationError(f"unknown preset {name!r} (valid: {valid})")
    preset_k, acc = PRESET_ACCURACIES[name]
    if k is not None and k != preset_k:
        raise ValidationError(f"preset {name!r} is for k={preset_k}, requested k={k}")
    return from_accuracies(np.full(preset_k, acc))
