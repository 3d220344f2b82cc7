"""Attribute-classifier noise models and estimated attribute distributions.

A classifier is modelled by a row-stochastic confusion matrix: row i gives
the prediction distribution for items whose true outcome is i. Estimated
distributions come out either in closed form (expectation) or by seeded
sampling. Real classifier outputs can be ingested from prediction files
instead.
"""

from __future__ import annotations

import itertools
import json
import math
from array import array
from dataclasses import dataclass, field

import numpy as np

from .attrspace import MAX_SAMPLES, SUM_TOL, check_k, float_array, float_rows, is_number_list, normalized_rows, read_json
from .errors import ValidationError, check_int, check_real, is_int

PROBS_SUM_TOL = 1e-6


@dataclass(frozen=True, eq=False)
class ConfusionModel:
    """k x k row-stochastic matrix, k read from its square shape; m[i][j] = P(predict j | true i), 2 <= k <= MAX_OUTCOMES."""

    m: np.ndarray
    k: int = field(init=False)

    def __post_init__(self):
        arr = float_array(self.m, "confusion entries")
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValidationError(f"confusion matrix has shape {arr.shape}, expected a square matrix")
        object.__setattr__(self, "k", check_k(len(arr)))
        if not np.isfinite(arr).all() or (arr < 0).any():
            raise ValidationError("confusion entries must be finite and non-negative")
        bad = np.abs(arr.sum(axis=1) - 1.0) > SUM_TOL
        if bad.any():
            raise ValidationError(f"confusion rows {np.flatnonzero(bad).tolist()} do not sum to 1")
        arr.setflags(write=False)
        object.__setattr__(self, "m", arr)


@dataclass(frozen=True)
class Expectation:
    """Closed-form estimation: p' = m^T p, no sampling."""


@dataclass(frozen=True)
class Sampled:
    """Monte-carlo estimation: n draws through the classifier, 1 <= n <= MAX_SAMPLES, seeded."""

    n: int
    seed: int

    def __post_init__(self):
        if not 1 <= check_int("n", self.n) <= MAX_SAMPLES:
            raise ValidationError(f"sample count must be in [1, 2**63 - 1], got {self.n}")
        check_int("seed", self.seed, 0)


EstimationMode = Expectation | Sampled

EXPECTATION = Expectation()


def perfect(k: int) -> ConfusionModel:
    """The identity: every outcome classified correctly."""
    return ConfusionModel(np.eye(check_k(k)))


def uniform_noise(k: int, eps: float) -> ConfusionModel:
    """Mix the identity with a fully random classifier: (1-eps) I + (eps/k) J."""
    check_real("eps", eps, 0, 1)
    return ConfusionModel((1.0 - eps) * np.eye(check_k(k)) + (eps / k) * np.ones((k, k)))


def from_accuracies(acc) -> ConfusionModel:
    """Diagonal of per-class accuracies, errors spread uniformly off-diagonal."""
    a = float_array(acc, "accuracies")
    if a.ndim != 1 or len(a) < 2:
        raise ValidationError("need a vector of at least 2 per-class accuracies")
    if (a < 0).any() or (a > 1).any():
        raise ValidationError("accuracies must be in [0, 1]")
    m = np.tile(((1.0 - a) / (len(a) - 1))[:, None], (1, len(a)))
    np.fill_diagonal(m, a)
    return ConfusionModel(m)


def per_class_accuracy(model: ConfusionModel) -> np.ndarray:
    """Diagonal of the confusion matrix."""
    return np.diag(model.m).copy()


# np.random.SeedSequence constants (numpy/random/bit_generator.pyx).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF
# PCG_DEFAULT_MULTIPLIER_128 (numpy/random/src/pcg64/pcg64.h).
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _seed_sequence(words: np.ndarray, n_words: int) -> np.ndarray:
    """`np.random.SeedSequence(words[r]).generate_state(n_words, np.uint64)` for every row r.

    `words` is an (N, L) uint32 array: row r is the entropy of cell r as
    SeedSequence assembles it (each integer split into 32-bit words, low word
    first). Each step of `mix_entropy` and `generate_state` runs once over a
    column of N words, with the same constants in the same order, so the
    result is the numpy one word for word. Returns an (N, n_words) uint64 array.
    """
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> 16)

    def mix(x, y):
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ (result >> 16)

    n_rows, n_entropy = words.shape
    zero = np.zeros(n_rows, dtype=np.uint32)
    pool = [hashmix(words[:, i] if i < n_entropy else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, n_entropy):
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(words[:, src]))
    hash_const = _INIT_B
    state = np.empty((n_rows, 2 * n_words), dtype=np.uint32)
    for i in range(2 * n_words):
        value = pool[i % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * np.uint32(hash_const)
        state[:, i] = value ^ (value >> 16)
    # Word pairs read as little-endian uint64, as generate_state does.
    return state.astype("<u4").view("<u8").astype(np.uint64)


def _int_words(n: int) -> list[int]:
    """The 32-bit words of a non-negative int, low word first ([0] for 0), as SeedSequence splits it."""
    return [(n >> shift) & _MASK32 for shift in range(0, max(n.bit_length(), 1), 32)]


def derive_seed(base_seed: int, *parts):
    """Stable 64-bit seed per cell, independent of execution order.

    Cell c gets `np.random.SeedSequence([base_seed, *parts_at_c]).generate_state(1,
    np.uint64)[0]`, computed for every cell at once by `_seed_sequence`; the
    parts broadcast against each other, and the result is a uint64 array of
    their shape (a np.uint64 for scalar parts). `base_seed` is a non-negative
    int and every part an integer in [0, 2**32), so each part is one entropy
    word. `tests/test_classifier.py::TestSeedDerivation` checks the result
    against numpy's SeedSequence.
    """
    base = check_int("base seed", base_seed, 0)
    parts = np.broadcast_arrays(*(np.asarray(p) for p in parts))
    for p in parts:
        if p.dtype.kind not in "iu" or (p.size and (p.min() < 0 or p.max() > _MASK32)):
            raise ValidationError("seed parts must be integers in [0, 2**32)")
    shape = parts[0].shape if parts else ()
    base_words = _int_words(base)
    words = np.empty((math.prod(shape), len(base_words) + len(parts)), dtype=np.uint32)
    words[:, :len(base_words)] = base_words
    for j, p in enumerate(parts, start=len(base_words)):
        words[:, j] = p.ravel()
    return _seed_sequence(words, 1)[:, 0].reshape(shape)[()]


def _row_seeds(seeds, n_rows: int) -> np.ndarray:
    """`seeds` as an (n_rows,) uint64 array; anything but n_rows integers in [0, 2**64) is a ValidationError."""
    if not isinstance(seeds, np.ndarray) or seeds.dtype.kind not in "iu":
        # Python ints as objects: np.asarray([0, 2**63]) would round them to float64.
        items = list(seeds) if np.iterable(seeds) else [None]
        seeds = np.array(items, dtype=object) if all(map(is_int, items)) else None
    if seeds is None or seeds.shape != (n_rows,) or (n_rows and not 0 <= seeds.min() <= seeds.max() < 2**64):
        raise ValidationError(f"seeds must be {n_rows} integers in [0, 2**64), one per row")
    return seeds.astype(np.uint64)


def estimate(model: ConfusionModel, rows, mode: EstimationMode = EXPECTATION,
             seeds=None) -> np.ndarray:
    """Estimated attribute distributions of data whose true distributions are `rows`.

    `rows` is a distribution or an array of shape (..., k); the result has
    the same shape. Expectation mode returns m^T p for every row exactly.
    Sampled mode draws n true outcomes per row, pushes each through the
    matching confusion row, and returns the normalized prediction tallies;
    `seeds` holds one integer in [0, 2**64) per row (default `mode.seed` for
    every row). Row r draws from the stream of `np.random.default_rng(seeds[r])`:
    `_seed_sequence` turns all seeds into SeedSequence states at once, two
    128-bit LCG steps make each a PCG64 state as numpy's `pcg64_set_seed` does,
    and one Generator is re-seeded per row through its public `state` setter.
    `tests/test_classifier.py::TestSampledStreams` checks every row against a
    fresh `default_rng` per row (`oracles.reference_sample`).
    """
    rows = float_rows(rows)
    if rows.shape[-1] != model.k:
        raise ValidationError(f"confusion model is {model.k}x{model.k}, distribution has k={rows.shape[-1]}")
    if isinstance(mode, Expectation):
        # One matrix-vector product per row: P @ m rounds differently for k >= 4.
        return normalized_rows((model.m.T @ rows[..., None])[..., 0])
    flat = rows.reshape(-1, model.k)
    if seeds is None:
        states = np.broadcast_to(_seed_sequence(np.array([_int_words(mode.seed)], dtype=np.uint32), 4),
                                 (len(flat), 4))
    else:
        seeds = _row_seeds(seeds, len(flat))
        # A seed below 2**32 is one entropy word to SeedSequence; a zero high word
        # mixes the same, because mix_entropy pads short entropy with zero words.
        states = _seed_sequence(np.stack([seeds & _MASK32, seeds >> 32], axis=1).astype(np.uint32), 4)
    # Confusion rows may be off 1 by SUM_TOL, more than multinomial allows.
    m = normalized_rows(model.m)
    bitgen = np.random.PCG64()
    gen = np.random.Generator(bitgen)
    tallies = np.empty(flat.shape)
    for r, (p, (s_hi, s_lo, i_hi, i_lo)) in enumerate(zip(flat, states.tolist())):
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        bitgen.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                        "state": {"state": ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128, "inc": inc}}
        tallies[r] = gen.multinomial(gen.multinomial(mode.n, p), m).sum(axis=0) / mode.n
    return normalized_rows(tallies.reshape(rows.shape))


# ---------------------------------------------------------------------------
# Prediction-file ingestion
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Predictions:
    """Ingested records in file order, read with `k` outcomes: soft `probs`
    (N, k) or None, predicted labels `pred` (N,), the argmax for soft records,
    and `truth` (N,) or None unless every record has a truth label."""

    k: int
    probs: np.ndarray | None
    pred: np.ndarray
    truth: np.ndarray | None

    def __len__(self) -> int:
        return len(self.pred)


def load_predictions(path, k: int) -> Predictions:
    """Read a JSONL prediction file: one {"id", "probs"|"pred", "true"?} per line.

    Each line is checked as it is read: JSON, an object with an "id", `probs`
    a list of numbers, `pred`/`true` integer labels, exactly one of probs/pred,
    len(probs) == k, labels in [0, k) and one record kind throughout. Then the
    (N, k) block of soft probabilities is checked once for finite, non-negative
    rows that sum to 1 within PROBS_SUM_TOL. Each error names the first bad line.
    """
    check_k(k)
    probs, lines, pred, truth = array("d"), array("q"), array("q"), array("q")
    soft = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except ValueError as exc:
                raise ValidationError(f"line {lineno}: invalid JSON: {exc}") from exc
            if not isinstance(obj, dict) or "id" not in obj:
                raise ValidationError(f'line {lineno}: record must be an object with an "id"')
            p, label, t = obj.get("probs"), obj.get("pred"), obj.get("true", obj.get("truth"))
            if p is not None and not is_number_list(p):
                raise ValidationError(f"line {lineno}: probs must be a list of numbers")
            _check_label("pred", label, lineno)
            _check_label("true", t, lineno)
            if (p is None) == (label is None):
                raise _record_error(lineno, obj["id"], "exactly one of probs/pred is required")
            if p is not None and len(p) != k:
                raise _record_error(lineno, obj["id"], f"probs have length {len(p)}, expected {k}")
            if label is not None and not 0 <= label < k:
                raise _record_error(lineno, obj["id"], f"pred {label} out of range for k={k}")
            if t is not None and not 0 <= t < k:
                raise _record_error(lineno, obj["id"], f"truth {t} out of range for k={k}")
            if soft is None:
                soft = p is not None
            if soft != (p is not None):
                raise ValidationError(f"line {lineno}: prediction stream mixes soft (probs) and hard (pred) records")
            if soft:
                try:
                    probs.extend(p)
                except OverflowError:
                    raise _record_error(lineno, obj["id"], "probs must be finite numbers") from None
                lines.append(lineno)
            else:
                pred.append(label)
            truth.append(-1 if t is None else t)
        if soft is None:
            raise ValidationError("prediction stream is empty")
        truth = None if -1 in truth else np.frombuffer(truth, dtype=np.int64)
        if not soft:
            return Predictions(k, None, np.frombuffer(pred, dtype=np.int64), truth)
        block = np.frombuffer(probs).reshape(-1, k)
        with np.errstate(invalid="ignore"):
            sums = block.sum(axis=1)
        not_vector = ~np.isfinite(block).all(axis=1) | (block < 0).any(axis=1)
        bad = np.flatnonzero(not_vector | (np.abs(sums - 1.0) > PROBS_SUM_TOL))
        if len(bad):
            row = bad[0]
            what = "probs must be a non-negative vector" if not_vector[row] else f"probs sum to {float(sums[row])}, expected 1"
            if not fh.seekable():  # a pipe cannot be re-read for the record's id
                raise ValidationError(f"line {lines[row]}: {what}")
            fh.seek(0)
            raise _record_error(lines[row], json.loads(next(itertools.islice(fh, lines[row] - 1, None)))["id"], what)
    return Predictions(k, block, block.argmax(axis=1), truth)


def _record_error(lineno: int, record_id, what: str) -> ValidationError:
    return ValidationError(f"line {lineno}: record {str(record_id)!r}: {what}")


def _check_label(name: str, value, lineno: int) -> None:
    if value is not None and (not isinstance(value, int) or isinstance(value, bool)):
        raise ValidationError(f"line {lineno}: {name} must be an integer label, got {value!r}")


def ingest_predictions(preds: Predictions) -> tuple[np.ndarray, ConfusionModel | None]:
    """Aggregate predictions into an estimated distribution, a (k,) array checked by `normalized_rows`.

    Soft records average their probability vectors; hard records tally
    predicted labels. When every record carries a truth label, a
    row-normalized confusion matrix over (truth, prediction) counts is
    returned as well; truth classes that never occur keep an identity row
    (no error evidence for them).
    """
    k = preds.k
    if preds.probs is not None:
        # Over axis 0 of the C-contiguous block numpy adds whole rows in file order, not pairwise, as a running
        # total would. Each row may be off by PROBS_SUM_TOL, so renormalize the sum rather than divide by the count.
        total = preds.probs.sum(axis=0)
        estimated = normalized_rows(total / total.sum())
    else:
        estimated = normalized_rows(np.bincount(preds.pred, minlength=k) / len(preds))
    if preds.truth is None:
        return estimated, None
    counts = np.bincount(preds.truth * k + preds.pred, minlength=k * k).reshape(k, k)
    m = np.eye(k)
    seen = counts.sum(axis=1) > 0
    m[seen] = counts[seen] / counts[seen].sum(axis=1, keepdims=True)
    return estimated, ConfusionModel(m)


def load_confusion(path) -> ConfusionModel:
    """Read a confusion file: {"k": 2, "m": [[...], ...]}."""
    obj = read_json(path)
    if not isinstance(obj, dict) or "k" not in obj or "m" not in obj:
        raise ValidationError(f'{path}: confusion JSON must contain "k" and "m"')
    k, m = check_int(f'{path}: "k"', obj["k"]), obj["m"]
    if not (isinstance(m, list) and len(m) == k and all(is_number_list(row) and len(row) == k for row in m)):
        raise ValidationError(f'{path}: "m" must be {k} rows of {k} numbers')
    return ConfusionModel(m)


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
    if k is not None:
        check_int("k", k)
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
