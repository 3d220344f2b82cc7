"""Attribute-classifier noise models and estimated attribute distributions.

A classifier is modelled by a row-stochastic confusion matrix: row i gives
the prediction distribution for items whose true outcome is i. Estimated
distributions come out either in closed form (expectation) or by seeded
sampling. Real classifier outputs can be ingested from prediction files
instead.
"""

from __future__ import annotations

import io
import json
import math
import os
import re
import stat
import struct
from array import array
from dataclasses import dataclass, field
from functools import lru_cache, partial

import numpy as np

from .attrspace import MAX_SAMPLES, check_k, check_rows, float_array, float_rows, is_number_list, json_file, normalized_rows
from .errors import ValidationError, check_choice, check_int, check_path, check_real, check_str, check_type, is_int
from .pool import fork_map

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
        # m is kept as given, so rows off 1 by up to SUM_TOL stay as they are.
        check_rows(arr, "confusion rows")
        arr.setflags(write=False)
        object.__setattr__(self, "m", arr)

    def to_dict(self) -> dict:
        """The confusion file's body, as `load_confusion` reads it."""
        return {"k": self.k, "m": self.m.tolist()}


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


def check_model(model, mode) -> None:
    """A ValidationError unless `model` is a ConfusionModel and `mode` an Expectation or Sampled."""
    check_type("model", model, ConfusionModel)
    if not isinstance(mode, (Expectation, Sampled)):
        raise ValidationError(f"mode must be Expectation or Sampled, got {type(mode).__name__}")


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
    return np.diag(check_type("model", model, ConfusionModel).m).copy()


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


# Sampled rows draw in chunks of about this many bytes (`_row_bytes` a row; one row a chunk at k = 1000), into zeroed
# buffers, each summed once. A k = 16 step-0.001 start's estimate (n = 10**5) draws in 119 chunks of 8 rows, as at
# 16 KiB with the pointers left out: 16.7 ms on one CPU against 17.9 at 1 MiB, peak 0.59 MB against 1.57. A k = 2
# step-0.001 start draws in 9 chunks: peak 102 KB against 423 in one chunk.
_DRAW_BYTES = 40 << 10


def _row_bytes(k: int) -> int:
    """What one sampled row of a chunk holds: a (k, k) int64 draw buffer, a (k,) count buffer, the k + 1 c_void_p
    that point into them (144 bytes each with its list slot), and its PCG64 state as a list of four Python ints of up
    to 64 bits (232 bytes)."""
    return 8 * k * (k + 1) + 144 * (k + 1) + 232


# The rows `_multinomial` draws, in this order from one seed, through the kernel and through Generator.multinomial:
# k = 2, 3 and 16, zero entries, a one-hot row, n = 1 and 10**5.
_PROBE_ROWS = [(1, [0.5, 0.5]), (10**5, [0.3, 0.7]), (10**5, [0.2, 0.0, 0.8]), (7, [0.0, 1.0, 0.0]),
               (1, np.arange(16) / 120), (10**5, np.arange(16) / 120)]


def _pcg64_seeder(bitgen):
    """A writer of (state, inc) into the pcg64_random_t that `bitgen.ctypes.state_address` points to; holds `bitgen`."""
    from ctypes import c_void_p, memmove
    at = c_void_p.from_address(bitgen.ctypes.state_address).value
    return lambda state, inc, bitgen=bitgen: memmove(at, (inc << 128 | state).to_bytes(32, "little"), 32)


@lru_cache(maxsize=None)
def _multinomial():
    """numpy's C `random_multinomial(bitgen_t *, int64 n, int64 *out, double *p, npy_intp d, binomial_t *)` ("C API for
    random") and its `binomial_t`, loaded through ctypes on first use; PyDLL holds the GIL, as Generator does. It has
    no `argtypes` (~0.3 µs a call): callers pass ctypes values, as a bare int would go in as a 32-bit C int. numpy
    promises neither the symbol nor the layouts of `binomial_t` and of the struct `_pcg64_seeder` writes, so a load
    seeds a PCG64 through that write, checks its `state` (`has_uint32` 0, as the kernel draws only 64-bit words), and
    draws `_PROBE_ROWS` through the kernel and through Generator.multinomial."""
    from ctypes import PyDLL, Structure, byref, c_double, c_int, c_int64, c_ssize_t, c_void_p
    names = "psave nsave r q fm m p1 xm xl xr c laml lamr p2 p3 p4".split()  # binomial_t, numpy/random/distributions.h
    binomial_t = type("binomial_t", (Structure,), {"_fields_": [("has_binomial", c_int)] + [
        (f, c_int64 if f in ("nsave", "m") else c_double) for f in names]})
    if (kernel := getattr(PyDLL(np.random._generator.__file__), "random_multinomial", None)) is None:
        raise OSError(f"numpy {np.__version__} exports no random_multinomial kernel for sampled estimates")
    kernel.restype = None
    bitgen, rng, binomial = np.random.PCG64(), np.random.Generator(np.random.PCG64(0)), byref(binomial_t())
    _pcg64_seeder(bitgen)(**(want := rng.bit_generator.state["state"]))
    same = bitgen.state["state"] == want and bitgen.state["has_uint32"] == 0
    for n, p in _PROBE_ROWS:
        p, out = float_rows(p), np.zeros(len(p), dtype=np.int64)
        kernel(bitgen.ctypes.bit_generator, c_int64(n), c_void_p(out.ctypes.data), c_void_p(p.ctypes.data),
               c_ssize_t(len(p)), binomial)
        if not (same and np.array_equal(out, rng.multinomial(n, p))):
            raise OSError(f"numpy {np.__version__}'s random_multinomial kernel draws unlike Generator.multinomial")
    return kernel, binomial_t


def _drawable(rows: np.ndarray) -> np.ndarray:
    """`normalized_rows` of C-ordered (N, k) `rows`, with each row numpy's multinomial refuses (an entry past 1, or
    a Kahan sum of the first k - 1 past 1 + 1e-12) divided by its sum too; the C kernel checks nothing."""
    rows = normalized_rows(rows)
    total, carry = rows[:, 0], 0.0
    for col in rows.T[1:-1]:
        t = total + (col - carry)
        total, carry = t, (t - total) - (col - carry)
    refused = (total > 1.0 + 1e-12) | (rows > 1.0).any(axis=1)
    return np.where(refused[:, None], rows / rows.sum(axis=1, keepdims=True), rows)


def estimate(model: ConfusionModel, rows, mode: EstimationMode = EXPECTATION,
             seeds=None) -> np.ndarray:
    """Estimated attribute distributions of data whose true distributions are `rows`.

    `rows` is a distribution or an array of shape (..., k); the result has the same shape. Expectation mode returns
    m^T p for every row exactly. Sampled mode checks that every row is a distribution, as expectation mode checks
    its result, then draws n true outcomes per row, pushes each through the matching confusion row, and returns the
    normalized prediction tallies; `seeds` holds one integer in [0, 2**64) per row (default `mode.seed` for every
    row), and expectation mode refuses them. Row r draws from the stream of `np.random.default_rng(seeds[r])`:
    `_seed_sequence` turns all seeds into SeedSequence states at once, two 128-bit LCG steps make each a PCG64 state
    as numpy's `pcg64_set_seed` does, and one PCG64 is re-seeded per row through its C struct (`_pcg64_seeder`). Each
    row then makes Generator.multinomial's calls to its C kernel (`_multinomial`) on `_drawable` rows: the counts of
    p, then each confusion row whose count is not 0, in order, into zeroed buffers of `_DRAW_BYTES` chunks.
    `tests/test_classifier.py::TestSampledStreams` checks every row against a fresh `default_rng` per row
    (`oracles.reference_sample`).
    """
    check_model(model, mode)
    if seeds is not None and isinstance(mode, Expectation):
        raise ValidationError("expectation mode takes no seeds")
    rows = float_rows(rows)
    if rows.shape[-1] != model.k:
        raise ValidationError(f"confusion model is {model.k}x{model.k}, distribution has k={rows.shape[-1]}")
    if isinstance(mode, Expectation):
        # One matrix-vector product per row: P @ m rounds differently for k >= 4.
        return normalized_rows((model.m.T @ rows[..., None])[..., 0])
    flat, m, k = _drawable(rows.reshape(-1, model.k)), _drawable(model.m), model.k
    if seeds is None:
        states = np.broadcast_to(_seed_sequence(np.array([_int_words(mode.seed)], dtype=np.uint32), 4), (len(flat), 4))
    else:
        seeds = _row_seeds(seeds, len(flat))
        # A seed below 2**32 is one entropy word to SeedSequence; a zero high word
        # mixes the same, because mix_entropy pads short entropy with zero words.
        states = _seed_sequence(np.stack([seeds & _MASK32, seeds >> 32], axis=1).astype(np.uint32), 4)
    from ctypes import byref, c_int64, c_ssize_t, c_void_p
    (kernel, binomial_t), bitgen = _multinomial(), np.random.PCG64()
    reseed, bg, binomial = _pcg64_seeder(bitgen), bitgen.ctypes.bit_generator, byref(binomial_t())
    n, kk, per = c_int64(mode.n), c_ssize_t(k), max(1, min(_DRAW_BYTES // _row_bytes(k), len(flat)))
    count = c_int64()  # each confusion row's count, set before its kernel call: the kernel reads it by value
    counts, draws, tallies = np.zeros((per, k), dtype=np.int64), np.zeros((per, k, k), dtype=np.int64), np.empty(flat.shape)
    # Each k-entry row's c_void_p, made in turn for the true rows. The kernel leaves entries after an early stop unset.
    row_at = lambda a: map(c_void_p, range(a.ctypes.data, a.ctypes.data + a.nbytes, 8 * k))
    count_at, draw_at, m_at, p_at = [*row_at(counts)], [*row_at(draws)], [*row_at(m)], row_at(flat)
    for start in range(0, len(flat), per):
        chunk = states[start:start + per].tolist()
        for j, (s_hi, s_lo, i_hi, i_lo) in enumerate(chunk):
            inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
            reseed(((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128, inc)
            kernel(bg, n, count_at[j], next(p_at), kk, binomial)
            for c, at, out in zip(counts[j].tolist(), m_at, draw_at[j * k:j * k + k]):
                if c:
                    count.value = c
                    kernel(bg, count, out, at, kk, binomial)
        tallies[start:start + len(chunk)] = draws[:len(chunk)].sum(axis=1) / mode.n
        counts[:], draws[:] = 0, 0
    return normalized_rows(tallies.reshape(rows.shape))


# ---------------------------------------------------------------------------
# Prediction-file ingestion
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Predictions:
    """Ingested records, reduced as they were read with `k` outcomes: `n` counts them. `total` (k,) is the sum of the
    soft (probs) rows, added in file order, as float64, or the int64 count of each hard (pred) record's label; `pairs`
    (k * k,) counts each (truth, prediction) pair at truth * k + prediction, the argmax for soft records, or is None
    unless every record has a truth label."""

    k: int
    n: int
    total: np.ndarray
    pairs: np.ndarray | None

    def __len__(self) -> int:
        return self.n


_scan_once = json.JSONDecoder().scan_once
_end_of_whitespace = json.decoder.WHITESPACE.match


def _json_line(line: str):
    """`json.loads(line)`, by one C scan when the line is one JSON value followed only by JSON whitespace.

    The scan is the one `json.loads` runs, without its wrapper. Any other line, valid or not (leading whitespace,
    a BOM, extra data, no value), goes to `json.loads`, which decides its value or writes its error.
    """
    try:
        obj, end = _scan_once(line, 0)
        if _end_of_whitespace(line, end).end() == len(line):
            return obj
    except (StopIteration, ValueError, RecursionError):
        pass
    return json.loads(line)


# Prediction input is read in blocks of whole lines of about this many bytes, in parallel where `pool._workers` allows.
_CHUNK_BYTES = 4 << 20
_MIXED = "prediction stream mixes soft (probs) and hard (pred) records"


def _read_range(k: int, lines):
    """Check one block of prediction lines, with every check of `load_predictions`, and reduce it; line numbers count
    from its first line. Returns (soft, first, error, bad, n_lines, reduced, pairs): its record kind (None without a
    record), the line of its first record, its first per-line error as (line, message) or None (reading stops there),
    its first soft row that is not a distribution as (line, message) or None, its line count, its rows (n, k) to fold:
    the soft rows, or the one row of predicted label counts, the sum of the hard records' one-hot rows, and its
    (truth, prediction) counts (k * k,), or None when a record lacks truth."""
    # One record's probabilities packed as k doubles, as an array("d") holds them: faster than extending one.
    packed = struct.Struct(f"{k}d").pack
    probs, linenos, labels, truth = bytearray(), array("q"), array("q"), array("q")
    soft = first = error = None
    lineno = 0
    try:
        for lineno, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            try:
                # A byte that is not UTF-8 came in as a surrogate escape, and fails here on the line that holds it.
                if not line.isascii():
                    line.encode("utf-8", "surrogateescape").decode("utf-8")
                obj = _json_line(line)
            except (ValueError, RecursionError) as exc:  # RecursionError: nesting too deep to decode
                raise ValidationError(f"invalid JSON: {exc}") from exc
            if not isinstance(obj, dict) or "id" not in obj:
                raise ValidationError('record must be an object with an "id"')
            p, label, t = obj.get("probs"), obj.get("pred"), obj.get("true", obj.get("truth"))
            if p is not None and not is_number_list(p):
                raise ValidationError("probs must be a list of numbers")
            if label is not None and not is_int(label):
                raise ValidationError(f"pred must be an integer label, got {label!r}")
            if t is not None and not is_int(t):
                raise ValidationError(f"true must be an integer label, got {t!r}")
            if (p is None) == (label is None):
                raise ValidationError("exactly one of probs/pred is required")
            if p is not None:
                if len(p) != k:
                    raise ValidationError(f"probs have length {len(p)}, expected {k}")
            elif not 0 <= label < k:
                raise ValidationError(f"pred {label} out of range for k={k}")
            if t is not None and not 0 <= t < k:
                raise ValidationError(f"truth {t} out of range for k={k}")
            if soft is None:
                soft, first = p is not None, lineno
            if soft != (p is not None):
                raise ValidationError(_MIXED)
            if soft:
                try:
                    probs += packed(*p)
                except struct.error:  # an int past float range; p holds only ints and floats
                    raise ValidationError("probs must be finite numbers") from None
                linenos.append(lineno)
            else:
                labels.append(label)
            truth.append(-1 if t is None else t)
    except ValidationError as exc:
        error = lineno, str(exc)
    rows = np.frombuffer(probs).reshape(-1, k)
    with np.errstate(invalid="ignore"):
        sums = rows.sum(axis=1)
    not_vector = ~np.isfinite(rows).all(axis=1) | (rows < 0).any(axis=1)
    row = next(iter(np.flatnonzero(not_vector | (np.abs(sums - 1.0) > PROBS_SUM_TOL))), None)
    bad = None if row is None else (linenos[row], "probs must be a non-negative vector" if not_vector[row]
                                    else f"probs sum to {float(sums[row])}, expected 1")
    pred = rows.argmax(axis=1) if soft else np.frombuffer(labels, dtype=np.int64)
    pairs = None if -1 in truth else np.bincount(np.frombuffer(truth, dtype=np.int64) * k + pred, minlength=k * k)
    return soft, first, error, bad, lineno, rows if soft else np.bincount(pred, minlength=k)[None], pairs


def _line_end(fd: int, pos: int, size: int) -> int:
    """Just after the first universal line end ("\\r\\n", "\\n" or a "\\r" not before "\\n") whose last byte is at or
    past `pos` in the file open at `fd`, or `size` when that is nearer. A "\\r" that ends a read is read again with the
    bytes after it; a read of that "\\r" alone (the file shrank) steps past it, so the search cannot stall."""
    while pos + 1 < size and (block := os.pread(fd, 1 << 12, pos)):
        if end := re.search(rb"\r?\n|\r(?=[^\n])", block):
            return min(pos + end.end(), size)
        pos += max(len(block) - block.endswith(b"\r"), 1)
    return size


def _read_file_range(fd: int, k: int, size: int, i: int):
    """`_read_range` of range i of the `size`-byte regular file open at `fd`: from just after the first line end at or
    past byte i * _CHUNK_BYTES - 1 (0 for i = 0) to just after the first at or past the next mark, or `size`, so no
    UTF-8 sequence, CR LF pair or line straddles two ranges (one may be empty); `os.pread` lets forked readers share `fd`."""
    start = _line_end(fd, i * _CHUNK_BYTES - 1, size) if i else 0
    stop = _line_end(fd, (i + 1) * _CHUNK_BYTES - 1, size)
    chunks = []
    # One pread returns at most 0x7ffff000 bytes on Linux, and may return fewer.
    while start < stop and (data := os.pread(fd, stop - start, start)):
        chunks.append(data)
        start += len(data)
    return _read_range(k, io.TextIOWrapper(io.BytesIO(b"".join(chunks)), encoding="utf-8", errors="surrogateescape"))


def _merge(k: int, results) -> Predictions:
    """One `Predictions` from the `_read_range` results of consecutive blocks, in file order, with the errors and
    their precedence of one pass over the whole file: a per-line error in any block before the first bad soft row."""
    soft = bad = None
    n, offset, total, pairs = 0, 0, None, 0
    for r_soft, first, error, r_bad, n_lines, reduced, r_pairs in results:
        # A block's first record meets the stream's kind check before any later line can fail; a block whose
        # error comes before its first record has no kind.
        if soft is not None and r_soft not in (None, soft):
            error = first, _MIXED
        if error is not None:
            raise ValidationError(f"line {offset + error[0]}: {error[1]}")
        if bad is None and r_bad is not None:
            bad = f"line {offset + r_bad[0]}: {r_bad[1]}"
        if r_soft is not None:
            soft = r_soft
            n += len(reduced) if soft else int(reduced.sum())
            # numpy sums a C-ordered block over axis 0 row by row, so with the running total added into the first
            # row in place the additions, and their order, are those of one pass over the file, with no copy.
            if total is not None:
                reduced[0] += total
            total = reduced.sum(axis=0)
            pairs = None if pairs is None or r_pairs is None else pairs + r_pairs
        offset += n_lines
    if bad is not None:
        raise ValidationError(bad)
    if soft is None:
        raise ValidationError("prediction stream is empty")
    return Predictions(k, n, total, pairs)


def load_predictions(path, k: int) -> Predictions:
    """Read a JSONL prediction file: one {"id", "probs"|"pred", "true"?} per line.

    Each line is checked as it is read: JSON, an object with an "id", `probs`
    a list of numbers, `pred`/`true` integer labels, exactly one of probs/pred,
    len(probs) == k, labels in [0, k) and one record kind throughout. The soft
    rows must also be finite and non-negative and sum to 1 within
    PROBS_SUM_TOL; a per-line error anywhere in the file is reported before
    such a row. Each error names the first bad line.

    Every input is read in blocks of whole lines, each checked and reduced by `_read_range` and folded in file order,
    so the result and every error are those of one pass. A regular file larger than `_CHUNK_BYTES` is read in ranges
    cut at any line end, one `_read_file_range` each, through `fork_map`: by forked workers where `pool._workers` allows.
    Any other input is read here in line blocks.
    """
    check_k(k)
    with open(check_path(path), encoding="utf-8", errors="surrogateescape") as fh:
        st = os.fstat(fh.fileno())
        n_ranges = -(-st.st_size // _CHUNK_BYTES) if stat.S_ISREG(st.st_mode) else 1
        if n_ranges < 2:  # a stream's blocks are smaller, as its lines are held as str, not bytes
            return _merge(k, map(partial(_read_range, k), iter(lambda: fh.readlines(_CHUNK_BYTES >> 4 or 1), [])))
        with fork_map([partial(_read_file_range, fh.fileno(), k, st.st_size, i) for i in range(n_ranges)]) as ranges:
            return _merge(k, ranges)


def ingest_predictions(preds: Predictions) -> tuple[np.ndarray, ConfusionModel | None]:
    """Aggregate predictions into an estimated distribution, a (k,) array checked by `normalized_rows`.

    Soft records average their probability vectors; hard records tally
    predicted labels. When every record carries a truth label, a
    row-normalized confusion matrix over (truth, prediction) counts is
    returned as well; truth classes that never occur keep an identity row
    (no error evidence for them).
    """
    check_type("predictions", preds, Predictions)
    k, total = preds.k, preds.total
    # A soft row may be off 1 by PROBS_SUM_TOL, so divide by the total's sum, not the count; a hard total sums to it.
    estimated = normalized_rows(total / total.sum())
    if preds.pairs is None:
        return estimated, None
    counts = preds.pairs.reshape(k, k)
    m = np.eye(k)
    seen = counts.sum(axis=1) > 0
    m[seen] = counts[seen] / counts[seen].sum(axis=1, keepdims=True)
    return estimated, ConfusionModel(m)


def load_confusion(path) -> ConfusionModel:
    """Read a confusion file: {"k": 2, "m": [[...], ...]}; its errors name the file."""
    with json_file(path) as obj:
        if not isinstance(obj, dict) or "k" not in obj or "m" not in obj:
            raise ValidationError('confusion JSON must contain "k" and "m"')
        k, m = check_int('"k"', obj["k"]), obj["m"]
        if not (isinstance(m, list) and len(m) == k and all(is_number_list(row) and len(row) == k for row in m)):
            raise ValidationError(f'"m" must be {k} rows of {k} numbers')
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
# Every name `preset` resolves.
PRESET_NAMES = ("perfect", "set2", *PRESET_ACCURACIES)


def preset(name: str, k: int | None = None) -> ConfusionModel:
    """Resolve a named preset to a confusion model.

    "perfect" works at any k (k required). "set2" picks the family member
    matching k. Fixed-k presets reject a mismatching k.
    """
    if k is not None:
        check_int("k", k)
    if check_choice("preset", name, PRESET_NAMES) == "perfect":
        if k is None:
            raise ValidationError('preset "perfect" needs an explicit k')
        return perfect(k)
    if name == "set2":
        if k is None:
            raise ValidationError('preset family "set2" needs an explicit k')
        if (name := f"set2-k{k}") not in PRESET_ACCURACIES:
            members = ", ".join(str(n) for member, (n, _) in PRESET_ACCURACIES.items() if member.startswith("set2-"))
            raise ValidationError(f'preset family "set2" has no member for k={k} (members: k={members})')
    preset_k, acc = PRESET_ACCURACIES[name]
    if k is not None and k != preset_k:
        raise ValidationError(f"preset {name!r} is for k={preset_k}, requested k={k}")
    return from_accuracies(np.full(preset_k, acc))


# The spec of a run that names no classifier, and the forms of a spec that `from_spec` reads.
DEFAULT_SPEC = "perfect"
SPEC_FORMS = 'preset name ("perfect", "set1-a".."set1-d", "set2", "set2-k2".."set2-k16") or confusion JSON path'


def from_spec(spec: str, k: int) -> ConfusionModel:
    """The k x k model a classifier spec names: a preset by `preset` ("perfect", "set2" or a fixed-k name), else the
    model in the confusion file at path `spec`, whose k must be k."""
    check_str("classifier spec", spec)
    check_k(k)
    if spec in PRESET_NAMES:
        return preset(spec, k)
    model = load_confusion(spec)
    if model.k != k:
        raise ValidationError(f"confusion file {spec} is for k={model.k}, requested k={k}")
    return model
