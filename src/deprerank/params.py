"""Model parameters: word/distance embeddings, POS-pair weights, init and persistence."""

from __future__ import annotations

import json
import math
import struct
from collections import Counter
from dataclasses import dataclass, field
from typing import IO, Iterable, Sequence

import numpy as np
from _blake2 import blake2b  # hashlib's blake2b, without loading OpenSSL

from .errors import FormatError, ModelIOError, ParseError
from .treebank import DependencyTree, read_text

UNK_FORM = "<unk>"
ROOT_FORM = "<root>"
ROOT_POS = "ROOT"

_INIT_SCALE = 0.01
_MODEL_MAGIC = b"DPRK"
_MODEL_VERSION = 1
_READ_CHUNK = 1 << 20
_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15  # SplitMix64's counter step, 2^64 over the golden ratio
_DRAW_BLOCK = 1 << 15  # draws made at a time: the working arrays stay this small
# the tables the scorer learns, in `ParamSet.tables()` order: the order of the
# model file, the AdaGrad sums and `rcnn.Gradients`
TABLES = ("word vectors", "distance vectors", "composition matrices", "score vectors")


@dataclass
class Hyperparams:
    """Model and training hyperparameters. Defaults are the reference configuration."""

    m: int = 25          # word embedding size
    m_d: int = 25        # distance embedding size
    rho: float = 0.1     # initial learning rate
    kappa: float = 2.0   # margin discount per wrong head
    lam: float = 1e-4    # L2 weight ("lambda" in config files)
    k: int = 64          # k-best list size
    dist_clip: int = 10  # max |relative distance| kept distinct

    def __post_init__(self):
        if not all(math.isfinite(x) for x in (self.rho, self.kappa, self.lam)):
            raise ValueError("rho, kappa and lambda must be finite")
        if min(self.m, self.m_d, self.k, self.dist_clip) <= 0:
            raise ValueError("m, m_d, k and dist_clip must be positive")
        if self.rho <= 0 or self.kappa <= 0 or self.lam < 0:
            raise ValueError("rho and kappa must be positive, lam non-negative")

    @property
    def n(self) -> int:
        """Width of the concatenated head/child/distance input to each composition."""
        return 2 * self.m + self.m_d


def _stable_hash(s: str) -> int:
    return int.from_bytes(blake2b(s.encode("utf-8"), digest_size=8).digest(), "little")


def _finalize(z: np.ndarray) -> np.ndarray:
    """SplitMix64's finalizer of each element of the uint64 array `z`, in
    place, in wrapping arithmetic; returns `z`."""
    tmp = np.empty_like(z)
    for shift, multiplier in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        np.right_shift(z, shift, out=tmp)
        z ^= tmp
        z *= multiplier
    np.right_shift(z, 31, out=tmp)
    z ^= tmp
    return z


def stream_keys(*parts) -> np.ndarray:
    """The uint64 keys of tuples of integers, one per row of the parts (ints,
    taken mod 2^64, or 1-D uint64 arrays, broadcast): each part in turn is
    xored into the key, which then steps by gamma and is finalized."""
    key = np.zeros(1, dtype=np.uint64)
    for part in parts:
        key = key ^ (part & _MASK)
        key += _GAMMA
        _finalize(key)
    return key


def uniform_draws(keys: np.ndarray, count: int) -> np.ndarray:
    """(len(keys), count) draws from the open interval (-0.01, 0.01), one row per key.

    Draw j of key k is SplitMix64's finalizer of k + (j + 1) * gamma (mod
    2^64), a counter-based stream: a key's draws do not depend on the other
    keys or on the order of the calls. The top 52 bits t of a draw give
    ((2t + 1) / 2^52 - 1) * 0.01, exactly up to the last product, which
    never reaches 0.01, so no draw needs redrawing.
    """
    keys = np.asarray(keys, dtype=np.uint64)
    out = np.empty((len(keys), count))
    cols = max(1, min(count, _DRAW_BLOCK))
    rows = max(1, _DRAW_BLOCK // cols)
    for c0 in range(0, count, cols):
        steps = np.arange(c0 + 1, min(count, c0 + cols) + 1, dtype=np.uint64)
        steps *= _GAMMA
        for r0 in range(0, len(keys), rows):
            bits = _finalize(np.add.outer(keys[r0:r0 + rows], steps))
            bits >>= 12
            block = out[r0:r0 + rows, c0:c0 + cols]
            np.copyto(block, bits, casting="unsafe")  # exact: below 2^52
            block *= 2.0 ** -51
            block += 2.0 ** -52 - 1.0
            block *= _INIT_SCALE
    return out


class EmbeddingTable:
    """Dense lookup table: key i of `keys` owns row i of `vectors`, and
    `rows[key]` is i. Keys given as a `range` (the distances) stay one, and
    their rows are computed, so that no Python object is held per row."""

    def __init__(self, keys: Sequence, vectors: np.ndarray):
        assert vectors.ndim == 2 and len(vectors) == len(keys)
        if isinstance(keys, range):
            self.keys, self.rows = keys, _RangeRows(keys)
        else:
            self.keys = list(keys)
            self.rows = {k: i for i, k in enumerate(self.keys)}
            assert len(self.rows) == len(self.keys), "duplicate embedding keys"
        self.vectors = np.ascontiguousarray(vectors, dtype=np.float64)

    def __len__(self) -> int:
        return len(self.keys)

    def copy(self) -> "EmbeddingTable":
        return EmbeddingTable(self.keys, self.vectors.copy())


class _RangeRows:
    """The rows of a range of keys: a key's row is its index in the range."""

    def __init__(self, keys: range):
        self.keys = keys

    def __getitem__(self, key: int) -> int:
        if key not in self.keys:
            raise KeyError(key)
        return self.keys.index(key)


class PosPairStore:
    """Composition matrix W and score vector v per (head-POS, child-POS) pair.

    Slot 0 is the fallback used at inference for pairs never seen in training;
    real pairs occupy slots >= 1 and are created lazily. Creation is
    deterministic given the seed, independent of touch order.
    """

    FALLBACK_SLOT = 0

    def __init__(self, seed: int, W: np.ndarray, v: np.ndarray,
                 pairs: Sequence[tuple[str, str]] = ()):
        """A store over a (slots, m, n) `W` and a (slots, m) `v`, taken as they
        are: slot 0 is the fallback and slot i the i-th of `pairs`."""
        assert len(W) == len(v) == len(pairs) + 1 and W.shape[1] == v.shape[1]
        self.seed, self.W, self.v = seed, W, v
        self.index = {pair: slot for slot, pair in enumerate(pairs, start=1)}
        self._table = None  # (tag ids, slot table) for `slots`, made on first use

    def __len__(self) -> int:
        return len(self.v)

    def pairs(self) -> list[tuple[str, str]]:
        """Stored POS pairs in slot order (fallback excluded)."""
        return list(self.index)

    def slot(self, head_pos: str, child_pos: str, create: bool = False) -> int:
        s = self.index.get((head_pos, child_pos))
        if s is not None:
            return s
        if not create:
            return self.FALLBACK_SLOT
        return self.add([(head_pos, child_pos)])[0]

    def slots(self, tags: Sequence[str]) -> np.ndarray:
        """(len(tags), len(tags)) array: [i, j] is the slot of the pair (head
        tags[i], child tags[j]), or the fallback slot if it is not stored."""
        if self._table is None:  # tag -> row; the last row and column: a tag in no pair
            ids = {tag: i for i, tag in enumerate(dict.fromkeys(t for p in self.index for t in p))}
            self._table = ids, np.zeros((len(ids) + 1, len(ids) + 1), dtype=np.int64)
            for (head, child), slot in self.index.items():
                self._table[1][ids[head], ids[child]] = slot
        ids, table = self._table
        rows = np.array([ids.get(tag, -1) for tag in tags], dtype=np.int64)
        return table[rows[:, None], rows]

    def add(self, pairs: Sequence[tuple[str, str]]) -> range:
        """Store new `pairs` (each once) in new slots, returned; each draws its W,
        then its v, from the stream keyed by the store's seed and the pair."""
        start = len(self)
        if not pairs:
            return range(start, start)
        heads, children = np.array([[_stable_hash(head), _stable_hash(child)]
                                    for head, child in pairs], dtype=np.uint64).T
        m, n = self.W.shape[1:]
        draws = uniform_draws(stream_keys(self.seed, 0x70A1, heads, children), m * n + m)
        self.W = np.concatenate([self.W, draws[:, :m * n].reshape(-1, m, n)])
        self.v = np.concatenate([self.v, draws[:, m * n:]])
        self.index.update(zip(pairs, range(start, len(self))))
        self._table = None
        return range(start, len(self))

    def get(self, slot: int) -> tuple[np.ndarray, np.ndarray]:
        return self.W[slot], self.v[slot]

    def finalize_fallback(self) -> None:
        """Derive the fallback: slot 0 becomes the mean of the learned pairs,
        or stays as it is while there are none. `train()` calls this before
        every dev evaluation, so the model it selects, saves and reloads
        scores unseen pairs with the fallback it was selected with."""
        if len(self) > 1:
            self.W[0] = self.W[1:].mean(axis=0)
            self.v[0] = self.v[1:].mean(axis=0)

    def copy(self) -> "PosPairStore":
        return PosPairStore(self.seed, self.W.copy(), self.v.copy(), self.pairs())


@dataclass
class ParamSet:
    """Everything the scorer learns, plus the hyperparameters that shape it."""

    words: EmbeddingTable
    distances: EmbeddingTable
    pos_pairs: PosPairStore
    hyper: Hyperparams
    pos_vocab: tuple[str, ...] = field(default_factory=tuple)

    @property
    def seed(self) -> int:
        """The seed of the keyed draws, held once: by the pair store, which draws from it."""
        return self.pos_pairs.seed

    def tables(self) -> tuple[np.ndarray, ...]:
        """The learned arrays, in `TABLES` order; read anew on each call, as
        `PosPairStore.add` replaces W and v."""
        return self.words.vectors, self.distances.vectors, self.pos_pairs.W, self.pos_pairs.v

    def word_row(self, form: str) -> int:
        """The word's row; an unknown form reads the `<unk>` row."""
        rows = self.words.rows
        return rows.get(form, rows[UNK_FORM])

    def distance_row(self, delta: int) -> int:
        """The row of the relative distance, clipped to [-dist_clip, dist_clip]."""
        c = self.hyper.dist_clip
        return self.distances.rows[max(-c, min(c, delta))]

    def copy(self) -> "ParamSet":
        return ParamSet(self.words.copy(), self.distances.copy(), self.pos_pairs.copy(),
                        self.hyper, self.pos_vocab)


def build_word_vocab(trees: Iterable[DependencyTree], min_freq: int = 2) -> list[str]:
    """Forms occurring at least min_freq times, sorted; rarer forms train the UNK row."""
    counts = Counter(form for tree in trees for form in tree.forms)
    return sorted(form for form, c in counts.items() if c >= min_freq)


def build_pos_vocab(trees: Iterable[DependencyTree]) -> list[str]:
    tags = {pos for tree in trees for pos in tree.pos_tags}
    tags.add(ROOT_POS)
    return sorted(tags)


def init_random(hyper: Hyperparams, word_vocab: Sequence[str], pos_vocab: Sequence[str],
                seed: int) -> ParamSet:
    """Fresh randomly initialized parameters; POS pairs are created lazily later.
    The word, distance and fallback tables each draw, row by row, from the
    stream keyed by the seed and the table's name."""
    forms = [UNK_FORM, ROOT_FORM]
    forms.extend(w for w in word_vocab if w not in (UNK_FORM, ROOT_FORM))
    deltas = range(-hyper.dist_clip, hyper.dist_clip + 1)
    m, n = hyper.m, hyper.n

    def draws(table: str, rows: int, cols: int) -> np.ndarray:
        key = stream_keys(seed, _stable_hash(table))
        return uniform_draws(key, rows * cols).reshape(rows, cols)

    words = EmbeddingTable(forms, draws("words", len(forms), m))
    distances = EmbeddingTable(deltas, draws("distances", len(deltas), hyper.m_d))
    fallback = draws("fallback", 1, m * n + m)  # W, then v, as a pair draws them
    pairs = PosPairStore(seed, fallback[:, :m * n].reshape(1, m, n), fallback[:, m * n:])
    return ParamSet(words, distances, pairs, hyper, tuple(pos_vocab))


def table_bytes(hyper: Hyperparams, words: int, pairs: int) -> int:
    """About the bytes of the parameters `init_random` makes over `words`
    vocabulary forms, once `pairs` POS pairs are stored: the float64 tables,
    and about 100 bytes of keys per word row (distance rows hold no key)."""
    rows, deltas = words + 2, 2 * hyper.dist_clip + 1
    floats = rows * hyper.m + deltas * hyper.m_d + (pairs + 1) * hyper.m * (hyper.n + 1)
    return 8 * floats + 100 * rows


def load_pretrained(params: ParamSet, stream: Iterable[str]) -> int:
    """Overwrite word rows from word2vec text format; returns rows loaded.

    Header line is "<count> <dim>"; each following line is a form and dim
    finite floats. Out-of-vocabulary forms are skipped, and of a form given
    twice the last line wins. Every line is checked before any row is
    written, so an error leaves the parameters as they were.
    """
    m = params.hyper.m
    lines = iter(stream)
    try:
        header = next(lines)
    except StopIteration:
        raise ParseError("empty pretrained vector file", line=1) from None
    fields = header.split()
    if len(fields) != 2:
        raise ParseError(f"expected '<count> <dim>' header, got {header.strip()!r}", line=1)
    try:
        int(fields[0])
        dim = int(fields[1])
    except ValueError:
        raise ParseError(f"non-integer header field in {header.strip()!r}", line=1) from None
    if dim != m:
        raise FormatError(f"pretrained vectors have dim {dim}, model expects {m}")
    loaded, rows = 0, {}
    for lineno, line in enumerate(lines, start=2):
        if not line.strip():
            continue
        fields = line.split()
        if len(fields) != dim + 1:
            raise ParseError(f"expected a form and {dim} values, got {len(fields)} fields", lineno)
        row = params.words.rows.get(fields[0])
        if row is None:
            continue
        try:
            values = [float(x) for x in fields[1:]]
        except ValueError:
            raise ParseError(f"malformed float in vector for {fields[0]!r}", lineno) from None
        if not all(map(math.isfinite, values)):
            raise ParseError(f"non-finite value in vector for {fields[0]!r}", lineno)
        rows[row] = values
        loaded += 1
    for row, values in rows.items():
        params.words.vectors[row] = values
    return loaded


def load_pretrained_file(params: ParamSet, path) -> int:
    return read_text(path, lambda f: load_pretrained(params, f))


# ---------------------------------------------------------------------------
# persistence: magic, version, length-prefixed JSON header, then the raw
# float64 arrays in a fixed order. Bit-exact and byte-deterministic.

def _header(params: ParamSet) -> bytes:
    h = params.hyper
    meta = {
        "hyper": {"m": h.m, "m_d": h.m_d, "rho": h.rho, "kappa": h.kappa,
                  "lambda": h.lam, "k": h.k, "dist_clip": h.dist_clip},
        "seed": params.seed,
        "words": params.words.keys,
        "pairs": params.pos_pairs.pairs(),
        "pos_vocab": list(params.pos_vocab),
    }
    return json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")


def save(params: ParamSet, sink) -> None:
    """Serialize to a path or binary file object, exactly as the parameters are.

    The parameters are left as they are, so every score, unseen POS pairs
    included, is the same before and after a round trip.
    """
    if hasattr(sink, "write"):
        _write_model(params, sink)
    else:
        with open(sink, "wb") as f:
            _write_model(params, f)


def _write_model(params: ParamSet, f: IO[bytes]) -> None:
    header = _header(params)
    f.write(_MODEL_MAGIC)
    f.write(struct.pack("<I", _MODEL_VERSION))
    f.write(struct.pack("<Q", len(header)))
    f.write(header)
    for table in params.tables():
        f.write(np.ascontiguousarray(table, dtype=np.float64).tobytes())


def load(source) -> ParamSet:
    if hasattr(source, "read"):
        return _read_model(source)
    with open(source, "rb") as f:
        return _read_model(f)


def _read_exact(f: IO[bytes], nbytes: int, what: str) -> bytes:
    """Exactly nbytes, read in bounded chunks: a length field larger than the
    file fails as a truncated file, without allocating that length first."""
    chunks = []
    while nbytes > 0:
        chunk = f.read(min(nbytes, _READ_CHUNK))
        if not chunk:
            raise ModelIOError(f"truncated model file while reading {what}")
        chunks.append(chunk)
        nbytes -= len(chunk)
    return b"".join(chunks)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_strings(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def _field(section: dict, key: str, check, what: str):
    if key not in section:
        raise ModelIOError(f"model header: missing key {key!r}")
    if not check(section[key]):
        raise ModelIOError(f"model header: {key!r} must be {what}")
    return section[key]


def _parse_header(raw: bytes) -> tuple[Hyperparams, int, list[str], list[tuple[str, str]],
                                       list[str]]:
    """Hyperparameters, seed, word forms, POS pairs and POS vocabulary, checked."""
    try:
        meta = json.loads(raw.decode("utf-8"))
    except UnicodeDecodeError:
        raise ModelIOError("corrupt model header: not UTF-8") from None
    except (ValueError, RecursionError) as e:
        raise ModelIOError(f"corrupt model header: {e}") from None
    if not isinstance(meta, dict):
        raise ModelIOError("model header: not a JSON object")
    hy = _field(meta, "hyper", lambda v: isinstance(v, dict), "an object")
    number = lambda v: _is_int(v) or isinstance(v, float)
    sizes = {key: _field(hy, key, _is_int, "an integer") for key in ("m", "m_d", "k", "dist_clip")}
    rates = {key: _field(hy, key, number, "a number")
             for key in ("rho", "kappa", "lambda")}
    try:  # models saved with an "alpha" key still load: nothing reads it
        hyper = Hyperparams(**sizes, rho=rates["rho"], kappa=rates["kappa"], lam=rates["lambda"])
    except ValueError as e:
        raise ModelIOError(f"model header: invalid hyperparameters: {e}") from None
    seed = _field(meta, "seed", lambda v: _is_int(v) and v >= 0, "a non-negative integer")
    forms = _field(meta, "words", _is_strings, "a list of strings")
    if len(set(forms)) != len(forms):
        raise ModelIOError("model header: duplicate words")
    if UNK_FORM not in forms:
        raise ModelIOError(f"model header: no {UNK_FORM} word")
    pairs = _field(meta, "pairs", lambda v: isinstance(v, list) and all(
        _is_strings(p) and len(p) == 2 for p in v), "a list of [head POS, child POS] pairs")
    pairs = [tuple(p) for p in pairs]
    if len(set(pairs)) != len(pairs):
        raise ModelIOError("model header: duplicate POS pairs")
    pos_vocab = _field(meta, "pos_vocab", _is_strings, "a list of strings")
    return hyper, seed, forms, pairs, pos_vocab


def _read_model(f: IO[bytes]) -> ParamSet:
    if _read_exact(f, 4, "magic") != _MODEL_MAGIC:
        raise ModelIOError("not a deprerank model file (bad magic)")
    (version,) = struct.unpack("<I", _read_exact(f, 4, "version"))
    if version != _MODEL_VERSION:
        raise ModelIOError(f"unsupported model version {version} (expected {_MODEL_VERSION})")
    (hlen,) = struct.unpack("<Q", _read_exact(f, 8, "header length"))
    hyper, seed, forms, pair_keys, pos_vocab = _parse_header(_read_exact(f, hlen, "header"))

    clip, count = hyper.dist_clip, len(pair_keys) + 1
    tables = []
    for shape, what in zip(((len(forms), hyper.m), (2 * clip + 1, hyper.m_d),
                            (count, hyper.m, hyper.n), (count, hyper.m)), TABLES):
        raw = _read_exact(f, math.prod(shape) * 8, what)
        tables.append(np.frombuffer(raw, dtype=np.float64).reshape(shape).copy())
        if not np.isfinite(tables[-1]).all():
            raise ModelIOError(f"non-finite values in {what}")
    if f.read(1):
        raise ModelIOError("trailing bytes after model payload")
    words, dists, W, v = tables
    return ParamSet(EmbeddingTable(forms, words), EmbeddingTable(range(-clip, clip + 1), dists),
                    PosPairStore(seed, W, v, pair_keys), hyper, tuple(pos_vocab))
