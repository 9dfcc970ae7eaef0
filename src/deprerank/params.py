"""Model parameters: word/distance embeddings, POS-pair weights, init and persistence."""

from __future__ import annotations

import hashlib
import json
import math
import struct
from collections import Counter
from dataclasses import dataclass, field
from typing import IO, Iterable, Sequence

import numpy as np

from .errors import FormatError, ModelIOError, ParseError
from .treebank import DependencyTree, read_text

UNK_FORM = "<unk>"
ROOT_FORM = "<root>"
ROOT_POS = "ROOT"

_INIT_SCALE = 0.01
_MODEL_MAGIC = b"DPRK"
_MODEL_VERSION = 1
_READ_CHUNK = 1 << 20


@dataclass
class Hyperparams:
    """Model and training hyperparameters. Defaults are the reference configuration."""

    m: int = 25          # word embedding size
    m_d: int = 25        # distance embedding size
    rho: float = 0.1     # initial learning rate
    kappa: float = 2.0   # margin discount per wrong head
    lam: float = 1e-4    # L2 weight ("lambda" in config files)
    k: int = 64          # k-best list size
    alpha: float = 0.5   # mixture weight when none is searched
    dist_clip: int = 10  # max |relative distance| kept distinct

    def __post_init__(self):
        if not all(math.isfinite(x) for x in (self.rho, self.kappa, self.lam, self.alpha)):
            raise ValueError("rho, kappa, lambda and alpha must be finite")
        if min(self.m, self.m_d, self.k, self.dist_clip) <= 0:
            raise ValueError("m, m_d, k and dist_clip must be positive")
        if self.rho <= 0 or self.kappa <= 0 or self.lam < 0:
            raise ValueError("rho and kappa must be positive, lam non-negative")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha}")

    @property
    def n(self) -> int:
        """Width of the concatenated head/child/distance input to each composition."""
        return 2 * self.m + self.m_d


def _stable_hash(s: str) -> int:
    return int.from_bytes(hashlib.blake2b(s.encode("utf-8"), digest_size=8).digest(), "little")


def _uniform_init(rng: np.random.Generator, shape) -> np.ndarray:
    """Sample uniformly from the open interval (-0.01, 0.01)."""
    x = rng.uniform(-_INIT_SCALE, _INIT_SCALE, size=shape)
    while True:
        boundary = np.abs(x) >= _INIT_SCALE
        if not boundary.any():
            return x
        x[boundary] = rng.uniform(-_INIT_SCALE, _INIT_SCALE, size=int(boundary.sum()))


class EmbeddingTable:
    """Dense lookup table; lookups return views so updates write through."""

    def __init__(self, dim: int, keys: Sequence, vectors: np.ndarray):
        assert vectors.shape == (len(keys), dim)
        self.dim = dim
        self.keys = list(keys)
        self.rows = {k: i for i, k in enumerate(self.keys)}
        assert len(self.rows) == len(self.keys), "duplicate embedding keys"
        self.vectors = np.ascontiguousarray(vectors, dtype=np.float64)

    def __len__(self) -> int:
        return len(self.keys)

    def row(self, key, default=None) -> int:
        idx = self.rows.get(key)
        if idx is None:
            if default is None:
                raise KeyError(key)
            idx = self.rows[default]
        return idx

    def lookup(self, key, default=None) -> np.ndarray:
        return self.vectors[self.row(key, default)]

    def copy(self) -> "EmbeddingTable":
        return EmbeddingTable(self.dim, self.keys, self.vectors.copy())


class PosPairStore:
    """Composition matrix W and score vector v per (head-POS, child-POS) pair.

    Slot 0 is the fallback used at inference for pairs never seen in training;
    real pairs occupy slots >= 1 and are created lazily. Creation is
    deterministic given the seed, independent of touch order.
    """

    FALLBACK_SLOT = 0

    def __init__(self, m: int, n: int, seed: int,
                 fallback_W: np.ndarray, fallback_v: np.ndarray):
        self.m = m
        self.n = n
        self.seed = seed
        self.index: dict[tuple[str, str], int] = {}
        self._W = np.zeros((8, m, n))
        self._v = np.zeros((8, m))
        self.count = 1
        self._store(0, fallback_W, fallback_v)

    def _store(self, slot: int, W: np.ndarray, v: np.ndarray) -> None:
        assert W.shape == (self.m, self.n) and v.shape == (self.m,)
        self._W[slot] = W
        self._v[slot] = v

    @property
    def W(self) -> np.ndarray:
        """(count, m, n) view; invalidated by the next pair creation."""
        return self._W[:self.count]

    @property
    def v(self) -> np.ndarray:
        return self._v[:self.count]

    def __len__(self) -> int:
        return self.count

    def pairs(self) -> list[tuple[str, str]]:
        """Stored POS pairs in slot order (fallback excluded)."""
        return sorted(self.index, key=self.index.get)

    def slot(self, head_pos: str, child_pos: str, create: bool = False) -> int:
        s = self.index.get((head_pos, child_pos))
        if s is not None:
            return s
        if not create:
            return self.FALLBACK_SLOT
        return self._create(head_pos, child_pos)

    def _create(self, head_pos: str, child_pos: str) -> int:
        if self.count == len(self._W):
            self._W = np.concatenate([self._W, np.zeros_like(self._W)])
            self._v = np.concatenate([self._v, np.zeros_like(self._v)])
        rng = np.random.default_rng(
            (self.seed, 0x70A1, _stable_hash(head_pos), _stable_hash(child_pos)))
        slot = self.count
        self._store(slot, _uniform_init(rng, (self.m, self.n)), _uniform_init(rng, (self.m,)))
        self.index[(head_pos, child_pos)] = slot
        self.count += 1
        return slot

    def get(self, slot: int) -> tuple[np.ndarray, np.ndarray]:
        return self._W[slot], self._v[slot]

    def finalize_fallback(self) -> None:
        """Derive the fallback: slot 0 becomes the mean of the learned pairs,
        or stays as it is while there are none. `train()` calls this before
        every dev evaluation, so the model it selects, saves and reloads
        scores unseen pairs with the fallback it was selected with."""
        if self.count > 1:
            self._W[0] = self._W[1:self.count].mean(axis=0)
            self._v[0] = self._v[1:self.count].mean(axis=0)

    def copy(self) -> "PosPairStore":
        clone = PosPairStore(self.m, self.n, self.seed, self._W[0], self._v[0])
        clone.index = dict(self.index)
        clone.count = self.count
        clone._W = self._W[:self.count].copy()
        clone._v = self._v[:self.count].copy()
        return clone


@dataclass
class ParamSet:
    """Everything the scorer learns, plus the hyperparameters that shape it."""

    words: EmbeddingTable
    distances: EmbeddingTable
    pos_pairs: PosPairStore
    hyper: Hyperparams
    seed: int
    pos_vocab: tuple[str, ...] = field(default_factory=tuple)

    def lookup_word(self, form: str) -> np.ndarray:
        return self.words.lookup(form, default=UNK_FORM)

    def word_row(self, form: str) -> int:
        return self.words.row(form, default=UNK_FORM)

    def clip_distance(self, delta: int) -> int:
        c = self.hyper.dist_clip
        return max(-c, min(c, delta))

    def distance_row(self, delta: int) -> int:
        return self.distances.rows[self.clip_distance(delta)]

    def lookup_distance(self, delta: int) -> np.ndarray:
        return self.distances.vectors[self.distance_row(delta)]

    def get_pair(self, head_pos: str, child_pos: str,
                 create_if_missing: bool = False) -> tuple[np.ndarray, np.ndarray]:
        return self.pos_pairs.get(self.pos_pairs.slot(head_pos, child_pos, create_if_missing))

    def copy(self) -> "ParamSet":
        return ParamSet(self.words.copy(), self.distances.copy(), self.pos_pairs.copy(),
                        self.hyper, self.seed, self.pos_vocab)

    def equals(self, other: "ParamSet") -> bool:
        """Bit-exact equality of all parameters and metadata."""
        return (self.hyper == other.hyper
                and self.seed == other.seed
                and self.pos_vocab == other.pos_vocab
                and self.words.keys == other.words.keys
                and self.distances.keys == other.distances.keys
                and self.pos_pairs.index == other.pos_pairs.index
                and np.array_equal(self.words.vectors, other.words.vectors)
                and np.array_equal(self.distances.vectors, other.distances.vectors)
                and np.array_equal(self.pos_pairs.W, other.pos_pairs.W)
                and np.array_equal(self.pos_pairs.v, other.pos_pairs.v))


def build_word_vocab(trees: Iterable[DependencyTree], min_freq: int = 2) -> list[str]:
    """Forms occurring at least min_freq times, sorted; rarer forms train the UNK row."""
    counts = Counter(t.form for tree in trees for t in tree.tokens)
    return sorted(form for form, c in counts.items() if c >= min_freq)


def build_pos_vocab(trees: Iterable[DependencyTree]) -> list[str]:
    tags = {t.pos for tree in trees for t in tree.tokens}
    tags.add(ROOT_POS)
    return sorted(tags)


def init_random(hyper: Hyperparams, word_vocab: Sequence[str], pos_vocab: Sequence[str],
                seed: int) -> ParamSet:
    """Fresh randomly initialized parameters; POS pairs are created lazily later."""
    rng = np.random.default_rng(seed)
    forms = [UNK_FORM, ROOT_FORM]
    forms.extend(w for w in word_vocab if w not in (UNK_FORM, ROOT_FORM))
    words = EmbeddingTable(hyper.m, forms, _uniform_init(rng, (len(forms), hyper.m)))
    deltas = list(range(-hyper.dist_clip, hyper.dist_clip + 1))
    distances = EmbeddingTable(hyper.m_d, deltas, _uniform_init(rng, (len(deltas), hyper.m_d)))
    pairs = PosPairStore(hyper.m, hyper.n, seed,
                         _uniform_init(rng, (hyper.m, hyper.n)),
                         _uniform_init(rng, (hyper.m,)))
    return ParamSet(words, distances, pairs, hyper, seed, tuple(pos_vocab))


def load_pretrained(params: ParamSet, stream: Iterable[str]) -> int:
    """Overwrite word rows from word2vec text format; returns rows loaded.

    Header line is "<count> <dim>"; each following line is a form and dim
    finite floats. Out-of-vocabulary forms are skipped.
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
    loaded = 0
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
        params.words.vectors[row] = values
        loaded += 1
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
                  "lambda": h.lam, "k": h.k, "alpha": h.alpha, "dist_clip": h.dist_clip},
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
    for arr in (params.words.vectors, params.distances.vectors,
                params.pos_pairs.W, params.pos_pairs.v):
        f.write(np.ascontiguousarray(arr, dtype=np.float64).tobytes())


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
             for key in ("rho", "kappa", "lambda", "alpha")}
    try:
        hyper = Hyperparams(**sizes, rho=rates["rho"], kappa=rates["kappa"],
                            lam=rates["lambda"], alpha=rates["alpha"])
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

    def read_array(shape, what):
        nbytes = math.prod(shape) * 8
        arr = np.frombuffer(_read_exact(f, nbytes, what), dtype=np.float64).reshape(shape).copy()
        if not np.isfinite(arr).all():
            raise ModelIOError(f"non-finite values in {what}")
        return arr

    words = EmbeddingTable(hyper.m, forms, read_array((len(forms), hyper.m), "word vectors"))
    clip = hyper.dist_clip
    dist_vectors = read_array((2 * clip + 1, hyper.m_d), "distance vectors")
    distances = EmbeddingTable(hyper.m_d, range(-clip, clip + 1), dist_vectors)
    count = len(pair_keys) + 1
    W = read_array((count, hyper.m, hyper.n), "composition matrices")
    v = read_array((count, hyper.m), "score vectors")
    if f.read(1):
        raise ModelIOError("trailing bytes after model payload")
    pairs = PosPairStore(hyper.m, hyper.n, seed, W[0], v[0])
    for slot, key in enumerate(pair_keys, start=1):
        pairs.index[key] = slot
        if pairs.count == len(pairs._W):
            pairs._W = np.concatenate([pairs._W, np.zeros_like(pairs._W)])
            pairs._v = np.concatenate([pairs._v, np.zeros_like(pairs._v)])
        pairs._store(slot, W[slot], v[slot])
        pairs.count += 1
    return ParamSet(words, distances, pairs, hyper, seed, tuple(pos_vocab))
