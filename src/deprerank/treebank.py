"""Dependency trees, CoNLL-X and k-best list I/O, and attachment-score evaluation.

A `DependencyTree` is columns: forms, POS tags and heads, and the CoNLL line
each token was read from. `_rooted` alone decides whether heads form a rooted
tree, for one tree (`is_rooted_tree`, `validate`) or for a batch of rows in
one pass; a `KBestList` checks its rows where it is made, and only there.
One rule routes every source of both readers (`_in_blocks`): a string or a
text file is taken a block of lines at a time, and what can be parsed at
once is, where that reads the same values as reading line by line; any
other source, such as a list or an iterator of lines, is read line by line,
which raises the error of the first bad line.
"""

from __future__ import annotations

import functools
import io
import itertools
import math
import re
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import AlignmentError, DataError, EncodingError, ParseError, StructureError

# POS tags treated as punctuation when scoring, keyed by config name.
PUNCT_SETS = {
    "ptb": frozenset({"``", "''", ",", ".", ":"}),
    "ctb": frozenset({"PU"}),
    "none": frozenset(),
}


def resolve_punct_set(name: str) -> frozenset[str]:
    """Turn a --punct-set value (ptb|ctb|none|comma-separated tags) into a tag set."""
    key = name.strip().lower()
    if key in PUNCT_SETS:
        return PUNCT_SETS[key]
    return frozenset(t for t in (part.strip() for part in name.split(",")) if t)


@dataclass(frozen=True)
class Token:
    """One word of a sentence. `head` is the 1-based index of its head, 0 for root."""

    index: int
    form: str
    pos: str
    head: int
    # Original CoNLL columns, kept so unrelated fields survive a round trip.
    cols: tuple[str, ...] | None = field(default=None, compare=False)


def is_rooted_tree(heads: Sequence[int], allow_multiple_roots: bool = False) -> bool:
    """True iff the 1-based head vector forms a tree hanging off the artificial
    root 0. `_rooted` decides it, as it does for every tree the library checks."""
    return len(heads) > 0 and not _unrooted(heads, [len(heads)], allow_multiple_roots)


class DependencyTree:
    """A sentence as columns: one form, POS tag and head per token, and the
    CoNLL line each token was read from (None if it was not), kept so that
    other fields survive a round trip. Equality and hashing ignore the lines."""

    __slots__ = ("_forms", "_tags", "_heads", "_lines")

    def __init__(self, forms: Sequence[str], tags: Sequence[str], heads: Sequence[int],
                 lines: Sequence[str | None]):
        """The tree over these columns and CoNLL lines, taken as given: no checks."""
        self._forms, self._tags, self._heads, self._lines = map(tuple, (forms, tags, heads, lines))

    def __len__(self) -> int:
        return len(self._heads)

    def __eq__(self, other) -> bool:
        return (isinstance(other, DependencyTree) and self._heads == other._heads
                and self._forms == other._forms and self._tags == other._tags)

    def __hash__(self) -> int:
        return hash((self._forms, self._tags, self._heads))

    def __repr__(self) -> str:
        return f"DependencyTree(forms={self._forms}, pos_tags={self._tags}, heads={self._heads})"

    @property
    def tokens(self) -> tuple[Token, ...]:
        """The tokens, built anew on each read; their columns split from their lines."""
        return tuple(Token(i, form, pos, head, None if line is None else tuple(line.split("\t")))
                     for i, (form, pos, head, line) in enumerate(
                         zip(self._forms, self._tags, self._heads, self._lines), start=1))

    @property
    def heads(self) -> list[int]:
        return list(self._heads)

    @property
    def forms(self) -> list[str]:
        return list(self._forms)

    @property
    def pos_tags(self) -> list[str]:
        return list(self._tags)

    def children(self, index: int) -> list[int]:
        """1-based indices of the tokens headed by `index` (0 = root), in sentence order."""
        return [i for i, h in enumerate(self._heads, start=1) if h == index]

    def validate(self, allow_multiple_roots: bool = False, label: str = "sentence") -> None:
        if not is_rooted_tree(self._heads, allow_multiple_roots):
            raise StructureError(f"{label}: head indices do not form a rooted tree: {self.heads}")

    def with_heads(self, heads: Sequence[int],
                   allow_multiple_roots: bool = False) -> "DependencyTree":
        """Copy of this tree with head indices replaced (forms, POS tags and
        lines shared), checked: a negative head, a self-head or heads that do
        not form a rooted tree raise `StructureError`."""
        if len(heads) != len(self._heads):
            raise AlignmentError(f"expected {len(self._heads)} heads, got {len(heads)}")
        heads = tuple(map(int, heads))
        for index, head in enumerate(heads, start=1):
            if head < 0:
                raise StructureError(f"head must be >= 0, got {head}")
            if head == index:
                raise StructureError(f"token {index} ({self._forms[index - 1]!r}) is its own head")
        tree = DependencyTree(self._forms, self._tags, heads, self._lines)
        tree.validate(allow_multiple_roots)
        return tree


class KBestList:
    """Gold tree plus base-parser candidates for one sentence, in rank order.

    The candidates share the gold tree's tokens and differ only in their
    heads, so they are held as a read-only (k, n) int64 head matrix `heads`
    and a (k,) float64 vector `scores` of base scores. `candidates` shows
    them as (tree, score) pairs; a tree is built only when its item is read.
    Each row, and the gold tree's heads, is a forest over the n >= 1 tokens:
    both constructors check it (`_check_rows`); the readers check as they
    read and build lists with `_unchecked`.
    """

    __slots__ = ("gold", "heads", "scores")

    def __init__(self, gold: DependencyTree,
                 candidates: Iterable[tuple[DependencyTree, float]] = ()):
        pairs = tuple(candidates)
        for rank, (tree, _) in enumerate(pairs, start=1):
            if tree._forms != gold._forms or tree._tags != gold._tags or len(tree) != len(gold):
                raise AlignmentError(
                    f"candidate {rank} does not have the forms and POS tags of the gold tree")
        heads = [tree.heads for tree, _ in pairs] or np.empty((0, len(gold)))
        self._set(gold, *_check_rows(gold, heads, [score for _, score in pairs]))

    @classmethod
    def from_arrays(cls, gold: DependencyTree, heads, scores) -> "KBestList":
        """A list over a (k, n) head matrix and k base scores, checked as the
        constructor checks them; int64 and float64 arrays are not copied."""
        return cls._unchecked(gold, *_check_rows(gold, heads, scores))

    @classmethod
    def _unchecked(cls, gold: DependencyTree, heads: np.ndarray,
                   scores: np.ndarray) -> "KBestList":
        """A list over given arrays, taken as they are: no copy, no checks.
        Only for rows known to be forests over the gold tree's tokens."""
        kb = cls.__new__(cls)
        kb._set(gold, heads, scores)
        return kb

    def _set(self, gold, heads, scores) -> None:
        heads.setflags(write=False)
        scores.setflags(write=False)
        self.gold, self.heads, self.scores = gold, heads, scores

    def __len__(self) -> int:
        return len(self.scores)

    @property
    def candidates(self) -> "Candidates":
        return Candidates(self)

    def truncated(self, k: int) -> "KBestList":
        """Keep only the top-ranked k candidates."""
        return KBestList._unchecked(self.gold, self.heads[:k], self.scores[:k])

    def attachment_counts(self, punct_tags: frozenset[str] | set[str] = frozenset()
                          ) -> tuple[np.ndarray, int]:
        """Per candidate, the tokens attached as in gold; and the tokens scored.

        Punctuation tokens are never counted, so `uas(tree, gold)` of candidate
        i is EvalResult(correct[i], scored).
        """
        scored = np.array([pos not in punct_tags for pos in self.gold._tags], dtype=bool)
        correct = np.add.reduce((self.heads == np.array(self.gold._heads)) & scored, axis=1)
        return correct, int(np.add.reduce(scored))


def _check_rows(gold: DependencyTree, heads, scores) -> tuple[np.ndarray, np.ndarray]:
    """`heads` and `scores` as int64 and float64 arrays, if they are a (k, n)
    head matrix over the gold tree's n >= 1 tokens and k finite scores, and
    every row and the gold heads is a forest (integer heads in [0, n], no
    cycle). Heads given as integral floats are taken as integers."""
    n, heads, scores = len(gold), np.asarray(heads), np.asarray(scores, dtype=np.float64)
    if heads.ndim != 2 or heads.shape[1] != n or scores.shape != (len(heads),):
        raise AlignmentError(f"a list of {n}-token trees needs a (k, {n}) head matrix and "
                             f"k scores, got shapes {heads.shape} and {scores.shape}")
    if not n:
        raise StructureError("a k-best list needs a sentence of at least one token")
    sentence = f"of the sentence {' '.join(gold._forms)!r}"
    finite = np.isfinite(scores)
    if not finite.all():
        rank = int(finite.argmin()) + 1
        raise AlignmentError(f"candidate {rank} {sentence}: base score {scores[rank - 1]} "
                             "is not finite")
    rows = [list(gold._heads)] + heads.tolist()
    if heads.dtype.kind not in "iub":  # floats or objects: integral values only
        for rank, row in enumerate(rows[1:], start=1):
            if not all(isinstance(h, int) or isinstance(h, float) and h.is_integer()
                       for h in row):
                raise StructureError(f"candidate {rank} {sentence}: head indices are not "
                                     f"integers: {row}")
    for row in _unrooted([h for row in rows for h in row], [n] * len(rows), True):
        if not is_rooted_tree(rows[row], True):  # a head past int64 fails every row
            name = "the gold tree" if row == 0 else f"candidate {row}"
            raise StructureError(f"{name} {sentence}: head indices do not form a forest: "
                                 f"{rows[row]}")
    return heads.astype(np.int64, copy=False), scores


class Candidates(Sequence):
    """The candidates of a `KBestList` as (tree, base score) pairs."""

    __slots__ = ("_kb",)

    def __init__(self, kb: KBestList):
        self._kb = kb

    def __len__(self) -> int:
        return len(self._kb)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self[i] for i in range(*index.indices(len(self))))
        gold = self._kb.gold  # the row is a forest: its list checked it
        return (DependencyTree(gold._forms, gold._tags, self._kb.heads[index].tolist(),
                               gold._lines), float(self._kb.scores[index]))


@dataclass(frozen=True)
class EvalResult:
    """Attachment counts; punctuation tokens are never counted."""

    correct_heads: int
    scored_tokens: int

    @property
    def uas(self) -> float:
        return self.correct_heads / self.scored_tokens if self.scored_tokens else 0.0

    def __add__(self, other: "EvalResult") -> "EvalResult":
        return EvalResult(self.correct_heads + other.correct_heads,
                          self.scored_tokens + other.scored_tokens)


# ---------------------------------------------------------------------------
# CoNLL-X

def _iter_lines(source: Iterable[str] | str) -> Iterator[str]:
    r"""The lines of a source. A string is read as a text file is, with
    universal newlines: a line ends at \n, \r\n or \r, read as \n, and not at
    the other breaks of `str.splitlines` (\x0b, \x1c, \u2028, ...). Other
    sources' lines are as given."""
    if isinstance(source, str):
        return io.StringIO(source, newline=None)
    return iter(source)


def _in_blocks(source: Iterable[str] | str) -> bool:
    """Whether the readers take `source` a block of lines at a time: only a
    string or a text file, whose lines are whole, each ending at its only
    newline (but perhaps the last), as `open` splits them by default. Any
    other source is read line by line: its items may end anywhere."""
    return isinstance(source, (str, io.TextIOBase))


# Trees are validated in batches of about this many tokens, one pass each:
# per tree costs a numpy call per check, and one pass over a whole file
# misses the cache more than it saves.
_CHECK_TOKENS = 8192

# From a string or a text file, the readers take at most this many lines at
# once beyond what they are reading: a block of sentences, or a sentence's 2k
# CAND/HEAD lines. A larger (absurd) k, or a sentence that fills a block, is
# read line by line instead, as every other source is.
_BLOCK_LINES = 65536


class _Trees:
    """The trees read so far. Their heads are checked by `_rooted` a batch
    of about `_CHECK_TOKENS` tokens at a time."""

    def __init__(self, allow_multiple_roots: bool):
        self.allow_multiple_roots = allow_multiple_roots
        self.trees: list[DependencyTree] = []
        self.heads: list[int] = []  # of the unchecked trees trees[checked:], end to end
        self.checked = 0

    def add(self, forms: Sequence[str], tags: Sequence[str], heads: Sequence[int],
            lines: Sequence[str]) -> None:
        self.trees.append(DependencyTree(forms, tags, heads, lines))
        self.heads += heads
        if len(self.heads) >= _CHECK_TOKENS:
            self.check()

    def check(self) -> None:
        """Check the unchecked trees in one pass: the first that is not a
        rooted tree raises what its `validate` raises."""
        todo = self.trees[self.checked:]
        for i in _unrooted(self.heads, [len(t) for t in todo], self.allow_multiple_roots):
            todo[i].validate(self.allow_multiple_roots, label=f"sentence {self.checked + i}")
        self.checked, self.heads = len(self.trees), []


def parse_conll(source: Iterable[str] | str,
                allow_multiple_roots: bool = False) -> list[DependencyTree]:
    """Parse blank-line-separated CoNLL-X blocks into dependency trees.

    Lines need at least 8 tab-separated columns (ID FORM LEMMA CPOS POS FEATS
    HEAD DEPREL); FORM is column 2, POS column 5, HEAD column 7. A string is
    read as a text file is (`_iter_lines`); the lines of a file or any other
    source are as given. A string or a text file is read a block at a time
    (`_parse_blocks`), any other source line by line (`_parse_lines`). Trees
    are checked a batch at a time (`_Trees`); a batch is checked before any
    error is raised, so the first error in file order is the one raised.
    """
    lines = _iter_lines(source)
    trees = _Trees(allow_multiple_roots)
    try:
        if _in_blocks(source):
            _parse_blocks(_line_blocks(lines), trees)
        else:
            _parse_lines((line.rstrip("\n") for line in lines), 1, trees)
    except DataError:
        trees.check()
        raise
    trees.check()
    return trees.trees


def _line_blocks(lines: Iterator[str]) -> Iterator[list[str]]:
    """The lines without their newlines, up to `_BLOCK_LINES` at a time."""
    while block := [line.rstrip("\n") for line in itertools.islice(lines, _BLOCK_LINES)]:
        yield block


def _parse_lines(lines: Iterable[str], lineno: int, trees: _Trees) -> None:
    """The exact path: `lines`, without their newlines, from line number
    `lineno` on, read one at a time. A tree ends at each blank line and at
    the end of `lines`; a line is checked as it is read, and the first bad
    one raises its error."""
    forms: list[str] = []  # of the tree being read
    tags: list[str] = []
    heads: list[int] = []
    texts: list[str] = []
    for lineno, line in enumerate(itertools.chain(lines, [""]), start=lineno):
        if not line.strip():
            if heads:
                trees.add(forms, tags, heads, texts)
                forms, tags, heads, texts = [], [], [], []
            continue
        cols = line.split("\t", 7)  # the columns up to HEAD, DEPREL and the rest
        if len(cols) < 8:
            raise ParseError(f"expected >= 8 tab-separated columns, got {len(cols)}", lineno)
        try:
            index = int(cols[0])
            head = int(cols[6])
        except ValueError:
            raise ParseError(f"non-integer ID or HEAD in {line!r}", lineno) from None
        if index != len(heads) + 1:
            raise ParseError(f"token ID {index} out of order (expected {len(heads) + 1})",
                             lineno)
        if head == index:
            raise ParseError(f"token {index} is its own head", lineno)
        if head < 0:
            raise ParseError(f"negative HEAD {head}", lineno)
        forms.append(cols[1])
        tags.append(cols[4])
        heads.append(head)
        texts.append(line)


def _parse_blocks(blocks: Iterator[list[str]], trees: _Trees) -> None:
    """The sentences of blocks of lines, without their newlines.

    Each block is parsed up to its last blank line (`_parse_block`), and the
    sentence that it cuts is carried over to the next; the last is parsed
    whole. A sentence that fills `_BLOCK_LINES` lines is read line by line,
    with all the lines after it.
    """
    lineno, held = 1, []  # the lines of the sentence cut by the last block
    for block in blocks:
        end = _sentences_end(block)
        if end:
            held += block[:end]
            _parse_block(held, lineno, trees)
            lineno, held = lineno + len(held), block[end:]
        else:
            held += block
        if len(held) >= _BLOCK_LINES:
            _parse_lines(itertools.chain(held, itertools.chain.from_iterable(blocks)),
                         lineno, trees)
            return
    _parse_block(held, lineno, trees)


def _sentences_end(lines: list[str]) -> int:
    """Where `lines` end after their last blank line, or 0."""
    return next((i + 1 for i in range(len(lines) - 1, -1, -1) if not lines[i].strip()), 0)


def _parse_block(lines: list[str], lineno: int, trees: _Trees) -> None:
    """The sentences of `lines`, without their newlines, from line number
    `lineno` on, each split at once where that reads what reading it line by
    line reads.

    Sentences are runs of non-empty lines. A few passes over the bytes of the
    whole block find the sentences whose lines all have the same number of
    columns, at least 8, and whose heads are 1-18 ASCII digits, none equal to
    the line's place in its sentence, and read those heads (`_digits`). Such
    a sentence is split by one `split`, which gives its IDs, forms and tags
    as strided slices; if its IDs are 1..n, it is a tree. Any other sentence
    is read by `_parse_lines`, which raises the error of the first bad line.
    The lines are a string's or a text file's (`_in_blocks`), so none holds
    a newline unless the file was opened with newline="\r"; such a block is
    read by `_parse_lines` too.
    """
    text = "\n".join(lines)
    data = np.frombuffer(text.encode("utf-8", "surrogatepass"), dtype=np.uint8)
    seps = np.flatnonzero((data == 9) | (data == 10))  # the tabs and newlines
    ends = np.flatnonzero(data[seps] == 10)  # where in `seps` each line ends, but the last
    if len(ends) != len(lines) - 1:  # a line holds a newline
        _parse_lines(lines, lineno, trees)
        return
    first = np.append(0, ends + 1)  # where in `seps` each line's first tab would be
    width = np.diff(first, append=len(seps) + 1)  # the columns of each line
    filled = np.append(0, seps[ends] + 1) < np.append(seps[ends], len(data))
    opens = filled & np.append(True, ~filled[:-1])  # the lines that begin a sentence
    begin = np.flatnonzero(opens)
    if not len(begin) or len(seps) == len(ends):  # no sentence, or no line of 8 columns
        _parse_lines(lines, lineno, trees)
        return
    which = np.cumsum(opens) - 1  # the sentence of each line, -1 before the first
    heads, ok = _digits(data, seps[np.minimum(first + 5, len(seps) - 1)] + 1,
                        seps[np.minimum(first + 6, len(seps) - 1)])
    ok &= ((width >= 8) & (width == width[begin][which])
           & (heads != np.arange(len(lines)) - begin[which] + 1))  # no self-head
    fast = np.logical_and.reduceat(ok | ~filled, begin)
    sizes = np.add.reduceat(filled, begin)
    heads = heads.tolist()
    exact = None  # the first line of the sentences to read line by line
    for a, n, w, split in zip(begin.tolist(), sizes.tolist(), width[begin].tolist(),
                              fast.tolist()):
        if split:
            sentence = lines[a:a + n]
            fields = "\t".join(sentence).split("\t")
            split = fields[::w] == _ranks(n)
        if not split:
            exact = a if exact is None else exact
            continue
        if exact is not None:
            _parse_lines(lines[exact:a], lineno + exact, trees)
            exact = None
        trees.add(fields[1::w], fields[4::w], heads[a:a + n], sentence)
    if exact is not None:
        _parse_lines(lines[exact:], lineno + exact, trees)


def _digits(data: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The numbers written in data[lo[i]:hi[i]] for each i, and whether each
    is written in 1 to 18 ASCII digits, as an int64 array and a bool array."""
    size = hi - lo
    ok = (size >= 1) & (size <= 18)
    value = np.zeros(len(lo), dtype=np.int64)
    for place in range(int(size.max(initial=0, where=ok))):
        at = np.flatnonzero(ok & (size > place))
        digit = data[lo[at] + place] - 48  # wraps below '0'
        ok[at] &= digit <= 9
        value[at] = value[at] * 10 + digit
    return value, ok


def _unrooted(heads: Sequence[int], width: list[int], allow_multiple_roots: bool) -> list[int]:
    """The rows that `_rooted` finds are not rooted trees, of rows of heads
    laid end to end, row r holding width[r] heads. Every row, if a head lies
    beyond int64: then only each row's own check can tell which it is."""
    if not width:
        return []
    try:
        ok = _rooted(np.array(heads, dtype=np.int64), np.array(width), allow_multiple_roots)
    except OverflowError:
        return list(range(len(width)))
    return np.flatnonzero(~ok).tolist()


def write_conll(trees: Iterable[DependencyTree]) -> str:
    """Render trees as CoNLL-X. A token read from CoNLL keeps its line, with
    the tree's head in its HEAD column."""
    blocks = []
    for tree in trees:
        lines = []
        for index, (form, pos, head, line) in enumerate(
                zip(tree._forms, tree._tags, tree._heads, tree._lines), start=1):
            if line is None:
                cols = [str(index), form, "_", pos, pos, "_", str(head), "_", "_", "_"]
            else:  # HEAD replaces column 7, or follows a line of fewer columns
                cols = line.split("\t", 7)
                cols[6:7] = [str(head)]
            lines.append("\t".join(cols))
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n" if blocks else ""


def read_text(path, read):
    """`read(f)` of the UTF-8 text file at `path`. A `DataError` that it
    raises gets the path in front of its message, and keeps its class and a
    `ParseError`'s `line`. A byte that is not UTF-8 raises `EncodingError`
    when the line that holds it is read, not before, so a reader that checks
    what it has read before it raises (both treebank readers) reports the
    first error in file order.

    `f` is the open file, decoded a block of bytes ahead of `read`, so a
    decode error stops `read` early; `read` is then run again with `f` a
    generator of the file's lines (`_utf8_lines`), which the treebank
    readers read line by line, as they read any source that is not a string
    or a text file. Every reader here can be run again: none changes
    anything before it returns.
    """
    try:
        try:
            with open(path, encoding="utf-8") as f:
                return read(f)
        except UnicodeDecodeError:
            pass
        with open(path, encoding="utf-8", errors="surrogateescape") as f:
            return read(_utf8_lines(f))
    except DataError as err:
        err.args = (f"{path}: {err}",)
        raise


def _utf8_lines(f: io.TextIOBase) -> Iterator[str]:
    """The lines of a text file opened with errors="surrogateescape", which
    reads a byte that is not UTF-8 as a lone surrogate, up to the first line
    that holds one: that line raises `EncodingError`."""
    for line in f:
        try:
            line.encode("utf-8", "surrogateescape").decode("utf-8")
        except UnicodeDecodeError as err:
            raise EncodingError(f"not UTF-8 text ({err.reason})") from None
        yield line


def load_conll(path, allow_multiple_roots: bool = False) -> list[DependencyTree]:
    """`parse_conll` of the UTF-8 text file at `path` (`read_text`)."""
    return read_text(path, lambda f: parse_conll(f, allow_multiple_roots))


def dump_conll(trees: Iterable[DependencyTree], path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(write_conll(trees))


# ---------------------------------------------------------------------------
# k-best candidate lists
#
# File format, one record per sentence, no blank lines required:
#   SENT <sentence-index> <k>
# followed by k blocks of
#   CAND <rank> <base_score>
#   HEAD <h1> <h2> ... <hn>
# with 0 denoting the root. Sentence order must match the gold file.

def rooted_rows(heads: Sequence[np.ndarray], allow_multiple_roots: bool = False) -> np.ndarray:
    """`is_rooted_tree` of every row of a list of (k, n) head matrices of any
    widths n >= 1, as one bool array over their rows in order."""
    width = np.repeat([h.shape[1] for h in heads], [len(h) for h in heads])
    return _rooted(np.concatenate([h.ravel() for h in heads]), width, allow_multiple_roots)


def _rooted(heads: np.ndarray, width: np.ndarray, allow_multiple_roots: bool) -> np.ndarray:
    """`is_rooted_tree` of each row of `heads`, rows laid end to end, row r
    holding width[r] heads. A self-head is a cycle of one token. Token i
    points at its head's token, or at the root len(heads), which points at
    itself; after j rounds of pointer jumping it points 2^j steps up."""
    start = np.cumsum(width) - width
    ok = ~np.logical_or.reduceat((heads < 0) | (heads > np.repeat(width, width)), start)
    roots = np.add.reduceat(heads == 0, start)
    ok &= (roots >= 1) if allow_multiple_roots else (roots == 1)
    if not ok.all():  # a pointer needs a head within its row
        heads = np.where(np.repeat(ok, width), heads, 0)
    end = len(heads)
    up = np.append(np.where(heads > 0, np.repeat(start, width) + heads - 1, end), end)
    for _ in range(int(width.max()).bit_length()):
        up = up[up]
    return ok & np.logical_and.reduceat(up[:end] == end, start)


# A block's CAND and HEAD lines as `write_kbest` writes them: single spaces,
# a finite score's digits, sign, point and exponent, heads of digits only.
_CAND_LINES = re.compile(r"(?:CAND [0-9]+ [0-9eE.+-]+\n)+")
_HEAD_LINES = re.compile(r"(?:HEAD [ 0-9]*[0-9]\n)+")


@functools.lru_cache(maxsize=256)
def _ranks(k: int) -> list[str]:
    """str(1), ..., str(k): candidate ranks, or token IDs."""
    return [str(rank) for rank in range(1, k + 1)]


def _read_block(taken: list[str], k: int, n: int) -> tuple[list[float], np.ndarray] | None:
    """Scores and (k, n) head matrix of the 2k lines after a SENT header, if
    they are whole lines in `write_kbest`'s form; else None.

    The lines are matched a block at a time, not one by one, and taken only
    where the exact path (`_read_candidates`) reads the same values from
    them: ranks 1..k written as `str(rank)`, scores that `float()` reads as
    finite numbers, and HEAD lines of single spaces and digits, all read by
    one `np.fromstring` with each HEAD as a -1 that must start each row of
    n + 1, and no head above n. A head too large for int64 reads as the int64
    maximum, so every head taken is the one `int()` reads from its line.
    """
    if len(taken) != 2 * k:
        return None
    cands, text = "".join(taken[0::2]), "".join(taken[1::2])
    if not _CAND_LINES.fullmatch(cands):
        return None
    fields = cands.split()
    if fields[1::3] != _ranks(k):
        return None
    try:
        scores = [float(score) for score in fields[2::3]]
    except ValueError:
        return None
    if not all(map(math.isfinite, scores)):
        return None
    if not _HEAD_LINES.fullmatch(text) or "  " in text or text.count("HEAD") != k:
        return None
    heads = np.fromstring(text.replace("HEAD", "-1"), dtype=np.int64, sep=" ")
    if len(heads) != k * (n + 1) or (heads[::n + 1] != -1).any() or heads.max() > n:
        return None
    return scores, heads.reshape(k, n + 1)[:, 1:].copy()


def _check_candidate(gold: DependencyTree, heads: list[int], sent_idx: int, rank: int,
                     allow_multiple_roots: bool) -> None:
    try:
        gold.with_heads(heads, allow_multiple_roots=allow_multiple_roots)
    except StructureError as e:
        raise StructureError(f"sentence {sent_idx}, candidate {rank}: {e}") from None


def _read_candidates(lines: Iterator[tuple[int, str]], gold: DependencyTree, sent_idx: int,
                     k: int, lineno: int, allow_multiple_roots: bool
                     ) -> tuple[list[float], np.ndarray, int]:
    """The k CAND/HEAD blocks after a SENT header on line `lineno`, read line
    by line: the exact path, for lines `_read_block` does not take. Each
    line is checked as it is read, a HEAD line's heads read by `int()`; the
    trees are checked in one call at the end, or before a bad line's error
    is raised, so the first error in file order is raised. Returns the
    scores, the checked head matrix and the number of the last line read.
    """
    scores: list[float] = []
    rows: list[list[int]] = []
    try:
        for rank in range(1, k + 1):
            item = next(lines, None)
            if item is None or not item[1].startswith("CAND"):
                raise ParseError(f"sentence {sent_idx}: missing CAND line for rank {rank}",
                                 item[0] if item else lineno)
            lineno, line = item
            fields = line.split()
            if len(fields) != 3 or fields[0] != "CAND":
                raise ParseError(f"expected 'CAND <rank> <score>', got {line!r}", lineno)
            try:
                score = float(fields[2])
            except ValueError:
                raise ParseError(f"bad base score {fields[2]!r}", lineno) from None
            if not math.isfinite(score):
                raise ParseError(f"non-finite base score {fields[2]!r}", lineno)
            if fields[1] != str(rank):
                raise ParseError(f"sentence {sent_idx}: expected CAND rank {rank}, "
                                 f"got {fields[1]!r}", lineno)
            item = next(lines, None)
            if item is None or not item[1].startswith("HEAD"):
                raise ParseError(f"sentence {sent_idx}: missing HEAD line for rank {rank}",
                                 item[0] if item else lineno)
            lineno, line = item
            fields = line.split()
            if fields[0] != "HEAD":
                raise ParseError(f"expected 'HEAD <h1> ... <hn>', got {line!r}", lineno)
            try:
                heads = [int(h) for h in fields[1:]]
            except ValueError:
                raise ParseError(f"non-integer head in {line!r}", lineno) from None
            if len(heads) != len(gold):
                raise AlignmentError(
                    f"sentence {sent_idx}: candidate {rank} has {len(heads)} heads, "
                    f"gold has {len(gold)} tokens")
            scores.append(score)
            rows.append(heads)
    finally:  # the rows before a bad line are checked before its error is raised
        for row in _unrooted([h for heads in rows for h in heads], [len(gold)] * len(rows),
                             allow_multiple_roots):
            _check_candidate(gold, rows[row], sent_idx, row + 1, allow_multiple_roots)
    return scores, np.array(rows, dtype=np.int64), lineno


def _check_lists(pending: list[tuple[int, KBestList]], allow_multiple_roots: bool) -> None:
    """Check the candidate trees of (sentence index, list) items in one
    pass: the first tree in file order that is not a rooted tree raises what
    the exact path raises for it."""
    if not pending:
        return
    ok = rooted_rows([kb.heads for _, kb in pending], allow_multiple_roots)
    if ok.all():
        return
    row = int(ok.argmin())
    for sent_idx, kb in pending:
        if row < len(kb):
            break
        row -= len(kb)
    _check_candidate(kb.gold, kb.heads[row].tolist(), sent_idx, row + 1, allow_multiple_roots)


def read_kbest(gold_source: Iterable[str] | str, cand_source: Iterable[str] | str,
               allow_multiple_roots: bool = False) -> list[KBestList]:
    """Pair gold trees with their k-best candidate head assignments.

    The candidate source is read one sentence at a time. When the source is
    a string or a text file (`_in_blocks`), a sentence's 2k CAND/HEAD lines
    (at most `_BLOCK_LINES`) are taken at once and parsed as one block if
    they are in `write_kbest`'s form (`_read_block`); otherwise, and for any
    other source, they are read line by line (`_read_candidates`), which
    checks the list's trees itself. The trees of block-read lists are
    checked a batch at a time (`_check_lists`), and a batch is checked before
    any error is raised, so the first error in file order is the one raised.
    """
    return _pair_kbest(parse_conll(gold_source, allow_multiple_roots), cand_source,
                       allow_multiple_roots)


def _pair_kbest(golds: list[DependencyTree], cand_source: Iterable[str] | str,
                allow_multiple_roots: bool) -> list[KBestList]:
    """`read_kbest` of gold trees already parsed."""
    raw = _iter_lines(cand_source)
    block_lines = _BLOCK_LINES if _in_blocks(cand_source) else 0
    lists: list[KBestList] = []
    pending: list[tuple[int, KBestList]] = []
    lineno = pending_tokens = 0
    try:
        for sent_idx, gold in enumerate(golds):
            for header in raw:
                lineno += 1
                if header.strip():
                    break
            else:
                raise AlignmentError(f"candidate file ended before sentence {sent_idx} "
                                     f"({len(golds)} gold sentences)")
            header = header.rstrip("\n")
            parts = header.split()
            if len(parts) != 3 or parts[0] != "SENT":
                raise ParseError(f"expected 'SENT <index> <k>', got {header!r}", lineno)
            try:
                file_idx, k = int(parts[1]), int(parts[2])
            except ValueError:
                raise ParseError(f"non-integer SENT fields in {header!r}", lineno) from None
            if file_idx != sent_idx:
                raise AlignmentError(f"sentence {sent_idx}: SENT header carries index {file_idx}")
            if k < 1:
                raise ParseError(f"sentence {sent_idx}: k must be >= 1, got {k}", lineno)
            taken = list(itertools.islice(raw, 2 * k)) if 2 * k <= block_lines else []
            block = _read_block(taken, k, len(gold)) if taken else None
            if block:
                scores, heads = block
                lineno += 2 * k
            else:  # the exact path, from the first taken line on
                lines = ((number, line.rstrip("\n"))
                         for number, line in enumerate(itertools.chain(taken, raw), lineno + 1)
                         if line.strip())
                scores, heads, lineno = _read_candidates(lines, gold, sent_idx, k, lineno,
                                                         allow_multiple_roots)
            kb = KBestList._unchecked(gold, heads, np.array(scores, dtype=np.float64))
            lists.append(kb)
            if block:  # else `_read_candidates` has checked its trees
                pending.append((sent_idx, kb))
                pending_tokens += heads.size
                if pending_tokens >= _CHECK_TOKENS:
                    _check_lists(pending, allow_multiple_roots)
                    pending, pending_tokens = [], 0
        if any(line.strip() for line in raw):
            raise AlignmentError(
                f"candidate file has more sentences than the {len(golds)} gold ones")
    except DataError:
        _check_lists(pending, allow_multiple_roots)
        raise
    _check_lists(pending, allow_multiple_roots)
    return lists


def write_kbest(kbests: Iterable[KBestList]) -> str:
    """Render k-best lists in the format read_kbest expects."""
    out = []
    for idx, kb in enumerate(kbests):
        out.append(f"SENT {idx} {len(kb)}")
        for rank, (heads, score) in enumerate(zip(kb.heads.tolist(), kb.scores.tolist()),
                                              start=1):
            out.append(f"CAND {rank} {score!r}")
            out.append("HEAD " + " ".join(map(str, heads)))
    return "\n".join(out) + "\n" if out else ""


def read_kbest_files(gold_path, cand_path, allow_multiple_roots: bool = False) -> list[KBestList]:
    golds = load_conll(gold_path, allow_multiple_roots)
    return read_text(cand_path, lambda c: _pair_kbest(golds, c, allow_multiple_roots))


# ---------------------------------------------------------------------------
# evaluation

def uas(pred: DependencyTree, gold: DependencyTree,
        punct_tags: frozenset[str] | set[str] = frozenset()) -> EvalResult:
    """Unlabeled attachment score of `pred` against `gold`, skipping punctuation POS."""
    if len(pred) != len(gold) or pred._forms != gold._forms:
        raise AlignmentError("predicted and gold sentences do not match")
    right = [p == g for p, g, pos in zip(pred._heads, gold._heads, gold._tags)
             if pos not in punct_tags]
    return EvalResult(sum(right), len(right))


def corpus_uas(pred_trees: Sequence[DependencyTree], gold_trees: Sequence[DependencyTree],
               punct_tags: frozenset[str] | set[str] = frozenset()) -> EvalResult:
    if len(pred_trees) != len(gold_trees):
        raise AlignmentError(
            f"{len(pred_trees)} predicted sentences vs {len(gold_trees)} gold")
    return sum((uas(p, g, punct_tags) for p, g in zip(pred_trees, gold_trees)), EvalResult(0, 0))


def corpus_oracle(kbests: Sequence[KBestList], punct_tags: frozenset[str] | set[str] = frozenset(),
                  worst: bool = False) -> EvalResult:
    """The most (with worst, the fewest) correct heads of any candidate of
    each list, summed over the lists (not averaged UAS)."""
    total = EvalResult(0, 0)
    for kb in kbests:
        if not len(kb):
            raise ValueError("oracle over an empty candidate list")
        correct, scored = kb.attachment_counts(punct_tags)
        total = total + EvalResult(int(correct.min() if worst else correct.max()), scored)
    return total
