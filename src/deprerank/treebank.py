"""Dependency trees, CoNLL-X and k-best list I/O, and attachment-score evaluation."""

from __future__ import annotations

import functools
import io
import itertools
import math
import re
import sys
from collections import deque
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import AlignmentError, DataError, ParseError, StructureError

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

    def __post_init__(self):
        if self.index < 1:
            raise StructureError(f"token index must be >= 1, got {self.index}")
        if self.head < 0:
            raise StructureError(f"head must be >= 0, got {self.head}")
        if self.head == self.index:
            raise StructureError(f"token {self.index} ({self.form!r}) is its own head")


def is_rooted_tree(heads: Sequence[int], allow_multiple_roots: bool = False) -> bool:
    """True iff the 1-based head vector forms a tree hanging off the artificial root 0."""
    n = len(heads)
    if any(h < 0 or h > n for h in heads):
        return False
    if any(h == i + 1 for i, h in enumerate(heads)):
        return False
    roots = sum(1 for h in heads if h == 0)
    if roots == 0 or (roots > 1 and not allow_multiple_roots):
        return False
    children: list[list[int]] = [[] for _ in range(n + 1)]
    for i, h in enumerate(heads):
        children[h].append(i + 1)
    seen = 0
    queue = deque([0])
    while queue:
        node = queue.popleft()
        for child in children[node]:
            seen += 1
            queue.append(child)
    return seen == n


@dataclass(frozen=True)
class DependencyTree:
    """A sentence with one head index per token."""

    tokens: tuple[Token, ...]

    def __len__(self) -> int:
        return len(self.tokens)

    @property
    def heads(self) -> list[int]:
        return [t.head for t in self.tokens]

    @property
    def forms(self) -> list[str]:
        return [t.form for t in self.tokens]

    @property
    def pos_tags(self) -> list[str]:
        return [t.pos for t in self.tokens]

    def children(self, index: int) -> list[int]:
        """1-based indices of the tokens headed by `index` (0 = root), in sentence order."""
        return [t.index for t in self.tokens if t.head == index]

    def validate(self, allow_multiple_roots: bool = False, label: str = "sentence") -> None:
        if not is_rooted_tree(self.heads, allow_multiple_roots):
            raise StructureError(f"{label}: head indices do not form a rooted tree: {self.heads}")

    def with_heads(self, heads: Sequence[int], validate: bool = True,
                   allow_multiple_roots: bool = False) -> "DependencyTree":
        """Copy of this tree with head indices replaced (forms/POS/extra columns kept)."""
        if len(heads) != len(self.tokens):
            raise AlignmentError(
                f"expected {len(self.tokens)} heads, got {len(heads)}")
        tree = DependencyTree(tuple(
            Token(t.index, t.form, t.pos, int(h), t.cols)
            for t, h in zip(self.tokens, heads)))
        if validate:
            tree.validate(allow_multiple_roots)
        return tree


class KBestList:
    """Gold tree plus base-parser candidates for one sentence, in rank order.

    The candidates share the gold tree's tokens and differ only in their
    heads, so they are held as a read-only (k, n) int64 head matrix `heads`
    and a (k,) float64 vector `scores` of base scores. `candidates` shows
    them as (tree, score) pairs; a tree is built only when its item is read.
    """

    __slots__ = ("gold", "heads", "scores")

    def __init__(self, gold: DependencyTree,
                 candidates: Iterable[tuple[DependencyTree, float]] = ()):
        pairs = tuple(candidates)
        for rank, (tree, _) in enumerate(pairs, start=1):
            if tree.forms != gold.forms or tree.pos_tags != gold.pos_tags:
                raise AlignmentError(
                    f"candidate {rank} does not have the forms and POS tags of the gold tree")
        heads = np.array([tree.heads for tree, _ in pairs], dtype=np.int64)
        self._set(gold, heads.reshape(len(pairs), len(gold)),
                  np.array([score for _, score in pairs], dtype=np.float64))

    @classmethod
    def from_arrays(cls, gold: DependencyTree, heads: np.ndarray,
                    scores: np.ndarray) -> "KBestList":
        """A list over given arrays, taken as they are: no copy, no checks."""
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
        return KBestList.from_arrays(self.gold, self.heads[:k], self.scores[:k])

    def attachment_counts(self, punct_tags: frozenset[str] | set[str] = frozenset()
                          ) -> tuple[np.ndarray, int]:
        """Per candidate, the tokens attached as in gold; and the tokens scored.

        Punctuation tokens are never counted, so `uas(tree, gold)` of candidate
        i is EvalResult(correct[i], scored).
        """
        scored = np.array([t.pos not in punct_tags for t in self.gold.tokens], dtype=bool)
        correct = ((self.heads == np.array(self.gold.heads)) & scored).sum(axis=1)
        return correct, int(scored.sum())


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
        kb = self._kb
        return (kb.gold.with_heads(kb.heads[index].tolist(), validate=False),
                float(kb.scores[index]))


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
    """The lines of a source. A string is split at its line boundaries, and
    each of its lines ends in one newline; other sources' lines are as given."""
    if isinstance(source, str):
        return (line + "\n" for line in source.splitlines())
    return iter(source)


# Trees are validated in batches of about this many tokens, one pass each:
# per tree costs a numpy call per check, and one pass over a whole k-best
# file misses the cache more than it saves.
_CHECK_TOKENS = 8192


def parse_conll(source: Iterable[str] | str,
                allow_multiple_roots: bool = False) -> list[DependencyTree]:
    """Parse blank-line-separated CoNLL-X blocks into dependency trees.

    Lines need at least 8 tab-separated columns (ID FORM LEMMA CPOS POS FEATS
    HEAD DEPREL); FORM is column 2, POS column 5, HEAD column 7. Lines are
    checked as they are read, trees a batch at a time (`_check_trees`); a
    batch is checked before any error is raised, so the first error in file
    order is the one raised.
    """
    trees: list[DependencyTree] = []
    tokens: list[Token] = []
    heads: list[int] = []  # of the unchecked trees trees[checked:], then of `tokens`
    checked = 0
    try:
        for lineno, raw in enumerate(_iter_lines(source), start=1):
            line = raw.rstrip("\n")
            if not line.strip():
                if tokens:
                    trees.append(DependencyTree(tuple(tokens)))
                    tokens = []
                    if len(heads) >= _CHECK_TOKENS:
                        _check_trees(trees, checked, heads, allow_multiple_roots)
                        checked, heads = len(trees), []
                continue
            cols = tuple(line.split("\t"))
            if len(cols) < 8:
                raise ParseError(f"expected >= 8 tab-separated columns, got {len(cols)}", lineno)
            try:
                index = int(cols[0])
                head = int(cols[6])
            except ValueError:
                raise ParseError(f"non-integer ID or HEAD in {line!r}", lineno) from None
            if index != len(tokens) + 1:
                raise ParseError(f"token ID {index} out of order (expected {len(tokens) + 1})",
                                 lineno)
            if head == index:
                raise ParseError(f"token {index} is its own head", lineno)
            if head < 0:
                raise ParseError(f"negative HEAD {head}", lineno)
            heads.append(head)
            tokens.append(_checked_token(index, cols[1], cols[4], head, cols))
        if tokens:
            trees.append(DependencyTree(tuple(tokens)))
            tokens = []
    except DataError:
        _check_trees(trees, checked, heads[:len(heads) - len(tokens)], allow_multiple_roots)
        raise
    _check_trees(trees, checked, heads, allow_multiple_roots)
    return trees


def _checked_token(index: int, form: str, pos: str, head: int, cols: tuple[str, ...]) -> Token:
    """A `Token` whose index and head the caller has already checked, built
    without running `Token.__post_init__`'s checks a second time. Fields are
    set one by one in `__init__`'s order: filling `__dict__` at once would
    give each token its own key table, about twice the memory."""
    tok = object.__new__(Token)
    put = object.__setattr__  # Token is frozen
    put(tok, "index", index)
    put(tok, "form", form)
    put(tok, "pos", pos)
    put(tok, "head", head)
    put(tok, "cols", cols)
    return tok


def _check_trees(trees: list[DependencyTree], start: int, heads: list[int],
                 allow_multiple_roots: bool) -> None:
    """Check trees[start:], whose heads `heads` holds end to end, in one pass:
    the first that is not a rooted tree raises what its `validate` raises."""
    todo = trees[start:]
    if not todo:
        return
    try:
        ok = _rooted(np.array(heads, dtype=np.int64), np.array([len(t) for t in todo]),
                     allow_multiple_roots)
    except OverflowError:  # a head beyond int64: only `validate` can name it
        ok = np.zeros(len(todo), dtype=bool)
    for i in np.flatnonzero(~ok).tolist():
        todo[i].validate(allow_multiple_roots, label=f"sentence {start + i}")


def write_conll(trees: Iterable[DependencyTree]) -> str:
    """Render trees as CoNLL-X. Tokens parsed from a file keep their extra columns."""
    blocks = []
    for tree in trees:
        lines = []
        for t in tree.tokens:
            if t.cols is not None:
                cols = t.cols[:6] + (str(t.head),) + t.cols[7:]
            else:
                cols = (str(t.index), t.form, "_", t.pos, t.pos, "_", str(t.head), "_", "_", "_")
            lines.append("\t".join(cols))
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n" if blocks else ""


def load_conll(path, allow_multiple_roots: bool = False) -> list[DependencyTree]:
    with open(path, encoding="utf-8") as f:
        return parse_conll(f, allow_multiple_roots)


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
    holding width[r] heads. A self-head is a cycle of one token."""
    start = np.cumsum(width) - width
    ok = ~np.logical_or.reduceat((heads < 0) | (heads > np.repeat(width, width)), start)
    roots = np.add.reduceat(heads == 0, start)
    ok &= (roots >= 1) if allow_multiple_roots else (roots == 1)
    if not ok.all():  # head_chains needs every head within its row
        heads = np.where(np.repeat(ok, width), heads, 0)
    up, _ = head_chains(heads, width)
    return ok & np.logical_and.reduceat(up == len(heads), start)


def head_chains(heads: np.ndarray, width: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where every token's head chain leads, by pointer jumping.

    `heads` holds rows of 1-based heads (0 = root) laid end to end, row r
    holding width[r] heads, each within [0, width[r]]. Token i points at its
    head's token, or at len(heads), which stands for the root and points at
    itself. After j rounds each token points 2^j steps up its chain, so after
    max(width).bit_length() rounds a token whose chain reaches the root
    points at len(heads), and a token on or below a cycle at a token on it.
    Returns these pointers and, per token, the position of its row's first token.
    """
    first = np.repeat(np.cumsum(width) - width, width)
    end = len(heads)
    up = np.append(np.where(heads > 0, first + heads - 1, end), end)
    for _ in range(int(width.max()).bit_length()):
        up = up[up]
    return up[:end], first


# A block's CAND and HEAD lines as `write_kbest` writes them: single spaces,
# a finite score's digits, sign, point and exponent, heads of digits only.
_CAND_LINES = re.compile(r"(?:CAND [0-9]+ [0-9eE.+-]+\n)+")
_HEAD_LINES = re.compile(r"(?:HEAD [ 0-9]*[0-9]\n)+")


@functools.lru_cache(maxsize=64)
def _ranks(k: int) -> list[str]:
    return [str(rank) for rank in range(1, k + 1)]


def _canonical_heads(text: str, k: int, n: int) -> np.ndarray | None:
    """The (k, n) head matrix of k HEAD lines in `write_kbest`'s form, each
    ending in a newline, read by one `np.fromstring`; else None.

    Each line's HEAD is read as a -1, which must start each row of n + 1. A
    head too large for int64 is read as the int64 maximum, which fails the
    tree check; its error is then read from the line (`_check_lists`).
    """
    if not _HEAD_LINES.fullmatch(text) or "  " in text or text.count("HEAD") != k:
        return None
    heads = np.fromstring(text.replace("HEAD", "-1"), dtype=np.int64, sep=" ")
    if len(heads) != k * (n + 1) or (heads[::n + 1] != -1).any():
        return None
    return heads.reshape(k, n + 1)[:, 1:].copy()


def _read_block(taken: list[str], k: int, n: int
                ) -> tuple[list[float], np.ndarray, str] | None:
    """Scores, (k, n) head matrix and HEAD lines of the 2k lines after a SENT
    header, if they are whole lines in `write_kbest`'s form; else None.

    The lines are matched a block at a time, not one by one, and taken only
    where the exact path (`_read_candidates`) reads the same values from
    them: ranks 1..k written as `str(rank)`, scores that `float()` reads as
    finite numbers, and canonical HEAD lines (`_canonical_heads`).
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
    heads = _canonical_heads(text, k, n)
    return None if heads is None else (scores, heads, text)


def _check_candidate(gold: DependencyTree, heads: list[int], sent_idx: int, rank: int,
                     allow_multiple_roots: bool) -> None:
    try:
        gold.with_heads(heads, allow_multiple_roots=allow_multiple_roots)
    except StructureError as e:
        raise StructureError(f"sentence {sent_idx}, candidate {rank}: {e}") from None


def _replay_heads(gold: DependencyTree, head_lines: list[tuple[int, str]], sent_idx: int,
                  allow_multiple_roots: bool) -> list[list[int]]:
    """Parse and validate HEAD lines one candidate at a time, token by token.

    The exact path: it raises the error of the first bad line or tree,
    naming its line or candidate, and returns the head rows if there is none.
    """
    rows = []
    for rank, (lineno, line) in enumerate(head_lines, start=1):
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
        _check_candidate(gold, heads, sent_idx, rank, allow_multiple_roots)
        rows.append(heads)
    return rows


def _read_candidates(lines: Iterator[tuple[int, str]], gold: DependencyTree, sent_idx: int,
                     k: int, lineno: int, allow_multiple_roots: bool
                     ) -> tuple[list[float], np.ndarray, str, int]:
    """The k CAND/HEAD blocks after a SENT header on line `lineno`, read line
    by line: the exact path, for lines `_read_block` does not take.

    CAND lines are checked as they are read. When all k HEAD lines are
    canonical, they are parsed in one call, and their trees are left to the
    caller to check. Otherwise, or when a check fails, `_replay_heads` goes
    through them candidate by candidate, so the first error in file order is
    raised. Returns the scores, the head matrix, the HEAD lines and the
    number of the last line read.
    """
    head_lines: list[tuple[int, str]] = []
    scores: list[float] = []
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
            lineno = item[0]
            head_lines.append(item)
            scores.append(score)
    except DataError:
        _replay_heads(gold, head_lines, sent_idx, allow_multiple_roots)
        raise
    text = "".join(line + "\n" for _, line in head_lines)
    heads = _canonical_heads(text, k, len(gold))
    if heads is None:
        heads = np.array(_replay_heads(gold, head_lines, sent_idx, allow_multiple_roots),
                         dtype=np.int64)
    return scores, heads, text, lineno


def _check_lists(pending: list[tuple[int, KBestList, str]], allow_multiple_roots: bool) -> None:
    """Check the candidate trees of (sentence index, list, HEAD lines) items
    in one pass: the first tree in file order that is not a rooted tree
    raises what the exact path raises for it, read from its line."""
    if not pending:
        return
    ok = rooted_rows([kb.heads for _, kb, _ in pending], allow_multiple_roots)
    if ok.all():
        return
    row = int(ok.argmin())
    for sent_idx, kb, text in pending:
        if row < len(kb):
            break
        row -= len(kb)
    heads = [int(h) for h in text.split("\n")[row].split()[1:]]
    _check_candidate(kb.gold, heads, sent_idx, row + 1, allow_multiple_roots)


def read_kbest(gold_source: Iterable[str] | str, cand_source: Iterable[str] | str,
               allow_multiple_roots: bool = False) -> list[KBestList]:
    """Pair gold trees with their k-best candidate head assignments.

    The candidate source is read one sentence at a time. When the source is
    a string or a text file, a sentence's 2k CAND/HEAD lines are taken at
    once and parsed as one block if they are in `write_kbest`'s form
    (`_read_block`); otherwise they are read line by line (`_read_candidates`).
    Candidate trees are checked a batch at a time (`_check_lists`), and a
    batch is checked before any error is raised, so the first error in file
    order is the one raised.
    """
    golds = parse_conll(gold_source, allow_multiple_roots)
    raw = _iter_lines(cand_source)
    # Lines of a string or a text file are whole: each ends in its only
    # newline, but for perhaps the file's last. Other sources' may not be.
    whole = isinstance(cand_source, (str, io.TextIOBase))
    lists: list[KBestList] = []
    pending: list[tuple[int, KBestList, str]] = []
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
            taken = list(itertools.islice(raw, min(2 * k, sys.maxsize)))
            block = _read_block(taken, k, len(gold)) if whole else None
            if block:
                scores, heads, text = block
                lineno += 2 * k
            else:  # the exact path, from the first taken line on
                lines = ((number, line.rstrip("\n"))
                         for number, line in enumerate(itertools.chain(taken, raw), lineno + 1)
                         if line.strip())
                scores, heads, text, lineno = _read_candidates(lines, gold, sent_idx, k, lineno,
                                                               allow_multiple_roots)
            kb = KBestList.from_arrays(gold, heads, np.array(scores, dtype=np.float64))
            lists.append(kb)
            pending.append((sent_idx, kb, text))
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
    with open(gold_path, encoding="utf-8") as g, open(cand_path, encoding="utf-8") as c:
        return read_kbest(g, c, allow_multiple_roots)


# ---------------------------------------------------------------------------
# evaluation

def uas(pred: DependencyTree, gold: DependencyTree,
        punct_tags: frozenset[str] | set[str] = frozenset()) -> EvalResult:
    """Unlabeled attachment score of `pred` against `gold`, skipping punctuation POS."""
    if len(pred) != len(gold) or pred.forms != gold.forms:
        raise AlignmentError("predicted and gold sentences do not match")
    correct = scored = 0
    for p, g in zip(pred.tokens, gold.tokens):
        if g.pos in punct_tags:
            continue
        scored += 1
        if p.head == g.head:
            correct += 1
    return EvalResult(correct, scored)


def corpus_uas(pred_trees: Sequence[DependencyTree], gold_trees: Sequence[DependencyTree],
               punct_tags: frozenset[str] | set[str] = frozenset()) -> EvalResult:
    if len(pred_trees) != len(gold_trees):
        raise AlignmentError(
            f"{len(pred_trees)} predicted sentences vs {len(gold_trees)} gold")
    total = EvalResult(0, 0)
    for pred, gold in zip(pred_trees, gold_trees):
        total = total + uas(pred, gold, punct_tags)
    return total


def oracle_best(kb: KBestList,
                punct_tags: frozenset[str] | set[str] = frozenset()) -> tuple[int, EvalResult]:
    """Candidate with the highest per-sentence UAS (ties: lowest index)."""
    return _oracle(kb, punct_tags, worst=False)


def oracle_worst(kb: KBestList,
                 punct_tags: frozenset[str] | set[str] = frozenset()) -> tuple[int, EvalResult]:
    """Candidate with the lowest per-sentence UAS (ties: lowest index)."""
    return _oracle(kb, punct_tags, worst=True)


def _oracle(kb: KBestList, punct_tags, worst: bool) -> tuple[int, EvalResult]:
    if not len(kb):
        raise ValueError("oracle over an empty candidate list")
    correct, scored = kb.attachment_counts(punct_tags)
    idx = int(correct.argmin() if worst else correct.argmax())
    return idx, EvalResult(int(correct[idx]), scored)


def corpus_oracle(kbests: Sequence[KBestList], punct_tags: frozenset[str] | set[str] = frozenset(),
                  worst: bool = False) -> EvalResult:
    """Oracle selection per sentence, aggregated as summed counts (not averaged UAS)."""
    total = EvalResult(0, 0)
    for kb in kbests:
        _, res = _oracle(kb, punct_tags, worst)
        total = total + res
    return total
