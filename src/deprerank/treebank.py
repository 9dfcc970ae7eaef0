"""Dependency trees, CoNLL-X and k-best list I/O, and attachment-score evaluation."""

from __future__ import annotations

import functools
import math
import re
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
    if isinstance(source, str):
        return iter(source.splitlines())
    return iter(source)


def parse_conll(source: Iterable[str] | str,
                allow_multiple_roots: bool = False) -> list[DependencyTree]:
    """Parse blank-line-separated CoNLL-X blocks into dependency trees.

    Lines need at least 8 tab-separated columns (ID FORM LEMMA CPOS POS FEATS
    HEAD DEPREL); FORM is column 2, POS column 5, HEAD column 7.
    """
    trees: list[DependencyTree] = []
    tokens: list[Token] = []
    for lineno, raw in enumerate(_iter_lines(source), start=1):
        line = raw.rstrip("\n")
        if not line.strip():
            if tokens:
                trees.append(_finish_sentence(tokens, len(trees), allow_multiple_roots))
                tokens = []
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
            raise ParseError(f"token ID {index} out of order (expected {len(tokens) + 1})", lineno)
        if head == index:
            raise ParseError(f"token {index} is its own head", lineno)
        if head < 0:
            raise ParseError(f"negative HEAD {head}", lineno)
        tokens.append(_checked_token(index, cols[1], cols[4], head, cols))
    if tokens:
        trees.append(_finish_sentence(tokens, len(trees), allow_multiple_roots))
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


def _finish_sentence(tokens: list[Token], ordinal: int,
                     allow_multiple_roots: bool) -> DependencyTree:
    tree = DependencyTree(tuple(tokens))
    tree.validate(allow_multiple_roots, label=f"sentence {ordinal}")
    return tree


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

def rooted_rows(heads: np.ndarray, allow_multiple_roots: bool = False) -> np.ndarray:
    """`is_rooted_tree` of every row of a (k, n) head matrix, as a (k,) bool array.

    Acyclicity by pointer jumping: after j rounds each node points 2^j steps
    up its head chain, so after n.bit_length() rounds every node of a tree
    points at the root 0, and a node on or below a cycle never does.
    """
    k, n = heads.shape
    ok = ((heads >= 0) & (heads <= n) & (heads != np.arange(1, n + 1))).all(axis=1)
    roots = (heads == 0).sum(axis=1)
    ok &= (roots >= 1) if allow_multiple_roots else (roots == 1)
    # node u of row r is r * (n + 1) + u; each root points at itself
    base = np.arange(k)[:, None] * (n + 1)
    up = np.zeros((k, n + 1), dtype=np.int64)
    up[:, 1:] = np.where(ok[:, None], heads, 0)
    up = (up + base).ravel()
    for _ in range(n.bit_length()):
        up = up[up]
    return ok & (up.reshape(k, n + 1) == base).all(axis=1)


@functools.lru_cache(maxsize=1024)
def _canonical_heads(k: int, n: int) -> re.Pattern:
    """k HEAD lines as `write_kbest` writes them, each ending in a newline:
    n heads of 1-18 ASCII digits (so within int64), one space before each."""
    return re.compile(rf"(?:HEAD(?: [0-9]{{1,18}}){{{n}}}\n){{{k}}}")


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
        try:
            gold.with_heads(heads, allow_multiple_roots=allow_multiple_roots)
        except StructureError as e:
            raise StructureError(f"sentence {sent_idx}, candidate {rank}: {e}") from None
        rows.append(heads)
    return rows


def _read_candidates(lines: Iterator[tuple[int, str]], gold: DependencyTree, sent_idx: int,
                     k: int, lineno: int, allow_multiple_roots: bool) -> KBestList:
    """The k CAND/HEAD blocks after a SENT header on line `lineno`.

    CAND lines are checked as they are read. When all k HEAD lines are
    canonical, they are parsed in one call and validated as one matrix.
    Otherwise, or when a check fails, `_replay_heads` goes through them
    candidate by candidate, so the first error in file order is raised.
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
    heads = None
    if _canonical_heads(k, len(gold)).fullmatch(text):
        heads = np.fromstring(text.replace("HEAD", ""), dtype=np.int64, sep=" ")
        heads = heads.reshape(k, len(gold))
    if heads is None or not rooted_rows(heads, allow_multiple_roots).all():
        heads = np.array(_replay_heads(gold, head_lines, sent_idx, allow_multiple_roots),
                         dtype=np.int64)
    return KBestList.from_arrays(gold, heads, np.array(scores, dtype=np.float64))


def read_kbest(gold_source: Iterable[str] | str, cand_source: Iterable[str] | str,
               allow_multiple_roots: bool = False) -> list[KBestList]:
    """Pair gold trees with their k-best candidate head assignments.

    The candidate source is read line by line, one sentence at a time.
    """
    golds = parse_conll(gold_source, allow_multiple_roots)
    lines = ((lineno, line.rstrip("\n"))
             for lineno, line in enumerate(_iter_lines(cand_source), start=1) if line.strip())
    lists: list[KBestList] = []
    for sent_idx, gold in enumerate(golds):
        item = next(lines, None)
        if item is None:
            raise AlignmentError(
                f"candidate file ended before sentence {sent_idx} ({len(golds)} gold sentences)")
        lineno, header = item
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
        lists.append(_read_candidates(lines, gold, sent_idx, k, lineno, allow_multiple_roots))
    if next(lines, None) is not None:
        raise AlignmentError(f"candidate file has more sentences than the {len(golds)} gold ones")
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
