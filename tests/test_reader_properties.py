"""Property tests of the readers and the tree checks: any input parses or
raises a DataError, the readers agree with per-tree reference readers, the
tree check agrees with a breadth-first walk, and a k-best list's constructors
accept exactly the lists whose rows are forests."""

import io
import math
import os
import re
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from deprerank import synth, treebank
from deprerank.errors import AlignmentError, DataError, StructureError
from deprerank.params import load
from deprerank.treebank import (
    DependencyTree, KBestList, is_rooted_tree, load_conll, parse_conll, read_kbest, rooted_rows,
    write_conll, write_kbest,
)

from helpers import (
    TAGS, assert_same_plan, from_arrays, make_tree, model_bytes, model_parts, one_list_plan,
    reference_list_plan, reference_parse_conll, reference_read_kbest, reference_write_conll,
    rooted_by_bfs, text_lines, tiny_params, with_any_heads,
)

FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

GOLD = make_tree([3, 3, 0]), make_tree([0, 1])
GOLD_TEXT = write_conll(GOLD)

# pieces of well-formed lines, so that fuzzed input gets past the first checks
WORDS = ("SENT", "CAND", "HEAD", "CANDIDATE", "HEADS", "0", "1", "2", "3", "4", "-1",
         "01", "+2", "x", "1.5", "-0.5", "nan", "inf", "1e999", "9" * 25, "_", "NN")
kbest_text = st.lists(
    st.lists(st.sampled_from(WORDS), max_size=6).map(" ".join), max_size=14).map("\n".join)
conll_text = st.lists(
    st.lists(st.sampled_from(("1", "2", "3", "0", "-1", "a", "NN", "_", "x", "")),
             max_size=10).map("\t".join), max_size=8).map("\n".join)


@FUZZ
@given(st.one_of(st.text(max_size=120), conll_text))
def test_parse_conll_parses_or_raises_a_data_error(text):
    try:
        parse_conll(text)
    except DataError:
        pass


@FUZZ
@given(st.one_of(st.text(max_size=120), kbest_text))
def test_read_kbest_parses_or_raises_a_data_error(text):
    for source in (text, io.StringIO(text)):
        try:
            read_kbest(GOLD_TEXT, source)
        except DataError:
            pass


@st.composite
def rooted_heads(draw, n, multi):
    """A head vector that forms a tree: with one token on HEAD 0, or with
    multi, perhaps several."""
    order = draw(st.permutations(range(1, n + 1)))
    heads = [0] * n
    for i, node in enumerate(order[1:], start=1):
        heads[node - 1] = draw(st.sampled_from(([0] if multi else []) + list(order[:i])))
    return heads


BEYOND_INT64 = (2 ** 63, 10 ** 30, -(2 ** 63) - 1)


@st.composite
def head_vectors(draw):
    """Head vectors of 0 to 7 tokens that may not form a tree: heads above
    n (sometimes one beyond int64), self-heads, cycles, several roots."""
    n = draw(st.integers(0, 7))
    heads = draw(st.one_of(rooted_heads(n, False), rooted_heads(n, True),
                           st.lists(st.integers(-1, n + 2), min_size=n, max_size=n)))
    if n and not draw(st.integers(0, 4)):
        heads[draw(st.integers(0, n - 1))] = draw(st.sampled_from(BEYOND_INT64))
    return heads


@FUZZ
@given(head_vectors())
@example([])
@example([2, 0, 10 ** 30])
@example([0, 1, 0])
@example([0, 2])
@example([2, 1])
def test_the_tree_check_matches_the_bfs(heads):
    rooted = rooted_by_bfs(heads)
    assert is_rooted_tree(heads) == rooted
    if heads and all(abs(h) < 2 ** 62 for h in heads):
        assert rooted_rows([np.array([heads])]).tolist() == [rooted]
    n = len(heads)
    tree = DependencyTree(["w"] * n, ["NN"] * n, heads, [None] * n)
    if rooted:
        tree.validate()
        return
    with pytest.raises(StructureError) as err:
        tree.validate(label="sentence 3")
    assert str(err.value) == f"sentence 3: head indices do not form a rooted tree: {heads}"


@st.composite
def kbest_files(draw):
    """(gold text, candidate lines, the end of the last line, valid) of a
    k-best file, whose trees have one token on HEAD 0 or, in some files,
    several.

    Lines are usually as `write_kbest` writes them. Sometimes a CAND or HEAD
    line is spaced with runs of one to three spaces (which the block parse
    takes in a HEAD line), tabs or a trailing blank, a head has leading
    zeros, a score is written as 1_0, 1e5 or -0.0, a blank line falls inside
    a block, or the file ends without a newline: the format allows all of
    these, and the reader must read them as the line-by-line path does. A
    CAND rank with a leading zero, which the format rejects, makes the file
    not valid.
    """
    multi = draw(st.booleans())
    golds, lines = [], []
    valid = True

    def spaced(fields):
        how = draw(st.integers(0, 5))
        if how > 1:
            return " ".join(fields)
        if how:
            runs = st.sampled_from((" ", "  ", "   "))
            return "".join(field + draw(runs) for field in fields[:-1]) + fields[-1]
        sep = draw(st.sampled_from(("  ", "\t", " \t ")))
        return sep.join(fields) + draw(st.sampled_from(("", " ", "\t")))

    for idx in range(draw(st.integers(1, 3))):
        n = draw(st.integers(1, 7))
        gold = make_tree(draw(rooted_heads(n, multi)))
        golds.append(gold)
        k = draw(st.integers(1, 4))
        lines.append(f"SENT {idx} {k}")
        for rank in range(1, k + 1):
            score = repr(draw(st.floats(allow_nan=False, allow_infinity=False)))
            if not draw(st.integers(0, 5)):
                score = draw(st.sampled_from(("1_0", "1e5", "-0.0")))
            written = str(rank)
            if not draw(st.integers(0, 15)):
                written, valid = "0" + written, False
            lines.append(spaced(["CAND", written, score]))
            heads = [str(h) for h in draw(rooted_heads(n, multi))]
            if not draw(st.integers(0, 3)):
                heads = [draw(st.sampled_from(("", "0", "00"))) + h for h in heads]
            lines.append(spaced(["HEAD", *heads]))
            if not draw(st.integers(0, 7)):
                lines.append(draw(st.sampled_from(("", " ", "\t"))))
    end = draw(st.sampled_from(("\n", "\n", "")))
    return write_conll(golds), lines, end, valid


def _outcome(reader, gold_text, cand_text):
    """('ok', heads, score bits) per list, or ('error', class, message, line)."""
    try:
        lists = reader(gold_text, cand_text)
    except DataError as e:
        return ("error", type(e), str(e), getattr(e, "line", None))
    if reader is read_kbest:
        return ("ok", [(kb.heads.tolist(), [s.hex() for s in kb.scores.tolist()])
                       for kb in lists])
    return ("ok", [([t.heads for t, _ in cands], [s.hex() for _, s in cands])
                   for _, cands in lists])


def _read(gold_text, text, batch):
    """`read_kbest`'s outcome, checking trees `batch` tokens at a time, on the
    text as a string, as a file, and as a list and an iterator of its lines
    (which are read line by line); all must agree."""
    lines = text_lines(text)
    with mock.patch.object(treebank, "_CHECK_TOKENS", batch):
        outcome = _outcome(read_kbest, gold_text, text)
        for source in (io.StringIO(text), lines, iter(lines)):
            assert _outcome(read_kbest, gold_text, source) == outcome
    return outcome


BATCHES = st.sampled_from((1, 7, 8192))


@FUZZ
@given(kbest_files(), BATCHES)
def test_read_kbest_matches_the_per_candidate_reader(files, batch):
    gold_text, lines, end, valid = files
    text = "\n".join(lines) + end
    new = _read(gold_text, text, batch)
    assert new[0] == ("ok" if valid else "error")
    assert new == _outcome(reference_read_kbest, gold_text, text)


def _mutate(lines, data, after=0):
    """Change one head value or head count, or make one base score bad, on a
    line at or after index `after`; returns the lines and the changed index."""
    how = data.draw(st.sampled_from(("value", "value", "value", "drop", "add", "score")))
    prefix = "CAND" if how == "score" else "HEAD"
    at = data.draw(st.sampled_from([i for i, line in enumerate(lines)
                                    if i >= after and line.startswith(prefix)] or [None]))
    if at is None:
        return lines, after
    fields = lines[at].split()
    n = len(fields) - 1
    if how == "score":
        fields[2] = data.draw(st.sampled_from(("nan", "-inf", "1e999", "x")))
    elif how == "value" and n:
        # the root or another token as head can add a root or close a cycle
        fields[data.draw(st.integers(1, n))] = str(data.draw(
            st.one_of(st.integers(0, n), st.integers(-2, n + 2))))
    elif how == "drop" and n:
        del fields[data.draw(st.integers(1, n))]
    else:
        fields.insert(data.draw(st.integers(1, n + 1)), str(data.draw(st.integers(0, n))))
    return lines[:at] + [" ".join(fields)] + lines[at + 1:], at


@settings(FUZZ, max_examples=400)
@given(kbest_files(), BATCHES, st.data())
def test_read_kbest_fails_like_the_per_candidate_reader(files, batch, data):
    """One mutation, or two where the second comes later in the file: then
    the error reported must be the first in file order, as the
    per-candidate reader reports it."""
    gold_text, lines, end, _ = files
    lines, at = _mutate(lines, data)
    if data.draw(st.booleans()):
        lines, _ = _mutate(lines, data, after=at + 1)
    text = "\n".join(lines) + end
    assert _read(gold_text, text, batch) == _outcome(reference_read_kbest, gold_text, text)


# lines the parser rejects as it reads them
BAD_CONLL_LINES = ("x\tw\t_\tNN\tNN\t_\t0\t_", "1\tw\t_\tNN", "9\tw\t_\tNN\tNN\t_\t0\t_",
                   "1\tw\t_\tNN\tNN\t_\t-1\t_", "1\tw\t_\tNN\tNN\t_\t1\t_")


@st.composite
def conll_files(draw):
    """CoNLL sentences whose heads may not form a tree (cycles, no root or
    many, heads past the end, a head beyond int64), with perhaps one line the
    parser rejects somewhere after them."""
    blocks = []
    for _ in range(draw(st.integers(1, 5))):
        n = draw(st.integers(1, 6))
        heads = draw(st.one_of(rooted_heads(n, False), rooted_heads(n, True),
                               st.lists(st.integers(0, n + 1), min_size=n, max_size=n)))
        heads = [0 if h == i else h for i, h in enumerate(heads, start=1)]
        if not draw(st.integers(0, 9)):
            heads[draw(st.integers(0, n - 1))] = 10 ** 30
        blocks.append([f"{i}\tw{h % 7}\t_\tT{i % 3}\tT{h % 3}\t_\t{h}\t_"
                       for i, h in enumerate(heads, start=1)])
    if draw(st.booleans()):
        block = draw(st.sampled_from(blocks))
        block.insert(draw(st.integers(0, len(block))), draw(st.sampled_from(BAD_CONLL_LINES)))
    return "\n\n".join("\n".join(block) for block in blocks) + "\n"


def _parsed(parser, text):
    """('ok', heads, forms, tags, columns) per tree, or ('error', class, message, line)."""
    try:
        trees = parser(text)
    except DataError as e:
        return ("error", type(e), str(e), getattr(e, "line", None))
    return ("ok", [[(t.head, t.form, t.pos, t.cols) for t in tree.tokens] for tree in trees])


@settings(FUZZ, max_examples=300)
@given(conll_files(), BATCHES)
def test_parse_conll_fails_like_the_sequential_parser(text, batch):
    """Trees are checked a batch at a time, yet the error raised is the first
    in file order, as the parser that checks each tree at once raises it."""
    with mock.patch.object(treebank, "_CHECK_TOKENS", batch):
        ours = _parsed(parse_conll, text)
        assert _parsed(parse_conll, io.StringIO(text)) == ours
    assert ours == _parsed(reference_parse_conll, text)


# ways to write a number that int() reads: signed, zero-padded, with an
# underscore, in fullwidth digits, padded with spaces
FULLWIDTH = str.maketrans("0123456789", "０１２３４５６７８９")
NUMERALS = (lambda n: f"+{n}", lambda n: f"0{n}", lambda n: "_".join(str(n)),
            lambda n: str(n).translate(FULLWIDTH), lambda n: f" {n}")


@st.composite
def conll_texts(draw):
    r"""CoNLL text that the block parser must read exactly as the line parser
    does: usually well-formed sentences, sometimes with ragged column counts
    (columns of small numbers, so that a ragged sentence's columns can look
    like IDs), IDs or heads written as +3, 03, 3_0 or fullwidth digits,
    \r\n or a lone \r, \x0b or \u2028 inside a line, whitespace-only or
    repeated blank lines between sentences, a self-head, a head past the
    end, and no final newline."""
    def rare(k=6):
        return not draw(st.integers(0, k))

    filler = st.sampled_from(("_", "_", "1", "2", "3"))
    out = []
    for _ in range(draw(st.integers(1, 5))):
        n = draw(st.integers(1, 6))
        heads = draw(st.one_of(rooted_heads(n, False), rooted_heads(n, True),
                               st.lists(st.integers(0, n + 1), min_size=n, max_size=n)))
        width, ragged = draw(st.integers(8, 10)), rare(3)
        for i, h in enumerate(heads, start=1):
            ident, head = str(i), str(h)
            if rare():
                ident = draw(st.sampled_from(NUMERALS))(i)
            if rare():
                head = draw(st.sampled_from(NUMERALS))(h)
            form = draw(st.sampled_from((f"w{h}", str(i - 1), str(i), str(i + 1))))
            if rare(9):
                form += draw(st.sampled_from(("\x0b", "\u2028", "\r")))
            cols = [ident, form, draw(filler), f"T{i % 3}", f"T{h % 3}", draw(filler), head,
                    *(draw(filler) for _ in range(3))]
            cols = cols[:draw(st.sampled_from((7, 8, 9, 9, 10, 10))) if ragged else width]
            out.append("\t".join(cols) + draw(st.sampled_from(("\n",) * 6 + ("\r\n", "\r"))))
        out.append(draw(st.sampled_from(("\n",) * 6 + ("\n\n", " \n", "\t\n", "\r\n"))))
    text = "".join(out)
    return text.rstrip("\n") if rare(3) else text


def _paired_lines(text):
    """The lines of `text` with their ends, two to an item: a source whose
    items hold newlines inside them."""
    lines = text_lines(text)
    return ["".join(lines[i:i + 2]) for i in range(0, len(lines), 2)]


def _parsed_file(text):
    """`_parsed` of `load_conll` on the text written to a file as it is."""
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "gold.conll")
        with open(path, "w", encoding="utf-8", newline="") as f:
            f.write(text)
        ours = _parsed(lambda _: load_conll(path), text)
        if ours[0] == "error":  # the file's error names the file, once
            kind, cls, message, line = ours
            assert message.startswith(f"{path}: ") and path not in message[len(path):]
            ours = (kind, cls, message[len(path) + 2:], line)
        with open(path, encoding="utf-8") as f:  # newline translation, as load_conll reads
            return ours, _parsed(reference_parse_conll, f)


# 9, 8 and 8 columns: split as if all had 9, the third line's form would
# read as its ID
RAGGED = "1\t1\t1\tT\tT\t1\t0\t1\t1\n2\tw\t1\tT\tT\t1\t1\t1\n3\t3\t1\tT\tT\t1\t1\t1\n"


@settings(FUZZ, max_examples=300)
@given(conll_texts(), st.sampled_from((1, 2, 7, treebank._BLOCK_LINES)),
       st.sampled_from((1, 7, treebank._CHECK_TOKENS)))
@example(RAGGED, treebank._BLOCK_LINES, treebank._CHECK_TOKENS)
def test_parse_conll_matches_the_line_parser(text, block, batch):
    """String and text-file sources, read in blocks of 1, 2 or 7 lines or whole,
    and list sources, read line by line."""
    with mock.patch.multiple(treebank, _BLOCK_LINES=block, _CHECK_TOKENS=batch):
        for source in (lambda: io.StringIO(text), lambda: _paired_lines(text), lambda: text):
            ours = _parsed(parse_conll, source())
            assert ours == _parsed(reference_parse_conll, source())
        in_file, by_line = _parsed_file(text)
        assert in_file == by_line == ours  # a string reads as its file does
    if ours[0] == "ok":  # written back as the line parser's trees are, with any heads
        trees = parse_conll(text)
        for heads in (lambda t: t.heads, lambda t: [0] * len(t)):
            moved = [with_any_heads(tree, heads(tree)) for tree in trees]
            assert write_conll(moved) == reference_write_conll(moved)


@st.composite
def gold_and_rows(draw):
    """A gold head vector of 1 to 6 tokens and up to 4 candidate rows of one
    width, the gold tree's or one more or less. A row is a tree, a forest, or
    heads in [-1, n + 1]: self-heads, cycles, heads out of range, no root or
    several. Then whether the heads are given as floats, and at most one
    fault: a head replaced by a fraction or a non-finite value, or a base
    score by a non-finite one, at a position counted over all heads or
    scores."""
    n = draw(st.integers(1, 6))
    width = n if draw(st.integers(0, 5)) else draw(st.sampled_from((n - 1, n + 1)))

    def row(w):
        return st.one_of(rooted_heads(w, False), rooted_heads(w, True),
                         st.lists(st.integers(-1, w + 1), min_size=w, max_size=w))

    non_finite = st.sampled_from((math.nan, math.inf, -math.inf))
    fault = draw(st.none()
                 | st.tuples(st.just("head"), st.integers(0, 30),
                             st.sampled_from((0.5, 1.7, -0.25)) | non_finite)
                 | st.tuples(st.just("score"), st.integers(0, 30), non_finite))
    return n, draw(row(n)), draw(st.lists(row(width), max_size=4)), draw(st.booleans()), fault


@FUZZ
@given(gold_and_rows())
@example((4, [0, 1, 1, 1], [[2, 1, 0, 3]], False, None))
@example((3, [0, 1, 1], [[0, 1, 1], [1, 0, 2]], False, None))
@example((3, [2, 3, 1], [[0, 1, 1]], False, None))
@example((2, [0, 1], [[0, 1, 1]], False, None))
@example((3, [0, 1, 1], [[0, 1, 1]], True, None))
@example((3, [0, 1, 1], [[0, 1, 1]], False, ("head", 1, 1.7)))
@example((3, [0, 1, 1], [[0, 1, 1]], False, ("score", 0, math.nan)))
@example((3, [0, 1, 1], [[0, 1, 1], [3, 0, 2]], True, ("head", 5, math.inf)))
def test_kbest_constructors_accept_exactly_forests(case):
    n, gold_heads, rows, as_float, fault = case
    # forms and tags to n + 1 tokens for the wider rows; "XX" is not a
    # parameter tag, so its arcs read the fallback slot
    forms = [f"w{i % 4}" for i in range(n + 1)]
    tags = [(TAGS + ("XX",))[i % 6] for i in range(n + 1)]
    gold = DependencyTree(forms[:n], tags[:n], gold_heads, [None] * n)
    k, width = len(rows), len(rows[0]) if rows else n
    heads = np.array(rows, dtype=float if as_float or fault else np.int64).reshape(k, width)
    scores = np.arange(k, dtype=float)
    if fault:  # one head or score made a fraction or non-finite
        what, at, value = fault
        target = heads if what == "head" else scores
        if target.size:
            target.flat[at % target.size] = value
        else:
            fault = None
    trees = [(DependencyTree(forms[:width], tags[:width], row, [None] * width), score)
             for row, score in zip(heads.tolist() if as_float or fault else rows,
                                   scores.tolist())]
    builds = (lambda: KBestList(gold, trees), lambda: from_arrays(gold, heads, scores))
    if width != n:
        for build in builds:
            with pytest.raises(AlignmentError):
                build()
        return
    if not k:
        for build in builds:
            with pytest.raises(StructureError, match="needs at least one candidate$"):
                build()
        return
    if fault and fault[0] == "score":
        for build in builds:
            with pytest.raises(AlignmentError, match=f"base score {value} is not finite$"):
                build()
        return
    if fault and fault[0] == "head":
        for build in builds:
            with pytest.raises(StructureError, match="head indices are not integers: "):
                build()
        return
    ok = treebank._rooted(np.array([gold_heads] + rows).ravel(), np.full(k + 1, n))
    if not ok.all():  # the first row that is not a forest, gold first, is named
        bad = int(ok.argmin())
        name = "the gold tree" if bad == 0 else f"candidate {bad}"
        for build in builds:
            with pytest.raises(StructureError, match=f"^{re.escape(name)} of the sentence "):
                build()
        return
    for build in builds:
        kb = build()
        assert kb.heads.dtype == np.int64 and kb.scores.dtype == np.float64
        assert kb.heads.tolist() == rows and kb.scores.tolist() == list(range(k))
    # the plan of an accepted list is the oracle's, field by field
    p, oracle = tiny_params(m=2, m_d=2, seed=k), tiny_params(m=2, m_d=2, seed=k)
    assert_same_plan(one_list_plan(p, kb, create_pairs=True),
                     reference_list_plan(oracle, kb, create_pairs=True))
    assert p.pos_pairs.W.tobytes() == oracle.pos_pairs.W.tobytes()


WORD = st.text("abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=4)


@FUZZ
@given(gold_and_rows(), st.lists(WORD, min_size=7, max_size=7),
       st.lists(WORD, min_size=7, max_size=7), st.lists(st.floats(), min_size=4, max_size=4))
@example((2, [0, 1], [], False, None), ["a"] * 7, ["t"] * 7, [0.0] * 4)
def test_a_list_the_constructors_accept_reads_back_as_written(case, forms, tags, all_scores):
    """Both constructors refuse the list, or `write_kbest` of it reads back
    with its gold tree, heads and scores. A list with no candidates would be
    written with a `SENT i 0` header, which the reader refuses."""
    n, gold_heads, rows, _, _ = case
    k, width = len(rows), len(rows[0]) if rows else n
    gold = DependencyTree(forms[:n], tags[:n], gold_heads, [None] * n)
    heads, scores = np.array(rows, dtype=np.int64).reshape(k, width), all_scores[:k]
    trees = [(DependencyTree(forms[:width], tags[:width], row, [None] * width), score)
             for row, score in zip(rows, scores)]
    built = []
    for build in (lambda: KBestList(gold, trees),
                  lambda: from_arrays(gold, heads, scores)):
        try:
            built.append(build())
        except (AlignmentError, StructureError):
            pass
    assert len(built) in (0, 2)
    for kb in built:
        [back] = read_kbest(write_conll([gold]), write_kbest([kb]))
        assert back.gold == gold and back.heads.tolist() == rows
        assert back.scores.tobytes() == np.array(scores, dtype=np.float64).tobytes()


@given(st.integers(1, 9).flatmap(lambda n: st.tuples(rooted_heads(n, False),
                                                     st.integers(0, n - 1),
                                                     st.integers(0, n))))
def test_a_local_edit_check_agrees_with_the_tree_check(case):
    heads, i, new_head = case
    if new_head in (i + 1, heads[i]):  # not an edit `corrupt_heads` tries
        return
    edited = heads[:i] + [new_head] + heads[i + 1:]
    # `keeps_tree` keeps one token on HEAD 0, which the tree check does not ask
    assert synth.keeps_tree(heads, i, new_head) == (is_rooted_tree(edited)
                                                    and edited.count(0) == 1)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 10 ** 7) | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                 max_size=3),
    max_leaves=6)
MODEL_HEADER, MODEL_PAYLOAD = model_parts(tiny_params(m=2, m_d=2))


@FUZZ
@given(st.data())
def test_load_parses_or_raises_a_data_error(data):
    header = dict(MODEL_HEADER, hyper=dict(MODEL_HEADER["hyper"]))
    how = data.draw(st.sampled_from(("field", "hyper", "flip")))
    if how == "flip":
        blob = bytearray(model_bytes(header, MODEL_PAYLOAD))
        for _ in range(data.draw(st.integers(1, 4))):
            blob[data.draw(st.integers(0, len(blob) - 1))] = data.draw(st.integers(0, 255))
        blob = bytes(blob)
    else:
        section = header if how == "field" else header["hyper"]
        key = data.draw(st.sampled_from(sorted(section)))
        section[key] = data.draw(json_values)
        blob = model_bytes(header, MODEL_PAYLOAD)
    try:
        load(io.BytesIO(blob))
    except DataError:
        pass
