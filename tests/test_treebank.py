"""Treebank I/O, validation, and UAS evaluation."""

import dataclasses
import io
import itertools
import re
from unittest import mock

import numpy as np
import pytest

from deprerank import treebank
from deprerank.cli import main
from deprerank.errors import AlignmentError, EncodingError, ParseError, StructureError
from deprerank.treebank import (
    DependencyTree, EvalResult, KBestList, Token, corpus_oracle, is_rooted_tree, load_conll,
    parse_conll, read_kbest, read_kbest_files, resolve_punct_set,
    rooted_rows, uas, write_conll, write_kbest, PUNCT_SETS, _BLOCK_LINES,
)

from helpers import (
    from_arrays, kbest_of, make_tree, random_tree, reference_parse_conll, reference_read_kbest,
    rooted_by_bfs, with_any_heads,
)

BIKE_BLOCK = (
    "1\ta\t_\tDT\tDT\t_\t3\tdet\n"
    "2\tred\t_\tJJ\tJJ\t_\t3\tamod\n"
    "3\tbike\t_\tNN\tNN\t_\t0\troot\n"
)


def test_parse_bike_block():
    trees = parse_conll(BIKE_BLOCK)
    assert len(trees) == 1
    tree = trees[0]
    assert tree.forms == ["a", "red", "bike"]
    assert tree.pos_tags == ["DT", "JJ", "NN"]
    assert tree.heads == [3, 3, 0]


def test_parsed_tokens_equal_tokens_rebuilt_from_their_fields():
    tree = parse_conll(BIKE_BLOCK)[0]
    rebuilt = tuple(Token(t.index, t.form, t.pos, t.head, t.cols) for t in tree.tokens)
    assert tree.tokens == rebuilt
    assert [hash(t) for t in tree.tokens] == [hash(t) for t in rebuilt]
    assert [t.cols for t in tree.tokens] == [t.cols for t in rebuilt]
    with pytest.raises(dataclasses.FrozenInstanceError):
        tree.tokens[0].head = 1


def test_tokens_and_lines_of_tokens_with_no_or_short_columns_round_trip():
    long = "3\tc\t_\tVB\tVB\t_\t9\tdep\t_\t_\t+"
    tree = DependencyTree(["a", "b", "c"], ["DT", "NN", "VB"], [2, 0, 2], [None, "2\tb\tx", long])
    assert tree.tokens == (Token(1, "a", "DT", 2), Token(2, "b", "NN", 0), Token(3, "c", "VB", 2))
    assert [t.cols for t in tree.tokens] == [None, ("2", "b", "x"), tuple(long.split("\t"))]
    assert write_conll([tree]) == ("1\ta\t_\tDT\tDT\t_\t2\t_\t_\t_\n"
                                   "2\tb\tx\t0\n"
                                   "3\tc\t_\tVB\tVB\t_\t2\tdep\t_\t_\t+\n")
    moved = with_any_heads(tree, [0, 3, 1])
    assert moved.tokens[2].cols == tree.tokens[2].cols  # the lines are kept, heads are not
    assert write_conll([moved]).splitlines() == [
        "1\ta\t_\tDT\tDT\t_\t0\t_\t_\t_", "2\tb\tx\t3",
        "3\tc\t_\tVB\tVB\t_\t1\tdep\t_\t_\t+"]


def test_parse_empty_input():
    assert parse_conll("") == []
    assert parse_conll("\n\n\n") == []


def test_parse_two_cycle_rejected():
    block = "1\ta\t_\tDT\tDT\t_\t2\t_\n2\tb\t_\tNN\tNN\t_\t1\t_\n"
    with pytest.raises(StructureError):
        parse_conll(block)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError, match="line 2"):
        parse_conll("1\ta\t_\tDT\tDT\t_\t2\t_\n2\tb\t_\tNN\tNN\n")
    with pytest.raises(ParseError, match="line 1"):
        parse_conll("x\ta\t_\tDT\tDT\t_\t2\t_\n")
    with pytest.raises(ParseError, match="line 1"):
        parse_conll("1\ta\t_\tDT\tDT\t_\tzzz\t_\n")
    with pytest.raises(ParseError, match="^line 2: token 2 is its own head$"):
        parse_conll("1\ta\t_\tDT\tDT\t_\t0\t_\n2\tb\t_\tNN\tNN\t_\t2\t_\n")


# breaks that `str.splitlines` splits at and a text file does not
SPLITLINES_ONLY = ("\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")


@pytest.mark.parametrize("brk", SPLITLINES_ONLY, ids=[f"U+{ord(c):04X}" for c in SPLITLINES_ONLY])
def test_a_string_splits_lines_as_its_file_does(tmp_path, brk):
    gold = f"1\ta{brk}b\t_\tNN\tNN\t_\t0\t_\r\n2\tc\t_\tVB\tVB\t_\t1\t_\n"
    kbest = "SENT 0 2\rCAND 1 -1.0\nHEAD 0 1\r\nCAND 2 -2.0\nHEAD 2 0\n"
    gold_path, kbest_path = tmp_path / "gold.conll", tmp_path / "cands.kbest"
    gold_path.write_text(gold, encoding="utf-8", newline="")
    kbest_path.write_text(kbest, encoding="utf-8", newline="")
    want = [make_tree([0, 1], forms=[f"a{brk}b", "c"], tags=["NN", "VB"])]
    assert load_conll(gold_path) == want
    for source in (gold, io.StringIO(gold, newline=None)):
        assert parse_conll(source) == want
    lists = [read_kbest_files(gold_path, kbest_path)]
    lists += [read_kbest(g, k) for g, k in ((gold, kbest), (io.StringIO(gold, newline=None),
                                                           io.StringIO(kbest, newline=None)))]
    for kbs in lists:
        assert [kb.gold for kb in kbs] == want
        assert [kb.heads.tolist() for kb in kbs] == [[[0, 1], [2, 0]]]
        assert [kb.scores.tolist() for kb in kbs] == [[-1.0, -2.0]]


def test_several_tokens_may_hang_off_the_root():
    """CoNLL-X allows several tokens on HEAD 0; every token must still reach it."""
    line = "{}\tw\t_\tNN\tNN\t_\t{}\t_\n"
    heads = [0, 0, 2, 0]
    block = "".join(line.format(i, h) for i, h in enumerate(heads, start=1))
    assert parse_conll(block)[0].heads == heads
    assert read_kbest(block, "SENT 0 1\nCAND 1 -1.0\nHEAD 0 0 0 0\n")[0].heads.tolist() == [
        [0, 0, 0, 0]]
    cycle = "".join(line.format(i, h) for i, h in enumerate([0, 3, 2, 0], start=1))
    with pytest.raises(StructureError, match=r"^sentence 0: .* rooted tree: \[0, 3, 2, 0\]$"):
        parse_conll(cycle)


def test_roundtrip_is_byte_exact():
    text = BIKE_BLOCK + "\n" + (
        "1\tHe\the\tPRP\tPRP\t_\t2\tnsubj\t_\t_\n"
        "2\tran\trun\tVBD\tVBD\t_\t0\troot\t_\t_\n")
    trees = parse_conll(text)
    assert write_conll(trees) == text


def test_write_synthetic_tokens_parses_back():
    tree = make_tree([2, 0, 2])
    again = parse_conll(write_conll([tree]))[0]
    assert again.heads == tree.heads
    assert again.forms == tree.forms
    assert again.pos_tags == tree.pos_tags


def test_validation_matches_bruteforce_enumeration():
    # every head vector of length <= 5, against the BFS oracle
    for n in range(1, 6):
        for heads in itertools.product(range(n + 1), repeat=n):
            assert is_rooted_tree(heads) == rooted_by_bfs(heads), heads


def test_trees_compare_and_hash_by_forms_tags_and_heads_only():
    parsed = parse_conll(BIKE_BLOCK)[0]
    built = make_tree([3, 3, 0], ["a", "red", "bike"], ["DT", "JJ", "NN"])
    assert parsed == built and hash(parsed) == hash(built)
    assert write_conll([parsed]) != write_conll([built])  # the CoNLL columns differ
    for other in (built.with_heads([2, 3, 0]),
                  make_tree([3, 3, 0], ["a", "red", "car"], ["DT", "JJ", "NN"]),
                  make_tree([3, 3, 0], ["a", "red", "bike"], ["DT", "JJ", "NNS"])):
        assert parsed != other
    assert parsed != parsed.tokens


def test_tree_of_its_tokens_is_the_same_tree_with_its_columns():
    text = BIKE_BLOCK + ("\n1\tHe\the\tPRP\tPRP\t_\t2\tnsubj\t_\t_\n"
                         "2\tran\trun\tVBD\tVBD\t_\t0\troot\n")
    trees = parse_conll(text) + [make_tree([2, 0, 2])]
    # the columns of a tree, read from its tokens
    rebuilt = [DependencyTree(*zip(*((t.form, t.pos, t.head, t.cols and "\t".join(t.cols))
                                     for t in tree.tokens))) for tree in trees]
    assert rebuilt == trees
    assert write_conll(rebuilt) == write_conll(trees) == text + "\n" + write_conll(trees[-1:])


def test_validate_prints_the_heads_as_a_list():
    tree = with_any_heads(parse_conll(BIKE_BLOCK)[0], [2, 3, 1])
    with pytest.raises(StructureError) as err:
        tree.validate(label="sentence 4")
    assert str(err.value) == "sentence 4: head indices do not form a rooted tree: [2, 3, 1]"
    with pytest.raises(StructureError, match=re.escape("tree: [3, 3, 4, 3]")):
        make_tree([3, 3, 4, 3]).validate()


def test_kbest_reading_and_scores():
    gold = BIKE_BLOCK
    cands = ("SENT 0 2\n"
             "CAND 1 -10.5\nHEAD 3 3 0\n"
             "CAND 2 -11.2\nHEAD 2 3 0\n")
    lists = read_kbest(gold, cands)
    assert len(lists) == 1
    kb = lists[0]
    assert len(kb.candidates) == 2
    assert kb.candidates[0][1] == -10.5
    assert kb.candidates[1][1] == -11.2
    assert kb.candidates[1][0].heads == [2, 3, 0]
    # candidates share the gold tokenization
    assert kb.candidates[1][0].forms == kb.gold.forms


def test_kbest_token_mismatch_names_sentence():
    cands = "SENT 0 1\nCAND 1 -1.0\nHEAD 3 0\n"
    with pytest.raises(AlignmentError, match="sentence 0"):
        read_kbest(BIKE_BLOCK, cands)


@pytest.mark.parametrize("score", ["nan", "inf", "-inf", "NaN", "Infinity", "1e999", "-1e999"])
def test_kbest_rejects_non_finite_base_scores(score):
    cands = f"SENT 0 2\nCAND 1 -1.0\nHEAD 3 3 0\nCAND 2 {score}\nHEAD 2 3 0\n"
    with pytest.raises(ParseError, match="line 4: non-finite base score"):
        read_kbest(BIKE_BLOCK, cands)


def test_kbest_count_mismatch():
    cands = ("SENT 0 1\nCAND 1 -1.0\nHEAD 3 3 0\n"
             "SENT 1 1\nCAND 1 -1.0\nHEAD 0\n")
    with pytest.raises(AlignmentError, match="more sentences"):
        read_kbest(BIKE_BLOCK, cands)
    with pytest.raises(AlignmentError, match="ended before"):
        read_kbest(BIKE_BLOCK + "\n1\tx\t_\tNN\tNN\t_\t0\t_\n", "SENT 0 1\nCAND 1 -1.0\nHEAD 3 3 0\n")


def test_kbest_accepts_64_candidates():
    gold = make_tree([0] + [1] * 4)
    kb = kbest_of(gold, [(gold.heads, -float(i)) for i in range(64)])
    text = write_kbest([kb])
    lists = read_kbest(write_conll([gold]), text)
    assert len(lists[0].candidates) == 64


def test_kbest_roundtrip_scores_verbatim():
    gold = make_tree([0, 1, 1])
    kb = kbest_of(gold, [([0, 1, 1], -10.523125), ([0, 1, 2], -11.25)])
    again = read_kbest(write_conll([gold]), write_kbest([kb]))[0]
    assert [s for _, s in again.candidates] == [-10.523125, -11.25]


def test_uas_identity():
    tree = make_tree([3, 3, 0])
    res = uas(tree, tree)
    assert res == EvalResult(3, 3)
    assert res.uas == 1.0


def test_uas_handcount():
    gold = make_tree([3, 3, 0])
    pred = gold.with_heads([3, 1, 0])
    res = uas(pred, gold)
    assert (res.correct_heads, res.scored_tokens) == (2, 3)
    assert res.uas == pytest.approx(2 / 3)


def test_uas_ignores_punctuation():
    gold = make_tree([2, 0, 2, 2], tags=["DT", "NN", "VB", "."])
    pred = gold.with_heads([2, 0, 2, 3])
    res = uas(pred, gold, punct_tags={"."})
    assert (res.correct_heads, res.scored_tokens) == (3, 3)
    assert res.uas == 1.0


def test_uas_set_construction_invariant():
    gold = make_tree([2, 0, 2, 2], tags=["DT", "NN", ".", ","])
    pred = gold.with_heads([2, 0, 2, 2])
    for punct in ({".", ","}, {",", "."}, frozenset([",", "."])):
        assert uas(pred, gold, punct) == EvalResult(2, 2)


def test_uas_length_mismatch():
    with pytest.raises(AlignmentError):
        uas(make_tree([0]), make_tree([0, 1]))


def test_oracle_best_worst():
    gold = make_tree([2, 0] + [2] * 8)
    # candidate UAS: 0.8, 1.0, 0.9
    kb = kbest_of(gold, [
        ([4, 0, 4] + [2] * 7, -1.0),
        ([2, 0] + [2] * 8, -2.0),
        ([4, 0] + [2] * 8, -3.0),
    ])
    assert corpus_oracle([kb]) == EvalResult(10, 10)
    assert corpus_oracle([kb], worst=True) == EvalResult(8, 10)


def test_oracle_singleton_and_ties():
    gold = make_tree([0, 1])
    single = kbest_of(gold, [([0, 1], -1.0)])
    assert corpus_oracle([single]) == EvalResult(2, 2) == corpus_oracle([single], worst=True)
    tie = kbest_of(gold, [([2, 0], -1.0), ([2, 0], -2.0)])
    assert corpus_oracle([tie]) == EvalResult(0, 2) == corpus_oracle([tie], worst=True)


def test_corpus_oracle_aggregates_counts():
    g1 = make_tree([0, 1])
    g2 = make_tree([2, 0, 2])
    kbs = [kbest_of(g1, [([0, 1], -1.0), ([2, 0], -2.0)]),
           kbest_of(g2, [([3, 0, 2], -1.0)])]
    best = corpus_oracle(kbs)
    worst = corpus_oracle(kbs, worst=True)
    assert (best.correct_heads, best.scored_tokens) == (2 + 2, 5)
    assert (worst.correct_heads, worst.scored_tokens) == (0 + 2, 5)
    assert worst.uas <= best.uas


def test_punct_set_resolution():
    assert resolve_punct_set("ptb") == PUNCT_SETS["ptb"]
    assert resolve_punct_set("CTB") == frozenset({"PU"})
    assert resolve_punct_set("none") == frozenset()
    assert resolve_punct_set("PU, Sym") == frozenset({"PU", "Sym"})


@pytest.mark.parametrize("lines, message", [
    ("CANDIDATE 1 -1.0\nHEAD 3 3 0\n", "line 2: expected 'CAND <rank> <score>'"),
    ("CAND 1 -1.0\nHEADS 3 3 0\n", "line 3: expected 'HEAD <h1> ... <hn>'"),
    ("CAND 7 -1.0\nHEAD 3 3 0\n", "line 2: sentence 0: expected CAND rank 1, got '7'"),
    ("CAND x -1.0\nHEAD 3 3 0\n", "line 2: sentence 0: expected CAND rank 1, got 'x'"),
])
def test_kbest_line_format_is_exact(lines, message):
    cands = "SENT 0 1\n" + lines
    for reader in (read_kbest, reference_read_kbest):
        with pytest.raises(ParseError, match=message):
            reader(BIKE_BLOCK, cands)


def test_kbest_errors_come_in_file_order():
    cycle = "CAND 1 -1.0\nHEAD 2 1 0\n"
    with pytest.raises(StructureError, match="sentence 0, candidate 1"):
        read_kbest(BIKE_BLOCK, "SENT 0 2\n" + cycle + "CAND 2 nan\nHEAD 3 3 0\n")
    with pytest.raises(StructureError, match="sentence 0, candidate 1"):
        read_kbest(BIKE_BLOCK, "SENT 0 2\n" + cycle + "CAND 2 -1.0\nHEAD 3 x 0\n")
    with pytest.raises(ParseError, match="line 5: non-integer head"):
        read_kbest(BIKE_BLOCK, "SENT 0 2\nCAND 1 -1.0\nHEAD 3 3 0\n"
                               "CAND 2 -1.0\nHEAD 3 x 0\nCAND 3 -1.0\nHEAD 2 1 0\n")
    with pytest.raises(AlignmentError, match="candidate 2 has 2 heads"):
        read_kbest(BIKE_BLOCK, "SENT 0 3\nCAND 1 -1.0\nHEAD 3 3 0\n"
                               "CAND 2 -1.0\nHEAD 3 0\nCAND 3 -1.0\nHEAD 2 1 0\n")
    # as many heads in all as k rows of n, but not n in each row
    with pytest.raises(AlignmentError, match="candidate 1 has 4 heads"):
        read_kbest(BIKE_BLOCK, "SENT 0 2\nCAND 1 -1.0\nHEAD 3 3 0 1\nCAND 2 -1.0\nHEAD 3 0\n")
    # a line of a source that is neither a string nor a file may hold two
    with pytest.raises(ParseError, match=r"line 3: non-integer head in 'HEAD 3\\nHEAD 0'"):
        read_kbest(BIKE_BLOCK, ["SENT 0 1\n", "CAND 1 -1.0\n", "HEAD 3\nHEAD 0\n"])
    with pytest.raises(ParseError, match="line 2: expected 'CAND <rank> <score>'"):
        read_kbest(BIKE_BLOCK, ["SENT 0 2\n", "CAND 1 -1.0\nCAND 2 ", "HEAD 3 3 0\n", "-2.0\n",
                                "HEAD 3 3 0\n"])


class _CountingLines(io.StringIO):
    """A text source that counts the lines taken from it."""
    pulled = 0

    def __next__(self):
        line = super().__next__()
        self.pulled += 1
        return line


@pytest.mark.parametrize("k", [10 ** 9, _BLOCK_LINES // 2 + 1, _BLOCK_LINES // 2])
def test_a_huge_k_takes_a_bounded_block(k):
    # the fifth line after the SENT header is malformed; the filler after it
    # is taken only if the reader takes a whole 2k-line block first
    text = (f"SENT 0 {k}\nCAND 1 -1.0\nHEAD 3 3 0\nCAND 2 -1.0\nHEAD 3 3 0\nCAND x\n"
            + "CAND 3 -1.0\n" * _BLOCK_LINES)
    source = _CountingLines(text)
    with pytest.raises(ParseError) as ours:
        read_kbest(BIKE_BLOCK, source)
    with pytest.raises(ParseError) as theirs:
        reference_read_kbest(BIKE_BLOCK, text)
    assert (str(ours.value), ours.value.line) == (str(theirs.value), theirs.value.line) == (
        "line 6: expected 'CAND <rank> <score>', got 'CAND x'", 6)
    assert source.pulled <= 1 + _BLOCK_LINES  # the header, then at most one block


def test_a_sentence_with_no_blank_lines_takes_a_bounded_block():
    # the third line is out of order, and no blank line ever ends the sentence
    line = "1\ta\t_\tDT\tDT\t_\t0\t_\n"
    text = line + "2\tb\t_\tNN\tNN\t_\t1\t_\n" + line * (2 * _BLOCK_LINES)
    source = _CountingLines(text)
    with pytest.raises(ParseError) as ours:
        parse_conll(source)
    with pytest.raises(ParseError) as theirs:
        reference_parse_conll(text)
    assert (str(ours.value), ours.value.line) == (str(theirs.value), theirs.value.line) == (
        "line 3: token ID 1 out of order (expected 3)", 3)
    assert source.pulled <= _BLOCK_LINES
    # a sentence longer than a block is read line by line, with what follows it
    text = write_conll([_chain(10), _chain(3), _chain(12), _chain(2)])
    with mock.patch.object(treebank, "_BLOCK_LINES", 4):
        assert parse_conll(io.StringIO(text)) == reference_parse_conll(text)


def test_each_block_is_whole_sentences_of_at_most_block_lines(monkeypatch):
    rng = np.random.default_rng(3)
    text = write_conll([random_tree(rng, int(rng.integers(1, 4))) for _ in range(200)])
    last = text.splitlines()[-1]
    blocks, real = [], treebank._parse_block
    monkeypatch.setattr(treebank, "_BLOCK_LINES", 8)
    monkeypatch.setattr(treebank, "_parse_block",
                        lambda lines, *rest: blocks.append(list(lines)) or real(lines, *rest))
    assert parse_conll(text) == reference_parse_conll(text)
    assert blocks and max(map(len, blocks)) <= 8
    assert all(not block[-1].strip() for block in blocks[:-1]) and blocks[-1][-1] == last
    assert sum(map(len, blocks)) == len(text.splitlines())
    # a bad line after all those blocks keeps its own line number
    bad = text + "1\tx\n"
    with pytest.raises(ParseError) as ours:
        parse_conll(bad)
    with pytest.raises(ParseError) as theirs:
        reference_parse_conll(bad)
    assert (str(ours.value), ours.value.line) == (str(theirs.value), theirs.value.line)


def _chain(n):
    """Gold of n tokens, each headed by the one before it."""
    return make_tree(list(range(n)))


ROUTED_KBEST = ("SENT 0 2\nCAND 1 -1.0\nHEAD 3 3 0\nCAND 2 -2.0\nHEAD 2 3 0\n"
                "SENT 1 1\nCAND 1 -1.5\nHEAD 3 1 0\n")
# how each source is made from its text, and whether it takes the block route
ROUTED_SOURCES = {
    "a string": (lambda text: text, True),
    "a text file": (io.StringIO, True),
    "a list of lines": (lambda text: text.splitlines(keepends=True), False),
    "an iterator of lines": (lambda text: iter(text.splitlines(keepends=True)), False),
    "a file that is not all UTF-8": (None, False),
}


@pytest.mark.parametrize("source", sorted(ROUTED_SOURCES))
@pytest.mark.parametrize("reader", ["parse_conll", "read_kbest"])
def test_only_a_string_or_a_text_file_takes_the_block_route(tmp_path, monkeypatch, reader,
                                                             source):
    """`_parse_block` or `_read_block` runs exactly when the source is a
    string or a text file; any other source, the lines of a file that is not
    all UTF-8 among them, is read line by line. Either route reads the
    reference reader's trees, or raises the error of the bad byte."""
    make, in_blocks = ROUTED_SOURCES[source]
    gold_text = BIKE_BLOCK + "\n" + BIKE_BLOCK
    spied = "_parse_block" if reader == "parse_conll" else "_read_block"
    calls, real = [], getattr(treebank, spied)
    monkeypatch.setattr(treebank, spied, lambda *args: calls.append(args) or real(*args))
    if make is None:  # a small file, whose first read fails: only the line route runs
        gold, bad = tmp_path / "gold.conll", tmp_path / "bad"
        gold.write_text(gold_text, encoding="utf-8")
        if reader == "parse_conll":
            bad.write_bytes(gold_text.encode() + b"\n" + NOT_UTF8)
        else:
            bad.write_bytes(ROUTED_KBEST.encode().replace(b"HEAD 3 1 0", b"HEAD\xff 3 1 0"))
        with pytest.raises(EncodingError,
                           match=f"^{re.escape(str(bad))}: not UTF-8 text \\(invalid start byte"):
            load_conll(bad) if reader == "parse_conll" else read_kbest_files(gold, bad)
    elif reader == "parse_conll":
        assert parse_conll(make(gold_text)) == reference_parse_conll(gold_text)
    else:
        lists = read_kbest(gold_text, make(ROUTED_KBEST))
        assert [(kb.gold, list(kb.candidates)) for kb in lists] == reference_read_kbest(
            gold_text, ROUTED_KBEST)
    assert bool(calls) == in_blocks


def test_a_text_file_whose_lines_hold_a_newline_reads_as_its_lines(tmp_path):
    """A file opened with newline="\\r" ends its lines at \\r only, so a line
    may hold a \\n: the block route reads such lines as the line route does."""
    path = tmp_path / "cr.conll"
    path.write_bytes(b"1\ta\t_\tDT\tDT\t_\t2\tx\ny\r2\tb\t_\tNN\tNN\t_\t0\t_\r\r"
                     b"1\tc\t_\tNN\tNN\t_\t0\t_\r")
    with open(path, encoding="utf-8", newline="\r") as f:
        lines = f.readlines()
        f.seek(0)
        trees = parse_conll(f)
    assert trees == reference_parse_conll(lines) == [make_tree([2, 0], ["a", "b"], ["DT", "NN"]),
                                                     make_tree([0], ["c"], ["NN"])]


def test_conll_errors_come_in_file_order_across_batches():
    cycle = "1\ta\t_\tDT\tDT\t_\t2\t_\n2\tb\t_\tNN\tNN\t_\t1\t_\n"
    # a first sentence of 8,192 lines, so the cycle opens the second far into the block
    first = write_conll([_chain(8192)])
    for text, label in ((BIKE_BLOCK + "\n" + cycle, "sentence 1"),
                        (first + "\n" + cycle, "sentence 1"),
                        (first + "\n" + BIKE_BLOCK + "\n" + cycle, "sentence 2")):
        for tail in ("\n" + BIKE_BLOCK + "\n1\tx\n", "\n2\tb\t_\tNN\tNN\t_\t0\t_\n", ""):
            with pytest.raises(StructureError) as ours:
                parse_conll(text + tail)
            with pytest.raises(StructureError) as theirs:
                reference_parse_conll(text + tail)
            assert str(ours.value) == str(theirs.value)
            assert str(ours.value).startswith(f"{label}: head indices do not form a rooted tree")


def test_a_line_error_before_a_bad_tree_in_its_block_comes_first():
    """Sentences read line by line, then a cyclic sentence, in one block: the
    first error in file order is raised, a bad line's or an earlier tree's;
    with none before it, the cycle's label counts the trees."""
    cycle = "1\ta\t_\tDT\tDT\t_\t2\t_\n2\tb\t_\tNN\tNN\t_\t1\t_\n"
    signed = BIKE_BLOCK.replace("\t0\troot", "\t+0\troot")  # read line by line
    for run, error, start in (
            (BIKE_BLOCK.replace("\t3\tdet", "\tx\tdet"), ParseError, "line 1: non-integer"),
            (signed.replace("+0", str(10 ** 30)), StructureError, "sentence 0: "),
            (signed + "\n" + signed, StructureError, "sentence 2: ")):
        with pytest.raises(error) as ours:
            parse_conll(run + "\n" + cycle)
        with pytest.raises(error) as theirs:
            reference_parse_conll(run + "\n" + cycle)
        assert str(ours.value) == str(theirs.value) and str(ours.value).startswith(start)


@pytest.mark.parametrize("block", [_BLOCK_LINES, 8])
def test_from_the_first_sentence_a_block_cannot_split_the_rest_is_read_line_by_line(block):
    """A +-signed head that the byte passes reject, mid-block or opening one
    (a block of 8 lines starts at each 3-token sentence here), then a cyclic
    sentence, then a bad line: the same trees and the same first error as
    reading the text line by line."""
    signed = BIKE_BLOCK.replace("\t0\troot", "\t+0\troot")
    cycle = "1\ta\t_\tDT\tDT\t_\t2\t_\n2\tb\t_\tNN\tNN\t_\t1\t_\n"
    clean, bad = (f"{BIKE_BLOCK}\n{signed}\n{tail}" for tail in (BIKE_BLOCK, cycle + "\nx\n"))
    with mock.patch.object(treebank, "_BLOCK_LINES", block):
        trees = parse_conll(clean)
        with pytest.raises(StructureError) as ours:
            parse_conll(bad)
    assert trees == reference_parse_conll(clean) and len(trees) == 3
    with pytest.raises(StructureError) as theirs:
        reference_parse_conll(bad)
    assert str(ours.value) == str(theirs.value) and str(ours.value).startswith("sentence 2: ")


def test_conll_head_beyond_int64_is_a_structure_error():
    text = BIKE_BLOCK + "\n" + BIKE_BLOCK.replace("\t0\troot", f"\t{10 ** 30}\troot")
    with pytest.raises(StructureError, match=f"sentence 1: .*{10 ** 30}"):
        parse_conll(text)
    with pytest.raises(StructureError, match="sentence 1: "):
        parse_conll(text + "\nx\n")


def test_kbest_errors_come_in_file_order_across_batches():
    """A cyclic candidate in the first list of the second batch of trees
    checked, then a bad CAND line: the cycle is the error raised."""
    golds = [_chain(16) for _ in range(10)]  # 64 x 16 = 1024 candidate tokens per list
    lists = [kbest_of(g, [(g.heads, -float(r)) for r in range(64)]) for g in golds]
    lines = write_kbest(lists).splitlines()
    sent8 = lines.index("SENT 8 64")
    lines[sent8 + 6] = "HEAD 0 " + " ".join(map(str, range(3, 17))) + " 2"  # candidate 3
    lines[lines.index("SENT 9 64") + 1] = "CAND 1 nan"
    text = "\n".join(lines) + "\n"
    with pytest.raises(StructureError) as ours:
        read_kbest(write_conll(golds), text)
    assert str(ours.value).startswith("sentence 8, candidate 3: ")
    with pytest.raises(StructureError) as theirs:
        reference_read_kbest(write_conll(golds), text)
    assert str(ours.value) == str(theirs.value)


@pytest.mark.parametrize("head", ["9" * 25, "-" + "9" * 25, "4", "-1", "3"])
def test_kbest_bad_head_matches_reference(head):
    cands = f"SENT 0 2\nCAND 1 -1.0\nHEAD 3 3 0\nCAND 2 -2.0\nHEAD 3 3 {head}\n"
    with pytest.raises(StructureError) as ours:
        read_kbest(BIKE_BLOCK, cands)
    with pytest.raises(StructureError) as theirs:
        reference_read_kbest(BIKE_BLOCK, cands)
    assert str(ours.value) == str(theirs.value)
    assert str(ours.value).startswith("sentence 0, candidate 2: ")


def test_rooted_rows_matches_is_rooted_tree():
    mats = [np.array(list(itertools.product(range(-1, n + 2), repeat=n))) for n in range(1, 6)]
    mats += [np.array([[2, 0, 2, 3 + 2 ** 62]]), np.array([[0]]), np.array([[2, 1]])]
    expected = [rooted_by_bfs(row) for m in mats for row in m.tolist()]
    assert rooted_rows(mats).tolist() == expected  # widths mixed in one pass
    for m in mats:
        rows = m.tolist()
        assert rooted_rows([m]).tolist() == [rooted_by_bfs(r) for r in rows]
        assert [is_rooted_tree(r) for r in rows] == [rooted_by_bfs(r) for r in rows]


def test_candidates_are_built_on_demand(monkeypatch):
    gold = make_tree([2, 0, 2, 2])
    text = write_kbest([kbest_of(gold, [([2, 0, 2, 2], -1.0), ([0, 1, 2, 2], -2.5),
                                        ([2, 0, 4, 2], -3.0)])])
    kb = read_kbest(write_conll([gold]), text)[0]
    built = []
    init = DependencyTree.__init__

    def counted(self, forms, tags, heads, lines):
        built.append(list(heads))
        init(self, forms, tags, heads, lines)

    monkeypatch.setattr(DependencyTree, "__init__", counted)
    assert len(kb.candidates) == len(kb) == 3 and built == []
    tree, score = kb.candidates[1]
    assert built == [[0, 1, 2, 2]] and tree.heads == [0, 1, 2, 2] and score == -2.5
    assert type(score) is float and tree.forms == gold.forms
    assert kb.candidates[-1][0].heads == [2, 0, 4, 2]
    assert [s for _, s in kb.candidates[1:]] == [-2.5, -3.0]
    with pytest.raises(IndexError):
        kb.candidates[3]
    assert kb.heads.shape == (3, 4) and kb.heads.dtype == np.int64
    with pytest.raises(ValueError):
        kb.heads[0, 0] = 1
    with pytest.raises(ValueError):
        kb.scores[0] = 0.0
    assert kb.truncated(2).heads.tolist() == kb.heads[:2].tolist()


def test_attachment_counts_match_uas():
    gold = make_tree([2, 0, 2, 2, 4], tags=["DT", "NN", ".", "VB", ","])
    kb = kbest_of(gold, [([2, 0, 2, 2, 4], 0.0), ([0, 1, 2, 2, 4], 0.0),
                         ([2, 0, 4, 2, 3], 0.0), ([3, 0, 2, 3, 4], 0.0)])
    for punct in (frozenset(), {".", ","}, PUNCT_SETS["ptb"]):
        correct, scored = kb.attachment_counts(punct)
        assert [EvalResult(int(c), scored) for c in correct] == [
            uas(tree, gold, punct) for tree, _ in kb.candidates]


def _unchecked_tree(gold, heads):
    """A tree of the gold tree's forms and tags over any heads, not checked."""
    n = len(heads)
    return DependencyTree(gold.forms[:n], gold.pos_tags[:n], heads, [None] * n)


def test_kbest_constructors_reject_rows_that_are_not_forests():
    # a list holds only forests over its gold tree's tokens, so nothing that
    # plans, scores or reranks a list checks its rows again
    gold = make_tree([0, 1, 1])
    with pytest.raises(AlignmentError):
        KBestList(gold, [(make_tree([0, 1, 1], forms=["w1", "w2", "w9"]), 0.0)])
    with pytest.raises(AlignmentError):
        KBestList(gold, [(make_tree([0, 1, 1], tags=["NN", "NN", "NN"]), 0.0)])
    with pytest.raises(AlignmentError):
        KBestList(gold, [(make_tree([0, 1]), 0.0)])
    with pytest.raises(AlignmentError):  # forms and tags of the gold tree, one head more
        KBestList(gold, [(DependencyTree(gold.forms, gold.pos_tags, [0, 1, 1, 1], [None] * 3),
                          0.0)])
    for heads, scores in (([[0, 1, 1, 1]], [0.0]), ([0, 1, 1], [0.0] * 3),
                          (np.zeros((0, 2)), []), ([[0, 1, 1]], [0.0, 1.0]), ([[0, 1, 1]], 0.0)):
        with pytest.raises(AlignmentError, match=r"needs a \(k, 3\) head matrix and k scores"):
            from_arrays(gold, heads, scores)
    sentence = "of the sentence 'w1 w2 w3': head indices do not form a rooted tree:"
    for tree, rows, message in (
            (gold, [[0, 1, 1], [0, 1, 4]], f"candidate 2 {sentence} [0, 1, 4]"),
            (gold, [[0, 1, -1]], f"candidate 1 {sentence} [0, 1, -1]"),
            (gold, [[0, 1, 1], [0, 1, 2 ** 70]], f"candidate 2 {sentence} [0, 1, {2 ** 70}]"),
            (gold, [[2, 1, 0]], f"candidate 1 {sentence} [2, 1, 0]"),
            (gold, [[1, 0, 1]], f"candidate 1 {sentence} [1, 0, 1]"),
            (gold, [[0, 3, 2], [2, 1, 0]], f"candidate 1 {sentence} [0, 3, 2]"),
            (gold, [[0, 1, 1], [3, 3, 1]], f"candidate 2 {sentence} [3, 3, 1]"),
            (_unchecked_tree(gold, [2, 3, 1]), [[0, 1, 1]], f"the gold tree {sentence} [2, 3, 1]"),
            (_unchecked_tree(gold, [0, 4, 1]), [[2, 1, 0]], f"the gold tree {sentence} [0, 4, 1]"),
            (_unchecked_tree(gold, [0, 2 ** 64, 1]), [[0, 1, 1]],
             f"the gold tree {sentence} [0, {2 ** 64}, 1]")):
        candidates = [(_unchecked_tree(tree, row), 0.0) for row in rows]
        for build in (lambda: KBestList(tree, candidates),
                      lambda: from_arrays(tree, rows, [0.0] * len(rows))):
            with pytest.raises(StructureError, match=f"^{re.escape(message)}$"):
                build()
    with pytest.raises(StructureError, match="at least one token"):
        KBestList(DependencyTree((), (), (), ()), [])
    with pytest.raises(StructureError, match="at least one token"):
        from_arrays(DependencyTree((), (), (), ()), np.zeros((1, 0)), [0.0])
    # and at least one candidate, also after truncation, so nothing that
    # scores, reranks or writes a list checks its length again
    for build in (lambda: KBestList(gold, []),
                  lambda: from_arrays(gold, np.empty((0, 3)), [])):
        with pytest.raises(StructureError, match="^a k-best list needs at least one candidate$"):
            build()
    three = from_arrays(gold, [[0, 1, 1]] * 3, [0.0, 1.0, 2.0])
    for k in (0, -1):
        with pytest.raises(ValueError, match=f"^k must be >= 1, got {k}$"):
            three.truncated(k)
    # several roots make a forest, which a list holds
    assert from_arrays(gold, [[0, 0, 0], [0, 1, 0]], [0.0, 0.0]).heads.tolist() == [
        [0, 0, 0], [0, 1, 0]]
    multi = gold.with_heads([0, 0, 2])
    assert KBestList(multi, [(multi, 1.5)]).heads.tolist() == [[0, 0, 2]]


def test_a_cycle_is_refused_where_its_list_is_made():
    # a cyclic candidate once went through from_arrays unchecked, and
    # rerank_corpus wrote the cycle out as CoNLL
    from deprerank.reranker import RerankConfig, rerank_corpus

    gold = make_tree([0, 1, 1, 1])
    with pytest.raises(StructureError, match=r"^candidate 1 .* rooted tree: \[2, 1, 0, 3\]$"):
        rerank_corpus(None, [from_arrays(gold, [[2, 1, 0, 3]], [0.0])],
                      RerankConfig(alpha=0.5), model_scores=[[0.0]])


def test_from_arrays_holds_int64_and_float64_arrays_without_copying():
    gold = make_tree([0, 1, 1])
    heads, scores = np.array([[0, 1, 1], [0, 1, 2]]), np.array([-1.0, -2.0])
    kb = from_arrays(gold, heads, scores)
    assert kb.heads is heads and kb.scores is scores and not heads.flags.writeable
    kb = from_arrays(gold, [[0, 1, 2]], [-1])
    assert (kb.heads.dtype, kb.scores.dtype) == (np.int64, np.float64)
    assert kb.heads.tolist() == [[0, 1, 2]] and kb.scores.tolist() == [-1.0]


def test_a_list_read_line_by_line_is_checked_once(monkeypatch):
    """A list whose HEAD lines the block reader does not take has its trees
    checked where they are read, and not again in the reader's batch. Runs
    of spaces in a HEAD line are taken; a tab is not."""
    rows, exact = [], []
    rooted, read_candidates = treebank._rooted, treebank._read_candidates

    def counted(heads, width):
        rows.append(len(width))
        return rooted(heads, width)

    monkeypatch.setattr(treebank, "_rooted", counted)
    monkeypatch.setattr(treebank, "_read_candidates",
                        lambda *args: exact.append(1) or read_candidates(*args))
    for spacing, by_line in (("HEAD", 0), ("HEAD ", 0), ("HEAD\t", 1)):
        rows.clear(), exact.clear()
        lists = read_kbest(BIKE_BLOCK, f"SENT 0 2\nCAND 1 -1.0\n{spacing} 3  3 0\n"
                                       f"CAND 2 -2.0\n{spacing} 2 3   0\n")
        assert lists[0].heads.tolist() == [[3, 3, 0], [2, 3, 0]]
        assert sum(rows) == 1 + 2  # the gold tree, then each candidate once
        assert len(exact) == by_line


CYCLE = "1\ta\t_\tDT\tDT\t_\t2\t_\n2\tb\t_\tNN\tNN\t_\t1\t_\n"
NOT_UTF8 = "1\tb\t_\tNN\tNN\t_\t0\t_\n".encode() + b"2\t\xff\t_\tNN\tNN\t_\t1\t_\n"


def test_a_byte_that_is_not_utf8_is_an_error_at_its_line(tmp_path, capsys):
    """Errors come in file order across a decode error too: a cyclic first
    sentence is reported, not the byte in the second, in a gold file and in
    a k-best file, through the CLI as well."""
    cyclic = tmp_path / "cyclic.conll"
    cyclic.write_bytes(CYCLE.encode() + b"\n" + NOT_UTF8)
    with pytest.raises(StructureError, match=f"^{re.escape(str(cyclic))}: sentence 0: head "):
        load_conll(cyclic)
    gold = tmp_path / "gold.conll"
    gold.write_text(BIKE_BLOCK + "\n" + BIKE_BLOCK, encoding="utf-8")
    kbest = tmp_path / "cyclic.kbest"
    kbest.write_bytes(b"SENT 0 1\nCAND 1 -1.0\nHEAD 2 3 1\nSENT 1 1\nCAND 1 -1.0\nHEAD\xff 3 3 0\n")
    with pytest.raises(StructureError, match=f"^{re.escape(str(kbest))}: sentence 0, candidate 1"):
        read_kbest_files(gold, kbest)
    for args, message in (([cyclic, kbest], f"{cyclic}: sentence 0: head indices"),
                          ([gold, kbest], f"{kbest}: sentence 0, candidate 1: ")):
        assert main(["oracle", "--gold", str(args[0]), "--kbest", str(args[1])]) == 2
        assert capsys.readouterr().err.startswith(f"deprerank: error: {message}")
    # with nothing wrong before it, the byte is the error, named as before
    bad = tmp_path / "bad.conll"
    bad.write_bytes(BIKE_BLOCK.encode() + b"\n" + NOT_UTF8 + b"\n" + CYCLE.encode())
    message = f"^{re.escape(str(bad))}: not UTF-8 text \\(invalid start byte\\)$"
    with pytest.raises(EncodingError, match=message):
        load_conll(bad)
    with pytest.raises(EncodingError, match=message):
        read_kbest_files(bad, kbest)
    assert main(["oracle", "--gold", str(bad), "--kbest", str(kbest)]) == 2
    assert capsys.readouterr().err == (
        f"deprerank: error: {bad}: not UTF-8 text (invalid start byte)\n")


def test_a_line_error_before_the_byte_in_its_sentence_comes_first(tmp_path):
    path = tmp_path / "gold.conll"
    path.write_bytes(BIKE_BLOCK.encode() + b"\n1\tx\t_\tNN\tNN\t_\t0\n" + NOT_UTF8)
    with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: line 5: expected >= 8 "
                                         "tab-separated columns, got 7$") as err:
        load_conll(path)
    assert err.value.line == 5
