"""Treebank I/O, validation, and UAS evaluation."""

import dataclasses
import io
import itertools

import numpy as np
import pytest

from deprerank.errors import AlignmentError, ParseError, StructureError
from deprerank.treebank import (
    DependencyTree, EvalResult, KBestList, Token, corpus_oracle, is_rooted_tree, oracle_best,
    oracle_worst, parse_conll, read_kbest, resolve_punct_set, rooted_rows, uas, write_conll,
    write_kbest, PUNCT_SETS, _BLOCK_LINES,
)

from helpers import kbest_of, make_tree, reference_parse_conll, reference_read_kbest

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


def test_parsed_tokens_equal_validated_tokens():
    tree = parse_conll(BIKE_BLOCK)[0]
    rebuilt = tuple(Token(t.index, t.form, t.pos, t.head, t.cols) for t in tree.tokens)
    assert tree.tokens == rebuilt
    assert [hash(t) for t in tree.tokens] == [hash(t) for t in rebuilt]
    assert [t.cols for t in tree.tokens] == [t.cols for t in rebuilt]
    with pytest.raises(dataclasses.FrozenInstanceError):
        tree.tokens[0].head = 1
    # the parser skips the constructor's checks; a caller's Token still runs them
    for index, head in ((0, 1), (2, -1), (2, 2)):
        with pytest.raises(StructureError):
            Token(index, "a", "DT", head)


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


def test_multiple_roots_strict_and_lenient():
    block = ("1\ta\t_\tDT\tDT\t_\t0\t_\n"
             "2\tb\t_\tNN\tNN\t_\t0\t_\n")
    with pytest.raises(StructureError):
        parse_conll(block)
    trees = parse_conll(block, allow_multiple_roots=True)
    assert trees[0].heads == [0, 0]


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
    # Oracle: BFS reachability over every head vector of length <= 5.
    def oracle(heads):
        n = len(heads)
        if any(h == i + 1 for i, h in enumerate(heads)):
            return False
        if sum(1 for h in heads if h == 0) != 1:
            return False
        reached = {0}
        frontier = [0]
        while frontier:
            node = frontier.pop()
            for i, h in enumerate(heads):
                if h == node and i + 1 not in reached:
                    reached.add(i + 1)
                    frontier.append(i + 1)
        return len(reached) == n + 1

    for n in range(1, 6):
        for heads in itertools.product(range(n + 1), repeat=n):
            assert is_rooted_tree(heads) == oracle(heads), heads


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


@pytest.mark.parametrize("score", ["nan", "inf", "-inf", "NaN", "Infinity"])
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
    best_idx, best = oracle_best(kb)
    worst_idx, worst = oracle_worst(kb)
    assert best_idx == 1 and best.uas == 1.0
    assert worst_idx == 0 and worst.uas == pytest.approx(0.8)


def test_oracle_singleton_and_ties():
    gold = make_tree([0, 1])
    single = kbest_of(gold, [([0, 1], -1.0)])
    assert oracle_best(single)[0] == 0 == oracle_worst(single)[0]
    tie = kbest_of(gold, [([2, 0], -1.0), ([2, 0], -2.0)])
    assert oracle_best(tie)[0] == 0
    assert oracle_worst(tie)[0] == 0


def test_oracle_empty_candidates():
    gold = make_tree([0])
    with pytest.raises(ValueError):
        oracle_best(KBestList(gold, ()))


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


def _chain(n):
    """Gold of n tokens, each headed by the one before it."""
    return make_tree(list(range(n)))


def test_conll_errors_come_in_file_order_across_batches():
    cycle = "1\ta\t_\tDT\tDT\t_\t2\t_\n2\tb\t_\tNN\tNN\t_\t1\t_\n"
    # the first sentence alone fills a batch, so the cycle opens the second
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
    for multi in (False, True):
        expected = [is_rooted_tree(row, multi) for m in mats for row in m.tolist()]
        assert rooted_rows(mats, multi).tolist() == expected  # widths mixed in one pass
        for m in mats:
            assert rooted_rows([m], multi).tolist() == [is_rooted_tree(r, multi) for r in m.tolist()]


def test_candidates_are_built_on_demand(monkeypatch):
    gold = make_tree([2, 0, 2, 2])
    text = write_kbest([kbest_of(gold, [([2, 0, 2, 2], -1.0), ([0, 1, 2, 2], -2.5),
                                        ([2, 0, 4, 2], -3.0)])])
    kb = read_kbest(write_conll([gold]), text)[0]
    built = []
    with_heads = DependencyTree.with_heads

    def counted(self, heads, **kw):
        built.append(list(heads))
        return with_heads(self, heads, **kw)

    monkeypatch.setattr(DependencyTree, "with_heads", counted)
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
