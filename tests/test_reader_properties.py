"""Property tests of the readers: any input parses or raises a DataError, and
the k-best reader agrees with a per-candidate reference reader."""

import io

from hypothesis import HealthCheck, given, settings, strategies as st

from deprerank.errors import DataError
from deprerank.params import load
from deprerank.treebank import parse_conll, read_kbest, write_conll

from helpers import make_tree, model_bytes, model_parts, reference_read_kbest, tiny_params

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
@given(st.one_of(st.text(max_size=120), conll_text), st.booleans())
def test_parse_conll_parses_or_raises_a_data_error(text, multi):
    try:
        parse_conll(text, allow_multiple_roots=multi)
    except DataError:
        pass


@FUZZ
@given(st.one_of(st.text(max_size=120), kbest_text), st.booleans())
def test_read_kbest_parses_or_raises_a_data_error(text, multi):
    try:
        read_kbest(GOLD_TEXT, text, allow_multiple_roots=multi)
    except DataError:
        pass


@st.composite
def rooted_heads(draw, n, multi):
    """A head vector that forms a tree (a forest under the root with multi)."""
    order = draw(st.permutations(range(1, n + 1)))
    heads = [0] * n
    for i, node in enumerate(order[1:], start=1):
        heads[node - 1] = draw(st.sampled_from(([0] if multi else []) + list(order[:i])))
    return heads


@st.composite
def kbest_files(draw):
    """(gold text, candidate lines, allow_multiple_roots) of a well-formed file.

    HEAD lines are usually canonical, sometimes spaced with tabs, runs of
    spaces or leading zeros, which the format allows too.
    """
    multi = draw(st.booleans())
    golds, lines = [], []
    for idx in range(draw(st.integers(1, 3))):
        n = draw(st.integers(1, 7))
        gold = make_tree(draw(rooted_heads(n, False)))
        golds.append(gold)
        k = draw(st.integers(1, 4))
        lines.append(f"SENT {idx} {k}")
        for rank in range(1, k + 1):
            score = draw(st.floats(allow_nan=False, allow_infinity=False))
            lines.append(f"CAND {rank} {score!r}")
            heads = [str(h) for h in draw(rooted_heads(n, multi))]
            if draw(st.integers(0, 3)) == 0:
                heads = [draw(st.sampled_from(("", "0", "00"))) + h for h in heads]
                sep = draw(st.sampled_from(("  ", "\t", " \t ")))
                lines.append("HEAD" + sep + sep.join(heads) + draw(st.sampled_from(("", " "))))
            else:
                lines.append("HEAD " + " ".join(heads))
    return write_conll(golds), lines, multi


def _outcome(reader, gold_text, cand_text, multi):
    """('ok', heads, score bits) per list, or ('error', class, message, line)."""
    try:
        lists = reader(gold_text, cand_text, allow_multiple_roots=multi)
    except DataError as e:
        return ("error", type(e), str(e), getattr(e, "line", None))
    if reader is read_kbest:
        return ("ok", [(kb.heads.tolist(), [s.hex() for s in kb.scores.tolist()])
                       for kb in lists])
    return ("ok", [([t.heads for t, _ in cands], [s.hex() for _, s in cands])
                   for _, cands in lists])


@FUZZ
@given(kbest_files())
def test_read_kbest_matches_the_per_candidate_reader(files):
    gold_text, lines, multi = files
    text = "\n".join(lines) + "\n"
    new = _outcome(read_kbest, gold_text, text, multi)
    assert new[0] == "ok"
    assert new == _outcome(reference_read_kbest, gold_text, text, multi)


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
        fields[2] = data.draw(st.sampled_from(("nan", "-inf", "x")))
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
@given(kbest_files(), st.data())
def test_read_kbest_fails_like_the_per_candidate_reader(files, data):
    """One mutation, or two where the second comes later in the file: then
    the error reported must be the first in file order, as the
    per-candidate reader reports it."""
    gold_text, lines, multi = files
    lines, at = _mutate(lines, data)
    if data.draw(st.booleans()):
        lines, _ = _mutate(lines, data, after=at + 1)
    text = "\n".join(lines) + "\n"
    assert (_outcome(read_kbest, gold_text, text, multi)
            == _outcome(reference_read_kbest, gold_text, text, multi))


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
