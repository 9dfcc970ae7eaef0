"""Parameter tables: init, lookups, pretrained vectors, persistence."""

import io

import numpy as np
import pytest

from deprerank.errors import FormatError, ModelIOError, ParseError
from deprerank.params import (
    Hyperparams, ParamSet, ROOT_FORM, UNK_FORM, build_pos_vocab, build_word_vocab,
    init_random, load, load_pretrained, save,
)

from helpers import BAD_MODELS, make_tree, model_bytes, model_parts, tiny_params


def test_same_seed_is_bit_identical():
    a = tiny_params(seed=11)
    b = tiny_params(seed=11)
    a.get_pair("NN", "DT", create_if_missing=True)
    b.get_pair("NN", "DT", create_if_missing=True)
    assert a.equals(b)
    assert not a.equals(tiny_params(seed=12))


def test_init_entries_inside_open_interval():
    p = tiny_params(m=5, m_d=4, seed=3)
    p.get_pair("NN", "DT", create_if_missing=True)
    for arr in (p.words.vectors, p.distances.vectors, p.pos_pairs.W, p.pos_pairs.v):
        assert np.all(np.abs(arr) < 0.01)


def test_default_composition_shape():
    hyper = Hyperparams()
    assert (hyper.m, hyper.m_d, hyper.n) == (25, 25, 75)
    p = init_random(hyper, ["the"], ["DT"], seed=0)
    W, v = p.get_pair("NN", "DT", create_if_missing=True)
    assert W.shape == (25, 75)
    assert v.shape == (25,)


def test_lookup_word_oov_maps_to_unk():
    p = tiny_params()
    assert np.array_equal(p.lookup_word("never-seen-zzz"), p.lookup_word(UNK_FORM))
    assert np.shares_memory(p.lookup_word("w1"), p.words.vectors)


def test_distance_clipping():
    p = tiny_params()
    assert np.array_equal(p.lookup_distance(-37), p.lookup_distance(-10))
    assert np.array_equal(p.lookup_distance(99), p.lookup_distance(10))
    assert p.clip_distance(1 - 3) == -2
    assert not np.array_equal(p.lookup_distance(-2), p.lookup_distance(2))


def test_get_pair_idempotent_and_distinct():
    p = tiny_params()
    W1, v1 = p.get_pair("NN", "DT", create_if_missing=True)
    W2, v2 = p.get_pair("NN", "DT", create_if_missing=True)
    assert np.shares_memory(W1, W2) and np.shares_memory(v1, v2)
    Wa, _ = p.get_pair("JJ", "NN", create_if_missing=True)
    Wb, _ = p.get_pair("VB", "NN", create_if_missing=True)
    assert not np.array_equal(Wa, Wb)


def test_pair_creation_order_independent():
    a = tiny_params(seed=5)
    b = tiny_params(seed=5)
    a.get_pair("NN", "DT", create_if_missing=True)
    a.get_pair("VB", "NN", create_if_missing=True)
    b.get_pair("VB", "NN", create_if_missing=True)
    b.get_pair("NN", "DT", create_if_missing=True)
    assert np.array_equal(a.get_pair("NN", "DT")[0], b.get_pair("NN", "DT")[0])
    assert np.array_equal(a.get_pair("VB", "NN")[0], b.get_pair("VB", "NN")[0])


def test_unseen_pair_uses_fallback():
    p = tiny_params()
    W, v = p.get_pair("XX", "YY")
    Wf, vf = p.pos_pairs.get(p.pos_pairs.FALLBACK_SLOT)
    assert np.shares_memory(W, Wf) and np.shares_memory(v, vf)
    assert p.pos_pairs.slot("XX", "YY") == 0


def test_fallback_finalized_to_mean_leaving_pairs_alone():
    p = tiny_params()
    W1, _ = p.get_pair("NN", "DT", create_if_missing=True)
    W2, _ = p.get_pair("JJ", "NN", create_if_missing=True)
    w1_before, w2_before = W1.copy(), W2.copy()
    p.pos_pairs.finalize_fallback()
    Wf, vf = p.pos_pairs.get(0)
    assert np.array_equal(Wf, (w1_before + w2_before) / 2)
    assert np.array_equal(p.get_pair("NN", "DT")[0], w1_before)
    assert np.array_equal(p.get_pair("JJ", "NN")[0], w2_before)


def test_save_leaves_its_argument_alone():
    p = tiny_params()
    p.get_pair("NN", "DT", create_if_missing=True)
    p.get_pair("JJ", "NN", create_if_missing=True)
    before = p.copy()
    buf = io.BytesIO()
    save(p, buf)
    assert p.equals(before)  # slot 0 is not replaced by the pairs' mean
    buf.seek(0)
    assert load(buf).equals(p)


def test_dimension_consistency_on_every_store():
    p = tiny_params(m=4, m_d=2)
    for pair in [("A", "B"), ("B", "C"), ("C", "A")]:
        W, v = p.get_pair(*pair, create_if_missing=True)
        assert W.shape == (4, 10)
        assert v.shape == (4,)


def test_build_vocabs():
    trees = [make_tree([0, 1], forms=["the", "cat"], tags=["DT", "NN"]),
             make_tree([0], forms=["the"], tags=["DT"])]
    assert build_word_vocab(trees, min_freq=2) == ["the"]
    assert build_word_vocab(trees, min_freq=1) == ["cat", "the"]
    assert build_pos_vocab(trees) == ["DT", "NN", "ROOT"]


def test_load_pretrained_overwrites_in_vocab_rows():
    p = tiny_params(m=3)
    text = "2 3\nw1 1.5 -0.25 0.125\nnot-in-vocab 9 9 9\n"
    assert load_pretrained(p, io.StringIO(text)) == 1
    assert np.array_equal(p.lookup_word("w1"), [1.5, -0.25, 0.125])


def test_load_pretrained_all_oov_is_noop():
    p = tiny_params(m=3)
    before = p.words.vectors.copy()
    assert load_pretrained(p, io.StringIO("1 3\nzzz 1 2 3\n")) == 0
    assert np.array_equal(p.words.vectors, before)


def test_load_pretrained_dim_mismatch():
    p = tiny_params(m=3)
    with pytest.raises(FormatError):
        load_pretrained(p, io.StringIO("1 300\nw1 " + " ".join(["0"] * 300) + "\n"))


def test_load_pretrained_malformed_float():
    p = tiny_params(m=3)
    with pytest.raises(ParseError, match="line 2"):
        load_pretrained(p, io.StringIO("1 3\nw1 0.5 oops 0.5\n"))


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
def test_load_pretrained_rejects_non_finite_values(value):
    p = tiny_params(m=3)
    before = p.words.vectors.copy()
    with pytest.raises(ParseError, match="line 3: non-finite value in vector for 'w1'"):
        load_pretrained(p, io.StringIO(f"2 3\nw2 1 2 3\nw1 0.5 {value} 0.5\n"))
    assert np.array_equal(p.words.vectors[p.words.rows["w1"]], before[p.words.rows["w1"]])


def test_save_load_roundtrip_bit_exact():
    p = tiny_params(m=4, m_d=3, seed=9)
    p.get_pair("NN", "DT", create_if_missing=True)
    p.get_pair("VB", "IN", create_if_missing=True)
    buf = io.BytesIO()
    save(p, buf)
    buf.seek(0)
    q = load(buf)
    assert q.equals(p)
    assert q.hyper == p.hyper


def test_save_is_byte_deterministic():
    bufs = []
    for _ in range(2):
        p = tiny_params(seed=4)
        p.get_pair("NN", "DT", create_if_missing=True)
        buf = io.BytesIO()
        save(p, buf)
        bufs.append(buf.getvalue())
    assert bufs[0] == bufs[1]


def test_load_rejects_wrong_version_and_magic():
    p = tiny_params()
    buf = io.BytesIO()
    save(p, buf)
    data = bytearray(buf.getvalue())
    data[4] = 99  # bump the version field
    with pytest.raises(ModelIOError, match="version"):
        load(io.BytesIO(bytes(data)))
    with pytest.raises(ModelIOError, match="magic"):
        load(io.BytesIO(b"NOPE" + buf.getvalue()[4:]))


def test_load_truncated_file_fails():
    p = tiny_params()
    buf = io.BytesIO()
    save(p, buf)
    data = buf.getvalue()
    for cut in (2, 10, len(data) // 2, len(data) - 1):
        with pytest.raises(ModelIOError):
            load(io.BytesIO(data[:cut]))
    with pytest.raises(ModelIOError):
        load(io.BytesIO(data + b"x"))


def test_hyperparams_validation():
    with pytest.raises(ValueError):
        Hyperparams(m=0)
    with pytest.raises(ValueError):
        Hyperparams(alpha=1.5)
    with pytest.raises(ValueError):
        Hyperparams(rho=-0.1)


def test_root_and_unk_always_present():
    p = init_random(Hyperparams(m=2, m_d=2), [], ["NN"], seed=0)
    assert UNK_FORM in p.words.rows
    assert ROOT_FORM in p.words.rows
    assert p.lookup_word(ROOT_FORM).shape == (2,)


@pytest.mark.parametrize("case", sorted(BAD_MODELS))
def test_load_rejects_bad_header(case):
    build, message = BAD_MODELS[case]
    data = build(tiny_params())
    with pytest.raises(ModelIOError, match=message):
        load(io.BytesIO(data))


def test_load_rejects_ill_typed_header_fields():
    header, payload = model_parts(tiny_params())
    for key, value in (("seed", "7"), ("seed", -1), ("words", "w1"), ("pairs", [["NN"]]),
                       ("pos_vocab", [1]), ("hyper", [])):
        bad = dict(header, **{key: value})
        with pytest.raises(ModelIOError, match=repr(key)):
            load(io.BytesIO(model_bytes(bad, payload)))
    for key, value in (("m", 2.0), ("m", True), ("rho", "0.1"), ("rho", float("nan"))):
        bad = dict(header, hyper=dict(header["hyper"], **{key: value}))
        with pytest.raises(ModelIOError):
            load(io.BytesIO(model_bytes(bad, payload)))
    with pytest.raises(ModelIOError, match="JSON object"):
        load(io.BytesIO(model_bytes(b"[1, 2]", payload)))
    with pytest.raises(ModelIOError, match="corrupt model header"):
        load(io.BytesIO(model_bytes(b"[" * 100000, payload)))


def test_load_of_a_huge_distance_table_fails_as_truncated():
    header, payload = model_parts(tiny_params())
    header["hyper"]["dist_clip"] = 10 ** 12
    with pytest.raises(ModelIOError, match="truncated"):
        load(io.BytesIO(model_bytes(header, payload)))
