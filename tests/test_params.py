"""Parameter tables: init, lookups, pretrained vectors, persistence."""

import io
import tracemalloc

import numpy as np
import pytest

from deprerank.errors import FormatError, ModelIOError, ParseError
from deprerank.params import (
    TABLES, Hyperparams, ParamSet, ROOT_FORM, UNK_FORM, _stable_hash, build_pos_vocab,
    build_word_vocab, init_random, load, load_pretrained, save, stream_keys, table_bytes,
    uniform_draws,
)

from helpers import (
    BAD_MODELS, dist_vec, get_pair, make_tree, model_bytes, model_parts, same_params,
    tiny_params, word_vec,
)


def test_same_seed_is_bit_identical():
    a = tiny_params(seed=11)
    b = tiny_params(seed=11)
    get_pair(a, "NN", "DT", create=True)
    get_pair(b, "NN", "DT", create=True)
    assert same_params(a, b)
    assert not same_params(a, tiny_params(seed=12))


def test_init_entries_inside_open_interval():
    p = tiny_params(m=5, m_d=4, seed=3)
    get_pair(p, "NN", "DT", create=True)
    for arr in (p.words.vectors, p.distances.vectors, p.pos_pairs.W, p.pos_pairs.v):
        assert np.all(np.abs(arr) < 0.01)


_M64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def splitmix64_finalizer(z):
    """SplitMix64's finalizer (Steele, Lea & Flood 2014), in Python integers."""
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _M64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _M64
    return z ^ (z >> 31)


def inside_the_interval(t):
    """A 52-bit integer t mapped to ((2t + 1) / 2^52 - 1) * 0.01."""
    return ((2 * t + 1) * 2.0 ** -52 - 1.0) * 0.01


def reference_draw(key, j):
    """Draw j of `key`, one Python integer at a time: the top 52 bits of the
    finalizer of key + (j + 1) * gamma, mapped inside the interval."""
    return inside_the_interval(splitmix64_finalizer((key + (j + 1) * _GAMMA) & _M64) >> 12)


def test_draws_are_splitmix64_outputs_mapped_inside_the_open_interval():
    # SplitMix64 seeded with 1234567 first gives these three outputs
    assert [splitmix64_finalizer((1234567 + j * _GAMMA) & _M64) for j in (1, 2, 3)] == [
        6457827717110365317, 3203168211198807973, 9817491932198370423]
    assert uniform_draws([1234567], 3).tolist() == [[reference_draw(1234567, j)
                                                     for j in range(3)]]
    # 40 keys of 1,000 draws take two blocks of rows; one key of 65,541 three of columns
    keys = stream_keys(7, np.arange(40, dtype=np.uint64))
    assert uniform_draws(keys, 1000).tolist() == [[reference_draw(key, j) for j in range(1000)]
                                                  for key in keys.tolist()]
    [long] = uniform_draws([_M64], 2 * 32768 + 5)
    for j in (0, 32767, 32768, 65535, 65536, 65540):
        assert long[j] == reference_draw(_M64, j)
    # the extreme values of t stay inside the bounds, and the draws fill them
    assert -0.01 < inside_the_interval(0) < inside_the_interval(2 ** 52 - 1) < 0.01
    draws = uniform_draws(stream_keys(3, np.arange(200, dtype=np.uint64)), 5000)
    assert np.abs(draws).max() < 0.01
    assert draws.min() < -0.00999 and draws.max() > 0.00999 and abs(draws.mean()) < 1e-4
    assert uniform_draws(keys, 0).shape == (40, 0) and uniform_draws([], 4).shape == (0, 4)


def test_each_table_draws_from_the_stream_of_the_seed_and_its_name():
    p = tiny_params(m=3, m_d=2, seed=8, dist_clip=4)
    m, n = 3, p.hyper.n
    for table, values in (("words", p.words.vectors), ("distances", p.distances.vectors),
                          ("fallback", np.concatenate([p.pos_pairs.W.reshape(-1),
                                                       p.pos_pairs.v.reshape(-1)]))):
        [want] = uniform_draws(stream_keys(8, _stable_hash(table)), values.size)
        assert values.tobytes() == want.tobytes()
    assert p.pos_pairs.W.shape == (1, m, n) and p.pos_pairs.v.shape == (1, m)


def test_a_pair_draws_the_same_bytes_alone_in_a_batch_or_reversed():
    # pairs that share a head, or a child, still draw their own W and v, and
    # v continues the pair's stream after W
    pairs = [("NN", "DT"), ("NN", "JJ"), ("DT", "NN"), ("VB", "NN"), ("ROOT", "VB")]
    stores = [tiny_params(seed=9).pos_pairs for _ in range(3)]
    for pair in pairs:
        stores[0].add([pair])
    stores[1].add(pairs)
    stores[2].add(pairs[::-1])
    m, n = stores[0].W.shape[1:]
    seen = set()
    for head, child in pairs:
        W, v = stores[0].get(stores[0].slot(head, child))
        for store in stores[1:]:
            other_W, other_v = store.get(store.slot(head, child))
            assert other_W.tobytes() == W.tobytes() and other_v.tobytes() == v.tobytes()
        [draws] = uniform_draws(stream_keys(9, 0x70A1, _stable_hash(head), _stable_hash(child)),
                                m * n + m)
        assert W.tobytes() == draws[:m * n].tobytes() and v.tobytes() == draws[m * n:].tobytes()
        seen.add(W.tobytes())
    assert len(seen) == len(pairs)
    assert stores[2].pairs() == pairs[::-1]


def test_default_composition_shape():
    hyper = Hyperparams()
    assert (hyper.m, hyper.m_d, hyper.n) == (25, 25, 75)
    p = init_random(hyper, ["the"], ["DT"], seed=0)
    W, v = get_pair(p, "NN", "DT", create=True)
    assert W.shape == (25, 75)
    assert v.shape == (25,)


def test_lookup_word_oov_maps_to_unk():
    p = tiny_params()
    assert p.word_row("never-seen-zzz") == p.word_row(UNK_FORM) == p.words.rows[UNK_FORM]
    assert p.word_row("w1") == p.words.rows["w1"] != p.word_row(UNK_FORM)


def test_distance_clipping():
    p = tiny_params()
    assert np.array_equal(dist_vec(p, -37), dist_vec(p, -10))
    assert np.array_equal(dist_vec(p, 99), dist_vec(p, 10))
    assert p.distance_row(1 - 3) == p.distances.rows[-2]
    assert not np.array_equal(dist_vec(p, -2), dist_vec(p, 2))


def test_both_constructors_put_delta_d_at_row_d_plus_clip():
    # the plan builders compute a distance row as the clipped delta + dist_clip
    p = tiny_params(dist_clip=4)
    buf = io.BytesIO()
    save(p, buf)
    buf.seek(0)
    for params in (p, load(buf)):
        assert [params.distance_row(d) for d in range(-6, 7)] == [0, 0, *range(9), 8, 8]
        assert params.distances.keys == range(-4, 5)


def test_the_distance_table_holds_no_object_per_row():
    # 400,001 distance rows: a table and its copy allocate about their float64
    # rows, where a list and a dict of the keys took about 90 MB more
    hyper = Hyperparams(m=4, m_d=4, dist_clip=200_000)
    tracemalloc.start()
    try:
        params = init_random(hyper, ["w1"], ["NN"], seed=1)
        copy = params.copy()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    floats = params.distances.vectors.nbytes + copy.distances.vectors.nbytes
    assert floats == 2 * 400_001 * 4 * 8
    assert peak < 1.5 * floats
    assert table_bytes(hyper, 1, 0) < 1.01 * params.distances.vectors.nbytes
    for table in (params.distances, copy.distances):
        assert [table.rows[d] for d in (-200_000, -1, 0, 200_000)] == [0, 199_999, 200_000, 400_000]
        with pytest.raises(KeyError):
            table.rows[200_001]


def test_get_pair_idempotent_and_distinct():
    p = tiny_params()
    W1, v1 = get_pair(p, "NN", "DT", create=True)
    W2, v2 = get_pair(p, "NN", "DT", create=True)
    assert np.shares_memory(W1, W2) and np.shares_memory(v1, v2)
    Wa, _ = get_pair(p, "JJ", "NN", create=True)
    Wb, _ = get_pair(p, "VB", "NN", create=True)
    assert not np.array_equal(Wa, Wb)


def test_pair_creation_order_independent():
    a = tiny_params(seed=5)
    b = tiny_params(seed=5)
    get_pair(a, "NN", "DT", create=True)
    get_pair(a, "VB", "NN", create=True)
    get_pair(b, "VB", "NN", create=True)
    get_pair(b, "NN", "DT", create=True)
    assert np.array_equal(get_pair(a, "NN", "DT")[0], get_pair(b, "NN", "DT")[0])
    assert np.array_equal(get_pair(a, "VB", "NN")[0], get_pair(b, "VB", "NN")[0])


def test_unseen_pair_uses_fallback():
    p = tiny_params()
    W, v = get_pair(p, "XX", "YY")
    Wf, vf = p.pos_pairs.get(p.pos_pairs.FALLBACK_SLOT)
    assert np.shares_memory(W, Wf) and np.shares_memory(v, vf)
    assert p.pos_pairs.slot("XX", "YY") == 0


def test_fallback_finalized_to_mean_leaving_pairs_alone():
    p = tiny_params()
    W1, _ = get_pair(p, "NN", "DT", create=True)
    W2, _ = get_pair(p, "JJ", "NN", create=True)
    w1_before, w2_before = W1.copy(), W2.copy()
    p.pos_pairs.finalize_fallback()
    Wf, vf = p.pos_pairs.get(0)
    assert np.array_equal(Wf, (w1_before + w2_before) / 2)
    assert np.array_equal(get_pair(p, "NN", "DT")[0], w1_before)
    assert np.array_equal(get_pair(p, "JJ", "NN")[0], w2_before)


def test_save_leaves_its_argument_alone():
    p = tiny_params()
    get_pair(p, "NN", "DT", create=True)
    get_pair(p, "JJ", "NN", create=True)
    before = p.copy()
    buf = io.BytesIO()
    save(p, buf)
    assert same_params(p, before)  # slot 0 is not replaced by the pairs' mean
    buf.seek(0)
    assert same_params(load(buf), p)


def test_dimension_consistency_on_every_store():
    p = tiny_params(m=4, m_d=2)
    for pair in [("A", "B"), ("B", "C"), ("C", "A")]:
        W, v = get_pair(p, *pair, create=True)
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
    assert np.array_equal(word_vec(p, "w1"), [1.5, -0.25, 0.125])


def test_load_pretrained_all_oov_is_noop():
    p = tiny_params(m=3)
    before = p.words.vectors.copy()
    assert load_pretrained(p, io.StringIO("1 3\nzzz 1 2 3\n")) == 0
    assert np.array_equal(p.words.vectors, before)


def test_load_pretrained_counts_lines_and_the_last_line_wins():
    p = tiny_params(m=3)
    text = "3 3\nw1 1 2 3\nzzz 0 0 0\nw1 4 5 6\n"
    assert load_pretrained(p, io.StringIO(text)) == 2
    assert np.array_equal(word_vec(p, "w1"), [4, 5, 6])


@pytest.mark.parametrize("bad", ["w3 1 x 3", "w3 1 nan 3", "w3 1 2"])
def test_load_pretrained_is_all_or_nothing(bad):
    p = tiny_params(m=3)
    before = p.words.vectors.tobytes()
    with pytest.raises(ParseError, match="line 4"):
        load_pretrained(p, io.StringIO(f"3 3\nw1 1 2 3\nw2 4 5 6\n{bad}\n"))
    assert p.words.vectors.tobytes() == before


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
    get_pair(p, "NN", "DT", create=True)
    get_pair(p, "VB", "IN", create=True)
    buf = io.BytesIO()
    save(p, buf)
    buf.seek(0)
    q = load(buf)
    assert same_params(q, p)
    assert q.hyper == p.hyper


def test_loaded_and_copied_pairs_grow_like_the_original():
    p = tiny_params(m=4, m_d=3, seed=9)
    for pair in [("NN", "DT"), ("VB", "IN"), ("DT", "NN")]:
        get_pair(p, *pair, create=True)
    buf = io.BytesIO()
    save(p, buf)
    buf.seek(0)
    loaded, copied = load(buf), p.copy()
    for q in (p, loaded, copied):
        assert q.pos_pairs.pairs() == [("NN", "DT"), ("VB", "IN"), ("DT", "NN")]
        for pair in [("IN", "VB"), ("JJ", "NN"), ("NN", "DT")]:
            get_pair(q, *pair, create=True)
    assert same_params(loaded, p) and same_params(copied, p)
    copied.pos_pairs.W[1] += 1.0
    assert not same_params(copied, p) and same_params(loaded, p)


def test_the_model_file_holds_the_tables_in_their_order():
    p = tiny_params(m=4, m_d=3, seed=9, dist_clip=5)
    get_pair(p, "NN", "DT", create=True)
    tables = p.tables()
    assert len(tables) == len(TABLES) == 4
    assert all(a is b for a, b in zip(tables, (p.words.vectors, p.distances.vectors,
                                               p.pos_pairs.W, p.pos_pairs.v)))
    assert [t.shape for t in tables] == [(len(p.words), 4), (11, 3), (2, 4, 11), (2, 4)]
    assert model_parts(p)[1] == b"".join(t.tobytes() for t in tables)
    # `add` replaces W and v, and `tables()` reads the new ones
    get_pair(p, "VB", "IN", create=True)
    assert p.tables()[2] is p.pos_pairs.W and p.tables()[3] is p.pos_pairs.v
    assert [len(t) for t in p.tables()[2:]] == [3, 3]
    assert model_parts(p)[1] == b"".join(t.tobytes() for t in p.tables())


def test_save_is_byte_deterministic():
    bufs = []
    for _ in range(2):
        p = tiny_params(seed=4)
        get_pair(p, "NN", "DT", create=True)
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
        Hyperparams(rho=-0.1)


def test_load_takes_a_header_that_still_holds_alpha():
    # models saved before the unused alpha setting was dropped carry it
    p = tiny_params()
    header, payload = model_parts(p)
    assert "alpha" not in header["hyper"]
    header["hyper"]["alpha"] = 0.5
    loaded, saved = io.BytesIO(), io.BytesIO()
    save(load(io.BytesIO(model_bytes(header, payload))), loaded)
    save(p, saved)
    assert loaded.getvalue() == saved.getvalue()


def test_root_and_unk_always_present():
    p = init_random(Hyperparams(m=2, m_d=2), [], ["NN"], seed=0)
    assert UNK_FORM in p.words.rows
    assert ROOT_FORM in p.words.rows
    assert word_vec(p, ROOT_FORM).shape == (2,)


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


def test_the_pair_table_agrees_with_the_index(tmp_path):
    # `slots` reads a table made from `index`: it must follow every pair
    # created, a copy, and a saved and loaded model; a tag no pair has ("XX")
    # reads the fallback slot
    p = tiny_params(seed=2)
    tags = ["ROOT", "NN", "DT", "VB", "XX"]

    def assert_agrees(store):
        want = [[store.index.get((head, child), 0) for child in tags] for head in tags]
        got = store.slots(tags)
        assert got.dtype == np.int64 and got.tolist() == want

    assert_agrees(p.pos_pairs)  # no pair yet
    for head, child in (("NN", "DT"), ("ROOT", "VB"), ("VB", "NN"), ("NN", "NN")):
        p.pos_pairs.slot(head, child, create=True)
        assert_agrees(p.pos_pairs)
    copy = p.copy().pos_pairs
    assert_agrees(copy)
    copy.add([("DT", "VB")])
    assert_agrees(copy)
    assert p.pos_pairs.slots(tags)[2, 3] == 0  # the original did not change
    save(p, tmp_path / "model.bin")
    loaded = load(tmp_path / "model.bin").pos_pairs
    assert loaded.index == p.pos_pairs.index
    assert_agrees(loaded)
