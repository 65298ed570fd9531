"""Label container and file-format tests: round trips, determinism, magic,
pinned file contents, and header parameters for every scheme."""

import dataclasses
import functools
import hashlib
import random
import tracemalloc

import numpy as np
import pytest

from distlab import (
    INF,
    AdditiveParams,
    Graph,
    PreservingParams,
    decode_matrix,
    encode_additive,
    encode_bounded_degree,
    encode_full,
    encode_medium,
    encode_sparse,
    encode_trivial,
    encode_warmup,
    gen_gnm,
    gen_path,
    verify_labels,
)
from distlab import harness
from distlab.bits import BitCursor, Bits, BitWriter, gamma_length
from distlab.errors import CodecError, LabelError
from distlab.labels import (
    MAGIC, PAIR_DECODERS, SCHEMES, SET_PARSERS, LabelSet, decode_pair, dumps, load_labels, loads,
    save_labels,
)
from distlab.preserving import _sentinel, parse_full_set

pytestmark = pytest.mark.filterwarnings("ignore:r=.*exceeds")


def all_scheme_labelsets(seed=1, g=None):
    g = gen_gnm(24, 48, seed=seed) if g is None else g
    return g, {
        "trivial": encode_trivial(g),
        "warmup": encode_warmup(g, PreservingParams(D=3, seed=seed)),
        "medium": encode_medium(g, PreservingParams(D=3, seed=seed)),
        "full": encode_full(g, PreservingParams(D=3, seed=seed)),
        "bdeg": encode_bounded_degree(g, max(2, g.max_degree()), seed),
        "sparse": encode_sparse(g, seed),
        "additive": encode_additive(g, AdditiveParams(r=2, t=6, D=2, seed=seed)),
    }


def test_roundtrip_every_scheme(tmp_path):
    g, sets = all_scheme_labelsets()
    for name, ls in sets.items():
        path = tmp_path / f"{name}.dlab"
        save_labels(ls, path)
        back = load_labels(path)
        assert back.scheme == ls.scheme
        assert back.n == ls.n
        assert back.params == ls.params
        assert back.labels == ls.labels
        assert back.decode(0, 5) == ls.decode(0, 5)


def test_magic_header():
    _, sets = all_scheme_labelsets()
    blob = dumps(sets["full"])
    assert blob.startswith(MAGIC)
    with pytest.raises(LabelError, match="magic"):
        loads(b"NOPE" + blob)


def test_serialization_deterministic_per_seed():
    _, a = all_scheme_labelsets(seed=7)
    _, b = all_scheme_labelsets(seed=7)
    for name in a:
        assert dumps(a[name]) == dumps(b[name]), name
    _, c = all_scheme_labelsets(seed=8)
    assert dumps(a["full"]) != dumps(c["full"])


def test_label_count_must_match_n():
    _, sets = all_scheme_labelsets()
    ls = sets["trivial"]
    ls.n += 1
    with pytest.raises(LabelError):
        dumps(ls)


def test_truncated_file_rejected():
    _, sets = all_scheme_labelsets()
    blob = dumps(sets["medium"])
    with pytest.raises((LabelError, CodecError)):
        loads(blob[: len(blob) // 2])


def test_bytes_after_the_last_record_rejected():
    for ls in all_scheme_labelsets()[1].values():
        with pytest.raises(CodecError, match="not zero padding"):
            loads(dumps(ls) + b"\0\0\0")


def test_set_padding_bit_rejected():
    # a trivial file holds gamma(tag=1), gamma(D=1), gamma(1), gamma(n+1),
    # then per label gamma(id+1), gamma(bits+1) and the bits
    checked = 0
    for n in range(1, 9):
        ls = encode_trivial(gen_path(n))
        used = 3 + gamma_length(n + 1) + sum(
            gamma_length(i + 1) + gamma_length(b.nbits + 1) + b.nbits
            for i, b in enumerate(ls.labels)
        )
        blob = dumps(ls)
        assert len(blob) == len(MAGIC) + (used + 7) // 8
        assert loads(blob).labels == ls.labels
        for bit in range(-used % 8):  # each padding bit of the last byte
            with pytest.raises(CodecError, match="not zero padding"):
                loads(blob[:-1] + bytes([blob[-1] | 1 << bit]))
            checked += 1
    assert checked


BAD_HEADER_PARAMS = [  # (scheme, param, value or None to drop it, error)
    ("trivial", "D", None, "header param D is missing"),
    ("warmup", "landmarks", None, "header param landmarks is missing"),
    ("full", "landmark_counts", None, "header param landmark_counts is missing"),
    ("bdeg", "delta", None, "header param delta is missing"),
    ("additive", "dominators", None, "header param dominators is missing"),
    ("full", "D", 2.5, "not an integer"),
    ("medium", "landmarks", "7", "not an integer"),
    ("full", "landmark_counts", [4, 2.0], "not an integer"),
    ("full", "landmark_counts", 4, "not a list"),
    ("additive", "r", 2.5, "not an integer"),
    ("medium", "D", 0, "out of range"),
    ("warmup", "landmarks", -1, "out of range"),
    ("full", "landmark_counts", [4, -1], "out of range"),
    ("bdeg", "delta", -2, "out of range"),
    ("sparse", "k", 0, "out of range"),
]


@pytest.mark.parametrize("name,key,value,message", BAD_HEADER_PARAMS)
def test_dumps_refuses_a_bad_header_param(name, key, value, message):
    ls = all_scheme_labelsets()[1][name]
    params = dict(ls.params)
    if value is None:
        del params[key]
    else:
        params[key] = value
    with pytest.raises(LabelError, match=message):
        dumps(LabelSet(ls.scheme, ls.n, params, ls.labels))


# --- pinned file contents ----------------------------------------------------
# SHA-256 of dumps(): any change to what the encoders write shows up here.

PINNED_SEED1 = {
    "trivial": "0f85eb90c6dfdfbfd830539f4bb094c558be55e2b656f606479229e4769ba928",
    "warmup": "d530a4d5d6321c23bce277db37682f2db1a3675d0f88d61e13c5ff1caed016b9",
    "medium": "2b6715aa0cd5a36b4dbf1b7b1b3f2c6a0e592c40bd858cbe821c928d118ac00f",
    "full": "82ba8bd59ff03ed6dc0894c33699d6f6288ba684d3e8feee97816cda60f4bf2b",
    "bdeg": "74c678c99cbc60d48b85c5171727e5ee882fafeee8df6207667868d957f30f88",
    "sparse": "20d236177ae3846dcc8f66a90e62c77db3660fd47c7717fe4f40ab477f18629e",
    "additive": "d86b01e464fab1d21ffa4d602b87e8784c6db3063cc0f8c4c58ee9620fe94b5d",
}


# The seed-1 graph plus a disjoint 6-node path (n=30): unreachable pairs put
# INF markers and absent dominator entries into the files.
PINNED_DISCONNECTED = {
    "trivial": "5122049dcdcfa9be0c068279cdde04f8f72daf073cd61bfbf6da67224a901cac",
    "warmup": "14f86828ce98c72404cc07ff7cd6b82dc1aec03816c48a5820203425d8cd0b6e",
    "medium": "8f4524f340aa6b48d61f22af458c13379b33ef2f99db482766d7115d328927eb",
    "full": "d680aa76ff0b0d9bb31d893c7188aaa025c7527a3ce9204978f2c031e7362c5f",
    "bdeg": "ef697aeadf7c708554776daa83e68f3ca90cf3048acbcac538d72a60b760df8e",
    "sparse": "448666f0ff4897a540729ccfd7a196e9a50c6340b2d9ccd06056487ff55e605e",
    "additive": "8116337d4df41b6440826e4e3c468d5645ad8d8cd9ffbbec5e2758d91b3c1ca5",
}


def disconnected_graph() -> Graph:
    g = gen_gnm(24, 48, seed=1)
    return Graph(30, [*g.edges, *((u, u + 1, 1) for u in range(24, 29))])


def sha256(ls) -> str:
    return hashlib.sha256(dumps(ls)).hexdigest()


def test_label_files_pinned_every_scheme():
    _, sets = all_scheme_labelsets(seed=1)
    assert {name: sha256(ls) for name, ls in sets.items()} == PINNED_SEED1
    _, sets = all_scheme_labelsets(seed=1, g=disconnected_graph())
    assert {name: sha256(ls) for name, ls in sets.items()} == PINNED_DISCONNECTED
    assert all((p.row == _sentinel(p.n)).any()
               for name in ("trivial", "warmup") for p in sets[name].parsed())
    assert sum((p.dom == _sentinel(p.n)).any() for p in sets["additive"].parsed()) == 6
    assert len(sets["additive"].meta["high_degree"]) == 4
    assert sets["sparse"].meta["split_nodes"] == 86


# SHA-256 of decode_matrix() on the pinned encodings: the bulk decoder skips
# the landmark columns that cannot give a smallest sum, and that must not
# change one entry.  Where the decoder is exact on the 24-node graph, the
# matrix is the distance matrix, so several schemes share a digest.
PINNED_MATRIX_SEED1 = {
    "warmup": "36c693229a12060d9416ed672f62dede7873450ac48c7768e188eebda339a854",
    "medium": "930c961f90d6e0d850e445cb13b3341f0fb04bc0a6ecf69a3517acf570966641",
    "full": "4ab0ea55029105df5ecb6e612c0d0c24db107eb4ed69c0aa9194d04eee26835c",
    "bdeg": "36c693229a12060d9416ed672f62dede7873450ac48c7768e188eebda339a854",
    "sparse": "36c693229a12060d9416ed672f62dede7873450ac48c7768e188eebda339a854",
    "additive": "75c3539b94e89a4a2db72c67f0828e114c0988d31e0aeefa22da106efc440495",
}
PINNED_MATRIX_DISCONNECTED = {
    "warmup": "7a6cbf86de3436741c240b424b7da5904358aada18848ba5edc1d847e5c7d107",
    "medium": "a8f0f6981712a65a17257a9b1ff5a8e5cfb1226e0305cd4c15780024ad820082",
    "full": "8062da1dc9d7bb8cfb3dc4bd4b1e880c1294c8e321402a7070072423ef49cc0a",
    "bdeg": "7a6cbf86de3436741c240b424b7da5904358aada18848ba5edc1d847e5c7d107",
    "sparse": "7a6cbf86de3436741c240b424b7da5904358aada18848ba5edc1d847e5c7d107",
    "additive": "7a6cbf86de3436741c240b424b7da5904358aada18848ba5edc1d847e5c7d107",
}


def test_decode_matrix_pinned_every_scheme():
    for pins, g in [(PINNED_MATRIX_SEED1, None),
                    (PINNED_MATRIX_DISCONNECTED, disconnected_graph())]:
        _, sets = all_scheme_labelsets(seed=1, g=g)
        got = {}
        for name in pins:
            out = decode_matrix(sets[name])
            assert out.dtype == np.int64 and out.shape == (sets[name].n,) * 2
            got[name] = hashlib.sha256(np.ascontiguousarray(out).tobytes()).hexdigest()
        assert got == pins


def broom() -> Graph:
    # 40 leaves on node 0 plus the path 0-41-42-43-44: a path node misses
    # every landmark leaf, so the samples below leave some path nodes sick
    edges = [(0, i, 1) for i in range(1, 41)]
    edges += [(0, 41, 1), (41, 42, 1), (42, 43, 1), (43, 44, 1)]
    return Graph(45, edges)


@pytest.mark.parametrize("scheme,encode,digest", [
    ("medium", lambda g: encode_medium(g, PreservingParams(D=3, seed=3)),
     "f498c56698530b91a10f382e385f778ae99dccadc4d82449b3f19fb7b9d7a3ef"),
    ("full", lambda g: encode_full(g, PreservingParams(D=3, seed=11)),
     "ad760ed471f95add6c7ab8eaf6bcf2bec9cd620fcd5b4ea77032ce041b106395"),
])
def test_label_files_pinned_sick_and_window_levels(scheme, encode, digest):
    # the seed-1 sets above have no sick node and (full) no window entry, so
    # these pins cover both branches of the level writer
    ls = encode(broom())
    assert sha256(ls) == digest
    levels = [lv for p in ls.parsed() for lv in p.levels]
    assert any(lv.sick for lv in levels)
    assert any(lv.uc for lv in levels if not lv.sick)


# The labels of two perfbench workload graphs at their full size (sparse on
# gnm(512, 1024), full on gnm(1024, 2048) with D=8): the encoders read the hop
# oracle from the BFS bit planes and the weights from the contraction, and
# the bytes must be those the n x n oracle tables gave.
PINNED_WORKLOADS = {
    "sparse": "3dc9c02c1efe5e2649a72991e041eb772aa3e780ce0c76a1f8d6828253992f7b",
    "full": "f31e42e0ec73bd8af56d7b66b58971d214a63117e935564b5954990acd7127a4",
}


def test_label_files_pinned_at_workload_size():
    got = {
        "sparse": sha256(encode_sparse(gen_gnm(512, 1024, 401), 401)),
        "full": sha256(encode_full(gen_gnm(1024, 2048, 401), PreservingParams(D=8, seed=401))),
    }
    assert got == PINNED_WORKLOADS


def _random_label_sets(seed, count=50):
    # labels of every length class: empty, shorter than a byte, whole bytes, one past
    rng = random.Random(seed)
    for _ in range(count):
        sizes = [rng.choice([0, 1, 2, 7, 8, 9, 16, 17, rng.randrange(200)]) for _ in range(rng.randrange(12))]
        labels = [Bits.from_int(rng.getrandbits(s) if s else 0, s) for s in sizes]
        yield LabelSet("trivial", len(labels), {"D": 1}, labels)


@pytest.mark.parametrize("block", [1, 9, 1 << 18])
def test_dumps_frames_records_as_the_bit_writer_does(block, monkeypatch):
    # the reference framing: the prologue, then per label gamma(id + 1),
    # gamma(bits + 1) and the label's bits, written by one BitWriter; dumps
    # frames DUMP_BLOCK label bits at a time, tried from one record on
    import distlab.labels as L

    monkeypatch.setattr(L, "DUMP_BLOCK", block)
    _, sets = all_scheme_labelsets(seed=1)
    empty = LabelSet("full", 0, {"D": 2, "levels": 0, "landmark_counts": []}, [])
    for ls in [*sets.values(), empty, *_random_label_sets(block)]:
        w = BitWriter()
        w.write_gamma(SCHEMES[ls.scheme].tag)
        SCHEMES[ls.scheme].write_params(w, ls.params)
        w.write_gamma(ls.n + 1)
        for i, bits in enumerate(ls.labels):
            w.write_gamma(i + 1)
            w.write_gamma(bits.nbits + 1)
            w.write_bits(bits)
        assert dumps(ls) == MAGIC + w.getvalue().data, ls.scheme


@pytest.mark.parametrize("block", [1, 9, 1 << 18])
def test_loads_cuts_records_a_block_at_a_time(block, monkeypatch):
    # loads frames every record first, then cuts the payloads out of
    # DUMP_BLOCK label bits at a time, tried from one record on
    import distlab.labels as L

    monkeypatch.setattr(L, "DUMP_BLOCK", block)
    _, sets = all_scheme_labelsets(seed=1)
    for ls in [*sets.values(), *_random_label_sets(block + 1)]:
        back = loads(dumps(ls))
        assert (back.scheme, back.n, back.params, back.labels) == (ls.scheme, ls.n, ls.params, ls.labels)


def test_dumps_holds_a_block_at_a_time():
    rng = np.random.default_rng(3)
    labels = [Bits.from_array(rng.integers(0, 2, 8001, dtype=np.uint8)) for _ in range(1000)]
    ls = LabelSet("trivial", len(labels), {"D": 1}, labels)
    tracemalloc.start()
    try:
        buf = dumps(ls)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert loads(buf).labels == labels
    # 1 MB of file; a byte per bit would take 8 MB
    assert peak < 4 << 20, peak


# --- set parsing ---------------------------------------------------------------

def assert_same_parse(a, b, path="label"):
    """Parsed labels equal field by field: same types, arrays equal in dtype
    and value (INF included), dicts with the same int keys and values."""
    assert type(a) is type(b), path
    if isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and np.array_equal(a, b), path
    elif isinstance(a, dict):
        assert a == b, path
        assert all(type(k) is int and type(v) is int for k, v in a.items()), path
    elif isinstance(a, list):
        assert len(a) == len(b), path
        for i, (x, y) in enumerate(zip(a, b)):
            assert_same_parse(x, y, f"{path}[{i}]")
    elif dataclasses.is_dataclass(a):
        for f in dataclasses.fields(a):
            assert_same_parse(getattr(a, f.name), getattr(b, f.name), f"{path}.{f.name}")
    else:
        assert a == b, path


def tiny_labelsets():
    # n = 1 and n = 0 for every scheme that takes them
    out = {}
    for n in (0, 1):
        g = Graph(n, [])
        out[f"trivial-n{n}"] = encode_trivial(g)
        out[f"full-n{n}"] = encode_full(g, PreservingParams(D=2, seed=1))
        out[f"sparse-n{n}"] = encode_sparse(g, seed=1)
        out[f"bdeg-n{n}"] = encode_bounded_degree(g, 2, seed=1)
        out[f"additive-n{n}"] = encode_additive(g, AdditiveParams(r=2, t=1, D=2, seed=1))
        if n:
            out[f"warmup-n{n}"] = encode_warmup(g, PreservingParams(D=2, seed=1))
            out[f"medium-n{n}"] = encode_medium(g, PreservingParams(D=2, seed=1))
    return out


@functools.lru_cache(maxsize=1)
def set_parse_cases():
    _, sets = all_scheme_labelsets(seed=1)
    cases = dict(sets)
    cases["medium-broom"] = encode_medium(broom(), PreservingParams(D=3, seed=3))
    cases["full-broom"] = encode_full(broom(), PreservingParams(D=3, seed=11))
    # unreachable landmarks and dominators: INF entries in the tables
    split = gen_gnm(30, 18, seed=3)
    cases["trivial-disconnected"] = encode_trivial(split)
    cases["full-disconnected"] = encode_full(split, PreservingParams(D=2, seed=3))
    cases["additive-disconnected"] = encode_additive(split, AdditiveParams(r=2, t=2, D=2, seed=3))
    cases.update(tiny_labelsets())
    return cases


SET_PARSE_CASES = [
    *PINNED_SEED1, "medium-broom", "full-broom",
    "trivial-disconnected", "full-disconnected", "additive-disconnected",
    *(f"{s}-n{n}" for n in (0, 1) for s in ("trivial", "full", "sparse", "bdeg", "additive")),
    "warmup-n1", "medium-n1",
]


@pytest.mark.parametrize("name", SET_PARSE_CASES)
def test_set_parse_equals_per_label_parse(name):
    ls = set_parse_cases()[name]
    back = loads(dumps(ls))
    assert back.n == ls.n
    assert_same_parse(back.parsed(), [SET_PARSERS[ls.scheme]([b])[0] for b in ls.labels])
    if name.endswith("disconnected"):  # unreachable entries are read as the sentinel
        tables = {
            "trivial": lambda p: [p.row],
            "full": lambda p: [lv.lm for lv in p.levels],
            "additive": lambda p: [p.dom],
        }[ls.scheme]
        assert any((t == _sentinel(p.n)).any() for p in back.parsed() for t in tables(p))


@pytest.mark.parametrize("n", [0, 1])
@pytest.mark.parametrize("scheme", list(PINNED_SEED1))
def test_empty_and_one_node_sets_decode_and_verify(scheme, n):
    g = Graph(n, [])
    ls = loads(dumps(all_scheme_labelsets(seed=1, g=g)[1][scheme]))
    out = decode_matrix(ls)
    assert out.dtype == np.int64 and out.shape == (n, n)
    for mode in ("exhaustive", "sampled"):
        rep = verify_labels(g, ls, mode=mode, sample_count=10)
        assert rep.passed and rep.pairs_checked == 0, (scheme, n, mode)


@pytest.mark.parametrize("scheme", list(PINNED_SEED1))
def test_prefix_set_pair_and_matrix_decoders_agree(scheme):
    # labels 0..5 of a genuine 12-node encoding, as a set of their own: both
    # decoders read the labels they are given, and agree with the whole set
    whole = all_scheme_labelsets(seed=1, g=gen_gnm(12, 20, seed=1))[1][scheme]
    ls = loads(dumps(LabelSet(scheme, 6, whole.params, whole.labels[:6])))
    out = decode_matrix(ls)
    assert np.array_equal(out, decode_matrix(whole)[:6, :6])
    for u in range(6):
        for v in range(6):
            assert out[u, v] == ls.decode(u, v) == whole.decode(u, v), (scheme, u, v)


@pytest.mark.parametrize("scheme", list(PINNED_SEED1))
def test_bulk_decoder_blocks_agree_with_the_pair_decoder(scheme, monkeypatch):
    # 7 whole rows a block: the 24 labels span 4 blocks, each block its rows
    # from the first row's diagonal entry on, the square at its left included
    ls = all_scheme_labelsets(seed=1)[1][scheme]
    monkeypatch.setattr(harness, "VERIFY_BLOCK", 7 * ls.n)
    parsed, pair = ls.parsed(), PAIR_DECODERS[scheme]
    whole = decode_matrix(ls)
    blocks = list(harness._blocks(ls))
    assert [start for start, _ in blocks] == [0, 7, 14, 21]
    for start, block in blocks:
        stop = min(start + 7, ls.n)
        assert block.dtype == np.int64 and block.shape == (stop - start, ls.n - start)
        assert np.array_equal(block, whole[start:stop, start:])
        for u, row in zip(range(start, stop), block.tolist()):
            assert row == [pair(parsed[u], parsed[v]) for v in range(start, ls.n)], (scheme, u)
    # the table hits the blocks were lowered by: pairs that straddle a block
    # boundary, and near tables and balls that hold their own node
    hits = [(u, i) for u, p in enumerate(parsed) for t in p.tables for i in t]
    assert not hits or any(u // 7 != i // 7 for u, i in hits)
    assert any(u == i for u, i in hits) == (scheme in ("bdeg", "sparse", "additive"))


def test_decode_pair_unknown_scheme_is_a_label_error():
    labels = encode_trivial(gen_path(3)).labels
    with pytest.raises(LabelError, match="unknown scheme"):
        decode_pair("nosuch", labels[0], labels[1])


def test_set_parse_rows_are_views_of_one_table():
    _, sets = all_scheme_labelsets(seed=1)
    parsed = loads(dumps(sets["full"])).parsed()
    table = parsed[0].levels[0].lm.base
    assert table.shape == (len(parsed), sum(lv.size for lv in parsed[0].levels))
    # n = 24: the sentinel 47 and twice it fit in a byte, whatever the values
    assert table.dtype == np.uint8 and _sentinel(24) == 47 and (table <= 47).all()
    for u, p in enumerate(parsed):  # row u holds label u's levels side by side
        assert np.array_equal(np.concatenate([lv.lm for lv in p.levels]), table[u])
        assert all(lv.lm.base is table for lv in p.levels)


@pytest.mark.parametrize("case", [*PINNED_SEED1, "full-n33"])
def test_mixed_layout_set_refused_by_parsed(case):
    scheme = case.split("-")[0]
    g = gen_gnm(24, 48, seed=1)
    other = {
        "trivial": lambda: encode_trivial(gen_gnm(26, 48, seed=1)),
        "warmup": lambda: encode_warmup(g, PreservingParams(D=3, seed=1), landmarks=[0, 1]),
        "medium": lambda: encode_medium(g, PreservingParams(D=4, seed=1)),
        "full": lambda: encode_full(g, PreservingParams(D=4, seed=1)),
        "bdeg": lambda: encode_bounded_degree(g, max(2, g.max_degree()) + 1, 1),
        "sparse": lambda: encode_sparse(gen_gnm(24, 96, seed=1), 1),
        "additive": lambda: encode_additive(g, AdditiveParams(r=4, t=6, D=2, seed=1)),
        # same scheme and levels, another graph size
        "full-n33": lambda: encode_full(gen_gnm(33, 64, seed=1), PreservingParams(D=3, seed=1)),
    }[case]()
    ls = all_scheme_labelsets(seed=1)[1][scheme]
    ls.labels[5] = other.labels[5]
    with pytest.raises(LabelError, match="different"):
        loads(dumps(ls)).parsed()
    if case == "full-n33":  # the public pair decoder parses its two labels as one set
        with pytest.raises(LabelError):
            decode_pair("full", ls.labels[0], ls.labels[5])


# --- label ids out of range --------------------------------------------------

def with_id(bits, ident):
    """The label with its leading (n, id) header's id replaced."""
    cur = BitCursor(bits)
    n_field = cur.read_gamma()
    cur.read_gamma()
    w = BitWriter()
    w.write_gamma(n_field)
    w.write_gamma(ident + 1)
    w.write_bits(cur.read_bits(cur.remaining))
    return w.getvalue()


def test_trivial_id_out_of_range_is_a_label_error():
    g = gen_gnm(20, 40, seed=1)
    ls = encode_trivial(g)
    ls.labels[3] = with_id(ls.labels[3], 50)
    with pytest.raises(LabelError, match="out of range"):
        decode_pair("trivial", ls.labels[3], ls.labels[0])
    back = loads(dumps(ls))
    with pytest.raises(LabelError, match="out of range"):
        back.decode(3, 0)
    for mode in ("exhaustive", "sampled"):
        rep = verify_labels(g, loads(dumps(ls)), mode=mode, sample_count=200)
        assert rep.violation_count == 1, mode
        assert rep.violations[0][4].startswith("decode error"), mode


@pytest.mark.parametrize("scheme", list(PINNED_SEED1))
@pytest.mark.parametrize("past_n", [0, 26])
def test_every_parser_rejects_id_out_of_range(scheme, past_n):
    _, sets = all_scheme_labelsets(seed=1)
    ls = sets[scheme]
    n = BitCursor(ls.labels[3]).read_gamma() - 1  # sparse labels carry the split graph's n
    ls.labels[3] = with_id(ls.labels[3], n + past_n)
    with pytest.raises(LabelError, match="out of range"):
        loads(dumps(ls)).decode(3, 0)


def embedded_full_start(scheme, label):
    """Bit position of the full label that a bdeg, sparse or additive label
    embeds: its outer fields, read with the scalar cursor."""
    cur = BitCursor(label)
    n = cur.read_gamma() - 1
    cur.read_gamma()
    if scheme == "additive":
        cur.read_gamma()
        cur.read_gamma()
        D = cur.read_gamma()
        ndom = cur.read_gamma() - 1
        high = cur.read_bit()
        present = sum(cur.read_bit() for _ in range(ndom))
        cur.read_fixed(present * max(1, n.bit_length()))
        if not high:
            ids = cur.read_id_set()
            cur.read_fixed(len(ids) * max(1, D.bit_length()))
    else:
        cur.read_gamma()
        D = cur.read_gamma()
        ids = cur.read_id_set()
        cur.read_fixed(len(ids) * max(1, (D - 1).bit_length() + 1))
    return cur.pos


@pytest.mark.parametrize("scheme", ["bdeg", "sparse", "additive"])
def test_embedded_full_header_id_checked(scheme):
    _, sets = all_scheme_labelsets(seed=1)
    ls = sets[scheme]
    label = ls.labels[3]
    start = embedded_full_start(scheme, label)
    # keep the outer label, give the embedded full label (its tail) id n
    cur = BitCursor(label)
    w = BitWriter()
    w.write_bits(cur.read_bits(start))
    tail = cur.read_bits(cur.remaining)
    assert_same_parse(parse_full_set([tail])[0], SET_PARSERS[scheme]([label])[0].full)
    w.write_bits(with_id(tail, BitCursor(tail).read_gamma() - 1))
    ls.labels[3] = w.getvalue()
    with pytest.raises(LabelError, match="out of range"):
        loads(dumps(ls)).decode(3, 0)


# --- query ids -------------------------------------------------------------------

@pytest.mark.parametrize("u", [-1, 6, 1.0, "1", None])
def test_decode_rejects_query_ids_outside_the_set(u):
    ls = encode_trivial(gen_gnm(6, 5, 1))
    with pytest.raises(LabelError, match="node id"):
        ls.decode(u, 0)
    with pytest.raises(LabelError, match="node id"):
        ls.decode(0, u)


def test_decode_accepts_numpy_integer_ids():
    ls = encode_trivial(gen_gnm(6, 5, 1))
    assert ls.decode(np.int64(1), np.int32(4)) == ls.decode(1, 4)
