"""Label container and file-format tests: round trips, determinism, magic,
pinned file contents, and header parameters for every scheme."""

import dataclasses
import functools
import hashlib

import numpy as np
import pytest

from distlab import (
    INF,
    AdditiveParams,
    Graph,
    PreservingParams,
    encode_additive,
    encode_bounded_degree,
    encode_full,
    encode_medium,
    encode_sparse,
    encode_trivial,
    encode_warmup,
    gen_gnm,
    verify_labels,
)
from distlab.bits import BitCursor, BitWriter
from distlab.errors import LabelError
from distlab.harness import PARSERS
from distlab.labels import MAGIC, dumps, load_labels, loads, save_labels
from distlab.preserving import decode_full, decode_trivial, parse_full

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
    from distlab.errors import CodecError

    with pytest.raises((LabelError, CodecError)):
        loads(blob[: len(blob) // 2])


# --- pinned file contents ----------------------------------------------------
# SHA-256 of dumps(): any change to what the encoders write shows up here.

PINNED_SEED1 = {
    "trivial": "0f85eb90c6dfdfbfd830539f4bb094c558be55e2b656f606479229e4769ba928",
    "warmup": "d530a4d5d6321c23bce277db37682f2db1a3675d0f88d61e13c5ff1caed016b9",
    "medium": "2b6715aa0cd5a36b4dbf1b7b1b3f2c6a0e592c40bd858cbe821c928d118ac00f",
    "full": "d3e316e6f9a0c35324bb271e0824490802e84c7a529971ec67006877413d524c",
    "bdeg": "ae230e1a6dfbe0b64d96dec03158a8b15ea52366710f7ec44844684e676cc3f0",
    "sparse": "c1ce0315c2d00f07c145d06f8c2ff5114f5abec5875f4193d3ecc52d41992d74",
    "additive": "9cc135251485a58a8906c218b837ec2cf63602eb18cd8aa7df5cf840c77bbea0",
}


# The seed-1 graph plus a disjoint 6-node path (n=30): unreachable pairs put
# INF markers and absent dominator entries into the files.
PINNED_DISCONNECTED = {
    "trivial": "5122049dcdcfa9be0c068279cdde04f8f72daf073cd61bfbf6da67224a901cac",
    "warmup": "14f86828ce98c72404cc07ff7cd6b82dc1aec03816c48a5820203425d8cd0b6e",
    "medium": "8f4524f340aa6b48d61f22af458c13379b33ef2f99db482766d7115d328927eb",
    "full": "7e75b7a2409637a5815827ac3105d4a9d6b6de278a80d4c574356a633b28cea3",
    "bdeg": "c8027d35770d99ae03c4bcec2c5bbd79d03bab809ea05d970663192c18d74fc0",
    "sparse": "c7e28cef9baf041bb5ca86a17e1eca1392346902754792825235244d5322f07e",
    "additive": "db6b60a8fe3a2a1657b4dc5b170028b11a0522635e871f7872c40f08994274d3",
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
    assert all((p.row == INF).any() for name in ("trivial", "warmup") for p in sets[name].parsed())
    assert sum((p.dom == INF).any() for p in sets["additive"].parsed()) == 6
    assert len(sets["additive"].meta["high_degree"]) == 4
    assert sets["sparse"].meta["split_nodes"] == 86


def broom() -> Graph:
    # 40 leaves on node 0 plus the path 0-41-42-43-44: a path node misses
    # every landmark leaf, so the samples below leave some path nodes sick
    edges = [(0, i, 1) for i in range(1, 41)]
    edges += [(0, 41, 1), (41, 42, 1), (42, 43, 1), (43, 44, 1)]
    return Graph(45, edges)


@pytest.mark.parametrize("scheme,encode,digest", [
    ("medium", lambda g: encode_medium(g, PreservingParams(D=3, seed=3)),
     "338da301c89f2fc0d455850865bc7d4d2238451db075cd768c26a5082388ce4d"),
    ("full", lambda g: encode_full(g, PreservingParams(D=3, seed=11)),
     "b4f1951bae409a77a5d3883136e18873f768b4a3ceb584bdd49178a5a7ffd3d9"),
])
def test_label_files_pinned_sick_and_window_levels(scheme, encode, digest):
    # the seed-1 sets above have no sick node and (full) no window entry, so
    # these pins cover both branches of the level writer
    ls = encode(broom())
    assert sha256(ls) == digest
    levels = [p.level for p in ls.parsed()] if scheme == "medium" else [
        lv for p in ls.parsed() for lv in p.levels
    ]
    assert any(lv.sick for lv in levels)
    assert any(lv.uc for lv in levels if not lv.sick)


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
    assert_same_parse(back.parsed(), [PARSERS[ls.scheme](b) for b in ls.labels])
    if name.endswith("disconnected"):  # unreachable entries are read as INF
        tables = {
            "trivial": lambda p: [p.row],
            "full": lambda p: [lv.lm for lv in p.levels],
            "additive": lambda p: [p.dom],
        }[ls.scheme]
        assert any((t == INF).any() for p in back.parsed() for t in tables(p))


def test_set_parse_rows_are_views_of_one_table():
    _, sets = all_scheme_labelsets(seed=1)
    parsed = loads(dumps(sets["full"])).parsed()
    table = parsed[0].levels[0].lm.base
    assert table.shape == (len(parsed), sum(lv.size for lv in parsed[0].levels))
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
            decode_full(ls.labels[0], ls.labels[5])


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
        decode_trivial(ls.labels[3], ls.labels[0])
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
    assert_same_parse(parse_full(tail), PARSERS[scheme](label).full)
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
