"""Label container and file-format tests: round trips, determinism, magic,
pinned file contents, and header parameters for every scheme."""

import hashlib

import pytest

from distlab import (
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
from distlab.preserving import decode_trivial

pytestmark = pytest.mark.filterwarnings("ignore:r=.*exceeds")


def all_scheme_labelsets(seed=1):
    g = gen_gnm(24, 48, seed=seed)
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


def sha256(ls) -> str:
    return hashlib.sha256(dumps(ls)).hexdigest()


def test_label_files_pinned_every_scheme():
    _, sets = all_scheme_labelsets(seed=1)
    assert {name: sha256(ls) for name, ls in sets.items()} == PINNED_SEED1


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


@pytest.mark.parametrize("scheme", ["bdeg", "sparse", "additive"])
def test_embedded_full_header_id_checked(scheme, monkeypatch):
    import distlab.additive
    import distlab.sparse

    module = distlab.additive if scheme == "additive" else distlab.sparse
    _, sets = all_scheme_labelsets(seed=1)
    ls = sets[scheme]
    label = ls.labels[3]
    starts = []
    read_full = module._read_full
    monkeypatch.setattr(module, "_read_full", lambda cur: starts.append(cur.pos) or read_full(cur))
    PARSERS[scheme](label)
    monkeypatch.undo()
    # keep the outer label, give the embedded full label (its tail) id n
    cur = BitCursor(label)
    w = BitWriter()
    w.write_bits(cur.read_bits(starts[0]))
    tail = cur.read_bits(cur.remaining)
    w.write_bits(with_id(tail, BitCursor(tail).read_gamma() - 1))
    ls.labels[3] = w.getvalue()
    with pytest.raises(LabelError, match="out of range"):
        loads(dumps(ls)).decode(3, 0)
