"""Codec tests: every write/read pair is an exact inverse and the bit
layouts are pinned down to the individual bit."""

import random
import tracemalloc

import numpy as np
import pytest

from distlab.bits import (
    BitCursor,
    BitWriter,
    Bits,
    SetReader,
    concat_ragged,
    fixed_bits,
    gamma_bits,
    gamma_length,
    id_set_bits,
)
from distlab.errors import CodecError


def written(fn) -> Bits:
    w = BitWriter()
    fn(w)
    return w.getvalue()


# --- gamma ---------------------------------------------------------------

@pytest.mark.parametrize("x,expected", [(1, "1"), (4, "00100"), (5, "00101"),
                                        (2, "010"), (3, "011"), (10, "0001010")])
def test_gamma_golden(x, expected):
    assert written(lambda w: w.write_gamma(x)).to01() == expected


def test_gamma_rejects_nonpositive():
    w = BitWriter()
    with pytest.raises(CodecError):
        w.write_gamma(0)
    with pytest.raises(CodecError):
        gamma_length(-3)


def test_gamma_roundtrip_and_length():
    rng = random.Random(7)
    values = [rng.randrange(1, 1 << rng.randrange(1, 40)) for _ in range(3000)]
    w = BitWriter()
    for x in values:
        w.write_gamma(x)
    out = w.getvalue()
    assert out.nbits == sum(gamma_length(x) for x in values)
    # length formula: 2*floor(log2 x) + 1
    for x in values[:200]:
        assert gamma_length(x) == 2 * (x.bit_length() - 1) + 1
    cur = BitCursor(out)
    assert [cur.read_gamma() for _ in values] == values
    assert cur.remaining == 0


def test_gamma_truncated_stream():
    bits = written(lambda w: w.write(0, 5))  # five zeros: an unterminated gamma
    with pytest.raises(CodecError):
        BitCursor(bits).read_gamma()


@pytest.mark.parametrize("x", [1, 2, 3, (1 << 63) - 1, 1 << 63, (1 << 64) + 5, 1 << 130])
def test_gamma_long_zero_runs(x):
    # the cursor finds the zero run 64 bits at a time
    cur = BitCursor(written(lambda w: (w.write(1, 1), w.write_gamma(x), w.write(5, 3))))
    assert cur.read(1) == 1
    assert cur.read_gamma() == x
    assert cur.read(3) == 5 and cur.remaining == 0


def test_gamma_truncated_after_a_long_zero_run():
    with pytest.raises(CodecError):
        BitCursor(written(lambda w: w.write(0, 150))).read_gamma()
    with pytest.raises(CodecError):  # the run ends, the value bits do not
        BitCursor(written(lambda w: (w.write(0, 70), w.write(1, 1), w.write(0, 3)))).read_gamma()


# --- fixed-width ----------------------------------------------------------

@pytest.mark.parametrize("x,width,expected", [(5, 3, "101"), (0, 4, "0000")])
def test_fixed_golden(x, width, expected):
    assert written(lambda w: w.write_fixed(x, width)).to01() == expected


def test_fixed_roundtrip_random():
    rng = random.Random(11)
    cases = []
    w = BitWriter()
    for _ in range(1000):
        width = rng.randrange(1, 48)
        x = rng.randrange(1 << width)
        cases.append((x, width))
        w.write_fixed(x, width)
    cur = BitCursor(w.getvalue())
    for x, width in cases:
        assert cur.read_fixed(width) == x
    assert cur.remaining == 0


def test_fixed_overflow_rejected():
    w = BitWriter()
    with pytest.raises(CodecError):
        w.write_fixed(8, 3)
    with pytest.raises(CodecError):
        w.write_fixed(-1, 3)


# --- id sets ----------------------------------------------------------------

def test_id_set_empty_is_single_one_bit():
    assert written(lambda w: w.write_id_set([])).to01() == "1"


def test_id_set_golden_gap_coding():
    # count+1 = 4, then first+1 = 1, then gaps 5, 1
    bits = written(lambda w: w.write_id_set([0, 5, 6]))
    expect = BitWriter()
    for v in (4, 1, 5, 1):
        expect.write_gamma(v)
    assert bits == expect.getvalue()


def test_id_set_rejects_unsorted():
    w = BitWriter()
    with pytest.raises(CodecError):
        w.write_id_set([3, 3])
    with pytest.raises(CodecError):
        w.write_id_set([5, 2])
    with pytest.raises(CodecError):
        w.write_id_set([-1, 2])


def test_id_set_roundtrip_random_subsets():
    rng = random.Random(3)
    for trial in range(60):
        k = rng.randrange(0, 200)
        ids = sorted(rng.sample(range(10_000), k))
        bits = written(lambda w: w.write_id_set(ids))
        assert BitCursor(bits).read_id_set() == ids


def test_id_set_size_bound():
    # measured size within 4x of k*(log2(n/k) + 2) + 8 on random sets
    import math

    rng = random.Random(19)
    n = 10_000
    for k in (1, 10, 100, 1000):
        ids = sorted(rng.sample(range(n), k))
        bits = written(lambda w: w.write_id_set(ids))
        budget = 4 * (k * (math.log2(n / k) + 2) + 8)
        assert bits.nbits <= budget


# --- mixed-field concatenation safety --------------------------------------

def test_concatenated_heterogeneous_fields_roundtrip():
    rng = random.Random(23)
    for trial in range(40):
        plan = []
        w = BitWriter()
        for _ in range(rng.randrange(1, 60)):
            kind = rng.randrange(4)
            if kind == 0:
                x = rng.randrange(1, 1 << 16)
                plan.append(("gamma", x))
                w.write_gamma(x)
            elif kind == 1:
                width = rng.randrange(1, 20)
                x = rng.randrange(1 << width)
                plan.append(("fixed", (x, width)))
                w.write_fixed(x, width)
            elif kind == 2:
                ids = sorted(rng.sample(range(500), rng.randrange(0, 12)))
                plan.append(("ids", ids))
                w.write_id_set(ids)
            else:
                b = rng.randrange(2)
                plan.append(("bit", b))
                w.write_bit(b)
        cur = BitCursor(w.getvalue())
        for kind, val in plan:
            if kind == "gamma":
                assert cur.read_gamma() == val
            elif kind == "fixed":
                assert cur.read_fixed(val[1]) == val[0]
            elif kind == "ids":
                assert cur.read_id_set() == val
            else:
                assert cur.read_bit() == val
        assert cur.remaining == 0


# --- Bits / serialization -----------------------------------------------------

def test_bits_padding_is_zero_and_equality_holds():
    b = Bits.from_int(0b101, 3)
    assert b.data == bytes([0b10100000])
    assert b == Bits(bytes([0b10100000]), 3)
    assert b != Bits.from_int(0b101, 4)


def test_cursor_read_past_end():
    cur = BitCursor(Bits.from_int(3, 2))
    cur.read(2)
    with pytest.raises(CodecError):
        cur.read(1)


def test_write_then_read_bits_slice():
    inner = Bits.from_int(0b110101, 6)
    w = BitWriter()
    w.write_gamma(9)
    w.write_bits(inner)
    w.write_fixed(2, 3)
    cur = BitCursor(w.getvalue())
    assert cur.read_gamma() == 9
    assert cur.read_bits(6) == inner
    assert cur.read_fixed(3) == 2


# --- array encoders: bit for bit what the scalar writer writes ---------------

def as_bits(arr) -> Bits:
    return Bits.from_array(np.asarray(arr, dtype=np.uint8))


def _gamma_cases():
    xs = [1, 2, 3]
    for k in range(2, 32):
        xs += [(1 << k) - 1, 1 << k, (1 << k) + 1]
    return [x for x in xs if x <= (1 << 31) - 1]


def test_gamma_bits_matches_writer():
    xs = _gamma_cases()
    bits, lengths = gamma_bits(xs)
    expect = BitWriter()
    for x in xs:
        expect.write_gamma(x)
    assert as_bits(bits) == expect.getvalue()
    assert lengths.tolist() == [gamma_length(x) for x in xs]


def test_gamma_bits_single_and_empty():
    for x in _gamma_cases():
        bits, lengths = gamma_bits([x])
        assert as_bits(bits) == written(lambda w: w.write_gamma(x))
    bits, lengths = gamma_bits([])
    assert bits.size == 0 and lengths.size == 0


def test_gamma_bits_rejects_nonpositive():
    for bad in ([0], [3, -1], [5, 0, 2]):
        with pytest.raises(CodecError):
            gamma_bits(bad)


@pytest.mark.parametrize("width", [1, 2, 5, 7, 8, 9, 16, 17, 31, 40, 62])
def test_fixed_bits_matches_writer(width):
    rng = random.Random(width)
    vals = [(1 << width) - 1, 0, 1] + [rng.randrange(1 << width) for _ in range(40)]
    expect = BitWriter()
    for x in vals:
        expect.write_fixed(x, width)
    assert as_bits(fixed_bits(vals, width)) == expect.getvalue()


def test_fixed_bits_empty_and_zero_width():
    for width in (0, 1, 9):
        assert fixed_bits([], width).size == 0
    assert fixed_bits([0, 0, 0], 0).size == 0
    assert as_bits(fixed_bits([1, 0, 1, 1], 1)).to01() == "1011"


def test_fixed_bits_wider_than_64():
    expect = BitWriter()
    for x in (3, (1 << 62) + 5):
        expect.write_fixed(x, 70)
    assert as_bits(fixed_bits([3, (1 << 62) + 5], 70)) == expect.getvalue()


def test_fixed_bits_out_of_range_rejected_like_pack_values():
    for vals, width in (([4], 2), ([1 << 20], 20), ([-1], 8), ([1], 0), ([0, 255, 256], 8)):
        with pytest.raises(CodecError):
            fixed_bits(vals, width)
    with pytest.raises(CodecError):
        fixed_bits([1], -1)


@pytest.mark.parametrize("sets", [
    [[]],
    [[0]],
    [[7]],
    [[3, 4]],                        # gap 1
    [[0, 1, 2, 3]],                  # all gaps 1
    [[], [5], [], [0, 1], [2, 9, 10, 1000], []],
])
def test_id_set_bits_matches_writer(sets):
    ids = [i for s in sets for i in s]
    bits, lengths = id_set_bits(ids, [len(s) for s in sets])
    expect = BitWriter()
    for s in sets:
        expect.write_id_set(s)
    assert as_bits(bits) == expect.getvalue()
    assert lengths.tolist() == [written(lambda w, s=s: w.write_id_set(s)).nbits for s in sets]


def test_id_set_bits_random_roundtrip():
    rng = random.Random(21)
    sets = [sorted(rng.sample(range(5_000), rng.randrange(0, 60))) for _ in range(40)]
    bits, lengths = id_set_bits([i for s in sets for i in s], [len(s) for s in sets])
    cur = BitCursor(as_bits(bits))
    for s, length in zip(sets, lengths):
        start = cur.pos
        assert cur.read_id_set() == s
        assert cur.pos - start == length
    assert cur.remaining == 0


def test_id_set_bits_rejects_bad_sets():
    # each set must be strictly increasing and non-negative; sets are independent
    for ids, counts in (([3, 3], [2]), ([5, 2], [2]), ([-1, 2], [2]), ([4, -1], [1, 1])):
        with pytest.raises(CodecError):
            id_set_bits(ids, counts)
    with pytest.raises(CodecError):
        id_set_bits([1, 2, 3], [2])
    bits, _ = id_set_bits([5, 2], [1, 1])  # a new set may start lower
    expect = BitWriter()
    expect.write_id_set([5])
    expect.write_id_set([2])
    assert as_bits(bits) == expect.getvalue()


def test_concat_ragged_interleaves_in_node_order():
    a = (np.array([1, 1, 0, 1], dtype=np.uint8), [1, 0, 3])
    b = (np.array([0, 0, 1, 1, 0], dtype=np.uint8), [2, 2, 1])
    labels = concat_ragged([a, b])
    assert [x.to01() for x in labels] == ["100", "11", "1010"]
    # a piece may also give each node's bits as its own array
    tails = [Bits.from_int(5, 3), Bits(b"", 0), Bits.from_int(1, 9)]
    labels = concat_ragged([a, (t.to_array() for t in tails), b])
    assert [x.to01() for x in labels] == ["1" + "101" + "00", "11", "101" + "000000001" + "0"]
    with pytest.raises(CodecError):
        concat_ragged([(np.zeros(3, dtype=np.uint8), [1, 1])])
    with pytest.raises(ValueError):  # pieces covering different node counts
        concat_ragged([a, (np.zeros(2, dtype=np.uint8), [1, 1])])
    assert concat_ragged([(np.zeros(0, dtype=np.uint8), [])]) == []


def test_concat_ragged_rejects_negative_share_lengths():
    # the lengths sum to the piece size, but bit 2 would be written twice
    with pytest.raises(CodecError, match="negative"):
        concat_ragged([(np.array([1, 0, 1, 1], dtype=np.uint8), [3, -1, 2])])
    with pytest.raises(CodecError, match="negative"):
        concat_ragged([(np.zeros(0, dtype=np.uint8), [1, -1])])


@pytest.mark.parametrize("seed", range(6))
def test_concat_ragged_matches_writer(seed):
    # each label is its shares of every piece, in piece order, as BitWriter
    # writes them one bit at a time
    rng = np.random.default_rng(seed)
    nodes = int(rng.integers(1, 40))
    shares = []  # one list of per-node bit arrays per piece
    for kind in rng.permutation(["empty", "zeros", "wide"] + ["narrow"] * 4):
        if kind == "empty":  # a piece where every share is empty
            lengths = np.zeros(nodes, dtype=np.intp)
        elif kind == "zeros":  # some shares empty
            lengths = rng.integers(0, 4, nodes) * rng.integers(0, 2, nodes)
        elif kind == "wide":
            lengths = rng.integers(0, 200, nodes)
        else:
            lengths = rng.integers(0, 17, nodes)
        shares.append([rng.integers(0, 2, int(k)).astype(np.uint8) for k in lengths])
    # pad each label to a multiple of 8 bits in the last piece, on some nodes
    pad = [(-sum(s[u].size for s in shares)) % 8 if u % 2 else 0 for u in range(nodes)]
    shares.append([rng.integers(0, 2, k).astype(np.uint8) for k in pad])
    pieces = []
    for i, per_node in enumerate(shares):
        if i % 3 == 0:  # per-node arrays
            pieces.append(list(per_node))
        elif i % 3 == 1:  # a generator of them
            pieces.append(x for x in per_node)
        else:
            pieces.append((np.concatenate(per_node), [x.size for x in per_node]))
    labels = concat_ragged(pieces)
    assert len(labels) == nodes
    for u, label in enumerate(labels):
        expect = BitWriter()
        for per_node in shares:
            for bit in per_node[u].tolist():
                expect.write_bit(bit)
        assert label == expect.getvalue()
    assert any(label.nbits and label.nbits % 8 == 0 for label in labels)


def test_concat_ragged_holds_about_one_label_at_a_time(monkeypatch):
    import distlab.preserving as P
    from distlab import PreservingParams, encode_full, gen_gnm

    captured = []
    real = P.concat_ragged
    monkeypatch.setattr(P, "concat_ragged", lambda pieces: captured.append(list(pieces)) or [])
    encode_full(gen_gnm(1024, 2048, 701), PreservingParams(D=8, seed=701))
    (pieces,) = captured
    unpacked = sum(bits.nbytes for bits, _ in pieces)
    tracemalloc.start()
    try:
        labels = real(pieces)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(labels) == 1024
    # the labels themselves take a few hundred KiB; cutting every piece into
    # per-node arrays before packing peaks at about 4 MiB
    assert unpacked > 1 << 20 and peak < 2 << 20, peak


def test_bits_to_array_inverts_from_array():
    rng = random.Random(5)
    for nbits in (0, 1, 7, 8, 9, 64, 77):
        bits = np.array([rng.randrange(2) for _ in range(nbits)], dtype=np.uint8)
        back = Bits.from_array(bits).to_array()
        assert back.dtype == np.uint8 and back.tolist() == bits.tolist()


# --- set reader --------------------------------------------------------------

def random_label(rng, size, width):
    """A label of one field of each kind, plus what it holds."""
    g = rng.choice([1, 2, 7, 8, rng.randrange(1, 5000), (1 << 56) + 3, (1 << 57) - 1])
    flag = rng.randrange(2)
    bitmap = [rng.randrange(2) for _ in range(size)]
    vals = [rng.randrange(1 << width) for _ in range(rng.randrange(5))]
    ids = sorted(rng.sample(range(300), rng.randrange(7)))
    w = BitWriter()
    w.write_gamma(g)
    w.write(flag, 1)
    for b in bitmap:
        w.write(b, 1)
    for v in vals:
        w.write(v, width)
    w.write_id_set(ids)
    return w.getvalue(), (g, flag, bitmap, vals, ids)


def test_set_reader_matches_the_written_fields():
    rng = random.Random(5)
    for _ in range(150):
        size, width = rng.randrange(40), rng.randrange(1, 58)
        pairs = [random_label(rng, size, width) for _ in range(rng.randrange(6))]
        labels, fields = [p[0] for p in pairs], [p[1] for p in pairs]
        rd = SetReader(labels)
        assert rd.gamma().tolist() == [f[0] for f in fields]
        assert rd.fixed(1).tolist() == [f[1] for f in fields]
        bitmap = rd.bitmap(size)
        assert bitmap.dtype == bool and bitmap.shape == (len(labels), size)
        assert bitmap.astype(int).tolist() == [f[2] for f in fields]
        counts = np.array([len(f[3]) for f in fields], dtype=np.int64)
        assert rd.packed(counts, width).tolist() == [v for f in fields for v in f[3]]
        sizes, ids = rd.id_sets(300)
        assert sizes.tolist() == [len(f[4]) for f in fields]
        assert ids.tolist() == [i for f in fields for i in f[4]]
        assert (rd.remaining() == 0).all()


def test_set_reader_rows_advance_only_those_rows():
    labels = [written(lambda w, x=x: (w.write_gamma(x), w.write_gamma(x + 1))) for x in (3, 9, 20)]
    rd = SetReader(labels)
    assert rd.gamma(np.array([2, 0])).tolist() == [20, 3]
    assert rd.gamma().tolist() == [4, 9, 21]
    assert rd.remaining().tolist() == [0, gamma_length(10), 0]


def test_set_reader_rejects_what_does_not_fit():
    # every read and count is checked against the label's own end, even when
    # the buffer goes on with the next label
    short, long_ = written(lambda w: w.write_gamma(1 << 20)), written(lambda w: w.write(0, 90))
    for read in (
        lambda rd: rd.fixed(4),
        lambda rd: rd.bitmap(3),
        lambda rd: rd.packed(np.array([1, 0]), 3),
        lambda rd: rd.packed(np.array([1 << 60, 0]), 57),  # a huge count, before allocating
    ):
        rd = SetReader([Bits.from_int(0b10, 2), long_])
        with pytest.raises(CodecError, match="truncated"):
            read(rd)
    with pytest.raises(CodecError, match="truncated"):
        SetReader([Bits(bytes([0, 0]), 9), short]).gamma()
    huge_set = written(lambda w: (w.write_gamma((1 << 40) + 1), w.write(1, 8)))
    with pytest.raises(CodecError, match="truncated"):
        SetReader([huge_set]).id_sets(10)


def test_set_reader_refuses_values_too_large_to_read():
    rd = SetReader([written(lambda w: w.write_gamma((1 << 57) - 1))])
    assert rd.gamma().tolist() == [(1 << 57) - 1]
    with pytest.raises(CodecError, match="too large"):
        SetReader([written(lambda w: w.write_gamma(1 << 57))]).gamma()
    with pytest.raises(CodecError, match="58"):
        SetReader([written(lambda w: w.write(0, 64))]).packed(np.array([1]), 58)
    with pytest.raises(CodecError, match="out of range"):
        SetReader([written(lambda w: w.write_id_set([2, 10]))]).id_sets(10)
