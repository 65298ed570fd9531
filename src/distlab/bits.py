"""Bit-exact primitives for self-delimiting labels.

Bit order is pinned: most-significant bit first within each field, fields
appended left to right.  A label built on one platform is byte-identical on
any other.  Writers are single-owner; `Bits` values are immutable and safe
to share; cursors are independent per reader.

Field vocabulary used by the label schemes:

* ``gamma``     -- Elias gamma code for integers >= 1; values that may be 0
                   are shifted by +1 at the call site.
* ``fixed``     -- big-endian unsigned integer of an exact bit width.
* ``id set``    -- gamma(count+1), gamma(first+1), then gamma of the gaps
                   between consecutive (strictly increasing) ids.
* ``bitmap`` /  -- a run of 1-bit flags, then the flagged values packed as
  ``packed``       consecutive fixed-width fields.

Every label encoder writes through the array encoders (`fixed_bits`,
`gamma_bits`, `id_set_bits`).  Each builds one field for many labels at
once as an unpacked bit array, one `uint8` 0/1 per bit, MSB first, holding
exactly the bits the matching `BitWriter` calls write, plus each label's
share.  `concat_ragged` then builds the labels one at a time: it joins
each node's share of every piece, sliced lazily from one memoryview per
piece, and packs the label once, so the pieces are never copied or cut up
all at once and writing costs in proportion to the bits written.
`BitWriter` writes only the label file's prologue (`labels.dumps` frames
the records from `gamma_bits` codes and the labels' bits) and stays the
tests' reference for the array encoders and the framing.

Bulk readers parse many labels at once with `SetReader`: the payloads are
joined into one buffer, each label keeps its own bit position, and every
call reads the same field (gamma, fixed, bitmap, packed or id set) of many
labels with a few numpy operations.  Each read and each count is checked
against that label's own end before anything is read or allocated, and a
reader used as a context manager checks on exit that every label was read
to its end.  `BitCursor` stays the scalar reader for the file prologue,
the record codes `labels.loads` cannot read from its 128-bit window, and
the tests.
"""

from __future__ import annotations

import numpy as np

from .errors import CodecError

__all__ = [
    "Bits",
    "BitWriter",
    "BitCursor",
    "SetReader",
    "gamma_length",
    "fixed_bits",
    "gamma_bits",
    "id_set_bits",
    "concat_ragged",
]


def gamma_length(x: int) -> int:
    """Number of bits write_gamma(x) produces: 2*floor(log2 x) + 1."""
    if x < 1:
        raise CodecError(f"gamma code requires x >= 1, got {x}")
    return 2 * (x.bit_length() - 1) + 1


class Bits:
    """Immutable bit string: a bytes payload plus an exact bit count.

    Padding bits in the final byte are always zero, so equal bit strings
    compare equal as (data, nbits) pairs.
    """

    __slots__ = ("data", "nbits")

    def __init__(self, data: bytes, nbits: int):
        if nbits < 0 or len(data) != (nbits + 7) // 8:
            raise CodecError(f"payload of {len(data)} bytes cannot hold {nbits} bits")
        if nbits & 7 and data[-1] & (0xFF >> (nbits & 7)):
            raise CodecError(f"padding bits after bit {nbits} are not zero")
        self.data = bytes(data)
        self.nbits = nbits

    @classmethod
    def from_int(cls, value: int, nbits: int) -> "Bits":
        if value < 0 or value.bit_length() > nbits:
            raise CodecError(f"value {value} does not fit in {nbits} bits")
        nbytes = (nbits + 7) // 8
        return cls((value << (8 * nbytes - nbits)).to_bytes(nbytes, "big"), nbits)

    @classmethod
    def from_array(cls, bits: np.ndarray) -> "Bits":
        """Pack an unpacked 0/1 `uint8` bit array, MSB first."""
        return cls(np.packbits(bits), int(bits.size))  # packbits zero-pads the last byte

    def to_array(self) -> np.ndarray:
        """The bits as an unpacked 0/1 `uint8` array, MSB first."""
        return np.unpackbits(np.frombuffer(self.data, dtype=np.uint8), count=self.nbits)

    def to_int(self) -> int:
        if self.nbits == 0:
            return 0
        return int.from_bytes(self.data, "big") >> (8 * len(self.data) - self.nbits)

    def to01(self) -> str:
        """The bit string as '0'/'1' characters (handy in tests)."""
        return "".join(f"{b:08b}" for b in self.data)[: self.nbits]

    def __len__(self) -> int:
        return self.nbits

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Bits)
            and self.nbits == other.nbits
            and self.data == other.data
        )

    def __hash__(self) -> int:
        return hash((self.nbits, self.data))

    def __repr__(self) -> str:
        head = self.to01() if self.nbits <= 40 else self.to01()[:40] + "..."
        return f"Bits({self.nbits} bits: {head})"


def fixed_bits(values, width: int) -> np.ndarray:
    """Bit array of `values` as consecutive `width`-bit big-endian fields, the
    bits as many write_fixed(value, width) calls write.  The bits are filled
    one column per shift, from the values in the narrowest unsigned dtype
    that holds `width` bits (uint8 input stays as it is), so a field costs
    about its own bits in scratch; a field wider than 64 bits keeps its
    leading columns zero."""
    values = np.asarray(values).ravel()
    if values.dtype.kind != "u":
        values = values.astype(np.int64)
    if width < 0:
        raise CodecError("negative field width")
    if values.size == 0 or width == 0:
        if np.any(values):
            raise CodecError("cannot pack nonzero values into width 0")
        return np.zeros(0, dtype=np.uint8)
    if values.min() < 0 or int(values.max()) >> width:
        raise CodecError(f"packed value out of range for width {width}")
    values = values.astype(np.min_scalar_type((1 << min(width, 64)) - 1), copy=False)
    out = np.empty((values.size, width), dtype=np.uint8)
    out[:, :max(width - 64, 0)] = 0  # columns above bit 63, if any
    for shift in range(min(width, 64)):
        np.bitwise_and(values >> shift, 1, out=out[:, width - 1 - shift], casting="unsafe")
    return out.ravel()


def _bit_length(x: np.ndarray) -> np.ndarray:
    """Bit length of each non-negative int64 (0 for 0)."""
    e = np.frexp(x)[1].astype(np.int64)
    # the float exponent is one too high where the conversion rounded up to 2^k
    return e - (((x >> np.maximum(e - 1, 0)) == 0) & (x > 0))


def gamma_bits(values) -> tuple[np.ndarray, np.ndarray]:
    """Elias gamma codes of `values` (each >= 1) back to back, plus the length
    of each code.  gamma(x) is x as a (2 * bit_length(x) - 1)-bit field: its
    leading zeros are already in the zeroed output, and bit j of x goes to
    the code's j-th bit from its end, set for every value that has it, one
    bit position at a time."""
    x = np.asarray(values, dtype=np.int64).ravel()
    if x.size and x.min() < 1:
        raise CodecError(f"gamma code requires x >= 1, got {int(x.min())}")
    nb = _bit_length(x)
    lengths = 2 * nb - 1
    last = np.cumsum(lengths) - 1  # each code's last bit, which holds bit 0 of x
    out = np.zeros(int(last[-1]) + 1 if last.size else 0, dtype=np.uint8)
    for j in range(int(nb.max(initial=0))):
        out[last[(x >> j & 1).astype(bool)] - j] = 1
    return out, lengths


def id_set_bits(ids, counts) -> tuple[np.ndarray, np.ndarray]:
    """Id-set codes (as write_id_set) of consecutive sets, set i being the next
    counts[i] entries of `ids`, back to back; plus each set's length in bits."""
    ids = np.asarray(ids, dtype=np.int64).ravel()
    counts = np.asarray(counts, dtype=np.intp).ravel()
    if counts.sum() != ids.size:
        raise CodecError(f"set sizes add up to {counts.sum()}, not {ids.size} ids")
    heads = np.cumsum(counts) - counts  # index of each set's first id
    gaps = np.diff(ids, prepend=np.int64(-1))
    firsts = heads[counts > 0]
    gaps[firsts] = ids[firsts] + 1
    if gaps.size and gaps.min() < 1:
        raise CodecError("id set must be strictly increasing and non-negative")
    at = heads + np.arange(counts.size)  # where each set's gamma(count + 1) goes
    fields = np.empty(ids.size + counts.size, dtype=np.int64)
    is_gap = np.ones(fields.size, dtype=bool)
    is_gap[at] = False
    fields[at] = counts + 1
    fields[is_gap] = gaps
    bits, lengths = gamma_bits(fields)
    sums = np.concatenate(([0], np.cumsum(lengths)))
    bounds = np.append(at, fields.size)
    return bits, sums[bounds[1:]] - sums[bounds[:-1]]


def concat_ragged(pieces) -> list[Bits]:
    """Node u's label: its share of every piece, in piece order, packed once.

    A piece is (bits, lengths), the bits of nodes 0, 1, ... back to back with
    node u's share lengths[u] >= 0 bits long, or an iterable of per-node bit
    arrays, taken one node at a time.  Every piece covers the same nodes.

    Labels are built one at a time.  A (bits, lengths) piece is read through
    one memoryview of its bits, and a node's share is sliced off it only
    when that node's label is built, so at most one label's shares are held.
    They are joined into one bytes object (b"".join takes the views and the
    per-node arrays as they are) and packed once.
    """
    shares = []
    for piece in pieces:
        if isinstance(piece, tuple):
            bits, lengths = piece
            lengths = np.asarray(lengths, dtype=np.intp)
            if lengths.size and lengths.min() < 0:
                raise CodecError(f"negative share length {int(lengths.min())}")
            total = int(lengths.sum())
            if total != bits.size:
                raise CodecError(f"piece of {bits.size} bits, lengths add up to {total}")
            piece = _slices(memoryview(np.ascontiguousarray(bits, dtype=np.uint8)), lengths.tolist())
        shares.append(piece)
    return [
        Bits.from_array(np.frombuffer(b"".join(parts), dtype=np.uint8))
        for parts in zip(*shares, strict=True)
    ]


def _slices(view: memoryview, lengths: list):
    """Consecutive slices of `view`, the i-th lengths[i] long, each made when asked for."""
    start = 0
    for size in lengths:
        yield view[start:start + size]
        start += size


class BitWriter:
    """Append-only bit sink; call getvalue() once to materialize the Bits."""

    __slots__ = ("_parts", "_nbits")

    def __init__(self):
        self._parts: list[tuple[int, int]] = []
        self._nbits = 0

    @property
    def nbits(self) -> int:
        return self._nbits

    def write(self, value: int, width: int) -> None:
        """Append `value` as exactly `width` bits, MSB first."""
        if width < 0:
            raise CodecError("negative field width")
        if value < 0 or value.bit_length() > width:
            raise CodecError(f"value {value} does not fit in {width} bits")
        if width:
            self._parts.append((value, width))
            self._nbits += width

    def write_bit(self, bit: int) -> None:
        self.write(1 if bit else 0, 1)

    def write_gamma(self, x: int) -> None:
        """Elias gamma: floor(log2 x) zeros, then the binary of x."""
        if x < 1:
            raise CodecError(f"gamma code requires x >= 1, got {x}")
        nb = x.bit_length()
        self.write(0, nb - 1)
        self.write(x, nb)

    def write_fixed(self, x: int, width: int) -> None:
        """Exactly `width` bits, big-endian."""
        self.write(x, width)

    def write_id_set(self, ids) -> None:
        """Gap-coded sorted id set: gamma(count+1), gamma(first+1), gamma gaps."""
        ids = list(ids)
        self.write_gamma(len(ids) + 1)
        prev = None
        for i in ids:
            i = int(i)
            if i < 0 or (prev is not None and i <= prev):
                raise CodecError("id set must be strictly increasing and non-negative")
            self.write_gamma(i + 1 if prev is None else i - prev)
            prev = i

    def write_bits(self, bits: Bits) -> None:
        """Append an existing bit string verbatim."""
        if bits.nbits:
            self._parts.append((bits.to_int(), bits.nbits))
            self._nbits += bits.nbits

    def getvalue(self) -> Bits:
        value, width = _fold(self._parts)
        assert width == self._nbits
        return Bits.from_int(value, width)


def _fold(parts: list[tuple[int, int]]) -> tuple[int, int]:
    # Pairwise tree fold keeps big-int concatenation near O(total * log n_parts).
    if not parts:
        return 0, 0
    parts = list(parts)
    while len(parts) > 1:
        nxt = []
        for i in range(0, len(parts) - 1, 2):
            v1, w1 = parts[i]
            v2, w2 = parts[i + 1]
            nxt.append(((v1 << w2) | v2, w1 + w2))
        if len(parts) % 2:
            nxt.append(parts[-1])
        parts = nxt
    return parts[0]


class BitCursor:
    """Sequential reader over a Bits value; every read advances by exactly
    the bits consumed, so heterogeneous fields can be concatenated safely."""

    __slots__ = ("_data", "nbits", "pos")

    def __init__(self, bits: Bits):
        self._data = bits.data
        self.nbits = bits.nbits
        self.pos = 0

    @property
    def remaining(self) -> int:
        return self.nbits - self.pos

    def read(self, width: int) -> int:
        """Read `width` bits as a big-endian unsigned integer."""
        if width < 0:
            raise CodecError("negative field width")
        if self.pos + width > self.nbits:
            raise CodecError(
                f"truncated bit stream: need {width} bits at position {self.pos}, "
                f"have {self.remaining}"
            )
        if width == 0:
            return 0
        start, end = self.pos >> 3, (self.pos + width + 7) >> 3
        chunk = int.from_bytes(self._data[start:end], "big")
        shift = 8 * (end - start) - (self.pos - 8 * start) - width
        self.pos += width
        return (chunk >> shift) & ((1 << width) - 1)

    def read_bit(self) -> int:
        return self.read(1)

    def read_gamma(self) -> int:
        # the zero run is found 64 bits at a time; the value is then read
        # from its leading 1 bit
        zeros = 0
        while True:
            width = min(64, self.remaining)
            chunk = self.read(max(width, 1))  # past the end: a truncation error
            if chunk:
                run = width - chunk.bit_length()
                self.pos -= width - run
                return self.read(zeros + run + 1)
            zeros += width

    def read_fixed(self, width: int) -> int:
        return self.read(width)

    def read_id_set(self) -> list[int]:
        count = self.read_gamma() - 1
        ids: list[int] = []
        prev = -1
        for i in range(count):
            gap = self.read_gamma()
            prev = gap - 1 if i == 0 else prev + gap
            ids.append(prev)
        return ids

    def read_bits(self, width: int) -> Bits:
        return Bits.from_int(self.read(width), width)


_WINDOW = 57  # bits a 64-bit read holds past any bit offset within its first byte


class SetReader:
    """Sequential reader over many bit strings at once, one position each.

    Every read takes `rows`, the strings that hold the field: an index array,
    or the default slice(None) for all of them.  It reads at self.pos[rows]
    and advances only those, by assigning self.pos[rows].  A slice gives a
    view of the positions, so each read takes its values before it advances.
    A read is checked against each row's own end before any value is read or
    any array sized by a count is allocated, and raises CodecError when it
    does not fit.  Fields are at most 57 bits wide, so gamma values stop
    below 2^57; a longer code is a CodecError, not a wrapped value.  Used as
    a context manager, the reader raises CodecError on a clean exit when a
    string has bits left that no read consumed.
    """

    __slots__ = ("_bytes", "_words", "pos", "end")

    def __init__(self, strings):
        sizes = np.fromiter((b.nbits for b in strings), dtype=np.int64, count=len(strings))
        nbytes = (sizes + 7) >> 3
        self.pos = 8 * (np.cumsum(nbytes) - nbytes)
        self.end = self.pos + sizes
        buf = b"".join(b.data for b in strings) + bytes(8)  # every 8-byte read stays inside
        self._bytes = np.frombuffer(buf, dtype=np.uint8)
        # a big-endian 64-bit word at every byte offset: a strided view, no copy
        self._words = np.ndarray(len(buf) - 7, dtype=">u8", buffer=buf, strides=(1,))

    def __enter__(self) -> "SetReader":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        left = self.end - self.pos
        if exc_type is None and left.any():
            i = int(np.argmax(left != 0))
            raise CodecError(f"label {i} has {int(left[i])} trailing bits")

    def remaining(self, rows=slice(None)) -> np.ndarray:
        return self.end[rows] - self.pos[rows]

    @staticmethod
    def _check(short: np.ndarray, need, have, unit: int = 1) -> None:
        """CodecError for the first row where `short`: it needs need * unit
        bits but has only `have` left."""
        if short.any():
            i = int(np.argmax(short))
            need = int(np.broadcast_to(need, short.shape)[i]) * unit
            raise CodecError(f"truncated label: need {need} bits, have {int(have[i])}")

    def _peek(self, pos: np.ndarray, width) -> np.ndarray:
        """The `width`-bit fields (1 <= width <= 57) at bit positions `pos`."""
        word = self._words[pos >> 3].astype(np.uint64)
        word <<= (pos & 7).view(np.uint64)  # in place: a read is as large as its field count
        word >>= (64 - np.asarray(width, dtype=np.int64)).astype(np.uint64)
        return word.view(np.int64)

    def gamma(self, rows=slice(None)) -> np.ndarray:
        pos, end = self.pos[rows], self.end[rows]
        zeros = _WINDOW - _bit_length(self._peek(pos, _WINDOW))
        self._check(pos + 2 * zeros + 1 > end, 2 * zeros + 1, end - pos)
        if zeros.size and zeros.max() >= _WINDOW:
            raise CodecError(f"gamma code of a value >= 2^{_WINDOW}: too large to read")
        values = self._peek(pos + zeros, zeros + 1)
        self.pos[rows] = pos + 2 * zeros + 1
        return values

    def fixed(self, width: int, rows=slice(None)) -> np.ndarray:
        """One `width`-bit field per row, 1 <= width <= 57."""
        pos, end = self.pos[rows], self.end[rows]
        self._check(pos + width > end, width, end - pos)
        values = self._peek(pos, width)
        self.pos[rows] = pos + width
        return values

    def bitmap(self, size: int, rows=slice(None)) -> np.ndarray:
        """`size` flag bits per row, as a (rows x size) boolean array."""
        pos, end = self.pos[rows], self.end[rows]
        self._check(pos + size > end, size, end - pos)
        shift = (pos & 7).astype(np.uint16)[:, None]
        raw = self._bytes[(pos >> 3)[:, None] + np.arange((size + 7) // 8 + 1)].astype(np.uint16)
        aligned = ((raw[:, :-1] << shift) | (raw[:, 1:] >> (8 - shift))).astype(np.uint8)
        self.pos[rows] = pos + size
        return np.unpackbits(aligned, axis=1, count=size).view(bool)

    def packed(self, counts, width: int, rows=slice(None)) -> np.ndarray:
        """counts[i] consecutive `width`-bit fields (width >= 1) of row i, all
        rows' values back to back in one int64 array."""
        pos, end = self.pos[rows], self.end[rows]
        counts = np.asarray(counts, dtype=np.int64)
        self._check(counts > (end - pos) // width, counts, end - pos, unit=width)
        total = int(counts.sum())
        if total and width > _WINDOW:
            raise CodecError(f"field width {width} exceeds {_WINDOW} bits")
        at = np.arange(total, dtype=np.int64) * width
        at += np.repeat(pos - width * (np.cumsum(counts) - counts), counts)
        self.pos[rows] = pos + width * counts
        return self._peek(at, width)

    def id_sets(self, limit: int, rows=slice(None)) -> tuple[np.ndarray, np.ndarray]:
        """One id set (see write_id_set) per row, each id below `limit`: the
        set sizes plus all ids back to back."""
        rows = np.arange(self.pos.size)[rows]
        counts = self.gamma(rows) - 1
        have = self.remaining(rows)
        self._check(counts > have, counts, have)  # every id takes at least one bit
        ids = np.empty(int(counts.sum()), dtype=np.int64)
        # one gamma field per round, read for every set that is still open
        order = np.argsort(-counts, kind="stable")
        by_size, at = rows[order], (np.cumsum(counts) - counts)[order]
        left = -counts[order]  # ascending, so the open sets are a prefix
        last = np.full(rows.size, -1, dtype=np.int64)
        for k in range(int(counts.max(initial=0))):
            m = int(np.searchsorted(left, -k, side="left"))
            cur = last[:m] + self.gamma(by_size[:m])
            if cur.max() >= limit:
                raise CodecError(f"id set entry {int(cur.max())} is out of range for n={limit}")
            last[:m] = cur
            ids[at[:m] + k] = cur
        return counts, ids
