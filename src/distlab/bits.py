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

Bulk writers build many labels at once with the array encoders
(`fixed_bits`, `gamma_bits`, `id_set_bits`, `concat_ragged`).  Each returns
an unpacked bit array, one `uint8` 0/1 per bit, MSB first, holding exactly
the bits the matching `BitWriter` calls write; `Bits.from_array` packs one
label's slice.
"""

from __future__ import annotations

import numpy as np

from .errors import CodecError

__all__ = [
    "Bits",
    "BitWriter",
    "BitCursor",
    "gamma_length",
    "pack_values",
    "fixed_bits",
    "gamma_bits",
    "id_set_bits",
    "concat_ragged",
    "bits_to_bytes",
    "bits_from_bytes",
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


def pack_values(values, width: int) -> tuple[int, int]:
    """Pack an array of non-negative ints into one (value, total_width) field.

    Each entry occupies exactly `width` bits, big-endian, in array order.
    """
    values = np.asarray(values, dtype=np.int64)
    total = int(values.size) * width
    if values.size == 0 or width == 0:
        if np.any(values):
            raise CodecError("cannot pack nonzero values into width 0")
        return 0, total
    if np.any(values < 0) or np.any(values >> width):
        raise CodecError(f"packed value out of range for width {width}")
    shifts = np.arange(width - 1, -1, -1, dtype=np.int64)
    bits = ((values[:, None] >> shifts) & 1).astype(np.uint8).ravel()
    packed = np.packbits(bits)  # zero-pads at the end
    value = int.from_bytes(packed.tobytes(), "big") >> (8 * packed.size - total)
    return value, total


def _msb_columns(values: np.ndarray, nbytes: int) -> np.ndarray:
    """(len(values), 8 * nbytes) bit matrix: the low 8 * nbytes bits of each
    non-negative int64, MSB first."""
    be = values.astype(">u8").view(np.uint8).reshape(-1, 8)[:, 8 - nbytes:]
    return np.unpackbits(be, axis=1)


def fixed_bits(values, width: int) -> np.ndarray:
    """Bit array of `values` as consecutive `width`-bit big-endian fields, the
    bits pack_values(values, width) packs."""
    values = np.asarray(values, dtype=np.int64).ravel()
    if width < 0:
        raise CodecError("negative field width")
    if values.size == 0 or width == 0:
        if np.any(values):
            raise CodecError("cannot pack nonzero values into width 0")
        return np.zeros(0, dtype=np.uint8)
    if values.min() < 0 or (width < 63 and np.any(values >> width)):
        raise CodecError(f"packed value out of range for width {width}")
    nbytes = min(8, (width + 7) // 8)
    cols = _msb_columns(values, nbytes)
    lead = 8 * nbytes - width
    if lead < 0:  # wider than 64 bits: leading zeros
        cols = np.pad(cols, ((0, 0), (-lead, 0)))
        lead = 0
    return cols[:, lead:].ravel()


def gamma_bits(values) -> tuple[np.ndarray, np.ndarray]:
    """Elias gamma codes of `values` (each >= 1) back to back, plus the length
    of each code.  gamma(x) is x as a (2 * bit_length(x) - 1)-bit field."""
    x = np.asarray(values, dtype=np.int64).ravel()
    if x.size and x.min() < 1:
        raise CodecError(f"gamma code requires x >= 1, got {int(x.min())}")
    e = np.frexp(x)[1].astype(np.int64)
    nb = e - ((x >> (e - 1)) == 0)  # bit length; the float exponent may round up
    lengths = 2 * nb - 1
    ends = np.cumsum(lengths)
    out = np.zeros(int(ends[-1]) if ends.size else 0, dtype=np.uint8)
    ncol = 8 * min(8, (int(nb.max(initial=0)) + 7) // 8)  # holds every value's bits
    cols = _msb_columns(x, ncol // 8)
    keep = np.arange(ncol) >= ncol - nb[:, None]  # the zero prefix is already in `out`
    out[(ends[:, None] - ncol + np.arange(ncol))[keep]] = cols[keep]
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


def concat_ragged(pieces) -> tuple[np.ndarray, np.ndarray]:
    """Interleave per-node pieces in node order.

    Each piece is (bits, lengths): the bits of nodes 0, 1, ... back to back,
    node u's share being lengths[u] bits.  Returns node 0's share of every
    piece in piece order, then node 1's, and so on, plus per-node offsets
    (node u's bits are out[offsets[u]:offsets[u + 1]]).
    """
    cuts, sizes = [], 0
    for bits, lengths in pieces:
        lengths = np.asarray(lengths, dtype=np.intp)
        ends = [0, *np.cumsum(lengths).tolist()]
        if ends[-1] != bits.size:
            raise CodecError(f"piece of {bits.size} bits, lengths add up to {ends[-1]}")
        cuts.append((bits, ends))
        sizes = sizes + lengths
    parts = [bits[c[u]:c[u + 1]] for u in range(len(sizes)) for bits, c in cuts]
    offsets = np.concatenate(([0], np.cumsum(sizes))).astype(np.intp)
    return np.concatenate(parts) if parts else np.zeros(0, dtype=np.uint8), offsets


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
        zeros = 0
        while self.read_bit() == 0:
            zeros += 1
        if zeros == 0:
            return 1
        return (1 << zeros) | self.read(zeros)

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

    def read_packed(self, count: int, width: int) -> np.ndarray:
        """Read `count` consecutive fixed-width fields into an int64 array."""
        total = count * width
        raw = self.read(total)
        if count == 0 or width == 0:
            return np.zeros(count, dtype=np.int64)
        nbytes = (total + 7) // 8
        buf = (raw << (8 * nbytes - total)).to_bytes(nbytes, "big")
        bits = np.unpackbits(np.frombuffer(buf, dtype=np.uint8))[:total]
        weights = np.left_shift(np.int64(1), np.arange(width - 1, -1, -1, dtype=np.int64))
        return bits.reshape(count, width).astype(np.int64) @ weights

    def read_bitmap(self, count: int) -> np.ndarray:
        """Read `count` flag bits into a boolean array."""
        return self.read_packed(count, 1).astype(bool)


def bits_to_bytes(bits: Bits) -> bytes:
    """Standalone byte framing: gamma(nbits+1) header, payload, zero padding."""
    w = BitWriter()
    w.write_gamma(bits.nbits + 1)
    w.write_bits(bits)
    return w.getvalue().data


def bits_from_bytes(buf: bytes) -> Bits:
    """Inverse of bits_to_bytes; ignores the final-byte padding."""
    cur = BitCursor(Bits(bytes(buf), 8 * len(buf)))
    nbits = cur.read_gamma() - 1
    return cur.read_bits(nbits)
