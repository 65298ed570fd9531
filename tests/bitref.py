"""Scalar reference codec for the tests: a bit writer and a bit cursor that
handle one field at a time with Python ints.

The library writes with the array encoders (`bits.gamma_bits`,
`fixed_bits`, `id_set_bits`) and reads with `bits.SetReader`; the tests
check both against this plain, field-by-field codec.
"""

from distlab.bits import Bits
from distlab.errors import CodecError


def bits_from_int(value: int, nbits: int) -> Bits:
    """`value` as an `nbits`-bit string, MSB first."""
    if value < 0 or value.bit_length() > nbits:
        raise CodecError(f"value {value} does not fit in {nbits} bits")
    nbytes = (nbits + 7) // 8
    return Bits((value << (8 * nbytes - nbits)).to_bytes(nbytes, "big"), nbits)


def bits_to_int(bits: Bits) -> int:
    """The bit string as an unsigned integer, MSB first (0 when empty)."""
    if bits.nbits == 0:
        return 0
    return int.from_bytes(bits.data, "big") >> (8 * len(bits.data) - bits.nbits)


class BitWriter:
    """Append-only bit sink; call getvalue() once to materialize the Bits."""

    __slots__ = ("_parts", "_nbits")

    def __init__(self):
        self._parts: list[tuple[int, int]] = []
        self._nbits = 0

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
            self._parts.append((bits_to_int(bits), bits.nbits))
            self._nbits += bits.nbits

    def getvalue(self) -> Bits:
        value, width = _fold(self._parts)
        assert width == self._nbits
        return bits_from_int(value, width)


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
        return bits_from_int(self.read(width), width)
