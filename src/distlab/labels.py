"""Label containers, the bit-exact label file format, and the scheme registry.

File layout: the ASCII magic ``DLAB1``, then a single bit stream holding the
gamma-coded scheme tag, the scheme's gamma-coded parameters, the gamma-coded
label count, and one record per node: gamma(id+1), gamma(bit length+1), and
the raw label bits.  The final byte is zero-padded, and any other tail is a
CodecError.  The same input always produces byte-identical files.  `dumps`
writes the prologue and the record codes with `bits.gamma_bits`, and
`dumps` and `loads` move the label bits a block of records at a time
through one unpacked buffer.  `loads` reads the prologue with the scalar
`_gamma`, then each record's two gamma codes from one 128-bit window.

Each scheme is one `Scheme` record, which the module defining the scheme
registers on import; everything else looks a scheme up by name.  Decoders
are dispatched through the tables the registry fills (`SET_PARSERS`,
`PAIR_DECODERS`, `MATRIX_DECODERS`), so rebinding an entry reaches every caller;
`decode_pair` decodes two loose labels of a scheme.

`LabelSet.parsed()` reads the whole set in one pass: the scheme's set parser
reads each field for all labels at once through `bits.SetReader`.  The
labels of one encoding share one layout (n, level count, each level's D and
size, scheme parameters); a set whose labels differ there raises LabelError.
All route rows of a set (landmark rows, warmup and trivial rows, additive's
dominator row) are views of one label-major route table, each level's rows
a column block of it.  The table is narrow: its dtype and its "absent"
sentinel 2n - 1 follow from the header's n alone (`preserving._sentinel`).
Window lists, near tables and balls are dicts.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .bits import Bits, gamma_bits
from .errors import CodecError, GraphError, LabelError

__all__ = [
    "LabelSet", "MAGIC", "Scheme", "SCHEMES", "SET_PARSERS", "PAIR_DECODERS", "MATRIX_DECODERS",
    "register", "lookup", "gamma_fields", "header_value", "required", "decode_pair",
    "save_labels", "load_labels", "dumps", "loads",
]

MAGIC = b"DLAB1"


@dataclass(frozen=True)
class Scheme:
    """Everything the codec, the harness and the CLI know about one scheme.

    encode(g, seed, opts) -> LabelSet reads the encode/bench options by name
    (D, r, t, dd, delta; None means unset).  write_params(params) -> list[int]
    and read_params(gamma) -> dict are the file-header codec: the header's
    gamma-coded values in order, and the params rebuilt from them, gamma()
    returning the next value.  contract(params, w, h, d) maps each violation
    kind of the scheme's own window to a bool mask over pairs of true weight
    w, hops h and decoded d (int64 arrays); universal soundness is the
    harness's.  pair(a, b) decodes two parsed labels; matrix(parsed, rows)
    yields the decoded matrix of a parsed set as (start, block) blocks of
    `rows` whole rows, block = matrix[start:start + rows, start:].
    bound(n, params) is the benchmark's reference size.
    carried(label) gives the header params that one parsed label carries
    itself, which `LabelSet.parsed()` holds the header to.
    """

    name: str
    tag: int
    encode: Callable
    parse_set: Callable
    pair: Callable
    matrix: Callable
    write_params: Callable
    read_params: Callable
    contract: Callable
    bound: Callable
    carried: Callable


SCHEMES: dict[str, Scheme] = {}
SET_PARSERS: dict[str, Callable] = {}
PAIR_DECODERS: dict[str, Callable] = {}
MATRIX_DECODERS: dict[str, Callable] = {}


def register(scheme: Scheme) -> None:
    """Add a scheme to the registry and its decoders to the dispatch tables."""
    if scheme.name in SCHEMES or any(s.tag == scheme.tag for s in SCHEMES.values()):
        raise ValueError(f"scheme {scheme.name!r} or tag {scheme.tag} already registered")
    SCHEMES[scheme.name] = scheme
    SET_PARSERS[scheme.name] = scheme.parse_set
    PAIR_DECODERS[scheme.name] = scheme.pair
    MATRIX_DECODERS[scheme.name] = scheme.matrix


def lookup(table: dict, name: str):
    """`table[name]` for `SCHEMES` or a dispatch table; LabelError when no
    scheme of that name is registered."""
    try:
        return table[name]
    except KeyError:
        raise LabelError(f"unknown scheme {name!r}") from None


def header_value(key: str, value, offset: int) -> int:
    """`value` + `offset`, the gamma-coded number a file header stores for
    the param `key`; LabelError when the value is None (the param is
    missing), is not an integer, or leaves that number below 1 or at or
    above 2^63."""
    if value is None:
        raise LabelError(f"header param {key} is missing")
    try:
        x = operator.index(value) + offset
    except TypeError:
        raise LabelError(f"header param {key}={value!r} is not an integer") from None
    if not 1 <= x < 1 << 63:  # gamma_bits codes int64 values
        raise LabelError(f"header param {key}={value!r} is out of range")
    return x


def gamma_fields(*spec: tuple[str, int]) -> tuple[Callable, Callable]:
    """Header codec (write_params, read_params) storing each param `key` of
    (key, offset) in `spec` as gamma(params[key] + offset), in order."""

    def write(params: dict) -> list[int]:
        return [header_value(key, params.get(key), offset) for key, offset in spec]

    def read(gamma: Callable[[], int]) -> dict:
        return {key: gamma() - offset for key, offset in spec}

    return write, read


def required(opts: dict, key: str, name: str):
    """The encode option `key`; GraphError naming its CLI flag when unset."""
    value = opts.get(key)
    if value is None:
        raise GraphError(f"--{key.lower()} is required for the {name} scheme")
    return value


@dataclass
class LabelSet:
    """Encoder output: one self-delimiting label per node plus scheme metadata.

    `labels[i]` is node i's label.  `params` holds the scheme parameters that
    go into the file header; `meta` carries encode diagnostics (landmark
    draws, resample history, ...) and is never serialized.
    """

    scheme: str
    n: int
    params: dict
    labels: list[Bits]
    meta: dict = field(default_factory=dict, repr=False, compare=False)
    _parsed: list | None = field(default=None, init=False, repr=False, compare=False)

    def bit_sizes(self) -> np.ndarray:
        return np.array([b.nbits for b in self.labels], dtype=np.int64)

    @property
    def max_bits(self) -> int:
        return int(self.bit_sizes().max()) if self.labels else 0

    @property
    def mean_bits(self) -> float:
        return float(self.bit_sizes().mean()) if self.labels else 0.0

    def parsed(self) -> list:
        """Labels parsed into their in-memory form, all in one pass of the
        scheme's set parser, cached.  There must be n labels, and label i
        must carry id i: the bulk decoders index by position, the pair
        decoders by id.  A header param that the labels also carry must
        hold their value, since verify reads the contract from the header."""
        if self._parsed is None:
            if len(self.labels) != self.n:
                raise LabelError(f"label set claims n={self.n} but holds {len(self.labels)} labels")
            parsed = lookup(SET_PARSERS, self.scheme)(self.labels)
            for i, p in enumerate(parsed):
                if p.id != i:
                    raise LabelError(f"label {i} carries id {p.id}")
            # the set parsers refuse labels of different layouts, so label 0 speaks for all
            carried = SCHEMES[self.scheme].carried(parsed[0]) if parsed else {}
            for key, value in carried.items():
                header = self.params.get(key)
                if header != value:
                    raise LabelError(f"header param {key}={header!r}, the labels carry {value!r}")
            self._parsed = parsed
        return self._parsed

    def decode(self, u: int, v: int) -> int:
        """Distance reported for the pair (u, v) from their labels alone; u
        and v must be integers in 0..len(labels)-1."""
        try:
            u, v = operator.index(u), operator.index(v)
        except TypeError:
            raise LabelError(f"node ids ({u!r}, {v!r}) are not integers") from None
        count = len(self.labels)
        if not (0 <= u < count and 0 <= v < count):
            raise LabelError(f"node ids ({u}, {v}) are not both in 0..{count - 1}")
        p = self.parsed()  # checks that the scheme is registered
        return PAIR_DECODERS[self.scheme](p[u], p[v])


def decode_pair(scheme: str, a: Bits, b: Bits) -> int:
    """Distance reported by two labels of `scheme` alone.  They are parsed
    as one set, so two labels of different encodings raise LabelError."""
    return lookup(PAIR_DECODERS, scheme)(*lookup(SET_PARSERS, scheme)([a, b]))


DUMP_BLOCK = 1 << 18  # label bits that dumps and loads hold unpacked at a time


def dumps(ls: LabelSet) -> bytes:
    scheme = lookup(SCHEMES, ls.scheme)
    if len(ls.labels) != ls.n:
        raise LabelError(f"label set claims n={ls.n} but holds {len(ls.labels)} labels")
    # the prologue's gamma codes, then each record's gamma(id + 1) and
    # gamma(bits + 1), all from one gamma_bits call; record i's codes are
    # bits code_at[i]:code_at[i + 1] of it, and the label's bits follow.
    # A block of records is unpacked, joined through memoryviews (each
    # label sliced to its bits, leaving its padding out) and packed at
    # once; the bits past the block's last whole byte start the next block.
    head = [scheme.tag, *scheme.write_params(ls.params), ls.n + 1]
    sizes = np.fromiter((b.nbits for b in ls.labels), dtype=np.int64, count=ls.n)
    records = np.column_stack([np.arange(1, ls.n + 1), sizes + 1]).ravel()
    codes, lengths = gamma_bits(np.append(np.array(head, dtype=np.int64), records))
    codes = memoryview(codes)
    code_at = np.cumsum(np.append(lengths[:len(head)].sum(),
                                  lengths[len(head):].reshape(-1, 2).sum(axis=1))).tolist()
    stops = np.searchsorted(np.cumsum(sizes), np.arange(DUMP_BLOCK, int(sizes.sum()), DUMP_BLOCK))
    out, carry, start = [MAGIC], codes[:code_at[0]], 0
    for stop in [*(stops + 1).tolist(), ls.n]:
        block = ls.labels[start:stop]
        unpacked = memoryview(np.unpackbits(np.frombuffer(b"".join(b.data for b in block), dtype=np.uint8)))
        parts, at = [carry], 0
        for i, label in enumerate(block, start):
            parts += [codes[code_at[i]:code_at[i + 1]], unpacked[at:at + label.nbits]]
            at += 8 * len(label.data)
        bits = b"".join(parts)
        whole = len(bits) & ~7
        out.append(np.packbits(np.frombuffer(bits[:whole], dtype=np.uint8)).tobytes())
        carry, start = bits[whole:], stop
    out.append(np.packbits(np.frombuffer(carry, dtype=np.uint8)).tobytes())
    return b"".join(out)


def loads(buf: bytes) -> LabelSet:
    if buf[: len(MAGIC)] != MAGIC:
        raise LabelError("not a label file: bad magic")
    payload = buf[len(MAGIC):]
    pos = 0

    def gamma() -> int:
        nonlocal pos
        value, pos = _gamma(payload, pos, 8 * len(payload))
        return value

    tag = gamma()
    scheme = next((s for s in SCHEMES.values() if s.tag == tag), None)
    if scheme is None:
        raise LabelError(f"unknown scheme tag {tag}")
    params = scheme.read_params(gamma)
    n = gamma() - 1
    starts, sizes, pos = _frame(payload, pos, n)
    tail = 8 * len(payload) - pos
    if tail > 7 or payload[-1] & ((1 << tail) - 1):
        raise CodecError(f"the {tail} bits after the last record are not zero padding")
    return LabelSet(scheme.name, n, params, _cut(payload, starts, sizes))


def _gamma(data: bytes, pos: int, end: int) -> tuple[int, int]:
    """The Elias gamma code at bit `pos` of `data`, which ends at bit `end`
    (at most 8 * len(data)): its value and the bit position after it.  The
    zero run is found 64 bits at a time, so a code of any length is read;
    CodecError when the code does not end by `end`."""
    one, bits = pos, 0
    while not bits:  # `bits`: the 64-bit word from `one` on, masked to start there
        if one >= end:
            raise CodecError(f"truncated bit stream: gamma code at position {pos} has no 1 bit")
        at = one >> 3
        word = data[at:at + 8]
        bits = int.from_bytes(word, "big") & ((1 << 8 * len(word) - (one & 7)) - 1)
        one = 8 * (at + len(word))
    one -= bits.bit_length()  # the code's leading 1 bit
    stop = 2 * one - pos + 1
    if stop > end:
        raise CodecError(f"truncated bit stream: gamma code at position {pos} needs "
                         f"{stop - pos} bits, have {end - pos}")
    value = int.from_bytes(data[one >> 3:(stop + 7) >> 3], "big") >> (-stop & 7)
    return value & ((1 << (stop - one)) - 1), stop


def _frame(data: bytes, pos: int, n: int) -> tuple[list[int], list[int], int]:
    """The bit offset and bit length of the payloads of the n records of
    `data` from bit `pos` on, and the position after the last record.  A
    record's gamma(id + 1) and gamma(bits + 1) are read from one 128-bit
    window of the bytes, through `_gamma` where they do not both fit in it
    or it reaches past the stream."""
    end = 8 * len(data)
    starts, sizes = [], []
    for i in range(n):
        room = 128 - (pos & 7)  # window bits from pos on
        w = int.from_bytes(data[pos >> 3:(pos >> 3) + 16], "big") & ((1 << room) - 1)
        a = 2 * w.bit_length() - room - 1  # window bits left after gamma(id + 1)
        rest = w & ((1 << a) - 1) if a > 0 else 0
        b = 2 * rest.bit_length() - a - 1 if a > 0 else -1  # ... and after gamma(bits + 1)
        if b >= 0 and pos + room <= end:
            ident, nbits, pos = (w >> a) - 1, (rest >> b) - 1, pos + room - b
        else:
            ident, pos = _gamma(data, pos, end)
            nbits, pos = _gamma(data, pos, end)
            ident, nbits = ident - 1, nbits - 1
        if ident != i:
            raise LabelError(f"record {i} carries id {ident}")
        if pos + nbits > end:
            raise CodecError(f"truncated bit stream: need {nbits} bits at position {pos}, "
                             f"have {end - pos}")
        starts.append(pos)
        sizes.append(nbits)
        pos += nbits
    return starts, sizes, pos


def _cut(data: bytes, starts: list[int], sizes: list[int]) -> list[Bits]:
    """The payloads of `sizes[i]` bits at bit offsets `starts[i]` of `data`,
    as Bits.  As in dumps, a block of records is unpacked, each payload is
    sliced from it through a memoryview and padded to whole bytes, and the
    block is packed at once; the packed bytes are then cut per payload."""
    labels, pad, i = [], bytes(8), 0
    while i < len(sizes):
        j, bits = i + 1, sizes[i]
        while j < len(sizes) and bits + sizes[j] <= DUMP_BLOCK:
            bits += sizes[j]
            j += 1
        first, stop = starts[i] >> 3, (starts[j - 1] + sizes[j - 1] + 7) >> 3
        unpacked = memoryview(np.unpackbits(np.frombuffer(data, np.uint8, stop - first, first)))
        parts = []
        for at, size in zip(starts[i:j], sizes[i:j]):
            at -= 8 * first
            parts += [unpacked[at:at + size], pad[:-size & 7]]
        packed = np.packbits(np.frombuffer(b"".join(parts), dtype=np.uint8)).tobytes()
        at = 0
        for size in sizes[i:j]:
            nbytes = (size + 7) >> 3
            labels.append(Bits(packed[at:at + nbytes], size))
            at += nbytes
        i = j
    return labels


def save_labels(ls: LabelSet, path) -> None:
    with open(path, "wb") as fh:
        fh.write(dumps(ls))


def load_labels(path) -> LabelSet:
    with open(path, "rb") as fh:
        return loads(fh.read())
