"""Label containers and the bit-exact label file format.

File layout: the ASCII magic ``DLAB1``, then a single bit stream holding the
gamma-coded scheme tag, the scheme's gamma-coded parameters, the gamma-coded
label count, and one record per node: gamma(id+1), gamma(bit length+1), and
the raw label bits.  The final byte is zero-padded.  The same input always
produces byte-identical files.

`LabelSet.parsed()` reads the whole set in one pass: the scheme's set parser
(`harness.SET_PARSERS`) reads each field for all labels at once through
`bits.SetReader`.  The labels of one encoding share one layout (n, level
count, each level's D and size, scheme parameters); a set whose labels
differ there raises LabelError.  All landmark rows of a set are views of one
label-major (n x total size) table, each level's rows a column block of it;
window lists, near tables and balls are dicts.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from .bits import BitCursor, Bits, BitWriter
from .errors import LabelError

__all__ = ["LabelSet", "MAGIC", "save_labels", "load_labels", "dumps", "loads"]

MAGIC = b"DLAB1"

_TAGS = {
    "trivial": 1,
    "warmup": 2,
    "medium": 3,
    "full": 4,
    "bdeg": 5,
    "sparse": 6,
    "additive": 7,
}
_NAMES = {v: k for k, v in _TAGS.items()}


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
        scheme's set parser, cached."""
        if self._parsed is None:
            from . import harness

            self._parsed = harness.SET_PARSERS[self.scheme](self.labels)
        return self._parsed

    def decode(self, u: int, v: int) -> int:
        """Distance reported for the pair (u, v) from their labels alone; u
        and v must be integers in 0..len(labels)-1."""
        from . import harness

        try:
            u, v = operator.index(u), operator.index(v)
        except TypeError:
            raise LabelError(f"node ids ({u!r}, {v!r}) are not integers") from None
        count = len(self.labels)
        if not (0 <= u < count and 0 <= v < count):
            raise LabelError(f"node ids ({u}, {v}) are not both in 0..{count - 1}")
        p = self.parsed()
        return harness.PAIR_DECODERS[self.scheme](p[u], p[v])


def _write_params(w: BitWriter, ls: LabelSet) -> None:
    p = ls.params
    if ls.scheme in ("trivial", "warmup", "medium", "full"):
        counts = list(p.get("landmark_counts", ()))
        if ls.scheme in ("warmup", "medium"):
            counts = [int(p["landmarks"])]
        w.write_gamma(int(p.get("D", 1)))
        w.write_gamma(len(counts) + 1)
        for c in counts:
            w.write_gamma(int(c) + 1)
    elif ls.scheme in ("bdeg", "sparse"):
        w.write_gamma(int(p["delta"]) + 1)
        w.write_gamma(int(p["D"]))
        w.write_gamma(int(p["k"]))
    elif ls.scheme == "additive":
        w.write_gamma(int(p["r"]))
        w.write_gamma(int(p["t"]))
        w.write_gamma(int(p["D"]))
        w.write_gamma(int(p["dominators"]) + 1)
    else:
        raise LabelError(f"unknown scheme {ls.scheme!r}")


def _read_params(cur: BitCursor, scheme: str) -> dict:
    if scheme in ("trivial", "warmup", "medium", "full"):
        d = cur.read_gamma()
        counts = [cur.read_gamma() - 1 for _ in range(cur.read_gamma() - 1)]
        params = {"D": d}
        if scheme in ("warmup", "medium"):
            params["landmarks"] = counts[0] if counts else 0
        if scheme == "full":
            params["levels"] = len(counts)
            params["landmark_counts"] = counts
        return params
    if scheme in ("bdeg", "sparse"):
        return {
            "delta": cur.read_gamma() - 1,
            "D": cur.read_gamma(),
            "k": cur.read_gamma(),
        }
    if scheme == "additive":
        return {
            "r": cur.read_gamma(),
            "t": cur.read_gamma(),
            "D": cur.read_gamma(),
            "dominators": cur.read_gamma() - 1,
        }
    raise LabelError(f"unknown scheme {scheme!r}")


def dumps(ls: LabelSet) -> bytes:
    if ls.scheme not in _TAGS:
        raise LabelError(f"unknown scheme {ls.scheme!r}")
    if len(ls.labels) != ls.n:
        raise LabelError(f"label set claims n={ls.n} but holds {len(ls.labels)} labels")
    w = BitWriter()
    w.write_gamma(_TAGS[ls.scheme])
    _write_params(w, ls)
    w.write_gamma(ls.n + 1)
    for i, bits in enumerate(ls.labels):
        w.write_gamma(i + 1)
        w.write_gamma(bits.nbits + 1)
        w.write_bits(bits)
    return MAGIC + w.getvalue().data


def loads(buf: bytes) -> LabelSet:
    if buf[: len(MAGIC)] != MAGIC:
        raise LabelError("not a label file: bad magic")
    payload = buf[len(MAGIC):]
    cur = BitCursor(Bits(payload, 8 * len(payload)))
    tag = cur.read_gamma()
    if tag not in _NAMES:
        raise LabelError(f"unknown scheme tag {tag}")
    scheme = _NAMES[tag]
    params = _read_params(cur, scheme)
    n = cur.read_gamma() - 1
    labels: list[Bits] = []
    for i in range(n):
        ident = cur.read_gamma() - 1
        if ident != i:
            raise LabelError(f"record {i} carries id {ident}")
        nbits = cur.read_gamma() - 1
        labels.append(cur.read_bits(nbits))
    return LabelSet(scheme, n, params, labels)


def save_labels(ls: LabelSet, path) -> None:
    with open(path, "wb") as fh:
        fh.write(dumps(ls))


def load_labels(path) -> LabelSet:
    with open(path, "rb") as fh:
        return loads(fh.read())
