"""Corrupted label files: flipped bits, truncations and overwritten bytes in
small DLAB1 files of every scheme.  Loading, parsing and bulk decoding either
succeed or raise a typed error (LabelError / CodecError), never anything else."""

import functools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from distlab import (
    AdditiveParams,
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
)
from distlab.errors import CodecError, LabelError
from distlab.labels import dumps, loads

pytestmark = pytest.mark.filterwarnings("ignore:r=.*exceeds")

ENCODERS = {
    "trivial": encode_trivial,
    "warmup": lambda g: encode_warmup(g, PreservingParams(D=3, seed=2)),
    "medium": lambda g: encode_medium(g, PreservingParams(D=3, seed=2)),
    "full": lambda g: encode_full(g, PreservingParams(D=2, seed=2)),
    "bdeg": lambda g: encode_bounded_degree(g, max(2, g.max_degree()), 2),
    "sparse": lambda g: encode_sparse(g, 2),
    "additive": lambda g: encode_additive(g, AdditiveParams(r=2, t=4, D=2, seed=2)),
}


@functools.lru_cache(maxsize=None)
def label_file(scheme: str) -> bytes:
    return dumps(ENCODERS[scheme](gen_gnm(12, 20, seed=2)))


def mutate(blob: bytes, op: str, at: int, value: int) -> bytes:
    """One corruption of the payload (the magic stays), at a byte index."""
    head, body = blob[:5], bytearray(blob[5:])
    at %= len(body)
    if op == "flip":
        body[at] ^= 1 << (value % 8)
    elif op == "truncate":
        del body[at:]
    else:
        body[at] = value % 256
    return head + bytes(body)


@pytest.mark.parametrize("scheme", list(ENCODERS))
@settings(max_examples=150, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    op=st.sampled_from(["flip", "truncate", "overwrite"]),
    at=st.integers(min_value=0, max_value=1 << 20),
    value=st.integers(min_value=0, max_value=255),
)
def test_corrupted_file_raises_only_typed_errors(scheme, op, at, value):
    blob = mutate(label_file(scheme), op, at, value)
    try:
        ls = loads(blob)
        ls.parsed()
        decode_matrix(ls)
    except (LabelError, CodecError):
        pass
