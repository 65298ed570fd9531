"""Distance labels that are exact above a threshold.

Four encoder/decoder pairs share this module:

* ``trivial``  -- each label stores the node's full distance row; exact for
  every pair, linear-size labels.  This is the fallback for D <= 1.
* ``warmup``   -- every node stores its distance to one shared landmark
  sample, resampled until every pair at distance >= D has a landmark on a
  shortest path between them.
* ``medium``   -- exact when the hop distance h(u, v) lies in [D, 2D].
  A smaller landmark sample is drawn; a node left with too many far peers
  whose shortest routes no landmark certifies ("sick") has its distance
  column added to the shared table, while healthy nodes keep a short
  private list of their still-uncovered window peers.
* ``full``     -- concatenates medium levels for thresholds D, 2D, 4D, ...
  and decodes by taking the minimum; exact whenever h(u, v) >= D.

Windows are defined on hop distance (minimum edge count among minimum-weight
paths) while stored values are weighted distances, so the schemes stay exact
on graphs that contain 0-weight edges, which the degree-reduction transform
introduces.  On all-unit-weight graphs hop distance equals weighted distance.

Decoders see only the two labels: every label embeds the node count and all
per-level parameters.  Encoding reads the graph's cached all-pairs tables
and its cached shortest-path DAG (built once per graph, O(m * n / 8) bytes of
edge masks), then runs one bit-parallel certification pass per level and
sampling attempt, which only propagates landmark bits along the DAG (oracle
grade, O(n^2) memory for the answer); that is deliberate and fine at desk
scale.  All decode functions are pure and thread-safe; encoding
touches only immutable graph state.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .bits import (
    BitCursor, BitWriter, Bits, SetReader, concat_ragged, fixed_bits, gamma_bits, id_set_bits,
)
from .errors import CodecError, EncodingFailure, GraphError, LabelError
from .graph import INF, Graph
from .labels import LabelSet, Scheme, register, required

__all__ = [
    "PreservingParams",
    "sample_landmarks",
    "classify_nodes",
    "encode_warmup",
    "decode_warmup",
    "encode_medium",
    "decode_medium",
    "encode_full",
    "decode_full",
    "encode_trivial",
    "decode_trivial",
]


@dataclass(frozen=True)
class PreservingParams:
    """Knobs for the threshold schemes.

    D is the exactness threshold (D <= 1 routes encode_full to the trivial
    table scheme).  `c` is the warmup oversampling constant and must exceed 2
    for the resampling loop to terminate quickly.
    """

    D: int
    seed: int = 0
    resample_cap: int = 50
    c: float = 3.0

    def __post_init__(self):
        if self.D < 1:
            raise GraphError(f"threshold D must be >= 1, got {self.D}")
        if self.resample_cap < 1:
            raise GraphError("resample_cap must be >= 1")
        if self.c <= 2:
            raise GraphError("warmup oversampling constant c must be > 2")


def _mix(seed: int, salt: int) -> int:
    return (int(seed) * 1_000_003 + int(salt)) & 0x7FFFFFFFFFFFFFFF


def sample_landmarks(g: Graph, size: int, seed) -> list[int]:
    """`size` uniform independent draws from V, deduplicated and sorted.

    The multiset is drawn with replacement (the same node may be picked
    several times); duplicates only waste bits, so the result is the
    ascending set of distinct draws.  Deterministic per seed.
    """
    if g.n < 1:
        raise GraphError("cannot sample landmarks from an empty graph")
    if size < 1:
        raise GraphError("landmark sample size must be >= 1")
    rng = random.Random(seed)
    return sorted({rng.randrange(g.n) for _ in range(size)})


# ---------------------------------------------------------------------------
# Shortest-route certificates.
#
# A landmark w certifies the pair (u, v) when weight(u,w) + weight(w,v) equals
# weight(u,v), i.e. w lies on some minimum-weight path.  A disconnected pair
# counts as certified by any landmark set (there is no route to repair).


def _landmark_ids(g: Graph, landmarks) -> list[int]:
    """Sorted distinct landmark ids, each checked to name a node of g."""
    ids = sorted({int(w) for w in landmarks})
    if ids and not (0 <= ids[0] and ids[-1] < g.n):
        raise GraphError(f"landmark ids {ids[0]}..{ids[-1]} out of range 0..{g.n - 1}")
    return ids


def _covered(g: Graph, landmarks: list[int]) -> np.ndarray:
    """Boolean matrix: True where some landmark lies on a minimum-weight u-v
    path, or where v is unreachable from u.  The relation is symmetric, and
    the matrix is returned as one C-ordered array.

    The question is answered on the graph's cached shortest-path DAG (see
    graph.ShortestPathDag), where only the landmark bits change from call to
    call.  For each component v, F[v] is a bitset over sources s: "a
    landmark lies on a shortest s-v path".  It holds at v's own component
    when that component has a landmark, and otherwise flows along the DAG
    edges x -> v of source s.  Passes of F = F0 | OR_x (F[x] & mask[x -> v])
    run until F stops changing, at most diameter + 1 of them (64 sources per
    machine word).
    """
    n = g.n
    if n == 0:
        return np.zeros((0, 0), dtype=bool)
    dag = g.sp_dag()
    rows, starts, cols = dag.csr
    seeds = np.zeros_like(dag.unreached)
    seeds[dag.comp[landmarks]] = ~np.uint64(0)
    F = seeds
    gathered = np.empty_like(dag.masks)
    while rows.size:  # without an edge F stays the seeds
        np.take(F, cols, axis=0, out=gathered)
        gathered &= dag.masks
        nxt = seeds.copy()
        nxt[rows] |= np.bitwise_or.reduceat(gathered, starts, axis=0)
        if np.array_equal(nxt, F):
            break
        F = nxt
    F = F | dag.unreached
    ncomp = len(F)
    cc = np.unpackbits(F.view(np.uint8), axis=1, count=ncomp, bitorder="little").view(bool)
    if ncomp == n:  # no 0-weight edge joins two nodes: comp is the identity
        return cc
    return np.take(np.take(cc, dag.comp, axis=0), dag.comp, axis=1)


def _classify(g: Graph, landmarks: list[int], D: int) -> tuple[list[int], np.ndarray]:
    """Sick node ids plus the boolean uncovered matrix for threshold D."""
    _, hops = g.apsp()
    unc = hops >= D
    unc &= ~_covered(g, landmarks)
    counts = unc.sum(axis=1)
    return [int(u) for u in np.flatnonzero(counts > g.n / D)], unc


def classify_nodes(g: Graph, landmarks, D: int) -> tuple[set[int], dict[int, list[int]]]:
    """Partition nodes into sick/healthy for threshold D.

    v is uncovered for u when the hop distance h(u, v) is at least D and no
    sampled landmark w satisfies d(u,w) + d(w,v) = d(u,v).  A node with more
    than n/D uncovered peers is sick.  Returns the sick set and the full
    uncovered map.
    """
    sick, unc = _classify(g, _landmark_ids(g, landmarks), D)
    uc = {u: [int(v) for v in np.flatnonzero(unc[u])] for u in range(g.n)}
    return set(sick), uc


# ---------------------------------------------------------------------------
# Shared label pieces

def _row_width(n: int) -> int:
    # fits any distance 0..n-1 plus an in-band unreachable marker
    return n.bit_length() + 1


def _w2d(D: int) -> int:
    # fits any stored window distance 0..2D
    return (2 * D).bit_length()


@dataclass
class MediumLevel:
    """Parsed per-level payload: landmark row plus the uncovered window list."""

    D: int
    size: int
    sick: bool
    lm: np.ndarray  # int64 distances to the level's landmark table, INF if absent
    uc: dict        # uncovered node id -> weighted distance (healthy nodes only)


class _LevelData:
    """Encoder-side view of one level, shared by all nodes."""

    __slots__ = ("D", "rs", "sick", "table", "window", "weight")

    def __init__(self, D, rs, sick, table, window, weight):
        self.D = D
        self.rs = rs
        self.sick = sick
        self.table = table
        # (starts, cols): u's uncovered peers within hop 2D are cols[starts[u]:starts[u + 1]]
        self.window = window
        self.weight = weight


def _build_level(g: Graph, D: int, seed: int, cap: int, count: int):
    """Sample landmarks for one level, resampling until the sick set is small;
    the level's rows are built for nodes 0..count-1, the ones that get a
    label (sick counts still cover every node)."""
    n = g.n
    draws = max(1, math.ceil(2 * (n / D) * math.log(D)))
    history: list[int] = []
    landmarks: list[int] = []
    sick_ids: list[int] = []
    unc = None
    for attempt in range(cap):
        landmarks = sample_landmarks(g, draws, _mix(seed, attempt))
        sick_ids, unc = _classify(g, landmarks, D)
        history.append(len(sick_ids))
        if len(sick_ids) < 2 * n / D:
            break
    else:
        raise EncodingFailure(
            f"sick set stayed at |S|={history[-1]} >= {2 * n / D:.1f} for "
            f"{cap} samples (n={n}, D={D})"
        )
    weight, hops = g.apsp()
    rs = sorted(set(landmarks) | set(sick_ids))
    sick = np.zeros(n, dtype=bool)
    sick[sick_ids] = True
    table = weight[:count, rs]
    rows, cols = np.nonzero(unc[:count] & (hops[:count] <= 2 * D))
    window = (np.searchsorted(rows, np.arange(count + 1)), cols)
    meta = {
        "draws": draws,
        "attempts": len(history),
        "sick_history": history,
        "landmarks": landmarks,
        "sick": sick_ids,
    }
    return _LevelData(D, rs, sick, table, window, weight), meta


def _level_bits(lvl: _LevelData, count: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Level bodies of nodes 0..count-1, as (bits, per-node lengths) pieces.

    A body is gamma(D), gamma(size+1), the sick bit, the presence bitmap of
    the node's landmark row (entries <= 2D) and the present values at
    _w2d(D) bits each; a healthy node then adds its uncovered window peers
    as an id set and their weights at _w2d(D) bits each.
    """
    D, w = lvl.D, _w2d(lvl.D)
    table = lvl.table[:count]
    sick = lvl.sick[:count]
    present = table <= 2 * D
    prefix = gamma_bits([D, len(lvl.rs) + 1])[0]
    head = np.empty((count, prefix.size + 1 + present.shape[1]), dtype=np.uint8)
    head[:, :prefix.size] = prefix
    head[:, prefix.size] = sick
    head[:, prefix.size + 1:] = present
    starts, cols = lvl.window
    healthy = ~sick
    listed = np.diff(starts[:count + 1])
    nwin = listed * healthy  # a sick node writes no window
    ids = cols[:starts[count]][np.repeat(healthy, listed)]
    set_bits, set_len = id_set_bits(ids, nwin[healthy])
    set_lengths = np.zeros(count, dtype=np.intp)
    set_lengths[healthy] = set_len
    return [
        (head.ravel(), np.full(count, head.shape[1])),
        (fixed_bits(table[present], w), w * present.sum(axis=1)),
        (set_bits, set_lengths),
        (fixed_bits(lvl.weight[np.repeat(np.arange(count), nwin), ids], w), w * nwin),
    ]


def _header_bits(n: int, count: int, *extra: int) -> tuple[np.ndarray, np.ndarray]:
    """Label headers gamma(n+1), gamma(u+1), then gamma of each `extra`
    value, for nodes u < count: one bit array plus per-node lengths."""
    fields = np.column_stack(
        [np.full(count, n + 1), np.arange(1, count + 1), *(np.full(count, x) for x in extra)]
    )
    bits, lengths = gamma_bits(fields)
    return bits, lengths.reshape(fields.shape).sum(axis=1)


def _row_bits(rows, n: int):
    """Each distance row at _row_width(n) bits per entry, INF written as the
    all-ones marker: one bit array per row, made one row at a time (a whole
    table at once would hold a byte per bit of every label)."""
    width = _row_width(n)
    marker = (1 << width) - 1
    return (fixed_bits(np.where(row == INF, marker, row), width) for row in rows)


# ---------------------------------------------------------------------------
# Set parsers.  Each format has one parser, which reads every label of a set
# at once through a SetReader; the public parse_* functions apply it to a
# one-label set.  All labels of a genuine encoding share one layout (n, the
# level count, each level's D and size, the scheme parameters), so a set
# whose labels differ there is refused with LabelError, as the bulk decoders
# refuse it.  Each parser reads inside `with SetReader(...)`, so a label
# with bits left over after its last field is a CodecError.


def _shared(values: np.ndarray, what: str) -> int:
    """The value every label of the set holds in a layout field."""
    if values.size and (values != values[0]).any():
        raise LabelError(f"labels come from different encodings ({what} differs)")
    return int(values[0]) if values.size else 0


def _read_headers(rd: SetReader) -> tuple[int, np.ndarray]:
    """The labels' shared n and their ids; each id must name one of the n
    nodes."""
    n = rd.gamma() - 1
    ids = rd.gamma() - 1
    bad = ids >= n
    if bad.any():
        i = int(np.argmax(bad))
        raise LabelError(f"label id {int(ids[i])} is out of range for n={int(n[i])}")
    return _shared(n, "node count"), ids


def _read_tables(rd: SetReader, n: int, width: int, rows: np.ndarray) -> list[dict]:
    """Per label {id: value}: an id set, then one `width`-bit value per id.
    Only the labels in `rows` hold one; the others get an empty dict."""
    sizes, ids = rd.id_sets(n, rows)
    values = rd.packed(sizes, width, rows).tolist()
    ids, ends = ids.tolist(), np.cumsum(sizes).tolist()
    out = [{} for _ in range(rd.pos.size)]
    start = 0
    for r, stop in zip(rows.tolist(), ends):
        if stop > start:
            out[r] = dict(zip(ids[start:stop], values[start:stop]))
        start = stop
    return out


def _read_levels(rd: SetReader, n: int, count: int) -> list[list[MediumLevel]]:
    """`count` consecutive level bodies (layout in _level_bits) of every
    label, as each label's list of levels.

    All landmark rows go into one (labels x total size) table, a label's
    levels side by side: pair decode reads a label's rows ~10% faster than
    from one table per level, which spreads them over the memory."""
    heads, blocks = [], []
    for _ in range(count):
        D = _shared(rd.gamma(), "level threshold")
        size = _shared(rd.gamma() - 1, "level landmark count")
        sick = rd.fixed(1).astype(bool)
        present = rd.bitmap(size)
        values = rd.packed(present.sum(axis=1), _w2d(D))  # kept narrow until the table is built
        blocks.append((present, values.astype(np.min_scalar_type(values.max(initial=0)))))
        uc = _read_tables(rd, n, _w2d(D), np.flatnonzero(~sick))
        heads.append((D, size, sick.tolist(), uc))
    lm = np.full((rd.pos.size, sum(h[1] for h in heads)), INF, dtype=np.int64)
    cuts = np.cumsum([0] + [h[1] for h in heads]).tolist()
    for at, stop, (present, values) in zip(cuts, cuts[1:], blocks):
        lm[:, at:stop][present] = values
    # the objects too are made label by label, so each label's sit together in memory
    return [
        [MediumLevel(D, size, sick[u], row[at:stop], uc[u])
         for (D, size, sick, uc), at, stop in zip(heads, cuts, cuts[1:])]
        for u, row in enumerate(lm)
    ]


def _level_candidate(a: MediumLevel, aid: int, b: MediumLevel, bid: int) -> int:
    if a.D != b.D or a.size != b.size:
        raise LabelError("labels come from different encodings (level mismatch)")
    best = INF
    hit = a.uc.get(bid)
    if hit is not None and hit < best:
        best = hit
    hit = b.uc.get(aid)
    if hit is not None and hit < best:
        best = hit
    if a.size:
        m = int(np.add(a.lm, b.lm).min())
        if m < INF and m < best:
            best = m
    return best


# ---------------------------------------------------------------------------
# warmup scheme


@dataclass
class WarmupLabel:
    n: int
    id: int
    row: np.ndarray  # int64 distances to the shared landmark list, INF if unreachable


def _warmup_draws(n: int, D: int, c: float) -> int:
    return max(1, math.ceil(c * (n / D) * math.log(n)))


def encode_warmup(g: Graph, p: PreservingParams, landmarks=None) -> LabelSet:
    """Landmark-row labels, resampled until every pair at distance >= D is
    certified by some landmark on a shortest path.

    `landmarks` pins the sample explicitly (and skips the resampling loop);
    meant for tests and demos.
    """
    if not g.is_unit_weight():
        raise GraphError("warmup scheme supports unit-weight graphs only")
    n = g.n
    if n == 0:
        return LabelSet("warmup", 0, {"D": p.D, "landmarks": 0}, [])
    weight = g.apsp()[0]
    draws = 0
    attempts = 0
    if landmarks is not None:
        chosen = _landmark_ids(g, landmarks)
    else:
        draws = _warmup_draws(n, p.D, p.c)
        need = weight >= p.D
        chosen = []
        for attempt in range(p.resample_cap):
            chosen = sample_landmarks(g, draws, _mix(p.seed, attempt))
            attempts = attempt + 1
            if bool((_covered(g, chosen) | ~need).all()):
                break
        else:
            raise EncodingFailure(
                f"no sample of {draws} landmarks covered all pairs at distance "
                f">= {p.D} within {p.resample_cap} attempts (n={n})"
            )
    labels = concat_ragged([_header_bits(n, n, len(chosen) + 1), _row_bits(weight[:, chosen], n)])
    meta = {"landmarks": chosen, "draws": draws, "attempts": attempts}
    return LabelSet("warmup", n, {"D": p.D, "landmarks": len(chosen)}, labels, meta=meta)


def _read_rows(rd: SetReader, count: int, width: int) -> np.ndarray:
    """`count` distances of `width` bits per label, the all-ones marker read
    as INF: one (labels x count) table."""
    raw = rd.packed(np.full(rd.pos.size, count), width).reshape(rd.pos.size, count)
    return np.where(raw == (1 << width) - 1, INF, raw)


def parse_warmup_set(labels: list[Bits]) -> list[WarmupLabel]:
    with SetReader(labels) as rd:
        n, ids = _read_headers(rd)
        rows = _read_rows(rd, _shared(rd.gamma() - 1, "landmark count"), _row_width(n))
    return [WarmupLabel(n, i, row) for i, row in zip(ids.tolist(), rows)]


def parse_warmup(bits: Bits) -> WarmupLabel:
    return parse_warmup_set([bits])[0]


def _warmup_pair(a: WarmupLabel, b: WarmupLabel) -> int:
    if a.n != b.n or a.row.size != b.row.size:
        raise LabelError("warmup labels have mismatched landmark tables")
    if a.row.size == 0:
        return INF
    m = int(np.add(a.row, b.row).min())
    return m if m < INF else INF


def decode_warmup(a: Bits, b: Bits) -> int:
    """Minimum over landmarks of the two stored distances; INF if no landmark
    is reachable from both.  Always an upper bound on the true distance."""
    return _warmup_pair(parse_warmup(a), parse_warmup(b))


# ---------------------------------------------------------------------------
# medium scheme


@dataclass
class MediumLabel:
    n: int
    id: int
    level: MediumLevel


def encode_medium(g: Graph, p: PreservingParams) -> LabelSet:
    """One-level labels, exact for pairs with hop distance in [D, 2D]."""
    if p.D < 2:
        raise GraphError("medium scheme needs D >= 2 (use encode_trivial below that)")
    n = g.n
    if n == 0:
        return LabelSet("medium", 0, {"D": p.D, "landmarks": 0}, [])
    lvl, meta = _build_level(g, p.D, _mix(p.seed, 17), p.resample_cap, n)
    labels = concat_ragged([_header_bits(n, n), *_level_bits(lvl, n)])
    return LabelSet(
        "medium", n, {"D": p.D, "landmarks": len(lvl.rs)}, labels, meta=meta
    )


def parse_medium_set(labels: list[Bits]) -> list[MediumLabel]:
    with SetReader(labels) as rd:
        n, ids = _read_headers(rd)
        levels = _read_levels(rd, n, 1)
    return [MediumLabel(n, i, lv) for i, (lv,) in zip(ids.tolist(), levels)]


def parse_medium(bits: Bits) -> MediumLabel:
    return parse_medium_set([bits])[0]


def _medium_pair(a: MediumLabel, b: MediumLabel) -> int:
    if a.n != b.n:
        raise LabelError("medium labels describe different graphs")
    return _level_candidate(a.level, a.id, b.level, b.id)


def decode_medium(a: Bits, b: Bits) -> int:
    """Minimum over: the peer's entry in either uncovered list, and the best
    route through the shared landmark table.  Exact when the hop distance
    lies in [D, 2D]; an upper bound (possibly INF) otherwise."""
    return _medium_pair(parse_medium(a), parse_medium(b))


# ---------------------------------------------------------------------------
# full scheme (doubling levels)


@dataclass
class FullLabel:
    n: int
    id: int
    levels: list[MediumLevel]


def encode_full(g: Graph, p: PreservingParams, *, _count=None) -> LabelSet:
    """Concatenated medium levels for thresholds D * 2^i, i = 0..floor(lg(n/D)).

    Exact for every pair with hop distance >= D.  For D <= 1 this routes to
    encode_trivial, which is exact everywhere.  `_count` (internal) writes
    only the labels of nodes 0.._count-1; levels are still built on all of g.
    """
    if p.D <= 1:
        return encode_trivial(g)
    n = g.n
    if n == 0:
        return LabelSet("full", 0, {"D": p.D, "levels": 0, "landmark_counts": []}, [])
    k = max(0, (n // p.D).bit_length() - 1)
    count = n if _count is None else _count
    bodies, landmark_counts, metas = [], [], []
    for i in range(k + 1):
        lvl, meta = _build_level(
            g, p.D << i, _mix(p.seed, 1009 * (i + 1)), p.resample_cap, count
        )
        bodies.extend(_level_bits(lvl, count))
        landmark_counts.append(len(lvl.rs))
        metas.append(meta)
        del lvl  # its landmark table is no longer needed once written
    labels = concat_ragged([_header_bits(n, count, k + 1), *bodies])
    params = {"D": p.D, "levels": k + 1, "landmark_counts": landmark_counts}
    return LabelSet("full", n, params, labels, meta={"levels": metas})


def _full_labels(rd: SetReader) -> list[FullLabel]:
    """Every label's full scheme part, from the reader's current positions."""
    n, ids = _read_headers(rd)
    nlev = _shared(rd.gamma(), "level count")
    room = rd.remaining()
    if room.size and nlev > room.min() // 3:  # a level body takes at least 3 bits
        raise CodecError(f"{nlev} levels cannot fit in {int(room.min())} bits")
    return [FullLabel(n, i, lv) for i, lv in zip(ids.tolist(), _read_levels(rd, n, nlev))]


def parse_full_set(labels: list[Bits]) -> list[FullLabel]:
    with SetReader(labels) as rd:
        return _full_labels(rd)


def parse_full(bits: Bits) -> FullLabel:
    return parse_full_set([bits])[0]


def _full_pair(a: FullLabel, b: FullLabel) -> int:
    if a.n != b.n:
        raise LabelError("full labels describe different graphs")
    if len(a.levels) != len(b.levels):
        raise LabelError("full labels have mismatched level counts")
    best = INF
    for la, lb in zip(a.levels, b.levels):
        cand = _level_candidate(la, a.id, lb, b.id)
        if cand < best:
            best = cand
    return best


def decode_full(a: Bits, b: Bits) -> int:
    """Minimum of the per-level decodes; exact when hop distance >= D."""
    return _full_pair(parse_full(a), parse_full(b))


# ---------------------------------------------------------------------------
# trivial scheme (full distance row; D = 1 fallback)


@dataclass
class TrivialLabel:
    n: int
    id: int
    row: np.ndarray


def encode_trivial(g: Graph) -> LabelSet:
    """Each label stores the node's whole distance row; decoding is lookup."""
    n = g.n
    labels = concat_ragged([_header_bits(n, n), _row_bits(g.apsp()[0], n)])
    return LabelSet("trivial", n, {"D": 1}, labels)


def parse_trivial_set(labels: list[Bits]) -> list[TrivialLabel]:
    with SetReader(labels) as rd:
        n, ids = _read_headers(rd)
        rows = _read_rows(rd, n, _row_width(n))
    return [TrivialLabel(n, i, row) for i, row in zip(ids.tolist(), rows)]


def parse_trivial(bits: Bits) -> TrivialLabel:
    return parse_trivial_set([bits])[0]


def _trivial_pair(a: TrivialLabel, b: TrivialLabel) -> int:
    if a.n != b.n:
        raise LabelError("trivial labels describe different graphs")
    return int(min(a.row[b.id], b.row[a.id]))


def decode_trivial(a: Bits, b: Bits) -> int:
    return _trivial_pair(parse_trivial(a), parse_trivial(b))


# ---------------------------------------------------------------------------
# Bulk (all-pairs) decoders.  These compute exactly what the per-pair
# decoders compute, as matrix operations; the test suite pins the
# equivalence.  Every landmark or dominator route goes through one min-plus
# kernel: the levels of a multi-level label are concatenated column-wise
# first, since the min over levels of the min over a level's columns is the
# min over all columns.  Entries on the diagonal are whatever the candidate
# rules give and are not part of any contract.


def _minplus(rows) -> np.ndarray:
    """out[u, v] = min over columns l of T[u, l] + T[v, l], where row u of the
    int64 table T (INF entries) is the concatenation of the 1-D pieces in
    rows[u]; INF where the smallest sum reaches INF (no column is finite in
    both rows, or there is no column), as the pair decoders read it.

    When every finite entry is below 64 the table is built directly as uint8
    with sentinel 127 (two finite entries sum below it, two sentinels do not
    wrap); otherwise it is int64 with INF.  The result is symmetric, so only
    v >= u is computed and then mirrored.
    """
    count = len(rows)
    top = max((int(r.max(initial=0, where=r < INF)) for r in map(np.concatenate, rows)), default=0)
    dtype, inf = (np.uint8, 127) if top < 64 else (np.int64, INF)
    A = np.empty((count, sum(x.size for x in rows[0]) if count else 0), dtype)
    for u, row in enumerate(rows):
        np.minimum(np.concatenate(row), inf, out=A[u], casting="unsafe")
    R = np.full((count, count), inf, dtype=dtype)
    buf = np.empty_like(A)  # reused by every row; per-row temporaries raised peak RSS
    for u in range(count):
        np.add(A[u:], A[u], out=buf[u:])
        buf[u:].min(axis=1, initial=inf, out=R[u, u:])
    R = np.minimum(R, R.T)
    out = R.astype(np.int64)
    out[R >= inf] = INF
    return out


def _min_scatter(out: np.ndarray, hits) -> np.ndarray:
    """Lower out[u, i] and out[i, u] to d for every (u, {i: d}) in `hits`.
    Ids beyond the matrix (split copies past the labelled range) are skipped."""
    count = len(out)
    us, vs, vals = [], [], []
    for u, table in hits:
        for i, dist in table.items():
            if i < count:
                us.append(u)
                vs.append(i)
                vals.append(dist)
    if us:
        ua = np.asarray(us)
        va = np.asarray(vs)
        da = np.asarray(vals, dtype=np.int64)
        np.minimum.at(out, (ua, va), da)
        np.minimum.at(out, (va, ua), da)
    return out


def warmup_matrix(parsed: list[WarmupLabel]) -> np.ndarray:
    if not parsed:
        return np.zeros((0, 0), dtype=np.int64)
    if any(p.n != parsed[0].n or p.row.size != parsed[0].row.size for p in parsed):
        raise LabelError("warmup labels have mismatched landmark tables")
    return _minplus([[p.row] for p in parsed])


def trivial_matrix(parsed: list[TrivialLabel]) -> np.ndarray:
    if not parsed:
        return np.zeros((0, 0), dtype=np.int64)
    if any(p.n != len(parsed) for p in parsed):
        raise LabelError(f"trivial labels must describe the {len(parsed)} nodes of their set")
    rows = np.stack([p.row for p in parsed])
    return np.minimum(rows, rows.T)


def _levels_matrix(parsed, level_lists: list[list[MediumLevel]]) -> np.ndarray:
    if not parsed:
        return np.zeros((0, 0), dtype=np.int64)
    if any(p.n != parsed[0].n for p in parsed):
        raise LabelError("labels describe different graphs")
    nlev = len(level_lists[0])
    if any(len(lv) != nlev for lv in level_lists):
        raise LabelError("labels have mismatched level counts")
    for li in range(nlev):
        d0, s0 = level_lists[0][li].D, level_lists[0][li].size
        if any(lab[li].D != d0 or lab[li].size != s0 for lab in level_lists):
            raise LabelError("labels come from different encodings (level mismatch)")
    out = _minplus([[lv.lm for lv in lab] for lab in level_lists])
    return _min_scatter(out, ((u, lv.uc) for u, lab in enumerate(level_lists) for lv in lab))


def medium_matrix(parsed: list[MediumLabel]) -> np.ndarray:
    return _levels_matrix(parsed, [[p.level] for p in parsed])


def full_matrix(parsed: list[FullLabel]) -> np.ndarray:
    return _levels_matrix(parsed, [p.levels for p in parsed])


# ---------------------------------------------------------------------------
# Registry records


def _threshold_params(name: str, seed: int, opts: dict) -> PreservingParams:
    tuning = {k: opts[k] for k in ("resample_cap", "c") if opts.get(k) is not None}
    return PreservingParams(D=required(opts, "D", name), seed=seed, **tuning)


def _header(counts, params):
    """Header codec (write_params, read_params) of a threshold scheme:
    gamma(D), gamma(k + 1), then gamma(c + 1) for each of the k landmark
    counts c that counts(params) lists; params(D, counts) rebuilds the
    params on read."""
    def write(w: BitWriter, p: dict) -> None:
        listed = counts(p)
        for x in (p.get("D", 1), len(listed) + 1, *(c + 1 for c in listed)):
            w.write_gamma(int(x))

    def read(cur: BitCursor) -> dict:
        D = cur.read_gamma()
        return params(D, [cur.read_gamma() - 1 for _ in range(cur.read_gamma() - 1)])
    return write, read


def _exact_everywhere(params, w, h, d) -> dict:
    return {"exactness: scheme must be exact for all pairs": d != w}


def _lg(x: float) -> float:
    return max(np.log2(x), 1.0) if x > 0 else 1.0


register(Scheme(
    "trivial", 1, lambda g, seed, opts: encode_trivial(g),
    parse_trivial_set, _trivial_pair, trivial_matrix, *_header(lambda p: [], lambda D, c: {"D": D}),
    contract=_exact_everywhere, bound=lambda n, p: n * _lg(n), carried=lambda label: {},
))
# warmup and medium store a single landmark count
_one_table = _header(
    lambda p: [p["landmarks"]], lambda D, c: {"D": D, "landmarks": c[0] if c else 0}
)
register(Scheme(
    "warmup", 2, lambda g, seed, opts: encode_warmup(g, _threshold_params("warmup", seed, opts)),
    parse_warmup_set, _warmup_pair, warmup_matrix, *_one_table,
    contract=lambda p, w, h, d: {
        "window: exact required for dist >= D": (w != INF) & (w >= p["D"]) & (d != w)},
    bound=lambda n, p: (n / p["D"]) * _lg(n) ** 2,
    carried=lambda label: {"landmarks": label.row.size},
))
register(Scheme(
    "medium", 3, lambda g, seed, opts: encode_medium(g, _threshold_params("medium", seed, opts)),
    parse_medium_set, _medium_pair, medium_matrix, *_one_table,
    contract=lambda p, w, h, d: {
        "window: exact required for hops in [D, 2D]":
            (h != INF) & (h >= p["D"]) & (h <= 2 * p["D"]) & (d != w)},
    bound=lambda n, p: (n / p["D"]) * _lg(p["D"]) ** 2,
    carried=lambda label: {"D": label.level.D, "landmarks": label.level.size},
))
register(Scheme(
    "full", 4, lambda g, seed, opts: encode_full(g, _threshold_params("full", seed, opts)),
    parse_full_set, _full_pair, full_matrix,
    *_header(lambda p: p["landmark_counts"],
             lambda D, c: {"D": D, "levels": len(c), "landmark_counts": c}),
    contract=lambda p, w, h, d: {
        "window: exact required for hops >= D": (h != INF) & (h >= p["D"]) & (d != w)},
    bound=lambda n, p: (n / p["D"]) * _lg(p["D"]) ** 2,
    carried=lambda label: {
        "D": label.levels[0].D, "levels": len(label.levels),
        "landmark_counts": [lv.size for lv in label.levels]},
))
