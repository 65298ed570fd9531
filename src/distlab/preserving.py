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
per-level parameters.  One pair decoder and one bulk decoder (`_pair`,
`_matrix`, see "Decoders" below) serve warmup, medium and full here and the
bdeg, sparse and additive schemes built on them; trivial looks its answer
up.  The set parsers are the one place that checks the labels of a set
share a layout.  Encoding reads the graph's cached narrow all-pairs tables
(`Graph.tables`, a byte per pair on small-diameter graphs, compared through
`graph._within`) and its cached shortest-path DAG (built once per graph,
O(m * n / 8) bytes of edge masks), then runs one bit-parallel
certification pass per level and sampling attempt, which only propagates
landmark bits along the DAG (oracle grade, O(n^2) memory for the answer);
that is deliberate and fine at desk scale.  All decode functions are pure
and thread-safe; encoding touches only immutable graph state.
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
from .graph import INF, Graph, _far, _integer, _within
from .labels import LabelSet, Scheme, header_value, register, required

__all__ = [
    "PreservingParams",
    "sample_landmarks",
    "classify_nodes",
    "encode_warmup",
    "encode_medium",
    "encode_full",
    "encode_trivial",
]

WARMUP_C = 3.0  # warmup oversampling constant; the resampling loop needs c > 2
RESAMPLE_CAP = 50  # landmark samples drawn per level before encoding fails


@dataclass(frozen=True)
class PreservingParams:
    """Parameters of the threshold schemes: the exactness threshold D (D <= 1
    routes encode_full to the trivial table scheme) and the landmark seed.
    Each level draws at most RESAMPLE_CAP landmark samples."""

    D: int
    seed: int = 0

    def __post_init__(self):  # NumPy integers are stored as ints
        object.__setattr__(self, "D", _integer(self.D, "threshold D"))
        object.__setattr__(self, "seed", _integer(self.seed, "landmark seed"))
        if self.D < 1:
            raise GraphError(f"threshold D must be >= 1, got {self.D}")


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
    if _integer(size, "landmark sample size") < 1:
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
    _, hops = g.tables()
    unc = _within(hops, D - 1)  # unc = (hops >= D) & ~covered, as ~(hops < D | covered)
    unc |= _covered(g, landmarks)
    np.logical_not(unc, out=unc)
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


def _sample(g: Graph, draws: int, D: int, seed: int, done) -> tuple:
    """The resampling loop every encoder draws its landmarks through: sample
    `draws` landmarks with seed _mix(seed, attempt) and classify them for
    threshold D until done(sick, unc) holds.  Returns the landmarks, the
    sick ids, the uncovered matrix and the sick-set size of every attempt;
    EncodingFailure after RESAMPLE_CAP samples."""
    history = []
    for attempt in range(RESAMPLE_CAP):
        landmarks = sample_landmarks(g, draws, _mix(seed, attempt))
        sick, unc = _classify(g, landmarks, D)
        history.append(len(sick))
        if done(sick, unc):
            return landmarks, sick, unc, history
    raise EncodingFailure(
        f"no sample of {draws} landmarks passed within {RESAMPLE_CAP} attempts; the last left "
        f"|S|={history[-1]} sick nodes and {int(unc.sum()) // 2} uncovered pairs (n={g.n}, D={D})"
    )


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


def _table_bits(holds: np.ndarray, sizes: np.ndarray, ids, values, width: int) -> list:
    """Per-node {id: value} tables, the layout _read_tables reads, as two
    pieces: an id set, then one `width`-bit value per id.  Only the nodes
    where `holds` is True write a table; node u's table is the next sizes[u]
    entries of `ids` and `values` (sizes[u] is 0 where `holds` is False)."""
    set_bits, set_len = id_set_bits(ids, sizes[holds])
    set_lengths = np.zeros(holds.size, dtype=np.intp)
    set_lengths[holds] = set_len
    return [(set_bits, set_lengths), (fixed_bits(values, width), width * sizes)]


def _level(g: Graph, D: int, seed: int, count: int) -> tuple[list, int, dict]:
    """One level of threshold D: landmarks are sampled, and resampled until
    the sick set is small (sick counts cover every node), then the level
    bodies of nodes 0..count-1 are written.  Returns the bodies as (bits,
    per-node lengths) pieces, the level's landmark count and its meta; the
    level's landmark table is freed on return, before the next level is
    certified.

    A body is gamma(D), gamma(size+1), the sick bit, the presence bitmap of
    the node's landmark row (entries <= 2D) and the present values at
    _w2d(D) bits each; a healthy node then adds the table of its uncovered
    peers within hop 2D and their weights at _w2d(D) bits each.
    """
    n = g.n
    draws = max(1, math.ceil(2 * (n / D) * math.log(D)))
    landmarks, sick_ids, unc, history = _sample(
        g, draws, D, seed, lambda sick, unc: len(sick) < 2 * n / D)
    weight, hops = g.tables()
    rs = sorted(set(landmarks) | set(sick_ids))
    sick = np.zeros(n, dtype=bool)
    sick[sick_ids] = True
    sick = sick[:count]
    win = _within(hops[:count], 2 * D)
    win &= unc[:count]
    win[sick] = False  # a sick node writes no window
    rows, cols = np.nonzero(win)
    del unc, win
    w = _w2d(D)
    table = weight[:count, rs]
    present = _within(table, 2 * D)
    prefix = gamma_bits([D, len(rs) + 1])[0]
    head = np.empty((count, prefix.size + 1 + present.shape[1]), dtype=np.uint8)
    head[:, :prefix.size] = prefix
    head[:, prefix.size] = sick
    head[:, prefix.size + 1:] = present
    pieces = [
        (head.ravel(), np.full(count, head.shape[1])),
        (fixed_bits(table[present], w), w * present.sum(axis=1)),
        *_table_bits(~sick, np.bincount(rows, minlength=count), cols, weight[rows, cols], w),
    ]
    meta = {
        "draws": draws,
        "attempts": len(history),
        "sick_history": history,
        "landmarks": landmarks,
        "sick": sick_ids,
    }
    return pieces, len(rs), meta


def _header_bits(n: int, count: int, *extra: int) -> tuple[np.ndarray, np.ndarray]:
    """Label headers gamma(n+1), gamma(u+1), then gamma of each `extra`
    value, for nodes u < count: one bit array plus per-node lengths."""
    fields = np.column_stack(
        [np.full(count, n + 1), np.arange(1, count + 1), *(np.full(count, x) for x in extra)]
    )
    bits, lengths = gamma_bits(fields)
    return bits, lengths.reshape(fields.shape).sum(axis=1)


def _row_bits(rows: np.ndarray, n: int):
    """Each row of a narrow oracle table at _row_width(n) bits per entry,
    unreachable written as the all-ones marker: one bit array per row, made
    one row at a time (a whole table at once would hold a byte per bit of
    every label)."""
    width = _row_width(n)
    far = _far(rows)
    for row in rows:
        wide = row.astype(np.int64)
        wide[row == far] = (1 << width) - 1
        yield fixed_bits(wide, width)


# ---------------------------------------------------------------------------
# Set parsers.  Each format has one parser, which reads every label of a set
# at once through a SetReader (`labels.decode_pair` hands it a two-label
# set).  All labels of a genuine encoding share one layout (n, the
# level count, each level's D and size, the scheme parameters), so a set
# whose labels differ there is refused with LabelError.  This is the one
# layout check: the decoders trust the labels of one parsed set to agree.
# Each parser reads inside `with SetReader(...)`, so a label with bits left
# over after its last field is a CodecError.


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
    """`count` consecutive level bodies (layout in _level) of every
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


# ---------------------------------------------------------------------------
# warmup scheme


@dataclass
class WarmupLabel:
    n: int
    id: int
    row: np.ndarray  # int64 distances to the shared landmark list, INF if unreachable

    def __post_init__(self):
        self.routes, self.tables = [self.row], []  # decode candidates, see _pair


def _warmup_draws(n: int, D: int) -> int:
    return max(1, math.ceil(WARMUP_C * (n / D) * math.log(n)))


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
    draws = attempts = 0
    if landmarks is not None:
        chosen = _landmark_ids(g, landmarks)
    else:
        # on unit weights hops are distances: a sample passes when no pair is uncovered
        draws = _warmup_draws(n, p.D)
        chosen, _, _, history = _sample(g, draws, p.D, p.seed, lambda sick, unc: not unc.any())
        attempts = len(history)
    weight = g.tables()[0]
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


# ---------------------------------------------------------------------------
# medium scheme


@dataclass
class MediumLabel:
    n: int
    id: int
    level: MediumLevel

    def __post_init__(self):
        self.routes, self.tables = [self.level.lm], [self.level.uc]


def encode_medium(g: Graph, p: PreservingParams) -> LabelSet:
    """One-level labels, exact for pairs with hop distance in [D, 2D]."""
    if p.D < 2:
        raise GraphError("medium scheme needs D >= 2 (use encode_trivial below that)")
    n = g.n
    if n == 0:
        return LabelSet("medium", 0, {"D": p.D, "landmarks": 0}, [])
    pieces, size, meta = _level(g, p.D, _mix(p.seed, 17), n)
    labels = concat_ragged([_header_bits(n, n), *pieces])
    return LabelSet("medium", n, {"D": p.D, "landmarks": size}, labels, meta=meta)


def parse_medium_set(labels: list[Bits]) -> list[MediumLabel]:
    with SetReader(labels) as rd:
        n, ids = _read_headers(rd)
        levels = _read_levels(rd, n, 1)
    return [MediumLabel(n, i, lv) for i, (lv,) in zip(ids.tolist(), levels)]


# ---------------------------------------------------------------------------
# full scheme (doubling levels)


@dataclass
class FullLabel:
    n: int
    id: int
    levels: list[MediumLevel]

    def __post_init__(self):
        self.routes = [lv.lm for lv in self.levels]
        self.tables = [lv.uc for lv in self.levels]


def _full_pieces(g: Graph, p: PreservingParams, count: int) -> tuple[list, dict, dict]:
    """The full scheme's label pieces for nodes 0..count-1 (levels are
    built on all of g), plus the encoding's params and meta.  The bdeg and
    additive encoders splice the pieces into their own labels."""
    n = g.n
    levels = max(1, (n // p.D).bit_length()) if n else 0
    pieces, landmark_counts, metas = [_header_bits(n, count, levels)], [], []
    for i in range(levels):
        level, size, meta = _level(g, p.D << i, _mix(p.seed, 1009 * (i + 1)), count)
        pieces.extend(level)
        landmark_counts.append(size)
        metas.append(meta)
    params = {"D": p.D, "levels": levels, "landmark_counts": landmark_counts}
    return pieces, params, {"levels": metas}


def encode_full(g: Graph, p: PreservingParams) -> LabelSet:
    """Concatenated medium levels for thresholds D * 2^i, i = 0..floor(lg(n/D)).

    Exact for every pair with hop distance >= D.  For D <= 1 this routes to
    encode_trivial, which is exact everywhere.
    """
    if p.D <= 1:
        return encode_trivial(g)
    pieces, params, meta = _full_pieces(g, p, g.n)
    return LabelSet("full", g.n, params, concat_ragged(pieces), meta=meta)


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
    labels = concat_ragged([_header_bits(n, n), _row_bits(g.tables()[0], n)])
    return LabelSet("trivial", n, {"D": 1}, labels)


def parse_trivial_set(labels: list[Bits]) -> list[TrivialLabel]:
    with SetReader(labels) as rd:
        n, ids = _read_headers(rd)
        rows = _read_rows(rd, n, _row_width(n))
    return [TrivialLabel(n, i, row) for i, row in zip(ids.tolist(), rows)]


def _trivial_pair(a: TrivialLabel, b: TrivialLabel) -> int:
    return int(min(a.row[b.id], b.row[a.id]))


# ---------------------------------------------------------------------------
# Decoders.  Every scheme but trivial decodes a pair by one rule: the
# minimum over two kinds of candidate, each an upper bound on the distance.
#
# * routes  -- int64 rows (INF where absent) whose columns are shared nodes:
#   a level's landmarks, or the additive scheme's dominators.  Two labels
#   route through column l at ra[l] + rb[l].
# * tables  -- {id: distance} dicts of a label's listed peers: a level's
#   uncovered window, a near table, a ball.  A hit is ta[b.id] or tb[a.id].
#
# Each parsed label lists its routes and tables once, at parse time: warmup
# [row] and no table; medium and full each level's lm and uc; bdeg and
# sparse the embedded full label's, with the near table first among the
# tables; additive the full label's, with the dominator row first among the
# routes and the ball first among the tables.  `_pair` decodes one pair,
# `_matrix` every pair of a set; the test suite pins that they agree.
# Entries on the diagonal are whatever the candidate rules give and are not
# part of any contract.


def _pair(a, b) -> int:
    """The smallest table hit and route sum of two labels of one set; INF
    when there is none."""
    best = INF
    for ta, tb in zip(a.tables, b.tables):
        hit = ta.get(b.id, INF)
        if hit < best:
            best = hit
        hit = tb.get(a.id, INF)
        if hit < best:
            best = hit
    for ra, rb in zip(a.routes, b.routes):
        if ra.size:
            m = int(np.add(ra, rb).min())
            if m < best:
                best = m
    return best


def _matrix(parsed: list) -> np.ndarray:
    """`_pair` for every pair of a parsed set: one min-plus pass over each
    label's routes side by side (the min over routes of the min over a
    route's columns is the min over all columns), then the table hits."""
    if not parsed:
        return np.zeros((0, 0), dtype=np.int64)
    out = _minplus([p.routes for p in parsed])
    return _min_scatter(out, ((u, t) for u, p in enumerate(parsed) for t in p.tables))


def _minplus(rows) -> np.ndarray:
    """out[u, v] = min over columns l of T[u, l] + T[v, l], where row u of the
    int64 table T (INF entries) is the concatenation of the 1-D pieces in
    rows[u]; INF where the smallest sum reaches INF (no column is finite in
    both rows, or there is no column), as `_pair` reads it.

    The table is built directly in the narrowest unsigned dtype that holds
    twice the sentinel inf = 2 * top + 1, where top is the largest finite
    entry: two finite entries sum below inf, and two sentinels do not wrap.
    The result is symmetric, so only v >= u is computed and then mirrored.
    """
    count = len(rows)
    top = max((int(r.max(initial=0, where=r < INF)) for r in map(np.concatenate, rows)), default=0)
    inf = 2 * top + 1
    dtype = np.min_scalar_type(2 * inf)
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


def trivial_matrix(parsed: list[TrivialLabel]) -> np.ndarray:
    if not parsed:
        return np.zeros((0, 0), dtype=np.int64)
    if any(p.n != len(parsed) for p in parsed):
        raise LabelError(f"trivial labels must describe the {len(parsed)} nodes of their set")
    rows = np.stack([p.row for p in parsed])
    return np.minimum(rows, rows.T)


# ---------------------------------------------------------------------------
# Registry records


def _threshold_params(name: str, seed: int, opts: dict) -> PreservingParams:
    return PreservingParams(D=required(opts, "D", name), seed=seed)


def _header(key, params, many=False):
    """Header codec (write_params, read_params) of a threshold scheme:
    gamma(D), gamma(k + 1), then gamma(c + 1) for each of the k landmark
    counts c of the param `key` (none without a key; one, or with `many` a
    list of them); params(D, counts) rebuilds the params on read."""
    def write(w: BitWriter, p: dict) -> None:
        listed = p.get(key, [None]) if many else [p.get(key)] if key else []
        if not isinstance(listed, list):
            raise LabelError(f"header param {key}={listed!r} is not a list")
        for x in (header_value("D", p.get("D"), 0), len(listed) + 1,
                  *(header_value(key, c, 1) for c in listed)):
            w.write_gamma(x)

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
    parse_trivial_set, _trivial_pair, trivial_matrix, *_header(None, lambda D, c: {"D": D}),
    contract=_exact_everywhere, bound=lambda n, p: n * _lg(n), carried=lambda label: {"D": 1},
))
# warmup and medium store a single landmark count
_one_table = _header("landmarks", lambda D, c: {"D": D, "landmarks": c[0] if c else 0})
register(Scheme(
    "warmup", 2, lambda g, seed, opts: encode_warmup(g, _threshold_params("warmup", seed, opts)),
    parse_warmup_set, _pair, _matrix, *_one_table,
    contract=lambda p, w, h, d: {
        "window: exact required for dist >= D": (w != INF) & (w >= p["D"]) & (d != w)},
    bound=lambda n, p: (n / p["D"]) * _lg(n) ** 2,
    carried=lambda label: {"landmarks": label.row.size},
))
register(Scheme(
    "medium", 3, lambda g, seed, opts: encode_medium(g, _threshold_params("medium", seed, opts)),
    parse_medium_set, _pair, _matrix, *_one_table,
    contract=lambda p, w, h, d: {
        "window: exact required for hops in [D, 2D]":
            (h != INF) & (h >= p["D"]) & (h <= 2 * p["D"]) & (d != w)},
    bound=lambda n, p: (n / p["D"]) * _lg(p["D"]) ** 2,
    carried=lambda label: {"D": label.level.D, "landmarks": label.level.size},
))
register(Scheme(
    "full", 4, lambda g, seed, opts: encode_full(g, _threshold_params("full", seed, opts)),
    parse_full_set, _pair, _matrix,
    *_header("landmark_counts", lambda D, c: {"D": D, "levels": len(c), "landmark_counts": c},
             many=True),
    contract=lambda p, w, h, d: {
        "window: exact required for hops >= D": (h != INF) & (h >= p["D"]) & (d != w)},
    bound=lambda n, p: (n / p["D"]) * _lg(p["D"]) ** 2,
    carried=lambda label: {
        "D": label.levels[0].D, "levels": len(label.levels),
        "landmark_counts": [lv.size for lv in label.levels]},
))
