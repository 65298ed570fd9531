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
  private list of their still-uncovered window peers.  Once fewer than
  2n/D nodes are sick, the sample is thinned: a seeded 1/THIN prefix of it
  that still passes that rule replaces it when its bodies, bounded from
  counts, have the smaller (max, mean) bits (see _level).
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
up, in the rows of the set it is given.  The set parsers are the one place
that checks the labels of a set share a layout.  Encoding reads the
graph's oracle in two parts, cached per graph, and never its n x n tables
(`Graph.tables`, the verify and public view): hop thresholds from the BFS
bit planes (`Graph._hops`), compared by one bit-sliced `hops <= h`
comparator into bitset rows (the far mask of `_classify`, the window filter
of `_set_bits`, the sparse near tables), and weights from the 0-weight
contraction's narrow table through its component map (`graph._weights`).
It also reads the cached shortest-path DAG (built once per graph,
O(m * n / 8) bytes of edge masks), then runs one bit-parallel certification
pass per landmark set tried, which only propagates landmark bits along the
DAG (oracle grade, n^2 bits for the answer); that is deliberate and fine at
desk scale.  A level
whose threshold lies above the graph's largest finite hop (`Graph.top_hop`,
cached per graph) has no pair to certify: `_classify` answers it with no
sick node and empty rows without running the pass, which is exact, so its
labels are the same bytes.  The sampling, thinning and meta of such a level
run as on any other.  All decode functions are pure and thread-safe;
encoding touches only immutable graph state.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .bits import Bits, SetReader, _bit_length, concat_ragged, fixed_bits, gamma_bits, id_set_bits
from .errors import CodecError, EncodingFailure, GraphError, LabelError
from .graph import (
    INF, Graph, _bitset, _far, _integer, _node_ids, _pair_weights, _tail, _unbits, _weights, _within,
)
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
THIN = 8  # a level also tries the first 1/THIN of its passing sample, shuffled


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
    rng = random.Random(_integer(seed, "landmark seed"))
    return sorted({rng.randrange(g.n) for _ in range(size)})


# ---------------------------------------------------------------------------
# Shortest-route certificates.
#
# A landmark w certifies the pair (u, v) when weight(u,w) + weight(w,v) equals
# weight(u,v), i.e. w lies on some minimum-weight path.  A disconnected pair
# counts as certified by any landmark set (there is no route to repair).


def _ones(bits: np.ndarray, axis=None):
    """Set bits of a bitset array (a bool entry counts as one bit), summed
    along `axis`."""
    octets = np.ascontiguousarray(bits).view(np.uint8)
    if hasattr(np, "bitwise_count"):  # NumPy >= 2.0
        return np.bitwise_count(octets).sum(axis=axis)
    return _OCTET_ONES[octets].sum(axis=axis)


_OCTET_ONES = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)


def _covered(g: Graph, landmarks: list[int]) -> np.ndarray:
    """Bitset rows, one per 0-weight component c (graph.ShortestPathDag.comp):
    bit v is set where some landmark lies on a minimum-weight path between
    c and node v, or where v is unreachable from c.  Row c of node u is the
    relation's row u, which is symmetric.

    The question is answered on the graph's cached shortest-path DAG (see
    graph.ShortestPathDag), where only the landmark bits change from call to
    call.  For each component v, F[v] is a bitset over sources s: "a
    landmark lies on a shortest s-v path".  It holds at v's own component
    when that component has a landmark, and otherwise flows along the DAG
    edges x -> v of source s.  Passes of F = F0 | OR_x (F[x] & mask[x -> v])
    run until F stops changing, at most diameter + 1 of them (64 sources per
    machine word).  With 0-weight components the source bits are then
    spread from components to their nodes.
    """
    n = g.n
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
    F |= dag.unreached
    ncomp = len(F)
    if ncomp == n:  # no 0-weight edge joins two nodes: comp is the identity
        return F
    return _bitset(np.take(_unbits(F, ncomp), dag.comp, axis=1))


def _classify(g: Graph, landmarks: list[int], D: int) -> tuple[list[int], np.ndarray]:
    """Sick node ids plus the uncovered relation for threshold D, as bitset
    rows (graph._bitset, padding bits zero): bit v of row u is set when
    hops(u, v) >= D and no landmark lies on a minimum-weight u-v path.

    Every set bit needs a finite hop distance of at least D, so above the
    graph's largest finite hop (Graph.top_hop) the answer is no sick node
    and all-zero rows, whatever the landmarks, and the kernel is not run."""
    if D > g.top_hop():
        return [], np.zeros((g.n, (g.n + 63) // 64), dtype=np.uint64)
    unc = g._hops().at_most(D - 1)
    np.invert(unc, out=unc)  # hops >= D, or unreachable
    covered = _covered(g, landmarks)
    np.invert(covered, out=covered)
    unc &= covered if len(covered) == g.n else np.take(covered, g.sp_dag().comp, axis=0)
    unc[:, -1] &= _tail(g.n)
    return [int(u) for u in np.flatnonzero(_ones(unc, axis=1) > g.n / D)], unc


def classify_nodes(g: Graph, landmarks, D: int) -> tuple[set[int], dict[int, list[int]]]:
    """Partition nodes into sick/healthy for threshold D.

    v is uncovered for u when the hop distance h(u, v) is at least D and no
    sampled landmark w satisfies d(u,w) + d(w,v) = d(u,v).  A node with more
    than n/D uncovered peers is sick.  Returns the sick set and the full
    uncovered map.  D must be an integer >= 1.
    """
    if _integer(D, "threshold D") < 1:
        raise GraphError(f"threshold D must be >= 1, got {D}")
    sick, unc = _classify(g, _node_ids(g, landmarks, "landmark id"), D)
    rows = _unbits(unc, g.n)
    return set(sick), {u: np.flatnonzero(rows[u]).tolist() for u in range(g.n)}


def _sample(g: Graph, draws: int, D: int, seed: int, done) -> tuple:
    """The resampling loop every encoder draws its landmarks through: sample
    `draws` landmarks with seed _mix(seed, attempt) and classify them for
    threshold D until done(sick, unc) holds.  Returns the landmarks, the
    sick ids, the uncovered rows and the sick-set size of every attempt;
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
        f"|S|={history[-1]} sick nodes and {int(_ones(unc)) // 2} uncovered pairs (n={g.n}, D={D})"
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
    lm: np.ndarray  # distances to the level's landmarks, a view of the route table (_sentinel if absent)
    uc: dict        # uncovered node id -> weighted distance (healthy nodes only)


@dataclass
class RowLabel:
    """A parsed warmup or trivial label: the node's distances to the shared
    landmark list (warmup) or to every node (trivial), a row of the set's
    route table, _sentinel(n) if unreachable."""

    n: int
    id: int
    row: np.ndarray

    def __post_init__(self):
        self.routes, self.tables = [self.row], []  # decode candidates, see _pair


@dataclass
class FullLabel:
    """A parsed full or medium label: its threshold levels (medium has one)."""

    n: int
    id: int
    levels: list[MediumLevel]

    def __post_init__(self):
        self.routes = [lv.lm for lv in self.levels]
        self.tables = [lv.uc for lv in self.levels]


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
    the sick set is small (sick counts cover every node), then thinned (see
    below) and the level bodies of nodes 0..count-1 are written.  Returns
    the bodies as (bits, per-node lengths) pieces, the level's landmark
    count and its meta; the level's landmark table is freed on return,
    before the next level is certified.

    A body is gamma(D), gamma(size+1), the sick bit, the presence bitmap of
    the node's landmark row (entries <= 2D) and the present values at
    _w2d(D) bits each; a healthy node then adds the table of its uncovered
    peers within hop 2D and their weights at _w2d(D) bits each.  Only peers
    below `count` are listed: a decoder looks up labelled ids only.  The
    kept candidate's window pairs (see _Candidate) are written as they are.
    They come from the set bits of the uncovered rows, so a level's window
    work follows its uncovered pairs, not a count x count mask of hops; a
    level above the hop bound unpacks nothing.

    The size bound needs only the sick rule, so any part of a passing
    sample that still passes it will do.  The sample, in a seeded shuffle,
    is cut to its first 1/THIN; if that prefix passes the sick rule too and
    its bodies bound to a smaller (max, mean) than the whole sample's, the
    level keeps the prefix.
    """
    n = g.n
    draws = max(1, math.ceil(2 * (n / D) * math.log(D)))

    def passes(sick, unc):
        return len(sick) < 2 * n / D

    drawn, sick_ids, unc, history = _sample(g, draws, D, seed, passes)
    tried, failed = [_Candidate(g, D, count, drawn, sick_ids, unc)], []
    del unc  # freed before the prefix's rows are made
    order = list(drawn)
    random.Random(_mix(seed, RESAMPLE_CAP)).shuffle(order)
    prefix = sorted(order[:math.ceil(len(order) / THIN)])
    if len(prefix) < len(drawn):
        sick_ids, unc = _classify(g, prefix, D)
        if passes(sick_ids, unc):
            tried.append(_Candidate(g, D, count, prefix, sick_ids, unc))
        else:
            failed.append({"landmarks": len(prefix), "sick": len(sick_ids)})
        del unc
    kept = min(tried, key=lambda c: c.score)  # a tie keeps the whole sample
    rows, cols = kept.pairs
    w = _w2d(D)
    lead = gamma_bits([D, len(kept.rs) + 1])[0]
    head = np.empty((count, lead.size + 1 + len(kept.rs)), dtype=np.uint8)
    head[:, :lead.size] = lead
    head[:, lead.size] = kept.sick
    head[:, lead.size + 1:] = kept.present
    pieces = [
        (head.ravel(), np.full(count, head.shape[1])),
        (fixed_bits(kept.table[kept.present], w), w * kept.present.sum(axis=1)),
        *_table_bits(~kept.sick, kept.sizes, cols, _pair_weights(g, rows, cols), w),
    ]
    meta = {
        "draws": draws,
        "attempts": len(history),
        "sick_history": history,
        "sample": len(drawn),
        "certified": D <= g.top_hop(),
        "candidates": [c.summary() for c in tried] + failed,
        "landmarks": kept.landmarks,
        "sick": kept.sick_ids,
    }
    return pieces, len(kept.rs), meta


def _set_bits(bits: np.ndarray, rows: np.ndarray, k: int, hops=None,
              bound: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """(row, column) of each set bit among the first k of the bitset rows
    `rows` (ascending), in row-major order; with a hop oracle `hops`
    (graph._HopPlanes), only where hops.at_most(bound) holds.  The rows are
    read a few MB at a time: each block's words are ANDed with the
    oracle's rows for the block, and only the nonzero words are unpacked."""
    words = bits[:, :(k + 63) // 64]
    live = rows[words.any(axis=1)[rows]]
    step = max(1, (1 << 20) // max(k, 1))
    out_rows, out_cols = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)]
    for i in range(0, live.size, step):
        block = live[i:i + step]
        chunk = words[block]
        if hops is not None:
            chunk &= hops.at_most(bound, block, k)
        r, w = np.nonzero(chunk)
        q, b = np.nonzero(_unbits(chunk[r, w, None], 64))
        r, c = block[r[q]], w[q] * 64 + b
        inside = c < k
        out_rows.append(r[inside])
        out_cols.append(c[inside])
    return np.concatenate(out_rows), np.concatenate(out_cols)


class _Candidate:
    """A landmark set that passed a level's sick rule, for the nodes
    0..count-1 the level writes: its columns rs (landmarks and sick nodes),
    their weights `table` and which of them are present (<= 2D), the sick
    mask, the window pairs (rows, cols), each an uncovered pair (u, v) of a
    healthy u < count and a v < count within hop 2D, taken from the set
    bits of the uncovered rows by _set_bits, and each node's window size;
    the weights are read from the graph's contraction (graph._weights);
    and `score`, the (max, mean) of an upper bound on each node's body bits,
    taken from counts alone: the head and the present values as written,
    the window's id set bounded by Jensen's inequality, as c gaps that sum
    to at most count take at most c * (2 lg(count / c) + 1) gamma bits."""

    def __init__(self, g, D, count, landmarks, sick_ids, unc):
        self.landmarks, self.sick_ids = landmarks, sick_ids
        self.rs = sorted(set(landmarks) | set(sick_ids))
        sick = np.zeros(len(unc), dtype=bool)
        sick[sick_ids] = True
        self.sick = sick[:count]
        self.pairs = _set_bits(unc, np.flatnonzero(~self.sick), count, g._hops(), 2 * D)
        self.sizes = np.bincount(self.pairs[0], minlength=count)
        self.table = _weights(g, slice(count), self.rs)
        self.present = _within(self.table, 2 * D)
        w = _w2d(D)
        c = self.sizes
        window = _gamma_length(c + 1) + c * (2 * np.log2(count / np.maximum(c, 1)) + 1) + w * c
        bits = (_gamma_length(np.array([D, len(self.rs) + 1])).sum() + 1 + len(self.rs)
                + w * self.present.sum(axis=1) + np.where(self.sick, 0, window))
        self.score = (float(bits.max()), float(bits.mean())) if count else (0.0, 0.0)

    def summary(self) -> dict:
        return {"landmarks": len(self.landmarks), "sick": len(self.sick_ids),
                "max_bits": self.score[0], "mean_bits": self.score[1]}


def _gamma_length(x: np.ndarray) -> np.ndarray:
    """Bits of the Elias gamma code of each x >= 1."""
    return 2 * _bit_length(np.asarray(x, dtype=np.int64)) - 1


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
# set).  Every label starts with the prologue _header_bits writes (n, its
# id, then the scheme's gamma fields), which each parser reads with one
# _read_headers call.  Parsed labels take four forms, after the two label
# layouts: RowLabel (a distance row: warmup's landmarks, trivial's whole
# row), FullLabel (threshold levels D * 2^i: full, and medium as its
# one-level case), and sparse.BoundedLabel and additive.AdditiveLabel,
# which embed a FullLabel.  All labels of a genuine encoding share one
# layout (n, the level count, each level's D and size, the scheme
# parameters), so a set whose labels differ there is refused with
# LabelError by _shared.  This is the one layout check: the decoders trust
# the labels of one parsed set to agree.  Each parser reads inside
# `with SetReader(...)`, so a label with bits left over after its last
# field is a CodecError.
#
# The route values of a set (landmark rows, warmup and trivial rows, the
# additive dominator row) go into one label-major route table, row u label
# u's routes side by side, and each label's routes are views of its row.
# Its dtype and its "absent" entry are fixed by the header's n alone, never
# by the values (`_sentinel`, `_route_values`), so a one-label parse equals
# the set parse field by field, dtype included.


def _shared(values: np.ndarray, what: str) -> int:
    """The value every label of the set holds in a layout field."""
    if values.size and (values != values[0]).any():
        raise LabelError(f"labels come from different encodings ({what} differs)")
    return int(values[0]) if values.size else 0


def _read_headers(rd: SetReader, *extra: tuple[int, str]) -> tuple:
    """What _header_bits writes: the labels' shared n, their ids (each must
    name one of the n nodes), then for each (offset, what) of `extra` the
    shared value of one gamma field minus offset."""
    n = rd.gamma() - 1
    ids = rd.gamma() - 1
    bad = ids >= n
    if bad.any():
        i = int(np.argmax(bad))
        raise LabelError(f"label id {int(ids[i])} is out of range for n={int(n[i])}")
    n = _shared(n, "node count")
    return (n, ids, *(_shared(rd.gamma() - offset, what) for offset, what in extra))


def _sentinel(n: int) -> int:
    """The absent entry of the route tables of n-node labels, 2n - 1.  Every
    stored distance is below n, so two entries sum below it exactly when
    both are finite, and the table's dtype (_route_dtype) holds twice it,
    so no sum wraps.  A set of n = 0 has no labels; it reads as n = 1."""
    return 2 * max(n, 1) - 1


def _route_dtype(n: int) -> np.dtype:
    return np.min_scalar_type(2 * _sentinel(n))


def _route_values(values: np.ndarray, n: int) -> np.ndarray:
    """Route values as a SetReader reads them, in the route-table dtype of
    n-node labels.  A value >= n is no distance between n nodes (the row
    labels' all-ones marker, or a corrupt field) and reads as the sentinel;
    `values` is overwritten there."""
    values[values >= n] = _sentinel(n)
    return values.astype(_route_dtype(n))


def _route_table(n: int, count: int, blocks: list) -> np.ndarray:
    """The route table of `count` labels of n nodes: each (present, values)
    block, a (count x size) presence mask and the present values label by
    label (from _route_values), fills the next size columns; the other
    entries are _sentinel(n)."""
    table = np.full((count, sum(p.shape[1] for p, _ in blocks)), _sentinel(n), _route_dtype(n))
    at = 0
    for present, values in blocks:
        table[:, at:at + present.shape[1]][present] = values
        at += present.shape[1]
    return table


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


def _read_levels(rd: SetReader, n: int, ids: np.ndarray, count: int,
                 lead: tuple = ()) -> tuple[list[FullLabel], np.ndarray]:
    """`count` consecutive level bodies (layout in _level) of every label,
    as one FullLabel per label (n and ids from its header), plus the set's
    route table.

    The table holds the `lead` blocks first (see _route_table; additive's
    dominators), then every level's landmark rows, a label's levels side by
    side: pair decode reads a label's rows ~10% faster than from one table
    per level, which spreads them over the memory."""
    heads, blocks = [], list(lead)
    for _ in range(count):
        D = _shared(rd.gamma(), "level threshold")
        size = _shared(rd.gamma() - 1, "level landmark count")
        sick = rd.fixed(1).astype(bool)
        present = rd.bitmap(size)
        blocks.append((present, _route_values(rd.packed(present.sum(axis=1), _w2d(D)), n)))
        uc = _read_tables(rd, n, _w2d(D), np.flatnonzero(~sick))
        heads.append((D, size, sick.tolist(), uc))
    table = _route_table(n, rd.pos.size, blocks)
    del blocks  # freed before the label objects are made
    cuts = np.cumsum([sum(p.shape[1] for p, _ in lead)] + [h[1] for h in heads]).tolist()
    # the objects too are made label by label, so each label's sit together in memory
    return [
        FullLabel(n, i, [MediumLevel(D, size, sick[u], row[at:stop], uc[u])
                         for (D, size, sick, uc), at, stop in zip(heads, cuts, cuts[1:])])
        for u, (i, row) in enumerate(zip(ids.tolist(), table))
    ], table


def _parse_rows(labels: list[Bits], *extra: tuple[int, str]) -> list[RowLabel]:
    """Row labels: the header, then one row of _row_width(n)-bit distances,
    the all-ones marker read as absent.  A row holds as many entries as the
    one `extra` header field says (warmup's landmark count), or n without
    one (trivial).  The rows are the set's route table."""
    with SetReader(labels) as rd:
        n, ids, *count = _read_headers(rd, *extra)
        size = count[0] if count else n
        raw = rd.packed(np.full(len(labels), size), _row_width(n)).reshape(len(labels), size)
    table = _route_values(raw, n)
    return [RowLabel(n, i, row) for i, row in zip(ids.tolist(), table)]


# ---------------------------------------------------------------------------
# warmup scheme


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
        chosen = _node_ids(g, landmarks, "landmark id")
    else:
        # on unit weights hops are distances: a sample passes when no pair is uncovered
        draws = _warmup_draws(n, p.D)
        chosen, _, _, history = _sample(g, draws, p.D, p.seed, lambda sick, unc: not unc.any())
        attempts = len(history)
    rows = _row_bits(_weights(g, slice(None), chosen), n)
    labels = concat_ragged([_header_bits(n, n, len(chosen) + 1), rows])
    meta = {"landmarks": chosen, "draws": draws, "attempts": attempts}
    return LabelSet("warmup", n, {"D": p.D, "landmarks": len(chosen)}, labels, meta=meta)


def parse_warmup_set(labels: list[Bits]) -> list[RowLabel]:
    return _parse_rows(labels, (1, "landmark count"))


# ---------------------------------------------------------------------------
# medium scheme


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


def parse_medium_set(labels: list[Bits]) -> list[FullLabel]:
    with SetReader(labels) as rd:
        n, ids = _read_headers(rd)
        return _read_levels(rd, n, ids, 1)[0]


# ---------------------------------------------------------------------------
# full scheme (doubling levels)


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


def _full_labels(rd: SetReader, outer: int | None = None,
                 lead: tuple = ()) -> tuple[list[FullLabel], np.ndarray]:
    """Every label's full scheme part, from the reader's current positions,
    and the set's route table (see _read_levels).  Embedded in a label of
    `outer` nodes, it must claim that n too: the decoders read the route
    table's sentinel from the outer label's n."""
    n, ids, nlev = _read_headers(rd, (0, "level count"))
    if outer is not None and n != outer:
        raise CodecError(f"the embedded full label claims n={n}, its label n={outer}")
    room = rd.remaining()
    if room.size and nlev > room.min() // 3:  # a level body takes at least 3 bits
        raise CodecError(f"{nlev} levels cannot fit in {int(room.min())} bits")
    return _read_levels(rd, n, ids, nlev, lead)


def parse_full_set(labels: list[Bits]) -> list[FullLabel]:
    with SetReader(labels) as rd:
        return _full_labels(rd)[0]


# ---------------------------------------------------------------------------
# trivial scheme (full distance row; D = 1 fallback)


def encode_trivial(g: Graph) -> LabelSet:
    """Each label stores the node's whole distance row; decoding is lookup."""
    n = g.n
    labels = concat_ragged([_header_bits(n, n), _row_bits(_weights(g, slice(None), slice(None)), n)])
    return LabelSet("trivial", n, {"D": 1}, labels)


def parse_trivial_set(labels: list[Bits]) -> list[RowLabel]:
    return _parse_rows(labels)


def _trivial_pair(a: RowLabel, b: RowLabel) -> int:
    d = int(min(a.row[b.id], b.row[a.id]))
    return d if d < _sentinel(a.n) else INF


# ---------------------------------------------------------------------------
# Decoders.  Every scheme but trivial decodes a pair by one rule: the
# minimum over two kinds of candidate, each an upper bound on the distance.
#
# * routes  -- rows whose columns are shared nodes: a level's landmarks, or
#   the additive scheme's dominators.  They are views of the set's route
#   table (see "Set parsers"), narrow, with the sentinel s = 2n - 1 where
#   absent.  Two labels route through column l at ra[l] + rb[l], which is
#   below s exactly when both entries are finite.
# * tables  -- {id: distance} dicts of a label's listed peers: a level's
#   uncovered window, a near table, a ball.  A hit is ta[b.id] or tb[a.id].
#
# Each parsed label lists its routes and tables once, at parse time: warmup
# [row] and no table; medium and full each level's lm and uc; bdeg and
# sparse the embedded full label's, with the near table first among the
# tables; additive the full label's, with the dominator row first among the
# routes and the ball first among the tables.  `_pair` decodes one pair,
# `_matrix` every pair of a set; the test suite pins that they agree.
# `_matrix` (and `trivial_matrix`, the bulk decoder of trivial) yields the
# decoded matrix in blocks of whole rows, each block a row range from its
# first row's diagonal entry on, so the upper triangle is covered once and
# no caller needs the whole int64 matrix: exhaustive verify checks each
# block as it comes, and `harness.decode_matrix` mirrors the blocks into
# one matrix.  The state every block reads is built once per call: the
# route table narrowed again in `_minplus` and the sorted table hits
# (`_hits`).  The bulk decoders read the table the set parser built
# (`_set_routes`); no label's routes are copied.
# Only `_matrix` skips the route columns that cannot give a smallest sum
# (see `_minplus`): a set carries one landmark on several levels and split
# copies with equal columns, and finding them is a pass over the whole set,
# which pays only when every pair is decoded.  `_pair` reads every route.
# Entries on the diagonal are whatever the candidate rules give and are not
# part of any contract.


def _pair(a, b) -> int:
    """The smallest table hit and route sum of two labels of one set; INF
    when there is none.  A route sum at or above the sentinel holds an
    absent entry and is no route."""
    best = INF
    for ta, tb in zip(a.tables, b.tables):
        hit = ta.get(b.id, INF)
        if hit < best:
            best = hit
        hit = tb.get(a.id, INF)
        if hit < best:
            best = hit
    cut = min(best, _sentinel(a.n))
    for ra, rb in zip(a.routes, b.routes):
        if ra.size:
            m = int(np.add(ra, rb).min())
            if m < cut:
                best = cut = m
    return best


def _matrix(parsed: list, rows: int):
    """`_pair` for every pair of a parsed set, in blocks of `rows` whole
    rows: yields (start, block) with block the int64 entries
    [start:start + rows, start:] of the decoded matrix.  One min-plus pass
    runs over the set's route table, each label's routes side by side (the
    min over routes of the min over a route's columns is the min over all
    columns); the table hits are gathered once, as pairs sorted by their
    lower end, and each block is lowered by the hits of its rows."""
    lo, hi, dist = _hits(parsed)
    for start, block in _minplus(*_set_routes(parsed), rows):
        first, last = np.searchsorted(lo, [start, start + len(block)])
        u, v, d = lo[first:last] - start, hi[first:last] - start, dist[first:last]
        np.minimum.at(block, (u, v), d)
        mirror = v < len(block)  # both ends among the block's rows
        np.minimum.at(block, (v[mirror], u[mirror]), d[mirror])
        yield start, block


def _set_routes(parsed: list) -> tuple[np.ndarray, int]:
    """The route table of a parsed set, which every label's routes view
    (row u is label u's routes side by side), read as the base array of
    label 0's first route, and its sentinel."""
    if not parsed:
        return np.empty((0, 0), dtype=np.uint8), 1
    table = parsed[0].routes[0].base
    if table is None or table.ndim != 2 or len(table) != len(parsed):
        raise ValueError("the routes of the set do not view one route table of its labels")
    return table, _sentinel(parsed[0].n)


def _hits(parsed: list) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every table hit of a parsed set, an entry {i: d} in a table of label
    u, as (lo, hi, d) arrays sorted by lo = min(u, i), hi = max(u, i).  Ids
    beyond the set (nodes whose labels are not in it, as in a prefix of a
    label set) are skipped."""
    held = [(u, t) for u, p in enumerate(parsed) for t in p.tables if t]
    u = np.repeat(np.array([u for u, _ in held], dtype=np.intp), [len(t) for _, t in held])
    i = np.fromiter(chain.from_iterable(t for _, t in held), np.intp, u.size)
    d = np.fromiter(chain.from_iterable(t.values() for _, t in held), np.int64, u.size)
    keep = i < len(parsed)
    lo, hi, d = np.minimum(u, i)[keep], np.maximum(u, i)[keep], d[keep]
    order = np.argsort(lo)
    return lo[order], hi[order], d[order]


def _minplus(table: np.ndarray, sentinel: int, step: int):
    """out[u, v] = min over columns l of T[u, l] + T[v, l] for the route
    table T of a set parser: its absent entries are `sentinel`, 2n - 1, and
    its finite ones are below n.  INF where no column is finite in both
    rows (or there is no column), as `_pair` reads it.  Yields
    (start, out[start:start + step, start:]) as int64 blocks, start = 0,
    step, 2 * step, ...

    The table is narrowed once more, in one pass, by its values: into the
    narrowest unsigned dtype that holds twice inf = 2 * top + 1, where top
    is the largest finite entry, with inf where absent (inf <= sentinel):
    two finite entries sum below inf, and two absent ones do not wrap.
    Then the columns that cannot give a smallest sum are dropped
    (`_useful_columns`): exact duplicates (split copies in one 0-weight
    component, a landmark drawn twice), a landmark's column on a lower level
    (the higher level's column cut at 2D), and columns with no finite entry.
    Each dropped column is >= a kept one in every entry, so the result is
    unchanged.  A block is a tile of its rows by the table rows from
    `start` on.  With fewer than two kept columns for every three rows, the
    tile is built column by column, one add of the column's entries and one
    running minimum over the whole tile per column: a row loop would reduce
    over only the few columns, a short reduction per row.  Otherwise each
    row adds its entries to the rows from its own on and takes the minimum
    along them, and the upper part of the tile's left square, the part
    computed, is mirrored into it; the result is symmetric.  The row loop
    computes only that upper part, the column loop the whole tile, so with
    many columns the row loop is faster.  The 2/3 is measured: on 512-row
    tables (2-vCPU VM) the column loop was 2-10 % slower at 437-449 kept
    columns (sparse-split) and 7-14 % faster at 297-306 (additive-query).
    """
    count = len(table)
    inf = 2 * int(table.max(initial=0, where=table < sentinel)) + 1
    dtype = np.min_scalar_type(2 * inf)
    A = np.empty(table.shape, dtype)
    np.minimum(table, inf, out=A, casting="unsafe")
    A = np.take(A, _useful_columns(A, inf), axis=1)
    by_column = 3 * A.shape[1] < 2 * count
    if by_column:
        A = np.ascontiguousarray(A.T)
    else:
        buf = np.empty_like(A)  # reused by every row; per-row temporaries raised peak RSS
    for start in range(0, count, step):
        stop = min(start + step, count)
        tile = np.full((stop - start, count - start), inf, dtype=dtype)
        if by_column:
            summed = np.empty_like(tile)
            for col in A:
                np.add(col[start:stop, None], col[start:], out=summed)
                np.minimum(tile, summed, out=tile)
        else:
            for u in range(start, stop):
                np.add(A[u:], A[u], out=buf[u:])
                buf[u:].min(axis=1, initial=inf, out=tile[u - start, u - start:])
            square = tile[:, :stop - start]
            np.minimum(square, square.T, out=square)
        out = tile.astype(np.int64)
        out[tile >= inf] = INF
        yield start, out


def _useful_columns(A: np.ndarray, inf: int) -> np.ndarray:
    """Ascending indices of the columns of the min-plus table A (entries
    below `inf` finite, `inf` where absent) that can give a smallest sum.

    With t a column's largest finite entry, the column is dropped when it
    equals a kept column with every entry above t set to inf, and when it has
    no finite entry.  Columns are visited by t descending (ties in index
    order), and a column is compared, as its bytes, with every kept column
    cut at its own t.  Equal bytes are equal columns, so a dropped column is
    >= a kept one in every entry and no smallest sum changes."""
    cols = np.ascontiguousarray(A.T)
    finite = cols < inf
    tops = cols.max(axis=1, initial=0, where=finite)
    alive = np.flatnonzero(finite.any(axis=1))
    kept, seen, cut_at = [], set(), None
    for j in alive[np.argsort(-tops[alive].astype(np.int64), kind="stable")].tolist():
        t = tops[j]
        if t != cut_at:  # the kept columns, cut at the new (lower) threshold
            cut = cols[kept]
            cut[cut > t] = inf
            seen, cut_at = {c.tobytes() for c in cut}, t
        key = cols[j].tobytes()
        if key not in seen:
            kept.append(j)
            seen.add(key)
    return np.sort(np.asarray(kept, dtype=np.intp))


def trivial_matrix(parsed: list[RowLabel], rows: int):
    """`_trivial_pair` for every pair of the set, in the blocks `_matrix`
    yields: each row of the route table cut to the set."""
    count = len(parsed)
    table, sentinel = _set_routes(parsed)
    for start in range(0, count, rows):
        stop = min(start + rows, count)
        block = np.minimum(table[start:stop, start:count], table[start:count, start:stop].T)
        out = block.astype(np.int64)
        out[block >= sentinel] = INF
        yield start, out


# ---------------------------------------------------------------------------
# Registry records


def _threshold_params(name: str, seed: int, opts: dict) -> PreservingParams:
    return PreservingParams(D=required(opts, "D", name), seed=seed)


def _header(key, params, many=False):
    """Header codec (write_params, read_params) of a threshold scheme:
    gamma(D), gamma(k + 1), then gamma(c + 1) for each of the k landmark
    counts c of the param `key` (none without a key; one, or with `many` a
    list of them); params(D, counts) rebuilds the params on read."""
    def write(p: dict) -> list[int]:
        listed = p.get(key, [None]) if many else [p.get(key)] if key else []
        if not isinstance(listed, list):
            raise LabelError(f"header param {key}={listed!r} is not a list")
        return [header_value("D", p.get("D"), 0), len(listed) + 1,
                *(header_value(key, c, 1) for c in listed)]

    def read(gamma) -> dict:
        D = gamma()
        return params(D, [gamma() - 1 for _ in range(gamma() - 1)])
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
    carried=lambda label: {"D": label.levels[0].D, "landmarks": label.levels[0].size},
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
