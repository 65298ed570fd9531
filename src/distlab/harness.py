"""Verification and measurement harness.

Checks label sets against the all-pairs BFS oracle: the universal
soundness contract (decoded >= true distance, with unreachable pairs agreeing
on INF) plus each scheme's own window.  The windows are the contract masks
of the registry records (`labels.Scheme.contract`):

=========  =====================================================
trivial    exact for every pair
warmup     exact when dist >= D (unit-weight graphs)
medium     exact when hop distance lies in [D, 2D]
full       exact when hop distance >= D
bdeg       exact for every pair
sparse     exact for every pair
additive   decoded - dist in [0, r] for connected pairs
=========  =====================================================

`verify_labels` takes one path in both modes.  It parses the set once; the
set parser is the one place that checks the labels of a set agree on their
layout.  It then decodes either all n(n-1)/2 pairs u < v through the
scheme's registered bulk matrix decoder (exhaustive; pinned elsewhere to
agree with its pair decoder) or a seeded sample of pairs through the
registered pair decoder (sampled).  Every scheme but trivial registers the
same two, `preserving._pair` and `preserving._matrix`.  A set that does not
parse or decode is one "decode error" violation.  Otherwise one pass
applies soundness and the contract masks to arrays of (true weight, hops,
decoded) per pair, and one report is built.  Also here: benchmark sweeps over
G(n, m) corpora and the adjacency-reconstruction experiment that reads a
random bipartite adjacency matrix back out of the labels alone.
"""

from __future__ import annotations

import numbers
import random
import time
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import additive, sparse  # noqa: F401 -- importing a scheme module registers it
from . import preserving as _preserving
from .errors import CodecError, LabelError
from .graph import Graph, _int64, _integer, gen_gnm, gen_lower_bound_family
from .labels import MATRIX_DECODERS, PAIR_DECODERS, SCHEMES, SET_PARSERS, LabelSet, lookup

__all__ = [
    "SET_PARSERS",
    "PAIR_DECODERS",
    "MATRIX_DECODERS",
    "decode_matrix",
    "VerifyReport",
    "verify_labels",
    "BenchRow",
    "BENCH_COLUMNS",
    "bound_value",
    "bench_sweep",
    "lower_bound_experiment",
    "EXHAUSTIVE_CAP",
]

EXHAUSTIVE_CAP = 2048  # above this the oracle table is too hot; sampling is forced


def decode_matrix(ls: LabelSet) -> np.ndarray:
    """All-pairs decoded distances, same candidate rules as the pair decoders."""
    return lookup(MATRIX_DECODERS, ls.scheme)(ls.parsed())


@dataclass
class VerifyReport:
    """Outcome of checking one label set against the oracle."""

    graph_id: str
    scheme: str
    params: dict
    mode: str
    pairs_checked: int
    violation_count: int
    violations: list = field(default_factory=list)  # (u, v, oracle, decoded, contract)
    max_bits: int = 0
    mean_bits: float = 0.0
    p50_bits: float = 0.0
    p95_bits: float = 0.0
    warnings: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.violation_count == 0

    def to_text(self) -> str:
        lines = [
            f"graph:   {self.graph_id}",
            f"scheme:  {self.scheme} {self.params}",
            f"mode:    {self.mode} ({self.pairs_checked} pairs)",
            f"labels:  max {self.max_bits} bits, mean {self.mean_bits:.1f}, "
            f"p50 {self.p50_bits:.0f}, p95 {self.p95_bits:.0f}",
        ]
        for w in self.warnings:
            lines.append(f"warning: {w}")
        if self.passed:
            lines.append("result:  PASS (0 violations)")
        else:
            lines.append(f"result:  FAIL ({self.violation_count} violations)")
            for u, v, oracle, dec, kind in self.violations[:20]:
                lines.append(f"  ({u}, {v}): oracle={oracle} decoded={dec} [{kind}]")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {**asdict(self), "violations": self.violations[:100], "passed": self.passed}


def _violations(contract, params, weight, hops, iu, iv, d) -> tuple[int, list]:
    """Violation count and up to 50 example entries for the pairs (iu, iv)
    that decoded to d: soundness plus the scheme's contract mask.  The
    pairs' entries are gathered from the narrow oracle tables and only
    they are widened to int64 with INF, the values the masks compare."""
    w = _int64(weight[iu, iv])
    h = w if hops is weight else _int64(hops[iu, iv])
    kinds = {"soundness: decoded below true distance": d < w, **contract(params, w, h, d)}
    entries = []
    total = 0
    for kind, mask in kinds.items():
        total += int(mask.sum())
        for idx in np.flatnonzero(mask)[:20]:
            entries.append((int(iu[idx]), int(iv[idx]), int(w[idx]), int(d[idx]), kind))
    return total, entries[:50]


def verify_labels(
    g: Graph,
    ls: LabelSet,
    mode: str = "exhaustive",
    sample_count: int = 10_000,
    seed: int = 0,
    graph_id: str = "",
) -> VerifyReport:
    """Check every contract the scheme promises against the BFS oracle.

    `mode` is "exhaustive" or "sampled"; sampled mode draws `sample_count`
    (an integer >= 1) random pairs of distinct nodes.
    """
    if mode not in ("exhaustive", "sampled"):
        raise ValueError(f"unknown verify mode {mode!r}")
    if not isinstance(sample_count, numbers.Integral) or sample_count < 1:
        raise ValueError(f"sample_count must be an integer >= 1, got {sample_count!r}")
    contract = lookup(SCHEMES, ls.scheme).contract
    if ls.n != g.n:
        raise LabelError(f"label set describes {ls.n} nodes, graph has {g.n}")
    warnings_: list[str] = []
    if mode == "exhaustive" and g.n > EXHAUSTIVE_CAP:
        warnings_.append(
            f"n={g.n} exceeds the exhaustive cap of {EXHAUSTIVE_CAP}; sampling instead"
        )
        mode = "sampled"
    sizes = ls.bit_sizes()
    stats = dict(
        max_bits=int(sizes.max()) if sizes.size else 0,
        mean_bits=float(sizes.mean()) if sizes.size else 0.0,
        p50_bits=float(np.percentile(sizes, 50)) if sizes.size else 0.0,
        p95_bits=float(np.percentile(sizes, 95)) if sizes.size else 0.0,
    )
    try:
        ls.parsed()
        if mode == "exhaustive":
            iu, iv = np.triu_indices(g.n, 1)
            d = decode_matrix(ls)[iu, iv]
        else:
            rng = random.Random(seed)
            pairs = []
            for _ in range(sample_count if g.n >= 2 else 0):
                u = rng.randrange(g.n)
                v = rng.randrange(g.n - 1)
                pairs.append((u, v + (v >= u)))
            iu, iv = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
            d = np.array([ls.decode(u, v) for u, v in pairs], dtype=np.int64)
    except (LabelError, CodecError) as exc:
        # a label set that does not decode is one violation, not one per pair
        checked, count, entries = 0, 1, [(-1, -1, -1, -1, f"decode error: {exc}")]
    else:
        weight, hops = g.tables()
        checked = d.size
        count, entries = _violations(contract, ls.params, weight, hops, iu, iv, d)
    return VerifyReport(
        graph_id, ls.scheme, ls.params, mode, checked, count, entries, warnings=warnings_, **stats
    )


# ---------------------------------------------------------------------------
# Benchmark sweeps


@dataclass
class BenchRow:
    """One measured encode: label-size stats against the scheme's size bound."""

    n: int
    m: int
    scheme: str
    params: str
    max_label_bits: int
    mean_label_bits: float
    bound_value: float
    ratio: float
    encode_seconds: float
    seed: int

    def as_list(self) -> list:
        return [
            self.n,
            self.m,
            self.scheme,
            self.params,
            self.max_label_bits,
            f"{self.mean_label_bits:.2f}",
            f"{self.bound_value:.2f}",
            f"{self.ratio:.4f}",
            f"{self.encode_seconds:.4f}",
            self.seed,
        ]


BENCH_COLUMNS = [f.name for f in fields(BenchRow)]


def bound_value(scheme: str, n: int, m: int, params: dict) -> float:
    """Reference size for the ratio column: the size bound of the scheme's
    registry record, e.g. (n/D) * lg(D)^2 for full and n/r for additive."""
    return lookup(SCHEMES, scheme).bound(n, params)


def bench_point(scheme: str, n: int, m: int, seed: int, opts: dict) -> BenchRow:
    g = gen_gnm(n, m, seed)
    t0 = time.perf_counter()
    ls = lookup(SCHEMES, scheme).encode(g, seed, opts)
    elapsed = time.perf_counter() - t0
    bound = bound_value(scheme, n, m, ls.params)
    maxb = ls.max_bits
    return BenchRow(
        n=n,
        m=m,
        scheme=scheme,
        params=";".join(f"{k}={v}" for k, v in sorted(ls.params.items())),
        max_label_bits=maxb,
        mean_label_bits=ls.mean_bits,
        bound_value=bound,
        ratio=maxb / bound if bound else 0.0,
        encode_seconds=elapsed,
        seed=seed,
    )


def parse_m_rule(rule: str, n: int) -> int:
    """m per n: 'n', '2n', '4n' style multiples or an absolute integer."""
    rule = rule.strip().lower()
    if rule.endswith("n"):
        factor = rule[:-1]
        return n * (int(factor) if factor else 1)
    return int(rule)


def bench_sweep(scheme: str, ns, m_rule: str, seeds, opts_list) -> list[BenchRow]:
    """One row per (n, seed, opts) point, measured one after another in
    sweep order."""
    points = [
        (n, parse_m_rule(m_rule, n), seed, opts)
        for n in ns
        for opts in opts_list
        for seed in seeds
    ]
    if not points:
        raise ValueError("empty benchmark sweep")
    return [bench_point(scheme, n, m, seed, opts) for n, m, seed, opts in points]


# ---------------------------------------------------------------------------
# Adjacency reconstruction experiment


def lower_bound_experiment(k: int, tail: int, seed: int = 0, trials: int = 20) -> dict:
    """Recover random k*k adjacency matrices from labels alone.

    Each trial draws adjacency bits, builds the bipartite family whose left
    node i sits at distance exactly `tail` from path end w_j iff bit (i, j)
    is set, encodes with the full scheme at threshold `tail`, and re-reads
    every bit as decode(L_i, w_j) == tail through the registered pair
    decoder.  Any mismatch is a scheme bug.  The report also compares the queried label bits against the k^2/2
    information bound the family forces.
    """
    k, trials = _integer(k, "family size k"), _integer(trials, "trial count")
    trial_results = []
    all_exact = True
    for trial in range(trials):
        rng = random.Random((seed + 1) * 7919 + trial)
        adj = [[rng.getrandbits(1) for _ in range(k)] for _ in range(k)]
        g, left, ends = gen_lower_bound_family(k, tail, adj)
        ls = _preserving.encode_full(
            g, _preserving.PreservingParams(D=tail, seed=(seed + 1) * 104729 + trial)
        )
        parsed, pair = ls.parsed(), PAIR_DECODERS[ls.scheme]
        recovered = [
            [1 if pair(parsed[left[i]], parsed[ends[j]]) == tail else 0 for j in range(k)]
            for i in range(k)
        ]
        exact = recovered == adj
        all_exact &= exact
        queried_bits = sum(ls.labels[x].nbits for x in left + ends)
        trial_results.append(
            {
                "trial": trial,
                "exact": exact,
                "bits_recovered": sum(
                    recovered[i][j] == adj[i][j] for i in range(k) for j in range(k)
                ),
                "queried_label_bits": queried_bits,
            }
        )
    queried = [t["queried_label_bits"] for t in trial_results]
    return {
        "k": k,
        "tail": tail,
        "trials": trials,
        "bits_per_trial": k * k,
        "all_exact": all_exact,
        "information_bound_bits": k * k / 2,
        "queried_label_bits_mean": float(np.mean(queried)) if queried else 0.0,
        "trial_results": trial_results,
    }
