"""distlab: distance labeling schemes for 0/1-weighted undirected graphs.

Encoders assign each node a self-delimiting bit string; decoders answer
distance queries from two labels alone, with no access to the graph.
Schemes: exact-above-threshold (warmup / medium / full / trivial), exact
for sparse and bounded-degree graphs via degree-reducing node splits, and
additive-error approximation.  A BFS-based oracle harness verifies every
contract and measures label-size scaling.
"""

from .bits import Bits
from .errors import CodecError, EncodingFailure, GraphError, LabelError
from .graph import (
    INF,
    Graph,
    all_pairs,
    all_pairs_with_hops,
    build_graph,
    distances_from,
    gen_cycle,
    gen_gnm,
    gen_grid,
    gen_lower_bound_family,
    gen_path,
    gen_star,
    gen_structured,
    load_edge_list,
    parse_edge_list,
    save_edge_list,
    sssp,
)
from .labels import LabelSet, decode_pair, load_labels, save_labels
from .preserving import (
    PreservingParams,
    classify_nodes,
    encode_full,
    encode_medium,
    encode_trivial,
    encode_warmup,
    sample_landmarks,
)
from .sparse import (
    SplitResult,
    encode_bounded_degree,
    encode_sparse,
    split_transform,
)
from .additive import (
    AdditiveParams,
    ball_in_induced,
    encode_additive,
    greedy_dominating_set,
    high_degree_set,
    power_graph,
)
from .harness import (
    BenchRow,
    VerifyReport,
    bench_sweep,
    bound_value,
    decode_matrix,
    lower_bound_experiment,
    verify_labels,
)

__version__ = "0.1.0"
