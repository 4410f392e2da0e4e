"""Sparse semidefinite programming by clique-tree conversion, a dualized
homogeneous-embedding interior-point method with block-tree normal equations,
and low-rank positive-semidefinite completion."""

from .chordal import (
    Graph,
    TreeDecomposition,
    decompose,
    format_decomposition,
    parse_graph,
    parse_permutation,
    sparsity_graph,
)
from .convert import build_ctc, dualize, separate_with_aux
from .errors import TreeSdpError
from .frontends import (
    SolveOutcome,
    dense_reference_solve,
    gen_lovasz_theta,
    gen_maxcut,
    gen_maxkcut,
    parse_weighted_graph,
    read_sdpa,
    solve_sdp,
    write_sdpa,
)
from .model import SdpProblem
from .recovery import LowRankFactor, Metrics, complete_low_rank, dimacs_metrics

__version__ = "0.1.0"

__all__ = [
    "Graph",
    "LowRankFactor",
    "Metrics",
    "SdpProblem",
    "SolveOutcome",
    "TreeDecomposition",
    "TreeSdpError",
    "build_ctc",
    "complete_low_rank",
    "decompose",
    "dense_reference_solve",
    "dimacs_metrics",
    "dualize",
    "format_decomposition",
    "gen_lovasz_theta",
    "gen_maxcut",
    "gen_maxkcut",
    "parse_graph",
    "parse_permutation",
    "parse_weighted_graph",
    "read_sdpa",
    "separate_with_aux",
    "solve_sdp",
    "sparsity_graph",
    "write_sdpa",
    "__version__",
]
