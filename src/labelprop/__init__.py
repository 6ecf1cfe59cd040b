"""Label-propagation community detection on CSR graphs.

Three detectors (RAK/LPA, COPRA, SLPA) whose kernels run on a chosen
number of worker threads, Newman-Girvan modularity scoring,
MatrixMarket/edge-list ingestion, and a parameter-sweep harness.  Hot
loops are numba-compiled by default; set ``LABELPROP_DISABLE_NUMBA=1`` to
run the same code interpreted.
"""

from ._backend import JIT_ENABLED
from .copra import CopraParams, best_label, collect_and_threshold, copra_detect
from .graph import (
    Graph,
    GraphParseError,
    degree_weight,
    degree_weights,
    from_arcs,
    load_edge_list,
    load_graph,
    load_matrix_market,
    preprocess,
)
from .prng import XorShift32
from .quality import modularity
from .rak import RakParams, choose_max_label, rak_detect
from .result import DetectionResult, Held
from .slpa import SlpaParams, most_popular_label, slpa_detect
from .synth import (
    brute_modularity,
    disjoint_cliques,
    gnp,
    path,
    ring_of_cliques,
    star,
)
from .sweep import RunRecord, SweepSpec, run_one, run_sweep

__version__ = "0.1.0"

__all__ = [
    "JIT_ENABLED",
    "Graph",
    "GraphParseError",
    "DetectionResult",
    "Held",
    "RakParams",
    "CopraParams",
    "SlpaParams",
    "SweepSpec",
    "RunRecord",
    "XorShift32",
    "load_matrix_market",
    "load_edge_list",
    "load_graph",
    "from_arcs",
    "preprocess",
    "degree_weight",
    "degree_weights",
    "modularity",
    "rak_detect",
    "choose_max_label",
    "copra_detect",
    "collect_and_threshold",
    "best_label",
    "slpa_detect",
    "most_popular_label",
    "brute_modularity",
    "disjoint_cliques",
    "ring_of_cliques",
    "gnp",
    "star",
    "path",
    "run_one",
    "run_sweep",
]
