"""Label-propagation community detection on CSR graphs.

Three detectors (RAK/LPA, COPRA, SLPA), Newman-Girvan modularity
scoring, MatrixMarket/edge-list ingestion, and a parameter-sweep harness.
Hot loops are numba-compiled by default and run on ``workers`` threads.
Without numba, or with ``LABELPROP_DISABLE_NUMBA=1``, everything runs
interpreted on one thread, whatever ``workers`` asks for: only non-strict
RAK and SLPA run the kernels' source, on lists; strict RAK and SLPA run
in numpy batches and COPRA on per-vertex label rows (``copra._Rows``),
each with its kernel's results.
"""

from ._backend import JIT_ENABLED
from .copra import CopraParams, copra_detect
from .graph import Graph, GraphParseError, degree_weights, from_arcs, load_graph, preprocess
from .quality import modularity
from .rak import RakParams, rak_detect
from .result import DetectionResult, Held
from .slpa import SlpaParams, slpa_detect
from .synth import disjoint_cliques, gnp, ring_of_cliques
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
    "load_graph",
    "from_arcs",
    "preprocess",
    "degree_weights",
    "modularity",
    "rak_detect",
    "copra_detect",
    "slpa_detect",
    "disjoint_cliques",
    "ring_of_cliques",
    "gnp",
    "run_one",
    "run_sweep",
]
