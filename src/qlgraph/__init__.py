"""Quantum-like bit graphs from coupled regular networks.

Build d-regular basis graphs, couple them into QL bits, compose the spectra
of their Cartesian products as plain arrays of eigenvalue sums without
materializing product matrices, count each state's emergent components, and
project emergent eigenvectors onto the 2^N qubit tensor basis.
"""
from .ensembles import histogram_edges, histogram_from_values, write_histogram_csv
from .errors import (GenerationFailureError, InvalidParameterError,
                     NumericalFailureError, QLGraphError)
from .experiments import (BUNDLED_EXPERIMENTS, EXPERIMENT_NOTES, ExperimentDescriptor,
                          SampleResult, ensemble_spectrum, run_sample)
from .graphs import (Graph, adjacency, apply_diagonal_disorder, cycle_graph,
                     d_regular_random, delete_random_edges, is_connected)
from .products import compose_spectra, emergent_component_counts, write_composed_spectrum_csv
from .projection import project_alphas
from .qlbits import (EmergentPair, QLBit, SplittingPrediction, couple, emergent_pair,
                     predict_splitting)
from .rng import RngSeed
from .spectra import eigendecompose

__version__ = "0.1.0"

__all__ = [
    "BUNDLED_EXPERIMENTS", "EXPERIMENT_NOTES",
    "EmergentPair", "ExperimentDescriptor", "GenerationFailureError",
    "Graph", "InvalidParameterError", "NumericalFailureError",
    "QLBit", "QLGraphError", "RngSeed", "SampleResult",
    "SplittingPrediction", "adjacency", "apply_diagonal_disorder",
    "compose_spectra", "couple", "cycle_graph", "d_regular_random", "delete_random_edges",
    "eigendecompose", "emergent_component_counts", "emergent_pair", "ensemble_spectrum",
    "histogram_edges", "histogram_from_values", "is_connected",
    "predict_splitting", "project_alphas", "run_sample", "write_composed_spectrum_csv",
    "write_histogram_csv",
]
