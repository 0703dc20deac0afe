"""Quantum-like bit graphs from coupled regular networks.

Build d-regular basis graphs, couple them into QL bits, compose Cartesian
products and their spectra without materializing product matrices, classify
emergent/hybrid/random states, and project emergent eigenvectors onto the
2^N qubit tensor basis.
"""
from .ensembles import (EMERGENT, HYBRID, RANDOM, EnsembleHistogram, histogram_edges,
                        histogram_from_values, write_histogram_csv)
from .errors import (GenerationFailureError, InvalidParameterError,
                     NumericalFailureError, QLGraphError)
from .experiments import (BUNDLED_EXPERIMENTS, EXPERIMENT_NOTES, ExperimentDescriptor,
                          FactorResult, SampleResult, ensemble_spectrum,
                          iter_samples, run_sample)
from .graphs import (Graph, adjacency, apply_diagonal_disorder, cycle_graph,
                     d_regular_random, delete_random_edges, is_connected)
from .products import (ComposedSpectrum, compose_spectra, emergent_component_counts,
                       write_composed_spectrum_csv)
from .projection import (BellCombination, BellStateReport, ProjectionReport,
                         bell_state_check, project_alphas)
from .qlbits import (IN_PHASE, OUT_OF_PHASE, EmergentPair, EmergentState, QLBit,
                     SplittingPrediction, couple, emergent_pair, predict_splitting)
from .rng import RngSeed
from .spectra import (AlonBoppanaReport, Spectrum, alon_boppana_check, eigendecompose,
                      fix_sign, max_residual, orthonormality_defect, spectral_gap)

__version__ = "0.1.0"

__all__ = [
    "AlonBoppanaReport", "BellCombination", "BellStateReport",
    "BUNDLED_EXPERIMENTS", "ComposedSpectrum", "EMERGENT", "EXPERIMENT_NOTES",
    "EmergentPair", "EmergentState", "EnsembleHistogram", "ExperimentDescriptor",
    "FactorResult", "GenerationFailureError", "Graph", "HYBRID", "IN_PHASE",
    "InvalidParameterError", "NumericalFailureError", "OUT_OF_PHASE",
    "ProjectionReport", "QLBit", "QLGraphError", "RANDOM",
    "RngSeed", "SampleResult", "Spectrum", "SplittingPrediction",
    "adjacency", "alon_boppana_check", "apply_diagonal_disorder",
    "bell_state_check", "compose_spectra", "couple",
    "cycle_graph", "d_regular_random", "delete_random_edges", "eigendecompose",
    "emergent_component_counts", "emergent_pair", "ensemble_spectrum", "fix_sign",
    "histogram_edges", "histogram_from_values", "is_connected", "iter_samples",
    "max_residual", "orthonormality_defect", "predict_splitting",
    "project_alphas", "run_sample", "spectral_gap",
    "write_composed_spectrum_csv", "write_histogram_csv",
]
