"""disagree-kit: opinion disagreement of noisy averaging dynamics on graphs.

Exact computation by elimination or dense factorisation, a sublinear
random-walk sampler, a sparsify-and-sketch pipeline, model-network
generators, and direct simulation baselines.
"""

from .dynamics import MCConfig, simulate_mc_disagreement, simulate_noisy_degroot
from .errors import (ConvergenceError, DisagreeKitError, DomainError,
                     DuplicateEdgeError, ParseError, ResourceError, UsageError)
from .generators import (GeneratorSpec, generate, generate_apollonian,
                         generate_ba, generate_gsw, generate_psfw,
                         psfw_kemeny_closed_form, psfw_spectrum)
from .graph import (WeightedGraph, edge_list_text, load_bundled,
                    load_edge_list, restrict_to_lcc, two_step_graph,
                    validate)
from .results import DisagreementEstimate
from .sampler import (SampleParams, derive_params, estimate_gap_bound,
                      estimate_return_probabilities, sample_disagreement,
                      sample_kemeny_two_step)
from .sparsify import (SparsifiedLaplacian, approx_disagreement,
                       laplacian_solve, sparsify_two_step)
from .spectral import (DisagreementExact, SpectralSummary, decompose,
                       exact_disagreement, exact_kemeny_two_step,
                       pseudoinverse_identity_check)

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError", "DisagreeKitError", "DisagreementEstimate",
    "DisagreementExact", "DomainError", "DuplicateEdgeError", "GeneratorSpec",
    "MCConfig", "ParseError", "ResourceError", "SampleParams",
    "SparsifiedLaplacian", "SpectralSummary", "UsageError", "WeightedGraph",
    "approx_disagreement", "decompose", "derive_params", "edge_list_text",
    "estimate_gap_bound", "estimate_return_probabilities",
    "exact_disagreement", "exact_kemeny_two_step", "generate",
    "generate_apollonian", "generate_ba", "generate_gsw", "generate_psfw",
    "laplacian_solve", "load_bundled", "load_edge_list",
    "pseudoinverse_identity_check",
    "psfw_kemeny_closed_form", "psfw_spectrum", "restrict_to_lcc",
    "sample_disagreement", "sample_kemeny_two_step", "simulate_mc_disagreement",
    "simulate_noisy_degroot", "sparsify_two_step", "two_step_graph",
    "validate",
]
