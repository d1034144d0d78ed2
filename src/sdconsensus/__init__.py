"""Sampled-data consensus toolkit for double-integrator agent networks.

Gain synthesis from closed-form inequality limits, contraction certificates
over sampling-interval and eigenvalue ranges, and exact batch simulation
under nonuniform sampling with switching balanced topologies.
"""

from .certify import (
    ContractionCertificate,
    PlantModel,
    certify_double_integrator,
    certify_gain,
    certify_grid,
    network_contraction,
)
from .graph import (
    GraphBandError,
    SpectrumSummary,
    UnsupportedGraphError,
    WeightedDigraph,
    consensus_eigenvalues,
    has_spanning_tree,
    is_balanced,
    laplacian,
    random_balanced_graph,
    reduced_laplacian,
    reduction_basis,
    spectrum,
)
from .numerics import (
    block_gershgorin_sv_bound,
    complex_block_split,
    expm,
    expm_integral,
    gershgorin_sv_bound,
    max_singular_value,
    max_singular_values,
)
from .sim import (
    BatchResult,
    SimulationConfig,
    TopologyRecipe,
    TrajectoryRecord,
    UncertifiedGainError,
    disagreement,
    reduced_norm,
    run,
    sample_interval,
    step,
    step_kronecker,
)
from .synthesis import (
    DesignSpec,
    GainDesign,
    InequalityLimits,
    abstract_consistency,
    check_gain_inequalities,
    consistency_witness,
    design,
    is_feasible,
    limits,
    transform_matrix,
)

__version__ = "0.1.0"
