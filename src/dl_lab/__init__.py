"""Numerical checks for layered alternating projections on frustration-free
lattice Hamiltonians: contraction bounds, entanglement bounds, correlation
decay, and the windowed measurement arguments behind them."""

__version__ = "0.1.0"

from .errors import (ConvergenceError, DimensionCapError, DLLabError,
                     ValidationError)
from .hamiltonian import (FrustrationCheck, Geometry, HamiltonianSpec,
                          LayerPartition, LocalTerm, SiteSpace, chain_geometry,
                          custom_geometry, partition_layers, projectorize,
                          torus_geometry, validate_frustration_free)
from .states import (GroundSpaceData, SpectrumData, StateVector,
                     gaussian_filter_deviation, ground_space, product_state,
                     random_state, restricted_norm, spectrum)
from .dl import (ConvergenceTrace, DLOperator, PyramidDecomposition,
                 apply_pyramids, converge, dl_bound, dl_operator,
                 measure_shrinkage, norm_energy_check, pyramid_applicable,
                 pyramid_decompose, step_inequality_margin)
from .entanglement import (AreaLawCertificate, SchmidtData,
                           area_law_certificate, rank_growth, reduced_density,
                           schmidt, shifted_cut_check, step_entropy_bound,
                           tail_bound_check)
from .correlations import (CausalityCone, ObservableSpec, causality_cone,
                           cone_absorption_check, decay_profile,
                           distinguishing_measurement, entropy_gap_check)
from .models import (BUNDLED_MODELS, ModelDescriptor, build_model,
                     build_parent_random, random_mps_state)
