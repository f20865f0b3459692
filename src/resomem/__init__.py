"""Simulation toolkit for a dual-mode resonator quantum memory and
time-domain-multiplexed cat/GKP breeding protocols in truncated Fock space.
"""

__version__ = "0.1.0"

from .errors import (
    ContractError,
    DimensionError,
    DomainError,
    NumericalAccuracyWarning,
    ResomemError,
)
from .fock import (
    DEFAULT_DIM,
    DensityMatrix,
    FockVector,
    cat_squeezing_for_alpha,
    cat_state,
    coherent_state,
    fidelity,
    fock_basis_state,
    number_parity,
    squeezed_single_photon,
    squeezed_vacuum,
    vacuum,
)
from .breeding import (
    BreedingPlan,
    BreedingTrajectory,
    breed_step,
    gkp_stabilizer_expectation,
    run_breeding,
    theoretical_bred_state,
)
from .memory import (
    CouplingSchedule,
    NetworkResult,
    TemporalMode,
    entangle_pulse,
    multimode_overlap,
    read_pulse,
    simulate_network,
    standard_wavepacket,
    write_pulse,
)
from .noise import (
    CoherenceSeries,
    NoiseParams,
    apply_loss,
    evolve_closed_form,
    fit_T1,
    fit_Tphi,
)
from .rates import (
    heralding_probability,
    k_from_rates,
    success_probability,
)
from .tomo import (
    HomodyneDataset,
    TraceMatrix,
    mle_reconstruct,
    pca_temporal_mode,
    sample_homodyne,
    simulate_traces,
)
from .wigner import (
    WignerGrid,
    marginal,
    negative_region_count,
    wigner_grid,
    wigner_grids,
)
