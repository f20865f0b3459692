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
from .gates import (
    JointState,
    beamsplitter_apply,
    homodyne_project,
    quadrature_eigenbra,
    window_condition,
)
from .breeding import (
    BreedingPlan,
    BreedingTrajectory,
    breed_step,
    exact_bred_state,
    gkp_stabilizer_expectation,
    run_breeding,
    theoretical_bred_state,
)
from .memory import (
    CouplingSchedule,
    MemoryHardware,
    NetworkResult,
    TemporalMode,
    entangle_pulse,
    multimode_overlap,
    output_mode_from_schedule,
    read_pulse,
    simulate_network,
    standard_wavepacket,
    voltage_gamma,
    write_pulse,
)
from .noise import (
    CoherenceSeries,
    NoiseParams,
    apply_loss,
    evolve_closed_form,
    fit_T1,
    fit_Tphi,
    lindblad_oracle,
)
from .rates import (
    heralding_probability,
    interference_rate,
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
    count_peaks,
    marginal,
    negative_region_count,
    negativity_volume,
    wigner_grid,
)
