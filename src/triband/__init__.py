"""Bands, bound states and point-interaction limits of the 1D pseudospin-one
Hamiltonian with a three-component rectangular potential."""

__version__ = "0.1.0"

from .bands import (
    BandTriple,
    FlatBandClass,
    SigmaCoefficients,
    band_eigenfunction,
    band_sweep,
    classify_flat,
    dispersion_bands,
)
from .boundstates import (
    ConnectionMatrix,
    Levels,
    WaveFunction,
    connection_matrix,
    current,
    discontinuities,
    eigenfunction,
    find_bound_states,
    general_bound_condition,
    split_residuals,
)
from .model import (
    DomainError,
    Geometry,
    PotentialConfig,
    k_squared,
    kappa,
)
from .oracle import oracle_bound_states
from .pointlimits import (
    PointInteraction,
    SqueezeLaw,
    convergence_study,
    limit_energy,
    limit_matrix,
    squeezed_eigenfunction,
)
from .spectra import (
    BranchedSpectrum,
    PencilSpec,
    SpectrumType,
    asymptotic_energy,
    classify,
    cutoff_values,
    sweep,
)
