"""Entanglement of disjoint intervals in a biased free-fermion steady state.

A voltage-driven tight-binding chain with a central scatterer keeps two
intervals on opposite sides of it volume-law entangled whenever their
mirror images overlap.  This package computes the exact measures (Renyi and
von Neumann mutual information, coherent information, fermionic negativity)
from steady-state correlation matrices, evaluates the closed-form
asymptotics they converge to, and ships an experiment runner that overlays
the two with a single fitted constant.
"""

from .scattering import (
    BiasState,
    ConstantTransmission,
    DomainError,
    ScatteringModel,
    SingleImpurity,
    SMatrix,
    TrivialScatterer,
    reflection,
    s_matrix,
    transmission,
    wavefunction,
)
from .correlation import (
    CorrelationBuilder,
    CorrelationMatrix,
    SubsystemGeometry,
    correlation_matrix_far,
    correlation_matrix_finite,
)
from .entanglement import (
    EntanglementReport,
    Partition,
    block_spectra,
    entropy,
    fermionic_negativity,
    measures,
    partition,
    report_from_spectra,
)
from .asymptotics import (
    AsymptoticPrediction,
    ci_prediction,
    contiguous_entropy_prediction,
    disjoint_symmetric_log_coefficient,
    mi_prediction,
    negativity_prediction,
    volume_coefficient_entropy,
    volume_coefficient_mi,
)
from .numerics import (
    NonConvergence,
    NotHermitian,
    QuadratureSpec,
    integrate,
    integrate_oscillatory,
)

__version__ = "0.1.0"
