"""Desk-scale toolkit for interface physics of the strong-coupling
Falicov-Kimball model: exact effective Hamiltonians from electronic traces,
the rhombus-tiling calculus of the 111 interface, contour decompositions with
the Dobrushin removal transformation, Metropolis sampling, and the numeric
constant chains behind the convergence bounds."""

__version__ = "0.1.0"

from .lattice import (
    SpinConfiguration,
    Volume,
    boundary_spin,
)
from .classical import (
    ModelCoefficients,
    bosonic_plaquette_potential,
    extract_contours,
    h2_relative_energy,
    h4_relative_energy,
    nnn_potential,
    peierls_check,
    plaquette_potential,
)
from .tiling import (
    Region,
    Tiling,
    config_from_heights,
    degeneracy_bounds_check,
    enumerate_tilings,
    hexagon_region,
    interface_to_tiling,
    r0_closure,
    random_tiling,
    tiling_from_heights,
    tiling_heights,
    tiling_to_interface,
)
from .rcontour import (
    Base,
    GeometricContour,
    RContour,
    decompose,
    decompose_tiling,
    dobrushin_remove,
    f_energy,
    geometric_class,
    minimal_rhombus_cover,
)
from .quantum import (
    CouplingTable,
    FKParameters,
    effective_energy,
    extract_couplings,
    verify_decay,
)
from .mc import (
    ObservableSeries,
    RunSpec,
    interface_width,
    layer_magnetization,
    mc_run,
)
from .bounds import (
    PolymerInputs,
    cj_sequence,
    decay_audit,
    find_b0,
    polymer_report,
)

__all__ = [name for name in dir() if not name.startswith("_")]
