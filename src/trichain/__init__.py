"""trichain: spectra, comb design and single-excitation dynamics of a chain of
three coupled resonators, each holding a resonant two-level atom.

The package is organized around four pure-function layers:

- :mod:`trichain.model`     parameters, state vectors, the symmetric generator
- :mod:`trichain.spectrum`  characteristic polynomial, eigenfrequencies,
                            degeneracy diagnostics, the central atom's
                            Laplace-domain response and its inverse
- :mod:`trichain.comb`      equidistant-comb design and energy programming
- :mod:`trichain.dynamics`  spectral/RK4 propagation, schedules, energies

plus :mod:`trichain.cli`, the ``trichain`` command-line front end.

``import trichain`` loads neither numpy nor :mod:`trichain.dynamics`: the
dynamics names resolve on first access (PEP 562), and every module imports
numpy inside the functions that make or take arrays.  One spectrum, one
comb, one half-period energy, its inversion and the energy-branch
identification (by the Laplace route) are computed with ``math`` and exact
integers, and ``sweep``, ``evolve`` and ``figures`` run the same kernels
point by point and sample by sample on floats, so no CLI command loads numpy.
"""

from .errors import (
    AccuracyError,
    BranchInfeasibleError,
    ConsistencyError,
    DegenerateSpectrumError,
    DomainError,
    InvalidParameterError,
    PoleError,
    ScheduleError,
    TrichainError,
)
from .model import (
    N_MODES,
    SystemParams,
    build_coupling_matrix,
    initial_state,
    params_from_config,
    params_to_config,
    spectral_mirror_operator,
)
from .spectrum import (
    DEFAULT_DEGENERACY_TOL,
    CharPoly,
    DegeneracyReport,
    Spectrum,
    SweepRow,
    char_poly,
    degeneracy_discriminant,
    eigenfrequencies,
    frequencies_from_charpoly,
    inverse_laplace_s2,
    nonequidistance_error,
    s2_response,
    sweep_rows_to_csv,
    sweep_spectrum,
    sweep_spectrum_values,
)
from .comb import (
    BRANCHES,
    QUBIT_COUPLING,
    QUTRIT_COUPLING,
    CombSolution,
    EnergyProgram,
    branch_constraint,
    comb_constraints,
    energy_at_pi,
    identify_energy_branch,
    scale_comb,
    solve_comb_params,
    solve_g_for_energy,
)

#: Names of :mod:`trichain.dynamics` that ``__getattr__`` resolves on first access.
_DYNAMICS = frozenset({
    "Schedule",
    "Segment",
    "Trajectory",
    "energies",
    "energies_to_csv",
    "evolve_rk4",
    "evolve_schedule",
    "evolve_spectral",
    "plateau_width",
    "propagator",
    "schedule_from_json",
})


def __getattr__(name):
    """Import :mod:`trichain.dynamics` on first use of one of its names, and
    bind the name here so later lookups are plain."""
    if name not in _DYNAMICS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import dynamics

    value = globals()[name] = getattr(dynamics, name)
    return value


def __dir__():
    return sorted({*globals(), *_DYNAMICS})

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "TrichainError",
    "InvalidParameterError",
    "DomainError",
    "BranchInfeasibleError",
    "DegenerateSpectrumError",
    "PoleError",
    "ConsistencyError",
    "AccuracyError",
    "ScheduleError",
    # model
    "N_MODES",
    "SystemParams",
    "build_coupling_matrix",
    "initial_state",
    "spectral_mirror_operator",
    "params_to_config",
    "params_from_config",
    # spectrum
    "DEFAULT_DEGENERACY_TOL",
    "CharPoly",
    "Spectrum",
    "DegeneracyReport",
    "SweepRow",
    "char_poly",
    "frequencies_from_charpoly",
    "eigenfrequencies",
    "nonequidistance_error",
    "degeneracy_discriminant",
    "s2_response",
    "inverse_laplace_s2",
    "sweep_spectrum",
    "sweep_spectrum_values",
    "sweep_rows_to_csv",
    # comb
    "BRANCHES",
    "QUBIT_COUPLING",
    "QUTRIT_COUPLING",
    "CombSolution",
    "EnergyProgram",
    "comb_constraints",
    "solve_comb_params",
    "branch_constraint",
    "energy_at_pi",
    "solve_g_for_energy",
    "scale_comb",
    "identify_energy_branch",
    # dynamics
    "Trajectory",
    "Schedule",
    "Segment",
    "evolve_spectral",
    "evolve_rk4",
    "evolve_schedule",
    "propagator",
    "schedule_from_json",
    "energies",
    "energies_to_csv",
    "plateau_width",
]
