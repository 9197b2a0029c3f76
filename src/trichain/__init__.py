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

# Each star import also binds its submodule here, whose __all__ the package's extends.
from .errors import *
from .model import *
from .spectrum import *
from .comb import *

#: Names of :mod:`trichain.dynamics` that ``__getattr__`` resolves on first access, in ``__all__`` order.
_DYNAMICS = (
    "Trajectory", "Schedule", "Segment", "evolve_spectral", "evolve_rk4", "evolve_schedule", "propagator",
    "schedule_from_json", "energies", "energies_to_csv",
)


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

__all__ = ["__version__", *errors.__all__, *model.__all__, *spectrum.__all__, *comb.__all__, *_DYNAMICS]
