"""Physical model: three coupled single-mode resonators, each holding a two-level atom.

The chain shares a single excitation among six modes, ordered as

    v = (s1, s2, s3, a1, a2, a3)

where s_n is the coherence amplitude of the atom in resonator n and a_n the
field amplitude of resonator n.  Amplitudes live in the rotating frame: the
lab-frame modes are the slow amplitudes times exp(-i*omega0*t), and omega0
never enters the dynamics.

The equations of motion are

    d/dt v = -i * M * v

with M real symmetric.  Sign convention fixed across the package: resonators
1 and 3 (and their atoms) are detuned by +delta and -delta respectively, so
the diagonal of M reads (delta, 0, -delta, delta, 0, -delta).  The
off-diagonal couplings are the atom-field constants f2, f1, f2 on sites
1, 2, 3 and the inter-resonator coupling g on the (a1,a2) and (a2,a3) bonds.

All quantities are expressed in units where the designed comb spacing is 1;
the corresponding revival time is 2*pi.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError

N_MODES = 6

_COUPLING_FIELDS = ("g", "f1", "f2")
_CONFIG_KEYS = ("g", "delta", "f1", "f2", "omega0")


@dataclass(frozen=True)
class SystemParams:
    """Model parameters.

    g      inter-resonator coupling (>= 0)
    delta  detuning of resonators 1 and 3 relative to resonator 2
    f1     atom-field coupling in resonator 2 (>= 0)
    f2     atom-field coupling in resonators 1 and 3 (>= 0)
    omega0 carrier frequency, bookkeeping only

    Couplings are constrained non-negative at the API boundary; a sign flip
    is a gauge transformation and is rejected rather than silently absorbed.
    """

    g: float
    delta: float
    f1: float
    f2: float
    omega0: float = 0.0

    def __post_init__(self):
        for name in ("g", "delta", "f1", "f2", "omega0"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                raise InvalidParameterError(f"{name} must be a finite real number, got {value!r}")
            object.__setattr__(self, name, float(value))
        for name in _COUPLING_FIELDS:
            if getattr(self, name) < 0.0:
                raise InvalidParameterError(f"coupling {name} must be non-negative, got {getattr(self, name)}")

    def replace(self, **changes) -> "SystemParams":
        return dataclasses.replace(self, **changes)


def build_coupling_matrix(params: SystemParams) -> np.ndarray:
    """Return the 6x6 real symmetric generator M of d/dt v = -i M v."""
    return _generator(params.g, params.delta, params.f1, params.f2)


# Flat positions in M of the entries _generator lists, then of their mirror images.
_UPPER = ((0, 0), (2, 2), (3, 3), (5, 5), (0, 3), (1, 4), (2, 5), (3, 4), (4, 5))
_POSITIONS = np.array([N_MODES * i + j for i, j in _UPPER] + [N_MODES * j + i for i, j in _UPPER])


def _generator(g, delta, f1, f2) -> np.ndarray:
    """M for floats, or the (n, 6, 6) stack of M for length-n parameter arrays."""
    upper = [
        delta, -delta, delta, -delta,  # detunings of sites 1 and 3, atoms then fields
        f2, f1, f2,                    # atom n <-> field n
        g, g,                          # field 1 <-> field 2 <-> field 3
    ]
    values = np.array(upper + upper)
    m = np.zeros(values.shape[1:] + (N_MODES * N_MODES,))
    m.T[_POSITIONS] = values
    return m.reshape(values.shape[1:] + (N_MODES, N_MODES))


def _first_invalid(g, delta, f1, f2) -> int:
    """Index of the first row of parameter arrays that SystemParams rejects, else their length."""
    columns = np.array([g, delta, f1, f2])
    bad = ~np.isfinite(columns).all(axis=0) | (columns[[0, 2, 3]] < 0.0).any(axis=0)
    return int(np.argmax(bad)) if bad.any() else len(bad)


def initial_state(excited_index: int) -> np.ndarray:
    """Unit state vector with the excitation in one mode.

    ``excited_index`` is 1-based in the ordering (s1, s2, s3, a1, a2, a3),
    so ``initial_state(2)`` puts the excitation on the second atom.
    """
    if not isinstance(excited_index, int) or isinstance(excited_index, bool):
        raise InvalidParameterError(f"excited_index must be an integer, got {excited_index!r}")
    if not 1 <= excited_index <= N_MODES:
        raise InvalidParameterError(f"excited_index must be in 1..{N_MODES}, got {excited_index}")
    v = np.zeros(N_MODES, dtype=complex)
    v[excited_index - 1] = 1.0
    return v


def spectral_mirror_operator() -> np.ndarray:
    """The involution S with S M S^-1 = -M for every parameter set.

    S combines the spatial mirror (site 1 <-> 3, field 1 <-> 3) with the
    alternating sign pattern diag(-1, 1, -1, 1, -1, 1).  Its existence forces
    the eigenvalue multiset of M to be symmetric about zero.
    """
    d = np.diag([-1.0, 1.0, -1.0, 1.0, -1.0, 1.0])
    p = np.zeros((N_MODES, N_MODES))
    for i, j in ((0, 2), (2, 0), (1, 1), (3, 5), (5, 3), (4, 4)):
        p[i, j] = 1.0
    return d @ p


def _fmt(x: float) -> str:  # every CSV number the package writes
    return format(x, ".12g")


def _csv(header: str, rows) -> str:
    return "\n".join([header, *(",".join(_fmt(x) for x in row) for row in rows)]) + "\n"


def params_to_config(params: SystemParams) -> str:
    """Serialize parameters to the flat ``key = value`` config format."""
    lines = [f"{key} = {getattr(params, key)!r}" for key in _CONFIG_KEYS]
    return "\n".join(lines) + "\n"


def params_from_config(text: str) -> SystemParams:
    """Parse the flat ``key = value`` config format.

    Keys g, delta, f1, f2 are required; omega0 is optional and defaults
    to 0.  Lines starting with ``#`` and blank lines are ignored.
    """
    values: dict[str, float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidParameterError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in values:
            raise InvalidParameterError(f"config line {lineno}: duplicate key {key!r}")
        try:
            values[key] = float(value.strip())
        except ValueError as exc:
            raise InvalidParameterError(f"config line {lineno}: bad number {value.strip()!r}") from exc
    return _params_from_values(values, "config")


def _params_from_values(values: dict, source: str) -> SystemParams:
    """Parameters from a mapping of the flat config keys; ``source`` names it in errors."""
    unknown = [key for key in values if key not in _CONFIG_KEYS]
    if unknown:
        raise InvalidParameterError(f"{source} has unknown keys: {', '.join(map(repr, unknown))}")
    missing = [key for key in ("g", "delta", "f1", "f2") if key not in values]
    if missing:
        raise InvalidParameterError(f"{source} missing required keys: {', '.join(missing)}")
    for key, value in values.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise InvalidParameterError(f"{source}: {key} must be a number, got {value!r}")
    return SystemParams(**values)
