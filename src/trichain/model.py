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

numpy is imported only where an array is made: ``_xp`` hands a kernel numpy
for an array and a namespace of the same names over ``math`` for a float, and
``_linspace`` makes numpy's uniform grid as floats, for the CLI's grids.
"""

from __future__ import annotations

import math
import numbers
import sys
from collections import namedtuple

from .errors import InvalidParameterError

TYPE_CHECKING = False  # true for static type checkers only: importing typing costs start-up
if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "N_MODES", "SystemParams", "build_coupling_matrix", "initial_state", "spectral_mirror_operator",
    "params_to_config", "params_from_config",
]

N_MODES = 6

_COUPLING_FIELDS = ("g", "f1", "f2")
_CONFIG_KEYS = ("g", "delta", "f1", "f2", "omega0")
_PHYSICAL_KEYS = _CONFIG_KEYS[:4]  # the keys a parameter set needs: all but the bookkeeping omega0

#: The mirror coordinates over the modes (see ``spectral_mirror_operator``):
#: x1 = s2, x2, x3 = (s1 - s3 +- (a1 + a3))/2; y1 = a2, y2, y3 = (s1 + s3 +- (a1 - a3))/2.
_MIRROR_BASIS = (
    (0.0, 1.0, 0.0, 0.0, 0.0, 0.0), (0.5, 0.0, -0.5, 0.5, 0.0, 0.5), (0.5, 0.0, -0.5, -0.5, 0.0, -0.5),
    (0.0, 0.0, 0.0, 0.0, 1.0, 0.0), (0.5, 0.0, 0.5, 0.5, 0.0, -0.5), (0.5, 0.0, 0.5, -0.5, 0.0, 0.5),
)


def _is_real(value) -> bool:
    """The package's one rule for a scalar input: a finite real number, not a bool.

    numpy's integer and floating scalars count (numpy registers them as
    ``numbers.Real``); a string, a complex number, NaN, +-inf and an integer
    beyond the float range do not.
    """
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int that no float can hold
        return False


def _real(name: str, value, error=InvalidParameterError, positive: bool = False) -> float:
    """``value`` as a float if it is a number by ``_is_real``, and > 0 where
    ``positive``; else ``error`` naming it: the one check of a number argument."""
    if _is_real(value) and (value > 0 or not positive):
        return float(value)
    raise error(f"{name} must be a {'positive ' if positive else ''}finite real number, got {value!r}")


def _is_array(value) -> bool:
    """Whether ``value`` is a numpy array, without importing numpy: none can
    exist before numpy is loaded."""
    numpy = sys.modules.get("numpy")
    return numpy is not None and isinstance(value, numpy.ndarray)


def _checked_array(values, dtype, error: str) -> np.ndarray:
    """``values`` as a new numpy array of ``dtype``, float or complex, whose
    elements are numbers by ``_is_real``, or for complex have real and
    imaginary parts that are; the first that is not raises
    InvalidParameterError with the text ``error``.  A numpy array of such a
    dtype needs no check of its elements' type, but may hold NaN or inf.
    The shape is the caller's to check."""
    import numpy as np

    if _is_array(values) and values.dtype.kind in ("fiu" if dtype is float else "fiuc"):
        return np.array(values, dtype=dtype)
    items = np.array(values, dtype=object)
    for item in items.flat:
        complex_item = dtype is complex and isinstance(item, numbers.Complex) and not isinstance(item, bool)
        if not all(map(_is_real, (item.real, item.imag) if complex_item else (item,))):
            raise InvalidParameterError(f"{error}, got {item!r}")
    return items.astype(dtype)


class _FloatNamespace:
    """The numpy names the kernels use, on Python floats (see ``_xp``).

    ``where`` evaluates both arms, so a kernel guards what an arm would divide
    by.  ``maximum`` and ``minimum`` give NaN where either value is NaN, and
    the second value on a tie, as numpy does.  Python float arithmetic gives
    inf and NaN without a warning, so ``errstate`` does nothing.
    """

    nan = math.nan
    sqrt, sin, cos, frexp, ldexp, copysign = math.sqrt, math.sin, math.cos, math.frexp, math.ldexp, math.copysign
    any = all = bool

    def where(condition, a, b):
        return a if condition else b

    def maximum(a, b):
        return a if a > b or a != a else b

    def minimum(a, b):
        return a if a < b or a != a else b

    class errstate:
        def __init__(self, **_):
            pass

        def __exit__(self, *_):
            pass

        __enter__ = __exit__


def _xp(x):
    """numpy for a numpy array, else ``_FloatNamespace``: the namespace a
    kernel computes with, so that one body serves a point and a grid, and
    both take the same operations in the same order."""
    return sys.modules["numpy"] if _is_array(x) else _FloatNamespace


def _tolist(x) -> list:
    """A kernel's output as Python numbers: an array's elements, or a float in a list of one."""
    return x.tolist() if _is_array(x) else [x]


def _linspace(lo: float, hi: float, n: int) -> list[float]:
    """``numpy.linspace(lo, hi, n).tolist()`` for n >= 2, bit for bit, without
    numpy: point i is i * step + lo, or i / (n - 1) * (hi - lo) + lo where the
    step is 0 (a subnormal width), and the last point is hi."""
    width = hi - lo
    step = width / (n - 1)
    points = [i * step + lo for i in range(n)] if step != 0.0 else [i / (n - 1) * width + lo for i in range(n)]
    points[-1] = hi
    return points


class _CheckedRecord:
    """Base of the named-tuple records that check their fields in ``__new__``.

    A plain named tuple's ``_make`` and ``_replace`` build the tuple without
    calling ``__new__``; here both go through it, so no copy skips the checks.
    Unpickling calls ``__new__`` too.
    """

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def _replace(self, /, **changes):
        return type(self)(**{**self._asdict(), **changes})


class SystemParams(_CheckedRecord, namedtuple("SystemParams", _CONFIG_KEYS, defaults=(0.0,))):
    """Model parameters, an immutable named tuple.

    g      inter-resonator coupling (>= 0)
    delta  detuning of resonators 1 and 3 relative to resonator 2
    f1     atom-field coupling in resonator 2 (>= 0)
    f2     atom-field coupling in resonators 1 and 3 (>= 0)
    omega0 carrier frequency, bookkeeping only

    Couplings are constrained non-negative at the API boundary; a sign flip
    is a gauge transformation and is rejected rather than silently absorbed.
    """

    __slots__ = ()

    def __new__(cls, g, delta, f1, f2, omega0=0.0):
        return tuple.__new__(cls, cls.__post_init__(g, delta, f1, f2, omega0))

    @staticmethod
    def __post_init__(*values) -> list[float]:
        """The field values as checked floats, in field order.

        ``__new__`` looks this hook up on the class at every construction, so
        wrapping it (as ``bench/tracer.py`` does) sees every parameter set built.
        """
        floats = [_real(name, value) for name, value in zip(_CONFIG_KEYS, values)]
        for name, value in zip(_CONFIG_KEYS, floats):
            if name in _COUPLING_FIELDS and value < 0.0:
                raise InvalidParameterError(f"coupling {name} must be non-negative, got {value}")
        return floats

    replace = _CheckedRecord._replace


def _check_params(params) -> None:
    """Refuse anything but a SystemParams: the fields of another tuple are unchecked."""
    if not isinstance(params, SystemParams):
        raise InvalidParameterError(f"params must be a SystemParams, got {params!r}")


def build_coupling_matrix(params: SystemParams) -> np.ndarray:
    """Return the 6x6 real symmetric generator M of d/dt v = -i M v."""
    import numpy as np

    g, delta, f1, f2 = params.g, params.delta, params.f1, params.f2
    return np.array([
        # s1    s2   s3      a1     a2   a3
        [delta, 0.0, 0.0,    f2,    0.0, 0.0],
        [0.0,   0.0, 0.0,    0.0,   f1,  0.0],
        [0.0,   0.0, -delta, 0.0,   0.0, f2],
        [f2,    0.0, 0.0,    delta, g,   0.0],
        [0.0,   f1,  0.0,    g,     0.0, g],
        [0.0,   0.0, f2,     0.0,   g,   -delta],
    ])


def _checked_rows(columns, n: int) -> np.ndarray:
    """The columns (g, delta, f1, f2), each a scalar or n long, as a new 4 x n float array by
    the rule of SystemParams: the first point it refuses raises.  Number arrays skip type checks."""
    import numpy as np

    rows = np.empty((4, n))
    for row, c in zip(rows, columns):
        if isinstance(c, float) or _is_array(c) and c.dtype.kind in "fiu":
            row[...] = c
        else:  # NaN for what is no number
            row[...] = [x if type(x) is float else float(x) if _is_real(x) else math.nan
                        for x in np.array(c, dtype=object).flat]
    bad = ~np.isfinite(rows).all(axis=0) | (rows[[0, 2, 3]] < 0.0).any(axis=0)
    if bad.any():
        SystemParams(*(np.broadcast_to(np.array(c, dtype=object), n).tolist()[np.argmax(bad)] for c in columns))
    return rows


def _times_array(times) -> np.ndarray:
    """``times`` as a new float array, checked to be a non-empty 1-d sequence
    of finite real numbers: the package's one rule for sample times."""
    import numpy as np

    t = _checked_array(times, float, "times must be finite real numbers")
    if t.ndim != 1 or t.size == 0:
        raise InvalidParameterError("times must be a non-empty 1-d sequence")
    if not np.all(np.isfinite(t)):
        raise InvalidParameterError("times must be finite")
    return t


def initial_state(excited_index: int) -> np.ndarray:
    """Unit state vector with the excitation in one mode.

    ``excited_index`` is 1-based in the ordering (s1, s2, s3, a1, a2, a3),
    so ``initial_state(2)`` puts the excitation on the second atom.
    """
    import numpy as np

    return np.array(_unit_state(excited_index)[:N_MODES], dtype=complex)


def _unit_state(excited_index: int) -> list[float]:
    """``initial_state(excited_index)`` as twelve floats: the real parts of
    its amplitudes and then their imaginary parts."""
    if not isinstance(excited_index, int) or isinstance(excited_index, bool):
        raise InvalidParameterError(f"excited_index must be an integer, got {excited_index!r}")
    if not 1 <= excited_index <= N_MODES:
        raise InvalidParameterError(f"excited_index must be in 1..{N_MODES}, got {excited_index}")
    return [float(mode == excited_index - 1) for mode in range(N_MODES)] + [0.0] * N_MODES


def spectral_mirror_operator() -> np.ndarray:
    """The involution S with S M S^-1 = -M for every parameter set.

    S combines the spatial mirror (site 1 <-> 3, field 1 <-> 3) with the
    alternating sign pattern diag(-1, 1, -1, 1, -1, 1).  In its eigenbasis
    ``_MIRROR_BASIS``, rows x1..x3 (+1) and y1..y3 (-1), M is
    [[0, T], [T^T, 0]] with the T of ``spectrum``, so the spectrum of M is
    +-sigma(T).  S = X^T X - Y^T Y exactly, all entries being 0, +-1/2 or 1.
    """
    import numpy as np

    q = np.array(_MIRROR_BASIS)
    return q.T @ (q * [[1.0], [1.0], [1.0], [-1.0], [-1.0], [-1.0]])


#: Every CSV number the package writes.  ``"%.12g" % x`` and ``format(x, ".12g")``
#: make the same C call, so either spelling gives the same bytes.  Its array
#: form, for the columns of a sweep table, is ``_columns._num_frames``.
_NUM = "%.12g"


def _csv(header: str, rows) -> str:
    """Numeric CSV, one template per row as wide as the header."""
    template = ",".join([_NUM] * (header.count(",") + 1))
    return "\n".join([header, *(template % tuple(row) for row in rows)]) + "\n"


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
    missing = [key for key in _PHYSICAL_KEYS if key not in values]
    if missing:
        raise InvalidParameterError(f"{source} missing required keys: {', '.join(missing)}")
    try:
        return SystemParams(**values)
    except InvalidParameterError as exc:
        raise InvalidParameterError(f"{source}: {exc}") from None
