"""Time evolution of the single-excitation state.

Two independent propagation routes are provided on purpose: the spectral
propagator, the Jacobi kernel of ``eigenfrequencies`` in the mirror basis, and
a fixed-step RK4 integrator that never touches the decomposition.  Their
agreement is a standing cross-check on both.

Piecewise-constant control of the inter-resonator coupling g is modelled as
an instantaneous quench: the state is continuous across segment boundaries
while the generator jumps.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple

import numpy as np

from .errors import (
    AccuracyError,
    DomainError,
    InvalidParameterError,
    ScheduleError,
)
from .model import (
    _MIRROR_BASIS,
    N_MODES,
    SystemParams,
    _CheckedRecord,
    _csv,
    _is_real,
    _params_from_values,
    _times_array,
    build_coupling_matrix,
)
from .spectrum import _check_gaps, _jacobi

_STATE_NORM_TOL = 1e-8
_BOUNDARY_TOL = 1e-9

_ENERGY_CSV_HEADER = "t,E_s1,E_s2,E_s3,E_a1,E_a2,E_a3"
_CENTRAL_ENERGY_CSV_HEADER = "t,E_x2_qubit,E_x2_qutrit"

_BASIS = np.array(_MIRROR_BASIS)


class Trajectory(_CheckedRecord, namedtuple("Trajectory", ("times", "states"))):
    """Sampled evolution: ``states[k]`` is the state vector at ``times[k]``.

    An immutable named tuple of two arrays, which it makes read-only where it
    owns their data.
    """

    __slots__ = ()

    def __new__(cls, times: np.ndarray, states: np.ndarray):
        if times.ndim != 1 or states.shape != (times.size, N_MODES):
            raise InvalidParameterError(f"trajectory shape mismatch: times {times.shape}, states {states.shape}")
        for array in (times, states):
            if array.flags.owndata:
                array.setflags(write=False)
        return tuple.__new__(cls, (times, states))

    def norms(self) -> np.ndarray:
        return np.linalg.norm(self.states, axis=1)


def _check_state(v0) -> np.ndarray:
    v = np.array(v0, dtype=complex)
    if v.shape != (N_MODES,):
        raise InvalidParameterError(f"state must have shape ({N_MODES},), got {v.shape}")
    if not np.all(np.isfinite(v.view(float))):
        raise InvalidParameterError("state contains non-finite amplitudes")
    norm = float(np.linalg.norm(v))
    if abs(norm - 1.0) > _STATE_NORM_TOL:
        raise InvalidParameterError(f"state norm {norm} deviates from 1 beyond {_STATE_NORM_TOL}")
    return v


def _check_times(times) -> np.ndarray:
    t = _times_array(times)
    if np.any(np.diff(t) < 0.0):
        raise InvalidParameterError("times must be ascending")
    return t


def _mirror_svd(g, delta, f1, f2, omega0=0.0):
    """(e, sigma, U, V): T / 2^e = U diag(sigma) V^T, U = W / sigma from the sweep, of a
    point or a batch of arrays; row k of U and V is their column k in the modes.  Checked
    as in ``eigenfrequencies``, but for an infinite frequency, which ``_flow`` refuses."""
    vectors = [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)]  # V, before the sweep rotates it
    freqs, e, columns, sigma = _jacobi(g, delta, f1, f2, vectors)
    if np.all(freqs[5] != math.inf):
        _check_gaps(freqs, (g, delta, f1, f2), omega0)
    sigma = np.array(sigma).T
    w, v = np.empty((2, *sigma.shape, 3))
    for k in range(3):
        for r in range(3):
            w[..., k, r], v[..., k, r] = columns[k][r], vectors[k][r]
    return e, sigma, (w / np.where(sigma > 0.0, sigma, 1.0)[..., None]) @ _BASIS[:3], v @ _BASIS[3:]


def _flow(svd, v0, t) -> np.ndarray:
    """exp(-i M t) v0 for the 1-d ``t`` and a state, or rows of states, ``v0``.  With
    W = U sigma and s, c = sin, cos(sigma t / 2) in units of T / 2^e, the sinc form in the
    mirror basis reads x(t) = x0 - U (2 s^2 * U^T x0) - i U (2 s c * V^T y0) and y(t) =
    y0 - V (2 s^2 * V^T y0) - i V (2 s c * U^T x0): one real product of (s^2, s c, 1) with
    a 7x6 matrix, with no division, no cancellation, and bitwise scale covariance."""
    e, sigma, u, v = svd
    w_max, t_max = 4.0 * math.ldexp(float(sigma.max()), int(e) - 2), float(np.abs(t).max())  # inf, not an error
    if not math.isfinite(w_max * t_max):
        raise DomainError(f"phases w*t overflow: max|w| = {w_max:.6g} times max|t| = {t_max:.6g} is not finite")
    half = np.ldexp(np.multiply.outer(0.5 * sigma, t), e)
    s, c = np.sin(half), np.cos(half)
    terms = np.concatenate((s * s, s * c, np.ones((1, t.size))))
    a, b = (v0 @ u.T)[..., None], (v0 @ v.T)[..., None]  # U^T x0, V^T y0
    k = np.concatenate((-2.0 * (a * u + b * v), -2j * (b * u + a * v), v0[..., None, :]), axis=-2)
    return (terms.T @ k.view(float)).view(complex)


def evolve_spectral(params: SystemParams, v0, times) -> Trajectory:
    """Propagate by the singular value decomposition of T from the kernel of ``eigenfrequencies``
    (see ``_flow``): unitary to rounding at degeneracies too, as U and V stay orthonormal."""
    v = _check_state(v0)
    t = _check_times(times)
    return Trajectory(times=t, states=_flow(_mirror_svd(*params), v, t))


def propagator(params: SystemParams, t: float) -> np.ndarray:
    """The unitary U(t) = exp(-i M t) as a dense 6x6 matrix: each unit state's flow."""
    if not _is_real(t):
        raise InvalidParameterError(f"t must be a finite real number, got {t!r}")
    return _flow(_mirror_svd(*params), np.eye(N_MODES), np.array([float(t)]))[:, 0].T


def evolve_rk4(
    params: SystemParams,
    v0,
    dt: float = 1e-2,
    t_end: float = 2.0 * math.pi,
    norm_tol: float = 1e-6,
) -> Trajectory:
    """Classic fixed-step RK4 integration of d/dt v = -i M v.

    Independent of the spectral route: only the matrix-vector product is
    used.  The trajectory is sampled at every step and lands exactly on
    ``t_end`` (a shorter final step is taken if needed).  If the resulting
    norm drift exceeds ``norm_tol`` the step was too large for the spectral
    radius and AccuracyError is raised.  ``dt``, ``t_end`` and ``norm_tol``
    must be positive real numbers, else InvalidParameterError is raised.
    """
    v = _check_state(v0)
    for name, value in (("dt", dt), ("t_end", t_end), ("norm_tol", norm_tol)):
        if not _is_real(value) or value <= 0.0:
            raise InvalidParameterError(f"{name} must be a positive real number, got {value!r}")
    a = -1j * build_coupling_matrix(params)

    def step(state: np.ndarray, h: float) -> np.ndarray:
        k1 = a @ state
        k2 = a @ (state + 0.5 * h * k1)
        k3 = a @ (state + 0.5 * h * k2)
        k4 = a @ (state + h * k3)
        return state + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    n_full = int(math.floor(t_end / dt + 1e-12))
    remainder = t_end - n_full * dt
    times = [0.0]
    states = [v]
    for k in range(n_full):
        v = step(v, dt)
        times.append((k + 1) * dt)
        states.append(v)
    if remainder > 1e-12:
        v = step(v, remainder)
        times.append(t_end)
        states.append(v)
    else:
        times[-1] = t_end
    trajectory = Trajectory(times=np.array(times), states=np.array(states))
    drift = float(np.max(np.abs(trajectory.norms() - 1.0)))
    if drift > norm_tol:
        raise AccuracyError(
            f"norm drift {drift:.3e} exceeds {norm_tol:.1e}; reduce dt={dt} for this spectral radius"
        )
    return trajectory


class Segment(namedtuple("Segment", ("t_start", "t_end", "g"))):
    """One piece of a piecewise-constant coupling schedule, an immutable named
    tuple; ``Schedule`` checks it."""

    __slots__ = ()


class Schedule(_CheckedRecord, namedtuple("Schedule", ("segments", "base"))):
    """Ordered, contiguous g(t) segments over a fixed base parameter set; an
    immutable named tuple.

    Only g is scheduled; delta, f1, f2 come from ``base``, a ``SystemParams``,
    and are held fixed.  Segment times and couplings must be finite real
    numbers, not bools or strings; they are stored as floats, in a tuple of
    ``Segment``.
    """

    __slots__ = ()

    def __new__(cls, segments, base: SystemParams):
        if not isinstance(base, SystemParams):
            raise ScheduleError(f"schedule base must be a SystemParams, got {base!r}")
        if not segments:
            raise ScheduleError("schedule needs at least one segment")
        previous_end = None
        for seg in segments:
            if not all(map(_is_real, (seg.t_start, seg.t_end, seg.g))):
                raise ScheduleError(f"segment times and coupling must be finite real numbers: {seg}")
            if seg.t_end <= seg.t_start:
                raise ScheduleError(f"segment must have t_end > t_start: {seg}")
            if seg.g < 0.0:
                raise ScheduleError(f"segment coupling must be >= 0: {seg}")
            if previous_end is not None and abs(seg.t_start - previous_end) > _BOUNDARY_TOL:
                raise ScheduleError(
                    f"segments must be contiguous: gap/overlap between t={previous_end} and {seg}"
                )
            previous_end = seg.t_end
        # as floats, as SystemParams stores its values
        segments = tuple(Segment(float(s.t_start), float(s.t_end), float(s.g)) for s in segments)
        return tuple.__new__(cls, (segments, base))

    @property
    def t_start(self) -> float:
        return self.segments[0].t_start

    @property
    def t_end(self) -> float:
        return self.segments[-1].t_end


def schedule_from_json(text: str, base: SystemParams | None = None) -> Schedule:
    """Load a schedule from JSON.

    Accepts either an object {"base": {...}, "segments": [...]} or a bare
    segments array (then ``base`` must be supplied).  Each segment is an
    object {"t_start": ..., "t_end": ..., "g": ...}; the base object uses the
    flat parameter keys g, delta, f1, f2 and optional omega0.  Every value
    must be a JSON number: ``true`` and ``"0.5"`` are refused, as in the base.
    """
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:  # RecursionError: nested too deep to parse
        raise ScheduleError(f"schedule is not valid JSON: {exc}") from exc
    if isinstance(data, dict):
        raw_segments = data.get("segments")
        if raw_segments is None:
            raise ScheduleError("schedule JSON object must contain a 'segments' array")
        if "base" in data:
            if not isinstance(data["base"], dict):
                raise ScheduleError("schedule 'base' must be an object of parameters")
            base = _params_from_values(data["base"], "schedule base")
    elif isinstance(data, list):
        raw_segments = data
    else:
        raise ScheduleError("schedule JSON must be an object or an array of segments")
    if base is None:
        raise ScheduleError("schedule has no base parameters (none embedded, none supplied)")
    try:
        segments = tuple(Segment(t_start=s["t_start"], t_end=s["t_end"], g=s["g"]) for s in raw_segments)
    except (KeyError, TypeError) as exc:
        raise ScheduleError(f"malformed segment entry: {exc}") from exc
    return Schedule(segments=segments, base=base)


def evolve_schedule(schedule: Schedule, v0, times) -> Trajectory:
    """Spectral propagation under a piecewise-constant coupling.

    Within each segment the propagation is exact; across boundaries the state
    is continuous (instantaneous quench).  ``v0`` is the state at the
    schedule start, and the schedule must cover [start, max(times)].
    """
    v = _check_state(v0)
    t = _check_times(times)
    if t[0] < schedule.t_start - _BOUNDARY_TOL or t[-1] > schedule.t_end + _BOUNDARY_TOL:
        raise ScheduleError(
            f"schedule covers [{schedule.t_start}, {schedule.t_end}] "
            f"but times span [{t[0]}, {t[-1]}]"
        )
    svd = _mirror_svd(np.array([seg.g for seg in schedule.segments]), *schedule.base[1:])
    states = np.empty((t.size, N_MODES), dtype=complex)
    cursor = 0
    segment_state = v
    for index, seg in enumerate(schedule.segments):
        if index == len(schedule.segments) - 1:
            stop = int(np.searchsorted(t, seg.t_end + _BOUNDARY_TOL, side="right"))
        else:
            stop = max(cursor, int(np.searchsorted(t, seg.t_end, side="left")))
        # the extra last row carries the state across the quench boundary
        local = np.append(t[cursor:stop], seg.t_end) - seg.t_start
        flowed = _flow([part[index] for part in svd], segment_state, local)
        states[cursor:stop], segment_state = flowed[:-1], flowed[-1]
        cursor = stop
    return Trajectory(times=t, states=states)


def energies(trajectory: Trajectory) -> np.ndarray:
    """Per-mode energies: columns (t, E_s1, E_s2, E_s3, E_a1, E_a2, E_a3)."""
    table = np.empty((trajectory.times.size, 1 + N_MODES))
    table[:, 0] = trajectory.times
    table[:, 1:] = np.abs(trajectory.states) ** 2
    return table


def energies_to_csv(trajectory: Trajectory) -> str:
    return _csv(_ENERGY_CSV_HEADER, energies(trajectory).tolist())


def _energies_to_json_dict(trajectory: Trajectory) -> dict:
    """The object ``trichain evolve --format json`` writes: the times, and the
    energies keyed by their ``energies_to_csv`` column names."""
    times, *columns = energies(trajectory).T.tolist()
    return {"times": times, "energies": dict(zip(_ENERGY_CSV_HEADER.split(",")[1:], columns))}


def _central_energies_to_csv(qubit: Trajectory, qutrit: Trajectory) -> str:
    """The table ``trichain figures`` writes as fig5.csv: the central atom's
    energy over the common times of a qubit and a qutrit run."""
    columns = [np.abs(trajectory.states[:, 1]) ** 2 for trajectory in (qubit, qutrit)]
    return _csv(_CENTRAL_ENERGY_CSV_HEADER, np.column_stack([qubit.times, *columns]).tolist())


def plateau_width(trajectory: Trajectory, center: float, threshold: float) -> float:
    """Width of the contiguous window around ``center`` with E_s2 <= threshold.

    A sampling-based diagnostic for the flat-bottomed transfer window: the
    trajectory should be sampled densely (>= 100 points per unit time) around
    the center for the width to be meaningful.
    """
    for name, value in (("center", center), ("threshold", threshold)):
        if not _is_real(value):
            raise DomainError(f"{name} must be a finite real number, got {value!r}")
    t = trajectory.times
    if center < t[0] or center > t[-1]:
        raise DomainError(f"center {center} outside trajectory window [{t[0]}, {t[-1]}]")
    e2 = np.abs(trajectory.states[:, 1]) ** 2
    idx = int(np.argmin(np.abs(t - center)))
    if e2[idx] > threshold:
        return 0.0
    lo = idx
    while lo > 0 and e2[lo - 1] <= threshold:
        lo -= 1
    hi = idx
    while hi < t.size - 1 and e2[hi + 1] <= threshold:
        hi += 1
    return float(t[hi] - t[lo])
