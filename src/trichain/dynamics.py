"""Time evolution of the single-excitation state.

Two independent propagation routes are provided on purpose: the spectral
propagator, the Jacobi kernel of ``eigenfrequencies`` in the mirror basis, and
a fixed-step RK4 integrator that never touches the decomposition.  Their
agreement is a standing cross-check on both.

Piecewise-constant control of the inter-resonator coupling g is modelled as
an instantaneous quench: the state is continuous across segment boundaries
while the generator jumps.

The spectral flow is one formula in real arithmetic (``_flow``), so a sample
on floats gets the bits of a time array: the CLI builds its rows one sample at
a time without numpy, which only the functions that make arrays import.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left, bisect_right
from collections import namedtuple
from itertools import chain
from operator import mul

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
    _check_params,
    _checked_array,
    _csv,
    _is_real,
    _params_from_values,
    _real,
    _times_array,
    _xp,
    build_coupling_matrix,
)
from .spectrum import _check_phase_range, _jacobi

TYPE_CHECKING = False  # true for static type checkers only: importing typing costs start-up
if TYPE_CHECKING:
    import numpy as np

_STATE_NORM_TOL = 1e-8
_BOUNDARY_TOL = 1e-9

_ENERGY_CSV_HEADER = "t,E_s1,E_s2,E_s3,E_a1,E_a2,E_a3"
_CENTRAL_ENERGY_CSV_HEADER = "t,E_x2_qubit,E_x2_qutrit"


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
        import numpy as np

        return np.linalg.norm(self.states, axis=1)


def _check_state(v0) -> np.ndarray:
    import numpy as np

    v = _checked_array(v0, complex, "state amplitudes must be finite numbers")
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
    if (t[1:] < t[:-1]).any():
        raise InvalidParameterError("times must be ascending")
    return t


def _mirror_svd(g, delta, f1, f2):
    """(e, sigma, U, V) of one point, as floats: T / 2^e = U diag(sigma) V^T, with U = W / sigma
    from the sweep; row k of U and V is their column k in the modes, a list of six."""
    vectors = [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)]  # V, before the sweep rotates it
    _, e, columns, sigma = _jacobi(g, delta, f1, f2, vectors)
    u = [_in_modes([x / (s if s > 0.0 else 1.0) for x in w], _MIRROR_BASIS[:3]) for w, s in zip(columns, sigma)]
    return e, sigma, u, [_in_modes(column, _MIRROR_BASIS[3:]) for column in vectors]


def _in_modes(coordinates, basis):
    a, b, c = coordinates
    return [a * x + b * y + c * z for x, y, z in zip(*basis)]


def _flow(svd, v0, t_max):
    """exp(-i M t) v0 for |t| <= ``t_max`` as ``_at`` evaluates it, (e, sigma, v0, pairs, columns),
    for ``v0`` the twelve parts of a state as floats: the real parts of its amplitudes,
    then their imaginary parts.  With W = U sigma, the sinc form in the mirror basis
    reads x(t) = x0 - U (2 s^2 * U^T x0) - i U (2 s c * V^T y0) and y(t) = y0 - V (2 s^2
    * V^T y0) - i V (2 s c * U^T x0) (see ``_terms``), so part m is v0[m] plus each term j
    times a fixed coefficient, columns[m][j]; pairs[m] lists the (j, coefficient) that are not 0."""
    _check_phases(svd, t_max)
    e, sigma, u, v = svd
    rows = [[], [], [], [], [], []]
    for k, (uk, vk) in enumerate(zip(u, v)):  # a = U^T x0 and b = V^T y0, their real and imaginary parts
        ar, ai, br, bi = (sum(map(mul, part, w)) for w in (uk, vk) for part in (v0[:N_MODES], v0[N_MODES:]))
        rows[k] = [-2.0 * (p * x + q * y) for p, q in ((ar, br), (ai, bi)) for x, y in zip(uk, vk)]
        rows[3 + k] = [sign * (p * x + q * y) for sign, p, q in ((2.0, bi, ai), (-2.0, br, ar)) for x, y in zip(uk, vk)]
    columns = list(zip(*rows))
    return e, sigma, v0, [[(j, c) for j, c in enumerate(column) if c] for column in columns], columns


def _at(flow, t) -> list:
    """The twelve parts of a ``_flow`` at t, floats for a float t, arrays for an array (whose samples may
    have flows of their own, as fields of arrays): each adds its terms in one order, so both give the same bits."""
    e, sigma, parts, pairs = flow[:4]
    terms = _terms(e, sigma, t)
    out = []
    for x, part_pairs in zip(parts, pairs):
        for j, c in part_pairs:
            x = x + terms[j] * c
        out.append(x)
    return out


def _check_phases(svd, t_max) -> None:
    e, sigma, _, _ = svd
    _check_phase_range(4.0 * math.ldexp(max(sigma), e - 2), float(t_max))  # a w beyond the float range is inf here


def _terms(e, sigma, t):
    """(s_1^2, s_2^2, s_3^2, s_1 c_1, s_2 c_2, s_3 c_3) at t, a float or an array,
    where s_k, c_k = sin, cos(sigma_k t / 2) in units of T / 2^e."""
    xp = _xp(t)
    sc = [(xp.sin(h), xp.cos(h)) for h in (xp.ldexp(0.5 * s * t, e) for s in sigma)]
    return [s * s for s, _ in sc] + [s * c for s, c in sc]


def _parts(v) -> list[float]:
    """A state array as its twelve parts (see ``_flow``)."""
    return [*v.real.tolist(), *v.imag.tolist()]


def _states(t, parts) -> np.ndarray:
    """Rows of states at the times t from twelve parts, arrays over t or floats."""
    import numpy as np

    parts = np.broadcast_arrays(t, *parts)[1:]
    states = np.empty((t.size, N_MODES), dtype=complex)
    states.real, states.imag = np.transpose(parts[:N_MODES]), np.transpose(parts[N_MODES:])
    return states


def evolve_spectral(params: SystemParams, v0, times) -> Trajectory:
    """Propagate by the singular value decomposition of T from the kernel of ``eigenfrequencies``
    (see ``_flow``): unitary to rounding at degeneracies too, as U and V stay orthonormal."""
    _check_params(params)
    v = _check_state(v0)
    t = _check_times(times)
    return Trajectory(times=t, states=_states(t, _evolve(params, _parts(v), t)))


def propagator(params: SystemParams, t: float) -> np.ndarray:
    """The unitary U(t) = exp(-i M t) as a dense 6x6 matrix: the terms of ``_flow``
    for every unit state at once, 1 - 2 (U^T S U + V^T S V) - 2i (U^T C V + V^T C U)
    with S and C the diagonals of its s^2 and s c terms."""
    import numpy as np

    _check_params(params)
    t = _real("t", t)
    e, sigma, u, v = svd = _mirror_svd(*params[:4])
    _check_phases(svd, abs(t))
    terms = np.array(_terms(e, sigma, t))[:, None]
    u, v = np.array(u), np.array(v)
    cross = u.T @ (terms[3:] * v)
    return np.eye(N_MODES) - 2.0 * (u.T @ (terms[:3] * u) + v.T @ (terms[:3] * v)) - 2j * (cross + cross.T)


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
    import numpy as np

    _check_params(params)
    v = _check_state(v0)
    dt = _real("dt", dt, positive=True)
    t_end = _real("t_end", t_end, positive=True)
    norm_tol = _real("norm_tol", norm_tol, positive=True)
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

    Every segment is decomposed and checked as in ``eigenfrequencies`` before
    any is propagated.  Within each the propagation is exact; across boundaries
    the state is continuous (instantaneous quench).  ``v0`` is the state at the
    schedule start, and the schedule must cover [start, max(times)].
    """
    if not isinstance(schedule, Schedule):
        raise ScheduleError(f"schedule must be a Schedule, got {schedule!r}")
    v = _check_state(v0)
    t = _check_times(times)
    return Trajectory(times=t, states=_states(t, _evolve(schedule, _parts(v), t)))


def _evolve(system, v0, t) -> list:
    """The twelve parts (see ``_flow``) of the state from ``v0`` at the ascending times ``t`` under a
    SystemParams or a Schedule, whose segments are each decomposed on floats before the first flow:
    arrays over an array t, evaluated at once, or per sample, without numpy, for a list of floats."""
    batched = not isinstance(t, list)
    if not isinstance(system, Schedule):
        flow = _flow(_mirror_svd(*system[:4]), v0, max(abs(t[0]), abs(t[-1])))
        return _at(flow, t) if batched else [_at(flow, x) for x in t]
    if t[0] < system.t_start - _BOUNDARY_TOL or t[-1] > system.t_end + _BOUNDARY_TOL:
        raise ScheduleError(f"schedule covers [{system.t_start}, {system.t_end}] but times span [{t[0]}, {t[-1]}]")
    svds = [_mirror_svd(seg.g, *system.base[1:4]) for seg in system.segments]
    flows, a, state = [], 0, v0  # each segment's flow serves t[a:b], in the local time t - t_start
    for index, (seg, svd) in enumerate(zip(system.segments, svds)):
        b = bisect_right(t, seg.t_end + _BOUNDARY_TOL) if index == len(svds) - 1 else max(a, bisect_left(t, seg.t_end))
        ends = [seg.t_end, *t[a:b][:1], *t[a:b][-1:]]  # the largest |t - t_start| is at one of them
        flows.append((_flow(svd, state, max(abs(x - seg.t_start) for x in ends)), seg.t_start, a, b))
        state, a = _at(flows[-1][0], seg.t_end - seg.t_start), b  # the state across the quench
    if not batched:
        return [_at(flow, x - t0) for flow, t0, a, b in flows for x in t[a:b]]
    import numpy as np

    # One evaluation of every sample, with the fields of its segment's flow.
    counts = [b - a for _, _, a, b in flows]
    table = np.repeat(np.transpose([[*flow[1], *flow[2], *chain(*flow[4])] for flow, _, _, _ in flows]), counts, axis=1)
    pairs = [list(enumerate(rows)) for rows in table[15:].reshape(2 * N_MODES, 6, -1)]
    flow = np.repeat([flow[0] for flow, _, _, _ in flows], counts), table[:3], table[3:15], pairs
    return _at(flow, t - np.repeat([t0 for _, t0, _, _ in flows], counts))


def _energy_rows(system, v0, times: list[float]) -> list[list[float]]:
    """The rows of ``energies`` from the twelve parts ``v0`` at ``times``, an ascending list of floats,
    under a SystemParams or a Schedule: with the bits of ``evolve_spectral`` and ``evolve_schedule``."""
    parts = _evolve(system, v0, times)
    return [[x, *(r * r + i * i for r, i in zip(p[:N_MODES], p[N_MODES:]))] for x, p in zip(times, parts)]


def energies(trajectory: Trajectory) -> np.ndarray:
    """Per-mode energies re^2 + im^2: columns (t, E_s1, E_s2, E_s3, E_a1, E_a2, E_a3)."""
    import numpy as np

    table = np.empty((trajectory.times.size, 1 + N_MODES))
    table[:, 0] = trajectory.times
    re, im = trajectory.states.real, trajectory.states.imag
    table[:, 1:] = re * re + im * im
    return table


def energies_to_csv(trajectory: Trajectory) -> str:
    return _csv(_ENERGY_CSV_HEADER, energies(trajectory).tolist())


def _energies_to_json_dict(rows) -> dict:
    """The object ``trichain evolve --format json`` writes from rows of
    ``energies``: the times, and the energies keyed by their column names."""
    times, *columns = map(list, zip(*rows))
    return {"times": times, "energies": dict(zip(_ENERGY_CSV_HEADER.split(",")[1:], columns))}


def _central_energies_to_csv(qubit, qutrit) -> str:
    """The table ``trichain figures`` writes as fig5.csv: the central atom's
    energy over the common times of the ``energies`` rows of a qubit and a
    qutrit run."""
    return _csv(_CENTRAL_ENERGY_CSV_HEADER, ([a[0], a[2], b[2]] for a, b in zip(qubit, qutrit)))


def plateau_width(trajectory: Trajectory, center: float, threshold: float) -> float:
    """Width of the contiguous window around ``center`` with E_s2 <= threshold.

    A sampling-based diagnostic for the flat-bottomed transfer window: the
    trajectory should be sampled densely (>= 100 points per unit time) around
    the center for the width to be meaningful.
    """
    center, threshold = _real("center", center, DomainError), _real("threshold", threshold, DomainError)
    t = trajectory.times
    if center < t[0] or center > t[-1]:
        raise DomainError(f"center {center} outside trajectory window [{t[0]}, {t[-1]}]")
    e2 = abs(trajectory.states[:, 1]) ** 2
    idx = int(abs(t - center).argmin())
    if e2[idx] > threshold:
        return 0.0
    lo = idx
    while lo > 0 and e2[lo - 1] <= threshold:
        lo -= 1
    hi = idx
    while hi < t.size - 1 and e2[hi + 1] <= threshold:
        hi += 1
    return float(t[hi] - t[lo])
