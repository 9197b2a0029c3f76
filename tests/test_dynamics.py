import json
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import trichain.dynamics as dynamics_module
import trichain.spectrum as spectrum_module
from trichain import (
    AccuracyError,
    ConsistencyError,
    DomainError,
    InvalidParameterError,
    QUBIT_COUPLING,
    QUTRIT_COUPLING,
    Schedule,
    ScheduleError,
    Segment,
    SystemParams,
    build_coupling_matrix,
    eigenfrequencies,
    energies,
    energies_to_csv,
    evolve_rk4,
    evolve_schedule,
    evolve_spectral,
    identify_energy_branch,
    initial_state,
    inverse_laplace_s2,
    propagator,
    schedule_from_json,
    solve_comb_params,
)
from trichain.spectrum import _s2_at
from conftest import random_params

RABI = SystemParams(g=0.0, delta=0.0, f1=1.0, f2=1.0)


def qubit_solution():
    return solve_comb_params(QUBIT_COUPLING, identify_energy_branch())


class TestEvolveSpectral:
    def test_time_zero_is_identity(self, rng):
        v0 = initial_state(3)
        for params in random_params(rng, 10):
            assert np.allclose(evolve_spectral(params, v0, [0.0]).states[0], v0, atol=1e-14)

    def test_decoupled_rabi_oscillation(self):
        times = np.linspace(0.0, 2.0 * math.pi, 50)
        traj = evolve_spectral(RABI, initial_state(2), times)
        assert np.max(np.abs(traj.states[:, 1] - np.cos(times))) <= 1e-12
        assert np.max(np.abs(traj.states[:, 4] + 1j * np.sin(times))) <= 1e-12
        others = traj.states[:, [0, 2, 3, 5]]
        assert np.max(np.abs(others)) <= 1e-12

    def test_comb_full_state_revival(self):
        sol = qubit_solution()
        v0 = initial_state(2)
        final = evolve_spectral(sol.params, v0, [2.0 * math.pi]).states[0]
        assert np.linalg.norm(final - v0) <= 1e-8

    def test_norm_conservation(self, rng):
        times = np.linspace(0.0, 4.0 * math.pi, 60)
        v0 = initial_state(2)
        for params in random_params(rng, 30):
            traj = evolve_spectral(params, v0, times)
            assert np.max(np.abs(traj.norms() - 1.0)) <= 1e-10

    def test_mirror_energy_symmetry_for_central_start(self, rng):
        times = np.linspace(0.0, 2.0 * math.pi, 40)
        v0 = initial_state(2)
        for params in random_params(rng, 30):
            table = energies(evolve_spectral(params, v0, times))
            assert np.max(np.abs(table[:, 1] - table[:, 3])) <= 1e-9  # E_s1 == E_s3
            assert np.max(np.abs(table[:, 4] - table[:, 6])) <= 1e-9  # E_a1 == E_a3

    def test_rejects_bad_inputs(self):
        with pytest.raises(InvalidParameterError):
            evolve_spectral(RABI, np.zeros(6, complex), [0.0, 1.0])
        with pytest.raises(InvalidParameterError):
            evolve_spectral(RABI, initial_state(2), [1.0, 0.5])
        with pytest.raises(InvalidParameterError):
            evolve_spectral(RABI, np.ones(5, complex), [0.0])
        for bad_time in (math.inf, math.nan):
            with pytest.raises(InvalidParameterError):
                evolve_spectral(RABI, initial_state(2), [0.0, bad_time])


class TestPropagator:
    def test_unitary_and_revival(self):
        sol = qubit_solution()
        u = propagator(sol.params, 2.0 * math.pi)
        assert np.linalg.norm(u @ u.conj().T - np.eye(6), 2) <= 1e-12
        assert np.linalg.norm(u - np.eye(6), 2) <= 1e-9

    @pytest.mark.parametrize("t", [math.nan, math.inf, True, "1.0"])
    def test_rejects_a_time_that_is_not_a_finite_real(self, t):
        with pytest.raises(InvalidParameterError):
            propagator(RABI, t)

    def test_half_period_involution(self):
        sol = qubit_solution()
        u_half = propagator(sol.params, math.pi)
        u_full = propagator(sol.params, 2.0 * math.pi)
        assert np.linalg.norm(u_half @ u_half - u_full, 2) <= 1e-9


def _phase_routes(params, t_end):
    """Each route that evaluates sin and cos of w*t, on the times [0, t_end]."""
    v0 = initial_state(2)
    schedule = Schedule(segments=(Segment(0.0, t_end, params.g),), base=params)
    return {
        "evolve_spectral": lambda: evolve_spectral(params, v0, [0.0, t_end]),
        "propagator": lambda: propagator(params, t_end),
        "evolve_schedule": lambda: evolve_schedule(schedule, v0, [0.0, t_end]),
        "inverse_laplace_s2": lambda: inverse_laplace_s2(params, [0.0, t_end]),
        "_s2_at": lambda: _s2_at(params, t_end),  # a float t, on math rather than numpy
    }


@pytest.mark.parametrize("params, t_end", [
    (SystemParams(g=0.0, delta=1e308, f1=1.0, f2=1.0), 2.0 * math.pi),  # a huge frequency
    (SystemParams(g=0.0, delta=0.0, f1=2.0, f2=2.0), 1.7e308),           # a huge time, max|w| = 2
    (SystemParams(g=3.0, delta=0.0, f1=1.0, f2=1.0), 5e307),             # max|w| ~ 4.5
    (SystemParams(g=0.3, delta=0.2, f1=1.0, f2=1.0), 1e308),             # the Laplace route scales t by 2 here
    # Finite phases past 2^53: s2 read -1.2396 here, where |s2| <= 1 must hold.
    (SystemParams(g=0.3, delta=0.2, f1=1.0, f2=1.0), 1e307),
    (SystemParams(g=0.0, delta=0.0, f1=1.0, f2=1.0), 2.0**53),           # max|w| = 1: w*t = 2^53 exactly
], ids=["frequency", "time", "product", "laplace-scaled-time", "past-2^53", "at-2^53"])
def test_overflowing_phases_raise_domain_error(params, t_end):
    # From 2^53 on a phase is a multiple of 2 rad, so no route has a digit of cos(w*t) to give.
    for propagate in _phase_routes(params, t_end).values():
        with pytest.raises(DomainError, match=r"^phases w\*t reach 2\^53"):
            propagate()


def test_phases_just_below_2_53_run():
    params = SystemParams(g=0.0, delta=0.0, f1=1.0, f2=1.0)  # max|w| = 1 on every route
    for propagate in _phase_routes(params, 2.0**53 - 1.0).values():
        propagate()


# Points where the spectrum degenerates are the normal case: f1 = 0 and
# delta = +-f2 give a zero pair, g = delta = 0 the resonant chain, and the
# designed combs a double zero.  Each point is scaled by 2^k.
_coupling = st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=2.0))


@st.composite
def _chains(draw):
    g, f1, f2 = draw(_coupling), draw(_coupling), draw(_coupling)
    delta = draw(st.one_of(st.floats(min_value=-2.0, max_value=2.0), st.sampled_from([f2, -f2, 0.0])))
    return SystemParams(g=g, delta=delta, f1=f1, f2=f2)


_combs = st.builds(lambda g, branch: solve_comb_params(g, branch).params,
                   st.floats(min_value=0.05, max_value=1.0), st.sampled_from("AB"))
_points = st.one_of(_chains(), _combs)
_scales = st.integers(min_value=-60, max_value=60)


def _scaled(params, k):
    return SystemParams(*(math.ldexp(x, k) for x in params[:4]))


def _bits(values):
    return np.asarray(values).tobytes()


class TestMirrorFlow:
    """The spectral route: exp(-iMt) in the mirror basis, from the Jacobi kernel of ``eigenfrequencies``."""

    @settings(max_examples=150, deadline=None)
    @given(params=_points, k=_scales, t_end=st.floats(min_value=0.1, max_value=60.0))
    @example(params=RABI, k=0, t_end=2.0 * math.pi)
    @example(params=SystemParams(g=0.0, delta=0.0, f1=0.0, f2=0.0), k=0, t_end=1.0)
    def test_mirror_sectors_from_the_central_atom(self, params, k, t_end):
        # From s2 the +1 sector (x) stays real and the -1 sector (y) imaginary,
        # so s1, s3 and a1, a3 hold mirrored amplitudes (== is bitwise but for
        # the sign of a zero), and their energies are the same bits.
        point = _scaled(params, k)
        times = np.linspace(0.0, math.ldexp(t_end, -k), 41)
        trajectory = evolve_spectral(point, initial_state(2), times)
        s1, s2, s3, a1, a2, a3 = trajectory.states.T
        assert not np.any(s2.imag) and not np.any(a2.real)
        assert np.array_equal(s1.real, -s3.real) and np.array_equal(s1.imag, s3.imag)
        assert np.array_equal(a1.real, a3.real) and np.array_equal(a1.imag, -a3.imag)
        table = energies(trajectory)
        assert _bits(table[:, 1]) == _bits(table[:, 3])  # E_s1 = E_s3
        assert _bits(table[:, 4]) == _bits(table[:, 6])  # E_a1 = E_a3

    @settings(max_examples=150, deadline=None)
    @given(params=_points, k=_scales, t=st.floats(min_value=-100.0, max_value=100.0))
    def test_propagator_is_unitary(self, params, k, t):
        u = propagator(_scaled(params, k), math.ldexp(t, -k))
        assert np.linalg.norm(u @ u.conj().T - np.eye(6), 2) <= 1e-14

    @settings(max_examples=150, deadline=None)
    @given(params=_points, k=_scales, init=st.integers(min_value=1, max_value=6),
           t_end=st.floats(min_value=0.1, max_value=60.0))
    def test_scaling_the_parameters_scales_time_bitwise(self, params, k, init, t_end):
        # Only an exact scaling scales time bitwise: one that rounds a parameter
        # to a subnormal (delta = 7.27e-303, k = -19) does not come back unchanged.
        # Both forms have the same phases w*t, so both run or both reach 2^53 and raise.
        assume(_scaled(_scaled(params, k), -k) == params)
        times = np.linspace(0.0, t_end, 17)

        def states(params, times):
            try:
                return _bits(evolve_spectral(params, initial_state(init), times).states)
            except DomainError:
                return DomainError

        assert states(_scaled(params, k), times) == states(params, np.ldexp(times, k))

    @settings(max_examples=150, deadline=None)
    @given(params=_points, k=_scales)
    def test_flow_uses_the_frequencies_of_eigenfrequencies(self, params, k):
        point = _scaled(params, k)
        e, sigma, _, _ = dynamics_module._mirror_svd(*point[:4])
        assert _bits(sorted(4.0 * math.ldexp(float(s), e - 2) for s in sigma)) == _bits(
            eigenfrequencies(point).positive)

    @pytest.mark.parametrize("params", [
        SystemParams(g=0.5, delta=0.3, f1=0.8, f2=0.9),
        SystemParams(g=0.5, delta=0.3, f1=0.0, f2=0.9),  # f1 = 0: a zero pair
        SystemParams(g=0.5, delta=0.9, f1=0.8, f2=0.9),  # delta = f2: a zero pair
        SystemParams(g=0.0, delta=0.0, f1=1.0, f2=1.0),  # the resonant chain: a triple |w|
    ], ids=["generic", "f1_zero", "delta_f2", "resonant"])
    @pytest.mark.parametrize("t", [0.7, 5.0, 50.0])
    def test_propagator_against_mpmath_expm(self, params, t):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            generator = mpmath.matrix(build_coupling_matrix(params).tolist())
            exact = mpmath.expm(generator * mpmath.mpc(0, -t))
            exact = np.array([[complex(exact[i, j]) for j in range(6)] for i in range(6)])
        assert np.max(np.abs(propagator(params, t) - exact)) <= 1e-13

    def test_a_sweep_that_does_not_converge_raises_consistency_error(self, monkeypatch):
        # Unrotated columns of T are not its singular vectors: the flow would
        # not be unitary, and the coefficient check refuses their norms.
        monkeypatch.setattr(spectrum_module, "_MAX_SWEEPS", 0)
        params = SystemParams(g=0.5, delta=0.3, f1=0.8, f2=0.9)
        schedule = Schedule(segments=(Segment(0.0, 1.0, params.g),), base=params)
        for propagate in (
            lambda: evolve_spectral(params, initial_state(2), [0.0, 1.0]),
            lambda: propagator(params, 1.0),
            lambda: evolve_schedule(schedule, initial_state(2), [0.0, 1.0]),
        ):
            with pytest.raises(ConsistencyError, match="for g=0.5, delta=0.3, f1=0.8, f2=0.9$"):
                propagate()


def test_overflowing_frequencies_raise_domain_error():
    # The top frequency of g = 1.5e308 is beyond the float range at any t.
    params = SystemParams(g=1.5e308, delta=0.0, f1=1.0, f2=1.0)
    schedule = Schedule(segments=(Segment(0.0, 1.0, params.g),), base=params)
    for propagate in (
        lambda: evolve_spectral(params, initial_state(2), [0.0, 1e-300]),
        lambda: propagator(params, 0.0),
        lambda: evolve_schedule(schedule, initial_state(2), [0.0, 1.0]),
    ):
        with pytest.raises(DomainError, match="overflow"):
            propagate()


class TestEvolveRK4:
    def test_matches_spectral_at_default_step(self):
        sol = qubit_solution()
        v0 = initial_state(2)
        t_end = 2.0 * math.pi
        rk = evolve_rk4(sol.params, v0, dt=1e-2, t_end=t_end)
        spectral = evolve_spectral(sol.params, v0, rk.times)
        assert np.max(np.abs(rk.states - spectral.states)) <= 1e-6

    def test_fourth_order_convergence(self):
        sol = qubit_solution()
        v0 = initial_state(2)
        t_end = 2.0 * math.pi
        exact = evolve_spectral(sol.params, v0, [t_end]).states[0]
        errs = {}
        for dt in (1e-2, 1e-3):
            final = evolve_rk4(sol.params, v0, dt=dt, t_end=t_end).states[-1]
            errs[dt] = np.max(np.abs(final - exact))
        assert errs[1e-2] <= 1e-6
        assert errs[1e-3] <= 1e-9
        ratio = errs[1e-2] / errs[1e-3]
        assert 5e3 <= ratio <= 2e4

    def test_decoupled_cosine(self):
        traj = evolve_rk4(RABI, initial_state(2), dt=1e-3, t_end=math.pi)
        assert abs(traj.states[-1, 1] - math.cos(math.pi)) <= 1e-9

    def test_zero_generator_constant_trajectory(self):
        params = SystemParams(g=0.0, delta=0.0, f1=0.0, f2=0.0)
        traj = evolve_rk4(params, initial_state(1), dt=1e-2, t_end=1.0)
        assert np.max(np.abs(traj.states - traj.states[0])) == 0.0

    def test_norm_drift_bound_over_two_revivals(self):
        sol = qubit_solution()
        traj = evolve_rk4(sol.params, initial_state(2), dt=1e-2, t_end=4.0 * math.pi)
        assert np.max(np.abs(traj.norms() - 1.0)) <= 1e-8

    def test_oversized_step_raises_accuracy_error(self):
        params = SystemParams(g=3.0, delta=0.0, f1=3.0, f2=3.0)
        with pytest.raises(AccuracyError):
            evolve_rk4(params, initial_state(2), dt=0.8, t_end=20.0)

    @pytest.mark.parametrize("kwargs", [
        {"dt": True}, {"dt": 0.0}, {"dt": -1e-2}, {"dt": math.nan}, {"dt": "0.01"},
        {"t_end": True}, {"t_end": -1.0}, {"t_end": math.inf},
        {"norm_tol": math.nan}, {"norm_tol": 0.0},  # NaN would let every drift pass
    ])
    def test_rejects_a_step_or_end_that_is_not_a_positive_real(self, kwargs):
        with pytest.raises(InvalidParameterError):
            evolve_rk4(RABI, initial_state(2), **kwargs)

    def test_lands_exactly_on_t_end(self):
        traj = evolve_rk4(RABI, initial_state(2), dt=1e-2, t_end=0.105)
        assert traj.times[-1] == 0.105


class TestSchedule:
    def test_single_segment_equals_constant_evolution(self):
        sol = qubit_solution()
        schedule = Schedule(
            segments=(Segment(0.0, 2.0 * math.pi, sol.g),),
            base=sol.params,
        )
        times = np.linspace(0.0, 2.0 * math.pi, 101)
        v0 = initial_state(2)
        a = evolve_schedule(schedule, v0, times)
        b = evolve_spectral(sol.params, v0, times)
        assert np.max(np.abs(a.states - b.states)) <= 1e-12

    def test_storage_cycle_one_zero_one(self):
        sol = qubit_solution()
        times = np.linspace(0.0, 2.0 * math.pi, 2001)
        table = energies(evolve_spectral(sol.params, initial_state(2), times))
        e2 = table[:, 2]
        assert e2[0] == pytest.approx(1.0, abs=1e-12)
        assert e2[1000] <= 1e-7           # t = pi exactly on this grid
        assert e2[-1] == pytest.approx(1.0, abs=1e-8)

    def test_freeze_keeps_central_atom_empty(self):
        # switch g off at t = pi and watch the central atom afterwards
        sol = qubit_solution()
        schedule = Schedule(
            segments=(
                Segment(0.0, math.pi, sol.g),
                Segment(math.pi, 3.0 * math.pi, 0.0),
            ),
            base=sol.params,
        )
        times = np.linspace(math.pi, 3.0 * math.pi, 800)
        traj = evolve_schedule(schedule, initial_state(2), times)
        e2 = np.abs(traj.states[:, 1]) ** 2
        assert np.max(e2) <= 1e-10

    def test_state_continuous_across_quench(self):
        sol = qubit_solution()
        schedule = Schedule(
            segments=(Segment(0.0, math.pi, sol.g), Segment(math.pi, 2.0 * math.pi, 0.0)),
            base=sol.params,
        )
        eps = 1e-9
        times = [math.pi - eps, math.pi, math.pi + eps]
        traj = evolve_schedule(schedule, initial_state(2), times)
        assert np.max(np.abs(traj.states[0] - traj.states[1])) <= 1e-7
        assert np.max(np.abs(traj.states[2] - traj.states[1])) <= 1e-7

    def test_measured_energy_split_at_freeze(self):
        # frozen regression of the measured distribution at t = pi for the
        # qubit coupling: the two outer atoms each hold 0.4403..., the rest
        # sits in the outer field modes, and the central pair is empty.
        sol = qubit_solution()
        table = energies(evolve_spectral(sol.params, initial_state(2), [math.pi]))
        _, e_s1, e_s2, e_s3, e_a1, e_a2, e_a3 = table[0]
        assert e_s2 <= 1e-7
        assert abs(e_s1 - e_s3) <= 1e-12
        assert e_s1 == pytest.approx(0.4403176117657587, abs=1e-9)
        assert e_a1 == pytest.approx(0.0596823882342417, abs=1e-9)
        assert e_a2 <= 1e-15

    def test_measured_energy_split_at_qutrit_point(self):
        sol = solve_comb_params(QUTRIT_COUPLING, identify_energy_branch())
        table = energies(evolve_spectral(sol.params, initial_state(2), [math.pi]))
        _, e_s1, e_s2, e_s3, e_a1, e_a2, e_a3 = table[0]
        assert abs(e_s2 - 1.0 / 3.0) <= 1e-7
        assert e_s1 == pytest.approx(0.2746512776753720, abs=1e-9)
        assert e_a1 == pytest.approx(0.0586820551723424, abs=1e-9)

    @pytest.mark.parametrize(
        "segments",
        [
            (),
            (Segment(0.0, 1.0, 0.5), Segment(1.5, 2.0, 0.0)),   # gap
            (Segment(0.0, 1.0, 0.5), Segment(0.8, 2.0, 0.0)),   # overlap
            (Segment(0.0, 0.0, 0.5),),                          # empty interval
            (Segment(0.0, 1.0, -0.2),),                         # negative coupling
            (Segment(0.0, 1.0, True),),                         # bool coupling
            (Segment(0.0, "1.0", 0.5),),                        # string time
            (Segment(0.0, math.nan, 0.5),),                     # NaN time
        ],
    )
    def test_malformed_schedules_rejected(self, segments):
        with pytest.raises(ScheduleError):
            Schedule(segments=segments, base=RABI)

    @pytest.mark.parametrize("base", [None, (0.5, 0.0, 1.0, 1.0, 0.0), {"g": 0.5, "delta": 0.0, "f1": 1.0, "f2": 1.0}])
    def test_base_that_is_not_system_params_rejected(self, base):
        # a None base used to build, and evolve_schedule then raised AttributeError
        with pytest.raises(ScheduleError, match="base"):
            Schedule(segments=(Segment(0.0, 1.0, 0.5),), base=base)
        with pytest.raises(ScheduleError, match="base"):
            Schedule(segments=(Segment(0.0, 1.0, 0.5),), base=RABI)._replace(base=base)

    def test_uncovered_times_rejected(self):
        schedule = Schedule(segments=(Segment(0.0, 1.0, 0.5),), base=RABI)
        with pytest.raises(ScheduleError):
            evolve_schedule(schedule, initial_state(2), [0.0, 2.0])

    def test_schedule_json_with_embedded_base(self):
        text = json.dumps({
            "base": {"g": 0.5, "delta": 0.1, "f1": 1.0, "f2": 0.9},
            "segments": [
                {"t_start": 0.0, "t_end": 1.0, "g": 0.5},
                {"t_start": 1.0, "t_end": 2.0, "g": 0.0},
            ],
        })
        schedule = schedule_from_json(text)
        assert schedule.base == SystemParams(g=0.5, delta=0.1, f1=1.0, f2=0.9)
        assert schedule.t_end == 2.0

    def test_schedule_json_bare_segments_need_base(self):
        text = json.dumps([{"t_start": 0.0, "t_end": 1.0, "g": 0.3}])
        schedule = schedule_from_json(text, base=RABI)
        assert schedule.segments[0].g == 0.3
        with pytest.raises(ScheduleError):
            schedule_from_json(text)


    @pytest.mark.parametrize(
        "text, error",
        [
            ('{"base": {"g": 0.5, "delta": 0, "f1": 1, "f2": 1}, "segments": [', ScheduleError),
            ('{"base": [0.5, 0, 1, 1], "segments": []}', ScheduleError),
            ('{"base": {"g": 0.5, "delta": 0, "f1": 1, "f2": 1, "zeta": 3}, "segments": []}',
             InvalidParameterError),
            ('{"base": {"g": 0.5, "f1": 1, "f2": 1}, "segments": []}', InvalidParameterError),
            ('{"base": {"g": 0.5, "delta": true, "f1": 1, "f2": 1}, "segments": []}', InvalidParameterError),
            # a string value must not smuggle in a key of its own
            ('{"base": {"g": "0.5\\ndelta = 0.1", "f1": 1, "f2": 1}, "segments": []}',
             InvalidParameterError),
            ('{"base": {"g": 0.5, "delta": 0, "f1": 1, "f2": 1}, '
             '"segments": [{"t_start": 0, "t_end": 1, "g": true}]}', ScheduleError),
            ('{"base": {"g": 0.5, "delta": 0, "f1": 1, "f2": 1}, '
             '"segments": [{"t_start": 0, "t_end": 1, "g": "0.5"}]}', ScheduleError),
            ('{"base": {"g": 0.5, "delta": 0, "f1": 1, "f2": 1}, '
             '"segments": [{"t_start": "0", "t_end": 1, "g": 0.5}]}', ScheduleError),
            ('{"base": {"g": 0.5, "delta": 0, "f1": 1, "f2": 1}, "segments": [{"t_start": 0, "t_end": 1}]}',
             ScheduleError),
            ('{"base": {"g": 0.5, "delta": 0, "f1": 1, "f2": 1}}', ScheduleError),
            ("0.5", ScheduleError),
        ],
        ids=["not_json", "base_not_object", "unknown_key", "missing_key", "bool_value", "string_value",
             "segment_bool_value", "segment_string_value", "segment_string_time", "segment_missing_key",
             "no_segments", "scalar"],
    )
    def test_schedule_json_rejects_malformed_text(self, text, error):
        with pytest.raises(error):
            schedule_from_json(text)


class TestEnergies:
    def test_rows_sum_to_one(self, rng):
        times = np.linspace(0.0, 2.0 * math.pi, 30)
        v0 = initial_state(2)
        for params in random_params(rng, 20):
            table = energies(evolve_spectral(params, v0, times))
            assert np.max(np.abs(table[:, 1:].sum(axis=1) - 1.0)) <= 1e-10

    def test_initial_row(self):
        table = energies(evolve_spectral(RABI, initial_state(2), [0.0]))
        assert np.allclose(table[0], [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0], atol=1e-14)

    def test_csv_header_and_width(self):
        traj = evolve_spectral(RABI, initial_state(2), [0.0, 1.0])
        lines = energies_to_csv(traj).strip().split("\n")
        assert lines[0] == "t,E_s1,E_s2,E_s3,E_a1,E_a2,E_a3"
        assert len(lines) == 3
        assert len(lines[1].split(",")) == 7
