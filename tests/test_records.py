"""The nine records are named tuples: fields in a pinned order, immutable,
picklable, and, for the three that check their fields, checked on every copy."""

import math
import pickle

import numpy as np
import pytest

from trichain import (
    QUBIT_COUPLING,
    CharPoly,
    CombSolution,
    DegeneracyReport,
    EnergyProgram,
    InvalidParameterError,
    Schedule,
    ScheduleError,
    Segment,
    Spectrum,
    SystemParams,
    Trajectory,
    char_poly,
    degeneracy_discriminant,
    eigenfrequencies,
    evolve_spectral,
    initial_state,
    solve_comb_params,
    solve_g_for_energy,
)

PARAMS = SystemParams(g=0.5, delta=0.3, f1=0.8, f2=0.9)
SCHEDULE = Schedule(segments=(Segment(0.0, 1.0, 0.5), Segment(1.0, 2.0, 0.0)), base=PARAMS)

# Positional construction follows this order, so it is part of the API.
FIELDS = {
    SystemParams: ("g", "delta", "f1", "f2", "omega0"),
    CharPoly: ("c4", "c2", "c0"),
    Spectrum: ("frequencies", "degeneracy_tol", "clusters"),
    DegeneracyReport: ("discriminant", "zero_frequency_pair"),
    CombSolution: ("branch", "g", "delta", "f1", "f2", "residuals", "spectrum"),
    EnergyProgram: ("target_e2", "g_solutions"),
    Trajectory: ("times", "states"),
    Segment: ("t_start", "t_end", "g"),
    Schedule: ("segments", "base"),
}


def records():
    return [
        PARAMS,
        char_poly(PARAMS),
        eigenfrequencies(PARAMS),
        degeneracy_discriminant(PARAMS),
        solve_comb_params(QUBIT_COUPLING, "A"),
        solve_g_for_energy(0.3),
        evolve_spectral(PARAMS, initial_state(2), [0.0, 0.5, 1.0]),
        SCHEDULE.segments[0],
        SCHEDULE,
    ]


def test_every_record_is_built():
    assert [type(record) for record in records()] == list(FIELDS)


@pytest.mark.parametrize("cls", FIELDS, ids=lambda cls: cls.__name__)
def test_field_order_is_pinned(cls):
    assert cls._fields == FIELDS[cls]


def test_records_are_tuples():
    # The deliberate API: tuple equality, iteration and len.
    assert PARAMS == (0.5, 0.3, 0.8, 0.9, 0.0)
    assert list(PARAMS) == [PARAMS.g, PARAMS.delta, PARAMS.f1, PARAMS.f2, PARAMS.omega0]
    assert len(char_poly(PARAMS)) == 3
    assert SystemParams(1, 0, 1, 1).f1 == 1.0 and type(SystemParams(1, 0, 1, 1).f1) is float


@pytest.mark.parametrize("record", records(), ids=lambda record: type(record).__name__)
def test_pickle_round_trip(record):
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is type(record)
    if isinstance(record, Trajectory):  # arrays: == is elementwise
        assert all(np.array_equal(a, b) for a, b in zip(copy, record))
        assert not (copy.times.flags.writeable or copy.states.flags.writeable)
    else:
        assert copy == record


@pytest.mark.parametrize("record", records(), ids=lambda record: type(record).__name__)
def test_attribute_assignment_raises(record):
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
    with pytest.raises(AttributeError):
        record.extra = 1


BAD_VALUES = [-0.5, math.nan, True, "0.5"]


@pytest.mark.parametrize("bad", BAD_VALUES, ids=repr)
@pytest.mark.parametrize("make", [
    lambda bad: PARAMS.replace(g=bad),
    lambda bad: PARAMS._replace(g=bad),
    lambda bad: SystemParams._make([bad, 0.3, 0.8, 0.9]),
], ids=["replace", "_replace", "_make"])
def test_params_copies_are_checked(make, bad):
    with pytest.raises(InvalidParameterError):
        make(bad)


@pytest.mark.parametrize("bad", BAD_VALUES, ids=repr)
@pytest.mark.parametrize("make", [
    lambda bad: SCHEDULE._replace(segments=(Segment(0.0, 1.0, bad),)),
    lambda bad: Schedule._make([(Segment(0.0, 1.0, bad),), PARAMS]),
], ids=["_replace", "_make"])
def test_schedule_copies_are_checked(make, bad):
    with pytest.raises(ScheduleError):
        make(bad)


def test_trajectory_copies_are_checked():
    trajectory = records()[6]
    with pytest.raises(InvalidParameterError):
        trajectory._replace(times=np.zeros(2))
    with pytest.raises(InvalidParameterError):
        Trajectory._make([trajectory.times, trajectory.states[:, :5]])


def test_checked_copies_store_floats():
    assert PARAMS.replace(g=1)._replace(f1=np.float32(0.25)) == (1.0, 0.3, 0.25, 0.9, 0.0)
    assert all(type(x) is float for x in SystemParams._make([1, 0, 1, 1, 2]))
    assert all(type(x) is float for x in SCHEDULE._replace(segments=(Segment(0, 1, 1),)).segments[0])


def test_copies_refuse_unknown_or_missing_fields():
    with pytest.raises(TypeError):
        PARAMS.replace(zeta=1.0)
    with pytest.raises(TypeError):
        SystemParams._make([0.5, 0.3])
