import math
import re
import sys
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trichain import (
    CharPoly,
    ConsistencyError,
    DomainError,
    InvalidParameterError,
    Schedule,
    ScheduleError,
    Segment,
    SystemParams,
    TrichainError,
    build_coupling_matrix,
    char_poly,
    comb_constraints,
    degeneracy_discriminant,
    eigenfrequencies,
    energy_at_pi,
    evolve_rk4,
    evolve_schedule,
    evolve_spectral,
    frequencies_from_charpoly,
    initial_state,
    inverse_laplace_s2,
    params_from_config,
    params_to_config,
    propagator,
    s2_response,
    scale_comb,
    solve_comb_params,
    solve_g_for_energy,
    spectral_mirror_operator,
    sweep_spectrum,
    sweep_spectrum_values,
)
from trichain.model import _linspace, _params_from_values
from trichain.spectrum import _sweep_points
from conftest import random_params

# 0-based positions of the allowed nonzero entries of M
_PATTERN = {
    (0, 0), (2, 2), (3, 3), (5, 5),
    (0, 3), (3, 0), (1, 4), (4, 1), (2, 5), (5, 2),
    (3, 4), (4, 3), (4, 5), (5, 4),
}


def test_all_zero_params_give_zero_matrix():
    m = build_coupling_matrix(SystemParams(g=0.0, delta=0.0, f1=0.0, f2=0.0))
    assert np.array_equal(m, np.zeros((6, 6)))


def test_unit_couplings_pattern():
    m = build_coupling_matrix(SystemParams(g=1.0, delta=0.0, f1=1.0, f2=1.0))
    assert np.array_equal(np.diag(m), np.zeros(6))
    for i, j in ((3, 4), (4, 5), (0, 3), (1, 4), (2, 5)):
        assert m[i, j] == 1.0 and m[j, i] == 1.0


def test_detuned_matrix_reproduces_equations_of_motion(rng):
    params = SystemParams(g=0.5, delta=0.3, f1=0.8, f2=0.9)
    m = build_coupling_matrix(params)
    assert np.array_equal(np.diag(m), [0.3, 0.0, -0.3, 0.3, 0.0, -0.3])
    # independent transcription of d/dt v = -i M v, term by term
    v = rng.normal(size=6) + 1j * rng.normal(size=6)
    s1, s2, s3, a1, a2, a3 = v
    g, d, f1, f2 = params.g, params.delta, params.f1, params.f2
    expected = -1j * np.array([
        d * s1 + f2 * a1,
        f1 * a2,
        -d * s3 + f2 * a3,
        d * a1 + f2 * s1 + g * a2,
        f1 * s2 + g * a1 + g * a3,
        -d * a3 + f2 * s3 + g * a2,
    ])
    assert np.allclose(-1j * (m @ v), expected, rtol=0, atol=1e-15)


def test_matrix_symmetric_with_exact_sparsity(rng):
    for params in random_params(rng, 50, coupling_hi=2.0, delta_hi=2.0):
        m = build_coupling_matrix(params)
        assert np.array_equal(m, m.T)
        for i in range(6):
            for j in range(6):
                if (i, j) not in _PATTERN:
                    assert m[i, j] == 0.0


def test_spectral_mirror_antisymmetry(rng):
    s = spectral_mirror_operator()
    assert np.array_equal(s @ s.T, np.eye(6))
    for params in random_params(rng, 50, coupling_hi=2.0, delta_hi=2.0):
        m = build_coupling_matrix(params)
        assert np.array_equal(s @ m @ s.T, -m)


def test_mirror_basis_reduces_the_generator_to_the_3x3_block(rng):
    r = np.sqrt(0.5)
    # columns: S's +1 eigenvectors, then its -1 eigenvectors, over (s1, s2, s3, a1, a2, a3)
    q = np.array([
        [0, r, 0, 0, r, 0],
        [1, 0, 0, 0, 0, 0],
        [0, -r, 0, 0, r, 0],
        [0, 0, r, 0, 0, r],
        [0, 0, 0, 1, 0, 0],
        [0, 0, r, 0, 0, -r],
    ])
    s = spectral_mirror_operator()
    assert np.allclose(s @ q, q * [1, 1, 1, -1, -1, -1], rtol=0.0, atol=1e-15)
    rotation = np.array([[1, 0, 0], [0, r, r], [0, r, -r]])
    for params in random_params(rng, 50, coupling_hi=2.0, delta_hi=2.0):
        g, delta, f1, f2 = params.g, params.delta, params.f1, params.f2
        b = np.array([[f1, 0, 0], [0, delta, f2], [np.sqrt(2) * g, f2, delta]])
        reduced = q.T @ build_coupling_matrix(params) @ q
        assert np.allclose(reduced, np.block([[np.zeros((3, 3)), b], [b.T, np.zeros((3, 3))]]), rtol=0.0, atol=1e-14)
        t = np.array([[f1, 0, 0], [g, delta + f2, 0], [-g, 0, delta - f2]])
        assert np.allclose(rotation @ b @ rotation, t, rtol=0.0, atol=1e-14)


def test_initial_state_slots():
    assert np.array_equal(initial_state(2), [0, 1, 0, 0, 0, 0])
    assert np.array_equal(initial_state(1), [1, 0, 0, 0, 0, 0])
    assert np.array_equal(initial_state(5), [0, 0, 0, 0, 1, 0])
    assert initial_state(2).dtype == complex


@pytest.mark.parametrize("bad", [0, 7, -1, 2.0, True])
def test_initial_state_rejects_bad_index(bad):
    with pytest.raises(InvalidParameterError):
        initial_state(bad)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(g=-0.1, delta=0.0, f1=1.0, f2=1.0),
        dict(g=1.0, delta=0.0, f1=-1e-9, f2=1.0),
        dict(g=1.0, delta=0.0, f1=1.0, f2=-2.0),
        dict(g=float("nan"), delta=0.0, f1=1.0, f2=1.0),
        dict(g=1.0, delta=float("inf"), f1=1.0, f2=1.0),
        dict(g=1.0, delta=0.0, f1=1.0, f2=float("nan")),
    ],
)
def test_invalid_params_rejected(kwargs):
    with pytest.raises(InvalidParameterError):
        SystemParams(**kwargs)


def _constant_f1(value):
    """A sweep constraint that sets f1 to ``value`` at every point: a column
    of it on arrays, the value itself on floats."""
    def constraint(g, delta, f1, f2):
        if not isinstance(g, np.ndarray):
            return g, delta, value, f2
        column = np.empty(g.shape, dtype=object)
        column.fill(value)
        return g, delta, column, f2
    return constraint


# Every scalar entry point applies one rule (``model._real``): a finite real
# number, numpy scalars included, that is not a bool; a positive knob also
# refuses 0 and the negative numbers.  Each entry is (call, error, positive).
# A sweep constraint's columns obey it too, on the batched and the per-point route.
_BASE = SystemParams(g=0.0, delta=0.0, f1=1.0, f2=1.0)
_SCALAR_ENTRY_POINTS = {
    "SystemParams": (lambda v: SystemParams(g=v, delta=0.0, f1=1.0, f2=1.0), InvalidParameterError, False),
    "_params_from_values": (
        lambda v: _params_from_values({"g": v, "delta": 0.0, "f1": 1.0, "f2": 1.0}, "test"),
        InvalidParameterError,
        False,
    ),
    "energy_at_pi": (energy_at_pi, DomainError, False),
    "solve_g_for_energy": (solve_g_for_energy, DomainError, False),
    "solve_comb_params": (lambda v: solve_comb_params(v, "A"), DomainError, False),
    "scale_comb": (lambda v: scale_comb(solve_comb_params(0.5, "A"), v), DomainError, True),
    "comb_constraints": (lambda v: comb_constraints(solve_comb_params(0.5, "A").params, v), DomainError, True),
    "propagator": (lambda v: propagator(_BASE, v), InvalidParameterError, False),
    "evolve_rk4 dt": (lambda v: evolve_rk4(_BASE, initial_state(2), dt=v, t_end=1.0, norm_tol=1.0),
                      InvalidParameterError, True),
    "evolve_rk4 t_end": (lambda v: evolve_rk4(_BASE, initial_state(2), dt=0.1, t_end=v, norm_tol=1.0),
                         InvalidParameterError, True),
    "evolve_rk4 norm_tol": (lambda v: evolve_rk4(_BASE, initial_state(2), dt=0.1, t_end=1.0, norm_tol=v),
                            InvalidParameterError, True),
    "eigenfrequencies": (lambda v: eigenfrequencies(_BASE, degeneracy_tol=v), InvalidParameterError, True),
    "sweep_spectrum_values": (lambda v: sweep_spectrum_values(_BASE, "g", [0.5], degeneracy_tol=v),
                              InvalidParameterError, True),
    "_sweep_points": (lambda v: _sweep_points(_BASE, "g", [0.5], degeneracy_tol=v), InvalidParameterError, True),
    "sweep_spectrum_values constraint": (lambda v: sweep_spectrum_values(_BASE, "g", [0.5, 0.7], _constant_f1(v)),
                                         InvalidParameterError, False),
    "_sweep_points constraint": (lambda v: _sweep_points(_BASE, "g", [0.5, 0.7], _constant_f1(v)),
                                 InvalidParameterError, False),
    # cubics with three real roots <= 0 at v = 0.5 and v = 1
    "frequencies_from_charpoly c4": (lambda v: frequencies_from_charpoly(CharPoly(v, 0.0, 0.0)), DomainError, False),
    "frequencies_from_charpoly c2": (lambda v: frequencies_from_charpoly(CharPoly(3.0, v, 0.0)), DomainError, False),
    "frequencies_from_charpoly c0": (lambda v: frequencies_from_charpoly(CharPoly(6.0, 9.0, v)), DomainError, False),
}
_POSITIVE_KNOBS = sorted(site for site, (_, _, positive) in _SCALAR_ENTRY_POINTS.items() if positive)


def _outcome(call, value):
    """What ``call(value)`` returns, or the class and text of the error it raises."""
    try:
        return call(value)
    except TrichainError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("site", sorted(_SCALAR_ENTRY_POINTS))
@pytest.mark.parametrize("value", [np.int64(1), np.float32(0.5), np.float16(0.5), Fraction(1, 2), -0.0, 5e-324],
                         ids=["int64", "float32", "float16", "Fraction", "-0.0", "subnormal"])
def test_numpy_scalars_are_real_numbers(site, value):
    call, _, _ = _SCALAR_ENTRY_POINTS[site]
    np.testing.assert_equal(_outcome(call, value), _outcome(call, float(value)))


@pytest.mark.parametrize("site", sorted(_SCALAR_ENTRY_POINTS))
@pytest.mark.parametrize("value", [True, "1", float("nan"), 10**400, np.array([0.5]), Decimal("0.5"), 0.5 + 0j,
                                   math.inf, -math.inf],
                         ids=["bool", "str", "nan", "huge int", "1-element array", "Decimal", "complex", "inf",
                              "-inf"])
def test_bools_strings_nan_and_huge_ints_are_refused(site, value):
    call, error, _ = _SCALAR_ENTRY_POINTS[site]
    # An array for one point's f1 is a column, which the per-point route refuses by its shape.
    column = site == "_sweep_points constraint" and isinstance(value, np.ndarray)
    with pytest.raises(error, match="must return four columns" if column else "finite real number, got "):
        call(value)


@pytest.mark.parametrize("site", _POSITIVE_KNOBS)
@pytest.mark.parametrize("value", [0, -1.0], ids=["zero", "negative"])
def test_positive_knobs_refuse_zero_and_negative_numbers(site, value):
    call, error, _ = _SCALAR_ENTRY_POINTS[site]
    with pytest.raises(error, match=re.escape(f"must be a positive finite real number, got {value!r}")):
        call(value)


_UNUSUAL = [True, "1", math.nan, 10**400, np.array([0.5]), Decimal("0.5"), 0.5 + 0j, np.float16(0.5),
            np.float32(0.5), np.int64(1), Fraction(1, 2), -0.0, 5e-324, math.inf, -math.inf, 0.0, 0.5, 1.5, -0.25]
# The sweep values and a constraint's columns are drawn from these.  Not the
# array, a shape that the routes read apart: the batched route takes
# [array([0.5])] as a 2-d grid, and at one grid point a column of length 1 as
# of the grid's length, while the per-point route sees one point at a time.
_SCALARS = [x for x in _UNUSUAL if not isinstance(x, np.ndarray)]


def _sweep_bits(sweep, vary, values, constraint):
    """The bits of a sweep's rows, or the class and message of its error."""
    try:
        rows = sweep(_BASE, vary, values, constraint)
    except TrichainError as exc:
        return type(exc), str(exc)
    return [(*map(float.hex, (row.param, *row.frequencies, row.delta_err or 0.0)), row.degenerate) for row in rows]


@settings(max_examples=200, deadline=None)
@given(site=st.sampled_from(sorted(_SCALAR_ENTRY_POINTS)), value=st.sampled_from(_UNUSUAL),
       vary=st.sampled_from(["g", "delta", "f1", "f2"]), values=st.lists(st.sampled_from(_SCALARS), max_size=3),
       columns=st.lists(st.none() | st.sampled_from(_SCALARS), min_size=4, max_size=4))
def test_unusual_scalars_give_a_value_or_an_input_error_and_both_sweep_routes_agree(site, value, vary, values,
                                                                                    columns):
    def constraint(*point):  # each column passes through, or is one scalar at every point
        return [c if scalar is None else scalar for c, scalar in zip(point, columns)]

    try:
        _SCALAR_ENTRY_POINTS[site][0](value)
    except TrichainError as exc:
        assert not isinstance(exc, ConsistencyError), exc
    batched, per_point = (_sweep_bits(sweep, vary, values, constraint)
                          for sweep in (sweep_spectrum_values, _sweep_points))
    assert batched == per_point
    assert not isinstance(batched, tuple) or batched[0] is not ConsistencyError


# An entry point refuses another record, or a plain tuple, outright.
_SCHEDULE = Schedule([Segment(0.0, 5.0, 0.5)], SystemParams(0.5, 0.3, 0.8, 0.9))
_WRONG_RECORDS = {
    "evolve_spectral tuple": (lambda: evolve_spectral((0.5, 0.0, -1.0, 1.0), initial_state(2), [0.0, 1.0]),
                              InvalidParameterError, "params must be a SystemParams"),
    "evolve_spectral schedule": (lambda: evolve_spectral(_SCHEDULE, initial_state(2), [0.0, 1.0]),
                                 InvalidParameterError, "params must be a SystemParams"),
    "propagator tuple": (lambda: propagator((-0.5, 0.0, 1.0, 1.0), 1.0), InvalidParameterError,
                         "params must be a SystemParams"),
    "evolve_rk4 tuple": (lambda: evolve_rk4((0.5, 0.3, 0.8, 0.9), initial_state(2)), InvalidParameterError,
                         "params must be a SystemParams"),
    "evolve_schedule tuple": (lambda: evolve_schedule((0.5, 0.3, 0.8, 0.9), initial_state(2), [0.0, 5.0]),
                              ScheduleError, "schedule must be a Schedule"),
    "evolve_schedule params": (lambda: evolve_schedule(_BASE, initial_state(2), [0.0, 5.0]),
                               ScheduleError, "schedule must be a Schedule"),
    "char_poly tuple": (lambda: char_poly((0.5, 0.3, 0.8, 0.9)), InvalidParameterError,
                        "params must be a SystemParams"),
    "eigenfrequencies tuple": (lambda: eigenfrequencies((0.5, 0.3, 0.8, 0.9)), InvalidParameterError,
                               "params must be a SystemParams"),
    "eigenfrequencies schedule": (lambda: eigenfrequencies(_SCHEDULE), InvalidParameterError,
                                  "params must be a SystemParams"),
    "degeneracy_discriminant tuple": (lambda: degeneracy_discriminant((0.5, 0.3, 0.8, 0.9)), InvalidParameterError,
                                      "params must be a SystemParams"),
    "s2_response tuple": (lambda: s2_response((0.5, 0.3, 0.8, 0.9), 1.0), InvalidParameterError,
                          "params must be a SystemParams"),
    "inverse_laplace_s2 tuple": (lambda: inverse_laplace_s2((1.0, 0.0, 1.0, 1.0), [0.0]), InvalidParameterError,
                                 "params must be a SystemParams"),
    "comb_constraints tuple": (lambda: comb_constraints((0.5, 0.3, 0.8, 0.9)), InvalidParameterError,
                               "params must be a SystemParams"),
    "frequencies_from_charpoly tuple": (lambda: frequencies_from_charpoly((1.0, 0.0, 0.0)), InvalidParameterError,
                                        "cp must be a CharPoly"),
}


@pytest.mark.parametrize("case", sorted(_WRONG_RECORDS))
def test_entry_points_refuse_the_wrong_record(case):
    call, error, message = _WRONG_RECORDS[case]
    with pytest.raises(error, match=message):
        call()


# The elements of a sequence, and the other numeric arguments, obey the same rule.
_REFUSED = {
    "sweep value True": (lambda: sweep_spectrum_values(_BASE, "g", [True, 0.5]), "g must be a finite real number"),
    "sweep value str": (lambda: sweep_spectrum_values(_BASE, "g", ["0.5"]), "got '0.5'"),
    "sweep value text": (lambda: sweep_spectrum_values(_BASE, "g", ["x"]), "got 'x'"),
    "sweep value complex": (lambda: sweep_spectrum_values(_BASE, "g", [1j]), "got 1j"),
    "sweep value None": (lambda: sweep_spectrum_values(_BASE, "g", [None]), "got None"),
    "sweep value bool array": (lambda: sweep_spectrum_values(_BASE, "g", np.array([True])), "got True"),
    "sweep lo str": (lambda: sweep_spectrum(_BASE, "g", "0", 1, 3), "sweep range must be finite real numbers"),
    "sweep n float": (lambda: sweep_spectrum(_BASE, "g", 0, 1, 3.0), "sweep needs an integer n, got 3.0"),
    "sweep n bool": (lambda: sweep_spectrum(_BASE, "g", 0, 1, True), "sweep needs an integer n, got True"),
    "sweep n huge": (lambda: sweep_spectrum(_BASE, "g", 0, 1, 10**400), f"sweep needs n <= {sys.maxsize} grid"),
    "CharPoly.eval str": (lambda: CharPoly(1.0, 2.0, 3.0).eval("1"), "^p must be a finite number, got '1'$"),
    "CharPoly.eval Decimal": (lambda: CharPoly(1.0, 2.0, 3.0).eval(Decimal(1)), "got Decimal\\('1'\\)"),
    "CharPoly.eval huge int": (lambda: CharPoly(1.0, 2.0, 3.0).eval(10**400), "p must be a finite number, got 1000"),
    "CharPoly.eval nan": (lambda: CharPoly(1.0, 2.0, 3.0).eval(complex(0.0, math.nan)), "got nanj"),
    "degeneracy_tol True": (lambda: eigenfrequencies(_BASE, degeneracy_tol=True), "degeneracy_tol must be"),
    "times str": (lambda: evolve_spectral(_BASE, initial_state(2), ["0", "1.5"]), "times must be finite real"),
    "times bool": (lambda: evolve_spectral(_BASE, initial_state(2), [0.0, True]), "got True"),
    "times inf array": (lambda: evolve_spectral(_BASE, initial_state(2), np.array([0.0, math.inf])),
                        "^times must be finite$"),
    "Laplace times str": (lambda: inverse_laplace_s2(_BASE, ["0", "1.5"]), "got '0'"),
    "Laplace times bool": (lambda: inverse_laplace_s2(_BASE, [0.0, True]), "got True"),
    "state str": (lambda: evolve_spectral(_BASE, ["1", 0, 0, 0, 0, 0], [0.0]), "state amplitudes must be finite"),
    "state bool": (lambda: evolve_spectral(_BASE, [0, True, 0, 0, 0, 0], [0.0]), "got True"),
    "state inf": (lambda: evolve_spectral(_BASE, [0, complex(1, math.inf), 0, 0, 0, 0], [0.0]), "got \\(1\\+infj\\)"),
    "state NaN array": (lambda: evolve_spectral(_BASE, np.array([0, math.nan, 0, 0, 0, 0], dtype=complex), [0.0]),
                        "state contains non-finite amplitudes"),
}


@pytest.mark.parametrize("case", sorted(_REFUSED))
def test_sequences_and_numeric_arguments_are_refused_by_the_scalar_rule(case):
    call, message = _REFUSED[case]
    with pytest.raises(InvalidParameterError, match=message):
        call()


def test_number_arrays_and_numbers_of_any_real_type_are_accepted():
    assert sweep_spectrum_values(_BASE, "g", np.array([0, 1])) == sweep_spectrum_values(_BASE, "g", [0.0, 1.0])
    assert sweep_spectrum_values(_BASE, "g", [0, np.float32(0.5)]) == sweep_spectrum_values(_BASE, "g", [0.0, 0.5])
    assert sweep_spectrum(_BASE, "g", 0, 1, np.int64(3)) == sweep_spectrum(_BASE, "g", 0.0, 1.0, 3)
    assert CharPoly(1.0, 2.0, 3.0).eval(2) == CharPoly(1.0, 2.0, 3.0).eval(2.0) == 91.0
    assert CharPoly(1.0, 2.0, 3.0).eval(np.complex128(1j)) == (1 + 0j)
    expected = evolve_spectral(_BASE, initial_state(2), [0.0, 1.0]).states
    assert (evolve_spectral(_BASE, [0, 1, 0, 0, 0, np.complex64(0)], [0, 1]).states == expected).all()


def test_config_round_trip():
    params = SystemParams(g=0.7556142107, delta=0.562, f1=1.61, f2=0.562, omega0=5.0)
    text = params_to_config(params)
    assert params_from_config(text) == params


def test_config_omega0_optional_defaults_to_zero():
    params = params_from_config("g = 0.5\ndelta = -0.25\nf1 = 1\nf2 = 2\n")
    assert params == SystemParams(g=0.5, delta=-0.25, f1=1.0, f2=2.0, omega0=0.0)


def test_config_accepts_comments_and_compact_form():
    text = "# chain setup\ng=0.1\n\ndelta = 0.0  # on resonance\nf1 = 1.0\nf2 = 1.0\n"
    assert params_from_config(text).g == 0.1


@pytest.mark.parametrize(
    "text",
    [
        "g = 0.5\ndelta = 0\nf1 = 1\n",                      # missing f2
        "g = 0.5\ndelta = 0\nf1 = 1\nf2 = 1\nzeta = 3\n",    # unknown key
        "g = 0.5\ng = 0.6\ndelta = 0\nf1 = 1\nf2 = 1\n",     # duplicate
        "g : 0.5\ndelta = 0\nf1 = 1\nf2 = 1\n",              # malformed line
        "g = abc\ndelta = 0\nf1 = 1\nf2 = 1\n",              # bad number
    ],
)
def test_config_rejects_malformed_input(text):
    with pytest.raises(InvalidParameterError):
        params_from_config(text)


_magnitude = st.one_of(
    st.just(0.0),
    st.floats(min_value=5e-324, max_value=1e-300),  # subnormal and tiny: subnormal widths and steps
    st.floats(min_value=1e-300, max_value=1e300),
    st.integers(min_value=-1074, max_value=1000).map(lambda k: math.ldexp(1.0, k)),
)
_end = st.builds(lambda sign, x: sign * x, st.sampled_from([1.0, -1.0]), _magnitude)


@settings(max_examples=400, deadline=None)
@given(lo=_end, hi=_end, n=st.integers(min_value=2, max_value=5000))
@example(lo=0.0, hi=0.0, n=2001)  # evolve --t-end 0
@example(lo=0.0, hi=-1.0, n=3)  # a negative --t-end: descending
@example(lo=0.0, hi=5e-324, n=5000)  # a subnormal width: the step is 0
@example(lo=1.0, hi=math.nextafter(1.0, 2.0), n=7)
@example(lo=-sys.float_info.max / 2, hi=sys.float_info.max / 2, n=5000)
def test_linspace_is_numpys_bit_for_bit(lo, hi, n):
    assert np.array(_linspace(lo, hi, n)).tobytes() == np.linspace(lo, hi, n).tobytes()
