import cmath
import math
import pickle
import re
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from trichain import (
    DEFAULT_DEGENERACY_TOL,
    ConsistencyError,
    DegenerateSpectrumError,
    DomainError,
    InvalidParameterError,
    PoleError,
    Spectrum,
    SweepRow,
    SweepTable,
    SystemParams,
    build_coupling_matrix,
    char_poly,
    degeneracy_discriminant,
    eigenfrequencies,
    evolve_spectral,
    frequencies_from_charpoly,
    identify_energy_branch,
    initial_state,
    inverse_laplace_s2,
    nonequidistance_error,
    s2_response,
    solve_comb_params,
    sweep_rows_to_csv,
    sweep_spectrum,
    sweep_spectrum_values,
    QUBIT_COUPLING,
    TrichainError,
    branch_constraint,
    comb_constraints,
    energies,
    evolve_rk4,
    propagator,
)
import trichain._columns as columns_module
import trichain.model as model_module
import trichain.spectrum as spectrum_module
from trichain.spectrum import (
    CharPoly,
    _char_poly_coeffs,
    _cluster,
    _coefficient_gap,
    _jacobi,
    _nonequidistance,
    _s2_at,
    _spectrum_record,
    _sweep_points,
)
from conftest import random_params

RESONANT = SystemParams(g=0.0, delta=0.0, f1=1.0, f2=1.0)
DECOUPLED_DETUNED = SystemParams(g=0.0, delta=1.0, f1=1.0, f2=1.0)


def make_spectrum(freqs, tol=1e-7):
    freqs = tuple(sorted(float(f) for f in freqs))
    return Spectrum(frequencies=freqs, degeneracy_tol=tol, clusters=_cluster(freqs, tol))


class TestCharPoly:
    def test_three_identical_pairs(self):
        cp = char_poly(RESONANT)
        assert (cp.c4, cp.c2, cp.c0) == (3.0, 3.0, 1.0)

    def test_constant_term_vanishes_when_detuning_matches_f2(self):
        cp = char_poly(DECOUPLED_DETUNED)
        assert cp.c0 == 0.0
        assert (cp.c4, cp.c2) == (5.0, 4.0)

    def test_comb_coefficients_at_published_detuning(self):
        sol = solve_comb_params(QUBIT_COUPLING, "A")
        params = SystemParams(g=QUBIT_COUPLING, delta=0.56206631, f1=sol.f1, f2=sol.f2)
        cp = char_poly(params)
        assert abs(cp.c4 - 5.0) <= 1e-7
        assert abs(cp.c2 - 4.0) <= 1e-7
        assert abs(cp.c0) <= 1e-7

    def test_matches_expanded_determinant_on_random_draws(self, rng):
        for params in random_params(rng, 200, coupling_hi=2.0, delta_hi=2.0):
            cp = char_poly(params)
            w = np.linalg.eigvalsh(build_coupling_matrix(params))
            expected = np.array([1.0, 0.0, -cp.c4, 0.0, cp.c2, 0.0, -cp.c0])
            numeric = np.poly(w)
            scale = np.maximum(1.0, np.maximum(np.abs(expected), np.abs(numeric)))
            assert np.max(np.abs(numeric - expected) / scale) <= 1e-9

    def test_c0_nonnegative_and_zero_iff_detuning_hits_f2(self, rng):
        for params in random_params(rng, 200, coupling_hi=2.0, delta_hi=2.0):
            c0 = char_poly(params).c0
            assert c0 >= 0.0
            if abs(abs(params.delta) - params.f2) > 1e-6:
                assert c0 > 0.0
        for f2 in (0.25, 1.0, 1.7):
            for sign in (1.0, -1.0):
                params = SystemParams(g=0.4, delta=sign * f2, f1=0.9, f2=f2)
                assert char_poly(params).c0 == 0.0


class TestEigenfrequencies:
    def test_fully_resonant_triple_pair(self):
        spec = eigenfrequencies(RESONANT)
        assert np.allclose(spec.frequencies, [-1, -1, -1, 1, 1, 1], atol=1e-12)
        assert spec.degenerate
        assert spec.clusters == ((-1.0, 3), (1.0, 3))

    def test_decoupled_detuned_comb(self):
        spec = eigenfrequencies(DECOUPLED_DETUNED)
        assert np.allclose(spec.frequencies, [-2, -1, 0, 0, 1, 2], atol=1e-12)
        assert spec.degenerate

    def test_designed_comb_spectrum(self):
        sol = solve_comb_params(QUBIT_COUPLING, "A")
        spec = eigenfrequencies(sol.params)
        assert np.allclose(spec.frequencies, [-2, -1, 0, 0, 1, 2], atol=1e-7)

    def test_closed_form_route_agrees_with_eigensolver(self, rng):
        g, f1, f2 = rng.uniform(0.0, 2.0, (3, 20000))
        delta = rng.uniform(-2.0, 2.0, 20000)
        kernel = six_frequencies_per_point(_jacobi(g, delta, f1, f2)[0])  # eigenfrequencies, batched
        for point, row in zip(zip(g.tolist(), delta.tolist(), f1.tolist(), f2.tolist()), kernel):
            closed = frequencies_from_charpoly(CharPoly(*_char_poly_coeffs(*point)))
            assert np.max(np.abs(closed - row)) <= 1e-9 * row[5]

    def test_mirror_symmetry_and_zero_sum(self, rng):
        for params in random_params(rng, 100, coupling_hi=2.0, delta_hi=2.0):
            freqs = np.array(eigenfrequencies(params).frequencies)
            assert np.max(np.abs(freqs + freqs[::-1])) <= 1e-9
            assert abs(freqs.sum()) <= 1e-9

    def test_near_zero_frequency_pair_passes_the_dual_route_check(self):
        # delta -> +-f2 sends a +-w pair to zero next to a designed comb; both
        # the eigensolver and the closed form (whose small roots are deflated
        # from the largest, through the product -c0/q1) must resolve w there,
        # not only at c0 == 0 exactly.
        for eps in np.logspace(-13, -5, 33):
            for sign in (1.0, -1.0):
                params = SystemParams(g=0.5, delta=sign * (1.0 + eps), f1=1.0, f2=1.0)
                w = eigenfrequencies(params).frequencies[3]
                assert w == pytest.approx(math.sqrt(0.8) * eps, rel=1e-3)
                w = frequencies_from_charpoly(char_poly(params))[3]
                assert w == pytest.approx(math.sqrt(0.8) * eps, rel=1e-3)

    def test_resonant_chain_at_large_coupling(self):
        # The frequency-space check of the closed-form cubic, at an absolute
        # 1e-9, failed 103 of these 301 points (from g = 66 on).
        for g in np.logspace(0, 3, 301):
            eigenfrequencies(RESONANT.replace(g=float(g)))

    def test_rejects_nonpositive_tolerance(self):
        for bad_tol in (0.0, math.nan, math.inf):
            with pytest.raises(InvalidParameterError):
                eigenfrequencies(RESONANT, degeneracy_tol=bad_tol)

    @pytest.mark.parametrize("point", [(0.5, 0.3, 0.8, 0.9), (1.0, 0.0, 1.0, 1.0)])
    def test_check_passes_at_every_scale(self, point):
        # c0, of degree 6, underflows from parameters ~1e-54 down and overflows
        # from ~1e51 up; the check scales the parameters into range first.
        for k in range(-1020, 1021, 20):
            eigenfrequencies(SystemParams(*(x * 2.0**k for x in point)))

    def test_non_finite_frequencies_fail_the_check(self):
        # The eigensolver overflows to +-inf, the gap turns NaN, and a NaN gap
        # must fail the check (silently: a RuntimeWarning fails the test suite).
        # A top frequency beyond the float range is input out of range, not a bug.
        with pytest.raises(DomainError, match="overflows the float range"):
            eigenfrequencies(RESONANT.replace(g=1.7e308))
        with pytest.raises(DomainError, match="overflows .* for g=1.7e.308,"):
            sweep_spectrum_values(RESONANT, "g", [1e170, 1.7e308])


def bits(values):
    return np.array(values, dtype=float).tobytes()


def six_frequencies_per_point(freqs):
    """The kernel's six arrays as one row of six frequencies per point."""
    return np.array(freqs).T


coupling = st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=2.0))
detuning = st.one_of(coupling, st.floats(min_value=-2.0, max_value=-1e-6))


class TestMirrorKernel:
    """``_jacobi``: +-sigma(T) by one-sided Jacobi, for one point or a batch."""

    def test_matches_the_6x6_eigensolver(self, rng):
        draws = random_params(rng, 1000, coupling_hi=2.0, delta_hi=2.0)
        points = [tuple(p)[:4] for p in draws]
        points += [(g, sign * f2, f1, f2) for g, _, f1, f2 in points[:200] for sign in (1.0, -1.0)]
        points += [(g, delta, 0.0, f2) for g, delta, _, f2 in points[:200]]
        points += [(g, 0.0, 1.0, 1.0) for g in np.logspace(-8, 3, 200)]
        got = six_frequencies_per_point(_jacobi(*np.array(points).T)[0])
        reference = np.array([np.linalg.eigvalsh(build_coupling_matrix(SystemParams(*p))) for p in points])
        assert np.all(np.max(np.abs(got - reference), axis=1) <= 1e-14 * reference[:, 5])

    def test_small_singular_value_near_a_zero_pair_against_mpmath(self, rng):
        # delta -> +-f2 sends sigma_1 to 0; the 6x6 eigensolver keeps only an
        # absolute accuracy there (relative error 4e-2 at eps = 1e-14).
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            for eps in np.logspace(-6, -14, 17):
                for sign in (1.0, -1.0):
                    for _ in range(4):
                        g, f1, f2 = (float(x) for x in rng.uniform(0.05, 2.0, 3))
                        delta = sign * f2 * (1.0 + eps)
                        t = mpmath.matrix([[f1, 0, 0], [g, mpmath.mpf(delta) + f2, 0], [-g, 0, mpmath.mpf(delta) - f2]])
                        exact = sorted(mpmath.svd_r(t, compute_uv=False))
                        sigma = _jacobi(g, delta, f1, f2)[0][3:]
                        for got, want in zip(sigma, exact):
                            assert abs(got - want) <= 1e-15 * want

    @settings(max_examples=300, deadline=None)
    @given(g=coupling, delta=detuning, f1=coupling, f2=coupling)
    def test_spectrum_is_a_bitwise_mirror_image(self, g, delta, f1, f2):
        freqs = eigenfrequencies(SystemParams(g, delta, f1, f2)).frequencies
        assert bits(freqs[:3]) == bits([0.0 - w for w in reversed(freqs[3:])])

    @settings(max_examples=300, deadline=None)
    @given(g=coupling, delta=detuning, f1=coupling, f2=coupling, where=st.sampled_from(["+f2", "-f2", "f1=0"]))
    def test_exact_zero_pair_where_c0_vanishes(self, g, delta, f1, f2, where):
        params = {"+f2": (g, f2, f1, f2), "-f2": (g, -f2, f1, f2), "f1=0": (g, delta, 0.0, f2)}[where]
        freqs = eigenfrequencies(SystemParams(*params)).frequencies
        assert bits(freqs[2:4]) == bits([0.0, 0.0])

    @settings(max_examples=300, deadline=None)
    @given(g=coupling, delta=detuning, f1=coupling, f2=coupling, k=st.integers(min_value=-200, max_value=200))
    def test_frequencies_scale_bitwise_with_the_parameters(self, g, delta, f1, f2, k):
        base = eigenfrequencies(SystemParams(g, delta, f1, f2)).frequencies
        scaled = eigenfrequencies(SystemParams(*(math.ldexp(x, k) for x in (g, delta, f1, f2)))).frequencies
        assert bits(scaled) == bits([math.ldexp(w, k) for w in base])

    magnitude = st.floats(min_value=-30.0, max_value=30.0).map(lambda x: 10.0**x)

    @settings(max_examples=200, deadline=None)
    @given(points=st.lists(st.tuples(st.one_of(coupling, magnitude), detuning, st.one_of(coupling, magnitude),
                                     st.one_of(coupling, magnitude)), min_size=1, max_size=20),
           zero_pair=st.booleans())
    def test_a_float_call_and_an_array_call_give_the_same_bits(self, points, zero_pair):
        if zero_pair:
            points = [(g, f2, f1, f2) for g, _, f1, f2 in points]
        batched = six_frequencies_per_point(_jacobi(*np.array(points).T)[0])
        for point, row in zip(points, batched):
            single = _jacobi(*point)[0]
            assert all(type(w) is float for w in single)
            assert bits(single) == row.tobytes()


class TestTinyOuterCoupling:
    """At g = 2, f1 = 1, delta = -f2 with tiny f2, the 6x6 eigensolver lost the
    top frequency (2.9155 for 3, gap 5.3e-2 at f2 = 8.083884767398151e-147)
    and raised a false ConsistencyError on 538 of these 6 000 points."""

    values = np.concatenate([
        np.random.default_rng(0).uniform(1e-147, 1e-146, 3000),
        np.logspace(-170, -140, 3000),
        [8.083884767398151e-147],
    ])

    def test_single_points(self):
        for f2 in self.values.tolist():
            freqs = eigenfrequencies(SystemParams(g=2.0, delta=-f2, f1=1.0, f2=f2)).frequencies
            assert freqs[5] == 3.0 and bits(freqs[2:4]) == bits([0.0, 0.0])

    def test_one_sweep(self):
        base = SystemParams(g=2.0, delta=0.0, f1=1.0, f2=1.0)
        rows = sweep_spectrum_values(base, "f2", self.values, lambda g, delta, f1, f2: (g, -f2, f1, f2))
        freqs = np.array([row.frequencies for row in rows])
        assert len(rows) == len(self.values)
        assert np.all(freqs[:, 5] == 3.0) and bits(freqs[:, 2:4]) == bits(np.zeros((len(rows), 2)))


class TestUnderflowingRotation:
    """At g = 1e-5, delta = 0, f1 = 1, f2 = 1e-79 a pair of T's columns has a
    dot product gamma ~1e-168 that beats its rotation bound, and 4 gamma^2
    read 0: the tangent divided by 0, a ZeroDivisionError on floats and NaN
    with a ConsistencyError on arrays, at valid parameters."""

    point = SystemParams(g=1e-5, delta=0.0, f1=1.0, f2=1e-79)

    def test_both_routes_give_the_singular_values(self):
        mpmath = pytest.importorskip("mpmath")
        freqs = eigenfrequencies(self.point).frequencies
        assert freqs[4:] == (1e-79, 1.0000000001)
        with mpmath.workdps(120):  # a normwise-accurate SVD: 1e-79 of the largest needs > 79 digits
            smallest = min(mpmath.svd_r(mpmath.matrix([[1, 0, 0], [1e-5, 1e-79, 0], [-1e-5, 0, -1e-79]]),
                                        compute_uv=False))
            assert abs(freqs[3] - smallest) <= 2e-16 * smallest
        (row,) = sweep_spectrum_values(self.point, "g", np.array([1e-5]))
        assert bits(row.frequencies) == bits(freqs)

    # g, delta and f2 as m * 2^k times f1, down to below the smallest subnormal,
    # with exact zeros and delta = +-f2.  k is drawn more often near 0 (a g
    # that beats the rotation bound) and near -260 (a product of two such
    # values that squares to below the float range).
    relative = st.one_of(st.just(0.0), st.builds(math.ldexp, st.floats(0.5, 1.0), st.one_of(
        st.integers(-1100, 0), st.integers(-30, 0), st.integers(-290, -240))))

    @settings(max_examples=300, deadline=None)
    @given(f1=st.builds(math.ldexp, st.floats(0.5, 1.0), st.integers(-200, 200)), g=relative, delta=relative,
           f2=relative, sign=st.sampled_from([-1.0, 1.0]), tie=st.sampled_from([False, False, True]))
    @example(f1=1.0, g=1e-5, delta=0.0, f2=1e-79, sign=1.0, tie=False)
    @example(f1=1.0, g=1e-3, delta=1e-79, f2=1e-79, sign=-1.0, tie=True)
    @example(f1=math.ldexp(0.5, -179), g=0.0, delta=0.0, f2=1.0, sign=1.0, tie=False)  # c0 underflows
    def test_whole_dynamic_range(self, f1, g, delta, f2, sign, tie):
        g, f2 = g * f1, f2 * f1
        delta = sign * (f2 if tie else delta * f1)
        params = SystemParams(g=g, delta=delta, f1=f1, f2=f2)
        t = 1.0 / f1
        calls = [
            lambda: frequencies_from_charpoly(char_poly(params)),
            lambda: nonequidistance_error(eigenfrequencies(params)),
            lambda: degeneracy_discriminant(params),
            lambda: s2_response(params, complex(0.3, 0.7) * f1),
            lambda: inverse_laplace_s2(params, [0.0, t]),
            lambda: sweep_spectrum_values(params, "g", [g, 2.0 * g]),
            lambda: sweep_spectrum(params, "f2", f2, f2 + f1, 3),
            lambda: energies(evolve_spectral(params, initial_state(2), [0.0, t])),
            lambda: propagator(params, t),
            lambda: evolve_rk4(params, initial_state(2), dt=0.05 * t, t_end=0.1 * t),
            lambda: comb_constraints(params, f1),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            freqs, _, _, sigma = _jacobi(g, delta, f1, f2)
            arrays, _, _, array_sigma = _jacobi(*(np.array([x]) for x in (g, delta, f1, f2)))
            assert bits(freqs) == bits(np.concatenate(arrays)) and bits(sigma) == bits(np.concatenate(array_sigma))
            for call in calls:
                try:
                    call()
                except ConsistencyError:
                    raise
                except TrichainError:
                    pass


class TestNonequidistanceError:
    def test_perfect_135_comb(self):
        assert nonequidistance_error(make_spectrum([-5, -3, -1, 1, 3, 5])) == 0.0

    def test_123_ladder(self):
        assert nonequidistance_error(make_spectrum([-3, -2, -1, 1, 2, 3])) == 3.0

    def test_resonant_chain_frozen_value(self):
        spec = eigenfrequencies(RESONANT.replace(g=1.0))
        assert nonequidistance_error(spec) == pytest.approx(2.3360975398529873, abs=1e-12)

    def test_scale_invariance(self, rng):
        for _ in range(20):
            w1, d2, d3 = sorted(rng.uniform(0.1, 3.0, 3))
            base = make_spectrum([-w1 - d2 - d3, -w1 - d2, -w1, w1, w1 + d2, w1 + d2 + d3])
            kappa = float(rng.uniform(0.2, 5.0))
            scaled = make_spectrum([kappa * f for f in base.frequencies])
            assert nonequidistance_error(scaled) == pytest.approx(
                nonequidistance_error(base), rel=1e-12, abs=1e-12
            )

    def test_degenerate_spectrum_not_applicable(self):
        with pytest.raises(DegenerateSpectrumError):
            nonequidistance_error(eigenfrequencies(RESONANT))

    def test_zero_lowest_frequency_not_applicable(self):
        spec = make_spectrum([-2, -1, -1e-9, 1e-9, 1, 2])
        with pytest.raises(DegenerateSpectrumError):
            nonequidistance_error(spec)

    # Undefined at equality: a neighbour gap of exactly tol (w1 > tol), and
    # w1 of exactly tol (every gap > tol); defined just above both.
    @pytest.mark.parametrize("freqs, tol", [([-11, -8, -4, 4, 8, 11], 3.0), ([-9, -5, -1, 1, 5, 9], 1.0)])
    def test_undefined_at_the_tolerance(self, freqs, tol):
        with pytest.raises(DegenerateSpectrumError):
            nonequidistance_error(make_spectrum(freqs, tol))
        above = make_spectrum(freqs, math.nextafter(tol, 0.0))
        assert not above.degenerate and nonequidistance_error(above) > 0.0


def exact_discriminant(params):
    """The cubic's discriminant in rational arithmetic, unrounded."""
    c4, c2, c0 = _char_poly_coeffs(*(Fraction(x) for x in tuple(params)[:4]))
    return 18 * c4 * c2 * c0 - 4 * c4**3 * c0 + c4**2 * c2**2 - 4 * c2**3 - 27 * c0**2


def scaled(params, k):
    return SystemParams(*(math.ldexp(x, k) for x in tuple(params)[:4]))


def coefficients_are_normal_or_zero(params):
    return all(x == 0.0 or abs(x) >= np.finfo(float).tiny for x in tuple(char_poly(params)))


# Generic points and the near-degenerate manifolds: the resonant chain's
# triple |w| approached along g, the zero pair along delta = +-f2 (1 +- 10^u),
# and designed combs (a double zero) scaled by 2^k.
generic_points = st.builds(SystemParams, coupling, detuning, coupling, coupling)
resonant_points = st.floats(min_value=-10.0, max_value=-1.0).map(lambda u: RESONANT.replace(g=10.0**u))
near_zero_pair_points = st.builds(
    lambda g, f1, f2, sign, side, u: SystemParams(g=g, delta=sign * f2 * (1.0 + side * 10.0**u), f1=f1, f2=f2),
    coupling, coupling, st.floats(min_value=1e-2, max_value=2.0), st.sampled_from([-1.0, 1.0]),
    st.sampled_from([-1.0, 1.0]), st.floats(min_value=-12.0, max_value=-1.0),
)


def scaled_combs(k_max):
    return st.builds(
        lambda g, branch, k: scaled(solve_comb_params(g, branch).params, k),
        st.floats(min_value=0.05, max_value=1.0), st.sampled_from("AB"),
        st.integers(min_value=-k_max, max_value=k_max),
    )


class TestClosedFormCubic:
    """``frequencies_from_charpoly``: normalized by a power of four, the
    most negative root from the trigonometric form, the other two deflated."""

    GENERIC = SystemParams(g=0.5, delta=0.3, f1=0.8, f2=0.9)

    physical = st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=2.0))
    family = st.one_of(
        st.builds(SystemParams, physical, st.one_of(physical, physical.map(lambda x: -x)), physical, physical),
        st.builds(
            lambda g, f1, f2, sign, u: SystemParams(g=g, delta=sign * f2 * (1.0 + u), f1=f1, f2=f2),
            physical, physical, st.floats(min_value=1e-2, max_value=2.0), st.sampled_from([-1.0, 1.0]),
            st.builds(lambda sign, u: sign * 10.0**u, st.sampled_from([-1.0, 1.0]),
                      st.floats(min_value=-8.0, max_value=-1.0)),
        ),
        st.builds(lambda g, branch: solve_comb_params(g, branch).params,
                  st.floats(min_value=0.05, max_value=1.0), st.sampled_from("AB")),
    )

    @settings(max_examples=300, deadline=None)
    @given(params=family, k=st.integers(min_value=-150, max_value=150))
    @example(params=GENERIC, k=-40)  # a false triple root 1.11e-12 from k = -12 down
    def test_frequencies_scale_bitwise_and_match_the_kernel(self, params, k):
        # The parameters' char_poly scales exactly unless a coefficient is subnormal.
        point = scaled(params, k)
        assume(coefficients_are_normal_or_zero(params) and coefficients_are_normal_or_zero(point))
        base = frequencies_from_charpoly(char_poly(params))
        assert bits(frequencies_from_charpoly(char_poly(point))) == bits([math.ldexp(w, k) for w in base])
        assert _coefficient_gap(base, *params[:4]) <= 1e-14  # the kernel's rule, with its margin (worst seen 2.2e-15)
        kernel = np.array(eigenfrequencies(params).frequencies)
        squares = kernel[3:] ** 2
        if np.min(np.diff(squares)) >= 1e-3 * squares[2]:  # no repeated root (see the resonant scan)
            assert np.max(np.abs(np.array(base) - kernel)) <= 1e-9 * kernel[5]

    def test_resonant_triple_root_with_a_multiplicity_aware_tolerance(self):
        # A triple root's members are conditioned like eps^(1/3); their mean is
        # conditioned like eps.
        for g in np.logspace(-8, -1, 400):
            params = RESONANT.replace(g=float(g))
            closed = np.array(frequencies_from_charpoly(char_poly(params)))
            kernel = np.array(eigenfrequencies(params).frequencies)
            assert np.max(np.abs(closed - kernel)) <= 1e-5
            assert abs(closed[3:].mean() - kernel[3:].mean()) <= 1e-9 * kernel[3:].mean()

    @settings(max_examples=300, deadline=None)
    @given(g=coupling, delta=detuning, f1=coupling, f2=coupling, where=st.sampled_from(["+f2", "-f2", "f1=0"]))
    def test_exact_zero_pair_where_c0_vanishes(self, g, delta, f1, f2, where):
        params = {"+f2": (g, f2, f1, f2), "-f2": (g, -f2, f1, f2), "f1=0": (g, delta, 0.0, f2)}[where]
        freqs = frequencies_from_charpoly(char_poly(SystemParams(*params)))
        assert bits(freqs[2:4]) == bits([0.0, 0.0])

    @pytest.mark.parametrize("branch", ["A", "B"])
    def test_designed_combs_keep_an_exact_zero_pair(self, branch):
        for g in np.linspace(0.05, 1.0, 20):
            freqs = frequencies_from_charpoly(char_poly(solve_comb_params(float(g), branch).params))
            assert bits(freqs[2:4]) == bits([0.0, 0.0])
            assert np.allclose(freqs, [-2, -1, 0, 0, 1, 2], atol=1e-12)

    def test_overflowing_coefficients_are_refused(self):
        # c0 overflows from 2^171 up, where the closed form returned 2.07e51,
        # 2.07e51, 4.22e51 for the positive half; c2 too at 2^300 (it returned NaN).
        for k in (171, 300):
            with pytest.raises(DomainError, match="finite real number"):
                frequencies_from_charpoly(char_poly(scaled(self.GENERIC, k)))
        frequencies_from_charpoly(char_poly(scaled(self.GENERIC, 170)))
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(DomainError, match="c0 must be a finite real number"):
                frequencies_from_charpoly(CharPoly(1.0, 0.25, bad))

    def test_vanishing_or_tiny_c4(self):
        # The three roots, all <= 0, sum to -c4.
        assert bits(frequencies_from_charpoly(CharPoly(0.0, 0.0, 0.0))) == bits([0.0] * 6)
        for c2, c0 in [(1.0, 0.0), (0.0, 1.0), (0.0, -1.0), (1e-300, 0.0)]:
            with pytest.raises(ConsistencyError):
                frequencies_from_charpoly(CharPoly(0.0, c2, c0))
        with pytest.raises(ConsistencyError):
            frequencies_from_charpoly(CharPoly(-1.0, 0.0, 0.0))
        with pytest.raises(ConsistencyError):  # c2 overflows when divided by c4^2
            frequencies_from_charpoly(CharPoly(1e-200, 1.0, 0.0))

    roots = st.floats(min_value=0.0, max_value=2.0)

    @settings(max_examples=300, deadline=None)
    @given(
        real=roots, pair=st.tuples(st.floats(min_value=-2.0, max_value=2.0), st.floats(min_value=1e-3, max_value=2.0)),
        positive=st.tuples(roots, roots, st.floats(min_value=1e-3, max_value=2.0)), complex_pair=st.booleans(),
        k=st.integers(min_value=-100, max_value=100),
    )
    # q = -1.6328125 and -1.625 +- 0.001i: the real root leaves a residual of only ~2e-12
    @example(real=1.6328125, pair=(-1.625, 0.001), positive=(0.0, 0.0, 1e-3), complex_pair=True, k=0)
    def test_cubics_without_three_real_nonpositive_roots_are_refused(self, real, pair, positive, complex_pair, k):
        # Built from its roots in q: -real and x +- iy, or two roots <= 0 and one > 0.
        if complex_pair:
            (x, y), r = pair, -real
            coefficients = (-(2.0 * x + r), x * x + y * y + 2.0 * x * r, -r * (x * x + y * y))
        else:
            a, b, c = -positive[0], -positive[1], positive[2]
            coefficients = (-(a + b + c), a * b + a * c + b * c, -a * b * c)
        with pytest.raises(ConsistencyError):
            frequencies_from_charpoly(CharPoly(*(math.ldexp(x, 2 * n * k) for n, x in enumerate(coefficients, 1))))

    def test_complex_pairs_near_the_real_axis_are_refused(self):
        # The pair x +- iy sits within 0.05 of the real root -r, y in [1e-3, 1e-1]:
        # the clamped discriminant makes it a real double root, which only the
        # coefficients can tell apart.
        rng = np.random.default_rng(56)
        accepted = []
        for _ in range(5000):
            r = rng.uniform(0.0, 2.0)
            x, y = -r + rng.uniform(-0.05, 0.05), 10.0 ** rng.uniform(-3.0, -1.0)
            cp = CharPoly(r - 2.0 * x, x * x + y * y - 2.0 * x * r, r * (x * x + y * y))
            try:
                accepted.append((cp, frequencies_from_charpoly(cp)))
            except ConsistencyError:
                pass
        assert accepted == []


class TestDegeneracyDiscriminant:
    def test_triple_root(self):
        report = degeneracy_discriminant(RESONANT)
        assert report.discriminant == 0.0
        assert not report.zero_frequency_pair

    def test_zero_frequency_pair_flag(self):
        report = degeneracy_discriminant(DECOUPLED_DETUNED)
        assert report.discriminant == pytest.approx(144.0, abs=1e-9)
        assert report.zero_frequency_pair

    def test_generic_point_not_degenerate(self):
        report = degeneracy_discriminant(RESONANT.replace(g=0.5))
        assert report.discriminant == pytest.approx(0.5625, abs=1e-12)
        assert not report.zero_frequency_pair
        spec = eigenfrequencies(RESONANT.replace(g=0.5))
        assert not spec.degenerate

    def test_random_draws_agree_with_clustering(self, rng):
        for params in random_params(rng, 100):
            report = degeneracy_discriminant(params)
            spec = eigenfrequencies(params)
            if not spec.degenerate:
                assert abs(report.discriminant) > 0.0
                assert not report.zero_frequency_pair

    @pytest.mark.parametrize("g", [1e39, 1e60, 1e200])
    def test_overflowing_discriminant_is_refused(self, g):
        # The discriminant, of degree 12, is beyond the float range: bad
        # input (DomainError), not a bug.  The spectrum of the same point is
        # fine: the kernel and the check both normalize, and it agrees with
        # the 6x6 eigensolver to its precision.
        params = RESONANT.replace(g=g)
        with pytest.raises(DomainError, match="outside the float range"):
            degeneracy_discriminant(params)
        numeric = np.linalg.eigvalsh(build_coupling_matrix(params))
        freqs = np.array(eigenfrequencies(params).frequencies)
        assert np.max(np.abs(freqs - numeric)) <= 1e-14 * numeric[5]


    GENERIC = SystemParams(g=0.5, delta=0.3, f1=0.8, f2=0.9)
    COMBS = [solve_comb_params(0.5, "A").params, solve_comb_params(0.5, "B").params,
             solve_comb_params(QUBIT_COUPLING, "A").params]

    def test_zero_pair_flag_is_the_same_at_every_scale(self):
        # The flag had an absolute floor: the generic point reported a zero
        # pair for every k <= -7.  Where the discriminant leaves the float
        # range (k >= 86 here, k >= 85 for the combs) DomainError is raised.
        for params, flag, first_overflow in [(self.GENERIC, False, 86)] + [(c, True, 85) for c in self.COMBS]:
            base = degeneracy_discriminant(params).discriminant
            for k in range(-200, 201):
                point = scaled(params, k)
                if k >= first_overflow:
                    with pytest.raises(DomainError):
                        degeneracy_discriminant(point)
                    continue
                report = degeneracy_discriminant(point)
                assert report.zero_frequency_pair is flag, k
                if abs(report.discriminant) >= np.finfo(float).tiny:
                    assert report.discriminant == math.ldexp(base, 12 * k)  # exact scaling
            for k in (-600, -900, -1000):  # delta^2 + f2^2 is below the float range here
                assert degeneracy_discriminant(scaled(params, k)).zero_frequency_pair is flag

    @pytest.mark.parametrize("params", [
        SystemParams(g=2.0, delta=1e-80, f1=1e-80, f2=1e-80),
        SystemParams(g=2.0, delta=0.0, f1=1e-240, f2=1e-240),
        SystemParams(g=1e30, delta=1e-45, f1=1e-45, f2=2e-45),
        SystemParams(g=1e-100, delta=3e-300, f1=1e-280, f2=2e-300),
    ])
    def test_discriminant_across_a_wide_parameter_spread(self, params):
        # Parameters up to 240 orders of magnitude apart, whose terms span far
        # more than the float range: still the exact value, rounded once.
        assert degeneracy_discriminant(params).discriminant == float(exact_discriminant(params))

    coupling = st.floats(min_value=0.0, max_value=2.0)

    # Near-degenerate families: the resonant chain's triple |w| approached
    # along g, the zero pair approached along delta = +-f2 (1 + eps), and
    # designed combs (a double zero) scaled by 2^k.
    near_degenerate = st.one_of(
        st.floats(min_value=-8.0, max_value=-1.0).map(lambda u: RESONANT.replace(g=10.0**u)),
        st.builds(
            lambda g, f1, f2, sign, eps: SystemParams(g=g, delta=sign * f2 * (1.0 + eps), f1=f1, f2=f2),
            coupling, coupling, st.floats(min_value=0.01, max_value=2.0), st.sampled_from([-1.0, 1.0]),
            st.builds(lambda sign, u: sign * 10.0**u, st.sampled_from([-1.0, 1.0]),
                      st.floats(min_value=-16.0, max_value=-1.0)),
        ),
        st.builds(
            lambda g, branch, k: scaled(solve_comb_params(g, branch).params, k),
            st.floats(min_value=0.05, max_value=1.0), st.sampled_from(["A", "B"]),
            st.integers(min_value=-120, max_value=80),
        ),
    )

    @settings(max_examples=300, deadline=None)
    @given(params=near_degenerate)
    def test_exact_value_rounded_once_near_degeneracy(self, params):
        disc = degeneracy_discriminant(params).discriminant
        assert disc == float(exact_discriminant(params)) and disc >= 0.0

    def test_never_negative_toward_the_triple_root(self):
        # A float evaluation read negative, impossible for real roots, at 112
        # of these 400 points.
        for g in np.logspace(-8, -1, 400):
            params = RESONANT.replace(g=float(g))
            disc = degeneracy_discriminant(params).discriminant
            assert disc == float(exact_discriminant(params)) and disc >= 0.0


class TestS2Response:
    GENERIC = SystemParams(g=0.7, delta=-0.4, f1=1.1, f2=0.8)

    def test_initial_value_theorem(self):
        p = 1e6
        assert abs(p * s2_response(self.GENERIC, p) - 1.0) <= 1e-9

    @pytest.mark.parametrize("p", [1e60, 1e60j, complex(1e300, -1e300)])
    def test_far_out_p_gives_its_value(self, p):
        # p^6 alone is beyond the float range here.
        assert p * s2_response(self.GENERIC, p) == pytest.approx(1.0, abs=1e-15)

    def test_decoupled_rabi_pole_structure(self):
        value = s2_response(RESONANT, 0.5j)
        assert value == pytest.approx(0.5j / 0.75, abs=1e-14)

    def test_pole_error_at_root(self):
        with pytest.raises(PoleError):
            s2_response(RESONANT, 1j)

    @pytest.mark.parametrize(
        "p", [math.nan, math.inf, -math.inf, complex(0.0, math.inf), complex(1.0, math.nan), 10**400, "1e6"]
    )
    def test_rejects_p_that_is_not_a_finite_number(self, p):
        with pytest.raises(InvalidParameterError, match="p must be a finite number"):
            s2_response(self.GENERIC, p)

    def test_value_beyond_the_float_range_is_a_domain_error(self):
        # f1 = 0 puts a pole at p = 0, where the response is 1/p here.
        params = SystemParams(g=0.0, delta=1e-300, f1=0.0, f2=5e-301)
        assert s2_response(params, 1e-305) == pytest.approx(1e305, rel=1e-14)
        with pytest.raises(DomainError, match="outside the float range"):
            s2_response(params, 1e-310)

    @settings(max_examples=300, deadline=None)
    @given(params=generic_points, re=st.floats(allow_nan=False, allow_infinity=False),
           im=st.floats(allow_nan=False, allow_infinity=False))
    def test_finite_p_gives_a_value_or_a_package_error(self, params, re, im):
        try:
            value = s2_response(params, complex(re, im))
        except TrichainError:
            return
        assert cmath.isfinite(value)


def s2_oracle(mpmath, params, t):
    """s2(t) = sum_k V[1,k]^2 cos(w_k t) from an mpmath eigendecomposition of M."""
    w, v = mpmath.eigsy(mpmath.matrix(build_coupling_matrix(params).tolist()))
    return float(mpmath.fsum(v[1, k] ** 2 * mpmath.cos(w[k] * t) for k in range(6)))


class TestInverseLaplace:
    """``inverse_laplace_s2``: the second divided difference of N3(q)*cos(t*sqrt(-q))
    over the closed-form roots of the cubic, checked against the propagator."""

    def test_residue_sum_is_initial_value(self, rng):
        for params in random_params(rng, 20):
            assert inverse_laplace_s2(params, [0.0])[0] == 1.0

    def test_triple_pole_decoupled_cosine(self):
        t = np.linspace(0.0, 2.0 * math.pi, 40)
        values = inverse_laplace_s2(RESONANT, t)
        assert values.dtype == np.float64
        assert np.array_equal(values, np.cos(t))
        assert inverse_laplace_s2(RESONANT, [math.pi])[0] == -1.0
        # The other triple root, f2 = 0 with f1 = |delta|: its closed-form
        # roots are ~5e-9 apart, and the first term is still ~eps.
        off = SystemParams(g=0.0, delta=-0.3, f1=0.3, f2=0.0)
        assert np.max(np.abs(inverse_laplace_s2(off, t) - np.cos(0.3 * t))) <= 1e-15

    def test_designed_comb_empties_central_atom_at_half_period(self):
        branch = identify_energy_branch()
        sol = solve_comb_params(QUBIT_COUPLING, branch)
        value = inverse_laplace_s2(sol.params, [math.pi])[0]
        assert abs(value) ** 2 <= 1e-7

    @pytest.mark.parametrize("bad_time", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_times(self, bad_time):
        with pytest.raises(InvalidParameterError, match="times must be finite"):
            inverse_laplace_s2(RESONANT.replace(g=0.5), [0.0, bad_time])

    @pytest.mark.parametrize("times", [1.0, np.float64(1.0), np.array(1.0), [[0.0, 1.0]], [], np.empty((0, 2))],
                             ids=["float", "float64", "0-d", "2-d", "empty", "empty 2-d"])
    def test_rejects_times_that_are_not_a_non_empty_1d_sequence(self, times):
        with pytest.raises(InvalidParameterError, match="times must be a non-empty 1-d sequence"):
            inverse_laplace_s2(RESONANT.replace(g=0.5), times)

    @settings(max_examples=300, deadline=None)
    @given(params=st.one_of(generic_points, scaled_combs(0)),
           t=st.floats(min_value=0.0, max_value=4.0 * math.pi))
    def test_float_time_agrees_with_array_time(self, params, t):
        # A float time runs on math, an array on numpy; their sin and cos may
        # round differently, by ~1 ulp each.
        value = _s2_at(params, t)
        assert type(value) is float
        assert abs(value - _s2_at(params, np.array([t]))[0]) <= 4.0 * 2.0**-52

    def test_near_the_resonant_triple_root(self):
        # Merging poles closer than 1e-7 and summing separate residues of the
        # others was off by 1.9e-3 at g = 1.585e-7 (frequency gaps 1.1e-7).
        v0 = initial_state(2)
        times = np.linspace(0.0, 2.0 * math.pi, 201)
        params = RESONANT.replace(g=1.585e-7)
        error = np.max(np.abs(inverse_laplace_s2(params, times) - evolve_spectral(params, v0, times).states[:, 1]))
        assert error <= 1e-12
        # Over ten periods the cancellation in phi[q1,q2,q3] grows, to ~3e-12.
        times = np.linspace(0.0, 20.0 * math.pi, 2001)
        for g in np.logspace(-10, -1, 46):
            params = RESONANT.replace(g=float(g))
            laplace = inverse_laplace_s2(params, times)
            assert np.max(np.abs(laplace - evolve_spectral(params, v0, times).states[:, 1])) <= 1e-10

    @settings(max_examples=300, deadline=None)
    @given(params=st.one_of(generic_points, resonant_points, near_zero_pair_points, scaled_combs(20)),
           k=st.integers(min_value=-200, max_value=200))
    def test_matches_propagator_on_random_draws(self, params, k):
        # One revival period in units of the comb spacing sqrt(c4 / 5).
        unit = math.sqrt(char_poly(params).c4 / 5.0) or 1.0
        times = np.linspace(0.0, 2.0 * math.pi / unit, 25)
        values = inverse_laplace_s2(params, times)
        spectral = evolve_spectral(params, initial_state(2), times).states[:, 1]
        assert values.dtype == np.float64
        assert np.max(np.abs(values - spectral)) <= 1e-12
        assert bits(inverse_laplace_s2(scaled(params, k), np.ldexp(times, -k))) == bits(values)

    def test_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        points = [
            RESONANT.replace(g=1.585e-7),
            RESONANT.replace(g=1e-4),
            SystemParams(g=0.4, delta=0.9 * (1.0 + 1e-9), f1=0.7, f2=0.9),
            SystemParams(g=0.4, delta=-0.9 * (1.0 - 1e-6), f1=0.7, f2=0.9),
            scaled(solve_comb_params(QUBIT_COUPLING, "A").params, 7),
            solve_comb_params(0.3, "B").params,
        ]
        with mpmath.workdps(40):
            for params in points:
                unit = math.sqrt(char_poly(params).c4 / 5.0)
                times = np.array([0.3, 1.0, math.pi, 6.0]) / unit
                exact = [s2_oracle(mpmath, params, mpmath.mpf(float(t))) for t in times]
                assert np.max(np.abs(inverse_laplace_s2(params, times) - exact)) <= 1e-14


class TestSweep:
    def test_two_point_sweep(self):
        rows = sweep_spectrum(RESONANT, "g", 0.0, 3.0, 2)
        assert len(rows) == 2
        assert rows[0].param == 0.0 and rows[1].param == 3.0

    def test_resonant_sweep_splits_into_six(self):
        rows = sweep_spectrum(RESONANT, "g", 0.0, 3.0, 31)
        assert rows[0].degenerate and rows[0].delta_err is None
        for row in rows[1:]:
            assert not row.degenerate
            assert len(set(row.frequencies)) == 6
            assert row.delta_err > 0.0

    def test_constraint_rederives_couplings_from_g(self):
        from trichain import branch_constraint

        # Base carries deliberately wrong f1, f2; the constraint must replace
        # them with the branch values at the base g while delta is swept.
        sol = solve_comb_params(QUBIT_COUPLING, "A")
        base = SystemParams(g=QUBIT_COUPLING, delta=0.0, f1=1.0, f2=1.0)
        values = [sol.f2 - 0.1, sol.f2, sol.f2 + 0.1]
        rows = sweep_spectrum_values(base, "delta", values, constraint=branch_constraint("A"))
        assert [row.degenerate for row in rows] == [False, True, False]
        assert np.allclose(rows[1].frequencies, [-2, -1, 0, 0, 1, 2], atol=1e-7)

    @pytest.mark.parametrize("shape", [
        lambda g, delta, f1, f2: (g, delta, f1),
        lambda g, delta, f1, f2: (g, delta, f1, f2, 0.0),
        lambda g, delta, f1, f2: (g, delta, f1, np.append(f2, 1.0)),  # one value too many
    ], ids=["three columns", "five columns", "a column of length n + 1"])
    def test_constraint_must_return_four_columns_of_the_grid(self, shape):
        message = ("a sweep constraint must return four columns (g, delta, f1, f2), each a scalar or of the "
                   "grid's length")
        for sweep in (sweep_spectrum_values, _sweep_points):
            with pytest.raises(InvalidParameterError) as excinfo:
                sweep(RESONANT, "g", [0.1, 0.5, 0.9], shape)
            assert str(excinfo.value) == message

    def test_constraint_scalars_broadcast(self):
        def fixed_couplings(g, delta, f1, f2):
            return g, delta, 0.5, 2
        rows = sweep_spectrum_values(RESONANT, "g", [0.1, 0.5, 0.9], fixed_couplings)
        assert list(rows) == _sweep_points(RESONANT, "g", [0.1, 0.5, 0.9], fixed_couplings)
        assert list(rows) == list(sweep_spectrum_values(RESONANT.replace(f1=0.5, f2=2.0), "g", [0.1, 0.5, 0.9]))

    def test_comb_sweep_through_a_near_zero_frequency_pair(self):
        # Branch B's f2(g) crosses delta near g = 0.8505, where a grid point
        # lands 9e-9 from delta = f2 (w = 6e-9).
        base = SystemParams(g=0.0361276895958315, delta=0.8507441372323128, f1=1.0, f2=1.0)
        rows = sweep_spectrum(base, "g", base.g, 0.9464444958780593, 2021, branch_constraint("B"))
        assert min(row.frequencies[3] for row in rows) < 1e-8

    def test_detuning_sweep_flags_only_the_comb_point(self):
        sol = solve_comb_params(QUBIT_COUPLING, "A")
        values = [sol.f2 - 0.1, sol.f2, sol.f2 + 0.1]
        rows = sweep_spectrum_values(sol.params, "delta", values)
        assert [row.degenerate for row in rows] == [False, True, False]

    @pytest.mark.parametrize("lo, hi", [(0.0, math.inf), (-math.inf, 1.0), (math.nan, 1.0), (0.0, math.nan),
                                        (-1e308, 1e308)])
    def test_non_finite_range_rejected_before_the_grid(self, lo, hi):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidParameterError, match="sweep range must be finite"):
                sweep_spectrum(RESONANT, "delta", lo, hi, 3)

    def test_unknown_parameter_rejected(self):
        with pytest.raises(InvalidParameterError):
            sweep_spectrum(RESONANT, "omega0", 0.0, 1.0, 5)
        with pytest.raises(InvalidParameterError):
            sweep_spectrum(RESONANT, "g", 1.0, 0.0, 5)
        with pytest.raises(InvalidParameterError):
            sweep_spectrum(RESONANT, "g", 0.0, 1.0, 1)
        with pytest.raises(InvalidParameterError):
            sweep_spectrum_values(RESONANT, "g", [[0.1, 0.2], [0.3, 0.4]])

    def test_csv_format(self):
        rows = sweep_spectrum(RESONANT, "g", 0.0, 1.0, 3)
        text = sweep_rows_to_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == "param,w1,w2,w3,w4,w5,w6,delta,degenerate"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[0] == "0" and first[7] == "" and first[8] == "true"
        last = lines[3].split(",")
        assert last[8] == "false" and float(last[7]) > 0.0


def reference_csv_number(x) -> str:
    """Reference: one ``format`` call per CSV field."""
    return format(x, ".12g")


def reference_sweep_csv(rows) -> str:
    lines = ["param,w1,w2,w3,w4,w5,w6,delta,degenerate"]
    for row in rows:
        freq = ",".join(reference_csv_number(w) for w in row.frequencies)
        delta = "" if row.delta_err is None else reference_csv_number(row.delta_err)
        flag = "true" if row.degenerate else "false"
        lines.append(f"{reference_csv_number(row.param)},{freq},{delta},{flag}")
    return "\n".join(lines) + "\n"


def reference_numeric_csv(header, rows) -> str:
    return "\n".join([header, *(",".join(reference_csv_number(x) for x in row) for row in rows)]) + "\n"


EDGE_VALUES = [-0.0, 0.0, 5e-324, -5e-324, 1e-17, 1e308, -1e308, 0.1, 1 / 3, 123456789012.5, 2.0**-1074 * 3]


class TestCsvWritersMatchPerFieldFormat:
    def test_sweep_rows(self):
        tables = (sweep_spectrum(RESONANT, "g", 0.0, 3.0, 61),
                  sweep_spectrum(solve_comb_params(QUBIT_COUPLING, "A").params, "delta", 0.0, 2.0, 41))
        rows = [*tables[0], *tables[1]]
        assert any(row.delta_err is None for row in rows) and any(row.delta_err is not None for row in rows)
        assert sweep_rows_to_csv(rows) == reference_sweep_csv(rows)
        for table in tables:
            assert sweep_rows_to_csv(table) == reference_sweep_csv(table)

    def test_tables_of_any_columns(self, rng):
        # Not the kernel's: w1..w3 no mirror of w6..w4, and numbers of every kind in every column.
        values = rng.integers(0, 2**64, size=(9, 600), dtype=np.uint64).view(np.float64)
        values[:, ::7] = rng.choice(np.array(EDGE_VALUES + [math.inf, -math.inf, math.nan]), size=(9, 86))
        table = SweepTable(values[0], values[1:7], values[7], values[8] > 0.0)
        assert sweep_rows_to_csv(table) == reference_sweep_csv(table)
        positive = np.where(np.isnan(values[4:7]), 1.0, values[4:7])  # a NaN has no mirror
        mirrored = SweepTable(values[0], (*(0.0 - positive[::-1]), *positive), values[7], values[8] > 0.0)
        assert sweep_rows_to_csv(mirrored) == reference_sweep_csv(mirrored)
        signed_zeros = SweepTable([0.0], [[-0.0], [0.0], [-0.0], [0.0], [-0.0], [0.0]], [0.0], [False])
        assert sweep_rows_to_csv(signed_zeros) == reference_sweep_csv(signed_zeros)  # -0.0 == 0.0 - 0.0, but not bitwise

    def test_sweep_edge_values_and_cell_types(self):
        values = EDGE_VALUES + [np.float64(2.5e-300), np.float64(-7.25), 3, -12, 10**20]
        rows = []
        for k, value in enumerate(values):
            freqs = tuple(values[(k + j) % len(values)] for j in range(6))
            for delta_err in (values[(k + 6) % len(values)], None):
                rows += [SweepRow(value, freqs, delta_err, flag) for flag in (False, True)]
        assert sweep_rows_to_csv(rows) == reference_sweep_csv(rows)

    def test_sweep_zero_rows(self):
        assert sweep_rows_to_csv([]) == reference_sweep_csv([]) == "param,w1,w2,w3,w4,w5,w6,delta,degenerate\n"

    def test_numeric_csv(self):
        values = EDGE_VALUES + [math.inf, -math.inf, math.nan, np.float64(1e-300), np.float64(-2.5), 7, 0, -10**20]
        rows = [tuple(values[(k + j) % len(values)] for j in range(3)) for k in range(len(values))]
        rows.append(np.array([0.25, np.inf, np.nan]))
        assert model_module._csv("a,b,c", rows) == reference_numeric_csv("a,b,c", rows)
        assert model_module._csv("a,b,c", []) == reference_numeric_csv("a,b,c", []) == "a,b,c\n"

    def test_random_bit_patterns(self, rng):
        values = rng.integers(0, 2**64, size=6000, dtype=np.uint64).view(np.float64).tolist()
        rows = [tuple(values[k:k + 6]) for k in range(0, len(values), 6)]
        assert model_module._csv("a,b,c,d,e,f", rows) == reference_numeric_csv("a,b,c,d,e,f", rows)
        sweep_rows = [SweepRow(row[0], row, row[1], False) for row in rows]
        assert sweep_rows_to_csv(sweep_rows) == reference_sweep_csv(sweep_rows)


def array_num(values) -> list[str]:
    """``_columns._num_frames`` of ``values``, as one string per value."""
    frames = columns_module._num_frames(np.asarray(values, dtype=float))
    lines = np.concatenate([frames, np.full((len(frames), 1), ord("\n"), np.uint8)], axis=1)
    return lines.tobytes().translate(None, b"\0").decode("ascii").split("\n")[:-1]


def powers_of_ten_and_neighbours() -> np.ndarray:
    """10^k for k in -324..308 and the four floats on each side of it."""
    powers = np.array([float(f"1e{k}") for k in range(-324, 309)])
    values = [powers]
    for direction in (-np.inf, np.inf):
        step = powers
        for _ in range(4):
            step = np.nextafter(step, direction)
            values.append(step)
    return np.concatenate(values)


class TestArrayNumberFormat:
    """``_columns._num_frames``, the array form of ``_NUM``, gives ``_NUM % x``
    for every float: exactly scaled digits where they are safe, and CPython's
    own formatting elsewhere, side by side in one array."""

    def test_every_kind_of_float_in_one_array(self, rng):
        switch_points = np.array([9.999999999995e-5, 99999999999.95, 999999999999.5, 1e-4, 1e11, 1e12, 1e-5])
        switch_neighbours = [np.nextafter(switch_points, d) for d in (-np.inf, np.inf)]
        ties = np.arange(1, 50_001) * 2.0**-17  # among them exact ties at the 12th digit
        decimal_ties = np.array([float(f"{d}5e{k}") for d, k in zip(rng.integers(10**11, 10**12, 4000).tolist(),
                                                                      rng.integers(-27, 8, 4000).tolist())])
        near_ties = [np.nextafter(decimal_ties, d) for d in (-np.inf, np.inf)]  # their scaled values may read a tie
        values = np.concatenate([
            rng.integers(0, 2**64, size=100_000, dtype=np.uint64).view(np.float64),
            EDGE_VALUES, [0.0, -0.0, 5e-324, 2.0**-1022 - 2.0**-1074, math.inf, -math.inf, math.nan, -math.nan],
            powers_of_ten_and_neighbours(), switch_points, *switch_neighbours, ties, decimal_ties, *near_ties,
            rng.uniform(0.0, 10.0, 10_000), 10.0 ** rng.uniform(-12.0, 35.0, 10_000),
        ])
        values = rng.permutation(np.concatenate([values, -values]))
        assert array_num(values) == [reference_csv_number(x) for x in values.tolist()]

    def test_ties_take_the_fallback(self):
        ties = np.array([0.5 + 2.0**-40, 123456789012.5, 1.0000000000005, 2.0**-17 * 3])
        assert array_num(ties) == [reference_csv_number(x) for x in ties.tolist()]

    @settings(max_examples=100, deadline=None)
    @given(values=st.lists(st.floats(), min_size=1, max_size=40))
    def test_any_floats(self, values):
        assert array_num(values) == [reference_csv_number(x) for x in values]


class TestSweepTableContract:
    def test_immutable_sliceable_and_equal_by_rows(self):
        table = sweep_spectrum(RESONANT, "g", 0.0, 3.0, 31)
        rows = list(table)
        assert type(rows) is list and len(rows) == len(table) == 31
        for name in ("param", "frequencies", "delta_err", "degenerate", "new_attribute"):
            with pytest.raises(AttributeError):
                setattr(table, name, 1.0)
        with pytest.raises(TypeError):
            table[0] = rows[0]
        with pytest.raises(ValueError):
            table.param[0] = 1.0
        part = table[3:20:2]
        assert isinstance(part, SweepTable) and list(part) == rows[3:20:2]
        assert [table[k] for k in range(-31, 31)] == rows + rows
        with pytest.raises(IndexError):
            table[31]
        assert table == sweep_spectrum(RESONANT, "g", 0.0, 3.0, 31) and table != part
        assert table != rows and part == table[3:20:2]
        assert pickle.loads(pickle.dumps(table)) == table

    def test_columns_give_the_rows(self):
        table = sweep_spectrum(RESONANT, "g", 0.0, 3.0, 31)
        for k, row in enumerate(table):
            assert row.param == table.param[k] and row.frequencies == tuple(w[k] for w in table.frequencies)
            assert row.degenerate is bool(table.degenerate[k])
            assert row.delta_err is None if row.degenerate else row.delta_err == table.delta_err[k]
            assert type(row.param) is float and all(type(w) is float for w in row.frequencies)

    def test_empty_values_give_an_empty_table(self):
        table = sweep_spectrum_values(RESONANT, "g", [])
        assert isinstance(table, SweepTable) and len(table) == 0 and list(table) == []
        assert sweep_rows_to_csv(table) == "param,w1,w2,w3,w4,w5,w6,delta,degenerate\n"

    def test_columns_must_match(self):
        with pytest.raises(InvalidParameterError, match="equal-length 1-d columns"):
            SweepTable([0.0, 1.0], [[0.0]] * 6, [0.0], [False])


class TestSweepRowContract:
    def test_fields_in_order(self):
        row = SweepRow(0.5, (-1.0, 0.0, 0.0, 0.0, 0.0, 1.0), None, True)
        assert SweepRow._fields == ("param", "frequencies", "delta_err", "degenerate")
        assert tuple(row) == (row.param, row.frequencies, row.delta_err, row.degenerate)
        assert SweepRow(param=0.5, frequencies=row.frequencies, delta_err=None, degenerate=True) == row

    def test_immutable(self):
        row = sweep_spectrum(RESONANT, "g", 0.0, 1.0, 2)[0]
        for name in ("param", "delta_err", "new_attribute"):
            with pytest.raises(AttributeError):
                setattr(row, name, 1.0)

    def test_rows_of_equal_sweeps_compare_equal(self):
        first = sweep_spectrum(RESONANT, "g", 0.0, 3.0, 31)
        second = sweep_spectrum(RESONANT, "g", 0.0, 3.0, 31)
        assert first == second and first is not second
        assert first[1] != first[2]
        assert all(
            type(row) is SweepRow and type(row.param) is float and type(row.frequencies) is tuple for row in first
        )

    def test_json_dict(self):
        rows = sweep_spectrum(RESONANT, "g", 0.0, 1.0, 3)
        assert rows[0].to_json_dict() == {
            "param": 0.0, "frequencies": list(rows[0].frequencies), "delta": None, "degenerate": True,
        }
        assert rows[-1].to_json_dict()["delta"] == rows[-1].delta_err > 0.0


def pointwise_sweep(base, vary, values, constraint=None):
    """The sweep through the single-point route, one grid point at a time.

    Its errors follow the sweep's check order: every value, then the
    constraint over every point, then the spectra, each raising at its
    first failing point.
    """
    params = [base.replace(**{vary: float(value)}) for value in values]
    if constraint is not None:
        for k, p in enumerate(params):
            columns = constraint(*(np.array([getattr(p, name)]) for name in ("g", "delta", "f1", "f2")))
            params[k] = SystemParams(*(float(c[0]) for c in columns), omega0=p.omega0)
    rows = []
    for value, p in zip(values, params):
        spectrum = eigenfrequencies(p)
        try:
            delta_err = nonequidistance_error(spectrum)
        except DegenerateSpectrumError:
            delta_err = None
        rows.append(SweepRow(float(value), spectrum.frequencies, delta_err, delta_err is None))
    return rows


def outcome(sweep, *args):
    """Rows as (param, frequency bytes, delta_err, degenerate), or the error raised."""
    try:
        rows = sweep(*args)
    except TrichainError as exc:
        return type(exc).__name__, str(exc)
    return [(r.param, np.array(r.frequencies).tobytes(), r.delta_err, r.degenerate) for r in rows]


def assert_batched_matches_pointwise(base, vary, values, branch=None):
    constraint = branch_constraint(branch) if branch else None
    batched = outcome(sweep_spectrum_values, base, vary, values, constraint)
    assert batched == outcome(pointwise_sweep, base, vary, values, constraint)
    return batched


class TestBatchedSweepMatchesSinglePoint:
    """The batched sweep equals ``eigenfrequencies`` run point by point:
    bitwise frequencies, the same delta_err and degenerate flag, and the same
    error (type and message) for the same first failing point."""

    coupling = st.floats(min_value=0.0, max_value=2.0)
    value = st.one_of(st.floats(min_value=-0.5, max_value=2.0), st.sampled_from([0.0, 1.0]))

    @settings(max_examples=200, deadline=None)
    @given(
        g=coupling, f1=coupling, f2=coupling,
        delta=st.floats(min_value=-2.0, max_value=2.0),
        vary=st.sampled_from(["g", "delta", "f1", "f2"]),
        values=st.lists(value, min_size=1, max_size=30),
        branch=st.sampled_from([None, "A", "B"]),
    )
    def test_random_bases(self, g, f1, f2, delta, vary, values, branch):
        base = SystemParams(g=g, delta=delta, f1=f1, f2=f2)
        if vary == "delta":  # reach the zero-frequency pair delta = +-f2 as well
            values = values + [f2, -f2]
        assert_batched_matches_pointwise(base, vary, values, branch)

    @pytest.mark.parametrize("branch", [None, "A"])
    def test_comb_anchor_degenerate_rows(self, branch):
        anchor = solve_comb_params(QUBIT_COUPLING, "A")
        values = np.unique(np.append(np.linspace(0.0, 2.0, 801), anchor.f2))
        rows = assert_batched_matches_pointwise(anchor.params, "delta", values, branch)
        anchor_row = rows[int(np.searchsorted(values, anchor.f2))]
        assert anchor_row[0] == anchor.f2 and anchor_row[3] is True

    # Near the triple |w| = 1 root, where the frequency-space check of the
    # closed-form cubic failed 2 172 of these 4 000 points.
    log_spaced_grids = np.logspace(-8, -1, 4000), np.logspace(-1, -8, 4000)

    def test_log_spaced_grid_rows_equal_single_point(self):
        for values in self.log_spaced_grids:
            assert_sweep_passes_pointwise(RESONANT, "g", values)

    def test_log_spaced_grid_passes_without_replay(self, monkeypatch):
        calls = []
        monkeypatch.setattr(spectrum_module, "eigenfrequencies", lambda *args: calls.append(args))
        for values in self.log_spaced_grids:
            assert len(sweep_spectrum_values(RESONANT, "g", values)) == 4000
        assert calls == []

    @pytest.mark.parametrize("bad_gap", [2e-12, math.nan])
    def test_batch_failure_the_single_point_route_passes_raises(self, bad_gap, monkeypatch):
        def second_row_fails(freqs, *columns):
            gaps = _coefficient_gap(freqs, *columns)
            gaps[1] = bad_gap
            return gaps

        calls = []
        monkeypatch.setattr(spectrum_module, "_coefficient_gap", second_row_fails)
        monkeypatch.setattr(spectrum_module, "eigenfrequencies", lambda *args: calls.append(args))
        message = re.escape(f"by {bad_gap:.3e} (relative) for g=0.5, delta=0.0, f1=1.0, f2=1.0") + "$"
        with pytest.raises(ConsistencyError, match=message):
            sweep_spectrum_values(RESONANT, "g", [0.25, 0.5, 0.75])
        assert calls == []

    def test_batched_coefficients_round_like_the_scalar_ones(self, rng):
        columns = rng.uniform(0.0, 2.0, (4, 20000))
        columns[1] -= 1.0
        batched = np.array(_char_poly_coeffs(*columns)).T
        single = [list(tuple(char_poly(SystemParams(*row)))) for row in columns.T.tolist()]
        assert batched.tolist() == single

    @pytest.mark.parametrize("vary, values, branch", [
        ("g", [0.5, -1.0, 0.3], None),
        ("delta", [0.5, math.nan], None),
        ("f1", [0.5, math.inf], "B"),
        ("g", [0.0, 2.0408163265306123e-05, -1.0], None),
        ("g", [0.5, 2.0408163265306123e-05, 0.0, 2.0], "A"),
        ("g", [0.5, 1.5], "B"),
        ("g", [-2.0, 0.0], "A"),
    ])
    def test_first_failing_point_raises(self, vary, values, branch):
        error = assert_batched_matches_pointwise(RESONANT, vary, values, branch)
        assert isinstance(error, tuple)


class TestScalarPathMatchesArrayPath:
    """A single point runs on floats and ``math`` only; it must give the bits
    the batched array path gives for the same point: frequencies, coefficient
    gap, non-equidistance error and flag, and cluster means equal to
    ``numpy.mean`` of each group."""

    @settings(max_examples=300, deadline=None)
    @given(points=st.lists(st.one_of(generic_points, resonant_points, near_zero_pair_points, scaled_combs(60)),
                           min_size=1, max_size=8),
           tol=st.sampled_from([DEFAULT_DEGENERACY_TOL, 1e-3]))
    def test_a_point_gives_the_bits_of_its_batch_row(self, points, tol):
        columns = np.array([tuple(p)[:4] for p in points]).T
        freqs = _jacobi(*columns)[0]
        gaps = _coefficient_gap(freqs, *columns)
        spectra = [eigenfrequencies(params, tol) for params in points]
        # the absolute gap each point's relative tol stands for
        delta_err, undefined = _nonequidistance(freqs, np.array([spectrum.degeneracy_tol for spectrum in spectra]))
        for k, (params, spectrum) in enumerate(zip(points, spectra)):
            row = [float(w[k]) for w in freqs]
            assert bits(spectrum.frequencies) == bits(row)
            assert bits([_coefficient_gap(spectrum.frequencies, *tuple(params)[:4])]) == bits([gaps[k]])
            means = [(float(np.mean(group)), len(group)) for group in chained_groups(row, spectrum.degeneracy_tol)]
            assert bits([v for v, _ in spectrum.clusters]) == bits([v for v, _ in means])
            assert [m for _, m in spectrum.clusters] == [m for _, m in means]
            record = _spectrum_record(params, tol)
            assert record["degenerate"] is bool(undefined[k])
            assert record["delta"] == (None if undefined[k] else float(delta_err[k]))

    @settings(max_examples=100, deadline=None)
    @given(points=st.lists(st.one_of(generic_points, resonant_points, near_zero_pair_points, scaled_combs(60)),
                           min_size=1, max_size=8),
           tol=st.sampled_from([DEFAULT_DEGENERACY_TOL, 1e-3]))
    @example(points=[RESONANT, SystemParams(g=0.5, delta=0.3, f1=0.8, f2=0.9)], tol=DEFAULT_DEGENERACY_TOL)
    def test_nonequidistance_gives_the_bits_of_its_batch_row(self, points, tol):
        # Undefined rows too: a point and a batch row both read NaN there.
        columns = np.array([tuple(p)[:4] for p in points]).T
        spectra = [eigenfrequencies(params, tol) for params in points]
        batch = _nonequidistance(_jacobi(*columns)[0], np.array([s.degeneracy_tol for s in spectra]))
        for k, spectrum in enumerate(spectra):
            delta_err, undefined = _nonequidistance(spectrum.frequencies, spectrum.degeneracy_tol)
            assert type(delta_err) is float and type(undefined) is bool
            assert bits([delta_err]) == bits([batch[0][k]])
            assert undefined is bool(batch[1][k])


def chained_groups(freqs, tol):
    """Ascending frequencies split where neighbours are more than ``tol`` apart."""
    cuts = [0, *(i + 1 for i in range(len(freqs) - 1) if freqs[i + 1] - freqs[i] > tol), len(freqs)]
    return [freqs[a:b] for a, b in zip(cuts, cuts[1:])]


class TestScaleCovariantVerdicts:
    """``degeneracy_tol`` is relative to the spectrum's scale, so 2^k times
    the parameters give 2^k times the frequencies, cluster values and applied
    threshold, and the same flags, multiplicities and ``delta`` bits, at every
    k in [-200, 200] (the points keep every nonzero value normal there).  An
    absolute tolerance flagged (0.5, 0.3, 0.8, 0.9) * 2^k degenerate from
    k = -23 down."""

    @settings(max_examples=300, deadline=None)
    @given(params=st.one_of(generic_points, resonant_points, near_zero_pair_points, scaled_combs(0)),
           tol=st.sampled_from([DEFAULT_DEGENERACY_TOL, 1e-3]), k=st.integers(min_value=-200, max_value=200))
    @example(params=SystemParams(g=0.5, delta=0.3, f1=0.8, f2=0.9), tol=DEFAULT_DEGENERACY_TOL, k=-23)
    @example(params=SystemParams(g=0.5, delta=0.3, f1=0.8, f2=0.9), tol=DEFAULT_DEGENERACY_TOL, k=-200)
    def test_spectrum_record(self, params, tol, k):
        point = scaled(params, k)
        base, spectrum = eigenfrequencies(params, tol), eigenfrequencies(point, tol)
        assert bits(spectrum.frequencies) == bits([math.ldexp(w, k) for w in base.frequencies])
        assert spectrum.degeneracy_tol == math.ldexp(base.degeneracy_tol, k)
        expected = _spectrum_record(params, tol)
        try:
            record = _spectrum_record(point, tol)
        except DomainError as exc:
            assert "discriminant" in str(exc)  # above the float range, the only error scaling may add
            return
        assert bits(record["frequencies"]) == bits([math.ldexp(w, k) for w in expected["frequencies"]])
        assert bits([v for v, _ in record["clusters"]]) == bits([math.ldexp(v, k) for v, _ in expected["clusters"]])
        assert [m for _, m in record["clusters"]] == [m for _, m in expected["clusters"]]
        assert record["degenerate"] is expected["degenerate"]
        assert (record["delta"] is None) is (expected["delta"] is None)
        if record["delta"] is not None:
            assert bits([record["delta"]]) == bits([expected["delta"]])
        assert record["zero_frequency_pair"] is expected["zero_frequency_pair"]
        tiny = sys.float_info.min
        if min(abs(record["discriminant"]), abs(expected["discriminant"])) >= tiny:
            assert record["discriminant"] == math.ldexp(expected["discriminant"], 12 * k)

    @settings(max_examples=150, deadline=None)
    @given(params=st.one_of(generic_points, resonant_points, near_zero_pair_points, scaled_combs(0)),
           vary=st.sampled_from(["g", "delta", "f1", "f2"]), extra=st.lists(coupling, max_size=5),
           tol=st.sampled_from([DEFAULT_DEGENERACY_TOL, 1e-3]), k=st.integers(min_value=-200, max_value=200))
    def test_sweep_rows(self, params, vary, extra, tol, k):
        values = [getattr(params, vary), *extra]
        rows = sweep_spectrum_values(params, vary, values, None, tol)
        scaled_rows = sweep_spectrum_values(scaled(params, k), vary, [math.ldexp(v, k) for v in values], None, tol)
        for row, scaled_row in zip(rows, scaled_rows, strict=True):
            assert scaled_row.param == math.ldexp(row.param, k)
            assert bits(scaled_row.frequencies) == bits([math.ldexp(w, k) for w in row.frequencies])
            assert scaled_row.degenerate is row.degenerate
            if not row.degenerate:
                assert bits([scaled_row.delta_err]) == bits([row.delta_err])


def assert_sweep_passes_pointwise(base, vary, values, branch=None):
    rows = assert_batched_matches_pointwise(base, vary, values, branch)
    assert isinstance(rows, list), rows  # (error type, message) otherwise


# 10^x for x in [-16, -1]: log-spaced approaches to a degeneracy.
approach = st.lists(st.floats(min_value=-16.0, max_value=-1.0), min_size=1, max_size=20).map(
    lambda xs: 10.0 ** np.array(xs)
)


class TestNearDegenerateManifolds:
    """Near the degenerate spectra no point raises ConsistencyError, and the
    batched sweep equals ``eigenfrequencies`` run point by point."""

    @settings(max_examples=50, deadline=None)
    @given(eps=approach, kappa=st.floats(min_value=-3.0, max_value=3.0).map(lambda x: 10.0**x))
    def test_triple_root_as_g_vanishes(self, eps, kappa):
        base = SystemParams(g=0.0, delta=0.0, f1=kappa, f2=kappa)
        assert_sweep_passes_pointwise(base, "g", kappa * eps)

    @settings(max_examples=50, deadline=None)
    @given(
        eps=approach, g=st.floats(min_value=0.0, max_value=2.0), f1=st.floats(min_value=0.0, max_value=2.0),
        f2=st.floats(min_value=1e-3, max_value=2.0), sign=st.sampled_from([-1.0, 1.0]),
    )
    def test_zero_frequency_pair_as_delta_nears_f2(self, eps, g, f1, f2, sign):
        base = SystemParams(g=g, delta=0.0, f1=f1, f2=f2)
        values = sign * f2 * np.concatenate([1.0 - eps, [1.0], 1.0 + eps])
        assert_sweep_passes_pointwise(base, "delta", values)

    @settings(max_examples=50, deadline=None)
    @given(eps=approach, g=st.floats(min_value=1e-6, max_value=1.0), branch=st.sampled_from("AB"))
    def test_designed_combs_on_both_branches(self, eps, g, branch):
        comb = solve_comb_params(g, branch)
        values = comb.f2 * np.concatenate([1.0 - eps, [1.0], 1.0 + eps])
        assert_sweep_passes_pointwise(comb.params, "delta", values, branch)

    @settings(max_examples=50, deadline=None)
    @given(eps=approach, branch=st.sampled_from("AB"))
    def test_branch_junction_at_g_1(self, eps, branch):
        # Both branches meet at g = 1 with f2^2 = 1/2; delta = f2 puts the comb there.
        base = SystemParams(g=1.0, delta=math.sqrt(0.5), f1=1.0, f2=1.0)
        assert_sweep_passes_pointwise(base, "g", np.append(1.0 - eps, 1.0), branch)
