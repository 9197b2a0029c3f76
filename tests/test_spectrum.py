import math
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trichain import (
    ConsistencyError,
    DegenerateSpectrumError,
    InvalidParameterError,
    PoleError,
    Spectrum,
    SweepRow,
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
)
import trichain.spectrum as spectrum_module
from trichain.spectrum import _batched_spectra, _char_poly_coeffs, _closed_form_rows, _cluster
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
        for params in random_params(rng, 200, coupling_hi=2.0, delta_hi=2.0):
            closed = frequencies_from_charpoly(char_poly(params))
            spec = eigenfrequencies(params)
            assert np.max(np.abs(np.array(closed) - spec.frequencies)) <= 1e-9

    def test_mirror_symmetry_and_zero_sum(self, rng):
        for params in random_params(rng, 100, coupling_hi=2.0, delta_hi=2.0):
            freqs = np.array(eigenfrequencies(params).frequencies)
            assert np.max(np.abs(freqs + freqs[::-1])) <= 1e-9
            assert abs(freqs.sum()) <= 1e-9

    def test_near_zero_frequency_pair_passes_the_dual_route_check(self):
        # delta -> +-f2 sends a +-w pair to zero next to a designed comb; the
        # closed form must resolve w there, not only at c0 == 0 exactly.
        for eps in np.logspace(-13, -5, 33):
            for sign in (1.0, -1.0):
                params = SystemParams(g=0.5, delta=sign * (1.0 + eps), f1=1.0, f2=1.0)
                w = eigenfrequencies(params).frequencies[3]
                assert w == pytest.approx(math.sqrt(0.8) * eps, rel=1e-3)

    def test_rejects_nonpositive_tolerance(self):
        for bad_tol in (0.0, math.nan, math.inf):
            with pytest.raises(InvalidParameterError):
                eigenfrequencies(RESONANT, degeneracy_tol=bad_tol)

    def test_overflowing_coefficients_fail_the_dual_route_check(self):
        # g^2 overflows, the closed form turns NaN, and a NaN gap must fail
        # the check (silently: a RuntimeWarning fails the test suite).
        with pytest.raises(TrichainError):
            eigenfrequencies(RESONANT.replace(g=1e200))
        with pytest.raises(TrichainError):
            sweep_spectrum_values(RESONANT, "g", [1e170, 1e200])


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


class TestS2Response:
    def test_initial_value_theorem(self):
        params = SystemParams(g=0.7, delta=-0.4, f1=1.1, f2=0.8)
        p = 1e6
        assert abs(p * s2_response(params, p) - 1.0) <= 1e-9

    def test_decoupled_rabi_pole_structure(self):
        value = s2_response(RESONANT, 0.5j)
        assert value == pytest.approx(0.5j / 0.75, abs=1e-14)

    def test_pole_error_at_root(self):
        with pytest.raises(PoleError):
            s2_response(RESONANT, 1j)


class TestInverseLaplace:
    def test_residue_sum_is_initial_value(self, rng):
        for params in random_params(rng, 20):
            assert inverse_laplace_s2(params, [0.0])[0] == pytest.approx(1.0, abs=1e-10)

    def test_triple_pole_decoupled_cosine(self):
        t = np.linspace(0.0, 2.0 * math.pi, 40)
        values = inverse_laplace_s2(RESONANT, t)
        assert np.max(np.abs(values - np.cos(t))) <= 1e-12
        assert inverse_laplace_s2(RESONANT, [math.pi])[0] == pytest.approx(-1.0, abs=1e-12)

    def test_designed_comb_empties_central_atom_at_half_period(self):
        branch = identify_energy_branch()
        sol = solve_comb_params(QUBIT_COUPLING, branch)
        value = inverse_laplace_s2(sol.params, [math.pi])[0]
        assert abs(value) ** 2 <= 1e-7

    @pytest.mark.parametrize("bad_time", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_times(self, bad_time):
        with pytest.raises(InvalidParameterError, match="times must be finite"):
            inverse_laplace_s2(RESONANT.replace(g=0.5), [0.0, bad_time])

    def test_matches_propagator_on_random_draws(self, rng):
        times = np.linspace(0.0, 4.0 * math.pi, 30)
        v0 = initial_state(2)
        for params in random_params(rng, 30):
            laplace = inverse_laplace_s2(params, times)
            spectral = evolve_spectral(params, v0, times).states[:, 1]
            assert np.max(np.abs(laplace - spectral)) <= 1e-8


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


def pointwise_sweep(base, vary, values, constraint=None):
    """The sweep through the single-point route, one grid point at a time.

    Its errors follow the batched sweep's contract: the first failing point
    in grid order raises, except that the constraint sees every point (up
    to the first invalid parameter value) before any spectrum is computed.
    """
    params, invalid = [], None
    for value in values:
        try:
            params.append(base.replace(**{vary: float(value)}))
        except InvalidParameterError as exc:
            invalid = exc
            break
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
    if invalid is not None:
        raise invalid
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

    def test_log_spaced_resonant_grid_fails_at_the_same_point(self):
        # 2 172 of these 4 000 points fail the dual-route check (the
        # trigonometric cubic near the triple |w| = 1 root).
        error = assert_batched_matches_pointwise(RESONANT, "g", np.logspace(-8, -1, 4000))
        assert error[0] == "ConsistencyError"

    @pytest.mark.parametrize("values", [np.logspace(-8, -1, 4000), np.logspace(-1, -8, 4000)])
    def test_failing_sweep_makes_one_single_point_call(self, values, monkeypatch):
        expected = outcome(pointwise_sweep, RESONANT, "g", values)
        calls = []

        def counted(*args):
            calls.append(args)
            return eigenfrequencies(*args)

        monkeypatch.setattr(spectrum_module, "eigenfrequencies", counted)
        assert outcome(sweep_spectrum_values, RESONANT, "g", values) == expected
        assert expected[0] == "ConsistencyError" and len(calls) == 1

    def test_batch_failure_the_single_point_route_passes_raises(self, monkeypatch):
        def second_row_fails(*columns):
            freqs, passed = _batched_spectra(*columns)
            passed[1] = False
            return freqs, passed

        monkeypatch.setattr(spectrum_module, "_batched_spectra", second_row_fails)
        with pytest.raises(ConsistencyError, match="routes disagree for SystemParams.g=0.5,"):
            sweep_spectrum_values(RESONANT, "g", [0.25, 0.5, 0.75])

    def test_batched_coefficients_round_like_the_scalar_ones(self, rng):
        columns = rng.uniform(0.0, 2.0, (4, 20000))
        columns[1] -= 1.0
        batched = np.array(_char_poly_coeffs(*columns)).T
        single = [list(astuple(char_poly(SystemParams(*row)))) for row in columns.T.tolist()]
        assert batched.tolist() == single

    def test_batched_closed_form_rounds_like_the_scalar_one(self):
        # Near the triple |w| = 1 root the cubic turns a last-bit difference
        # into a gap change far above the 1e-9 tolerance, so both routes must
        # round alike to pass and fail alike: they share numpy's arccos and
        # cos and compute powers as exact products.  The rows near a
        # zero-frequency pair take the small-root product in both.
        rng = np.random.default_rng(11)
        n = 2000
        eps = np.exp(rng.uniform(math.log(1e-12), math.log(1e-3), n)) * rng.choice([-1.0, 1.0], n)
        f2 = rng.uniform(0.1, 2.0, n)
        columns = [np.concatenate(pair) for pair in (
            (np.logspace(-8, -1, 4000), rng.uniform(0.0, 2.0, n)),  # g
            (np.zeros(4000), f2 * (1.0 + eps)),                    # delta
            (np.ones(4000), rng.uniform(0.0, 2.0, n)),             # f1
            (np.ones(4000), f2),                                   # f2
        )]
        closed, refused = _closed_form_rows(*_char_poly_coeffs(*columns))
        _, passed = _batched_spectra(*columns)
        for k, row in enumerate(zip(*(c.tolist() for c in columns))):
            params = SystemParams(*row)
            assert not refused[k]
            assert tuple(closed[k].tolist()) == frequencies_from_charpoly(char_poly(params))
            try:
                eigenfrequencies(params)
            except ConsistencyError:
                assert not passed[k]
            else:
                assert passed[k]
        assert 0 < passed.sum() < len(passed)

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
