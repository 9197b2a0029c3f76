import math

import numpy as np
import pytest

from trichain import (
    ConsistencyError,
    DegenerateSpectrumError,
    InvalidParameterError,
    PoleError,
    Spectrum,
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
)
from trichain.spectrum import _cluster
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

    def test_rejects_nonpositive_tolerance(self):
        for bad_tol in (0.0, math.nan, math.inf):
            with pytest.raises(InvalidParameterError):
                eigenfrequencies(RESONANT, degeneracy_tol=bad_tol)


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
