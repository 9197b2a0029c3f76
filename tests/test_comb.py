import inspect
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trichain import (
    ConsistencyError,
    DomainError,
    EnergyProgram,
    InvalidParameterError,
    QUBIT_COUPLING,
    QUTRIT_COUPLING,
    SystemParams,
    branch_constraint,
    comb_constraints,
    energy_at_pi,
    evolve_spectral,
    identify_energy_branch,
    initial_state,
    scale_comb,
    solve_comb_params,
    solve_g_for_energy,
)
from trichain.comb import _BRANCH_PROBES, _BRANCH_TOL, _branch_squares, _radicand
from trichain.spectrum import _s2_at

COMB_TARGET = (-2.0, -1.0, 0.0, 0.0, 1.0, 2.0)


class TestCombConstraints:
    def test_decoupled_comb_satisfies_all_three(self):
        residuals = comb_constraints(SystemParams(g=0.0, delta=1.0, f1=1.0, f2=1.0))
        assert residuals == (0.0, 0.0, 0.0)

    def test_resonant_chain_is_not_a_comb(self):
        # direct substitution into the coefficient formulas:
        # c4 = 3, c2 = 3, c0 = 1 -> residuals (-2, -1, 1)
        residuals = comb_constraints(SystemParams(g=0.0, delta=0.0, f1=1.0, f2=1.0))
        assert residuals == (-2.0, -1.0, 1.0)

    def test_solved_branch_has_tiny_residuals(self):
        sol = solve_comb_params(QUBIT_COUPLING, "A")
        assert max(abs(r) for r in sol.residuals) <= 1e-12

    def test_rejects_bad_spacing(self):
        with pytest.raises(DomainError):
            comb_constraints(SystemParams(g=0.0, delta=1.0, f1=1.0, f2=1.0), spacing=0.0)

    @pytest.mark.parametrize("spacing", [-1.0, math.inf, math.nan, "1", None,
                                         pytest.param(10**400, id="10**400"), True])
    def test_rejects_spacing_that_is_not_a_positive_real(self, spacing):
        with pytest.raises(DomainError):
            comb_constraints(SystemParams(g=0.0, delta=1.0, f1=1.0, f2=1.0), spacing=spacing)


class TestSolveCombParams:
    def test_weak_coupling_limit_branch_b(self):
        sol = solve_comb_params(1e-6, "B")
        assert sol.f1 == pytest.approx(1.0, abs=1e-9)
        assert sol.f2 == pytest.approx(1.0, abs=1e-9)
        assert sol.delta == sol.f2

    def test_weak_coupling_limit_branch_a(self):
        sol = solve_comb_params(1e-6, "A")
        assert sol.f1 == pytest.approx(2.0, abs=1e-9)
        assert sol.f2 == pytest.approx(0.5, abs=1e-9)
        assert sol.delta == sol.f2

    def test_branches_coincide_at_unit_coupling(self):
        a = solve_comb_params(1.0, "A")
        b = solve_comb_params(1.0, "B")
        assert (a.f1, a.f2, a.delta) == (b.f1, b.f2, b.delta)
        assert a.f2**2 == pytest.approx(0.5, abs=1e-15)
        assert a.f1**2 == pytest.approx(1.0, abs=1e-15)

    def test_published_detuning_anchor(self):
        sol = solve_comb_params(QUBIT_COUPLING, "A")
        assert abs(sol.delta - 0.56206631) <= 1e-7
        assert sol.delta == sol.f2
        assert max(abs(w - t) for w, t in zip(sol.spectrum, COMB_TARGET)) <= 1e-7

    @pytest.mark.parametrize("bad_g", [0.0, -0.3, 1.0 + 1e-9, 2.0, float("nan")])
    def test_domain_errors(self, bad_g):
        with pytest.raises(DomainError):
            solve_comb_params(bad_g, "A")

    def test_unknown_branch_rejected(self):
        with pytest.raises(InvalidParameterError):
            solve_comb_params(0.5, "C")

    @pytest.mark.parametrize("branch", ["A", "B"])
    def test_whole_domain_grid(self, branch):
        # solve_comb_params verifies residuals <= 1e-12 and the spectrum
        # {-2,-1,0,0,1,2} to 1e-7 internally; re-assert here explicitly.
        for g in np.linspace(0.005, 1.0, 200):
            sol = solve_comb_params(float(g), branch)
            assert max(abs(r) for r in sol.residuals) <= 1e-12
            assert max(abs(w - t) for w, t in zip(sol.spectrum, COMB_TARGET)) <= 1e-7

    def test_json_round_trip(self):
        sol = solve_comb_params(0.5, "B")
        data = sol.to_json_dict()
        assert set(data) == {"branch", "g", "delta", "f1", "f2", "residuals", "spectrum"}
        assert json.loads(json.dumps(data)) == data
        for name, value in data.items():
            assert (tuple(value) if isinstance(value, list) else value) == getattr(sol, name)


class TestBranchConstraint:
    @pytest.mark.parametrize("branch", ["A", "B"])
    def test_columns_equal_solve_comb_params_bit_for_bit(self, branch, rng):
        g = np.concatenate([rng.uniform(1e-6, 1.0, 3000), np.linspace(0.001, 1.0, 1000)])
        delta = rng.uniform(-1.0, 1.0, len(g))
        out = branch_constraint(branch)(g, delta, np.ones(len(g)), np.ones(len(g)))
        assert out[0] is g and out[1] is delta
        solved = [solve_comb_params(x, branch) for x in g.tolist()]
        assert out[2].tolist() == [sol.f1 for sol in solved]
        assert out[3].tolist() == [sol.f2 for sol in solved]

    @pytest.mark.parametrize("bad_g", [0.0, -0.3, 1.0 + 1e-9, float("nan")])
    def test_first_point_outside_the_domain_raises_its_own_error(self, bad_g):
        g = np.array([0.5, 0.7, bad_g, 2.0])
        with pytest.raises(DomainError) as alone:
            solve_comb_params(bad_g, "A")
        with pytest.raises(DomainError) as batched:
            branch_constraint("A")(g, np.zeros(4), np.ones(4), np.ones(4))
        assert str(batched.value) == str(alone.value)

    def test_unknown_branch_rejected(self):
        with pytest.raises(InvalidParameterError):
            branch_constraint("C")

    # The branch formulas check only the domain: on (0, 1] the radicand
    # (1 - g^2)(9 - g^2) is >= 0, f2^2 >= 1/4 and f1^2 >= 4 sqrt(2) - 5 ~ 0.657,
    # also as rounded, from the subnormals to the floats just below 1.
    @settings(max_examples=500, deadline=None)
    @given(g=st.one_of(
        st.floats(min_value=5e-324, max_value=1.0),
        st.builds(math.ldexp, st.floats(0.5, 1.0), st.integers(-1073, 0)),
        st.builds(lambda n: 1.0 - n * 2.0**-53, st.integers(0, 2**21)),
    ))
    @example(g=5e-324)
    @example(g=1.0)
    @example(g=math.sqrt(5.0 - 3.0 * math.sqrt(2.0)))  # f1^2 is least here, on branch B
    def test_both_branches_are_real_on_the_whole_domain(self, g):
        assert _radicand(g) >= 0.0
        for branch in "AB":
            f2_sq, f1_sq = _branch_squares(g, branch)
            assert f2_sq >= 0.25 and f1_sq > 0.65
            assert [x.tolist() for x in _branch_squares(np.array([g]), branch)] == [[f2_sq], [f1_sq]]


class TestEnergyAtPi:
    def test_qubit_coupling_empties_the_central_atom(self):
        assert energy_at_pi(QUBIT_COUPLING) <= 1e-10

    def test_qutrit_coupling_leaves_one_third(self):
        assert abs(energy_at_pi(QUTRIT_COUPLING) - 1.0 / 3.0) <= 1e-7

    def test_unit_coupling_value(self):
        assert energy_at_pi(1.0) == 1.0 / 9.0

    def test_bounded_on_domain(self):
        for g in np.linspace(1e-4, 1.0, 500):
            value = energy_at_pi(float(g))
            assert 0.0 <= value <= 1.0

    @pytest.mark.parametrize("bad_g", [0.0, -1.0, 1.1, float("inf")])
    def test_domain_errors(self, bad_g):
        with pytest.raises(DomainError):
            energy_at_pi(bad_g)


class TestBranchIdentification:
    def test_exactly_one_branch_matches_the_dynamics(self):
        assert not inspect.signature(identify_energy_branch).parameters
        branch = identify_energy_branch()
        assert branch in ("A", "B")
        # regression: the measured match is branch B
        assert branch == "B"

    def test_laplace_route_separates_the_branches(self):
        # s2(pi)^2 by the inverse Laplace transform, against the closed form
        # at the probes: rounding on B, far off on A, with the tolerance between.
        worst = {
            branch: max(abs(_s2_at(solve_comb_params(g, branch).params, math.pi) ** 2 - energy_at_pi(g))
                        for g in _BRANCH_PROBES)
            for branch in ("A", "B")
        }
        assert worst["B"] <= 1e-14 < _BRANCH_TOL < 0.1 < worst["A"]

    # With the fixed probes, anything but one matching branch is a bug: the
    # branches coincide at g = 1, tol 1 passes branch A's ~0.39 mismatch too,
    # and tol 0 passes neither branch's rounding.
    @pytest.mark.parametrize("name, value", [("_BRANCH_PROBES", (1.0,)), ("_BRANCH_TOL", 1.0), ("_BRANCH_TOL", 0.0)])
    def test_anything_but_one_matching_branch_is_a_consistency_error(self, monkeypatch, name, value):
        monkeypatch.setattr(f"trichain.comb.{name}", value)
        with pytest.raises(ConsistencyError, match="not exactly one"):
            identify_energy_branch()

    def test_identified_branch_reproduces_closed_form(self):
        branch = identify_energy_branch()
        v0 = initial_state(2)
        for g in np.linspace(0.05, 1.0, 20):
            sol = solve_comb_params(float(g), branch)
            state = evolve_spectral(sol.params, v0, [math.pi]).states[0]
            assert abs(abs(state[1]) ** 2 - energy_at_pi(float(g))) <= 1e-7


class TestSolveGForEnergy:
    def test_target_zero_finds_the_qubit_coupling(self):
        program = solve_g_for_energy(0.0)
        assert len(program.g_solutions) == 1
        assert abs(program.g_solutions[0] - QUBIT_COUPLING) <= 1e-8
        assert energy_at_pi(program.g_solutions[0]) <= 1e-20

    def test_target_one_third_finds_the_qutrit_coupling(self):
        program = solve_g_for_energy(1.0 / 3.0)
        assert len(program.g_solutions) == 1
        assert abs(program.g_solutions[0] - QUTRIT_COUPLING) <= 1e-8

    def test_target_one_ninth_includes_the_boundary(self):
        program = solve_g_for_energy(1.0 / 9.0)
        assert program.g_solutions == pytest.approx((0.5854074596907901, 1.0), abs=1e-9)

    def test_just_below_one_ninth_the_endpoint_is_not_a_second_root(self):
        # E(1) = 1/9 is within 1e-12 of the target, but the root 1.5e-9 below
        # g = 1 is that same root, not a second one.
        roots = solve_g_for_energy(1.0 / 9.0 - 1e-13).g_solutions
        assert len(roots) == 2
        assert roots[1] < 1.0

    def test_unattainable_targets_give_empty_results(self):
        assert solve_g_for_energy(1.5).g_solutions == ()
        assert solve_g_for_energy(1.0).g_solutions == ()
        assert solve_g_for_energy(-0.2).g_solutions == ()

    def test_non_finite_target_rejected(self):
        with pytest.raises(DomainError):
            solve_g_for_energy(float("nan"))

    def test_round_trip_on_random_targets(self, rng):
        for target in rng.uniform(0.0, 0.99, 100):
            program = solve_g_for_energy(float(target))
            assert program.g_solutions, f"no root found for target {target}"
            for root in program.g_solutions:
                assert abs(energy_at_pi(root) - target) <= 1e-10

    # Below g ~ 1e-8 the energy 1 - 40 g^2 / 9 rounds to 1 and g cannot be
    # recovered; 1e-6 is the lower end of the domain the solver always covered.
    @settings(max_examples=300, deadline=None)
    @given(st.floats(min_value=1e-6, max_value=1.0))
    def test_round_trip_from_coupling(self, g):
        roots = solve_g_for_energy(energy_at_pi(g)).g_solutions
        assert any(abs(root - g) <= 1e-9 for root in roots), (g, roots)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
    @example(0.0)
    @example(1.0 / 9.0)
    @example(1.0 / 9.0 - 1e-13)
    @example(1.0 / 9.0 + 1e-13)
    @example(1.0 / 3.0)
    @example(0.99999)
    @example(1.0 - 2.0**-53)
    def test_roots_against_mpmath(self, target):
        # Each level L = +-3 sqrt(target) in (-1, 3) has one root of the
        # inner function h, here in 40 digits; as in the solver, a root
        # within 1e-9 of a smaller one is the same root.  Each returned root
        # lies in the interval of couplings where h is within 8 eps of L: the
        # problem's conditioning, as wide as evaluating h in floats makes it
        # (measured <= 4.4 eps).
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            scale = 3 * mpmath.sqrt(mpmath.mpf(target))
            slack = 8 * mpmath.mpf(2) ** -52
            expected = []
            for level in sorted({scale, -scale}, reverse=True):  # h falls with g: ascending roots
                exact = level_coupling(mpmath, level)
                if -1 < level < 3 and (not expected or exact - expected[-1][0] > 1e-9):
                    expected.append((exact, level_coupling(mpmath, level + slack),
                                     level_coupling(mpmath, level - slack)))
            roots = list(solve_g_for_energy(target).g_solutions)
            if len(roots) > len(expected) and roots[-1] == 1.0 and 1.0 / 9.0 < target <= 1.0 / 9.0 + 1e-12:
                roots.pop()  # the g = 1 endpoint, accepted within 1e-12 above its energy 1/9
            if len(roots) < len(expected) and expected[0][1] == 0:
                expected.pop(0)  # within the conditioning of g = 0, outside the domain (0, 1]
            assert len(roots) == len(expected), (target, roots)
            for g, (exact, low, high) in zip(roots, expected):
                assert low <= g <= high, (target, g, float(g - exact))

    def test_json_shape(self):
        program = solve_g_for_energy(0.0)
        data = program.to_json_dict()
        assert set(data) == {"target", "roots"}
        assert data["roots"] == list(program.g_solutions)


def mp_inner(mpmath, g):
    """h(g) = g^4 - 2 g^2 + (1 - g^2) sqrt(g^4 - 10 g^2 + 9) in mpmath."""
    g2 = mpmath.mpf(g) ** 2
    return g2 * g2 - 2 * g2 + (1 - g2) * mpmath.sqrt(g2 * g2 - 10 * g2 + 9)


def level_coupling(mpmath, level):
    """The coupling in [0, 1] where h, which falls strictly from 3 to -1, meets
    ``level``, by bisection to the working precision; an end of [0, 1] for a
    level beyond h's range."""
    low, high = mpmath.mpf(0), mpmath.mpf(1)
    if level <= -1:
        return high
    for _ in range(mpmath.mp.prec):
        middle = (low + high) / 2
        if mp_inner(mpmath, middle) > level:
            low = middle
        else:
            high = middle
    return low


class TestScaleComb:
    def test_identity_scaling(self):
        sol = solve_comb_params(0.7, "B")
        scaled = scale_comb(sol, 1.0)
        assert (scaled.g, scaled.delta, scaled.f1, scaled.f2) == (sol.g, sol.delta, sol.f1, sol.f2)
        assert scaled.spacing == pytest.approx(1.0, abs=1e-9)

    def test_double_spacing(self):
        sol = solve_comb_params(QUBIT_COUPLING, "A")
        scaled = scale_comb(sol, 2.0)
        assert np.allclose(scaled.spectrum, [-4, -2, 0, 0, 2, 4], atol=2e-7)
        assert max(abs(r) for r in scaled.residuals) <= 1e-11

    def test_half_spacing_revives_at_double_period(self):
        sol = solve_comb_params(0.6, identify_energy_branch())
        scaled = scale_comb(sol, 0.5)
        v0 = initial_state(2)
        final = evolve_spectral(scaled.params, v0, [4.0 * math.pi]).states[0]
        assert np.linalg.norm(final - v0) <= 1e-8

    @settings(max_examples=200, deadline=None)
    @given(g=st.floats(min_value=0.05, max_value=1.0), branch=st.sampled_from("AB"),
           k=st.integers(min_value=-200, max_value=200), j=st.integers(min_value=-200, max_value=200))
    def test_power_of_two_scaling_is_exact(self, g, branch, k, j):
        # The spectrum scales by 2^k and the residuals (c4 - 5k^2, c2 - 4k^4,
        # c0) by 2^2k, 2^4k and 2^6k, bit for bit; a scaled comb scales on
        # from its own spacing.
        sol = solve_comb_params(g, branch)
        unit, scaled = scale_comb(sol, 1.0), scale_comb(sol, math.ldexp(1.0, k))
        assert scaled.spectrum == tuple(math.ldexp(w, k) for w in unit.spectrum)
        assert scaled.residuals == tuple(math.ldexp(r, n * k) for r, n in zip(unit.residuals, (2, 4, 6)))
        twice = scale_comb(scale_comb(sol, math.ldexp(1.0, j)), math.ldexp(1.0, k))
        assert repr(twice) == repr(scale_comb(sol, math.ldexp(1.0, j + k)))  # NaN where a residual overflows

    def test_subnormal_kappa_is_accepted(self):
        # 1e-7 times this spacing rounds to 0: no absolute tolerance may be
        # derived from the spacing.
        sol = solve_comb_params(0.5, "A")
        scaled = scale_comb(sol, 1e-320)
        assert (scaled.g, scaled.f1) == (1e-320 * sol.g, 1e-320 * sol.f1)
        assert scaled.spectrum[-1] > 0.0

    @pytest.mark.parametrize("bad", [0.0, -2.0, float("inf")])
    def test_bad_kappa_rejected(self, bad):
        sol = solve_comb_params(0.5, "A")
        with pytest.raises(DomainError):
            scale_comb(sol, bad)


def test_energy_program_type_is_frozen():
    program = EnergyProgram(target_e2=0.5, g_solutions=(0.3,))
    with pytest.raises(AttributeError):
        program.target_e2 = 0.1
