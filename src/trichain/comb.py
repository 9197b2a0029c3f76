"""Design of equidistant eigenfrequency combs with a central degeneracy.

A comb of spacing 1 with a doubly degenerate zero frequency,
{-2, -1, 0, 0, 1, 2}, corresponds to the target determinant

    Det0(p) = p^2 (p^2 + 1) (p^2 + 4) = p^6 + 5 p^4 + 4 p^2.

Matching Det(p) = Det0(p) term by term, with the degeneracy condition
delta = f2 making the constant term vanish identically, reduces to

    4 f2^2 + 2 g^2 + f1^2 = 5
    f2^2 (g^2 + f1^2)      = 1

so x = f2^2 solves the quadratic 4 x^2 - (5 - g^2) x + 1 = 0 and
f1^2 = 5 - 2 g^2 - 4 x.  With s = sqrt(g^4 - 10 g^2 + 9) (real for g <= 1):

    branch A:  f2^2 = ((5 - g^2) - s) / 8,   f1^2 = (5 - 3 g^2 + s) / 2
    branch B:  f2^2 = ((5 - g^2) + s) / 8,   f1^2 = (5 - 3 g^2 - s) / 2

Both branches are feasible on all of (0, 1] and coincide at g = 1.  The
coupling g remains a free knob: every g in (0, 1] yields the same comb but a
different energy split at half the revival period, given in closed form by

    E(g) = (g^4 - 2 g^2 + (1 - g^2) s)^2 / 9.

Exactly one branch reproduces this formula dynamically;
``identify_energy_branch`` determines which by simulation instead of
assuming it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import dynamics
from .errors import (
    BranchInfeasibleError,
    ConsistencyError,
    DomainError,
    InvalidParameterError,
)
from .model import SystemParams, initial_state
from .spectrum import DEFAULT_DEGENERACY_TOL, SweepConstraint, char_poly, eigenfrequencies

BRANCHES = ("A", "B")

#: Coupling that empties the central atom at half the revival period
#: (logical-qubit split, E = 0).
QUBIT_COUPLING = 0.7556142107

#: Coupling that leaves one third of the energy on the central atom
#: (logical-qutrit split, E = 1/3).
QUTRIT_COUPLING = 0.4531870484

_RESIDUAL_TOL = 1e-12
_COMB_SPECTRUM_TOL = 1e-7


@dataclass(frozen=True)
class CombSolution:
    """A parameter set satisfying the comb constraints, tagged by branch.

    ``residuals`` are the three constraint defects (c4 - 5k^2, c2 - 4k^4, c0)
    for spacing k; ``spectrum`` is the verified eigenfrequency set.
    """

    branch: str
    g: float
    delta: float
    f1: float
    f2: float
    residuals: tuple[float, float, float]
    spectrum: tuple[float, ...]

    @property
    def spacing(self) -> float:
        return self.spectrum[-1] / 2.0

    @property
    def params(self) -> SystemParams:
        return SystemParams(g=self.g, delta=self.delta, f1=self.f1, f2=self.f2)

    def to_json_dict(self) -> dict:
        return {
            "branch": self.branch,
            "g": self.g,
            "delta": self.delta,
            "f1": self.f1,
            "f2": self.f2,
            "residuals": list(self.residuals),
            "spectrum": list(self.spectrum),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "CombSolution":
        return cls(
            branch=str(data["branch"]),
            g=float(data["g"]),
            delta=float(data["delta"]),
            f1=float(data["f1"]),
            f2=float(data["f2"]),
            residuals=tuple(float(r) for r in data["residuals"]),
            spectrum=tuple(float(w) for w in data["spectrum"]),
        )


@dataclass(frozen=True)
class EnergyProgram:
    """Couplings achieving a requested central-atom energy at half period."""

    target_e2: float
    g_solutions: tuple[float, ...]

    def to_json_dict(self) -> dict:
        return {"target": self.target_e2, "roots": list(self.g_solutions)}


def comb_constraints(params: SystemParams, spacing: float = 1.0) -> tuple[float, float, float]:
    """Residuals of the comb conditions for the given spacing.

    All three vanish exactly when Det(p) = p^2 (p^2 + k^2) (p^2 + 4 k^2)
    with k = spacing, i.e. when the spectrum is {-2k, -k, 0, 0, k, 2k}.
    """
    if spacing <= 0.0 or not math.isfinite(spacing):
        raise DomainError(f"spacing must be positive and finite, got {spacing}")
    cp = char_poly(params)
    k2 = spacing * spacing
    return (cp.c4 - 5.0 * k2, cp.c2 - 4.0 * k2 * k2, cp.c0)


def _check_coupling_domain(g):
    """g as a float, or a float array whose points all lie in (0, 1]."""
    if isinstance(g, np.ndarray):
        outside = ~((g > 0.0) & (g <= 1.0))
        if outside.any():
            _check_coupling_domain(float(g.flat[np.argmax(outside)]))  # raises that point's error
        return g
    if not isinstance(g, (int, float)) or not math.isfinite(g):
        raise DomainError(f"coupling g must be a finite real number, got {g!r}")
    g = float(g)
    if not 0.0 < g <= 1.0:
        raise DomainError(f"comb design requires 0 < g <= 1, got {g}")
    return g


def _radicand(g):
    """g^4 - 10 g^2 + 9 for a float or an array, in exact products so both round alike."""
    g2 = g * g
    return g2 * g2 - 10.0 * g2 + 9.0


def _branch_squares(g, branch: str):
    """(f2^2, f1^2) for the requested branch at coupling g, a float or a float array.

    On an array, the first failing point raises the error it raises alone.
    """
    if branch not in BRANCHES:
        raise InvalidParameterError(f"branch must be one of {BRANCHES}, got {branch!r}")
    g = _check_coupling_domain(g)
    radicand = _radicand(g)
    array = isinstance(g, np.ndarray)
    s = np.sqrt(np.maximum(radicand, 0.0)) if array else math.sqrt(max(radicand, 0.0))
    g2 = g * g
    if branch == "A":
        f2_sq = ((5.0 - g2) - s) / 8.0
        f1_sq = (5.0 - 3.0 * g2 + s) / 2.0
    else:
        f2_sq = ((5.0 - g2) + s) / 8.0
        f1_sq = (5.0 - 3.0 * g2 - s) / 2.0
    if array:
        failed = (radicand < 0.0) | (f2_sq < 0.0) | (f1_sq < 0.0)
        if failed.any():
            _branch_squares(float(g.flat[np.argmax(failed)]), branch)  # raises that point's error
    elif radicand < 0.0:
        raise DomainError(f"inner square root is imaginary at g={g}")
    elif f2_sq < 0.0 or f1_sq < 0.0:
        raise BranchInfeasibleError(
            f"branch {branch} infeasible at g={g}: f2^2={f2_sq}, f1^2={f1_sq}"
        )
    return f2_sq, f1_sq


def solve_comb_params(g: float, branch: str) -> CombSolution:
    """Comb parameters on the requested branch, verified before returning.

    The returned solution satisfies the constraint residuals to 1e-12 and its
    eigenfrequency set matches {-2, -1, 0, 0, 1, 2} to 1e-7; violations raise
    ConsistencyError.
    """
    f2_sq, f1_sq = _branch_squares(g, branch)
    f2 = math.sqrt(f2_sq)
    f1 = math.sqrt(f1_sq)
    params = SystemParams(g=float(g), delta=f2, f1=f1, f2=f2)
    residuals = comb_constraints(params)
    if max(abs(r) for r in residuals) > _RESIDUAL_TOL:
        raise ConsistencyError(f"comb residuals {residuals} exceed {_RESIDUAL_TOL} at g={g}")
    spectrum = eigenfrequencies(params).frequencies
    target = (-2.0, -1.0, 0.0, 0.0, 1.0, 2.0)
    gap = max(abs(w - t) for w, t in zip(spectrum, target))
    if gap > _COMB_SPECTRUM_TOL:
        raise ConsistencyError(f"comb spectrum off target by {gap:.3e} at g={g}")
    return CombSolution(
        branch=branch,
        g=float(g),
        delta=f2,
        f1=f1,
        f2=f2,
        residuals=residuals,
        spectrum=spectrum,
    )


def branch_constraint(branch: str) -> SweepConstraint:
    """Sweep constraint that re-derives f1 and f2 from g at every grid point.

    It maps the columns (g, delta, f1, f2), equal-length arrays, to new
    columns.  Only the atom-field couplings are replaced; g and delta pass
    through, so a detuning sweep at fixed g probes departures from the
    designed comb.
    """
    if branch not in BRANCHES:
        raise InvalidParameterError(f"branch must be one of {BRANCHES}, got {branch!r}")

    def apply(g, delta, f1, f2):
        f2_sq, f1_sq = _branch_squares(np.asarray(g, dtype=float), branch)
        return g, delta, np.sqrt(f1_sq), np.sqrt(f2_sq)

    return apply


def _energy_inner(g: float) -> float:
    s = math.sqrt(_radicand(g))
    return g**4 - 2.0 * g**2 + (1.0 - g**2) * s


def energy_at_pi(g: float) -> float:
    """Closed-form central-atom energy at half the revival period."""
    g = _check_coupling_domain(g)
    inner = _energy_inner(g)
    return inner * inner / 9.0


def solve_g_for_energy(target: float) -> EnergyProgram:
    """All couplings in (0, 1] whose half-period energy equals ``target``.

    The energy is a perfect square E = h(g)^2 / 9, so roots are those of the
    signed inner function h at the levels L = +-3*sqrt(target); a direct
    search on E - target would miss the tangential root at target = 0.  With
    v = 1 - g^2, h = v^2 - 1 + v sqrt(v (8 + v)) rises strictly from -1 at
    g = 1 to 3 at g = 0, and squaring h = L gives the cubic
    8 v^3 + 2 (L + 1) v^2 - (L + 1)^2 = 0.  Its real roots in [0, 1) that
    squaring did not add (L + 1 >= v^2) are Newton-polished on h(g).  The
    endpoint g = 1, a triple root at target = 1/9, is accepted when it
    matches the target outright.  An unattainable target yields an empty
    solution list, not an error.
    """
    if not isinstance(target, (int, float)) or not math.isfinite(target):
        raise DomainError(f"target must be a finite real number, got {target!r}")
    target = float(target)
    # E < 1 for every g > 0, so target 1 is reached only at the excluded g = 0.
    if target < 0.0 or target >= 1.0:
        return EnergyProgram(target_e2=target, g_solutions=())
    roots: list[float] = []
    for level in {3.0 * math.sqrt(target), -3.0 * math.sqrt(target)}:
        m = level + 1.0
        for root in np.polynomial.polynomial.polyroots([-m * m, 0.0, 2.0 * m, 8.0]):
            if root.imag != 0.0 or not 0.0 <= root.real < 1.0 or m < root.real * root.real:
                continue
            g = math.sqrt(1.0 - root.real)
            for _ in range(3):  # Newton on h(g), with dh/dg = -2 g dh/dv
                v = 1.0 - g * g
                slope = -4.0 * g * (v + math.sqrt(v) * (6.0 + v) / math.sqrt(8.0 + v))
                residual = _energy_inner(g) - level
                if residual == 0.0 or slope == 0.0:
                    break
                g = min(1.0, g - residual / slope)
            roots.append(g)
    if abs(energy_at_pi(1.0) - target) <= _RESIDUAL_TOL:
        roots.append(1.0)
    roots.sort()
    unique: list[float] = []
    for root in roots:
        if not unique or root - unique[-1] > 1e-9:
            unique.append(root)
    for root in unique:
        if abs(energy_at_pi(root) - target) > _RESIDUAL_TOL:
            raise ConsistencyError(f"root g={root} misses target {target} beyond {_RESIDUAL_TOL}")
    return EnergyProgram(target_e2=target, g_solutions=tuple(unique))


def scale_comb(solution: CombSolution, kappa: float) -> CombSolution:
    """Rescale a comb solution to spacing kappa times the original.

    Eigenvalues are linear in a uniform parameter scaling, so all four
    parameters are multiplied by kappa; the revival time becomes
    2*pi / spacing.  Residuals are recomputed against the rescaled target.
    """
    if not isinstance(kappa, (int, float)) or not math.isfinite(kappa) or kappa <= 0.0:
        raise DomainError(f"kappa must be positive and finite, got {kappa!r}")
    kappa = float(kappa)
    params = SystemParams(
        g=kappa * solution.g,
        delta=kappa * solution.delta,
        f1=kappa * solution.f1,
        f2=kappa * solution.f2,
    )
    spacing = kappa * solution.spacing
    residuals = comb_constraints(params, spacing=spacing)
    spectrum = eigenfrequencies(
        params, degeneracy_tol=DEFAULT_DEGENERACY_TOL * spacing
    ).frequencies
    return CombSolution(
        branch=solution.branch,
        g=params.g,
        delta=params.delta,
        f1=params.f1,
        f2=params.f2,
        residuals=residuals,
        spectrum=spectrum,
    )


@lru_cache(maxsize=None)
def identify_energy_branch(
    probe_couplings: tuple[float, ...] = (0.25, 0.55, 0.85),
    tol: float = 1e-7,
) -> str:
    """The branch whose simulated dynamics reproduce the closed-form energy.

    Both branches are run through the spectral propagator at the probe
    couplings; exactly one must match ``energy_at_pi`` within ``tol`` at
    every probe.  The result is measured, not assumed.
    """
    v0 = initial_state(2)
    matches: list[str] = []
    for branch in BRANCHES:
        worst = 0.0
        for g in probe_couplings:
            solution = solve_comb_params(g, branch)
            trajectory = dynamics.evolve_spectral(solution.params, v0, [math.pi])
            simulated = float(np.abs(trajectory.states[0, 1]) ** 2)
            worst = max(worst, abs(simulated - energy_at_pi(g)))
        if worst <= tol:
            matches.append(branch)
    if len(matches) != 1:
        raise ConsistencyError(
            f"energy-branch identification expected exactly one match, got {matches}"
        )
    return matches[0]
