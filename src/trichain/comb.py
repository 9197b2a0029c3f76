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
``identify_energy_branch`` determines which by the Laplace route (the
inverse Laplace transform of the central atom's response) instead of
assuming it.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import ConsistencyError, DomainError, InvalidParameterError
from .model import SystemParams, _check_params, _is_array, _real, _xp
from .spectrum import _s2_at, char_poly, eigenfrequencies

TYPE_CHECKING = False  # true for static type checkers only: importing typing costs start-up
if TYPE_CHECKING:
    from .spectrum import SweepConstraint

__all__ = [
    "BRANCHES", "QUBIT_COUPLING", "QUTRIT_COUPLING", "CombSolution", "EnergyProgram", "comb_constraints",
    "solve_comb_params", "branch_constraint", "energy_at_pi", "solve_g_for_energy", "scale_comb",
    "identify_energy_branch",
]

BRANCHES = ("A", "B")

#: Coupling that empties the central atom at half the revival period
#: (logical-qubit split, E = 0).
QUBIT_COUPLING = 0.7556142107

#: Coupling that leaves one third of the energy on the central atom
#: (logical-qutrit split, E = 1/3).
QUTRIT_COUPLING = 0.4531870484

_RESIDUAL_TOL = 1e-12
_COMB_SPECTRUM_TOL = 1e-7

#: Couplings at which ``identify_energy_branch`` measures both branches (they
#: coincide at g = 1), and the mismatch within which a branch matches there:
#: branch B misses the closed form by rounding, branch A by ~0.39.
_BRANCH_PROBES = (0.25, 0.55, 0.85)
_BRANCH_TOL = 1e-7


class CombSolution(namedtuple("CombSolution", ("branch", "g", "delta", "f1", "f2", "residuals", "spectrum"))):
    """A parameter set satisfying the comb constraints, tagged by branch; an
    immutable named tuple.

    ``residuals`` are the three constraint defects (c4 - 5k^2, c2 - 4k^4, c0)
    for spacing k, a tuple of floats; ``spectrum`` is the verified
    eigenfrequency set, a tuple of six floats.
    """

    __slots__ = ()

    @property
    def spacing(self) -> float:
        return self.spectrum[-1] / 2.0

    @property
    def params(self) -> SystemParams:
        return SystemParams(g=self.g, delta=self.delta, f1=self.f1, f2=self.f2)

    def to_json_dict(self) -> dict:
        return dict(self._asdict(), residuals=list(self.residuals), spectrum=list(self.spectrum))


class EnergyProgram(namedtuple("EnergyProgram", ("target_e2", "g_solutions"))):
    """Couplings achieving a requested central-atom energy at half period, an
    immutable named tuple; ``g_solutions`` is a tuple of floats."""

    __slots__ = ()

    def to_json_dict(self) -> dict:
        return {"target": self.target_e2, "roots": list(self.g_solutions)}


def _energy_at_pi_json_dict(g: float) -> dict:
    """The object ``trichain energy --g`` writes: the coupling and its ``energy_at_pi``."""
    return {"g": g, "energy": energy_at_pi(g)}


def comb_constraints(params: SystemParams, spacing: float = 1.0) -> tuple[float, float, float]:
    """Residuals of the comb conditions for the given spacing.

    All three vanish exactly when Det(p) = p^2 (p^2 + k^2) (p^2 + 4 k^2)
    with k = spacing, i.e. when the spectrum is {-2k, -k, 0, 0, k, 2k}.
    """
    _check_params(params)
    spacing = _real("spacing", spacing, DomainError, positive=True)
    cp = char_poly(params)
    k2 = spacing * spacing
    return (cp.c4 - 5.0 * k2, cp.c2 - 4.0 * k2 * k2, cp.c0)


def _check_coupling_domain(g) -> float:
    """g as a float in (0, 1]."""
    g = _real("coupling g", g, DomainError)
    if not 0.0 < g <= 1.0:
        raise DomainError(f"comb design requires 0 < g <= 1, got {g}")
    return g


def _radicand(g):
    """g^4 - 10 g^2 + 9 for a float or an array, in exact products so both round alike."""
    g2 = g * g
    return g2 * g2 - 10.0 * g2 + 9.0


def _branch_squares(g, branch: str):
    """(f2^2, f1^2) for the requested branch at coupling g, a float or a float array.

    Both branches come from one formula pair with s = -sqrt(radicand) on
    branch A and +sqrt(radicand) on B.  g must lie in (0, 1]; the first point
    of an array outside it raises, as a float, the error it raises alone.
    There the radicand (1 - g^2)(9 - g^2) is >= 0, f2^2 >= 1/4 and
    f1^2 >= 4 sqrt(2) - 5 ~ 0.657, so no point that passes fails later.
    """
    if branch not in BRANCHES:
        raise InvalidParameterError(f"branch must be one of {BRANCHES}, got {branch!r}")
    if not _is_array(g):
        g = _check_coupling_domain(g)
    else:
        inside = (g > 0.0) & (g <= 1.0)
        if not inside.all():
            _check_coupling_domain(float(g.flat[inside.argmin()]))  # raises that point's error
    root = _xp(g).sqrt(_radicand(g))
    s = -root if branch == "A" else root
    g2 = g * g
    return ((5.0 - g2) + s) / 8.0, (5.0 - 3.0 * g2 - s) / 2.0


def _solution(branch: str, params: SystemParams, spacing: float = 1.0) -> CombSolution:
    """``params`` tagged by branch, with its comb residuals at ``spacing`` and its spectrum."""
    return CombSolution(branch, *params[:4], comb_constraints(params, spacing), eigenfrequencies(params).frequencies)


def solve_comb_params(g: float, branch: str) -> CombSolution:
    """Comb parameters on the requested branch, verified before returning.

    The returned solution satisfies the constraint residuals to 1e-12 and its
    eigenfrequency set matches {-2, -1, 0, 0, 1, 2} to 1e-7; violations raise
    ConsistencyError.
    """
    g = _check_coupling_domain(g)  # a float: an array would take _branch_squares' array branch
    f2_sq, f1_sq = _branch_squares(g, branch)
    f2 = math.sqrt(f2_sq)
    solution = _solution(branch, SystemParams(g=g, delta=f2, f1=math.sqrt(f1_sq), f2=f2))
    if max(abs(r) for r in solution.residuals) > _RESIDUAL_TOL:
        raise ConsistencyError(f"comb residuals {solution.residuals} exceed {_RESIDUAL_TOL} at g={g}")
    gap = max(abs(w - t) for w, t in zip(solution.spectrum, (-2.0, -1.0, 0.0, 0.0, 1.0, 2.0)))
    if gap > _COMB_SPECTRUM_TOL:
        raise ConsistencyError(f"comb spectrum off target by {gap:.3e} at g={g}")
    return solution


def branch_constraint(branch: str) -> SweepConstraint:
    """Sweep constraint that re-derives f1 and f2 from g at every grid point.

    It maps the columns (g, delta, f1, f2), equal-length float arrays or one
    point's floats, to new columns.  Only the atom-field couplings are
    replaced; g and delta pass through, so a detuning sweep at fixed g probes
    departures from the designed comb.
    """
    if branch not in BRANCHES:
        raise InvalidParameterError(f"branch must be one of {BRANCHES}, got {branch!r}")

    def apply(g, delta, f1, f2):
        xp = _xp(g)
        f2_sq, f1_sq = _branch_squares(g, branch)
        return g, delta, xp.sqrt(f1_sq), xp.sqrt(f2_sq)

    return apply


def _energy_inner(g: float) -> float:
    s = math.sqrt(_radicand(g))
    return g**4 - 2.0 * g**2 + (1.0 - g**2) * s


def energy_at_pi(g: float) -> float:
    """Closed-form central-atom energy at half the revival period."""
    g = _check_coupling_domain(g)
    inner = _energy_inner(g)
    return inner * inner / 9.0


def _cubic_root(m: float) -> float:
    """The root v >= 0 of 8 v^3 + 2 m v^2 - m^2 for m >= 0.

    w = 1/v solves the depressed cubic w^3 - (2/m) w - 8/m^2 = 0, whose
    discriminant 16 (1 - m/54) / m^4 is positive for m < 54, so Cardano's
    formula gives its one real root as w = u + 2 / (3 m u), with
    u^3 = 4 r / m^2 and r = 1 + sqrt(1 - m/54).  With k = (4 r)^(1/3) and
    c = m^(1/3), v = 3 k c^2 / (3 k^2 + 2 c): every term is positive, so
    nothing cancels, and m = 0 gives v = 0.
    """
    k = (4.0 * (1.0 + math.sqrt(1.0 - m / 54.0))) ** (1.0 / 3.0)
    c = m ** (1.0 / 3.0)
    return 3.0 * k * c * c / (3.0 * k * k + 2.0 * c)


def solve_g_for_energy(target: float) -> EnergyProgram:
    """All couplings in (0, 1] whose half-period energy equals ``target``.

    The energy is a perfect square E = h(g)^2 / 9, so roots are those of the
    signed inner function h at the levels L = +-3*sqrt(target); a direct
    search on E - target would miss the tangential root at target = 0.  With
    v = 1 - g^2, h = v^2 - 1 + v sqrt(v (8 + v)) rises strictly from -1 at
    g = 1 to 3 at g = 0, and squaring h = L gives the cubic
    f(v) = 8 v^3 + 2 m v^2 - m^2 = 0 with m = L + 1.  A root of h = L has
    m >= v^2 (squaring adds the roots without it), so none exists for m < 0.
    For m > 0, f(0) < 0 and f increases on v >= 0, so f has exactly one root
    v >= 0, in closed form (``_cubic_root``), and m = 0 gives v = 0.  A root
    v < 1 has m >= v^2, since m < v^2 would need v > 8; it is Newton-polished
    on h(g).  m = 0 (target = 1/9) gives v = 0, the endpoint g = 1, a triple
    root; a level with m < 0 has none, but g = 1 is accepted for it when it
    matches the target outright.  An unattainable target yields an empty
    solution list, not an error.
    """
    target = _real("target", target, DomainError)
    # E < 1 for every g > 0, so target 1 is reached only at the excluded g = 0.
    if target < 0.0 or target >= 1.0:
        return EnergyProgram(target_e2=target, g_solutions=())
    roots: list[float] = []
    for level in {3.0 * math.sqrt(target), -3.0 * math.sqrt(target)}:
        m = level + 1.0
        if m < 0.0:
            if abs(energy_at_pi(1.0) - target) <= _RESIDUAL_TOL:
                roots.append(1.0)
            continue
        root = _cubic_root(m)
        if root >= 1.0:
            continue
        g = math.sqrt(1.0 - root)
        for _ in range(3):  # Newton on h(g), with dh/dg = -2 g dh/dv
            v = 1.0 - g * g
            slope = -4.0 * g * (v + math.sqrt(v) * (6.0 + v) / math.sqrt(8.0 + v))
            residual = _energy_inner(g) - level
            if residual == 0.0 or slope == 0.0:
                break
            g = min(1.0, g - residual / slope)
        roots.append(g)
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
    2*pi / spacing.  The residuals, against the rescaled target, and the
    spectrum are recomputed but not checked: a tolerance relative to kappa
    would underflow for a subnormal kappa.
    """
    kappa = _real("kappa", kappa, DomainError, positive=True)
    params = SystemParams(*(kappa * x for x in solution[1:5]))
    return _solution(solution.branch, params, spacing=kappa * solution.spacing)


def identify_energy_branch() -> str:
    """The branch whose dynamics reproduce the closed-form energy, found by the Laplace route.

    On both branches, the central atom's energy at half the revival period,
    s2(pi)^2, is measured at the couplings ``_BRANCH_PROBES`` as the inverse
    Laplace transform of its response (``inverse_laplace_s2``, a general route
    that knows nothing of combs); exactly one branch must match
    ``energy_at_pi`` within ``_BRANCH_TOL`` at every probe, else
    ConsistencyError is raised.  The result is measured, not assumed.
    """
    matches: list[str] = []
    for branch in BRANCHES:
        worst = 0.0
        for g in _BRANCH_PROBES:
            amplitude = _s2_at(solve_comb_params(g, branch).params, math.pi)
            worst = max(worst, abs(amplitude * amplitude - energy_at_pi(g)))
        if worst <= _BRANCH_TOL:
            matches.append(branch)
    if len(matches) != 1:
        raise ConsistencyError(f"branches {matches} reproduce the closed-form energy at the probes, not exactly one")
    return matches[0]
