"""Spectral analysis of the chain: characteristic polynomial, eigenfrequencies,
non-equidistance error, degeneracy diagnostics, and the Laplace-domain response
of the initially excited central atom.

The generator M is real symmetric, so its characteristic polynomial in the
Laplace variable p (eigenvalues sit at p_n = -i*w_n) is even:

    Det(p) = p^6 + c4*p^4 + c2*p^2 + c0,

a cubic in q = p^2 whose three roots are q_k = -w_k^2 <= 0.  The closed-form
coefficients are

    c4 = 2*delta^2 + 2*g^2 + f1^2 + 2*f2^2
    c2 = delta^4 + 2*(g^2 + f1^2 - f2^2)*delta^2 + 2*(g^2 + f1^2)*f2^2 + f2^4
    c0 = f1^2 * (delta - f2)^2 * (delta + f2)^2

so c0 >= 0 always, and c0 = 0 exactly when delta = +-f2 (the zero-frequency
pair that produces the central degeneracy of a designed comb).

Eigenfrequencies are always computed twice, from the cubic in closed form and
from a symmetric eigensolver, and the two routes must agree; a disagreement
raises ConsistencyError because it can only come from a bug.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    ConsistencyError,
    DegenerateSpectrumError,
    InvalidParameterError,
    PoleError,
)
from .model import SystemParams, _fmt, build_coupling_matrix

#: Absolute tolerance (in comb-spacing units) used to cluster equal
#: eigenfrequencies.  Well above eigensolver error for a 6x6 matrix, well
#: below the comb spacing.
DEFAULT_DEGENERACY_TOL = 1e-7

_DUAL_ROUTE_TOL = 1e-9

_SWEEPABLE = ("g", "delta", "f1", "f2")

_SWEEP_CSV_HEADER = "param,w1,w2,w3,w4,w5,w6,delta,degenerate"


@dataclass(frozen=True)
class CharPoly:
    """Coefficients of Det(p) = p^6 + c4*p^4 + c2*p^2 + c0."""

    c4: float
    c2: float
    c0: float

    def coefficients(self) -> np.ndarray:
        """Full degree-6 coefficient array in p, highest power first."""
        return np.array([1.0, 0.0, self.c4, 0.0, self.c2, 0.0, self.c0])

    def eval(self, p: complex) -> complex:
        q = p * p
        return ((q + self.c4) * q + self.c2) * q + self.c0


@dataclass(frozen=True)
class Spectrum:
    """Six real eigenfrequencies, ascending, with degeneracy metadata.

    ``clusters`` lists (representative value, multiplicity) for groups of
    frequencies closer than ``degeneracy_tol``.
    """

    frequencies: tuple[float, ...]
    degeneracy_tol: float
    clusters: tuple[tuple[float, int], ...]

    @property
    def degenerate(self) -> bool:
        return any(mult > 1 for _, mult in self.clusters)

    @property
    def positive(self) -> tuple[float, float, float]:
        """The three largest frequencies (w1 <= w2 <= w3 of the upper half)."""
        return self.frequencies[3:]


@dataclass(frozen=True)
class DegeneracyReport:
    """Cubic discriminant plus the zero-frequency-pair flag.

    ``discriminant`` vanishes exactly when the cubic in q = p^2 has a
    repeated root, i.e. when two distinct |w| values collide.
    ``zero_frequency_pair`` flags c0 = 0 (delta = +-f2), the case where a
    +-w pair sits at w = 0; the spectrum is then degenerate even though the
    cubic's roots may all be simple.
    """

    discriminant: float
    zero_frequency_pair: bool


def char_poly(params: SystemParams) -> CharPoly:
    """Closed-form characteristic-polynomial coefficients."""
    d2 = params.delta * params.delta
    g2 = params.g * params.g
    f12 = params.f1 * params.f1
    f22 = params.f2 * params.f2
    c4 = 2.0 * d2 + 2.0 * g2 + f12 + 2.0 * f22
    c2 = d2 * d2 + 2.0 * (g2 + f12 - f22) * d2 + 2.0 * (g2 + f12) * f22 + f22 * f22
    c0 = f12 * (params.delta - params.f2) ** 2 * (params.delta + params.f2) ** 2
    return CharPoly(c4=c4, c2=c2, c0=c0)


def _real_quadratic_roots(b: float, c: float) -> list[float]:
    # x^2 + b x + c, both roots known real (Hermitian origin).
    disc = b * b - 4.0 * c
    if disc < 0.0:
        if disc < -1e-10 * max(1.0, b * b, abs(c)):
            raise ConsistencyError(f"quadratic factor has complex roots (disc={disc})")
        disc = 0.0
    root = math.sqrt(disc)
    q = -0.5 * (b + math.copysign(root, b)) if b != 0.0 else 0.5 * root
    if q == 0.0:
        return [0.0, 0.0]
    return sorted((q, c / q))


def _real_cubic_roots(b: float, c: float, d: float) -> list[float]:
    """Ascending real roots of x^3 + b x^2 + c x + d.

    Uses the trigonometric form for the three-real-roots case, which is
    guaranteed here because the cubic comes from a real symmetric matrix.
    A vanishing constant term is factored out exactly so that designed combs
    keep their zero root exact.
    """
    if d == 0.0:
        return sorted([0.0] + _real_quadratic_roots(b, c))
    shift = b / 3.0
    p = c - b * b / 3.0
    r = d + b * (2.0 * b * b - 9.0 * c) / 27.0
    scale = max(1.0, abs(b) * abs(b), abs(c))
    if p >= -1e-14 * scale:
        # Depressed coefficient non-negative only by rounding at a (near-)
        # triple root; then r is equally tiny and the root is -cbrt(r).
        t = -float(np.cbrt(r))
        roots = [t, t, t]
    else:
        m = 2.0 * math.sqrt(-p / 3.0)
        cosarg = 3.0 * r / (p * m)  # equals -4r/m^3
        cosarg = min(1.0, max(-1.0, cosarg))
        theta = math.acos(cosarg) / 3.0
        roots = [m * math.cos(theta - 2.0 * math.pi * k / 3.0) for k in range(3)]
    return sorted(t - shift for t in roots)


def frequencies_from_charpoly(cp: CharPoly) -> tuple[float, ...]:
    """Six frequencies from the closed-form cubic in q = p^2, ascending."""
    qs = _real_cubic_roots(cp.c4, cp.c2, cp.c0)
    scale = 1.0 + cp.c4
    freqs: list[float] = []
    for q in qs:
        if q > 1e-9 * scale:
            raise ConsistencyError(f"cubic root q={q} > 0 implies non-real frequency")
        w = math.sqrt(max(-q, 0.0))
        freqs.extend((-w, w))
    return tuple(sorted(freqs))


def _cluster(frequencies: Sequence[float], tol: float) -> tuple[tuple[float, int], ...]:
    groups: list[list[float]] = []
    for f in frequencies:
        if groups and f - groups[-1][-1] <= tol:
            groups[-1].append(f)
        else:
            groups.append([f])
    return tuple((float(np.mean(group)), len(group)) for group in groups)


def eigenfrequencies(
    params: SystemParams, degeneracy_tol: float = DEFAULT_DEGENERACY_TOL
) -> Spectrum:
    """Six real eigenfrequencies of the chain, computed two independent ways.

    Route (a) solves the closed-form cubic in q = p^2; route (b) diagonalizes
    the real symmetric generator.  Both must agree within 1e-9; the
    eigensolver result is returned because it stays orthonormal at
    degeneracies.
    """
    if not 0.0 < degeneracy_tol < math.inf:
        raise InvalidParameterError(f"degeneracy_tol must be positive and finite, got {degeneracy_tol}")
    closed = frequencies_from_charpoly(char_poly(params))
    numeric = np.linalg.eigvalsh(build_coupling_matrix(params))
    gap = float(np.max(np.abs(numeric - np.asarray(closed))))
    if gap > _DUAL_ROUTE_TOL:
        raise ConsistencyError(
            f"closed-form and eigensolver frequencies disagree by {gap:.3e} for {params}"
        )
    freqs = tuple(float(w) for w in numeric)
    return Spectrum(
        frequencies=freqs,
        degeneracy_tol=degeneracy_tol,
        clusters=_cluster(freqs, degeneracy_tol),
    )


def nonequidistance_error(spectrum: Spectrum) -> float:
    """Deviation of the positive frequencies from the 1:3:5 ratio.

    Defined as |w2/w1 - 3| + |w3/w1 - 5| over the sorted positive half of a
    non-degenerate spectrum; zero exactly for combs with spacing 2*w1.
    Undefined for degenerate spectra or when w1 is indistinguishable from 0,
    in which case DegenerateSpectrumError is raised rather than returning an
    arbitrary sentinel value.
    """
    if spectrum.degenerate:
        raise DegenerateSpectrumError("spectrum has a degenerate cluster; ratio criterion undefined")
    w1, w2, w3 = spectrum.positive
    if w1 <= spectrum.degeneracy_tol:
        raise DegenerateSpectrumError(
            f"lowest positive frequency {w1} is below the degeneracy tolerance"
        )
    return abs(w2 / w1 - 3.0) + abs(w3 / w1 - 5.0)


def _nonequidistance_or_none(spectrum: Spectrum) -> float | None:
    """The non-equidistance error, or None where it is undefined."""
    try:
        return nonequidistance_error(spectrum)
    except DegenerateSpectrumError:
        return None


def degeneracy_discriminant(params: SystemParams) -> DegeneracyReport:
    """Discriminant of the cubic in q = p^2 plus the c0 = 0 flag."""
    cp = char_poly(params)
    c4, c2, c0 = cp.c4, cp.c2, cp.c0
    disc = (
        18.0 * c4 * c2 * c0
        - 4.0 * c4**3 * c0
        + c4**2 * c2**2
        - 4.0 * c2**3
        - 27.0 * c0**2
    )
    f22 = params.f2 * params.f2
    d2 = params.delta * params.delta
    c0_scale = max(1.0, params.f1 * params.f1 * (d2 + f22) ** 2)
    return DegeneracyReport(
        discriminant=float(disc),
        zero_frequency_pair=bool(c0 <= 1e-12 * c0_scale),
    )


def _s2_numerator_coeffs(params: SystemParams) -> np.ndarray:
    # Laplace-domain numerator of the central atom's response, degree 5:
    # p^5 + 2(delta^2+g^2+f2^2) p^3 + C p, with the constant of the cubic part
    # C = delta^4 + 2 delta^2 g^2 - 2 delta^2 f2^2 + 2 g^2 f2^2 + f2^4.
    d2 = params.delta * params.delta
    g2 = params.g * params.g
    f22 = params.f2 * params.f2
    c = d2 * d2 + 2.0 * d2 * g2 - 2.0 * d2 * f22 + 2.0 * g2 * f22 + f22 * f22
    return np.array([1.0, 0.0, 2.0 * (d2 + g2 + f22), 0.0, c, 0.0])


def s2_response(params: SystemParams, p: complex) -> complex:
    """Laplace-domain amplitude of the initially excited central atom.

    The response behaves like 1/p at large |p| (initial value 1).  Raises
    PoleError if p sits at a root of Det.
    """
    cp = char_poly(params)
    det = cp.eval(p)
    ap = abs(p)
    scale = ap**6 + cp.c4 * ap**4 + cp.c2 * ap**2 + cp.c0 + 1e-300
    if abs(det) <= 1e-12 * scale:
        raise PoleError(f"p={p} is at (or too close to) a root of the determinant")
    num = complex(np.polyval(_s2_numerator_coeffs(params), p))
    return num / det


def inverse_laplace_s2(
    params: SystemParams,
    times: Sequence[float],
    degeneracy_tol: float = DEFAULT_DEGENERACY_TOL,
) -> np.ndarray:
    """Time-domain response s2(t) via residues of the Laplace solution.

    Poles are the eigenfrequencies mapped to p_n = -i*w_n.  Frequencies
    closer than ``degeneracy_tol`` are merged into a single pole of higher
    multiplicity, whose contribution uses the confluent (Taylor-series
    division) formula.  The result is an independent route to the dynamics:
    it must match the spectral propagator to high accuracy.

    Returns an array of complex s2 values, one per requested time.
    """
    spectrum = eigenfrequencies(params, degeneracy_tol)
    numerator = np.poly1d(_s2_numerator_coeffs(params))
    t = np.asarray(times, dtype=float)
    out = np.zeros(t.shape, dtype=complex)
    clusters = spectrum.clusters
    for index, (w_rep, mult) in enumerate(clusters):
        p0 = -1j * w_rep
        other_poles = [
            -1j * w
            for j, (w, m) in enumerate(clusters)
            if j != index
            for _ in range(m)
        ]
        rest = np.poly1d(np.poly(other_poles)) if other_poles else np.poly1d([1.0])
        # Taylor coefficients of numerator and of Det/(p-p0)^mult around p0.
        num_taylor: list[complex] = []
        rest_taylor: list[complex] = []
        num_k, rest_k = numerator, rest
        factorial = 1.0
        for order in range(mult):
            if order > 0:
                factorial *= order
            num_taylor.append(complex(np.polyval(num_k, p0)) / factorial)
            rest_taylor.append(complex(np.polyval(rest_k, p0)) / factorial)
            num_k = np.polyder(num_k)
            rest_k = np.polyder(rest_k)
        # Series division gives the principal-part coefficients.
        series: list[complex] = []
        for order in range(mult):
            acc = num_taylor[order]
            for i in range(1, order + 1):
                acc -= rest_taylor[i] * series[order - i]
            series.append(acc / rest_taylor[0])
        contribution = np.zeros(t.shape, dtype=complex)
        power = np.ones(t.shape)
        factorial = 1.0
        for j in range(1, mult + 1):
            if j > 1:
                power = power * t
                factorial *= j - 1
            contribution += series[mult - j] * power / factorial
        out += contribution * np.exp(p0 * t)
    return out


@dataclass(frozen=True)
class SweepRow:
    """One grid point of a parameter sweep.

    ``delta_err`` is the non-equidistance error, or None when it is
    undefined (degenerate spectrum), in which case ``degenerate`` is True.
    """

    param: float
    frequencies: tuple[float, ...]
    delta_err: float | None
    degenerate: bool


def sweep_spectrum_values(
    base: SystemParams,
    vary: str,
    values: Sequence[float],
    constraint: Callable[[SystemParams], SystemParams] | None = None,
    degeneracy_tol: float = DEFAULT_DEGENERACY_TOL,
) -> list[SweepRow]:
    """Spectrum sweep over an explicit list of parameter values.

    ``constraint``, when given, maps the per-point parameters to a corrected
    set (e.g. re-deriving f1 and f2 from g for a designed comb) before the
    spectrum is computed.
    """
    if vary not in _SWEEPABLE:
        raise InvalidParameterError(f"unknown sweep parameter {vary!r}; expected one of {_SWEEPABLE}")
    rows: list[SweepRow] = []
    for value in values:
        params = base.replace(**{vary: float(value)})
        if constraint is not None:
            params = constraint(params)
        spectrum = eigenfrequencies(params, degeneracy_tol)
        delta_err = _nonequidistance_or_none(spectrum)
        rows.append(
            SweepRow(
                param=float(value),
                frequencies=spectrum.frequencies,
                delta_err=delta_err,
                degenerate=delta_err is None,
            )
        )
    return rows


def sweep_spectrum(
    base: SystemParams,
    vary: str,
    lo: float,
    hi: float,
    n: int,
    constraint: Callable[[SystemParams], SystemParams] | None = None,
    degeneracy_tol: float = DEFAULT_DEGENERACY_TOL,
) -> list[SweepRow]:
    """Spectrum sweep over a uniform grid of ``n`` points in [lo, hi]."""
    if n < 2:
        raise InvalidParameterError(f"sweep needs n >= 2 grid points, got {n}")
    if not (lo < hi):
        raise InvalidParameterError(f"sweep range must satisfy lo < hi, got [{lo}, {hi}]")
    grid = np.linspace(lo, hi, n)
    return sweep_spectrum_values(base, vary, grid, constraint, degeneracy_tol)


def sweep_rows_to_csv(rows: Sequence[SweepRow]) -> str:
    """CSV table of a sweep; the delta column is empty on degenerate rows."""
    lines = [_SWEEP_CSV_HEADER]
    for row in rows:
        freq = ",".join(_fmt(w) for w in row.frequencies)
        delta = "" if row.delta_err is None else _fmt(row.delta_err)
        flag = "true" if row.degenerate else "false"
        lines.append(f"{_fmt(row.param)},{freq},{delta},{flag}")
    return "\n".join(lines) + "\n"
