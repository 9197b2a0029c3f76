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

Eigenfrequencies come from the chain's mirror symmetry: the involution
``model.spectral_mirror_operator`` anticommutes with M, so the spectrum is
+-sigma of the lower-triangular 3x3 block

    T = [[f1, 0, 0], [g, delta + f2, 0], [-g, 0, delta - f2]],

whose singular values one batched one-sided Jacobi kernel computes for a
single point or a whole sweep (``_mirror_frequencies``).  They are checked
against the closed-form coefficients: by Vieta, the squared positive
frequencies have the elementary symmetric functions c4, c2 and c0.  The
check is relative to the spectrum's scale and well conditioned at any
multiplicity, so a failure raises ConsistencyError because it can only come
from a bug.  ``frequencies_from_charpoly`` solves the cubic in closed form,
the paper's algebraic route: normalized once by a power of four, so its
frequencies scale bitwise with the coefficients, with the two smaller roots
deflated from the largest; a non-finite coefficient raises DomainError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import (
    ConsistencyError,
    DegenerateSpectrumError,
    DomainError,
    InvalidParameterError,
    PoleError,
)
from .model import _NUM, SystemParams, _first_invalid

#: Absolute tolerance (in comb-spacing units) used to cluster equal
#: eigenfrequencies.  Well above the spectral kernel's rounding error at unit
#: scale (a few 1e-16), well below the comb spacing.
DEFAULT_DEGENERACY_TOL = 1e-7

#: Largest gap ``_coefficient_gap`` passes.  Accurate singular values keep the
#: gap at a few eps whatever the multiplicity (measured <= 1e-14).
_COEFFICIENT_TOL = 1e-12

#: The smallest normal float.  The check takes it as the scale of an all-zero
#: spectrum, and the kernel reads a column whose squared norm is below it as 0.
_TINY = np.finfo(float).tiny

_SWEEPABLE = ("g", "delta", "f1", "f2")

#: Maps the parameter columns (g, delta, f1, f2), equal-length float arrays
#: over a sweep grid, to corrected columns in the same order.
SweepConstraint = Callable[
    [np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
]

_SWEEP_CSV_HEADER = "param,w1,w2,w3,w4,w5,w6,delta,degenerate"
_SPECTRUM_CSV_HEADER = "w1,w2,w3,w4,w5,w6,delta,degenerate,discriminant,zero_frequency_pair"


@dataclass(frozen=True)
class CharPoly:
    """Coefficients of Det(p) = p^6 + c4*p^4 + c2*p^2 + c0."""

    c4: float
    c2: float
    c0: float

    def eval(self, p: complex) -> complex:
        q = p * p
        return ((q + self.c4) * q + self.c2) * q + self.c0


@dataclass(frozen=True)
class Spectrum:
    """Six real eigenfrequencies, ascending, with degeneracy metadata.

    ``clusters`` lists (representative value, multiplicity) for groups of
    frequencies within ``degeneracy_tol`` of their neighbours.
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
    repeated root, i.e. when two distinct |w| values collide.  It is the
    exact value rounded once, so never negative.  It also reads 0.0 where a
    positive exact value is below half the smallest subnormal (~2.5e-324),
    and ``degeneracy_discriminant`` raises DomainError where it is above the
    float range.
    ``zero_frequency_pair`` flags c0 = 0 to a relative 1e-12 (delta = +-f2,
    or f1 = 0), the case where a +-w pair sits at w = 0; the spectrum is then
    degenerate even though the cubic's roots may all be simple.
    """

    discriminant: float
    zero_frequency_pair: bool


def char_poly(params: SystemParams) -> CharPoly:
    """Closed-form characteristic-polynomial coefficients."""
    return CharPoly(*_char_poly_coeffs(params.g, params.delta, params.f1, params.f2))


def _char_poly_coeffs(g, delta, f1, f2):
    """(c4, c2, c0) for floats, for parameter arrays, or exactly for integers."""
    d2 = delta * delta
    g2 = g * g
    f12 = f1 * f1
    f22 = f2 * f2
    c4 = 2 * d2 + 2 * g2 + f12 + 2 * f22
    c2 = d2 * d2 + 2 * (g2 + f12 - f22) * d2 + 2 * (g2 + f12) * f22 + f22 * f22
    dm = delta - f2
    dp = delta + f2
    c0 = f12 * (dm * dm) * (dp * dp)
    return c4, c2, c0


def _real_quadratic_roots(b: float, c: float) -> list[float]:
    # x^2 + b x + c, both roots known real (Hermitian origin).  The caller
    # normalizes its cubic, so 1.0 bounds b^2 and |c| of a valid one.
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


def frequencies_from_charpoly(cp: CharPoly) -> tuple[float, ...]:
    """Six frequencies from the closed-form cubic in q = p^2, ascending.

    The cubic is divided exactly by the power of four 4^m that brings c4 into
    [1/4, 1), so every constant below is relative and the frequencies scale
    bitwise with the coefficients.  The most negative root q1 comes from the
    trigonometric form, where -b/3 and the depressed root add without
    cancellation; the other two solve the quadratic Vieta leaves (sum
    -c4 - q1, product -c0/q1), so a root that vanishes with c0 keeps its
    relative accuracy and c0 = 0 gives an exact zero pair (Kahan, "To Solve a
    Real Cubic Equation", 1986).  Near a repeated root the members of the
    cluster keep an error ~eps^(1/m) at multiplicity m; their mean stays well
    conditioned.  Raises DomainError for a non-finite coefficient and
    ConsistencyError where the cubic cannot have three real roots <= 0.
    """
    if not all(map(math.isfinite, (cp.c4, cp.c2, cp.c0))):
        raise DomainError(f"characteristic polynomial coefficients are outside the float range (+-1.8e308): {cp}")
    if not cp.c4 > 0.0:  # the roots, all <= 0, sum to -c4
        if cp.c4 == cp.c2 == cp.c0 == 0.0:
            return (0.0,) * 6
        raise ConsistencyError(f"c4 = {cp.c4} <= 0 with {cp}: the cubic has no three real roots <= 0")
    m = (math.frexp(cp.c4)[1] + 1) // 2
    try:  # three real roots <= 0 bound c2 and c0 by c4^2/3 and c4^3/27
        b, c, d = (math.ldexp(x, -2 * m * k) for k, x in ((1, cp.c4), (2, cp.c2), (3, cp.c0)))
    except OverflowError:
        raise ConsistencyError(f"c2 or c0 is far above its bound by c4 for {cp}") from None
    # q = t - b/3 turns the cubic into t^3 + p t + r, whose p <= 0 but for rounding.
    p = min(c - b * b / 3.0, 0.0)
    r = d + b * (2.0 * b * b - 9.0 * c) / 27.0
    # Its most negative root is s*cos(theta + 2pi/3) with cos(3 theta) = -4r/s^3.
    s = 2.0 * math.sqrt(-p / 3.0)
    t = -s * math.cos(math.acos(max(-1.0, min(1.0, 4.0 * r / (s * s * s)))) / 3.0) if s > 0.0 else 0.0
    q1 = t - b / 3.0
    # A residual beyond rounding means a clamp met complex roots.
    if abs(((q1 + b) * q1 + c) * q1 + d) > 1e-10 * b * b * b:
        raise ConsistencyError(f"the cubic in q = p^2 has complex roots for {cp}")
    qs = [q1, *_real_quadratic_roots(b + q1, -d / q1)]
    if max(qs) > 1e-9 * b:
        raise ConsistencyError(f"cubic root q = {max(qs) / b:.3e} * c4 > 0 implies a non-real frequency for {cp}")
    ws = sorted(math.ldexp(math.sqrt(max(0.0, -q)), m) for q in qs)
    return (*(0.0 - w for w in reversed(ws)), *ws)


def _cluster(frequencies: Sequence[float], tol: float) -> tuple[tuple[float, int], ...]:
    groups: list[list[float]] = []
    for f in frequencies:
        if groups and f - groups[-1][-1] <= tol:
            groups[-1].append(f)
        else:
            groups.append([f])
    return tuple(
        (float(group[0]) if len(group) == 1 else float(np.mean(group)), len(group)) for group in groups
    )


def _check_degeneracy_tol(degeneracy_tol: float) -> None:
    if not 0.0 < degeneracy_tol < math.inf:
        raise InvalidParameterError(f"degeneracy_tol must be positive and finite, got {degeneracy_tol}")


#: A pair of columns of T counts as orthogonal once the cosine of their angle
#: is at most rows times eps.  At eps alone a rotation can flip the rounding
#: residue from one side to the other for ever.
_ORTHOGONAL = 3 * np.finfo(float).eps

#: Most sweeps of the Jacobi kernel.  A point needs 3-5, one with f1 = 0 up to
#: 15 (its rank-deficient column shrinks by ~eps per sweep until it reads 0).
#: A point cut off here is still judged by the coefficient check.
_MAX_SWEEPS = 30

_COLUMN_PAIRS = ((0, 1), (0, 2), (1, 2))


def _if_else(condition, a, b):
    return a if condition else b


def _mirror_frequencies(g, delta, f1, f2):
    """(-s3, -s2, -s1, s1, s2, s3), ascending, for float parameters, or six
    such arrays for equal-length parameter arrays; s1 <= s2 <= s3 are the
    singular values of T (see the module docstring).

    One-sided (Hestenes) Jacobi rotates pairs of T's columns, cyclically,
    until every pair is orthogonal; the column norms are then the singular
    values, each to high relative accuracy (Demmel & Veselic, SIAM J. Matrix
    Anal. Appl. 13, 1992).
    - Each point is first divided exactly by the power of two 2^e that brings
      its largest parameter to [0.5, 1), and the result multiplied back, so
      the frequencies scale bitwise with the parameters and nothing overflows
      on the way.
    - A pair rotates only where |gamma| > _ORTHOGONAL * sqrt(alpha * beta) > 0
      (alpha, beta the squared column norms, gamma their dot product).  A
      sweep that rotates no pair of a point leaves it unchanged for good, so
      its bits do not depend on the rest of the batch, and floats and arrays,
      which take the same operations in the same order, agree bitwise.
    - A column whose squared norm is below ``_TINY`` reads 0, i.e. a singular
      value below 2^-511 of the largest parameter; it is then exactly 0.
    - The negative half is 0.0 - s: an exact mirror, with 0 for a zero pair.
    """
    arrays = isinstance(g, np.ndarray)
    xp, where, larger = (np, np.where, np.maximum) if arrays else (math, _if_else, max)
    _, e = xp.frexp(larger(larger(abs(g), abs(delta)), larger(f1, f2)))
    g, delta, f1, f2 = (xp.ldexp(x, -e) for x in (g, delta, f1, f2))
    columns = [(f1, g, -g), (0.0, delta + f2, 0.0), (0.0, 0.0, delta - f2)]
    norms = [x * x + y * y + z * z for x, y, z in columns]
    for _ in range(_MAX_SWEEPS):
        rotated = False
        for i, j in _COLUMN_PAIRS:
            (ax, ay, az), (bx, by, bz) = columns[i], columns[j]
            alpha, beta = norms[i], norms[j]
            gamma = ax * bx + ay * by + az * bz
            bound = _ORTHOGONAL * xp.sqrt(alpha * beta)
            rotate = (abs(gamma) > bound) & (bound > 0.0)
            if not (rotate.any() if arrays else rotate):
                continue
            rotated = True
            # tan of the angle that makes the pair orthogonal, the smaller root
            diff = beta - alpha
            root = abs(diff) + xp.sqrt(diff * diff + 4.0 * (gamma * gamma))
            t = where(rotate, xp.copysign(2.0, diff) * gamma / where(rotate, root, 1.0), 0.0)
            c = 1.0 / xp.sqrt(1.0 + t * t)
            s = c * t
            a = (c * ax - s * bx, c * ay - s * by, c * az - s * bz)
            b = (s * ax + c * bx, s * ay + c * by, s * az + c * bz)
            columns[i], columns[j] = a, b
            norms[i] = a[0] * a[0] + a[1] * a[1] + a[2] * a[2]
            norms[j] = b[0] * b[0] + b[1] * b[1] + b[2] * b[2]
        if not rotated:
            break
    if arrays:
        s1, s2, s3 = np.sort(np.sqrt(np.where(np.array(norms) < _TINY, 0.0, norms)), axis=0)
    else:
        s1, s2, s3 = sorted(0.0 if n < _TINY else math.sqrt(n) for n in norms)
    # Scaled back by 2^(e-2) and then by 4, so that a frequency beyond the
    # float range becomes inf (math.ldexp would raise OverflowError).
    with np.errstate(over="ignore"):
        s1, s2, s3 = (xp.ldexp(s, e - 2) * 4.0 for s in (s1, s2, s3))
    return 0.0 - s3, 0.0 - s2, 0.0 - s1, s1, s2, s3


def _coefficient_gap(freqs, g, delta, f1, f2):
    """How far the kernel's frequencies are from the closed-form Det(p).

    ``freqs`` holds the six ascending frequencies, floats for float
    parameters or arrays for parameter arrays.  By Vieta, the elementary
    symmetric functions e1, e2, e3 of the squared positive frequencies equal
    c4, c2 and c0 (the negative half is their exact mirror); the gap is the
    largest |e_k - c_k| / s^(2k), with s the top frequency (at least
    ``_TINY``).  Coefficients are well conditioned in the frequencies at any
    multiplicity, so the gap of a correct spectrum stays near eps.  Both
    sides are homogeneous of degree 2k, so the frequencies and parameters are
    divided by s first, which leaves the gap unchanged and keeps the
    coefficients in the float range.  A NaN or infinite frequency gives a
    NaN or infinite gap.
    """
    w1, w2, w3 = freqs[3:]
    scale = np.maximum(w3, _TINY)
    c4, c2, c0 = _char_poly_coeffs(g / scale, delta / scale, f1 / scale, f2 / scale)
    with np.errstate(invalid="ignore"):  # an infinite top frequency
        a, b, c = (x * x for x in (w1 / scale, w2 / scale, w3 / scale))
        gaps = [abs(a + b + c - c4), abs(a * (b + c) + b * c - c2), abs(a * b * c - c0)]
    return np.max(gaps, axis=0)


def _gap_error(gap: float, params: SystemParams) -> ConsistencyError:
    return ConsistencyError(
        f"spectral kernel frequencies miss the closed-form coefficients by {gap:.3e} (relative) for {params}"
    )


def eigenfrequencies(
    params: SystemParams, degeneracy_tol: float = DEFAULT_DEGENERACY_TOL
) -> Spectrum:
    """Six real eigenfrequencies of the chain, checked against the closed form.

    They are +-sigma of the 3x3 block T that the mirror symmetry leaves
    (``_mirror_frequencies``), an exact mirror image about 0, with exact
    zeros where delta = +-f2 or f1 = 0.  Their squares must reproduce the
    closed-form coefficients (c4, c2, c0) to a relative 1e-12 (see
    ``_coefficient_gap``), else ConsistencyError is raised.
    """
    _check_degeneracy_tol(degeneracy_tol)
    freqs = _mirror_frequencies(params.g, params.delta, params.f1, params.f2)
    gap = _coefficient_gap(freqs, params.g, params.delta, params.f1, params.f2)
    if not gap <= _COEFFICIENT_TOL:  # also refuses a NaN gap
        raise _gap_error(gap, params)
    return Spectrum(
        frequencies=freqs,
        degeneracy_tol=degeneracy_tol,
        clusters=_cluster(freqs, degeneracy_tol),
    )


def _nonequidistance(freqs, tol):
    """Non-equidistance error and whether it is undefined, for six ascending
    frequencies, floats or arrays over a grid.  It is undefined where
    neighbours lie within ``tol`` (``_cluster``'s chaining rule) or
    w1 <= ``tol``."""
    w = np.asarray(freqs)
    w1, w2, w3 = w[3:]
    undefined = (np.diff(w, axis=0) <= tol).any(axis=0) | (w1 <= tol)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        delta_err = np.abs(w2 / w1 - 3.0) + np.abs(w3 / w1 - 5.0)
    return delta_err, undefined


def nonequidistance_error(spectrum: Spectrum) -> float:
    """Deviation of the positive frequencies from the 1:3:5 ratio.

    Defined as |w2/w1 - 3| + |w3/w1 - 5| over the sorted positive half of a
    non-degenerate spectrum; zero exactly for combs with spacing 2*w1.
    Undefined for degenerate spectra or when w1 is indistinguishable from 0,
    in which case DegenerateSpectrumError is raised rather than returning an
    arbitrary sentinel value.
    """
    delta_err, undefined = _nonequidistance(spectrum.frequencies, spectrum.degeneracy_tol)
    if undefined:
        raise DegenerateSpectrumError(
            f"ratio criterion undefined: a degenerate cluster or w1 <= {spectrum.degeneracy_tol}"
        )
    return float(delta_err)


def _cubic_discriminant(c4, c2, c0):
    """Discriminant of q^3 + c4 q^2 + c2 q + c0, exactly, for integer coefficients."""
    c44 = c4 * c4
    c22 = c2 * c2
    return 18 * c4 * c2 * c0 - 4 * (c44 * c4) * c0 + c44 * c22 - 4 * (c22 * c2) - 27 * (c0 * c0)


def degeneracy_discriminant(params: SystemParams) -> DegeneracyReport:
    """Discriminant of the cubic in q = p^2 plus the zero-frequency-pair flag.

    Both are computed exactly, on the parameters written as integers over
    their common power-of-two denominator den: the discriminant, of degree
    12, in Python integers, rounded once by the division by den^12.  Raises
    DomainError when it is outside the float range (largest parameter from
    ~1e25 up).  The flag is c0 <= 1e-12 * f1^2 * (delta^2 + f2^2)^2, i.e.
    f1 = 0 or |delta^2 - f2^2| <= 1e-6 * (delta^2 + f2^2).
    """
    ratios = [x.as_integer_ratio() for x in (params.g, params.delta, params.f1, params.f2)]
    den = max(d for _, d in ratios)
    g, delta, f1, f2 = (n * (den // d) for n, d in ratios)
    try:
        disc = _cubic_discriminant(*_char_poly_coeffs(g, delta, f1, f2)) / den**12
    except OverflowError:
        raise DomainError(f"cubic discriminant is outside the float range (+-1.8e308) for {params}") from None
    d2, f22 = delta * delta, f2 * f2
    zero_pair = f1 == 0 or 10**12 * (d2 - f22) ** 2 <= (d2 + f22) ** 2
    return DegeneracyReport(discriminant=disc, zero_frequency_pair=zero_pair)


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
    t = np.asarray(times, dtype=float)
    if not np.all(np.isfinite(t)):
        raise InvalidParameterError("times must be finite")
    spectrum = eigenfrequencies(params, degeneracy_tol)
    numerator = np.poly1d(_s2_numerator_coeffs(params))
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


class SweepRow(NamedTuple):
    """One grid point of a parameter sweep, an immutable named tuple.

    ``delta_err`` is the non-equidistance error, or None when it is
    undefined (degenerate spectrum), in which case ``degenerate`` is True.
    """

    param: float
    frequencies: tuple[float, ...]
    delta_err: float | None
    degenerate: bool

    def to_json_dict(self) -> dict:
        return {
            "param": self.param,
            "frequencies": list(self.frequencies),
            "delta": self.delta_err,
            "degenerate": self.degenerate,
        }


def sweep_spectrum_values(
    base: SystemParams,
    vary: str,
    values: Sequence[float],
    constraint: SweepConstraint | None = None,
    degeneracy_tol: float = DEFAULT_DEGENERACY_TOL,
) -> list[SweepRow]:
    """Spectrum sweep over an explicit list of parameter values.

    ``constraint``, when given, maps the parameter columns (g, delta, f1, f2)
    of the whole grid, equal-length float arrays, to corrected columns (e.g.
    re-deriving f1 and f2 from g for a designed comb) before the spectra are
    computed.

    All points go through one batched call of the spectral kernel, and every
    point gets the check of ``eigenfrequencies``.  A failure raises the error
    that running the points one at a time raises at the first failing point,
    except that the constraint sees the whole grid first, so its errors come
    before any spectrum error.
    """
    if vary not in _SWEEPABLE:
        raise InvalidParameterError(f"unknown sweep parameter {vary!r}; expected one of {_SWEEPABLE}")
    grid = np.asarray(values, dtype=float)
    if grid.ndim != 1:
        raise InvalidParameterError(f"sweep values must be a 1-d sequence, got shape {grid.shape}")
    columns = [grid if name == vary else np.full(len(grid), getattr(base, name)) for name in _SWEEPABLE]
    bad = _first_invalid(*columns)
    if bad < len(grid):
        # The points before it go first, as they would one at a time.
        sweep_spectrum_values(base, vary, grid[:bad], constraint, degeneracy_tol)
        base.replace(**{vary: float(grid[bad])})  # raises that point's error
    if len(grid) == 0:
        return []
    if constraint is not None:
        columns = [np.broadcast_to(np.asarray(c, dtype=float), grid.shape) for c in constraint(*columns)]
        bad = _first_invalid(*columns)
        if bad < len(grid):
            SystemParams(*(float(c[bad]) for c in columns))  # raises that point's error
    _check_degeneracy_tol(degeneracy_tol)
    freqs = _mirror_frequencies(*columns)
    gaps = _coefficient_gap(freqs, *columns)
    failed = ~(gaps <= _COEFFICIENT_TOL)  # also fails a NaN gap
    if failed.any():
        k = int(np.argmax(failed))
        raise _gap_error(gaps[k], SystemParams(*(float(c[k]) for c in columns), omega0=base.omega0))
    delta_err, undefined = _nonequidistance(freqs, degeneracy_tol)
    delta_err = np.where(undefined, None, delta_err)
    columns = grid.tolist(), zip(*(w.tolist() for w in freqs)), delta_err.tolist(), undefined.tolist()
    return list(map(tuple.__new__, repeat(SweepRow), zip(*columns)))


def sweep_spectrum(
    base: SystemParams,
    vary: str,
    lo: float,
    hi: float,
    n: int,
    constraint: SweepConstraint | None = None,
    degeneracy_tol: float = DEFAULT_DEGENERACY_TOL,
) -> list[SweepRow]:
    """Spectrum sweep over a uniform grid of ``n`` points in [lo, hi]."""
    if n < 2:
        raise InvalidParameterError(f"sweep needs n >= 2 grid points, got {n}")
    if not math.isfinite(hi - lo):  # also when lo or hi is not finite
        raise InvalidParameterError(f"sweep range must be finite with a finite width, got [{lo}, {hi}]")
    if not (lo < hi):
        raise InvalidParameterError(f"sweep range must satisfy lo < hi, got [{lo}, {hi}]")
    grid = np.linspace(lo, hi, n)
    return sweep_spectrum_values(base, vary, grid, constraint, degeneracy_tol)


def sweep_rows_to_csv(rows: Sequence[SweepRow]) -> str:
    """CSV table of a sweep; the delta column is empty on degenerate rows."""
    numbers = (_NUM + ",") * 7  # param and the six frequencies
    with_delta, without_delta = numbers + _NUM + ",%s", numbers + ",%s"
    lines = [_SWEEP_CSV_HEADER]
    for param, freqs, delta_err, degenerate in rows:
        flag = "true" if degenerate else "false"
        if delta_err is None:
            lines.append(without_delta % (param, *freqs, flag))
        else:
            lines.append(with_delta % (param, *freqs, delta_err, flag))
    return "\n".join(lines) + "\n"


def _spectrum_record(params: SystemParams, degeneracy_tol: float) -> dict:
    """The object ``trichain spectrum --format json`` writes.  ``degenerate``
    says that the non-equidistance error ``delta`` is undefined (None), which
    is not ``Spectrum.degenerate``: w1 <= tol sets it without a cluster."""
    spectrum = eigenfrequencies(params, degeneracy_tol)
    delta_err, undefined = _nonequidistance(spectrum.frequencies, degeneracy_tol)
    report = degeneracy_discriminant(params)
    return {
        "frequencies": list(spectrum.frequencies),
        "delta": None if undefined else float(delta_err),
        "degenerate": bool(undefined),
        "discriminant": report.discriminant,
        "zero_frequency_pair": report.zero_frequency_pair,
        "clusters": [[value, mult] for value, mult in spectrum.clusters],
    }


def _spectrum_record_to_csv(record: dict) -> str:
    """CSV header and one row of a spectrum record; the delta cell is empty where it is undefined."""
    delta = [] if record["delta"] is None else [record["delta"]]
    template = (_NUM + ",") * 6 + _NUM * len(delta) + ",%s," + _NUM + ",%s"
    degenerate, zero_pair = ("true" if record[key] else "false" for key in ("degenerate", "zero_frequency_pair"))
    row = template % (*record["frequencies"], *delta, degenerate, record["discriminant"], zero_pair)
    return _SPECTRUM_CSV_HEADER + "\n" + row + "\n"
