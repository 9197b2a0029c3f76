"""Spectral analysis of the chain: characteristic polynomial, eigenfrequencies,
non-equidistance error, degeneracy diagnostics, and the response of the
initially excited central atom, both in the Laplace domain and in time.  The
time response is one second divided difference over the cubic's roots: no
poles are merged, no tolerance is used, and the result is real.

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

whose singular values (and vectors, for the dynamics) one batched one-sided
Jacobi kernel computes for a point or a whole sweep (``_jacobi``).  The kernel checks
them against the closed-form coefficients: by Vieta, the squared positive
frequencies have the elementary symmetric functions c4, c2 and c0.  The
check is relative to the spectrum's scale and well conditioned at any
multiplicity, so a failure raises ConsistencyError because it can only come
from a bug.  ``frequencies_from_charpoly`` solves the cubic in closed form,
the paper's algebraic route: normalized once by a power of four, so its
frequencies scale bitwise with the coefficients, with the two smaller roots
deflated from the largest.  Its squared frequencies pass the same Vieta
rule, so every frequency the package returns is judged by one check; a
cubic the caller built fails it with DomainError, as the input is at fault.

``sweep_spectrum`` and ``sweep_spectrum_values`` return a SweepTable, an
immutable sequence of SweepRow that keeps the kernel's columns and builds a
row only when it is indexed or iterated; ``list(table)`` gives a list, and
an empty list of values an empty table.  ``sweep_rows_to_csv`` writes a
table from its columns, with the array form of %.12g (``_columns``) for its
values in fixed notation, and its CSV is byte-identical to the per-row
writer's on ``list(table)``; a table whose w1..w3 are not exactly
0.0 - w6..w4, as the kernel makes them, is written row by row.
"""

from __future__ import annotations

import cmath
import math
import numbers
import sys
from collections import namedtuple
from collections.abc import Sequence
from itertools import repeat

from .errors import (
    ConsistencyError,
    DegenerateSpectrumError,
    DomainError,
    InvalidParameterError,
    PoleError,
)
from .model import (
    _NUM, _PHYSICAL_KEYS, SystemParams, _check_params, _checked_rows, _is_real, _real, _times_array, _tolist, _xp,
)

TYPE_CHECKING = False  # true for static type checkers only: importing typing costs start-up
if TYPE_CHECKING:
    from typing import Callable

    import numpy as np

    #: Maps the parameter columns (g, delta, f1, f2), equal-length float arrays
    #: over a sweep grid, to corrected columns in the same order.
    SweepConstraint = Callable[
        [np.ndarray, np.ndarray, np.ndarray, np.ndarray],
        tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    ]

__all__ = [
    "DEFAULT_DEGENERACY_TOL", "CharPoly", "Spectrum", "DegeneracyReport", "SweepRow", "SweepTable", "char_poly",
    "frequencies_from_charpoly", "eigenfrequencies", "nonequidistance_error", "degeneracy_discriminant",
    "s2_response", "inverse_laplace_s2", "sweep_spectrum", "sweep_spectrum_values", "sweep_rows_to_csv",
]

#: Tolerance used to cluster equal eigenfrequencies, relative to half the top
#: frequency (``_threshold``): the spacing of a designed comb, so 1e-7 absolute
#: on a unit comb.  Well above the spectral kernel's rounding error (a few
#: 1e-16 relative), well below the comb spacing, at every scale.
DEFAULT_DEGENERACY_TOL = 1e-7

#: Largest Vieta gap either route passes: ``_coefficient_gap`` of the kernel's
#: frequencies, and the closed-form cubic's ``_vieta_gap`` over its top square.
#: A correct spectrum keeps it at a few eps whatever the multiplicity.  Worst
#: measured at 270 000 points (random, near a zero pair, the resonant triple
#: down to g = 1e-12, both comb branches; at scales 2^0, 2^+-150 and 2^+-300):
#: 8.4e-15 for the kernel, and 8.9e-16 for the closed form wherever
#: ``char_poly`` is finite.
_COEFFICIENT_TOL = 1e-12

#: The smallest normal float.  The check takes it as the scale of an all-zero
#: spectrum, and the kernel reads a column whose squared norm is below it as 0.
_TINY = sys.float_info.min

_SWEEP_CSV_HEADER = "param,w1,w2,w3,w4,w5,w6,delta,degenerate"
_SPECTRUM_CSV_HEADER = "w1,w2,w3,w4,w5,w6,delta,degenerate,discriminant,zero_frequency_pair"


class CharPoly(namedtuple("CharPoly", ("c4", "c2", "c0"))):
    """Coefficients of Det(p) = p^6 + c4*p^4 + c2*p^2 + c0, an immutable named tuple."""

    __slots__ = ()

    def eval(self, p: complex) -> complex:
        _checked_p(p)  # the p that s2_response takes
        q = p * p
        return ((q + self.c4) * q + self.c2) * q + self.c0


class Spectrum(namedtuple("Spectrum", ("frequencies", "degeneracy_tol", "clusters"))):
    """Six real eigenfrequencies, a tuple in ascending order, with degeneracy
    metadata; an immutable named tuple.

    ``clusters`` lists (representative value, multiplicity) for groups of
    frequencies within ``degeneracy_tol`` of their neighbours.
    ``degeneracy_tol`` is the absolute gap that was applied: the relative
    tolerance passed to ``eigenfrequencies`` times half the top frequency.
    """

    __slots__ = ()

    @property
    def degenerate(self) -> bool:
        return any(mult > 1 for _, mult in self.clusters)

    @property
    def positive(self) -> tuple[float, float, float]:
        """The three largest frequencies (w1 <= w2 <= w3 of the upper half)."""
        return self.frequencies[3:]


class DegeneracyReport(namedtuple("DegeneracyReport", ("discriminant", "zero_frequency_pair"))):
    """Cubic discriminant plus the zero-frequency-pair flag, an immutable named tuple.

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

    __slots__ = ()


def char_poly(params: SystemParams) -> CharPoly:
    """Closed-form characteristic-polynomial coefficients."""
    _check_params(params)
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
    # x^2 + b x + c, its discriminant clamped at 0: the caller judges the roots.
    root = math.sqrt(max(b * b - 4.0 * c, 0.0))
    q = -0.5 * (b + math.copysign(root, b)) if b != 0.0 else 0.5 * root
    if q == 0.0:
        return [0.0, 0.0]
    return sorted((q, c / q))


def frequencies_from_charpoly(cp: CharPoly) -> tuple[float, ...]:
    """Six frequencies from the closed-form cubic in q = p^2, ascending.

    The cubic is divided exactly by the power of four 4^m that brings c4 into
    [1/4, 1), so the frequencies scale bitwise with the coefficients.  The
    most negative root q1 comes from the trigonometric form, where -b/3 and
    the depressed root add without cancellation; the other two solve the
    quadratic Vieta leaves (sum -c4 - q1, product -c0/q1), so c0 = 0 gives an
    exact zero pair (Kahan, "To Solve a Real Cubic Equation", 1986).  Near a
    repeated root the members of the cluster err ~eps^(1/m) at multiplicity
    m; their mean stays well conditioned.  The squares pass the kernel's rule
    (``_vieta_gap`` over the top square <= _COEFFICIENT_TOL), else the cubic
    has no three real roots <= 0: DomainError, as the caller built it.  A
    ``cp`` that is not a CharPoly raises InvalidParameterError, a coefficient
    that is not a finite real number DomainError.
    """
    if not isinstance(cp, CharPoly):
        raise InvalidParameterError(f"cp must be a CharPoly, got {cp!r}")
    return _cubic_frequencies(CharPoly(*(_real(name, x, DomainError) for name, x in zip(CharPoly._fields, cp))),
                              DomainError)


def _cubic_frequencies(cp: CharPoly, error) -> tuple[float, ...]:
    """``frequencies_from_charpoly`` of float coefficients, raising ``error``
    wherever the cubic has no three real roots <= 0."""
    if not cp.c4 > 0.0:  # the roots, all <= 0, sum to -c4
        if cp.c4 == cp.c2 == cp.c0 == 0.0:
            return (0.0,) * 6
        raise error(f"c4 = {cp.c4} <= 0 with {cp}: the cubic has no three real roots <= 0")
    m = (math.frexp(cp.c4)[1] + 1) // 2
    try:  # three real roots <= 0 bound c2 and c0 by c4^2/3 and c4^3/27
        b, c, d = (math.ldexp(x, -2 * m * k) for k, x in ((1, cp.c4), (2, cp.c2), (3, cp.c0)))
    except OverflowError:
        raise error(f"c2 or c0 is far above its bound by c4 for {cp}") from None
    # q = t - b/3 turns the cubic into t^3 + p t + r, whose p <= 0 but for rounding.
    p = min(c - b * b / 3.0, 0.0)
    r = d + b * (2.0 * b * b - 9.0 * c) / 27.0
    # Its most negative root is s*cos(theta + 2pi/3) with cos(3 theta) = -4r/s^3.
    s = 2.0 * math.sqrt(-p / 3.0)
    t = -s * math.cos(math.acos(max(-1.0, min(1.0, 4.0 * r / (s * s * s)))) / 3.0) if s > 0.0 else 0.0
    q1 = t - b / 3.0
    squares = [max(0.0, -q) for q in (q1, *_real_quadratic_roots(b + q1, -d / q1))]
    # The clamps hide complex or positive roots; the coefficients show them.
    gap = _vieta_gap(squares, b, c, d) / max(*squares, _TINY)
    if not gap <= _COEFFICIENT_TOL:
        raise error(f"the cubic has no three real roots <= 0: its Vieta gap is {gap:.3e} for {cp}")
    ws = sorted(math.ldexp(math.sqrt(x), m) for x in squares)
    return (*(0.0 - w for w in reversed(ws)), *ws)


def _cluster(frequencies: Sequence[float], tol: float) -> tuple[tuple[float, int], ...]:
    groups: list[list[float]] = []
    for f in frequencies:
        if groups and f - groups[-1][-1] <= tol:
            groups[-1].append(f)
        else:
            groups.append([f])
    return tuple((group[0] if len(group) == 1 else _mean(group), len(group)) for group in groups)


def _mean(values: Sequence[float]) -> float:
    """``float(numpy.mean(values))`` bit for bit for up to seven floats, which
    numpy adds in order, starting from 0.0, before it divides by their count."""
    total = 0.0
    for value in values:
        total += value
    return total / len(values)


def _threshold(freqs, tol):
    """The absolute gap that the relative tolerance ``tol`` stands for: tol
    times half the top frequency, which is the spacing of a designed comb.
    It scales with the frequencies, and floats and arrays get the same bits."""
    return 0.5 * tol * freqs[5]


#: A pair of columns of T counts as orthogonal once the cosine of their angle
#: is at most rows times eps.  At eps alone a rotation can flip the rounding
#: residue from one side to the other for ever.
_ORTHOGONAL = 3 * sys.float_info.epsilon

#: Most sweeps of the Jacobi kernel.  A point needs 3-5, one with f1 = 0 up to
#: 15 (its rank-deficient column shrinks by ~eps per sweep until it reads 0).
#: A point cut off here is still judged by the coefficient check.
_MAX_SWEEPS = 30

_COLUMN_PAIRS = ((0, 1), (0, 2), (1, 2))

#: Below it, 4 gamma^2 in a rotation's tangent nears the bottom of the float
#: range (2^-1022), where it loses bits or reads 0, so that pair's diff and
#: gamma are first scaled up by one power of two (Drmac, SIAM J. Sci. Comput.
#: 18, 1997).  The tangent has degree 0 in them, so no other bit moves.
_TINY_GAMMA = 2.0**-480


def _jacobi(g, delta, f1, f2, vectors=None):
    """+-sigma(T) ascending (see the module docstring), e, W and sigma, for
    floats or equal-length arrays: T / 2^e = W V^T, W's columns and norms in
    T's order.  ``vectors`` (V's columns), if handed in, get each rotation.
    Every caller gets frequencies that have passed ``_check_gaps``.

    One-sided (Hestenes) Jacobi rotates pairs of T's columns, cyclically,
    until every pair is orthogonal; the column norms are then the singular
    values, each to high relative accuracy (Demmel & Veselic, SIAM J. Matrix
    Anal. Appl. 13, 1992).
    - Each point is first divided exactly by a power of two (``_normalized``),
      and the result multiplied back, so the frequencies scale bitwise with
      the parameters and nothing overflows on the way.
    - A pair rotates only where |gamma| > _ORTHOGONAL * sqrt(alpha * beta) > 0
      (alpha, beta the squared column norms, gamma their dot product).  A
      sweep that rotates no pair of a point leaves its norms unchanged for
      good, so its frequencies do not depend on the rest of the batch; nor do
      W and V, but for the sign of a zero (-g at g = 0 may read 0.0 in a
      batch).  Floats and arrays run this one body through ``_xp``, so they
      take the same operations in the same order and agree bitwise.
    - A column whose squared norm is below ``_TINY`` reads 0, i.e. a singular
      value below 2^-511 of the largest parameter; it is then exactly 0.
    - A pair whose |gamma| is below ``_TINY_GAMMA`` gets its tangent from diff
      and gamma scaled by a power of two, so that 4 gamma^2 does not underflow.
    - The negative half is 0.0 - s: an exact mirror, with 0 for a zero pair.
    """
    xp = _xp(g)
    point = g, delta, f1, f2
    e, (g, delta, f1, f2) = _normalized(*point)
    columns = [(f1, g, -g), (0.0, delta + f2, 0.0), (0.0, 0.0, delta - f2)]
    norms = [x * x + y * y + z * z for x, y, z in columns]
    for _ in range(_MAX_SWEEPS):
        rotated = False
        for i, j in _COLUMN_PAIRS:
            (ax, ay, az), (bx, by, bz) = columns[i], columns[j]
            alpha, beta = norms[i], norms[j]
            gamma = ax * bx + ay * by + az * bz
            magnitude = abs(gamma)
            bound = _ORTHOGONAL * xp.sqrt(alpha * beta)
            rotate = (magnitude > bound) & (bound > 0.0)
            if not xp.any(rotate):
                continue
            rotated = True
            # tan of the angle that makes the pair orthogonal, the smaller root
            diff = beta - alpha
            tiny = rotate & (magnitude < _TINY_GAMMA)
            if xp.any(tiny):
                k = xp.where(tiny, xp.frexp(xp.maximum(abs(diff), magnitude))[1], 0)
                diff, gamma = xp.ldexp(diff, -k), xp.ldexp(gamma, -k)
            root = abs(diff) + xp.sqrt(diff * diff + 4.0 * (gamma * gamma))
            t = xp.where(rotate, xp.copysign(2.0, diff) * gamma / xp.where(rotate, root, 1.0), 0.0)
            c = 1.0 / xp.sqrt(1.0 + t * t)
            s = c * t
            a = (c * ax - s * bx, c * ay - s * by, c * az - s * bz)
            b = (s * ax + c * bx, s * ay + c * by, s * az + c * bz)
            columns[i], columns[j] = a, b
            norms[i] = a[0] * a[0] + a[1] * a[1] + a[2] * a[2]
            norms[j] = b[0] * b[0] + b[1] * b[1] + b[2] * b[2]
            if vectors is not None:
                (ax, ay, az), (bx, by, bz) = vectors[i], vectors[j]
                vectors[i] = (c * ax - s * bx, c * ay - s * by, c * az - s * bz)
                vectors[j] = (s * ax + c * bx, s * ay + c * by, s * az + c * bz)
        if not rotated:
            break
    s1, s2, s3 = sigma = [xp.sqrt(xp.where(n < _TINY, 0.0, n)) for n in norms]
    s1, s2 = xp.minimum(s1, s2), xp.maximum(s1, s2)  # a sorting network
    s2, s3 = xp.minimum(s2, s3), xp.maximum(s2, s3)
    s1, s2 = xp.minimum(s1, s2), xp.maximum(s1, s2)
    # Scaled back by 2^(e-2) and then by 4, so that a frequency beyond the
    # float range becomes inf (math.ldexp would raise OverflowError).
    with xp.errstate(over="ignore"):
        s1, s2, s3 = (xp.ldexp(s, e - 2) * 4.0 for s in (s1, s2, s3))
    freqs = 0.0 - s3, 0.0 - s2, 0.0 - s1, s1, s2, s3
    _check_gaps(freqs, point)
    return freqs, e, columns, sigma


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
    xp = _xp(freqs[5])
    scale = xp.maximum(freqs[5], _TINY)
    with xp.errstate(invalid="ignore"):  # an infinite top frequency
        c4, c2, c0 = _char_poly_coeffs(g / scale, delta / scale, f1 / scale, f2 / scale)
        return _vieta_gap([x * x for x in (w / scale for w in freqs[3:])], c4, c2, c0)


def _vieta_gap(squares, c4, c2, c0):
    """max |e_k - c_k| for the elementary symmetric functions e_k of three squared
    frequencies, floats or arrays: 0 where -squares are the roots of q^3 + c4 q^2 + c2 q + c0."""
    xp = _xp(squares[0])
    a, b, c = squares
    gaps = abs(a + b + c - c4), abs(a * (b + c) + b * c - c2), abs(a * b * c - c0)
    return xp.maximum(xp.maximum(gaps[0], gaps[1]), gaps[2])


def _check_gaps(freqs, columns):
    """Raise at the first point whose gap is NaN or too large: DomainError where
    its top frequency overflows, which is input out of range, else ConsistencyError."""
    gaps = _coefficient_gap(freqs, *columns)
    if not _xp(gaps).all(gaps <= _COEFFICIENT_TOL):
        k = _tolist(gaps <= _COEFFICIENT_TOL).index(False)
        point = ", ".join(f"{name}={_tolist(c)[k]!r}" for name, c in zip(_PHYSICAL_KEYS, columns))
        if _tolist(freqs[5])[k] == math.inf:
            raise DomainError(f"the top frequency overflows the float range (+-1.8e308) for {point}")
        raise ConsistencyError(f"spectral kernel frequencies miss the closed-form coefficients by "
                               f"{_tolist(gaps)[k]:.3e} (relative) for {point}")


def eigenfrequencies(
    params: SystemParams, degeneracy_tol: float = DEFAULT_DEGENERACY_TOL
) -> Spectrum:
    """Six real eigenfrequencies of the chain, checked against the closed form.

    They are +-sigma of the 3x3 block T that the mirror symmetry leaves
    (``_jacobi``), an exact mirror image about 0, with exact
    zeros where delta = +-f2 or f1 = 0.  Their squares must reproduce the
    closed-form coefficients (c4, c2, c0) to a relative 1e-12 (see
    ``_coefficient_gap``), else ConsistencyError is raised.  They are
    clustered at ``degeneracy_tol`` times half the top frequency.
    """
    _check_params(params)
    degeneracy_tol = _real("degeneracy_tol", degeneracy_tol, positive=True)
    freqs = _jacobi(params.g, params.delta, params.f1, params.f2)[0]
    threshold = _threshold(freqs, degeneracy_tol)
    return Spectrum(frequencies=freqs, degeneracy_tol=threshold, clusters=_cluster(freqs, threshold))


def _nonequidistance(freqs, tol):
    """Non-equidistance error and whether it is undefined, for six ascending
    frequencies, floats or arrays over a grid.  It is undefined where
    neighbours lie within ``tol`` (``_cluster``'s chaining rule) or
    w1 <= ``tol``, and the error is NaN there, for a float and for an array
    element alike."""
    xp = _xp(freqs[3])
    w1, w2, w3 = freqs[3:]
    undefined = w1 <= tol
    for a, b in zip(freqs, freqs[1:]):
        undefined = undefined | (b - a <= tol)
    w1 = xp.where(undefined, 1.0, w1)  # the float where evaluates both arms: never divide by 0
    with xp.errstate(over="ignore"):  # a w1 just above a tiny tol
        delta_err = abs(w2 / w1 - 3.0) + abs(w3 / w1 - 5.0)
    return xp.where(undefined, xp.nan, delta_err), undefined


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
    _check_params(params)
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


def _s2_numerator(g, delta, f2):
    """(a, C) of N3(q) = q^2 + a*q + C: the Laplace-domain numerator of the
    central atom's response is p*N3(p^2)."""
    d2 = delta * delta
    g2 = g * g
    f22 = f2 * f2
    return 2.0 * (d2 + g2 + f22), d2 * d2 + 2.0 * d2 * g2 - 2.0 * d2 * f22 + 2.0 * g2 * f22 + f22 * f22


def _normalized(g, delta, f1, f2, size=0.0):
    """e and (g, delta, f1, f2) / 2^e, floats or arrays, for the power of two
    2^e that brings the largest of |g|, |delta|, f1, f2 (>= 0) and ``size``
    to [0.5, 1): exact, so what is computed from them scales bitwise, and
    nothing overflows on the way."""
    xp = _xp(g)
    _, e = xp.frexp(xp.maximum(xp.maximum(abs(g), abs(delta)), xp.maximum(xp.maximum(f1, f2), size)))
    return e, tuple(xp.ldexp(x, -e) for x in (g, delta, f1, f2))


def _checked_p(p) -> complex:
    """``p`` as a complex, or InvalidParameterError unless it is a finite number."""
    if isinstance(p, numbers.Complex) and _is_real(p.real) and _is_real(p.imag):
        return complex(p)
    raise InvalidParameterError(f"p must be a finite number, got {p!r}")


def s2_response(params: SystemParams, p: complex) -> complex:
    """Laplace-domain amplitude p*N3(p^2)/Det(p) of the initially excited
    central atom.

    The response behaves like 1/p at large |p| (initial value 1).  It is
    evaluated on p and the parameters divided by a common power of two, so
    any finite p gives its value.  Raises InvalidParameterError for a p that
    is not a finite number, PoleError if p sits at a root of Det, and
    DomainError where the value is outside the float range.
    """
    _check_params(params)
    z = _checked_p(p)
    e, (g, delta, f1, f2) = _normalized(*params[:4], max(abs(z.real), abs(z.imag)))
    x = complex(math.ldexp(z.real, -e), math.ldexp(z.imag, -e))
    cp = CharPoly(*_char_poly_coeffs(g, delta, f1, f2))
    det = cp.eval(x)
    if abs(det) <= 1e-12 * cp.eval(abs(x)):
        raise PoleError(f"p={p} is at (or too close to) a root of the determinant")
    a, c = _s2_numerator(g, delta, f2)
    q = x * x
    # times 2^-e, in two factors that stay in the float range
    value = x * ((q + a) * q + c) / det * math.ldexp(1.0, -(e // 2)) * math.ldexp(1.0, e // 2 - e)
    if not cmath.isfinite(value):
        raise DomainError(f"s2 response at p={p} is outside the float range (+-1.8e308) for {params}")
    return value


#: Phases w*t from here on are refused: a float of this size or more is a
#: multiple of 2, so it holds no digit of cos(w*t).
_PHASE_LIMIT = 2.0**53


def _check_phase_range(w_max: float, t_max: float, units: str = "") -> None:
    """Raise DomainError unless max|w| * max|t| < _PHASE_LIMIT: the one rule of
    every route that evaluates sin and cos of w*t.  ``units`` says how w and t
    were scaled, where they were."""
    if not w_max * t_max < _PHASE_LIMIT:
        raise DomainError(f"phases w*t reach 2^53, where a float keeps no digit of cos(w*t): max|w| = {w_max:.6g} "
                          f"times max|t| = {t_max:.6g}{units}")


def _sinc_times(h, x):
    """h * sin(h*x) / (h*x), h where h*x = 0: bounded by both |h| and 1/|x|.
    h is a float or a float array; x is a float."""
    xp = _xp(h)
    hx = h * x
    return xp.where(hx != 0.0, xp.sin(hx) / (x or 1.0), h)  # x = 0 makes every h*x 0


def inverse_laplace_s2(params: SystemParams, times: Sequence[float]) -> np.ndarray:
    """Time-domain response s2(t), the inverse Laplace transform of ``s2_response``.

    The paper's algebraic route: ``char_poly``, the closed-form roots
    q_k = -sigma_k^2 of its cubic (``frequencies_from_charpoly``), sigma_1 <=
    sigma_2 <= sigma_3, and the sum of residues, which for the monic cubic D
    is the second divided difference of h(q) = N3(q)*phi(q), phi(q) =
    cos(t*sqrt(-q)), over the three roots.  By Leibniz's rule

        s2(t) = N3(q1)*phi[q1,q2,q3] + (q1 + q2 + a)*phi[q2,q3] + cos(sigma_3*t)

    with phi[qi,qj] = (t^2/2)*sinc(t(sigma_i+sigma_j)/2)*sinc(t(sigma_i-sigma_j)/2)
    and phi[q1,q2,q3] = (phi[q1,q2] - phi[q2,q3]) / (q1 - q3).  A divided
    difference of an entire function is an entire function of the roots'
    symmetric functions, so repeated and nearly repeated roots need no pole
    merging and no tolerance; at an exact triple root N3(q1) = 0 and the
    first term is dropped.  The parameters are divided by a power of two, and
    the times multiplied by it, so s2(2^k*p, 2^-k*t) equals s2(p, t) bitwise
    where nothing underflows.  The route is independent of the spectral
    kernel, which the propagator runs too.  s2 lies in the +1 sector of
    the mirror symmetry, so it is real.

    Returns a float array of s2 values, one per requested time.  Raises
    InvalidParameterError unless ``times`` is a non-empty 1-d sequence of
    finite values, and DomainError where the largest phase w*t reaches 2^53
    (``_check_phase_range``), where cos(w*t) has no digit left.
    """
    _check_params(params)
    return _s2_at(params, _times_array(times))


def _s2_at(params: SystemParams, t):
    """s2 at t, a finite float or a float array; see ``inverse_laplace_s2``."""
    xp = _xp(t)
    e, (g, delta, f1, f2) = _normalized(*params[:4])
    s1, s2, s3 = _cubic_frequencies(CharPoly(*_char_poly_coeffs(g, delta, f1, f2)), ConsistencyError)[3:]
    a, c = _s2_numerator(g, delta, f2)
    try:  # no phase below is larger than s3 times the largest |t| in these units
        t_max = math.ldexp(max(_tolist(abs(t))), e)
    except OverflowError:
        t_max = math.inf
    _check_phase_range(s3, t_max, f" (w scaled by 2^{-e}, t by 2^{e})")
    t = xp.ldexp(t, e)  # in the units of the normalized parameters
    half = 0.5 * t
    phi12, phi23 = (2.0 * _sinc_times(half, x + y) * _sinc_times(half, x - y) for x, y in ((s1, s2), (s2, s3)))
    q1, q2 = -s1 * s1, -s2 * s2
    out = (q1 + q2 + a) * phi23 + xp.cos(s3 * t)
    if s1 < s3:  # else a triple root, where N3(q1) = 0
        out += ((q1 + a) * q1 + c) * ((phi12 - phi23) / ((s3 - s1) * (s3 + s1)))
    return out


class SweepRow(namedtuple("SweepRow", ("param", "frequencies", "delta_err", "degenerate"))):
    """One grid point of a parameter sweep, an immutable named tuple.

    ``param`` is the swept value and ``frequencies`` a tuple of six floats.
    ``delta_err`` is the non-equidistance error, or None when it is
    undefined (degenerate spectrum), in which case ``degenerate`` is True.
    """

    __slots__ = ()

    def to_json_dict(self) -> dict:
        return {
            "param": self.param,
            "frequencies": list(self.frequencies),
            "delta": self.delta_err,
            "degenerate": self.degenerate,
        }


class SweepTable(Sequence):
    """The rows of a sweep, an immutable sequence of SweepRow kept as columns.

    ``param``, ``delta_err`` (NaN where undefined) and ``degenerate`` are
    read-only 1-d arrays, and ``frequencies`` a tuple of six, the columns of
    w1..w6.  A row is built only when the table is indexed or iterated: the
    row's fields are the columns' elements as Python floats and bools, with
    None for the ``delta_err`` of a degenerate row.  A slice is a table, and
    ``list(table)`` the list of rows.  Two tables are equal when their rows
    are; a table equals no list.
    """

    __slots__ = ("_columns",)

    def __init__(self, param, frequencies, delta_err, degenerate):
        import numpy as np

        columns = [np.array(c, dtype=float) for c in (param, *frequencies, delta_err)]
        columns.append(np.array(degenerate, dtype=bool))
        if len(columns) != 9 or any(c.shape != columns[0].shape for c in columns) or columns[0].ndim != 1:
            raise InvalidParameterError("a sweep table needs equal-length 1-d columns: param, six frequencies, "
                                        "delta_err and degenerate")
        for c in columns:
            c.flags.writeable = False
        self._columns = columns

    param = property(lambda self: self._columns[0], doc="The swept values.")
    frequencies = property(lambda self: tuple(self._columns[1:7]), doc="The columns w1..w6, ascending by row.")
    delta_err = property(lambda self: self._columns[7], doc="The non-equidistance error, NaN where undefined.")
    degenerate = property(lambda self: self._columns[8], doc="Whether the error is undefined.")

    def __len__(self) -> int:
        return len(self._columns[0])

    def __getitem__(self, index):
        if isinstance(index, slice):
            param, *freqs, delta_err, degenerate = (c[index] for c in self._columns)
            return SweepTable(param, freqs, delta_err, degenerate)
        k = range(len(self))[index]  # an IndexError or a TypeError as a list's
        param, *freqs, delta_err, degenerate = (c[k].item() for c in self._columns)
        return SweepRow(param, tuple(freqs), None if degenerate else delta_err, degenerate)

    def __iter__(self):
        import numpy as np

        param, *freqs, delta_err, degenerate = self._columns
        columns = (param.tolist(), zip(*(w.tolist() for w in freqs)), np.where(degenerate, None, delta_err).tolist(),
                   degenerate.tolist())
        return map(tuple.__new__, repeat(SweepRow), zip(*columns))

    def __eq__(self, other):
        if not isinstance(other, SweepTable):
            return NotImplemented
        return len(self) == len(other) and list(self) == list(other)

    def __reduce__(self):
        return type(self), (self.param, self.frequencies, self.delta_err, self.degenerate)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} of {len(self)} rows>"


_CONSTRAINT_COLUMNS = ("a sweep constraint must return four columns (g, delta, f1, f2), each a scalar or of the "
                       "grid's length")


def sweep_spectrum_values(
    base: SystemParams,
    vary: str,
    values: Sequence[float],
    constraint: SweepConstraint | None = None,
    degeneracy_tol: float = DEFAULT_DEGENERACY_TOL,
) -> SweepTable:
    """Spectrum sweep over an explicit list of parameter values, as a SweepTable.

    ``constraint``, when given, maps the parameter columns (g, delta, f1, f2)
    of the whole grid, equal-length float arrays, to corrected columns (e.g.
    re-deriving f1 and f2 from g for a designed comb) before the spectra are
    computed: four, each a scalar, which is broadcast, or of the grid's
    length, or InvalidParameterError.

    All points go through one batched call of the spectral kernel, and every
    point gets the check of ``eigenfrequencies`` and its relative
    ``degeneracy_tol``.  The checks run in this order, and each raises at
    its first failing point: ``vary``, ``degeneracy_tol``, the values (by
    the rule of SystemParams), the constraint over every point, the
    constrained points (by the same rule), the spectra.  An empty list of
    values gives an empty table and reaches no constraint.  ``_sweep_points`` takes
    the points one at a time in the same order, so both give the same rows
    and errors.
    """
    import numpy as np

    k = _vary_index(vary)
    degeneracy_tol = _real("degeneracy_tol", degeneracy_tol, positive=True)
    grid = values if isinstance(values, np.ndarray) else np.array(values, dtype=object)
    if grid.ndim != 1:
        raise InvalidParameterError(f"sweep values must be a 1-d sequence, got shape {grid.shape}")
    n = len(grid)
    rows = _checked_rows([grid if i == k else base[i] for i in range(4)], n)
    grid = rows[k]
    if n == 0:
        return SweepTable(grid, (grid,) * 6, grid, grid.astype(bool))
    if constraint is not None:
        columns = list(constraint(*rows))
        if len(columns) != 4 or any(np.shape(c) not in ((), (n,)) for c in columns):
            raise InvalidParameterError(_CONSTRAINT_COLUMNS)
        rows = _checked_rows(columns, n)
    return SweepTable(grid, *_sweep_fields(rows, degeneracy_tol))


def _sweep_points(base, vary, values, constraint=None, degeneracy_tol=DEFAULT_DEGENERACY_TOL):
    """``sweep_spectrum_values`` one point at a time, on floats and without
    numpy: its checks in its order, so the same rows and errors."""
    k = _vary_index(vary)
    degeneracy_tol = _real("degeneracy_tol", degeneracy_tol, positive=True)
    values = _checked_values(base, k, values)
    points = [(*base[:k], value, *base[k + 1:4]) for value in values]
    if constraint is not None:
        points = [tuple(constraint(*point)) for point in points]
        if any(len(point) != 4 or any(isinstance(v, (list, tuple)) or getattr(v, "shape", ()) != () for v in point)
               for point in points):
            raise InvalidParameterError(_CONSTRAINT_COLUMNS)
        points = [SystemParams(*point)[:4] for point in points]  # the first point it refuses raises
    rows = []
    for value, point in zip(values, points):
        freqs, delta_err, undefined = _sweep_fields(point, degeneracy_tol)
        rows.append(SweepRow(value, freqs, None if undefined else delta_err, undefined))
    return rows


def _vary_index(vary) -> int:
    """The index of the swept parameter in (g, delta, f1, f2)."""
    if vary not in _PHYSICAL_KEYS:
        raise InvalidParameterError(f"unknown sweep parameter {vary!r}; expected one of {_PHYSICAL_KEYS}")
    return _PHYSICAL_KEYS.index(vary)


def _checked_values(base, k, values) -> list[float]:
    """The values of parameter ``k`` as floats, by the rule of SystemParams: the
    first that it rejects raises its error."""
    checked = []
    for value in values:
        if not (isinstance(value, float) and math.isfinite(value) and (value >= 0.0 or k == 1)):
            value = base.replace(**{_PHYSICAL_KEYS[k]: value})[k]  # raises, or gives the float of a number
        checked.append(value)
    return checked


def _sweep_fields(columns, degeneracy_tol):
    """The frequencies, the non-equidistance error (NaN where undefined) and the
    degenerate flag at the parameter ``columns``: arrays, for one batched
    kernel call, or one point's floats; both give the same bits."""
    freqs = _jacobi(*columns)[0]
    return (freqs, *_nonequidistance(freqs, _threshold(freqs, degeneracy_tol)))


def _grid(lo, hi, n, linspace):
    """The uniform grid of ``sweep_spectrum``, made by ``linspace`` once the range is checked."""
    if not isinstance(n, numbers.Integral) or isinstance(n, bool):
        raise InvalidParameterError(f"sweep needs an integer n, got {n!r}")
    if n < 2:
        raise InvalidParameterError(f"sweep needs n >= 2 grid points, got {n}")
    if n > sys.maxsize:
        raise InvalidParameterError(f"sweep needs n <= {sys.maxsize} grid points")
    if not (_is_real(lo) and _is_real(hi)):
        raise InvalidParameterError(f"sweep range must be finite real numbers, got [{lo!r}, {hi!r}]")
    lo, hi = float(lo), float(hi)
    if not math.isfinite(hi - lo):
        raise InvalidParameterError(f"sweep range must be finite with a finite width, got [{lo}, {hi}]")
    if not (lo < hi):
        raise InvalidParameterError(f"sweep range must satisfy lo < hi, got [{lo}, {hi}]")
    return linspace(lo, hi, n)


def sweep_spectrum(
    base: SystemParams,
    vary: str,
    lo: float,
    hi: float,
    n: int,
    constraint: SweepConstraint | None = None,
    degeneracy_tol: float = DEFAULT_DEGENERACY_TOL,
) -> SweepTable:
    """Spectrum sweep over a uniform grid of ``n`` points in [lo, hi], as a SweepTable."""
    import numpy as np

    return sweep_spectrum_values(base, vary, _grid(lo, hi, n, np.linspace), constraint, degeneracy_tol)


def sweep_rows_to_csv(rows: Sequence[SweepRow]) -> str:
    """CSV table of a sweep; the delta column is empty on degenerate rows.

    A SweepTable is written from its columns (``_columns.table_csv``): the
    values that %.12g writes in fixed notation as arrays, any other by %.12g
    itself.  Any other sequence of rows, and a table whose w1..w3 are not
    exactly 0.0 - w6..w4, is written one row at a time; both give the same
    bytes.
    """
    if isinstance(rows, SweepTable):
        from ._columns import table_csv

        return table_csv(rows)
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
    is not ``Spectrum.degenerate``: w1 <= threshold sets it without a cluster.
    ``degeneracy_tol`` is relative, as in ``eigenfrequencies``, so the record
    of 2^k times the parameters has 2^k times the frequencies and cluster
    values and the same flags and ``delta``."""
    spectrum = eigenfrequencies(params, degeneracy_tol)
    delta_err, undefined = _nonequidistance(spectrum.frequencies, spectrum.degeneracy_tol)
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
