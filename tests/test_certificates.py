"""Symbolic certificates: the identities that the closed forms rest on, proved
exactly by sympy on the package's own functions, not on copies of them."""

import numpy as np
import pytest

from trichain import SystemParams, build_coupling_matrix, spectral_mirror_operator
from trichain.model import _MIRROR_BASIS
from trichain.spectrum import _char_poly_coeffs, _cubic_discriminant, _s2_numerator

sympy = pytest.importorskip("sympy")

G, DELTA, F1, F2 = SYMBOLS = sympy.symbols("g delta f1 f2", real=True)


def _exact(array):
    """A float array whose entries are dyadic rationals (0, +-1/2, +-1) as an exact sympy matrix."""
    return sympy.Matrix(np.asarray(array).tolist()).applyfunc(sympy.Rational)


def _units():
    """build_coupling_matrix at the four unit parameter sets: M_x for x in (g, delta, f1, f2)."""
    return [build_coupling_matrix(SystemParams(*(float(i == k) for i in range(4)))) for k in range(4)]


def _generator():
    """M = sum of x * M_x over the parameters x, read off ``build_coupling_matrix``."""
    return sum((x * _exact(unit) for x, unit in zip(SYMBOLS, _units())), sympy.zeros(6, 6))


def test_the_generator_is_linear_in_the_parameters():
    # The symbolic M holds at every point only if build_coupling_matrix is the sum of x * M_x.
    params = SystemParams(0.75, -0.375, 1.25, 0.5)
    assert np.array_equal(sum(x * unit for x, unit in zip(params, _units())), build_coupling_matrix(params))


def test_char_poly_coeffs_expand_the_determinant():
    p = sympy.Symbol("p")
    det = (p * sympy.eye(6) + sympy.I * _generator()).det(method="berkowitz")
    c4, c2, c0 = _char_poly_coeffs(*SYMBOLS)
    assert sympy.expand(det - (p**6 + c4 * p**4 + c2 * p**2 + c0)) == 0


def test_s2_numerator_is_the_cofactor_of_the_central_atom():
    # s2_response is the (2,2) entry of (pI + iM)^-1: that cofactor over Det(p).
    p = sympy.Symbol("p")
    minor = p * sympy.eye(6) + sympy.I * _generator()
    minor.row_del(1)
    minor.col_del(1)
    a, c = (x.xreplace({f: sympy.Rational(f) for f in x.atoms(sympy.Float)}) for x in _s2_numerator(G, DELTA, F2))
    assert not (a.atoms(sympy.Float) or c.atoms(sympy.Float))
    q = p * p
    assert sympy.expand(minor.det(method="berkowitz") - p * (q * q + a * q + c)) == 0


def test_cubic_discriminant_is_sympys():
    q, c4, c2, c0 = sympy.symbols("q c4 c2 c0")
    expected = sympy.discriminant(q**3 + c4 * q**2 + c2 * q + c0, q)
    assert sympy.expand(_cubic_discriminant(c4, c2, c0) - expected) == 0


def test_mirror_basis_is_orthonormal_and_carries_m_to_t():
    basis = _exact(_MIRROR_BASIS)
    assert basis * basis.T == sympy.eye(6)
    x, y = basis[:3, :], basis[3:, :]
    # T of the spectrum module's docstring, lower triangular
    t = sympy.Matrix([[F1, 0, 0], [G, DELTA + F2, 0], [-G, 0, DELTA - F2]])
    assert (x * _generator() * y.T - t).expand() == sympy.zeros(3, 3)


def test_mirror_operator_anticommutes_with_m():
    s, m = _exact(spectral_mirror_operator()), _generator()
    assert (s * m + m * s).expand() == sympy.zeros(6, 6)
