"""Rewrite ``tests/golden.json``, the pinned bits of the package's float outputs.

Run from the repository root:

    python tests/make_golden.py

Only outputs built from the basic operations (+, -, *, /, sqrt, frexp and
ldexp, all correctly rounded) are pinned, so the file holds on every Python and
numpy version:

- ``jacobi``: the positive frequencies and sigma of ``spectrum._jacobi`` on
  floats, as ``float.hex``, at parameter points from 2^-300 to 2^300, with
  f1 = 0, delta = +-f2 and g = delta = 0, and points on both sides of the
  range where a rotation's tangent underflows;
- ``jacobi_vectors``: one sha256 over e, W's columns and V's (rotated from
  the identity) of ``spectrum._jacobi`` on floats at the same points: the
  decomposition the dynamics propagates with;
- ``eigenfrequencies`` and ``degeneracy_discriminant``: their records;
- ``cli``: the exit code and the stdout sha256 of ``spectrum``, ``sweep`` and
  ``comb`` runs;
- ``figures``: the sha256 of fig2.csv to fig4.csv;
- ``sweep_csv``: the sha256 of ``sweep_rows_to_csv`` of library sweeps (each a
  SweepTable, written from its columns): the five kinds of the benchmark's
  ``sweep`` workload at small n, a designed-comb g sweep with a zero pair on
  every row, and sweeps of parameters scaled by 2^-600 and 2^600.

Nothing from ``evolve``, fig5, ``energy`` or the Laplace route is pinned:
they call libm's sin and cos, whose last bit differs between platforms.
``tests/test_golden.py`` recomputes every entry and compares.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import random
import sys
import tempfile
from itertools import chain
from pathlib import Path

import numpy as np

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from trichain import (  # noqa: E402
    QUBIT_COUPLING, SystemParams, TrichainError, branch_constraint, degeneracy_discriminant, eigenfrequencies,
    solve_comb_params, sweep_rows_to_csv, sweep_spectrum, sweep_spectrum_values,
)
from trichain.cli import main  # noqa: E402
from trichain.spectrum import _jacobi  # noqa: E402

GOLDEN = Path(__file__).with_name("golden.json")

#: Powers of two that every base point is scaled by.
SCALES = (-300, 0, 300)


def base_points():
    """(g, delta, f1, f2) tuples: random draws, then the special cases."""
    rng = random.Random(20261019)

    def draw():
        return 0.0 if rng.random() < 0.1 else 10.0 ** rng.uniform(-6.0, 0.6)

    points = [(draw(), rng.choice((-1.0, 1.0)) * draw(), draw(), draw()) for _ in range(60)]
    points += [
        (0.0, 0.0, 1.0, 1.0),  # the resonant chain: a triple |w|
        (0.0, 0.0, 0.0, 0.0),
        (0.5, 0.3, 0.0, 0.9),  # f1 = 0
        (1.3, -0.2, 0.0, 0.4),
        (0.0, 0.7, 0.0, 0.7),
        (0.7556142107, 0.37, 1.1, 0.37),  # delta = f2
        (0.4, -0.6, 0.9, 0.6),  # delta = -f2
        (2.5, 1e-3, 1.0, 1e-3),
        (0.0, 0.0, 0.8, 0.3),  # g = delta = 0
        (0.0, 0.0, 0.0, 0.5),
        (1.0, 0.0, 1.0, 0.0),
        (1e-6, 0.0, 1.0, 1.0),  # near the triple root
        (3.0, 0.0, 1.0, 1.0),
        (1.0, 1.0, 1.0, 1.0),
        (0.0, -2.0, 1.0, 0.0),
    ]
    return points


def jacobi_points():
    """The base points at every scale, then points on both sides of the range
    where the tangent of a Jacobi rotation underflows (delta in {0, f2/3}, f1 = 1)."""
    points = [tuple(math.ldexp(x, k) for x in point) for point in base_points() for k in SCALES]
    for g in (1e-9, 1e-7, 1e-5, 1e-3, 0.1):
        for f2 in (1e-100, 1e-85, 1e-82, 1e-79, 1e-75, 1e-70, 1e-60):
            points += [(g, 0.0, 1.0, f2), (g, f2 / 3.0, 1.0, f2)]
    return points


def _hex(values):
    return " ".join(float(x).hex() for x in values)


def _error(exc):
    return f"{type(exc).__name__}: {exc}"


def jacobi_entry(point):
    """The positive frequencies and then sigma, or the error raised."""
    try:
        freqs, _, _, sigma = _jacobi(*point)
    except (ArithmeticError, TrichainError) as exc:
        return _error(exc)
    return _hex([*freqs[3:], *sigma])


def jacobi_vectors_entry(point):
    """e, then W's columns and V's, of ``_jacobi`` on floats."""
    vectors = [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)]
    _, e, columns, _ = _jacobi(*point, vectors)
    return f"{e} {_hex([*chain(*columns), *chain(*vectors)])}"


def record_points():
    return [tuple(math.ldexp(x, k) for x in point) for point in base_points() for k in (0, 300)]


def eigenfrequencies_entry(point):
    try:
        spectrum = eigenfrequencies(SystemParams(*point))
    except TrichainError as exc:
        return _error(exc)
    clusters = " ".join(f"{value.hex()}x{mult}" for value, mult in spectrum.clusters)
    return f"{_hex(spectrum.frequencies[3:])} | {spectrum.degeneracy_tol.hex()} | {clusters}"


def discriminant_entry(point):
    try:
        report = degeneracy_discriminant(SystemParams(*point))
    except TrichainError as exc:
        return _error(exc)
    return f"{report.discriminant.hex()} {report.zero_frequency_pair}"


_PARAMS = [
    ["--g", "0", "--delta", "0", "--f1", "1", "--f2", "1"],
    ["--g", "0.5", "--delta", "0.3", "--f1", "0", "--f2", "0.9"],
    ["--g", "0.37", "--delta", "-0.6", "--f1", "0.9", "--f2", "0.6"],
    ["--g", "1e-5", "--delta", "2e-5", "--f1", "1", "--f2", "3e-5"],
    ["--g", "1e25", "--delta", "0", "--f1", "1e-25", "--f2", "1e-25"],
    ["--g", "3e-200", "--delta", "1e-200", "--f1", "2e-200", "--f2", "5e-201"],
    ["--comb", "A", "--g", "0.7556142107"],
    ["--comb", "B", "--g", "0.25"],
    ["--preset", "qutrit"],
]

CLI_CASES = [
    *(["spectrum", *params, "--format", fmt] for params in _PARAMS for fmt in ("csv", "json")),
    ["spectrum", "--g", "0.01", "--delta", "0", "--f1", "1", "--f2", "1", "--degeneracy-tol", "0.3"],
    ["spectrum", "--g", "0", "--delta", "1", "--f1", "1", "--f2", "1", "--degeneracy-tol", "1e-12"],
    ["sweep", "--vary", "g", "--lo", "0", "--hi", "3", "--n", "61", "--delta", "0", "--f1", "1", "--f2", "1"],
    ["sweep", "--vary", "g", "--lo", "0", "--hi", "3", "--n", "31", "--delta", "0", "--f1", "1", "--f2", "1",
     "--format", "json"],
    ["sweep", "--vary", "delta", "--lo", "-1", "--hi", "1", "--n", "41", "--g", "0.4", "--f1", "0.9",
     "--f2", "0.5"],
    ["sweep", "--vary", "f1", "--lo", "0", "--hi", "2", "--n", "21", "--g", "0.3", "--delta", "0.2",
     "--f2", "0.2"],
    ["sweep", "--vary", "f2", "--lo", "0", "--hi", "1.5", "--n", "33", "--g", "0.8", "--delta", "-0.4",
     "--f1", "1.2", "--degeneracy-tol", "1e-3"],
    ["sweep", "--vary", "g", "--lo", "0.1", "--hi", "1", "--n", "19", "--delta", "0", "--f1", "1", "--f2", "1",
     "--constraint", "A"],
    ["sweep", "--vary", "g", "--lo", "0.1", "--hi", "1", "--n", "19", "--delta", "0", "--f1", "1", "--f2", "1",
     "--constraint", "B", "--format", "json"],
    ["sweep", "--vary", "delta", "--lo", "0", "--hi", "2", "--n", "25", "--g", "0.7556142107", "--f1", "1",
     "--f2", "1", "--constraint", "A"],
    ["sweep", "--vary", "g", "--lo", "1e-300", "--hi", "3e-300", "--n", "9", "--delta", "1e-300", "--f1",
     "2e-300", "--f2", "1e-300"],
    ["sweep", "--vary", "delta", "--lo=-1e250", "--hi", "1e250", "--n", "11", "--g", "1e250", "--f1", "3e250",
     "--f2", "2e250"],
    ["sweep", "--vary", "g", "--lo", "0.5", "--hi", "1.5", "--n", "11", "--delta", "0", "--f1", "1", "--f2", "1",
     "--constraint", "A"],
    ["sweep", "--vary", "g", "--lo", "-1", "--hi", "1", "--n", "5", "--delta", "0", "--f1", "1", "--f2", "1"],
    *(["comb", "--g", g, "--branch", branch] for g in ("0.1", "0.4531870484", "0.7556142107", "1")
      for branch in ("A", "B")),
    ["comb", "--g", "1.5", "--branch", "A"],
]

FIGURES = ("fig2.csv", "fig3.csv", "fig4.csv")


def _sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def cli_entry(argv):
    """The exit code and the sha256 of the stdout and of the stderr of ``trichain`` run on ``argv``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return [code, _sha(out.getvalue()), _sha(err.getvalue())]


def figures_entry():
    """The sha256 of each pinned figure that ``trichain figures`` writes."""
    with tempfile.TemporaryDirectory() as outdir, contextlib.redirect_stdout(io.StringIO()):
        assert main(["figures", "--outdir", outdir]) == 0
        texts = [Path(outdir, name).read_text(encoding="utf-8") for name in FIGURES]
    return dict(zip(FIGURES, map(_sha, texts)))


RESONANT = SystemParams(0.0, 0.0, 1.0, 1.0)


def _detuning_anchor(n):
    anchor = solve_comb_params(QUBIT_COUPLING, "A")
    return sweep_spectrum_values(anchor.params, "delta", np.unique(np.append(np.linspace(0.0, 2.0, n), anchor.f2)))


def _scaled(k):
    base = SystemParams(*(math.ldexp(x, k) for x in (0.3, 0.2, 1.0, 0.7)))
    return sweep_spectrum(base, "delta", math.ldexp(-1.0, k), math.ldexp(1.0, k), 41)


SWEEPS = {
    "resonant_0.01_3": lambda: sweep_spectrum(RESONANT, "g", 0.01, 3.0, 101),
    "resonant_0_3": lambda: sweep_spectrum(RESONANT, "g", 0.0, 3.0, 101),
    "detuning_anchor": lambda: _detuning_anchor(60),
    "comb_A": lambda: sweep_spectrum(SystemParams(0.05, 0.6, 1.0, 1.0), "g", 0.05, 0.95, 57, branch_constraint("A")),
    "comb_B": lambda: sweep_spectrum(SystemParams(0.05, 0.6, 1.0, 1.0), "g", 0.05, 0.95, 57, branch_constraint("B")),
    "comb_zero_pair": lambda: sweep_spectrum(solve_comb_params(0.5, "A").params, "g", 0.1, 1.0, 50,
                                             branch_constraint("A")),
    "resonant_2^-600": lambda: sweep_spectrum(RESONANT._replace(f1=2.0**-600, f2=2.0**-600), "g", 0.0, 3 * 2.0**-600, 31),
    "resonant_2^600": lambda: sweep_spectrum(RESONANT._replace(f1=2.0**600, f2=2.0**600), "g", 0.0, 3 * 2.0**600, 31),
    "delta_2^-600": lambda: _scaled(-600),
    "delta_2^600": lambda: _scaled(600),
}


def sweep_csv_entry(make):
    return _sha(sweep_rows_to_csv(make()))


def golden():
    return {
        "jacobi": [jacobi_entry(point) for point in jacobi_points()],
        "jacobi_vectors": _sha("\n".join(map(jacobi_vectors_entry, jacobi_points()))),
        "eigenfrequencies": [eigenfrequencies_entry(point) for point in record_points()],
        "degeneracy_discriminant": [discriminant_entry(point) for point in record_points()],
        "cli": [cli_entry(argv) for argv in CLI_CASES],
        "figures": figures_entry(),
        "sweep_csv": {name: sweep_csv_entry(make) for name, make in SWEEPS.items()},
    }


if __name__ == "__main__":
    os.environ.pop("TRICHAIN_VERBOSE", None)
    GOLDEN.write_text(json.dumps(golden(), indent=0) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")
