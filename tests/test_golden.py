"""The float outputs pinned in golden.json hold bit for bit (see make_golden.py,
which rewrites the file)."""

import json
from itertools import chain

import numpy as np

import make_golden
from trichain.spectrum import _jacobi

GOLDEN = json.loads(make_golden.GOLDEN.read_text(encoding="utf-8"))


def test_jacobi_on_floats():
    assert [make_golden.jacobi_entry(point) for point in make_golden.jacobi_points()] == GOLDEN["jacobi"]


def test_jacobi_on_arrays_gives_the_same_bits():
    freqs, _, _, sigma = _jacobi(*(np.array(column) for column in zip(*make_golden.jacobi_points())))
    rows = zip(*(x.tolist() for x in (*freqs[3:], *sigma)))
    assert [make_golden._hex(row) for row in rows] == GOLDEN["jacobi"]


def test_jacobi_vectors_on_floats():
    entries = map(make_golden.jacobi_vectors_entry, make_golden.jacobi_points())
    assert make_golden._sha("\n".join(entries)) == GOLDEN["jacobi_vectors"]


def _unsigned_minus_g(entry):
    """A ``jacobi_vectors`` entry with 0.0 for a -0.0 in W's -g, its fourth value."""
    values = entry.split()
    values[3] = values[3].replace("-0x0.0p+0", "0x0.0p+0")
    return " ".join(values)


def test_jacobi_vectors_on_arrays_give_the_same_bits_but_the_sign_of_minus_g():
    # A batch rotates a converged point by the identity while others rotate, and
    # c * x - s * y with s = 0.0 turns -g = -0.0 at g = 0 into 0.0 where delta < f2.
    vectors = [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)]
    points = make_golden.jacobi_points()
    _, e, columns, _ = _jacobi(*(np.array(column) for column in zip(*points)), vectors)
    e, *parts = np.broadcast_arrays(e, *chain(*columns), *chain(*vectors))
    batch = [f"{k} {make_golden._hex(row)}" for k, row in zip(e.tolist(), zip(*(x.tolist() for x in parts)))]
    floats = map(make_golden.jacobi_vectors_entry, points)  # pinned by the test above
    assert list(map(_unsigned_minus_g, batch)) == list(map(_unsigned_minus_g, floats))


def test_records():
    points = make_golden.record_points()
    assert [make_golden.eigenfrequencies_entry(point) for point in points] == GOLDEN["eigenfrequencies"]
    assert [make_golden.discriminant_entry(point) for point in points] == GOLDEN["degeneracy_discriminant"]


def test_cli_output(monkeypatch):
    monkeypatch.delenv("TRICHAIN_VERBOSE", raising=False)
    assert [make_golden.cli_entry(argv) for argv in make_golden.CLI_CASES] == GOLDEN["cli"]


def test_figures(monkeypatch):
    monkeypatch.delenv("TRICHAIN_VERBOSE", raising=False)
    assert make_golden.figures_entry() == GOLDEN["figures"]


def test_sweep_csv():
    assert {name: make_golden.sweep_csv_entry(make) for name, make in make_golden.SWEEPS.items()} == GOLDEN["sweep_csv"]
