"""The float outputs pinned in golden.json hold bit for bit (see make_golden.py,
which rewrites the file)."""

import json

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
