import numpy as np
import pytest
from hypothesis import settings

from trichain import SystemParams, SweepTable, sweep_rows_to_csv

# With CI set, hypothesis loads its "ci" profile, which replays one fixed set of
# examples.  This profile draws new ones: run with --hypothesis-profile=randomized
# and a --hypothesis-seed, and the same seed replays a failure.
settings.register_profile("randomized", settings.get_profile("ci"), derandomize=False, print_blob=True)


def random_params(rng, n, coupling_hi=1.2, delta_hi=1.2):
    """Deterministic random parameter draws in the physical working range."""
    draws = []
    for _ in range(n):
        g, f1, f2 = rng.uniform(0.0, coupling_hi, 3)
        delta = rng.uniform(-delta_hi, delta_hi)
        draws.append(SystemParams(g=float(g), delta=float(delta), f1=float(f1), f2=float(f2)))
    return draws


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(autouse=True)
def sweep_tables_write_the_csv_of_their_rows(monkeypatch):
    """Every SweepTable a test builds, by a sweep or a slice, writes from its
    columns the bytes its list of rows gives through the per-row writer."""
    tables = []
    init = SweepTable.__init__

    def recording_init(self, *args):
        init(self, *args)
        tables.append(self)

    monkeypatch.setattr(SweepTable, "__init__", recording_init)
    yield
    monkeypatch.undo()
    for table in tables:
        assert sweep_rows_to_csv(table) == sweep_rows_to_csv(list(table)), table
