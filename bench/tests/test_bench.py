"""Tests of the benchmark itself: deterministic inputs, recorded op shares,
the fixed census of known-defect inputs, failure counting, tail percentile, self-time arithmetic and the refusal to
run without the package sources.

    python -m pytest bench/tests -q
"""

import json
import re
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import child  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import CENSUS, CYCLE, SHARES, Op  # noqa: E402


def make(name, tmp_path=None):
    if name == "cli":
        env = {"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"}
        return workloads.Cli(workdir=str(tmp_path) if tmp_path else None, env=env)
    return workloads.WORKLOADS[name]()


@pytest.mark.parametrize("name", list(SHARES))
def test_same_seed_gives_same_inputs(name):
    workload = make(name)
    for index in range(3):
        assert workload.block(7, index) == workload.block(7, index)
    assert workload.block(7, 0) != workload.block(8, 0)
    assert workload.block(7, 0) != workload.block(7, 1)


@pytest.mark.parametrize("name", list(SHARES))
def test_op_shares_match_the_recorded_shares(name):
    workload = make(name)
    cycle = CYCLE[name]
    for seed, start in ((1, 0), (2, 6)):
        blocks = [workload.block(seed, start + k) for k in range(cycle)]
        assert Counter(op.kind for block in blocks for op in block) == SHARES[name]


@pytest.mark.parametrize("name", list(SHARES))
def test_census_is_the_same_for_every_seed_and_matches_the_recorded_counts(name, tmp_path):
    census = make(name, tmp_path).census()
    assert census == make(name, tmp_path).census()
    assert Counter(op.kind for op in census) == CENSUS[name]


def test_census_inputs_stay_out_of_the_blocks():
    queries = make("queries")
    assert not set(CENSUS["queries"]) & set(SHARES["queries"])
    kinds = {op.kind for index in range(3) for op in queries.block(1, index)}
    assert kinds == set(SHARES["queries"])
    assert all(op.args["n"] < 10_000 for op in make("sweep").block(1, 0) if op.kind == "resonant_0_3")
    cli = make("cli")
    timed_bad = {op.args["bad"] for index in range(5) for op in cli.block(1, index) if op.kind == "malformed"}
    census_bad = {op.args["bad"] for op in cli.census()}
    assert timed_bad <= set(workloads.MALFORMED) and census_bad == set(workloads.MALFORMED_SCHEDULES)


def test_timed_spectrum_inputs_keep_their_frequencies_apart():
    queries, cli = make("queries"), make("cli")
    params = [op.args for index in range(20) for op in queries.block(3, index) if op.kind == "spectrum_random"]
    params += [op.args["params"] for index in range(20) for op in cli.block(3, index)
               if op.kind == "spectrum_params"]
    stack = workloads.generator_stack(*(np.array([p[k] for p in params]) for k in ("g", "delta", "f1", "f2")))
    assert np.diff(np.linalg.eigvalsh(stack), axis=1).min() >= workloads.MIN_GAP


def test_readme_share_table_matches_the_generator():
    rows = re.findall(r"^\| (\w+) \| `([\w.]+)` \| ([\d.]+) % \|", (BENCH / "README.md").read_text(), re.M)
    recorded = {(w, kind): float(share) for w, kind, share in rows}
    expected = {}
    for name, shares in SHARES.items():
        total = sum(shares.values())
        for kind, count in shares.items():
            expected[(name, kind)] = round(100.0 * count / total, 2)
    assert recorded == expected


def test_benchmark_json_names_runnable_workloads_and_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert list(SHARES) == list(run.WORKLOADS)
    assert [w["name"] for w in spec["workloads"]] == ["sweep", "cli"]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    import layers

    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers.PER_LAYER


def proc(code, stderr=""):
    return subprocess.CompletedProcess(args=[], returncode=code, stdout="", stderr=stderr)


MALFORMED = Op("malformed", {"argv": [], "bad": "schedule_not_json"})
VALID = Op("comb", {"argv": []})
TRACEBACK = "Traceback (most recent call last):\n  ...\njson.decoder.JSONDecodeError: Expecting value\n"


def test_malformed_request_exiting_1_is_a_failure():
    assert workloads.classify_cli(MALFORMED, proc(1, TRACEBACK)) is not None


def test_malformed_request_exiting_2_with_error_line_is_a_success():
    assert workloads.classify_cli(MALFORMED, proc(2, "trichain: error: bad schedule\n")) is None
    usage = "usage: trichain spectrum [-h]\ntrichain spectrum: error: argument --g: invalid float value\n"
    assert workloads.classify_cli(MALFORMED, proc(2, usage)) is None


def test_malformed_request_exiting_2_without_error_line_is_a_failure():
    assert workloads.classify_cli(MALFORMED, proc(2, "")) is not None
    assert workloads.classify_cli(MALFORMED, proc(2, TRACEBACK + "trichain: error: x\n")) is not None


def test_valid_request_must_exit_0():
    assert workloads.classify_cli(VALID, proc(0)) is None
    assert workloads.classify_cli(VALID, proc(2, "trichain: error: x\n")) is not None


def test_real_malformed_requests_are_counted(tmp_path):
    cli = make("cli", tmp_path)
    bad_json = Op("malformed", {"argv": ["evolve", "--schedule", "s.json", "--t-end", "1"],
                                "bad": "schedule_not_json"}, files={"s.json": '{"segments": ['})
    bad_number = Op("malformed", {"argv": ["spectrum", "--g", "0.5x", "--delta", "0", "--f1", "1",
                                           "--f2", "1"], "bad": "bad_number"})
    outcomes = {}
    for op in (bad_json, bad_number):
        cli.prepare(op)
        result = cli.run(op)
        outcomes[op.args["bad"]] = (result.returncode, workloads.classify_cli(op, result))
    assert outcomes["bad_number"] == (2, None)
    code, reason = outcomes["schedule_not_json"]
    assert (reason is None) == (code == 2)


class StubWorkload:
    """Three ops per block: one fine, one raising, one returning a wrong result."""

    name = "stub"

    def block(self, seed, index):
        return [Op("fine", {}), Op("raises", {}), Op("wrong", {})]

    def prepare(self, op):
        pass

    def run(self, op):
        if op.kind == "raises":
            raise RuntimeError("boom")
        return op.kind

    def check(self, op, out):
        if out == "wrong":
            raise workloads.CheckFailed("off by a mile")
        return {}


def test_failures_are_counted_and_never_abort_the_run():
    records = []
    assert child.run_blocks(StubWorkload(), 0, records.append, blocks=2) == 2
    census = []
    child.run_ops(StubWorkload(), [Op("raises", {})], census.append)
    assert [r["failure"] for r in census] == ["raised RuntimeError"]
    assert len(records) == 6
    failures = Counter((r["kind"], r["failure"]) for r in records if r["failure"])
    assert failures == {("raises", "raised RuntimeError"): 2, ("wrong", "wrong result"): 2}
    assert sum(1 for r in records if r["wrong"]) == 2


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    value, percentile = run.tail_latency([float(x) for x in range(100)])
    assert value == 89.0 and percentile == 90.0
    assert run.tail_latency([1.0, 2.0, 3.0]) == (3.0, 100.0)


def test_self_time_subtracts_child_spans():
    tracer = tracing.Tracer()
    outer, inner = tracer.fid_of("spectrum.outer"), tracer.fid_of("model.inner")
    tracer.add_span(tracing.ROOT, 0.0, 10.0, -1, 1, 0)
    tracer.add_span("spectrum.outer", 1.0, 5.0, 0, 1, 0)
    tracer.add_span("model.inner", 2.0, 3.0, 1, 1, 0)
    tracer.end_op()
    stats = tracing.aggregate(tracer)
    assert stats[tracing.ROOT]["self_s"] == pytest.approx(6.0)
    assert stats["spectrum.outer"]["self_s"] == pytest.approx(3.0)
    assert stats["model.inner"]["self_s"] == pytest.approx(1.0)
    assert outer != inner


def test_importtime_split():
    sample = (
        "import time: self [us] | cumulative | imported package\n"
        "import time:       100 |        100 | site\n"
        "import time:       300 |        500 |     numpy\n"
        "import time:       200 |        200 |       scipy.optimize\n"
        "import time:        50 |        750 |   trichain\n"
        "import time:        40 |        790 | trichain.cli\n"
    )
    split = tracing.parse_importtime(sample)
    assert split == pytest.approx({"import_s": 790e-6, "numpy_s": 300e-6, "scipy_s": 200e-6,
                                   "trichain_own_s": 90e-6})


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    result = subprocess.run([sys.executable, "bench/run.py", "--workload", "queries", "--seed", "1",
                             "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode != 0
    assert result.stdout == ""
