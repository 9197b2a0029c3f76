"""The workload process of the benchmark: one fresh interpreter per run.

    python bench/child.py --setup
    python bench/child.py --workload W --seed N --seconds S --trace 0|1 --out FILE

``--setup`` imports trichain from the checkout's ``src/``, does the one-time
warm-up (the first ``identify_energy_branch`` call, which fills its cache)
and prints the seconds that took.  Otherwise the process runs the
workload's census of known-defect inputs once, untimed, and then whole
blocks of the workload in a closed loop until ``--seconds`` have passed.  It
streams one JSON line per op to ``--out`` + ``l`` as it goes, so that its own
memory does not grow with the number of ops, and writes the rest of its
measurements as JSON to ``--out``.  With ``--trace 1`` it instead runs a
fixed number of blocks twice, untraced and then traced, and reports
per-layer figures.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# Blocks in a traced run: a fixed amount of work, so that its counts repeat
# exactly for a seed; sized to a few seconds at the seed commit.
TRACE_BLOCKS = {"sweep": 1, "queries": 100, "dynamics": 100, "cli": 2}


def import_trichain():
    """Import trichain from ``src/`` and refuse any other copy."""
    sys.path.insert(0, str(SRC))
    import trichain

    resolved = Path(trichain.__file__).resolve().parent
    if resolved != SRC / "trichain":
        raise SystemExit(f"bench: trichain resolved to {resolved}, not {SRC / 'trichain'}")
    return trichain


def setup():
    """Import plus warm-up; returns (seconds, first identify_energy_branch ms)."""
    trichain = import_trichain()
    t0 = time.perf_counter()
    trichain.identify_energy_branch()
    t1 = time.perf_counter()
    return t1 - T_START, (t1 - t0) * 1e3


def run_blocks(workload, seed, emit, blocks=None, seconds=None, tracer=None, diag=None):
    """Closed loop over whole blocks; passes one record per op to ``emit``
    and returns the number of blocks run."""
    start = time.perf_counter()
    index = 0
    while True:
        run_ops(workload, workload.block(seed, index), emit, tracer, diag)
        index += 1
        if blocks is not None and index >= blocks:
            break
        if seconds is not None and time.perf_counter() - start >= seconds:
            break
    return index


def run_ops(workload, ops, emit, tracer=None, diag=None):
    """Runs ``ops`` one after the other and passes one record per op to ``emit``.

    The op's timer covers only the call into the program: inputs are made
    before it starts and the output is checked after it stops.  With a
    tracer, each op is a root span; the calls it captured are digested into
    ``diag`` after the span closes.
    """
    import layers
    import workloads

    classify = getattr(workload, "classify", None)
    for op in ops:
        workload.prepare(op)
        root = tracer.open(0) if tracer else None
        t0 = time.perf_counter()
        try:
            out, error = workload.run(op), None
        except Exception as exc:  # an op that raises is counted as failed, never fatal
            out, error = None, f"raised {type(exc).__name__}"
        latency = time.perf_counter() - t0
        if tracer:
            tracer.close(root)
            if workload.name == "cli":
                merge_cli_spans(tracer, root, workload.env[SPANS_ENV], diag)
            layers.digest(tracer, diag)
        record = {"kind": op.kind, "latency": latency, "units": op.units,
                  "failure": error, "wrong": None}
        if error is None and classify:
            record["failure"] = classify(op, out)
        if record["failure"] is None:
            try:
                info = workload.check(op, out)
            except (workloads.CheckFailed, ValueError, IndexError, KeyError, OSError) as exc:
                record["wrong"] = f"{op.kind}: {exc}"
                record["failure"] = "wrong result"
            else:
                record["units"] = info.get("units", op.units)
                if diag is not None and "revival_err" in info:
                    diag["revival_err_max"] = max(diag.get("revival_err_max", 0.0), info["revival_err"])
        if workload.name == "cli" and diag is not None and out is not None:
            diag["error_exits"] = diag.get("error_exits", 0) + (out.returncode != 0)
            diag["tracebacks"] = diag.get("tracebacks", 0) + ("Traceback (most recent" in out.stderr)
        if tracer:
            tracer.end_op()
        emit(record)


SPANS_ENV = "TRICHAIN_BENCH_SPANS"


def make_workload(name, workdir, traced=False):
    import workloads

    if name != "cli":
        return workloads.WORKLOADS[name]()
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("TRICHAIN_VERBOSE", None)
    command = None
    if traced:
        command = [sys.executable, str(BENCH / "cli_traced.py")]
        env[SPANS_ENV] = str(workdir / "spans.json")
    return workloads.Cli(workdir=str(workdir), command=command, env=env)


def merge_cli_spans(tracer, root, path, diag):
    """Attach the spans a traced CLI child wrote under the op's root span."""
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except FileNotFoundError:  # the child died before writing any
        return
    os.remove(path)
    tracer.merge_child(data, root, diag)


def peak_rss_mb(name):
    who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--setup", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    setup_s, first_call_ms = setup()
    if args.setup:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    from importlib.metadata import version

    import trichain
    import workloads

    workdir = ROOT / ".bench_out" / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        with open(args.out + "l", "w", encoding="utf-8") as sink:
            def emit(record):
                sink.write(json.dumps(record) + "\n")

            result = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "unit": workloads.UNITS[args.workload],
                      "numpy": version("numpy"), "scipy": version("scipy"),
                      "trichain_path": str(Path(trichain.__file__).resolve().parent)}
            if args.trace:
                result.update(traced_run(args, workdir, first_call_ms, emit))
            else:
                workload = make_workload(args.workload, workdir)
                census = []
                run_ops(workload, workload.census(), census.append)
                blocks = run_blocks(workload, args.seed, emit, seconds=args.seconds)
                result.update(blocks=blocks, census=census, peak_rss_mb=peak_rss_mb(args.workload))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


def traced_run(args, workdir, first_call_ms, emit):
    import layers
    import tracer as tracing

    blocks = TRACE_BLOCKS[args.workload]
    untraced, traced, census = [], [], []
    workload = make_workload(args.workload, workdir)
    run_ops(workload, workload.census(), untraced.append)
    run_blocks(workload, args.seed, untraced.append, blocks=blocks)
    tracer = tracing.Tracer()
    if args.workload != "cli":
        tracer.install()
    diag = {}
    workload = make_workload(args.workload, workdir, traced=True)
    run_ops(workload, workload.census(), census.append, tracer=tracer, diag=diag)
    run_blocks(workload, args.seed, traced.append, blocks=blocks, tracer=tracer, diag=diag)
    for record in traced:
        emit(record)
    metrics = layers.layer_metrics(tracer, diag, untraced, census + traced, first_call_ms)
    metrics.update(layers.import_split(SRC))
    tracer.save(str(ROOT / ".bench_out" / f"spans-{args.workload}-{args.seed}.npz"))
    return {"blocks": blocks, "census": census, "layers": [(name, metrics[name], unit) for name, unit in layers.PER_LAYER]}


if __name__ == "__main__":
    sys.exit(main())
