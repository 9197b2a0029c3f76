"""trichain benchmark: one command, one workload, one seed.

    python3 bench/run.py --workload sweep|queries|dynamics|cli --seed N --seconds S --trace 0|1

Run from the root of a checkout; the benchmark imports trichain from that
checkout's ``src/`` and refuses to run without it.  It pins BLAS to one
thread, measures set-up in several fresh interpreters, then runs the
workload in one more fresh interpreter (``child.py``): the workload's
census of known-defect inputs once, untimed, then a single client in a
closed loop over seeded blocks of ops for ``--seconds``, every output
checked.  It prints each metric by name with its unit and sample count, the
run environment, and, as the last line, the result as one JSON object:
with ``--trace 0`` the end-to-end metrics, with ``--trace 1`` the per-layer
metrics of a separate traced run.  Raw results and spans go to
``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("sweep", "queries", "dynamics", "cli")
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 170

BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# (name, unit) of the end-to-end metrics, reported on every workload.
END_TO_END = [("setup_s", "s"), ("work_per_s", "1/s"), ("op_p50_ms", "ms"),
              ("op_tail_ms", "ms"), ("ok_ratio", "ratio"), ("peak_rss_mb", "MB")]


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child(args: list[str], env: dict) -> subprocess.CompletedProcess:
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "child.py"), *args], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:  # subprocess.run kills and reaps the child
        raise BenchError(f"child {args} timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"child {args} exited {proc.returncode}:\n{proc.stderr}")
    return proc


def tail_latency(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with at least 10 samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(result: dict, setup_samples: list[float]) -> tuple[dict, list[str]]:
    records = result["records"]
    ok = [r for r in records if r["failure"] is None]
    if not ok:
        raise BenchError("no op succeeded")
    latencies = [r["latency"] for r in ok]
    timed = sum(r["latency"] for r in records)
    tail, percentile = tail_latency(latencies)
    values = {
        "setup_s": statistics.median(setup_samples),
        "work_per_s": sum(r["units"] for r in ok) / timed,
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_tail_ms": tail * 1e3,
        "ok_ratio": len(ok) / len(records),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    notes = {
        "setup_s": f"median of {len(setup_samples)} fresh interpreters",
        "work_per_s": f"{sum(r['units'] for r in ok)} {result['unit']} from successful ops "
                      f"in {timed:.3f} s of op time",
        "op_p50_ms": f"median of n={len(ok)} successful ops",
        "op_tail_ms": f"p{percentile:.2f} of n={len(ok)} successful ops (10 beyond it)",
        "ok_ratio": f"{len(ok)} of {len(records)} ops succeeded; "
                    f"fail_ratio {1 - len(ok) / len(records):.4f}",
        "peak_rss_mb": "max RSS of the CLI children" if result["workload"] == "cli"
                       else "max RSS of the workload process",
    }
    lines = [f"  {name:<14} {values[name]:>14.6g} {unit:<6} {notes[name]}" for name, unit in END_TO_END]
    return values, lines


def summary_lines(records: list[dict]) -> list[str]:
    by_kind: dict[str, list] = {}
    for r in records:
        by_kind.setdefault(r["kind"], []).append(r)
    lines = []
    for kind, recs in sorted(by_kind.items()):
        ok = [r["latency"] for r in recs if r["failure"] is None]
        p50 = f"{statistics.median(ok) * 1e3:9.3f} ms" if ok else "        -   "
        lines.append(f"    {kind:<20} n={len(recs):<6} failed={len(recs) - len(ok):<5} p50={p50}")
    reasons: dict[str, int] = {}
    for r in records:
        if r["failure"]:
            key = r["wrong"] or f"{r['kind']}: {r['failure']}"
            reasons[key] = reasons.get(key, 0) + 1
    lines += [f"    failure x{count}: {reason}" for reason, count in sorted(reasons.items())]
    return lines


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def environment(result: dict) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": result["numpy"], "scipy": result["scipy"], "blas_threads": BLAS_PIN,
            "git_commit": git_commit(), "trichain_path": result["trichain_path"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "trichain" / "__init__.py").is_file():
        print(f"bench: no trichain sources at {ROOT / 'src' / 'trichain'}", file=sys.stderr)
        return 2
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "TRICHAIN_VERBOSE")}
    env.update(BLAS_PIN)
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-{args.seed}-trace{args.trace}"
    try:
        setup_samples = []
        if not args.trace:
            child(["--setup"], env)   # fills the bytecode cache; not a sample
            setup_samples = [json.loads(child(["--setup"], env).stdout)["setup_s"]
                             for _ in range(SETUP_SAMPLES)]
        out_file = OUT / f"raw-{tag}.json"
        child(["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out", str(out_file)], env)
        result = json.loads(out_file.read_text())
        with open(str(out_file) + "l", encoding="utf-8") as lines:
            records = result["records"] = [json.loads(line) for line in lines]
        census = result["census"]
        wrong = [r for r in records + census if r["wrong"]]
        print(f"trichain bench: workload {args.workload}, seed {args.seed}, trace {args.trace}")
        print(f"  census of known-defect inputs (the same every run, untimed, not in attempted/failed): "
              f"{len(census)} ops, {sum(1 for r in census if r['failure'])} failed")
        print("\n".join(summary_lines(census)))
        print(f"  timed: blocks {result['blocks']}, ops {len(records)}")
        print("\n".join(summary_lines(records)))
        if args.trace:
            metrics = {name: {"value": value, "unit": unit} for name, value, unit in result["layers"]}
            for name, value, unit in result["layers"]:
                print(f"  {name:<44} {value:>14.6g} {unit}")
        else:
            values, lines = end_to_end(result, setup_samples)
            print("\n".join(lines))
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    env_record = environment(result)
    print("environment " + json.dumps(env_record))
    summary = {"correct": not wrong, "attempted": len(records),
               "failed": sum(1 for r in records if r["failure"]), "metrics": metrics}
    census_record = {"attempted": len(census), "failed": sum(1 for r in census if r["failure"])}
    (OUT / f"result-{tag}.json").write_text(json.dumps(dict(summary, census=census_record,
                                                            environment=env_record), indent=1))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
