"""Per-layer metrics of the traced run, named ``<module>.<what>``.

Layers are the trichain modules ``model``, ``spectrum``, ``comb``,
``dynamics`` and ``cli``.  Times per call, point, sample, step or row are
inclusive of child calls; ``<module>.self_s`` is the module's self time over
the traced blocks.  Eigensolver bytes are computed from array sizes (input
plus output), not measured.  A metric whose function a workload never calls
reads 0.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from collections import defaultdict

import numpy as np

import tracer as tracing
import workloads

SUBCOMMANDS = ("spectrum", "sweep", "comb", "energy", "evolve", "figures")

# (name, unit) of every per-layer metric, in report order.
PER_LAYER = [
    ("model.self_s", "s"), ("model.params_built", "count"),
    ("model.build_coupling_matrix.us_per_call", "us"),
    ("spectrum.self_s", "s"), ("spectrum.sweep.us_per_point", "us"),
    ("spectrum.eigenfrequencies.us_per_call", "us"), ("spectrum.char_poly.us_per_call", "us"),
    ("spectrum.frequencies_from_charpoly.us_per_call", "us"),
    ("spectrum.nonequidistance_error.us_per_call", "us"),
    ("spectrum.degeneracy_discriminant.us_per_call", "us"),
    ("spectrum.eigensolver_calls", "count"), ("spectrum.eigensolver_matrices_per_call", "count"),
    ("spectrum.eigensolver_bytes_computed", "bytes"),
    ("spectrum.sweep_rows_to_csv.us_per_row", "us"),
    ("spectrum.inverse_laplace_s2.us_per_sample", "us"),
    ("spectrum.consistency_errors", "count"), ("spectrum.route_gap_max", "1"),
    ("comb.self_s", "s"), ("comb.solve_comb_params.us_per_call", "us"),
    ("comb.scale_comb.us_per_call", "us"), ("comb.branch_constraint.us_per_point", "us"),
    ("comb.solve_g_for_energy.ms_per_call", "ms"),
    ("comb.identify_energy_branch.first_call_ms", "ms"), ("comb.residual_max", "1"),
    ("dynamics.self_s", "s"), ("dynamics.evolve_spectral.us_per_sample", "us"),
    ("dynamics.evolve_schedule.us_per_sample", "us"), ("dynamics.evolve_rk4.us_per_step", "us"),
    ("dynamics.propagator.us_per_call", "us"), ("dynamics.energies.us_per_row", "us"),
    ("dynamics.eigensolver_calls", "count"), ("dynamics.energies_to_csv.us_per_row", "us"),
    ("dynamics.accuracy_errors", "count"), ("dynamics.rk4_norm_drift_max", "1"),
    ("dynamics.revival_err_max", "1"),
    ("cli.interpreter_s", "s"), ("cli.import_s", "s"), ("cli.import_numpy_s", "s"),
    ("cli.import_scipy_s", "s"), ("cli.import_trichain_own_s", "s"), ("cli.self_s", "s"),
    *((f"cli.{sub}.ms", "ms") for sub in SUBCOMMANDS),
    ("cli.error_exits", "count"), ("cli.tracebacks", "count"),
    ("trace.overhead_ratio", "ratio"), ("trace.op_s", "s"), ("trace.glue_s", "s"),
]

_PER_UNIT = {
    # metric -> (span name, scale); value = total seconds / units * scale
    "model.build_coupling_matrix.us_per_call": ("model.build_coupling_matrix", 1e6),
    "spectrum.sweep.us_per_point": ("spectrum.sweep_spectrum_values", 1e6),
    "spectrum.eigenfrequencies.us_per_call": ("spectrum.eigenfrequencies", 1e6),
    "spectrum.char_poly.us_per_call": ("spectrum.char_poly", 1e6),
    "spectrum.frequencies_from_charpoly.us_per_call": ("spectrum.frequencies_from_charpoly", 1e6),
    "spectrum.nonequidistance_error.us_per_call": ("spectrum.nonequidistance_error", 1e6),
    "spectrum.degeneracy_discriminant.us_per_call": ("spectrum.degeneracy_discriminant", 1e6),
    "spectrum.sweep_rows_to_csv.us_per_row": ("spectrum.sweep_rows_to_csv", 1e6),
    "spectrum.inverse_laplace_s2.us_per_sample": ("spectrum.inverse_laplace_s2", 1e6),
    "comb.solve_comb_params.us_per_call": ("comb.solve_comb_params", 1e6),
    "comb.scale_comb.us_per_call": ("comb.scale_comb", 1e6),
    "comb.branch_constraint.us_per_point": ("comb.branch_constraint.apply", 1e6),
    "comb.solve_g_for_energy.ms_per_call": ("comb.solve_g_for_energy", 1e3),
    "dynamics.evolve_spectral.us_per_sample": ("dynamics.evolve_spectral", 1e6),
    "dynamics.evolve_schedule.us_per_sample": ("dynamics.evolve_schedule", 1e6),
    "dynamics.evolve_rk4.us_per_step": ("dynamics.evolve_rk4", 1e6),
    "dynamics.propagator.us_per_call": ("dynamics.propagator", 1e6),
    "dynamics.energies.us_per_row": ("dynamics.energies", 1e6),
    "dynamics.energies_to_csv.us_per_row": ("dynamics.energies_to_csv", 1e6),
}

_LAYERS = ("model", "spectrum", "comb", "dynamics", "cli")


def digest(tracer: tracing.Tracer, diag: dict):
    """Fold the calls captured during the last op into ``diag`` (outside its span)."""
    calls = tracer.captures
    eig_calls = calls["spectrum.eigenfrequencies"]
    if eig_calls:
        char_poly = tracer.originals["spectrum.char_poly"]
        closed_form = tracer.originals["spectrum.frequencies_from_charpoly"]
        params = [args[0] for args, _ in eig_calls]
        numeric = np.linalg.eigvalsh(workloads.generator_stack(
            *(np.array([getattr(p, k) for p in params]) for k in ("g", "delta", "f1", "f2"))))
        closed = np.full_like(numeric, np.nan)
        for k, p in enumerate(params):
            try:
                closed[k] = closed_form(char_poly(p))
            except Exception:  # the closed form itself refused: no gap to report
                pass
        gap = float(np.nanmax(np.abs(numeric - closed), initial=0.0))
        diag["route_gap_max"] = max(diag.get("route_gap_max", 0.0), gap)
    for _, solution in calls["comb.solve_comb_params"]:
        if solution is not None:
            worst = max(abs(r) for r in solution.residuals)
            diag["residual_max"] = max(diag.get("residual_max", 0.0), worst)
    for _, trajectory in calls["dynamics.evolve_rk4"]:
        if trajectory is not None:
            drift = float(np.max(np.abs(trajectory.norms() - 1.0)))
            diag["rk4_norm_drift_max"] = max(diag.get("rk4_norm_drift_max", 0.0), drift)
    for captured in calls.values():
        captured.clear()


def _durations(tracer: tracing.Tracer, name: str) -> list[float]:
    if name not in tracer.names:
        return []
    fid = tracer.names.index(name)
    out: list[float] = []
    for op in tracer.ops:
        mask = op["fid"] == fid
        out.extend((op["t1"][mask] - op["t0"][mask]).tolist())
    return out


def layer_metrics(tracer, diag, untraced, traced, first_call_ms) -> dict:
    stats = tracing.aggregate(tracer)
    m = {name: 0.0 for name, _ in PER_LAYER}
    module_self = defaultdict(float)
    errors = defaultdict(int)
    for name, entry in stats.items():
        module = name.split(".", 1)[0]
        module_self[module] += entry["self_s"]
        for code, count in entry["errors"].items():
            errors[(module, code)] += count
    for module in _LAYERS:
        m[f"{module}.self_s"] = module_self[module]
    for metric, (span, scale) in _PER_UNIT.items():
        entry = stats.get(span)
        if entry and entry["units"]:
            m[metric] = entry["total_s"] / entry["units"] * scale
    m["model.params_built"] = stats["model.SystemParams"]["calls"] if "model.SystemParams" in stats else 0
    calls, matrices, nbytes = tracer.eig["spectrum"]
    m["spectrum.eigensolver_calls"] = calls
    m["spectrum.eigensolver_matrices_per_call"] = matrices / calls if calls else 0.0
    m["spectrum.eigensolver_bytes_computed"] = nbytes
    m["dynamics.eigensolver_calls"] = tracer.eig["dynamics"][0]
    m["spectrum.consistency_errors"] = errors[("spectrum", 1)]
    m["dynamics.accuracy_errors"] = errors[("dynamics", 2)]
    for key in ("route_gap_max", "residual_max", "rk4_norm_drift_max", "revival_err_max"):
        module = {"route_gap_max": "spectrum", "residual_max": "comb"}.get(key, "dynamics")
        m[f"{module}.{key}"] = diag.get(key, 0.0)
    m["comb.identify_energy_branch.first_call_ms"] = first_call_ms
    for sub in SUBCOMMANDS:
        durations = _durations(tracer, f"cli.main.{sub}")
        m[f"cli.{sub}.ms"] = statistics.median(durations) * 1e3 if durations else 0.0
    m["cli.error_exits"] = diag.get("error_exits", 0)
    m["cli.tracebacks"] = diag.get("tracebacks", 0)
    op_s = stats[tracing.ROOT]["total_s"] if tracing.ROOT in stats else 0.0
    m["trace.op_s"] = op_s
    m["trace.glue_s"] = op_s - sum(module_self[module] for module in _LAYERS)
    m["trace.overhead_ratio"] = (sum(r["latency"] for r in traced)
                                 / sum(r["latency"] for r in untraced))
    return m


def import_split(src, repeats=3) -> dict:
    """Interpreter start-up and the ``-X importtime`` split of ``import trichain.cli``."""
    import os

    env = dict(os.environ, PYTHONPATH=str(src))
    walls, splits = [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)
        walls.append(time.perf_counter() - t0)
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import trichain.cli"],
                              env=env, capture_output=True, text=True, check=True)
        splits.append(tracing.parse_importtime(proc.stderr))
    med = {key: statistics.median(s[key] for s in splits) for key in splits[0]}
    return {"cli.interpreter_s": statistics.median(walls), "cli.import_s": med["import_s"],
            "cli.import_numpy_s": med["numpy_s"], "cli.import_scipy_s": med["scipy_s"],
            "cli.import_trichain_own_s": med["trichain_own_s"]}
