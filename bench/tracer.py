"""Span recorder for the traced benchmark run.

The tracer wraps, from the outside, every public function in
``trichain.__all__`` in each trichain module namespace that binds it (so
``trichain.comb.eigenfrequencies`` is traced as well as
``trichain.spectrum.eigenfrequencies``), plus ``SystemParams.__post_init__``
and the per-point closure returned by ``branch_constraint``.  Each call
records a span: name, start, end, parent, work units and the exception it
raised first (if any).  ``numpy.linalg.eigvalsh``/``eigh`` are wrapped for
counts only; a call is charged to the module of the innermost open span.

Only calls made inside an open span are recorded, so the benchmark's own
input preparation and output checks stay out of the trace.  Spans stay in
memory (as arrays, one set per op) until the run ends.
A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import json
import re
import time
from collections import defaultdict

import numpy as np

clock = time.perf_counter

ROOT = "bench.op"

_MODULES = ("trichain", "trichain.model", "trichain.spectrum", "trichain.comb",
            "trichain.dynamics", "trichain.cli")

# Work units per call, from the positional arguments or the result.
_UNITS = {
    "spectrum.sweep_spectrum_values": lambda a, r: len(a[2]),
    "spectrum.sweep_rows_to_csv": lambda a, r: len(a[0]),
    "spectrum.inverse_laplace_s2": lambda a, r: len(r),
    "dynamics.evolve_spectral": lambda a, r: len(r.times),
    "dynamics.evolve_schedule": lambda a, r: len(r.times),
    "dynamics.evolve_rk4": lambda a, r: len(r.times) - 1,
    "dynamics.energies": lambda a, r: len(r),
    "dynamics.energies_to_csv": lambda a, r: len(a[0].times),
}

# Calls whose arguments or results are examined after the op, outside its span.
_CAPTURE = ("spectrum.eigenfrequencies", "comb.solve_comb_params", "dynamics.evolve_rk4")

_ERRORS = {"ConsistencyError": 1, "AccuracyError": 2}


def _module_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """Records spans for calls into trichain; one instance per process."""

    def __init__(self):
        self.names: list[str] = [ROOT]
        self._fid = {ROOT: 0}
        self._reset_op()
        self.ops: list[dict] = []          # finished ops, as arrays
        self.captures: dict[str, list] = defaultdict(list)
        self.eig = defaultdict(lambda: [0, 0, 0])   # module -> calls, matrices, bytes
        self._last_exc = None
        self.originals: dict[str, object] = {}

    # -- recording -------------------------------------------------------

    def _reset_op(self):
        self.fid, self.t0, self.t1, self.parent, self.units, self.err = [], [], [], [], [], []
        self.stack: list[int] = []

    def fid_of(self, name: str) -> int:
        if name not in self._fid:
            self._fid[name] = len(self.names)
            self.names.append(name)
        return self._fid[name]

    def open(self, fid: int) -> int:
        idx = len(self.fid)
        self.fid.append(fid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.t1.append(0.0)
        self.units.append(0.0)
        self.err.append(0)
        self.stack.append(idx)
        self.t0.append(clock())
        return idx

    def close(self, idx: int, units: float = 0.0, exc: BaseException | None = None):
        self.t1[idx] = clock()
        self.stack.pop()
        self.units[idx] = units
        if exc is not None and exc is not self._last_exc:
            self._last_exc = exc
            self.err[idx] = _ERRORS.get(type(exc).__name__, 3)

    def add_span(self, name: str, t0: float, t1: float, parent: int, units: float, err: int):
        """Record a finished span measured in another process."""
        self.fid.append(self.fid_of(name))
        self.t0.append(t0)
        self.t1.append(t1)
        self.parent.append(parent)
        self.units.append(units)
        self.err.append(err)

    def wrap(self, fn, name: str):
        fid = self.fid_of(name)
        unit_fn = _UNITS.get(name)
        capture = self.captures[name] if name in _CAPTURE else None
        returns_closure = name == "comb.branch_constraint"
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.stack:  # outside an op: input preparation or output checks
                return fn(*args, **kwargs)
            idx = tracer.open(fid)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.close(idx, exc=exc)
                if capture is not None:
                    capture.append((args, None))
                raise
            tracer.close(idx, unit_fn(args, result) if unit_fn else 1.0)
            if capture is not None:
                capture.append((args, result))
            if returns_closure:
                return tracer.wrap(result, "comb.branch_constraint.apply")
            return result

        traced.__wrapped__ = fn
        return traced

    def _eig_counter(self, fn):
        tracer = self

        def counted(a, *args, **kwargs):
            result = fn(a, *args, **kwargs)
            if tracer.stack:
                module = _module_of(tracer.names[tracer.fid[tracer.stack[-1]]])
                entry = tracer.eig[module]
                arr = np.asarray(a)
                entry[0] += 1
                entry[1] += int(np.prod(arr.shape[:-2])) if arr.ndim > 2 else 1
                out_bytes = result.nbytes if isinstance(result, np.ndarray) else sum(x.nbytes for x in result)
                entry[2] += arr.nbytes + out_bytes
            return result

        return counted

    def install(self):
        """Wrap trichain's public functions in every namespace that binds them."""
        import importlib

        import trichain

        modules = [importlib.import_module(m) for m in _MODULES]
        for public in trichain.__all__:
            obj = getattr(trichain, public)
            if isinstance(obj, type) or not callable(obj):
                continue
            name = obj.__module__.rsplit(".", 1)[-1] + "." + public
            self.originals[name] = obj
            wrapper = self.wrap(obj, name)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is obj:
                        setattr(module, attr, wrapper)
        params_cls = trichain.SystemParams
        self.originals["model.SystemParams"] = params_cls.__post_init__
        params_cls.__post_init__ = self.wrap(params_cls.__post_init__, "model.SystemParams")
        for attr in ("eigvalsh", "eigh"):
            setattr(np.linalg, attr, self._eig_counter(getattr(np.linalg, attr)))

    # -- per-op bookkeeping ----------------------------------------------

    def end_op(self):
        """Freeze the spans of the finished op into arrays and start a new op."""
        self.ops.append({
            "fid": np.asarray(self.fid, dtype=np.int32),
            "t0": np.asarray(self.t0),
            "t1": np.asarray(self.t1),
            "parent": np.asarray(self.parent, dtype=np.int64),
            "units": np.asarray(self.units),
            "err": np.asarray(self.err, dtype=np.int8),
        })
        self._reset_op()

    def merge_child(self, data: dict, parent: int, diag: dict):
        """Append spans dumped by a child process under span ``parent``, and
        fold the child's margins into ``diag``."""
        base = len(self.fid)
        for name, t0, t1, par, units, err in zip(data["name"], data["t0"], data["t1"],
                                                  data["parent"], data["units"], data["err"]):
            self.add_span(name, t0, t1, parent if par < 0 else base + par, units, err)
        for module, counts in data["eig"].items():
            entry = self.eig[module]
            for k in range(3):
                entry[k] += counts[k]
        for key, value in data["diag"].items():
            diag[key] = max(diag.get(key, 0.0), value)

    def dump_json(self, path: str, diag: dict):
        """Write the current op's spans and margins for the parent process."""
        data = {
            "name": [self.names[f] for f in self.fid],
            "t0": self.t0, "t1": self.t1, "parent": self.parent, "units": self.units,
            "err": self.err, "eig": {m: list(v) for m, v in self.eig.items()}, "diag": diag,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(data, handle)

    def save(self, path: str):
        """Write every recorded span of the run as one compressed archive."""
        if not self.ops:
            return
        offsets = np.cumsum([0] + [len(op["fid"]) for op in self.ops[:-1]])
        parent = np.concatenate([np.where(op["parent"] < 0, -1, op["parent"] + off)
                                 for op, off in zip(self.ops, offsets)])
        arrays = {key: np.concatenate([op[key] for op in self.ops])
                  for key in ("fid", "t0", "t1", "units", "err")}
        np.savez_compressed(path, names=np.array(self.names), parent=parent, **arrays)


def aggregate(tracer: Tracer) -> dict:
    """Per span name: calls, total and self seconds, units, errors raised."""
    stats = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                 "units": 0.0, "errors": defaultdict(int)})
    for op in tracer.ops:
        dur = op["t1"] - op["t0"]
        covered = np.zeros_like(dur)
        has_parent = op["parent"] >= 0
        np.add.at(covered, op["parent"][has_parent], dur[has_parent])
        self_time = dur - covered
        for fid in np.unique(op["fid"]):
            mask = op["fid"] == fid
            entry = stats[tracer.names[fid]]
            entry["calls"] += int(mask.sum())
            entry["total_s"] += float(dur[mask].sum())
            entry["self_s"] += float(self_time[mask].sum())
            entry["units"] += float(op["units"][mask].sum())
            for code in op["err"][mask][op["err"][mask] > 0]:
                entry["errors"][int(code)] += 1
    return stats


_IMPORTTIME = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|(\s*)(\S+)")


def parse_importtime(stderr: str) -> dict:
    """Split ``-X importtime`` output of ``import trichain.cli`` into seconds.

    ``import_s`` is the cumulative time of the top-level trichain imports;
    the numpy, scipy and trichain shares are the self times of the modules
    in each package, wherever they sit in the import tree.
    """
    out = {"import_s": 0.0, "numpy_s": 0.0, "scipy_s": 0.0, "trichain_own_s": 0.0}
    for self_us, cumulative_us, indent, name in _IMPORTTIME.findall(stderr):
        package = name.split(".", 1)[0]
        if package == "trichain" and len(indent) == 1:
            out["import_s"] += int(cumulative_us) * 1e-6
        key = {"numpy": "numpy_s", "scipy": "scipy_s", "trichain": "trichain_own_s"}.get(package)
        if key:
            out[key] += int(self_us) * 1e-6
    return out
