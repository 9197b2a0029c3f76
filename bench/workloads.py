"""Seeded workloads of the trichain benchmark: inputs, ops and output checks.

A workload is a sequence of blocks.  A block is a fixed multiset of op kinds
(``SHARES``) whose inputs are drawn from ``numpy.random.default_rng([seed,
workload, block])``, so block ``b`` is the same for a given seed however many
blocks a run reaches, and every run completes the block it started.  Whole
blocks keep each op kind's share the same in every run, which keeps the
percentiles steady.

The inputs that hit a known defect of the program are not drawn into the
blocks: they form the workload's *census* (``CENSUS``), a fixed list of ops
that every run executes once, untimed, with the same outcome each time.  The
timed ops thus fail only when the program regresses, and the known defects
are still run, checked and reported in every run with a count that does not
depend on the seed or on how many blocks a run reaches.

Inputs are generated before an op's timer starts; the program receives only
them.  Each op's output is checked after its timer stops, against references
the benchmark computes itself where that is cheap (eigenvalues of the 6x6
generator built here from the documented layout, the closed-form comb and
half-period energy), and against a second route of the program otherwise.
"""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
from dataclasses import dataclass, field

import numpy as np

import trichain as T

WORKLOAD_IDS = {"sweep": 1, "queries": 2, "dynamics": 3, "cli": 4}

# Op kinds and how many of each a cycle of ``CYCLE`` blocks holds.
SHARES = {
    "sweep": {"resonant_0_3": 1, "resonant_0.01_3": 4, "detuning_anchor": 1,
              "comb_A": 1, "comb_B": 4},
    "queries": {"spectrum_random": 105, "comb": 44, "energy": 1},
    "dynamics": {"evolve_spectral": 4, "evolve_schedule": 2, "evolve_rk4": 1,
                 "inverse_laplace_s2": 1},
    "cli": {"spectrum_preset": 2, "spectrum_params": 2, "sweep_resonant": 2, "sweep_comb": 2,
            "comb": 2, "energy_target": 2, "energy_g": 1, "figures": 1, "evolve_schedule": 2,
            "evolve_params": 2, "malformed": 2},
}

CYCLE = {"sweep": 1, "queries": 1, "dynamics": 1, "cli": 2}

# Op kinds and counts of each workload's census of known-defect inputs.
CENSUS = {
    "sweep": {"resonant_0_3": 1},
    "queries": {"spectrum_resonant": 48, "spectrum_perturbed": 30},
    "dynamics": {},
    "cli": {"malformed": 2},
}
CENSUS_SEED = 0

UNITS = {"sweep": "grid points", "queries": "queries", "dynamics": "samples or RK4 steps",
         "cli": "invocations"}

TWO_PI = 2.0 * math.pi
COMB_TARGET = np.array([-2.0, -1.0, 0.0, 0.0, 1.0, 2.0])


class CheckFailed(Exception):
    """The program returned a result outside its reference tolerance."""


@dataclass
class Op:
    kind: str
    args: dict
    units: int = 1
    files: dict = field(default_factory=dict)


def block_rng(workload: str, seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOAD_IDS[workload], index])


def census_rng(workload: str) -> np.random.Generator:
    return np.random.default_rng([CENSUS_SEED, WORKLOAD_IDS[workload], 1 << 32])


def _log_uniform(rng, lo, hi, size=None):
    return np.exp(rng.uniform(math.log(lo), math.log(hi), size))


def _stratified(rng, lo, hi, count):
    """One log-uniform draw in each of ``count`` equal log-strata of [lo, hi], shuffled."""
    edges = math.log(lo) + (math.log(hi) - math.log(lo)) * (np.arange(count) + rng.random(count)) / count
    return rng.permutation(np.exp(edges))


# -- independent references ------------------------------------------------

def generator_stack(g, delta, f1, f2) -> np.ndarray:
    """The 6x6 generators d/dt v = -i M v for arrays of parameters, built here
    from the documented mode order (s1, s2, s3, a1, a2, a3)."""
    g, delta, f1, f2 = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in (g, delta, f1, f2)))
    m = np.zeros(g.shape + (6, 6))
    for i, sign in ((0, 1.0), (2, -1.0), (3, 1.0), (5, -1.0)):
        m[..., i, i] = sign * delta
    for i, j, value in ((0, 3, f2), (1, 4, f1), (2, 5, f2), (3, 4, g), (4, 5, g)):
        m[..., i, j] = value
        m[..., j, i] = value
    return m


def comb_couplings(g, branch: str):
    """(f1, f2) of the designed comb at coupling g, from the closed form."""
    g = np.asarray(g, dtype=float)
    s = np.sqrt(g**4 - 10.0 * g**2 + 9.0)
    sign = -1.0 if branch == "A" else 1.0
    f2_sq = ((5.0 - g**2) + sign * s) / 8.0
    f1_sq = (5.0 - 3.0 * g**2 - sign * s) / 2.0
    return np.sqrt(f1_sq), np.sqrt(f2_sq)


def comb_params(g: float, branch: str) -> dict:
    f1, f2 = comb_couplings(g, branch)
    return {"g": float(g), "delta": float(f2), "f1": float(f1), "f2": float(f2)}


def half_period_energy(g):
    """Closed-form central-atom energy at t = pi on the designed comb."""
    g = np.asarray(g, dtype=float)
    s = np.sqrt(g**4 - 10.0 * g**2 + 9.0)
    return (g**4 - 2.0 * g**2 + (1.0 - g**2) * s) ** 2 / 9.0


def _nonequidistance(freqs: np.ndarray) -> np.ndarray:
    w1, w2, w3 = freqs[..., 3], freqs[..., 4], freqs[..., 5]
    return np.abs(w2 / w1 - 3.0) + np.abs(w3 / w1 - 5.0)


# Timed spectrum inputs keep all six frequencies at least MIN_GAP apart.
# Nearer a degeneracy the program's dual-route check can raise, a known
# defect (seen up to a gap of 4e-3 in 4 million uniform draws); such inputs
# belong to the census.
MIN_GAP = 0.02


def _separated(rng, draw) -> dict:
    """Parameters from ``draw(rng)``, drawn again until their frequencies are ``MIN_GAP`` apart."""
    while True:
        p = draw(rng)
        ref = np.linalg.eigvalsh(generator_stack(p["g"], p["delta"], p["f1"], p["f2"]))
        if np.diff(ref).min() >= MIN_GAP:
            return p


def _require(condition: bool, message: str):
    if not condition:
        raise CheckFailed(message)


def _check_frequencies(got, params_arrays, what="frequencies"):
    ref = np.linalg.eigvalsh(generator_stack(*params_arrays))
    got = np.asarray(got, dtype=float).reshape(ref.shape)
    err = np.max(np.abs(got - ref), axis=-1)
    tol = 1e-9 * (1.0 + np.max(np.abs(ref), axis=-1))
    _require(bool(np.all(err <= tol)), f"{what} off the eigensolver reference by {err.max():.2e}")
    return ref


# -- sweep -------------------------------------------------------------------

RESONANT = {"g": 0.0, "delta": 0.0, "f1": 1.0, "f2": 1.0}
_SWEEP_HEADER = "param,w1,w2,w3,w4,w5,w6,delta,degenerate"


class Sweep:
    """Dense spectrum sweeps rendered to CSV text in memory, as ``trichain
    sweep`` and ``figures`` do.

    A block holds three groups, each of one cost, from cheapest to dearest:
    four sweeps of 500-1 000 points (one per log-stratum, seeded), one each of
    resonant [0, 3], detuning, comb A and comb B; three comb-B sweeps of
    ~2 000 points (seeded); and four resonant [0.01, 3] grids of exactly
    10 000 points.  The median then falls inside the comb-B group and the
    tail inside the 10 000-point group for any run of three or more blocks.
    The census is the 10 000-point [0, 3] grid, which raises at g = 3e-4 at
    the seed commit.
    """

    name = "sweep"

    def block(self, seed: int, index: int) -> list[Op]:
        rng = block_rng(self.name, seed, index)
        ops = [Op("resonant_0.01_3", {"n": 10_000}, 10_000) for _ in range(4)]
        small = zip(("resonant_0_3", "detuning_anchor", "comb_A", "comb_B"), _stratified(rng, 500, 1000, 4))
        mid = (("comb_B", n) for n in _log_uniform(rng, 1940, 2060, 3))
        for kind, n in (*small, *mid):
            args = {"n": int(n)}
            if kind.startswith("comb"):
                args.update(lo=float(rng.uniform(0.01, 0.1)), hi=float(rng.uniform(0.9, 1.0)),
                            delta=float(rng.uniform(0.3, 0.9)))
            ops.append(Op(kind, args, int(n)))
        return [ops[i] for i in rng.permutation(len(ops))]

    def census(self) -> list[Op]:
        return [Op("resonant_0_3", {"n": 10_000}, 10_000)]

    def prepare(self, op):
        pass

    def run(self, op: Op) -> str:
        a = op.args
        if op.kind.startswith("resonant"):
            lo = 0.0 if op.kind == "resonant_0_3" else 0.01
            rows = T.sweep_spectrum(T.SystemParams(**RESONANT), "g", lo, 3.0, a["n"])
        elif op.kind == "detuning_anchor":
            anchor = T.solve_comb_params(T.QUBIT_COUPLING, "A")
            values = np.unique(np.append(np.linspace(0.0, 2.0, a["n"]), anchor.f2))
            rows = T.sweep_spectrum_values(anchor.params, "delta", values)
        else:
            base = T.SystemParams(g=a["lo"], delta=a["delta"], f1=1.0, f2=1.0)
            rows = T.sweep_spectrum(base, "g", a["lo"], a["hi"], a["n"],
                                    T.branch_constraint(op.kind[-1]))
        return T.sweep_rows_to_csv(rows)

    def check(self, op: Op, csv: str) -> dict:
        lines = csv.splitlines()
        _require(lines[0] == _SWEEP_HEADER, "bad CSV header")
        fields = [line.split(",") for line in lines[1:]]
        table = np.array([[float(x) if x else np.nan for x in row[:8]] for row in fields])
        degenerate = np.array([row[8] == "true" for row in fields])
        param, freqs, delta_err = table[:, 0], table[:, 1:7], table[:, 7]
        a = op.args
        if op.kind.startswith("resonant"):
            grid = np.linspace(0.0 if op.kind == "resonant_0_3" else 0.01, 3.0, a["n"])
            ref_params = (grid, 0.0, 1.0, 1.0)
        elif op.kind == "detuning_anchor":
            f1, f2 = comb_couplings(T.QUBIT_COUPLING, "A")
            grid = np.unique(np.append(np.linspace(0.0, 2.0, a["n"]), f2))
            ref_params = (T.QUBIT_COUPLING, grid, f1, f2)
        else:
            grid = np.linspace(a["lo"], a["hi"], a["n"])
            f1, f2 = comb_couplings(grid, op.kind[-1])
            ref_params = (grid, a["delta"], f1, f2)
        _require(len(param) == len(grid), f"{len(param)} rows, expected {len(grid)}")
        _require(bool(np.all(np.abs(param - grid) <= 1e-11 * (1.0 + np.abs(grid)))), "grid column off")
        ref = _check_frequencies(freqs, ref_params)
        gaps = np.diff(ref, axis=1).min(axis=1)
        low = ref[:, 3]
        ref_degenerate = (gaps <= 1e-7) | (low <= 1e-7)
        clear = ((np.abs(gaps - 1e-7) > 5e-8) & (np.abs(low - 1e-7) > 5e-8))
        _require(bool(np.all(degenerate[clear] == ref_degenerate[clear])), "degenerate flag wrong")
        _require(bool(np.all(np.isnan(delta_err) == degenerate)), "delta column present on degenerate row")
        sure = ~degenerate & (low > 1e-3)
        ref_delta = _nonequidistance(ref[sure])
        _require(bool(np.all(np.abs(delta_err[sure] - ref_delta) <= 1e-8 * (1.0 + ref_delta))),
                 "non-equidistance error off the reference")
        if op.kind == "detuning_anchor":
            anchor_row = np.argmin(np.abs(grid - comb_couplings(T.QUBIT_COUPLING, "A")[1]))
            _require(bool(degenerate[anchor_row]), "comb anchor not flagged degenerate")
        return {"units": len(grid)}


# -- queries -----------------------------------------------------------------

class Queries:
    """Single-point calls.  Timed spectrum queries are uniform draws whose
    frequencies lie ``MIN_GAP`` apart.  The census is the spectrum queries
    near the resonant chain's triple |w| root: the chain itself at g drawn
    once per log-stratum of [1e-8, 1e-1], and small perturbations of it."""

    name = "queries"

    def block(self, seed: int, index: int) -> list[Op]:
        rng = block_rng(self.name, seed, index)
        shares = SHARES[self.name]
        ops = []
        for _ in range(shares["spectrum_random"]):
            ops.append(Op("spectrum_random", _separated(rng, _uniform_params)))
        for k, kappa in enumerate(_stratified(rng, 1e-3, 1e3, shares["comb"])):
            ops.append(Op("comb", {"g": rng.uniform(0.02, 1.0), "branch": "AB"[k % 2], "kappa": kappa}))
        ops.append(Op("energy", {"target": rng.uniform(0.0, 1.0)}))
        return [ops[i] for i in rng.permutation(len(ops))]

    def census(self) -> list[Op]:
        rng = census_rng(self.name)
        counts = CENSUS[self.name]
        ops = [Op("spectrum_resonant", dict(RESONANT, g=g))
               for g in _stratified(rng, 1e-8, 1e-1, counts["spectrum_resonant"])]
        for g in _stratified(rng, 1e-8, 1e-1, counts["spectrum_perturbed"]):
            eps = _log_uniform(rng, 1e-8, 1e-2, 3) * rng.choice([-1.0, 1.0], 3)
            ops.append(Op("spectrum_perturbed", {"g": g, "delta": eps[0], "f1": 1.0 + eps[1], "f2": 1.0 + eps[2]}))
        return ops

    def prepare(self, op):
        pass

    def run(self, op: Op):
        a = op.args
        if op.kind.startswith("spectrum"):
            params = T.SystemParams(**a)
            spectrum = T.eigenfrequencies(params)
            defined = not spectrum.degenerate and spectrum.positive[0] > spectrum.degeneracy_tol
            delta_err = T.nonequidistance_error(spectrum) if defined else None
            return spectrum, delta_err, T.degeneracy_discriminant(params)
        if op.kind == "comb":
            solution = T.solve_comb_params(a["g"], a["branch"])
            return solution, T.scale_comb(solution, a["kappa"])
        return T.solve_g_for_energy(a["target"])

    def check(self, op: Op, out) -> dict:
        a = op.args
        if op.kind.startswith("spectrum"):
            spectrum, delta_err, report = out
            p = (a["g"], a["delta"], a["f1"], a["f2"])
            ref = _check_frequencies(spectrum.frequencies, p)
            low = ref[3]
            if delta_err is not None and low > 1e-3:
                expected = float(_nonequidistance(ref))
                _require(abs(delta_err - expected) <= 1e-8 * (1.0 + expected), "non-equidistance error off")
            if low > 1e-6 and np.diff(ref).min() > 1e-6:
                _require(delta_err is not None, "non-equidistance error missing on a simple spectrum")
            q = -ref[3:] ** 2
            disc = ((q[0] - q[1]) * (q[0] - q[2]) * (q[1] - q[2])) ** 2
            scale = (1.0 + abs(q).max()) ** 6
            _require(abs(report.discriminant - disc) <= 1e-9 * scale, "discriminant off")
            return {}
        if op.kind == "comb":
            solution, scaled = out
            comb_err = float(np.max(np.abs(np.array(solution.spectrum) - COMB_TARGET)))
            _require(comb_err <= 1e-7, f"comb spectrum off {{-2,-1,0,0,1,2}} by {comb_err:.2e}")
            _require(max(abs(r) for r in solution.residuals) <= 1e-12, "comb residuals above 1e-12")
            kappa = a["kappa"]
            scaled_err = float(np.max(np.abs(np.array(scaled.spectrum) - kappa * COMB_TARGET)))
            _require(scaled_err <= 1e-7 * kappa, f"scaled comb spectrum off by {scaled_err:.2e}")
            for key in ("g", "delta", "f1", "f2"):
                _require(math.isclose(getattr(scaled, key), kappa * getattr(solution, key), rel_tol=1e-14),
                         "scale_comb did not scale " + key)
            return {}
        target = a["target"]
        roots = np.array(out.g_solutions)
        grid = np.linspace(1e-6, 1.0, 200_001)
        h = grid**4 - 2.0 * grid**2 + (1.0 - grid**2) * np.sqrt(grid**4 - 10.0 * grid**2 + 9.0)
        expected = sum(int(np.count_nonzero(np.diff(np.sign(h - level)) != 0))
                       for level in {3.0 * math.sqrt(target), -3.0 * math.sqrt(target)})
        _require(len(roots) == expected, f"{len(roots)} roots for target {target}, expected {expected}")
        _require(bool(np.all((roots > 0.0) & (roots <= 1.0))), "root outside (0, 1]")
        _require(bool(np.all(np.abs(half_period_energy(roots) - target) <= 1e-11)), "root misses its target")
        return {}


def _uniform_params(rng) -> dict:
    g, f1, f2 = rng.uniform(0.0, 1.2, 3)
    return {"g": g, "delta": rng.uniform(-1.2, 1.2), "f1": f1, "f2": f2}


# -- dynamics ----------------------------------------------------------------

class Dynamics:
    """Propagation at designed-comb parameters (closed form, both branches).
    Each op checks a README invariant: revival at 2*pi, norm, or the
    agreement of two propagation routes."""

    name = "dynamics"

    def block(self, seed: int, index: int) -> list[Op]:
        rng = block_rng(self.name, seed, index)
        ops = []

        def comb():
            return comb_params(rng.uniform(0.05, 1.0), "AB"[int(rng.integers(2))])

        for n in _stratified(rng, 2001, 20001, SHARES[self.name]["evolve_spectral"]):
            periods = int(rng.integers(1, 11))
            per_period = max(1, round((n - 1) / periods))
            ops.append(Op("evolve_spectral", {"params": comb(), "init": int(rng.integers(1, 7)),
                                              "periods": periods, "n": periods * per_period + 1}))
        for n in _stratified(rng, 2001, 20001, SHARES[self.name]["evolve_schedule"]):
            t_end = TWO_PI * float(rng.uniform(1.0, 4.0))
            cuts = np.sort(rng.uniform(0.0, t_end, int(rng.integers(2, 33)) - 1))
            bounds = [0.0, *cuts.tolist(), t_end]
            segments = [(bounds[k], bounds[k + 1], float(rng.uniform(0.0, 1.2))) for k in range(len(bounds) - 1)]
            ops.append(Op("evolve_schedule", {"params": comb(), "segments": segments, "n": int(n),
                                              "init": int(rng.integers(1, 7))}))
        ops.append(Op("evolve_rk4", {"params": comb(), "dt": float(_log_uniform(rng, 5e-3, 2e-2)),
                                     "init": int(rng.integers(1, 7))}))
        ops.append(Op("inverse_laplace_s2", {"params": comb(), "periods": int(rng.integers(1, 11)),
                                             "n": int(_log_uniform(rng, 2001, 20001))}))
        for op in ops:
            op.units = op.args.get("n", 0) or int(math.ceil(TWO_PI / op.args["dt"]))
        return [ops[i] for i in rng.permutation(len(ops))]

    def census(self) -> list[Op]:
        return []

    def prepare(self, op):
        a = op.args
        a["_params"] = T.SystemParams(**a["params"])
        if op.kind == "evolve_schedule":
            segments = tuple(T.Segment(t_start=s, t_end=e, g=g) for s, e, g in a["segments"])
            a["_schedule"] = T.Schedule(segments=segments, base=a["_params"])
            a["_times"] = np.linspace(0.0, a["segments"][-1][1], a["n"])
        elif op.kind != "evolve_rk4":
            a["_times"] = np.linspace(0.0, a["periods"] * TWO_PI, a["n"])

    def run(self, op: Op):
        a = op.args
        params = a["_params"]
        if op.kind == "evolve_spectral":
            trajectory = T.evolve_spectral(params, T.initial_state(a["init"]), a["_times"])
            return trajectory, T.energies(trajectory), T.propagator(params, a["periods"] * TWO_PI)
        if op.kind == "evolve_schedule":
            trajectory = T.evolve_schedule(a["_schedule"], T.initial_state(a["init"]), a["_times"])
            return trajectory, T.energies(trajectory)
        if op.kind == "evolve_rk4":
            return T.evolve_rk4(params, T.initial_state(a["init"]), dt=a["dt"], t_end=TWO_PI)
        return T.inverse_laplace_s2(params, a["_times"])

    def check(self, op: Op, out) -> dict:
        a = op.args
        v0 = np.zeros(6, dtype=complex)
        v0[a.get("init", 2) - 1] = 1.0
        if op.kind == "evolve_spectral":
            trajectory, table, unitary = out
            norm_err = float(np.max(np.abs(np.linalg.norm(trajectory.states, axis=1) - 1.0)))
            _require(norm_err <= 1e-10, f"norm drift {norm_err:.2e}")
            _require(bool(np.all(np.abs(table[:, 1:].sum(axis=1) - 1.0) <= 1e-10)), "energies do not sum to 1")
            step = (a["n"] - 1) // a["periods"]
            revival = float(np.max(np.abs(trajectory.states[::step] - v0)))
            revival = max(revival, float(np.max(np.abs(unitary - np.eye(6)))))
            _require(revival <= 1e-8, f"no revival at multiples of 2*pi (error {revival:.2e})")
            return {"revival_err": revival}
        if op.kind == "evolve_schedule":
            trajectory, table = out
            norm_err = float(np.max(np.abs(np.linalg.norm(trajectory.states, axis=1) - 1.0)))
            _require(norm_err <= 1e-10, f"norm drift {norm_err:.2e}")
            picks = np.linspace(0, a["n"] - 1, 9).astype(int)
            expected = _piecewise_reference(a["params"], a["segments"], v0, a["_times"][picks])
            err = float(np.max(np.abs(trajectory.states[picks] - expected)))
            _require(err <= 1e-8, f"schedule off the piecewise reference by {err:.2e}")
            return {}
        params = a["_params"]
        if op.kind == "evolve_rk4":
            spectral = T.evolve_spectral(params, v0, out.times)
            err = float(np.max(np.abs(out.states - spectral.states)))
            tol = 2.0 * a["dt"] ** 4 + 1e-12
            _require(err <= tol, f"RK4 off the spectral route by {err:.2e} (tol {tol:.1e})")
            revival = float(np.max(np.abs(out.states[-1] - v0)))
            _require(revival <= tol, f"RK4 misses the revival at 2*pi by {revival:.2e}")
            return {}
        spectral = T.evolve_spectral(params, T.initial_state(2), a["_times"]).states[:, 1]
        err = float(np.max(np.abs(out - spectral)))
        _require(err <= 1e-8, f"Laplace route off the spectral route by {err:.2e}")
        step = (a["n"] - 1) // a["periods"] if (a["n"] - 1) % a["periods"] == 0 else None
        revival = float(abs(out[-1] - 1.0) if step is None else np.max(np.abs(out[::step] - 1.0)))
        _require(revival <= 1e-8, f"s2 misses the revival at multiples of 2*pi by {revival:.2e}")
        return {"revival_err": revival}


def _piecewise_reference(params: dict, segments, v0, times) -> np.ndarray:
    """States under a piecewise-constant g(t), propagated segment by segment here."""
    out = np.empty((len(times), 6), dtype=complex)
    state = v0.astype(complex)
    for k, (start, end, g) in enumerate(segments):
        w, vecs = np.linalg.eigh(generator_stack(g, params["delta"], params["f1"], params["f2"]))
        coeffs = vecs.T @ state
        last = k == len(segments) - 1
        inside = (times >= start) & ((times <= end) if last else (times < end))
        out[inside] = (np.exp(-1j * np.outer(times[inside] - start, w)) * coeffs) @ vecs.T
        state = vecs @ (np.exp(-1j * w * (end - start)) * coeffs)
    return out


# -- cli ---------------------------------------------------------------------

PRESETS = {"qubit": T.QUBIT_COUPLING, "qutrit": T.QUTRIT_COUPLING}
_FIG_ROWS = {"fig2.csv": 601, "fig3.csv": 1000, "fig4.csv": 802, "fig5.csv": 2001}

# Malformed request types: a bad number or a bad params value in the blocks;
# a schedule that is not valid JSON or has a non-object base in the census.
MALFORMED = ("bad_number", "bad_params_value")
MALFORMED_SCHEDULES = ("schedule_not_json", "schedule_base_not_object")


def _fmt(x: float) -> str:
    return repr(float(x))


def _params_text(p: dict) -> str:
    return "".join(f"{k} = {_fmt(v)}\n" for k, v in p.items())


class Cli:
    """Cold ``python -m trichain.cli`` invocations, one child at a time.

    ``command`` is the interpreter command line that runs the CLI; the traced
    run swaps in the benchmark's traced stand-in.  Request files live in
    ``workdir``.
    """

    name = "cli"

    def __init__(self, workdir: str | None = None, command: list[str] | None = None, env: dict | None = None):
        self.workdir = workdir
        self.command = command or [sys.executable, "-m", "trichain.cli"]
        self.env = env

    def block(self, seed: int, index: int) -> list[Op]:
        rng = block_rng(self.name, seed, index)
        ops = self._requests(rng, f"b{index}", figures=index % 2 == 0)
        return [ops[i] for i in rng.permutation(len(ops))]

    def census(self) -> list[Op]:
        return [_malformed(bad, "census") for bad in MALFORMED_SCHEDULES]

    def _requests(self, rng, tag: str, figures: bool) -> list[Op]:
        """Ten requests: nine well-formed, with ``figures`` in place of an
        ``energy --g`` when asked, and one malformed."""

        def rand_params(rng):
            g, f1, f2 = rng.uniform(0.05, 1.2, 3)
            return {"g": float(g), "delta": float(rng.uniform(-1.2, 1.2)), "f1": float(f1), "f2": float(f2)}

        preset = ("qubit", "qutrit")[int(rng.integers(2))]
        fmt = ("csv", "json")[int(rng.integers(2))]
        ops = [
            Op("spectrum_preset", {"argv": ["spectrum", "--preset", preset, "--format", fmt]}),
        ]
        p = _separated(rng, rand_params)
        ops.append(Op("spectrum_params", {"argv": ["spectrum", "--params", f"{tag}_p.txt", "--format", "json"],
                                          "params": p}, files={f"{tag}_p.txt": _params_text(p)}))
        n = int(rng.integers(101, 602))
        ops.append(Op("sweep_resonant", {"argv": ["sweep", "--vary", "g", "--lo", "0", "--hi", "3", "--n", str(n),
                                                  "--delta", "0", "--f1", "1", "--f2", "1"]}))
        lo, hi, delta, n = float(rng.uniform(0.02, 0.2)), float(rng.uniform(0.8, 1.0)), float(rng.uniform(0.3, 0.9)), int(rng.integers(101, 602))
        branch = "AB"[int(rng.integers(2))]
        ops.append(Op("sweep_comb", {"argv": ["sweep", "--vary", "g", "--lo", _fmt(lo), "--hi", _fmt(hi), "--n", str(n),
                                              "--delta", _fmt(delta), "--f1", "1", "--f2", "1",
                                              "--constraint", branch]}))
        ops.append(Op("comb", {"argv": ["comb", "--g", _fmt(rng.uniform(0.02, 1.0)), "--branch", "AB"[int(rng.integers(2))]]}))
        ops.append(Op("energy_target", {"argv": ["energy", "--target", _fmt(rng.uniform(0.0, 1.0))]}))
        if figures:
            ops.append(Op("figures", {"argv": ["figures", "--outdir", f"{tag}_figs"]}))
        else:
            ops.append(Op("energy_g", {"argv": ["energy", "--g", _fmt(rng.uniform(0.02, 1.0))]}))
        t_end = float(rng.uniform(math.pi + 0.5, 3.0 * math.pi))
        schedule = [{"t_start": 0.0, "t_end": math.pi, "g": PRESETS[preset]},
                    {"t_start": math.pi, "t_end": t_end, "g": float(rng.uniform(0.0, 1.0))}]
        ops.append(Op("evolve_schedule", {"argv": ["evolve", "--preset", preset, "--schedule", f"{tag}_s.json",
                                                   "--t-end", _fmt(t_end)]},
                      files={f"{tag}_s.json": json.dumps(schedule)}))
        p = comb_params(rng.uniform(0.05, 1.0), "AB"[int(rng.integers(2))])
        n = int(rng.integers(501, 4002))
        ops.append(Op("evolve_params", {"argv": ["evolve", "--params", f"{tag}_e.txt", "--n", str(n),
                                                 "--init", str(int(rng.integers(1, 7)))]},
                      files={f"{tag}_e.txt": _params_text(p)}))
        ops.append(_malformed(MALFORMED[int(rng.integers(2))], tag))
        return ops

    def prepare(self, op: Op):
        for name, text in op.files.items():
            with open(os.path.join(self.workdir, name), "w", encoding="utf-8") as handle:
                handle.write(text)

    def run(self, op: Op) -> subprocess.CompletedProcess:
        return subprocess.run(self.command + op.args["argv"], cwd=self.workdir, env=self.env,
                              capture_output=True, text=True, timeout=120)

    def check(self, op: Op, proc: subprocess.CompletedProcess) -> dict:
        if op.kind == "malformed":
            return {}
        argv = op.args["argv"]
        command = argv[0]
        opts = dict(zip(argv[1::2], argv[2::2]))
        if command == "spectrum":
            if "--preset" in opts:
                params = T.solve_comb_params(PRESETS[opts["--preset"]], T.identify_energy_branch()).params
            else:
                params = T.SystemParams(**op.args["params"])
            expected = T.eigenfrequencies(params).frequencies
            if opts.get("--format") == "json":
                got = json.loads(proc.stdout)["frequencies"]
            else:
                got = [float(x) for x in proc.stdout.splitlines()[1].split(",")[:6]]
            _require(np.allclose(got, expected, rtol=1e-11, atol=1e-11), "spectrum differs from the library")
        elif command == "sweep":
            constraint = T.branch_constraint(opts["--constraint"]) if "--constraint" in opts else None
            base = T.SystemParams(g=float(opts["--lo"]), delta=float(opts["--delta"]),
                                  f1=float(opts.get("--f1", 1.0)), f2=float(opts.get("--f2", 1.0)))
            rows = T.sweep_spectrum(base, "g", float(opts["--lo"]), float(opts["--hi"]), int(opts["--n"]), constraint)
            got = np.array([[float(x) for x in line.split(",")[:7]] for line in proc.stdout.splitlines()[1:]])
            expected = np.array([[row.param, *row.frequencies] for row in rows])
            _require(got.shape == expected.shape and np.allclose(got, expected, rtol=1e-11, atol=1e-11),
                     "sweep differs from the library")
        elif command == "comb":
            got = json.loads(proc.stdout)
            expected = T.solve_comb_params(float(opts["--g"]), opts["--branch"]).to_json_dict()
            _require(all(math.isclose(got[k], expected[k], rel_tol=1e-14) for k in ("g", "delta", "f1", "f2")),
                     "comb solution differs from the library")
            _require(np.allclose(got["spectrum"], COMB_TARGET, atol=1e-7), "comb spectrum off target")
        elif command == "energy":
            got = json.loads(proc.stdout)
            if "--target" in opts:
                expected = T.solve_g_for_energy(float(opts["--target"])).g_solutions
                _require(np.allclose(got["roots"], expected, rtol=1e-12, atol=1e-14), "roots differ from the library")
            else:
                expected = T.energy_at_pi(float(opts["--g"]))
                _require(math.isclose(got["energy"], expected, rel_tol=1e-14, abs_tol=1e-300),
                         "energy differs from the library")
        elif command == "evolve":
            n = int(opts.get("--n", 2001))
            t_end = float(opts.get("--t-end", TWO_PI))
            times = np.linspace(0.0, t_end, n)
            v0 = T.initial_state(int(opts.get("--init", 2)))
            if "--schedule" in opts:
                params = T.solve_comb_params(PRESETS[opts["--preset"]], T.identify_energy_branch()).params
                with open(os.path.join(self.workdir, opts["--schedule"]), encoding="utf-8") as handle:
                    schedule = T.schedule_from_json(handle.read(), base=params)
                trajectory = T.evolve_schedule(schedule, v0, times)
            else:
                with open(os.path.join(self.workdir, opts["--params"]), encoding="utf-8") as handle:
                    params = T.params_from_config(handle.read())
                trajectory = T.evolve_spectral(params, v0, times)
            lines = proc.stdout.splitlines()
            _require(len(lines) == n + 1, f"{len(lines) - 1} rows, expected {n}")
            picks = np.linspace(1, n, 17).astype(int)
            got = np.array([[float(x) for x in lines[k].split(",")] for k in picks])
            expected = T.energies(trajectory)[picks - 1]
            _require(np.allclose(got, expected, rtol=1e-11, atol=1e-12), "energies differ from the library")
        else:
            outdir = os.path.join(self.workdir, opts["--outdir"])
            for name, rows in _FIG_ROWS.items():
                with open(os.path.join(outdir, name), encoding="utf-8") as handle:
                    _require(sum(1 for _ in handle) == rows + 1, f"{name} has the wrong row count")
        return {}


def _malformed(bad: str, tag: str) -> Op:
    segments = [{"t_start": 0.0, "t_end": 1.0, "g": 0.5}]
    if bad == "schedule_not_json":
        return Op("malformed", {"argv": ["evolve", "--schedule", f"{tag}_bad.json", "--t-end", "1"], "bad": bad},
                  files={f"{tag}_bad.json": json.dumps({"base": RESONANT, "segments": segments})[:-7]})
    if bad == "schedule_base_not_object":
        return Op("malformed", {"argv": ["evolve", "--schedule", f"{tag}_bad.json", "--t-end", "1"], "bad": bad},
                  files={f"{tag}_bad.json": json.dumps({"base": [0.5, 0.0, 1.0, 1.0], "segments": segments})})
    if bad == "bad_number":
        return Op("malformed", {"argv": ["spectrum", "--g", "0.5x", "--delta", "0", "--f1", "1", "--f2", "1"], "bad": bad})
    return Op("malformed", {"argv": ["spectrum", "--params", f"{tag}_bad.txt"], "bad": bad},
              files={f"{tag}_bad.txt": "g = 0.5\ndelta = zero\nf1 = 1\nf2 = 1\n"})


# The CLI's error line; argparse names the subcommand ("trichain sweep: error:").
_ERROR_LINE = re.compile(r"^trichain( [a-z]+)?: error: ", re.MULTILINE)


def classify_cli(op: Op, proc: subprocess.CompletedProcess) -> str | None:
    """Failure reason for a CLI request's exit status, or None when it is right.

    A malformed request must exit 2 with a ``trichain: error:`` line and no
    traceback; a well-formed one must exit 0.
    """
    traceback = "Traceback (most recent call last)" in proc.stderr
    if op.kind == "malformed":
        error_line = _ERROR_LINE.search(proc.stderr) is not None
        if proc.returncode == 2 and error_line and not traceback:
            return None
        return f"malformed {op.args['bad']}: exit {proc.returncode}" + (" with traceback" if traceback else "")
    return None if proc.returncode == 0 else f"exit {proc.returncode}" + (" with traceback" if traceback else "")


Cli.classify = staticmethod(classify_cli)

WORKLOADS = {"sweep": Sweep, "queries": Queries, "dynamics": Dynamics, "cli": Cli}
