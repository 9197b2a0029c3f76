"""Command-line front end: spectra, sweeps, comb solving, energy programming,
evolution runs, and reference figure data, with CSV/JSON output.

Exit codes are a stable scripting contract: 0 success, 1 I/O failure,
2 usage or validation error.  The environment variable TRICHAIN_VERBOSE
(any value other than empty or "0") enables progress lines on stderr and
controls nothing else.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .comb import (
    BRANCHES,
    QUBIT_COUPLING,
    QUTRIT_COUPLING,
    branch_constraint,
    energy_at_pi,
    identify_energy_branch,
    solve_comb_params,
    solve_g_for_energy,
)
from .dynamics import (
    energies_to_csv,
    energies,
    evolve_schedule,
    evolve_spectral,
    schedule_from_json,
)
from .errors import TrichainError
from .model import SystemParams, _csv, _fmt, initial_state, params_from_config
from .spectrum import (
    DEFAULT_DEGENERACY_TOL,
    _nonequidistance_or_none,
    degeneracy_discriminant,
    eigenfrequencies,
    sweep_rows_to_csv,
    sweep_spectrum,
    sweep_spectrum_values,
)

_PRESETS = {"qubit": QUBIT_COUPLING, "qutrit": QUTRIT_COUPLING}

# Destinations of the options _add_params_options adds.
_PARAM_OPTIONS = ("g", "delta", "f1", "f2", "omega0", "params", "comb", "preset")

_SPECTRUM_CSV_HEADER = "w1,w2,w3,w4,w5,w6,delta,degenerate,discriminant,zero_frequency_pair"


class UsageError(Exception):
    """Invalid flag combination or missing required option."""


def _progress(message: str) -> None:
    if os.environ.get("TRICHAIN_VERBOSE", "") not in ("", "0"):
        print(message, file=sys.stderr)


def _write_output(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")
        _progress(f"wrote {path}")


def _read_text(path: str, what: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise UsageError(f"{what} {path} is not UTF-8 text: {exc}") from None


def _json_dumps(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _add_common_output(parser: argparse.ArgumentParser, formats=("csv", "json")) -> None:
    parser.add_argument("--out", default=None, help="output path ('-' or omitted: stdout)")
    if formats:
        parser.add_argument("--format", choices=formats, default=None,
                            help=f"output format (default {formats[0]})")


def _add_params_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--g", type=float, default=None, help="inter-resonator coupling")
    parser.add_argument("--delta", type=float, default=None, help="detuning of resonators 1 and 3")
    parser.add_argument("--f1", type=float, default=None, help="atom-field coupling, resonator 2")
    parser.add_argument("--f2", type=float, default=None, help="atom-field coupling, resonators 1 and 3")
    parser.add_argument("--omega0", type=float, default=None, help="carrier frequency (bookkeeping)")
    parser.add_argument("--params", default=None, metavar="FILE",
                        help="flat key=value parameter file (flags override it)")
    parser.add_argument("--comb", choices=BRANCHES, default=None,
                        help="derive delta, f1, f2 from the comb branch at --g")
    parser.add_argument("--preset", choices=sorted(_PRESETS), default=None,
                        help="named coupling preset on the measured energy branch")


def _apply_config(args: argparse.Namespace) -> None:
    config_path = getattr(args, "config", None)
    if not config_path:
        return
    text = _read_text(config_path, "config")
    try:
        data = json.loads(text)
    except ValueError as exc:
        raise UsageError(f"config {config_path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise UsageError(f"config {config_path} must contain a JSON object")
    options = {action.dest: action for action in args.options if hasattr(args, action.dest)}
    for key, value in data.items():
        action = options.get(key.replace("-", "_"))
        if action is None:
            raise UsageError(f"config {config_path}: unknown option {key!r}")
        if getattr(args, action.dest) is None:
            setattr(args, action.dest, _config_value(config_path, key, action, value))


def _config_value(config_path: str, key: str, action: argparse.Action, value):
    """A config value, checked as the text of the matching flag would be."""
    if action.type is not None:
        try:
            value = action.type(str(value))
        except ValueError:
            raise UsageError(f"config {config_path}: option {key!r}: invalid value {value!r}") from None
    elif not isinstance(value, str):
        raise UsageError(f"config {config_path}: option {key!r} takes a string, got {value!r}")
    if action.choices is not None and value not in action.choices:
        raise UsageError(f"config {config_path}: option {key!r}: {value!r} is not one of {tuple(action.choices)}")
    return value


def _resolve_params(args: argparse.Namespace) -> SystemParams:
    derived = [name for name in ("delta", "f1", "f2") if getattr(args, name) is not None]
    if args.preset is not None:
        if args.comb is not None or args.g is not None or derived:
            raise UsageError("--preset fixes g and the comb branch; drop the other parameter flags")
        branch = identify_energy_branch()
        return solve_comb_params(_PRESETS[args.preset], branch).params
    if args.comb is not None:
        if args.g is None:
            raise UsageError("--comb requires --g")
        if derived:
            raise UsageError("--comb derives delta, f1, f2; drop those flags")
        return solve_comb_params(args.g, args.comb).params
    values: dict[str, float] = {}
    if args.params is not None:
        file_params = params_from_config(_read_text(args.params, "params file"))
        values = {key: getattr(file_params, key) for key in ("g", "delta", "f1", "f2", "omega0")}
    for key in ("g", "delta", "f1", "f2", "omega0"):
        flag = getattr(args, key)
        if flag is not None:
            values[key] = flag
    missing = [key for key in ("g", "delta", "f1", "f2") if key not in values]
    if missing:
        raise UsageError(f"missing parameters: {', '.join('--' + m for m in missing)}")
    return SystemParams(**values)


def cmd_spectrum(args: argparse.Namespace) -> int:
    params = _resolve_params(args)
    tol = args.degeneracy_tol if args.degeneracy_tol is not None else DEFAULT_DEGENERACY_TOL
    spectrum = eigenfrequencies(params, tol)
    delta_err = _nonequidistance_or_none(spectrum)
    report = degeneracy_discriminant(params)
    fmt = args.format or "csv"
    if fmt == "json":
        payload = {
            "frequencies": list(spectrum.frequencies),
            "delta": delta_err,
            "degenerate": delta_err is None,
            "discriminant": report.discriminant,
            "zero_frequency_pair": report.zero_frequency_pair,
            "clusters": [[value, mult] for value, mult in spectrum.clusters],
        }
        _write_output(args.out, _json_dumps(payload))
    else:
        row = ",".join(
            [_fmt(w) for w in spectrum.frequencies]
            + ["" if delta_err is None else _fmt(delta_err)]
            + ["true" if delta_err is None else "false"]
            + [_fmt(report.discriminant)]
            + ["true" if report.zero_frequency_pair else "false"]
        )
        _write_output(args.out, _SPECTRUM_CSV_HEADER + "\n" + row + "\n")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.lo is None or args.hi is None or args.n is None:
        raise UsageError("sweep requires --lo, --hi and --n")
    if args.constraint and args.vary in ("f1", "f2"):
        raise UsageError(f"--constraint derives f1 and f2 from g; it cannot sweep {args.vary}")
    if getattr(args, args.vary) is None:
        setattr(args, args.vary, float(args.lo))
    params = _resolve_params(args)
    constraint = branch_constraint(args.constraint) if args.constraint else None
    tol = args.degeneracy_tol if args.degeneracy_tol is not None else DEFAULT_DEGENERACY_TOL
    _progress(f"sweeping {args.vary} over [{args.lo}, {args.hi}] with {args.n} points")
    rows = sweep_spectrum(params, args.vary, args.lo, args.hi, args.n, constraint, tol)
    fmt = args.format or "csv"
    if fmt == "json":
        payload = [
            {
                "param": row.param,
                "frequencies": list(row.frequencies),
                "delta": row.delta_err,
                "degenerate": row.degenerate,
            }
            for row in rows
        ]
        _write_output(args.out, _json_dumps(payload))
    else:
        _write_output(args.out, sweep_rows_to_csv(rows))
    return 0


def cmd_comb(args: argparse.Namespace) -> int:
    if args.g is None:
        raise UsageError("comb requires --g")
    solution = solve_comb_params(args.g, args.branch)
    _write_output(args.out, _json_dumps(solution.to_json_dict()))
    return 0


def cmd_energy(args: argparse.Namespace) -> int:
    if (args.target is None) == (args.g is None):
        raise UsageError("energy requires exactly one of --target or --g")
    if args.g is not None:
        payload = {"g": args.g, "energy": energy_at_pi(args.g)}
    else:
        program = solve_g_for_energy(args.target)
        payload = program.to_json_dict()
    _write_output(args.out, _json_dumps(payload))
    return 0


def cmd_evolve(args: argparse.Namespace) -> int:
    schedule_text = None
    if args.schedule is not None:
        schedule_text = _read_text(args.schedule, "schedule")
    given = [name for name in _PARAM_OPTIONS if getattr(args, name) is not None]
    # Parameter flags are optional with a schedule, whose file may hold the base,
    # but flags that are given must resolve as they do without one.
    params = None if schedule_text is not None and not given else _resolve_params(args)
    t_end = args.t_end if args.t_end is not None else 2.0 * math.pi
    if not math.isfinite(t_end):
        raise UsageError(f"--t-end must be finite, got {t_end}")
    n = args.n if args.n is not None else 2001
    if n < 2:
        raise UsageError("--n must be at least 2")
    init = args.init if args.init is not None else 2
    times = np.linspace(0.0, t_end, n)
    v0 = initial_state(init)
    if schedule_text is not None:
        schedule = schedule_from_json(schedule_text, base=params)
        trajectory = evolve_schedule(schedule, v0, times)
    else:
        trajectory = evolve_spectral(params, v0, times)
    fmt = args.format or "csv"
    if fmt == "json":
        table = energies(trajectory)
        payload = {
            "times": [float(x) for x in table[:, 0]],
            "energies": {
                label: [float(x) for x in table[:, k + 1]]
                for k, label in enumerate(("E_s1", "E_s2", "E_s3", "E_a1", "E_a2", "E_a3"))
            },
        }
        _write_output(args.out, _json_dumps(payload))
    else:
        _write_output(args.out, energies_to_csv(trajectory))
    return 0


def cmd_figures(args: argparse.Namespace) -> int:
    outdir = Path(args.outdir if args.outdir is not None else ".")
    outdir.mkdir(parents=True, exist_ok=True)
    resonant = SystemParams(g=0.0, delta=0.0, f1=1.0, f2=1.0)

    _progress("fig2.csv: spectrum versus g, resonant chain")
    rows = sweep_spectrum(resonant, "g", 0.0, 3.0, 601)
    (outdir / "fig2.csv").write_text(sweep_rows_to_csv(rows), encoding="utf-8")

    _progress("fig3.csv: non-equidistance error versus g, resonant chain")
    rows = sweep_spectrum(resonant, "g", 0.01, 3.0, 1000)
    (outdir / "fig3.csv").write_text(sweep_rows_to_csv(rows), encoding="utf-8")

    _progress("fig4.csv: spectrum versus detuning at the comb coupling")
    anchor = solve_comb_params(QUBIT_COUPLING, "A")
    values = np.unique(np.append(np.linspace(0.0, 2.0, 801), anchor.f2))
    rows = sweep_spectrum_values(anchor.params, "delta", values)
    (outdir / "fig4.csv").write_text(sweep_rows_to_csv(rows), encoding="utf-8")

    _progress("fig5.csv: central-atom energy versus time for both presets")
    branch = identify_energy_branch()
    times = np.linspace(0.0, 2.0 * math.pi, 2001)
    v0 = initial_state(2)
    columns = []
    for coupling in (QUBIT_COUPLING, QUTRIT_COUPLING):
        solution = solve_comb_params(coupling, branch)
        trajectory = evolve_spectral(solution.params, v0, times)
        columns.append(np.abs(trajectory.states[:, 1]) ** 2)
    fig5 = _csv("t,E_x2_qubit,E_x2_qutrit", zip(times, *columns))
    (outdir / "fig5.csv").write_text(fig5, encoding="utf-8")

    print(f"wrote fig2.csv fig3.csv fig4.csv fig5.csv to {outdir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trichain",
        description="Spectra, comb design and single-excitation dynamics "
        "of a three-resonator atom-cavity chain.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="eigenfrequencies, non-equidistance error, discriminant")
    _add_params_options(p)
    p.add_argument("--degeneracy-tol", type=float, default=None)
    _add_common_output(p)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("sweep", help="spectrum sweep over one parameter")
    _add_params_options(p)
    p.add_argument("--vary", choices=("g", "delta", "f1", "f2"), required=True)
    p.add_argument("--lo", type=float, default=None)
    p.add_argument("--hi", type=float, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--constraint", choices=BRANCHES, default=None,
                   help="re-derive f1, f2 from g on this comb branch at every grid point")
    p.add_argument("--degeneracy-tol", type=float, default=None)
    _add_common_output(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("comb", help="solve the comb constraints on a branch")
    p.add_argument("--g", type=float, default=None)
    p.add_argument("--branch", choices=BRANCHES, required=True)
    _add_common_output(p, formats=())
    p.set_defaults(func=cmd_comb)

    p = sub.add_parser("energy", help="half-period energy: evaluate or invert")
    p.add_argument("--target", type=float, default=None, help="desired E_x2 at half period")
    p.add_argument("--g", type=float, default=None, help="evaluate the closed form at this g")
    _add_common_output(p, formats=())
    p.set_defaults(func=cmd_energy)

    p = sub.add_parser("evolve", help="propagate the excited state, emit mode energies")
    _add_params_options(p)
    p.add_argument("--t-end", type=float, default=None, help="final time (default 2*pi)")
    p.add_argument("--n", type=int, default=None, help="number of samples (default 2001)")
    p.add_argument("--init", type=int, default=None, help="1-based excited mode (default 2)")
    p.add_argument("--schedule", default=None, metavar="FILE", help="piecewise g(t) JSON")
    _add_common_output(p)
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("figures", help="write the four reference CSV datasets")
    p.add_argument("--outdir", default=None)
    p.set_defaults(func=cmd_figures)

    for command in sub.choices.values():
        command.add_argument("--config", default=None,
                             help="JSON file of option defaults (explicit flags win)")
        command.set_defaults(options=command._actions)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config(args)
        return args.func(args)
    except (TrichainError, UsageError) as exc:
        print(f"trichain: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"trichain: i/o error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
