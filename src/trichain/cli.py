"""Command-line front end: spectra, sweeps, comb solving, energy programming,
evolution runs, and reference figure data, with CSV/JSON output.

Commands parse options and write text; each record's CSV and JSON come from
the module that computes it.  Options declare their defaults, and ``--config``
values replace those before a second parse, so explicit flags win.  No
command imports numpy: the grids of ``sweep``, ``evolve`` and ``figures`` run
point by point on the float kernels, with the bits of the batched routes.

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

from . import __version__
from .comb import (
    BRANCHES,
    QUBIT_COUPLING,
    QUTRIT_COUPLING,
    _energy_at_pi_json_dict,
    branch_constraint,
    identify_energy_branch,
    solve_comb_params,
    solve_g_for_energy,
)
from .errors import TrichainError
from .model import _CONFIG_KEYS, _PHYSICAL_KEYS, SystemParams, _csv, _linspace, _unit_state, params_from_config
from .spectrum import (
    DEFAULT_DEGENERACY_TOL,
    _grid,
    _spectrum_record,
    _spectrum_record_to_csv,
    _sweep_points,
    sweep_rows_to_csv,
)

_PRESETS = {"qubit": QUBIT_COUPLING, "qutrit": QUTRIT_COUPLING}

#: Largest ``--n`` of ``sweep`` and ``evolve``, so that no option value asks
#: for an allocation that fails with a MemoryError.
_MAX_N = 5000

# Destinations of the options _add_params_options adds.
_PARAM_OPTIONS = (*_CONFIG_KEYS, "params", "comb", "preset")


class UsageError(Exception):
    """Invalid flag combination or missing required option."""


class _FloatLiteral:
    """argparse's test of whether an argument that starts with "-" is a value,
    a negative number, rather than an option: any literal that float() reads.
    argparse's own pattern takes -1e-3, -1E-3 and -5. for options."""

    @staticmethod
    def match(text: str) -> bool:
        try:
            float(text)
        except ValueError:
            return False
        return True


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _FloatLiteral

    def error(self, message):  # on one line, though argparse echoes an unrecognized argument raw
        super().error(message.replace("\r", "\\r").replace("\n", "\\n"))


def _progress(message: str) -> None:
    if os.environ.get("TRICHAIN_VERBOSE", "") not in ("", "0"):
        print(message, file=sys.stderr)


def _write_output(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        _write_text(path, text)
        _progress(f"wrote {path}")


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as stream:
        stream.write(text)


def _read_text(path: str, what: str) -> str:
    try:
        with open(path, encoding="utf-8") as stream:
            return stream.read()
    except UnicodeDecodeError as exc:
        raise UsageError(f"{what} {path} is not UTF-8 text: {exc}") from None


def _json_dumps(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _add_common_output(parser: argparse.ArgumentParser, formats=("csv", "json")) -> None:
    parser.add_argument("--out", default=None, help="output path ('-' or omitted: stdout)")
    if formats:
        parser.add_argument("--format", choices=formats, default=formats[0],
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
    """Make the values of the ``--config`` file the subcommand's option defaults."""
    config_path = args.config
    text = _read_text(config_path, "config")
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:  # RecursionError: nested too deep to parse
        raise UsageError(f"config {config_path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise UsageError(f"config {config_path} must contain a JSON object")
    options = {action.dest: action for action in args.subparser._actions if hasattr(args, action.dest)}
    defaults = {}
    for key, value in data.items():
        action = options.get(key.replace("-", "_"))
        if action is None:
            raise UsageError(f"config {config_path}: unknown option {key!r}")
        defaults[action.dest] = _config_value(config_path, key, action, value)
    args.subparser.set_defaults(**defaults)


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
    derived = [name for name in _PHYSICAL_KEYS[1:] if getattr(args, name) is not None]
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
        values = file_params._asdict()
    for key in _CONFIG_KEYS:
        flag = getattr(args, key)
        if flag is not None:
            values[key] = flag
    missing = [key for key in _PHYSICAL_KEYS if key not in values]
    if missing:
        raise UsageError(f"missing parameters: {', '.join('--' + m for m in missing)}")
    return SystemParams(**values)


def cmd_spectrum(args: argparse.Namespace) -> int:
    record = _spectrum_record(_resolve_params(args), args.degeneracy_tol)
    if args.format == "json":
        _write_output(args.out, _json_dumps(record))
    else:
        _write_output(args.out, _spectrum_record_to_csv(record))
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.lo is None or args.hi is None or args.n is None:
        raise UsageError("sweep requires --lo, --hi and --n")
    if args.n > _MAX_N:
        raise UsageError(f"--n must be at most {_MAX_N}, got {args.n}")
    if args.constraint and args.vary in ("f1", "f2"):
        raise UsageError(f"--constraint derives f1 and f2 from g; it cannot sweep {args.vary}")
    if getattr(args, args.vary) is None and args.preset is None and (args.comb is None or args.vary == "g"):
        setattr(args, args.vary, float(args.lo))  # the base reads the varied key from the flags
    params = _resolve_params(args)
    constraint = branch_constraint(args.constraint) if args.constraint else None
    _progress(f"sweeping {args.vary} over [{args.lo}, {args.hi}] with {args.n} points")
    grid = _grid(args.lo, args.hi, args.n, _linspace)  # sweep_spectrum's, one point at a time
    rows = _sweep_points(params, args.vary, grid, constraint, args.degeneracy_tol)
    if args.format == "json":
        _write_output(args.out, _json_dumps([row.to_json_dict() for row in rows]))
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
        payload = _energy_at_pi_json_dict(args.g)
    else:
        program = solve_g_for_energy(args.target)
        payload = program.to_json_dict()
    _write_output(args.out, _json_dumps(payload))
    return 0


def cmd_evolve(args: argparse.Namespace) -> int:
    from . import dynamics

    schedule_text = None
    if args.schedule is not None:
        schedule_text = _read_text(args.schedule, "schedule")
    given = [name for name in _PARAM_OPTIONS if getattr(args, name) is not None]
    # Parameter flags are optional with a schedule, whose file may hold the base,
    # but flags that are given must resolve as they do without one.
    params = None if schedule_text is not None and not given else _resolve_params(args)
    if not (math.isfinite(args.t_end) and args.t_end >= 0.0):
        raise UsageError(f"--t-end must be finite and non-negative, got {args.t_end}")
    if args.n < 2:
        raise UsageError("--n must be at least 2")
    if args.n > _MAX_N:
        raise UsageError(f"--n must be at most {_MAX_N}, got {args.n}")
    times = _linspace(0.0, args.t_end, args.n)
    v0 = _unit_state(args.init)
    if schedule_text is not None:  # parameter flags, when given, win over the file's base
        schedule = dynamics.schedule_from_json(schedule_text, base=params)
        params = schedule if params is None else schedule._replace(base=params)
    rows = dynamics._energy_rows(params, v0, times)
    if args.format == "json":
        _write_output(args.out, _json_dumps(dynamics._energies_to_json_dict(rows)))
    else:
        _write_output(args.out, _csv(dynamics._ENERGY_CSV_HEADER, rows))
    return 0


def cmd_figures(args: argparse.Namespace) -> int:
    from . import dynamics

    outdir = args.outdir or "."
    os.makedirs(outdir, exist_ok=True)
    resonant = SystemParams(g=0.0, delta=0.0, f1=1.0, f2=1.0)

    _progress("fig2.csv: spectrum versus g, resonant chain")
    rows = _sweep_points(resonant, "g", _linspace(0.0, 3.0, 601))
    _write_text(os.path.join(outdir, "fig2.csv"), sweep_rows_to_csv(rows))

    _progress("fig3.csv: non-equidistance error versus g, resonant chain")
    rows = _sweep_points(resonant, "g", _linspace(0.01, 3.0, 1000))
    _write_text(os.path.join(outdir, "fig3.csv"), sweep_rows_to_csv(rows))

    _progress("fig4.csv: spectrum versus detuning at the comb coupling")
    anchor = solve_comb_params(QUBIT_COUPLING, "A")
    values = sorted({*_linspace(0.0, 2.0, 801), anchor.f2})
    rows = _sweep_points(anchor.params, "delta", values)
    _write_text(os.path.join(outdir, "fig4.csv"), sweep_rows_to_csv(rows))

    _progress("fig5.csv: central-atom energy versus time for both presets")
    branch = identify_energy_branch()
    times = _linspace(0.0, 2.0 * math.pi, 2001)
    qubit, qutrit = (
        dynamics._energy_rows(solve_comb_params(coupling, branch).params, _unit_state(2), times)
        for coupling in (QUBIT_COUPLING, QUTRIT_COUPLING)
    )
    fig5 = dynamics._central_energies_to_csv(qubit, qutrit)
    _write_text(os.path.join(outdir, "fig5.csv"), fig5)

    print(f"wrote fig2.csv fig3.csv fig4.csv fig5.csv to {outdir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="trichain",
        description="Spectra, comb design and single-excitation dynamics "
        "of a three-resonator atom-cavity chain.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="eigenfrequencies, non-equidistance error, discriminant")
    _add_params_options(p)
    p.add_argument("--degeneracy-tol", type=float, default=DEFAULT_DEGENERACY_TOL)
    _add_common_output(p)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("sweep", help="spectrum sweep over one parameter")
    _add_params_options(p)
    p.add_argument("--vary", choices=_PHYSICAL_KEYS, required=True)
    p.add_argument("--lo", type=float, default=None)
    p.add_argument("--hi", type=float, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--constraint", choices=BRANCHES, default=None,
                   help="re-derive f1, f2 from g on this comb branch at every grid point")
    p.add_argument("--degeneracy-tol", type=float, default=DEFAULT_DEGENERACY_TOL)
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
    p.add_argument("--t-end", type=float, default=2.0 * math.pi, help="final time (default 2*pi)")
    p.add_argument("--n", type=int, default=2001, help="number of samples (default 2001)")
    p.add_argument("--init", type=int, default=2, help="1-based excited mode (default 2)")
    p.add_argument("--schedule", default=None, metavar="FILE", help="piecewise g(t) JSON")
    _add_common_output(p)
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("figures", help="write the four reference CSV datasets")
    p.add_argument("--outdir", default=".")
    p.set_defaults(func=cmd_figures)

    for command in sub.choices.values():
        command.add_argument("--config", default=None,
                             help="JSON file of option defaults (explicit flags win)")
        command.set_defaults(subparser=command)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            _apply_config(args)
            args = parser.parse_args(argv)  # explicit flags win over the config's defaults
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
