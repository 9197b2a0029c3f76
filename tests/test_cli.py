import argparse
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import trichain
from trichain import (
    DEFAULT_DEGENERACY_TOL,
    QUBIT_COUPLING,
    QUTRIT_COUPLING,
    SystemParams,
    TrichainError,
    degeneracy_discriminant,
    eigenfrequencies,
    energies,
    evolve_spectral,
    identify_energy_branch,
    initial_state,
    solve_comb_params,
    sweep_spectrum_values,
)
from trichain.cli import build_parser, main
from trichain.model import _linspace, _xp
from trichain.spectrum import _grid, _spectrum_record, _sweep_points


def run(args):
    return main(list(args))


def read_csv_rows(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


class TestSpectrumCommand:
    def test_resonant_chain(self, tmp_path, capsys):
        assert run(["spectrum", "--g", "0", "--delta", "0", "--f1", "1", "--f2", "1"]) == 0
        out = capsys.readouterr().out.strip().split("\n")
        assert out[0] == "w1,w2,w3,w4,w5,w6,delta,degenerate,discriminant,zero_frequency_pair"
        fields = out[1].split(",")
        assert fields[:6] == ["-1", "-1", "-1", "1", "1", "1"]
        assert fields[6] == "" and fields[7] == "true"

    def test_comb_derivation(self, tmp_path):
        out = tmp_path / "spec.json"
        assert run(["spectrum", "--comb", "A", "--g", "0.7556142107",
                    "--format", "json", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert np.allclose(data["frequencies"], [-2, -1, 0, 0, 1, 2], atol=1e-7)
        assert data["degenerate"] is True
        assert data["zero_frequency_pair"] is True

    def test_missing_flag_exits_2(self, capsys):
        assert run(["spectrum", "--g", "1"]) == 2
        assert "missing parameters" in capsys.readouterr().err

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            run(["spectrum", "--nonsense", "1"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("argv", [["spectrum", "a\nb"], ["spectrum", "--g", "1", "x\r\ny"]])
    def test_unrecognized_argument_error_stays_on_one_line(self, argv, capsys):
        # argparse echoes unrecognized arguments raw, and a newline in one split the error line
        with pytest.raises(SystemExit) as excinfo:
            run(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        escaped = argv[-1].replace("\r", "\\r").replace("\n", "\\n")
        assert err.endswith(f"\ntrichain: error: unrecognized arguments: {escaped}\n")
        assert err.count("error") == 1

    def test_params_file_with_flag_override(self, tmp_path, capsys):
        config = tmp_path / "params.cfg"
        config.write_text("g = 0\ndelta = 0\nf1 = 1\nf2 = 1\n")
        assert run(["spectrum", "--params", str(config), "--g", "1"]) == 0
        row = capsys.readouterr().out.strip().split("\n")[1]
        assert row.split(",")[7] == "false"

    def test_preset_conflicts_rejected(self, capsys):
        assert run(["spectrum", "--preset", "qubit", "--g", "0.5"]) == 2

    def test_overflowing_parameters_exit_2(self, capsys):
        argv = ["spectrum", "--g", "1e200", "--delta", "0", "--f1", "1", "--f2", "1", "--format", "json"]
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("trichain: error:")

    def test_resonant_chain_at_large_coupling(self, capsys):
        # Raised ConsistencyError ("disagree by 1.965e-05") under the
        # frequency-space check of the closed-form cubic.
        assert run(["spectrum", "--g", "1000", "--delta", "0", "--f1", "1", "--f2", "1"]) == 0
        assert len(capsys.readouterr().out.strip().split("\n")) == 2

    def test_small_generic_point_has_no_zero_frequency_pair(self, capsys):
        # (0.5, 0.3, 0.8, 0.9) / 256: w4 = 0.00182.  The flag had an absolute
        # floor and read true here.
        assert run(["spectrum", "--g", "0.001953125", "--delta", "0.001171875",
                    "--f1", "0.003125", "--f2", "0.003515625"]) == 0
        fields = capsys.readouterr().out.strip().split("\n")[1].split(",")
        assert float(fields[3]) == pytest.approx(0.00182, rel=1e-3) and fields[9] == "false"

    def test_discriminant_near_the_triple_root(self, capsys):
        # On the resonant chain the discriminant is 32 g^6 + 16 g^8, 3.2e-23 at
        # g = 1e-4; a float evaluation of the cubic's discriminant writes its
        # cancellation noise here, 2^-46 = 1.42108547152e-14.
        assert run(["spectrum", "--g", "1e-4", "--delta", "0", "--f1", "1", "--f2", "1"]) == 0
        assert capsys.readouterr().out.strip().split("\n")[1].split(",")[8] == "3.200000016e-23"

    @pytest.mark.parametrize("value", ["-1e-3", "-1E-3", "-1e-03", "-5.", "-0.001"])
    def test_negative_value_in_any_float_form(self, value):
        # argparse took -1e-3, -1E-3 and -5. for options: "argument --delta: expected one argument".
        flags = ["--g", "0.5", "--f1", "1", "--f2", "1"]
        assert outputs_of(["spectrum", "--delta", value, *flags]) == outputs_of(["spectrum", f"--delta={value}", *flags])
        assert stdout_of(["spectrum", "--delta", value, *flags])

    @pytest.mark.parametrize("value", ["-inf", "-nan"])
    def test_negative_non_finite_value_meets_the_finiteness_check(self, value):
        code, out, err = outputs_of(["spectrum", "--g", "0.5", "--delta", value, "--f1", "1", "--f2", "1"])
        assert (code, out) == (2, "") and err.startswith("trichain: error: delta must be a finite real number")

    def test_preset_lands_on_the_comb(self, capsys):
        assert run(["spectrum", "--preset", "qubit"]) == 0
        row = capsys.readouterr().out.strip().split("\n")[1]
        assert row.split(",")[7] == "true"


class TestSweepCommand:
    def test_basic_sweep(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run(["sweep", "--vary", "g", "--lo", "0", "--hi", "1", "--n", "5",
                    "--delta", "0", "--f1", "1", "--f2", "1", "--out", str(out)]) == 0
        rows = read_csv_rows(out)
        assert len(rows) == 5
        assert rows[0]["degenerate"] == "true"
        assert rows[-1]["degenerate"] == "false"

    def test_sweep_toward_the_triple_root(self, capsys):
        assert run(["sweep", "--vary", "g", "--lo", "0", "--hi", "0.001", "--n", "50",
                    "--delta", "0", "--f1", "1", "--f2", "1"]) == 0
        assert len(capsys.readouterr().out.strip().split("\n")) == 51

    def test_constraint_option(self, tmp_path):
        out = tmp_path / "sweep.json"
        assert run(["sweep", "--vary", "delta", "--lo", "0.3", "--hi", "0.8", "--n", "3",
                    "--g", "0.7556142107", "--f1", "1", "--f2", "1",
                    "--constraint", "A", "--format", "json", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert len(data) == 3
        assert all(not row["degenerate"] for row in data)
        # Byte for byte the objects built field by field from the rows.
        base = trichain.SystemParams(g=0.7556142107, delta=0.3, f1=1.0, f2=1.0)
        rows = trichain.sweep_spectrum(base, "delta", 0.3, 0.8, 3, trichain.branch_constraint("A"))
        payload = [
            {"param": row.param, "frequencies": list(row.frequencies), "delta": row.delta_err,
             "degenerate": row.degenerate}
            for row in rows
        ]
        assert out.read_text() == json.dumps(payload, indent=2) + "\n"

    @pytest.mark.parametrize("vary", ["f1", "f2"])
    def test_constraint_cannot_sweep_a_derived_coupling(self, vary, capsys):
        assert run(["sweep", "--vary", vary, "--lo", "0.1", "--hi", "2", "--n", "3",
                    "--g", "0.5", "--delta", "0.3", "--f1", "1", "--f2", "1", "--constraint", "A"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("trichain: error:")

    def test_delta_sweep_from_a_negative_exponent_form(self):
        code, out, err = outputs_of(["sweep", "--vary", "delta", "--lo", "-1e-05", "--hi", "1e-05", "--n", "3",
                                     "--g", "0.5", "--f1", "1", "--f2", "1"])
        assert (code, err) == (0, "")
        assert [line.split(",")[0] for line in out.split("\n")[1:-1]] == ["-1e-05", "0", "1e-05"]

    def test_missing_range_exits_2(self):
        assert run(["sweep", "--vary", "g", "--delta", "0", "--f1", "1", "--f2", "1"]) == 2

    @pytest.mark.parametrize("argv, base", [
        (["--preset", "qubit", "--vary", "delta"], lambda: solve_comb_params(QUBIT_COUPLING, identify_energy_branch())),
        (["--preset", "qutrit", "--vary", "g"], lambda: solve_comb_params(QUTRIT_COUPLING, identify_energy_branch())),
        (["--comb", "A", "--g", "0.5", "--vary", "delta"], lambda: solve_comb_params(0.5, "A")),
        (["--comb", "B", "--g", "0.5", "--vary", "f1"], lambda: solve_comb_params(0.5, "B")),
        (["--comb", "A", "--vary", "g"], lambda: solve_comb_params(0.2, "A")),  # g from --lo
    ], ids=["preset delta", "preset g", "comb delta", "comb f1", "comb g from lo"])
    def test_sweep_over_a_preset_or_comb_base(self, argv, base):
        # The varied flag is filled from --lo only where the base reads it from the flags.
        rows = trichain.sweep_spectrum(base().params, argv[-1], 0.2, 1.0, 5)
        assert outputs_of(["sweep", *argv, "--lo", "0.2", "--hi", "1", "--n", "5"]) == (
            0, trichain.sweep_rows_to_csv(rows), "")

    @pytest.mark.parametrize("vary, bounds", [("g", ["--lo", "0", "--hi", "inf"]),
                                              ("delta", ["--lo=-1e308", "--hi=1e308"])])
    def test_non_finite_range_prints_only_the_error(self, capsys, vary, bounds):
        params = {"g": "0.5", "delta": "0", "f1": "1", "f2": "1"}
        del params[vary]
        argv = ["sweep", "--vary", vary, *bounds, "--n", "3"]
        for name, value in params.items():
            argv += ["--" + name, value]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("trichain: error: sweep range must be finite") and err.count("\n") == 1


class TestCombCommand:
    def test_solution_json(self, tmp_path):
        out = tmp_path / "comb.json"
        assert run(["comb", "--g", "0.4531870484", "--branch", "A", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert set(data) == {"branch", "g", "delta", "f1", "f2", "residuals", "spectrum"}
        assert max(abs(r) for r in data["residuals"]) <= 1e-12

    def test_out_of_domain_exits_2(self, capsys):
        assert run(["comb", "--g", "1.5", "--branch", "B"]) == 2


class TestEnergyCommand:
    def test_invert_for_zero_energy(self, capsys):
        assert run(["energy", "--target", "0"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert any(abs(root - 0.7556142107) <= 1e-8 for root in data["roots"])

    def test_evaluate_closed_form(self, capsys):
        assert run(["energy", "--g", "1"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["energy"] == pytest.approx(1.0 / 9.0, abs=1e-15)

    def test_requires_exactly_one_mode(self):
        assert run(["energy"]) == 2
        assert run(["energy", "--target", "0", "--g", "0.5"]) == 2


_SWEEP_ARGV = ["sweep", "--vary", "g", "--lo", "0", "--hi", "1", "--delta", "0", "--f1", "1", "--f2", "1"]


@pytest.mark.parametrize("argv", [_SWEEP_ARGV, ["evolve", "--g", "0.5", "--delta", "0", "--f1", "1", "--f2", "1"]],
                         ids=["sweep", "evolve"])
@pytest.mark.parametrize("route", ["flag", "config"])
def test_n_is_capped(tmp_path, capsys, argv, route):
    # --n 10000000000000 used to exit 1 with a numpy MemoryError traceback.
    def run_with_n(n):
        if route == "flag":
            return run([*argv, "--n", str(n)])
        config = tmp_path / "n.json"
        config.write_text(json.dumps({"n": n}))
        return run([*argv, "--config", str(config)])

    assert run_with_n(trichain.cli._MAX_N) == 0
    capsys.readouterr()
    for n in (trichain.cli._MAX_N + 1, 10_000_000_000_000):
        assert run_with_n(n) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"trichain: error: --n must be at most {trichain.cli._MAX_N}, got {n}\n"


class TestEvolveCommand:
    def test_preset_trajectory(self, tmp_path):
        out = tmp_path / "run.csv"
        assert run(["evolve", "--preset", "qubit", "--n", "101", "--out", str(out)]) == 0
        rows = read_csv_rows(out)
        assert len(rows) == 101
        mid = min(rows, key=lambda r: abs(float(r["t"]) - math.pi))
        assert float(mid["E_s2"]) <= 1e-7

    def test_schedule_run(self, tmp_path):
        schedule = {
            "base": {"g": 0.7556142107, "delta": 0.8895747639737757,
                     "f1": 0.8322987963348483, "f2": 0.8895747639737757},
            "segments": [
                {"t_start": 0.0, "t_end": math.pi, "g": 0.7556142107},
                {"t_start": math.pi, "t_end": 3 * math.pi, "g": 0.0},
            ],
        }
        sched_path = tmp_path / "freeze_at_pi.json"
        sched_path.write_text(json.dumps(schedule))
        out = tmp_path / "run.csv"
        assert run(["evolve", "--schedule", str(sched_path), "--t-end", str(3 * math.pi),
                    "--n", "601", "--out", str(out)]) == 0
        rows = read_csv_rows(out)
        late = [float(r["E_s2"]) for r in rows if float(r["t"]) > math.pi]
        assert max(late) <= 1e-9

    @pytest.mark.parametrize("flags", [["--preset", "qubit", "--g", "0.5"], ["--g", "0.5"]])
    def test_schedule_does_not_hide_parameter_flag_errors(self, tmp_path, capsys, flags):
        schedule = {"base": {"g": 0.5, "delta": 0.0, "f1": 1.0, "f2": 1.0},
                    "segments": [{"t_start": 0.0, "t_end": 1.0, "g": 0.5}]}
        sched_path = tmp_path / "s.json"
        sched_path.write_text(json.dumps(schedule))
        argv = ["evolve", "--schedule", str(sched_path), "--t-end", "1", "--n", "3"]
        assert run(argv) == 0
        capsys.readouterr()
        assert run(argv + flags) == 2
        assert capsys.readouterr().err.startswith("trichain: error:")

    @pytest.mark.parametrize("flags", [["--preset", "qubit"], ["--g", "0.25", "--delta", "0.1", "--f1", "0.8",
                                                              "--f2", "0.7"], ["--params", "{params}"]],
                             ids=["preset", "flags", "params"])
    def test_parameter_flags_win_over_the_schedule_base(self, tmp_path, flags):
        segments = [{"t_start": 0.0, "t_end": 1.0, "g": 0.5}, {"t_start": 1.0, "t_end": 2.0, "g": 0.0}]
        (tmp_path / "s.json").write_text(json.dumps(segments))
        (tmp_path / "with_base.json").write_text(json.dumps(
            {"base": {"g": 0.5, "delta": 0.0, "f1": 1.0, "f2": 1.0}, "segments": segments}))
        (tmp_path / "p.txt").write_text("g = 0.25\ndelta = 0.1\nf1 = 0.8\nf2 = 0.7\n")
        flags = [flag.format(params=tmp_path / "p.txt") for flag in flags]
        argv = ["evolve", *flags, "--t-end", "2", "--n", "9", "--schedule"]
        bare = outputs_of([*argv, str(tmp_path / "s.json")])
        assert bare[0] == 0 and outputs_of([*argv, str(tmp_path / "with_base.json")]) == bare

    @pytest.mark.parametrize("g", ["0.5", True, 10**400], ids=["str", "bool", "int beyond the float range"])
    def test_schedule_base_outside_the_floats_exits_2(self, tmp_path, capsys, g):
        schedule = {"base": {"g": g, "delta": 0.0, "f1": 1.0, "f2": 1.0},
                    "segments": [{"t_start": 0.0, "t_end": 1.0, "g": 0.5}]}
        sched_path = tmp_path / "s.json"
        sched_path.write_text(json.dumps(schedule))
        assert run(["evolve", "--schedule", str(sched_path), "--t-end", "1", "--n", "3"]) == 2
        assert capsys.readouterr().err.startswith("trichain: error: schedule base: g must be a finite real number")

    def test_infinite_t_end_prints_only_the_error(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["evolve", "--preset", "qubit", "--t-end", "inf", "--n", "3"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("trichain: error:") and err.count("\n") == 1

    def test_overflowing_phases_exit_2(self, capsys):
        # max|w| = 1e308 is finite, w*t at t = 2*pi is not.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["evolve", "--g", "0", "--delta", "1e308", "--f1", "1", "--f2", "1", "--format", "json"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("trichain: error:") and err.count("\n") == 1

    def test_json_format(self, capsys):
        assert run(["evolve", "--g", "0", "--delta", "0", "--f1", "1", "--f2", "1",
                    "--t-end", "1.0", "--n", "11", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data["times"]) == 11
        assert set(data["energies"]) == {"E_s1", "E_s2", "E_s3", "E_a1", "E_a2", "E_a3"}


class TestFiguresCommand:
    def test_outputs_and_determinism(self, tmp_path, capsys):
        first = tmp_path / "a"
        second = tmp_path / "b"
        assert run(["figures", "--outdir", str(first)]) == 0
        assert run(["figures", "--outdir", str(second)]) == 0
        for name in ("fig2.csv", "fig3.csv", "fig4.csv", "fig5.csv"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_reference_values(self, tmp_path):
        outdir = tmp_path / "figs"
        assert run(["figures", "--outdir", str(outdir)]) == 0

        fig3 = read_csv_rows(outdir / "fig3.csv")
        assert len(fig3) == 1000
        deltas = [float(r["delta"]) for r in fig3]
        assert all(d > 0.0 for d in deltas)

        fig4 = read_csv_rows(outdir / "fig4.csv")
        degenerate = [r for r in fig4 if r["degenerate"] == "true"]
        assert len(degenerate) == 1
        assert abs(float(degenerate[0]["param"]) - 0.56206631) <= 1e-7

        fig5 = read_csv_rows(outdir / "fig5.csv")
        row_pi = min(fig5, key=lambda r: abs(float(r["t"]) - math.pi))
        assert float(row_pi["E_x2_qubit"]) <= 1e-7
        assert float(row_pi["E_x2_qutrit"]) == pytest.approx(1.0 / 3.0, abs=1e-7)

    def test_unwritable_outdir_exits_1(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not a directory")
        assert run(["figures", "--outdir", str(blocker / "sub")]) == 1


class TestConfigFile:
    def test_config_supplies_defaults(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"g": 0.0, "delta": 0.0, "f1": 1.0, "f2": 1.0}))
        assert run(["spectrum", "--config", str(config)]) == 0
        row = capsys.readouterr().out.strip().split("\n")[1]
        assert row.split(",")[7] == "true"

    def test_explicit_flag_beats_config(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"g": 0.0, "delta": 0.0, "f1": 1.0, "f2": 1.0}))
        assert run(["spectrum", "--config", str(config), "--g", "1"]) == 0
        row = capsys.readouterr().out.strip().split("\n")[1]
        assert row.split(",")[7] == "false"

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"gg": 1.0}))
        assert run(["spectrum", "--config", str(config)]) == 2

    def test_config_not_json_exits_2(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text('{"g": 0.0,')
        assert run(["spectrum", "--config", str(config)]) == 2
        assert "trichain: error:" in capsys.readouterr().err

    @pytest.mark.parametrize("options", [{"n": "x"}, {"n": 2.5}, {"lo": True}, {"lo": [0]},
                                         {"out": 3}, {"format": "xml"}])
    def test_config_value_checked_like_its_flag(self, tmp_path, capsys, options):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"lo": 0, "hi": 1, "n": 3, "delta": 0, "f1": 1, "f2": 1} | options))
        assert run(["sweep", "--vary", "g", "--config", str(config)]) == 2
        assert "trichain: error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, options, expected", [
        (["spectrum", "--format", "csv"], {"format": "json"}, {"format": "csv"}),
        (["spectrum", "--degeneracy-tol", "0.5"], {"degeneracy_tol": 1e-3}, {"degeneracy_tol": 0.5}),
        (["evolve", "--n", "7", "--t-end", "2"], {"n": 5, "t_end": 1.0, "init": 3}, {"n": 7, "t_end": 2.0, "init": 3}),
        (["figures"], {"outdir": "data"}, {"outdir": "data"}),
    ])
    def test_config_defaults_lose_to_every_explicit_flag(self, tmp_path, monkeypatch, argv, options, expected):
        config = tmp_path / "run.json"
        config.write_text(json.dumps(options))
        seen = []
        monkeypatch.setattr(trichain.cli, f"cmd_{argv[0]}", lambda args: seen.append(args) or 0)
        assert run(argv + ["--config", str(config)]) == 0
        assert {key: getattr(seen[0], key) for key in expected} == expected

    def test_config_value_is_checked_when_a_flag_overrides_it(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"g": "x", "delta": 0, "f1": 1, "f2": 1}))
        assert run(["spectrum", "--config", str(config), "--g", "1"]) == 2
        assert "invalid value 'x'" in capsys.readouterr().err

    def test_config_string_for_typed_flag_accepted(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"lo": "0", "hi": 1, "n": 3, "delta": 0, "f1": 1, "f2": 1}))
        assert run(["sweep", "--vary", "g", "--config", str(config)]) == 0
        assert len(capsys.readouterr().out.strip().split("\n")) == 4


@pytest.mark.parametrize("argv", [
    ["spectrum", "--params", "{path}"],
    ["evolve", "--schedule", "{path}", "--t-end", "1", "--n", "3"],
    ["spectrum", "--config", "{path}"],
])
def test_non_utf8_input_file_exits_2(tmp_path, capsys, argv):
    path = tmp_path / "bin.cfg"
    path.write_bytes(b"\xff\xfe")
    assert run([arg.format(path=path) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("trichain: error:") and "UTF-8" in err


@pytest.mark.parametrize("argv", [
    ["spectrum", "--config", "{path}"],
    ["evolve", "--preset", "qubit", "--schedule", "{path}", "--t-end", "1", "--n", "3"],
], ids=["config", "schedule"])
def test_deeply_nested_json_file_exits_2(tmp_path, capsys, argv):
    # json's parser recurses per bracket and raises RecursionError, not ValueError.
    path = tmp_path / "deep.json"
    path.write_text("[" * 2000, encoding="utf-8")
    assert run([arg.format(path=path) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("trichain: error:") and err.count("\n") == 1


_FLAGS = ["--g", "0.5", "--delta", "0.3", "--f1", "0.8", "--f2", "0.9"]
_DYNAMICS = ["trichain.dynamics"]
_SWEEP = ["sweep", "--vary", "g", "--lo", "0", "--hi", "1", "--n", "3", "--delta", "0", "--f1", "1", "--f2", "1"]


_SCHEDULE_JSON = json.dumps([{"t_start": 0.0, "t_end": 2.0, "g": 0.7556142107},
                             {"t_start": 2.0, "t_end": 7.0, "g": 0.2}])

_STARTUP_CASES = [
    (None, None, []),
    (["spectrum", *_FLAGS], 0, []),
    (["spectrum", *_FLAGS, "--format", "json"], 0, []),
    (["spectrum", "--params", "p.txt"], 0, []),
    (["spectrum", "--comb", "A", "--g", "0.5"], 0, []),
    (["spectrum", "--preset", "qubit"], 0, []),
    (["spectrum", "--preset", "qubit", "--format", "json"], 0, []),
    (["comb", "--g", "0.5", "--branch", "A"], 0, []),
    (["energy", "--g", "0.5"], 0, []),
    (["energy", "--target", "0.3"], 0, []),
    ("trichain.identify_energy_branch()", None, []),
    (["spectrum", "--g", "0.5x", "--delta", "0", "--f1", "1", "--f2", "1"], 2, []),
    (["spectrum", "--params", "bad.txt"], 2, []),
    (["spectrum", "--comb", "A"], 2, []),
    (["comb", "--branch", "A"], 2, []),
    (_SWEEP, 0, []),
    (["sweep", "--vary", "g", "--lo", "0.5", "--hi", "1", "--n", "3", "--delta", "0", "--f1", "1", "--f2", "1",
      "--constraint", "A", "--format", "json"], 0, []),
    (["evolve", *_FLAGS, "--n", "3"], 0, _DYNAMICS),
    (["evolve", "--preset", "qubit"], 0, _DYNAMICS),
    (["evolve", "--preset", "qubit", "--schedule", "s.json", "--format", "json"], 0, _DYNAMICS),
    (["figures", "--outdir", "figs"], 0, _DYNAMICS),
    # The error exits of the array commands, each found by a different layer.
    (["sweep", "--vary", "g", "--lo", "-1", "--hi", "1", "--n", "3", "--delta", "0", "--f1", "1", "--f2", "1"],
     2, []),
    ([*_SWEEP, "--degeneracy-tol", "0"], 2, []),
    (["sweep", "--vary", "g", "--lo", "1.4e308", "--hi", "1.5e308", "--n", "3", "--delta", "0", "--f1", "1",
      "--f2", "1"], 2, []),
    (["evolve", *_FLAGS, "--t-end", "-1", "--n", "3"], 2, _DYNAMICS),
    (["evolve", "--g", "0", "--delta", "1e308", "--f1", "1", "--f2", "1"], 2, _DYNAMICS),
    (["evolve", "--preset", "qubit", "--schedule", "s.json", "--t-end", "9"], 2, _DYNAMICS),
]


@pytest.mark.parametrize("argv, exit_code, loaded", _STARTUP_CASES,
                         ids=[argv if isinstance(argv, str) else " ".join(argv) if argv else "import"
                              for argv, _, _ in _STARTUP_CASES])
def test_numpy_loads_only_where_arrays_are_made(tmp_path, argv, exit_code, loaded):
    # A fresh interpreter: the single-point commands and the energy-branch
    # warm-up run on math alone, and no command loads scipy or numpy.ma.  A
    # string case is a library statement, run after the import.
    (tmp_path / "p.txt").write_text("g = 0.5\ndelta = 0.3\nf1 = 0.8\nf2 = 0.9\n", encoding="utf-8")
    (tmp_path / "bad.txt").write_text("g = 0.5\ndelta = zero\nf1 = 1\nf2 = 1\n", encoding="utf-8")
    (tmp_path / "s.json").write_text(_SCHEDULE_JSON, encoding="utf-8")
    code = (
        "import contextlib, io, json, sys, trichain, trichain.cli\n"
        "code = None\n"
        "err = io.StringIO()\n"
        "argv = json.loads(sys.argv[1])\n"
        "if isinstance(argv, str):\n"
        "    exec(argv)\n"
        "elif argv is not None:\n"
        "    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):\n"
        "        try:\n"
        "            code = trichain.cli.main(argv)\n"
        "        except SystemExit as exc:\n"
        "            code = exc.code\n"
        "modules = ['numpy', 'numpy.ma', 'scipy', 'trichain.dynamics']\n"
        "print(json.dumps([code, [m for m in modules if m in sys.modules], err.getvalue()]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(trichain.__file__).parents[1]))
    result = subprocess.run([sys.executable, "-c", code, json.dumps(argv)], cwd=tmp_path, env=env,
                            capture_output=True, text=True, check=True)
    code, modules, err = json.loads(result.stdout)
    assert [code, modules] == [exit_code, loaded]
    if code == 2:  # one error line, after the usage where argparse refuses a flag
        *usage, last = err.splitlines()
        assert last.startswith("trichain") and ": error: " in last and not any(": error:" in x for x in usage)


def test_single_point_commands_load_no_dataclasses_typing_or_pathlib(tmp_path):
    # python -S: without the site hook, which may load typing or pathlib itself.
    # The steps share one interpreter, in order, so the first step that loads
    # a module is the one whose list shows it.
    steps = [
        None,
        "trichain.identify_energy_branch()",
        ["spectrum", *_FLAGS],
        ["spectrum", "--preset", "qubit"],
        ["comb", "--g", "0.5", "--branch", "A"],
        ["energy", "--g", "0.5"],
        ["energy", "--target", "0.3"],
    ]
    code = (
        "import io, json, sys, trichain.cli\n"
        "results = []\n"
        "for step in json.loads(sys.argv[1]):\n"
        "    code = None\n"
        "    if isinstance(step, str):\n"
        "        exec(step)\n"
        "    elif step is not None:\n"
        "        sys.stdout = io.StringIO()\n"
        "        code = trichain.cli.main(step)\n"
        "        sys.stdout = sys.__stdout__\n"
        "    modules = ['dataclasses', 'inspect', 'typing', 'pathlib']\n"
        "    results.append([code, [m for m in modules if m in sys.modules]])\n"
        "print(json.dumps(results))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(trichain.__file__).parents[1]))
    result = subprocess.run([sys.executable, "-S", "-c", code, json.dumps(steps)], cwd=tmp_path, env=env,
                            capture_output=True, text=True, check=True)
    assert json.loads(result.stdout) == [[None if step is None or isinstance(step, str) else 0, []]
                                         for step in steps]


def test_array_commands_load_no_numpy_dataclasses_typing_or_pathlib(tmp_path):
    # The sibling of the guard above for the commands that run grids point by point.
    (tmp_path / "s.json").write_text(_SCHEDULE_JSON, encoding="utf-8")
    steps = [
        _SWEEP,
        ["sweep", "--vary", "delta", "--lo", "-1", "--hi", "1", "--n", "9", "--g", "0.5", "--f1", "1", "--f2", "1",
         "--constraint", "B", "--format", "json"],
        ["evolve", *_FLAGS, "--n", "5"],
        ["evolve", "--preset", "qubit", "--schedule", "s.json", "--n", "5", "--format", "json"],
        ["figures", "--outdir", "figs"],
    ]
    code = (
        "import io, json, sys, trichain.cli\n"
        "results = []\n"
        "for step in json.loads(sys.argv[1]):\n"
        "    sys.stdout = io.StringIO()\n"
        "    code = trichain.cli.main(step)\n"
        "    sys.stdout = sys.__stdout__\n"
        "    modules = ['numpy', 'dataclasses', 'inspect', 'typing', 'pathlib']\n"
        "    results.append([code, [m for m in modules if m in sys.modules]])\n"
        "print(json.dumps(results))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(trichain.__file__).parents[1]))
    result = subprocess.run([sys.executable, "-S", "-c", code, json.dumps(steps)], cwd=tmp_path, env=env,
                            capture_output=True, text=True, check=True)
    assert json.loads(result.stdout) == [[0, []] for _ in steps]


class TestVerbosity:
    def test_quiet_by_default(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("TRICHAIN_VERBOSE", raising=False)
        out = tmp_path / "s.csv"
        run(["sweep", "--vary", "g", "--lo", "0", "--hi", "1", "--n", "3",
             "--delta", "0", "--f1", "1", "--f2", "1", "--out", str(out)])
        assert capsys.readouterr().err == ""

    def test_env_var_enables_progress(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("TRICHAIN_VERBOSE", "1")
        out = tmp_path / "s.csv"
        run(["sweep", "--vary", "g", "--lo", "0", "--hi", "1", "--n", "3",
             "--delta", "0", "--f1", "1", "--f2", "1", "--out", str(out)])
        err = capsys.readouterr().err
        assert "sweeping" in err and "wrote" in err


@pytest.mark.parametrize("argv, defaults", [
    (["spectrum"], {"format": "csv", "degeneracy_tol": DEFAULT_DEGENERACY_TOL, "out": None, "config": None}),
    (["sweep", "--vary", "g"], {"format": "csv", "degeneracy_tol": DEFAULT_DEGENERACY_TOL, "n": None}),
    (["evolve"], {"format": "csv", "t_end": 2.0 * math.pi, "n": 2001, "init": 2, "schedule": None}),
    (["figures"], {"outdir": "."}),
])
def test_option_defaults(argv, defaults):
    args = build_parser().parse_args(argv)
    assert {key: getattr(args, key) for key in defaults} == defaults


# The `spectrum` and `evolve` outputs as the commands built them inline,
# field by field, kept as references for the records that now own them.

def reference_nonequidistance(spectrum):
    """Non-equidistance error, or None for a degenerate cluster or w1 <= tol."""
    w1, w2, w3 = spectrum.positive
    if spectrum.degenerate or w1 <= spectrum.degeneracy_tol:
        return None
    return abs(w2 / w1 - 3.0) + abs(w3 / w1 - 5.0)


def reference_spectrum_output(params, tol, fmt):
    spectrum = eigenfrequencies(params, tol)
    delta_err = reference_nonequidistance(spectrum)
    report = degeneracy_discriminant(params)
    if fmt == "json":
        payload = {
            "frequencies": list(spectrum.frequencies),
            "delta": delta_err,
            "degenerate": delta_err is None,
            "discriminant": report.discriminant,
            "zero_frequency_pair": report.zero_frequency_pair,
            "clusters": [[value, mult] for value, mult in spectrum.clusters],
        }
        return json.dumps(payload, indent=2) + "\n"
    row = ",".join(
        [format(w, ".12g") for w in spectrum.frequencies]
        + ["" if delta_err is None else format(delta_err, ".12g")]
        + ["true" if delta_err is None else "false"]
        + [format(report.discriminant, ".12g")]
        + ["true" if report.zero_frequency_pair else "false"]
    )
    return "w1,w2,w3,w4,w5,w6,delta,degenerate,discriminant,zero_frequency_pair\n" + row + "\n"


def reference_evolve_json(trajectory):
    table = energies(trajectory)
    payload = {
        "times": [float(x) for x in table[:, 0]],
        "energies": {
            label: [float(x) for x in table[:, k + 1]]
            for k, label in enumerate(("E_s1", "E_s2", "E_s3", "E_a1", "E_a2", "E_a3"))
        },
    }
    return json.dumps(payload, indent=2) + "\n"


def outputs_of(argv):
    """Exit code, stdout and stderr of the command line ``argv``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def stdout_of(argv):
    code, out, err = outputs_of(argv)
    assert (code, err) == (0, ""), err
    return out


def param_flags(params):
    return [f"--{name}={getattr(params, name)!r}" for name in ("g", "delta", "f1", "f2")]


coupling = st.floats(min_value=0.0, max_value=2.0)
random_point = st.builds(SystemParams, g=coupling, delta=st.floats(min_value=-2.0, max_value=2.0), f1=coupling,
                         f2=coupling)
resonant_point = st.floats(min_value=1e-3, max_value=10.0).map(lambda k: SystemParams(g=0.0, delta=0.0, f1=k, f2=k))
zero_pair_point = st.builds(lambda g, f1, f2, sign: SystemParams(g=g, delta=sign * f2, f1=f1, f2=f2),
                            coupling, coupling, coupling, st.sampled_from([-1.0, 1.0]))
comb_point = st.builds(lambda g, branch: solve_comb_params(g, branch).params,
                       st.floats(min_value=1e-6, max_value=1.0), st.sampled_from("AB"))


class TestRecordsMatchTheInlineBuilders:
    @settings(max_examples=150, deadline=None)
    @given(params=st.one_of(random_point, resonant_point, zero_pair_point, comb_point),
           tol=st.sampled_from([None, 1e-3, 0.3]))
    def test_spectrum_record(self, params, tol):
        flags = [] if tol is None else ["--degeneracy-tol", repr(tol)]
        tol = DEFAULT_DEGENERACY_TOL if tol is None else tol
        for fmt in ("csv", "json"):
            try:
                expected = 0, reference_spectrum_output(params, tol, fmt), ""
            except TrichainError as exc:  # the error line is the same too
                expected = 2, "", f"trichain: error: {exc}\n"
            assert outputs_of(["spectrum", *param_flags(params), *flags, "--format", fmt]) == expected
        if expected[0] != 0:
            return
        record = _spectrum_record(params, tol)
        row = sweep_spectrum_values(params, "g", [params.g], None, tol)[0]
        assert (record["frequencies"], record["delta"], record["degenerate"]) == (
            list(row.frequencies), row.delta_err, row.degenerate)

    @settings(max_examples=40, deadline=None)
    @given(params=st.one_of(random_point, comb_point), t_end=st.floats(min_value=0.0, max_value=20.0),
           n=st.integers(min_value=2, max_value=30), init=st.integers(min_value=1, max_value=6))
    @example(params=SystemParams(0.5, 0.3, 0.8, 0.9), t_end=0.0, n=3, init=2)  # --t-end 0 is a valid window
    def test_evolve_json(self, params, t_end, n, init):
        argv = ["evolve", *param_flags(params), f"--t-end={t_end!r}", "--n", str(n), "--init", str(init)]
        trajectory = evolve_spectral(params, initial_state(init), np.linspace(0.0, t_end, n))
        assert stdout_of(argv + ["--format", "json"]) == reference_evolve_json(trajectory)


    @settings(max_examples=30, deadline=None)
    @given(base=st.one_of(random_point, comb_point), bounds=st.lists(st.floats(min_value=0.05, max_value=3.0),
                                                                     min_size=0, max_size=3, unique=True),
           g=st.lists(coupling, min_size=4, max_size=4), t_end=st.floats(min_value=0.0, max_value=20.0),
           n=st.integers(min_value=2, max_value=30), init=st.integers(min_value=1, max_value=6))
    def test_evolve_schedule_json(self, base, bounds, g, t_end, n, init):
        # Segments from 0 at the drawn bounds; the last ends after t_end.
        ends = [*sorted(bounds), max([*bounds, t_end]) + 0.5]
        segments = [{"t_start": a, "t_end": b, "g": x} for a, b, x in zip([0.0, *ends], ends, g)]
        with tempfile.TemporaryDirectory() as work:
            path = os.path.join(work, "schedule.json")
            with open(path, "w", encoding="utf-8") as stream:
                json.dump(segments, stream)
            argv = ["evolve", *param_flags(base), "--schedule", path, f"--t-end={t_end!r}", "--n", str(n),
                    "--init", str(init), "--format", "json"]
            schedule = trichain.schedule_from_json(json.dumps(segments), base)
            try:
                expected = 0, reference_evolve_json(
                    trichain.evolve_schedule(schedule, initial_state(init), np.linspace(0.0, t_end, n))), ""
            except TrichainError as exc:
                expected = 2, "", f"trichain: error: {exc}\n"
            assert outputs_of(argv) == expected


# `trichain sweep` runs its points one at a time on floats, `sweep_spectrum`
# as one batch on arrays: the same rows and bytes, or the same error.

def _scaled_point(params, k):
    return SystemParams(*(math.ldexp(x, k) for x in params[:4]))


@st.composite
def _sweeps(draw):
    constraint = draw(st.sampled_from([None, None, "A", "B"]))
    base = draw(comb_point if constraint else st.one_of(
        random_point, resonant_point, zero_pair_point, comb_point, random_point.map(lambda p: p.replace(f1=0.0))))
    vary = draw(st.sampled_from(["g", "delta"] if constraint else ["g", "delta", "f1", "f2"]))
    lo = draw(st.floats(min_value=1e-3, max_value=1.0) if constraint and vary == "g" else st.floats(-2.0, 2.0))
    hi = lo + draw(st.floats(min_value=1e-3, max_value=1.5))  # with a constraint, g may leave (0, 1] mid-grid
    special = draw(st.sampled_from([None, None, "zero", "mirror"]))
    if special == "zero" and vary != "delta" and not constraint:  # the resonant g = 0, or f1 = 0, is the first point
        lo = 0.0
    elif special == "mirror" and vary == "delta" and base.f2 > 0.0:  # delta = -f2 and +f2 end the grid
        lo, hi = -base.f2, base.f2
    k = 0 if constraint else draw(st.sampled_from([0, 0, -30, 17, 200, -500]))
    base, lo, hi = _scaled_point(base, k), math.ldexp(lo, k), math.ldexp(hi, k)
    return base, vary, lo, hi, draw(st.integers(min_value=2, max_value=60)), constraint, \
        draw(st.sampled_from([DEFAULT_DEGENERACY_TOL, 1e-3, 0.3]))


def _outcome(call):
    try:
        return call()
    except TrichainError as exc:
        return type(exc), str(exc)


@settings(max_examples=120, deadline=None)
@given(case=_sweeps())
@example(case=(SystemParams(g=0.0, delta=0.0, f1=1.0, f2=1.0), "g", 1.4e308, 1.5e308, 5, None,
               DEFAULT_DEGENERACY_TOL))  # the top frequency overflows
@example(case=(SystemParams(g=0.0, delta=0.0, f1=1.0, f2=1.0), "g", -1.0, 1.0, 5, None, DEFAULT_DEGENERACY_TOL))
@example(case=(SystemParams(g=0.5, delta=0.9, f1=1.0, f2=0.9), "delta", -0.9, 0.9, 3, "A", DEFAULT_DEGENERACY_TOL))
@example(case=(SystemParams(g=0.7556142107, delta=0.0, f1=1.0, f2=1.0), "g", 0.5, 1.5, 11, "B",
               DEFAULT_DEGENERACY_TOL))
def test_sweep_command_matches_sweep_spectrum(case):
    base, vary, lo, hi, n, constraint, tol = case
    batched = _outcome(lambda: trichain.sweep_spectrum(
        base, vary, lo, hi, n, constraint and trichain.branch_constraint(constraint), tol))
    per_point = _outcome(lambda: _sweep_points(
        base, vary, _grid(lo, hi, n, _linspace), constraint and trichain.branch_constraint(constraint), tol))
    assert per_point == (batched if isinstance(batched, tuple) else list(batched))  # rows, or the same error
    argv = ["sweep", *param_flags(base), "--vary", vary, f"--lo={lo!r}", f"--hi={hi!r}", "--n", str(n),
            "--degeneracy-tol", repr(tol), *(["--constraint", constraint] if constraint else [])]
    for fmt in ("csv", "json"):
        if isinstance(batched, tuple):
            expected = 2, "", f"trichain: error: {batched[1]}\n"
        elif fmt == "csv":
            expected = 0, trichain.sweep_rows_to_csv(batched), ""
        else:
            expected = 0, json.dumps([row.to_json_dict() for row in batched], indent=2) + "\n", ""
        assert outputs_of([*argv, "--format", fmt]) == expected


# Both sweep routes check in one order: vary, degeneracy_tol, the values, the
# constraint over every point, the constrained points, the spectra.  Explicit
# value lists may be unsorted or empty, and hold values of any type.

def _spoiling(name, bad):
    """A user constraint that sets ``name`` to ``bad`` where g > 1, on floats and on arrays alike."""
    k = ("g", "delta", "f1", "f2").index(name)

    def constraint(*columns):
        columns = list(columns)
        columns[k] = _xp(columns[0]).where(columns[0] > 1.0, bad, columns[k])
        return columns
    return constraint


_NEGATIVE_F1, _NAN_F2 = _spoiling("f1", -1.0), _spoiling("f2", math.nan)


@st.composite
def _value_sweeps(draw):
    constraint = draw(st.sampled_from([None, "A", "B", _NEGATIVE_F1, _NAN_F2]))
    base = draw(st.one_of(random_point, resonant_point, zero_pair_point, comb_point))
    vary = draw(st.sampled_from(["g", "delta", "f1", "f2", "omega0"]))
    value = st.one_of(st.floats(-0.5, 2.0), st.sampled_from([0.0, 1.0, 1.5, -0.2, math.nan, math.inf, base.f2,
                                                             -base.f2, 2, True, "0.5", None, 1j]))
    values = draw(st.lists(value, max_size=12))
    tol = draw(st.sampled_from([DEFAULT_DEGENERACY_TOL, DEFAULT_DEGENERACY_TOL, 0.3, 0.0, -1.0, math.nan, True]))
    return base, vary, values, constraint, tol


def _rows_or_error(sweep, base, vary, values, constraint, tol):
    """The CSV and JSON bytes of the rows and their frequencies' bits, or the error's class and message."""
    try:
        if isinstance(constraint, str):
            constraint = trichain.branch_constraint(constraint)
        rows = sweep(base, vary, values, constraint, tol)
    except TrichainError as exc:
        return type(exc), str(exc)
    return (trichain.sweep_rows_to_csv(rows), json.dumps([row.to_json_dict() for row in rows]),
            [float.hex(w) for row in rows for w in row.frequencies])


@settings(max_examples=200, deadline=None)
@given(case=_value_sweeps())
@example(case=(SystemParams(0.5, 0.3, 1.0, 1.0), "g", [1.5, -0.2], "A", DEFAULT_DEGENERACY_TOL))
@example(case=(SystemParams(0.5, 0.3, 1.0, 1.0), "g", [], None, -1.0))
@example(case=(SystemParams(0.5, 0.3, 1.0, 1.0), "g", [0.9, 0.2, 0.5], "B", DEFAULT_DEGENERACY_TOL))
@example(case=(SystemParams(0.5, 0.3, 1.0, 1.0), "g", [0.2, 1.5, 0.5], _NEGATIVE_F1, DEFAULT_DEGENERACY_TOL))
@example(case=(SystemParams(0.5, 0.3, 1.0, 1.0), "g", [0.2, 1.5, 0.5], _NAN_F2, DEFAULT_DEGENERACY_TOL))
def test_sweep_values_match_point_by_point(case):
    assert _rows_or_error(_sweep_points, *case) == _rows_or_error(sweep_spectrum_values, *case)


@pytest.mark.parametrize("constraint, error", [(_NEGATIVE_F1, "coupling f1 must be non-negative, got -1.0"),
                                               (_NAN_F2, "f2 must be a finite real number, got nan")])
def test_a_user_constraint_that_spoils_an_interior_point_raises_its_error(constraint, error):
    case = SystemParams(0.5, 0.3, 1.0, 1.0), "g", [0.2, 1.5, 0.5], constraint, DEFAULT_DEGENERACY_TOL
    assert _rows_or_error(sweep_spectrum_values, *case) == (trichain.InvalidParameterError, error)


# Usage errors that the CLI finds itself, each one error line naming what is wrong;
# {path} is a config file holding a JSON list.
_USAGE_ERRORS = {
    "negative-t-end": (["evolve", "--preset", "qubit", "--t-end", "-1", "--n", "3"],
                       "--t-end must be finite and non-negative, got -1.0"),
    "config-list": (["spectrum", "--config", "{path}"], "config {path} must contain a JSON object"),
    "comb-flag-without-g": (["spectrum", "--comb", "A"], "--comb requires --g"),
    "comb-command-without-g": (["comb", "--branch", "A"], "comb requires --g"),
    "comb-flag-with-derived-flag": (["spectrum", "--comb", "A", "--g", "0.5", "--f1", "1"],
                                    "--comb derives delta, f1, f2; drop those flags"),
    "evolve-n-1": (["evolve", "--preset", "qubit", "--n", "1"], "--n must be at least 2"),
    "sweep-without-lo": (["sweep", "--vary", "g", "--hi", "1", "--n", "3", "--delta", "0", "--f1", "1", "--f2", "1"],
                         "sweep requires --lo, --hi and --n"),
    "sweep-without-hi": (["sweep", "--vary", "g", "--lo", "0", "--n", "3", "--delta", "0", "--f1", "1", "--f2", "1"],
                         "sweep requires --lo, --hi and --n"),
    "sweep-without-n": (_SWEEP_ARGV, "sweep requires --lo, --hi and --n"),
}


@pytest.mark.parametrize("case", list(_USAGE_ERRORS))
def test_usage_error_is_one_line_naming_the_flag(tmp_path, capsys, case):
    argv, message = _USAGE_ERRORS[case]
    path = tmp_path / "list.json"
    path.write_text("[1, 2]", encoding="utf-8")
    assert run([arg.format(path=path) for arg in argv]) == 2
    assert capsys.readouterr() == ("", f"trichain: error: {message.format(path=path)}\n")


@pytest.mark.parametrize("argv", [
    ["spectrum"],
    ["sweep", "--vary", "g", "--lo", "1e-5", "--hi", "1e-3", "--n", "5"],
    ["evolve", "--n", "5"],
])
def test_rotation_whose_tangent_underflows_exits_0(argv):
    # The tangent's 4 gamma^2 underflowed to 0 here: a ZeroDivisionError traceback.
    code, out, err = outputs_of([*argv, "--g", "1e-5", "--delta", "0", "--f1", "1", "--f2", "1e-79"])
    assert (code, err) == (0, "") and out


def reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@pytest.mark.parametrize("argv", [
    ["spectrum", "--g", "0", "--delta", "0", "--f1", "1", "--f2", "1", "--format", "json"],
    ["spectrum", "--g", "0", "--delta", "1", "--f1", "1", "--f2", "1", "--format", "json"],
    ["spectrum", "--g", "0.5", "--delta", "0.3", "--f1", "0", "--f2", "0.9", "--format", "json"],
    ["spectrum", "--preset", "qubit", "--format", "json"],
    ["spectrum", "--g", "1e25", "--delta", "0", "--f1", "1e-25", "--f2", "1e-25", "--format", "json"],
    ["sweep", "--vary", "g", "--lo", "0", "--hi", "3", "--n", "7", "--delta", "0", "--f1", "1", "--f2", "1",
     "--format", "json"],
    ["sweep", "--vary", "delta", "--lo", "0", "--hi", "2", "--n", "5", "--g", "0.7556142107", "--f1", "1",
     "--f2", "1", "--constraint", "A", "--format", "json"],
    ["comb", "--g", "0.4531870484", "--branch", "A"],
    ["comb", "--g", "1", "--branch", "B"],
    ["energy", "--target", "0"],
    ["energy", "--target", "1"],
    ["energy", "--g", "1"],
    ["evolve", "--preset", "qubit", "--n", "5", "--format", "json"],
    ["evolve", "--g", "0", "--delta", "0", "--f1", "0", "--f2", "0", "--n", "3", "--format", "json"],
])
def test_json_output_is_strict(argv):
    json.loads(stdout_of(argv), parse_constant=reject_constant)


# The exit-code contract as a property over argv drawn from the parser's own
# options.  Most draws give every option a valid value, the others give one
# option a special float or any text, so that a fair share exits 0.
# Input files are raw bytes, recursive JSON or a well-formed file of drawn
# values.  --help and --version, which print prose and exit 0, are not
# drawn; every path written to lies under tmp_path, so no call fails on I/O,
# which is exit 1.

_SPECIAL = {
    float: ["0", "-0", "5e-324", "-5e-324", "2.2250738585072014e-308", "1e308", "-1e308",
            "nan", "-nan", "inf", "-inf", "1e400"],
    int: ["-2", "0", "1", "5001", "10000000000000"],
}
_INPUT_DESTS = ("config", "schedule", "params")
_PATH_DESTS = ("out", "outdir", *_INPUT_DESTS)
_USUAL_DESTS = ("g", "delta", "f1", "f2", "vary", "lo", "hi", "n", "branch")  # the others are drawn less often
_text = st.text(max_size=8)
_json_leaves = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
_json = st.recursive(_json_leaves, lambda inner: st.lists(inner, max_size=4)
                     | st.dictionaries(st.text(max_size=6), inner, max_size=4), max_leaves=12)
# A third of the valid floats are tiny but not zero, down to the subnormals, where
# products of parameters underflow.
_coupling = st.one_of(st.floats(0.0, 1.0), st.floats(0.0, 1.0),
                      st.builds(math.ldexp, st.floats(0.5, 1.0), st.integers(-1074, -1)))


def _value(action, bad):
    """The text of a value for ``action``: valid for its choices or type, or, if ``bad``, special or any."""
    if bad:
        return st.sampled_from(_SPECIAL.get(action.type, _SPECIAL[float])) | _text
    if action.choices is not None:
        return st.sampled_from(sorted(action.choices))
    if action.type is float:
        return _coupling.map(repr)
    if action.type is int:
        return (st.integers(1, 6) | st.integers(2, 600)).map(str)
    return _text


def _file(dest, actions, paths):
    """Content for the input file of option ``dest``."""
    if dest == "config":  # it names no input file, which might not exist
        values = {a.dest: st.just(paths[a.dest]) if a.dest in _PATH_DESTS else _value(a, False) | _json_leaves
                  for a in actions if a.dest not in _INPUT_DESTS}
        well_formed = st.lists(st.sampled_from(sorted(values)), unique=True).flatmap(
            lambda keys: st.fixed_dictionaries({key: values[key] for key in keys})).map(json.dumps)
    elif dest == "schedule":
        segment = st.fixed_dictionaries({"t_start": st.just(0.0), "t_end": st.floats(0.0, 10.0), "g": _coupling})
        base = st.fixed_dictionaries({key: _coupling for key in ("g", "delta", "f1", "f2")})
        well_formed = st.fixed_dictionaries({"base": base, "segments": st.lists(segment, max_size=2)}).map(json.dumps)
    else:
        well_formed = st.dictionaries(st.sampled_from(["g", "delta", "f1", "f2", "omega0"]), _coupling).map(
            lambda values: "".join(f"{key} = {value!r}\n" for key, value in values.items()))
    return st.one_of(st.binary(max_size=40), _json.map(json.dumps), well_formed)


def _subcommands():
    return next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices


def _mostly(usual, rare):
    """``usual`` about seven times in ten, else ``rare``."""
    return st.integers(0, 9).flatmap(lambda k: usual if k < 7 else rare)


def _run_in_contract(argv, capsys):
    """Exit code, stdout and stderr of ``main(argv)``, which exits 0, or 2 with one error line and no output."""
    capsys.readouterr()
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse's usage errors
        code = exc.code
    out, err = capsys.readouterr()
    assert code in (0, 2)
    if code == 2:
        assert out == ""
        error_lines = [line for line in err.split("\n") if ": error: " in line]
        assert len(error_lines) == 1 and err.endswith(error_lines[0] + "\n")
        assert not err.startswith("trichain: error:") or err.count("\n") == 1
    return code, out, err


def _csv_is_rectangular(text):
    header, *rows, last = text.split("\n")
    return last == "" and len(rows) > 0 and all(row.count(",") == header.count(",") for row in rows)


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_every_argv_exits_0_or_2_with_parsable_output(tmp_path, capsys, monkeypatch, data):
    monkeypatch.delenv("TRICHAIN_VERBOSE", raising=False)
    work = tempfile.mkdtemp(dir=tmp_path)  # one per call: no file is left from the last
    monkeypatch.chdir(work)
    paths = {dest: os.path.join(work, dest) for dest in _PATH_DESTS}
    commands = _subcommands()
    junk = _text.filter(lambda text: not text.startswith("-"))  # not --help or --version
    name = data.draw(_mostly(st.sampled_from(sorted(commands)), junk), label="command")
    argv = [name]
    if name in commands:
        actions = [a for a in commands[name]._actions if a.option_strings and a.dest != "help"]
        bad = data.draw(_mostly(st.none(), st.sampled_from([a.dest for a in actions])), label="bad option")
        for action in actions:
            if action.dest != bad and data.draw(st.integers(0, 9)) >= (9 if action.dest in _USUAL_DESTS else 1):
                continue
            value = paths.get(action.dest) or data.draw(_value(action, action.dest == bad), label=action.dest)
            argv += [action.option_strings[0], value]
            if action.dest in _INPUT_DESTS:
                content = data.draw(_file(action.dest, actions, paths), label=action.dest + " file")
                with open(value, "wb") as stream:
                    stream.write(content if isinstance(content, bytes) else content.encode("utf-8"))
    if name == "sweep":  # also with each of its required flags dropped in turn
        for k in range(1, len(argv), 2):
            if argv[k] in ("--lo", "--hi", "--n"):
                _run_in_contract(argv[:k] + argv[k + 2:], capsys)
    code, out, err = _run_in_contract(argv, capsys)
    if code == 2:
        return
    assert err == ""
    if name == "figures":
        outdir = out.removeprefix("wrote fig2.csv fig3.csv fig4.csv fig5.csv to ").removesuffix("\n")
        assert outdir in (".", paths["outdir"])
        for figure in ("fig2.csv", "fig3.csv", "fig4.csv", "fig5.csv"):
            assert _csv_is_rectangular(Path(outdir, figure).read_text(encoding="utf-8"))
        return
    text = out or Path(paths["out"]).read_text(encoding="utf-8")
    if text.startswith(("{", "[")):
        json.loads(text, parse_constant=reject_constant)
    else:
        assert _csv_is_rectangular(text)
