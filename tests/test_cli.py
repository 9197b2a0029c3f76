import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import trichain
from trichain.cli import main


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

    def test_constraint_option(self, tmp_path):
        out = tmp_path / "sweep.json"
        assert run(["sweep", "--vary", "delta", "--lo", "0.3", "--hi", "0.8", "--n", "3",
                    "--g", "0.7556142107", "--f1", "1", "--f2", "1",
                    "--constraint", "A", "--format", "json", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert len(data) == 3
        assert all(not row["degenerate"] for row in data)

    @pytest.mark.parametrize("vary", ["f1", "f2"])
    def test_constraint_cannot_sweep_a_derived_coupling(self, vary, capsys):
        assert run(["sweep", "--vary", vary, "--lo", "0.1", "--hi", "2", "--n", "3",
                    "--g", "0.5", "--delta", "0.3", "--f1", "1", "--f2", "1", "--constraint", "A"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("trichain: error:")

    def test_missing_range_exits_2(self):
        assert run(["sweep", "--vary", "g", "--delta", "0", "--f1", "1", "--f2", "1"]) == 2


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

    def test_infinite_t_end_prints_only_the_error(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["evolve", "--preset", "qubit", "--t-end", "inf", "--n", "3"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("trichain: error:") and err.count("\n") == 1

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


def test_import_does_not_load_scipy():
    code = "import sys, trichain.cli; print('scipy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(trichain.__file__).parents[1]))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "False"


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
