import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import trichain

# The public names, grouped by the module that defines them.
PUBLIC = {
    "errors": [
        "TrichainError", "InvalidParameterError", "DomainError", "DegenerateSpectrumError", "PoleError",
        "ConsistencyError", "AccuracyError", "ScheduleError",
    ],
    "model": [
        "N_MODES", "SystemParams", "build_coupling_matrix", "initial_state", "spectral_mirror_operator",
        "params_to_config", "params_from_config",
    ],
    "spectrum": [
        "DEFAULT_DEGENERACY_TOL", "CharPoly", "Spectrum", "DegeneracyReport", "SweepRow", "SweepTable", "char_poly",
        "frequencies_from_charpoly", "eigenfrequencies", "nonequidistance_error", "degeneracy_discriminant",
        "s2_response", "inverse_laplace_s2", "sweep_spectrum", "sweep_spectrum_values", "sweep_rows_to_csv",
    ],
    "comb": [
        "BRANCHES", "QUBIT_COUPLING", "QUTRIT_COUPLING", "CombSolution", "EnergyProgram", "comb_constraints",
        "solve_comb_params", "branch_constraint", "energy_at_pi", "solve_g_for_energy", "scale_comb",
        "identify_energy_branch",
    ],
    "dynamics": [
        "Trajectory", "Schedule", "Segment", "evolve_spectral", "evolve_rk4", "evolve_schedule", "propagator",
        "schedule_from_json", "energies", "energies_to_csv", "plateau_width",
    ],
}
DEFINED_IN = {name: module for module, names in PUBLIC.items() for name in names}


def _readme_python_blocks() -> list[str]:
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    return re.findall(r"^```python\n(.*?)^```$", readme, re.MULTILINE | re.DOTALL)


def test_readme_quick_start_runs_as_its_comments_say(capsys):
    namespace = {}
    exec(_readme_python_blocks()[0], namespace)
    assert namespace["branch"] == "B"
    assert namespace["table"][1000][0] == pytest.approx(3.141592653589793)
    assert namespace["table"][1000][2] <= 1e-7  # the central atom is empty at t = pi
    g_solutions = ast.literal_eval(capsys.readouterr().out.splitlines()[-1])
    assert g_solutions[0] == pytest.approx(0.585407, abs=5e-7) and g_solutions[1] == 1.0


def test_readme_sweep_example_runs():
    namespace = {}
    exec(_readme_python_blocks()[1], namespace)
    assert len(namespace["rows"]) == 2000
    assert namespace["fixed_ratio"](0.5, 0.3, 1.0, 1.0) == (0.5, 0.3, 1.0, 0.5)


def test_all_is_pinned():
    assert trichain.__all__ == ["__version__", *DEFINED_IN]


@pytest.mark.parametrize("module", ["errors", "model", "spectrum", "comb"])
def test_each_module_declares_its_public_names(module):
    assert importlib.import_module("trichain." + module).__all__ == PUBLIC[module]


def test_dynamics_names_are_declared_once_in_the_package():
    # dynamics loads lazily, so the package lists its names, and dynamics declares no __all__.
    assert list(trichain._DYNAMICS) == PUBLIC["dynamics"]
    assert not hasattr(importlib.import_module("trichain.dynamics"), "__all__")


def test_names_resolve_lazily_to_their_defining_objects():
    # A fresh interpreter, so that nothing has touched trichain.dynamics yet.
    code = (
        "import importlib, json, sys, types, trichain\n"
        "defined_in = json.loads(sys.argv[1])\n"
        "before = sorted(set(defined_in) - set(vars(trichain))), 'numpy' in sys.modules\n"
        "same = [getattr(trichain, name) is getattr(importlib.import_module('trichain.' + module), name)\n"
        "        for name, module in defined_in.items()]\n"
        "after = sorted(set(defined_in) - set(vars(trichain)))\n"
        "import numpy\n"
        "print(json.dumps([before, all(same), after, type(numpy) is types.ModuleType]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(trichain.__file__).parents[1]))
    result = subprocess.run([sys.executable, "-c", code, json.dumps(DEFINED_IN)], env=env,
                            capture_output=True, text=True, check=True)
    before, same, after, plain_numpy = json.loads(result.stdout)
    assert before == [sorted(PUBLIC["dynamics"]), False]
    assert same and after == [] and plain_numpy


def test_dir_and_star_import_cover_every_name():
    assert set(trichain.__all__) <= set(dir(trichain))
    namespace = {}
    exec("from trichain import *", namespace)
    for name in trichain.__all__:
        assert namespace[name] is getattr(trichain, name)


def test_dynamics_imports_as_a_submodule():
    dynamics = importlib.import_module("trichain.dynamics")
    assert trichain.dynamics is dynamics is sys.modules["trichain.dynamics"]
    assert trichain.evolve_spectral is dynamics.evolve_spectral


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'evolve'"):
        trichain.evolve
    assert not hasattr(trichain, "numpy")


def _imports(node, guarded=False):
    """(module, line, guarded) for every absolute import under ``node``, where
    ``guarded`` says it sits in the body of an ``if TYPE_CHECKING:``."""
    if isinstance(node, ast.Import):
        for alias in node.names:
            yield alias.name, node.lineno, guarded
    elif isinstance(node, ast.ImportFrom):
        if node.level == 0:
            yield node.module, node.lineno, guarded
    elif isinstance(node, ast.If) and "TYPE_CHECKING" in (getattr(node.test, "id", None),
                                                          getattr(node.test, "attr", None)):
        for child in node.body:
            yield from _imports(child, True)
        for child in node.orelse:
            yield from _imports(child, guarded)
    else:
        for child in ast.iter_child_nodes(node):
            yield from _imports(child, guarded)


def test_no_module_imports_dataclasses_or_typing_at_run_time():
    # Both cost start-up (dataclasses pulls in inspect); this fails without a subprocess.
    offenders = []
    for path in sorted(Path(trichain.__file__).parent.glob("*.py")):
        for module, line, guarded in _imports(ast.parse(path.read_text(encoding="utf-8"))):
            root = module.split(".")[0]
            if root == "dataclasses" or (root == "typing" and not guarded):
                offenders.append(f"{path.name}:{line}: {module}")
    assert offenders == []


def test_spectrum_kernels_do_not_branch_on_float_against_array():
    # One body per kernel, for a point and a grid alike, through model._xp.
    tree = ast.parse((Path(trichain.__file__).parent / "spectrum.py").read_text(encoding="utf-8"))
    names = {getattr(node, "id", None) or getattr(node, "attr", None) for node in ast.walk(tree)}
    names |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert "_is_array" not in names


def test_no_module_calls_a_dense_eigensolver():
    # One spectral kernel: eigenfrequencies, the sweeps and the dynamics all run spectrum._jacobi.
    offenders = []
    for path in sorted(Path(trichain.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = {getattr(node, "id", None) or getattr(node, "attr", None) for node in ast.walk(tree)}
        names |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}
        offenders += [f"{path.name}: {name}" for name in sorted(names & {"eigh", "eigvalsh"})]
    assert offenders == []
