import json
import os
import shutil
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import gptlab
from gptlab.cli import main
from gptlab.linalg import KET_0, KET_1, KET_MINUS, KET_PLUS, SQRT2, phi_pr
from gptlab.presets import scenario_to_json
from gptlab.serialize import dump_text
from gptlab.spaces import square_effect_operators
from gptlab.switch import LabAOp, LabMeasurement, SwitchScenario

QUANTUM_TOTAL = 1.0 + (2.0 + SQRT2) / 4.0


def schema(name: str) -> dict:
    text = resources.files("gptlab.schemas").joinpath(f"{name}.json").read_text()
    return json.loads(text)


def run_json(capsys, argv, name):
    assert main(argv + ["--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    jsonschema.validate(payload, schema(name))
    return payload


def unphysical_scenario_file(path) -> str:
    xmeas = LabMeasurement(np.array([[KET_PLUS, KET_MINUS]] * 2))
    comp = np.array([KET_0, KET_1])
    scn = SwitchScenario(label="unphysical", control_basis=comp, shared=phi_pr(),
                         target_init=KET_0, lab_a1=LabAOp(measure=comp, prepare=comp),
                         lab_a2=LabAOp(measure=comp, prepare=comp),
                         lab_c=xmeas, lab_b=xmeas)
    target = path / "unphysical.json"
    target.write_text(dump_text(scenario_to_json(scn)), encoding="utf-8")
    return str(target)


# ----------------------------------------------------------------------
# happy paths, JSON contract


def test_enumerate_json(capsys):
    payload = run_json(capsys, ["enumerate", "--space", "hex"], "enumerate")
    assert len(payload["inequalities"]) == 20
    assert len(payload["vertices"]) == 14
    assert payload["diff"] == {"missing": [], "extra": []}
    assert [f["count"] for f in payload["families"]] == [2, 4, 8]


def test_superposition_json(capsys):
    payload = run_json(capsys, ["superposition", "--space", "hex"], "superposition")
    assert payload["found"] is True
    assert payload["witness"]["values"]["fr1_s"] == pytest.approx(0.5, abs=1e-12)
    payload = run_json(capsys, ["superposition", "--space", "gbit"], "superposition")
    assert payload["found"] is False and payload["witness"] is None


def test_superposition_json_boxworld(capsys):
    payload = run_json(capsys, ["superposition", "--space", "boxworld-III"],
                       "superposition")
    vals = set(payload["witness"]["values"].values())
    assert vals == {1.0, 0.5}


def test_eval_json(capsys):
    payload = run_json(capsys, ["eval", "--preset", "quantum-II.B",
                                "--inequality", "1"], "eval")
    assert payload["scenario"] == "quantum-II.B"
    assert payload["total"] == pytest.approx(QUANTUM_TOTAL, abs=1e-9)
    assert payload["violated"] is True
    assert len(payload["terms"]) == 3


def test_optimize_json_with_default_preset(capsys):
    payload = run_json(capsys, ["optimize", "--inequality", "2",
                                "--mixtures", "3"], "optimize")
    assert payload["scenario"] == "hexsquare-V.B"
    assert payload["mixture_dominated"] is True
    assert payload["best"] == {"lab_c": "X+Z:+-", "lab_b": "X:+-"}
    assert payload["total_max"] == pytest.approx((28 + SQRT2) / 16, abs=1e-9)


def test_slice_json(capsys):
    payload = run_json(capsys, ["slice", "--space", "hex", "--ry", "0"], "slice")
    assert len(payload["vertices"]) == 6
    assert payload["ry"] == 0.0


# ----------------------------------------------------------------------
# happy paths, human output


def test_enumerate_human(capsys):
    assert main(["enumerate", "--space", "hex"]) == 0
    out = capsys.readouterr().out
    assert "vertices: 14" in out
    assert "diff vs reference list: empty" in out


def test_eval_human(capsys):
    assert main(["eval", "--preset", "hexsquare-V.A", "--inequality", "1"]) == 0
    out = capsys.readouterr().out
    assert "total: 1.926776695297" in out
    assert "violated: True" in out


def test_superposition_human_absent(capsys):
    assert main(["superposition", "--space", "glt"]) == 0
    assert "no operational superposition" in capsys.readouterr().out


def test_slice_csv(capsys):
    assert main(["slice", "--space", "square", "--ry", "0"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "rx,rz"
    assert len(lines) == 5


# ----------------------------------------------------------------------
# output routing and determinism


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    assert main(["eval", "--preset", "quantum-II.B", "--json",
                 "--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    payload = json.loads(target.read_text())
    assert payload["total"] == pytest.approx(QUANTUM_TOTAL, abs=1e-9)


def test_dump_table_csv(tmp_path, capsys):
    target = tmp_path / "table.csv"
    assert main(["eval", "--preset", "hexsquare-V.B", "--inequality", "2",
                 "--dump-table", str(target)]) == 0
    lines = target.read_text().strip().split("\n")
    assert lines[0] == "x1,x2,y,z,a1,a2,b,c,p"
    assert len(lines) == 257


def test_repeat_runs_are_byte_identical(capsys):
    argv = ["eval", "--preset", "hexsquare-V.A", "--json"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    argv = ["enumerate", "--space", "hex", "--json"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first


def test_effects_file_matches_builtin(tmp_path, capsys):
    ops, _ = square_effect_operators()
    data = [[[[float(cell.real), float(cell.imag)] for cell in row] for row in op]
            for op in ops]
    path = tmp_path / "effects.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["slice", "--effects", str(path), "--ry", "0.5"]) == 0
    from_file = capsys.readouterr().out
    assert main(["slice", "--space", "square", "--ry", "0.5"]) == 0
    assert capsys.readouterr().out == from_file


# ----------------------------------------------------------------------
# failure modes


@pytest.mark.parametrize("argv", [
    ["enumerate", "--space", "pentagon"],
    ["superposition", "--space", "pentagon"],
    ["eval", "--preset", "quantum-nope"],
    ["eval"],
    ["eval", "--preset", "quantum-II.B", "--scenario", "x.json"],
    ["eval", "--preset", "quantum-II.B", "--inequality", "9"],
    ["eval", "--preset", "quantum-II.B", "--tolerance", "0"],
    ["slice", "--space", "square", "--ry", "2"],
    ["enumerate", "--unknown-flag"],
    ["superposition"],
    ["eval", "--preset", "quantum-II.B", "--tolerance", "inf"],
    ["slice", "--space", "hex", "--ry", "nan"],
    ["slice", "--space", "hex", "--ry", "inf"],
    ["optimize", "--mixtures", "-5"],
])
def test_malformed_input_exits_3(argv, capsys):
    assert main(argv) == 3
    assert "error:" in capsys.readouterr().err


def test_empty_effects_file_exits_3(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text("[]", encoding="utf-8")
    assert main(["enumerate", "--effects", str(path)]) == 3


def test_unphysical_scenario_exits_2(tmp_path, capsys):
    path = unphysical_scenario_file(tmp_path)
    assert main(["eval", "--scenario", path]) == 2
    assert "invariant violation" in capsys.readouterr().err


# ----------------------------------------------------------------------
# process-level behavior


def checkout_env() -> dict:
    """The environment with ``PYTHONPATH`` led by the ``gptlab`` package
    this test imported, ahead of any installed copy."""
    src = str(Path(gptlab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def declared_launcher(tmp_path):
    """Write the launcher pip builds from ``[project.scripts]["gptlab"]``.

    Returns the launcher and an environment whose ``PYTHONPATH`` puts the
    ``gptlab`` package this test imported ahead of any installed copy.
    """
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    entry = tomllib.loads(pyproject.read_text(encoding="utf-8"))[
        "project"]["scripts"]["gptlab"]
    module, _, func = entry.partition(":")
    launcher = tmp_path / "gptlab"
    launcher.write_text(f"#!{sys.executable}\n"
                        "import sys\n"
                        f"from {module} import {func}\n"
                        f"sys.exit({func}())\n", encoding="utf-8")
    launcher.chmod(0o755)
    return str(launcher), checkout_env()


def test_console_script_installed(tmp_path):
    # An installed ``gptlab`` runs as is; an uninstalled checkout runs the
    # launcher built from the entry point declared in pyproject.toml.
    exe, env = shutil.which("gptlab"), None
    if exe is None:
        exe, env = declared_launcher(tmp_path)
    proc = subprocess.run([exe, "eval", "--preset", "quantum-II.B", "--json"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["violated"] is True


SCIPY_FREE_RUN = """
import contextlib, io, sys

def no_scipy(step):
    assert "scipy" not in sys.modules, f"scipy loaded by {step}"

import gptlab
no_scipy("import gptlab")
from gptlab import cli
no_scipy("import gptlab.cli")
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["eval", "--preset", "hexsquare-V.A", "--json"]) == 0
    no_scipy("eval")
    assert cli.main(["optimize", "--preset", "hexsquare-V.B", "--json"]) == 0
    no_scipy("optimize")
    assert cli.main(["enumerate", "--space", "hex", "--json"]) == 0
"""


def test_eval_and_optimize_never_import_scipy():
    # The hull LP is the only scipy use; eval and optimize solve no LP, so a
    # fresh interpreter running them must not pay for importing scipy.
    proc = subprocess.run([sys.executable, "-c", SCIPY_FREE_RUN],
                          env=checkout_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_tolerance_env_loosens_probability_checks(tmp_path):
    path = unphysical_scenario_file(tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "GPTLAB_TOLERANCE"}
    cmd = [sys.executable, "-c",
           "import sys; from gptlab.cli import main; "
           f"sys.exit(main(['eval', '--scenario', {str(path)!r}]))"]
    strict = subprocess.run(cmd, env=env, capture_output=True, text=True)
    assert strict.returncode == 2
    env["GPTLAB_TOLERANCE"] = "0.5"
    loose = subprocess.run(cmd, env=env, capture_output=True, text=True)
    assert loose.returncode == 0, loose.stderr
    env["GPTLAB_TOLERANCE"] = "-1"
    bad = subprocess.run(cmd, env=env, capture_output=True, text=True)
    assert bad.returncode == 3
    assert "error:" in bad.stderr and "Traceback" not in bad.stderr
