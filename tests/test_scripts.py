import importlib.util
from pathlib import Path

import numpy as np

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_convergence_study_prints_second_order(capsys):
    load_script("run_convergence_study").main(["--grids", "9", "13", "17"])
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4 and all(line.startswith("m=") for line in lines[:3])
    errors = [float(line.rsplit("=", 1)[1]) for line in lines[:3]]
    assert np.all(np.diff(errors) < 0)
    assert lines[3].startswith("least-squares order: ")
    assert abs(float(lines[3].split(": ")[1]) - 2.0) <= 0.3


def test_singular_decay_prints_both_studies(capsys):
    load_script("run_singular_decay").main(["--grid", "13", "--orders", "0", "--s", "4.5"])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "== annulus remainder decay =="
    assert lines[1].startswith("m=0: fitted |w| exponent ")
    assert lines[2] == "== truncated-potential decay =="
    assert len(lines) == 4 and lines[3].startswith("s=4.5: fitted exponent ")
    exponent = float(lines[3].split()[3])
    assert abs(exponent - (2.0 - 4.5)) <= 0.1
