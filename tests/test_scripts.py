import importlib.util
from pathlib import Path

import numpy as np

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_stability_sweep_prints_the_table(capsys, monkeypatch):
    script = load_script("run_stability_sweep")
    real = script.run_stability_experiment
    seeds = []

    def recording(*args, **kwargs):
        seeds.append(kwargs.get("seed"))
        return real(*args, **kwargs)

    monkeypatch.setattr(script, "run_stability_experiment", recording)
    script.main(["--grid", "9", "--eps-count", "3", "--seed", "7"])
    assert seeds == [7]

    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["eps", "dn_gap", "sup_mu", "sup_d0"]
    table = np.array([[float(cell) for cell in line.split()] for line in lines[1:4]])
    np.testing.assert_allclose(table[:, 0], [0.2, 0.1, 0.05], rtol=1e-15)
    gaps = table[:, 1]
    assert np.all(gaps > 0) and np.all(np.diff(gaps) < 0)
    assert lines[4].startswith("observed slopes: {")
    assert lines[5].startswith("predicted exponents: [1.0]")
    assert lines[6].startswith("inequality constants: {")


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
