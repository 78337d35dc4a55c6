import json
import os
import re
import shlex
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import otlab.cli
import otlab.dnmap
import otlab.solver
import otlab.stability
from otlab.cli import main
from otlab.config import EXPERIMENTS, RunConfig
from otlab.errors import ConfigError, ResidualError

from oracles import dense_operator_norm


def default_config_dict():
    with resources.files("otlab.data").joinpath("default_config.json").open() as fh:
        return json.load(fh)


def small_config(tmp_path, **updates):
    cfg = default_config_dict()
    cfg["grid"]["m_per_axis"] = 9
    for key, value in updates.items():
        section, _, leaf = key.partition(".")
        if leaf:
            cfg[section][leaf] = value
        else:
            cfg[section] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def test_cli_import_leaves_scipy_fft_out():
    # the sine preconditioner applies its transform as dense products; scipy.fft
    # would add about 47 ms of import time and 3 MB of resident memory
    src = str(Path(otlab.cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = "import sys, otlab.cli; print(sorted(m for m in sys.modules if m.startswith('scipy.fft')))"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


class TestConfig:
    def test_bundled_default_is_valid(self):
        cfg = RunConfig.default()
        assert cfg.apriori().lam == 1.5
        assert cfg.grid().m_per_axis == 17
        assert len(cfg.fingerprint()) == 16

    def test_missing_lambda_pointer(self):
        data = default_config_dict()
        del data["apriori"]["lambda"]
        with pytest.raises(ConfigError) as err:
            RunConfig.from_dict(data)
        assert err.value.pointer == "/apriori/lambda"

    def test_bad_types_rejected(self):
        data = default_config_dict()
        data["apriori"]["k"] = "fast"
        with pytest.raises(ConfigError) as err:
            RunConfig.from_dict(data)
        assert err.value.pointer == "/apriori/k"

    def test_fingerprint_tracks_content(self):
        a = RunConfig.default()
        data = default_config_dict()
        data["apriori"]["k"] = 0.11
        b = RunConfig.from_dict(data)
        assert a.fingerprint() != b.fingerprint()

    @pytest.mark.parametrize(
        "medium",
        [[1, 2], {"mu_a": "1 +"}, {"mu_a": {"a": 1}}, {"B": [[0, 0], [0, 0]]}],
        ids=["not-an-object", "bad-expression", "bad-type", "short-B"],
    )
    def test_malformed_medium_is_a_config_error(self, medium):
        data = default_config_dict()
        data["grid"]["m_per_axis"] = 9
        data["medium"] = medium
        cfg = RunConfig.from_dict(data)
        with pytest.raises(ConfigError) as err:
            cfg.medium(cfg.grid())
        assert err.value.pointer == "/medium"

    def test_grid_cap_cannot_exceed_the_built_in_cap(self):
        data = default_config_dict()
        data["solver"] = {"grid_cap": 51}
        with pytest.raises(ConfigError) as err:
            RunConfig.from_dict(data)
        assert err.value.pointer == "/solver/grid_cap"

    @pytest.mark.parametrize(
        "rtol", [-1, 0, 1.0, "abc", True, float("nan"), float("inf")],
        ids=["negative", "zero", "one", "string", "bool", "nan", "inf"],
    )
    def test_solver_rtol_is_validated(self, rtol):
        data = default_config_dict()
        data["solver"] = {"rtol": rtol}
        with pytest.raises(ConfigError) as err:
            RunConfig.from_dict(data)
        assert err.value.pointer == "/solver/rtol"

    def test_medium_from_raw_sample_arrays(self):
        data = default_config_dict()
        data["grid"]["m_per_axis"] = 9
        data["medium"]["mu_a"] = [1.0] * 9**3
        cfg = RunConfig.from_dict(data)
        grid = cfg.grid()
        med = cfg.medium(grid)
        assert med.mu_a.shape == (grid.num_points,)
        assert med.admissibility_violations() == []


class TestCliExitCodes:
    def test_check_on_bundled_default(self, tmp_path):
        out = tmp_path / "out"
        assert main(["check", "--out", str(out)]) == 0
        report = json.loads((out / "check_report.json").read_text())
        assert report["k_admissible"] is True
        assert report["k_ranges"]["k0"] == pytest.approx(0.129215, abs=1e-5)
        assert "config_fingerprint" in report
        assert report["module_versions"]["otlab"]

    def test_missing_lambda_exits_2(self, tmp_path, capsys):
        cfg = default_config_dict()
        del cfg["apriori"]["lambda"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        code = main(["check", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "/apriori/lambda" in capsys.readouterr().err

    def test_invalid_json_exits_2(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["check", "--config", str(path), "--out", str(tmp_path / "o")]) == 2

    def test_unreadable_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "absent.json"
        assert main(["check", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert f"configuration error: /: cannot read {path}" in capsys.readouterr().err

    def test_inadmissible_check_exits_3(self, tmp_path):
        path = small_config(tmp_path, **{"medium.mu_a": "3"})  # above lam
        assert main(["check", "--config", str(path), "--out", str(tmp_path / "o")]) == 3

    def test_a_failed_run_leaves_out_as_it_was(self, tmp_path, capsys):
        # each command writes into a temporary directory beside --out and
        # moves its files in only on exit 0
        out = tmp_path / "o"
        assert main(["check", "--config", str(small_config(tmp_path)), "--out", str(out)]) == 0
        before = (out / "check_report.json").read_bytes()
        path = small_config(tmp_path, **{"medium.mu_a": "3"})  # above lam
        assert main(["check", "--config", str(path), "--out", str(out)]) == 3
        assert "violation: mu_a out of [1/lam, lam]" in capsys.readouterr().err
        assert [p.name for p in out.iterdir()] == ["check_report.json"]
        assert (out / "check_report.json").read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "o"]

    @pytest.mark.parametrize("command", ["check", "stability"])
    @pytest.mark.parametrize("under", [False, True], ids=["file", "under-a-file"])
    def test_out_on_a_file_exits_2_before_any_work(self, tmp_path, capsys, monkeypatch, command, under):
        # --out naming a file, or a path below one, used to run the whole
        # command and then die on a FileExistsError traceback
        config = small_config(tmp_path)
        blocker = tmp_path / "report.txt"
        blocker.write_text("kept")
        out = blocker / "sub" if under else blocker
        ran = []
        monkeypatch.setitem(otlab.cli.COMMANDS, command, lambda *args: ran.append(args) or 0)
        assert main([command, "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: --out: ") and repr(str(blocker)) in err
        assert ran == [] and blocker.read_text() == "kept"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "report.txt"]

    def test_perturbation_without_grid_support_exits_2(self, tmp_path, capsys):
        path = small_config(tmp_path, **{"experiments.stability": {
            "profile_order": 1, "h": 0, "eps_start": 0.2, "eps_count": 3,
            "width": 0.3, "depth": 0.05}})
        out = tmp_path / "o"
        assert main(["stability", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        for name in ("/experiments/stability", "width", "depth", "profile_order"):
            assert name in err
        assert not (out / "stability_rows.csv").exists()

    # 0.2 / 2**1019 is the last normal float of the 0.2 ladder; at 1100 amplitudes
    # the old ladder eps0 / 2**i raised OverflowError past i = 1023
    @pytest.mark.parametrize(
        "field, value",
        [("eps_start", 0.0), ("eps_start", -0.2), ("eps_count", 0), ("eps_count", 1021),
         ("eps_count", 1100)],
    )
    def test_non_positive_amplitude_ladder_exits_2(self, tmp_path, capsys, field, value):
        stability = {"profile_order": 0, "h": 0, "eps_start": 0.2, "eps_count": 3,
                     "width": 0.3, "depth": 0.4, field: value}
        path = small_config(tmp_path, **{"experiments.stability": stability})
        out = tmp_path / "o"
        assert main(["stability", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "/experiments/stability" in err and field in err and "Traceback" not in err
        assert not (out / "stability_rows.csv").exists()

    def test_ladder_halves_exactly_down_to_the_normal_floats(self, tmp_path, monkeypatch):
        class Stop(Exception):
            pass

        seen = []

        def record(pspec, h_order, eps, seed):
            seen.append(eps)
            raise Stop

        monkeypatch.setattr(otlab.cli, "run_stability_experiment", record)
        stability = {"profile_order": 0, "h": 0, "eps_start": 0.2, "eps_count": 1020,
                     "width": 0.3, "depth": 0.4}
        path = small_config(tmp_path, **{"experiments.stability": stability})
        with pytest.raises(Stop):
            main(["stability", "--config", str(path), "--out", str(tmp_path / "o")])
        assert seen[0] == [0.2 / 2**i for i in range(1020)]
        assert seen[0][-1] >= sys.float_info.min

    @pytest.mark.parametrize("route", ["config", "flag"])
    def test_negative_seed_exits_2_before_any_work(self, tmp_path, capsys, route):
        # numpy's generators reject a negative seed; it used to surface as a
        # numerical failure (exit 3) once the sweep drew its start vector
        if route == "config":
            path, flags = small_config(tmp_path, seed=-1), []
        else:
            path, flags = small_config(tmp_path), ["--seed", "-1"]
        out = tmp_path / "o"
        assert main(["stability", "--config", str(path), "--out", str(out)] + flags) == 2
        assert capsys.readouterr().err.startswith("configuration error: /seed:")
        assert not out.exists()

    @pytest.mark.parametrize("h", [-1, 4])
    def test_derivative_order_outside_the_smoothness_exits_2(
        self, tmp_path, capsys, monkeypatch, h
    ):
        # h runs from 0 to the smoothness (3) of the perturbation family; any
        # other order is a configuration error found before the medium is built
        def no_work(*args, **kwargs):
            raise AssertionError("the stability command started working")

        monkeypatch.setattr(RunConfig, "medium", no_work)
        monkeypatch.setattr(otlab.cli, "run_stability_experiment", no_work)
        stability = {"profile_order": 0, "h": h, "eps_start": 0.2, "eps_count": 3,
                     "width": 0.3, "depth": 0.4}
        path = small_config(tmp_path, **{"experiments.stability": stability})
        out = tmp_path / "o"
        assert main(["stability", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "configuration error: /experiments/stability:" in err
        assert "h must lie in 0..3" in err and f"got {h}" in err
        assert not out.exists()

    def test_profile_vanishing_to_order_h_exits_2_before_any_work(self, tmp_path, capsys):
        # a profile of order 1 vanishes on the boundary, so every sup of an
        # h = 0 sweep is zero: it used to write the report and the CSV and then
        # exit 3 with nothing positive to plot
        out = tmp_path / "o"
        assert main(["stability", "--profile-order", "1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "configuration error: /experiments/stability/h: h = 0 is below profile_order = 1" in err
        assert "vanishes on the boundary to order 1" in err
        assert not out.exists()

    def test_ladder_without_admissible_amplitude_exits_2(self, tmp_path, capsys, monkeypatch):
        # mu_a + eps * profile leaves [1/lam, lam] at eps 5 and 2.5: no
        # amplitude is left, which is a configuration error found before
        # any operator is assembled and before any report is written
        def no_sweep(*args, **kwargs):
            raise AssertionError("the sweep ran")

        monkeypatch.setattr(otlab.stability, "assemble", no_sweep)
        monkeypatch.setattr(otlab.stability.SobolevScale, "build", no_sweep)
        stability = {"profile_order": 0, "h": 0, "eps_start": 5.0, "eps_count": 2,
                     "width": 0.3, "depth": 0.4}
        path = small_config(tmp_path, **{"experiments.stability": stability})
        out = tmp_path / "o"
        assert main(["stability", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.splitlines()[:2] == [
            "warning: amplitude eps=5.0 breaks admissibility; dropped",
            "warning: amplitude eps=2.5 breaks admissibility; dropped",
        ]
        assert "configuration error: /experiments/stability:" in err
        assert "[5.0, 2.5]" in err and "[1/lam, lam]" in err
        assert not out.exists()

    def test_partially_admissible_ladder_sweeps_the_rest(self, tmp_path, capsys):
        # eps = 0.8 lifts mu_a past lam = 1.5 and is dropped with a one-line
        # warning, which names no source path; 0.4 and 0.2 stay admissible
        # and are swept
        stability = {"profile_order": 0, "h": 0, "eps_start": 0.8, "eps_count": 3,
                     "width": 0.3, "depth": 0.4}
        path = small_config(tmp_path, **{"experiments.stability": stability})
        out = tmp_path / "o"
        assert main(["stability", "--config", str(path), "--out", str(out)]) == 0
        assert capsys.readouterr().err == "warning: amplitude eps=0.8 breaks admissibility; dropped\n"
        report = json.loads((out / "stability_report.json").read_text())
        assert report["dropped_amplitudes"] == [0.8]
        lines = [l for l in (out / "stability_rows.csv").read_text().splitlines()
                 if not l.startswith("#")]
        col = lines[0].split(",").index("eps")
        assert [float(l.split(",")[col]) for l in lines[1:]] == [0.4, 0.2]

    def test_inadmissible_wave_number_exits_2(self, tmp_path, capsys):
        # k = 1 lies outside both admissible intervals of the bundled a-priori
        # data: a flag fault found before any work
        path = small_config(tmp_path)
        out = tmp_path / "o"
        assert main(["stability", "--config", str(path), "--out", str(out), "--k", "1.0"]) == 2
        err = capsys.readouterr().err
        assert "configuration error: /apriori/k:" in err and "k=1.0" in err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_non_finite_k_flag_exits_2_like_the_file(self, tmp_path, capsys, value):
        # the flag is written into the config and read by the same finite-number
        # check; it used to bypass it and end in a ZeroDivisionError traceback
        path, out = small_config(tmp_path), tmp_path / "o"
        assert main(["stability", "--config", str(path), "--out", str(out), f"--k={value}"]) == 2
        assert capsys.readouterr().err.startswith("configuration error: /apriori/k: expected a finite number")
        assert not out.exists()

    def test_flag_without_its_section_exits_2_at_the_section(self, tmp_path, capsys):
        # a flag is written only where its parent is an object, so a missing
        # section fails where the command reads it, flag or no flag
        cfg = default_config_dict()
        del cfg["experiments"]["gegenbauer_table"]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "o"
        assert main(["gegenbauer-table", "--config", str(path), "--out", str(out), "--max-m", "3"]) == 2
        err = capsys.readouterr().err
        assert err == "configuration error: /experiments/gegenbauer_table: required field is missing\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, edits, error",
        [("check", {"apriori.k": 1e300}, "OverflowError"),
         ("stability", {"grid.extent": 1e200}, "ValueError")],
        ids=["k-squared-overflows", "extent-overflows"],
    )
    def test_arithmetic_failure_exits_3_on_one_line(self, tmp_path, capsys, command, edits, error):
        # k**2 overflows in the ellipticity audit; at extent 1e200 the exterior
        # field is no longer outward.  Both used to exit 1 with a traceback, and
        # numpy's warnings on the way named the source file and line
        path = small_config(tmp_path, **edits)
        assert main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 3
        lines = capsys.readouterr().err.splitlines()
        assert lines[-1].startswith(f"numerical failure ({error})")
        assert all(line.startswith("warning: ") and ".py:" not in line for line in lines[:-1])

    @pytest.mark.parametrize(
        "command, section, fields, pointer, cause",
        [
            ("singular", "singular", {"r_max": 0.05}, "/experiments/singular", "r_max 0.05"),
            ("singular", "singular", {"m": -1}, "/experiments/singular", "got -1"),
            ("gegenbauer-table", "gegenbauer_table", {"n": 2}, "/experiments/gegenbauer_table",
             "dimension must be >= 3"),
            ("singular", "singular", {"r_max": 0.9}, "/experiments/singular",
             "r_max 0.9 exceeds the cube's half extent 0.5"),
            ("singular", "singular", {"r_min_cells": 0}, "/experiments/singular",
             "r_min_cells must be positive, got 0"),
            ("singular", "singular", {"m": 65}, "/experiments/singular", "at most 64, got 65"),
        ],
        ids=["singular-r_max", "singular-m", "gegenbauer_table-n", "singular-r_max-past-the-faces",
             "singular-r_min_cells", "singular-m-past-the-cap"],
    )
    def test_bad_experiment_section_exits_2_before_working(
        self, tmp_path, capsys, monkeypatch, command, section, fields, pointer, cause
    ):
        def no_work(*args, **kwargs):
            raise AssertionError(f"the {command} command started working")

        monkeypatch.setattr(RunConfig, "medium", no_work)
        monkeypatch.setattr(otlab.cli, "coefficient_table", no_work)
        cfg = default_config_dict()
        cfg["experiments"][section].update(fields)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "o"
        assert main([command, "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"configuration error: {pointer}:" in err and cause in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("solve", "no_reaction", "yes"),
            ("solve", "boundary_data", 2),
            ("solve", "dump_slice", ["z=0"]),
            ("singular", "m", [1]),
            ("singular", "r_min_cells", None),
            ("singular", "r_max", True),
            ("stability", "profile_order", "0"),
            ("stability", "h", None),
            ("stability", "eps_start", "0.2"),
            ("stability", "eps_count", None),
            ("stability", "width", [0.3]),
            ("stability", "depth", {"a": 1}),
            ("gegenbauer_table", "max_m", "8"),
            ("gegenbauer_table", "n", 3.5),
        ],
    )
    def test_wrong_json_type_exits_2_before_working(
        self, tmp_path, capsys, monkeypatch, section, key, value
    ):
        def no_work(*args, **kwargs):
            raise AssertionError("the command started working")

        monkeypatch.setattr(RunConfig, "medium", no_work)
        monkeypatch.setattr(otlab.cli, "coefficient_table", no_work)
        assert key in EXPERIMENTS[section]
        path = small_config(tmp_path)
        cfg = json.loads(path.read_text())
        cfg["experiments"][section][key] = value
        path.write_text(json.dumps(cfg))
        out = tmp_path / "o"
        command = section.replace("_", "-")
        assert main([command, "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"configuration error: /experiments/{section}/{key}: expected" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "section, value, pointer",
        [
            ("stability", {"eps_cout": 3}, "/experiments/stability/eps_cout: unknown key"),
            ("solve", {"grid": 9}, "/experiments/solve/grid: unknown key"),
            ("stability", [1], "/experiments/stability: expected an object"),
        ],
        ids=["misspelt-key", "cli-flag-as-key", "list-section"],
    )
    def test_unknown_key_or_bad_section_exits_2(self, tmp_path, capsys, section, value, pointer):
        path = small_config(tmp_path)
        cfg = json.loads(path.read_text())
        if isinstance(value, dict):
            cfg["experiments"][section].update(value)
        else:
            cfg["experiments"][section] = value
        path.write_text(json.dumps(cfg))
        out = tmp_path / "o"
        assert main([section, "--config", str(path), "--out", str(out)]) == 2
        assert f"configuration error: {pointer}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, grid, edits, pointer",
        [
            ("solve", 9, {"experiments.solve.boundary_data": "1 +"},
             "/experiments/solve/boundary_data"),
            ("solve", 9, {"experiments.solve.boundary_data": "log(x1 - x1)"},
             "/experiments/solve/boundary_data"),
            ("solve", 9, {"experiments.solve.dump_slice": "z=abc"}, "/experiments/solve/dump_slice"),
            ("stability", 9, {"medium.supp_B_interior": False, "experiments.stability.h": 1},
             "/medium/supp_B_interior"),
            ("stability", 9, {"medium.supp_B_interior": "false"}, "/medium/supp_B_interior"),
            ("singular", 17, {"medium.B": [[0.1, 0, 0], [0, 0.1, 0], [0, 0, 0.1]]}, "/medium/B"),
            ("check", 9, {"medium.mu_a": "-" * 3000 + "1"}, "/medium"),
        ],
        ids=["boundary_data", "boundary_data-not-finite", "dump_slice", "supp_B_interior",
             "supp_B_interior-not-bool", "B-at-the-pole", "deep-mu_a"],
    )
    def test_config_faults_name_their_pointer(
        self, tmp_path, capsys, monkeypatch, command, grid, edits, pointer
    ):
        # each of these used to surface as a bare ValueError (exit 2 without a
        # pointer) or as a traceback; now each is a ConfigError before any output
        def no_work(*args, **kwargs):
            raise AssertionError("the command started working")

        for name in ("assemble", "run_stability_experiment", "SingularityPoint"):
            monkeypatch.setattr(otlab.cli, name, no_work)
        cfg = default_config_dict()
        cfg["grid"]["m_per_axis"] = grid
        for dotted, value in edits.items():
            *parents, leaf = dotted.split(".")
            node = cfg
            for key in parents:
                node = node[key]
            node[leaf] = value
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "o"
        assert main([command, "--config", str(path), "--out", str(out)]) == 2
        assert f"configuration error: {pointer}:" in capsys.readouterr().err
        assert not out.exists()

    def test_internal_value_error_exits_3(self, tmp_path, capsys, monkeypatch):
        # only a ConfigError means "fix the input"; a ValueError from inside
        # the program is an internal failure
        def broken(config, out):
            raise ValueError("an internal fault")

        monkeypatch.setitem(otlab.cli.COMMANDS, "check", broken)
        assert main(["check", "--config", str(small_config(tmp_path)), "--out", str(tmp_path / "o")]) == 3
        assert "(ValueError): an internal fault" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, error, cause",
        [
            ("solve", MemoryError("Unable to allocate 1.00 GiB"), "Unable to allocate 1.00 GiB"),
            ("dn", MemoryError(), "an allocation failed"),
        ],
    )
    def test_failed_allocation_exits_3(self, tmp_path, capsys, monkeypatch, command, error, cause):
        # a MemoryError from numpy, splu or eigh ends in the documented exit
        # code with its cause, not in a traceback
        def out_of_memory(*args, **kwargs):
            raise error

        monkeypatch.setattr(otlab.cli, "assemble", out_of_memory)
        out = tmp_path / "o"
        assert main([command, "--config", str(small_config(tmp_path)), "--out", str(out)]) == 3
        assert f"out of memory (MemoryError): {cause}" in capsys.readouterr().err
        assert not out.exists()

    def test_all_zero_gaps_exit_3_before_writing(self, tmp_path, capsys):
        # amplitudes this small leave the assembled operator as it is, so
        # every gap is zero and there is nothing to fit or plot
        path = small_config(tmp_path, **{"experiments.stability": {
            "profile_order": 0, "h": 0, "eps_start": 1.7e-106, "eps_count": 3,
            "width": 0.3, "depth": 0.4}})
        out = tmp_path / "out"
        assert main(["stability", "--config", str(path), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "every D-N gap is zero" in err and "1.7e-106" in err
        assert list(out.glob("stability_*")) == []

    def test_unconverged_extension_solve_exits_3(self, tmp_path, capsys, monkeypatch):
        # COCG capped at one step on a variable medium fails the extension
        # solves' residual check inside the sweep, before any report is written
        monkeypatch.setattr(otlab.solver, "SOLVE_MAX_ITERATIONS", 1)
        path = small_config(tmp_path, **{"medium.mu_a": "1 + 0.1*sin(x1 + x2)"})
        out = tmp_path / "o"
        assert main(["stability", "--config", str(path), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "numerical failure (ResidualError): perturbed extension solve: residual" in err
        assert "after 1 COCG iterations" in err
        assert not (out / "stability_report.json").exists()

    @pytest.mark.parametrize("command", ["solve", "dn", "check"])
    @pytest.mark.parametrize("mu_a", ["1/0", "log(-1)"])
    def test_non_finite_medium_exits_2(self, tmp_path, capsys, command, mu_a):
        path = small_config(tmp_path, **{"medium.mu_a": mu_a})
        assert main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "configuration error: /medium:" in err
        assert "mu_a is not finite at node 0" in err

    @pytest.mark.parametrize("command", ["check", "solve", "dn"])
    def test_asymmetric_B_exits_2_before_any_work(self, tmp_path, capsys, command):
        # the tensor pass reads one triangle of B; B01 = 0.1 x1 x2 with B10 = 0
        # used to run through solve and dn on the upper triangle alone
        B = [["0", "0.1*x1*x2", "0"], ["0", "0", "0"], ["0", "0", "0"]]
        path = small_config(tmp_path, **{"medium.B": B, "medium.supp_B_interior": False})
        out = tmp_path / "o"
        assert main([command, "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "configuration error: /medium/B: B must be symmetric, got max |B - B^T| = 2.500e-02" in err
        assert not out.exists()
        B[1][0] = B[0][1]
        path = small_config(tmp_path, **{"medium.B": B, "medium.supp_B_interior": False})
        assert main([command, "--config", str(path), "--out", str(out)]) == 0

    @pytest.mark.parametrize(
        "section, key",
        [("", "thread"), ("grid", "m"), ("apriori", "lam"), ("medium", "mua"), ("solver", "tol"),
         ("experiments", "stabilty")],
    )
    def test_unknown_key_exits_2_before_any_work(self, tmp_path, capsys, section, key):
        cfg = default_config_dict()
        cfg["grid"]["m_per_axis"] = 9
        (cfg.setdefault(section, {}) if section else cfg)[key] = "1 + 0.3*x1"
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "o"
        assert main(["check", "--config", str(path), "--out", str(out)]) == 2
        pointer = f"/{section}/{key}" if section else f"/{key}"
        assert f"configuration error: {pointer}: unknown key {key!r} (known: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["solve", "dn", "stability"])
    def test_grid_cap_applies_to_every_command(self, tmp_path, capsys, command):
        path = small_config(tmp_path, solver={"grid_cap": 5})  # m = 9
        assert main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 3
        assert "MemoryBudgetError" in capsys.readouterr().err

    def test_grid_override_of_zero_exits_2(self, tmp_path, capsys):
        # 0 used to fall through to the config's grid and exit 0
        path = small_config(tmp_path)
        out = tmp_path / "o"
        assert main(["solve", "--config", str(path), "--out", str(out), "--grid", "0"]) == 2
        assert "configuration error: /grid: m_per_axis must be odd and >= 9, got 0" in capsys.readouterr().err
        assert not (out / "solve_report.json").exists()

    def test_bad_rtol_exits_2_before_solving(self, tmp_path, capsys):
        path = small_config(tmp_path, solver={"rtol": -1})
        out = tmp_path / "o"
        assert main(["solve", "--config", str(path), "--out", str(out)]) == 2
        assert "configuration error: /solver/rtol:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["check", "solve", "dn"])
    def test_dimension_other_than_3_exits_2_before_working(self, tmp_path, capsys, monkeypatch, command):
        # the grid is the 3-D cube: n = 4 used to build K with a 1/4 factor
        # on it and exit 0
        def no_work(*args, **kwargs):
            raise AssertionError("the command started working")

        monkeypatch.setattr(RunConfig, "medium", no_work)
        path = small_config(tmp_path)
        cfg = json.loads(path.read_text())
        cfg["apriori"].update(n=4, p=5.0)
        path.write_text(json.dumps(cfg))
        out = tmp_path / "o"
        assert main([command, "--config", str(path), "--out", str(out)]) == 2
        assert "configuration error: /apriori/n: the grid is the 3-D cube, so n must be 3, got 4" in (
            capsys.readouterr().err
        )
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "5", "-0.51"])
    def test_slice_off_the_cube_exits_2_before_solving(self, tmp_path, capsys, monkeypatch, value):
        # argmin used to snap these to a face (nan and inf to z = -0.5, 5 to
        # z = 0.5) and exit 0
        def no_work(*args, **kwargs):
            raise AssertionError("the solve started")

        monkeypatch.setattr(otlab.cli, "assemble", no_work)
        path = small_config(tmp_path)
        out = tmp_path / "o"
        assert main(["solve", "--config", str(path), "--out", str(out), "--dump-slice", f"z={value}"]) == 2
        err = capsys.readouterr().err
        assert "configuration error: /experiments/solve/dump_slice: slice value must lie in" in err
        assert f"got {value}" in err
        assert not out.exists()

    def test_unconverged_solve_fails_the_residual_check(self, tmp_path, capsys, monkeypatch):
        # COCG stopped long before convergence: the explicit residual
        # check is the only failure path, in the API and in `otlab solve`.
        # A variable mu_a, because the sine preconditioner is exact on a
        # constant medium and converges there in one step
        monkeypatch.setattr(otlab.solver, "SOLVE_MAX_ITERATIONS", 2)
        path = small_config(tmp_path, **{"medium.mu_a": "1 + 0.1*sin(x1 + x2)"})
        config = RunConfig.from_file(path)
        grid = config.grid()
        op = otlab.solver.assemble(config.medium(grid), grid)
        g = np.cos(grid.points[op.boundary_idx, 0]).astype(complex)
        with pytest.raises(ResidualError, match=r"solve residual .* after 2 COCG iterations"):
            otlab.solver.solve_dirichlet(op, g)
        assert main(["solve", "--config", str(path), "--out", str(tmp_path / "o")]) == 3
        assert "numerical failure (ResidualError): solve residual" in capsys.readouterr().err

    def test_solve_uses_the_config_rtol(self, tmp_path, monkeypatch):
        seen = []
        real = otlab.cli.solve_dirichlet

        def recording(*args, **kwargs):
            seen.append(kwargs["rtol"])
            return real(*args, **kwargs)

        monkeypatch.setattr(otlab.cli, "solve_dirichlet", recording)
        for solver in ({"rtol": 1e-9}, {}):
            path = small_config(tmp_path, solver=solver)
            assert main(["solve", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
        assert seen == [1e-9, otlab.solver.SOLVE_RTOL]


class TestCliCommands:
    def test_solve_with_slice(self, tmp_path):
        path = small_config(tmp_path)
        out = tmp_path / "out"
        code = main(
            ["solve", "--config", str(path), "--out", str(out), "--dump-slice", "z=0.0"]
        )
        assert code == 0
        report = json.loads((out / "solve_report.json").read_text())
        assert report["interior_residual_sup"] < 1e-9
        lines = (out / "solve_slice.csv").read_text().splitlines()
        assert lines[0].startswith("# config_fingerprint=")
        assert "# slice axis=2 value=0.0" in lines
        header = [l for l in lines if not l.startswith("#")][0]
        assert header == "u,v,re,im"

    @pytest.mark.parametrize("flag", ["--save", "--load"])
    def test_dn_refuses_the_removed_file_flags(self, tmp_path, capsys, flag):
        # the D-N map is not written to or read from a file
        target, out = tmp_path / "dn.npz", tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main(["dn", "--out", str(out), flag, str(target)])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert not target.exists() and not out.exists()

    def test_stability_report_has_slopes(self, tmp_path):
        path = small_config(tmp_path, **{"experiments.stability": {
            "profile_order": 0, "h": 0, "eps_start": 0.2, "eps_count": 3,
            "width": 0.3, "depth": 0.4}})
        out = tmp_path / "out"
        code = main(["stability", "--config", str(path), "--out", str(out)])
        assert code == 0
        report = json.loads((out / "stability_report.json").read_text())
        assert np.isfinite(report["observed_slopes"]["boundary_values"])
        assert (out / "stability_loglog.svg").exists()
        rows = (out / "stability_rows.csv").read_text().splitlines()
        assert any(line.startswith("eps,") for line in rows)

    def test_stability_report_is_strict_json(self, tmp_path):
        # README's first-derivative line: the order-0 series of a profile of
        # order 1 is zero, so it has no slope and no constant; they are null,
        # where NaN (not JSON) was written
        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        out = tmp_path / "out"
        flags = ["--profile-order", "1", "--h", "1", "--alpha", "0.22", "--eps-count", "3"]
        assert main(["stability", "--config", str(small_config(tmp_path)), "--out", str(out)] + flags) == 0
        report = json.loads((out / "stability_report.json").read_text(), parse_constant=reject)
        for fit in ("observed_slopes", "inequality_constants"):
            assert report[fit]["order_0"] is None and report[fit]["boundary_values"] is None
            assert np.isfinite(report[fit]["order_1"])

    @pytest.mark.parametrize("h, order", [(0, 0), (3, 1)])
    def test_stability_report_names_the_tensor_gap_order(self, tmp_path, h, order):
        # tensor_derivative_gap stops at first derivatives, so h = 3 sweeps
        # report a first-derivative tensor gap and say so
        path = small_config(tmp_path, **{"experiments.stability": {
            "profile_order": 0, "h": h, "eps_start": 0.2, "eps_count": 2,
            "width": 0.3, "depth": 0.4}})
        out = tmp_path / "out"
        assert main(["stability", "--config", str(path), "--out", str(out)]) == 0
        report = json.loads((out / "stability_report.json").read_text())
        assert report["derivative_order"] == h
        assert report["tensor_gap_order"] == order

    def test_stability_builds_and_audits_each_amplitude_once(self, tmp_path, monkeypatch):
        medium_cls = otlab.stability.OpticalMedium
        build, audit = medium_cls.with_absorption, medium_cls.admissibility_violations
        built, audited = [], []

        def building(medium, mu_a):
            built.append(build(medium, mu_a))
            return built[-1]

        def auditing(medium):
            audited.append(medium)
            return audit(medium)

        monkeypatch.setattr(medium_cls, "with_absorption", building)
        monkeypatch.setattr(medium_cls, "admissibility_violations", auditing)
        path = small_config(tmp_path, **{"experiments.stability": {
            "profile_order": 0, "h": 0, "eps_start": 0.2, "eps_count": 3,
            "width": 0.3, "depth": 0.4}})
        assert main(["stability", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
        assert len(built) == 3
        assert [id(m) for m in audited] == [id(m) for m in built]

    def test_seed_draws_the_lanczos_start(self, tmp_path, monkeypatch):
        # the seed draws the first amplitude's Lanczos start and the random
        # part of every later amplitude's warm start: gaps agree to the
        # Ritz-residual tolerance, and one seed reproduces its reports
        # bytewise; `dn` draws its start with the fixed seed 0, so its norm
        # does not read --seed
        real = otlab.dnmap._largest_singular_value
        seen = []

        def recording(*args, **kwargs):
            seen.append(kwargs.get("seed"))
            return real(*args, **kwargs)

        monkeypatch.setattr(otlab.dnmap, "_largest_singular_value", recording)
        path = small_config(tmp_path, **{"experiments.stability": {
            "profile_order": 0, "h": 0, "eps_start": 0.2, "eps_count": 3,
            "width": 0.3, "depth": 0.4}})
        runs = {}
        for name, seed in (("a", 3), ("b", 3), ("c", 4)):
            runs[name] = tmp_path / name
            argv = ["stability", "--config", str(path), "--out", str(runs[name])]
            assert main(argv + ["--seed", str(seed)]) == 0
        assert seen == [3] * 6 + [4] * 3
        for report in ("stability_report.json", "stability_rows.csv"):
            assert (runs["a"] / report).read_bytes() == (runs["b"] / report).read_bytes()

        def gaps(out):
            lines = [l for l in (out / "stability_rows.csv").read_text().splitlines()
                     if not l.startswith("#")]
            col = lines[0].split(",").index("dn_gap")
            return np.array([float(l.split(",")[col]) for l in lines[1:]])

        rtol = otlab.dnmap.LANCZOS_RTOL
        np.testing.assert_allclose(gaps(runs["c"]), gaps(runs["a"]), rtol=rtol, atol=0)

        norms = []
        for seed in (5, 6):
            out = tmp_path / f"d{seed}"
            assert main(["dn", "--config", str(path), "--out", str(out), "--seed", str(seed)]) == 0
            norms.append(json.loads((out / "dn_report.json").read_text())["operator_norm"])
        assert norms[0] == norms[1]

    def test_dn_norm_is_the_largest_singular_value(self, tmp_path):
        # at m=13 the whitened D-N matrix has a near-degenerate top singular
        # value, where a power iteration took 18 159 steps; the Lanczos norm
        # of `dn` still matches the oracle's dense SVD
        path = small_config(tmp_path, **{"grid.m_per_axis": 13})
        out = tmp_path / "o"
        assert main(["dn", "--config", str(path), "--out", str(out)]) == 0
        config = RunConfig.from_file(path)
        grid = config.grid()
        dn = otlab.dnmap.assemble_dn(config.medium(grid), grid)
        dense = dense_operator_norm(dn, otlab.dnmap.SobolevScale.build(grid))
        norm = json.loads((out / "dn_report.json").read_text())["operator_norm"]
        assert norm == pytest.approx(dense, rel=1e-12)

    def test_dn_without_save_assembles_no_matrix(self, tmp_path, monkeypatch):
        def no_matrix(*args, **kwargs):
            raise AssertionError("the D-N matrix was assembled")

        monkeypatch.setattr(otlab.dnmap, "assemble_dn", no_matrix)
        path = small_config(tmp_path)
        assert main(["dn", "--config", str(path), "--out", str(tmp_path / "o")]) == 0

    def test_dn_factors_nothing_and_builds_one_preconditioner(self, tmp_path, monkeypatch):
        def no_factor(op):
            raise AssertionError("an operator was factored")

        real = otlab.solver._sine_inverse
        built = []

        def recording(op):
            built.append(op)
            return real(op)

        monkeypatch.setattr(otlab.solver.DiscreteOperator, "factorization", no_factor)
        monkeypatch.setattr(otlab.solver, "_sine_inverse", recording)
        path = small_config(tmp_path)
        assert main(["dn", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
        assert len(built) == 1

    def test_dn_leaves_the_dense_eigenbasis_unbuilt(self, tmp_path, monkeypatch):
        def no_dense_basis(scale):
            raise AssertionError("the dense eigenbasis was built")

        monkeypatch.setattr(otlab.dnmap.SobolevScale, "eigenvectors", property(no_dense_basis))
        path = small_config(tmp_path)
        assert main(["dn", "--config", str(path), "--out", str(tmp_path / "o")]) == 0

    def test_gegenbauer_table(self, tmp_path):
        out = tmp_path / "out"
        assert main(["gegenbauer-table", "--out", str(out), "--max-m", "4", "--n", "4"]) == 0
        lines = (out / "gegenbauer_coefficients.csv").read_text().splitlines()
        data = [l for l in lines if not l.startswith("#")]
        # degrees 0..4 contribute 1+1+2+2+3 coefficient rows plus the header
        assert len(data) == 10

    def test_singular_decay_outputs(self, tmp_path):
        # the annulus needs the default 17^3 grid; 9^3 cannot hold it
        cfg = default_config_dict()
        cfg["experiments"]["singular"] = {"m": 0, "r_min_cells": 3, "r_max": 0.45}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        outs = [tmp_path / "r1", tmp_path / "r2"]
        for out in outs:
            assert main(["singular", "--config", str(path), "--out", str(out)]) == 0
        report = json.loads((outs[0] / "singular_report.json").read_text())
        assert np.isfinite(report["exponent_w"]) and "candidate_exponents" in report
        assert (outs[0] / "singular_decay.svg").exists()
        # the potential lemma: |u| ~ |x|^(2-s) for the sources |y|^-s Y_1
        fits = report["potential_decay"]
        assert [fit["s"] for fit in fits] == [4.5, 5.25]
        for fit in fits:
            assert fit["nu"] == int(fit["s"]) - 3 and fit["expected"] == 2.0 - fit["s"]
            assert abs(fit["exponent"] - fit["expected"]) <= 0.1
        for name in ("singular_report.json", "singular_decay.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_singular_reports_sup_um_on_every_fitted_shell(self, tmp_path):
        # at m=11 the annulus shell [0.022, 0.100) holds the nodes at 0.1,
        # while [r/1.3, 1.3 r] around its mid-radius r = 0.047 holds none:
        # sup |u_m| is taken on the annulus shells themselves
        cfg = default_config_dict()
        cfg["grid"]["m_per_axis"] = 11
        cfg["experiments"]["singular"].update({"r_min_cells": 0.05, "r_max": 0.45})
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert main(["singular", "--config", str(path), "--out", str(out)]) == 0
        lines = (out / "singular_decay.csv").read_text().splitlines()
        rows = [l.split(",") for l in lines if not l.startswith("#")]
        column = rows[0].index("sup_um")
        assert len(rows) > 1 and all(np.isfinite(float(row[column])) for row in rows[1:])

    def test_byte_identical_reruns(self, tmp_path):
        path = small_config(tmp_path)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        for out in (out1, out2):
            for command in ("check", "gegenbauer-table", "dn"):
                assert main([command, "--config", str(path), "--out", str(out)]) == 0
        for name in ("check_report.json", "gegenbauer_coefficients.csv", "dn_report.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


# every flag: its command, the grid it runs on, its argv, the key it writes and
# that key's value as JSON reads it (0.1, not 1, so both routes write "0.1")
FLAGS = [
    ("check", 9, ["--seed", "3"], "seed", 3),
    ("solve", 9, ["--grid", "11"], "grid.m_per_axis", 11),
    ("solve", 9, ["--no-reaction"], "experiments.solve.no_reaction", True),
    ("solve", 9, ["--dump-slice", "z=0.25"], "experiments.solve.dump_slice", "z=0.25"),
    ("singular", 17, ["--m", "2"], "experiments.singular.m", 2),
    ("stability", 9, ["--profile-order", "1"], "experiments.stability.profile_order", 1),
    ("stability", 9, ["--h", "2"], "experiments.stability.h", 2),
    ("stability", 9, ["--alpha", "0.22"], "apriori.alpha", 0.22),
    ("stability", 9, ["--eps-start", "0.1"], "experiments.stability.eps_start", 0.1),
    ("stability", 9, ["--eps-count", "3"], "experiments.stability.eps_count", 3),
    ("stability", 9, ["--k", "0.11"], "apriori.k", 0.11),
    ("gegenbauer-table", 9, ["--max-m", "3"], "experiments.gegenbauer_table.max_m", 3),
    ("gegenbauer-table", 9, ["--n", "4"], "experiments.gegenbauer_table.n", 4),
]


class TestFlags:
    @pytest.mark.parametrize("command, grid, flag, key, value", FLAGS, ids=[f[2][0] for f in FLAGS])
    def test_flag_equals_the_config_edit_and_is_stamped(
        self, tmp_path, capsys, command, grid, flag, key, value
    ):
        # a flag writes its key into the config before validation, so the run
        # and its fingerprint are those of a config file holding the value;
        # --help names that key's pointer
        with pytest.raises(SystemExit):
            main([command, "--help"])
        pointer = "/" + key.replace(".", "/")
        assert re.search(rf"^  {re.escape(flag[0])} .*-> {pointer}\b", capsys.readouterr().out, re.M)
        cfg = default_config_dict()
        cfg["grid"]["m_per_axis"] = grid
        cfg["experiments"]["stability"].update(h=1, eps_count=2)
        base = tmp_path / "base.json"
        base.write_text(json.dumps(cfg))
        *parents, leaf = key.split(".")
        node = cfg
        for name in parents:
            node = node[name]
        assert node.get(leaf) != value
        node[leaf] = value
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps(cfg))

        flagged_out, edited_out = tmp_path / "flagged", tmp_path / "edited"
        assert main([command, "--config", str(base), "--out", str(flagged_out)] + flag) == 0
        assert main([command, "--config", str(edited), "--out", str(edited_out)]) == 0
        names = sorted(path.name for path in flagged_out.iterdir())
        assert names == sorted(path.name for path in edited_out.iterdir())
        stamp, flagless = RunConfig.from_file(edited).fingerprint(), RunConfig.from_file(base).fingerprint()
        assert stamp != flagless
        for name in names:
            artifact = (flagged_out / name).read_bytes()
            assert artifact == (edited_out / name).read_bytes(), name
            assert stamp.encode() in artifact and flagless.encode() not in artifact, name

    def test_every_readme_cli_line_runs(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("\n## CLI\n", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
        lines = [shlex.split(line, comments=True) for line in block.splitlines() if line.startswith("otlab ")]
        assert len(lines) >= 6
        for i, argv in enumerate(lines):
            argv[argv.index("--out") + 1] = str(tmp_path / str(i))
            assert main(argv[1:]) == 0, " ".join(argv)
