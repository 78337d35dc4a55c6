import dataclasses
import json
from importlib import resources

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

    @pytest.mark.parametrize(
        "field, value", [("eps_start", 0.0), ("eps_start", -0.2), ("eps_count", 0)]
    )
    def test_non_positive_amplitude_ladder_exits_2(self, tmp_path, capsys, field, value):
        stability = {"profile_order": 0, "h": 0, "eps_start": 0.2, "eps_count": 3,
                     "width": 0.3, "depth": 0.4, field: value}
        path = small_config(tmp_path, **{"experiments.stability": stability})
        out = tmp_path / "o"
        assert main(["stability", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "/experiments/stability" in err and field in err
        assert not (out / "stability_rows.csv").exists()

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
        assert list(out.iterdir()) == []

    def test_ladder_without_admissible_amplitude_exits_2(self, tmp_path, capsys, monkeypatch):
        # mu_a + eps * profile leaves [1/lam, lam] at eps 5 and 2.5: no
        # amplitude is left, which is a configuration error found before
        # the sweep starts and before any report is written
        def no_sweep(*args, **kwargs):
            raise AssertionError("the sweep ran")

        monkeypatch.setattr(otlab.cli, "run_stability_experiment", no_sweep)
        stability = {"profile_order": 0, "h": 0, "eps_start": 5.0, "eps_count": 2,
                     "width": 0.3, "depth": 0.4}
        path = small_config(tmp_path, **{"experiments.stability": stability})
        out = tmp_path / "o"
        assert main(["stability", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "configuration error: /experiments/stability:" in err
        assert "[5.0, 2.5]" in err and "[1/lam, lam]" in err
        assert list(out.iterdir()) == []

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
        assert list(out.iterdir()) == []

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
        assert list(out.iterdir()) == []

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
        assert list(out.iterdir()) == []

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
        assert list(out.iterdir()) == []

    def test_internal_value_error_exits_3(self, tmp_path, capsys, monkeypatch):
        # only a ConfigError means "fix the input"; a ValueError from inside
        # the program is an internal failure
        def broken(config, out, args):
            raise ValueError("an internal fault")

        monkeypatch.setitem(otlab.cli.COMMANDS, "check", broken)
        assert main(["check", "--config", str(small_config(tmp_path)), "--out", str(tmp_path / "o")]) == 3
        assert "(ValueError): an internal fault" in capsys.readouterr().err

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

    def test_foreign_interior_factor_exits_3(self, tmp_path, capsys, monkeypatch):
        # a factor of 2 A_II in place of A_II fails the extension solves'
        # residual check inside the sweep
        real = otlab.solver.DiscreteOperator.factorization

        def doubled(op):
            return real(dataclasses.replace(op, matrix=2.0 * op.matrix, _cache={}))

        monkeypatch.setattr(otlab.solver.DiscreteOperator, "factorization", doubled)
        path = small_config(tmp_path)
        out = tmp_path / "o"
        assert main(["stability", "--config", str(path), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "numerical failure (ResidualError): perturbed extension solve: residual" in err
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
        assert list(out.iterdir()) == []
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
        assert list(out.iterdir()) == []

    def test_unconverged_solve_fails_the_residual_check(self, tmp_path, capsys, monkeypatch):
        # COCG stopped long before convergence: the explicit residual
        # check is the only failure path, in the API and in `otlab solve`
        monkeypatch.setattr(otlab.solver, "SOLVE_MAX_ITERATIONS", 2)
        path = small_config(tmp_path)
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

    def test_dn_save_load_roundtrip(self, tmp_path):
        # --save assembles the matrix beside the Schur product and leaves the
        # report as it is; --load takes the norm from the saved matrix
        path = small_config(tmp_path)
        saved = tmp_path / "dn.npz"
        out0, out1, out2 = tmp_path / "o0", tmp_path / "o1", tmp_path / "o2"
        assert main(["dn", "--config", str(path), "--out", str(out0)]) == 0
        assert main(["dn", "--config", str(path), "--out", str(out1), "--save", str(saved)]) == 0
        assert main(["dn", "--config", str(path), "--out", str(out2), "--load", str(saved)]) == 0
        assert (out0 / "dn_report.json").read_bytes() == (out1 / "dn_report.json").read_bytes()
        r1 = json.loads((out1 / "dn_report.json").read_text())
        r2 = json.loads((out2 / "dn_report.json").read_text())
        assert r1["operator_norm"] == pytest.approx(r2["operator_norm"], rel=1e-12)
        assert r1["bilinear_symmetry_residual"] <= 1e-12
        assert r2["bilinear_symmetry_residual"] <= 1e-12

    @pytest.mark.parametrize(
        "section, leaf, value, pointer",
        [("apriori", "k", 0.3, "/medium"), ("grid", "m_per_axis", 11, "/grid")],
    )
    def test_dn_load_rejects_a_foreign_file(self, tmp_path, capsys, section, leaf, value, pointer):
        path = small_config(tmp_path)  # k = 0.12, m = 9
        saved = tmp_path / "dn.npz"
        assert main(["dn", "--config", str(path), "--out", str(tmp_path / "o1"), "--save", str(saved)]) == 0
        cfg = json.loads(path.read_text())
        cfg[section][leaf] = value
        other = tmp_path / "other.json"
        other.write_text(json.dumps(cfg))
        capsys.readouterr()
        code = main(["dn", "--config", str(other), "--out", str(tmp_path / "o2"), "--load", str(saved)])
        assert code == 2
        err = capsys.readouterr().err
        stored = np.load(saved)[f"{pointer[1:]}_fingerprint"]
        run = RunConfig.from_file(str(other))
        grid = run.grid()
        wanted = grid.fingerprint() if pointer == "/grid" else run.medium(grid).fingerprint()
        assert pointer in err and str(stored) in err and wanted in err
        assert not (tmp_path / "o2" / "dn_report.json").exists()

    @pytest.mark.parametrize(
        "defect, pointer, cause",
        [
            ("missing", "--load", "No such file"),
            ("not-npz", "--load", "cannot read a D-N map"),
            ("no-matrix", "--load", "matrix is not a file"),
            ("cut", "/grid", "holds a (385, 385) matrix, the grid needs (386, 386)"),
            ("boundary_idx", "/grid", "boundary_idx differs from the grid's boundary nodes"),
            ("nan", "--load", "non-finite entry"),
            ("asymmetric", "--load", "the D-N matrix is not symmetric"),
        ],
    )
    def test_dn_load_rejects_a_damaged_file(self, tmp_path, capsys, defect, pointer, cause):
        path = small_config(tmp_path)  # m = 9: 386 boundary nodes
        saved = tmp_path / "dn.npz"
        assert main(["dn", "--config", str(path), "--out", str(tmp_path / "o1"), "--save", str(saved)]) == 0
        arrays = dict(np.load(saved))
        if defect == "missing":
            saved.unlink()
        elif defect == "not-npz":
            saved.write_text("not an archive")
        else:
            if defect == "no-matrix":
                del arrays["matrix"]
            elif defect == "cut":
                arrays["matrix"] = arrays["matrix"][:385, :385]
            elif defect == "boundary_idx":
                arrays["boundary_idx"] = arrays["boundary_idx"] + 1
            elif defect == "asymmetric":
                arrays["matrix"][3, 5] += 1e-6 * np.abs(arrays["matrix"]).max()
            else:
                arrays["matrix"][3, 5] = np.nan
            np.savez(saved, **arrays)
        capsys.readouterr()
        out = tmp_path / "o2"
        assert main(["dn", "--config", str(path), "--out", str(out), "--load", str(saved)]) == 2
        err = capsys.readouterr().err
        assert f"configuration error: {pointer}: " in err and str(saved) in err and cause in err
        assert list(out.iterdir()) == []

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
        dense = dense_operator_norm(dn.matrix, otlab.dnmap.SobolevScale.build(grid))
        norm = json.loads((out / "dn_report.json").read_text())["operator_norm"]
        assert norm == pytest.approx(dense, rel=1e-12)

    def test_dn_without_save_assembles_no_matrix(self, tmp_path, monkeypatch):
        def no_matrix(*args, **kwargs):
            raise AssertionError("the D-N matrix was assembled")

        monkeypatch.setattr(otlab.cli, "assemble_dn", no_matrix)
        monkeypatch.setattr(otlab.dnmap, "assemble_dn", no_matrix)
        path = small_config(tmp_path)
        assert main(["dn", "--config", str(path), "--out", str(tmp_path / "o")]) == 0

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
        out = tmp_path / "out"
        assert main(["singular", "--config", str(path), "--out", str(out)]) == 0
        report = json.loads((out / "singular_report.json").read_text())
        assert "exponent_w" in report and "candidate_exponents" in report
        assert (out / "singular_decay.svg").exists()

    def test_byte_identical_reruns(self, tmp_path):
        path = small_config(tmp_path)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        for out in (out1, out2):
            for command in ("check", "gegenbauer-table", "dn"):
                assert main([command, "--config", str(path), "--out", str(out)]) == 0
        for name in ("check_report.json", "gegenbauer_coefficients.csv", "dn_report.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
