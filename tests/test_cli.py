"""Command-line interface: configs, outputs, exit codes, reproducibility."""

import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

from mfdl.cli import EXIT_IO, EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, _fmt, main

RECIPES = ["lengthmap", "gradsim", "universality", "phase", "critical-line", "fixed-point"]


def _write_cfg(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _read_csv(path):
    header_cfg = None
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    comments = [ln for ln in lines if ln.startswith("#")]
    header_cfg = json.loads(comments[0].split("# config: ", 1)[1])
    body = [ln for ln in lines if not ln.startswith("#")]
    cols = body[0].split(",")
    rows = [ln.split(",") for ln in body[1:]]
    return header_cfg, cols, rows


class TestFormatting:
    def test_seventeen_digit_roundtrip(self):
        for x in (1 / 3, math.pi, 1e-300, 123456.789):
            assert float(_fmt(x)) == x

    def test_special_values(self):
        assert _fmt(math.inf) == "inf"
        assert _fmt(-math.inf) == "-inf"
        assert _fmt(float("nan")) == "nan"
        assert _fmt(None) == ""
        assert _fmt(True) == "true"
        assert _fmt(7) == "7"


class TestLengthmap:
    def test_theory_only(self, tmp_path, capsys):
        cfg = _write_cfg(
            tmp_path,
            "c.json",
            {"rhos": [1.0], "layers": 5, "simulate": False},
        )
        rc = main(["lengthmap", "--config", cfg, "--out", str(tmp_path), "--no-header-timestamp"])
        assert rc == EXIT_OK
        summary = json.loads(capsys.readouterr().out)
        header, cols, rows = _read_csv(summary["files"][0])
        assert cols == ["layer_or_qin", "theory", "sim_mean", "sim_stderr", "rho"]
        assert len(rows) == 5
        assert rows[0][2] == "" and rows[0][3] == ""  # theory-only: empty sim columns
        assert header["simulate"] is False

    def test_with_simulation_and_reproducibility(self, tmp_path, capsys):
        cfg = _write_cfg(
            tmp_path,
            "c.json",
            {"rhos": [1.0, 0.7], "layers": 4, "width": 32, "instances": 4},
        )
        rc = main(["lengthmap", "--config", cfg, "--out", str(tmp_path / "a"), "--no-header-timestamp"])
        assert rc == EXIT_OK
        files_a = json.loads(capsys.readouterr().out)["files"]
        rc = main(["lengthmap", "--config", cfg, "--out", str(tmp_path / "b"), "--no-header-timestamp"])
        assert rc == EXIT_OK
        files_b = json.loads(capsys.readouterr().out)["files"]
        for fa, fb in zip(files_a, files_b):
            a = Path(fa).read_bytes()
            b = Path(fb).read_bytes()
            assert a.replace(str(tmp_path / "a").encode(), b"") == b.replace(
                str(tmp_path / "b").encode(), b""
            )

    def test_single_instance_has_empty_stderr(self, tmp_path, capsys):
        """One instance gives the simulated mean and leaves the stderr blank."""
        cfg = _write_cfg(
            tmp_path,
            "c.json",
            {"rhos": [1.0, 0.7], "quantity": "c", "layers": 4, "width": 32, "instances": 1},
        )
        rc = main(["lengthmap", "--config", cfg, "--out", str(tmp_path)])
        assert rc == EXIT_OK
        for path in json.loads(capsys.readouterr().out)["files"]:
            _, cols, rows = _read_csv(path)
            assert all(r[cols.index("sim_mean")] != "" for r in rows)
            assert all(r[cols.index("sim_stderr")] == "" for r in rows)

    def test_correlation_quantity(self, tmp_path, capsys):
        cfg = _write_cfg(
            tmp_path,
            "c.json",
            {"rhos": [0.7], "quantity": "c", "layers": 4, "width": 32, "instances": 3,
             "activation": "erf", "sigma_w_sq": 0.81, "sigma_b_sq": 0.25},
        )
        rc = main(["lengthmap", "--config", cfg, "--out", str(tmp_path)])
        assert rc == EXIT_OK
        _, _, rows = _read_csv(json.loads(capsys.readouterr().out)["files"][0])
        cs = [float(r[1]) for r in rows]
        assert all(abs(c) <= 1.0 for c in cs)

    @pytest.mark.parametrize("act,rc", [("erf", EXIT_OK), ("hardtanh", EXIT_NUMERICAL)])
    def test_correlation_at_huge_input_length(self, tmp_path, capsys, act, rc):
        """q0 = 1e160: Erf's cross moment is finite there, and HardTanh's
        overflow is reported as the cross moment's, not the lengths'."""
        cfg = _write_cfg(
            tmp_path,
            "c.json",
            {"activation": act, "quantity": "c", "q0": 1e160, "simulate": False, "layers": 5},
        )
        assert main(["lengthmap", "--config", cfg, "--out", str(tmp_path)]) == rc
        if rc == EXIT_NUMERICAL:
            assert "q_ab=inf" in capsys.readouterr().err

    def test_invalid_activation_is_usage_error(self, tmp_path):
        cfg = _write_cfg(tmp_path, "c.json", {"activation": "selu"})
        assert main(["lengthmap", "--config", cfg, "--out", str(tmp_path)]) == EXIT_USAGE

    def test_unknown_config_key_is_usage_error(self, tmp_path):
        cfg = _write_cfg(tmp_path, "c.json", {"no_such_knob": 1})
        assert main(["lengthmap", "--config", cfg, "--out", str(tmp_path)]) == EXIT_USAGE


class TestGradsim:
    def test_linear_includes_closed_forms(self, tmp_path, capsys):
        cfg = _write_cfg(
            tmp_path,
            "c.json",
            {"depth": 6, "width": 24, "instances": 3, "sigma_w_sq": 0.5,
             "sigma_b_sq": 0.1, "rho": 1.0},
        )
        rc = main(["gradsim", "--config", cfg, "--out", str(tmp_path)])
        assert rc == EXIT_OK
        _, cols, rows = _read_csv(json.loads(capsys.readouterr().out)["files"][0])
        i_closed = cols.index("g_aa_closed")
        assert all(r[i_closed] != "" for r in rows)
        assert len(rows) == 6

    def test_nonlinear_closed_columns_empty(self, tmp_path, capsys):
        cfg = _write_cfg(
            tmp_path,
            "c.json",
            {"activation": "tanh", "depth": 4, "width": 16, "instances": 2,
             "sigma_w_sq": 1.4, "sigma_b_sq": 0.1},
        )
        rc = main(["gradsim", "--config", cfg, "--out", str(tmp_path)])
        assert rc == EXIT_OK
        _, cols, rows = _read_csv(json.loads(capsys.readouterr().out)["files"][0])
        i_closed = cols.index("g_ab_closed")
        assert all(r[i_closed] == "" for r in rows)

    def test_single_instance_has_empty_stderr(self, tmp_path, capsys):
        cfg = _write_cfg(
            tmp_path,
            "c.json",
            {"depth": 3, "width": 16, "instances": 1, "rho": 0.8},
        )
        rc = main(["gradsim", "--config", cfg, "--out", str(tmp_path)])
        assert rc == EXIT_OK
        _, cols, rows = _read_csv(json.loads(capsys.readouterr().out)["files"][0])
        i_err = cols.index("g_aa_stderr")
        assert all(r[i_err] == "" for r in rows)

    def test_single_instance_is_ensemble_instance_zero(self, tmp_path, capsys):
        """--instances 1 asks its products in the ensemble's order, so it
        writes the metrics of the ensemble's instance 0."""
        from mfdl.activations import Activation
        from mfdl.meanfield import MeanFieldParams
        from mfdl.simulator import NetworkConfig, _instance_metrics_many

        fields = {"activation": "tanh", "sigma_w_sq": 1.2, "sigma_b_sq": 0.1, "rho": 0.8,
                  "depth": 5, "width": 16, "instances": 1, "c0": 0.6, "q0": 0.9, "seed": 4}
        rc = main(["gradsim", "--config", _write_cfg(tmp_path, "c.json", fields),
                   "--out", str(tmp_path)])
        assert rc == EXIT_OK
        _, cols, rows = _read_csv(json.loads(capsys.readouterr().out)["files"][0])
        cfg = NetworkConfig(5, 16, MeanFieldParams(1.2, 0.1, 0.8), Activation.TANH, seed=4)
        want = _instance_metrics_many([cfg], 0, 0.6, [0.9], ("g_aa", "g_ab", "g_tilde_ab"))[0]
        i_col = cols.index("g_aa_mean")
        assert [r[i_col] for r in rows] == [_fmt(v) for v in want["g_aa"]]

    def test_divergent_length_map_fails_before_simulating(self, tmp_path, capsys, monkeypatch):
        """With q0 given and no length fixed point, the run ends with exit 2
        before any instance is simulated."""
        import mfdl.cli as cli

        def no_ensemble(*args, **kwargs):
            raise AssertionError("the ensemble ran before the theory failed")

        monkeypatch.setattr(cli, "ensemble_run_many", no_ensemble)
        fields = {"activation": "linear", "sigma_w_sq": 1.5, "sigma_b_sq": 0.1, "rho": 1.0,
                  "depth": 200, "width": 2000, "instances": 20, "q0": 1.0}
        rc = main(["gradsim", "--config", _write_cfg(tmp_path, "c.json", fields),
                   "--out", str(tmp_path)])
        assert rc == EXIT_NUMERICAL
        assert "non-convergence" in capsys.readouterr().err
        assert not (tmp_path / "gradsim.csv").exists()

    @pytest.mark.parametrize("instances", ["0", "-3"])
    def test_nonpositive_instances_is_usage_error(self, tmp_path, capsys, instances):
        cfg = _write_cfg(tmp_path, "c.json", {"depth": 3, "width": 8})
        rc = main(["gradsim", "--config", cfg, "--out", str(tmp_path), "--instances", instances])
        assert rc == EXIT_USAGE
        assert "instances must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "gradsim.csv").exists()


class TestUniversalityCmd:
    def test_small_run(self, tmp_path, capsys):
        cfg = _write_cfg(
            tmp_path,
            "c.json",
            {"rows": [{"activation": "tanh", "rho": 1.0, "width": 24}],
             "depth": 12, "instances": 2, "sigma_w_sq": 0.5, "sigma_b_sq": 0.1},
        )
        rc = main(["universality", "--config", cfg, "--out", str(tmp_path)])
        assert rc == EXIT_OK
        summary = json.loads(capsys.readouterr().out)
        _, cols, rows = _read_csv(summary["files"][0])
        assert cols == ["activation", "rho", "width", "metric", "exponent",
                        "intercept", "r_squared", "n_points", "n_excluded"]
        assert len(rows) == 3

    def test_empty_rows_is_usage_error(self, tmp_path):
        cfg = _write_cfg(tmp_path, "c.json", {"rows": []})
        assert main(["universality", "--config", cfg, "--out", str(tmp_path)]) == EXIT_USAGE

    def test_single_instance_is_usage_error(self, tmp_path, capsys):
        """A variance fit needs at least two instances per row."""
        cfg = _write_cfg(
            tmp_path,
            "c.json",
            {"rows": [{"activation": "linear", "rho": 1.0, "width": 8}],
             "depth": 4, "instances": 1},
        )
        assert main(["universality", "--config", cfg, "--out", str(tmp_path)]) == EXIT_USAGE
        assert "instances >= 2" in capsys.readouterr().err
        assert not (tmp_path / "universality_fits.csv").exists()


class TestPhaseCmd:
    def test_curve_file(self, tmp_path, capsys):
        cfg = _write_cfg(
            tmp_path,
            "c.json",
            {"activation": "tanh", "rho": 1.0, "grid_points": 6,
             "grid_min": 1.0, "grid_max": 3.0},
        )
        rc = main(["phase", "--config", cfg, "--out", str(tmp_path)])
        assert rc == EXIT_OK
        _, cols, rows = _read_csv(json.loads(capsys.readouterr().out)["files"][0])
        assert cols == ["sigma_w_sq", "q_star", "c_star", "chi1", "chi2", "xi1",
                        "xi2", "b12xi1", "b6xi2", "b12xi2", "trainable_bound", "converged"]
        assert len(rows) == 6
        for r in rows:
            assert r[-1] in ("true", "false")
            if r[-1] == "true":
                assert float(r[10]) == min(float(r[7]), float(r[9]))


class TestScalarCommands:
    def test_critical_line_linear(self, capsys):
        rc = main(["critical-line"])  # defaults: linear rho=1, bracket straddles 1
        assert rc == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert abs(out["sigma_w_sq_crit"] - 1.0) < 1e-6

    def test_fixed_point_reports_scales(self, capsys):
        rc = main(["fixed-point"])
        assert rc == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["xi1_infinite"] is False
        assert out["q_star"] > 0
        # map evaluations per fixed point
        assert out["counters"]["q_evals"] > 1
        assert out["counters"]["c_evals"] == 2

    def test_divergent_regime_exit_code(self, tmp_path):
        cfg = _write_cfg(
            tmp_path, "c.json",
            {"activation": "linear", "sigma_w_sq": 1.5, "sigma_b_sq": 0.5, "rho": 1.0},
        )
        assert main(["fixed-point", "--config", cfg]) == EXIT_NUMERICAL

    def test_io_error_exit_code(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        cfg = _write_cfg(tmp_path, "c.json", {"rhos": [1.0], "layers": 3, "simulate": False})
        rc = main(["lengthmap", "--config", cfg, "--out", str(blocker / "sub")])
        assert rc == EXIT_IO


class TestRecipeFields:
    """Each recipe accepts only the config fields and flags it uses."""

    @pytest.mark.parametrize(
        "command, field",
        [("phase", "seed"), ("phase", "threads"),
         ("critical-line", "seed"), ("critical-line", "threads"),
         ("critical-line", "out"), ("critical-line", "header_timestamp"),
         ("fixed-point", "seed"), ("fixed-point", "threads"),
         ("fixed-point", "out"), ("fixed-point", "header_timestamp"),
         # the walk's starting point does not change q*
         ("fixed-point", "q0"),
         # the CSV columns b12xi1, b6xi2 and b12xi2 name their factors
         ("phase", "bound_multiplier"), ("phase", "comparison_multiplier"),
         # the quadrature rule is fixed inside the moments module
         *[(command, "quad_order") for command in RECIPES]],
    )
    def test_unused_field_rejected(self, tmp_path, command, field):
        cfg = _write_cfg(tmp_path, "c.json", {field: 1})
        assert main([command, "--config", cfg]) == EXIT_USAGE

    @pytest.mark.parametrize("command", ["phase", "critical-line", "fixed-point"])
    @pytest.mark.parametrize("flag", ["--seed", "--threads", "--instances"])
    def test_ensemble_flags_rejected_on_theory_recipes(self, command, flag):
        assert main([command, flag, "3"]) == EXIT_USAGE

    @pytest.mark.parametrize("command", ["critical-line", "fixed-point"])
    def test_json_recipes_accept_and_ignore_output_flags(self, tmp_path, capsys, command):
        rc = main([command, "--out", str(tmp_path / "unused"), "--no-header-timestamp"])
        assert rc == EXIT_OK
        config = json.loads(capsys.readouterr().out)["config"]
        assert not {"seed", "threads", "out", "header_timestamp"} & set(config)
        assert not (tmp_path / "unused").exists()

    @pytest.mark.parametrize("command", RECIPES)
    def test_quad_order_flag_rejected(self, tmp_path, command):
        assert main([command, "--quad-order", "64", "--out", str(tmp_path)]) == EXIT_USAGE

    def test_malformed_value_is_usage_error(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, "c.json", {"depth": "abc"})
        assert main(["gradsim", "--config", cfg, "--out", str(tmp_path)]) == EXIT_USAGE
        assert "'depth'" in capsys.readouterr().err


class TestThreads:
    def test_flag_overrides_config(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, "c.json", {"rhos": [1.0], "layers": 3, "simulate": False, "threads": 2})
        rc = main(["lengthmap", "--config", cfg, "--out", str(tmp_path), "--threads", "1"])
        assert rc == EXIT_OK
        header, _, _ = _read_csv(json.loads(capsys.readouterr().out)["files"][0])
        assert header["threads"] == 1

    def test_null_is_malformed(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, "c.json", {"depth": 3, "width": 8, "instances": 2, "threads": None})
        assert main(["gradsim", "--config", cfg, "--out", str(tmp_path)]) == EXIT_USAGE
        assert "'threads'" in capsys.readouterr().err


def test_usage_error_on_missing_command():
    assert main([]) == EXIT_USAGE


class TestSharedParser:
    """main parses with one parser built on its first call."""

    def test_parser_built_once(self):
        from mfdl import cli

        assert cli._main_parser() is cli._main_parser()
        assert cli.build_parser() is not cli.build_parser()

    def test_same_outputs_as_a_fresh_parser_per_call(self, tmp_path, capsys, monkeypatch):
        from mfdl import cli

        small = _write_cfg(tmp_path, "small.json", {"depth": 3, "width": 8, "instances": 2})
        theory = _write_cfg(tmp_path, "theory.json", {"rhos": [1.0], "layers": 3, "simulate": False})
        out = str(tmp_path / "out")
        calls = [
            ["fixed-point", "--out", out, "--no-header-timestamp"],
            ["critical-line"],
            ["gradsim", "--config", small, "--out", out, "--no-header-timestamp"],
            ["gradsim", "--config", small, "--out", out, "--no-header-timestamp",
             "--seed", "5", "--instances", "3"],
            ["lengthmap", "--config", theory, "--out", out, "--no-header-timestamp", "--seed", "2"],
            ["gradsim", "--bogus"],  # usage error
            ["phase", "--seed", "3"],
            [],
            ["--help"],
            ["gradsim", "--help"],
            ["fixed-point", "--config", small],  # unknown field: config error
            ["gradsim", "--config", small, "--out", out, "--no-header-timestamp"],
        ]

        def run_all():
            seen = []
            for argv in calls:
                rc = main(list(argv))
                captured = capsys.readouterr()
                seen.append((rc, captured.out, captured.err))
            return seen

        shared = run_all()
        monkeypatch.setattr(cli, "_main_parser", cli.build_parser)
        fresh = run_all()
        assert shared == fresh
        assert [rc for rc, _, _ in shared] == [EXIT_OK] * 5 + [EXIT_USAGE] * 3 + [EXIT_OK] * 2 + [
            EXIT_USAGE, EXIT_OK]
        assert "usage: mfdl" in shared[8][1] and "--instances" in shared[9][1]
