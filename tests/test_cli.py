import dataclasses
import errno
import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from forcemotion import cli, fuzzy
from forcemotion.cli import format_trace_csv, main
from forcemotion.config import ConfigInvalid, preset_scenario
from forcemotion.sim import TRACE_COLUMNS, Trace

ROOT = Path(__file__).resolve().parents[1]


def run_cli(*argv):
    return main(list(argv))


def read_csv_column(path, name):
    rows = path.read_text().splitlines()
    index = rows[0].split(",").index(name)
    return np.array([float(line.split(",")[index]) for line in rows[1:]])


class TestRunCommand:
    def test_writes_csv_and_summary(self, tmp_path):
        code = run_cli("run", "--preset", "exp2", "--controller", "fuzzy", "--out", str(tmp_path))
        assert code == 0
        csv_path = tmp_path / "exp2_fuzzy.csv"
        summary_path = tmp_path / "exp2_fuzzy_summary.yaml"
        assert csv_path.exists() and summary_path.exists()
        header = csv_path.read_text().splitlines()[0]
        assert header == ",".join(TRACE_COLUMNS)
        summary = yaml.safe_load(summary_path.read_text())
        assert summary["config"]["setpoint"]["z"] == 30.0
        assert summary["metrics"]["z"]["first_contact_time"] == 0.0

    def test_override_recorded_in_summary(self, tmp_path):
        code = run_cli(
            "run", "--preset", "exp1", "--controller", "pi",
            "--set", "dt=0.005", "--out", str(tmp_path),
        )
        assert code == 0
        summary = yaml.safe_load((tmp_path / "exp1_pi_summary.yaml").read_text())
        assert summary["config"]["dt"] == 0.005
        assert summary["ticks"] == 601

    def test_invalid_key_rejected_without_outputs(self, tmp_path, capsys):
        out = tmp_path / "results"
        code = run_cli(
            "run", "--preset", "exp2", "--controller", "pi",
            "--set", "dtt=1", "--out", str(out),
        )
        assert code == 2
        assert "dtt" in capsys.readouterr().err
        assert not out.exists() or not list(out.iterdir())

    @pytest.mark.parametrize(
        "override,key",
        [
            ("dt=.nan", "dt"),
            ("setpoint.z=.nan", "setpoint.z"),
            ("setpoint.x=-.inf", "setpoint.x"),
            ("press_direction.x=0.5", "press_direction.x"),
            pytest.param("dt=" + "1" + "0" * 400, "dt", id="dt=401-digit-integer"),
            ("duration=1e9", "duration"),
            ("duration=0.015", "duration"),
            ("duration=3.006", "duration"),
            ("dt=0.007", "duration"),
            ("--seed=-5", "seed"),
            ("seed=1.5", "seed"),
            ("seed=true", "seed"),
            ("environment.seed=-3", "environment.seed"),
            ("sensor.seed=abc", "sensor.seed"),
            ("sensor.seed=1.5", "sensor.seed"),
            ("sensor.seed=false", "sensor.seed"),
            pytest.param("seed=" + "1" * 4401, "seed", id="seed=4401-digit-integer"),
            (
                "environment.obstacles=[{type: rough_surface, height_base: abc}]",
                "environment.obstacles[0].height_base",
            ),
            ("controller=[pi]", "controller"),
            ("environment.obstacles=[{type: [a]}]", "environment.obstacles[0].type"),
            ("path=[{t: 0.0, x: abc, z: 0.2}]", "path[0].x"),
            (
                "environment.obstacles=[{type: box, x_min: 0.0, x_max: 1.0, z_min: 0.0, z_max: '0.3'}]",
                "environment.obstacles[0].z_max",
            ),
            ("rule_file=5", "rule_file"),
            ("rule_file=[a]", "rule_file"),
            ("rule_file=true", "rule_file"),
            ("rule_file={a: 1}", "rule_file"),
        ],
    )
    def test_bad_numbers_exit_2_naming_the_key(self, override, key, tmp_path, capsys):
        out = tmp_path / "results"
        flag = [override] if override.startswith("--") else ["--set", override]
        code = run_cli(
            "run", "--preset", "exp1", "--controller", "pi",
            *flag, "--out", str(out),
        )
        assert code == 2
        err = capsys.readouterr().err
        assert f"config error: {key}: expected" in err
        # PyYAML reads 1e9 and 1.0e9 as strings; the message says how to write the number.
        if override == "duration=1e9":
            assert "got the string '1e9'" in err and "write it as 1.0e+9" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "override,message",
        [
            ("dt=1.0e-300", "duration / dt"),
            ("dt=5.0e-324", "duration / dt"),
            ("arm.tau_servo=0.0", "tau_servo must be positive"),
            ("arm.qdot_max=-1.0", "qdot_max must be positive"),
        ],
    )
    def test_bad_scenario_values_exit_2(self, override, message, tmp_path, capsys):
        out = tmp_path / "results"
        code = run_cli(
            "run", "--preset", "exp2", "--controller", "pi",
            "--set", override, "--out", str(out),
        )
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "override,message",
        [
            ("arm.tau_servo=0.0", "config error: arm.tau_servo must be positive"),
            ("limits.z.du_max=-1.0", "config error: limits.z.du_max must be nonnegative"),
            ("gains.pi.z.kp=-1.0", "config error: gains.pi.z: PI gains must be nonnegative"),
            ("sensor.noise_sigma=-1.0", "config error: sensor.noise_sigma must be nonnegative"),
            (
                "environment.obstacles=[{type: rough_surface, height_base: 0.25, stiffness: 0.0}]",
                "config error: environment.obstacles[0].stiffness must be positive",
            ),
            (
                "environment.obstacles=[{type: rough_surface, height_base: 0.25},"
                " {type: box, x_min: 0.7, x_max: 0.6, z_min: 0.1, z_max: 0.2}]",
                "config error: environment.obstacles[1]: box extents must be ordered",
            ),
        ],
        ids=["arm", "limits", "gains", "sensor", "obstacle-field", "obstacle"],
    )
    def test_library_checks_name_the_config_key(self, override, message, tmp_path, capsys):
        out = tmp_path / "results"
        code = run_cli(
            "run", "--preset", "exp2", "--controller", "pi",
            "--set", override, "--out", str(out),
        )
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "surface",
        [
            "roughness_wavelength: 1.0e-308, roughness_amplitude: 0.001",
            "roughness_wavelength: 1.0e-307, noise_amplitude: 0.0002",
        ],
        ids=["roughness", "noise"],
    )
    def test_profile_phase_beyond_float_range_exits_2(self, surface, tmp_path, capsys):
        # 2*pi*x / wavelength (or a noise frequency times x) overflowed to
        # inf, and math.sin(inf) ended the run in a ValueError traceback.
        out = tmp_path / "results"
        code = run_cli(
            "run", "--preset", "exp2", "--controller", "pi",
            "--set", f"environment.obstacles=[{{type: rough_surface, height_base: 0.25, {surface}}}]",
            "--out", str(out),
        )
        assert code == 2
        assert "config error: environment.obstacles[0].roughness_wavelength" in capsys.readouterr().err
        assert not out.exists()

    def test_huge_workspace_target_prints_in_exponent_form(self, tmp_path, capsys):
        out = tmp_path / "results"
        code = run_cli(
            "run", "--preset", "exp2", "--controller", "pi",
            "--set", "gains.pi.z.ki=1.0e+300", "--set", "limits.z.u_min=-1.0e+300",
            "--set", "limits.z.u_max=1.0e+300", "--set", "limits.z.du_max=1.0e+300",
            "--out", str(out),
        )
        assert code == 3
        # In fixed point, the target's z took 306 characters.
        assert capsys.readouterr().err == (
            "simulation aborted: tick 1 (t=0.010 s): "
            "target (0.5507, -1.000e+300) outside workspace [0.0000, 1.0000]\n"
        )
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    def test_force_beyond_float_range_reports_inf_without_warning(self, tmp_path, capsys):
        # A 1e308 N bias: the overshoot and the ITAE leave float range and
        # read inf. The errors stay finite, so the steady-state RMS does not.
        code = run_cli(
            "run", "--preset", "exp2", "--controller", "pi",
            "--set", "sensor.bias.z=1.0e+308", "--out", str(tmp_path),
        )
        assert code == 0
        assert "overshoot inf %, not settled, steady RMS 1.000e+308 N" in capsys.readouterr().out
        metrics = yaml.safe_load((tmp_path / "exp2_pi_summary.yaml").read_text())["metrics"]["z"]
        assert metrics["overshoot_pct"] == metrics["itae"] == math.inf
        assert metrics["steady_state_rms"] == pytest.approx(1.0e308)

    @pytest.mark.filterwarnings("error")
    def test_steady_rms_of_huge_finite_errors_is_finite(self, tmp_path, capsys):
        # Sensor noise of 1e200 N: the squared errors overflow, the errors
        # and their RMS do not.
        code = run_cli(
            "run", "--preset", "exp2", "--controller", "pi",
            "--set", "sensor.noise_sigma=1.0e+200", "--out", str(tmp_path),
        )
        assert code == 0
        assert "steady RMS 9.737e+199 N" in capsys.readouterr().out
        rms = yaml.safe_load((tmp_path / "exp2_pi_summary.yaml").read_text())["metrics"]["z"]["steady_state_rms"]
        tail = read_csv_column(tmp_path / "exp2_pi.csv", "f_z")[240:] - 30.0
        assert rms == pytest.approx(1.0e200 * math.sqrt(np.mean((tail / 1.0e200) ** 2)), rel=1e-8)

    @pytest.mark.filterwarnings("error")
    def test_itae_of_huge_finite_errors_is_finite(self, tmp_path):
        # A 4e306 N bias: the ITAE's sum overflowed before its multiplication
        # by dt, so it read inf although the true ITAE, about 4e306 * 4.515,
        # is within float range.
        code = run_cli(
            "run", "--preset", "exp2", "--controller", "pi",
            "--set", "sensor.bias.z=4.0e+306", "--out", str(tmp_path),
        )
        assert code == 0
        metrics = yaml.safe_load((tmp_path / "exp2_pi_summary.yaml").read_text())["metrics"]["z"]
        f = read_csv_column(tmp_path / "exp2_pi.csv", "f_z")
        t = read_csv_column(tmp_path / "exp2_pi.csv", "t")
        assert metrics["itae"] == pytest.approx(np.sum(t * np.abs(30.0 - f) / 4.0e306) * 0.01 * 4.0e306)
        assert metrics["steady_state_rms"] == pytest.approx(4.0e306)

    @pytest.mark.filterwarnings("error")
    def test_force_infinite_from_the_first_tick_gives_inf_itae(self, tmp_path):
        # A floor at 1e308 m presses an infinite force from t = 0. The ITAE
        # took 0 * inf at t = 0: a RuntimeWarning and `itae: .nan`.
        code = run_cli(
            "run", "--preset", "exp2", "--controller", "fuzzy",
            "--set", "environment.obstacles=[{type: rough_surface, height_base: 1.0e+308}]",
            "--out", str(tmp_path),
        )
        assert code == 0
        metrics = yaml.safe_load((tmp_path / "exp2_fuzzy_summary.yaml").read_text())["metrics"]["z"]
        assert metrics["max_force"] == metrics["itae"] == math.inf

    def test_huge_metrics_print_in_exponent_form(self, tmp_path, capsys):
        # A finite overshoot of ~3.3e300 % (and an ITAE of ~4.5e300) printed
        # in fixed point filled 369- and 672-character lines.
        argv = ("--preset", "exp2", "--set", "sensor.bias.z=1.0e+300", "--out", str(tmp_path))
        assert run_cli("run", "--controller", "pi", *argv) == 0
        assert run_cli("compare", *argv) == 0
        out = capsys.readouterr().out
        assert "overshoot 3.333e+300 %" in out
        assert "itae 4.515e+300" in out
        # One line from run, one per law from compare (the "wrote" lines hold tmp paths).
        metric_lines = [line for line in out.splitlines() if "overshoot" in line]
        assert len(metric_lines) == 3
        assert max(len(line) for line in metric_lines) < 120
        # Only the printed lines change: the files keep every digit. Both
        # steady-state RMS values are 1.0e+300, so their delta is 0.0.
        digests = {
            "exp2_pi_summary.yaml": "fa266059f7238ac7657b22141b49e27248ad78b0e79c4731b247d7b1e0cf45aa",
            "exp2_compare.yaml": "86ddf2f32a6e7073b9f445ff256f5e4d66b5f5a2a872ed434471abe1c20b22cd",
        }
        for name, digest in digests.items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest

    def test_huge_integer_seed_still_runs(self, tmp_path):
        code = run_cli(
            "run", "--preset", "exp1", "--controller", "pi",
            "--seed", "1" + "0" * 400, "--out", str(tmp_path),
        )
        assert code == 0

    def test_unusable_sensor_seed_exits_2(self, tmp_path, capsys):
        out = tmp_path / "results"
        code = run_cli(
            "run", "--preset", "exp1", "--controller", "pi",
            "--set", "sensor.seed=-5", "--out", str(out),
        )
        assert code == 2
        assert "sensor.seed: expected a non-negative integer, got -5" in capsys.readouterr().err
        assert not out.exists()

    def test_name_cannot_escape_out_dir(self, tmp_path, capsys):
        out = tmp_path / "a" / "b"
        code = run_cli(
            "run", "--preset", "exp1", "--controller", "pi",
            "--set", "name=../../evil", "--out", str(out),
        )
        assert code == 2
        assert "name: expected a file name stem" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_byte_identical_reruns(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        for out in (out_a, out_b):
            assert run_cli("run", "--preset", "exp3", "--controller", "fuzzy", "--out", str(out)) == 0
        assert (out_a / "exp3_fuzzy.csv").read_bytes() == (out_b / "exp3_fuzzy.csv").read_bytes()

    def test_seed_flag_reseeds_preset(self, tmp_path):
        # exp2's surface noise depends on the master seed, so a different
        # --seed must change the trace while equal seeds reproduce it.
        payloads = {}
        for label, seed in (("a", "7"), ("b", "7"), ("c", "8")):
            out = tmp_path / label
            assert run_cli(
                "run", "--preset", "exp2", "--controller", "pi",
                "--seed", seed, "--out", str(out),
            ) == 0
            payloads[label] = (out / "exp2_pi.csv").read_bytes()
        assert payloads["a"] == payloads["b"]
        assert payloads["a"] != payloads["c"]

    def test_workspace_abort_leaves_no_partial_csv(self, tmp_path):
        config = tmp_path / "bad.yaml"
        config.write_text(
            yaml.safe_dump(
                {
                    "controller": "pi",
                    "setpoint": {"x": 0.0, "z": 10.0},
                    "selection": {"x": False, "z": True},
                    "press_direction": {"x": 1, "z": 1},
                    "path": [{"t": 0.0, "x": 0.75, "z": 0.65}],
                    "limits": {
                        "x": {"u_min": -0.05, "u_max": 0.05, "du_max": 0.0005},
                        "z": {"u_min": -0.05, "u_max": 0.05, "du_max": 0.0005},
                    },
                    "gains": {"pi": {
                        "x": {"kp": 0.0, "ki": 0.0002},
                        "z": {"kp": 0.0, "ki": 0.0002},
                    }},
                }
            )
        )
        out = tmp_path / "results"
        code = run_cli("run", "--config", str(config), "--out", str(out))
        assert code == 3
        leftovers = list(out.iterdir()) if out.exists() else []
        assert leftovers == []

    def test_nan_correction_aborts_with_workspace_exit(self, tmp_path, capsys):
        # Forces sensed as inf make de = inf - inf = NaN, which the PI clamp
        # passes on into the commanded pose.
        out = tmp_path / "results"
        code = run_cli(
            "run", "--preset", "exp2", "--controller", "pi",
            "--set", "sensor.noise_sigma=1.0e+308", "--out", str(out),
        )
        assert code == 3
        assert "nan) outside workspace" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_config_file(self, capsys):
        assert run_cli("run", "--config", "/nonexistent.yaml") == 2
        assert "not found" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "make",
        [
            pytest.param(Path.mkdir, id="directory"),
            pytest.param(lambda p: p.write_bytes(b"\xff\xfe\x00"), id="not-utf8"),
            pytest.param(lambda p: p.write_text("seed: " + "1" * 4401), id="4401-digit-integer"),
        ],
    )
    def test_unreadable_config_path_exits_2(self, make, tmp_path, capsys):
        path = tmp_path / "cfg"
        make(path)
        assert run_cli("run", "--config", str(path), "--out", str(tmp_path / "out")) == 2
        assert f"config file {path} cannot be read" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_requires_preset_or_config(self, capsys):
        assert run_cli("run") == 2


class TestTraceCsv:
    def test_matches_per_value_formatting(self):
        # Reference: every value formatted on its own with an f-string.
        def reference(trace):
            lines = [",".join(TRACE_COLUMNS)]
            for row in trace.values:
                lines.append(",".join(f"{v:.9g}" for v in row))
            return "\n".join(lines) + "\n"

        rng = np.random.default_rng(5)
        values = rng.normal(scale=1e3, size=(40, len(TRACE_COLUMNS)))
        values[0, :5] = (-0.0, 1e-300, 5e-324, 1e17, 2.2250738585072014e-308 / 3)
        values[1, :6] = (0.0, -1e17, 123456789.5, 1.0000000005, -2.5e-7, 1e16 + 2)
        values[2] *= 1e-12
        trace = Trace(values)
        assert format_trace_csv(trace) == reference(trace)
        empty = Trace(np.empty((0, len(TRACE_COLUMNS))))
        assert format_trace_csv(empty) == reference(empty)


class TestCompareCommand:
    def test_report_for_exp2(self, tmp_path):
        code = run_cli("compare", "--preset", "exp2", "--out", str(tmp_path))
        assert code == 0
        report = yaml.safe_load((tmp_path / "exp2_compare.yaml").read_text())
        body = report["axes"]["z"]
        assert body["setpoint"] == 30.0
        for kind in ("pi", "fuzzy"):
            assert (tmp_path / f"exp2_{kind}.csv").exists()
            assert 29.0 <= body[kind]["steady_state_rms"] + 30.0  # metrics present
        assert set(body["gains"]) == {"pi", "fuzzy"}

    def test_exp1_fuzzy_beats_pi(self, tmp_path):
        code = run_cli("compare", "--preset", "exp1", "--out", str(tmp_path))
        assert code == 0
        report = yaml.safe_load((tmp_path / "exp1_compare.yaml").read_text())
        body = report["axes"]["z"]
        assert body["fuzzy"]["overshoot_pct"] < body["pi"]["overshoot_pct"]
        assert body["fuzzy"]["settling_time"] < body["pi"]["settling_time"]

    def test_identical_traces_zero_deltas(self, tmp_path):
        # Corrections pinned at 0 leave both laws with the uncontrolled
        # trace, which settles at 100 N on the block.
        code = run_cli(
            "compare", "--preset", "exp1",
            "--set", "limits.x.u_min=0.0", "--set", "limits.x.u_max=0.0",
            "--set", "limits.z.u_min=0.0", "--set", "limits.z.u_max=0.0",
            "--set", "setpoint.z=100.0", "--out", str(tmp_path),
        )
        assert code == 0
        pi, fz = (read_csv_column(tmp_path / f"exp1_{kind}.csv", "f_z") for kind in ("pi", "fuzzy"))
        assert np.array_equal(pi, fz)
        body = yaml.safe_load((tmp_path / "exp1_compare.yaml").read_text())["axes"]["z"]
        assert body["pi"] == body["fuzzy"] and body["pi"]["settled"]
        assert body["deltas_fuzzy_minus_pi"] == {
            "overshoot_pct": 0.0, "settling_time": 0.0, "steady_state_rms": 0.0,
            "max_force": 0.0, "itae": 0.0,
        }

    def test_gains_carried_for_audit(self, tmp_path):
        code = run_cli("compare", "--preset", "exp1", "--out", str(tmp_path))
        assert code == 0
        body = yaml.safe_load((tmp_path / "exp1_compare.yaml").read_text())["axes"]["z"]
        for kind in ("pi", "fuzzy"):
            gains = preset_scenario("exp1", kind).gains
            assert body["gains"][kind] == {axis: dataclasses.asdict(g) for axis, g in gains.items()}

    def test_axis_where_only_fuzzy_never_touches_carries_its_error(self, tmp_path, capsys):
        # A negative setpoint makes the fuzzy law retract before the block;
        # the PI law, with zero gains, still dives into it.
        override = (
            "--set", "setpoint.z=-10.0", "--set", "gains.pi.z.kp=0.0", "--set", "gains.pi.z.ki=0.0",
        )
        assert run_cli("run", "--preset", "exp1", "--controller", "pi", *override,
                       "--out", str(tmp_path / "pi")) == 0
        summary = yaml.safe_load((tmp_path / "pi" / "exp1_pi_summary.yaml").read_text())
        assert "error" not in summary["metrics"]["z"]
        assert run_cli("compare", "--preset", "exp1", *override, "--out", str(tmp_path)) == 0
        body = yaml.safe_load((tmp_path / "exp1_compare.yaml").read_text())["axes"]["z"]
        assert body == {"setpoint": -10.0, "error": "no contact on axis z (threshold 0.1 N)"}
        assert capsys.readouterr().out.splitlines()[-1] == "    no contact on axis z (threshold 0.1 N)"

    def test_infinite_metrics_give_null_deltas(self, tmp_path):
        # A 1e308 N sensor bias makes both laws' overshoot and ITAE inf;
        # inf - inf is no delta. Their finite RMS values differ by 0.0.
        code = run_cli("compare", "--preset", "exp2", "--set", "sensor.bias.z=1.0e+308",
                       "--out", str(tmp_path))
        assert code == 0
        text = (tmp_path / "exp2_compare.yaml").read_text()
        assert ".nan" not in text
        body = yaml.safe_load(text)["axes"]["z"]
        for key in ("overshoot_pct", "itae"):
            assert body["pi"][key] == body["fuzzy"][key] == math.inf
            assert body["deltas_fuzzy_minus_pi"][key] is None
        assert body["pi"]["steady_state_rms"] == body["fuzzy"]["steady_state_rms"] == pytest.approx(1.0e308)
        assert body["deltas_fuzzy_minus_pi"]["max_force"] == 0.0
        assert body["deltas_fuzzy_minus_pi"]["steady_state_rms"] == 0.0

    def test_exp2_traces_hold_setpoint_mean(self, tmp_path):
        code = run_cli("compare", "--preset", "exp2", "--out", str(tmp_path))
        assert code == 0
        for kind in ("pi", "fuzzy"):
            f_z = read_csv_column(tmp_path / f"exp2_{kind}.csv", "f_z")
            assert 29.0 <= f_z[len(f_z) // 2:].mean() <= 31.0

    def test_preset_and_config_conflict(self, tmp_path, capsys):
        config = tmp_path / "c.yaml"
        config.write_text("controller: pi\nsetpoint: {x: 0.0, z: 10.0}\n")
        code = run_cli("run", "--preset", "exp2", "--config", str(config))
        assert code == 2
        assert "mutually exclusive" in capsys.readouterr().err


class TestTuneCommand:
    GRID_ARGS = (
        "--set", "tuner.grid.kp=[0.0001]",
        "--set", "tuner.grid.ki=[2.0e-5, 5.0e-5]",
    )

    def test_single_point_leaderboard(self, tmp_path):
        code = run_cli(
            "tune", "--preset", "exp2", "--controller", "pi",
            "--set", "tuner.grid.kp=[0.0001]", "--set", "tuner.grid.ki=[5.0e-5]",
            "--out", str(tmp_path),
        )
        assert code == 0
        board = yaml.safe_load((tmp_path / "exp2_pi_leaderboard.yaml").read_text())
        assert len(board["entries"]) == 1

    def test_rerun_is_byte_identical(self, tmp_path):
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            code = run_cli(
                "tune", "--preset", "exp2", "--controller", "pi", *self.GRID_ARGS,
                "--out", str(out),
            )
            assert code == 0
            outs.append((out / "exp2_pi_leaderboard.yaml").read_bytes())
        assert outs[0] == outs[1]

    def test_best_config_runs_directly(self, tmp_path):
        code = run_cli(
            "tune", "--preset", "exp2", "--controller", "pi", *self.GRID_ARGS,
            "--out", str(tmp_path),
        )
        assert code == 0
        best = tmp_path / "exp2_pi_best.yaml"
        code = run_cli("run", "--config", str(best), "--out", str(tmp_path / "rerun"))
        assert code == 0

    def test_missing_grid_is_config_error(self, tmp_path, capsys):
        code = run_cli("tune", "--preset", "exp2", "--controller", "pi", "--out", str(tmp_path))
        assert code == 2
        assert "tuner.grid" in capsys.readouterr().err

    def test_non_finite_grid_value_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "results"
        code = run_cli(
            "tune", "--preset", "exp2", "--controller", "pi",
            "--set", "tuner.grid.kp=[0.0001, .nan]", "--set", "tuner.grid.ki=[5.0e-5]",
            "--out", str(out),
        )
        assert code == 2
        assert "tuner.grid.kp: expected a finite number" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("values", ["[0.0, 0.0]", "[0.0, -0.0]", "[1, 1.0]", "[0.5, 2, 0.5]"])
    def test_duplicate_grid_value_is_config_error(self, values, tmp_path, capsys):
        # Values that compare equal name one grid point: a duplicate would be
        # simulated twice and listed twice.
        out = tmp_path / "results"
        code = run_cli(
            "tune", "--preset", "exp2", "--controller", "pi",
            "--set", f"tuner.grid.kp={values}", "--set", "tuner.grid.ki=[5.0e-5]",
            "--out", str(out),
        )
        assert code == 2
        assert "config error: tuner.grid.kp: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "controller,grid,key",
        [
            ("pi", ["tuner.grid.kp=[-1.0]", "tuner.grid.ki=[5.0e-5]"], "tuner.grid.kp"),
            ("pi", ["tuner.grid.kx=[1.0e-3]"], "tuner.grid.kx"),
            ("fuzzy", ["tuner.grid.kp=[0.1]"], "tuner.grid.ki"),
            ("pi", [*GRID_ARGS[1::2], "tuner.band_pct=-0.5"], "tuner.band_pct"),
            ("pi", [*GRID_ARGS[1::2], "tuner.band_pct=0.0"], "tuner.band_pct"),
        ],
        ids=["negative-gain", "gain-the-law-lacks", "missing-gain", "negative-band", "zero-band"],
    )
    def test_bad_grid_is_config_error(self, controller, grid, key, tmp_path, capsys):
        out = tmp_path / "results"
        overrides = [arg for item in grid for arg in ("--set", item)]
        code = run_cli(
            "tune", "--preset", "exp2", "--controller", controller, *overrides,
            "--out", str(out),
        )
        assert code == 2
        assert f"config error: {key}: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "override", ["selection.z=false", "tuner.axis=x"], ids=["axis-deselected", "deselected-axis"]
    )
    def test_tuned_axis_must_be_selected(self, override, tmp_path, capsys):
        # A deselected axis evaluates no law, so every grid point would score alike.
        out = tmp_path / "results"
        code = run_cli(
            "tune", "--config", str(ROOT / "tuning" / "exp2_pi_best.yaml"),
            "--set", override, "--out", str(out),
        )
        assert code == 2
        assert "config error: tuner.axis: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("weight", ["overshoot", "not_settled"])
    def test_negative_weight_is_config_error(self, weight, tmp_path, capsys):
        # not_settled = -1000 ranked an unsettled run best, exit 0.
        out = tmp_path / "results"
        code = run_cli(
            "tune", "--config", str(ROOT / "tuning" / "exp2_pi_best.yaml"),
            "--set", f"tuner.weights.{weight}=-1000.0", "--out", str(out),
        )
        assert code == 2
        assert f"config error: tuner.weights.{weight} must be nonnegative" in capsys.readouterr().err
        assert not out.exists()

    def test_huge_best_objective_prints_in_exponent_form(self, tmp_path, capsys):
        code = run_cli(
            "tune", "--config", str(ROOT / "tuning" / "exp2_pi_best.yaml"),
            "--set", "tuner.weights.overshoot=1.0e+308", "--out", str(tmp_path),
        )
        assert code == 0
        last = capsys.readouterr().out.splitlines()[-1]
        assert last == "  best gains: {'kp': 0.0005, 'ki': 0.0002} (objective 1.688e+308)"
        board = yaml.safe_load((tmp_path / "exp2_pi_leaderboard.yaml").read_text())
        assert board["entries"][0]["objective"] == pytest.approx(1.6878113649708834e308)

    def test_zero_weight_drops_an_infinite_term(self, tmp_path, capsys):
        # 0 * inf overshoot made every objective NaN, and NaN ranked "best".
        # At a setpoint of 1e-307 N every overshoot percentage is inf.
        code = run_cli(
            "tune", "--config", str(ROOT / "tuning" / "exp2_pi_best.yaml"),
            "--set", "tuner.weights.overshoot=0.0", "--set", "setpoint.z=1.0e-307",
            "--out", str(tmp_path),
        )
        assert code == 0
        assert "nan" not in capsys.readouterr().out
        board = yaml.safe_load((tmp_path / "exp2_pi_leaderboard.yaml").read_text())
        for entry in board["entries"]:
            assert entry["overshoot_pct"] == math.inf
            assert math.isfinite(entry["objective"])

    def test_no_finite_objective_exits_4_writing_nothing(self, tmp_path, capsys):
        # A 1e308 N sensor bias makes every objective inf; the gain tuple's
        # order alone picked the smallest gains as "best".
        out = tmp_path / "out"
        code = run_cli(
            "tune", "--config", str(ROOT / "tuning" / "exp2_pi_best.yaml"),
            "--set", "sensor.bias.z=1.0e+308", "--out", str(out),
        )
        assert code == 4
        assert capsys.readouterr().err == "tuner failed: no grid point scored a finite objective\n"
        assert not out.exists()

    def test_all_runs_failed_exit_code(self, tmp_path):
        config = tmp_path / "free.yaml"
        config.write_text(
            yaml.safe_dump(
                {
                    "controller": "pi",
                    "setpoint": {"x": 0.0, "z": 0.0},
                    "path": [{"t": 0.0, "x": 0.6, "z": 0.2}],
                    "tuner": {"grid": {"kp": [0.0001], "ki": [5.0e-5]}},
                }
            )
        )
        code = run_cli("tune", "--config", str(config), "--out", str(tmp_path / "out"))
        assert code == 4


class TestOutputPaths:
    """An --out that cannot be a directory fails before anything is
    simulated, a result that cannot be written fails naming its file, and
    neither leaves a *.tmp file behind."""

    COMMANDS = {
        "run": ("run", "--preset", "exp2", "--controller", "pi"),
        "compare": ("compare", "--preset", "exp2"),
        "tune": ("tune", "--preset", "exp2", "--controller", "pi", *TestTuneCommand.GRID_ARGS),
    }

    @pytest.fixture
    def no_simulation(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("simulated before --out was checked")

        monkeypatch.setattr(cli, "run", refuse)
        monkeypatch.setattr(cli, "tune", refuse)

    @pytest.mark.parametrize("below", [False, True], ids=["a-file", "below-a-file"])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_out_that_cannot_be_a_directory_exits_2(self, command, below, no_simulation, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("kept\n")
        out = blocker / "sub" if below else blocker
        assert run_cli(*self.COMMANDS[command], "--out", str(out)) == 2
        assert f"config error: --out {out}: {blocker} is not a directory" in capsys.readouterr().err
        assert blocker.read_text() == "kept\n"
        assert list(tmp_path.iterdir()) == [blocker]

    @pytest.mark.parametrize(
        "command,name",
        [
            ("run", "exp2_pi.csv"),
            ("run", "exp2_pi_summary.yaml"),
            ("compare", "exp2_fuzzy.csv"),
            ("compare", "exp2_compare.yaml"),
            ("tune", "exp2_pi_leaderboard.yaml"),
            ("tune", "exp2_pi_best.yaml"),
            ("run", "exp2_pi_summary.yaml.tmp"),
            ("tune", "exp2_pi_best.yaml.tmp"),
        ],
    )
    def test_result_name_held_by_a_directory_exits_2(self, command, name, no_simulation, tmp_path, capsys):
        # Checked before anything is simulated: each command used to write
        # the results before it met the directory, and leave them.
        (tmp_path / name).mkdir()
        assert run_cli(*self.COMMANDS[command], "--out", str(tmp_path)) == 2
        assert f"config error: {tmp_path / name}: cannot write: Is a directory" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [tmp_path / name]

    def test_name_too_long_for_a_result_file_exits_2(self, no_simulation, tmp_path, capsys):
        # It simulated, wrote the CSV and then failed on "File name too long".
        out = tmp_path / "results"
        assert run_cli(*self.COMMANDS["run"], "--set", "name=" + "a" * 240, "--out", str(out)) == 2
        assert "config error: name: expected at most 228 characters" in capsys.readouterr().err
        assert not out.exists()

    def test_longest_name_fits_every_result_file(self, tmp_path):
        name = "a" * 228
        code = run_cli(
            "tune", "--preset", "exp2", "--controller", "fuzzy", "--set", f"name={name}",
            "--set", "tuner.grid.kp=[0.1]", "--set", "tuner.grid.ki=[0.03]",
            "--set", "tuner.grid.kx=[0.002]", "--out", str(tmp_path),
        )
        assert code == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            f"{name}_fuzzy_best.yaml", f"{name}_fuzzy_leaderboard.yaml"
        ]

    def test_failed_write_removes_its_temp_file(self, monkeypatch, tmp_path):
        # The second result's write fails part way: no result and no temp
        # file is left.
        write_text = Path.write_text

        def disk_full(path, text):
            if path.name.startswith("a."):
                return write_text(path, text)
            with open(path, "w") as handle:
                handle.write(text[:10])
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(Path, "write_text", disk_full)
        with pytest.raises(ConfigInvalid, match="b.yaml: cannot write: No space left on device"):
            cli._write_results({tmp_path / "a.csv": "x" * 100, tmp_path / "b.yaml": "y" * 100})
        assert list(tmp_path.iterdir()) == []

    def test_failed_rename_removes_the_results_renamed_before_it(self, monkeypatch, tmp_path):
        replace = os.replace

        def fail_on_b(src, dst):
            if Path(dst).name == "b.yaml":
                raise OSError(errno.EIO, os.strerror(errno.EIO))
            replace(src, dst)

        monkeypatch.setattr(cli.os, "replace", fail_on_b)
        with pytest.raises(ConfigInvalid, match="b.yaml: cannot write: Input/output error"):
            cli._write_results({tmp_path / "a.csv": "x", tmp_path / "b.yaml": "y"})
        assert list(tmp_path.iterdir()) == []

    def test_write_results_creates_the_results_directory(self, tmp_path):
        out = tmp_path / "a" / "b"
        cli._write_results({out / "a.csv": "x", out / "b.yaml": "y"})
        assert sorted(p.name for p in out.iterdir()) == ["a.csv", "b.yaml"]
        assert list(tmp_path.rglob("*.tmp")) == []

    def test_nested_out_is_created(self, tmp_path):
        out = tmp_path / "a" / "b"
        assert run_cli(*self.COMMANDS["run"], "--out", str(out)) == 0
        assert sorted(p.name for p in out.iterdir()) == ["exp2_pi.csv", "exp2_pi_summary.yaml"]


class TestStartAndArmChecks:
    """A start pose ik rejects, or link lengths whose squares overflow, end
    the command with exit 2 naming the key, before anything is written.
    They gave an Unreachable traceback, or a run of NaN rows with exit 0."""

    COMMANDS = {
        "run": ("run", "--preset", "exp2", "--controller", "pi"),
        "tune": ("tune", "--config", str(ROOT / "tuning" / "exp2_pi_best.yaml")),
    }
    CASES = {
        "start-on-the-inner-edge": (
            ("arm.l2=0.3", "path=[{t: 0.0, x: -0.061200066677516644, z: -0.1904062809842877}]"),
            "config error: path[0]: waypoint at t=0.0 is unreachable",
        ),
        "start-between-waypoints": (
            ("arm.l2=0.3", "path=[{t: -1.0, x: 0.6, z: 0.1}, {t: 1.0, x: -0.6, z: 0.1}]"),
            "config error: path: the path's start at t=0.0 is unreachable",
        ),
        "waypoint-out-of-reach": (
            ("path=[{t: 0.0, x: 3, z: 0.2475}]",),
            "config error: path[0]: waypoint at t=0.0 is unreachable: Pose(x=3, z=0.2475)",
        ),
        "squares-overflow": (
            ("arm.l1=1.0e+154", "arm.l2=1.0e+154"),
            "config error: arm: link lengths 1e+154 and 1e+154",
        ),
        "far-beyond-float-range": (
            ("arm.l1=1.0e+200", "arm.l2=1.0e+200"),
            "config error: arm: link lengths 1e+200 and 1e+200",
        ),
    }

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("command", COMMANDS)
    def test_exits_2_naming_the_key(self, command, case, tmp_path, capsys):
        overrides, message = self.CASES[case]
        out = tmp_path / "results"
        sets = [arg for item in overrides for arg in ("--set", item)]
        assert run_cli(*self.COMMANDS[command], *sets, "--out", str(out)) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestInferCommand:
    # The whole stdout is pinned by SHA-256, byte for byte.
    @pytest.mark.parametrize(
        "argv,digest",
        [
            (("--e", "1", "--de", "0.5"),
             "e3ef413425c0d3f3471eeb3f00e9e07499a0d0e805c20e598d5cb1a15323fbd3"),
            (("--e", "0", "--de", "0"),
             "369c2ac83cbabe5290b974bc3479b1baee49b3fd5c60fbbeaf83da4a543bd324"),
            (("--e", "40", "--de", "-3"),
             "c6fb250a4e452adea242e8465947eaa7b092a06c37a7686ccb6b75239148fecf"),
            (("--e", "2.5", "--de", "-1.2", "--kp", "0.05", "--ki", "0.2", "--kx", "0.002"),
             "88d91a7709135ab78cfb6aafab56573c628a37cd5812ab186d3b499f37908a61"),
        ],
        ids=["small", "zero", "saturated-e", "custom-gains"],
    )
    def test_stdout_is_pinned(self, argv, digest, capsys):
        assert run_cli("infer", *argv) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    def test_fuzzifies_each_input_once(self, monkeypatch, capsys):
        calls = []
        original = fuzzy.fuzzify

        def spy(x):
            calls.append(x)
            return original(x)

        monkeypatch.setattr(fuzzy, "fuzzify", spy)
        assert run_cli("infer", "--e", "1", "--de", "0.5", "--ki", "0.5", "--kp", "0.1") == 0
        assert calls == [0.5, 0.05]

    def test_zero_inputs_give_zero_output(self, capsys):
        assert run_cli("infer", "--e", "0", "--de", "0") == 0
        out = capsys.readouterr().out
        assert "du = kx * centroid = 0.000000e+00" in out

    def test_saturated_inputs_print_pl_rule(self, capsys):
        assert run_cli("infer", "--e", "1000", "--de", "1000") == 0
        out = capsys.readouterr().out
        assert "e=PL & de=PL -> pl" in out
        assert "centroid = 0.888889" in out

    def test_negative_gain_is_config_error(self, capsys):
        assert run_cli("infer", "--e", "1", "--de", "0", "--kp", "-1") == 2
        assert "config error: fuzzy-PI gains must be nonnegative" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--e", "--de", "--kp", "--ki", "--kx"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_input_exits_2_naming_the_flag(self, flag, value, capsys):
        args = {"--e": "1", "--de": "0", flag: value}
        assert run_cli("infer", *(f"{name}={v}" for name, v in args.items())) == 2
        assert f"config error: {flag}: expected a finite number" in capsys.readouterr().err

    def test_negated_inputs_negate_output(self, capsys):
        assert run_cli("infer", "--e", "12", "--de", "3") == 0
        line_pos = [l for l in capsys.readouterr().out.splitlines() if l.startswith("du =")][0]
        assert run_cli("infer", "--e", "-12", "--de", "-3") == 0
        line_neg = [l for l in capsys.readouterr().out.splitlines() if l.startswith("du =")][0]
        value_pos = float(line_pos.split("=")[-1].replace("m", ""))
        value_neg = float(line_neg.split("=")[-1].replace("m", ""))
        assert value_pos == -value_neg
        assert value_pos > 0.0

    @pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
    def test_closed_stdout_exits_1_without_traceback(self, unbuffered):
        # A reader that closes the pipe at once, like `forcemotion infer ... |
        # (exec 0<&-; true)`: the print fails in cmd_infer when stdout is
        # unbuffered, and in the exit-time flush when it is buffered.
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONUNBUFFERED=unbuffered)
        try:
            child = subprocess.run(
                [sys.executable, "-m", "forcemotion.cli", "infer", "--e", "1", "--de", "0.5"],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env=env,
                text=True,
                timeout=60,
            )
        finally:
            os.close(write_end)
        assert child.returncode == 1
        assert child.stderr == ""
