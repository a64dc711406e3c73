import dataclasses
import re
from pathlib import Path

import pytest
import yaml

from forcemotion import config
from forcemotion.cli import main
from forcemotion.config import (
    _OBSTACLE_DEFAULTS,
    ConfigInvalid,
    apply_overrides,
    load_config,
    preset_config,
    read_config,
    scenario_from_config,
    to_yaml,
    validate_config,
)
from forcemotion.fuzzy import Label
from forcemotion.sim import TuneEntry, WorkspaceViolation

MINIMAL = {"controller": "pi", "setpoint": {"x": 0.0, "z": 10.0}}
README = Path(__file__).resolve().parents[1] / "README.md"


def _dotted_keys(node, prefix=""):
    """Dotted paths of every mapping key; lists and `tuner.grid` are leaves."""
    keys = set()
    for key, value in node.items():
        path = f"{prefix}{key}"
        keys.add(path)
        if isinstance(value, dict) and path != "tuner.grid":
            keys |= _dotted_keys(value, path + ".")
    return keys


class TestValidation:
    def test_minimal_config_gets_defaults(self):
        cfg = validate_config(dict(MINIMAL))
        assert cfg["dt"] == 0.01
        assert cfg["arm"]["l1"] == 0.5
        assert cfg["environment"]["obstacles"] == []
        assert cfg["gains"]["pi"]["z"]["ki"] > 0.0

    def test_missing_required_keys(self):
        with pytest.raises(ConfigInvalid, match="controller"):
            validate_config({"setpoint": {"x": 0, "z": 10}})
        with pytest.raises(ConfigInvalid, match="setpoint.z"):
            validate_config({"controller": "pi", "setpoint": {"x": 0}})

    def test_unknown_keys_rejected_at_any_level(self):
        with pytest.raises(ConfigInvalid, match="unknown config key: dtt"):
            validate_config({**MINIMAL, "dtt": 1})
        with pytest.raises(ConfigInvalid, match="arm.l3"):
            validate_config({**MINIMAL, "arm": {"l3": 1.0}})
        with pytest.raises(ConfigInvalid, match="gains.pi.z.kx"):
            validate_config({**MINIMAL, "gains": {"pi": {"z": {"kx": 1.0}}}})

    def test_type_errors_are_named(self):
        with pytest.raises(ConfigInvalid, match="dt: expected a number"):
            validate_config({**MINIMAL, "dt": "fast"})
        with pytest.raises(ConfigInvalid, match="selection.z: expected a boolean"):
            validate_config({**MINIMAL, "selection": {"z": 1}})
        with pytest.raises(ConfigInvalid, match="setpoint.z: expected a number"):
            validate_config({"controller": "pi", "setpoint": {"x": 0, "z": "many"}})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize(
        "key,raw",
        [
            ("dt", lambda v: {**MINIMAL, "dt": v}),
            ("limits.z.du_max", lambda v: {**MINIMAL, "limits": {"z": {"du_max": v}}}),
            ("sensor.seed", lambda v: {**MINIMAL, "sensor": {"seed": v}}),
            ("path[0].x", lambda v: {**MINIMAL, "path": [{"t": 0.0, "x": v, "z": 0.2}]}),
            ("setpoint.z", lambda v: {"controller": "pi", "setpoint": {"x": 0.0, "z": v}}),
            ("tuner.grid.kp", lambda v: {**MINIMAL, "tuner": {"grid": {"kp": [1e-4, v]}}}),
        ],
    )
    def test_non_finite_numbers_rejected(self, key, raw, bad):
        with pytest.raises(ConfigInvalid, match=re.escape(key) + ": expected a finite number"):
            validate_config(raw(bad))

    @pytest.mark.parametrize("name", ["exp1", "run_2", "A.b-c", "7"])
    def test_safe_names_accepted(self, name):
        assert validate_config({**MINIMAL, "name": name})["name"] == name

    @pytest.mark.parametrize(
        "name", ["../../evil", "a/b", "/tmp/x", "a\\b", "", ".hidden", "-flag", "a b", 7, None]
    )
    def test_unsafe_names_rejected(self, name):
        with pytest.raises(ConfigInvalid, match="name: expected a file name stem"):
            validate_config({**MINIMAL, "name": name})

    @pytest.mark.parametrize("value", [1, -1])
    def test_press_direction_accepts_unit_signs(self, value):
        cfg = validate_config({**MINIMAL, "press_direction": {"x": value}})
        assert scenario_from_config(cfg).press_direction.x == value

    @pytest.mark.parametrize("value", [0.5, 0, 2, -0.99])
    def test_press_direction_rejects_other_values(self, value):
        with pytest.raises(ConfigInvalid, match="press_direction.x: expected 1 or -1"):
            validate_config({**MINIMAL, "press_direction": {"x": value}})

    def test_obstacle_schema(self):
        cfg = validate_config(
            {
                **MINIMAL,
                "environment": {
                    "obstacles": [{"type": "rough_surface", "height_base": 0.25}]
                },
            }
        )
        assert cfg["environment"]["obstacles"][0]["stiffness"] == 10_000.0
        with pytest.raises(ConfigInvalid, match=r"obstacles\[0\].type"):
            validate_config(
                {**MINIMAL, "environment": {"obstacles": [{"type": "sphere"}]}}
            )
        with pytest.raises(ConfigInvalid, match=r"obstacles\[0\].height_base"):
            validate_config(
                {**MINIMAL, "environment": {"obstacles": [{"type": "rough_surface"}]}}
            )

    def test_bad_scenario_values_surface_as_config_errors(self):
        cfg = validate_config({**MINIMAL, "duration": -1.0})
        with pytest.raises(ConfigInvalid):
            scenario_from_config(cfg)
        cfg = validate_config({**MINIMAL, "path": [{"t": 0.0, "x": 5.0, "z": 0.0}]})
        with pytest.raises(ConfigInvalid, match="unreachable"):
            scenario_from_config(cfg)


class TestOverrides:
    def test_dotted_paths_and_yaml_values(self):
        raw = apply_overrides(dict(MINIMAL), ["dt=0.005", "selection.x=false"])
        cfg = validate_config(raw)
        assert cfg["dt"] == 0.005
        assert cfg["selection"]["x"] is False

    def test_list_values(self):
        raw = apply_overrides(dict(MINIMAL), ["tuner.grid.kp=[1.0e-4, 2.0e-4]"])
        cfg = validate_config(raw)
        assert cfg["tuner"]["grid"]["kp"] == [1e-4, 2e-4]

    def test_malformed_override(self):
        with pytest.raises(ConfigInvalid, match="key=value"):
            apply_overrides(dict(MINIMAL), ["dt"])


class TestPresetsAndFiles:
    def test_preset_config_validates_and_builds(self):
        for name in ("exp1", "exp2", "exp3"):
            cfg = validate_config(preset_config(name))
            for kind in ("pi", "fuzzy"):
                scenario = scenario_from_config(cfg, controller=kind)
                assert scenario.name == name
                assert scenario.controller_kind == kind

    def test_load_config_round_trip(self, tmp_path):
        path = tmp_path / "exp2.yaml"
        path.write_text(to_yaml(preset_config("exp2")))
        cfg = load_config(path)
        assert cfg == validate_config(yaml.safe_load(path.read_text()))

    def test_load_config_errors(self, tmp_path):
        with pytest.raises(ConfigInvalid, match="not found"):
            load_config(tmp_path / "missing.yaml")
        bad = tmp_path / "bad.yaml"
        bad.write_text("controller: [unbalanced")
        with pytest.raises(ConfigInvalid, match="not valid YAML"):
            load_config(bad)

    def test_custom_rule_file_is_wired_through(self, tmp_path):
        rules = tmp_path / "all_zr.txt"
        rules.write_text("zr zr zr zr zr zr zr\n" * 7)
        cfg = validate_config({**MINIMAL, "rule_file": str(rules)})
        scenario = scenario_from_config(cfg)
        assert scenario.rules.lookup(Label.PL, Label.PL) is Label.ZR

    def test_missing_rule_file_is_config_error(self):
        cfg = validate_config({**MINIMAL, "rule_file": "/nonexistent/rules.txt"})
        with pytest.raises(ConfigInvalid):
            scenario_from_config(cfg)

    @pytest.mark.parametrize(
        "make,message",
        [
            (lambda path: None, "No such file or directory"),
            (Path.mkdir, "Is a directory"),
            (lambda path: path.write_text("zr zr\n"), "line 1: expected 7 labels, got 2"),
        ],
        ids=["missing", "directory", "malformed"],
    )
    def test_rule_file_errors_name_the_key(self, make, message, tmp_path):
        path = tmp_path / "rules.txt"
        make(path)
        cfg = validate_config({**MINIMAL, "rule_file": str(path)})
        with pytest.raises(ConfigInvalid) as info:
            scenario_from_config(cfg)
        assert str(info.value).startswith("rule_file: ")
        assert message in str(info.value)

    def test_seed_derivation(self):
        cfg = validate_config({**MINIMAL, "seed": 99})
        scenario = scenario_from_config(cfg)
        assert scenario.environment.seed == 99
        assert scenario.sensor.seed == 100
        pinned = validate_config(
            {**MINIMAL, "seed": 99, "environment": {"seed": 7}, "sensor": {"seed": 8}}
        )
        scenario = scenario_from_config(pinned)
        assert scenario.environment.seed == 7
        assert scenario.sensor.seed == 8


def _safe_dump(doc):
    return yaml.safe_dump(doc, sort_keys=True, default_flow_style=False)


class TestEmitter:
    """to_yaml writes exactly the bytes yaml.safe_dump writes, whichever
    dumper (libyaml's C emitter or the Python one) PyYAML provides."""

    def test_run_summary(self, tmp_path):
        assert main(["run", "--preset", "exp3", "--controller", "pi", "--out", str(tmp_path)]) == 0
        doc = yaml.safe_load((tmp_path / "exp3_pi_summary.yaml").read_text())
        assert to_yaml(doc) == _safe_dump(doc)

    def test_compare_report(self, tmp_path):
        assert main(["compare", "--preset", "exp1", "--out", str(tmp_path)]) == 0
        doc = yaml.safe_load((tmp_path / "exp1_compare.yaml").read_text())
        assert to_yaml(doc) == _safe_dump(doc)

    def test_leaderboard_with_long_failure_and_inf_objective(self):
        failure = str(WorkspaceViolation(37, 0.37, "target (1.234567, -0.987654) lies outside "
                                         "the annulus 0.000000 <= r <= 1.000000 reachable by the arm"))
        assert len(failure) > 80
        entries = [
            TuneEntry({"kp": 1e-4, "ki": 5e-5}, 12.5, 3.25, 0.41, 1.75, True, None),
            TuneEntry({"kp": 0.0, "ki": 2.0e-3}, float("inf"), None, None, None, False, failure),
        ]
        doc = {
            "scenario": "exp2",
            "controller": "pi",
            "axis": "z",
            "entries": [dataclasses.asdict(e) for e in entries],
        }
        text = to_yaml(doc)
        assert text == _safe_dump(doc)
        assert yaml.safe_load(text)["entries"][1]["failure"] == failure

    @pytest.mark.parametrize(
        "doc",
        [
            pytest.param({"rule_file": "/data/r\xe8gles/" + "exp\xe9rience_" * 8 + "/table.txt"},
                         id="long-non-ascii-text"),
            pytest.param({"note": "tab\tand newline\n" * 8}, id="long-escaped-text"),
            pytest.param({"tuner": {"grid": {"": [1.0]}}}, id="empty-key"),
            pytest.param({"tuner": {"grid": {"k" * 125: [1.0]}}}, id="125-character-key"),
        ],
    )
    def test_text_the_c_emitter_lays_out_differently(self, doc):
        assert to_yaml(doc) == _safe_dump(doc)


class TestReadmeSchema:
    """The schema block under "## Configuration" in README.md lists every key."""

    @staticmethod
    def _schema():
        section = README.read_text().split("## Configuration", 1)[1]
        return yaml.safe_load(section.split("```yaml\n", 1)[1].split("```", 1)[0])

    def test_names_exactly_the_accepted_keys(self):
        schema = self._schema()
        assert _dotted_keys(schema) == _dotted_keys(validate_config(schema))

    def test_rough_surface_entry_names_every_obstacle_key(self):
        (surface,) = self._schema()["environment"]["obstacles"]
        assert set(surface) == set(_OBSTACLE_DEFAULTS["rough_surface"])


TUNING = Path(__file__).resolve().parents[1] / "tuning"


class TestCParsedConfig:
    """read_config parses with libyaml where it can, with yaml.safe_load's
    outcome: the same mapping, or the same ConfigInvalid message."""

    @staticmethod
    def _outcome(path):
        try:
            return read_config(path)
        except ConfigInvalid as exc:
            return str(exc)

    def _check(self, path, monkeypatch):
        got = self._outcome(path)
        with monkeypatch.context() as m:
            m.setattr(config, "_C_LOADER", yaml.SafeLoader)
            want = self._outcome(path)
        assert type(got) is type(want) and got == want
        return got

    def test_c_parser_is_used_when_present(self):
        assert config._C_LOADER is getattr(yaml, "CSafeLoader", yaml.SafeLoader)

    @pytest.mark.parametrize("name", sorted(p.name for p in TUNING.glob("*.yaml")))
    def test_tuning_files(self, name, monkeypatch):
        assert isinstance(self._check(TUNING / name, monkeypatch), dict)

    def test_readme_schema(self, tmp_path, monkeypatch):
        section = README.read_text().split("## Configuration", 1)[1]
        path = tmp_path / "schema.yaml"
        path.write_text(section.split("```yaml\n", 1)[1].split("```", 1)[0])
        assert self._check(path, monkeypatch) == TestReadmeSchema._schema()

    @pytest.mark.parametrize(
        "text",
        [
            pytest.param("arm:\n\tl1: 0.5\n", id="tab-indent"),
            pytest.param("arm:\n  l1:\t0.5\n", id="tab-separator"),
            pytest.param("\ufeffcontroller: pi\ndt: 0.02\n", id="bom"),
            pytest.param("name: a\x07b\n", id="control-character"),
            pytest.param("name: ab\x85\n", id="next-line"),
            pytest.param("dt: 0.01\r\nduration: 2.0\r\n", id="crlf"),
            pytest.param("dt: 0.01\ndt: 0.02\n", id="duplicate-keys"),
            pytest.param("arm: &a {l1: 0.4}\nx: *a\n", id="anchor"),
            pytest.param("arm: *missing\n", id="undefined-alias"),
            pytest.param("seed: " + "1" * 4301 + "\n", id="4301-digit-integer"),
            pytest.param("tuner: {grid: [1, 2}\n", id="unclosed-flow"),
            pytest.param("arm:\n  l1: 0.5\n l2: 0.5\n", id="bad-indent"),
            pytest.param("name: a: b\n", id="colon-in-plain-scalar"),
            pytest.param("dt: 0.01\n---\ndt: 0.02\n", id="two-documents"),
            pytest.param("- 1\n- 2\n", id="not-a-mapping"),
            pytest.param("# only a comment\n", id="empty"),
            pytest.param('name: "\\x41\\u00e9"\n', id="escapes"),
            pytest.param("name: 'it''s'\nseed: 0x1f\ndt: 1_0.5\n", id="quotes-and-yaml-1.1-numbers"),
            # Printable ASCII that libyaml reads otherwise.
            pytest.param("dt: !\n", id="empty-tagged-value"),
            pytest.param("name: |#\n", id="block-scalar-comment"),
            pytest.param("tuner: {grid: [1, 2?]}\n", id="question-mark-in-flow"),
            pytest.param('name: "\\ud800"\n', id="lone-surrogate-escape"),
            pytest.param("%YAML 1.1\n%FOO bar\n---\ndt: 0.02\n", id="directives"),
        ],
    )
    def test_malformed_and_unusual_documents(self, text, tmp_path, monkeypatch):
        path = tmp_path / "doc.yaml"
        path.write_text(text, encoding="utf-8", newline="")
        self._check(path, monkeypatch)
