"""Config loading, merging, overrides, and seed resolution."""

from __future__ import annotations

import dataclasses

import pytest

from sagin_sfc.config import (
    SEED_ENV_VAR,
    ConfigError,
    OrbitConfig,
    apply_overrides,
    config_dict,
    default_config,
    load_config,
    resolve_seed,
)


def test_defaults_without_path():
    assert load_config(None) == default_config()


def test_yaml_overrides_merge_onto_defaults(tmp_path):
    p = tmp_path / "c.yaml"
    p.write_text(
        "scenario:\n"
        "  uav_count: 4\n"
        "  range_limits:\n"
        "    g2u_m: 1234.5\n"
        "run:\n"
        "  episodes: 7\n"
    )
    cfg = load_config(str(p))
    assert cfg.scenario.uav_count == 4
    assert cfg.scenario.range_limits.g2u_m == 1234.5
    # untouched siblings keep their defaults
    assert cfg.scenario.range_limits.u2u_m == default_config().scenario.range_limits.u2u_m
    assert cfg.run.episodes == 7
    assert cfg.agent == default_config().agent


def test_unsigned_exponent_yaml_floats_coerce(tmp_path):
    # YAML 1.1 parses 1.0e8 (no sign in the exponent) as a *string*
    p = tmp_path / "c.yaml"
    p.write_text("workload:\n  data_min_bits: 1.0e8\n")
    cfg = load_config(str(p))
    assert cfg.workload.data_min_bits == 1e8
    assert isinstance(cfg.workload.data_min_bits, float)


def test_unknown_section_rejected(tmp_path):
    p = tmp_path / "c.yaml"
    p.write_text("scenari:\n  uav_count: 4\n")
    with pytest.raises(ConfigError, match="unknown config sections"):
        load_config(str(p))


def test_unknown_key_rejected(tmp_path):
    p = tmp_path / "c.yaml"
    p.write_text("scenario:\n  uav_cout: 4\n")
    with pytest.raises(ConfigError, match="unknown keys"):
        load_config(str(p))


def test_type_mismatch_rejected(tmp_path):
    p = tmp_path / "c.yaml"
    p.write_text("run:\n  episodes: lots\n")
    with pytest.raises(ConfigError, match="expected an integer"):
        load_config(str(p))


def test_satellite_orbits_replaced_wholesale(tmp_path):
    p = tmp_path / "c.yaml"
    p.write_text(
        "scenario:\n"
        "  satellite_count: 1\n"
        "  satellite_orbits:\n"
        "    - altitude_m: 600000.0\n"
    )
    cfg = load_config(str(p))
    assert len(cfg.scenario.satellite_orbits) == 1
    assert cfg.scenario.satellite_orbits[0].altitude_m == 600000.0


def test_apply_overrides_each_type():
    cfg = default_config()
    apply_overrides(
        cfg,
        [
            "run.episodes=11",
            "agent.learning_rate=0.5",
            "agent.kind=dqn",
            "run.measure_wall_time=true",
            "scenario.range_limits.g2u_m=99.0",
        ],
    )
    assert cfg.run.episodes == 11
    assert cfg.agent.learning_rate == 0.5
    assert cfg.agent.kind == "dqn"
    assert cfg.run.measure_wall_time is True
    assert cfg.scenario.range_limits.g2u_m == 99.0


def test_apply_overrides_builds_orbits():
    cfg = apply_overrides(default_config(), [
        "scenario.satellite_count=1",
        "scenario.satellite_orbits=[{altitude_m: 5e5}]",
    ])
    assert cfg.scenario.satellite_orbits == [OrbitConfig(altitude_m=5e5)]
    with pytest.raises(ConfigError, match="unknown keys"):
        apply_overrides(default_config(), ["scenario.satellite_orbits=[{altitud_m: 5e5}]"])


def test_apply_overrides_builds_range_limits():
    cfg = apply_overrides(default_config(), ["scenario.range_limits={g2u_m: 5.0}"])
    assert cfg.scenario.range_limits == dataclasses.replace(
        default_config().scenario.range_limits, g2u_m=5.0)
    for bad in ("{g2u: 5.0}", "5", "{g2u_m: far}"):
        with pytest.raises(ConfigError):
            apply_overrides(default_config(), [f"scenario.range_limits={bad}"])


def test_apply_overrides_rejects_unknown_and_malformed():
    with pytest.raises(ConfigError, match="unknown config path"):
        apply_overrides(default_config(), ["run.episodess=1"])
    with pytest.raises(ConfigError, match="section.key=value"):
        apply_overrides(default_config(), ["run.episodes"])
    with pytest.raises(ConfigError, match="dotted"):
        apply_overrides(default_config(), ["episodes=1"])


def test_seed_precedence(monkeypatch):
    cfg = default_config()
    cfg.run.seed = 3
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    assert resolve_seed(cfg, None) == 3
    monkeypatch.setenv(SEED_ENV_VAR, "5")
    assert resolve_seed(cfg, None) == 5
    assert resolve_seed(cfg, 9) == 9  # CLI flag beats the env var


def test_config_dict_is_plain_data():
    d = config_dict(default_config())
    assert isinstance(d, dict)
    assert d["agent"]["kind"] == "ddqn"
    assert not any(dataclasses.is_dataclass(v) for v in d.values())
