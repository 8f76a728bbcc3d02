"""Run configuration: dataclass sections, YAML loading, dotted overrides.

All radio quantities configured in dB carry a _db / _dbm suffix and stay in
dB here; scenario.build_instance converts them to linear domain once, through
channel.RadioConstants.from_config.
Distances are metres, data sizes bits, powers watts, times seconds.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass, field
from typing import Any

import yaml

SEED_ENV_VAR = "SAGIN_SEED"
OPTIMIZERS = ("adam", "adadelta")
SAT_BUDGET_DENOMINATORS = ("margin", "slant_range")


@dataclass
class RangeLimits:
    """Maximum link distances per link kind, metres."""

    g2u_m: float = 1_000.0
    u2g_m: float = 1_000.0
    u2u_m: float = 2_000.0
    u2s_m: float = 2_000_000.0
    s2s_m: float = 5_000_000.0
    s2g_m: float = 2_000_000.0


@dataclass
class OrbitConfig:
    """Idealized circular orbit; theta=phase puts the satellite overhead at slot 1 when phase=0."""

    altitude_m: float = 550_000.0
    inclination_rad: float = 0.0
    phase_rad: float = 0.0


@dataclass
class ScenarioConfig:
    ground_positions_m: list = field(
        default_factory=lambda: [[0.0, 0.0, 0.0], [200.0, 0.0, 0.0]]
    )
    uav_count: int = 30
    uav_disc_radius_m: float = 400.0
    uav_min_separation_m: float = 20.0
    uav_altitude_m: float = 100.0
    # optional per-UAV waypoint lists [[slot, x, y, z], ...]; index keys as strings in YAML
    uav_waypoints: dict = field(default_factory=dict)
    satellite_count: int = 2
    satellite_orbits: list = field(default_factory=list)  # list[OrbitConfig]
    satellite_trace_file: str | None = None
    slot_count: int = 100
    slot_seconds: float = 5.0
    range_limits: RangeLimits = field(default_factory=RangeLimits)
    placement_attempts: int = 10_000
    # node resources
    uav_compute_capacity_bits: float = 8e8
    uav_compute_rate_bps: float = 1e8
    uav_storage_bits: float = 8e9
    sat_compute_capacity_bits: float = 1.6e9
    sat_compute_rate_bps: float = 2e8
    sat_storage_bits: float = 6.4e10
    # UAV airframe
    uav_mass_kg: float = 0.5
    uav_rotor_radius_m: float = 0.2
    uav_rotor_count: int = 4
    uav_max_speed_mps: float = 12.0
    uav_max_power_w: float = 12.0


@dataclass
class RadioConfig:
    """Transmit powers, bandwidths and link-budget terms; dB fields converted at build."""

    p_tr_g_w: float = 0.5
    p_tr_u_w: float = 10.0
    p_uu_w: float = 10.0
    p_us_w: float = 10.0
    p_ss_w: float = 20.0
    p_sg_w: float = 20.0
    iota0_db: float = 80.0  # reference channel gain at 1 m
    sigma_uu2_w: float = 4e-13
    f_uu_hz: float = 2.4e9
    f_cen_us_hz: float = 3.4e9
    f_cen_ss_hz: float = 2.2e9
    f_cen_sg_hz: float = 20e9
    b_gu_hz: float = 2e6
    b_ug_hz: float = 2e6
    b_uu_hz: float = 4e6
    b_us_hz: float = 50e6
    b_ss_hz: float = 80e6
    b_sg_hz: float = 80e6
    gain_us_db: float = 42.0
    gain_ss_db: float = 52.0
    gain_sg_db: float = 42.0
    line_loss_db: float = 2.0
    ebn0_req_db: float = 10.0
    margin_db: float = 3.0
    sat_budget_denominator: str = "margin"  # margin | slant_range
    t_s_k: float = 1000.0
    n0_dbm_per_hz: float = -114.0
    rain_db_per_km: float = 0.0
    rain_slant_path_km: float = 3.0


@dataclass
class EnergyConfig:
    e_c_uav_j_per_bit: float = 1e-8
    e_c_sat_j_per_bit: float = 5e-9
    e_op_sat_j_per_slot: float = 1.0
    e_max_uav_j: float = 8e4
    e_max_sat_j: float = 1e7
    p_re_us_w: float = 5.0
    p_re_ss_w: float = 5.0
    air_density_kg_m3: float = 1.225
    gravity_mps2: float = 9.8


@dataclass
class WorkloadConfig:
    count: int = 200
    vnf_min: int = 2
    vnf_max: int = 3
    data_min_bits: float = 500e6
    data_max_bits: float = 4000e6
    sigma_min_bits: float = 100e6
    sigma_max_bits: float = 800e6
    deadline_min_slots: int = 8
    deadline_max_slots: int = 20
    request_file: str | None = None


@dataclass
class AgentConfig:
    kind: str = "ddqn"  # ddqn | dqn | qlearning | sarsa
    learning_rate: float = 0.001
    discount: float = 0.9
    greed_max: float = 0.9
    greed_fraction: float = 0.6  # fraction of episodes over which greediness ramps 0 -> greed_max
    target_sync_steps: int = 200
    optimizer: str = "adam"  # adam | adadelta
    replay_capacity: int = 500
    batch_size: int = 8
    updates_per_step: int = 1
    hidden_widths: list = field(default_factory=lambda: [64, 32, 32])
    reward_c0: float = 1.0
    reward_c1: float = 0.1
    reward_c2: float = 0.2
    tabular_tracked_nodes: int = 4
    tabular_buckets: int = 4
    tabular_alpha: float = 0.1


@dataclass
class RunSection:
    seed: int = 1
    episodes: int = 3000
    step_cap: int | None = None  # truncates episodes below slot_count when set
    out_dir: str = "runs"
    measure_wall_time: bool = False


@dataclass
class RunConfig:
    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)
    radio: RadioConfig = field(default_factory=RadioConfig)
    energy: EnergyConfig = field(default_factory=EnergyConfig)
    workload: WorkloadConfig = field(default_factory=WorkloadConfig)
    agent: AgentConfig = field(default_factory=AgentConfig)
    run: RunSection = field(default_factory=RunSection)


class ConfigError(ValueError):
    pass


_NESTED = {
    ("scenario", "range_limits"): RangeLimits,
}


def _build_section(cls, data: dict, path: str):
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected a mapping, got {type(data).__name__}")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = set(data) - set(fields)
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(unknown)}")
    kwargs = {}
    for name, value in data.items():
        sub = _NESTED.get((path, name))
        if sub is not None:
            kwargs[name] = _build_section(sub, value, f"{path}.{name}")
        elif name == "satellite_orbits":
            kwargs[name] = _build_orbits(value, f"{path}.{name}")
        else:
            kwargs[name] = _coerce(fields[name].type, value, f"{path}.{name}")
    return cls(**kwargs)


def _build_orbits(value: Any, path: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{path}: expected a list of orbits, got {value!r}")
    return [_build_section(OrbitConfig, o, f"{path}[{i}]") for i, o in enumerate(value)]


def check_config(cfg: RunConfig) -> RunConfig:
    """Value and cross-field checks that fail at load rather than deep inside a run."""
    sc, w, a = cfg.scenario, cfg.workload, cfg.agent
    checks = [
        (sc.slot_count >= 1, f"scenario.slot_count must be at least 1, got {sc.slot_count}"),
        (sc.slot_seconds > 0, f"scenario.slot_seconds must be positive, got {sc.slot_seconds}"),
        (sc.uav_count >= 0, f"scenario.uav_count must not be negative, got {sc.uav_count}"),
        (sc.satellite_count >= 0,
         f"scenario.satellite_count must not be negative, got {sc.satellite_count}"),
        (not sc.satellite_orbits or sc.satellite_trace_file
         or len(sc.satellite_orbits) == sc.satellite_count,
         f"scenario.satellite_orbits lists {len(sc.satellite_orbits)} orbits "
         f"for {sc.satellite_count} satellites"),
        (1 <= w.vnf_min <= w.vnf_max,
         f"workload needs 1 <= vnf_min <= vnf_max, got {w.vnf_min} and {w.vnf_max}"),
        (w.deadline_min_slots <= w.deadline_max_slots,
         f"workload needs deadline_min_slots <= deadline_max_slots, "
         f"got {w.deadline_min_slots} and {w.deadline_max_slots}"),
        (w.count >= 1, f"workload.count must be at least 1, got {w.count}"),
        (w.data_min_bits <= w.data_max_bits,
         f"workload needs data_min_bits <= data_max_bits, "
         f"got {w.data_min_bits} and {w.data_max_bits}"),
        (w.sigma_min_bits <= w.sigma_max_bits,
         f"workload needs sigma_min_bits <= sigma_max_bits, "
         f"got {w.sigma_min_bits} and {w.sigma_max_bits}"),
        (sc.uav_compute_rate_bps > 0,
         f"scenario.uav_compute_rate_bps must be positive, got {sc.uav_compute_rate_bps}"),
        (sc.sat_compute_rate_bps > 0,
         f"scenario.sat_compute_rate_bps must be positive, got {sc.sat_compute_rate_bps}"),
        (cfg.run.step_cap is None or cfg.run.step_cap >= 1,
         f"run.step_cap must be at least 1 (or null for the full horizon), "
         f"got {cfg.run.step_cap}"),
        (cfg.radio.sat_budget_denominator in SAT_BUDGET_DENOMINATORS,
         f"radio.sat_budget_denominator must be one of {SAT_BUDGET_DENOMINATORS}, "
         f"got {cfg.radio.sat_budget_denominator!r}"),
        (0.0 <= a.discount < 1.0, f"agent.discount must lie in [0, 1), got {a.discount}"),
        (a.optimizer in OPTIMIZERS,
         f"agent.optimizer must be one of {OPTIMIZERS}, got {a.optimizer!r}"),
    ] + [
        (getattr(a, name) >= 1, f"agent.{name} must be at least 1, got {getattr(a, name)}")
        for name in ("replay_capacity", "batch_size", "target_sync_steps")
    ]
    for ok, message in checks:
        if not ok:
            raise ConfigError(message)
    return cfg


def _coerce(annot: str | type, value: Any, path: str):
    # annotations are strings under `from __future__ import annotations`
    name = annot if isinstance(annot, str) else getattr(annot, "__name__", str(annot))
    if name.startswith("float"):
        # YAML 1.1 reads unsigned exponents like 1.0e8 as strings; accept them
        if isinstance(value, str):
            try:
                return float(value)
            except ValueError:
                raise ConfigError(f"{path}: expected a number, got {value!r}") from None
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return float(value)
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    if name.startswith("int | None") or name.startswith("str | None"):
        return value
    if name.startswith("int"):
        if isinstance(value, bool) or not isinstance(value, (int, float)) or value != int(value):
            raise ConfigError(f"{path}: expected an integer, got {value!r}")
        return int(value)
    if name.startswith("bool") and not isinstance(value, bool):
        raise ConfigError(f"{path}: expected a boolean, got {value!r}")
    return value


def default_config() -> RunConfig:
    cfg = RunConfig()
    cfg.scenario.satellite_orbits = [OrbitConfig(), OrbitConfig(phase_rad=0.1)]
    return cfg


def load_config(path: str | None = None) -> RunConfig:
    """Load a YAML config file onto the defaults; unknown keys are rejected."""
    cfg = default_config()
    if path is None:
        return cfg
    with open(path) as fh:
        raw = yaml.safe_load(fh) or {}
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    sections = {f.name: f for f in dataclasses.fields(RunConfig)}
    unknown = set(raw) - set(sections)
    if unknown:
        raise ConfigError(f"unknown config sections {sorted(unknown)}")
    for name, data in raw.items():
        merged = _merge(dataclasses.asdict(getattr(cfg, name)), data, name)
        section_cls = type(getattr(cfg, name))
        setattr(cfg, name, _build_section(section_cls, merged, name))
    return check_config(cfg)


def _merge(base: dict, override: dict, path: str) -> dict:
    if not isinstance(override, dict):
        raise ConfigError(f"{path}: expected a mapping")
    out = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(base.get(key), dict):
            out[key] = _merge(base[key], value, f"{path}.{key}")
        else:
            out[key] = value
    return out


def apply_overrides(cfg: RunConfig, pairs: list[str]) -> RunConfig:
    """Apply --set section.key=value overrides with type coercion."""
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"override {pair!r} is not of the form section.key=value")
        dotted, raw_value = pair.split("=", 1)
        parts = dotted.split(".")
        if len(parts) < 2:
            raise ConfigError(f"override {pair!r} needs a dotted section.key path")
        target = cfg
        for part in parts[:-1]:
            if not hasattr(target, part):
                raise ConfigError(f"unknown config path {dotted!r}")
            target = getattr(target, part)
        leaf = parts[-1]
        if not dataclasses.is_dataclass(target) or leaf not in {
            f.name for f in dataclasses.fields(target)
        }:
            raise ConfigError(f"unknown config path {dotted!r}")
        current = getattr(target, leaf)
        value = _parse_literal(raw_value, current, dotted)
        sub = _NESTED.get((".".join(parts[:-1]), leaf))
        if sub is not None:
            merged = _merge(dataclasses.asdict(current), value, dotted)
            value = _build_section(sub, merged, dotted)
        elif leaf == "satellite_orbits":
            value = _build_orbits(value, dotted)
        setattr(target, leaf, value)
    return check_config(cfg)


def _parse_literal(raw: str, current: Any, path: str):
    if isinstance(current, bool):
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise ConfigError(f"{path}: expected a boolean, got {raw!r}")
    if isinstance(current, int):
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"{path}: expected an integer, got {raw!r}") from None
    if isinstance(current, float):
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(f"{path}: expected a number, got {raw!r}") from None
    if isinstance(current, (list, dict)) or dataclasses.is_dataclass(current):
        try:
            return yaml.safe_load(raw)
        except yaml.YAMLError:
            raise ConfigError(f"{path}: unparseable value {raw!r}") from None
    if current is None:
        # int|None / str|None fields: try int, fall back to string
        try:
            return int(raw)
        except ValueError:
            return raw
    return raw


def resolve_seed(cfg: RunConfig, cli_seed: int | None) -> int:
    """CLI flag wins, then the SAGIN_SEED env var, then the config value."""
    if cli_seed is not None:
        cfg.run.seed = int(cli_seed)
    elif os.environ.get(SEED_ENV_VAR):
        cfg.run.seed = int(os.environ[SEED_ENV_VAR])
    return cfg.run.seed


def config_dict(cfg: RunConfig) -> dict:
    """Fully resolved config as plain dicts, for provenance dumps."""
    return dataclasses.asdict(cfg)
