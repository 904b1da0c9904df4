"""MDP view of the highway world.

The observation is 11 numbers: ego speed plus (speed, distance) pairs for
the nearest front, front-left, rear-left, front-right and rear-right
vehicles within sensor range. The reward is a piecewise-linear efficiency
term minus a piecewise-linear proximity/collision cost.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .highway_sim import (
    Action,
    SimConfig,
    StepEvents,
    WorldState,
    _neighbours,
    check_number_fields,
    spawn_scenario,
    step as sim_step,
)

OBS_DIM = 11

# Neighbour slots front, front-left, rear-left, front-right, rear-right as
# (lane offset, ahead?) relative to the ego lane.
_SLOT_SPEC = ((0, True), (-1, True), (-1, False), (1, True), (1, False))


@dataclass(frozen=True)
class RewardConfig:
    alpha1: float = 0.5   # efficiency weight
    alpha2: float = 1.0   # safety weight

    def __post_init__(self) -> None:
        check_number_fields(self)
        if self.alpha1 <= 0 or self.alpha2 <= 0:
            raise ValueError("reward weights must be positive")


@dataclass(frozen=True)
class RewardBreakdown:
    efficiency: float
    cost: float

    @property
    def total(self) -> float:
        return self.efficiency - self.cost


def build_observation(world: WorldState) -> np.ndarray:
    """Raw (unnormalized) observation of the current world: the ego speed,
    then a (v_i, d_i) pair per neighbour slot: front, front-left, rear-left,
    front-right, rear-right.

    Absent slots take the sentinel (v_i = ego speed, d_i = sensor range):
    a phantom at maximum range with zero closing speed.
    """
    cfg = world.config
    ego = world.ego()
    lanes = world.lanes()
    out = [ego.speed]
    for lane_offset, ahead in _SLOT_SPEC:
        lane = ego.lane_index + lane_offset
        other, gap = None, math.inf
        if 0 <= lane < cfg.lanes_count:
            found = _neighbours(lanes, lane, ego)
            other, gap = found[:2] if ahead else found[2:]
        if other is None or gap > cfg.sensor_range:
            out.extend((ego.speed, cfg.sensor_range))
        else:
            out.extend((other.speed, max(gap, 0.0)))
    return np.array(out, dtype=np.float64)


def efficiency_reward(v_e: float, cfg: RewardConfig = RewardConfig(),
                      speed_limit: float = 25.0) -> float:
    """Zero below half the speed limit, then linear up to the full weight
    at the limit."""
    if not 0.0 <= v_e <= speed_limit + 1e-9:
        raise ValueError(f"ego speed outside [0, {speed_limit}]")
    half = speed_limit / 2.0
    if v_e < half:
        return 0.0
    if v_e < speed_limit:
        return cfg.alpha1 * (v_e / half - 1.0)
    return cfg.alpha1


def safety_cost(d_safe: float, collided: bool, cfg: RewardConfig = RewardConfig()) -> float:
    """Collision dominates; otherwise a proximity ramp on the closest
    same-lane gap: full weight below 5 m, fading linearly to zero at 10 m."""
    if d_safe < 0:
        raise ValueError("d_safe must be nonnegative")
    if collided:
        return 1.0
    if d_safe < 5.0:
        return cfg.alpha2
    if d_safe < 10.0:
        return cfg.alpha2 * (1.0 - (d_safe - 5.0) / 5.0)
    return 0.0


def step_reward(events: StepEvents, world: WorldState,
                cfg: RewardConfig = RewardConfig()) -> RewardBreakdown:
    d_safe = min(events.min_gap_front, events.min_gap_rear)
    eff = efficiency_reward(world.ego().speed, cfg, world.config.speed_limit)
    cost = safety_cost(d_safe, events.collision, cfg)
    return RewardBreakdown(efficiency=eff, cost=cost)


class HighwayEnv:
    """Episode-managing adapter over the simulator.

    ``reset`` spawns a fresh scenario with a seed derived from the master
    seed and the episode counter, so a fixed master seed reproduces the
    whole episode sequence while every episode still differs.
    """

    def __init__(self, config: SimConfig, reward: RewardConfig = RewardConfig(),
                 master_seed: int = 0):
        self.config = config
        self.reward_config = reward
        self.master_seed = master_seed
        self.episode_index = -1
        self.world: WorldState | None = None

    @property
    def obs_dim(self) -> int:
        return OBS_DIM

    def _scenario_seed(self, episode: int) -> int:
        ss = np.random.SeedSequence(entropy=(self.master_seed, episode))
        return int(ss.generate_state(1, dtype=np.uint64)[0])

    def reset(self) -> np.ndarray:
        self.episode_index += 1
        self.world = spawn_scenario(self.config, self._scenario_seed(self.episode_index))
        return self._observe()

    def step(self, action: Action) -> tuple[np.ndarray, RewardBreakdown, StepEvents]:
        if self.world is None or self.world.terminal:
            raise RuntimeError("call reset() before stepping")
        _, events = sim_step(self.world, action)
        reward = step_reward(events, self.world, self.reward_config)
        return self._observe(), reward, events

    def _observe(self) -> np.ndarray:
        """Speeds over the speed limit, distances over the sensor range."""
        limit, sensor = self.config.speed_limit, self.config.sensor_range
        return build_observation(self.world) / np.array(
            (limit,) + (limit, sensor) * len(_SLOT_SPEC))
