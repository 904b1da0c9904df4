"""Property tests of simulator invariants over random worlds and commands."""
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from s2cd.highway_sim import VEHICLE_LENGTH, Action, Density, Fidelity, SimConfig
from s2cd.mdp_interface import HighwayEnv, build_observation

# Mostly Follow, so that episodes run long enough for traffic to reach
# and hold its speed caps instead of ending in an early ego collision.
COMMANDS = st.sampled_from([Action.FOLLOW] * 4 + [Action.LEFT_LANE_CHANGE,
                                                  Action.RIGHT_LANE_CHANGE])


def worlds(fidelity: Fidelity, max_decisions: int):
    return st.fixed_dictionaries({
        "config": st.builds(SimConfig, fidelity=st.just(fidelity),
                            density=st.sampled_from(list(Density)),
                            lanes_count=st.integers(2, 5),
                            speed_limit=st.sampled_from([15.0, 20.0, 25.0, 30.0])),
        "master_seed": st.integers(0, 2**32 - 1),
        "commands": st.lists(COMMANDS, min_size=max_decisions // 2, max_size=max_decisions),
    })


def run_checked(config, master_seed, commands):
    """Step a fresh episode through ``commands`` and check the invariants
    after every decision. Yields each world after its checks pass."""
    env = HighwayEnv(config, master_seed=master_seed)
    check_observation(env.reset())
    for command in commands:
        obs, _, events = env.step(command)
        check_observation(obs)
        check_world(env.world)
        yield env.world, events
        if events.episode_done:
            return


def check_observation(obs):
    assert np.all(np.isfinite(obs))
    assert np.all(obs >= 0.0) and np.all(obs <= 1.0)


def check_world(world):
    cfg = world.config
    keys = [(v.lane_index, v.longitudinal_pos) for v in world.vehicles]
    assert keys == sorted(keys)
    for v in world.vehicles:
        assert 0.0 <= v.speed <= cfg.speed_limit
        assert abs(v.lateral_offset) <= cfg.lane_width
        assert 0 <= v.lane_index < cfg.lanes_count


@settings(max_examples=40, deadline=None)
@given(worlds(Fidelity.SIMPLE, max_decisions=40))
def test_simple_world_invariants_and_two_step_lane_changes(case):
    # every maneuver, ego or traffic, completes exactly at the end of the
    # decision after the one it started in
    started: dict[int, tuple[int, int]] = {}
    for world, _ in run_checked(**case):
        for v in world.vehicles:
            if v.id in started and started[v.id][0] == world.decision_count - 1:
                assert v.lane_change is None
                assert v.lane_index == started.pop(v.id)[1]
                assert v.lateral_offset == 0.0
            elif v.lane_change is not None and v.id not in started:
                started[v.id] = (world.decision_count, v.lane_change.target_lane)


@settings(max_examples=25, deadline=None)
@given(worlds(Fidelity.COMPLEX, max_decisions=60))
def test_complex_world_invariants(case):
    for _ in run_checked(**case):
        pass


def scanned_observation(world):
    """The observation by a scan of every vehicle for each slot: the nearest
    non-ego vehicle in the slot's lane and direction by clamped bumper gap,
    within sensor range, the first in list order on a tie."""
    cfg = world.config
    ego = world.ego()
    out = [ego.speed]
    for lane_offset, ahead in ((0, True), (-1, True), (-1, False), (1, True), (1, False)):
        lane = ego.lane_index + lane_offset
        best, best_gap = None, math.inf
        if 0 <= lane < cfg.lanes_count:
            for v in world.vehicles:
                dx = v.longitudinal_pos - ego.longitudinal_pos
                if v.is_ego or v.lane_index != lane or (dx <= 0 if ahead else dx >= 0):
                    continue
                gap = max(abs(dx) - VEHICLE_LENGTH, 0.0)
                if gap <= cfg.sensor_range and (best is None or gap < best_gap):
                    best, best_gap = v, gap
        out.extend((ego.speed, cfg.sensor_range) if best is None else (best.speed, best_gap))
    return np.array(out, dtype=np.float64)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(list(Fidelity)).flatmap(lambda f: worlds(f, max_decisions=60)))
def test_observation_matches_a_scan_of_every_vehicle(case):
    env = HighwayEnv(case["config"], master_seed=case["master_seed"])
    env.reset()
    for command in case["commands"]:  # the reset state up to a terminal one
        assert build_observation(env.world).tobytes() == \
            scanned_observation(env.world).tobytes()
        if env.step(command)[2].episode_done:
            break
    assert build_observation(env.world).tobytes() == scanned_observation(env.world).tobytes()
