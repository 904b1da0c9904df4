import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from s2cd.highway_sim import (
    Action,
    Density,
    Fidelity,
    SimConfig,
    StepEvents,
    VehicleState,
    spawn_scenario,
)
from s2cd.mdp_interface import (
    HighwayEnv,
    RewardBreakdown,
    RewardConfig,
    build_observation,
    efficiency_reward,
    safety_cost,
    step_reward,
)


def empty_world(seed=0):
    world = spawn_scenario(SimConfig(seed=seed))
    world.vehicles = [v for v in world.vehicles if v.is_ego]
    return world


def add_vehicle(world, vid, pos, lane, speed):
    world.vehicles.append(VehicleState(id=vid, longitudinal_pos=pos, lane_index=lane,
                                       lateral_offset=0.0, speed=speed, target_speed=speed))
    world.vehicles.sort(key=lambda v: (v.lane_index, v.longitudinal_pos))


class TestObservation:
    def test_empty_road_sentinels(self):
        world = empty_world()
        world.ego().speed = 14.0
        obs = build_observation(world)
        assert obs[0] == 14.0
        assert np.array_equal(obs[1::2], np.full(5, 14.0))
        assert np.array_equal(obs[2::2], np.full(5, 50.0))

    def test_front_vehicle_raw_and_normalized(self):
        world = empty_world()
        world.ego().speed = 10.0
        # bumper gap 30 means center distance 35 with 5 m lengths
        add_vehicle(world, 1, 35.0, 1, 20.0)
        obs = build_observation(world)
        assert (obs[1], obs[2]) == (20.0, 30.0)
        env = HighwayEnv(world.config)
        env.world = world
        vec = env._observe()
        assert vec[1] == pytest.approx(0.8)
        assert vec[2] == pytest.approx(0.6)

    def test_nearest_of_two_candidates_wins(self):
        world = empty_world()
        add_vehicle(world, 1, 17.0, 0, 18.0)   # gap 12 front-left
        add_vehicle(world, 2, 45.0, 0, 22.0)   # gap 40 front-left
        obs = build_observation(world)
        assert (obs[3], obs[4]) == (18.0, 12.0)

    def test_vehicle_beyond_sensor_ignored(self):
        world = empty_world()
        world.ego().speed = 5.0
        add_vehicle(world, 1, 60.0, 1, 20.0)   # gap 55 > 50
        obs = build_observation(world)
        assert (obs[1], obs[2]) == (5.0, 50.0)

    def test_missing_adjacent_lane_sentinel(self):
        world = empty_world()
        world.ego().lane_index = 0
        world.ego().speed = 8.0
        obs = build_observation(world)
        assert (obs[3], obs[4]) == (8.0, 50.0)  # no lane to the left
        assert (obs[5], obs[6]) == (8.0, 50.0)

    def test_vector_layout(self):
        # ego in the middle lane at 0 with one vehicle in every slot; with
        # 5 m lengths a bumper gap g puts a vehicle at +-(g + 5)
        world = empty_world()
        world.ego().speed = 1.0
        for vid, (pos, lane, speed) in enumerate([(8.0, 1, 2.0), (10.0, 0, 4.0),
                                                  (-12.0, 0, 6.0), (14.0, 2, 8.0),
                                                  (-16.0, 2, 10.0)], start=1):
            add_vehicle(world, vid, pos, lane, speed)
        obs = build_observation(world)
        assert obs.dtype == np.float64
        assert np.array_equal(obs, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0,
                                    8.0, 9.0, 10.0, 11.0])

    def test_normalized_components_in_unit_box_for_reachable_worlds(self):
        rng = np.random.default_rng(0)
        for seed in range(5):
            env = HighwayEnv(SimConfig(seed=seed), master_seed=seed)
            vec = env.reset()
            for _ in range(60):
                assert np.all(vec >= 0.0) and np.all(vec <= 1.0)
                vec, _, events = env.step(Action(int(rng.integers(0, 3))))
                if events.episode_done:
                    break


class TestEfficiencyReward:
    def test_below_threshold_zero(self):
        assert efficiency_reward(10.0) == 0.0

    def test_top_speed_value(self):
        assert efficiency_reward(25.0) == pytest.approx(0.5, abs=1e-12)

    def test_midpoint_value(self):
        assert efficiency_reward(18.75) == pytest.approx(0.25, abs=1e-12)

    @given(st.floats(min_value=0.0, max_value=25.0))
    @settings(max_examples=200, deadline=None)
    def test_monotone_and_bounded(self, v):
        r = efficiency_reward(v)
        assert 0.0 <= r <= 0.5
        if v >= 1e-6:
            assert efficiency_reward(v - 1e-6) <= r + 1e-12

    def test_continuity_at_breakpoints(self):
        assert efficiency_reward(12.5 - 1e-9) == pytest.approx(efficiency_reward(12.5), abs=1e-8)
        assert efficiency_reward(25.0 - 1e-9) == pytest.approx(efficiency_reward(25.0), abs=1e-8)


class TestSafetyCost:
    def test_collision_dominates(self):
        assert safety_cost(40.0, collided=True) == 1.0

    def test_close_gap_full_weight(self):
        assert safety_cost(3.0, collided=False) == 1.0

    def test_ramp_midpoint(self):
        assert safety_cost(7.5, collided=False) == pytest.approx(0.5, abs=1e-12)

    @given(st.floats(min_value=0.0, max_value=60.0))
    @settings(max_examples=200, deadline=None)
    def test_monotone_nonincreasing(self, d):
        c = safety_cost(d, collided=False)
        assert 0.0 <= c <= 1.0
        assert safety_cost(d + 1e-6, collided=False) <= c + 1e-12

    def test_continuity_at_breakpoints(self):
        assert safety_cost(5.0 - 1e-9, False) == pytest.approx(safety_cost(5.0, False), abs=1e-8)
        assert safety_cost(10.0 - 1e-9, False) == pytest.approx(safety_cost(10.0, False), abs=1e-8)


class TestStepReward:
    def make_events(self, front, rear, collision=False):
        return StepEvents(collision=collision, min_gap_front=front, min_gap_rear=rear)

    def test_fast_and_clear(self):
        world = empty_world()
        world.ego().speed = 25.0
        r = step_reward(self.make_events(40.0, 40.0), world)
        assert r.total == pytest.approx(0.5)

    def test_collision_at_standstill(self):
        world = empty_world()
        world.ego().speed = 0.0
        r = step_reward(self.make_events(0.0, 50.0, collision=True), world)
        assert r.total == pytest.approx(-1.0)

    def test_double_boundary_zero(self):
        world = empty_world()
        world.ego().speed = 12.5
        r = step_reward(self.make_events(10.0, 50.0), world)
        assert r.total == pytest.approx(0.0)

    def test_total_identity(self):
        world = empty_world()
        world.ego().speed = 19.0
        r = step_reward(self.make_events(8.0, 30.0), world)
        assert r.total == r.efficiency - r.cost

    def test_per_step_bounds(self):
        rng = np.random.default_rng(1)
        world = empty_world()
        for _ in range(300):
            world.ego().speed = float(rng.uniform(0, 25))
            ev = self.make_events(float(rng.uniform(0, 50)), float(rng.uniform(0, 50)),
                                  collision=bool(rng.integers(0, 2)))
            r = step_reward(ev, world)
            assert -1.0 <= r.total <= 0.5


class TestHighwayEnv:
    def test_reset_gives_normalized_11_vector(self):
        env = HighwayEnv(SimConfig(seed=0), master_seed=1)
        vec = env.reset()
        assert vec.shape == (11,)
        assert np.all((0.0 <= vec) & (vec <= 1.0))

    def test_episode_sequence_deterministic(self):
        def run(master):
            env = HighwayEnv(SimConfig(seed=0), master_seed=master)
            out = []
            for _ in range(3):
                vec = env.reset()
                out.append(vec.tobytes())
            return out
        assert run(7) == run(7)
        assert run(7) != run(8)

    def test_step_before_reset_rejected(self):
        env = HighwayEnv(SimConfig(seed=0))
        with pytest.raises(RuntimeError):
            env.step(Action.FOLLOW)

    def test_rewards_match_events(self):
        env = HighwayEnv(SimConfig(seed=3), master_seed=3)
        env.reset()
        _, reward, events = env.step(Action.FOLLOW)
        d_safe = min(events.min_gap_front, events.min_gap_rear)
        assert reward.cost == safety_cost(d_safe, events.collision)
