import math

import numpy as np
import pytest

from s2cd.highway_sim import (
    Action,
    Density,
    Fidelity,
    SimConfig,
    StepEvents,
    VehicleState,
    WorldState,
    _accelerations,
    _mobil_lane_choice,
    detect_collision,
    spawn_scenario,
    step,
    world_hash,
)


def make_config(fidelity=Fidelity.SIMPLE, density=Density.MEDIUM, **kw):
    return SimConfig(fidelity=fidelity, density=density, **kw)


def clear_traffic(world):
    world.vehicles = [v for v in world.vehicles if v.is_ego]
    return world


def traffic_policy(world, vehicle_id):
    """The IDM acceleration and the MOBIL lane choice that a traffic-decision
    substep computes for the traffic vehicle ``vehicle_id``."""
    lanes = world.lanes()
    index = next(i for i, v in enumerate(lanes.vehicles) if v.id == vehicle_id)
    accel = _accelerations(world.config, lanes)[index]
    return accel, _mobil_lane_choice(world.config, lanes, lanes.vehicles[index], accel)


class TestSpawn:
    def test_medium_density_per_lane_counts(self):
        counts = []
        for seed in range(30):
            world = spawn_scenario(make_config(), seed)
            for lane in range(3):
                counts.append(sum(1 for v in world.vehicles
                                  if not v.is_ego and v.lane_index == lane))
        assert min(counts) >= 11
        assert max(counts) <= 20
        assert 13.0 <= np.mean(counts) <= 17.0

    def test_same_seed_bit_identical(self):
        w1 = spawn_scenario(make_config(), 123)
        w2 = spawn_scenario(make_config(), 123)
        assert world_hash(w1) == world_hash(w2)
        for a, b in zip(w1.vehicles, w2.vehicles):
            assert (a.id, a.lane_index, a.longitudinal_pos, a.speed, a.target_speed) == \
                   (b.id, b.lane_index, b.longitudinal_pos, b.speed, b.target_speed)

    def test_different_seed_differs(self):
        assert world_hash(spawn_scenario(make_config(), 1)) != \
               world_hash(spawn_scenario(make_config(), 2))

    @pytest.mark.parametrize("density,lo,hi", [
        (Density.HIGH, 20.0, 50.0),
        (Density.MEDIUM, 50.0, 90.0),
        (Density.LOW, 90.0, 120.0),
    ])
    def test_spacing_samples_within_interval(self, density, lo, hi):
        worlds = 1000 if density is Density.HIGH else 200
        smallest, largest = math.inf, -math.inf
        for seed in range(worlds):
            world = spawn_scenario(make_config(density=density), seed)
            for lane in range(3):
                xs = sorted(v.longitudinal_pos for v in world.vehicles
                            if not v.is_ego and v.lane_index == lane)
                for a, b in zip(xs, xs[1:]):
                    gap = b - a
                    smallest = min(smallest, gap)
                    largest = max(largest, gap)
        assert smallest >= lo
        assert largest <= hi

    def test_all_speeds_zero_and_ego_centered(self):
        world = spawn_scenario(make_config(), 5)
        assert all(v.speed == 0.0 for v in world.vehicles)
        ego = world.ego()
        assert ego.lane_index == 1
        assert ego.lateral_offset == 0.0
        assert ego.longitudinal_pos == 0.0

    def test_traffic_target_speeds_in_range(self):
        world = spawn_scenario(make_config(), 9)
        for v in world.vehicles:
            if not v.is_ego:
                assert 15.0 <= v.target_speed <= 25.0

    def test_ego_front_clearance_high_density(self):
        for seed in range(50):
            world = spawn_scenario(make_config(density=Density.HIGH), seed)
            ego = world.ego()
            ahead = [v.longitudinal_pos for v in world.vehicles
                     if not v.is_ego and v.lane_index == ego.lane_index]
            assert min(ahead) >= 30.0

    def test_rejects_bad_configs(self):
        with pytest.raises(ValueError):
            SimConfig(lanes_count=1)
        with pytest.raises(ValueError):
            SimConfig(density="jammed")


class TestSimpleLaneChange:
    def test_completes_in_exactly_two_decision_steps(self):
        world = clear_traffic(spawn_scenario(make_config(), 0))
        ego = world.ego()
        ego.speed = 20.0
        step(world, Action.LEFT_LANE_CHANGE)
        assert world.ego().lane_change is not None
        step(world, Action.FOLLOW)
        ego = world.ego()
        assert ego.lane_change is None
        assert ego.lane_index == 0
        assert ego.lateral_offset == 0.0

    def test_second_command_during_maneuver_degrades(self):
        world = clear_traffic(spawn_scenario(make_config(), 0))
        world.ego().speed = 20.0
        _, ev = step(world, Action.LEFT_LANE_CHANGE)
        assert not ev.command_degraded
        _, ev = step(world, Action.LEFT_LANE_CHANGE)
        assert ev.command_degraded
        assert world.ego().lane_index == 0

    def test_edge_lane_command_degrades_to_follow(self):
        world = clear_traffic(spawn_scenario(make_config(), 0))
        ego = world.ego()
        ego.lane_index = 0
        _, ev = step(world, Action.LEFT_LANE_CHANGE)
        assert ev.command_degraded
        assert world.ego().lane_index == 0
        assert world.ego().lane_change is None


class TestFollowDynamics:
    def test_free_road_holds_speed_limit(self):
        world = clear_traffic(spawn_scenario(make_config(), 0))
        world.ego().speed = 25.0
        for _ in range(10):
            step(world, Action.FOLLOW)
        assert world.ego().speed == pytest.approx(25.0, abs=1e-9)

    def test_accelerates_from_standstill(self):
        world = clear_traffic(spawn_scenario(make_config(), 0))
        step(world, Action.FOLLOW)
        assert world.ego().speed > 0.5

    def test_lone_traffic_vehicle_settles_at_its_target_speed(self):
        world = clear_traffic(spawn_scenario(make_config(), 0))
        v = VehicleState(id=11, longitudinal_pos=100.0, lane_index=0, lateral_offset=0.0,
                         speed=10.0, target_speed=20.0)
        world.vehicles.append(v)
        world.vehicles.sort(key=lambda u: (u.lane_index, u.longitudinal_pos))
        for _ in range(60):
            step(world, Action.FOLLOW)
            assert v.speed <= 20.0
        assert v.lane_index == 0
        assert v.speed == pytest.approx(20.0, abs=0.05)


class TestComplexLaneChange:
    def test_completion_step_count_in_contract_window(self):
        rng = np.random.default_rng(0)
        counts = []
        for trial in range(100):
            world = clear_traffic(spawn_scenario(make_config(fidelity=Fidelity.COMPLEX), trial))
            ego = world.ego()
            ego.speed = float(rng.uniform(10.0, 25.0))
            ego.lane_index = 1
            direction = Action.LEFT_LANE_CHANGE if trial % 2 == 0 else Action.RIGHT_LANE_CHANGE
            step(world, direction)
            assert world.ego().lane_change is not None
            n = 1
            while world.ego().lane_change is not None:
                step(world, Action.FOLLOW)
                n += 1
                assert n < 50
            counts.append(n)
            ego = world.ego()
            assert ego.lateral_offset == 0.0
            expected = 0 if direction is Action.LEFT_LANE_CHANGE else 2
            assert ego.lane_index == expected
        assert min(counts) >= 10
        assert max(counts) <= 20


class TestDeterminismAndInvariants:
    def test_seed_and_commands_reproduce_hash_trajectory(self):
        cmds = [Action.FOLLOW] * 30 + [Action.LEFT_LANE_CHANGE] + [Action.FOLLOW] * 20
        hashes = []
        for _ in range(2):
            world = spawn_scenario(make_config(), 77)
            run = [world_hash(world)]
            for c in cmds:
                if world.terminal:
                    break
                step(world, c)
                run.append(world_hash(world))
            hashes.append(run)
        assert hashes[0] == hashes[1]

    def test_speed_box_and_sorted_order(self):
        world = spawn_scenario(make_config(), 3)
        rng = np.random.default_rng(4)
        for _ in range(120):
            if world.terminal:
                break
            step(world, Action(int(rng.integers(0, 3))))
            keys = [(v.lane_index, v.longitudinal_pos) for v in world.vehicles]
            assert keys == sorted(keys)
            for v in world.vehicles:
                assert 0.0 <= v.speed <= 25.0 + 1e-12
                assert abs(v.lateral_offset) <= world.config.lane_width

    def test_exactly_one_ego(self):
        world = spawn_scenario(make_config(), 6)
        assert sum(v.is_ego for v in world.vehicles) == 1


class TestCollision:
    def test_same_lane_overlap(self):
        world = clear_traffic(spawn_scenario(make_config(), 0))
        world.vehicles.append(VehicleState(id=99, longitudinal_pos=4.9, lane_index=1,
                                           lateral_offset=0.0, speed=0.0, target_speed=20.0))
        world.vehicles.sort(key=lambda v: (v.lane_index, v.longitudinal_pos))
        assert detect_collision(world).collision

    def test_adjacent_lane_no_overlap(self):
        world = clear_traffic(spawn_scenario(make_config(), 0))
        world.vehicles.append(VehicleState(id=99, longitudinal_pos=0.0, lane_index=0,
                                           lateral_offset=0.0, speed=0.0, target_speed=20.0))
        world.vehicles.sort(key=lambda v: (v.lane_index, v.longitudinal_pos))
        assert not detect_collision(world).collision

    def test_road_boundary_is_collision(self):
        world = clear_traffic(spawn_scenario(make_config(), 0))
        ego = world.ego()
        ego.lane_index = 0
        ego.lateral_offset = -1.2  # rectangle edge crosses the road edge
        assert detect_collision(world).collision

    def test_gap_capping(self):
        world = clear_traffic(spawn_scenario(make_config(), 0))
        # front bumper gap 7: center distance 12; rear center distance 65 -> gap 60 capped
        world.vehicles.append(VehicleState(id=98, longitudinal_pos=12.0, lane_index=1,
                                           lateral_offset=0.0, speed=0.0, target_speed=20.0))
        world.vehicles.append(VehicleState(id=97, longitudinal_pos=-65.0, lane_index=1,
                                           lateral_offset=0.0, speed=0.0, target_speed=20.0))
        world.vehicles.sort(key=lambda v: (v.lane_index, v.longitudinal_pos))
        ev = detect_collision(world)
        assert ev.min_gap_front == pytest.approx(7.0)
        assert ev.min_gap_rear == pytest.approx(50.0)
        assert not ev.collision

    def test_success_requires_distance_and_no_collision(self):
        world = clear_traffic(spawn_scenario(make_config(), 0))
        world.ego_distance_travelled = 1000.0
        ev = detect_collision(world)
        assert ev.success and ev.episode_done


class TestConfigFloats:
    def test_int_float_fields_give_the_float_world(self):
        worlds = [spawn_scenario(make_config(speed_limit=limit, lane_width=width), 3)
                  for limit, width in ((30, 4), (30.0, 4.0))]
        for _ in range(20):
            assert world_hash(worlds[0]) == world_hash(worlds[1])
            for world in worlds:
                step(world, Action.FOLLOW)


class TestTrafficPolicy:
    def test_leader_beyond_sensor_range_is_free_flow(self):
        world = clear_traffic(spawn_scenario(make_config(), 0))
        v = VehicleState(id=11, longitudinal_pos=100.0, lane_index=0, lateral_offset=0.0,
                         speed=20.0, target_speed=20.0)
        lead = VehicleState(id=12, longitudinal_pos=200.0, lane_index=0, lateral_offset=0.0,
                            speed=20.0, target_speed=20.0)
        world.vehicles.extend([v, lead])
        world.vehicles.sort(key=lambda u: (u.lane_index, u.longitudinal_pos))
        accel, _ = traffic_policy(world, 11)
        assert abs(accel) <= 0.05

    def test_tiny_gap_forces_braking(self):
        world = clear_traffic(spawn_scenario(make_config(), 0))
        v = VehicleState(id=11, longitudinal_pos=100.0, lane_index=0, lateral_offset=0.0,
                         speed=20.0, target_speed=20.0)
        lead = VehicleState(id=12, longitudinal_pos=107.0, lane_index=0, lateral_offset=0.0,
                            speed=20.0, target_speed=20.0)
        world.vehicles.extend([v, lead])
        world.vehicles.sort(key=lambda u: (u.lane_index, u.longitudinal_pos))
        accel, _ = traffic_policy(world, 11)
        assert accel < 0

    def test_no_advantage_keeps_lane(self):
        world = clear_traffic(spawn_scenario(make_config(), 0))
        v = VehicleState(id=11, longitudinal_pos=200.0, lane_index=1, lateral_offset=0.0,
                         speed=20.0, target_speed=20.0)
        world.vehicles.append(v)
        world.vehicles.sort(key=lambda u: (u.lane_index, u.longitudinal_pos))
        _, decision = traffic_policy(world, 11)
        assert decision is Action.FOLLOW

    def test_vehicle_at_the_same_position_is_not_a_leader(self):
        from s2cd.lowlevel_control import idm_accel
        world = clear_traffic(spawn_scenario(make_config(), 0))
        speeds = {11: 20.0, 12: 5.0, 13: 10.0}
        for vid, pos in ((11, 100.0), (12, 100.0), (13, 125.0)):
            world.vehicles.append(VehicleState(id=vid, longitudinal_pos=pos, lane_index=0,
                                               lateral_offset=0.0, speed=speeds[vid],
                                               target_speed=20.0))
        world.vehicles.sort(key=lambda u: (u.lane_index, u.longitudinal_pos))
        for vid in (11, 12):
            v = next(u for u in world.vehicles if u.id == vid)
            accel, _ = traffic_policy(world, vid)
            assert accel == idm_accel(v.speed, 10.0, 20.0, v.target_speed)


class TestEpisodeLengths:
    @pytest.mark.slow
    def test_simple_follow_episode_step_count(self):
        lengths = []
        for seed in range(5):
            world = spawn_scenario(make_config(), seed)
            n = 0
            while True:
                _, ev = step(world, Action.FOLLOW)
                n += 1
                if ev.episode_done:
                    break
            assert ev.success
            lengths.append(n)
        assert min(lengths) >= 80
        assert max(lengths) <= 150

    @pytest.mark.slow
    def test_complex_follow_episode_step_count(self):
        lengths = []
        for seed in range(3):
            world = spawn_scenario(make_config(fidelity=Fidelity.COMPLEX), seed)
            n = 0
            while True:
                _, ev = step(world, Action.FOLLOW)
                n += 1
                if ev.episode_done:
                    break
            assert ev.success
            lengths.append(n)
        assert min(lengths) >= 900
        assert max(lengths) <= 1600


class TestSnapshot:
    def test_terminal_world_rejects_step(self):
        world = spawn_scenario(make_config(), 1)
        world.terminal = True
        with pytest.raises(RuntimeError):
            step(world, Action.FOLLOW)
