"""Deterministic two-fidelity multi-lane highway world.

Simple fidelity runs 2 Hz decisions over 10 Hz kinematics and finishes a
lane change in exactly 2 decision steps by linear lateral interpolation.
Complex fidelity runs 20 Hz decisions over 20 Hz kinematics and executes
lane changes through the low-level stack (two-piece cubic path, PID lateral
tracking, IDM speed), taking 10 to 20 decision steps.

Traffic follows IDM car-following plus a MOBIL-style gap-and-incentive
lane-change rule. All stochasticity lives in ``spawn_scenario``; stepping
is fully deterministic, so (seed, command sequence) reproduces a world
trajectory bit for bit.
"""
from __future__ import annotations

import bisect
import hashlib
import math
import numbers
import sys
from dataclasses import dataclass, field, fields
from enum import Enum, IntEnum
from operator import attrgetter

import numpy as np

from .lowlevel_control import (
    BRAKE_FLOOR,
    IDM_A_MAX,
    IDM_BRAKE_SCALE,
    IDM_S0,
    IDM_T,
    IDM_ZETA,
    LATERAL_GAINS,
    LanePath,
    PidState,
    idm_accel,
    pid_step,
    plan_lane_change,
)


class Fidelity(str, Enum):
    SIMPLE = "simple"
    COMPLEX = "complex"


class Density(str, Enum):
    LOW = "low"
    MEDIUM = "medium"
    HIGH = "high"


class Action(IntEnum):
    FOLLOW = 0
    LEFT_LANE_CHANGE = 1
    RIGHT_LANE_CHANGE = 2


# Uniform spacing interval (metres) between consecutive same-lane vehicles.
SPACING_BY_DENSITY = {
    Density.LOW: (90.0, 120.0),
    Density.MEDIUM: (50.0, 90.0),
    Density.HIGH: (20.0, 50.0),
}

VEHICLE_LENGTH = 5.0
VEHICLE_WIDTH = 2.0

# Minimum clear distance to the first vehicle spawned ahead of the ego, so
# no scenario starts inside the safety-cost band. Only binds at high density.
EGO_FRONT_CLEARANCE = 30.0

TRAFFIC_TARGET_SPEED_RANGE = (15.0, 25.0)

# MOBIL-style traffic lane changes: accel gain threshold, politeness zero,
# and a hard front/rear gap requirement in the target lane.
MOBIL_GAIN_THRESHOLD = 0.2
MOBIL_SAFETY_GAP = 10.0
TRAFFIC_DECISION_PERIOD = 1.0   # seconds between traffic lane-change checks
TRAFFIC_COOLDOWN = 5.0          # seconds a vehicle keeps its lane after a change

# Complex-fidelity lateral execution. The slope cap and the flat rate
# ceiling together pin maneuver completion into the 10..20 decision-step
# window for initial speeds in [10, 25] m/s.
LATERAL_LOOKAHEAD = 2.0         # metres ahead on the planned path
MAX_LATERAL_SLOPE = 0.4         # |dy/dx| bound of the executed motion
MAX_LATERAL_RATE = 7.0          # m/s absolute lateral speed bound
LANE_CHANGE_COMPLETION_TOL = 0.2

# Safety net so a stalled episode cannot run unbounded.
MAX_DECISION_STEPS = {Fidelity.SIMPLE: 600, Fidelity.COMPLEX: 4000}

# World.vehicles is kept sorted by this key after every substep.
_LANE_ORDER = attrgetter("lane_index", "longitudinal_pos")

# Accepted types of annotated config fields: bools only in bool fields.
_FIELD_KINDS = {"int": numbers.Integral, "float": numbers.Real, "float | None": numbers.Real,
                "bool": bool}


def check_number_fields(config) -> None:
    """Raise ValueError when a numeric or bool dataclass field holds another
    type, or a float field holds NaN, an infinity or an int beyond float range."""
    for f in fields(config):
        kind, value = _FIELD_KINDS.get(f.type), getattr(config, f.name)
        if kind is not None and (isinstance(value, bool) != (kind is bool)
                                 or not isinstance(value, kind)):
            raise ValueError(f"{f.name} must be of type {f.type}")
        if kind is numbers.Real and not abs(value) <= sys.float_info.max:
            raise ValueError(f"{f.name} must be finite")


@dataclass
class SimConfig:
    fidelity: Fidelity = Fidelity.SIMPLE
    lanes_count: int = 3
    lane_width: float = 3.75
    speed_limit: float = 25.0
    density: Density = Density.MEDIUM
    episode_length: float = 1000.0
    sensor_range: float = 50.0
    sim_dt: float | None = None
    decisions_per_second: float | None = None

    def __post_init__(self) -> None:
        self.fidelity = Fidelity(self.fidelity)
        self.density = Density(self.density)
        if self.sim_dt is None:
            self.sim_dt = 0.1 if self.fidelity is Fidelity.SIMPLE else 0.05
        if self.decisions_per_second is None:
            self.decisions_per_second = 2.0 if self.fidelity is Fidelity.SIMPLE else 20.0
        check_number_fields(self)
        # an int in a float field becomes that float, so every world value is one
        for f in fields(self):
            if f.type in ("float", "float | None"):
                setattr(self, f.name, float(getattr(self, f.name)))
        for name in ("decisions_per_second", "speed_limit", "episode_length", "lane_width",
                     "sim_dt", "sensor_range"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if self.lanes_count < 2:
            raise ValueError("lanes_count must be at least 2")
        if self.substeps_per_decision < 1:
            raise ValueError("decision interval must cover at least one sim step")
        interval = 1.0 / self.decisions_per_second
        if abs(interval / self.sim_dt - round(interval / self.sim_dt)) > 1e-9:
            raise ValueError("decision interval must be an integer multiple of sim_dt")

    @property
    def substeps_per_decision(self) -> int:
        return int(round(1.0 / (self.decisions_per_second * self.sim_dt)))

    def lane_center(self, lane: int) -> float:
        return (lane + 0.5) * self.lane_width

    @property
    def road_width(self) -> float:
        return self.lanes_count * self.lane_width


@dataclass
class LaneChangeManeuver:
    """In-progress lane change bookkeeping for one vehicle."""

    source_lane: int
    target_lane: int
    # simple fidelity: substeps done of the two-decision schedule
    substeps_done: int = 0
    # complex fidelity: planned path plus controller state
    path: LanePath | None = None
    pid: PidState = field(default_factory=PidState)
    lateral_rate: float = 0.0


@dataclass
class VehicleState:
    id: int
    longitudinal_pos: float
    lane_index: int
    lateral_offset: float
    speed: float
    target_speed: float
    is_ego: bool = False
    lane_change: LaneChangeManeuver | None = None
    cooldown_until: float = 0.0


class LaneIndex:
    """Where each lane sits in a (lane, position)-sorted vehicle list: lane
    l is ``vehicles[starts[l]:starts[l + 1]]``, and ``positions`` holds
    every vehicle's longitudinal position, so a lane's vehicles are found
    by C bisection of plain floats."""

    __slots__ = ("vehicles", "positions", "starts")

    def __init__(self, vehicles: list[VehicleState], lanes_count: int):
        self.vehicles = vehicles
        self.positions = [v.longitudinal_pos for v in vehicles]
        lanes = [v.lane_index for v in vehicles]
        self.starts = [bisect.bisect_left(lanes, lane) for lane in range(lanes_count + 1)]


@dataclass
class WorldState:
    """The world. ``vehicles`` is kept sorted by (lane, position) and
    indexed by lane (``lanes()``); ``spawn_scenario`` and ``step`` sort and
    index it. Code that edits vehicles' lanes or positions in place between
    steps calls ``sort_vehicles()``; a replaced or resized list is indexed
    again on its next use, and must still hold the ego record, which is
    found once, at construction."""

    config: SimConfig
    vehicles: list[VehicleState]
    sim_time: float = 0.0
    ego_distance_travelled: float = 0.0
    decision_count: int = 0
    substep_count: int = 0
    terminal: bool = False
    _lanes: LaneIndex | None = field(default=None, init=False, repr=False, compare=False)
    _ego: VehicleState | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._ego = next((v for v in self.vehicles if v.is_ego), None)
        if self._ego is None:
            raise RuntimeError("world has no ego vehicle")

    def ego(self) -> VehicleState:
        return self._ego

    def sort_vehicles(self) -> None:
        """Sort the vehicles by (lane, position) and index them by lane."""
        self.vehicles.sort(key=_LANE_ORDER)
        self._lanes = LaneIndex(self.vehicles, self.config.lanes_count)

    def lanes(self) -> LaneIndex:
        """The lane index of ``vehicles``."""
        lanes = self._lanes
        if (lanes is None or lanes.vehicles is not self.vehicles
                or len(lanes.positions) != len(self.vehicles)):
            lanes = self._lanes = LaneIndex(self.vehicles, self.config.lanes_count)
        return lanes


@dataclass
class StepEvents:
    collision: bool = False
    min_gap_front: float = 0.0
    min_gap_rear: float = 0.0
    episode_done: bool = False
    success: bool = False
    command_degraded: bool = False


def spawn_scenario(config: SimConfig, seed: int) -> WorldState:
    """Build the initial world: ego mid-lane in the center lane at x=0, all
    speeds zero, traffic placed ahead with density-driven uniform spacing
    drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    lo, hi = SPACING_BY_DENSITY[config.density]
    ego_lane = config.lanes_count // 2

    ego = VehicleState(
        id=0, longitudinal_pos=0.0, lane_index=ego_lane, lateral_offset=0.0,
        speed=0.0, target_speed=config.speed_limit, is_ego=True,
    )
    vehicles = [ego]
    next_id = 1
    for lane in range(config.lanes_count):
        pos = 0.0
        first = True
        while True:
            spacing = float(rng.uniform(lo, hi))
            if first and lane == ego_lane:
                spacing = max(spacing, EGO_FRONT_CLEARANCE)
            pos += spacing
            first = False
            if pos > config.episode_length:
                break
            target = float(rng.uniform(*TRAFFIC_TARGET_SPEED_RANGE))
            vehicles.append(VehicleState(
                id=next_id, longitudinal_pos=pos, lane_index=lane,
                lateral_offset=0.0, speed=0.0, target_speed=target,
            ))
            next_id += 1

    world = WorldState(config=config, vehicles=vehicles)
    world.sort_vehicles()
    return world


def step(world: WorldState, ego_command: Action) -> tuple[WorldState, StepEvents]:
    """Advance one decision step (mutates ``world`` and returns it).

    Lane-change commands into a nonexistent lane, or while a maneuver is
    already running, degrade to Follow and set ``command_degraded``.
    """
    if world.terminal:
        raise RuntimeError("episode is over; spawn a fresh scenario")
    cfg = world.config
    ego = world.ego()

    degraded = False
    command = Action(ego_command)
    if command is not Action.FOLLOW:
        delta = -1 if command is Action.LEFT_LANE_CHANGE else 1
        target = ego.lane_index + delta
        if ego.lane_change is not None or not 0 <= target < cfg.lanes_count:
            degraded = True
        else:
            _begin_lane_change(cfg, ego, target)

    traffic_period = max(1, int(round(TRAFFIC_DECISION_PERIOD / cfg.sim_dt)))
    for _ in range(cfg.substeps_per_decision):
        _advance_substep(world, world.substep_count % traffic_period == 0)
        world.substep_count += 1
        collided = _ego_collides(cfg, world.lanes(), ego)
        if collided:
            break
    world.decision_count += 1
    world.sim_time = world.substep_count * cfg.sim_dt

    events = detect_collision(world, collided)
    events.command_degraded = degraded
    out_of_time = world.decision_count >= MAX_DECISION_STEPS[cfg.fidelity]
    events.episode_done = world.terminal = events.episode_done or out_of_time
    return world, events


def _begin_lane_change(cfg: SimConfig, vehicle: VehicleState, target: int) -> None:
    if cfg.fidelity is Fidelity.SIMPLE:
        vehicle.lane_change = LaneChangeManeuver(source_lane=vehicle.lane_index,
                                                 target_lane=target)
    else:
        y = cfg.lane_center(vehicle.lane_index) + vehicle.lateral_offset
        waypoints = plan_lane_change(vehicle.longitudinal_pos, y, vehicle.lane_index,
                                     target, cfg.lane_width, cfg.lanes_count)
        vehicle.lane_change = LaneChangeManeuver(
            source_lane=vehicle.lane_index, target_lane=target,
            path=LanePath.through(waypoints),
        )


def _neighbours(lanes: LaneIndex, lane: int, vehicle: VehicleState):
    """(lead, front gap, rear, rear gap): the nearest vehicles strictly ahead
    of and strictly behind ``vehicle`` in ``lane`` and the bumper gaps to
    them, by bisection of the lane's positions. A missing neighbour is None
    with an infinite gap."""
    x = vehicle.longitudinal_pos
    xs = lanes.positions
    lo, hi = lanes.starts[lane], lanes.starts[lane + 1]
    idx = bisect.bisect_left(xs, x, lo, hi)
    rear, rear_gap = None, math.inf
    if idx > lo:
        rear = lanes.vehicles[idx - 1]
        rear_gap = x - xs[idx - 1] - VEHICLE_LENGTH
    idx = bisect.bisect_right(xs, x, idx, hi)
    if idx == hi:
        return None, math.inf, rear, rear_gap
    return lanes.vehicles[idx], xs[idx] - x - VEHICLE_LENGTH, rear, rear_gap


def _leader_accel(cfg: SimConfig, lanes: LaneIndex, lane: int,
                  vehicle: VehicleState, accel: float | None) -> float | None:
    """The smaller of ``accel`` and the IDM acceleration behind the leader in
    ``lane``; None stands for no leader in sensor range."""
    lead, gap, _, _ = _neighbours(lanes, lane, vehicle)
    if lead is None or gap > cfg.sensor_range:
        return accel
    other = idm_accel(vehicle.speed, lead.speed, max(gap, 0.1), vehicle.target_speed)
    return accel if accel is not None and accel <= other else other


def _accelerations(cfg: SimConfig, lanes: LaneIndex) -> list[float]:
    """IDM acceleration of every vehicle against its most restrictive visible
    leader: the own-lane one and, during a lane change, the target-lane one.
    The free-road value is computed only when no leader is in sensor range,
    since a leader's gap term only subtracts from it. The own-lane and
    free-road cases are ``idm_accel`` written out, with the same operations
    in the same order; free road leaves out two terms that are exactly zero
    there (the closing-speed term and the gap term)."""
    sensor = cfg.sensor_range
    vehicles, xs, starts = lanes.vehicles, lanes.positions, lanes.starts
    accels = []
    for lane in range(len(starts) - 1):
        end = starts[lane + 1]
        for i in range(starts[lane], end):
            v = vehicles[i]
            x = xs[i]
            speed, v0 = v.speed, v.target_speed
            accel = None
            # The own-lane leader is the next record of the lane, past any at
            # the same position (as bisect_right would find it).
            j = i + 1
            while j < end and xs[j] == x:
                j += 1
            if j < end:
                gap = xs[j] - x - VEHICLE_LENGTH
                if gap <= sensor:
                    gap = 0.1 if 0.1 > gap else gap
                    desired = (IDM_S0 + speed * IDM_T
                               + speed * (speed - vehicles[j].speed) / IDM_BRAKE_SCALE)
                    desired = 0.0 if 0.0 > desired else desired
                    accel = IDM_A_MAX * (1.0 - (speed / v0) ** IDM_ZETA - (desired / gap) ** 2)
                    accel = BRAKE_FLOOR if BRAKE_FLOOR > accel else accel
            lc = v.lane_change
            if lc is not None and lc.target_lane != v.lane_index:
                accel = _leader_accel(cfg, lanes, lc.target_lane, v, accel)
            if accel is None:
                accel = IDM_A_MAX * (1.0 - (speed / v0) ** IDM_ZETA)
                accel = BRAKE_FLOOR if BRAKE_FLOOR > accel else accel
            accels.append(accel)
    return accels


def _advance_substep(world: WorldState, traffic_decides: bool) -> None:
    cfg = world.config
    vehicles = world.vehicles
    lanes = world.lanes()
    accels = _accelerations(cfg, lanes)
    if traffic_decides:
        _traffic_lane_decisions(world, lanes, accels)
    dt = cfg.sim_dt
    limit = cfg.speed_limit
    simple = cfg.fidelity is Fidelity.SIMPLE
    for v, a in zip(vehicles, accels):
        # min(max(speed, 0.0), limit) without the call overhead
        speed = v.speed + a * dt
        speed = 0.0 if 0.0 > speed else speed
        v.speed = speed = limit if limit < speed else speed
        v.longitudinal_pos += speed * dt
        if v.lane_change is not None:
            if simple:
                _advance_simple_maneuver(cfg, v)
            else:
                _advance_complex_maneuver(cfg, v, dt)
    world.ego_distance_travelled += world.ego().speed * dt
    world.sort_vehicles()


def _advance_simple_maneuver(cfg: SimConfig, v: VehicleState) -> None:
    lc = v.lane_change
    lc.substeps_done += 1
    substeps_total = 2 * cfg.substeps_per_decision
    if lc.substeps_done >= substeps_total:
        v.lane_index = lc.target_lane
        v.lateral_offset = 0.0
        v.lane_change = None
        return
    frac = lc.substeps_done / substeps_total
    y_src = cfg.lane_center(lc.source_lane)
    y_tgt = cfg.lane_center(lc.target_lane)
    y = y_src + frac * (y_tgt - y_src)
    lane = lc.target_lane if frac >= 0.5 else lc.source_lane
    v.lane_index = lane
    v.lateral_offset = y - cfg.lane_center(lane)


def _advance_complex_maneuver(cfg: SimConfig, v: VehicleState, dt: float) -> None:
    lc = v.lane_change
    y = cfg.lane_center(v.lane_index) + v.lateral_offset
    error = lc.path.value(v.longitudinal_pos + LATERAL_LOOKAHEAD) - y
    correction = pid_step(LATERAL_GAINS, error, lc.pid, dt)
    heading = lc.path.slope(v.longitudinal_pos) + correction
    limit = min(MAX_LATERAL_SLOPE * v.speed, MAX_LATERAL_RATE)
    rate = min(max(heading * v.speed, -limit), limit)
    y += rate * dt
    lc.lateral_rate = rate

    lane = min(max(int(y // cfg.lane_width), 0), cfg.lanes_count - 1)
    v.lane_index = lane
    v.lateral_offset = y - cfg.lane_center(lane)
    y_target = cfg.lane_center(lc.target_lane)
    overran = v.longitudinal_pos > lc.path.x_end + 15.0
    if (lane == lc.target_lane and abs(y - y_target) < LANE_CHANGE_COMPLETION_TOL) or overran:
        v.lane_index = lc.target_lane
        v.lateral_offset = 0.0
        v.lane_change = None


def _traffic_lane_decisions(world: WorldState, lanes: LaneIndex,
                            accels: list[float]) -> None:
    """Start MOBIL lane changes. ``accels`` holds this substep's accelerations,
    in the order of ``lanes``; a vehicle that starts a change also brakes for
    its target-lane leader."""
    cfg = world.config
    for i, v in enumerate(lanes.vehicles):
        if v.is_ego or v.lane_change is not None or world.sim_time < v.cooldown_until:
            continue
        decision = _mobil_lane_choice(cfg, lanes, v, accels[i])
        if decision is Action.FOLLOW:
            continue
        target = v.lane_index + (-1 if decision is Action.LEFT_LANE_CHANGE else 1)
        _begin_lane_change(cfg, v, target)
        v.cooldown_until = world.sim_time + TRAFFIC_COOLDOWN
        accels[i] = _leader_accel(cfg, lanes, target, v, accels[i])


def _mobil_lane_choice(cfg: SimConfig, lanes: LaneIndex, vehicle: VehicleState,
                       accel: float) -> Action:
    """MOBIL-style lane recommendation for a traffic vehicle whose current
    acceleration is ``accel``. Politeness is zero: only the vehicle's own
    accel gain counts, and both target-lane gaps must exceed the safety gap."""
    best_gain = MOBIL_GAIN_THRESHOLD
    best_action = Action.FOLLOW
    for candidate in (vehicle.lane_index - 1, vehicle.lane_index + 1):
        if not 0 <= candidate < cfg.lanes_count:
            continue
        lead, front_gap, _, rear_gap = _neighbours(lanes, candidate, vehicle)
        if front_gap <= MOBIL_SAFETY_GAP or rear_gap <= MOBIL_SAFETY_GAP:
            continue
        # front_gap exceeds the safety gap, so the 0.1 m IDM gap floor cannot bind
        if lead is not None and front_gap <= cfg.sensor_range:
            cand_accel = idm_accel(vehicle.speed, lead.speed, front_gap, vehicle.target_speed)
        else:
            cand_accel = idm_accel(vehicle.speed, vehicle.speed, math.inf,
                                   vehicle.target_speed)
        gain = cand_accel - accel
        if gain > best_gain:
            best_gain = gain
            best_action = (Action.LEFT_LANE_CHANGE if candidate < vehicle.lane_index
                           else Action.RIGHT_LANE_CHANGE)
    return best_action


def _ego_collides(cfg: SimConfig, lanes: LaneIndex, ego: VehicleState) -> bool:
    """Whether the ego's rectangle leaves the road or overlaps another's.
    Only a vehicle less than ``VEHICLE_LENGTH`` from the ego's position can
    overlap it; each lane's bisected window holds every such vehicle."""
    y_ego = cfg.lane_center(ego.lane_index) + ego.lateral_offset
    if y_ego - VEHICLE_WIDTH / 2.0 < 0.0 or y_ego + VEHICLE_WIDTH / 2.0 > cfg.road_width:
        return True
    x = ego.longitudinal_pos
    xs, starts = lanes.positions, lanes.starts
    for lane in range(len(starts) - 1):
        # rounding is monotone, so the float window bounds include every
        # position whose rounded |dx| is below the length
        lo = bisect.bisect_left(xs, x - VEHICLE_LENGTH, starts[lane], starts[lane + 1])
        hi = bisect.bisect_right(xs, x + VEHICLE_LENGTH, lo, starts[lane + 1])
        for v in lanes.vehicles[lo:hi]:
            if v.is_ego or abs(v.longitudinal_pos - x) >= VEHICLE_LENGTH:
                continue
            y_other = cfg.lane_center(v.lane_index) + v.lateral_offset
            if abs(y_other - y_ego) < VEHICLE_WIDTH:
                return True
    return False


def detect_collision(world: WorldState, collided: bool | None = None) -> StepEvents:
    """Collision/gap snapshot of the current world.

    Collision is rectangle overlap of the ego with any vehicle, or the ego
    rectangle leaving the road's lateral extent. Gaps are bumper-to-bumper
    to the nearest same-lane neighbours (both lanes while a lane change is
    in progress), capped at the sensor range. A caller that has just run
    the collision test on this world passes its result as ``collided``.
    """
    cfg = world.config
    ego = world.ego()
    lanes = world.lanes()
    if collided is None:
        collided = _ego_collides(cfg, lanes, ego)
    ego_lanes = {ego.lane_index,
                 ego.lane_index if ego.lane_change is None else ego.lane_change.target_lane}
    gaps = [_neighbours(lanes, lane, ego)[1::2] for lane in ego_lanes]
    front = min(max(min(front for front, _ in gaps), 0.0), cfg.sensor_range)
    rear = min(max(min(rear for _, rear in gaps), 0.0), cfg.sensor_range)
    reached_goal = world.ego_distance_travelled >= cfg.episode_length
    return StepEvents(collision=collided, min_gap_front=front, min_gap_rear=rear,
                      episode_done=collided or reached_goal,
                      success=reached_goal and not collided)


def world_hash(world: WorldState) -> str:
    """Stable digest of the full kinematic state (bit-exact floats)."""
    parts = [world.sim_time.hex(), world.ego_distance_travelled.hex(),
             str(world.decision_count)]
    for v in world.vehicles:
        lc = v.lane_change
        maneuver = "-" if lc is None else f"{lc.source_lane}>{lc.target_lane}:{lc.substeps_done}:{lc.lateral_rate.hex()}"
        parts.append("|".join([
            str(v.id), str(v.lane_index), v.longitudinal_pos.hex(),
            v.lateral_offset.hex(), v.speed.hex(), v.target_speed.hex(), maneuver,
        ]))
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()
