"""Golden world trajectories.

One sha256 per (fidelity, density, seed) covers ``world_hash`` of the
spawned world and, after each of up to ``MAX_DECISIONS`` decisions, the
``world_hash`` plus the ``StepEvents`` fields of ``EVENT_FIELDS`` (floats
as ``float.hex``).
The decisions follow a fixed seeded command sequence in which about
``LANE_CHANGE_SHARE`` of the commands are lane changes. Any change to any
bit of any world along these trajectories fails the test. The cases at
``FAST_LIMIT`` pin the ego, whose desired speed is the speed limit,
driving above the traffic's target speeds.

The fixture ``golden_world.json`` was generated before the simulator's
decision step was rewritten for speed; it pins the behaviour that rewrite
had to keep. The ``FAST_LIMIT`` cases were added later, generated on the
code before the per-vehicle IDM parameters became module constants.
Print the current values with

    PYTHONPATH=src python tests/test_golden_world.py
"""
from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import pytest

from s2cd.highway_sim import (
    Action,
    Density,
    Fidelity,
    SimConfig,
    spawn_scenario,
    step,
    world_hash,
)

FIXTURE = Path(__file__).with_name("golden_world.json")
# The StepEvents fields the fixture was generated with, in their order then.
# The ego speed, added later, is already in world_hash.
EVENT_FIELDS = ("collision", "min_gap_front", "min_gap_rear", "episode_done", "success",
                "command_degraded")
MAX_DECISIONS = 300
LANE_CHANGE_SHARE = 0.15
SEEDS = (0, 1, 2)
FAST_LIMIT = 30.0
# (fidelity, density, seed, speed limit); None keeps the SimConfig default.
CASES = ([(f, d, s, None) for f in Fidelity for d in Density for s in SEEDS]
         + [(f, d, 0, FAST_LIMIT) for f in Fidelity for d in Density])


def case_key(fidelity: Fidelity, density: Density, seed: int,
             speed_limit: float | None) -> str:
    key = f"{fidelity.value}/{density.value}/{seed}"
    return key if speed_limit is None else f"{key}/limit={speed_limit!r}"


def command_sequence(key: str):
    """Endless seeded commands: lane changes split evenly left and right."""
    rng = random.Random(f"golden:{key}")
    while True:
        u = rng.random()
        if u < LANE_CHANGE_SHARE / 2:
            yield Action.LEFT_LANE_CHANGE
        elif u < LANE_CHANGE_SHARE:
            yield Action.RIGHT_LANE_CHANGE
        else:
            yield Action.FOLLOW


def trajectory_digest(fidelity: Fidelity, density: Density, seed: int,
                      speed_limit: float | None) -> dict:
    key = case_key(fidelity, density, seed, speed_limit)
    limit = {} if speed_limit is None else {"speed_limit": speed_limit}
    world = spawn_scenario(SimConfig(fidelity=fidelity, density=density, **limit), seed)
    digest = hashlib.sha256(world_hash(world).encode())
    commands = command_sequence(key)
    decisions = 0
    while decisions < MAX_DECISIONS and not world.terminal:
        _, events = step(world, next(commands))
        decisions += 1
        fields = [getattr(events, name) for name in EVENT_FIELDS]
        record = [world_hash(world)] + [v.hex() if isinstance(v, float) else str(v)
                                        for v in fields]
        digest.update(("\n" + "|".join(record)).encode())
    return {"decisions": decisions, "sha256": digest.hexdigest()}


def current_values() -> dict:
    return {case_key(*case): trajectory_digest(*case) for case in CASES}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_case(golden):
    assert sorted(golden) == sorted(case_key(*case) for case in CASES)


@pytest.mark.parametrize("case", CASES, ids=[case_key(*case) for case in CASES])
def test_trajectory_matches_golden(golden, case):
    assert trajectory_digest(*case) == golden[case_key(*case)]


def test_command_sequence_lane_change_share():
    commands = command_sequence("share")
    drawn = [next(commands) for _ in range(10_000)]
    share = sum(c is not Action.FOLLOW for c in drawn) / len(drawn)
    assert abs(share - LANE_CHANGE_SHARE) < 0.02


if __name__ == "__main__":
    print(json.dumps(current_values(), indent=2, sort_keys=True))
