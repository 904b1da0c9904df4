"""Golden CLI output digests.

Runs the tiny commands of the C12 determinism check (``train-teacher``,
``train-student``, ``ablate --ablate no-kl``, ``evaluate`` and ``theory``,
with the same configs) plus ``train-student --baseline`` on the student
config once, and compares the sha256 of every output file with
``golden_cli.json``. C12 only shows that two runs of the same code
agree; this fixture pins the bytes across versions, so any change to the
training loop, the networks, the simulator or the CLI that moves one
output byte fails here.

The fixture was generated before the per-step inference path was
rewritten for speed, and must pass unchanged on every later commit. The
``baseline/`` entries, which pin the teacher-free PPO path, were added
later, generated on the commit before PPO and S2CD shared one rollout
buffer and one update loop.
Print the current values with

    PYTHONPATH=src python tests/test_golden_cli.py
"""
from __future__ import annotations

import contextlib
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from s2cd.cli import main

FIXTURE = Path(__file__).with_name("golden_cli.json")

# The configs of tests/test_acceptance.py::TestCommandDeterminism.
CONFIGS = {
    "teacher": {
        "sim": {"fidelity": "simple", "density": "medium"},
        "hyper": {"total_steps": 1200, "rollout_steps": 600, "update_epochs": 2},
        "seeds": [1], "eval_episodes": 2, "quality": "high",
    },
    "student": {
        "sim": {"fidelity": "complex", "density": "medium", "episode_length": 150},
        "hyper": {"total_steps": 1200, "rollout_steps": 600, "update_epochs": 2},
        "s2cd": {}, "switch": {}, "seeds": [1], "eval_episodes": 1,
    },
    "eval": {
        "sim": {"fidelity": "simple", "density": "medium"},
        "seeds": [1], "eval_episodes": 2,
    },
    "theory": {
        "theory": {"instances": 20, "max_states": 8, "max_actions": 3,
                   "tolerance": 0.0, "seed": 1},
    },
}


def output_digests(work: Path) -> dict[str, str]:
    """Run every tiny command under ``work``; sha256 of each output file,
    keyed by its path relative to the run directory."""
    cfg = {}
    for name, payload in CONFIGS.items():
        cfg[name] = work / f"{name}.json"
        cfg[name].write_text(json.dumps(payload))
    base = work / "run"
    bundle = str(base / "teacher" / "seed_1" / "bundle")
    commands = [
        ["train-teacher", "--config", str(cfg["teacher"]), "--out", str(base / "teacher")],
        ["train-student", "--config", str(cfg["student"]), "--bundle", bundle,
         "--out", str(base / "student")],
        ["ablate", "--config", str(cfg["student"]), "--bundle", bundle,
         "--out", str(base / "ablate"), "--ablate", "no-kl"],
        ["train-student", "--config", str(cfg["student"]), "--baseline",
         "--out", str(base / "baseline")],
        ["evaluate", "--checkpoint", bundle, "--config", str(cfg["eval"]),
         "--out", str(base / "eval")],
        ["theory", "--config", str(cfg["theory"]), "--out", str(base / "theory")],
    ]
    for argv in commands:
        assert main(argv) == 0, argv
    return {p.relative_to(base).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(base.rglob("*")) if p.is_file()}


@pytest.fixture(scope="module")
def current(tmp_path_factory) -> dict[str, str]:
    return output_digests(tmp_path_factory.mktemp("golden_cli"))


@pytest.fixture(scope="module")
def golden() -> dict[str, str]:
    return json.loads(FIXTURE.read_text())


def test_same_output_files(golden, current):
    assert sorted(current) == sorted(golden)


def test_every_output_file_matches_golden(golden, current):
    changed = sorted(name for name in golden if current.get(name) != golden[name])
    assert not changed, f"output bytes changed: {changed}"


if __name__ == "__main__":
    # the commands print progress lines; keep stdout for the JSON
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(sys.stderr):
        values = output_digests(Path(tmp))
    json.dump(values, sys.stdout, indent=2, sort_keys=True)
    print()
