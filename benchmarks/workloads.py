"""The three benchmark workloads.

Each workload writes its own configs, builds its set-up checkpoints and
then yields rounds of ``s2cd`` commands. Round ``k`` of workload seed
``s`` always holds the same commands, so a run that stops after whole
rounds attempts a fixed set of operations. Every command gets its own
seed drawn from (workload, s, k), which spreads each run over many
scenarios.

All three use the default 25 m/s speed limit. Budgets are fractions of the
desk defaults (100K teacher steps, 60K student steps, 100 theory
instances); see README.md.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks

# Set-up checkpoints are the same in every run: they are fixtures of the
# workload, while the timed commands draw their seeds from --seed.
SETUP_SEED = 1

# One train-teacher command in the simple 2 Hz world.
TEACHER_STEPS = 2_000
TEACHER_ROLLOUT = 500
TEACHER_EVAL_EPISODES = 2

# The frozen teacher the student trains against, built during set-up.
SETUP_TEACHER_STEPS = 1_000     # the head fit needs at least 1,000 rows

# One train-student command in the complex 20 Hz world.
STUDENT_STEPS = 3_000
STUDENT_ROLLOUT = 1_000
STUDENT_EVAL_EPISODES = 1

# One theory command.
THEORY_INSTANCES = 100
THEORY_MAX_STATES = 20
THEORY_MAX_ACTIONS = 4


def derived_seed(*parts) -> int:
    """A command seed from the workload name, workload seed and position."""
    return random.Random(":".join(map(str, parts))).randrange(1, 1_000_000)


@dataclass
class Op:
    """One CLI command and the check its outputs must pass."""

    argv: list[str]
    out: Path
    # check(decision steps before evaluation began) raises checks.CheckError
    check: Callable[[int | None], None]
    units: int | None = None   # fixed work units; None: count env steps


def _write(path: Path, payload: dict) -> str:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, sort_keys=True, indent=2))
    return str(path)


def _hyper(total: int, rollout: int) -> dict:
    return {"total_steps": total, "rollout_steps": rollout}


class Workload:
    name = ""
    why = ""
    # Wrapped names that must record calls in a traced run.
    exercised: tuple[str, ...] = ()

    def __init__(self, seed: int):
        self.seed = seed
        self.setup_dir: Path | None = None

    def setup(self, directory: Path, run_cli) -> None:
        """Write the configs and set-up checkpoints into ``directory``."""
        self.setup_dir = directory
        directory.mkdir(parents=True, exist_ok=True)

    def ops(self, k: int, directory: Path) -> list[Op]:
        raise NotImplementedError

    def _seed(self, k: int) -> int:
        return derived_seed(self.name, self.seed, k)


def _train_ok(run_cli, argv: list[str]) -> None:
    rc = run_cli(argv)
    if rc != 0:
        raise RuntimeError(f"set-up command failed with exit code {rc}: {' '.join(argv)}")


SIM_LAYERS = ("highway_sim.step", "highway_sim.spawn_scenario",
              "lowlevel_control.idm_accel", "mdp_interface.HighwayEnv.step",
              "mdp_interface.HighwayEnv.reset", "mdp_interface.build_observation",
              "mdp_interface.step_reward", "tensor_nn.forward_one",
              "ppo_core.evaluate_actor", "cli.main", "cli.load_config")
COMPLEX_LAYERS = ("lowlevel_control.pid_step", "lowlevel_control.plan_lane_change")
TRAIN_LAYERS = ("tensor_nn.forward_batch", "tensor_nn.backward", "tensor_nn.adamw_step",
                "tensor_nn.save_net", "ppo_core.sample_action", "ppo_core.compute_gae")


class TeacherSimple(Workload):
    name = "teacher-simple"
    why = ("train-teacher in the 2 Hz simple world: simulator-bound, the only run of "
           "train_ppo and of the teacher's reward and Q head refits")
    exercised = SIM_LAYERS + TRAIN_LAYERS + (
        "ppo_core.ppo_loss", "ppo_core.train_ppo", "teacher_suite.make_supervised_row",
        "teacher_suite.fit_value_heads", "teacher_suite.train_teacher",
        "teacher_suite.save_bundle")

    def setup(self, directory, run_cli):
        super().setup(directory, run_cli)
        self.config = _write(directory / "teacher.json", {
            "sim": {"fidelity": "simple", "density": "medium"},
            "hyper": _hyper(TEACHER_STEPS, TEACHER_ROLLOUT),
            "seeds": [1], "eval_episodes": TEACHER_EVAL_EPISODES, "quality": "high"})

    def ops(self, k, directory):
        seed = self._seed(k)
        out = directory / "teacher"
        run_dir = out / f"seed_{seed}"

        def check(train_steps):
            checks.check_training_run(run_dir, TEACHER_STEPS, TEACHER_ROLLOUT, train_steps,
                                      run_dir / "bundle" / "actor.json", seed)
        return [Op(["train-teacher", "--config", self.config, "--seed", str(seed),
                    "--out", str(out)], out, check)]


class StudentComplex(Workload):
    name = "student-complex"
    why = ("train-student in the 20 Hz complex world: five single-observation forwards, "
           "the Q-gap switch and dual-source rows per step, as costly as the simulator")
    exercised = SIM_LAYERS + COMPLEX_LAYERS + TRAIN_LAYERS + (
        "tensor_nn.load_net", "s2cd_engine.collect_dual",
        "s2cd_engine.TeacherAugmentedEnv.step", "s2cd_engine.s2cd_loss",
        "s2cd_engine.train_s2cd", "teacher_suite.teacher_advise",
        "teacher_suite.save_bundle", "teacher_suite.load_bundle")

    def setup(self, directory, run_cli):
        super().setup(directory, run_cli)
        seed = SETUP_SEED
        teacher_cfg = _write(directory / "teacher.json", {
            "sim": {"fidelity": "simple", "density": "medium"},
            "hyper": _hyper(SETUP_TEACHER_STEPS, SETUP_TEACHER_STEPS),
            "seeds": [seed], "eval_episodes": 1, "quality": "high"})
        _train_ok(run_cli, ["train-teacher", "--config", teacher_cfg,
                            "--out", str(directory / "teacher")])
        self.bundle = directory / "teacher" / f"seed_{seed}" / "bundle"
        self.config = _write(directory / "student.json", {
            "sim": {"fidelity": "complex", "density": "medium"},
            "hyper": _hyper(STUDENT_STEPS, STUDENT_ROLLOUT), "s2cd": {}, "switch": {},
            "seeds": [1], "eval_episodes": STUDENT_EVAL_EPISODES})

    def ops(self, k, directory):
        seed = self._seed(k)
        out = directory / "student"
        run_dir = out / f"seed_{seed}"

        def check(train_steps):
            rows = checks.check_training_run(run_dir, STUDENT_STEPS, STUDENT_ROLLOUT,
                                             train_steps, run_dir / "bundle" / "actor.json",
                                             seed)
            checks.check_student_metrics(rows, run_dir / "metrics.csv")
            checks.check_same_bytes(self.bundle, run_dir / "bundle")
        return [Op(["train-student", "--config", self.config, "--bundle", str(self.bundle),
                    "--seed", str(seed), "--out", str(out)], out, check)]


class TheorySweep(Workload):
    name = "theory-sweep"
    why = ("tabular certification sweep: no simulator and no network, so it is the "
           "no-change case for highway-side work and the only run of theory_validation")
    exercised = ("theory_validation.exact_policy_value",
                 "theory_validation.discounted_visitation",
                 "theory_validation.check_performance_bound",
                 "theory_validation.check_mixed_policy_improvement",
                 "theory_validation.run_sweep", "cli.main", "cli.load_config")

    def ops(self, k, directory):
        seed = self._seed(k)
        out = directory / "theory"
        config = _write(directory / "theory.json", {"theory": {
            "instances": THEORY_INSTANCES, "max_states": THEORY_MAX_STATES,
            "max_actions": THEORY_MAX_ACTIONS, "tolerance": 0.0, "seed": seed}})

        def check(train_steps):
            checks.check_theory(out, seed, THEORY_INSTANCES, THEORY_MAX_STATES,
                                THEORY_MAX_ACTIONS)
        return [Op(["theory", "--config", config, "--out", str(out)], out, check,
                   units=THEORY_INSTANCES)]


WORKLOADS = {w.name: w for w in (TeacherSimple, StudentComplex, TheorySweep)}
