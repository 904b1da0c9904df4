"""Command-line front door: train teacher/student/baseline, evaluate
checkpoints, run ablations and the tabular guarantee sweeps.

Every command is deterministic given (config, seed): outputs carry no
timestamps, floats are written with round-trip repr, and the validated
config snapshot is copied next to the outputs.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import MISSING, dataclass, replace
from dataclasses import fields as dataclass_fields
from pathlib import Path

import numpy as np

from .highway_sim import Action, SimConfig, check_number_fields
from .mdp_interface import HighwayEnv, RewardConfig
from .ppo_core import HyperParams, PhaseMetrics, TrainingAborted, evaluate_actor, train_ppo
from .s2cd_engine import S2cdHyper, SwitchConfig, TeacherAugmentedEnv, train_s2cd
from .teacher_suite import (QUALITY_TAGS, load_bundle, save_bundle, teacher_hyper,
                            train_teacher)
from .tensor_nn import json_field, load_net, save_net, write_atomic
from .theory_validation import run_sweep


class ConfigError(ValueError):
    pass


S2CD_COLUMNS = [f.name for f in dataclass_fields(PhaseMetrics)]
PPO_COLUMNS = S2CD_COLUMNS[:S2CD_COLUMNS.index("tau")]

ABLATION_FLAGS = {
    "no-dual-source": ("dual_source", False),
    "no-adaptive-clip": ("adaptive_clip", False),
    "no-kl": ("kl_constraint", False),
    "no-decay": ("intervention_decay", False),
}

# Desk-scale budgets. `train-student --baseline` defaults to DESK_STUDENT_STEPS;
# the desk comparison (tests/acceptance_artifacts.py) passes DESK_BASELINE_STEPS.
DESK_TEACHER_STEPS = 100_000
DESK_STUDENT_STEPS = 60_000
DESK_BASELINE_STEPS = 100_000
DESK_SEEDS = [1, 2, 3]
DESK_EVAL_EPISODES = 50

# Offset separating evaluation episode streams from training streams.
EVAL_SEED_OFFSET = 7_700_000


def default_config(command: str) -> dict:
    sim_fidelity = "simple" if command == "train-teacher" else "complex"
    cfg = {
        "sim": {"fidelity": sim_fidelity, "density": "medium"},
        "reward": {},
        "hyper": {"total_steps": DESK_TEACHER_STEPS if command == "train-teacher"
                  else DESK_STUDENT_STEPS},
        "seeds": list(DESK_SEEDS),
        "eval_episodes": DESK_EVAL_EPISODES,
    }
    if command == "train-teacher":
        cfg["quality"] = "high"
    if command in ("train-student", "ablate"):
        cfg["s2cd"] = {}
        cfg["switch"] = {}
    if command == "theory":
        cfg = {"theory": {"instances": 100, "max_states": 20, "max_actions": 4,
                          "tolerance": 0.0, "seed": 0}}
    return cfg


@dataclass(frozen=True)
class TheoryConfig:
    """Parameters of the tabular certification sweep; every key is required."""
    instances: int
    max_states: int
    max_actions: int
    tolerance: float
    seed: int

    def __post_init__(self) -> None:
        check_number_fields(self)
        for key, minimum in (("instances", 1), ("max_states", 1), ("max_actions", 2),
                             ("seed", 0), ("tolerance", 0)):
            if getattr(self, key) < minimum:
                raise ValueError(f"theory.{key} must be >= {minimum}")


@dataclass(frozen=True)
class RunConfig:
    """A validated config: ``snapshot`` is the merged JSON written to
    ``config.json``, the other fields are built from it once."""
    snapshot: dict
    sim: SimConfig
    reward: RewardConfig
    hyper: HyperParams
    s2cd: S2cdHyper
    switch: SwitchConfig
    theory: TheoryConfig | None
    quality: str
    seeds: tuple[int, ...]
    eval_episodes: int


TOP_KEYS = {f.name for f in dataclass_fields(RunConfig)} - {"snapshot"}


def _section(cfg: dict, name: str, cls, skip=()) -> dict:
    """Keyword arguments for ``cls`` from the JSON object ``cfg[name]``:
    unknown keys (and ``skip``) are refused, fields without a default
    required. The dataclass itself checks the values."""
    data = cfg.get(name, {})
    if not isinstance(data, dict):
        raise ConfigError(f"'{name}' must be a JSON object")
    known = [f for f in dataclass_fields(cls) if f.name not in skip]
    unknown = set(data) - {f.name for f in known}
    if unknown:
        raise ConfigError(f"unknown keys in '{name}': {sorted(unknown)}")
    missing = [f.name for f in known if f.name not in data
               and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise ConfigError(f"missing keys in '{name}': {missing}")
    return data


def load_config(path: str | None, command: str) -> RunConfig:
    cfg = default_config(command)
    if path is not None:
        try:
            raw = json.loads(Path(path).read_text())
        except OSError as exc:  # missing, a directory, unreadable, ...
            raise ConfigError(f"cannot read config: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
        cfg.update(raw)
    unknown = set(cfg) - TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown keys in 'config': {sorted(unknown)}")
    quality = cfg.get("quality", "high")
    if quality not in QUALITY_TAGS:
        raise ConfigError(f"unknown teacher quality {quality!r}")
    seeds = cfg.get("seeds", DESK_SEEDS)
    if not isinstance(seeds, list) or not seeds or not all(_is_int(s, 0) for s in seeds):
        raise ConfigError("seeds must be a nonempty list of non-negative integers")
    eval_episodes = cfg.get("eval_episodes", DESK_EVAL_EPISODES)
    if not _is_int(eval_episodes, 1):
        raise ConfigError("eval_episodes must be a positive integer")
    hyper = _section(cfg, "hyper", HyperParams)
    hyper_keys = [f.name for f in dataclass_fields(HyperParams)]
    return RunConfig(
        snapshot=cfg,
        sim=SimConfig(**_section(cfg, "sim", SimConfig)),
        reward=RewardConfig(**_section(cfg, "reward", RewardConfig)),
        hyper=HyperParams(**hyper),
        s2cd=S2cdHyper(**hyper, **_section(cfg, "s2cd", S2cdHyper, skip=hyper_keys)),
        switch=SwitchConfig(**_section(cfg, "switch", SwitchConfig)),
        theory=TheoryConfig(**_section(cfg, "theory", TheoryConfig))
        if "theory" in cfg else None,
        quality=quality, seeds=tuple(seeds), eval_episodes=eval_episodes)


def _is_int(value, minimum: int) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= minimum


def _run_seeds(args, run: RunConfig) -> tuple[int, ...]:
    if args.seed is not None and args.seed < 0:
        raise ConfigError("--seed must be a non-negative integer")
    return run.seeds if args.seed is None else (args.seed,)


def _start_outputs(args, run: RunConfig) -> Path:
    """Create ``--out`` and write the config snapshot. Call only once every
    config error has been ruled out: a ``ValueError`` raised after this
    point is reported as a runtime error."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    args.outputs_started = True
    write_atomic(out / "config.json", json.dumps(run.snapshot, sort_keys=True, indent=2))
    return out


def _eval_env(run: RunConfig, seed: int, bundle=None):
    """The greedy-evaluation env of ``seed``, on an episode stream apart from
    training's; with a teacher bundle its observations carry the advice."""
    env = HighwayEnv(run.sim, run.reward, master_seed=EVAL_SEED_OFFSET + seed)
    return env if bundle is None else TeacherAugmentedEnv(env, bundle)


def _write_csv(path: Path, rows: list[dict], columns: list[str]) -> None:
    """One row per dict, floats written with their round-trip repr."""
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(columns)
    writer.writerows([repr(row[c]) if isinstance(row[c], float) else row[c] for c in columns]
                     for row in rows)
    write_atomic(path, text.getvalue())


def cmd_train_teacher(args) -> int:
    run = load_config(args.config, "train-teacher")
    seeds = _run_seeds(args, run)
    teacher_hyper(run.hyper, run.quality)  # rejects a budget too small for the head fit
    out = _start_outputs(args, run)
    for seed in seeds:
        run_dir = out / f"seed_{seed}"
        run_dir.mkdir(parents=True, exist_ok=True)
        env = HighwayEnv(run.sim, run.reward, master_seed=seed)
        bundle, result = train_teacher(env, run.hyper, quality=run.quality, seed=seed)
        summary = evaluate_actor(_eval_env(run, seed), bundle.actor,
                                 episodes=run.eval_episodes)
        bundle.meta["eval_success"] = summary["success_rate"]
        save_bundle(bundle, run_dir / "bundle")
        _write_csv(run_dir / "metrics.csv", [m.row() for m in result.metrics], PPO_COLUMNS)
        print(f"teacher seed={seed} quality={run.quality} "
              f"eval_success={summary['success_rate']:.2f}%")
    return 0


def _apply_ablations(hp: S2cdHyper, flags: str | None) -> S2cdHyper:
    if not flags:
        return hp
    changes = {}
    for name in flags.split(","):
        name = name.strip()
        if name not in ABLATION_FLAGS:
            raise ConfigError(f"unknown ablation flag {name!r}; "
                              f"choose from {sorted(ABLATION_FLAGS)}")
        key, value = ABLATION_FLAGS[name]
        changes[key] = value
    return replace(hp, **changes)


def cmd_train_student(args) -> int:
    run = load_config(args.config, "train-student")
    seeds = _run_seeds(args, run)

    baseline = getattr(args, "baseline", False)
    if baseline:
        hp, bundle = run.hyper, None
    else:
        if args.bundle is None:
            raise ConfigError("train-student requires --bundle (or --baseline)")
        bundle = load_bundle(args.bundle)
        hp = _apply_ablations(run.s2cd, args.ablate)
        hp.check_clip()
        ablations = ",".join(flag for flag, (key, off) in ABLATION_FLAGS.items()
                             if getattr(hp, key) == off)
    eval_envs = [_eval_env(run, seed, bundle) for seed in seeds]  # checks the bundle width
    out = _start_outputs(args, run)

    for seed, eval_env in zip(seeds, eval_envs):
        run_dir = out / f"seed_{seed}"
        run_dir.mkdir(parents=True, exist_ok=True)
        env = HighwayEnv(run.sim, run.reward, master_seed=seed)
        if baseline:
            result = train_ppo(env, hp, seed=seed)
            columns, manifest = PPO_COLUMNS, {"kind": "ppo_baseline"}
        else:
            result = train_s2cd(env, bundle, hp, run.switch, seed=seed)
            columns = S2CD_COLUMNS
            manifest = {"kind": "s2cd_student", "ablations": ablations}
        rows = [m.row() for m in result.metrics]
        summary = evaluate_actor(eval_env, result.actor, run.eval_episodes)
        manifest.update(seed=seed, total_steps=hp.total_steps,
                        eval_success=summary["success_rate"])
        if bundle is not None:
            save_bundle(bundle, run_dir / "bundle")
        save_net(result.actor, run_dir / "actor.json")
        save_net(result.critic, run_dir / "critic.json")
        write_atomic(run_dir / "manifest.json", json.dumps(manifest, sort_keys=True))
        _write_csv(run_dir / "metrics.csv", rows, columns)
        print(f"student seed={seed} kind={manifest['kind']} "
              f"eval_success={summary['success_rate']:.2f}%")
    return 0


def _load_checkpoint(path: Path):
    """A checkpoint directory is either a teacher bundle, whose manifest has
    a ``quality_tag``, or a student run, whose manifest names its ``kind``."""
    manifest_path = path / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    if not isinstance(manifest, dict):
        raise ValueError(f"{manifest_path}: not a JSON object")
    if "quality_tag" in manifest:
        return "teacher", load_bundle(path).actor, None
    kind = json_field(manifest, "kind", str, manifest_path)
    actor = load_net(path / "actor.json")
    bundle = load_bundle(path / "bundle") if (path / "bundle").exists() else None
    return kind, actor, bundle


def cmd_evaluate(args) -> int:
    run = load_config(args.config, "evaluate")
    kind, actor, bundle = _load_checkpoint(Path(args.checkpoint))
    envs = [_eval_env(run, seed, bundle) for seed in run.seeds]  # checks the bundle width
    widths = (actor.spec.input_dim, actor.spec.output_dim)
    if widths != (envs[0].obs_dim, len(Action)):
        raise ConfigError(f"checkpoint actor maps {widths[0]} inputs to {widths[1]} actions; "
                          f"the eval environment has {envs[0].obs_dim} and {len(Action)}")
    out = _start_outputs(args, run)

    per_seed = []
    episodes = []
    for seed, env in zip(run.seeds, envs):
        summary = evaluate_actor(env, actor, episodes=run.eval_episodes)
        for i, ep in enumerate(summary.pop("episodes")):
            episodes.append({"seed": seed, "episode": i, **ep, "success": int(ep["success"])})
        per_seed.append({"seed": seed, **summary})

    agg = {key: float(np.mean([r[key] for r in per_seed])) for key in summary}
    agg.update(kind=kind, per_seed=per_seed)
    write_atomic(out / "eval_summary.json", json.dumps(agg, sort_keys=True, indent=2))
    _write_csv(out / "episodes.csv", episodes,
               ["seed", "episode", "return", "reward", "cost", "speed", "success"])
    print(f"evaluate kind={kind} success_rate={agg['success_rate']:.2f}% "
          f"return={agg['episodic_return']:.2f}")
    return 0


def cmd_theory(args) -> int:
    run = load_config(args.config, "theory")
    out = _start_outputs(args, run)
    t = run.theory
    rows, all_pass = run_sweep(n_instances=t.instances, seed=t.seed,
                               max_states=t.max_states, max_actions=t.max_actions,
                               tolerance=t.tolerance)
    report = {
        "instances": len(rows),
        "all_pass": all_pass,
        "min_improvement_margin": min(r["improvement_margin"] for r in rows),
        "min_slack": min(r["slack"] for r in rows),
        "results": rows,
    }
    write_atomic(out / "theory_report.json", json.dumps(report, sort_keys=True, indent=2))
    print(f"theory instances={len(rows)} all_pass={all_pass} "
          f"min_margin={report['min_improvement_margin']:.3e} "
          f"min_slack={report['min_slack']:.3e}")
    return 0 if all_pass else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="s2cd",
                                     description="Teacher-student highway lane-change lab")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train-teacher", help="train a teacher bundle in the simple world")
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train_teacher)

    for name in ("train-student", "ablate"):
        p = sub.add_parser(name, help="train the gated student in the complex world"
                           if name == "train-student" else
                           "train ablated student variants")
        p.add_argument("--config", default=None)
        p.add_argument("--bundle", default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", required=True)
        p.add_argument("--ablate", default=None,
                       help="comma list: " + ",".join(sorted(ABLATION_FLAGS)))
        if name == "train-student":
            p.add_argument("--baseline", action="store_true",
                           help="plain PPO without a teacher")
        p.set_defaults(func=cmd_train_student)

    p = sub.add_parser("evaluate", help="greedy evaluation of a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("theory", help="tabular certification sweeps")
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_theory)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # ConfigError and dataclass validation errors
        if getattr(args, "outputs_started", False):
            print(f"runtime error: {exc}", file=sys.stderr)
            return 3
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except TrainingAborted as exc:
        print(f"training aborted: {exc}; diagnostics: {exc.diagnostics}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"missing file: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
