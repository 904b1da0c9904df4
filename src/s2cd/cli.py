"""Command-line front door: train teacher/student/baseline, evaluate
checkpoints, run ablations and the tabular guarantee sweeps.

Every command is deterministic given (config, seed): outputs carry no
timestamps, floats are written with round-trip repr, and the validated
config snapshot is copied next to the outputs.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import fields as dataclass_fields
from pathlib import Path

import numpy as np

from .highway_sim import SimConfig
from .mdp_interface import OBS_DIM, HighwayEnv, RewardConfig
from .ppo_core import HyperParams, TrainingAborted, evaluate_actor, train_ppo
from .s2cd_engine import S2cdHyper, SwitchConfig, TeacherAugmentedEnv, train_s2cd
from .teacher_suite import load_bundle, save_bundle, train_teacher
from .tensor_nn import load_net, save_net
from .theory_validation import run_sweep


class ConfigError(ValueError):
    pass


PPO_COLUMNS = ["step", "mean_return", "mean_cost", "mean_speed", "collisions",
               "entropy", "kl", "intervention_rate"]
S2CD_COLUMNS = PPO_COLUMNS + ["tau", "mean_kl", "teacher_sample_fraction"]

ABLATION_FLAGS = {
    "no-dual-source": ("dual_source", False),
    "no-adaptive-clip": ("adaptive_clip", False),
    "no-kl": ("kl_constraint", False),
    "no-decay": ("intervention_decay", False),
}

# Desk-scale defaults: the student budget keeps the 3:5 ratio against the
# plain-PPO baseline budget.
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


def _check_keys(section: str, data: dict, allowed) -> None:
    unknown = set(data) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown keys in '{section}': {sorted(unknown)}")


def _dataclass_keys(cls) -> list[str]:
    return [f.name for f in dataclass_fields(cls)]


TOP_KEYS = {"sim", "reward", "hyper", "s2cd", "switch", "quality", "seeds",
            "eval_episodes", "theory"}


def load_config(path: str | None, command: str) -> dict:
    cfg = default_config(command)
    if path is not None:
        raw = json.loads(Path(path).read_text())
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
        _check_keys("config", raw, TOP_KEYS)
        cfg.update(raw)
    _check_keys("config", cfg, TOP_KEYS)
    if "sim" in cfg:
        _check_keys("sim", cfg["sim"], _dataclass_keys(SimConfig))
    if "reward" in cfg:
        _check_keys("reward", cfg["reward"], _dataclass_keys(RewardConfig))
    if "hyper" in cfg:
        _check_keys("hyper", cfg["hyper"], _dataclass_keys(HyperParams))
    if "s2cd" in cfg:
        s2cd_only = set(_dataclass_keys(S2cdHyper)) - set(_dataclass_keys(HyperParams))
        _check_keys("s2cd", cfg["s2cd"], s2cd_only)
    if "switch" in cfg:
        _check_keys("switch", cfg["switch"], _dataclass_keys(SwitchConfig))
    if "theory" in cfg:
        _check_keys("theory", cfg["theory"],
                    ["instances", "max_states", "max_actions", "tolerance", "seed"])
    if "quality" in cfg and cfg["quality"] not in ("high", "low", "complex"):
        raise ConfigError(f"unknown teacher quality {cfg['quality']!r}")
    if "seeds" in cfg and (not cfg["seeds"] or
                           not all(isinstance(s, int) for s in cfg["seeds"])):
        raise ConfigError("seeds must be a nonempty list of integers")
    if "eval_episodes" in cfg and not _is_int(cfg["eval_episodes"], 1):
        raise ConfigError("eval_episodes must be a positive integer")
    if "theory" in cfg:
        _check_theory(cfg["theory"])
    # construct once so dataclass validators run before any output is written
    _build_sim_config(cfg)
    if "reward" in cfg:
        RewardConfig(**cfg["reward"])
    _build_hyper(cfg, student=("s2cd" in cfg))
    if "switch" in cfg:
        SwitchConfig(**cfg["switch"])
    return cfg


def _is_int(value, minimum: int) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= minimum


def _check_theory(theory: dict) -> None:
    for key, minimum in (("instances", 1), ("max_states", 1), ("max_actions", 2), ("seed", 0)):
        if not _is_int(theory.get(key), minimum):
            raise ConfigError(f"theory.{key} must be an integer >= {minimum}")
    tolerance = theory.get("tolerance")
    if not isinstance(tolerance, (int, float)) or isinstance(tolerance, bool) \
            or not (math.isfinite(tolerance) and tolerance >= 0.0):
        raise ConfigError("theory.tolerance must be a finite number >= 0")


def _build_sim_config(cfg: dict, seed: int = 0) -> SimConfig:
    kwargs = dict(cfg.get("sim", {}))
    kwargs["seed"] = seed
    return SimConfig(**kwargs)


def _build_hyper(cfg: dict, student: bool):
    base = dict(cfg.get("hyper", {}))
    if student:
        return S2cdHyper(**{**base, **cfg.get("s2cd", {})})
    return HyperParams(**base)


def _start_outputs(args, cfg: dict) -> Path:
    """Create ``--out`` and write the config snapshot. Call only once every
    config error has been ruled out: a ``ValueError`` raised after this
    point is reported as a runtime error."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    args.outputs_started = True
    (out / "config.json").write_text(json.dumps(cfg, sort_keys=True, indent=2))
    return out


def _write_metrics_csv(path: Path, rows: list[dict], columns: list[str]) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([repr(row[c]) if isinstance(row[c], float) else row[c]
                             for c in columns])


def _eval_env_factory(cfg: dict, seed: int, fidelity_override: str | None = None):
    sim = _build_sim_config(cfg, seed=seed)
    if fidelity_override is not None:
        kwargs = vars(sim).copy()
        kwargs["fidelity"] = fidelity_override
        kwargs["sim_dt"] = None
        kwargs["decisions_per_second"] = None
        sim = SimConfig(**kwargs)
    reward = RewardConfig(**cfg.get("reward", {}))
    return HighwayEnv(sim, reward, master_seed=EVAL_SEED_OFFSET + seed)


def cmd_train_teacher(args) -> int:
    cfg = load_config(args.config, "train-teacher")
    seeds = [args.seed] if args.seed is not None else cfg["seeds"]
    quality = cfg.get("quality", "high")
    hp = _build_hyper(cfg, student=False)
    out = _start_outputs(args, cfg)
    for seed in seeds:
        run_dir = out / f"seed_{seed}"
        run_dir.mkdir(parents=True, exist_ok=True)
        env = HighwayEnv(_build_sim_config(cfg, seed=seed),
                         RewardConfig(**cfg.get("reward", {})), master_seed=seed)
        bundle, result = train_teacher(env, hp, quality=quality, seed=seed)
        summary = evaluate_actor(_eval_env_factory(cfg, seed), bundle.actor,
                                 episodes=cfg["eval_episodes"])
        bundle.meta["eval_success"] = summary["success_rate"]
        save_bundle(bundle, run_dir / "bundle")
        _write_metrics_csv(run_dir / "metrics.csv",
                           [m.row() for m in result.metrics], PPO_COLUMNS)
        print(f"teacher seed={seed} quality={quality} "
              f"eval_success={summary['success_rate']:.2f}%")
    return 0


def _apply_ablations(hp: S2cdHyper, flags: str | None) -> S2cdHyper:
    if not flags:
        return hp
    kwargs = vars(hp).copy()
    for name in flags.split(","):
        name = name.strip()
        if name not in ABLATION_FLAGS:
            raise ConfigError(f"unknown ablation flag {name!r}; "
                              f"choose from {sorted(ABLATION_FLAGS)}")
        key, value = ABLATION_FLAGS[name]
        kwargs[key] = value
    return S2cdHyper(**kwargs)


def cmd_train_student(args) -> int:
    cfg = load_config(args.config, "train-student")
    seeds = [args.seed] if args.seed is not None else cfg["seeds"]

    baseline = getattr(args, "baseline", False)
    if baseline:
        hp = _build_hyper(cfg, student=False)
    else:
        if args.bundle is None:
            raise ConfigError("train-student requires --bundle (or --baseline)")
        bundle = load_bundle(args.bundle)
        if bundle.input_dim != OBS_DIM:
            raise ConfigError("bundle observation size does not match the environment")
        hp = _apply_ablations(_build_hyper(cfg, student=True), args.ablate)
        switch = SwitchConfig(**cfg.get("switch", {}))
    out = _start_outputs(args, cfg)

    for seed in seeds:
        run_dir = out / f"seed_{seed}"
        run_dir.mkdir(parents=True, exist_ok=True)
        env = HighwayEnv(_build_sim_config(cfg, seed=seed),
                         RewardConfig(**cfg.get("reward", {})), master_seed=seed)
        if baseline:
            result = train_ppo(env, hp, seed=seed)
            rows = [m.row() for m in result.metrics]
            columns = PPO_COLUMNS
            eval_env = _eval_env_factory(cfg, seed)
            summary = evaluate_actor(eval_env, result.actor, cfg["eval_episodes"])
            manifest = {"kind": "ppo_baseline", "seed": seed,
                        "total_steps": hp.total_steps,
                        "eval_success": summary["success_rate"]}
        else:
            result = train_s2cd(env, bundle, hp, switch, seed=seed)
            rows = [m.row() for m in result.metrics]
            columns = S2CD_COLUMNS
            eval_env = TeacherAugmentedEnv(_eval_env_factory(cfg, seed), bundle)
            summary = evaluate_actor(eval_env, result.actor, cfg["eval_episodes"])
            manifest = {"kind": "s2cd_student", "seed": seed,
                        "total_steps": hp.total_steps,
                        "ablations": args.ablate or "",
                        "eval_success": summary["success_rate"]}
            save_bundle(bundle, run_dir / "bundle")
        save_net(result.actor, run_dir / "actor.json")
        save_net(result.critic, run_dir / "critic.json")
        (run_dir / "manifest.json").write_text(json.dumps(manifest, sort_keys=True))
        _write_metrics_csv(run_dir / "metrics.csv", rows, columns)
        print(f"student seed={seed} kind={manifest['kind']} "
              f"eval_success={summary['success_rate']:.2f}%")
    return 0


def _load_checkpoint(path: Path):
    """A checkpoint directory is either a teacher bundle or a student run."""
    manifest = json.loads((path / "manifest.json").read_text())
    if "quality_tag" in manifest:
        bundle = load_bundle(path)
        return "teacher", bundle.actor, None, manifest
    actor = load_net(path / "actor.json")
    bundle = load_bundle(path / "bundle") if (path / "bundle").exists() else None
    return manifest.get("kind", "student"), actor, bundle, manifest


def cmd_evaluate(args) -> int:
    cfg = load_config(args.config, "evaluate")
    kind, actor, bundle, manifest = _load_checkpoint(Path(args.checkpoint))
    if bundle is not None and bundle.input_dim != OBS_DIM:
        raise ConfigError("checkpoint bundle does not match the eval environment")
    if bundle is None and actor.spec.input_dim != OBS_DIM:
        raise ConfigError("checkpoint observation size does not match the environment")
    out = _start_outputs(args, cfg)

    per_seed = []
    episodes = []
    for seed in cfg["seeds"]:
        env = _eval_env_factory(cfg, seed)
        if bundle is not None:
            env = TeacherAugmentedEnv(env, bundle)
        summary = evaluate_actor(env, actor, episodes=cfg["eval_episodes"])
        for i, ep in enumerate(summary.pop("episodes")):
            episodes.append({"seed": seed, "episode": i, **ep})
        per_seed.append({"seed": seed, **summary})

    agg = {
        "kind": kind,
        "episodic_return": float(np.mean([r["episodic_return"] for r in per_seed])),
        "episodic_reward": float(np.mean([r["episodic_reward"] for r in per_seed])),
        "episodic_cost": float(np.mean([r["episodic_cost"] for r in per_seed])),
        "episodic_speed": float(np.mean([r["episodic_speed"] for r in per_seed])),
        "success_rate": float(np.mean([r["success_rate"] for r in per_seed])),
        "per_seed": per_seed,
    }
    (out / "eval_summary.json").write_text(json.dumps(agg, sort_keys=True, indent=2))
    with (out / "episodes.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["seed", "episode", "return", "reward", "cost", "speed", "success"])
        for ep in episodes:
            writer.writerow([ep["seed"], ep["episode"], repr(ep["return"]),
                             repr(ep["reward"]), repr(ep["cost"]), repr(ep["speed"]),
                             int(ep["success"])])
    print(f"evaluate kind={kind} success_rate={agg['success_rate']:.2f}% "
          f"return={agg['episodic_return']:.2f}")
    return 0


def cmd_theory(args) -> int:
    cfg = load_config(args.config, "theory")
    out = _start_outputs(args, cfg)
    t = cfg["theory"]
    rows, all_pass = run_sweep(n_instances=t["instances"], seed=t["seed"],
                               max_states=t["max_states"], max_actions=t["max_actions"],
                               tolerance=t["tolerance"])
    report = {
        "instances": len(rows),
        "all_pass": all_pass,
        "min_improvement_margin": min(r["improvement_margin"] for r in rows),
        "min_slack": min(r["slack"] for r in rows),
        "results": rows,
    }
    (out / "theory_report.json").write_text(json.dumps(report, sort_keys=True, indent=2))
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
