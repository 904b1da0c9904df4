"""The acceptance gate's training-backed artifacts: C7-C10 read the output trees
of the eleven ``s2cd`` commands of ``desk_jobs``. Each job runs in the root as a
subprocess, up to one per CPU, into ``<job>.partial``, renamed to ``<job>`` once
it exits 0. A finished job is never re-run, so S2CD_ACCEPT_CACHE can keep a root:

    S2CD_ACCEPT_CACHE=/tmp/accept_cache python3 tests/acceptance_artifacts.py
"""
import csv
import json
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path
from subprocess import DEVNULL, Popen
from typing import NamedTuple

import pytest

from s2cd import cli
from s2cd.teacher_suite import load_bundle

TEACHER_BUNDLE = f"seed_{cli.DESK_SEEDS[0]}/bundle"


class Job(NamedTuple):
    args: list  # an s2cd command line without --out, run in the root
    config: dict | None = None  # passed as --config
    after: tuple = ()  # jobs whose finished trees this one reads


def desk_jobs() -> dict[str, Job]:
    """Both teachers; per seed the student, PPO at its budget and the PPO baseline."""
    jobs = {f"teacher-{q}": Job(["train-teacher", "--seed", str(cli.DESK_SEEDS[0])],
                                {"quality": q}) for q in ("high", "low")}
    for seed in map(str, cli.DESK_SEEDS):
        baseline = ["train-student", "--baseline", "--seed", seed]
        jobs[f"student-{seed}"] = Job(["train-student", "--seed", seed, "--bundle",
                                       f"teacher-high/{TEACHER_BUNDLE}"], after=("teacher-high",))
        jobs[f"ppo_matched-{seed}"] = Job(baseline, {"eval_episodes": 1})
        jobs[f"baseline-{seed}"] = Job(baseline,
                                       {"hyper": {"total_steps": cli.DESK_BASELINE_STEPS}})
    return jobs


def run_jobs(root: Path, jobs: dict[str, Job]) -> None:
    """Runs every job without a finished tree under ``root``, printing one line
    per job as it ends. A failure stops the running jobs, cancels the rest and
    raises with the job's command line and stderr."""
    root.mkdir(parents=True, exist_ok=True)
    pending = {name: job for name, job in jobs.items() if not (root / name).is_dir()}
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")])))
    running = {}
    try:
        while pending or running:
            ready = [name for name, job in pending.items()
                     if not set(job.after) & (pending.keys() | running.keys())]
            for name in ready[:(os.cpu_count() or 1) - len(running)]:
                job, out = pending.pop(name), root / f"{name}.partial"
                shutil.rmtree(out, ignore_errors=True)
                out.mkdir()
                cmd = [sys.executable, "-m", "s2cd.cli", *job.args, "--out", out.name]
                if job.config is not None:  # the CLI reads it, then writes its snapshot over it
                    (out / "config.json").write_text(json.dumps(job.config))
                    cmd += ["--config", f"{out.name}/config.json"]
                err = tempfile.TemporaryFile("w+", errors="replace")
                proc = Popen(cmd, cwd=root, env=env, stdout=DEVNULL, stderr=err)
                running[name] = proc, err, time.monotonic()
            time.sleep(0.1)
            for name in [name for name, (proc, *_) in running.items() if proc.poll() is not None]:
                proc, err, start = running.pop(name)
                print(f"{name} exit={proc.returncode} {time.monotonic() - start:.1f}s", flush=True)
                with err:
                    if proc.returncode:
                        err.seek(0)
                        raise RuntimeError(f"job {name} exited {proc.returncode} in {root}: "
                                           f"{' '.join(proc.args)}\n{err.read()[-3000:]}")
                (root / f"{name}.partial").rename(root / name)
    finally:
        for proc, err, _ in running.values():
            proc.kill()
            proc.wait()
            err.close()


def read_metrics(path: Path) -> list[dict]:
    """``metrics.csv`` rows as written: ints for step and collisions, floats otherwise."""
    with path.open(newline="") as f:
        return [{k: int(v) if k in ("step", "collisions") else float(v) for k, v in row.items()}
                for row in csv.DictReader(f)]


@pytest.fixture(scope="session")
def accept_root(tmp_path_factory):
    """The desk jobs' finished output trees, under S2CD_ACCEPT_CACHE if set."""
    root = Path(os.environ.get("S2CD_ACCEPT_CACHE") or tmp_path_factory.mktemp("accept"))
    run_jobs(root, desk_jobs())
    return root


@pytest.fixture(scope="session")
def teacher_pair(accept_root):
    """{quality: (bundle, eval summary)}: high- and low-budget teachers of one seed."""
    pair = {q: load_bundle(accept_root / f"teacher-{q}" / TEACHER_BUNDLE) for q in ("high", "low")}
    return {q: (b, {"success_rate": b.meta["eval_success"]}) for q, b in pair.items()}


@pytest.fixture(scope="session")
def matched_runs(accept_root):
    """Per seed: metrics rows and eval success of the student, matched run and baseline."""
    runs = [{"seed": seed} for seed in cli.DESK_SEEDS]
    for run in runs:
        for kind in ("student", "ppo_matched", "baseline"):
            out = accept_root / f"{kind}-{run['seed']}" / f"seed_{run['seed']}"
            run[f"{kind}_metrics"] = read_metrics(out / "metrics.csv")
            manifest = json.loads((out / "manifest.json").read_text())
            run[f"{kind}_eval"] = {"success_rate": manifest["eval_success"]}
    return runs


if __name__ == "__main__":
    if not os.environ.get("S2CD_ACCEPT_CACHE"):
        print("set S2CD_ACCEPT_CACHE to a directory first", file=sys.stderr)
        sys.exit(2)
    run_jobs(Path(os.environ["S2CD_ACCEPT_CACHE"]), desk_jobs())  # a failed job raises: exit 1
    print(f"acceptance artifacts ready under {os.environ['S2CD_ACCEPT_CACHE']}")
