"""The acceptance fixture's job runner and ``metrics.csv`` reader, on tiny jobs."""
import time
from pathlib import Path

import pytest

from acceptance_artifacts import Job, read_metrics, run_jobs
from s2cd import cli
from s2cd.ppo_core import PhaseMetrics

SWEEP = {"theory": {"instances": 2, "max_states": 3, "max_actions": 2,
                    "tolerance": 0.0, "seed": 0}}
BAD = {"bogus": 1}  # an unknown key: the CLI exits 2


def s2cd_processes_in(root: Path) -> list[str]:
    """Command lines of the live ``s2cd`` processes working in ``root``."""
    found = []
    for proc in Path("/proc").glob("[0-9]*"):
        try:
            cmdline = (proc / "cmdline").read_bytes().replace(b"\0", b" ").decode()
            if "s2cd.cli" in cmdline and (proc / "cwd").resolve() == root.resolve():
                found.append(cmdline)
        except OSError:  # the process has ended or is not ours
            continue
    return found


def test_finished_job_is_not_rerun(tmp_path):
    (tmp_path / "done").mkdir()
    run_jobs(tmp_path, {"done": Job(["theory"], BAD)})
    assert [p.name for p in tmp_path.iterdir()] == ["done"]
    assert list((tmp_path / "done").iterdir()) == []


def test_leftover_partial_is_replaced(tmp_path):
    (tmp_path / "sweep.partial").mkdir()
    (tmp_path / "sweep.partial" / "stale.txt").write_text("from an interrupted run")
    run_jobs(tmp_path, {"sweep": Job(["theory"], SWEEP)})
    assert [p.name for p in tmp_path.iterdir()] == ["sweep"]
    assert sorted(p.name for p in (tmp_path / "sweep").iterdir()) == [
        "config.json", "theory_report.json"]


def test_dependent_job_starts_after_its_dependency_finished(tmp_path):
    # "second" reads the finished tree of "first"; started any earlier, it
    # would find no config there and exit 2
    jobs = {"second": Job(["theory", "--config", "first/config.json"], after=("first",)),
            "first": Job(["theory"], SWEEP)}
    run_jobs(tmp_path, jobs)
    assert ((tmp_path / "second" / "theory_report.json").read_bytes()
            == (tmp_path / "first" / "theory_report.json").read_bytes())


@pytest.mark.skipif(not Path("/proc/self/cmdline").exists(), reason="needs /proc")
def test_failing_job_raises_and_leaves_nothing_running(tmp_path):
    slow = {"theory": dict(SWEEP["theory"], instances=50_000, max_states=20)}
    jobs = {"bad": Job(["theory"], BAD), "slow": Job(["theory"], slow),
            "after_bad": Job(["theory"], SWEEP, after=("bad",))}
    start = time.monotonic()
    with pytest.raises(RuntimeError) as info:
        run_jobs(tmp_path, jobs)
    assert time.monotonic() - start < 30  # "slow" alone takes about a minute
    message = str(info.value)
    assert message.startswith(f"job bad exited 2 in {tmp_path}: ")
    assert "theory --out bad.partial --config bad.partial/config.json" in message
    assert "config error: unknown keys in 'config': ['bogus']" in message
    assert not (tmp_path / "bad").exists() and not (tmp_path / "slow").exists()
    assert not (tmp_path / "after_bad.partial").exists()  # never started
    assert s2cd_processes_in(tmp_path) == []


def test_metrics_csv_round_trips_exactly(tmp_path):
    values = [5e-324, 1 / 3, -0.0, 1e300, 0.1 + 0.2]
    names = [c for c in cli.S2CD_COLUMNS if c not in ("step", "collisions")]
    rows = [PhaseMetrics(step=600 * i, collisions=i,
                         **{n: values[(i + j) % len(values)] for j, n in enumerate(names)}).row()
            for i in range(len(values))]
    cli._write_csv(tmp_path / "metrics.csv", rows, cli.S2CD_COLUMNS)
    back = read_metrics(tmp_path / "metrics.csv")
    assert back == rows
    assert [{k: (type(v), repr(v)) for k, v in row.items()} for row in back] == \
        [{k: (type(v), repr(v)) for k, v in row.items()} for row in rows]
