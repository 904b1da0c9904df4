"""Each output check passes on a real output and rejects a corrupted copy.

    python3 -m pytest benchmarks/test_checks.py -q

The outputs come from tiny ``s2cd`` commands run once per module; every
test corrupts one property in a copy of them.
"""
import csv
import json
import shutil
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from s2cd.cli import main  # noqa: E402

SEED = 11
TEACHER = {"sim": {"fidelity": "simple", "density": "medium"},
           "hyper": {"total_steps": 1000, "rollout_steps": 500, "update_epochs": 1},
           "seeds": [SEED], "eval_episodes": 1, "quality": "high"}
STUDENT = {"sim": {"fidelity": "complex", "density": "medium", "episode_length": 150},
           "hyper": {"total_steps": 600, "rollout_steps": 200, "update_epochs": 1},
           "s2cd": {}, "switch": {}, "seeds": [SEED], "eval_episodes": 1}
THEORY = {"theory": {"instances": 6, "max_states": 8, "max_actions": 3,
                     "tolerance": 0.0, "seed": 5}}


def run(tmp: Path, name: str, config: dict, *argv: str) -> Path:
    cfg = tmp / f"{name}.json"
    cfg.write_text(json.dumps(config))
    out = tmp / name
    assert main([argv[0], "--config", str(cfg), "--out", str(out), *argv[1:]]) == 0
    return out


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("outputs")
    teacher = run(tmp, "teacher", TEACHER, "train-teacher") / f"seed_{SEED}"
    bundle = teacher / "bundle"
    student = run(tmp, "student", STUDENT, "train-student", "--bundle", str(bundle))
    return {"teacher": teacher, "bundle": bundle, "student": student / f"seed_{SEED}",
            "theory": run(tmp, "theory", THEORY, "theory")}


@pytest.fixture
def copy(outputs, tmp_path):
    def make(name: str) -> Path:
        return Path(shutil.copytree(outputs[name], tmp_path / name))
    return make


def edit_csv(path: Path, row: int, column: str, value) -> None:
    with path.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    rows[row][column] = repr(value)
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def edit_json(path: Path, change) -> None:
    payload = json.loads(path.read_text())
    change(payload)
    path.write_text(json.dumps(payload))


def check_teacher(run_dir: Path, trained_steps: int = 1000) -> None:
    checks.check_training_run(run_dir, 1000, 500, trained_steps,
                              run_dir / "bundle" / "actor.json", SEED)


def check_student(run_dir: Path, bundle: Path) -> None:
    rows = checks.check_training_run(run_dir, 600, 200, 600,
                                     run_dir / "bundle" / "actor.json", SEED)
    checks.check_student_metrics(rows, run_dir / "metrics.csv")
    checks.check_same_bytes(bundle, run_dir / "bundle")


def check_theory(out: Path) -> None:
    t = THEORY["theory"]
    checks.check_theory(out, t["seed"], t["instances"], t["max_states"], t["max_actions"])


def test_real_outputs_pass(outputs):
    check_teacher(outputs["teacher"])
    check_student(outputs["student"], outputs["bundle"])
    check_theory(outputs["theory"])


@pytest.mark.parametrize("corrupt", [
    lambda d: edit_json(d / "theory_report.json", lambda r: r.update(all_pass=False)),
    lambda d: edit_json(d / "theory_report.json",
                        lambda r: r["results"][2].update(slack=-1e-6)),
    lambda d: edit_json(d / "theory_report.json",
                        lambda r: r["results"][1].update(improvement_margin=-1e-6)),
    lambda d: edit_json(d / "theory_report.json",
                        lambda r: r["results"][0].update(visitation_mass=1.0 + 1e-6)),
    lambda d: edit_json(d / "theory_report.json",
                        lambda r: r["results"][3].update(J_teacher=r["results"][3]["J_teacher"]
                                                         + 1e-7)),
    lambda d: edit_json(d / "theory_report.json", lambda r: r["results"].pop()),
], ids=["all_pass", "slack", "margin", "visitation", "J_teacher", "instances"])
def test_theory_check_rejects(copy, corrupt):
    out = copy("theory")
    corrupt(out)
    with pytest.raises(checks.CheckError):
        check_theory(out)


def corrupt_params(path: Path) -> None:
    edit_json(path, lambda p: p["params"].__setitem__(3, float("nan")))


@pytest.mark.parametrize("corrupt,steps", [
    (lambda d: edit_json(d / "bundle" / "actor.json",
                         lambda p: p["spec"].update(head="vector_value")), 1000),
    (lambda d: corrupt_params(d / "bundle" / "qvalue_net.json"), 1000),
    (lambda d: (d / "metrics.csv").write_text(
        "\n".join((d / "metrics.csv").read_text().splitlines()[:-1]) + "\n"), 1000),
    (lambda d: edit_csv(d / "metrics.csv", 1, "step", 999), 1000),
    (lambda d: None, 999),
], ids=["policy_output", "finite_params", "row_count", "step_column", "train_steps"])
def test_training_check_rejects(copy, corrupt, steps):
    run_dir = copy("teacher")
    corrupt(run_dir)
    with pytest.raises(checks.CheckError):
        check_teacher(run_dir, steps)


@pytest.mark.parametrize("column,row,value", [
    ("tau", 0, 0.0), ("tau", 0, 1.5), ("tau", 2, 1.0), ("intervention_rate", 1, 1.2),
    ("teacher_sample_fraction", 0, -0.1), ("mean_kl", 2, -1e-3),
], ids=["tau_zero", "tau_above_one", "tau_rises", "intervention_rate",
        "teacher_fraction", "mean_kl"])
def test_student_check_rejects(outputs, copy, column, row, value):
    run_dir = copy("student")
    if column == "tau" and row == 2:  # make tau rise into the last phase
        with (run_dir / "metrics.csv").open(newline="") as fh:
            value = float(list(csv.DictReader(fh))[1]["tau"]) + 1e-9
    edit_csv(run_dir / "metrics.csv", row, column, value)
    with pytest.raises(checks.CheckError):
        check_student(run_dir, outputs["bundle"])


def test_student_check_rejects_changed_bundle(outputs, copy):
    run_dir = copy("student")
    edit_json(run_dir / "bundle" / "critic.json",
              lambda p: p["params"].__setitem__(3, 0.25))
    with pytest.raises(checks.CheckError):
        check_student(run_dir, outputs["bundle"])


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == tracer.PER_LAYER
    assert all(m["unit"] == tracer.metric_unit(m["name"]) for m in spec["per_layer"])
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in workloads.WORKLOADS.items()}
