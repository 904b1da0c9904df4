import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from s2cd import cli
from s2cd.cli import main
from s2cd.teacher_suite import load_bundle
from s2cd.tensor_nn import DenseNet, Head, NetSpec, save_net


MICRO_TEACHER = {
    "sim": {"fidelity": "simple", "density": "medium"},
    "hyper": {"total_steps": 1200, "rollout_steps": 600, "minibatch": 64,
              "update_epochs": 2},
    "seeds": [1],
    "eval_episodes": 2,
    "quality": "high",
}

MICRO_STUDENT = {
    "sim": {"fidelity": "complex", "density": "medium", "episode_length": 150},
    "hyper": {"total_steps": 1200, "rollout_steps": 600, "minibatch": 64,
              "update_epochs": 2},
    "s2cd": {},
    "switch": {},
    "seeds": [1],
    "eval_episodes": 1,
}


MICRO_THEORY = {"theory": {"instances": 3, "max_states": 5, "max_actions": 2,
                           "tolerance": 0.0, "seed": 1}}


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture(scope="module")
def teacher_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("teacher")
    cfg = write_config(tmp, "teacher.json", MICRO_TEACHER)
    out = tmp / "out"
    assert main(["train-teacher", "--config", cfg, "--out", str(out)]) == 0
    return out


class TestValidation:
    def test_unknown_top_level_key_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "bad.json", {"simulation": {}})
        out = tmp_path / "out"
        assert main(["theory", "--config", cfg, "--out", str(out)]) == 2
        assert not out.exists()
        assert "unknown keys" in capsys.readouterr().err

    def test_unknown_section_key_rejected(self, tmp_path):
        cfg = write_config(tmp_path, "bad.json",
                           {"sim": {"fidelity": "simple", "lanes": 3}})
        out = tmp_path / "out"
        assert main(["train-teacher", "--config", cfg, "--out", str(out)]) == 2
        assert not out.exists()

    def test_invalid_density_rejected_nothing_written(self, tmp_path):
        payload = {**MICRO_TEACHER, "sim": {"fidelity": "simple", "density": "jammed"}}
        cfg = write_config(tmp_path, "bad.json", payload)
        out = tmp_path / "out"
        assert main(["train-teacher", "--config", cfg, "--out", str(out)]) == 2
        assert not out.exists()

    def test_invalid_quality_rejected(self, tmp_path):
        payload = {**MICRO_TEACHER, "quality": "medium"}
        cfg = write_config(tmp_path, "bad.json", payload)
        assert main(["train-teacher", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 2

    def test_unknown_ablation_flag_rejected(self, tmp_path, teacher_dir):
        cfg = write_config(tmp_path, "student.json", MICRO_STUDENT)
        code = main(["train-student", "--config", cfg,
                     "--bundle", str(teacher_dir / "seed_1" / "bundle"),
                     "--out", str(tmp_path / "out"), "--ablate", "no-everything"])
        assert code == 2


class TestErrorReporting:
    def test_value_error_after_outputs_is_a_runtime_error(self, tmp_path, capsys,
                                                          monkeypatch):
        def fail(**kwargs):
            raise ValueError("boom")
        monkeypatch.setattr(cli, "run_sweep", fail)
        cfg = write_config(tmp_path, "theory.json", MICRO_THEORY)
        out = tmp_path / "out"
        assert main(["theory", "--config", cfg, "--out", str(out)]) == 3
        assert (out / "config.json").exists()
        err = capsys.readouterr().err
        assert "runtime error: boom" in err
        assert "config error" not in err

    @pytest.mark.parametrize("key,value", [
        ("instances", 0), ("max_actions", 1), ("seed", -1), ("max_states", 2.5),
        ("tolerance", -0.1), ("tolerance", float("nan")), ("instances", None),
    ])
    def test_invalid_theory_values_rejected_before_outputs(self, tmp_path, key, value):
        theory = {**MICRO_THEORY["theory"], key: value}
        if value is None:
            del theory[key]
        cfg = write_config(tmp_path, "bad.json", {"theory": theory})
        out = tmp_path / "out"
        assert main(["theory", "--config", cfg, "--out", str(out)]) == 2
        assert not out.exists()

    def test_invalid_eval_episodes_rejected_before_outputs(self, tmp_path):
        cfg = write_config(tmp_path, "bad.json", {**MICRO_TEACHER, "eval_episodes": 0})
        out = tmp_path / "out"
        assert main(["train-teacher", "--config", cfg, "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("section,key,value", [
        ("hyper", "total_steps", 0), ("hyper", "minibatch", 1.5),
        ("hyper", "update_epochs", True), ("hyper", "gamma", "0.9"),
        ("sim", "decisions_per_second", 0), ("sim", "decisions_per_second", float("inf")),
        ("sim", "lanes_count", 2.5),
        ("reward", "alpha1", "0.5"), ("switch", "q1", "3"),
        ("sim", "episode_length", -5), ("sim", "episode_length", float("inf")),
        ("sim", "speed_limit", 0), ("sim", "speed_limit", float("nan")),
        ("sim", "lane_width", 0), ("sim", "lane_width", -3.75),
        ("hyper", "base_lr", float("nan")), ("hyper", "ratio_logclamp", float("inf")),
        ("reward", "alpha1", float("nan")), ("switch", "q2", float("-inf")),
        ("sim", "speed_limit", 10**400),
        ("hyper", "total_steps", 500),
        ("s2cd", "dual_source", "false"), ("hyper", "lr_decay", "no"),
        ("s2cd", "adaptive_clip", 0), ("sim", "seed", "x"),
    ])
    def test_malformed_numbers_rejected_before_outputs(self, tmp_path, capsys,
                                                       section, key, value):
        payload = {**MICRO_TEACHER, section: {**MICRO_TEACHER.get(section, {}), key: value}}
        cfg = write_config(tmp_path, "bad.json", payload)
        out = tmp_path / "out"
        assert main(["train-teacher", "--config", cfg, "--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert "config error" in err and key in err

    @pytest.mark.parametrize("seeds,argv", [([-1], []), ([True], []), ([1], ["--seed", "-1"]),
                                            (5, [])])
    def test_bad_seeds_rejected_before_outputs(self, tmp_path, capsys, seeds, argv):
        cfg = write_config(tmp_path, "bad.json", {**MICRO_TEACHER, "seeds": seeds})
        out = tmp_path / "out"
        assert main(["train-teacher", "--config", cfg, "--out", str(out), *argv]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert "config error" in err and "seed" in err

    @pytest.mark.parametrize("command,payload", [
        ("train-teacher", {**MICRO_TEACHER, "sim": 5}),
        ("train-teacher", {**MICRO_TEACHER, "hyper": None}),
        ("theory", {"theory": [1]}),
    ])
    def test_non_object_sections_rejected_before_outputs(self, tmp_path, capsys,
                                                         command, payload):
        cfg = write_config(tmp_path, "bad.json", payload)
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert not out.exists()
        assert "must be a JSON object" in capsys.readouterr().err

    def test_student_config_errors_write_nothing(self, tmp_path, teacher_dir):
        cfg = write_config(tmp_path, "student.json", MICRO_STUDENT)
        out = tmp_path / "out"
        assert main(["train-student", "--config", cfg, "--out", str(out)]) == 2
        assert main(["train-student", "--config", cfg, "--out", str(out),
                     "--bundle", str(teacher_dir / "seed_1" / "bundle"),
                     "--ablate", "no-everything"]) == 2
        assert not out.exists()

    def test_psi_rule_binds_only_the_gated_student(self, tmp_path, capsys, teacher_dir):
        # clip_eps below the default psi: only the S2CD loss reads psi
        teacher = write_config(tmp_path, "teacher.json", {
            **MICRO_TEACHER, "hyper": {**MICRO_TEACHER["hyper"], "clip_eps": 0.1},
            "s2cd": {}})
        assert main(["train-teacher", "--config", teacher,
                     "--out", str(tmp_path / "teacher")]) == 0
        student = {k: v for k, v in MICRO_STUDENT.items() if k not in ("s2cd", "switch")}
        student = write_config(tmp_path, "student.json", {
            **student, "hyper": {**MICRO_STUDENT["hyper"], "clip_eps": 0.1}})
        assert main(["train-student", "--baseline", "--config", student,
                     "--out", str(tmp_path / "baseline")]) == 0
        capsys.readouterr()
        bundle = str(teacher_dir / "seed_1" / "bundle")
        for command in ("train-student", "ablate"):
            out = tmp_path / command
            assert main([command, "--config", student, "--bundle", bundle,
                         "--out", str(out)]) == 2
            assert not out.exists()
            assert "config error: psi must lie in [0, clip_eps]" in capsys.readouterr().err

    def test_evaluate_missing_checkpoint_writes_nothing(self, tmp_path):
        out = tmp_path / "out"
        assert main(["evaluate", "--checkpoint", str(tmp_path / "nowhere"),
                     "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("name,payload", [
        ("manifest.json", ["ppo_baseline"]),
        ("actor.json", {"format": 1}),
        ("actor.json", [1.0, 2.0]),
        ("actor.json", {"format": 1, "params": [0.0],
                        "spec": {"input_dim": "11", "output_dim": 3, "hidden": [4],
                                 "head": "softmax_policy", "activation": "tanh"}}),
    ])
    def test_evaluate_malformed_checkpoint_is_a_config_error(self, tmp_path, capsys,
                                                              name, payload):
        ckpt = tmp_path / "ckpt"
        ckpt.mkdir()
        (ckpt / "manifest.json").write_text(json.dumps({"kind": "ppo_baseline"}))
        save_net(DenseNet.create(NetSpec(11, 3, head=Head.SOFTMAX_POLICY),
                                 np.random.default_rng(0)), ckpt / "actor.json")
        (ckpt / name).write_text(json.dumps(payload))
        out = tmp_path / "out"
        assert main(["evaluate", "--checkpoint", str(ckpt), "--out", str(out)]) == 2
        assert not out.exists()
        assert f"config error: {ckpt / name}" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", [None, 5])
    def test_evaluate_checkpoint_kind_is_never_guessed(self, tmp_path, capsys, teacher_dir,
                                                       kind):
        # a teacher bundle that lost its quality_tag is not a student run
        ckpt = tmp_path / "bundle"
        shutil.copytree(teacher_dir / "seed_1" / "bundle", ckpt)
        manifest = json.loads((ckpt / "manifest.json").read_text())
        del manifest["quality_tag"]
        if kind is not None:
            manifest["kind"] = kind
        (ckpt / "manifest.json").write_text(json.dumps(manifest))
        out = tmp_path / "out"
        assert main(["evaluate", "--checkpoint", str(ckpt), "--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert f"config error: {ckpt / 'manifest.json'}" in err and "'kind'" in err

    @pytest.mark.parametrize("name", ["manifest.json", "actor.json"])
    def test_student_malformed_bundle_is_a_config_error(self, tmp_path, capsys, teacher_dir,
                                                        name):
        bundle = tmp_path / "bundle"
        shutil.copytree(teacher_dir / "seed_1" / "bundle", bundle)
        payload = json.loads((bundle / name).read_text())
        del payload["quality_tag" if name == "manifest.json" else "spec"]
        (bundle / name).write_text(json.dumps(payload))
        cfg = write_config(tmp_path, "student.json", MICRO_STUDENT)
        out = tmp_path / "out"
        assert main(["train-student", "--config", cfg, "--bundle", str(bundle),
                     "--out", str(out)]) == 2
        assert not out.exists()
        assert f"config error: {bundle / name}" in capsys.readouterr().err

    def test_student_bundle_with_other_advice_widths_is_a_config_error(self, tmp_path, capsys,
                                                                       teacher_dir):
        bundle = tmp_path / "bundle"
        shutil.copytree(teacher_dir / "seed_1" / "bundle", bundle)
        save_net(DenseNet.create(NetSpec(11, 3, hidden=(32, 32), head=Head.VECTOR_VALUE),
                                 np.random.default_rng(0)), bundle / "return_net.json")
        cfg = write_config(tmp_path, "student.json", MICRO_STUDENT)
        out = tmp_path / "out"
        assert main(["train-student", "--config", cfg, "--bundle", str(bundle),
                     "--out", str(out)]) == 2
        assert not out.exists()
        assert f"config error: {bundle / 'return_net.json'}" in capsys.readouterr().err

    def test_evaluate_baseline_actor_beside_a_bundle_is_a_config_error(self, tmp_path, capsys,
                                                                       teacher_dir):
        # the bundle makes the eval observations 14 wide; this actor reads 11
        ckpt = tmp_path / "ckpt"
        shutil.copytree(teacher_dir / "seed_1" / "bundle", ckpt / "bundle")
        (ckpt / "manifest.json").write_text(json.dumps({"kind": "ppo_baseline"}))
        save_net(DenseNet.create(NetSpec(11, 3, head=Head.SOFTMAX_POLICY),
                                 np.random.default_rng(0)), ckpt / "actor.json")
        cfg = write_config(tmp_path, "eval.json", MICRO_STUDENT)
        out = tmp_path / "out"
        assert main(["evaluate", "--checkpoint", str(ckpt), "--config", cfg,
                     "--out", str(out)]) == 2
        assert not out.exists()
        assert "config error: checkpoint actor maps 11 inputs" in capsys.readouterr().err

    def test_bundle_with_another_action_count_is_a_config_error(self, tmp_path, capsys,
                                                                teacher_dir):
        bundle = tmp_path / "bundle"
        shutil.copytree(teacher_dir / "seed_1" / "bundle", bundle)
        hidden = load_bundle(bundle).actor.spec.hidden
        rng = np.random.default_rng(0)
        for name, head in (("actor", Head.SOFTMAX_POLICY), ("return_net", Head.VECTOR_VALUE),
                           ("qvalue_net", Head.VECTOR_VALUE)):
            save_net(DenseNet.create(NetSpec(11, 4, hidden=hidden, head=head), rng),
                     bundle / f"{name}.json")
        cfg = write_config(tmp_path, "student.json", MICRO_STUDENT)
        for argv in (["train-student", "--bundle", str(bundle)],
                     ["evaluate", "--checkpoint", str(bundle)]):
            out = tmp_path / "out"
            assert main(argv + ["--config", cfg, "--out", str(out)]) == 2
            assert not out.exists()
            assert "config error: bundle actor has 4 outputs" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["directory", "missing"])
    def test_unreadable_config_rejected_before_outputs(self, tmp_path, capsys, kind):
        cfg = tmp_path / "cfg"
        if kind == "directory":
            cfg.mkdir()
        out = tmp_path / "out"
        assert main(["theory", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()
        assert "config error: cannot read config" in capsys.readouterr().err


class TestTheoryCommand:
    def test_report_written_and_reproducible(self, tmp_path):
        cfg = write_config(tmp_path, "theory.json",
                           {"theory": {"instances": 25, "max_states": 10,
                                       "max_actions": 3, "tolerance": 0.0, "seed": 4}})
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["theory", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["theory", "--config", cfg, "--out", str(out2)]) == 0
        r1 = (out1 / "theory_report.json").read_bytes()
        r2 = (out2 / "theory_report.json").read_bytes()
        assert r1 == r2
        report = json.loads(r1)
        assert report["all_pass"] is True
        assert report["instances"] == 25
        for row in report["results"]:
            assert set(row) >= {"J_teacher", "J_mix", "omega", "bound_rhs",
                                "slack", "improvement_margin"}


class TestTrainTeacherCommand:
    def test_outputs_layout(self, teacher_dir):
        run = teacher_dir / "seed_1"
        assert (run / "bundle" / "manifest.json").exists()
        assert (run / "metrics.csv").exists()
        assert (teacher_dir / "config.json").exists()
        manifest = json.loads((run / "bundle" / "manifest.json").read_text())
        assert manifest["quality_tag"] == "high"
        assert manifest["training_steps"] == 1200
        assert "eval_success" in manifest
        header = (run / "metrics.csv").read_text().splitlines()[0]
        assert header == ("step,mean_return,mean_cost,mean_speed,collisions,"
                          "entropy,kl,intervention_rate")

    def test_byte_reproducible(self, tmp_path, teacher_dir):
        cfg = write_config(tmp_path, "teacher.json", MICRO_TEACHER)
        out = tmp_path / "again"
        assert main(["train-teacher", "--config", cfg, "--out", str(out)]) == 0
        a = (teacher_dir / "seed_1" / "metrics.csv").read_bytes()
        b = (out / "seed_1" / "metrics.csv").read_bytes()
        assert a == b
        a = (teacher_dir / "seed_1" / "bundle" / "actor.json").read_bytes()
        b = (out / "seed_1" / "bundle" / "actor.json").read_bytes()
        assert a == b


    def test_non_default_speed_limit_runs(self, tmp_path):
        payload = {**MICRO_TEACHER, "sim": {"fidelity": "simple", "density": "low",
                                             "speed_limit": 30}}
        cfg = write_config(tmp_path, "teacher.json", payload)
        assert main(["train-teacher", "--config", cfg, "--out", str(tmp_path / "out")]) == 0


class TestTrainStudentCommand:
    def test_student_run_layout_and_tau_column(self, tmp_path, teacher_dir):
        cfg = write_config(tmp_path, "student.json", MICRO_STUDENT)
        out = tmp_path / "student"
        code = main(["train-student", "--config", cfg,
                     "--bundle", str(teacher_dir / "seed_1" / "bundle"),
                     "--out", str(out)])
        assert code == 0
        run = out / "seed_1"
        manifest = json.loads((run / "manifest.json").read_text())
        assert manifest["kind"] == "s2cd_student"
        lines = (run / "metrics.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert header[-3:] == ["tau", "mean_kl", "teacher_sample_fraction"]
        taus = [float(line.split(",")[header.index("tau")]) for line in lines[1:]]
        assert all(a > b for a, b in zip(taus, taus[1:]))
        assert (run / "bundle" / "manifest.json").exists()

    def test_missing_bundle_rejected(self, tmp_path):
        cfg = write_config(tmp_path, "student.json", MICRO_STUDENT)
        assert main(["train-student", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 2

    def test_baseline_mode_runs_plain_ppo(self, tmp_path):
        cfg = write_config(tmp_path, "student.json",
                           {k: v for k, v in MICRO_STUDENT.items()
                            if k not in ("s2cd", "switch")})
        out = tmp_path / "baseline"
        code = main(["train-student", "--config", cfg, "--baseline",
                     "--out", str(out)])
        assert code == 0
        manifest = json.loads((out / "seed_1" / "manifest.json").read_text())
        assert manifest["kind"] == "ppo_baseline"
        header = (out / "seed_1" / "metrics.csv").read_text().splitlines()[0]
        assert "tau" not in header

    def test_ablate_command_each_flag_runs(self, tmp_path, teacher_dir):
        cfg = write_config(tmp_path, "student.json", MICRO_STUDENT)
        for flag in ("no-dual-source", "no-adaptive-clip", "no-kl", "no-decay"):
            out = tmp_path / flag
            code = main(["ablate", "--config", cfg,
                         "--bundle", str(teacher_dir / "seed_1" / "bundle"),
                         "--out", str(out), "--ablate", flag])
            assert code == 0
            manifest = json.loads((out / "seed_1" / "manifest.json").read_text())
            assert manifest["ablations"] == flag

    @pytest.mark.parametrize("s2cd,ablate,expected", [
        ({"kl_constraint": False}, None, "no-kl"),
        ({}, "no-decay, no-kl", "no-kl,no-decay"),
    ])
    def test_manifest_names_the_switches_that_are_off(self, tmp_path, teacher_dir, s2cd,
                                                      ablate, expected):
        cfg = write_config(tmp_path, "student.json", {**MICRO_STUDENT, "s2cd": s2cd})
        out = tmp_path / "out"
        argv = ["train-student", "--config", cfg, "--out", str(out),
                "--bundle", str(teacher_dir / "seed_1" / "bundle")]
        assert main(argv + (["--ablate", ablate] if ablate else [])) == 0
        manifest = json.loads((out / "seed_1" / "manifest.json").read_text())
        assert manifest["ablations"] == expected


class TestEvaluateCommand:
    def test_evaluate_teacher_checkpoint(self, tmp_path, teacher_dir):
        cfg = write_config(tmp_path, "eval.json",
                           {"sim": {"fidelity": "simple", "density": "medium"},
                            "seeds": [1, 2], "eval_episodes": 2})
        out = tmp_path / "eval"
        code = main(["evaluate", "--checkpoint", str(teacher_dir / "seed_1" / "bundle"),
                     "--config", cfg, "--out", str(out)])
        assert code == 0
        summary = json.loads((out / "eval_summary.json").read_text())
        assert summary["kind"] == "teacher"
        assert 0.0 <= summary["success_rate"] <= 100.0
        assert summary["episodic_return"] == pytest.approx(
            summary["episodic_reward"] - summary["episodic_cost"], abs=1e-9)
        assert len(summary["per_seed"]) == 2
        lines = (out / "episodes.csv").read_text().splitlines()
        assert len(lines) == 1 + 2 * 2

    def test_evaluate_dimension_mismatch_rejected(self, tmp_path, teacher_dir):
        cfg = write_config(tmp_path, "eval.json",
                           {"sim": {"fidelity": "simple", "density": "medium",
                                    "lanes_count": 4},
                            "seeds": [1], "eval_episodes": 1})
        # lanes_count does not change obs dim; use a student checkpoint with a
        # missing bundle to hit the mismatch path instead
        run = teacher_dir / "seed_1" / "bundle"
        code = main(["evaluate", "--checkpoint", str(run), "--config", cfg,
                     "--out", str(tmp_path / "eval")])
        assert code == 0  # teacher consumes the 11-dim obs regardless of lanes

    def test_evaluate_reproducible(self, tmp_path, teacher_dir):
        cfg = write_config(tmp_path, "eval.json",
                           {"sim": {"fidelity": "simple", "density": "medium"},
                            "seeds": [1], "eval_episodes": 2})
        outs = []
        for name in ("e1", "e2"):
            out = tmp_path / name
            assert main(["evaluate", "--checkpoint",
                         str(teacher_dir / "seed_1" / "bundle"),
                         "--config", cfg, "--out", str(out)]) == 0
            outs.append((out / "eval_summary.json").read_bytes())
        assert outs[0] == outs[1]
