"""Acceptance gate: one test per exit criterion, each printing a PASS/FAIL
line. Run with -s to see the lines; training-backed criteria share the
session fixtures from conftest.
"""
import json
import math
import time

import numpy as np
import pytest

from s2cd.highway_sim import (
    Action,
    Density,
    Fidelity,
    SimConfig,
    spawn_scenario,
    step,
)
from s2cd.mdp_interface import HighwayEnv, efficiency_reward, safety_cost
from s2cd.lowlevel_control import idm_accel
from s2cd.ppo_core import HyperParams, normalize_advantages, ppo_loss
from s2cd.s2cd_engine import (
    S2cdHyper,
    SwitchConfig,
    adaptive_epsilon,
    clip_bounds,
    decay_tau,
    s2cd_loss,
)
from s2cd.tensor_nn import DenseNet, Head, NetSpec
from s2cd.theory_validation import run_sweep
from s2cd.cli import main

pytestmark = pytest.mark.acceptance


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


class TestTabularCertificates:
    def test_c1_improvement_guarantee(self):
        start = time.time()
        rows, _ = run_sweep(n_instances=100, seed=0, max_states=20, max_actions=4,
                            tolerance=0.0)
        elapsed = time.time() - start
        worst = min(r["improvement_margin"] for r in rows)
        ok = worst >= -1e-9 and elapsed < 30.0
        report("C1 mixed-policy improvement", ok,
               f"100 instances, worst margin {worst:.3e}, {elapsed:.1f}s")

    def test_c2_performance_bound(self):
        start = time.time()
        rows, _ = run_sweep(n_instances=100, seed=0, max_states=20, max_actions=4,
                            tolerance=0.0)
        elapsed = time.time() - start
        worst = min(r["slack"] for r in rows)
        ok = worst >= 0.0 and elapsed < 60.0
        report("C2 return-gap bound", ok,
               f"100 instances, worst slack {worst:.3e}, {elapsed:.1f}s")


def make_loss_batch(seed, n=40, obs_dim=14):
    rng = np.random.default_rng(seed)
    actor = DenseNet.create(NetSpec(obs_dim, 3, hidden=(16, 16),
                                    head=Head.SOFTMAX_POLICY), rng)
    critic = DenseNet.create(NetSpec(obs_dim, 1, hidden=(16, 16),
                                     head=Head.SCALAR_VALUE), rng)
    obs = rng.uniform(0, 1, size=(n, obs_dim))
    actions = rng.integers(0, 3, size=n)
    perturbed = actor.copy()
    perturbed.params = perturbed.params + rng.normal(0, 0.05, size=perturbed.params.shape)
    _, cache = perturbed.forward(obs)
    lp_old = perturbed.policy_log_probs(cache)[np.arange(n), actions]
    return {
        "obs": obs,
        "actions": actions,
        "logprob_old": lp_old,
        "advantages": normalize_advantages(rng.uniform(-1, 1, size=n)),
        "returns": rng.uniform(-1, 1, size=n),
        "teacher_origin": rng.uniform(size=n) < 0.5,
        "eps_prime": rng.uniform(0.0, 0.2, size=n),
        "teacher_probs": rng.dirichlet(np.ones(3), size=n),
        "executed": rng.uniform(size=n) < 0.75,
    }, actor, critic


def finite_diff_max_rel_error(loss_fn, nets, n_params=200, seed=0, h=1e-6):
    _, grads = loss_fn()
    rng = np.random.default_rng(seed)
    worst = 0.0
    checked = 0
    for net, key in nets:
        idx = rng.choice(net.spec.n_params, size=n_params // len(nets) + 1,
                         replace=False)
        for i in idx:
            saved = net.params[i]
            net.params[i] = saved + h
            up, _ = loss_fn()
            net.params[i] = saved - h
            down, _ = loss_fn()
            net.params[i] = saved
            fd = (up - down) / (2 * h)
            rel = abs(grads[key][i] - fd) / max(abs(fd), 1e-3)
            worst = max(worst, rel)
            checked += 1
    return worst, checked


class TestGradientIntegrity:
    def test_c3_all_losses_match_finite_differences(self):
        worst = 0.0
        total = 0
        batch, actor, critic = make_loss_batch(seed=10)
        ppo_batch = dict(batch)
        ppo_batch["executed"] = np.ones(len(batch["actions"]), dtype=bool)
        hp = HyperParams()

        def ppo_fn():
            loss, grads, _ = ppo_loss(ppo_batch, actor, critic, hp)
            return loss, grads

        w, c = finite_diff_max_rel_error(ppo_fn, ((actor, "actor"), (critic, "critic")),
                                         n_params=200, seed=1)
        worst, total = max(worst, w), total + c

        combo = 0
        for dual in (False, True):
            for adaptive in (False, True):
                for kl in (False, True):
                    for decay in (False, True):
                        combo += 1
                        b, a_net, c_net = make_loss_batch(seed=20 + combo)
                        s_hp = S2cdHyper(dual_source=dual, adaptive_clip=adaptive,
                                         kl_constraint=kl, intervention_decay=decay)
                        tau = decay_tau(40, SwitchConfig(), enabled=decay)

                        def s2cd_fn(b=b, a_net=a_net, c_net=c_net, s_hp=s_hp, tau=tau):
                            loss, grads, _ = s2cd_loss(b, a_net, c_net, s_hp, tau)
                            return loss, grads

                        w, c = finite_diff_max_rel_error(
                            s2cd_fn, ((a_net, "actor"), (c_net, "critic")),
                            n_params=200, seed=30 + combo)
                        worst, total = max(worst, w), total + c

        ok = worst < 1e-6 and total >= 200 * 17
        report("C3 gradient integrity", ok,
               f"{total} parameters over 17 loss variants, max rel err {worst:.2e}")


class TestReductionProperty:
    def test_c4_s2cd_reduces_to_ppo(self):
        worst = 0.0
        for seed in range(5):
            batch, actor, critic = make_loss_batch(seed=40 + seed)
            batch["executed"] = np.ones(len(batch["actions"]), dtype=bool)
            hp = S2cdHyper()
            loss_tau0, _, stats_tau0 = s2cd_loss(batch, actor, critic, hp, tau=0.0)
            hp_off = S2cdHyper(dual_source=False, adaptive_clip=False,
                               kl_constraint=False, intervention_decay=False)
            loss_off, _, stats_off = s2cd_loss(batch, actor, critic, hp_off, tau=1.0)
            loss_ppo, _, stats_ppo = ppo_loss(batch, actor, critic, hp)
            worst = max(worst,
                        abs(loss_tau0 - loss_ppo), abs(loss_off - loss_ppo),
                        float(np.max(np.abs(stats_tau0["per_sample_surrogate"]
                                            - stats_ppo["per_sample_surrogate"]))),
                        float(np.max(np.abs(stats_off["per_sample_surrogate"]
                                            - stats_ppo["per_sample_surrogate"]))))
        ok = worst < 1e-12
        report("C4 reduction to plain clipped loss", ok,
               f"max per-sample deviation {worst:.2e} over 5 batches")


class TestClippingAlgebra:
    def test_c5_adaptive_clipping_and_switch_monotonicity(self):
        rng = np.random.default_rng(5)
        n = 10_000
        ps = rng.uniform(0, 1, n)
        pt = rng.uniform(0, 1, n)
        psi = 0.2
        eps_prime = np.array([adaptive_epsilon(a, b, psi) for a, b in zip(ps, pt)])
        in_range = np.all((eps_prime >= 0.0) & (eps_prime <= psi))

        tau = rng.uniform(0, 1, n)
        te = tau * eps_prime
        lo_t, hi_t = clip_bounds(np.ones(n, dtype=bool), 0.2, te)
        lo_s, hi_s = clip_bounds(np.zeros(n, dtype=bool), 0.2, te)
        shift_ok = (np.allclose(hi_t - hi_s, 2 * te, atol=1e-12)
                    and np.allclose(lo_t - lo_s, 2 * te, atol=1e-12)
                    and np.all(hi_t >= hi_s) and np.all(lo_s <= lo_t))

        cfg = SwitchConfig()
        thresholds = [(1.0 - decay_tau(k, cfg)) * cfg.tolerance_eps
                      for k in range(0, 500, 5)]
        monotone = all(a <= b for a, b in zip(thresholds, thresholds[1:]))

        ok = bool(in_range and shift_ok and monotone)
        report("C5 clipping algebra", ok,
               f"eps' in [0, psi]: {in_range}, interval shift exact: {shift_ok}, "
               f"switch threshold monotone: {monotone}")


class TestClosedFormValues:
    def test_c6_unit_values(self):
        checks = {
            "R_e(25)": (efficiency_reward(25.0), 0.5),
            "C_s(3)": (safety_cost(3.0, False), 1.0),
            "C_s(7.5)": (safety_cost(7.5, False), 0.5),
            "tau(30)": (decay_tau(30, SwitchConfig()), 0.5),
            "eps'(equal)": (adaptive_epsilon(0.3, 0.3, 0.2), 0.1),
            "IDM(0,gap100)": (idm_accel(0.0, 0.0, 100.0, 25.0), 1.9992),
        }
        worst = max(abs(got - want) for got, want in checks.values())
        ok = worst < 1e-9
        detail = ", ".join(f"{k}={got:.6g}" for k, (got, want) in checks.items())
        report("C6 closed-form unit values", ok, f"max abs err {worst:.2e}; {detail}")


@pytest.mark.slow
class TestTrainingOrderings:
    def test_c7_early_training_safety(self, matched_runs):
        # both algorithms at the same 60K budget; first third = 4 phases
        window = 4
        student = sum(sum(m["collisions"] for m in r["student_metrics"][:window])
                      for r in matched_runs)
        ppo = sum(sum(m["collisions"] for m in r["ppo_matched_metrics"][:window])
                  for r in matched_runs)
        ok = student <= 0.7 * ppo
        report("C7 early-training safety ordering", ok,
               f"gated student {student} vs matched-budget baseline {ppo} "
               f"collisions in the first third (20K steps) over 3 seeds")

    def test_c8_final_success_ordering(self, matched_runs):
        # Known-red criterion in this artifact: the built-in complex world is
        # forgiving enough that the plain-PPO baseline saturates near 100%
        # evaluation success at its desk budget (and stays there at 5x the
        # budget), while the fixed weaning constants leave the 60K student too
        # few solo episodes to match that ceiling. Matched budgets (60K/60K,
        # 100K/100K) and full-scale ones (300K/500K) were measured and do not
        # change the ordering. The safety ordering (C7) holds with wide margin.
        student = float(np.mean([r["student_eval"]["success_rate"]
                                 for r in matched_runs]))
        baseline = float(np.mean([r["baseline_eval"]["success_rate"]
                                  for r in matched_runs]))
        ok = student >= baseline
        report("C8 final success ordering", ok,
               f"student {student:.2f}% vs baseline {baseline:.2f}% "
               f"(50 episodes x 3 seeds)")

    def test_c9_weaning_behavior(self, matched_runs):
        ok = True
        details = []
        for r in matched_runs:
            omegas = [m["intervention_rate"] for m in r["student_metrics"]]
            taus = [m["tau"] for m in r["student_metrics"]]
            q = max(1, len(omegas) // 4)
            first, last = float(np.mean(omegas[:q])), float(np.mean(omegas[-q:]))
            tau_ok = all(a > b for a, b in zip(taus, taus[1:]))
            seed_ok = last < first and tau_ok
            ok = ok and seed_ok
            details.append(f"seed {r['seed']}: omega {first:.3f}->{last:.3f}, "
                           f"tau strictly decreasing: {tau_ok}")
        report("C9 weaning behavior", ok, "; ".join(details))

    def test_c10_teacher_quality_ordering(self, teacher_pair):
        high_bundle, high_eval = teacher_pair["high"]
        low = teacher_pair["low"][1]["success_rate"]
        high = high_eval["success_rate"]
        floor_ok = high >= 85.0  # desk-scale training-quality floor
        fit_ok = (high_bundle.meta["fit_heldout_mse"]
                  < high_bundle.meta["fit_target_variance"])
        ok = high > low and floor_ok and fit_ok
        report("C10 teacher quality ordering", ok,
               f"high-budget {high:.2f}% vs low-budget {low:.2f}% on identical "
               f"eval seeds; high-quality floor >=85%: {floor_ok}; Q-net held-out "
               f"MSE below target variance: {fit_ok}")


@pytest.mark.slow
class TestSimulatorContracts:
    def test_c11_lane_change_and_episode_step_contracts(self):
        # simple lane change: exactly 2 decision steps
        world = spawn_scenario(SimConfig(fidelity=Fidelity.SIMPLE), 0)
        world.vehicles = [v for v in world.vehicles if v.is_ego]
        world.ego().speed = 20.0
        step(world, Action.LEFT_LANE_CHANGE)
        mid = world.ego().lane_change is not None
        step(world, Action.FOLLOW)
        simple_ok = mid and world.ego().lane_change is None and \
            world.ego().lane_index == 0 and world.ego().lateral_offset == 0.0

        # complex lane change: 10..20 decision steps across speeds
        rng = np.random.default_rng(0)
        counts = []
        for trial in range(100):
            world = spawn_scenario(SimConfig(fidelity=Fidelity.COMPLEX), trial)
            world.vehicles = [v for v in world.vehicles if v.is_ego]
            ego = world.ego()
            ego.speed = float(rng.uniform(10.0, 25.0))
            ego.lane_index = 1
            step(world, Action.LEFT_LANE_CHANGE if trial % 2 == 0
                 else Action.RIGHT_LANE_CHANGE)
            n = 1
            while world.ego().lane_change is not None:
                step(world, Action.FOLLOW)
                n += 1
            counts.append(n)
        complex_ok = min(counts) >= 10 and max(counts) <= 20

        # full-episode decision-step ranges under an always-Follow policy
        def episode_steps(fidelity, seed):
            world = spawn_scenario(SimConfig(fidelity=fidelity), seed)
            n = 0
            while True:
                _, ev = step(world, Action.FOLLOW)
                n += 1
                if ev.episode_done:
                    return n, ev.success

        simple_lengths = [episode_steps(Fidelity.SIMPLE, s) for s in range(5)]
        complex_lengths = [episode_steps(Fidelity.COMPLEX, s) for s in range(3)]
        episodes_ok = (all(ok and 80 <= n <= 150 for n, ok in simple_lengths)
                       and all(ok and 900 <= n <= 1600 for n, ok in complex_lengths))

        # spawn spacing intervals over 1000 draws per density
        spacing_ok = True
        for density, lo, hi in ((Density.HIGH, 20.0, 50.0),
                                (Density.MEDIUM, 50.0, 90.0),
                                (Density.LOW, 90.0, 120.0)):
            worlds = 1000 if density is Density.HIGH else 334
            for seed in range(worlds):
                world = spawn_scenario(SimConfig(density=density), seed)
                for lane in range(3):
                    xs = sorted(v.longitudinal_pos for v in world.vehicles
                                if not v.is_ego and v.lane_index == lane)
                    for a, b in zip(xs, xs[1:]):
                        spacing_ok = spacing_ok and lo <= b - a <= hi

        ok = simple_ok and complex_ok and episodes_ok and spacing_ok
        report("C11 simulator contracts", ok,
               f"simple LC 2 steps: {simple_ok}; complex LC range "
               f"[{min(counts)}, {max(counts)}]; episode ranges ok: {episodes_ok}; "
               f"spacing intervals ok: {spacing_ok}")


@pytest.mark.slow
class TestCommandDeterminism:
    def test_c12_every_command_byte_reproduces(self, tmp_path):
        teacher_cfg = tmp_path / "teacher.json"
        teacher_cfg.write_text(json.dumps({
            "sim": {"fidelity": "simple", "density": "medium"},
            "hyper": {"total_steps": 1200, "rollout_steps": 600,
                      "update_epochs": 2},
            "seeds": [1], "eval_episodes": 2, "quality": "high",
        }))
        student_cfg = tmp_path / "student.json"
        student_cfg.write_text(json.dumps({
            "sim": {"fidelity": "complex", "density": "medium",
                    "episode_length": 150},
            "hyper": {"total_steps": 1200, "rollout_steps": 600,
                      "update_epochs": 2},
            "s2cd": {}, "switch": {}, "seeds": [1], "eval_episodes": 1,
        }))
        eval_cfg = tmp_path / "eval.json"
        eval_cfg.write_text(json.dumps({
            "sim": {"fidelity": "simple", "density": "medium"},
            "seeds": [1], "eval_episodes": 2,
        }))
        theory_cfg = tmp_path / "theory.json"
        theory_cfg.write_text(json.dumps({
            "theory": {"instances": 20, "max_states": 8, "max_actions": 3,
                       "tolerance": 0.0, "seed": 1}}))

        outputs = {}
        for attempt in ("a", "b"):
            base = tmp_path / attempt
            assert main(["train-teacher", "--config", str(teacher_cfg),
                         "--out", str(base / "teacher")]) == 0
            assert main(["train-student", "--config", str(student_cfg),
                         "--bundle", str(base / "teacher" / "seed_1" / "bundle"),
                         "--out", str(base / "student")]) == 0
            assert main(["ablate", "--config", str(student_cfg),
                         "--bundle", str(base / "teacher" / "seed_1" / "bundle"),
                         "--out", str(base / "ablate"), "--ablate", "no-kl"]) == 0
            assert main(["evaluate", "--checkpoint",
                         str(base / "teacher" / "seed_1" / "bundle"),
                         "--config", str(eval_cfg),
                         "--out", str(base / "eval")]) == 0
            assert main(["theory", "--config", str(theory_cfg),
                         "--out", str(base / "theory")]) == 0
            outputs[attempt] = {
                str(p.relative_to(base)): p.read_bytes()
                for p in sorted(base.rglob("*")) if p.is_file()
            }
        same_names = set(outputs["a"]) == set(outputs["b"])
        diffs = [name for name in outputs["a"]
                 if outputs["a"][name] != outputs["b"].get(name)]
        ok = same_names and not diffs
        report("C12 command determinism", ok,
               f"{len(outputs['a'])} files compared, mismatches: {diffs[:5]}")
