import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from s2cd.highway_sim import SimConfig, StepEvents
from s2cd.mdp_interface import HighwayEnv, RewardBreakdown
from s2cd.ppo_core import EpisodeTracker, HyperParams, normalize_advantages, ppo_loss
from s2cd.s2cd_engine import (
    CollectorState,
    DualRolloutBuffer,
    DualTransition,
    Origin,
    S2cdHyper,
    SwitchConfig,
    TeacherAugmentedEnv,
    adaptive_epsilon,
    augment_observation,
    clip_bounds,
    collect_dual,
    decay_tau,
    kl_penalty,
    s2cd_loss,
    switch_action,
    train_s2cd,
)
from s2cd.teacher_suite import Advice, TeacherBundle
from s2cd.tensor_nn import DenseNet, Head, NetSpec


CFG = SwitchConfig()


class TestDecayTau:
    def test_sigmoid_midpoint(self):
        assert decay_tau(30, CFG) == pytest.approx(0.5, abs=1e-12)

    def test_initial_value(self):
        assert decay_tau(0, CFG) == pytest.approx(1.0 / (1.0 + math.exp(-10.0)), abs=1e-12)
        assert decay_tau(0, CFG) == pytest.approx(0.9999546, abs=1e-7)

    def test_tail_decays_below_1e30(self):
        assert 0.0 < decay_tau(300, CFG) < 1e-30

    def test_strictly_decreasing(self):
        taus = [decay_tau(n, CFG) for n in range(0, 200, 5)]
        assert all(a > b for a, b in zip(taus, taus[1:]))

    def test_disabled_is_constant_one(self):
        assert decay_tau(0, CFG, enabled=False) == 1.0
        assert decay_tau(10_000, CFG, enabled=False) == 1.0

    def test_always_in_open_unit_interval(self):
        for n in (0, 1, 30, 300, 10_000, 10_000_000):
            assert 0.0 < decay_tau(n, CFG) < 1.0

    def test_rejects_negative_episodes(self):
        with pytest.raises(ValueError):
            decay_tau(-1, CFG)


class TestSwitchAction:
    def test_tau_one_zero_threshold(self):
        origin, intervened = switch_action(0.01, 0.0, tau=1.0, cfg=CFG)
        assert intervened and origin is Origin.TEACHER

    def test_tau_zero_full_tolerance(self):
        origin, intervened = switch_action(0.3, 0.0, tau=0.0, cfg=CFG)
        assert not intervened and origin is Origin.STUDENT

    def test_threshold_boundary(self):
        # tau = 0.5 gives threshold 0.25
        _, hit = switch_action(0.2500001, 0.0, tau=0.5, cfg=CFG)
        _, miss = switch_action(0.2499999, 0.0, tau=0.5, cfg=CFG)
        assert hit and not miss

    def test_equal_q_never_intervenes(self):
        _, intervened = switch_action(1.0, 1.0, tau=1.0, cfg=CFG)
        assert not intervened

    @given(st.integers(min_value=0, max_value=400))
    @settings(max_examples=60, deadline=None)
    def test_threshold_monotone_in_episode_count(self, n):
        t1 = (1.0 - decay_tau(n, CFG)) * CFG.tolerance_eps
        t2 = (1.0 - decay_tau(n + 1, CFG)) * CFG.tolerance_eps
        assert t2 >= t1


class TestAdaptiveEpsilon:
    def test_symmetric_case(self):
        assert adaptive_epsilon(0.4, 0.4, psi=0.2) == pytest.approx(0.1, abs=1e-15)

    def test_extreme_disagreement(self):
        assert adaptive_epsilon(1.0, 0.0, psi=0.2) == pytest.approx(0.2, abs=1e-15)
        assert adaptive_epsilon(0.0, 1.0, psi=0.2) == pytest.approx(0.0, abs=1e-15)

    def test_scalar_example(self):
        assert adaptive_epsilon(0.2, 0.6, psi=0.2) == pytest.approx(0.06, abs=1e-15)

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    @settings(max_examples=300, deadline=None)
    def test_range_and_monotonicity(self, ps, pt):
        e = adaptive_epsilon(ps, pt, psi=0.2)
        assert 0.0 <= e <= 0.2
        assert adaptive_epsilon(min(ps + 0.01, 1.0), pt, 0.2) >= e - 1e-15


class TestKlPenalty:
    def test_identical_distributions(self):
        p = np.array([0.2, 0.5, 0.3])
        assert kl_penalty(p, p) == pytest.approx(0.0, abs=1e-12)

    def test_onehot_vs_uniform(self):
        kl = kl_penalty(np.array([1.0, 0.0, 0.0]), np.full(3, 1.0 / 3.0))
        assert kl == pytest.approx(math.log(3.0), abs=1e-12)

    def test_nonnegative_over_random_pairs(self):
        rng = np.random.default_rng(0)
        for _ in range(10_000):
            t = rng.dirichlet(np.ones(3))
            s = rng.dirichlet(np.ones(3))
            assert kl_penalty(t, s) >= -1e-15

    def test_zero_student_mass_stays_finite(self):
        kl = kl_penalty(np.array([0.5, 0.5, 0.0]), np.array([1.0, 0.0, 0.0]))
        assert np.isfinite(kl) and kl > 0


class TestAugmentObservation:
    def test_one_hot_layout(self):
        aug = augment_observation(np.arange(11.0), 2)
        assert aug.shape == (14,)
        assert np.array_equal(aug[:11], np.arange(11.0))
        assert np.array_equal(aug[11:], [0.0, 0.0, 1.0])
        assert aug[11:].sum() == 1.0


def make_dual_batch(seed=0, n=40, obs_dim=14, all_executed=True, tau_for_eps=None):
    rng = np.random.default_rng(seed)
    actor = DenseNet.create(NetSpec(obs_dim, 3, hidden=(16, 16), head=Head.SOFTMAX_POLICY), rng)
    critic = DenseNet.create(NetSpec(obs_dim, 1, hidden=(16, 16), head=Head.SCALAR_VALUE), rng)
    obs = rng.uniform(0, 1, size=(n, obs_dim))
    actions = rng.integers(0, 3, size=n)
    perturbed = actor.copy()
    perturbed.params = perturbed.params + rng.normal(0, 0.05, size=perturbed.params.shape)
    _, cache = perturbed.forward(obs)
    lp_old = perturbed.policy_log_probs(cache)[np.arange(n), actions]
    teacher_probs = rng.dirichlet(np.ones(3), size=n)
    batch = {
        "obs": obs,
        "actions": actions,
        "logprob_old": lp_old,
        "advantages": normalize_advantages(rng.uniform(-1, 1, size=n)),
        "returns": rng.uniform(-1, 1, size=n),
        "teacher_origin": rng.uniform(size=n) < 0.5,
        "eps_prime": rng.uniform(0.0, 0.2, size=n),
        "teacher_probs": teacher_probs,
        "executed": np.ones(n, dtype=bool) if all_executed
                    else rng.uniform(size=n) < 0.7,
    }
    return batch, actor, critic


class TestS2cdLoss:
    def test_clip_interval_values(self):
        lo, hi = clip_bounds(np.array([True, False]), eps=0.2,
                             tau_eps_prime=np.array([0.1, 0.1]))
        assert lo[0] == pytest.approx(0.9) and hi[0] == pytest.approx(1.3)
        assert lo[1] == pytest.approx(0.7) and hi[1] == pytest.approx(1.1)

    def test_teacher_interval_is_student_interval_shifted_up(self):
        # both intervals have width 2*eps; the teacher-origin one sits
        # exactly 2*tau*eps' above the student-origin one
        rng = np.random.default_rng(1)
        te = rng.uniform(0.0, 0.2, size=1000) * rng.uniform(0.0, 1.0, size=1000)
        lo_t, hi_t = clip_bounds(np.ones(1000, dtype=bool), 0.2, te)
        lo_s, hi_s = clip_bounds(np.zeros(1000, dtype=bool), 0.2, te)
        assert np.allclose(hi_t - hi_s, 2.0 * te, atol=1e-15)
        assert np.allclose(lo_t - lo_s, 2.0 * te, atol=1e-15)
        assert np.all(hi_t >= hi_s)
        assert np.all(hi_s >= 1.0)   # student upper bound never degenerates
        assert np.all(lo_t <= 1.0)   # teacher lower bound stays below 1

    def test_tau_zero_reduces_to_ppo(self):
        batch, actor, critic = make_dual_batch(seed=2)
        hp = S2cdHyper()
        loss_s, grads_s, stats_s = s2cd_loss(batch, actor, critic, hp, tau=0.0)
        loss_p, grads_p, stats_p = ppo_loss(batch, actor, critic, hp)
        assert loss_s == pytest.approx(loss_p, abs=1e-12)
        assert np.allclose(stats_s["per_sample_surrogate"],
                           stats_p["per_sample_surrogate"], atol=1e-12)
        assert np.allclose(grads_s["actor"], grads_p["actor"], atol=1e-12)
        assert np.allclose(grads_s["critic"], grads_p["critic"], atol=1e-12)

    def test_flags_off_reduces_to_ppo(self):
        batch, actor, critic = make_dual_batch(seed=3)
        hp = S2cdHyper(dual_source=False, adaptive_clip=False, kl_constraint=False,
                       intervention_decay=False)
        loss_s, grads_s, stats_s = s2cd_loss(batch, actor, critic, hp, tau=1.0)
        loss_p, grads_p, stats_p = ppo_loss(batch, actor, critic, hp)
        assert loss_s == pytest.approx(loss_p, abs=1e-12)
        assert np.allclose(stats_s["per_sample_surrogate"],
                           stats_p["per_sample_surrogate"], atol=1e-12)
        assert np.allclose(grads_s["actor"], grads_p["actor"], atol=1e-12)

    def test_teacher_rows_permit_larger_positive_updates(self):
        # identical sample duplicated under both origins: the teacher copy's
        # wider upper bound admits gradient at a ratio where the student copy
        # is already clipped
        rng = np.random.default_rng(4)
        actor = DenseNet.create(NetSpec(5, 3, hidden=(8,), head=Head.SOFTMAX_POLICY), rng)
        critic = DenseNet.create(NetSpec(5, 1, hidden=(8,), head=Head.SCALAR_VALUE), rng)
        obs = rng.uniform(size=(1, 5))
        _, cache = actor.forward(obs)
        lp = actor.policy_log_probs(cache)[0]

        def one_sample(origin_teacher):
            return {
                "obs": obs,
                "actions": np.array([1]),
                "logprob_old": np.array([lp[1] - math.log(1.25)]),  # ratio 1.25
                "advantages": np.array([1.0]),
                "returns": np.array([0.0]),
                "teacher_origin": np.array([origin_teacher]),
                "eps_prime": np.array([0.1]),
                "teacher_probs": np.array([[1.0, 0.0, 0.0]]),
                "executed": np.array([True]),
            }

        hp = S2cdHyper(entropy_beta=0.0, value_coef=0.0, kl_constraint=False)
        _, g_teacher, s_teacher = s2cd_loss(one_sample(True), actor, critic, hp, tau=1.0)
        _, g_student, s_student = s2cd_loss(one_sample(False), actor, critic, hp, tau=1.0)
        # student copy: ratio 1.25 > 1.1 upper bound -> clipped, zero grad
        assert np.allclose(g_student["actor"], 0.0, atol=1e-15)
        assert np.linalg.norm(g_teacher["actor"]) > 1e-4
        assert s_teacher["per_sample_surrogate"][0] == pytest.approx(1.25, abs=1e-12)
        assert s_student["per_sample_surrogate"][0] == pytest.approx(1.1, abs=1e-12)

    def test_kl_term_pulls_student_toward_teacher(self):
        batch, actor, critic = make_dual_batch(seed=5)
        hp_on = S2cdHyper(xi=0.5)
        hp_off = S2cdHyper(kl_constraint=False)
        loss_on, _, stats_on = s2cd_loss(batch, actor, critic, hp_on, tau=1.0)
        loss_off, _, _ = s2cd_loss(batch, actor, critic, hp_off, tau=1.0)
        assert loss_on == pytest.approx(loss_off + 0.5 * stats_on["mean_kl"], abs=1e-12)
        assert stats_on["mean_kl"] >= 0.0

    @pytest.mark.parametrize("flags", [
        dict(),
        dict(adaptive_clip=False),
        dict(kl_constraint=False),
        dict(adaptive_clip=False, kl_constraint=False),
    ])
    def test_gradients_match_finite_differences(self, flags):
        batch, actor, critic = make_dual_batch(seed=6, all_executed=False)
        hp = S2cdHyper(**flags)
        tau = 0.7
        _, grads, _ = s2cd_loss(batch, actor, critic, hp, tau)
        rng = np.random.default_rng(7)
        h = 1e-6
        for net, key in ((actor, "actor"), (critic, "critic")):
            idx = rng.choice(net.spec.n_params, size=100, replace=False)
            for i in idx:
                saved = net.params[i]
                net.params[i] = saved + h
                up, _, _ = s2cd_loss(batch, actor, critic, hp, tau)
                net.params[i] = saved - h
                down, _, _ = s2cd_loss(batch, actor, critic, hp, tau)
                net.params[i] = saved
                fd = (up - down) / (2 * h)
                scale = max(abs(fd), 1e-3)
                assert abs(grads[key][i] - fd) / scale < 1e-6

    def test_degenerate_interval_guard(self):
        batch, actor, critic = make_dual_batch(seed=8)
        batch["eps_prime"] = np.full(len(batch["actions"]), 0.3)  # above clip_eps
        with pytest.raises(ValueError):
            s2cd_loss(batch, actor, critic, S2cdHyper(), tau=1.0)


class FakeTeacherEnv:
    """Deterministic stand-in for TeacherAugmentedEnv with scripted advice."""

    obs_dim = 14
    n_actions = 3

    def __init__(self, q_pred, teacher_action=0, horizon=25, seed=0):
        self.rng = np.random.default_rng(seed)
        self.horizon = horizon
        self.t = 0
        probs = np.full(3, 0.01)
        probs[teacher_action] = 0.98
        self.last_advice = Advice(action=teacher_action, probs=probs,
                                  r_pred=0.25, q_pred=np.asarray(q_pred, dtype=float))

    def reset(self):
        self.t = 0
        return self.rng.uniform(0, 1, size=self.obs_dim)

    def step(self, action):
        self.t += 1
        done = self.t >= self.horizon
        reward = RewardBreakdown(efficiency=0.1, cost=0.0)
        events = StepEvents(collision=False, min_gap_front=50.0, min_gap_rear=50.0,
                            episode_done=done, success=done)
        return self.rng.uniform(0, 1, size=self.obs_dim), reward, events

    def ego_speed(self):
        return 20.0


def actor_preferring(action, obs_dim=14, seed=0):
    net = DenseNet.create(NetSpec(obs_dim, 3, head=Head.SOFTMAX_POLICY),
                          np.random.default_rng(seed))
    n_last = (64 + 1) * 3
    net.params[-n_last:] = 0.0
    net.params[-3 + action] = 8.0
    return net


class TestCollectDual:
    def run_collect(self, env, actor, hp, steps=50):
        critic = DenseNet.create(NetSpec(14, 1, head=Head.SCALAR_VALUE),
                                 np.random.default_rng(1))
        rng = np.random.default_rng(2)
        buffer = DualRolloutBuffer()
        state = CollectorState(obs=env.reset())
        stats = collect_dual(env, actor, critic, hp, CFG, rng, steps, state, buffer)
        return buffer, stats

    def test_always_intervening_teacher_single_row_per_step(self):
        env = FakeTeacherEnv(q_pred=[10.0, 0.0, 0.0], teacher_action=0)
        actor = actor_preferring(2)
        hp = S2cdHyper(sample_actions=False)
        buffer, stats = self.run_collect(env, actor, hp)
        assert stats.intervention_rate == 1.0
        assert len(buffer) == stats.steps  # duplicate suppressed
        assert all(r.origin is Origin.TEACHER for r in buffer.rows)
        assert all(r.executed for r in buffer.rows)

    def test_disagreeing_tolerated_teacher_two_rows_per_step(self):
        env = FakeTeacherEnv(q_pred=[0.0, 0.0, 0.0], teacher_action=0)
        actor = actor_preferring(2)
        hp = S2cdHyper(sample_actions=False)
        buffer, stats = self.run_collect(env, actor, hp)
        assert stats.intervention_rate == 0.0
        assert len(buffer) == 2 * stats.steps
        synthetic = [r for r in buffer.rows if not r.executed]
        assert len(synthetic) == stats.steps
        assert all(r.origin is Origin.TEACHER for r in synthetic)
        assert all(r.reward == pytest.approx(0.25) for r in synthetic)

    def test_dual_source_off_single_row(self):
        env = FakeTeacherEnv(q_pred=[0.0, 0.0, 0.0], teacher_action=0)
        actor = actor_preferring(2)
        hp = S2cdHyper(sample_actions=False, dual_source=False)
        buffer, stats = self.run_collect(env, actor, hp)
        assert len(buffer) == stats.steps
        assert all(r.origin is Origin.STUDENT for r in buffer.rows)

    def test_intervention_rate_is_exact_count(self):
        env = FakeTeacherEnv(q_pred=[0.4, 0.0, 0.0], teacher_action=0)
        actor = DenseNet.create(NetSpec(14, 3, head=Head.SOFTMAX_POLICY),
                                np.random.default_rng(3))
        hp = S2cdHyper()
        buffer, stats = self.run_collect(env, actor, hp, steps=200)
        executed = [r for r in buffer.rows if r.executed]
        n_teacher_exec = sum(r.origin is Origin.TEACHER for r in executed)
        assert stats.interventions == n_teacher_exec
        assert stats.intervention_rate == pytest.approx(n_teacher_exec / 200.0)


class TestDualBuffer:
    def test_synthetic_advantage_is_td_with_predicted_reward(self):
        hp = S2cdHyper()
        buffer = DualRolloutBuffer()
        obs = np.zeros(14)
        probs = np.full(3, 1.0 / 3.0)
        # two executed steps with a synthetic alternative at step 0
        buffer.add(DualTransition(obs=obs, action=0, reward=1.0, origin=Origin.STUDENT,
                                  teacher_probs=probs, logprob_old=-1.0, eps_prime=0.1,
                                  value=0.5, done=False, executed=True))
        buffer.add(DualTransition(obs=obs, action=1, reward=0.3, origin=Origin.TEACHER,
                                  teacher_probs=probs, logprob_old=-1.0, eps_prime=0.1,
                                  value=0.5, done=False, executed=False))
        buffer.add(DualTransition(obs=obs, action=2, reward=0.0, origin=Origin.STUDENT,
                                  teacher_probs=probs, logprob_old=-1.0, eps_prime=0.1,
                                  value=0.2, done=True, executed=True))
        buffer.finalize(hp, bootstrap_value=9.9)

        # raw (pre-normalization) oracle values
        gamma, lam = hp.gamma, hp.gae_lambda
        delta1 = 0.0 - 0.2
        delta0 = 1.0 + gamma * 0.2 - 0.5
        adv0 = delta0 + gamma * lam * delta1
        syn = 0.3 + gamma * 0.2 - 0.5
        raw = np.array([adv0, syn, delta1])
        expected = (raw - raw.mean()) / (raw.std() + 1e-8)
        assert np.allclose(buffer.advantages, expected, atol=1e-12)


class TestTeacherAugmentedEnv:
    def make_bundle(self, seed=0):
        rng = np.random.default_rng(seed)
        return TeacherBundle(
            actor=DenseNet.create(NetSpec(11, 3, head=Head.SOFTMAX_POLICY), rng),
            critic=DenseNet.create(NetSpec(11, 1, head=Head.SCALAR_VALUE), rng),
            return_net=DenseNet.create(NetSpec(11, 3, head=Head.VECTOR_VALUE), rng),
            qvalue_net=DenseNet.create(NetSpec(11, 3, head=Head.VECTOR_VALUE), rng),
            quality_tag="high",
        )

    def test_augmented_dim_and_onehot(self):
        env = TeacherAugmentedEnv(HighwayEnv(SimConfig(seed=0), master_seed=0),
                                  self.make_bundle())
        obs = env.reset()
        assert obs.shape == (14,)
        assert obs[11:].sum() == pytest.approx(1.0)
        assert env.last_advice is not None
        assert obs[11 + env.last_advice.action] == 1.0

    def test_dimension_mismatch_rejected(self):
        rng = np.random.default_rng(1)
        bad = TeacherBundle(
            actor=DenseNet.create(NetSpec(14, 3, head=Head.SOFTMAX_POLICY), rng),
            critic=DenseNet.create(NetSpec(14, 1, head=Head.SCALAR_VALUE), rng),
            return_net=DenseNet.create(NetSpec(14, 3, head=Head.VECTOR_VALUE), rng),
            qvalue_net=DenseNet.create(NetSpec(14, 3, head=Head.VECTOR_VALUE), rng),
            quality_tag="high",
        )
        with pytest.raises(ValueError):
            TeacherAugmentedEnv(HighwayEnv(SimConfig(seed=0)), bad)


class TestTrainS2cd:
    @pytest.mark.slow
    def test_micro_run_deterministic_tau_decreasing_bundle_frozen(self):
        bundle_holder = {}

        def run():
            rng = np.random.default_rng(0)
            bundle = TeacherBundle(
                actor=DenseNet.create(NetSpec(11, 3, head=Head.SOFTMAX_POLICY), rng),
                critic=DenseNet.create(NetSpec(11, 1, head=Head.SCALAR_VALUE), rng),
                return_net=DenseNet.create(NetSpec(11, 3, head=Head.VECTOR_VALUE), rng),
                qvalue_net=DenseNet.create(NetSpec(11, 3, head=Head.VECTOR_VALUE), rng),
                quality_tag="high",
            )
            bundle_holder["checksum"] = bundle.checksum()
            env = HighwayEnv(SimConfig(seed=0), master_seed=31)
            hp = S2cdHyper(rollout_steps=400, total_steps=1200, minibatch=64,
                           update_epochs=2)
            result = train_s2cd(env, bundle, hp, CFG, seed=31)
            assert bundle.checksum() == bundle_holder["checksum"]
            return [m.row() for m in result.metrics]

        m1 = run()
        m2 = run()
        assert m1 == m2
        taus = [row["tau"] for row in m1]
        assert all(a > b for a, b in zip(taus, taus[1:]))
