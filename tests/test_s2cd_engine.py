import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from s2cd.highway_sim import Action, SimConfig, StepEvents
from s2cd.mdp_interface import HighwayEnv, RewardBreakdown
from s2cd.ppo_core import (
    HyperParams,
    RolloutBuffer,
    normalize_advantages,
    policy_entropy,
    ppo_loss,
    sample_action,
)
from s2cd.s2cd_engine import (
    CollectorState,
    CollectStats,
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
        assert switch_action(0.01, 0.0, tau=1.0, cfg=CFG) is True

    def test_tau_zero_full_tolerance(self):
        assert switch_action(0.3, 0.0, tau=0.0, cfg=CFG) is False

    def test_threshold_boundary(self):
        # tau = 0.5 gives threshold 0.25
        assert switch_action(0.2500001, 0.0, tau=0.5, cfg=CFG) is True
        assert switch_action(0.2499999, 0.0, tau=0.5, cfg=CFG) is False

    def test_equal_q_never_intervenes(self):
        assert switch_action(1.0, 1.0, tau=1.0, cfg=CFG) is False

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


def reference_kl(teacher_probs, student_probs):
    """The per-step KL(teacher || student) of one row, as collection computed
    it before the phase pass: a sum over the actions the teacher gives
    mass, with the student floored at 1e-12."""
    t = np.asarray(teacher_probs, dtype=np.float64)
    s = np.maximum(np.asarray(student_probs, dtype=np.float64), 1e-12)
    mask = t > 0.0
    return float(np.add.reduce(t[mask] * np.log(t[mask] / s[mask])))


def probability_rows(n, floors):
    """``n`` rows of three action probabilities, some entries moved onto one
    of ``floors`` (0 for a teacher that gives an action no mass, the
    softmax head's 1e-300 floor, the KL's 1e-12 student floor)."""
    def build(case):
        raw, picks = case
        p = np.asarray(raw) / np.sum(raw, axis=1, keepdims=True)
        for row, (col, floor) in enumerate(picks):
            p[row, col] = p[row, col] if floor is None else floor
        return p
    row = st.lists(st.floats(1e-6, 1.0), min_size=3, max_size=3)
    pick = st.tuples(st.integers(0, 2), st.sampled_from([None, *floors]))
    return st.tuples(st.lists(row, min_size=n, max_size=n),
                     st.lists(pick, min_size=n, max_size=n)).map(build)


class TestPhaseKlAndEntropy:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 40).flatmap(lambda n: st.tuples(
        probability_rows(n, [0.0, 1e-300]), probability_rows(n, [1e-12, 1e-300]))))
    def test_row_passes_match_the_per_step_loop(self, case):
        teacher, student = case
        kl, entropy = kl_penalty(teacher, student), policy_entropy(student)
        sums, step_sums = [0.0, 0.0], [0.0, 0.0]
        for t, p, kl_row, entropy_row in zip(teacher, student, kl.tolist(), entropy.tolist()):
            step_kl = reference_kl(t, p)
            step_entropy = float(-np.add.reduce(p * np.log(p)))
            assert (kl_row, entropy_row) == (step_kl, step_entropy)
            sums = [sums[0] + kl_row, sums[1] + entropy_row]
            step_sums = [step_sums[0] + step_kl, step_sums[1] + step_entropy]
        assert sums == step_sums


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
        assert loss_s == loss_p
        assert np.array_equal(stats_s["per_sample_surrogate"], stats_p["per_sample_surrogate"])
        assert np.array_equal(grads_s["actor"], grads_p["actor"])
        assert np.array_equal(grads_s["critic"], grads_p["critic"])

    def test_flags_off_reduces_to_ppo(self):
        batch, actor, critic = make_dual_batch(seed=3)
        hp = S2cdHyper(dual_source=False, adaptive_clip=False, kl_constraint=False,
                       intervention_decay=False)
        loss_s, grads_s, stats_s = s2cd_loss(batch, actor, critic, hp, tau=1.0)
        loss_p, grads_p, stats_p = ppo_loss(batch, actor, critic, hp)
        assert loss_s == loss_p
        assert np.array_equal(stats_s["per_sample_surrogate"], stats_p["per_sample_surrogate"])
        assert np.array_equal(grads_s["actor"], grads_p["actor"])
        assert np.array_equal(grads_s["critic"], grads_p["critic"])

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

    @pytest.mark.parametrize("seed", range(10))
    def test_loss_kl_is_the_logged_kl(self, seed):
        batch, actor, critic = make_dual_batch(seed=seed, all_executed=False)
        _, _, stats = ppo_loss(batch, actor, critic, S2cdHyper(), kl_weight=0.3)
        probs, _ = actor.forward(batch["obs"])
        kl = kl_penalty(batch["teacher_probs"], probs)[batch["executed"]]
        assert stats["mean_kl"] == float(kl.mean())

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
                            episode_done=done, success=done, ego_speed=20.0)
        return self.rng.uniform(0, 1, size=self.obs_dim), reward, events


def actor_preferring(action, obs_dim=14, seed=0):
    """A saturated actor: every other action has probability exp(-40),
    far below the 2**-53 step of the sampler's uniform draw, so sampling
    returns ``action`` unless that draw is exactly 0."""
    net = DenseNet.create(NetSpec(obs_dim, 3, head=Head.SOFTMAX_POLICY),
                          np.random.default_rng(seed))
    n_last = (64 + 1) * 3
    net.params[-n_last:] = 0.0
    net.params[-3 + action] = 40.0
    return net


def reference_collect_dual(env, actor, critic, hp, switch_cfg, rng, n_steps, state, buffer):
    """``collect_dual`` as it ran with every row's work done in its step: a
    critic forward, the log-softmax of the step's logits, the KL and the
    entropy, each summed as the step ends."""
    stats = CollectStats()
    tau_episode = decay_tau(state.episodes, switch_cfg, hp.intervention_decay)
    for _ in range(n_steps):
        if state.done:
            state.obs = env.reset()
            state.done = False
            tau_episode = decay_tau(state.episodes, switch_cfg, hp.intervention_decay)
        advice = env.last_advice
        obs = state.obs
        probs, cache = actor.forward(obs)
        log_probs = actor.policy_log_probs(cache)
        a_student = sample_action(probs, rng)
        intervened = switch_action(float(advice.q_pred[advice.action]),
                                   float(advice.q_pred[a_student]), tau_episode, switch_cfg)
        a_exec = advice.action if intervened else a_student
        eps_prime = adaptive_epsilon(float(probs[a_student]), float(probs[advice.action]),
                                     hp.psi)
        value, _ = critic.forward(obs)
        next_obs, reward, events = env.step(Action(a_exec))
        state.done = events.episode_done
        buffer.add(obs=obs, actions=a_exec, rewards=reward.total, dones=state.done,
                   executed=True, teacher_origin=intervened, eps_prime=eps_prime,
                   teacher_probs=advice.probs, values=value,
                   logprob_old=float(log_probs[a_exec]))
        if hp.dual_source and advice.action != a_exec:
            buffer.add(obs=obs, actions=advice.action, rewards=advice.r_pred,
                       dones=state.done, executed=False, teacher_origin=True,
                       eps_prime=eps_prime, teacher_probs=advice.probs, values=value,
                       logprob_old=float(log_probs[advice.action]))
            stats.synthetic_rows += 1
        stats.steps += 1
        stats.interventions += int(intervened)
        stats.kl_sum += reference_kl(advice.probs, probs)
        stats.entropy_sum += float(-np.add.reduce(probs * np.log(probs)))
        if state.done:
            state.episodes += 1
        state.obs = next_obs
    return stats


class TestCollectDual:
    @pytest.mark.parametrize("q_pred,teacher_probs,dual_source", [
        ([0.4, 0.0, 0.0], None, True), ([0.0, 0.0, 0.0], None, True),
        ([0.4, 0.0, 0.0], [1.0, 0.0, 0.0], True), ([0.4, 0.0, 0.0], None, False)])
    def test_matches_the_per_step_reference(self, q_pred, teacher_probs, dual_source):
        hp = S2cdHyper(dual_source=dual_source)
        runs = []
        for collect in (collect_dual, reference_collect_dual):
            env = FakeTeacherEnv(q_pred=q_pred, horizon=40)
            if teacher_probs is not None:
                env.last_advice = replace(env.last_advice, probs=np.array(teacher_probs))
            actor = DenseNet.create(NetSpec(14, 3, head=Head.SOFTMAX_POLICY),
                                    np.random.default_rng(3))
            actor.params *= 3.0  # trained-scale logits
            critic = DenseNet.create(NetSpec(14, 1, head=Head.SCALAR_VALUE),
                                     np.random.default_rng(1))
            rng = np.random.default_rng(2)
            buffer = RolloutBuffer()
            state = CollectorState(obs=env.reset())
            stats = collect(env, actor, critic, hp, CFG, rng, 150, state, buffer)
            runs.append((buffer.finalize(hp, 0.5), stats, state.episodes, rng.random()))
        (batch, *rest), (ref_batch, *ref_rest) = runs
        assert rest == ref_rest  # the stats, the episode count and the generator state
        assert batch.keys() == ref_batch.keys()
        for key in batch:
            assert batch[key].tobytes() == ref_batch[key].tobytes(), key

    def run_collect(self, env, actor, hp, steps=50):
        critic = DenseNet.create(NetSpec(14, 1, head=Head.SCALAR_VALUE),
                                 np.random.default_rng(1))
        rng = np.random.default_rng(2)
        buffer = RolloutBuffer()
        state = CollectorState(obs=env.reset())
        stats = collect_dual(env, actor, critic, hp, CFG, rng, steps, state, buffer)
        return buffer.finalize(hp, 0.0), stats

    def test_always_intervening_teacher_single_row_per_step(self):
        env = FakeTeacherEnv(q_pred=[10.0, 0.0, 0.0], teacher_action=0)
        actor = actor_preferring(2)
        batch, stats = self.run_collect(env, actor, S2cdHyper())
        assert stats.intervention_rate == 1.0
        # duplicate suppressed: one executed teacher row per step
        assert batch["teacher_origin"].tolist() == [True] * stats.steps
        assert batch["executed"].tolist() == [True] * stats.steps
        assert batch["actions"].tolist() == [0] * stats.steps

    def test_disagreeing_tolerated_teacher_two_rows_per_step(self):
        env = FakeTeacherEnv(q_pred=[0.0, 0.0, 0.0], teacher_action=0)
        actor = actor_preferring(2)
        batch, stats = self.run_collect(env, actor, S2cdHyper())
        assert stats.intervention_rate == 0.0
        assert stats.synthetic_rows == stats.steps
        # each executed student row is followed by the teacher's synthetic row
        assert batch["executed"].tolist() == [True, False] * stats.steps
        assert batch["teacher_origin"].tolist() == [False, True] * stats.steps
        assert batch["actions"].tolist() == [2, 0] * stats.steps
        synthetic = ~batch["executed"]
        assert np.all(batch["rewards"][synthetic] == 0.25)
        assert np.all(batch["teacher_probs"][:, 0] == 0.98)

    def test_dual_source_off_single_row(self):
        env = FakeTeacherEnv(q_pred=[0.0, 0.0, 0.0], teacher_action=0)
        actor = actor_preferring(2)
        batch, stats = self.run_collect(env, actor, S2cdHyper(dual_source=False))
        assert stats.synthetic_rows == 0
        assert batch["executed"].tolist() == [True] * stats.steps
        assert batch["teacher_origin"].tolist() == [False] * stats.steps

    def test_intervention_rate_is_exact_count(self):
        env = FakeTeacherEnv(q_pred=[0.4, 0.0, 0.0], teacher_action=0)
        actor = DenseNet.create(NetSpec(14, 3, head=Head.SOFTMAX_POLICY),
                                np.random.default_rng(3))
        batch, stats = self.run_collect(env, actor, S2cdHyper(), steps=200)
        n_teacher_exec = int((batch["teacher_origin"] & batch["executed"]).sum())
        assert 0 < n_teacher_exec < 200
        assert stats.interventions == n_teacher_exec
        assert stats.intervention_rate == pytest.approx(n_teacher_exec / 200.0)


class TestDualBuffer:
    def test_synthetic_advantage_is_td_with_predicted_reward(self):
        hp = S2cdHyper()
        buffer = RolloutBuffer()
        obs = np.zeros(14)
        probs = np.full(3, 1.0 / 3.0)
        # two executed steps with a synthetic alternative at step 0
        for action, reward, origin, value, done, executed in [
                (0, 1.0, False, 0.5, False, True),
                (1, 0.3, True, 0.5, False, False),
                (2, 0.0, False, 0.2, True, True)]:
            buffer.add(obs=obs, actions=action, logprob_old=-1.0, rewards=reward,
                       values=value, dones=done, executed=executed,
                       teacher_origin=origin, eps_prime=0.1, teacher_probs=probs)
        batch = buffer.finalize(hp, bootstrap_value=9.9)

        # raw (pre-normalization) oracle values
        gamma, lam = hp.gamma, hp.gae_lambda
        delta1 = 0.0 - 0.2
        delta0 = 1.0 + gamma * 0.2 - 0.5
        adv0 = delta0 + gamma * lam * delta1
        syn = 0.3 + gamma * 0.2 - 0.5
        raw = np.array([adv0, syn, delta1])
        expected = (raw - raw.mean()) / (raw.std() + 1e-8)
        assert np.allclose(batch["advantages"], expected, atol=1e-12)
        # the student's three columns ride along in row order
        assert batch["teacher_origin"].tolist() == [False, True, False]
        assert batch["eps_prime"].tolist() == [0.1] * 3
        assert batch["teacher_probs"].shape == (3, 3)


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
        env = TeacherAugmentedEnv(HighwayEnv(SimConfig(), master_seed=0),
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
            TeacherAugmentedEnv(HighwayEnv(SimConfig()), bad)


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
            env = HighwayEnv(SimConfig(), master_seed=31)
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
