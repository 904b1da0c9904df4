import math

import numpy as np
import pytest

from s2cd.highway_sim import SimConfig, StepEvents
from s2cd.mdp_interface import HighwayEnv, RewardBreakdown
from s2cd.ppo_core import (
    HyperParams,
    RolloutBuffer,
    Transition,
    TrainingAborted,
    compute_gae,
    evaluate_actor,
    normalize_advantages,
    ppo_loss,
    sample_action,
    train_ppo,
)
from s2cd.tensor_nn import DenseNet, Head, NetSpec


def gae_oracle(rewards, values, dones, gamma, lam, bootstrap):
    """Brute-force double-loop sum of discounted TD residuals."""
    n = len(rewards)
    adv = np.zeros(n)
    for t in range(n):
        acc = 0.0
        discount = 1.0
        for k in range(t, n):
            next_v = bootstrap if k == n - 1 else values[k + 1]
            nonterm = 0.0 if dones[k] else 1.0
            delta = rewards[k] + gamma * next_v * nonterm - values[k]
            acc += discount * delta
            if dones[k]:
                break
            discount *= gamma * lam
        adv[t] = acc
    return adv


def manual_log_probs(net, x):
    """Independent forward + log-softmax chain (no engine code)."""
    h = np.asarray(x, dtype=np.float64)
    offset = 0
    dims = net.spec.dims
    for layer, (fi, fo) in enumerate(zip(dims, dims[1:])):
        w = net.params[offset: offset + fi * fo].reshape(fi, fo)
        b = net.params[offset + fi * fo: offset + (fi + 1) * fo]
        offset += (fi + 1) * fo
        z = h @ w + b
        h = np.tanh(z) if layer < len(dims) - 2 else z
    out = []
    for row in h:
        m = max(row)
        lse = m + math.log(sum(math.exp(v - m) for v in row))
        out.append([v - lse for v in row])
    return np.array(out)


def choice_reference(probs, rng):
    """sample_action as written before it ran the code of rng.choice itself."""
    return int(rng.choice(len(probs), p=probs / probs.sum()))


def random_distributions(n, seed):
    """Dirichlet draws from flat to spiky, some entries set to the 1e-300
    floor of the softmax, each row scaled so normalisation matters."""
    rng = np.random.default_rng(seed)
    alpha = rng.choice([0.05, 0.3, 1.0, 5.0], size=(n, 1))
    probs = rng.gamma(np.broadcast_to(alpha, (n, 3)))
    probs /= probs.sum(axis=1, keepdims=True)
    floored = rng.uniform(size=(n, 3)) < 0.1
    probs[floored] = 1e-300
    probs[floored.all(axis=1), 0] = 1.0
    return probs * 10.0 ** rng.uniform(-3, 3, size=(n, 1))


class TestSampleAction:
    def test_matches_rng_choice_draws_and_generator_state(self):
        probs = random_distributions(100_000, seed=21)
        assert (probs < 1e-290).any()
        ours, theirs = np.random.default_rng(5), np.random.default_rng(5)
        mismatches = sum(sample_action(p, ours) != choice_reference(p, theirs)
                         for p in probs)
        assert mismatches == 0
        assert ours.bit_generator.state == theirs.bit_generator.state

    @pytest.mark.parametrize("probs", [
        [np.nan, 0.5, 0.5], [0.0, 0.0, 0.0], [0.5, -0.1, 0.6], [1.0, -1.0, 1.0],
        [np.inf, 1.0, 1.0], [1e308, 1e308, -1e308],
    ], ids=["nan", "all_zero", "negative", "negative_sum_one", "inf", "overflow_sum"])
    def test_rejects_what_rng_choice_rejects(self, probs):
        probs = np.array(probs)
        with np.errstate(all="ignore"):
            with pytest.raises(ValueError):
                choice_reference(probs, np.random.default_rng(0))
            with pytest.raises(ValueError):
                sample_action(probs, np.random.default_rng(0))


class RandomObsEnv:
    """Tiny deterministic env: random observations, configurable reward."""

    obs_dim = 4
    n_actions = 3

    def __init__(self, seed=0, reward_fn=None, horizon=25):
        self.rng = np.random.default_rng(seed)
        self.reward_fn = reward_fn or (lambda a: 0.0)
        self.horizon = horizon
        self.t = 0

    def reset(self):
        self.t = 0
        return self.rng.uniform(0, 1, size=self.obs_dim)

    def step(self, action):
        self.t += 1
        done = self.t >= self.horizon
        r = self.reward_fn(int(action))
        reward = RewardBreakdown(efficiency=max(r, 0.0), cost=max(-r, 0.0))
        events = StepEvents(collision=False, min_gap_front=50.0, min_gap_rear=50.0,
                            episode_done=done, success=done)
        return self.rng.uniform(0, 1, size=self.obs_dim), reward, events

    def ego_speed(self):
        return 0.0


class TestComputeGae:
    def test_lambda_zero_is_td_residual(self):
        rng = np.random.default_rng(0)
        r = rng.uniform(-1, 1, 12)
        v = rng.uniform(-1, 1, 12)
        d = np.zeros(12, dtype=bool)
        adv, _ = compute_gae(r, v, d, 0.96, 0.0, bootstrap_value=0.3)
        expected = r + 0.96 * np.append(v[1:], 0.3) - v
        assert np.allclose(adv, expected, atol=1e-12)

    def test_single_terminal_step(self):
        adv, ret = compute_gae(np.array([1.0]), np.array([0.0]),
                               np.array([True]), 0.96, 0.98, bootstrap_value=5.0)
        assert adv[0] == pytest.approx(1.0)
        assert ret[0] == pytest.approx(1.0)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(5)
        for trial in range(30):
            n = int(rng.integers(2, 33))
            r = rng.uniform(-2, 2, n)
            v = rng.uniform(-2, 2, n)
            d = rng.uniform(size=n) < 0.15
            boot = float(rng.uniform(-2, 2))
            gamma = float(rng.uniform(0.9, 0.99))
            lam = float(rng.uniform(0.9, 1.0))
            adv, ret = compute_gae(r, v, d, gamma, lam, boot)
            oracle = gae_oracle(r, v, d, gamma, lam, boot)
            assert np.allclose(adv, oracle, atol=1e-12)
            assert np.allclose(ret, adv + v, atol=1e-12)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            compute_gae(np.zeros(3), np.zeros(4), np.zeros(3, dtype=bool), 0.9, 0.9, 0.0)


def finalize_reference(rows, hp, bootstrap_value):
    """Row-by-row advantages and returns as the separate S2CD buffer
    computed them: GAE over the executed rows, a one-step TD residual for
    each synthetic row at the executed row before it."""
    executed = [r for r in rows if r.executed]
    rewards = np.array([r.reward for r in executed])
    values = np.array([r.value for r in executed])
    dones = np.array([r.done for r in executed], dtype=bool)
    adv_exec, ret_exec = compute_gae(rewards, values, dones, hp.gamma, hp.gae_lambda,
                                     bootstrap_value)
    next_values = np.append(values[1:], bootstrap_value)
    adv = np.zeros(len(rows))
    ret = np.zeros(len(rows))
    i = -1
    for j, row in enumerate(rows):
        if row.executed:
            i += 1
            adv[j] = adv_exec[i]
            ret[j] = ret_exec[i]
        else:
            nonterminal = 0.0 if dones[i] else 1.0
            td = row.reward + hp.gamma * next_values[i] * nonterminal - values[i]
            adv[j] = td
            ret[j] = td + values[i]
    return normalize_advantages(adv), ret


class TestRolloutBuffer:
    def test_finalize_bits_match_row_by_row_reference(self):
        hp = HyperParams()
        rng = np.random.default_rng(5)
        for trial in range(300):
            buffer = RolloutBuffer()
            for _ in range(int(rng.integers(1, 40))):
                value, done = float(rng.normal()), bool(rng.random() < 0.1)
                buffer.add(Transition(obs=np.zeros(2), action=0, logprob_old=0.0,
                                      reward=float(rng.normal()), value=value, done=done))
                if trial % 2 and rng.random() < 0.5:
                    buffer.add(Transition(obs=np.zeros(2), action=1, logprob_old=0.0,
                                          reward=float(rng.normal()), value=value,
                                          done=done, executed=False))
            bootstrap = float(rng.normal())
            buffer.finalize(hp, bootstrap)
            adv, ret = finalize_reference(buffer.rows, hp, bootstrap)
            assert buffer.advantages.tobytes() == adv.tobytes()
            assert buffer.returns.tobytes() == ret.tobytes()
            if trial % 2 == 0:  # executed rows only: plain PPO's GAE targets
                rows = buffer.rows
                gae_adv, gae_ret = compute_gae(
                    np.array([r.reward for r in rows]), np.array([r.value for r in rows]),
                    np.array([r.done for r in rows]), hp.gamma, hp.gae_lambda, bootstrap)
                assert buffer.advantages.tobytes() == normalize_advantages(gae_adv).tobytes()
                assert buffer.returns.tobytes() == gae_ret.tobytes()


def make_batch(seed=0, n=48, obs_dim=6):
    rng = np.random.default_rng(seed)
    actor = DenseNet.create(NetSpec(obs_dim, 3, hidden=(16, 16), head=Head.SOFTMAX_POLICY), rng)
    critic = DenseNet.create(NetSpec(obs_dim, 1, hidden=(16, 16), head=Head.SCALAR_VALUE), rng)
    obs = rng.uniform(0, 1, size=(n, obs_dim))
    actions = rng.integers(0, 3, size=n)
    adv = normalize_advantages(rng.uniform(-1, 1, size=n))
    # old log-probs from a slightly perturbed policy so ratios spread out
    perturbed = actor.copy()
    perturbed.params = perturbed.params + rng.normal(0, 0.05, size=perturbed.params.shape)
    _, cache = perturbed.forward(obs)
    lp_old = perturbed.policy_log_probs(cache)[np.arange(n), actions]
    batch = {
        "obs": obs,
        "actions": actions,
        "logprob_old": lp_old,
        "advantages": adv,
        "returns": rng.uniform(-1, 1, size=n),
    }
    return batch, actor, critic


class TestPpoLoss:
    def test_identity_policy_surrogate_is_mean_advantage(self):
        batch, actor, critic = make_batch(seed=1)
        n = len(batch["actions"])
        _, cache = actor.forward(batch["obs"])
        batch["logprob_old"] = actor.policy_log_probs(cache)[np.arange(n), batch["actions"]]
        _, _, stats = ppo_loss(batch, actor, critic, HyperParams())
        assert stats["per_sample_surrogate"].mean() == pytest.approx(
            batch["advantages"].mean(), abs=1e-12)
        assert abs(stats["per_sample_surrogate"].mean()) < 1e-12  # normalized batch

    def test_matches_independent_scalar_oracle(self):
        batch, actor, critic = make_batch(seed=2)
        hp = HyperParams()
        _, _, stats = ppo_loss(batch, actor, critic, hp)
        lp = manual_log_probs(actor, batch["obs"])
        total = 0.0
        for i, a in enumerate(batch["actions"]):
            r = math.exp(lp[i][a] - batch["logprob_old"][i])
            clipped = min(max(r, 1 - hp.clip_eps), 1 + hp.clip_eps)
            adv = batch["advantages"][i]
            total += min(r * adv, clipped * adv)
            assert stats["per_sample_surrogate"][i] == pytest.approx(
                min(r * adv, clipped * adv), abs=1e-12)
        assert stats["per_sample_surrogate"].mean() == pytest.approx(total / len(lp), abs=1e-12)

    def test_interior_ratio_equals_unclipped_term(self):
        batch, actor, critic = make_batch(seed=7)
        hp = HyperParams()
        _, _, stats = ppo_loss(batch, actor, critic, hp)
        lp = manual_log_probs(actor, batch["obs"])
        n = len(batch["actions"])
        ratios = np.exp(lp[np.arange(n), batch["actions"]] - batch["logprob_old"])
        interior = (ratios > 1 - hp.clip_eps) & (ratios < 1 + hp.clip_eps)
        assert interior.any()
        assert np.allclose(stats["per_sample_surrogate"][interior],
                           (ratios * batch["advantages"])[interior], atol=1e-12)

    def test_saturated_clip_kills_gradient(self):
        # single sample, positive advantage, ratio pushed to 1.5
        rng = np.random.default_rng(3)
        actor = DenseNet.create(NetSpec(3, 3, hidden=(8,), head=Head.SOFTMAX_POLICY), rng)
        critic = DenseNet.create(NetSpec(3, 1, hidden=(8,), head=Head.SCALAR_VALUE), rng)
        obs = rng.uniform(size=(1, 3))
        probs, cache = actor.forward(obs)
        lp = actor.policy_log_probs(cache)[0]
        batch = {
            "obs": obs,
            "actions": np.array([0]),
            "logprob_old": np.array([lp[0] - math.log(1.5)]),  # ratio = 1.5
            "advantages": np.array([1.0]),
            "returns": np.array([0.0]),
        }
        hp = HyperParams(entropy_beta=0.0, value_coef=0.0)
        loss, grads, stats = ppo_loss(batch, actor, critic, hp)
        assert loss == pytest.approx(-1.2, abs=1e-12)  # clipped at 1.2 * A
        assert np.allclose(grads["actor"], 0.0, atol=1e-15)

    def test_gradients_match_finite_differences(self):
        batch, actor, critic = make_batch(seed=4)
        hp = HyperParams()
        loss, grads, stats = ppo_loss(batch, actor, critic, hp)
        # keep the check away from clip kinks
        lp = manual_log_probs(actor, batch["obs"])
        ratios = np.exp(lp[np.arange(len(batch["actions"])), batch["actions"]]
                        - batch["logprob_old"])
        margin = np.minimum(np.abs(ratios - (1 - hp.clip_eps)),
                            np.abs(ratios - (1 + hp.clip_eps))).min()
        assert margin > 1e-4, "batch too close to a clip kink for finite differences"

        rng = np.random.default_rng(11)
        h = 1e-6
        for net, key in ((actor, "actor"), (critic, "critic")):
            idx = rng.choice(net.spec.n_params, size=120, replace=False)
            for i in idx:
                saved = net.params[i]
                net.params[i] = saved + h
                up, _, _ = ppo_loss(batch, actor, critic, hp)
                net.params[i] = saved - h
                down, _, _ = ppo_loss(batch, actor, critic, hp)
                net.params[i] = saved
                fd = (up - down) / (2 * h)
                scale = max(abs(fd), 1e-3)
                assert abs(grads[key][i] - fd) / scale < 1e-6


class TestTrainPpo:
    def test_same_seed_identical_metrics(self):
        def run():
            env = RandomObsEnv(seed=3, reward_fn=lambda a: 0.1 if a == 1 else -0.1)
            hp = HyperParams(rollout_steps=200, total_steps=400, minibatch=32,
                             update_epochs=2)
            return train_ppo(env, hp, seed=5)

        m1 = [m.row() for m in run().metrics]
        m2 = [m.row() for m in run().metrics]
        assert m1 == m2

    def test_constant_reward_keeps_entropy_near_uniform(self):
        env = RandomObsEnv(seed=1, reward_fn=lambda a: 0.0)
        hp = HyperParams(rollout_steps=200, total_steps=600, minibatch=32,
                         update_epochs=2)
        result = train_ppo(env, hp, seed=2)
        assert result.metrics[-1].entropy > 0.95 * math.log(3)

    def test_learns_rewarded_action(self):
        env = RandomObsEnv(seed=0, reward_fn=lambda a: 1.0 if a == 2 else 0.0)
        hp = HyperParams(rollout_steps=250, total_steps=2500, minibatch=32,
                         update_epochs=4)
        result = train_ppo(env, hp, seed=0)
        probs, _ = result.actor.forward(np.full(4, 0.5))
        assert int(np.argmax(probs)) == 2
        assert probs[2] > 0.6

    def test_update_kl_stays_small(self):
        env = RandomObsEnv(seed=2, reward_fn=lambda a: 0.2 if a == 0 else 0.0)
        hp = HyperParams(rollout_steps=400, total_steps=1200, minibatch=64)
        result = train_ppo(env, hp, seed=9)
        for row in result.metrics:
            assert abs(row.kl) < 0.1

    @pytest.mark.slow
    def test_highway_smoke_run_deterministic(self):
        def run():
            env = HighwayEnv(SimConfig(seed=0), master_seed=11)
            hp = HyperParams(rollout_steps=300, total_steps=600, minibatch=64,
                             update_epochs=2)
            res = train_ppo(env, hp, seed=11)
            return [m.row() for m in res.metrics]
        assert run() == run()


class TestEvaluateActor:
    def test_scripted_follow_on_empty_road_succeeds(self):
        # actor with logits pinned to Follow
        spec = NetSpec(11, 3, head=Head.SOFTMAX_POLICY)
        actor = DenseNet.create(spec, np.random.default_rng(0))
        n_last = (64 + 1) * 3
        actor.params[-n_last:] = 0.0
        actor.params[-3] = 10.0  # Follow bias dominates

        class EmptyRoadEnv(HighwayEnv):
            def reset(self):
                vec = super().reset()
                self.world.vehicles = [v for v in self.world.vehicles if v.is_ego]
                return self._observe()

        env = EmptyRoadEnv(SimConfig(seed=0), master_seed=0)
        summary = evaluate_actor(env, actor, episodes=3)
        assert summary["success_rate"] == 100.0
        assert summary["episodic_cost"] == 0.0
        assert summary["episodic_return"] == pytest.approx(
            summary["episodic_reward"] - summary["episodic_cost"], abs=1e-9)
