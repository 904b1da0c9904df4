import numpy as np
import pytest

from s2cd.highway_sim import SimConfig
from s2cd.mdp_interface import HighwayEnv
from s2cd.ppo_core import HyperParams, RolloutBuffer
from s2cd.teacher_suite import (
    Advice,
    TeacherBundle,
    fit_value_heads,
    load_bundle,
    make_supervised_row,
    save_bundle,
    teacher_advise,
    train_teacher,
)
from s2cd.tensor_nn import DenseNet, Head, NetSpec


def make_rows(n, seed=0, reward_fn=None, obs_dim=11):
    """Columns (obs, actions, rewards, q_targets) of n random rows whose Q
    target equals the reward."""
    rng = np.random.default_rng(seed)
    reward_fn = reward_fn or (lambda obs, a: 1.0)
    obs = np.empty((n, obs_dim))
    actions = np.empty(n, dtype=np.int64)
    rewards = np.empty(n)
    for i in range(n):
        obs[i] = rng.uniform(0, 1, size=obs_dim)
        actions[i] = int(rng.integers(0, 3))
        rewards[i] = reward_fn(obs[i], actions[i])
    return obs, actions, rewards, rewards.copy()


def make_bundle(seed=0, uniform_actor=False):
    rng = np.random.default_rng(seed)
    actor = DenseNet.create(NetSpec(11, 3, head=Head.SOFTMAX_POLICY), rng)
    if uniform_actor:
        actor.params[:] = 0.0
    return TeacherBundle(
        actor=actor,
        critic=DenseNet.create(NetSpec(11, 1, head=Head.SCALAR_VALUE), rng),
        return_net=DenseNet.create(NetSpec(11, 3, head=Head.VECTOR_VALUE), rng),
        qvalue_net=DenseNet.create(NetSpec(11, 3, head=Head.VECTOR_VALUE), rng),
        quality_tag="high",
    )


SUPERVISED_REWARDS = [0.4, -1.0, 0.25, 0.5]
SUPERVISED_VALUES = [0.3, -0.7, 0.55, 0.125]


def finalized_phase(dones, bootstrap, gamma=0.96):
    """Regression columns of a hand-built, finalized four-row phase."""
    buffer = RolloutBuffer()
    for t in range(4):
        buffer.add(obs=np.full(11, t / 4), actions=t % 3, logprob_old=-1.0,
                   rewards=SUPERVISED_REWARDS[t], values=SUPERVISED_VALUES[t],
                   dones=dones[t], executed=True)
    batch = buffer.finalize(HyperParams(gamma=gamma), bootstrap)
    return make_supervised_row(batch, bootstrap, gamma)


class TestSupervisedRow:
    def test_q_target_is_bootstrapped_reward(self):
        gamma, bootstrap = 0.96, 0.8125
        obs, actions, r, q = finalized_phase([False, True, False, False], bootstrap, gamma)
        assert obs.tolist() == [[t / 4] * 11 for t in range(4)]
        assert actions.tolist() == [0, 1, 2, 0]
        assert r.tolist() == SUPERVISED_REWARDS
        # the next row's stored value, then the bootstrap after the last row
        assert q.tolist() == [0.4 + gamma * -0.7, -1.0, 0.25 + gamma * 0.125,
                              0.5 + gamma * bootstrap]

    def test_terminal_row_has_no_bootstrap(self):
        # a mid-phase episode end, and a terminal last row whose bootstrap
        # must be ignored
        _, _, r, q = finalized_phase([False, True, False, True], bootstrap=5.0)
        assert q[1] == r[1] == -1.0
        assert q[3] == r[3] == 0.5


class TestFitValueHeads:
    def test_rejects_small_datasets(self):
        with pytest.raises(ValueError):
            fit_value_heads(*make_rows(10))

    def test_constant_target_recovered(self):
        rows = make_rows(1500, seed=1, reward_fn=lambda obs, a: 0.7)
        ret_net, q_net, report = fit_value_heads(*rows, seed=0, epochs=30)
        obs, actions = rows[0][:200], rows[1][:200]
        preds, _ = ret_net.forward(obs)
        assert np.all(np.abs(preds[np.arange(200), actions] - 0.7) < 0.01)

    def test_duplicated_dataset_reaches_same_fit(self):
        rows = make_rows(1200, seed=2, reward_fn=lambda obs, a: float(obs[0]))
        net_a, _, _ = fit_value_heads(*rows, seed=3, epochs=30)
        net_b, _, _ = fit_value_heads(*[np.concatenate([c, c]) for c in rows], seed=3,
                                      epochs=15)
        obs, actions = rows[0][:300], rows[1][:300]
        pa, _ = net_a.forward(obs)
        pb, _ = net_b.forward(obs)
        ya = pa[np.arange(300), actions]
        yb = pb[np.arange(300), actions]
        target = obs[:, 0]
        assert np.mean((ya - target) ** 2) < 5e-3
        assert np.mean((yb - target) ** 2) < 5e-3

    def test_planted_linear_model_recovered(self):
        rng = np.random.default_rng(4)
        w = rng.uniform(-0.5, 0.5, size=11)

        def reward_fn(obs, a):
            return float(obs @ w + 0.1 * a)

        rows = make_rows(4000, seed=5, reward_fn=reward_fn)
        _, q_net, report = fit_value_heads(*rows, seed=6, epochs=60)
        assert report.heldout_mse < 1e-3
        assert report.heldout_mse < report.target_variance


class TestTeacherAdvise:
    def test_uniform_logits_tie_breaks_to_follow(self):
        bundle = make_bundle(uniform_actor=True)
        advice = teacher_advise(bundle, np.full(11, 0.5))
        assert advice.action == 0
        assert np.allclose(advice.probs, 1.0 / 3.0)

    def test_advice_deterministic(self):
        bundle = make_bundle(seed=3)
        obs = np.random.default_rng(0).uniform(0, 1, 11)
        a1 = teacher_advise(bundle, obs)
        a2 = teacher_advise(bundle, obs)
        assert a1.action == a2.action
        assert np.array_equal(a1.probs, a2.probs)
        assert a1.r_pred == a2.r_pred
        assert np.array_equal(a1.q_pred, a2.q_pred)

    def test_r_pred_indexes_teacher_action(self):
        bundle = make_bundle(seed=4)
        obs = np.random.default_rng(1).uniform(0, 1, 11)
        advice = teacher_advise(bundle, obs)
        r_all, _ = bundle.return_net.forward(obs)
        assert advice.r_pred == pytest.approx(float(r_all[advice.action]))
        assert advice.q_pred.shape == (3,)

    def test_one_pass_equals_the_three_forwards(self):
        bundle = make_bundle(seed=5)
        for net in (bundle.actor, bundle.return_net, bundle.qvalue_net):
            net.params *= 3.0  # trained-scale weights
        bundle = TeacherBundle(actor=bundle.actor, critic=bundle.critic,
                               return_net=bundle.return_net, qvalue_net=bundle.qvalue_net,
                               quality_tag="high")
        for obs in np.random.default_rng(2).uniform(0, 1, size=(200, 11)):
            advice = teacher_advise(bundle, obs)
            probs, _ = bundle.actor.forward(obs)
            r_all, _ = bundle.return_net.forward(obs)
            q_all, _ = bundle.qvalue_net.forward(obs)
            assert advice.action == int(probs.argmax())
            assert advice.probs.tobytes() == probs.tobytes()
            assert advice.r_pred == float(r_all[advice.action])
            assert advice.q_pred.tobytes() == q_all.tobytes()

    def test_rejects_unnormalized_observation(self):
        bundle = make_bundle()
        with pytest.raises(ValueError):
            teacher_advise(bundle, np.full(11, 2.0))
        with pytest.raises(ValueError):
            teacher_advise(bundle, np.full(11, -0.3))

    @pytest.mark.parametrize("index,value", [(0, -1e-8), (10, 1.0 + 1e-8), (4, np.inf),
                                             (5, -np.inf)])
    def test_out_of_range_entry_is_not_normalized(self, index, value):
        obs = np.full(11, 0.5)
        obs[index] = value
        with pytest.raises(ValueError, match="not normalized"):
            teacher_advise(make_bundle(), obs)
        obs[(index + 1) % 11] = np.nan  # an out-of-range entry wins over NaN
        with pytest.raises(ValueError, match="not normalized"):
            teacher_advise(make_bundle(), obs)

    def test_tolerance_edges_accepted(self):
        obs = np.full(11, 0.5)
        obs[0], obs[1] = -1e-9, 1.0 + 1e-9
        assert teacher_advise(make_bundle(), obs).q_pred.shape == (3,)

    @pytest.mark.parametrize("nan_entries", [[3], [0, 10], list(range(11))])
    def test_nan_observation_is_non_finite_input(self, nan_entries):
        obs = np.full(11, 0.5)
        obs[nan_entries] = np.nan
        with pytest.raises(ValueError, match="non-finite network input"):
            teacher_advise(make_bundle(), obs)

    def test_rejects_wrong_length(self):
        bundle = make_bundle()
        with pytest.raises(ValueError):
            teacher_advise(bundle, np.full(14, 0.5))


class TestBundle:
    def test_input_dim_mismatch_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            TeacherBundle(
                actor=DenseNet.create(NetSpec(11, 3, head=Head.SOFTMAX_POLICY), rng),
                critic=DenseNet.create(NetSpec(14, 1, head=Head.SCALAR_VALUE), rng),
                return_net=DenseNet.create(NetSpec(11, 3, head=Head.VECTOR_VALUE), rng),
                qvalue_net=DenseNet.create(NetSpec(11, 3, head=Head.VECTOR_VALUE), rng),
                quality_tag="high",
            )

    def test_advice_nets_must_share_layer_widths(self):
        rng = np.random.default_rng(0)
        bundle = make_bundle()
        with pytest.raises(ValueError, match="layer widths"):
            TeacherBundle(actor=bundle.actor, critic=bundle.critic,
                          return_net=bundle.return_net, quality_tag="high",
                          qvalue_net=DenseNet.create(
                              NetSpec(11, 3, hidden=(64, 32), head=Head.VECTOR_VALUE), rng))

    def test_save_load_roundtrip(self, tmp_path):
        bundle = make_bundle(seed=9)
        bundle.meta["training_steps"] = 1234
        save_bundle(bundle, tmp_path / "bundle")
        loaded = load_bundle(tmp_path / "bundle")
        assert loaded.checksum() == bundle.checksum()
        assert loaded.quality_tag == "high"
        assert loaded.meta["training_steps"] == 1234


class TestTrainTeacher:
    @pytest.mark.slow
    def test_micro_run_deterministic_and_frozen(self):
        def run():
            env = HighwayEnv(SimConfig(), master_seed=21)
            hp = HyperParams(rollout_steps=600, total_steps=1200, minibatch=64,
                             update_epochs=2)
            bundle, _ = train_teacher(env, hp, quality="high", seed=21)
            return bundle

        b1 = run()
        b2 = run()
        assert b1.checksum() == b2.checksum()
        assert b1.meta["training_steps"] == 1200

    @pytest.mark.slow
    def test_low_quality_gets_half_budget(self):
        env = HighwayEnv(SimConfig(), master_seed=22)
        hp = HyperParams(rollout_steps=600, total_steps=2400, minibatch=64,
                         update_epochs=2)
        bundle, result = train_teacher(env, hp, quality="low", seed=22)
        assert bundle.meta["training_steps"] == 1200
        assert result.metrics[-1].step == 1200

    def test_rejects_unknown_quality(self):
        env = HighwayEnv(SimConfig())
        with pytest.raises(ValueError):
            train_teacher(env, HyperParams(), quality="medium", seed=0)
