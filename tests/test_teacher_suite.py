import numpy as np
import pytest

from s2cd.highway_sim import SimConfig
from s2cd.mdp_interface import HighwayEnv
from s2cd.ppo_core import HyperParams
from s2cd.teacher_suite import (
    Advice,
    SupervisedRow,
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
    rng = np.random.default_rng(seed)
    reward_fn = reward_fn or (lambda obs, a: 1.0)
    rows = []
    for _ in range(n):
        obs = rng.uniform(0, 1, size=obs_dim)
        a = int(rng.integers(0, 3))
        r = reward_fn(obs, a)
        rows.append(SupervisedRow(obs=obs, action=a, reward=r, q_target=r))
    return rows


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


class TestSupervisedRow:
    def test_q_target_is_bootstrapped_reward(self):
        rng = np.random.default_rng(0)
        critic = DenseNet.create(NetSpec(11, 1, head=Head.SCALAR_VALUE), rng)
        obs = rng.uniform(0, 1, 11)
        nxt = rng.uniform(0, 1, 11)
        row = make_supervised_row(obs, 1, 0.4, nxt, done=False, critic=critic, gamma=0.96)
        v_next, _ = critic.forward(nxt)
        assert row.q_target == pytest.approx(0.4 + 0.96 * v_next, abs=1e-12)

    def test_terminal_row_has_no_bootstrap(self):
        rng = np.random.default_rng(1)
        critic = DenseNet.create(NetSpec(11, 1, head=Head.SCALAR_VALUE), rng)
        row = make_supervised_row(np.zeros(11), 0, -1.0, np.zeros(11), done=True,
                                  critic=critic, gamma=0.96)
        assert row.q_target == -1.0


class TestFitValueHeads:
    def test_rejects_small_datasets(self):
        with pytest.raises(ValueError):
            fit_value_heads(make_rows(10))

    def test_constant_target_recovered(self):
        rows = make_rows(1500, seed=1, reward_fn=lambda obs, a: 0.7)
        ret_net, q_net, report = fit_value_heads(rows, seed=0, epochs=30)
        obs = np.stack([r.obs for r in rows[:200]])
        actions = np.array([r.action for r in rows[:200]])
        preds, _ = ret_net.forward(obs)
        assert np.all(np.abs(preds[np.arange(200), actions] - 0.7) < 0.01)

    def test_duplicated_dataset_reaches_same_fit(self):
        rows = make_rows(1200, seed=2, reward_fn=lambda obs, a: float(obs[0]))
        net_a, _, _ = fit_value_heads(rows, seed=3, epochs=30)
        net_b, _, _ = fit_value_heads(rows + rows, seed=3, epochs=15)
        obs = np.stack([r.obs for r in rows[:300]])
        actions = np.array([r.action for r in rows[:300]])
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
        _, q_net, report = fit_value_heads(rows, seed=6, epochs=60)
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
            env = HighwayEnv(SimConfig(seed=0), master_seed=21)
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
        env = HighwayEnv(SimConfig(seed=0), master_seed=22)
        hp = HyperParams(rollout_steps=600, total_steps=2400, minibatch=64,
                         update_epochs=2)
        bundle, result = train_teacher(env, hp, quality="low", seed=22)
        assert bundle.meta["training_steps"] == 1200
        assert result.metrics[-1].step == 1200

    def test_rejects_unknown_quality(self):
        env = HighwayEnv(SimConfig(seed=0))
        with pytest.raises(ValueError):
            train_teacher(env, HyperParams(), quality="medium", seed=0)
