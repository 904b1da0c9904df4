import numpy as np
import pytest

from s2cd import theory_validation
from s2cd.theory_validation import (
    BoundReport,
    ImprovementReport,
    TabularMdp,
    action_values,
    build_mixed_policy,
    check_mixed_policy_improvement,
    check_performance_bound,
    discounted_visitation,
    exact_policy_value,
    greedy_projection,
    policy_transition,
    random_mdp,
    random_policy,
    run_sweep,
)


def single_state_mdp(reward=1.0, gamma=0.96):
    return TabularMdp(transitions=np.ones((1, 2, 1)),
                      rewards=np.array([[reward, reward]]),
                      gamma=gamma, initial_dist=np.array([1.0]))


def optimal_policy(mdp):
    """Greedy policy from value iteration (the strong-teacher oracle), read
    from the values of the sweep before the converged one; RuntimeError
    after ``MAX_VALUE_ITERATIONS`` sweeps."""
    def sweep(v, out):
        action_values(mdp, v[0]).max(axis=1, out=out[0])

    v = theory_validation._fixed_point(sweep, (1, mdp.n_states), "value iteration")[0, 0]
    policy = np.zeros((mdp.n_states, mdp.n_actions))
    policy[np.arange(mdp.n_states), np.argmax(action_values(mdp, v), axis=1)] = 1.0
    return policy


def linear_solve_value(mdp, policy):
    """Independent oracle: solve (I - gamma P_pi) V = r_pi directly."""
    p_pi = policy_transition(mdp, policy)
    r_pi = np.einsum("sa,sa->s", policy, mdp.rewards)
    return np.linalg.solve(np.eye(mdp.n_states) - mdp.gamma * p_pi, r_pi)


class TestExactPolicyValue:
    def test_zero_rewards_zero_value(self):
        rng = np.random.default_rng(0)
        mdp = random_mdp(rng, max_states=6)
        mdp.rewards[:] = 0.0
        policy = random_policy(rng, mdp.n_states, mdp.n_actions)
        assert np.allclose(exact_policy_value([mdp], [policy])[0], 0.0, atol=1e-12)

    def test_single_state_geometric_series(self):
        mdp = single_state_mdp(reward=1.0, gamma=0.96)
        policy = np.array([[0.5, 0.5]])
        v = exact_policy_value([mdp], [policy])[0]
        assert v[0] == pytest.approx(25.0, abs=1e-9)

    def test_matches_direct_linear_solve(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            mdp = random_mdp(rng, max_states=8)
            policy = random_policy(rng, mdp.n_states, mdp.n_actions)
            v = exact_policy_value([mdp], [policy])[0]
            assert np.allclose(v, linear_solve_value(mdp, policy), atol=1e-10)

    def test_rejects_nonstochastic_policy(self):
        mdp = single_state_mdp()
        with pytest.raises(ValueError):
            exact_policy_value([mdp], [np.array([[0.7, 0.7]])])

    def test_rejects_bad_mdp(self):
        with pytest.raises(ValueError):
            TabularMdp(transitions=np.full((1, 2, 1), 0.5),
                       rewards=np.zeros((1, 2)), gamma=0.9,
                       initial_dist=np.array([1.0]))


class TestNonFiniteInputs:
    @pytest.mark.parametrize("field,index", [
        ("rewards", (0, 1)), ("transitions", (1, 0, 1)), ("initial_dist", (0,)),
    ])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entry_rejected(self, field, index, bad):
        mdp = random_mdp(np.random.default_rng(2), max_states=4)
        values = {"transitions": mdp.transitions.copy(), "rewards": mdp.rewards.copy(),
                  "initial_dist": mdp.initial_dist.copy()}
        values[field][index] = bad
        with pytest.raises(ValueError):
            TabularMdp(gamma=mdp.gamma, **values)

    def test_unconverged_policy_evaluation_raises(self, monkeypatch):
        monkeypatch.setattr(theory_validation, "MAX_VALUE_ITERATIONS", 50)
        mdp = single_state_mdp(gamma=0.99)
        with pytest.raises(RuntimeError):
            exact_policy_value([mdp], [np.array([[1.0, 0.0]])])
        with pytest.raises(RuntimeError):
            optimal_policy(mdp)

    def test_nan_planted_after_validation_ends(self, monkeypatch):
        monkeypatch.setattr(theory_validation, "MAX_VALUE_ITERATIONS", 1000)
        mdp = single_state_mdp()
        mdp.rewards[0, 0] = np.nan
        with pytest.raises(RuntimeError):
            exact_policy_value([mdp], [np.array([[1.0, 0.0]])])


BLOCK = theory_validation._SWEEP_BLOCK


def sweep_by_sweep_value(mdp, policy):
    """The policy-evaluation loop with a residual check after every sweep;
    returns the value and the 0-based index of the converged sweep."""
    p_pi = policy_transition(mdp, policy)
    r_pi = np.einsum("sa,sa->s", policy, mdp.rewards)
    v = np.zeros(mdp.n_states)
    for k in range(100_000):
        v_next = r_pi + mdp.gamma * (p_pi @ v)
        if np.max(np.abs(v_next - v)) < theory_validation.VALUE_TOL:
            return v_next, k
        v = v_next
    raise AssertionError("reference did not converge")


def sweep_by_sweep_optimal(mdp):
    """Value iteration with a residual check after every sweep; greedy in the
    values before the converged sweep. Returns the policy and the index."""
    v = np.zeros(mdp.n_states)
    for k in range(100_000):
        v_next = action_values(mdp, v).max(axis=1)
        if np.max(np.abs(v_next - v)) < theory_validation.VALUE_TOL:
            break
        v = v_next
    else:
        raise AssertionError("reference did not converge")
    policy = np.zeros((mdp.n_states, mdp.n_actions))
    policy[np.arange(mdp.n_states), np.argmax(action_values(mdp, v), axis=1)] = 1.0
    return policy, k


def mdp_with_states(rng, n_states, gamma):
    n_actions = int(rng.integers(2, 5))
    return TabularMdp(transitions=rng.dirichlet(np.ones(n_states), size=(n_states, n_actions)),
                      rewards=rng.uniform(-1.0, 1.0, size=(n_states, n_actions)),
                      gamma=gamma, initial_dist=rng.dirichlet(np.ones(n_states)))


class TestBlockedSweepsMatchSweepBySweep:
    def test_bit_identical_on_random_mdps(self):
        rng = np.random.default_rng(17)
        for n in range(1200):
            n_states = n % 30 + 1
            gamma = 0.95 if n % 7 == 0 else float(rng.uniform(0.0, 0.95))
            mdp = mdp_with_states(rng, n_states, gamma)
            policy = random_policy(rng, n_states, mdp.n_actions, deterministic=n % 2 == 1)
            expected, _ = sweep_by_sweep_value(mdp, policy)
            assert exact_policy_value([mdp], [policy])[0].tobytes() == expected.tobytes()
            if n % 3 == 0:
                expected, _ = sweep_by_sweep_optimal(mdp)
                assert optimal_policy(mdp).tobytes() == expected.tobytes()

    def test_greedy_policy_uses_the_values_before_the_converged_sweep(self):
        # s0 picks between s1 (absorbing, reward 1: value 20) and s2 (reward
        # e, then an absorbing zero-reward state: value e). The two Q values
        # of s0 cross between the last two sweeps, so the greedy action
        # depends on which of them the policy is read from.
        e = 20.0 - 1.88e-11
        transitions = np.zeros((4, 2, 4))
        transitions[0, 0, 1] = transitions[0, 1, 2] = 1.0
        transitions[1, :, 1] = transitions[2, :, 3] = transitions[3, :, 3] = 1.0
        rewards = np.zeros((4, 2))
        rewards[1], rewards[2] = 1.0, e
        mdp = TabularMdp(transitions=transitions, rewards=rewards, gamma=0.95,
                         initial_dist=np.array([1.0, 0.0, 0.0, 0.0]))
        expected, _ = sweep_by_sweep_optimal(mdp)
        assert expected[0].tolist() == [0.0, 1.0]
        assert optimal_policy(mdp).tobytes() == expected.tobytes()

    @staticmethod
    def converging_at(offset, reference):
        """The first seeded instance whose reference converges at a sweep
        index k with k % _SWEEP_BLOCK == offset."""
        rng = np.random.default_rng(18)
        while True:
            mdp = mdp_with_states(rng, int(rng.integers(1, 13)), float(rng.uniform(0.5, 0.95)))
            policy = random_policy(rng, mdp.n_states, mdp.n_actions)
            expected, k = reference(mdp, policy)
            if k % BLOCK == offset:
                return mdp, policy, expected, k

    @pytest.mark.parametrize("offset", [0, 5, BLOCK - 1])
    @pytest.mark.parametrize("reference,run,message", [
        (sweep_by_sweep_value, exact_policy_value, "policy evaluation"),
        (lambda mdp, policy: sweep_by_sweep_optimal(mdp),
         lambda mdps, policies: [optimal_policy(mdp) for mdp in mdps], "value iteration"),
    ], ids=["policy_evaluation", "value_iteration"])
    def test_cap_boundary(self, monkeypatch, offset, reference, run, message):
        mdp, policy, expected, k = self.converging_at(offset, reference)
        monkeypatch.setattr(theory_validation, "MAX_VALUE_ITERATIONS", k + 1)
        assert run([mdp], [policy])[0].tobytes() == expected.tobytes()
        monkeypatch.setattr(theory_validation, "MAX_VALUE_ITERATIONS", k)
        with pytest.raises(RuntimeError, match=f"{message} did not converge in {k} sweeps"):
            run([mdp], [policy])

        # the slow member in the middle of a stack of faster ones with the
        # same state count: they converge first and keep their bits
        rng = np.random.default_rng(19)
        fast = [mdp_with_states(rng, mdp.n_states, float(rng.uniform(0.0, 0.3)))
                for _ in range(2)]
        mdps = [fast[0], mdp, fast[1]]
        policies = [random_policy(rng, m.n_states, m.n_actions) for m in mdps]
        policies[1] = policy
        references = [reference(m, pi) for m, pi in zip(mdps, policies)]
        assert all(k_fast < k for _, k_fast in references[::2])
        monkeypatch.setattr(theory_validation, "MAX_VALUE_ITERATIONS", k + 1)
        assert ([v.tobytes() for v in run(mdps, policies)]
                == [v.tobytes() for v, _ in references])
        monkeypatch.setattr(theory_validation, "MAX_VALUE_ITERATIONS", k)
        with pytest.raises(RuntimeError, match=f"{message} did not converge in {k} sweeps"):
            run(mdps, policies)


class TestStackedEvaluation:
    def test_stack_equals_one_at_a_time(self):
        # mixed state counts, so a call holds several stacks of unequal size
        rng = np.random.default_rng(20)
        for _ in range(25):
            mdps, policies = [], []
            for _ in range(int(rng.integers(1, 40))):
                gamma = 0.95 if rng.random() < 0.2 else float(rng.uniform(0.0, 0.95))
                mdp = mdp_with_states(rng, int(rng.integers(1, 31)), gamma)
                mdps.append(mdp)
                policies.append(random_policy(rng, mdp.n_states, mdp.n_actions,
                                              deterministic=bool(rng.random() < 0.5)))
            stacked = exact_policy_value(mdps, policies)
            for mdp, policy, v in zip(mdps, policies, stacked):
                assert v.tobytes() == exact_policy_value([mdp], [policy])[0].tobytes()
                assert v.tobytes() == sweep_by_sweep_value(mdp, policy)[0].tobytes()

    def test_stacked_matmul_matches_single_gemv(self):
        # the stack relies on numpy running (K, S, S) @ (K, S, 1) as one gemv
        # per member with the bits of a 2-D (S, S) @ (S,); a numpy or BLAS
        # change that breaks this fails here by name
        rng = np.random.default_rng(21)
        for _ in range(300):
            k, s = int(rng.integers(1, 41)), int(rng.integers(1, 31))
            p = rng.dirichlet(np.ones(s), size=(k, s))
            v = rng.uniform(-20.0, 20.0, size=(k, s, 1))
            out = np.empty((k, s, 1))
            np.matmul(p, v, out)
            for i in range(k):
                assert out[i, :, 0].tobytes() == (p[i] @ v[i, :, 0]).tobytes()

    def test_rejects_mismatched_lengths(self):
        mdp = single_state_mdp()
        with pytest.raises(ValueError):
            exact_policy_value([mdp, mdp], [np.array([[1.0, 0.0]])])


class TestDiscountedVisitation:
    def test_sums_to_one(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            mdp = random_mdp(rng)
            policy = random_policy(rng, mdp.n_states, mdp.n_actions)
            d = discounted_visitation(mdp, policy)
            assert abs(d.sum() - 1.0) < 1e-10
            assert np.all(d >= -1e-12)

    def test_matches_geometric_series(self):
        rng = np.random.default_rng(3)
        mdp = random_mdp(rng, max_states=5)
        policy = random_policy(rng, mdp.n_states, mdp.n_actions)
        p_pi = policy_transition(mdp, policy)
        series = np.zeros(mdp.n_states)
        dist = mdp.initial_dist.copy()
        scale = 1.0
        for _ in range(3000):
            series += scale * dist
            dist = dist @ p_pi
            scale *= mdp.gamma
        series *= (1.0 - mdp.gamma)
        assert np.allclose(discounted_visitation(mdp, policy), series, atol=1e-10)


class TestBuildMixedPolicy:
    def test_identical_policies_no_interventions(self):
        rng = np.random.default_rng(4)
        mdp = random_mdp(rng)
        policy = random_policy(rng, mdp.n_states, mdp.n_actions)
        result = build_mixed_policy([policy], [policy], [mdp], tolerance=0.0)[0]
        assert result.omega == 0.0
        assert not result.intervened.any()
        assert np.array_equal(result.mixed, policy)

    def test_minus_infinity_tolerance_always_intervenes(self):
        rng = np.random.default_rng(5)
        mdp = random_mdp(rng)
        teacher = random_policy(rng, mdp.n_states, mdp.n_actions)
        student = random_policy(rng, mdp.n_states, mdp.n_actions)
        result = build_mixed_policy([teacher], [student], [mdp], tolerance=-np.inf)[0]
        assert result.intervened.all()
        assert result.omega == pytest.approx(1.0, abs=1e-10)
        assert np.array_equal(result.mixed, teacher)

    def test_mixed_rows_remain_distributions(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            mdp = random_mdp(rng, max_states=10)
            teacher = random_policy(rng, mdp.n_states, mdp.n_actions)
            student = random_policy(rng, mdp.n_states, mdp.n_actions)
            result = build_mixed_policy([teacher], [student], [mdp], tolerance=0.0)[0]
            assert 0.0 <= result.omega <= 1.0
            assert np.allclose(result.mixed.sum(axis=1), 1.0, atol=1e-12)


class TestImprovementGuarantee:
    def test_identical_policies_zero_margin(self):
        rng = np.random.default_rng(7)
        mdp = random_mdp(rng)
        policy = random_policy(rng, mdp.n_states, mdp.n_actions)
        report = check_mixed_policy_improvement([mdp], [policy], [policy])[0]
        assert report.margin == 0.0

    def test_uniform_student_optimal_teacher_sweep(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            mdp = random_mdp(rng, max_states=10)
            teacher = optimal_policy(mdp)
            student = np.full((mdp.n_states, mdp.n_actions), 1.0 / mdp.n_actions)
            report = check_mixed_policy_improvement([mdp], [teacher], [student])[0]
            assert report.margin >= -1e-9

    def test_random_pairs_margin_nonnegative(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            mdp = random_mdp(rng, max_states=12)
            teacher = random_policy(rng, mdp.n_states, mdp.n_actions)
            student = random_policy(rng, mdp.n_states, mdp.n_actions)
            report = check_mixed_policy_improvement([mdp], [teacher], [student])[0]
            assert report.margin >= -1e-9
            assert report.pointwise_min_margin >= -1e-9

    def test_single_state_margin_zero(self):
        mdp = single_state_mdp()
        report = check_mixed_policy_improvement([mdp], [np.array([[1.0, 0.0]])],
                                                [np.array([[0.0, 1.0]])])[0]
        assert report.margin == pytest.approx(0.0, abs=1e-9)

    def test_horizon_zero_base_case_maximizes_immediate_reward(self):
        # with gamma = 0 the switch compares immediate rewards, so the mixed
        # deterministic choice takes the better of the two actions pointwise
        rng = np.random.default_rng(10)
        for _ in range(50):
            mdp = random_mdp(rng, max_states=8)
            mdp = TabularMdp(transitions=mdp.transitions, rewards=mdp.rewards,
                             gamma=0.0, initial_dist=mdp.initial_dist)
            teacher = greedy_projection(random_policy(rng, mdp.n_states, mdp.n_actions))
            student = greedy_projection(random_policy(rng, mdp.n_states, mdp.n_actions))
            result = build_mixed_policy([teacher], [student], [mdp], tolerance=0.0)[0]
            states = np.arange(mdp.n_states)
            r_mixed = mdp.rewards[states, np.argmax(result.mixed, axis=1)]
            r_teacher = mdp.rewards[states, np.argmax(teacher, axis=1)]
            r_student = mdp.rewards[states, np.argmax(student, axis=1)]
            assert np.allclose(r_mixed, np.maximum(r_teacher, r_student), atol=1e-12)


class TestPerformanceBound:
    def test_identical_policies_both_sides_zero(self):
        rng = np.random.default_rng(11)
        mdp = random_mdp(rng)
        policy = random_policy(rng, mdp.n_states, mdp.n_actions)
        report = check_performance_bound([mdp], [policy], [policy])[0]
        assert report.lhs == pytest.approx(0.0, abs=1e-9)
        assert report.rhs == pytest.approx(0.0, abs=1e-9)

    def test_full_intervention_tightens_to_zero(self):
        rng = np.random.default_rng(12)
        mdp = random_mdp(rng)
        teacher = random_policy(rng, mdp.n_states, mdp.n_actions)
        student = random_policy(rng, mdp.n_states, mdp.n_actions)
        report = check_performance_bound([mdp], [teacher], [student], tolerance=-np.inf)[0]
        assert report.omega == pytest.approx(1.0, abs=1e-10)
        assert report.lhs == pytest.approx(0.0, abs=1e-9)
        assert report.rhs == pytest.approx(0.0, abs=1e-9)

    def test_random_sweep_nonnegative_slack(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            mdp = random_mdp(rng, max_states=12)
            teacher = random_policy(rng, mdp.n_states, mdp.n_actions)
            student = random_policy(rng, mdp.n_states, mdp.n_actions)
            report = check_performance_bound([mdp], [teacher], [student])[0]
            assert report.slack >= 0.0
            assert abs(report.visitation_mass - 1.0) < 1e-10

    def test_slack_shrinks_as_student_approaches_teacher(self):
        # spot check: along an interpolation path toward the teacher the
        # slack collapses (both sides vanish); one seeded path is monotone
        def slacks_for(seed):
            rng = np.random.default_rng(seed)
            mdp = random_mdp(rng, max_states=8)
            teacher = random_policy(rng, mdp.n_states, mdp.n_actions)
            student = random_policy(rng, mdp.n_states, mdp.n_actions)
            return [check_performance_bound(
                [mdp], [teacher], [(1.0 - lam) * student + lam * teacher])[0].slack
                for lam in (0.0, 0.5, 0.9, 0.999)]

        monotone = slacks_for(14)
        assert all(a > b for a, b in zip(monotone, monotone[1:]))
        for seed in (14, 21, 22, 30):
            s = slacks_for(seed)
            assert s[-1] < 0.1 * s[0]


class TestRunSweep:
    def test_default_sweep_passes_and_is_reproducible(self):
        rows1, ok1 = run_sweep(n_instances=30, seed=5)
        rows2, ok2 = run_sweep(n_instances=30, seed=5)
        assert ok1 and ok2
        assert rows1 == rows2
        for row in rows1:
            assert row["improvement_margin"] >= -1e-9
            assert row["slack"] >= 0.0
            assert 0.0 <= row["omega"] <= 1.0

    def test_four_policy_evaluations_per_instance(self, monkeypatch):
        calls = []
        original = theory_validation.exact_policy_value

        def counting(mdps, policies):
            calls.append(len(policies))
            return original(mdps, policies)
        monkeypatch.setattr(theory_validation, "exact_policy_value", counting)
        for chunk, n_instances in [(theory_validation._SWEEP_CHUNK, 5), (3, 3), (3, 7)]:
            monkeypatch.setattr(theory_validation, "_SWEEP_CHUNK", chunk)
            calls.clear()
            run_sweep(n_instances=n_instances, seed=2)
            assert sum(calls) == 4 * n_instances
            assert len(calls) == 4 * -(-n_instances // chunk)

    def test_rows_do_not_depend_on_the_chunk(self, monkeypatch):
        expected = run_sweep(n_instances=9, seed=6, max_states=6)
        for chunk in (1, 4, 9):
            monkeypatch.setattr(theory_validation, "_SWEEP_CHUNK", chunk)
            assert run_sweep(n_instances=9, seed=6, max_states=6) == expected

    def test_single_state_sweep(self):
        # with one state the mixed value is exactly the better of the two
        # deterministic action values, so the margin is max(gap, 0)
        rows, ok = run_sweep(n_instances=20, seed=3, max_states=1)
        assert ok
        rng = np.random.default_rng(16)
        for _ in range(30):
            mdp = random_mdp(rng, max_states=1)
            teacher = random_policy(rng, 1, mdp.n_actions)
            student = random_policy(rng, 1, mdp.n_actions)
            report = check_mixed_policy_improvement([mdp], [teacher], [student])[0]
            a_t = int(np.argmax(teacher[0]))
            a_s = int(np.argmax(student[0]))
            v = mdp.rewards[0] / (1.0 - mdp.gamma)
            expected = max(v[a_t], v[a_s]) - v[a_t]
            assert report.margin == pytest.approx(expected, abs=1e-9)
