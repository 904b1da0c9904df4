"""Exact tabular harness for the mixed-policy guarantees.

On small finite MDPs, everything is computed to numerical precision: policy
values by fixed-point iteration (cross-checked against direct linear solves
in the tests), discounted state visitation by linear solve, and the
Q-value-gap switch applied state by state.

The fixed-point loop of policy evaluation runs blocks of ``_SWEEP_BLOCK``
sweeps and checks the sup-norm residual once per block. It returns the
first sweep whose residual is below ``VALUE_TOL``, so the result is
bit-identical to checking after every sweep. Value iteration, which only
the test oracle ``optimal_policy`` in ``tests/test_theory_validation.py``
runs, uses the same loop.

Policy evaluation takes lists of (MDP, policy) pairs and iterates every
pair that shares an exact state count S as one stack: each sweep is one
``(K, S, S) @ (K, S, 1)`` matmul, which numpy runs as one gemv per member,
so each member gets the bits of its own ``(S, S) @ (S,)`` sweep. Members
are never zero-padded to a common S: the gemv kernel blocks by length, so
padding changes the summation order and the bits.

Two certificates are produced per instance:

* improvement guarantee: with greedy (deterministic) policy representatives
  and zero tolerance, the mixed policy's value is no less than the
  teacher's at every state, hence also under the initial distribution.
* performance bound: |J_mix - J_teacher| is bounded by
  sqrt(2) * (1 - omega) * R_max / (1 - gamma)^2 * E_{d_mix}[sqrt(KL(teacher || student))].
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

VALUE_TOL = 1e-12
# Cap of the fixed-point loops. A gamma = 0.95 instance needs a few hundred
# sweeps to reach VALUE_TOL; hitting the cap means the residual cannot fall
# below VALUE_TOL in floating point, or (rewards of order 1) gamma > ~0.9997.
MAX_VALUE_ITERATIONS = 100_000
# Sweeps run between two residual checks of the fixed-point loops.
_SWEEP_BLOCK = 32
# Instances drawn and certified together by run_sweep.
_SWEEP_CHUNK = 128


@dataclass
class TabularMdp:
    transitions: np.ndarray      # (S, A, S) row-stochastic in the last axis
    rewards: np.ndarray          # (S, A)
    gamma: float
    initial_dist: np.ndarray     # (S,)

    def __post_init__(self) -> None:
        self.transitions = np.asarray(self.transitions, dtype=np.float64)
        self.rewards = np.asarray(self.rewards, dtype=np.float64)
        self.initial_dist = np.asarray(self.initial_dist, dtype=np.float64)
        s, a, s2 = self.transitions.shape
        if s != s2 or self.rewards.shape != (s, a):
            raise ValueError("transition/reward shape mismatch")
        for name in ("transitions", "rewards", "initial_dist"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} must be finite")
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError("gamma must lie in [0, 1)")
        rowsums = self.transitions.sum(axis=2)
        if np.any(np.abs(rowsums - 1.0) > 1e-12) or np.any(self.transitions < 0):
            raise ValueError("transition rows must be stochastic")
        if abs(self.initial_dist.sum() - 1.0) > 1e-12 or np.any(self.initial_dist < 0):
            raise ValueError("initial distribution must be stochastic")

    @property
    def n_states(self) -> int:
        return self.transitions.shape[0]

    @property
    def n_actions(self) -> int:
        return self.transitions.shape[1]

    @property
    def r_max(self) -> float:
        return float(np.abs(self.rewards).max())


def validate_policy(mdp: TabularMdp, policy: np.ndarray) -> np.ndarray:
    policy = np.asarray(policy, dtype=np.float64)
    if policy.shape != (mdp.n_states, mdp.n_actions):
        raise ValueError("policy shape mismatch")
    if np.any(policy < 0) or np.any(np.abs(policy.sum(axis=1) - 1.0) > 1e-12):
        raise ValueError("policy rows must be stochastic")
    return policy


def _validate_all(mdps: Sequence[TabularMdp],
                  policies: Sequence[np.ndarray]) -> list[np.ndarray]:
    return [validate_policy(mdp, policy) for mdp, policy in zip(mdps, policies, strict=True)]


def policy_transition(mdp: TabularMdp, policy: np.ndarray) -> np.ndarray:
    """State-to-state kernel P_pi(s' | s) = sum_a pi(a|s) P(s'|s,a)."""
    return np.einsum("sa,sat->st", policy, mdp.transitions)


def policy_reward(mdp: TabularMdp, policy: np.ndarray) -> np.ndarray:
    return np.einsum("sa,sa->s", policy, mdp.rewards)


def _fixed_point(sweep, shape: tuple[int, ...], name: str) -> np.ndarray:
    """Run ``sweep(v_k, v_{k+1})`` on a stack of ``shape[0]`` independent
    iterates from v_0 = 0, in blocks of ``_SWEEP_BLOCK``. Returns, per
    member, the rows (v_k, v_{k+1}) of its own first sweep k with
    sup|v_{k+1} - v_k| < VALUE_TOL, stacked as (K, 2, *shape[1:]).

    Converged members keep sweeping until the whole stack is done; their
    stored rows do not change. A member whose first hit is at
    k >= MAX_VALUE_ITERATIONS, or whose residual is NaN, raises RuntimeError
    naming ``name``."""
    cap = MAX_VALUE_ITERATIONS
    n = shape[0]
    iterates = np.zeros((_SWEEP_BLOCK + 1, *shape))
    rows = list(iterates)
    result = np.empty((n, 2, *shape[1:]))
    pending = np.ones(n, dtype=bool)
    for start in range(0, cap, _SWEEP_BLOCK):
        for i in range(_SWEEP_BLOCK):
            sweep(rows[i], rows[i + 1])
        residual = np.abs(iterates[1:] - iterates[:-1]).reshape(_SWEEP_BLOCK, n, -1).max(axis=2)
        stop = ~(residual >= VALUE_TOL)  # below the tolerance, or NaN
        for m in np.flatnonzero(pending & stop.any(axis=0)):
            k = int(np.argmax(stop[:, m]))
            if start + k >= cap or not residual[k, m] < VALUE_TOL:
                raise RuntimeError(f"{name} did not converge in {cap} sweeps")
            result[m] = iterates[k:k + 2, m]
            pending[m] = False
        if not pending.any():
            return result
        iterates[0] = iterates[-1]
    raise RuntimeError(f"{name} did not converge in {cap} sweeps")


def exact_policy_value(mdps: Sequence[TabularMdp],
                       policies: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Value of each policy in its MDP: fixed-point iteration of
    V = r_pi + gamma P_pi V to sup-norm residual below ``VALUE_TOL``;
    RuntimeError after ``MAX_VALUE_ITERATIONS`` sweeps.

    Pairs with the same state count S are iterated as one (K, S, 1) stack.
    Each member's value is its own first sweep below ``VALUE_TOL``, so the
    result equals one-at-a-time, sweep-by-sweep evaluation bit for bit.
    Each sweep writes P_pi V, then ``* gamma``, then ``+ r_pi`` in place;
    IEEE ``*`` and ``+`` commute, so the bits equal
    ``r_pi + gamma * (P_pi @ V)``.
    """
    policies = _validate_all(mdps, policies)
    values: list[np.ndarray] = [None] * len(policies)
    for n_states in dict.fromkeys(mdp.n_states for mdp in mdps):
        members = [i for i, mdp in enumerate(mdps) if mdp.n_states == n_states]
        p_pi = np.stack([policy_transition(mdps[i], policies[i]) for i in members])
        r_pi = np.stack([policy_reward(mdps[i], policies[i]) for i in members])[:, :, None]
        # a full array, not a (K, 1, 1) broadcast: the same products, and the
        # ufunc's contiguous loop takes half the time
        gamma = np.repeat([mdps[i].gamma for i in members], n_states).reshape(r_pi.shape)

        def sweep(v: np.ndarray, out: np.ndarray) -> None:
            np.matmul(p_pi, v, out)
            np.multiply(out, gamma, out)
            np.add(out, r_pi, out)

        pairs = _fixed_point(sweep, (len(members), n_states, 1), "policy evaluation")
        for i, pair in zip(members, pairs):
            values[i] = pair[1, :, 0].copy()
    return values


def action_values(mdp: TabularMdp, v: np.ndarray) -> np.ndarray:
    """Q(s, a) = r(s, a) + gamma * sum_s' P(s'|s,a) V(s')."""
    return mdp.rewards + mdp.gamma * np.einsum("sat,t->sa", mdp.transitions, v)


def discounted_visitation(mdp: TabularMdp, policy: np.ndarray) -> np.ndarray:
    """Normalized discounted state occupancy, solved exactly:
    d = (1 - gamma) * (I - gamma * P_pi^T)^-1 rho0."""
    p_pi = policy_transition(mdp, policy)
    eye = np.eye(mdp.n_states)
    d = (1.0 - mdp.gamma) * np.linalg.solve(eye - mdp.gamma * p_pi.T, mdp.initial_dist)
    return d


def greedy_projection(policy: np.ndarray) -> np.ndarray:
    """One-hot rows at each state's argmax (ties break to the lowest index)."""
    out = np.zeros_like(policy)
    out[np.arange(policy.shape[0]), np.argmax(policy, axis=1)] = 1.0
    return out


@dataclass
class MixedPolicyResult:
    mixed: np.ndarray
    omega: float
    intervened: np.ndarray       # (S,) bool
    d_mix: np.ndarray
    v_teacher: np.ndarray


def build_mixed_policy(teachers: Sequence[np.ndarray], students: Sequence[np.ndarray],
                       mdps: Sequence[TabularMdp], tolerance: float) -> list[MixedPolicyResult]:
    """Apply the Q-gap switch state by state using each teacher's exact
    action values: the teacher's row replaces the student's wherever
    Q_t(s, argmax teacher) - Q_t(s, argmax student) exceeds the tolerance.
    omega is the intervened-state mass under the mixed policy's discounted
    visitation. One result per (teacher, student, MDP) triple."""
    teachers, students = _validate_all(mdps, teachers), _validate_all(mdps, students)
    results = []
    for mdp, teacher, student, v_teacher in zip(mdps, teachers, students,
                                                 exact_policy_value(mdps, teachers)):
        q_teacher = action_values(mdp, v_teacher)
        a_t = np.argmax(teacher, axis=1)
        a_s = np.argmax(student, axis=1)
        states = np.arange(mdp.n_states)
        gap = q_teacher[states, a_t] - q_teacher[states, a_s]
        intervened = gap > tolerance

        mixed = np.where(intervened[:, None], teacher, student)
        d_mix = discounted_visitation(mdp, mixed)
        # float summation can drift a hair past 1; omega is a probability mass
        omega = float(np.clip(d_mix[intervened].sum(), 0.0, 1.0))
        results.append(MixedPolicyResult(mixed=mixed, omega=omega, intervened=intervened,
                                         d_mix=d_mix, v_teacher=v_teacher))
    return results


@dataclass
class ImprovementReport:
    margin: float                # J_mix - J_teacher (greedy representatives)
    j_mix: float
    j_teacher: float
    omega: float
    pointwise_min_margin: float


def check_mixed_policy_improvement(mdps: Sequence[TabularMdp],
                                   teachers: Sequence[np.ndarray],
                                   students: Sequence[np.ndarray],
                                   tolerance: float = 0.0) -> list[ImprovementReport]:
    """Certify, per instance, that switching cannot hurt the teacher's return.

    The guarantee's premise is greedy selection on exact Q values, so both
    policies are projected to their deterministic representatives before
    mixing. At zero tolerance the mixed action at every state has teacher-Q
    at least the teacher's own, which is classical policy improvement.
    """
    t_greedy = [greedy_projection(t) for t in _validate_all(mdps, teachers)]
    s_greedy = [greedy_projection(s) for s in _validate_all(mdps, students)]
    results = build_mixed_policy(t_greedy, s_greedy, mdps, tolerance)
    reports = []
    for mdp, result, v_mix in zip(mdps, results,
                                  exact_policy_value(mdps, [r.mixed for r in results])):
        j_mix = float(mdp.initial_dist @ v_mix)
        j_teacher = float(mdp.initial_dist @ result.v_teacher)
        reports.append(ImprovementReport(
            margin=j_mix - j_teacher, j_mix=j_mix, j_teacher=j_teacher,
            omega=result.omega,
            pointwise_min_margin=float(np.min(v_mix - result.v_teacher)),
        ))
    return reports


@dataclass
class BoundReport:
    lhs: float                   # |J_mix - J_teacher|
    rhs: float                   # bound value
    slack: float                 # rhs - lhs
    j_mix: float
    j_teacher: float
    omega: float
    visitation_mass: float       # sum of d_mix, should be 1


def check_performance_bound(mdps: Sequence[TabularMdp], teachers: Sequence[np.ndarray],
                            students: Sequence[np.ndarray],
                            tolerance: float = 0.0) -> list[BoundReport]:
    """Evaluate both sides of the mixed-vs-teacher return bound exactly,
    per instance.

    The right-hand side uses the computable expectation of sqrt(KL) under
    the mixed policy's visitation.
    """
    teachers, students = _validate_all(mdps, teachers), _validate_all(mdps, students)
    results = build_mixed_policy(teachers, students, mdps, tolerance)
    v_mixes = exact_policy_value(mdps, [r.mixed for r in results])
    reports = []
    for mdp, teacher, student, result, v_mix in zip(mdps, teachers, students, results,
                                                    v_mixes):
        j_mix = float(mdp.initial_dist @ v_mix)
        j_teacher = float(mdp.initial_dist @ result.v_teacher)
        lhs = abs(j_mix - j_teacher)

        # KL as written here, not ppo_core.kl_penalty: that rounds differently,
        # and these bits are in every theory_report.json
        s_floor = np.maximum(student, 1e-12)
        kl_per_state = np.where(teacher > 0,
                                teacher * (np.log(np.maximum(teacher, 1e-300)) - np.log(s_floor)),
                                0.0).sum(axis=1)
        expected_sqrt_kl = float(result.d_mix @ np.sqrt(np.maximum(kl_per_state, 0.0)))
        rhs = (np.sqrt(2.0) * (1.0 - result.omega) * mdp.r_max
               / (1.0 - mdp.gamma) ** 2 * expected_sqrt_kl)

        reports.append(BoundReport(
            lhs=lhs, rhs=float(rhs), slack=float(rhs - lhs),
            j_mix=j_mix, j_teacher=j_teacher, omega=result.omega,
            visitation_mass=float(result.d_mix.sum()),
        ))
    return reports


def random_mdp(rng: np.random.Generator, max_states: int = 20,
               max_actions: int = 4) -> TabularMdp:
    """Dirichlet(1) transition rows, uniform rewards in [-1, 1]."""
    n_s = int(rng.integers(min(2, max_states), max_states + 1))
    n_a = int(rng.integers(2, max_actions + 1))
    transitions = rng.dirichlet(np.ones(n_s), size=(n_s, n_a))
    rewards = rng.uniform(-1.0, 1.0, size=(n_s, n_a))
    gamma = float(rng.uniform(0.8, 0.95))
    initial = rng.dirichlet(np.ones(n_s))
    return TabularMdp(transitions=transitions, rewards=rewards, gamma=gamma,
                      initial_dist=initial)


def random_policy(rng: np.random.Generator, n_states: int, n_actions: int,
                  deterministic: bool = False) -> np.ndarray:
    if deterministic:
        policy = np.zeros((n_states, n_actions))
        policy[np.arange(n_states), rng.integers(0, n_actions, size=n_states)] = 1.0
        return policy
    return rng.dirichlet(np.ones(n_actions), size=n_states)


def run_sweep(n_instances: int = 100, seed: int = 0, max_states: int = 20,
              max_actions: int = 4, tolerance: float = 0.0) -> tuple[list[dict], bool]:
    """Random-instance certification sweep.

    Every instance draws an MDP plus stochastic teacher/student tables; the
    improvement check internally uses their greedy representatives. The
    instances are drawn and certified in chunks of ``_SWEEP_CHUNK``; the
    checks draw nothing from the rng, so the draws are those of one
    instance at a time. Returns per-instance report rows and an overall
    pass flag (improvement margin >= -1e-9 and bound slack >= 0 everywhere).
    """
    rng = np.random.default_rng(seed)
    rows = []
    for first in range(0, n_instances, _SWEEP_CHUNK):
        mdps, teachers, students = [], [], []
        for _ in range(min(_SWEEP_CHUNK, n_instances - first)):
            mdp = random_mdp(rng, max_states=max_states, max_actions=max_actions)
            mdps.append(mdp)
            teachers.append(random_policy(rng, mdp.n_states, mdp.n_actions))
            students.append(random_policy(rng, mdp.n_states, mdp.n_actions))
        bounds = check_performance_bound(mdps, teachers, students, tolerance)
        improvs = check_mixed_policy_improvement(mdps, teachers, students, tolerance)
        for mdp, bound, improv in zip(mdps, bounds, improvs):
            rows.append({
                "instance": len(rows),
                "n_states": mdp.n_states,
                "n_actions": mdp.n_actions,
                "gamma": mdp.gamma,
                "J_teacher": bound.j_teacher,
                "J_mix": bound.j_mix,
                "omega": bound.omega,
                "bound_lhs": bound.lhs,
                "bound_rhs": bound.rhs,
                "slack": bound.slack,
                "improvement_margin": improv.margin,
                "visitation_mass": bound.visitation_mass,
                "pass": improv.margin >= -1e-9 and bound.slack >= 0.0,
            })
    return rows, all(row["pass"] for row in rows)
