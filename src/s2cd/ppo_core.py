"""Baseline PPO: rollout collection, GAE advantages, clipped surrogate
loss with value and entropy terms, minibatched epoch updates. The rollout
buffer, the update loop and the result type also serve S2CD training,
which passes its own rows and loss.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .highway_sim import Action, check_number_fields
from .tensor_nn import (
    DenseNet,
    GradientError,
    Head,
    NetSpec,
    OptimState,
    adamw_step,
)


class TrainingAborted(RuntimeError):
    """Raised when an update hits non-finite numbers; carries diagnostics."""

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


@dataclass
class HyperParams:
    gamma: float = 0.96
    gae_lambda: float = 0.98
    clip_eps: float = 0.2
    entropy_beta: float = 0.01
    minibatch: int = 64
    update_epochs: int = 8
    value_coef: float = 0.5
    rollout_steps: int = 5000
    total_steps: int = 100_000
    base_lr: float = 0.0005
    lr_decay: bool = True
    ratio_logclamp: float = 30.0

    def __post_init__(self) -> None:
        check_number_fields(self)
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError("gamma must lie in [0, 1)")
        if not 0.0 < self.clip_eps < 1.0:
            raise ValueError("clip_eps must lie in (0, 1)")
        if not 0.0 <= self.gae_lambda <= 1.0:
            raise ValueError("gae_lambda must lie in [0, 1]")
        if min(self.minibatch, self.update_epochs, self.rollout_steps, self.total_steps) < 1:
            raise ValueError("minibatch, update_epochs, rollout_steps and total_steps "
                             "must be positive")


@dataclass
class Transition:
    obs: np.ndarray
    action: int
    logprob_old: float
    reward: float
    value: float
    done: bool
    executed: bool = True


class RolloutBuffer:
    """Rows of one collection phase plus their advantages and returns.

    Executed rows form the trajectory, in order. A synthetic row
    (``executed=False``) is an action that was not taken, with a predicted
    reward, at the state of the executed row it follows, and shares that
    row's value and done flag. Plain PPO stores executed rows only.
    """

    def __init__(self):
        self.rows: list[Transition] = []
        self.advantages: np.ndarray | None = None
        self.returns: np.ndarray | None = None

    def add(self, row: Transition) -> None:
        self.rows.append(row)

    def __len__(self) -> int:
        return len(self.rows)

    def finalize(self, hp: HyperParams, bootstrap_value: float) -> None:
        """GAE over the executed rows; each synthetic row gets the one-step
        TD residual of its predicted reward. All advantages are normalized
        jointly."""
        executed = np.array([r.executed for r in self.rows], dtype=bool)
        rewards = np.array([r.reward for r in self.rows])
        values = np.array([r.value for r in self.rows])[executed]
        dones = np.array([r.done for r in self.rows], dtype=bool)[executed]
        adv_exec, ret_exec = compute_gae(rewards[executed], values, dones, hp.gamma,
                                         hp.gae_lambda, bootstrap_value)
        synthetic = ~executed
        # index of the executed row that each synthetic row follows
        i = np.cumsum(executed)[synthetic] - 1
        next_values = np.append(values[1:], bootstrap_value)
        nonterminal = np.where(dones[i], 0.0, 1.0)
        td = rewards[synthetic] + hp.gamma * next_values[i] * nonterminal - values[i]

        adv = np.empty(len(self.rows))
        ret = np.empty(len(self.rows))
        adv[executed], ret[executed] = adv_exec, ret_exec
        adv[synthetic], ret[synthetic] = td, td + values[i]
        self.advantages = normalize_advantages(adv)
        self.returns = ret

    def batch(self) -> dict[str, np.ndarray]:
        return {
            "obs": np.stack([r.obs for r in self.rows]),
            "actions": np.array([r.action for r in self.rows], dtype=np.int64),
            "logprob_old": np.array([r.logprob_old for r in self.rows]),
            "advantages": self.advantages,
            "returns": self.returns,
        }

    def clear(self) -> None:
        self.rows = []
        self.advantages = None
        self.returns = None


def normalize_advantages(adv: np.ndarray) -> np.ndarray:
    return (adv - adv.mean()) / (adv.std() + 1e-8)


def compute_gae(rewards: np.ndarray, values: np.ndarray, dones: np.ndarray,
                gamma: float, lam: float, bootstrap_value: float) -> tuple[np.ndarray, np.ndarray]:
    """Exponentially weighted advantage estimates and value targets.

    ``bootstrap_value`` is V of the state following the last transition
    (ignored when that transition terminated an episode).
    """
    n = len(rewards)
    if not (len(values) == len(dones) == n):
        raise ValueError("rewards, values and dones must have equal length")
    advantages = np.zeros(n)
    last_adv = 0.0
    for t in range(n - 1, -1, -1):
        next_value = bootstrap_value if t == n - 1 else values[t + 1]
        nonterminal = 0.0 if dones[t] else 1.0
        delta = rewards[t] + gamma * next_value * nonterminal - values[t]
        last_adv = delta + gamma * lam * nonterminal * last_adv
        advantages[t] = last_adv
    return advantages, advantages + values


def ppo_loss(batch: dict[str, np.ndarray], policy_net: DenseNet, value_net: DenseNet,
             hp: HyperParams) -> tuple[float, dict[str, np.ndarray], dict]:
    """Clipped-surrogate loss with value and entropy terms.

    Returns (scalar loss, {"actor": grad, "critic": grad}, stats). The
    minimized loss is -surrogate + value_coef*(V-return)^2 - beta*entropy.
    """
    obs = batch["obs"]
    actions = batch["actions"]
    adv = batch["advantages"]
    returns = batch["returns"]
    n = len(actions)

    probs, cache = policy_net.forward(obs)
    log_probs = policy_net.policy_log_probs(cache)
    lp_new = log_probs[np.arange(n), actions]

    delta = lp_new - batch["logprob_old"]
    clamped = np.abs(delta) > hp.ratio_logclamp
    ratio = np.exp(np.clip(delta, -hp.ratio_logclamp, hp.ratio_logclamp))

    lo = 1.0 - hp.clip_eps
    hi = 1.0 + hp.clip_eps
    unclipped = ratio * adv
    clipped = np.clip(ratio, lo, hi) * adv
    per_sample = np.minimum(unclipped, clipped)
    surrogate = per_sample.mean()

    entropy = -(np.exp(log_probs) * log_probs).sum(axis=1)
    values, vcache = value_net.forward(obs)
    value_err = values - returns
    value_loss = float(np.mean(value_err ** 2))

    loss = float(-surrogate + hp.value_coef * value_loss - hp.entropy_beta * entropy.mean())

    # Gradient of -surrogate w.r.t. lp_new: derivative passes through iff the
    # unclipped branch is active or the ratio sits inside the clip interval.
    active = (unclipped <= clipped) | ((ratio > lo) & (ratio < hi))
    dlp = np.where(active & ~clamped, ratio * adv, 0.0) * (-1.0 / n)
    onehot = np.zeros_like(log_probs)
    onehot[np.arange(n), actions] = 1.0
    dlogits = dlp[:, None] * (onehot - probs)
    # entropy bonus: d(-beta*mean(H))/dlogits
    dlogits += (hp.entropy_beta / n) * probs * (log_probs + entropy[:, None])
    actor_grad = policy_net.backward_from_logits(cache, dlogits)

    critic_grad = value_net.backward(vcache, (2.0 * hp.value_coef / n) * value_err)

    stats = {
        "per_sample_surrogate": per_sample,
        "clip_bounds": (np.full(n, lo), np.full(n, hi)),
        "entropy": float(entropy.mean()),
        "value_loss": value_loss,
        "approx_kl": float(np.mean(batch["logprob_old"] - lp_new)),
        "ratio_clamped": int(clamped.sum()),
        "clip_fraction": float(np.mean((ratio < lo) | (ratio > hi))),
    }
    return loss, {"actor": actor_grad, "critic": critic_grad}, stats


@dataclass
class PhaseMetrics:
    step: int
    mean_return: float
    mean_cost: float
    mean_speed: float
    collisions: int
    entropy: float
    kl: float
    intervention_rate: float = 0.0

    def row(self) -> dict:
        return dict(step=self.step, mean_return=self.mean_return, mean_cost=self.mean_cost,
                    mean_speed=self.mean_speed, collisions=self.collisions,
                    entropy=self.entropy, kl=self.kl,
                    intervention_rate=self.intervention_rate)


@dataclass
class TrainResult:
    actor: DenseNet
    critic: DenseNet
    metrics: list[PhaseMetrics]


class EpisodeTracker:
    """Running episodic statistics over a collection phase."""

    def __init__(self):
        self.ep_return = 0.0
        self.ep_cost = 0.0
        self.completed_returns: list[float] = []
        self.completed_costs: list[float] = []
        self.speeds: list[float] = []
        self.collisions = 0

    def record(self, reward, events, speed: float) -> None:
        self.ep_return += reward.total
        self.ep_cost += reward.cost
        self.speeds.append(speed)
        if events.collision:
            self.collisions += 1
        if events.episode_done:
            self.completed_returns.append(self.ep_return)
            self.completed_costs.append(self.ep_cost)
            self.ep_return = 0.0
            self.ep_cost = 0.0

    def phase_summary(self) -> tuple[float, float, float, int]:
        mean_ret = float(np.mean(self.completed_returns)) if self.completed_returns else 0.0
        mean_cost = float(np.mean(self.completed_costs)) if self.completed_costs else 0.0
        mean_speed = float(np.mean(self.speeds)) if self.speeds else 0.0
        return mean_ret, mean_cost, mean_speed, self.collisions

    def reset_phase(self) -> None:
        self.completed_returns = []
        self.completed_costs = []
        self.speeds = []
        self.collisions = 0


# rng.choice's tolerance on the sum of the probabilities it is given
_PROB_SUM_ATOL = math.sqrt(np.finfo(np.float64).eps)


def sample_action(probs: np.ndarray, rng: np.random.Generator) -> int:
    """``int(rng.choice(len(probs), p=probs / probs.sum()))`` without the
    argument handling: the same rejections, draw and generator state."""
    p = probs / np.add.reduce(probs)
    total = np.add.reduce(p)
    if math.isnan(total) or (p < 0.0).any() or abs(total - 1.0) > _PROB_SUM_ATOL:
        raise ValueError("probabilities must be non-negative and sum to 1")
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), "right"))


def train_ppo(env, hp: HyperParams, seed: int, transition_hook=None,
              phase_callback=None) -> TrainResult:
    """Train PPO on any env exposing reset()/step()/obs_dim/ego_speed().

    ``transition_hook(obs, action, reward, next_obs, done)`` observes every
    raw transition (used by the teacher pipeline). ``phase_callback`` gets
    each PhaseMetrics row as it is produced.
    """
    rng = np.random.default_rng(seed)
    actor = DenseNet.create(NetSpec(env.obs_dim, 3, head=Head.SOFTMAX_POLICY), rng)
    critic = DenseNet.create(NetSpec(env.obs_dim, 1, head=Head.SCALAR_VALUE), rng)
    opt_actor = OptimState.for_net(actor, base_lr=hp.base_lr, lr_decay=hp.lr_decay)
    opt_critic = OptimState.for_net(critic, base_lr=hp.base_lr, lr_decay=hp.lr_decay)

    buffer = RolloutBuffer()
    tracker = EpisodeTracker()
    metrics: list[PhaseMetrics] = []
    obs = env.reset()
    done = False
    n_phases = max(1, hp.total_steps // hp.rollout_steps)

    for phase in range(n_phases):
        tracker.reset_phase()
        entropies = []
        for _ in range(hp.rollout_steps):
            if done:
                obs = env.reset()
                done = False
            probs, cache = actor.forward(obs)
            log_probs = actor.policy_log_probs(cache)
            action = sample_action(probs, rng)
            value, _ = critic.forward(obs)
            next_obs, reward, events = env.step(Action(action))
            done = events.episode_done
            buffer.add(Transition(obs=obs, action=action,
                                  logprob_old=float(log_probs[action]),
                                  reward=reward.total, value=value, done=done))
            entropies.append(float(-np.add.reduce(probs * np.log(probs))))
            tracker.record(reward, events, env.ego_speed())
            if transition_hook is not None:
                transition_hook(obs, action, reward, next_obs, done, critic)
            obs = next_obs

        bootstrap = 0.0 if done else critic.forward(obs)[0]
        buffer.finalize(hp, bootstrap)
        progress = min(phase * hp.rollout_steps / hp.total_steps, 1.0)
        kl = _run_updates(buffer, actor, critic, opt_actor, opt_critic, hp, rng, progress)
        buffer.clear()

        mean_ret, mean_cost, mean_speed, collisions = tracker.phase_summary()
        row = PhaseMetrics(step=(phase + 1) * hp.rollout_steps, mean_return=mean_ret,
                           mean_cost=mean_cost, mean_speed=mean_speed,
                           collisions=collisions, entropy=float(np.mean(entropies)),
                           kl=kl)
        metrics.append(row)
        if phase_callback is not None:
            phase_callback(row)

    return TrainResult(actor=actor, critic=critic, metrics=metrics)


def _run_updates(buffer: RolloutBuffer, actor: DenseNet, critic: DenseNet,
                 opt_actor: OptimState, opt_critic: OptimState, hp: HyperParams,
                 rng: np.random.Generator, progress: float,
                 loss_fn=ppo_loss) -> float:
    """Minibatched epochs of ``loss_fn(minibatch, actor, critic, hp)`` over
    the buffer; returns post-update KL(old||new)."""
    batch = buffer.batch()
    n = len(batch["actions"])
    for _ in range(hp.update_epochs):
        order = rng.permutation(n)
        for start in range(0, n, hp.minibatch):
            idx = order[start : start + hp.minibatch]
            mini = {k: v[idx] for k, v in batch.items()}
            loss, grads, _ = loss_fn(mini, actor, critic, hp)
            if not np.isfinite(loss):
                raise TrainingAborted("non-finite loss", {"loss": loss,
                                                          "progress": progress})
            try:
                actor.params = adamw_step(opt_actor, actor.params, grads["actor"], progress)
                critic.params = adamw_step(opt_critic, critic.params, grads["critic"], progress)
            except GradientError as exc:
                raise TrainingAborted(str(exc), {"progress": progress}) from exc
    probs, cache = actor.forward(batch["obs"])
    lp_new = actor.policy_log_probs(cache)[np.arange(n), batch["actions"]]
    return float(np.mean(batch["logprob_old"] - lp_new))


def evaluate_actor(env, actor: DenseNet, episodes: int, max_steps: int = 5000) -> dict:
    """Greedy (argmax) evaluation; returns per-episode and aggregate metrics.

    Success means covering the full episode length without any collision.
    """
    rows = []
    for _ in range(episodes):
        obs = env.reset()
        ep_reward = 0.0
        ep_cost = 0.0
        speeds = []
        success = False
        for _ in range(max_steps):
            probs, _ = actor.forward(obs)
            obs, reward, events = env.step(Action(int(np.argmax(probs))))
            ep_reward += reward.efficiency
            ep_cost += reward.cost
            speeds.append(env.ego_speed())
            if events.episode_done:
                success = events.success
                break
        rows.append({
            "reward": ep_reward,
            "cost": ep_cost,
            "return": ep_reward - ep_cost,
            "speed": float(np.mean(speeds)) if speeds else 0.0,
            "success": bool(success),
        })
    return {
        "episodes": rows,
        "episodic_return": float(np.mean([r["return"] for r in rows])),
        "episodic_reward": float(np.mean([r["reward"] for r in rows])),
        "episodic_cost": float(np.mean([r["cost"] for r in rows])),
        "episodic_speed": float(np.mean([r["speed"] for r in rows])),
        "success_rate": 100.0 * float(np.mean([r["success"] for r in rows])),
    }
