"""Baseline PPO: rollout collection, GAE advantages, clipped surrogate
loss with value and entropy terms, minibatched epoch updates.

``train_phases`` is the one training loop: it owns the nets, the
optimizers, the collector state and the update schedule, and calls a
per-phase collection function. ``train_ppo`` supplies plain PPO's; the
teacher runs ``train_ppo`` and the S2CD student supplies its own.
``RolloutBuffer`` is the one rollout store: a collection adds rows of
named columns, each step holding only the work that picks its action;
``annotate_phase`` then adds the critic values and old log-probabilities
of the whole phase in one row-stacked pass, and ``finalize`` turns the
columns into the batch the updates read. The S2CD student's rows carry
three more columns than plain PPO's.
``ppo_loss`` is the one loss: plain PPO calls it with the symmetric clip
interval and no KL term, the S2CD student with per-row clip intervals
and a KL weight.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .highway_sim import Action, check_number_fields
from .tensor_nn import (
    DenseNet,
    GradientError,
    Head,
    NetSpec,
    OptimState,
    adamw_step,
    log_softmax,
    softmax,
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


class RolloutBuffer:
    """The columns of one collection phase, one list per batch key.

    Executed rows form the trajectory, in order. A synthetic row
    (``executed=False``) is an action that was not taken, with a predicted
    reward, at the state of the executed row it follows, and shares that
    row's value and done flag. Plain PPO stores executed rows only.
    """

    def __init__(self):
        self.columns: dict[str, list] = {}

    def add(self, **row) -> None:
        """Append one row. Every row names the same columns as the first."""
        if not self.columns:
            self.columns = {key: [] for key in row}
        elif row.keys() != self.columns.keys():
            raise ValueError(f"row columns {sorted(row)} differ from the buffer's "
                             f"{sorted(self.columns)}")
        for key, value in row.items():
            self.columns[key].append(value)

    def add_columns(self, **columns) -> None:
        """Add whole columns, one entry per row added so far: the values a
        phase computes in one pass once its rows are in."""
        n = len(self.columns["executed"])
        for key, column in columns.items():
            if key in self.columns or len(column) != n:
                raise ValueError(f"column {key!r} is already present or has not {n} entries")
            self.columns[key] = column

    def finalize(self, hp: HyperParams, bootstrap_value: float) -> dict[str, np.ndarray]:
        """The phase's batch: every column as an array, plus ``advantages``
        and ``returns``. GAE runs over the executed rows; each synthetic row
        gets the one-step TD residual of its predicted reward. All
        advantages are normalized jointly."""
        batch = {key: np.array(column) for key, column in self.columns.items()}
        executed = batch["executed"]
        rewards = batch["rewards"]
        values = batch["values"][executed]
        dones = batch["dones"][executed]
        adv_exec, ret_exec = compute_gae(rewards[executed], values, dones, hp.gamma,
                                         hp.gae_lambda, bootstrap_value)
        synthetic = ~executed
        # index of the executed row that each synthetic row follows
        i = np.cumsum(executed)[synthetic] - 1
        next_values = np.append(values[1:], bootstrap_value)
        nonterminal = np.where(dones[i], 0.0, 1.0)
        td = rewards[synthetic] + hp.gamma * next_values[i] * nonterminal - values[i]

        adv = np.empty(len(rewards))
        ret = np.empty(len(rewards))
        adv[executed], ret[executed] = adv_exec, ret_exec
        adv[synthetic], ret[synthetic] = td, td + values[i]
        batch["advantages"] = normalize_advantages(adv)
        batch["returns"] = ret
        return batch


def annotate_phase(buffer: RolloutBuffer, critic: DenseNet,
                   logits: list[np.ndarray]) -> np.ndarray:
    """Add the ``values`` and ``logprob_old`` columns to a collected phase;
    returns the action probabilities of its steps, one row per step.

    ``logits`` holds the actor's (1, 3) logits of each step, in order; the
    executed rows are the steps, and a synthetic row shares the step of the
    executed row it follows. A row's value is the critic's at its
    observation, from one row-stacked pass over the steps' observations,
    and its ``logprob_old`` the log-probability of its action under its
    step's logits. The nets do not change within a phase, so every entry
    has the bits that a per-step forward and log-softmax would give.
    """
    columns = buffer.columns
    executed = np.array(columns["executed"])
    step = np.cumsum(executed) - 1
    logits = np.concatenate(logits)
    values = critic.forward_rows(np.array(columns["obs"])[executed])
    buffer.add_columns(values=values[step],
                       logprob_old=log_softmax(logits)[step, columns["actions"]])
    return softmax(logits)


def policy_entropy(probs: np.ndarray) -> np.ndarray:
    """Entropy of each row of action probabilities (the last axis)."""
    return -np.add.reduce(probs * np.log(probs), axis=-1)


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
             hp: HyperParams, bounds: tuple[np.ndarray, np.ndarray] | None = None,
             kl_weight: float = 0.0) -> tuple[float, dict[str, np.ndarray], dict]:
    """The clipped-surrogate loss of plain PPO and of S2CD.

    Returns (scalar loss, {"actor": grad, "critic": grad}, stats), where
    stats holds the per-row ``per_sample_surrogate`` and ``mean_kl``. The
    minimized loss is -surrogate + value_coef*(V-return)^2 - beta*entropy
    + kl_weight*KL(teacher || policy). The surrogate runs over every row;
    the value, entropy and KL terms over the rows marked in
    ``batch["executed"]``, which are all of a plain PPO batch. ``bounds``
    is the per-row ratio clip interval (lo, hi), ``1 -+ clip_eps`` by
    default. Only a positive ``kl_weight`` reads ``batch["teacher_probs"]``;
    without it the ``mean_kl`` stat is 0.
    """
    obs = batch["obs"]
    actions = batch["actions"]
    adv = batch["advantages"]
    n = len(actions)
    if bounds is None:
        bounds = (np.full(n, 1.0 - hp.clip_eps), np.full(n, 1.0 + hp.clip_eps))
    lo, hi = bounds

    probs, cache = policy_net.forward(obs)
    log_probs = policy_net.policy_log_probs(cache)
    lp_new = log_probs[np.arange(n), actions]
    delta = lp_new - batch["logprob_old"]
    clamped = np.abs(delta) > hp.ratio_logclamp
    ratio = np.exp(np.clip(delta, -hp.ratio_logclamp, hp.ratio_logclamp))

    unclipped = ratio * adv
    clipped = np.clip(ratio, lo, hi) * adv
    per_sample = np.minimum(unclipped, clipped)
    surrogate = per_sample.mean()

    executed = batch["executed"]
    n_exec = int(executed.sum())
    entropy = -(np.exp(log_probs) * log_probs).sum(axis=1)
    values, vcache = value_net.forward(obs)
    value_err = values - batch["returns"]

    # Gradient of -surrogate w.r.t. lp_new: derivative passes through iff the
    # unclipped branch is active or the ratio sits inside the clip interval.
    active = (unclipped <= clipped) | ((ratio > lo) & (ratio < hi))
    dlp = np.where(active & ~clamped, ratio * adv, 0.0) * (-1.0 / n)
    onehot = np.zeros_like(log_probs)
    onehot[np.arange(n), actions] = 1.0
    dlogits = dlp[:, None] * (onehot - probs)
    value_loss = mean_entropy = mean_kl = 0.0
    if n_exec > 0:
        value_loss = float(np.mean(value_err[executed] ** 2))
        mean_entropy = float(entropy[executed].mean())
        exec_col = executed[:, None]
        # entropy bonus on executed rows
        dlogits += np.where(exec_col, (hp.entropy_beta / n_exec) * probs
                            * (log_probs + entropy[:, None]), 0.0)
        if kl_weight > 0.0:
            t_probs = batch["teacher_probs"]
            kl_terms = np.where(t_probs > 0, t_probs * (np.log(np.maximum(t_probs, 1e-300))
                                                        - np.log(np.maximum(probs, 1e-12))),
                                0.0).sum(axis=1)
            mean_kl = float(kl_terms[executed].mean())
            # KL(teacher || student) gradient w.r.t. logits is (student - teacher)
            dlogits += np.where(exec_col, (kl_weight / n_exec) * (probs - t_probs), 0.0)
    loss = float(-surrogate + hp.value_coef * value_loss
                 - hp.entropy_beta * mean_entropy + kl_weight * mean_kl)
    actor_grad = policy_net.backward_from_logits(cache, dlogits)

    dv = np.where(executed, value_err, 0.0) * (2.0 * hp.value_coef / max(n_exec, 1))
    critic_grad = value_net.backward_from_logits(vcache, dv[:, None])

    stats = {"per_sample_surrogate": per_sample, "mean_kl": mean_kl}
    return loss, {"actor": actor_grad, "critic": critic_grad}, stats


@dataclass
class PhaseMetrics:
    """One row of ``metrics.csv``. Plain PPO leaves the teacher fields at
    their defaults; the CLI writes them for S2CD runs only."""
    step: int
    mean_return: float
    mean_cost: float
    mean_speed: float
    collisions: int
    entropy: float
    kl: float
    intervention_rate: float = 0.0
    tau: float = 0.0
    mean_kl: float = 0.0
    teacher_sample_fraction: float = 0.0

    def row(self) -> dict:
        return asdict(self)


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


@dataclass
class CollectorState:
    """Where collection stands between phases: the next observation and
    whether the last step ended an episode. ``episodes`` counts ended
    episodes for a collector that schedules by them (the S2CD switch)."""
    obs: np.ndarray
    done: bool = False
    episodes: int = 0


def train_phases(env, hp: HyperParams, seed: int, collect, on_phase=None) -> TrainResult:
    """The training loop of plain PPO, the teacher and the S2CD student.

    Each phase ``collect(actor, critic, rng, state, buffer, tracker)`` fills
    a fresh ``RolloutBuffer`` with ``hp.rollout_steps`` steps and returns
    the phase's loss function and its non-episodic ``PhaseMetrics`` fields.
    The loop then bootstraps, finalizes the buffer into the phase's batch,
    calls ``on_phase(batch, bootstrap)`` when given and runs the
    minibatched updates on the batch.
    """
    rng = np.random.default_rng(seed)
    actor = DenseNet.create(NetSpec(env.obs_dim, 3, head=Head.SOFTMAX_POLICY), rng)
    critic = DenseNet.create(NetSpec(env.obs_dim, 1, head=Head.SCALAR_VALUE), rng)
    opt_actor = OptimState.for_net(actor, base_lr=hp.base_lr, lr_decay=hp.lr_decay)
    opt_critic = OptimState.for_net(critic, base_lr=hp.base_lr, lr_decay=hp.lr_decay)

    tracker = EpisodeTracker()
    state = CollectorState(obs=env.reset())
    metrics: list[PhaseMetrics] = []
    n_phases = max(1, hp.total_steps // hp.rollout_steps)

    for phase in range(n_phases):
        tracker.reset_phase()
        buffer = RolloutBuffer()
        loss_fn, fields = collect(actor, critic, rng, state, buffer, tracker)
        bootstrap = 0.0 if state.done else critic.forward(state.obs)[0]
        batch = buffer.finalize(hp, bootstrap)
        if on_phase is not None:
            on_phase(batch, bootstrap)
        progress = min(phase * hp.rollout_steps / hp.total_steps, 1.0)
        kl = _run_updates(batch, actor, critic, opt_actor, opt_critic, hp, rng, progress,
                          loss_fn)
        del batch  # the next phase collects without this phase's arrays alive
        metrics.append(PhaseMetrics((phase + 1) * hp.rollout_steps,
                                    *tracker.phase_summary(), kl=kl, **fields))

    return TrainResult(actor=actor, critic=critic, metrics=metrics)


def train_ppo(env, hp: HyperParams, seed: int, on_phase=None) -> TrainResult:
    """Train PPO on any env exposing reset()/step()/obs_dim/ego_speed().
    ``on_phase`` is passed to ``train_phases``."""

    def collect(actor, critic, rng, state, buffer, tracker):
        logits = []
        for _ in range(hp.rollout_steps):
            if state.done:
                state.obs = env.reset()
                state.done = False
            obs = state.obs
            probs, (_, step_logits, _, _) = actor.forward(obs)
            action = sample_action(probs, rng)
            state.obs, reward, events = env.step(Action(action))
            state.done = events.episode_done
            buffer.add(obs=obs, actions=action, rewards=reward.total, dones=state.done,
                       executed=True)
            logits.append(step_logits)
            tracker.record(reward, events, env.ego_speed())
        probs = annotate_phase(buffer, critic, logits)
        return ppo_loss, {"entropy": float(np.mean(policy_entropy(probs)))}

    return train_phases(env, hp, seed, collect, on_phase)


def _run_updates(batch: dict[str, np.ndarray], actor: DenseNet, critic: DenseNet,
                 opt_actor: OptimState, opt_critic: OptimState, hp: HyperParams,
                 rng: np.random.Generator, progress: float,
                 loss_fn=ppo_loss) -> float:
    """Minibatched epochs of ``loss_fn(minibatch, actor, critic, hp)`` over
    the finalized batch; returns post-update KL(old||new)."""
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


# Step cap of one evaluation episode, above the simulator's own
# MAX_DECISION_STEPS, which ends every episode first.
EVAL_MAX_STEPS = 5000


def evaluate_actor(env, actor: DenseNet, episodes: int) -> dict:
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
        for _ in range(EVAL_MAX_STEPS):
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
