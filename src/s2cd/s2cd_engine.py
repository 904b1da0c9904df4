"""Teacher-gated student training on the complex world.

Per decision step the teacher proposes an action with predicted reward and
Q-values; the student samples from its own policy over the teacher-augmented
observation; a Q-gap switch decides who drives. Executed transitions (plus
teacher-predicted alternatives, when dual-source collection is on) feed an
adaptive-clip PPO loss with a decaying KL pull toward the teacher. The
weaning coefficient tau shrinks the switch threshold slack, the clip
asymmetry and the KL weight together, so the objective falls back to plain
PPO as training progresses.

The rollout rows, buffer, update loop and result type are PPO's from
``ppo_core``: ``DualTransition`` adds a row's origin, teacher probabilities
and clip modulation to ``Transition``, ``DualRolloutBuffer`` only adds
those columns to the batch, and ``train_s2cd`` runs ``ppo_core``'s update
loop with ``s2cd_loss`` at the phase's tau.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import partial

import numpy as np

from .highway_sim import Action, check_number_fields
from .mdp_interface import HighwayEnv

# compute_gae and adamw_step are not called here, but benchmarks/tracer.py
# wraps this module's binding of each and cannot install without them.
from .ppo_core import (
    EpisodeTracker,
    HyperParams,
    PhaseMetrics,
    RolloutBuffer,
    TrainResult,
    Transition,
    _run_updates,
    compute_gae,
    sample_action,
)
from .tensor_nn import (
    DenseNet,
    Head,
    NetSpec,
    OptimState,
    adamw_step,
)
from .teacher_suite import Advice, TeacherBundle, teacher_advise


class Origin(str, Enum):
    STUDENT = "student"
    TEACHER = "teacher"


@dataclass(frozen=True)
class SwitchConfig:
    tolerance_eps: float = 0.5
    q1: float = 3.0
    q2: float = 10.0

    def __post_init__(self) -> None:
        check_number_fields(self)
        if self.tolerance_eps <= 0 or self.q1 <= 0:
            raise ValueError("tolerance_eps and q1 must be positive")


@dataclass
class S2cdHyper(HyperParams):
    psi: float = 0.2              # adaptive-clip scale
    xi: float = 0.01              # KL Lagrange multiplier (fixed)
    dual_source: bool = True
    adaptive_clip: bool = True
    kl_constraint: bool = True
    intervention_decay: bool = True
    sample_actions: bool = True   # sample during training, argmax at eval

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 <= self.psi <= self.clip_eps:
            raise ValueError("psi must lie in [0, clip_eps]")
        if self.xi < 0:
            raise ValueError("xi must be nonnegative")


def decay_tau(n_episodes: int, cfg: SwitchConfig, enabled: bool = True) -> float:
    """Weaning coefficient: a reversed sigmoid in the episode count,
    starting near 1 and decaying to 0. With decay disabled it stays 1."""
    if n_episodes < 0:
        raise ValueError("episode count must be nonnegative")
    if not enabled:
        return 1.0
    x = n_episodes / cfg.q1 - cfg.q2
    if x >= 0:
        e = math.exp(-x) if x < 745.0 else 0.0
        tau = e / (1.0 + e)
    else:
        tau = 1.0 / (1.0 + math.exp(x))
    return max(tau, 5e-324)  # keep strictly inside (0, 1)


def switch_action(q_teacher: float, q_student: float, tau: float,
                  cfg: SwitchConfig) -> tuple[Origin, bool]:
    """Teacher overrides iff its Q advantage clears the tolerance threshold
    (1 - tau) * eps, which widens as training progresses."""
    intervene = (q_teacher - q_student) > (1.0 - tau) * cfg.tolerance_eps
    return (Origin.TEACHER if intervene else Origin.STUDENT), intervene


def adaptive_epsilon(p_student: float, p_teacher: float, psi: float) -> float:
    """Clip-range modulation from the student policy's probabilities of its
    own and the teacher's action; always lands in [0, psi]."""
    return psi * ((p_student - p_teacher) + 1.0) / 2.0


def kl_penalty(teacher_probs: np.ndarray, student_probs: np.ndarray) -> float:
    """KL(teacher || student) over the 3 actions; the student side is
    floored so the result stays finite."""
    t = np.asarray(teacher_probs, dtype=np.float64)
    s = np.maximum(np.asarray(student_probs, dtype=np.float64), 1e-12)
    mask = t > 0.0
    return float(np.add.reduce(t[mask] * np.log(t[mask] / s[mask])))


def augment_observation(obs: np.ndarray, teacher_action: int) -> np.ndarray:
    """Base observation concatenated with a one-hot of the teacher's action."""
    onehot = np.zeros(3)
    onehot[teacher_action] = 1.0
    return np.concatenate([np.asarray(obs, dtype=np.float64), onehot])


@dataclass(kw_only=True)
class DualTransition(Transition):
    """A row of the student's rollout. ``obs`` is the augmented
    observation; a synthetic row's ``reward`` is the return net's
    prediction for the teacher's action."""
    origin: Origin
    teacher_probs: np.ndarray
    eps_prime: float


class DualRolloutBuffer(RolloutBuffer):
    """The PPO rollout buffer, whose batch also carries what the S2CD loss
    needs: sample origin, clip modulation, teacher probabilities and which
    rows were executed."""

    def batch(self) -> dict[str, np.ndarray]:
        return {
            **super().batch(),
            "teacher_origin": np.array([r.origin is Origin.TEACHER for r in self.rows]),
            "eps_prime": np.array([r.eps_prime for r in self.rows]),
            "teacher_probs": np.stack([r.teacher_probs for r in self.rows]),
            "executed": np.array([r.executed for r in self.rows]),
        }


def clip_bounds(teacher_origin: np.ndarray, eps: float,
                tau_eps_prime: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample ratio clip interval. Teacher-origin samples get the wider
    upside [1-(eps-te), 1+(eps+te)]; student-origin samples the narrower
    [1-(eps+te), 1+(eps-te)]."""
    lo = np.where(teacher_origin, 1.0 - (eps - tau_eps_prime), 1.0 - (eps + tau_eps_prime))
    hi = np.where(teacher_origin, 1.0 + (eps + tau_eps_prime), 1.0 + (eps - tau_eps_prime))
    return lo, hi


def s2cd_loss(batch: dict[str, np.ndarray], policy_net: DenseNet, value_net: DenseNet,
              hp: S2cdHyper, tau: float) -> tuple[float, dict[str, np.ndarray], dict]:
    """Dual-source adaptive-clip surrogate with the decaying KL pull.

    Value, entropy and KL terms run over executed rows only; the surrogate
    runs over every row. With tau == 0 (or adaptive clipping and the KL
    constraint both off) each per-sample term reduces exactly to the plain
    clipped-surrogate loss.
    """
    obs = batch["obs"]
    actions = batch["actions"]
    adv = batch["advantages"]
    n = len(actions)

    eps_prime = batch["eps_prime"] if hp.adaptive_clip else np.zeros(n)
    te = tau * eps_prime
    if np.any(te > hp.clip_eps + 1e-12):
        raise ValueError("tau * eps_prime exceeds clip_eps; interval degenerates")
    lo, hi = clip_bounds(batch["teacher_origin"], hp.clip_eps, te)

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

    t_probs = batch["teacher_probs"]
    s_floor = np.maximum(probs, 1e-12)
    kl_terms = np.where(t_probs > 0, t_probs * (np.log(np.maximum(t_probs, 1e-300)) - np.log(s_floor)), 0.0).sum(axis=1)

    if n_exec > 0:
        value_loss = float(np.mean(value_err[executed] ** 2))
        mean_entropy = float(entropy[executed].mean())
        mean_kl = float(kl_terms[executed].mean())
    else:
        value_loss = 0.0
        mean_entropy = 0.0
        mean_kl = 0.0

    kl_weight = tau * hp.xi if hp.kl_constraint else 0.0
    loss = float(-surrogate + hp.value_coef * value_loss
                 - hp.entropy_beta * mean_entropy + kl_weight * mean_kl)

    # surrogate gradient: flows when unclipped branch wins or ratio is interior
    active = (unclipped <= clipped) | ((ratio > lo) & (ratio < hi))
    dlp = np.where(active & ~clamped, ratio * adv, 0.0) * (-1.0 / n)
    onehot = np.zeros_like(log_probs)
    onehot[np.arange(n), actions] = 1.0
    dlogits = dlp[:, None] * (onehot - probs)
    if n_exec > 0:
        exec_col = executed[:, None]
        # entropy bonus on executed rows
        dlogits += np.where(exec_col, (hp.entropy_beta / n_exec) * probs
                            * (log_probs + entropy[:, None]), 0.0)
        # KL(teacher || student) gradient w.r.t. logits is (student - teacher)
        if kl_weight > 0.0:
            dlogits += np.where(exec_col, (kl_weight / n_exec) * (probs - t_probs), 0.0)
    actor_grad = policy_net.backward_from_logits(cache, dlogits)

    dv = np.where(executed, value_err, 0.0) * (2.0 * hp.value_coef / max(n_exec, 1))
    critic_grad = value_net.backward(vcache, dv)

    stats = {
        "per_sample_surrogate": per_sample,
        "clip_bounds": (lo, hi),
        "entropy": mean_entropy,
        "value_loss": value_loss,
        "mean_kl": mean_kl,
        "approx_kl": float(np.mean(batch["logprob_old"] - lp_new)),
        "ratio_clamped": int(clamped.sum()),
    }
    return loss, {"actor": actor_grad, "critic": critic_grad}, stats


class TeacherAugmentedEnv:
    """Env adapter feeding the student: observations are the base vector
    plus a one-hot of the teacher's current advice. The advice for the
    current observation is exposed for the switch logic."""

    def __init__(self, env: HighwayEnv, bundle: TeacherBundle):
        if bundle.input_dim != env.obs_dim:
            raise ValueError("bundle and environment disagree on observation size")
        self.env = env
        self.bundle = bundle
        self.last_advice: Advice | None = None
        self.last_raw_obs: np.ndarray | None = None

    @property
    def obs_dim(self) -> int:
        return self.env.obs_dim + 3

    @property
    def n_actions(self) -> int:
        return self.env.n_actions

    def _augment(self, raw: np.ndarray) -> np.ndarray:
        self.last_raw_obs = raw
        self.last_advice = teacher_advise(self.bundle, raw)
        return augment_observation(raw, self.last_advice.action)

    def reset(self) -> np.ndarray:
        return self._augment(self.env.reset())

    def step(self, action: Action):
        raw, reward, events = self.env.step(action)
        return self._augment(raw), reward, events

    def ego_speed(self) -> float:
        return self.env.ego_speed()


@dataclass
class CollectorState:
    obs: np.ndarray
    done: bool = False
    episodes: int = 0


@dataclass
class CollectStats:
    steps: int = 0
    interventions: int = 0
    synthetic_rows: int = 0
    kl_sum: float = 0.0
    entropy_sum: float = 0.0

    @property
    def intervention_rate(self) -> float:
        return self.interventions / self.steps if self.steps else 0.0

    @property
    def mean_kl(self) -> float:
        return self.kl_sum / self.steps if self.steps else 0.0

    @property
    def mean_entropy(self) -> float:
        return self.entropy_sum / self.steps if self.steps else 0.0


def collect_dual(env: TeacherAugmentedEnv, actor: DenseNet, critic: DenseNet,
                 hp: S2cdHyper, switch_cfg: SwitchConfig, rng: np.random.Generator,
                 n_steps: int, state: CollectorState, buffer: DualRolloutBuffer,
                 tracker: EpisodeTracker | None = None) -> CollectStats:
    """One collection phase. For every step the executed transition is
    stored once (teacher origin when the switch fired); when dual-source
    collection is on and the teacher's advice differs from the executed
    action, its predicted transition is stored as an extra teacher row."""
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
        a_student = (sample_action(probs, rng) if hp.sample_actions
                     else int(np.argmax(probs)))
        q_teacher = float(advice.q_pred[advice.action])
        q_student = float(advice.q_pred[a_student])
        _, intervened = switch_action(q_teacher, q_student, tau_episode, switch_cfg)
        a_exec = advice.action if intervened else a_student

        eps_prime = adaptive_epsilon(float(probs[a_student]),
                                     float(probs[advice.action]), hp.psi)
        value, _ = critic.forward(obs)
        next_obs, reward, events = env.step(Action(a_exec))
        state.done = events.episode_done

        buffer.add(DualTransition(
            obs=obs, action=a_exec, reward=reward.total,
            origin=Origin.TEACHER if intervened else Origin.STUDENT,
            teacher_probs=advice.probs, logprob_old=float(log_probs[a_exec]),
            eps_prime=eps_prime, value=value, done=state.done,
        ))
        if hp.dual_source and advice.action != a_exec:
            buffer.add(DualTransition(
                obs=obs, action=advice.action, reward=advice.r_pred,
                origin=Origin.TEACHER, teacher_probs=advice.probs,
                logprob_old=float(log_probs[advice.action]),
                eps_prime=eps_prime, value=value, done=state.done,
                executed=False,
            ))
            stats.synthetic_rows += 1

        stats.steps += 1
        stats.interventions += int(intervened)
        stats.kl_sum += kl_penalty(advice.probs, probs)
        stats.entropy_sum += float(-np.add.reduce(probs * np.log(probs)))
        if tracker is not None:
            tracker.record(reward, events, env.ego_speed())
        if state.done:
            state.episodes += 1
        state.obs = next_obs
    return stats


@dataclass
class S2cdPhaseMetrics(PhaseMetrics):
    tau: float = 1.0
    mean_kl: float = 0.0
    teacher_sample_fraction: float = 0.0

    def row(self) -> dict:
        base = super().row()
        base.update(tau=self.tau, mean_kl=self.mean_kl,
                    teacher_sample_fraction=self.teacher_sample_fraction)
        return base


def train_s2cd(complex_env: HighwayEnv, bundle: TeacherBundle, hp: S2cdHyper,
               switch_cfg: SwitchConfig, seed: int,
               phase_callback=None) -> TrainResult:
    """Teacher-gated training loop: alternating dual collection phases and
    minibatched adaptive-clip updates. The loss uses the tau snapshot taken
    at phase start so updates stay deterministic; the switch refreshes tau
    at every episode boundary."""
    rng = np.random.default_rng(seed)
    env = TeacherAugmentedEnv(complex_env, bundle)
    actor = DenseNet.create(NetSpec(env.obs_dim, 3, head=Head.SOFTMAX_POLICY), rng)
    critic = DenseNet.create(NetSpec(env.obs_dim, 1, head=Head.SCALAR_VALUE), rng)
    opt_actor = OptimState.for_net(actor, base_lr=hp.base_lr, lr_decay=hp.lr_decay)
    opt_critic = OptimState.for_net(critic, base_lr=hp.base_lr, lr_decay=hp.lr_decay)

    frozen = bundle.checksum()
    buffer = DualRolloutBuffer()
    tracker = EpisodeTracker()
    state = CollectorState(obs=env.reset())
    metrics: list[S2cdPhaseMetrics] = []
    n_phases = max(1, hp.total_steps // hp.rollout_steps)

    for phase in range(n_phases):
        tracker.reset_phase()
        tau_phase = decay_tau(state.episodes, switch_cfg, hp.intervention_decay)
        stats = collect_dual(env, actor, critic, hp, switch_cfg, rng,
                             hp.rollout_steps, state, buffer, tracker)
        bootstrap = 0.0 if state.done else critic.forward(state.obs)[0]
        buffer.finalize(hp, bootstrap)

        progress = min(phase * hp.rollout_steps / hp.total_steps, 1.0)
        kl_update = _run_updates(buffer, actor, critic, opt_actor, opt_critic, hp, rng,
                                 progress, partial(s2cd_loss, tau=tau_phase))
        buffer.clear()

        mean_ret, mean_cost, mean_speed, collisions = tracker.phase_summary()
        total_rows = stats.steps + stats.synthetic_rows
        teacher_rows = stats.interventions + stats.synthetic_rows
        row = S2cdPhaseMetrics(
            step=(phase + 1) * hp.rollout_steps, mean_return=mean_ret,
            mean_cost=mean_cost, mean_speed=mean_speed, collisions=collisions,
            entropy=stats.mean_entropy, kl=kl_update,
            intervention_rate=stats.intervention_rate, tau=tau_phase,
            mean_kl=stats.mean_kl,
            teacher_sample_fraction=teacher_rows / total_rows if total_rows else 0.0,
        )
        metrics.append(row)
        if phase_callback is not None:
            phase_callback(row)

    if bundle.checksum() != frozen:
        raise RuntimeError("teacher bundle was mutated during student training")
    return TrainResult(actor=actor, critic=critic, metrics=metrics)
