"""Teacher-gated student training on the complex world.

Per decision step the teacher proposes an action with predicted reward and
Q-values; the student samples from its own policy over the teacher-augmented
observation; a Q-gap switch decides who drives. Executed transitions (plus
teacher-predicted alternatives, when dual-source collection is on) feed an
adaptive-clip PPO loss with a decaying KL pull toward the teacher. The
weaning coefficient tau shrinks the switch threshold slack, the clip
asymmetry and the KL weight together, so the objective falls back to plain
PPO as training progresses.

The rollout buffer, training loop, loss and result type are PPO's from
``ppo_core``: ``collect_dual`` adds PPO's columns plus each row's
``teacher_origin``, clip modulation ``eps_prime`` and ``teacher_probs``
to the ``RolloutBuffer``, ``s2cd_loss`` supplies ``ppo_loss`` with the
per-sample clip bounds and the KL weight, and ``train_s2cd`` runs
``train_phases`` with ``collect_dual`` as the collection and ``s2cd_loss``
at the phase's tau as the loss.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .highway_sim import Action, check_number_fields
from .mdp_interface import HighwayEnv

# compute_gae and adamw_step are not called here, but benchmarks/tracer.py
# wraps this module's binding of each and cannot install without them. It
# wraps ppo_core.ppo_loss, not this binding, so its call count stays plain
# PPO's and s2cd_loss's time covers the loss body.
from .ppo_core import (
    CollectorState,
    EpisodeTracker,
    HyperParams,
    RolloutBuffer,
    TrainResult,
    annotate_phase,
    compute_gae,
    kl_penalty,
    policy_entropy,
    ppo_loss,
    sample_action,
    train_phases,
)
from .tensor_nn import DenseNet, adamw_step
from .teacher_suite import Advice, TeacherBundle, teacher_advise


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

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.psi < 0:
            raise ValueError("psi must be nonnegative")
        if self.xi < 0:
            raise ValueError("xi must be nonnegative")

    def check_clip(self) -> None:
        """Only the gated student needs psi <= clip_eps, which keeps every
        clip interval of ``s2cd_loss`` non-degenerate; a run that never
        builds that loss may set clip_eps below the default psi."""
        if self.psi > self.clip_eps:
            raise ValueError("psi must lie in [0, clip_eps]")


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
                  cfg: SwitchConfig) -> bool:
    """Whether the teacher overrides: iff its Q advantage clears the
    tolerance threshold (1 - tau) * eps, which widens as training
    progresses."""
    return (q_teacher - q_student) > (1.0 - tau) * cfg.tolerance_eps


def adaptive_epsilon(p_student: float, p_teacher: float, psi: float) -> float:
    """Clip-range modulation from the student policy's probabilities of its
    own and the teacher's action; always lands in [0, psi]."""
    return psi * ((p_student - p_teacher) + 1.0) / 2.0


def augment_observation(obs: np.ndarray, teacher_action: int) -> np.ndarray:
    """Base observation concatenated with a one-hot of the teacher's action."""
    onehot = np.zeros(len(Action))
    onehot[teacher_action] = 1.0
    return np.concatenate([np.asarray(obs, dtype=np.float64), onehot])


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
    """Dual-source adaptive-clip surrogate with the decaying KL pull:
    ``ppo_loss`` with the per-sample clip intervals of ``clip_bounds`` and
    a KL weight of tau * xi. With tau == 0 (or adaptive clipping and the
    KL constraint both off) it is exactly the plain clipped-surrogate loss.
    """
    eps_prime = batch["eps_prime"] if hp.adaptive_clip else np.zeros(len(batch["actions"]))
    te = tau * eps_prime
    if np.any(te > hp.clip_eps + 1e-12):
        raise ValueError("tau * eps_prime exceeds clip_eps; interval degenerates")
    bounds = clip_bounds(batch["teacher_origin"], hp.clip_eps, te)
    kl_weight = tau * hp.xi if hp.kl_constraint else 0.0
    return ppo_loss(batch, policy_net, value_net, hp, bounds, kl_weight)


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

    @property
    def obs_dim(self) -> int:
        return self.env.obs_dim + len(Action)

    def _augment(self, raw: np.ndarray) -> np.ndarray:
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
                 n_steps: int, state: CollectorState, buffer: RolloutBuffer,
                 tracker: EpisodeTracker | None = None) -> CollectStats:
    """One collection phase. For every step the executed transition is
    stored once (teacher origin when the switch fired); when dual-source
    collection is on and the teacher's advice differs from the executed
    action, its predicted transition is stored as an extra teacher row.
    ``obs`` is the augmented observation, and a synthetic row's reward is
    the return net's prediction for the teacher's action. A step runs only
    what picks its action; the values, old log-probabilities and the KL and
    entropy sums come from one pass over the phase (``annotate_phase``),
    the sums accumulated in step order."""
    stats = CollectStats()
    logits, teacher_probs = [], []
    tau_episode = decay_tau(state.episodes, switch_cfg, hp.intervention_decay)
    for _ in range(n_steps):
        if state.done:
            state.obs = env.reset()
            state.done = False
            tau_episode = decay_tau(state.episodes, switch_cfg, hp.intervention_decay)
        advice = env.last_advice
        obs = state.obs

        probs, (_, step_logits, _, _) = actor.forward(obs)
        a_student = sample_action(probs, rng)
        q_teacher = float(advice.q_pred[advice.action])
        q_student = float(advice.q_pred[a_student])
        intervened = switch_action(q_teacher, q_student, tau_episode, switch_cfg)
        a_exec = advice.action if intervened else a_student

        eps_prime = adaptive_epsilon(float(probs[a_student]),
                                     float(probs[advice.action]), hp.psi)
        next_obs, reward, events = env.step(Action(a_exec))
        state.done = events.episode_done

        buffer.add(obs=obs, actions=a_exec, rewards=reward.total, dones=state.done,
                   executed=True, teacher_origin=intervened, eps_prime=eps_prime,
                   teacher_probs=advice.probs)
        if hp.dual_source and advice.action != a_exec:
            buffer.add(obs=obs, actions=advice.action, rewards=advice.r_pred,
                       dones=state.done, executed=False, teacher_origin=True,
                       eps_prime=eps_prime, teacher_probs=advice.probs)
            stats.synthetic_rows += 1
        logits.append(step_logits)
        teacher_probs.append(advice.probs)

        stats.steps += 1
        stats.interventions += int(intervened)
        if tracker is not None:
            tracker.record(reward, events, env.ego_speed())
        if state.done:
            state.episodes += 1
        state.obs = next_obs
    probs = annotate_phase(buffer, critic, logits)
    for kl, entropy in zip(kl_penalty(np.array(teacher_probs), probs).tolist(),
                           policy_entropy(probs).tolist()):
        stats.kl_sum += kl
        stats.entropy_sum += entropy
    return stats


def train_s2cd(complex_env: HighwayEnv, bundle: TeacherBundle, hp: S2cdHyper,
               switch_cfg: SwitchConfig, seed: int) -> TrainResult:
    """Teacher-gated training: ``ppo_core.train_phases`` with dual
    collection phases and the adaptive-clip loss. The loss uses the tau
    snapshot taken at phase start so updates stay deterministic; the switch
    refreshes tau at every episode boundary."""
    hp.check_clip()
    env = TeacherAugmentedEnv(complex_env, bundle)
    frozen = bundle.checksum()

    def collect(actor, critic, rng, state, buffer, tracker):
        tau = decay_tau(state.episodes, switch_cfg, hp.intervention_decay)
        stats = collect_dual(env, actor, critic, hp, switch_cfg, rng, hp.rollout_steps,
                             state, buffer, tracker)
        total_rows = stats.steps + stats.synthetic_rows
        teacher_rows = stats.interventions + stats.synthetic_rows
        return partial(s2cd_loss, tau=tau), {
            "entropy": stats.mean_entropy,
            "intervention_rate": stats.intervention_rate,
            "tau": tau,
            "mean_kl": stats.mean_kl,
            "teacher_sample_fraction": teacher_rows / total_rows if total_rows else 0.0,
        }

    result = train_phases(env, hp, seed, collect)
    if bundle.checksum() != frozen:
        raise RuntimeError("teacher bundle was mutated during student training")
    return result
