"""Teacher pipeline: train a PPO policy in the simple world while logging
supervised targets, then fit per-action immediate-reward and Q-value
predictor nets that later advise the student.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .ppo_core import HyperParams, TrainResult, train_ppo
from .tensor_nn import (
    DenseNet,
    Head,
    NetSpec,
    OptimState,
    adamw_step,
    load_net,
    save_net,
)

QUALITY_TAGS = ("high", "low", "complex")

# Collection-budget multiplier per quality tag: a low-quality teacher gets
# half the high-quality budget.
QUALITY_BUDGET_SCALE = {"high": 1.0, "low": 0.5, "complex": 1.0}

# Fewest supervised rows the predictor heads are fitted on.
MIN_FIT_ROWS = 1000


@dataclass
class SupervisedRow:
    obs: np.ndarray
    action: int
    reward: float
    q_target: float


def make_supervised_row(obs: np.ndarray, action: int, reward: float,
                        next_obs: np.ndarray, done: bool, critic: DenseNet,
                        gamma: float) -> SupervisedRow:
    """One regression row; the Q target is the one-step bootstrapped value
    r + gamma * V(s') using the critic as it stood at collection time."""
    bootstrap = 0.0 if done else critic.forward(next_obs)[0]
    return SupervisedRow(obs=np.asarray(obs, dtype=np.float64), action=int(action),
                         reward=float(reward), q_target=float(reward + gamma * bootstrap))


@dataclass
class TeacherBundle:
    """Frozen advice source: policy, critic, and the two predictor heads."""

    actor: DenseNet
    critic: DenseNet
    return_net: DenseNet
    qvalue_net: DenseNet
    quality_tag: str
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        dims = {self.actor.spec.input_dim, self.critic.spec.input_dim,
                self.return_net.spec.input_dim, self.qvalue_net.spec.input_dim}
        if len(dims) != 1:
            raise ValueError("bundle networks disagree on input dimension")
        if self.quality_tag not in QUALITY_TAGS:
            raise ValueError(f"unknown quality tag {self.quality_tag!r}")

    @property
    def input_dim(self) -> int:
        return self.actor.spec.input_dim

    def checksum(self) -> str:
        digest = hashlib.sha256()
        for net in (self.actor, self.critic, self.return_net, self.qvalue_net):
            digest.update(net.params.tobytes())
        return digest.hexdigest()


@dataclass(frozen=True)
class Advice:
    action: int
    probs: np.ndarray
    r_pred: float
    q_pred: np.ndarray


def teacher_advise(bundle: TeacherBundle, obs: np.ndarray) -> Advice:
    """Advice for one normalized observation.

    The guiding action is the argmax of the teacher policy (ties break to
    the lowest index); r_pred is the predicted immediate reward of that
    action; q_pred carries predicted Q for every action, since the switch
    compares the teacher's and the student's candidates at the same state.
    """
    obs = np.asarray(obs, dtype=np.float64)
    if obs.shape != (bundle.input_dim,):
        raise ValueError(f"expected observation of length {bundle.input_dim}")
    # fmin/fmax skip NaN entries, as the comparisons do; forward rejects NaN
    if np.fmin.reduce(obs) < -1e-9 or np.fmax.reduce(obs) > 1.0 + 1e-9:
        raise ValueError("observation is not normalized to [0, 1]")
    probs, _ = bundle.actor.forward(obs)
    action = int(probs.argmax())
    r_all, _ = bundle.return_net.forward(obs)
    q_all, _ = bundle.qvalue_net.forward(obs)
    return Advice(action=action, probs=probs, r_pred=float(r_all[action]), q_pred=q_all)


@dataclass
class FitReport:
    train_mse: float
    heldout_mse: float
    target_variance: float
    rows: int


def fit_value_heads(rows: list[SupervisedRow], return_net: DenseNet | None = None,
                    qvalue_net: DenseNet | None = None, seed: int = 0,
                    epochs: int = 40, minibatch: int = 64, base_lr: float = 0.001,
                    heldout_fraction: float = 0.1,
                    min_rows: int = MIN_FIT_ROWS) -> tuple[DenseNet, DenseNet, FitReport]:
    """Squared-error regression of both predictor nets on visited (s, a)
    pairs. Only the output at the visited action index is constrained.
    """
    if len(rows) < min_rows:
        raise ValueError(f"need at least {min_rows} rows, got {len(rows)}")
    rng = np.random.default_rng(seed)
    obs_dim = rows[0].obs.shape[0]

    obs = np.stack([r.obs for r in rows])
    actions = np.array([r.action for r in rows], dtype=np.int64)
    targets = {"return": np.array([r.reward for r in rows]),
               "q": np.array([r.q_target for r in rows])}
    if not np.all(np.isfinite(targets["return"])) or not np.all(np.isfinite(targets["q"])):
        raise ValueError("non-finite regression targets")

    def fresh_head(y: np.ndarray) -> DenseNet:
        # zero final weights, bias at the target mean: the net starts as the
        # best constant predictor and learns structure from there
        net = DenseNet.create(NetSpec(obs_dim, 3, head=Head.VECTOR_VALUE), rng)
        n_final = (net.spec.dims[-2] + 1) * net.spec.dims[-1]
        net.params[-n_final:] = 0.0
        net.params[-net.spec.dims[-1]:] = float(y.mean())
        return net

    if return_net is None:
        return_net = fresh_head(targets["return"])
    if qvalue_net is None:
        qvalue_net = fresh_head(targets["q"])

    n = len(rows)
    order = rng.permutation(n)
    split = max(1, int(n * heldout_fraction))
    held, train = order[:split], order[split:]

    final = {}
    for key, net in (("return", return_net), ("q", qvalue_net)):
        y = targets[key]
        opt = OptimState.for_net(net, base_lr=base_lr, lr_decay=True)
        for epoch in range(epochs):
            progress = epoch / epochs  # linear LR decay across the fit
            perm = rng.permutation(train)
            for start in range(0, len(perm), minibatch):
                idx = perm[start : start + minibatch]
                preds, cache = net.forward(obs[idx])
                err = preds[np.arange(len(idx)), actions[idx]] - y[idx]
                dz = np.zeros_like(preds)
                dz[np.arange(len(idx)), actions[idx]] = 2.0 * err / len(idx)
                grads = net.backward_from_logits(cache, dz)
                net.params = adamw_step(opt, net.params, grads, progress=progress)
        for name, idx in (("train", train), ("held", held)):
            preds, _ = net.forward(obs[idx])
            err = preds[np.arange(len(idx)), actions[idx]] - y[idx]
            final[f"{key}_{name}"] = float(np.mean(err ** 2))

    report = FitReport(
        train_mse=final["q_train"],
        heldout_mse=final["q_held"],
        target_variance=float(np.var(targets["q"][held])),
        rows=n,
    )
    return return_net, qvalue_net, report


def teacher_hyper(hp: HyperParams, quality: str) -> HyperParams:
    """``hp`` with ``total_steps`` scaled to the budget of a ``quality``
    teacher. Raises ValueError when that budget is empty, or when its whole
    collection phases give fewer rows than the head fit needs."""
    if quality not in QUALITY_TAGS:
        raise ValueError(f"quality must be one of {QUALITY_TAGS}")
    hp = HyperParams(**{**vars(hp),
                        "total_steps": int(hp.total_steps * QUALITY_BUDGET_SCALE[quality])})
    rows = max(1, hp.total_steps // hp.rollout_steps) * hp.rollout_steps
    if rows < MIN_FIT_ROWS:
        raise ValueError(f"total_steps gives a {quality} teacher {rows} rows; "
                         f"the head fit needs at least {MIN_FIT_ROWS}")
    return hp


def train_teacher(simple_env, hp: HyperParams, quality: str, seed: int,
                  phase_callback=None) -> tuple[TeacherBundle, TrainResult]:
    """Full teacher pipeline on the simple-fidelity world.

    Runs PPO while accumulating supervised rows per step, refits the two
    predictor nets after every collection phase (warm-started), and returns
    the frozen bundle. ``hp.total_steps`` is the high-quality budget; a
    low-quality teacher trains on half of it.
    """
    hp = teacher_hyper(hp, quality)

    rows: list[SupervisedRow] = []
    nets: dict = {"return": None, "q": None, "report": None}
    fit_seed = seed + 1

    def hook(obs, action, reward, next_obs, done, critic):
        rows.append(make_supervised_row(obs, action, reward.total, next_obs,
                                        done, critic, hp.gamma))

    def on_phase(row):
        nonlocal fit_seed
        # refit on the whole accumulated buffer so rare early events (the
        # crash states the gate must recognise) stay in the regression
        # distribution for the entire run
        if len(rows) >= MIN_FIT_ROWS:
            nets["return"], nets["q"], nets["report"] = fit_value_heads(
                rows, return_net=nets["return"], qvalue_net=nets["q"],
                seed=fit_seed, epochs=1)
            fit_seed += 1
        if phase_callback is not None:
            phase_callback(row)

    result = train_ppo(simple_env, hp, seed, transition_hook=hook,
                       phase_callback=on_phase)

    nets["return"], nets["q"], nets["report"] = fit_value_heads(
        rows, return_net=nets["return"], qvalue_net=nets["q"],
        seed=fit_seed, epochs=2 if nets["return"] is not None else 8)

    bundle = TeacherBundle(
        actor=result.actor, critic=result.critic,
        return_net=nets["return"], qvalue_net=nets["q"],
        quality_tag=quality,
        meta={
            "training_steps": hp.total_steps,
            "seed": seed,
            "fit_heldout_mse": nets["report"].heldout_mse,
            "fit_target_variance": nets["report"].target_variance,
        },
    )
    return bundle, result


BUNDLE_NETS = ("actor", "critic", "return_net", "qvalue_net")


def save_bundle(bundle: TeacherBundle, directory: str | Path) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for name in BUNDLE_NETS:
        save_net(getattr(bundle, name), directory / f"{name}.json")
    manifest = {"quality_tag": bundle.quality_tag, **bundle.meta}
    (directory / "manifest.json").write_text(json.dumps(manifest, sort_keys=True))


def load_bundle(directory: str | Path) -> TeacherBundle:
    directory = Path(directory)
    manifest = json.loads((directory / "manifest.json").read_text())
    nets = {name: load_net(directory / f"{name}.json") for name in BUNDLE_NETS}
    quality = manifest.pop("quality_tag")
    return TeacherBundle(quality_tag=quality, meta=manifest, **nets)
