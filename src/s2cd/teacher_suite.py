"""Teacher pipeline: train a PPO policy in the simple world, take
supervised targets from each finalized rollout phase, and fit per-action
immediate-reward and Q-value predictor nets that later advise the student.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .highway_sim import Action
from .ppo_core import HyperParams, TrainResult, train_ppo
from .tensor_nn import (
    DenseNet,
    Head,
    NetSpec,
    OptimState,
    StackedNets,
    adamw_step,
    json_field,
    load_net,
    save_net,
    write_atomic,
)

# Collection-budget multiplier per quality tag: a low-quality teacher gets
# half the high-quality budget.
QUALITY_BUDGET_SCALE = {"high": 1.0, "low": 0.5, "complex": 1.0}
QUALITY_TAGS = tuple(QUALITY_BUDGET_SCALE)

# Fewest supervised rows the predictor heads are fitted on.
MIN_FIT_ROWS = 1000

# The head fit's minibatch, Adam learning rate and held-out share.
FIT_MINIBATCH = 64
FIT_LR = 0.001
FIT_HELDOUT_FRACTION = 0.1


def make_supervised_row(batch: dict[str, np.ndarray], bootstrap: float,
                        gamma: float) -> tuple[np.ndarray, ...]:
    """The regression columns (obs, actions, rewards, q_targets) of one
    finalized batch of plain PPO rows, all executed. The Q target of row t
    is the one-step bootstrapped value r + gamma * V(s'), where V(s') is
    row t+1's stored value, ``bootstrap`` after the last row, and 0 after a
    terminal row. The critic does not change within a phase, so these are
    the values of the critic as it stood at collection time."""
    rewards = batch["rewards"]
    next_values = np.append(batch["values"][1:], bootstrap)
    return (batch["obs"], batch["actions"], rewards,
            rewards + gamma * np.where(batch["dones"], 0.0, next_values))


@dataclass
class TeacherBundle:
    """Frozen advice source: policy, critic, and the two predictor heads.
    The actor and the two heads share one architecture and are stacked
    once, at construction, for ``teacher_advise``."""

    actor: DenseNet
    critic: DenseNet
    return_net: DenseNet
    qvalue_net: DenseNet
    quality_tag: str
    meta: dict = field(default_factory=dict)
    advice_nets: StackedNets = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        dims = {self.actor.spec.input_dim, self.critic.spec.input_dim,
                self.return_net.spec.input_dim, self.qvalue_net.spec.input_dim}
        if len(dims) != 1:
            raise ValueError("bundle networks disagree on input dimension")
        if self.actor.spec.output_dim != len(Action):
            raise ValueError(f"bundle actor has {self.actor.spec.output_dim} outputs; "
                             f"the action space has {len(Action)}")
        if self.quality_tag not in QUALITY_TAGS:
            raise ValueError(f"unknown quality tag {self.quality_tag!r}")
        self.advice_nets = StackedNets([self.actor, self.return_net, self.qvalue_net])

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
    """Advice for one normalized observation, from one stacked pass of the
    actor, the return net and the Q net.

    The guiding action is the argmax of the teacher policy (ties break to
    the lowest index); r_pred is the predicted immediate reward of that
    action; q_pred carries predicted Q for every action, since the switch
    compares the teacher's and the student's candidates at the same state.
    """
    obs = np.asarray(obs, dtype=np.float64)
    if obs.shape != (bundle.input_dim,):
        raise ValueError(f"expected observation of length {bundle.input_dim}")
    # fmin/fmax skip NaN entries, as the comparisons do; the pass rejects NaN
    if np.fmin.reduce(obs) < -1e-9 or np.fmax.reduce(obs) > 1.0 + 1e-9:
        raise ValueError("observation is not normalized to [0, 1]")
    probs, r_all, q_all = bundle.advice_nets.forward(obs)
    action = int(probs.argmax())
    return Advice(action=action, probs=probs, r_pred=float(r_all[action]), q_pred=q_all)


@dataclass
class FitReport:
    """The Q head's held-out squared error and the variance of its targets."""

    heldout_mse: float
    target_variance: float


def fit_value_heads(obs: np.ndarray, actions: np.ndarray, rewards: np.ndarray,
                    q_targets: np.ndarray, return_net: DenseNet | None = None,
                    qvalue_net: DenseNet | None = None, seed: int = 0,
                    epochs: int = 40) -> tuple[DenseNet, DenseNet, FitReport]:
    """Squared-error regression of both predictor nets on visited (s, a)
    pairs, given as parallel columns with one row per pair. Only the output
    at the visited action index is constrained.
    """
    n = len(obs)
    if n < MIN_FIT_ROWS:
        raise ValueError(f"need at least {MIN_FIT_ROWS} rows, got {n}")
    rng = np.random.default_rng(seed)
    obs_dim = obs.shape[1]
    targets = {"return": rewards, "q": q_targets}
    if not np.all(np.isfinite(targets["return"])) or not np.all(np.isfinite(targets["q"])):
        raise ValueError("non-finite regression targets")

    def fresh_head(y: np.ndarray) -> DenseNet:
        # zero final weights, bias at the target mean: the net starts as the
        # best constant predictor and learns structure from there
        net = DenseNet.create(NetSpec(obs_dim, len(Action), head=Head.VECTOR_VALUE), rng)
        n_final = (net.spec.dims[-2] + 1) * net.spec.dims[-1]
        net.params[-n_final:] = 0.0
        net.params[-net.spec.dims[-1]:] = float(y.mean())
        return net

    if return_net is None:
        return_net = fresh_head(targets["return"])
    if qvalue_net is None:
        qvalue_net = fresh_head(targets["q"])

    order = rng.permutation(n)
    split = max(1, int(n * FIT_HELDOUT_FRACTION))
    held, train = order[:split], order[split:]

    for key, net in (("return", return_net), ("q", qvalue_net)):
        y = targets[key]
        opt = OptimState.for_net(net, base_lr=FIT_LR, lr_decay=True)
        for epoch in range(epochs):
            progress = epoch / epochs  # linear LR decay across the fit
            perm = rng.permutation(train)
            for start in range(0, len(perm), FIT_MINIBATCH):
                idx = perm[start : start + FIT_MINIBATCH]
                preds, cache = net.forward(obs[idx])
                err = preds[np.arange(len(idx)), actions[idx]] - y[idx]
                dz = np.zeros_like(preds)
                dz[np.arange(len(idx)), actions[idx]] = 2.0 * err / len(idx)
                grads = net.backward_from_logits(cache, dz)
                net.params = adamw_step(opt, net.params, grads, progress=progress)

    preds, _ = qvalue_net.forward(obs[held])
    err = preds[np.arange(len(held)), actions[held]] - targets["q"][held]
    report = FitReport(heldout_mse=float(np.mean(err ** 2)),
                       target_variance=float(np.var(targets["q"][held])))
    return return_net, qvalue_net, report


def teacher_hyper(hp: HyperParams, quality: str) -> HyperParams:
    """``hp`` with ``total_steps`` scaled to the budget of a ``quality``
    teacher. Raises ValueError when that budget is empty, or when its whole
    collection phases give fewer rows than the head fit needs."""
    if quality not in QUALITY_TAGS:
        raise ValueError(f"quality must be one of {QUALITY_TAGS}")
    hp = replace(hp, total_steps=int(hp.total_steps * QUALITY_BUDGET_SCALE[quality]))
    rows = max(1, hp.total_steps // hp.rollout_steps) * hp.rollout_steps
    if rows < MIN_FIT_ROWS:
        raise ValueError(f"total_steps gives a {quality} teacher {rows} rows; "
                         f"the head fit needs at least {MIN_FIT_ROWS}")
    return hp


def train_teacher(simple_env, hp: HyperParams, quality: str,
                  seed: int) -> tuple[TeacherBundle, TrainResult]:
    """Full teacher pipeline on the simple-fidelity world.

    Runs PPO, takes the supervised rows of every finalized collection
    phase, refits the two predictor nets on all rows so far after each
    phase (warm-started), and returns the frozen bundle. ``hp.total_steps``
    is the high-quality budget; a low-quality teacher trains on half of it.
    """
    hp = teacher_hyper(hp, quality)

    phases: list[tuple[np.ndarray, ...]] = []
    nets: dict = {"return": None, "q": None, "report": None}
    fit_seed = seed + 1

    def refit(epochs: int) -> None:
        nonlocal fit_seed
        columns = [np.concatenate(c) for c in zip(*phases)]
        nets["return"], nets["q"], nets["report"] = fit_value_heads(
            *columns, return_net=nets["return"], qvalue_net=nets["q"],
            seed=fit_seed, epochs=epochs)
        fit_seed += 1

    def on_phase(batch, bootstrap):
        phases.append(make_supervised_row(batch, bootstrap, hp.gamma))
        # refit on the whole accumulated buffer so rare early events (the
        # crash states the gate must recognise) stay in the regression
        # distribution for the entire run
        if sum(len(p[0]) for p in phases) >= MIN_FIT_ROWS:
            refit(epochs=1)

    result = train_ppo(simple_env, hp, seed, on_phase=on_phase)
    refit(epochs=2 if nets["return"] is not None else 8)

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
    write_atomic(directory / "manifest.json", json.dumps(manifest, sort_keys=True))


def load_bundle(directory: str | Path) -> TeacherBundle:
    """Read a ``save_bundle`` directory. A malformed manifest or net raises
    ValueError naming the file."""
    directory = Path(directory)
    path = directory / "manifest.json"
    manifest = json.loads(path.read_text())
    json_field(manifest, "quality_tag", str, path)
    nets = {name: load_net(directory / f"{name}.json") for name in BUNDLE_NETS}
    for name in ("return_net", "qvalue_net"):
        if nets[name].spec.dims != nets["actor"].spec.dims:
            raise ValueError(f"{directory / name}.json: layer widths {nets[name].spec.dims} "
                             f"differ from actor.json's {nets['actor'].spec.dims}")
    quality = manifest.pop("quality_tag")
    return TeacherBundle(quality_tag=quality, meta=manifest, **nets)
