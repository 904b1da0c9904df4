"""Minimal dense-network engine.

Fully connected tanh networks over float64 numpy arrays with a flat
parameter vector, exact reverse-mode gradients, three output heads
(softmax policy, scalar value, per-action vector) and an Adam optimizer
with linear learning-rate decay. Everything is double precision
so finite-difference gradient checks hold to tight tolerances.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np


class Head(str, Enum):
    SOFTMAX_POLICY = "softmax_policy"
    SCALAR_VALUE = "scalar_value"
    VECTOR_VALUE = "vector_value"


class GradientError(RuntimeError):
    """Raised when an update would consume non-finite gradients."""


@dataclass(frozen=True)
class NetSpec:
    input_dim: int
    output_dim: int
    hidden: tuple[int, ...] = (64, 64)
    head: Head = Head.SCALAR_VALUE

    def __post_init__(self) -> None:
        object.__setattr__(self, "hidden", tuple(int(w) for w in self.hidden))
        object.__setattr__(self, "head", Head(self.head))
        if self.input_dim < 1 or self.output_dim < 1 or any(w < 1 for w in self.hidden):
            raise ValueError("all layer widths must be >= 1")
        if self.head is Head.SCALAR_VALUE and self.output_dim != 1:
            raise ValueError("scalar value head requires output_dim == 1")

    @property
    def dims(self) -> tuple[int, ...]:
        return (self.input_dim, *self.hidden, self.output_dim)

    @property
    def n_params(self) -> int:
        return sum((fi + 1) * fo for fi, fo in zip(self.dims, self.dims[1:]))


def _orthogonal(rng: np.random.Generator, rows: int, cols: int, gain: float) -> np.ndarray:
    a = rng.standard_normal((max(rows, cols), min(rows, cols)))
    q, r = np.linalg.qr(a)
    q = q * np.sign(np.diag(r))  # fix QR sign ambiguity for reproducibility
    if rows < cols:
        q = q.T
    return gain * q[:rows, :cols]


class DenseNet:
    """An MLP whose parameters live in one flat float64 vector."""

    def __init__(self, spec: NetSpec, params: np.ndarray):
        self.spec = spec
        self._layout = []
        offset = 0
        for fan_in, fan_out in zip(spec.dims, spec.dims[1:]):
            self._layout.append((offset, fan_in, fan_out))
            offset += (fan_in + 1) * fan_out
        self.params = params

    @property
    def params(self) -> np.ndarray:
        return self._params

    @params.setter
    def params(self, params: np.ndarray) -> None:
        """Builds the per-layer (w, b) views once; in-place writes reach them."""
        params = np.ascontiguousarray(params, dtype=np.float64)
        if params.shape != (self.spec.n_params,):
            raise ValueError(f"expected {self.spec.n_params} parameters, got {params.shape}")
        self._params = params
        self._layers = [(params[offset : offset + fan_in * fan_out].reshape(fan_in, fan_out),
                         params[offset + fan_in * fan_out : offset + (fan_in + 1) * fan_out])
                        for offset, fan_in, fan_out in self._layout]

    @classmethod
    def create(cls, spec: NetSpec, rng: np.random.Generator) -> "DenseNet":
        """Orthogonal hidden layers; the final layer of a policy head is
        scaled down so initial action probabilities start near uniform."""
        chunks = []
        n_layers = len(spec.dims) - 1
        for i, (fan_in, fan_out) in enumerate(zip(spec.dims, spec.dims[1:])):
            last = i == n_layers - 1
            if last:
                gain = 0.01 if spec.head is Head.SOFTMAX_POLICY else 1.0
            else:
                gain = np.sqrt(2.0)
            w = _orthogonal(rng, fan_in, fan_out, gain)
            chunks.append(w.reshape(-1))
            chunks.append(np.zeros(fan_out))
        return cls(spec, np.concatenate(chunks))

    def copy(self) -> "DenseNet":
        return DenseNet(self.spec, self.params.copy())

    def forward(self, x: np.ndarray):
        """Run the network; returns (output, cache) where cache suffices for
        an exact backward pass. Accepts a single input or a batch."""
        x = np.asarray(x, dtype=np.float64)
        squeeze = x.ndim == 1
        h = x[None, :] if squeeze else x
        _check_input(self.spec.input_dim, h)
        activations, logits = _run_layers(self._layers, h)
        out = _apply_head(self.spec.head, logits)
        cache = (activations, logits, out, squeeze)
        if squeeze:
            return (out[0] if self.spec.head is not Head.SCALAR_VALUE else float(out[0])), cache
        return out, cache

    def forward_rows(self, rows: np.ndarray) -> np.ndarray:
        """The output of ``forward(row)`` for every row of ``rows`` (n, d),
        bit for bit. The rows go through the layers as a stack of (1, d)
        matrices, for which numpy runs one gemv per row like the single
        forward; the gemm of a batch ``forward`` rounds differently."""
        return _apply_head(self.spec.head, _run_layers(self._layers, rows[:, None, :])[1][:, 0])

    def backward_from_logits(self, cache, logits_grad: np.ndarray) -> np.ndarray:
        """Exact gradient of sum(logits * logits_grad) w.r.t. every parameter,
        where the logits are the pre-head outputs of the cached forward (a
        scalar value head's logits are its (n, 1) column). Losses that
        differentiate through their head analytically enter here."""
        activations, logits, _, _ = cache
        dz = np.asarray(logits_grad, dtype=np.float64)
        if dz.shape != logits.shape:
            raise ValueError("logits gradient shape mismatch with cached forward")
        grads = np.zeros(self.spec.n_params)
        for layer in range(len(self._layers) - 1, -1, -1):
            offset, fan_in, fan_out = self._layout[layer]
            w, _ = self._layers[layer]
            h_prev = activations[layer]
            grads[offset : offset + fan_in * fan_out] = (h_prev.T @ dz).reshape(-1)
            grads[offset + fan_in * fan_out : offset + (fan_in + 1) * fan_out] = dz.sum(axis=0)
            if layer > 0:
                dz = (dz @ w.T) * (1.0 - h_prev * h_prev)
        return grads

    def policy_log_probs(self, cache) -> np.ndarray:
        """Stable log-softmax of the cached logits (batch, actions)."""
        _, logits, _, squeeze = cache
        lp = log_softmax(logits)
        return lp[0] if squeeze else lp


class StackedNets:
    """Nets of one architecture evaluated on one input in a single pass.

    Layer l of the K nets is stacked once into (K, d, h) weights and
    (K, 1, h) biases, and the input runs as K (1, d) rows: one gemv per net,
    so each output has the bits of that net's own ``forward``. The stack is
    a copy taken at construction; later writes to the nets' parameters do
    not reach it.
    """

    def __init__(self, nets: list[DenseNet]):
        dims = {net.spec.dims for net in nets}
        if len(dims) != 1:
            raise ValueError(f"stacked nets must share their layer widths, got {sorted(dims)}")
        self.heads = [net.spec.head for net in nets]
        self.input_dim = nets[0].spec.input_dim
        self._layers = [(np.stack([net._layers[i][0] for net in nets]),
                         np.stack([net._layers[i][1] for net in nets])[:, None, :])
                        for i in range(len(nets[0]._layers))]

    def forward(self, x: np.ndarray) -> list:
        """``[net.forward(x)[0] for net in nets]`` for one input ``x``."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 1:
            raise ValueError("stacked nets take a single input")
        _check_input(self.input_dim, x[None, :])
        # the (1, 1, d) input broadcasts against the (K, d, h) first layer
        logits = _run_layers(self._layers, x[None, None, :])[1]
        return [_apply_head(head, z)[0] for head, z in zip(self.heads, logits)]


def _check_input(input_dim: int, h: np.ndarray) -> None:
    if h.shape[-1] != input_dim:
        raise ValueError(f"expected input dim {input_dim}, got {h.shape[-1]}")
    # a finite sum implies finite entries; scan them only when it is not
    if not math.isfinite(h.sum()) and not np.isfinite(h).all():
        raise ValueError("non-finite network input")


def _run_layers(layers, h: np.ndarray):
    """(activations, logits) of ``h`` through the tanh layers. ``h`` is a
    batch (n, d), or a stack of (1, d) rows: (n, 1, d) against one net's
    (d, h) weights, or one (1, 1, d) row against K stacked (K, d, h)
    weights, which it meets as K rows."""
    activations = [h]
    last = len(layers) - 1
    for layer, (w, b) in enumerate(layers):
        z = h @ w + b
        if layer < last:
            h = np.tanh(z)
            activations.append(h)
        else:
            h = z
    return activations, h


def _apply_head(head: Head, logits: np.ndarray) -> np.ndarray:
    if head is Head.SOFTMAX_POLICY:
        return softmax(logits)
    if head is Head.SCALAR_VALUE:
        return logits[..., 0]
    return logits


# Direct calls of the ufuncs behind ``.max``, ``.sum`` and ``np.clip``: same
# bits. Both reduce over the last axis, so each row of a batch gets the bits
# of the same row on its own.
def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - np.maximum.reduce(logits, axis=-1, keepdims=True)
    e = np.exp(z)
    p = e / np.add.reduce(e, axis=-1, keepdims=True)
    # keep log-prob computations finite for extreme logits
    return np.minimum(np.maximum(p, 1e-300), 1.0)


def log_softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - np.maximum.reduce(logits, axis=-1, keepdims=True)
    return z - np.log(np.add.reduce(np.exp(z), axis=-1, keepdims=True))


# Adaptive-moment decay rates and the denominator guard.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class OptimState:
    """Adaptive-moment optimizer state."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0
    base_lr: float = 0.0005
    lr_decay: bool = True

    @classmethod
    def for_net(cls, net: DenseNet, base_lr: float = 0.0005,
                lr_decay: bool = True) -> "OptimState":
        n = net.spec.n_params
        return cls(m=np.zeros(n), v=np.zeros(n), base_lr=base_lr, lr_decay=lr_decay)


def adamw_step(state: OptimState, params: np.ndarray, grads: np.ndarray,
               progress: float) -> np.ndarray:
    """One optimizer update; returns the new parameter vector.

    ``progress`` in [0, 1] drives the linear learning-rate decay. NaN or
    infinite gradients abort the update.
    """
    if not 0.0 <= progress <= 1.0:
        raise ValueError("progress must lie in [0, 1]")
    if grads.shape != params.shape or state.m.shape != params.shape:
        raise ValueError("parameter/gradient/moment length mismatch")
    if not np.all(np.isfinite(grads)):
        bad = int(np.count_nonzero(~np.isfinite(grads)))
        raise GradientError(f"{bad} non-finite gradient entries; update aborted")
    lr = state.base_lr * (1.0 - progress) if state.lr_decay else state.base_lr
    state.step += 1
    state.m = ADAM_BETA1 * state.m + (1.0 - ADAM_BETA1) * grads
    state.v = ADAM_BETA2 * state.v + (1.0 - ADAM_BETA2) * grads * grads
    m_hat = state.m / (1.0 - ADAM_BETA1 ** state.step)
    v_hat = state.v / (1.0 - ADAM_BETA2 ** state.step)
    return params - lr * (m_hat / (np.sqrt(v_hat) + ADAM_EPS))


CHECKPOINT_FORMAT = 1


def save_net(net: DenseNet, path: str | Path) -> None:
    """Versioned JSON checkpoint. float64 values round-trip bit-exactly
    because json emits the shortest repr of each double."""
    payload = {
        "format": CHECKPOINT_FORMAT,
        "spec": {
            "input_dim": net.spec.input_dim,
            "output_dim": net.spec.output_dim,
            "hidden": list(net.spec.hidden),
            "head": net.spec.head.value,
            "activation": "tanh",
        },
        "params": net.params.tolist(),
    }
    write_atomic(path, json.dumps(payload))


def write_atomic(path: str | Path, text: str) -> None:
    """Write ``text`` to ``<path>.tmp``, then rename it over ``path``, so an
    interrupted process leaves the old file or none, never a partial one."""
    tmp = Path(f"{path}.tmp")
    try:
        tmp.write_text(text, newline="")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def json_field(payload, key: str, kind: type, path: str | Path):
    """``payload[key]`` of a JSON object read from ``path``; ValueError
    naming the file and the key when the payload is not an object or the
    key is missing or not of type ``kind`` (a bool is never accepted)."""
    value = payload.get(key) if isinstance(payload, dict) else None
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ValueError(f"{path}: missing or ill-typed key {key!r}")
    return value


def load_net(path: str | Path) -> DenseNet:
    """Read a ``save_net`` checkpoint. A malformed one raises ValueError
    naming ``path``."""
    payload = json.loads(Path(path).read_text())
    if json_field(payload, "format", int, path) != CHECKPOINT_FORMAT:
        raise ValueError(f"{path}: unsupported checkpoint format: {payload['format']}")
    s = json_field(payload, "spec", dict, path)
    if s.get("activation") != "tanh":
        raise ValueError(f"{path}: only tanh hidden activations are supported")
    dims = (json_field(s, "input_dim", int, path), json_field(s, "output_dim", int, path))
    hidden = json_field(s, "hidden", list, path)
    head = json_field(s, "head", str, path)
    params = json_field(payload, "params", list, path)
    try:
        if not all(type(w) is int for w in hidden):
            raise ValueError("ill-typed key 'hidden'")
        params = np.array(params)
        if params.ndim != 1 or params.dtype.kind not in "if":
            raise ValueError("ill-typed key 'params'")
        return DenseNet(NetSpec(*dims, hidden=tuple(hidden), head=Head(head)), params)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
