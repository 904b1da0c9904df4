"""Output checks for the benchmark workloads.

Each check reads the files one ``s2cd`` command wrote and compares them
with an independent computation or with a property the method must have,
never with a stored copy of an earlier output. Only the policy check runs
package code: the program's own forward pass, whose output it compares
with a forward pass computed here. A failed check raises ``CheckError``.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np


class CheckError(Exception):
    """An output of the program is wrong."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def tree_digest(*roots: Path) -> str:
    """sha256 over every file under ``roots``: relative path, then bytes."""
    digest = hashlib.sha256()
    for root in roots:
        for path in sorted(p for p in root.rglob("*") if p.is_file()):
            digest.update(path.relative_to(root).as_posix().encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def tree_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def _read_csv(path: Path) -> list[dict]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


# -- networks ---------------------------------------------------------------

def _load_layers(path: Path) -> tuple[dict, list[tuple[np.ndarray, np.ndarray]]]:
    """Parse a checkpoint into (spec, [(W, b), ...]) without the package:
    parameters are a flat vector of per-layer row-major weights, each
    followed by its bias."""
    payload = json.loads(path.read_text())
    spec = payload["spec"]
    params = np.asarray(payload["params"], dtype=np.float64)
    dims = [spec["input_dim"], *spec["hidden"], spec["output_dim"]]
    layers, offset = [], 0
    for fan_in, fan_out in zip(dims, dims[1:]):
        w = params[offset:offset + fan_in * fan_out].reshape(fan_in, fan_out)
        offset += fan_in * fan_out
        layers.append((w, params[offset:offset + fan_out]))
        offset += fan_out
    _require(offset == params.size, f"{path.name}: {params.size} parameters, "
                                    f"layout needs {offset}")
    return spec, layers


def check_params_finite(run_dir: Path) -> None:
    """Every saved network parameter is a finite number."""
    nets = sorted(p for p in run_dir.rglob("*.json") if p.name != "manifest.json"
                  and p.name != "config.json")
    _require(bool(nets), f"{run_dir}: no saved networks")
    for path in nets:
        params = np.asarray(json.loads(path.read_text())["params"], dtype=np.float64)
        _require(bool(np.all(np.isfinite(params))), f"{path}: non-finite parameter")


def check_policy_outputs(actor_path: Path, seed: int, samples: int = 256) -> None:
    """The saved actor, run through the program's own forward pass, maps
    sampled normalized observations to probability vectors, and agrees with
    a softmax policy computed here from the same parameters."""
    from s2cd.tensor_nn import load_net

    spec, layers = _load_layers(actor_path)
    x = np.random.default_rng(seed).uniform(0.0, 1.0, size=(samples, spec["input_dim"]))
    probs, _ = load_net(actor_path).forward(x)
    _require(probs.shape == (samples, spec["output_dim"]),
             f"{actor_path}: policy output has shape {probs.shape}")
    _require(bool(np.all((probs >= 0.0) & (probs <= 1.0))),
             f"{actor_path}: policy output outside [0, 1]")
    _require(bool(np.allclose(probs.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)),
             f"{actor_path}: policy output does not sum to 1")
    h = x
    for i, (w, b) in enumerate(layers):
        h = h @ w + b
        if i < len(layers) - 1:
            h = np.tanh(h)
    z = np.exp(h - h.max(axis=1, keepdims=True))
    _require(bool(np.allclose(probs, z / z.sum(axis=1, keepdims=True), rtol=0.0, atol=1e-9)),
             f"{actor_path}: policy output differs from a softmax over its parameters")


def check_same_bytes(expected_dir: Path, actual_dir: Path) -> None:
    names = sorted(p.relative_to(expected_dir) for p in expected_dir.rglob("*") if p.is_file())
    got = sorted(p.relative_to(actual_dir) for p in actual_dir.rglob("*") if p.is_file())
    _require(names == got, f"{actual_dir}: files {got} differ from {names}")
    for name in names:
        _require((expected_dir / name).read_bytes() == (actual_dir / name).read_bytes(),
                 f"{actual_dir / name}: bytes differ from the set-up copy")


# -- training runs ----------------------------------------------------------

def check_metrics_rows(path: Path, total_steps: int, rollout_steps: int) -> list[dict]:
    """One row per collection phase, ``step`` at each multiple of the
    rollout length."""
    rows = _read_csv(path)
    phases = total_steps // rollout_steps
    _require(len(rows) == phases, f"{path}: {len(rows)} rows, expected {phases}")
    for k, row in enumerate(rows, start=1):
        _require(int(row["step"]) == k * rollout_steps,
                 f"{path}: row {k} has step {row['step']}, expected {k * rollout_steps}")
    return rows


def check_student_metrics(rows: list[dict], path: Path) -> None:
    """Weaning and gating statistics stay in their ranges; tau never rises."""
    previous_tau = math.inf
    for k, row in enumerate(rows, start=1):
        tau = float(row["tau"])
        _require(0.0 < tau <= 1.0, f"{path}: row {k} tau {tau} outside (0, 1]")
        _require(tau <= previous_tau, f"{path}: row {k} tau rises to {tau}")
        previous_tau = tau
        for key in ("intervention_rate", "teacher_sample_fraction"):
            value = float(row[key])
            _require(0.0 <= value <= 1.0, f"{path}: row {k} {key} {value} outside [0, 1]")
        _require(float(row["mean_kl"]) >= 0.0, f"{path}: row {k} mean_kl is negative")


def check_training_run(run_dir: Path, total_steps: int, rollout_steps: int,
                       trained_steps: int, teacher_actor: Path, seed: int) -> list[dict]:
    """Checks shared by teacher and student runs."""
    _require(trained_steps == total_steps,
             f"{run_dir}: {trained_steps} decision steps in training, budget {total_steps}")
    rows = check_metrics_rows(run_dir / "metrics.csv", total_steps, rollout_steps)
    check_params_finite(run_dir)
    check_policy_outputs(teacher_actor, seed)
    return rows


# -- theory sweep -----------------------------------------------------------

def regenerate_teacher_values(seed: int, instances: int, max_states: int,
                              max_actions: int) -> list[tuple[int, int, float, float]]:
    """(n_states, n_actions, gamma, J_teacher) per instance, drawing the
    same random stream as the sweep and solving (I - gamma P_pi) V = r_pi
    directly."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(instances):
        n_s = int(rng.integers(min(2, max_states), max_states + 1))
        n_a = int(rng.integers(2, max_actions + 1))
        transitions = rng.dirichlet(np.ones(n_s), size=(n_s, n_a))
        rewards = rng.uniform(-1.0, 1.0, size=(n_s, n_a))
        gamma = float(rng.uniform(0.8, 0.95))
        initial = rng.dirichlet(np.ones(n_s))
        teacher = rng.dirichlet(np.ones(n_a), size=n_s)
        rng.dirichlet(np.ones(n_a), size=n_s)  # the student table
        p_pi = np.einsum("sa,sat->st", teacher, transitions)
        r_pi = np.einsum("sa,sa->s", teacher, rewards)
        v = np.linalg.solve(np.eye(n_s) - gamma * p_pi, r_pi)
        out.append((n_s, n_a, gamma, float(initial @ v)))
    return out


def check_theory(out_dir: Path, seed: int, instances: int, max_states: int,
                 max_actions: int) -> None:
    path = out_dir / "theory_report.json"
    report = json.loads(path.read_text())
    _require(report["all_pass"] is True, f"{path}: all_pass is not true")
    rows = report["results"]
    _require(len(rows) == instances, f"{path}: {len(rows)} rows, expected {instances}")
    expected = regenerate_teacher_values(seed, instances, max_states, max_actions)
    for row, (n_s, n_a, gamma, j_teacher) in zip(rows, expected):
        k = row["instance"]
        _require(row["slack"] >= 0.0, f"{path}: instance {k} slack {row['slack']} < 0")
        _require(row["improvement_margin"] >= -1e-9,
                 f"{path}: instance {k} improvement margin {row['improvement_margin']}")
        _require(abs(row["visitation_mass"] - 1.0) <= 1e-9,
                 f"{path}: instance {k} visitation mass {row['visitation_mass']}")
        _require((row["n_states"], row["n_actions"], row["gamma"]) == (n_s, n_a, gamma),
                 f"{path}: instance {k} is not the one the seed generates")
        _require(abs(row["J_teacher"] - j_teacher) <= 1e-9,
                 f"{path}: instance {k} J_teacher {row['J_teacher']} != solve {j_teacher}")
