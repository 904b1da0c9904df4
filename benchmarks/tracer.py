"""Spans and counts around calls into the s2cd modules, recorded from
outside the package.

Each public function is wrapped at the name its caller looks up: several
modules bind names with ``from ... import``, so one function can need a
wrapper at more than one binding. ``install`` swaps every binding for a
wrapper and ``uninstall`` puts the originals back.

A span is (name, start, end, parent index). Spans and counts stay in
memory; ``write_spans`` writes them out once, at the end of a run.
"""
from __future__ import annotations

import functools
import json
import statistics
import time
from collections import Counter
from pathlib import Path

import numpy as np

from s2cd import (cli, highway_sim, mdp_interface, ppo_core, s2cd_engine,
                  teacher_suite, tensor_nn, theory_validation)

# (owner, attribute, metric name). Every binding of a name is listed.
SPANS = [
    (mdp_interface, "spawn_scenario", "highway_sim.spawn_scenario"),
    (mdp_interface, "build_observation", "mdp_interface.build_observation"),
    (mdp_interface, "step_reward", "mdp_interface.step_reward"),
    (tensor_nn.DenseNet, "backward_from_logits", "tensor_nn.backward"),
    (ppo_core, "adamw_step", "tensor_nn.adamw_step"),
    (s2cd_engine, "adamw_step", "tensor_nn.adamw_step"),
    (teacher_suite, "adamw_step", "tensor_nn.adamw_step"),
    (cli, "save_net", "tensor_nn.save_net"),
    (teacher_suite, "save_net", "tensor_nn.save_net"),
    (cli, "load_net", "tensor_nn.load_net"),
    (teacher_suite, "load_net", "tensor_nn.load_net"),
    (ppo_core, "sample_action", "ppo_core.sample_action"),
    (s2cd_engine, "sample_action", "ppo_core.sample_action"),
    (ppo_core, "compute_gae", "ppo_core.compute_gae"),
    (s2cd_engine, "compute_gae", "ppo_core.compute_gae"),
    (ppo_core, "ppo_loss", "ppo_core.ppo_loss"),
    (cli, "evaluate_actor", "ppo_core.evaluate_actor"),
    (cli, "train_ppo", "ppo_core.train_ppo"),
    (teacher_suite, "train_ppo", "ppo_core.train_ppo"),
    (s2cd_engine.TeacherAugmentedEnv, "step", "s2cd_engine.TeacherAugmentedEnv.step"),
    (s2cd_engine, "s2cd_loss", "s2cd_engine.s2cd_loss"),
    (cli, "train_s2cd", "s2cd_engine.train_s2cd"),
    (s2cd_engine, "teacher_advise", "teacher_suite.teacher_advise"),
    (teacher_suite, "make_supervised_row", "teacher_suite.make_supervised_row"),
    (cli, "train_teacher", "teacher_suite.train_teacher"),
    (cli, "save_bundle", "teacher_suite.save_bundle"),
    (cli, "load_bundle", "teacher_suite.load_bundle"),
    (theory_validation, "exact_policy_value", "theory_validation.exact_policy_value"),
    (theory_validation, "discounted_visitation", "theory_validation.discounted_visitation"),
    (theory_validation, "check_performance_bound",
     "theory_validation.check_performance_bound"),
    (theory_validation, "check_mixed_policy_improvement",
     "theory_validation.check_mixed_policy_improvement"),
    (cli, "run_sweep", "theory_validation.run_sweep"),
    (cli, "load_config", "cli.load_config"),
]

# Called per vehicle per substep: counted, not timed, so their time stays
# in the self time of the simulator step that calls them.
COUNTS = [
    (highway_sim, "idm_accel", "lowlevel_control.idm_accel"),
    (highway_sim, "pid_step", "lowlevel_control.pid_step"),
    (highway_sim, "plan_lane_change", "lowlevel_control.plan_lane_change"),
]

# The per-layer metrics a traced run reports, in the order printed.
PER_LAYER = [
    "highway_sim.step.calls", "highway_sim.step.self_s",
    "highway_sim.spawn_scenario.calls", "highway_sim.spawn_scenario.self_s",
    "highway_sim.vehicles_per_step",
    "lowlevel_control.idm_accel.calls", "lowlevel_control.pid_step.calls",
    "lowlevel_control.plan_lane_change.calls",
    "mdp_interface.HighwayEnv.step.self_s", "mdp_interface.HighwayEnv.reset.self_s",
    "mdp_interface.build_observation.calls", "mdp_interface.build_observation.self_s",
    "mdp_interface.step_reward.self_s",
    "tensor_nn.forward_one.calls", "tensor_nn.forward_one.self_s",
    "tensor_nn.forward_batch.calls", "tensor_nn.forward_batch.rows",
    "tensor_nn.forward_batch.self_s", "tensor_nn.backward.calls",
    "tensor_nn.backward.self_s", "tensor_nn.adamw_step.calls",
    "tensor_nn.adamw_step.self_s", "tensor_nn.save_net.self_s",
    "tensor_nn.load_net.self_s",
    "ppo_core.sample_action.self_s", "ppo_core.compute_gae.self_s",
    "ppo_core.ppo_loss.calls", "ppo_core.ppo_loss.self_s",
    "ppo_core.evaluate_actor.self_s", "ppo_core.train_ppo.self_s",
    "s2cd_engine.collect_dual.self_s", "s2cd_engine.TeacherAugmentedEnv.step.self_s",
    "s2cd_engine.interventions", "s2cd_engine.synthetic_rows",
    "s2cd_engine.s2cd_loss.calls", "s2cd_engine.s2cd_loss.self_s",
    "s2cd_engine.train_s2cd.self_s",
    "teacher_suite.teacher_advise.calls", "teacher_suite.teacher_advise.self_s",
    "teacher_suite.make_supervised_row.self_s", "teacher_suite.fit_value_heads.calls",
    "teacher_suite.fit_value_heads.rows", "teacher_suite.fit_value_heads.self_s",
    "teacher_suite.train_teacher.self_s", "teacher_suite.save_bundle.self_s",
    "teacher_suite.load_bundle.self_s",
    "theory_validation.exact_policy_value.calls",
    "theory_validation.exact_policy_value.self_s",
    "theory_validation.discounted_visitation.self_s",
    "theory_validation.check_performance_bound.self_s",
    "theory_validation.check_mixed_policy_improvement.self_s",
    "theory_validation.run_sweep.self_s",
    "cli.main.self_s", "cli.load_config.self_s", "cli.bytes_written",
    "trace.overhead_s", "trace.outside_share",
]

CHECK_SPAN = "trace.invariants"


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.calls: Counter = Counter()
        self.tallies: Counter = Counter()
        self.violations = 0
        self.first_violation = ""
        self._saved: list[tuple] = []

    # -- recording --------------------------------------------------------

    def open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append((name, time.perf_counter(), None,
                           self.stack[-1] if self.stack else -1))
        self.stack.append(index)
        self.calls[name] += 1
        return index

    def close(self, index: int) -> None:
        end = time.perf_counter()
        self.stack.pop()
        name, start, _, parent = self.spans[index]
        self.spans[index] = (name, start, end, parent)

    def span(self, name: str, fn, after=None):
        """Wrap ``fn`` in a span; ``after(result)`` runs outside it."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if after is not None:
                after(result)
            return result
        return wrapper

    def count(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _check(self, holds, describe) -> None:
        """Run an invariant check in its own span, so that its time is
        excluded from the self time of the layer around it."""
        index = self.open(CHECK_SPAN)
        try:
            if not holds():
                self.violations += 1
                self.first_violation = self.first_violation or describe()
        finally:
            self.close(index)

    def _after_sim_step(self, result) -> None:
        world = result[0]
        self.tallies["highway_sim.vehicles"] += len(world.vehicles)
        limit = world.config.speed_limit

        def holds() -> bool:
            keys = [(v.lane_index, v.longitudinal_pos) for v in world.vehicles]
            return keys == sorted(keys) and all(0.0 <= v.speed <= limit
                                                for v in world.vehicles)
        self._check(holds, lambda: f"decision {world.decision_count}: per-lane order "
                                   f"unsorted or a speed outside [0, {limit}]")

    def _after_observe(self, result) -> None:
        obs = result[0] if isinstance(result, tuple) else result
        self._check(lambda: bool(np.all(np.isfinite(obs)) and np.all(obs >= 0.0)
                                 and np.all(obs <= 1.0)),
                    lambda: f"observation outside [0, 1] or not finite: {obs.tolist()}")

    def _forward(self, fn):
        @functools.wraps(fn)
        def wrapper(net, x, *args, **kwargs):
            if np.ndim(x) == 1:
                name = "tensor_nn.forward_one"
            else:
                name = "tensor_nn.forward_batch"
                self.tallies["tensor_nn.forward_batch.rows"] += len(x)
            index = self.open(name)
            try:
                return fn(net, x, *args, **kwargs)
            finally:
                self.close(index)
        return wrapper

    def _after_collect(self, stats) -> None:
        self.tallies["s2cd_engine.interventions"] += stats.interventions
        self.tallies["s2cd_engine.synthetic_rows"] += stats.synthetic_rows

    def _before_fit(self, fn):
        @functools.wraps(fn)
        def wrapper(rows, *args, **kwargs):
            self.tallies["teacher_suite.fit_value_heads.rows"] += len(rows)
            return fn(rows, *args, **kwargs)
        return wrapper

    # -- installation -----------------------------------------------------

    def _bind(self, owner, attr: str, wrapper) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name in SPANS:
            self._bind(owner, attr, self.span(name, owner.__dict__[attr]))
        for owner, attr, name in COUNTS:
            self._bind(owner, attr, self.count(name, owner.__dict__[attr]))
        self._bind(mdp_interface, "sim_step",
                   self.span("highway_sim.step", mdp_interface.sim_step,
                             after=self._after_sim_step))
        self._bind(mdp_interface.HighwayEnv, "step",
                   self.span("mdp_interface.HighwayEnv.step",
                             mdp_interface.HighwayEnv.step, after=self._after_observe))
        self._bind(mdp_interface.HighwayEnv, "reset",
                   self.span("mdp_interface.HighwayEnv.reset",
                             mdp_interface.HighwayEnv.reset, after=self._after_observe))
        self._bind(tensor_nn.DenseNet, "forward", self._forward(tensor_nn.DenseNet.forward))
        self._bind(s2cd_engine, "collect_dual",
                   self.span("s2cd_engine.collect_dual", s2cd_engine.collect_dual,
                             after=self._after_collect))
        self._bind(teacher_suite, "fit_value_heads",
                   self.span("teacher_suite.fit_value_heads",
                             self._before_fit(teacher_suite.fit_value_heads)))
        # _run_updates takes the loss as a default argument, bound at definition
        self._saved.append((ppo_core._run_updates, "__defaults__",
                            ppo_core._run_updates.__defaults__))
        ppo_core._run_updates.__defaults__ = (ppo_core.ppo_loss,)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    # -- results ----------------------------------------------------------

    def run_main(self, argv: list[str]) -> int:
        index = self.open("cli.main")
        try:
            return cli.main(argv)
        finally:
            self.close(index)

    def self_times(self) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Counter = Counter()
        for (name, start, end, _), covered in zip(self.spans, child):
            out[name] += (end - start) - covered
        return dict(out)

    def below_main(self) -> float:
        """Seconds covered by spans directly under a ``cli.main`` span."""
        mains = {i for i, s in enumerate(self.spans) if s[0] == "cli.main"}
        return sum(end - start for _, start, end, parent in self.spans if parent in mains)

    def write_spans(self, path: Path) -> None:
        with path.open("w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")


def metric_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name == "cli.bytes_written":
        return "bytes"
    if name == "trace.outside_share":
        return "fraction"
    return "count"


def layer_metrics(reps: list[dict]) -> dict[str, float]:
    """Per-layer metrics from repeated traced passes over the same work.

    Counts come from the first pass (the work is identical in every pass);
    times are medians over passes.
    """
    calls, tallies = reps[0]["calls"], reps[0]["tallies"]
    out = {}
    for name in PER_LAYER:
        base, _, quantity = name.rpartition(".")
        if quantity == "calls":
            out[name] = float(calls.get(base, 0))
        elif quantity == "self_s":
            out[name] = statistics.median(r["self"].get(base, 0.0) for r in reps)
        elif name.startswith("trace."):
            out[name] = statistics.median(r[quantity] for r in reps)
        elif name == "highway_sim.vehicles_per_step":
            steps = calls.get("highway_sim.step", 0)
            out[name] = tallies.get("highway_sim.vehicles", 0) / steps if steps else 0.0
        else:
            out[name] = float(tallies.get(name, 0))
    return out
