"""Benchmark for the s2cd command: training, evaluation and certification
throughput, measured end to end through ``s2cd.cli.main``.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: teacher-simple, student-complex, theory-sweep (see
README.md). Run from the root of a source checkout; the package is
imported from ``src/``. Outputs go to ``benchmarks/out/`` and are removed
at the end of the run, except the span file a traced run writes.

``--trace 0`` runs round 0 as an untimed warm-up, then whole rounds of
commands until ``--seconds`` of command time have passed, and reports the
end-to-end metrics. ``--trace 1`` runs round 0 alternately with and without
spans around the package's public functions, until ``--seconds`` have
passed, and reports per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

# One BLAS/OpenMP thread: the networks are small, and a fixed thread count
# keeps CPU time per unit comparable between runs.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import checks  # noqa: E402 (imports numpy, after the thread settings)
from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


class StepMeter:
    """Counts decisions at ``HighwayEnv.step`` and marks where evaluation
    starts, so training steps can be told from evaluation steps."""

    def __init__(self, cli, mdp_interface):
        self.cli, self.env_cls = cli, mdp_interface.HighwayEnv
        self.steps = 0
        self.train_steps = None

    def install(self) -> None:
        self._step, self._evaluate = self.env_cls.step, self.cli.evaluate_actor
        step, evaluate = self._step, self._evaluate

        def counted_step(env, action):
            self.steps += 1
            return step(env, action)

        def marked_evaluate(*args, **kwargs):
            if self.train_steps is None:
                self.train_steps = self.steps
            return evaluate(*args, **kwargs)

        self.env_cls.step = counted_step
        self.cli.evaluate_actor = marked_evaluate

    def uninstall(self) -> None:
        self.env_cls.step, self.cli.evaluate_actor = self._step, self._evaluate

    def reset(self) -> None:
        self.steps = 0
        self.train_steps = None


class Runner:
    def __init__(self, workload, meter, cli, work: Path):
        self.workload, self.meter, self.cli, self.work = workload, meter, cli, work
        self.attempted = self.failed = 0
        self.check_errors: list[str] = []

    def run_cli(self, argv) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return self.cli.main(argv)

    def run_round(self, k: int, directory: Path, call=None) -> dict:
        """Run every command of round ``k`` into ``directory``; returns the
        round's command wall time, CPU time, work units and output bytes."""
        call = call or self.cli.main
        totals = {"wall": 0.0, "cpu": 0.0, "units": 0, "bytes": 0}
        for op in self.workload.ops(k, directory):
            self.meter.reset()
            cpu0, t0 = cpu_seconds(), time.perf_counter()
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    rc = call(op.argv)
            except Exception:  # a crash fails this command; the run goes on
                traceback.print_exc()
                rc = 1
            wall, cpu = time.perf_counter() - t0, cpu_seconds() - cpu0
            if op.units is None:
                units = self.meter.steps
            else:
                units = op.units if rc == 0 else 0
            totals["wall"] += wall
            totals["cpu"] += cpu
            totals["units"] += units
            self.attempted += 1
            ok = rc == 0
            if ok:
                try:
                    op.check(self.meter.train_steps)
                except (checks.CheckError, OSError, ValueError, KeyError) as exc:
                    self.check_errors.append(f"{' '.join(op.argv)}: {exc}")
                    ok = False
                totals["bytes"] += checks.tree_bytes(op.out)
            self.failed += not ok
            print(f"op units={units} wall={wall:.4f} cpu={cpu:.4f}", file=sys.stderr)
        return totals


def report(correct: bool, runner: Runner, metrics: dict) -> None:
    for message in runner.check_errors[:5]:
        print(f"check failed: {message}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))


def measure(runner: Runner, args, setup_s: float) -> None:
    """Untraced: round 0 warms up untimed, then whole rounds until the timed
    commands have taken --seconds of wall time."""
    wall = cpu = 0.0
    units = k = 0
    while k == 0 or wall < args.seconds:
        directory = runner.work / f"round{k}"
        totals = runner.run_round(k, directory)
        if k == 0:
            print(f"digest {args.workload} "
                  f"{checks.tree_digest(runner.workload.setup_dir, directory)}")
        else:
            wall, cpu, units = wall + totals["wall"], cpu + totals["cpu"], units + totals["units"]
        shutil.rmtree(directory)
        k += 1
    if units == 0:
        raise SystemExit(f"{args.workload}: no work completed in {runner.attempted} commands")
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"rounds={k} timed_units={units} timed_wall_s={wall:.3f}", file=sys.stderr)
    report(not runner.check_errors, runner, {
        "setup_s": {"value": setup_s, "unit": "s"},
        "work_per_s": {"value": units / wall, "unit": "units/s"},
        "cpu_ms_per_work": {"value": 1000.0 * cpu / units, "unit": "ms/unit"},
        "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
    })


def measure_traced(runner: Runner, args) -> None:
    """Traced: round 0 without and then with spans, repeated until
    --seconds have passed; per-layer times are medians over the passes."""
    from tracer import Tracer, layer_metrics, metric_unit

    reps, digests, violations, first_violation = [], set(), 0, ""
    start = time.perf_counter()
    while not reps or time.perf_counter() - start < args.seconds:
        plain_dir = runner.work / f"plain{len(reps)}"
        plain = runner.run_round(0, plain_dir)
        tracer = Tracer()
        traced_dir = runner.work / f"traced{len(reps)}"
        try:
            tracer.install()
            traced = runner.run_round(0, traced_dir, call=tracer.run_main)
        finally:
            tracer.uninstall()
        for directory in (plain_dir, traced_dir):
            digests.add(checks.tree_digest(runner.workload.setup_dir, directory))
            shutil.rmtree(directory)
        violations += tracer.violations
        first_violation = first_violation or tracer.first_violation
        reps.append({"calls": tracer.calls, "tallies": {**tracer.tallies,
                                                         "cli.bytes_written": traced["bytes"]},
                     "self": tracer.self_times(),
                     "overhead_s": traced["wall"] - plain["wall"],
                     "outside_share": 1.0 - tracer.below_main() / traced["wall"]})
        if len(reps) == 1:
            first = tracer  # its spans are written out at the end
    for digest in sorted(digests):
        print(f"digest {args.workload} {digest}")
    missing = [n for n in runner.workload.exercised if not reps[0]["calls"].get(n)]
    for name in missing:
        print(f"layer recorded zero calls: {name}", file=sys.stderr)
    if violations:
        print(f"simulator invariant broken {violations} times; first: {first_violation}",
              file=sys.stderr)
    if len(digests) != 1:
        print("traced and untraced passes wrote different outputs", file=sys.stderr)
    span_file = HERE / "out" / f"spans-{args.workload}.jsonl"
    first.write_spans(span_file)
    print(f"passes={len(reps)} spans={len(first.spans)} written to {span_file}",
          file=sys.stderr)
    metrics = {name: {"value": value, "unit": metric_unit(name)}
               for name, value in layer_metrics(reps).items()}
    report(not (runner.check_errors or missing or violations or len(digests) != 1),
           runner, metrics)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "s2cd" / "cli.py").is_file():
        print(f"no s2cd sources under {src}: run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from s2cd import cli, mdp_interface
    import_s = time.perf_counter() - PROCESS_START

    work = HERE / "out" / f"{args.workload}-{os.getpid()}"
    workload = WORKLOADS[args.workload](args.seed)
    meter = StepMeter(cli, mdp_interface)
    runner = Runner(workload, meter, cli, work)
    try:
        setup_times = []
        for i in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            workload.setup(work / f"setup{i}", runner.run_cli)
            setup_times.append(time.perf_counter() - t0)
        setup_s = import_s + statistics.median(setup_times)
        meter.install()
        try:
            if args.trace:
                measure_traced(runner, args)
            else:
                measure(runner, args, setup_s)
        finally:
            meter.uninstall()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
