"""The benchmark's tracer (``benchmarks/tracer.py``) wraps each layer at
every module binding its callers look up. A refactor that drops one of
those bindings breaks ``benchmarks/run.py --trace 1`` only when a traced
run is made; this test installs and uninstalls the tracer in-process, so
the same break fails here.
"""
from __future__ import annotations

import importlib.util
from pathlib import Path

from s2cd import ppo_core

TRACER = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("s2cd_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_every_binding():
    tracer_module = load_tracer()
    listed = {(owner, attr): owner.__dict__[attr]
              for owner, attr, _ in tracer_module.SPANS + tracer_module.COUNTS}
    # the tracer replaces this tuple, so the update loop takes one default,
    # the loss
    assert ppo_core._run_updates.__defaults__ == (ppo_core.ppo_loss,)

    tracer = tracer_module.Tracer()
    tracer.install()  # a KeyError here names a binding a module lost
    try:
        saved = {(owner, attr): original for owner, attr, original in tracer._saved}
        assert set(listed) <= set(saved)
        for key, original in saved.items():
            assert getattr(*key) is not original, key
        assert ppo_core._run_updates.__defaults__ == (ppo_core.ppo_loss,)
    finally:
        tracer.uninstall()

    for key, original in {**saved, **listed}.items():
        assert getattr(*key) is original, key
    assert ppo_core._run_updates.__defaults__ == (ppo_core.ppo_loss,)
