"""Property test of config loading: a config the CLI accepts loads into
objects of the annotated types and runs; any other config is refused with
exit code 2 before ``--out`` exists."""
import json
import math
import numbers
import tempfile
import types
import typing
from dataclasses import fields, is_dataclass
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from s2cd import cli
from s2cd.highway_sim import Action, SimConfig
from s2cd.mdp_interface import HighwayEnv, RewardConfig
from s2cd.ppo_core import HyperParams
from s2cd.s2cd_engine import S2cdHyper, SwitchConfig

HYPER_KEYS = {f.name for f in fields(HyperParams)}
SECTIONS = {
    "sim": fields(SimConfig),
    "reward": fields(RewardConfig),
    "hyper": fields(HyperParams),
    "s2cd": [f for f in fields(S2cdHyper) if f.name not in HYPER_KEYS],
    "switch": fields(SwitchConfig),
    "theory": fields(cli.TheoryConfig),
}

# Every JSON type, for a value or a whole section of the wrong type.
WRONG = st.sampled_from(["x", "false", True, False, None, 0, [1], {"a": 1}, math.nan])

# Values of the right type, in range by themselves; a field not named here
# takes its default. The world stays small: at most 5 lanes of at most
# 2,000 m, with step rates from a fixed list.
GOOD = {
    "fidelity": st.sampled_from(["simple", "complex"]),
    "density": st.sampled_from(["low", "medium", "high"]),
    "lanes_count": st.integers(2, 5),
    "speed_limit": st.sampled_from([15, 25.0, 30.0]),
    "episode_length": st.sampled_from([80.0, 300, 2000.0]),
    "sim_dt": st.sampled_from([None, 0.1, 0.05]),
    "decisions_per_second": st.sampled_from([None, 2.0, 5, 20.0]),
    "gamma": st.floats(0.0, 0.99),
    "clip_eps": st.floats(0.2, 0.9),
    "psi": st.floats(0.0, 0.2),
    "instances": st.integers(1, 2),
    "max_states": st.integers(1, 4),
    "max_actions": st.integers(2, 3),
    "tolerance": st.sampled_from([0.0, 1e-9, 1]),
    "seed": st.integers(0, 2**32),
}
# Values of the right type that may be out of range, small where they size work.
EDGE = {
    "int": st.integers(-2, 3000), "float": st.floats(-1.0, 40.0) | st.just(1e308),
    "float | None": st.sampled_from([0, -1.0, 0.03, 3]), "bool": st.booleans(),
    "Fidelity": st.just("exact"), "Density": st.just("jammed"),
    "lanes_count": st.integers(-1, 5), "episode_length": st.sampled_from([-5.0, 0]),
    "instances": st.integers(-1, 0), "max_states": st.just(0), "max_actions": st.integers(0, 1),
}
TOP_LEVEL = {
    "seeds": st.lists(st.integers(0, 3), min_size=1, max_size=3),
    "eval_episodes": st.integers(1, 3),
    "quality": st.sampled_from(["high", "low", "complex"]),
}


FIELDS = [(name, f) for name, section in SECTIONS.items() for f in section]
FAULTS = ["section", "top level", "unknown key", "missing key"] + ["wrong type"] * 4 + ["edge"] * 2


def good(field):
    if field.type == "bool":
        return st.booleans()
    return GOOD.get(field.name, st.just(field.default))


@st.composite
def configs(draw):
    """Config dicts of good values with up to two faults: a section that is
    not an object, a top-level value or a field of the wrong JSON type, an
    unknown key, a missing key, or a field value that may be out of range.
    The theory section is always there, since the default sweep is 100
    instances."""
    payload = {}
    for name, section in SECTIONS.items():
        if name == "theory" or draw(st.booleans()):
            chosen = section if name == "theory" else draw(
                st.lists(st.sampled_from(section), unique=True, max_size=3))
            payload[name] = {f.name: draw(good(f)) for f in chosen}
    for key, strategy in TOP_LEVEL.items():
        if draw(st.booleans()):
            payload[key] = draw(strategy)
    for _ in range(draw(st.integers(0, 2))):
        name, field = draw(st.sampled_from(FIELDS))
        fault = draw(st.sampled_from(FAULTS))
        if fault == "section":
            payload[name] = draw(WRONG | st.just(5))
        elif fault == "top level":
            payload[draw(st.sampled_from(sorted(TOP_LEVEL)))] = draw(WRONG)
        elif not isinstance(payload.setdefault(name, {}), dict):
            continue
        elif fault == "unknown key":
            payload[name]["seed" if name == "sim" else "bogus"] = 1
        elif fault == "missing key":
            payload[name].pop(field.name, None)
        else:
            payload[name][field.name] = draw(
                WRONG if fault == "wrong type" else EDGE.get(field.name, EDGE[field.type]))
    return payload


def holds(value, hint) -> bool:
    """Whether ``value`` holds the annotated type ``hint``: dataclasses field
    by field, an int counts as a float, a bool as neither, floats are finite."""
    args = typing.get_args(hint)
    if isinstance(hint, types.UnionType):
        return any(holds(value, h) for h in args)
    if typing.get_origin(hint) is tuple:
        return isinstance(value, tuple) and all(holds(v, args[0]) for v in value)
    if hint is int:
        return isinstance(value, int) and not isinstance(value, bool)
    if hint is float:
        return (isinstance(value, numbers.Real) and not isinstance(value, bool)
                and math.isfinite(value))
    if is_dataclass(hint):
        hints = typing.get_type_hints(hint)
        return isinstance(value, hint) and all(
            holds(getattr(value, f.name), hints[f.name]) for f in fields(hint))
    return isinstance(value, hint)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(configs())
def test_config_is_refused_before_outputs_or_loads_and_runs(payload):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(payload))
        out = Path(tmp) / "out"
        code = cli.main(["theory", "--config", str(path), "--out", str(out)])
        if code == 2:
            assert not out.exists()
            return
        assert code in (0, 1)
        run = cli.load_config(str(path), "theory")
    assert holds(run, cli.RunConfig)
    env = HighwayEnv(run.sim, run.reward)
    env.reset()
    for _ in range(3):
        if env.step(Action.FOLLOW)[2].episode_done:
            break
