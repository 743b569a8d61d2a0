"""Property test of the config parser on mutated example configurations.

Any leaf or section of a shipped config may be replaced by an arbitrary
JSON value.  parse_config must then either return or raise ConfigError.
Whatever it accepts must survive serialize -> parse unchanged, the steps
before integration (mode structure, stability parameters and controller
design) must either succeed or raise a CotrapError, and the run itself,
cut short, must either give a report whose every number is finite or
raise a CotrapError.
"""

import copy
import json
import math
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cotrap.config import parse_config, serialize_config
from cotrap.errors import ConfigError, CotrapError
from cotrap.report import resolve_controllers, run_experiment
from cotrap.trap import mode_structure, stability_params

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
CONFIGS = {p.name: json.loads(p.read_text()) for p in sorted(CONFIG_DIR.glob("*.json"))}


def _paths(node, prefix=()):
    """Every key path below node: sections and leaves alike."""
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


TARGETS = [(name, path) for name, raw in CONFIGS.items() for path in _paths(raw)]

# json.load accepts NaN and +-Infinity, so the floats include them
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=8), children, max_size=3),
    max_leaves=6,
)


PAIR = "characterised_pair.json"

# the run is cut to at most this many controller samples and substeps in
# all; a cut config is itself one that parses, so the property holds for it
CUT_SAMPLES = 2000
CUT_SUBSTEPS = 10**6


def _numbers(node):
    """Every int and float in a report, at any depth."""
    if isinstance(node, dict):
        node = list(node.values())
    if isinstance(node, list):
        for child in node:
            yield from _numbers(child)
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield node


def _leaf(raw, path):
    for key in path:
        raw = raw[key]
    return raw


def _mutated(target, value):
    """The named config with the leaf or section at path set to value."""
    name, path = target
    raw = copy.deepcopy(CONFIGS[name])
    _leaf(raw, path[:-1])[path[-1]] = value
    return raw


def _parses_and_runs_or_raises(raw):
    try:
        cfg = parse_config(raw)
    except ConfigError:
        return
    text = serialize_config(cfg)
    assert serialize_config(parse_config(json.loads(text))) == text
    try:
        resolve_controllers(cfg, mode_structure(cfg.trap, *cfg.particles))
        for particle in cfg.particles:
            stability_params(cfg.trap, particle)
    except CotrapError:
        pass
    run = cfg.run
    run.substeps = min(run.substeps, CUT_SUBSTEPS)
    samples = max(1, min(CUT_SAMPLES, CUT_SUBSTEPS // run.substeps))
    run.duration = min(run.duration, samples / run.sample_rate)
    try:
        report = run_experiment(cfg).report
    except CotrapError:
        return
    bad = [x for x in _numbers(report) if not math.isfinite(x)]
    assert not bad, report


@settings(max_examples=400, deadline=None)
@given(target=st.sampled_from(TARGETS), value=JSON_VALUES)
# extremes that once escaped as OverflowError / ZeroDivisionError
@example(target=(PAIR, ("particles", 0, "radius_meters")), value=1e200)
@example(target=(PAIR, ("particles", 0, "density_kg_per_m3")), value=1e-320)
@example(target=(PAIR, ("noise", "t0_kelvin")), value=1e-320)
@example(target=(PAIR, ("run", "seed")), value=-1)
@example(target=(PAIR, ("trap",)), value=5)
# extremes that parse but once escaped the mode theory as OverflowError,
# ZeroDivisionError or ValueError
@example(target=(PAIR, ("trap", "u0_volts")), value=1e308)
@example(target=(PAIR, ("trap", "z0_meters")), value=1e-308)
@example(target=(PAIR, ("trap", "v0_volts")), value=1e308)
@example(target=(PAIR, ("particles", 0, "charge_e")), value=10**400)
@example(target=(PAIR, ("particles", 1, "density_kg_per_m3")), value=1e308)
# a wide bandpass only warns
@pytest.mark.filterwarnings("ignore:bandpass overlaps the untargeted mode")
def test_mutated_config_parses_or_raises_config_error(target, value):
    _parses_and_runs_or_raises(_mutated(target, value))


# every numeric leaf, and the factors of the run-time fuzz that found the
# OverflowError, ZeroDivisionError and runaway cases above
NUMERIC = [t for t in TARGETS if type(_leaf(CONFIGS[t[0]], t[1])) in (int, float)]
FACTORS = [0.0, 1e-300, 1e-12, 1e-3, 0.5, 2.0, 1e3, 1e12, 1e300, -1.0]


def _scaled(target, factor):
    """The named config with the numeric leaf at path multiplied by factor."""
    leaf = _leaf(CONFIGS[target[0]], target[1])
    value = leaf * factor
    if type(leaf) is int and math.isfinite(value):
        value = int(value)
    return _mutated(target, value)


@settings(max_examples=300, deadline=None)
@given(target=st.sampled_from(NUMERIC),
       factor=st.sampled_from(FACTORS) | st.floats(-1e3, 1e3))
# once a raw ValueError: the damper's filter chain gave NaN at a near-zero
# mode frequency
@example(target=("cooling_sweep.json", ("trap", "kappa")), factor=2.1092816832334743e-95)
# once a numpy RuntimeWarning: a bandpass so narrow that its poles rounded
# onto the unit circle, and the chain's response divided by 0
@example(target=("squeezing.json", ("controllers", 0, "bandwidth_rad_per_s")), factor=1e-300)
@pytest.mark.filterwarnings("ignore:bandpass overlaps the untargeted mode")
def test_scaled_config_runs_or_raises_cotrap_error(target, factor):
    _parses_and_runs_or_raises(_scaled(target, factor))


# every fixed factor on every numeric leaf, each run: the property above
# draws only some of these pairs in one run
@pytest.mark.parametrize("factor", FACTORS)
@pytest.mark.parametrize("target", NUMERIC, ids=lambda t: f"{t[0]}:{'.'.join(map(str, t[1]))}")
@pytest.mark.filterwarnings("ignore:bandpass overlaps the untargeted mode")
def test_fixed_factor_runs_or_raises_cotrap_error(target, factor):
    _parses_and_runs_or_raises(_scaled(target, factor))
