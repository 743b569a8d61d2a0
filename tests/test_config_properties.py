"""Property test of the config parser on mutated example configurations.

Any leaf or section of a shipped config may be replaced by an arbitrary
JSON value.  parse_config must then either return or raise ConfigError,
and whatever it accepts must survive serialize -> parse unchanged.
"""

import copy
import json
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from cotrap.config import parse_config, serialize_config
from cotrap.errors import ConfigError

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


@settings(max_examples=400, deadline=None)
@given(target=st.sampled_from(TARGETS), value=JSON_VALUES)
# extremes that once escaped as OverflowError / ZeroDivisionError
@example(target=(PAIR, ("particles", 0, "radius_meters")), value=1e200)
@example(target=(PAIR, ("particles", 0, "density_kg_per_m3")), value=1e-320)
@example(target=(PAIR, ("noise", "t0_kelvin")), value=1e-320)
@example(target=(PAIR, ("run", "seed")), value=-1)
@example(target=(PAIR, ("trap",)), value=5)
def test_mutated_config_parses_or_raises_config_error(target, value):
    name, path = target
    raw = copy.deepcopy(CONFIGS[name])
    node = raw
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    try:
        cfg = parse_config(raw)
    except ConfigError:
        return
    text = serialize_config(cfg)
    assert serialize_config(parse_config(json.loads(text))) == text
