"""The settings schema: the config dataclasses' fields, as flat ``key = value`` keys.

A field's key is its name, except for the fields in ``RENAMED``. A tuple field
renamed to several keys takes one key per element.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import fields

# (class name, field name) -> its keys, for the fields whose keys differ from their names.
RENAMED = {("SynthConfig", "seed"): ("synth_seed",),
           ("ModelConfig", "hidden"): ("hidden1", "hidden2")}


def _keys(cls: type, name: str) -> tuple[str, ...]:
    return RENAMED.get((cls.__name__, name), (name,))


def flatten(config) -> dict[str, object]:
    """Each key of a config dataclass instance with its value, in field order."""
    flat: dict[str, object] = {}
    for f in fields(config):
        keys, value = _keys(type(config), f.name), getattr(config, f.name)
        flat.update(zip(keys, value) if len(keys) > 1 else [(keys[0], value)])
    return flat


def build(cls: type, settings: Mapping[str, object]):
    """The ``cls`` instance whose fields take their keys' values in ``settings``."""
    kwargs = {}
    for f in fields(cls):
        values = tuple(settings[k] for k in _keys(cls, f.name))
        kwargs[f.name] = values if len(values) > 1 else values[0]
    return cls(**kwargs)
