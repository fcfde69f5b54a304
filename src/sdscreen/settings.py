"""The settings schema, and the ``key = value`` text that config files,
``config.txt`` and dataset manifests are written in.

A field's key is its name, except for the fields in ``RENAMED``. A tuple field
renamed to several keys takes one key per element.

The text is UTF-8, one ``key = value`` pair a line; blank lines and lines
starting with ``#`` are skipped, the key and value are stripped, and a line
without ``=``, an empty key or a key an earlier line gave is refused. Each
caller passes the error class to raise, so a bad config file exits 1 and a bad
manifest exits 2.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from dataclasses import fields
from pathlib import Path

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


def split_pairs(lines: Iterable[tuple[str, str]],
                error: type[Exception]) -> Iterator[tuple[str, str, str]]:
    """(where, key, value) for each ``(where, line)``; errors name ``where``."""
    seen: set[str] = set()
    for where, line in lines:
        key, eq, value = line.partition("=")
        key = key.strip()
        if not eq:
            raise error(f"{where}: expected 'key = value', got {line!r}")
        if not key:
            raise error(f"{where}: empty key")
        if key in seen:
            raise error(f"{where}: key {key!r} given twice")
        seen.add(key)
        yield where, key, value.strip()


def parse_pairs(path: Path, blob: bytes,
                error: type[Exception]) -> Iterator[tuple[str, str, str]]:
    """(``path:line``, key, value) for each pair of ``blob``, the bytes of a
    ``key = value`` file read from ``path``."""
    try:
        text = blob.decode("utf-8")
    except UnicodeDecodeError as e:
        line = blob.count(b"\n", 0, e.start) + 1
        raise error(f"{path}:{line}: not UTF-8 text at byte {e.start}") from None
    # Lines end at "\n" only: str.splitlines also breaks at \x0c, \x85, \u2028
    # and more, which a value may hold.
    lines = ((f"{path}:{n}", raw.strip()) for n, raw in enumerate(text.split("\n"), 1))
    return split_pairs(((w, ln) for w, ln in lines if ln and not ln.startswith("#")), error)


def pairs_text(pairs: Iterable[tuple[str, object]]) -> str:
    """One ``key = value`` line per pair: booleans as true/false, floats by ``repr``."""
    def text(value: object) -> str:
        if isinstance(value, bool):
            return "true" if value else "false"
        return repr(value) if isinstance(value, float) else str(value)
    return "".join(f"{key} = {text(value)}\n" for key, value in pairs)
