"""Grid specifications for the sweep harness.

A grid is a mapping of axis names to value lists; its expansion is the
cartesian product, one :class:`SweepPoint` per combination.  Three input
forms parse to the same thing:

* compact string — ``scenario=adversary;systems=rapid,memberlist;``
  ``profiles=flip_flop,slow_process;n=24;seeds=1,2`` (axes separated by
  ``;``, values by ``,``; ints/floats/bools are auto-typed);
* JSON object — the same axes as a dict, with proper lists
  (``{"systems": ["rapid"], "settings": {"k": 8, "h": 7}}``; a
  dict-valued key is a scalar param, not an axis);
* JSON list — several objects, expanded independently and concatenated
  (ragged grids: different windows per system, say).

``--grid`` accepts any of these inline or a path to a ``.json`` file.

Axis names: ``scenario``/``scenarios``, ``system``/``systems``,
``profile``/``profiles``, ``n``/``ns``, ``seed``/``seeds`` map to the
point's identity fields; every other key becomes a keyword argument for
the scenario function, and list-valued extras are swept like any axis.
The ``profile`` axis only reaches the scenario call for profile-aware
scenarios (:data:`PROFILE_SCENARIOS`: ``adversary`` plus the app-tier
``service_discovery``/``txn_platform``); expansion dedupes the points a
dangling profile axis would otherwise duplicate.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass, field
from typing import Mapping, Sequence

__all__ = ["SweepPoint", "PROFILE_SCENARIOS", "parse_grid", "expand_grid"]

#: Scenarios whose functions take a ``profile=`` keyword; for every other
#: scenario the profile axis is collapsed to ``-`` and not passed through.
PROFILE_SCENARIOS = frozenset({"adversary", "service_discovery", "txn_platform"})

#: Axis aliases → canonical identity-field name.
_AXIS_ALIASES = {
    "scenario": "scenario",
    "scenarios": "scenario",
    "system": "system",
    "systems": "system",
    "profile": "profile",
    "profiles": "profile",
    "n": "n",
    "ns": "n",
    "seed": "seed",
    "seeds": "seed",
}

_DEFAULTS = {
    "scenario": ("adversary",),
    "system": ("rapid",),
    "profile": ("flip_flop",),
    "n": (24,),
    "seed": (1,),
}


@dataclass(frozen=True)
class SweepPoint:
    """One run of the sweep: a scenario call plus its identity columns."""

    scenario: str
    system: str
    n: int
    seed: int
    profile: str = "-"
    params: tuple = field(default_factory=tuple)

    @property
    def name(self) -> str:
        tags = "".join(f"/{k}={v}" for k, v in self.params)
        return (
            f"{self.scenario}/{self.profile}/{self.system}"
            f"/n{self.n}/s{self.seed}{tags}"
        )

    def call_kwargs(self) -> dict:
        """Keyword arguments for the scenario function."""
        kwargs = {k: thaw(v) for k, v in self.params}
        if self.scenario in PROFILE_SCENARIOS:
            kwargs["profile"] = self.profile
        return kwargs


def _parse_scalar(token: str):
    """Best-effort typing of one compact-string value."""
    low = token.lower()
    if low == "true":
        return True
    if low == "false":
        return False
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        return token


def _parse_compact(spec: str) -> dict:
    grid: dict = {}
    for clause in spec.split(";"):
        clause = clause.strip()
        if not clause:
            continue
        if "=" not in clause:
            raise ValueError(
                f"bad grid clause {clause!r}: expected key=value[,value...]"
            )
        key, _, values = clause.partition("=")
        key = key.strip()
        if not key:
            raise ValueError(f"bad grid clause {clause!r}: empty key")
        grid[key] = [_parse_scalar(v.strip()) for v in values.split(",")]
    if not grid:
        raise ValueError(f"empty grid spec {spec!r}")
    return grid


def parse_grid(spec: str) -> list:
    """Parse a grid spec (compact string, JSON literal, or JSON file path).

    Returns the expanded, deduplicated list of :class:`SweepPoint`.
    """
    spec = spec.strip()
    if spec.endswith(".json") or os.path.isfile(spec):
        with open(spec, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    elif spec.startswith(("{", "[")):
        data = json.loads(spec)
    else:
        data = _parse_compact(spec)
    blocks = data if isinstance(data, list) else [data]
    points: list = []
    for block in blocks:
        if not isinstance(block, Mapping):
            raise ValueError(f"grid block must be an object, got {block!r}")
        points.extend(expand_grid(block))
    # Dedupe (e.g. a profile axis crossed with non-adversary scenarios)
    # while preserving first-seen order.
    return list(dict.fromkeys(points))


def expand_grid(block: Mapping) -> list:
    """Cartesian-product one grid block into :class:`SweepPoint` runs."""
    axes: dict = dict(_DEFAULTS)
    extras: dict = {}
    for key, value in block.items():
        canon = _AXIS_ALIASES.get(key)
        values = (
            list(value)
            if isinstance(value, (list, tuple))
            else [value]
        )
        if canon is not None:
            axes[canon] = values
        else:
            # Dict-valued params (settings, app_config) are a single
            # scalar argument, never an axis.
            extras[key] = (
                [value] if isinstance(value, Mapping) else values
            )
    extra_keys = sorted(extras)
    points = []
    for scenario, system, profile, n, seed in itertools.product(
        axes["scenario"], axes["system"], axes["profile"], axes["n"], axes["seed"]
    ):
        for combo in itertools.product(*(extras[k] for k in extra_keys)):
            params = tuple(
                (k, _freeze(v)) for k, v in zip(extra_keys, combo)
            )
            points.append(
                SweepPoint(
                    scenario=str(scenario),
                    system=str(system),
                    n=int(n),
                    seed=int(seed),
                    profile=(
                        str(profile)
                        if scenario in PROFILE_SCENARIOS
                        else "-"
                    ),
                    params=params,
                )
            )
    return points


def _freeze(value):
    """Hashable stand-in for a param value (dicts → sorted item tuples)."""
    if isinstance(value, Mapping):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    return value


def thaw(value):
    """Inverse of :func:`_freeze` for nested dict params."""
    if isinstance(value, tuple) and all(
        isinstance(item, tuple) and len(item) == 2 and isinstance(item[0], str)
        for item in value
    ) and value:
        return {k: thaw(v) for k, v in value}
    if isinstance(value, tuple):
        return [thaw(v) for v in value]
    return value
