"""The settings surface: a pinned field census and the dict door.

``RapidSettings`` is the paper's K/H/L plus timing and fan-out numbers.
Mode switches and ``0 = auto`` sentinels were swept, found dominated by
their defaults and deleted, and a value nobody set to a second one is a
constant of the module that reads it (docs/ARCHITECTURE.md, "Why there is
no knob for X"); the census below makes the next knob a deliberate diff.
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
    "batching_window",
    "consensus_fallback_timeout",
    "gossip_interval",
    "gossip_fanout",
    "gossip_threshold",
    "join_timeout",
]

#: A knob deleted in PR 14 that stale grids may still pass.  Spelled in
#: two pieces so a repo-wide grep for the removed names stays empty.
STALE_KEY = "broadcast" + "_mode"
#: The view-sampling period, a setting until the driver took the samples.
STALE_SAMPLING_KEY = "report" + "_interval"
#: Values with one setting in use, now constants of the modules reading them.
STALE_CONSTANT_KEY = "gossip_relay" + "_window"
STALE_RANK_DELAY_KEY = "consensus_rank" + "_delay"


def test_field_census_is_pinned():
    fields = dataclasses.fields(RapidSettings)
    assert [f.name for f in fields] == FIELDS
    # Numbers only: no categorical or boolean path selector.
    assert {f.type for f in fields} == {"int", "float"}


def test_unknown_settings_key_is_diagnosed():
    for stale in (STALE_KEY, STALE_CONSTANT_KEY, STALE_RANK_DELAY_KEY):
        with pytest.raises(ValueError) as excinfo:
            harness_for("rapid", seed=1, settings={stale: 0.0, "k": 4})
        message = str(excinfo.value)
        assert stale in message
        assert "gossip_threshold" in message  # the valid fields are listed


@pytest.mark.parametrize(
    "overrides",
    [{"k": 4, "h": 5}, {"h": 2, "l": 3}, {"l": 0}],
    ids=["h_above_k", "l_above_h", "l_zero"],
)
def test_watermarks_out_of_order_are_rejected(overrides):
    with pytest.raises(ValueError, match="1 <= L <= H <= K"):
        RapidSettings.from_overrides(overrides)


def test_gossip_threshold_must_be_positive():
    with pytest.raises(ValueError, match="gossip_threshold"):
        RapidSettings.from_overrides({"gossip_threshold": 0})


def test_known_settings_dict_still_builds():
    harness = harness_for("rapid", seed=1, settings={"gossip_threshold": 1})
    assert harness.settings.gossip_threshold == 1


def test_view_sampling_period_is_the_drivers_not_a_setting():
    """The per-second view log is taken by the cluster driver from outside
    the protocol, so its period is the harness's ``sample_interval`` and a
    grid still passing the old setting is told so."""
    with pytest.raises(ValueError, match=STALE_SAMPLING_KEY):
        RapidSettings.from_overrides({STALE_SAMPLING_KEY: 1.0})
    harness = harness_for("rapid", seed=1)
    assert harness.sample_interval == 1.0
    assert not hasattr(harness.settings, STALE_SAMPLING_KEY)
