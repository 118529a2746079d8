"""Codec conformance: exemplar messages and the sim-vs-real parity table.

Every dataclass registered with :mod:`repro.runtime.codec` gets a
representative sample instance here.  The conformance suite
(``tests/test_live.py``, ``tests/test_codec.py``) round-trips each sample
through ``encode_bytes``/``decode_bytes`` and compares its real encoded
size against the simulator's structural estimate
(:func:`repro.sim.network.wire_size`), producing the per-class parity
table that keeps the simulator's byte model honest: the estimate is an
upper bound on what the binary codec really sends.

``python -m repro.runtime.conformance`` prints the parity table and exits
non-zero if any class fails its round trip or outgrows its estimate;
``--layout`` prints the compiled wire layout of every class instead.

Importing this module pulls in the app modules
(:mod:`repro.apps.service_discovery`, :mod:`repro.apps.txn_platform`) so
their message classes are registered before the registry is walked.
A class without an explicit sample gets the one its compiled schema
carries (required fields at small well-typed values), so a newly
registered message is covered the moment it exists.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Any, Callable

# Imported for their codec registration side effects.
import repro.apps.service_discovery  # noqa: F401
import repro.apps.txn_platform  # noqa: F401
from repro.analysis.report import render_table
from repro.core import messages as m
from repro.core.node_id import Endpoint
from repro.runtime import codec
from repro.runtime.live_net import UDP_OVERHEAD_BYTES
from repro.sim.network import wire_size

__all__ = [
    "ParityRow",
    "sample_message",
    "parity_rows",
    "render_parity_table",
    "render_layout_table",
]

_A = Endpoint("127.0.0.1", 4001)
_B = Endpoint("127.0.0.1", 4002)
_C = Endpoint("127.0.0.1", 4003)

_CID = 0x1F2E3D4C5B6A7988  # a realistic 64-bit configuration id
_PROPOSAL = (
    m.Change(_B, m.AlertKind.JOIN, uuid=7),
    m.Change(_C, m.AlertKind.REMOVE),
)
_CUT = m.cut_id(_PROPOSAL)
_ALERT = m.Alert(
    observer=_A,
    subject=_B,
    kind=m.AlertKind.REMOVE,
    config_id=_CID,
    ring_numbers=(0, 3, 7),
)
_SNAPSHOT = m.ViewSnapshot(
    members=(_A, _B, _C),
    uuids=(11, 22, 33),
    seq=4,
    metadata=((_B, (("zone", "a"),)),),
)
#: Explicit exemplars for every registered wire class.  Values are chosen
#: to exercise the interesting structure: nested dataclasses, parallel
#: tuples, optional fields both set and defaulted, metadata tables.
_SAMPLES: dict[str, Callable[[], Any]] = {
    "Change": lambda: m.Change(_B, m.AlertKind.JOIN, uuid=7),
    "Probe": lambda: m.Probe(_A, config_id=_CID, seq=42),
    "ProbeAck": lambda: m.ProbeAck(config_id=_CID, bootstrapping=True),
    "Alert": lambda: _ALERT,
    "BatchedAlerts": lambda: m.BatchedAlerts(
        sender=_A,
        config_id=_CID,
        joins=(
            m.Alert(
                observer=_A,
                subject=_C,
                kind=m.AlertKind.JOIN,
                config_id=_CID,
                joiner_uuid=9,
                metadata=(("zone", "b"),),
            ),
        ),
        removes=(m.Alert(_A, _B, m.AlertKind.REMOVE, _CID),),
    ),
    "PreJoinRequest": lambda: m.PreJoinRequest(_A, uuid=99),
    "PreJoinResponse": lambda: m.PreJoinResponse(
        _A,
        status=m.JoinStatus.SAFE_TO_JOIN,
        config_id=_CID,
        observers=(_B, _C),
    ),
    "JoinRequest": lambda: m.JoinRequest(
        _A, uuid=99, config_id=_CID, metadata=(("zone", "a"),)
    ),
    "ViewSnapshot": lambda: _SNAPSHOT,
    "JoinResponse": lambda: m.JoinResponse(
        _A, status=m.JoinStatus.SAFE_TO_JOIN, config_id=_CID, view=_SNAPSHOT
    ),
    "LeaveNotification": lambda: m.LeaveNotification(_A, config_id=_CID),
    "VoteBundle": lambda: m.VoteBundle(_A, _CID, ids=(_CUT,), bitmaps=(0b1011,)),
    "VotePull": lambda: m.VotePull(
        _A, _CID, ids=(_CUT,), bitmaps=(0b0100,), want=(_CUT,)
    ),
    "Decision": lambda: m.Decision(_A, _CID, cut_id=_CUT),
    "Phase1a": lambda: m.Phase1a(_A, _CID, rank=(2, 1)),
    "Phase1b": lambda: m.Phase1b(
        _A, _CID, rank=(2, 1), vrank=(1, 0), vvalue=_PROPOSAL
    ),
    "Phase2a": lambda: m.Phase2a(_A, _CID, rank=(2, 1), value=_PROPOSAL),
    "Phase2b": lambda: m.Phase2b(_A, _CID, rank=(2, 1), cut_id=_CUT),
    "ViewProbe": lambda: m.ViewProbe(_A, config_id=_CID),
    "ViewUpdate": lambda: m.ViewUpdate(
        _A, config_id=_CID, members=(_A, _B), uuids=(11, 22), seq=3
    ),
    "HttpRequest": lambda: _app("HttpRequest", _A, 17, key=3, deadline=12.5),
    "HttpResponse": lambda: _app("HttpResponse", _A, 17),
    "TsRequest": lambda: _app("TsRequest", _A, 9, deadline=1.5),
    "TsResponse": lambda: _app("TsResponse", _A, 9, 1234),
    "NotSerializer": lambda: _app("NotSerializer", _A, 9, hint=_B),
    "WriteRequest": lambda: _app(
        "WriteRequest", _A, 9, 1234, key=3, seq=1, deadline=2.0
    ),
    "WriteAck": lambda: _app("WriteAck", _A, 9, seq=1),
    "ViewRequest": lambda: _app("ViewRequest", _A),
    "ViewResponse": lambda: _app("ViewResponse", _A, members=(_A, _B)),
}


def _app(name: str, *args, **kwargs):
    """Instantiate an app message by registry name (apps already imported)."""
    return codec.registered_classes()[name](*args, **kwargs)


def sample_message(name: str) -> Any:
    """A representative instance of the registered class called ``name``."""
    factory = _SAMPLES.get(name)
    if factory is not None:
        return factory()
    return codec.wire_classes()[name].sample


@dataclass
class ParityRow:
    """One class's codec round-trip result and sim-vs-real size comparison.

    ``real_bytes`` is the binary-encoded payload plus the real UDP+IP
    header cost; ``estimated_bytes`` is the simulator's :func:`wire_size`
    for the identical message, which includes the same 28-byte header
    constant — the two are directly comparable.
    """

    name: str
    real_bytes: int
    estimated_bytes: int
    roundtrip_ok: bool

    @property
    def ratio(self) -> float:
        """Real over estimated size; the estimate is an upper bound."""
        return self.real_bytes / self.estimated_bytes if self.estimated_bytes else 0.0


def parity_rows() -> list[ParityRow]:
    """Round-trip an exemplar of every registered class; size both ways."""
    rows = []
    for name in sorted(codec.registered_classes()):
        msg = sample_message(name)
        data = codec.encode_bytes(msg)
        decoded = codec.decode_bytes(data)
        rows.append(
            ParityRow(
                name=name,
                real_bytes=len(data) + UDP_OVERHEAD_BYTES,
                estimated_bytes=wire_size(msg),
                roundtrip_ok=decoded == msg,
            )
        )
    return rows


def render_parity_table(rows: list[ParityRow]) -> str:
    """ASCII table of per-class real vs estimated wire sizes."""
    return render_table(
        ["class", "real B", "sim est B", "real/est", "roundtrip"],
        [
            [
                row.name,
                row.real_bytes,
                row.estimated_bytes,
                f"{row.ratio:.2f}",
                "ok" if row.roundtrip_ok else "FAIL",
            ]
            for row in rows
        ],
        title="Wire-size parity: binary codec vs sim estimate (per exemplar message)",
    )


def render_layout_table() -> str:
    """Markdown table of every class's tag, field order and encodings.

    Embedded in ``docs/ARCHITECTURE.md``; ``tests/test_docs.py`` fails
    when the two drift apart.
    """
    lines = ["| tag | class | fields, in wire order |", "|---|---|---|"]
    for entry in sorted(codec.wire_classes().values(), key=lambda entry: entry.tag):
        fields = "; ".join(f"`{name}` {label}" for name, label in entry.layout)
        lines.append(f"| `0x{entry.tag:02X}` | `{entry.name}` | {fields} |")
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    """Print the layout or the parity table; non-zero on a failed gate."""
    if argv == ["--layout"]:
        print(render_layout_table())
        return 0
    rows = parity_rows()
    print(render_parity_table(rows))
    failed = [row.name for row in rows if not row.roundtrip_ok or row.ratio > 1.0]
    if failed:
        print(f"FAIL (round trip, or real/est > 1.0): {', '.join(failed)}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
