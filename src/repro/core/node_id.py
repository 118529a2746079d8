"""Process identity types.

Rapid identifies a process by two things (paper, section 3):

* an :class:`Endpoint` — the ``HOST:PORT`` listen address supplied to
  ``JOIN``; and
* a logical identifier (:class:`NodeId`) assigned internally by the library
  for each join attempt.  A process that leaves and rejoins does so with a
  *new* logical identifier, which lets the protocol distinguish a restarted
  process from a stale incarnation of the same address.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import NamedTuple

__all__ = ["Endpoint", "NodeId", "stable_hash64"]


def stable_hash64(*parts: object) -> int:
    """Return a deterministic 64-bit hash of ``parts``.

    Python's builtin ``hash`` is randomized per interpreter run, which would
    make ring orders (and therefore the whole monitoring topology)
    non-reproducible across runs.  All protocol-visible hashing goes through
    this helper instead.
    """
    digest = hashlib.blake2b(digest_size=8)
    for part in parts:
        digest.update(repr(part).encode("utf-8"))
        digest.update(b"\x00")
    return int.from_bytes(digest.digest(), "big")


class _HostPort(NamedTuple):
    host: str
    port: int = 1


class Endpoint(_HostPort):
    """A ``host:port`` listen address.

    An endpoint *is* its ``(host, port)`` tuple: hashing, equality and
    ordering are the tuple's own, in C, which is what every dictionary and
    set keyed by an endpoint, every membership sort and
    ``Configuration``'s content key run on.  Consequently
    ``Endpoint(h, p) == (h, p)`` and the two hash alike.

    Deliberately no ``__slots__``: the wire codec memoises an endpoint's
    encoded bytes on the instance.
    """

    def __str__(self) -> str:
        return f"{self.host}:{self.port}"

    @classmethod
    def parse(cls, text: str) -> "Endpoint":
        """Parse ``"host:port"`` into an :class:`Endpoint`.

        >>> Endpoint.parse("10.0.0.1:5672")
        Endpoint(host='10.0.0.1', port=5672)
        """
        host, _, port = text.rpartition(":")
        if not host or not port.isdigit():
            raise ValueError(f"not a host:port string: {text!r}")
        return cls(host=host, port=int(port))


_UUID_COUNTER = 0


def _next_uuid(endpoint: Endpoint) -> int:
    """Generate a unique logical identifier.

    Real deployments use random UUIDs; for reproducibility the simulator
    derives identifiers from a process-wide counter mixed with the endpoint.
    The value only needs to be unique per join attempt.
    """
    global _UUID_COUNTER
    _UUID_COUNTER += 1
    return stable_hash64("uuid", str(endpoint), _UUID_COUNTER)


@dataclass(frozen=True, order=True)
class NodeId:
    """Logical identity of one incarnation of a process.

    ``uuid`` changes on every (re)join of the same endpoint, mirroring the
    UUID-based identifiers of the reference implementation.
    """

    endpoint: Endpoint
    uuid: int = field(default=0)

    @classmethod
    def fresh(cls, endpoint: Endpoint) -> "NodeId":
        """Mint a new logical id for a join attempt at ``endpoint``."""
        return cls(endpoint=endpoint, uuid=_next_uuid(endpoint))

    def __str__(self) -> str:
        return f"{self.endpoint}#{self.uuid & 0xFFFF:04x}"
