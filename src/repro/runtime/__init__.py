"""Runtime interfaces: the sans-io boundary and the live asyncio transport."""

from repro.runtime.base import Runtime
from repro.runtime.dispatch import TypeDispatcher
from repro.runtime.codec import decode_bytes, encode_bytes, register

__all__ = [
    "Runtime",
    "TypeDispatcher",
    "decode_bytes",
    "encode_bytes",
    "register",
]
