"""Flow identification and RSS hashing.

``FlowKey`` is the canonical 5-tuple used by the software-gateway
simulator; :func:`toeplitz_hash` is the real Toeplitz RSS hash (with the
standard Microsoft verification key) that NICs use to spread flows over
RX queues, so the balls-into-bins behaviour in the Fig. 4/7 experiments
matches what DPDK hardware actually does.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Tuple

# The de-facto standard 40-byte RSS key from the Microsoft RSS verification
# suite; DPDK and most NIC drivers ship it as the default.
MSFT_RSS_KEY = bytes(
    [
        0x6D, 0x5A, 0x56, 0xDA, 0x25, 0x5B, 0x0E, 0xC2,
        0x41, 0x67, 0x25, 0x3D, 0x43, 0xA3, 0x8F, 0xB0,
        0xD0, 0xCA, 0x2B, 0xCB, 0xAE, 0x7B, 0x30, 0xB4,
        0x77, 0xCB, 0x2D, 0xA3, 0x80, 0x30, 0xF2, 0x0C,
        0x6A, 0x42, 0xB7, 0x3B, 0xBE, 0xAC, 0x01, 0xFA,
    ]
)


@dataclass(frozen=True, order=True)
class FlowKey:
    """A transport 5-tuple identifying a flow."""

    src_ip: int
    dst_ip: int
    proto: int
    src_port: int
    dst_port: int
    version: int = 4

    def reversed(self) -> "FlowKey":
        """The key of the reverse direction of this flow."""
        return FlowKey(
            self.dst_ip, self.src_ip, self.proto, self.dst_port, self.src_port, self.version
        )

    def to_rss_input(self) -> bytes:
        """The byte string hashed by RSS for this flow (addresses + ports)."""
        return rss_input(self.src_ip, self.dst_ip, self.src_port, self.dst_port,
                         self.version)


def rss_input(src_ip: int, dst_ip: int, src_port: int, dst_port: int,
              version: int = 4) -> bytes:
    """The RSS input of a flow given as fields: addresses, then ports."""
    bits = 32 if version == 4 else 128
    return ((((src_ip << bits) | dst_ip) << 32) | (src_port << 16) | dst_port).to_bytes(
        bits // 4 + 4, "big")


@lru_cache(maxsize=16)
def _toeplitz_tables(key: bytes) -> Tuple[Tuple[int, ...], ...]:
    """Per-input-byte XOR tables for *key*: ``tables[i][b]`` is the hash
    contribution of byte value *b* at input position *i* (Toeplitz is
    XOR-linear in the input bits, so a byte's eight windows fold into
    one entry)."""
    key_bits = int.from_bytes(key, "big")
    total_key_bits = len(key) * 8
    rows = []
    for position in range(len(key) - 4):
        # window[bit] is the 32-bit key slice that input bit
        # (8*position + bit) selects, MSB first.
        window = [
            (key_bits >> (total_key_bits - 32 - (8 * position + bit))) & 0xFFFFFFFF
            for bit in range(8)
        ]
        row = [0] * 256
        for value in range(1, 256):
            low = value & -value
            row[value] = row[value ^ low] ^ window[8 - low.bit_length()]
        rows.append(tuple(row))
    return tuple(rows)


def toeplitz_hash(data: bytes, key: bytes = MSFT_RSS_KEY) -> int:
    """Compute the 32-bit Toeplitz hash of *data* under *key*.

    Table driven: one lookup per input byte into tables built once per
    key. Verified against the canonical Microsoft RSS test vectors and a
    bit-at-a-time oracle in the test suite.
    """
    if len(key) < len(data) + 4:
        raise ValueError("RSS key too short for input")
    result = 0
    for row, byte in zip(_toeplitz_tables(key), data):
        result ^= row[byte]
    return result


def rss_queue(flow: FlowKey, num_queues: int, key: bytes = MSFT_RSS_KEY) -> int:
    """Map *flow* to an RX queue index the way an RSS-enabled NIC does.

    Real NICs use an indirection table indexed by the low 7 bits of the
    Toeplitz hash; with the default identity-modulo table that reduces to
    ``hash % num_queues``, which is what we model.
    """
    if num_queues <= 0:
        raise ValueError("num_queues must be positive")
    return toeplitz_hash(flow.to_rss_input(), key) % num_queues


def symmetric_flow_hash(flow: FlowKey) -> int:
    """A direction-independent 64-bit flow hash (for connection tables)."""
    a = (flow.src_ip, flow.src_port)
    b = (flow.dst_ip, flow.dst_port)
    lo, hi = (a, b) if a <= b else (b, a)
    return hash((lo, hi, flow.proto, flow.version)) & 0xFFFFFFFFFFFFFFFF
