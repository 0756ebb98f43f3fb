"""Packet model: plain and VXLAN-encapsulated packets.

The simulator mostly moves :class:`Packet` objects around in structured
form (decoded headers + payload) and only serialises to bytes at the
"wire" boundaries, mirroring how a real pipeline keeps parsed header
vectors. Round-tripping through :meth:`Packet.to_bytes` and
:meth:`Packet.from_bytes` is byte-exact and covered by property tests.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Union

from .headers import (
    ETH_LEN,
    ETHERTYPE_IPV4,
    ETHERTYPE_IPV6,
    IPV4_MIN_LEN,
    IPV6_LEN,
    PROTO_TCP,
    PROTO_UDP,
    TCP_MIN_LEN,
    UDP_LEN,
    VXLAN_LEN,
    VXLAN_PORT,
    Ethernet,
    HeaderError,
    IPv4,
    IPv6,
    TCP,
    UDP,
    VXLAN,
)

IPHeader = Union[IPv4, IPv6]
L4Header = Union[UDP, TCP]


def _ip_len(ip: IPHeader) -> int:
    return IPV4_MIN_LEN if ip.version == 4 else IPV6_LEN


def _l4_len(l4: Optional[L4Header]) -> int:
    if l4 is None:
        return 0
    return UDP_LEN if isinstance(l4, UDP) else TCP_MIN_LEN


def _ethertype_for(ip: IPHeader) -> int:
    return ETHERTYPE_IPV4 if isinstance(ip, IPv4) else ETHERTYPE_IPV6


def _pack_ip_and_l4(ip: IPHeader, l4: Optional[L4Header], payload: bytes) -> bytes:
    if l4 is None:
        body = payload
    elif isinstance(l4, UDP):
        body = l4.pack(len(payload)) + payload
    else:
        body = l4.pack(len(payload)) + payload
    return ip.pack(len(body)) + body


def _unpack_l4(ip: IPHeader, raw: bytes):
    proto = ip.proto
    if proto == PROTO_UDP:
        return UDP.unpack(raw)
    if proto == PROTO_TCP:
        return TCP.unpack(raw)
    return None, raw


@dataclass(frozen=True)
class InnerFrame:
    """The frame carried inside a VXLAN tunnel: Ethernet + IP + L4 + payload."""

    eth: Ethernet
    ip: IPHeader
    l4: Optional[L4Header]
    payload: bytes = b""

    def pack(self) -> bytes:
        return self.eth.pack() + _pack_ip_and_l4(self.ip, self.l4, self.payload)

    @classmethod
    def unpack(cls, raw: bytes) -> "InnerFrame":
        eth, rest = Ethernet.unpack(raw)
        if eth.ethertype == ETHERTYPE_IPV4:
            ip, rest = IPv4.unpack(rest)
        elif eth.ethertype == ETHERTYPE_IPV6:
            ip, rest = IPv6.unpack(rest)
        else:
            raise HeaderError(f"inner frame ethertype {eth.ethertype:#x} unsupported")
        l4, rest = _unpack_l4(ip, rest)
        return cls(eth, ip, l4, rest)

    @property
    def version(self) -> int:
        return self.ip.version

    def wire_length(self) -> int:
        """Serialized length in bytes, without building the bytes."""
        return ETH_LEN + _ip_len(self.ip) + _l4_len(self.l4) + len(self.payload)

    def five_tuple(self):
        """(src ip, dst ip, proto, src port, dst port) of the inner frame."""
        src_port = self.l4.src_port if self.l4 is not None else 0
        dst_port = self.l4.dst_port if self.l4 is not None else 0
        return (self.ip.src, self.ip.dst, self.ip.proto, src_port, dst_port)


@dataclass(frozen=True)
class Packet:
    """A packet as seen by the gateway.

    For VXLAN traffic, ``vxlan`` and ``inner`` are set and the outer L4 is a
    UDP header with destination port 4789. Plain packets carry ``payload``
    directly and have ``vxlan is None``.
    """

    eth: Ethernet
    ip: IPHeader
    l4: Optional[L4Header] = None
    vxlan: Optional[VXLAN] = None
    inner: Optional[InnerFrame] = None
    payload: bytes = b""

    def __post_init__(self):
        if (self.vxlan is None) != (self.inner is None):
            raise ValueError("vxlan and inner must be set together")
        if self.vxlan is not None and not isinstance(self.l4, UDP):
            raise ValueError("VXLAN packets require an outer UDP header")

    # -- constructors ---------------------------------------------------

    @classmethod
    def vxlan_encap(
        cls,
        inner: InnerFrame,
        outer_eth: Ethernet,
        outer_src: int,
        outer_dst: int,
        vni: int,
        outer_version: int = 4,
        src_port: int = 0xC000,
    ) -> "Packet":
        """Encapsulate *inner* into a VXLAN tunnel towards *outer_dst*."""
        if outer_version == 4:
            ip: IPHeader = IPv4(src=outer_src, dst=outer_dst, proto=PROTO_UDP)
        else:
            ip = IPv6(src=outer_src, dst=outer_dst, next_header=PROTO_UDP)
        return cls(
            eth=outer_eth,
            ip=ip,
            l4=UDP(src_port=src_port, dst_port=VXLAN_PORT),
            vxlan=VXLAN(vni=vni),
            inner=inner,
        )

    # -- accessors ------------------------------------------------------

    @property
    def is_vxlan(self) -> bool:
        return self.vxlan is not None

    @property
    def vni(self) -> int:
        if self.vxlan is None:
            raise HeaderError("not a VXLAN packet")
        return self.vxlan.vni

    @property
    def inner_dst(self) -> int:
        if self.inner is None:
            raise HeaderError("not a VXLAN packet")
        return self.inner.ip.dst

    @property
    def inner_version(self) -> int:
        if self.inner is None:
            raise HeaderError("not a VXLAN packet")
        return self.inner.ip.version

    def wire_length(self) -> int:
        """Total serialized length in bytes.

        Computed arithmetically — every header the simulator emits has a
        fixed wire size — so the per-packet counter/meter charges on the
        forwarding fast path do not have to serialise the packet. Always
        equals ``len(self.to_bytes())`` (property-tested).
        """
        if self.vxlan is not None:
            body = VXLAN_LEN + self.inner.wire_length()
        else:
            body = len(self.payload)
        return ETH_LEN + _ip_len(self.ip) + _l4_len(self.l4) + body

    # -- rewriting ------------------------------------------------------

    def with_outer_dst(self, dst: int) -> "Packet":
        """New packet with the outer destination IP rewritten (NC delivery)."""
        return replace(self, ip=self.ip.replace_dst(dst))

    def with_outer_src(self, src: int) -> "Packet":
        return replace(self, ip=self.ip.replace_src(src))

    def with_vni(self, vni: int) -> "Packet":
        """New packet with the VXLAN VNI rewritten (peer-VPC hops)."""
        if self.vxlan is None:
            raise HeaderError("not a VXLAN packet")
        return replace(self, vxlan=VXLAN(vni=vni, flags=self.vxlan.flags))

    def decap(self) -> "Packet":
        """Strip the VXLAN tunnel, returning the inner frame as a packet."""
        if self.inner is None:
            raise HeaderError("not a VXLAN packet")
        return Packet(
            eth=self.inner.eth,
            ip=self.inner.ip,
            l4=self.inner.l4,
            payload=self.inner.payload,
        )

    # -- serialisation --------------------------------------------------

    def to_bytes(self) -> bytes:
        if self.vxlan is not None:
            body = self.vxlan.pack() + self.inner.pack()
        else:
            body = self.payload
        return self.eth.pack() + _pack_ip_and_l4(self.ip, self.l4, body)

    @classmethod
    def from_bytes(cls, raw: bytes) -> "Packet":
        eth, rest = Ethernet.unpack(raw)
        if eth.ethertype == ETHERTYPE_IPV4:
            ip, rest = IPv4.unpack(rest)
        elif eth.ethertype == ETHERTYPE_IPV6:
            ip, rest = IPv6.unpack(rest)
        else:
            raise HeaderError(f"ethertype {eth.ethertype:#x} unsupported")
        l4, rest = _unpack_l4(ip, rest)
        if isinstance(l4, UDP) and l4.dst_port == VXLAN_PORT:
            vxlan, rest = VXLAN.unpack(rest)
            inner = InnerFrame.unpack(rest)
            return cls(eth=eth, ip=ip, l4=l4, vxlan=vxlan, inner=inner)
        return cls(eth=eth, ip=ip, l4=l4, payload=rest)
