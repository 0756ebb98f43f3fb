"""Network primitives: addresses, headers, packets, flows, checksums."""

from .addr import IPAddress, Prefix, format_ip, mask_for, network_of, parse_ip
from .checksum import internet_checksum, verify_checksum
from .flow import FlowKey, rss_input, rss_queue, symmetric_flow_hash, toeplitz_hash
from .headers import (
    ETHERTYPE_IPV4,
    ETHERTYPE_IPV6,
    PROTO_TCP,
    PROTO_UDP,
    VXLAN_PORT,
    Ethernet,
    HeaderError,
    IPv4,
    IPv6,
    TCP,
    UDP,
    VXLAN,
    format_mac,
    parse_mac,
)
from .packet import InnerFrame, Packet

__all__ = [
    "IPAddress",
    "Prefix",
    "parse_ip",
    "format_ip",
    "mask_for",
    "network_of",
    "internet_checksum",
    "verify_checksum",
    "FlowKey",
    "toeplitz_hash",
    "rss_queue",
    "rss_input",
    "symmetric_flow_hash",
    "Ethernet",
    "IPv4",
    "IPv6",
    "UDP",
    "TCP",
    "VXLAN",
    "HeaderError",
    "parse_mac",
    "format_mac",
    "ETHERTYPE_IPV4",
    "ETHERTYPE_IPV6",
    "PROTO_TCP",
    "PROTO_UDP",
    "VXLAN_PORT",
    "InnerFrame",
    "Packet",
]
