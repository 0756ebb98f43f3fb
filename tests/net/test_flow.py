"""Tests for flow keys and the Toeplitz RSS hash."""

from collections import Counter

import pytest
from hypothesis import given, strategies as st

from repro.net.flow import (
    FlowKey,
    MSFT_RSS_KEY,
    rss_queue,
    symmetric_flow_hash,
    toeplitz_hash,
)


def reference_toeplitz(data: bytes, key: bytes) -> int:
    """Independent bit-at-a-time reference implementation."""
    key_bits = []
    for byte in key:
        for i in range(8):
            key_bits.append((byte >> (7 - i)) & 1)
    result = 0
    bit_index = 0
    for byte in data:
        for i in range(8):
            if (byte >> (7 - i)) & 1:
                window = 0
                for j in range(32):
                    window = (window << 1) | key_bits[bit_index + j]
                result ^= window
            bit_index += 1
    return result


#: A non-default 40-byte key (the symmetric-RSS 0x6d5a pattern).
ALT_RSS_KEY = bytes([0x6D, 0x5A] * 20)


def _ipv4(text: str) -> int:
    a, b, c, d = (int(part) for part in text.split("."))
    return (a << 24) | (b << 16) | (c << 8) | d


#: Microsoft RSS verification suite, IPv4: (source, source port,
#: destination, destination port, hash over addresses + ports, hash
#: over addresses only).
MSFT_IPV4_VECTORS = [
    ("66.9.149.187", 2794, "161.142.100.80", 1766, 0x51CCC178, 0x323E8FC2),
    ("199.92.111.2", 14230, "65.69.140.83", 4739, 0xC626B0EA, 0xD718262A),
    ("24.19.198.95", 12898, "12.22.207.184", 38024, 0x5C2B394A, 0xD2D0A5DE),
    ("38.27.205.30", 48228, "209.142.163.6", 2217, 0xAFC7327F, 0x82989176),
    ("153.39.163.191", 44251, "202.188.127.2", 1303, 0x10E828A2, 0x5D1809C5),
]


class TestToeplitz:
    @pytest.mark.parametrize("src,sport,dst,dport,with_ports,addresses_only",
                             MSFT_IPV4_VECTORS)
    def test_microsoft_vectors(self, src, sport, dst, dport, with_ports, addresses_only):
        flow = FlowKey(_ipv4(src), _ipv4(dst), 6, sport, dport)
        data = flow.to_rss_input()
        assert toeplitz_hash(data) == with_ports
        assert toeplitz_hash(data[:8]) == addresses_only

    def test_rss_input_matches_field_bytes(self):
        flow = FlowKey(0x01020304, 0x05060708, 17, 0x0A0B, 0x0C0D)
        assert flow.to_rss_input() == bytes.fromhex("01020304050607080a0b0c0d")
        flow6 = FlowKey(1 << 120, 7, 17, 1, 2, version=6)
        assert flow6.to_rss_input() == (
            (1 << 120).to_bytes(16, "big") + (7).to_bytes(16, "big") + b"\x00\x01\x00\x02"
        )

    def test_single_first_bit_selects_key_head(self):
        # Input 0x80...: only the first bit set -> hash = key[0:4].
        assert toeplitz_hash(b"\x80\x00\x00\x00") == int.from_bytes(MSFT_RSS_KEY[:4], "big")

    def test_zero_input(self):
        assert toeplitz_hash(b"\x00" * 12) == 0

    def test_linearity(self):
        # Toeplitz is XOR-linear in the input bits.
        a = toeplitz_hash(b"\x80\x00\x00\x00")
        b = toeplitz_hash(b"\x00\x00\x00\x01")
        combined = toeplitz_hash(b"\x80\x00\x00\x01")
        assert combined == a ^ b

    @given(data=st.binary(min_size=0, max_size=36),
           key=st.sampled_from([MSFT_RSS_KEY, ALT_RSS_KEY]))
    def test_matches_reference(self, data, key):
        assert toeplitz_hash(data, key) == reference_toeplitz(data, key)

    def test_key_too_short(self):
        with pytest.raises(ValueError):
            toeplitz_hash(b"\x00" * 12, key=b"\x01" * 8)

    def test_deterministic(self):
        data = bytes(range(12))
        assert toeplitz_hash(data) == toeplitz_hash(data)


class TestRssQueue:
    def test_range(self):
        flow = FlowKey(1, 2, 6, 3, 4)
        for n in (1, 2, 7, 32):
            assert 0 <= rss_queue(flow, n) < n

    def test_v6_flows_supported(self):
        flow = FlowKey(1 << 100, 2, 6, 3, 4, version=6)
        assert 0 <= rss_queue(flow, 16) < 16

    def test_bad_queue_count(self):
        with pytest.raises(ValueError):
            rss_queue(FlowKey(1, 2, 6, 3, 4), 0)

    def test_spreads_over_queues(self):
        counts = Counter(
            rss_queue(FlowKey(src, 2, 6, 1000 + src % 100, 80), 8)
            for src in range(400)
        )
        # All 8 queues see some flows, none sees more than half.
        assert len(counts) == 8
        assert max(counts.values()) < 200

    def test_same_flow_same_queue(self):
        flow = FlowKey(0x0A000001, 0x0A000002, 6, 1234, 80)
        assert rss_queue(flow, 32) == rss_queue(flow, 32)


class TestFlowKey:
    def test_reversed(self):
        flow = FlowKey(1, 2, 6, 30, 40)
        rev = flow.reversed()
        assert (rev.src_ip, rev.dst_ip, rev.src_port, rev.dst_port) == (2, 1, 40, 30)
        assert rev.reversed() == flow

    def test_rss_input_width_v4(self):
        assert len(FlowKey(1, 2, 6, 3, 4).to_rss_input()) == 12

    def test_rss_input_width_v6(self):
        assert len(FlowKey(1, 2, 6, 3, 4, version=6).to_rss_input()) == 36

    def test_symmetric_hash(self):
        flow = FlowKey(1, 2, 6, 30, 40)
        assert symmetric_flow_hash(flow) == symmetric_flow_hash(flow.reversed())

    def test_ordering(self):
        assert FlowKey(1, 2, 6, 3, 4) < FlowKey(2, 2, 6, 3, 4)
