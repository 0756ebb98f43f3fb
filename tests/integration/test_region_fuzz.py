"""Robustness: the region must classify arbitrary traffic, never crash.

Every packet — valid, stray, malformed-but-parseable — must come back
with a ForwardAction; hostile input must never raise out of the data
path (a gateway that crashes on a weird packet is a region outage).
"""

from hypothesis import given, settings, strategies as st

from repro.core.sailfish import RegionSpec, Sailfish
from repro.dataplane.gateway_logic import DropReason, ForwardAction
from repro.net.headers import ETHERTYPE_IPV4, Ethernet, HeaderError, IPv4, PROTO_UDP, UDP
from repro.net.packet import Packet
from repro.workloads.traffic import build_vxlan_packet

_REGION = Sailfish.build(RegionSpec.small(), seed=123)
_KNOWN_VNIS = _REGION.topology.vnis()
_OWNED_PUBLIC_IPS = frozenset(_REGION._public_ip_owner)


def _outcome(result):
    return (result.action, result.detail, result.nc_ip)


class TestRegionFuzz:
    @settings(max_examples=150, deadline=None)
    @given(
        vni=st.one_of(st.sampled_from(_KNOWN_VNIS),
                      st.integers(min_value=0, max_value=(1 << 24) - 1)),
        src=st.integers(min_value=0, max_value=(1 << 32) - 1),
        dst=st.integers(min_value=0, max_value=(1 << 32) - 1),
        sport=st.integers(min_value=0, max_value=65535),
        dport=st.integers(min_value=0, max_value=65535),
    )
    def test_any_v4_vxlan_packet_classified(self, vni, src, dst, sport, dport):
        packet = build_vxlan_packet(vni, src, dst, src_port=sport, dst_port=dport)
        result = _REGION.forward(packet)
        assert isinstance(result.action, ForwardAction)
        if result.action is ForwardAction.DROP:
            assert result.detail  # drops always carry a reason

    @settings(max_examples=100, deadline=None)
    @given(
        vni=st.sampled_from(_KNOWN_VNIS),
        src=st.integers(min_value=0, max_value=(1 << 128) - 1),
        dst=st.integers(min_value=0, max_value=(1 << 128) - 1),
    )
    def test_any_v6_vxlan_packet_classified(self, vni, src, dst):
        packet = build_vxlan_packet(vni, src, dst, version=6)
        result = _REGION.forward(packet)
        assert isinstance(result.action, ForwardAction)

    @settings(max_examples=150, deadline=None)
    @given(raw=st.binary(min_size=0, max_size=200))
    def test_arbitrary_bytes_never_crash_region(self, raw):
        try:
            packet = Packet.from_bytes(raw)
        except HeaderError:
            return
        result = _REGION.forward(packet)
        assert isinstance(result.action, ForwardAction)

    @settings(max_examples=60, deadline=None)
    @given(
        vni=st.sampled_from(_KNOWN_VNIS),
        dst=st.integers(min_value=0, max_value=(1 << 32) - 1),
    )
    def test_trace_never_crashes_and_matches_forward(self, vni, dst):
        packet = build_vxlan_packet(vni, 0x0A000001, dst)
        traced_result, trace = _REGION.trace(packet)
        assert isinstance(traced_result.action, ForwardAction)
        assert trace.outcome
        assert _outcome(traced_result) == _outcome(_REGION.forward(packet))

    @settings(max_examples=30, deadline=None)
    @given(
        dst=st.integers(min_value=0, max_value=(1 << 32) - 1).filter(
            lambda ip: ip not in _OWNED_PUBLIC_IPS),
        sport=st.integers(min_value=0, max_value=65535),
        dport=st.integers(min_value=0, max_value=65535),
    )
    def test_unowned_public_ip_trace_matches_forward(self, dst, sport, dport):
        """A non-VXLAN packet to a public IP no x86 box owns dies at the
        balancer on every path."""
        packet = Packet(eth=Ethernet(dst=2, src=1, ethertype=ETHERTYPE_IPV4),
                        ip=IPv4(src=0x08080808, dst=dst, proto=PROTO_UDP),
                        l4=UDP(src_port=sport, dst_port=dport))
        traced_result, trace = _REGION.trace(packet)
        assert trace.drop_reason == DropReason.NO_OWNER.value
        assert _outcome(traced_result) == _outcome(_REGION.forward(packet))
        assert _outcome(_REGION.forward_batch([packet])[0]) == _outcome(traced_result)
