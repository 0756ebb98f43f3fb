"""Gateway forwarding semantics shared by hardware and software gateways."""

from .flowcache import FlowCache, KeyDecision, forward_cached
from .gateway_logic import (
    DropReason,
    ForwardAction,
    ForwardResult,
    GatewayTables,
    count_drop,
    forward,
    inner_flow_key,
    vni_key,
)
from .migration import (
    BufferedPacket,
    MigrationBuffer,
    MigrationState,
    ensure_migration_state,
)
from .pipeline_program import (
    SplitVmNc,
    XgwHProgram,
    parity_pipeline,
    scope_from_code,
    vni_parity_pipeline,
)
from .services import SnatService

__all__ = [
    "BufferedPacket",
    "DropReason",
    "FlowCache",
    "ForwardAction",
    "ForwardResult",
    "GatewayTables",
    "KeyDecision",
    "MigrationBuffer",
    "MigrationState",
    "count_drop",
    "ensure_migration_state",
    "forward",
    "forward_cached",
    "inner_flow_key",
    "vni_key",
    "SplitVmNc",
    "XgwHProgram",
    "scope_from_code",
    "parity_pipeline",
    "vni_parity_pipeline",
    "SnatService",
]
