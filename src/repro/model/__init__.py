"""Entity and cost models of the pipeline-mapping problem (paper Section 2).

This subpackage contains no algorithms; it defines the vocabulary that the
rest of the library speaks:

* :class:`ComputingModule`, :class:`Pipeline` — the linear computing pipeline,
* :class:`ComputingNode`, :class:`CommunicationLink`,
  :class:`TransportNetwork` — the distributed network substrate,
* :mod:`repro.model.cost` — the analytical cost model (computing time,
  transport time, Eq. 1 end-to-end delay, Eq. 2 bottleneck / frame rate),
* :mod:`repro.model.validation` — feasibility diagnostics,
* :class:`ProblemInstance` and the JSON / tabular serializers.
"""

from .cost import (
    CostBreakdown,
    bottleneck_time_ms,
    computing_time_ms,
    cost_breakdown,
    end_to_end_delay_ms,
    frame_rate_fps,
    group_computing_time_ms,
    transport_time_ms,
)
from .link import BITS_PER_BYTE, CommunicationLink, transfer_time_ms
from .module import ComputingModule, sink_module, source_module
from .network import (
    DenseNetworkView,
    EndToEndRequest,
    TransportNetwork,
    ViewDelta,
)
from .node import ComputingNode, synthetic_ip
from .pipeline import Pipeline
from .serialization import (
    ProblemInstance,
    instance_from_json,
    instance_from_table_text,
    instance_to_json,
    instance_to_table_text,
    load_instance,
    save_instance,
)
from .validation import (
    FeasibilityReport,
    assert_no_reuse,
    check_delay_instance,
    check_framerate_instance,
    validate_mapping_structure,
)

__all__ = [
    # module / pipeline
    "ComputingModule", "Pipeline", "source_module", "sink_module",
    # network
    "ComputingNode", "CommunicationLink", "TransportNetwork", "EndToEndRequest",
    "DenseNetworkView", "ViewDelta", "synthetic_ip", "transfer_time_ms",
    "BITS_PER_BYTE",
    # cost model
    "computing_time_ms", "transport_time_ms", "group_computing_time_ms",
    "end_to_end_delay_ms", "bottleneck_time_ms", "frame_rate_fps",
    "CostBreakdown", "cost_breakdown",
    # validation
    "FeasibilityReport", "check_delay_instance", "check_framerate_instance",
    "validate_mapping_structure", "assert_no_reuse",
    # serialization
    "ProblemInstance", "instance_to_json", "instance_from_json",
    "save_instance", "load_instance", "instance_to_table_text",
    "instance_from_table_text",
]
