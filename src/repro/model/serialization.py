"""Problem-instance serialization (JSON and the paper's tabular dataset format).

The paper's simulation datasets describe each problem instance by listing the
pipeline modules (ModuleID, ModuleComplexity, InputDataInBytes,
OutputDataInBytes), the nodes (NodeID, NodeIP, ProcessingPower) and the links
(startNodeID, endNodeID, LinkID, LinkBWInMbps, LinkDelayInMilliseconds), plus
the designated source and destination node.  This module provides:

* :class:`ProblemInstance` — a bundle of pipeline + network + request,
* JSON round-tripping (:func:`instance_to_json` / :func:`instance_from_json`),
* a plain-text tabular format mirroring the paper's parameter tables
  (:func:`instance_to_table_text` / :func:`instance_from_table_text`), handy
  for eyeballing generated datasets and for storing cases under version
  control.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from ..exceptions import SpecificationError
from .link import CommunicationLink
from .network import EndToEndRequest, TransportNetwork
from .node import ComputingNode
from .pipeline import Pipeline

__all__ = [
    "ProblemInstance",
    "instance_to_json",
    "instance_from_json",
    "save_instance",
    "load_instance",
    "instance_to_table_text",
    "instance_from_table_text",
    "mapping_to_dict",
]


@dataclass(frozen=True)
class ProblemInstance:
    """A complete pipeline-mapping problem instance.

    Attributes
    ----------
    pipeline:
        The linear computing pipeline to be mapped.
    network:
        The transport network to map onto.
    request:
        Source/destination node designation.
    name:
        Optional label (e.g. ``"case-07"`` in the Fig. 2 suite).
    """

    pipeline: Pipeline
    network: TransportNetwork
    request: EndToEndRequest
    name: Optional[str] = None

    @property
    def size_signature(self) -> tuple:
        """The paper's (m modules, n nodes, l links) size triple."""
        return (self.pipeline.n_modules, self.network.n_nodes, self.network.n_links)

    def to_dict(self) -> Dict[str, Any]:
        """Serialise to a plain (JSON-compatible) dictionary."""
        return {
            "name": self.name,
            "pipeline": self.pipeline.to_dict(),
            "network": self.network.to_dict(),
            "request": {"source": self.request.source,
                        "destination": self.request.destination},
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ProblemInstance":
        """Reconstruct an instance from :meth:`to_dict` output."""
        return cls(
            pipeline=Pipeline.from_dict(data["pipeline"]),
            network=TransportNetwork.from_dict(data["network"]),
            request=EndToEndRequest(source=int(data["request"]["source"]),
                                    destination=int(data["request"]["destination"])),
            name=data.get("name"),
        )


def mapping_to_dict(mapping: Any) -> Dict[str, Any]:
    """Serialise a :class:`~repro.core.mapping.PipelineMapping` for the wire.

    A thin shell over :meth:`PipelineMapping.to_dict` (so there is exactly
    one mapping serialiser to extend) that replaces non-finite floats — an
    unbounded frame rate on a zero-cost mapping — with ``None`` to stay
    strict-JSON clean.  Used by the :mod:`repro.service` wire schema.
    """
    def sanitize(value: Any) -> Any:
        if isinstance(value, float) and (value != value
                                         or abs(value) == float("inf")):
            return None
        return value

    return {key: sanitize(value) for key, value in mapping.to_dict().items()}


def instance_to_json(instance: ProblemInstance, *, indent: int = 2) -> str:
    """Serialise a :class:`ProblemInstance` to a JSON string."""
    return json.dumps(instance.to_dict(), indent=indent, sort_keys=True)


def instance_from_json(text: str) -> ProblemInstance:
    """Parse a :class:`ProblemInstance` from a JSON string."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecificationError(f"invalid instance JSON: {exc}") from exc
    return ProblemInstance.from_dict(data)


def save_instance(instance: ProblemInstance, path: Union[str, Path]) -> Path:
    """Write an instance to ``path`` as JSON; returns the path written."""
    out = Path(path)
    out.write_text(instance_to_json(instance), encoding="utf-8")
    return out


def load_instance(path: Union[str, Path]) -> ProblemInstance:
    """Load an instance previously written by :func:`save_instance`."""
    return instance_from_json(Path(path).read_text(encoding="utf-8"))


# --------------------------------------------------------------------------- #
# Paper-style tabular text format
# --------------------------------------------------------------------------- #
_MODULE_HEADER = "ModuleID ModuleComplexity InputDataInBytes OutputDataInBytes Name"
_NODE_HEADER = "NodeID NodeIP ProcessingPower"
_LINK_HEADER = "startNodeID endNodeID LinkID LinkBWInMbps LinkDelayInMilliseconds"

#: Escaped-name tokens that would be ambiguous if emitted verbatim: ``-`` is
#: the no-name sentinel of record lines and ``unnamed`` the legacy no-name
#: sentinel of the header comment.  (Both are in percent-quoting's safe set,
#: so a *name* with exactly that text must be re-escaped by hand.)
_NAME_SENTINELS = frozenset({"-", "unnamed"})


def _escape_name(name: Optional[str]) -> str:
    """One whitespace-free, unambiguous token for an optional name.

    Free-form names used to be emitted verbatim, which made the tabular
    format fragile: whitespace was collapsed by field splitting, a leading
    ``#`` turned the record into a comment, and text equal to a section or
    header line was swallowed by the parser.  Percent-quoting (RFC 3986
    style, UTF-8) fixes all of that reversibly — common names like
    ``case-07`` or ``filter`` pass through unchanged.
    """
    from urllib.parse import quote

    if name is None:
        return "-"
    if name == "":
        return '""'
    token = quote(name, safe="")
    if token in _NAME_SENTINELS:
        token = f"%{ord(name[0]):02X}{token[1:]}"
    return token


def _unescape_name(token: str, *, header: bool = False) -> Optional[str]:
    """Invert :func:`_escape_name`; ``header`` also maps legacy ``unnamed``."""
    from urllib.parse import unquote

    if token == "-" or (header and token == "unnamed"):
        return None
    if token == '""':
        return ""
    return unquote(token)


def instance_to_table_text(instance: ProblemInstance) -> str:
    """Render an instance in the paper's tabular parameter format.

    The output has four sections (``[pipeline]``, ``[nodes]``, ``[links]``,
    ``[request]``) with one whitespace-separated record per line, using
    exactly the parameter names of Section 4.1.  Names (instance, pipeline,
    network, per-module) are percent-quoted into single tokens and floats are
    rendered with ``repr`` so :func:`instance_from_table_text` round-trips the
    instance exactly.
    """
    lines: List[str] = []
    lines.append(f"# instance: {_escape_name(instance.name)}")
    lines.append(f"# pipeline: {_escape_name(instance.pipeline.name)}")
    lines.append(f"# network: {_escape_name(instance.network.name)}")
    lines.append("[pipeline]")
    lines.append(_MODULE_HEADER)
    for mod in instance.pipeline.modules:
        lines.append(f"{mod.module_id} {float(mod.complexity)!r} "
                     f"{float(mod.input_bytes)!r} {float(mod.output_bytes)!r} "
                     f"{_escape_name(mod.name)}")
    lines.append("[nodes]")
    lines.append(_NODE_HEADER)
    for node in instance.network.nodes():
        lines.append(f"{node.node_id} {_escape_name(node.ip_address)} "
                     f"{float(node.processing_power)!r}")
    lines.append("[links]")
    lines.append(_LINK_HEADER)
    for link in instance.network.links():
        lines.append(f"{link.start_node} {link.end_node} {link.link_id} "
                     f"{float(link.bandwidth_mbps)!r} {float(link.min_delay_ms)!r}")
    lines.append("[request]")
    lines.append(f"source {instance.request.source}")
    lines.append(f"destination {instance.request.destination}")
    return "\n".join(lines) + "\n"


def instance_from_table_text(text: str) -> ProblemInstance:
    """Parse an instance from the tabular format of :func:`instance_to_table_text`.

    Accepts files written by older library versions too: a multi-token module
    name is re-joined with single spaces, a ``# instance: unnamed`` header
    means no name, and names without percent-escapes pass through verbatim
    (invalid ``%`` sequences are left untouched by the unquoting).  The one
    ambiguity: a *legacy* verbatim name that happens to contain a valid
    ``%XX`` sequence (say ``disk%20scan``) is indistinguishable from the
    quoted form and will be decoded — re-save such files to adopt the quoted
    format.
    """
    from .module import ComputingModule

    section = None
    name: Optional[str] = None
    pipeline_name: Optional[str] = None
    network_name: Optional[str] = None
    modules: List[ComputingModule] = []
    nodes: List[ComputingNode] = []
    links: List[CommunicationLink] = []
    source: Optional[int] = None
    destination: Optional[int] = None

    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("# instance:"):
            name = _unescape_name(line.split(":", 1)[1].strip() or "-",
                                  header=True)
            continue
        if line.startswith("# pipeline:"):
            pipeline_name = _unescape_name(line.split(":", 1)[1].strip() or "-",
                                           header=True)
            continue
        if line.startswith("# network:"):
            network_name = _unescape_name(line.split(":", 1)[1].strip() or "-",
                                          header=True)
            continue
        if line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].lower()
            continue
        if line in (_MODULE_HEADER, _NODE_HEADER, _LINK_HEADER):
            continue
        fields = line.split()
        if section == "pipeline":
            if len(fields) < 4:
                raise SpecificationError(f"malformed module record: {line!r}")
            mod_name = (None if len(fields) < 5
                        else _unescape_name(" ".join(fields[4:])))
            modules.append(ComputingModule(
                module_id=int(fields[0]), complexity=float(fields[1]),
                input_bytes=float(fields[2]), output_bytes=float(fields[3]),
                name=mod_name))
        elif section == "nodes":
            if len(fields) != 3:
                raise SpecificationError(f"malformed node record: {line!r}")
            nodes.append(ComputingNode(node_id=int(fields[0]),
                                       ip_address=_unescape_name(fields[1]),
                                       processing_power=float(fields[2])))
        elif section == "links":
            if len(fields) != 5:
                raise SpecificationError(f"malformed link record: {line!r}")
            links.append(CommunicationLink(
                start_node=int(fields[0]), end_node=int(fields[1]),
                link_id=int(fields[2]), bandwidth_mbps=float(fields[3]),
                min_delay_ms=float(fields[4])))
        elif section == "request":
            if fields[0] == "source":
                source = int(fields[1])
            elif fields[0] == "destination":
                destination = int(fields[1])
            else:
                raise SpecificationError(f"malformed request record: {line!r}")
        else:
            raise SpecificationError(f"record outside any section: {line!r}")

    if source is None or destination is None:
        raise SpecificationError("missing [request] source/destination")
    pipeline = Pipeline(modules=tuple(modules), name=pipeline_name)
    network = TransportNetwork(nodes=nodes, links=links, name=network_name)
    return ProblemInstance(pipeline=pipeline, network=network,
                           request=EndToEndRequest(source=source, destination=destination),
                           name=name)
