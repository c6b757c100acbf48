"""XML parsing and serialization for deployment descriptors.

The accepted format is the paper's Figure 1::

    <virtual-sensor name="avg-temp" priority="10">
      <life-cycle pool-size="10" />
      <output-structure>
        <field name="TEMPERATURE" type="integer"/>
      </output-structure>
      <storage permanent-storage="true" size="10s" />
      <addressing>
        <predicate key="type" val="temperature"/>
      </addressing>
      <input-stream name="dummy" rate="100">
        <stream-source alias="src1" sampling-rate="1"
                       storage-size="1h" disconnect-buffer="10">
          <address wrapper="remote">
            <predicate key="type" val="temperature"/>
            <predicate key="location" val="bc143"/>
          </address>
          <query>select avg(temperature) from WRAPPER</query>
        </stream-source>
        <query>select * from src1</query>
      </input-stream>
    </virtual-sensor>

Predicate values may be given either as a ``val`` attribute (as in the
paper) or as element text.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from typing import Dict, List, Optional
from xml.sax.saxutils import escape, quoteattr

from repro.datatypes import DataType
from repro.descriptors.model import (
    AddressSpec, InputStreamSpec, LifeCycleConfig, StorageConfig,
    StreamSourceSpec, VirtualSensorDescriptor,
)
from repro.exceptions import DescriptorError
from repro.streams.schema import Field, StreamSchema


def descriptor_from_xml(xml_text: str) -> VirtualSensorDescriptor:
    """Parse an XML string into a :class:`VirtualSensorDescriptor`."""
    try:
        root = ET.fromstring(xml_text)
    except ET.ParseError as exc:
        raise DescriptorError(f"malformed XML: {exc}") from exc
    return _parse_root(root)


def descriptor_from_file(path: str) -> VirtualSensorDescriptor:
    """Parse a descriptor from a file path."""
    try:
        tree = ET.parse(path)
    except (OSError, ET.ParseError) as exc:
        raise DescriptorError(f"cannot read descriptor {path!r}: {exc}") from exc
    return _parse_root(tree.getroot())


def _parse_root(root: ET.Element) -> VirtualSensorDescriptor:
    if root.tag != "virtual-sensor":
        raise DescriptorError(
            f"expected <virtual-sensor> root, found <{root.tag}>"
        )
    name = _required_attr(root, "name")
    priority = _int_attr(root, "priority", default=10)
    description = root.attrib.get("description", "")
    trace_sampling = _float_attr(root, "trace-sampling", default=1.0)

    lifecycle = _parse_lifecycle(root.find("life-cycle"))
    output_structure = _parse_output_structure(root.find("output-structure"))
    storage = _parse_storage(root.find("storage"))
    addressing = _parse_predicates(root.find("addressing"))

    streams = [
        _parse_input_stream(element)
        for element in root.findall("input-stream")
    ]
    if not streams:
        raise DescriptorError(
            f"virtual sensor {name!r} declares no <input-stream>"
        )

    try:
        return VirtualSensorDescriptor(
            name=name,
            output_structure=output_structure,
            input_streams=tuple(streams),
            lifecycle=lifecycle,
            storage=storage,
            addressing=addressing,
            description=description,
            priority=priority,
            trace_sampling=trace_sampling,
        )
    except Exception as exc:
        raise DescriptorError(str(exc)) from exc


def _parse_lifecycle(element: Optional[ET.Element]) -> LifeCycleConfig:
    if element is None:
        return LifeCycleConfig()
    return LifeCycleConfig(
        pool_size=_int_attr(element, "pool-size", default=1),
        max_errors=_int_attr(element, "max-errors", default=0),
    )


def _parse_output_structure(element: Optional[ET.Element]) -> StreamSchema:
    if element is None:
        raise DescriptorError("missing <output-structure>")
    fields: List[Field] = []
    for child in element.findall("field"):
        field_name = _required_attr(child, "name")
        type_text = _required_attr(child, "type")
        try:
            fields.append(Field(field_name, DataType.parse(type_text),
                                child.attrib.get("description", "")))
        except Exception as exc:
            raise DescriptorError(
                f"bad field {field_name!r}: {exc}"
            ) from exc
    if not fields:
        raise DescriptorError("<output-structure> declares no fields")
    try:
        return StreamSchema(fields)
    except Exception as exc:
        raise DescriptorError(str(exc)) from exc


def _parse_storage(element: Optional[ET.Element]) -> StorageConfig:
    if element is None:
        return StorageConfig()
    permanent = _bool_attr(element, "permanent-storage", default=False)
    size = element.attrib.get("size")
    return StorageConfig(permanent=permanent, history_size=size)


def _parse_predicates(element: Optional[ET.Element]) -> Dict[str, str]:
    if element is None:
        return {}
    predicates: Dict[str, str] = {}
    for child in element.findall("predicate"):
        key = _required_attr(child, "key")
        value = child.attrib.get("val")
        if value is None:
            value = (child.text or "").strip()
        if not value:
            raise DescriptorError(f"predicate {key!r} has no value")
        predicates[key] = value
    return predicates


def _parse_input_stream(element: ET.Element) -> InputStreamSpec:
    name = _required_attr(element, "name")
    rate = _float_attr(element, "rate", default=0.0)
    sources = [
        _parse_stream_source(child)
        for child in element.findall("stream-source")
    ]
    query = _child_query(element, context=f"input-stream {name!r}")
    try:
        return InputStreamSpec(name=name, sources=tuple(sources),
                               query=query, rate=rate,
                               lifetime=element.attrib.get("lifetime"))
    except Exception as exc:
        raise DescriptorError(str(exc)) from exc


def _parse_stream_source(element: ET.Element) -> StreamSourceSpec:
    alias = _required_attr(element, "alias")
    address_element = element.find("address")
    if address_element is None:
        raise DescriptorError(f"stream-source {alias!r} has no <address>")
    wrapper = _required_attr(address_element, "wrapper")
    predicates = {}
    for child in address_element.findall("predicate"):
        key = _required_attr(child, "key")
        value = child.attrib.get("val")
        if value is None:
            value = (child.text or "").strip()
        predicates[key] = value
    query = _child_query(element, context=f"stream-source {alias!r}",
                         default="select * from wrapper")
    try:
        return StreamSourceSpec(
            alias=alias,
            address=AddressSpec(wrapper, predicates),
            query=query,
            sampling_rate=_float_attr(element, "sampling-rate", default=1.0),
            storage_size=element.attrib.get("storage-size"),
            disconnect_buffer=_int_attr(element, "disconnect-buffer", default=0),
            slide=element.attrib.get("slide"),
        )
    except DescriptorError:
        raise
    except Exception as exc:
        raise DescriptorError(str(exc)) from exc


def _child_query(element: ET.Element, context: str,
                 default: Optional[str] = None) -> str:
    query_element = element.find("query")
    if query_element is None or not (query_element.text or "").strip():
        if default is not None:
            return default
        raise DescriptorError(f"{context} has no <query>")
    return query_element.text.strip()


# -- line index (for analysis findings) --------------------------------------


def descriptor_line_index(xml_text: str) -> Dict[tuple, int]:
    """Map descriptor structure to 1-based line numbers in ``xml_text``.

    Keys (names lowercased exactly like the model normalizes them):

    - ``("virtual-sensor",)`` — the root element
    - ``("input-stream", stream)`` — one input stream
    - ``("stream-source", stream, alias)`` — one stream source
    - ``("source-query", stream, alias)`` — a source's ``<query>``
    - ``("stream-query", stream)`` — the stream's output ``<query>``

    Used by ``gsn-lint`` to anchor descriptor findings to file lines so
    GSN1xx–GSN7xx JSON output carries the same ``path``/``line`` fields
    as the Python-source passes. Malformed XML yields an empty index
    (the parse error is reported elsewhere).
    """
    import xml.parsers.expat

    index: Dict[tuple, int] = {}
    stream: List[Optional[str]] = [None]
    alias: List[Optional[str]] = [None]
    parser = xml.parsers.expat.ParserCreate()

    def start(tag: str, attrs: Dict[str, str]) -> None:
        line = parser.CurrentLineNumber
        if tag == "virtual-sensor":
            index.setdefault(("virtual-sensor",), line)
        elif tag == "input-stream":
            stream[0] = (attrs.get("name") or "").strip().lower()
            alias[0] = None
            index.setdefault(("input-stream", stream[0]), line)
        elif tag == "stream-source" and stream[0] is not None:
            alias[0] = (attrs.get("alias") or "").strip().lower()
            index.setdefault(("stream-source", stream[0], alias[0]), line)
        elif tag == "query" and stream[0] is not None:
            if alias[0] is not None:
                index.setdefault(("source-query", stream[0], alias[0]),
                                 line)
            else:
                index.setdefault(("stream-query", stream[0]), line)

    def end(tag: str) -> None:
        if tag == "stream-source":
            alias[0] = None
        elif tag == "input-stream":
            stream[0] = None
            alias[0] = None

    parser.StartElementHandler = start
    parser.EndElementHandler = end
    try:
        parser.Parse(xml_text, True)
    except xml.parsers.expat.ExpatError:
        return {}
    return index


# -- attribute helpers -------------------------------------------------------


def _required_attr(element: ET.Element, name: str) -> str:
    value = element.attrib.get(name, "").strip()
    if not value:
        raise DescriptorError(f"<{element.tag}> requires a {name!r} attribute")
    return value


def _int_attr(element: ET.Element, name: str, default: int) -> int:
    raw = element.attrib.get(name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise DescriptorError(
            f"<{element.tag} {name}={raw!r}> is not an integer"
        ) from None


def _float_attr(element: ET.Element, name: str, default: float) -> float:
    raw = element.attrib.get(name)
    if raw is None:
        return default
    try:
        return float(raw)
    except ValueError:
        raise DescriptorError(
            f"<{element.tag} {name}={raw!r}> is not a number"
        ) from None


def _bool_attr(element: ET.Element, name: str, default: bool) -> bool:
    raw = element.attrib.get(name)
    if raw is None:
        return default
    lowered = raw.strip().lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise DescriptorError(f"<{element.tag} {name}={raw!r}> is not a boolean")


# -- serialization -----------------------------------------------------------


def descriptor_to_xml(descriptor: VirtualSensorDescriptor) -> str:
    """Serialize a descriptor back to the Figure 1 XML format.

    ``descriptor_from_xml(descriptor_to_xml(d)) == d`` for every valid
    descriptor (the property tests assert this round-trip).
    """
    lines: List[str] = []
    attrs = f" name={quoteattr(descriptor.name)} priority=\"{descriptor.priority}\""
    if descriptor.description:
        attrs += f" description={quoteattr(descriptor.description)}"
    if descriptor.trace_sampling != 1.0:
        # Serialized only when non-default so round-tripping descriptors
        # written before the attribute existed stays byte-stable.
        attrs += f' trace-sampling="{_format_number(descriptor.trace_sampling)}"'
    lines.append(f"<virtual-sensor{attrs}>")
    lifecycle_attrs = f'pool-size="{descriptor.lifecycle.pool_size}"'
    if descriptor.lifecycle.max_errors:
        lifecycle_attrs += f' max-errors="{descriptor.lifecycle.max_errors}"'
    lines.append(f"  <life-cycle {lifecycle_attrs} />")
    lines.append("  <output-structure>")
    for field in descriptor.output_structure:
        lines.append(
            f"    <field name={quoteattr(field.name)} "
            f"type=\"{field.type.value}\"/>"
        )
    lines.append("  </output-structure>")
    storage_attrs = (
        f' permanent-storage="{"true" if descriptor.storage.permanent else "false"}"'
    )
    if descriptor.storage.history_size:
        storage_attrs += f" size={quoteattr(descriptor.storage.history_size)}"
    lines.append(f"  <storage{storage_attrs} />")
    if descriptor.addressing:
        lines.append("  <addressing>")
        for key, value in descriptor.addressing.items():
            lines.append(
                f"    <predicate key={quoteattr(key)} val={quoteattr(value)} />"
            )
        lines.append("  </addressing>")
    for stream in descriptor.input_streams:
        rate_attr = f' rate="{_format_number(stream.rate)}"' if stream.rate else ""
        if stream.lifetime:
            rate_attr += f" lifetime={quoteattr(stream.lifetime)}"
        lines.append(
            f"  <input-stream name={quoteattr(stream.name)}{rate_attr}>"
        )
        for source in stream.sources:
            source_attrs = [f"alias={quoteattr(source.alias)}"]
            if source.sampling_rate != 1.0:
                source_attrs.append(
                    f'sampling-rate="{_format_number(source.sampling_rate)}"'
                )
            if source.storage_size:
                source_attrs.append(
                    f"storage-size={quoteattr(source.storage_size)}"
                )
            if source.disconnect_buffer:
                source_attrs.append(
                    f'disconnect-buffer="{source.disconnect_buffer}"'
                )
            if source.slide:
                source_attrs.append(f"slide={quoteattr(source.slide)}")
            lines.append(f"    <stream-source {' '.join(source_attrs)}>")
            lines.append(
                f"      <address wrapper={quoteattr(source.address.wrapper)}>"
            )
            for key, value in source.address.predicates.items():
                lines.append(
                    f"        <predicate key={quoteattr(key)} "
                    f"val={quoteattr(value)} />"
                )
            lines.append("      </address>")
            lines.append(f"      <query>{escape(source.query)}</query>")
            lines.append("    </stream-source>")
        lines.append(f"    <query>{escape(stream.query)}</query>")
        lines.append("  </input-stream>")
    lines.append("</virtual-sensor>")
    return "\n".join(lines)


def _format_number(value: float) -> str:
    if value == int(value):
        return str(int(value))
    return repr(value)
