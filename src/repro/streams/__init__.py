"""Data-stream substrate.

A GSN data stream is a sequence of timestamped tuples (paper, Section 3).
This package provides the tuple/schema model, the retained-row history
behind count- and time-based windows and stream tables, samplers and
rate bounders, disconnect buffers, and the stream quality manager used
by the Input Stream Manager.
"""

from repro.streams.schema import Field, StreamSchema
from repro.streams.element import StreamElement
from repro.streams.history import RetentionPolicy, RowHistory
from repro.streams.sampling import ProbabilisticSampler, RateBounder, SystematicSampler
from repro.streams.buffer import DisconnectBuffer
from repro.streams.quality import QualityReport, StreamQualityMonitor

__all__ = [
    "Field",
    "StreamSchema",
    "StreamElement",
    "RetentionPolicy",
    "RowHistory",
    "ProbabilisticSampler",
    "SystematicSampler",
    "RateBounder",
    "DisconnectBuffer",
    "StreamQualityMonitor",
    "QualityReport",
]
