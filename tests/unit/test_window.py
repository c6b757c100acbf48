"""Unit tests for count- and time-based windows: a source's
``storage-size`` becomes the retention of its :class:`RowHistory`."""

import pytest

from repro.datatypes import DataType
from repro.descriptors.model import AddressSpec, StreamSourceSpec
from repro.descriptors.validation import validate_descriptor
from repro.exceptions import StorageError, ValidationError
from repro.gsntime.clock import VirtualClock
from repro.streams.element import StreamElement
from repro.streams.history import RetentionPolicy, RowHistory
from repro.streams.schema import StreamSchema
from repro.vsensor.input_manager import SourceRuntime
from repro.wrappers.scripted import ScriptedWrapper

from tests.conftest import simple_mote_descriptor


def row(timed, value=0):
    return (value, timed)


def count_window(size):
    return RowHistory(["v"], RetentionPolicy("count", size))


def time_window(span):
    return RowHistory(["v"], RetentionPolicy("time", span))


def stamps(relation):
    return [timed for __, timed in relation.rows]


def source(storage_size, clock=None):
    wrapper = ScriptedWrapper()
    wrapper.script(lambda now: None, StreamSchema.build(v=DataType.INTEGER))
    spec = StreamSourceSpec(alias="s", address=AddressSpec("scripted"),
                            query="select * from wrapper",
                            storage_size=storage_size)
    return SourceRuntime(spec, wrapper, clock or VirtualClock(5_000))


class TestCountWindow:
    def test_keeps_last_n(self):
        window = count_window(3)
        for i in range(5):
            window.append(row(i * 10, i))
        assert [value for value, __ in window.rows] == [2, 3, 4]

    def test_under_capacity(self):
        window = count_window(5)
        window.append(row(1))
        assert len(window) == 1

    def test_rejects_nonpositive_size(self):
        for bad in (0, -1):
            with pytest.raises(StorageError):
                count_window(bad)

    def test_rejects_unstamped(self):
        # The window never holds an unstamped row: admission stamps it.
        runtime = source("2")
        runtime.receive(StreamElement({"v": 1}))
        assert list(runtime.history.rows) == [(1, 5_000)]

    def test_spec_roundtrip(self):
        runtime = source("7")
        assert runtime.history.retention == RetentionPolicy("count", 7)
        assert runtime.status()["window"] == "7"


class TestTimeWindow:
    def test_keeps_trailing_span(self):
        window = time_window(100)
        window.extend([row(1_000), row(1_050), row(1_150)])
        held, live = window.view(1_150)
        # (1050, 1150] given span 100: 1000 expired, 1050 is exactly at
        # the cutoff and excluded, 1150 included.
        assert stamps(held) == [1_150] and live

    def test_contents_without_now_uses_latest(self):
        # Without a query time a read returns every retained row.
        window = time_window(200)
        window.extend([row(1_000), row(1_100)])
        assert stamps(window.read()) == [1_000, 1_100]

    def test_empty_window(self):
        assert time_window(100).read(1_000).rows == []

    def test_out_of_order_arrivals_tolerated(self):
        window = time_window(1_000)
        window.append(row(2_000))
        window.append(row(1_500))  # late arrival, still in span
        held, __ = window.view(2_000)
        assert sorted(stamps(held)) == [1_500, 2_000]

    def test_out_of_order_expired_dropped(self):
        window = time_window(100)
        window.append(row(2_000))
        window.view(2_000)
        window.append(row(1_000))  # behind the horizon: never retained
        assert stamps(window) == [2_000]
        held, __ = window.view(2_000)
        assert stamps(held) == [2_000]

    def test_query_older_reference(self):
        window = time_window(100)
        window.extend([row(1_000), row(1_200)])
        # Querying "as of" 1000 must not show the future row, and the
        # answer is then a filtered copy, not the live history.
        held, live = window.view(1_000)
        assert stamps(held) == [1_000] and not live
        assert stamps(window) == [1_000, 1_200]

    def test_rejects_nonpositive_span(self):
        with pytest.raises(StorageError):
            time_window(0)

    def test_rejects_unstamped(self):
        runtime = source("10s")
        runtime.receive(StreamElement({"v": 1}))
        assert list(runtime.history.rows) == [(1, 5_000)]

    def test_expiry_frees_memory(self):
        window = time_window(50)
        for t in range(0, 1_000, 10):
            window.append(row(t + 1))
            window.view(t + 1)
        assert len(window) <= 5


class TestMakeWindow:
    def test_count_spec(self):
        assert source("10").history.retention == RetentionPolicy("count", 10)

    def test_time_spec(self):
        assert source("10s").history.retention \
            == RetentionPolicy("time", 10_000)

    @pytest.mark.parametrize("bad", ["", "0", "abc", "-5s"])
    def test_bad_specs(self, bad):
        with pytest.raises(ValidationError, match="bad window spec"):
            validate_descriptor(simple_mote_descriptor(window=bad))
