"""Property-based tests on core data structures and invariants."""

from hypothesis import given, strategies as st

from repro.gsntime.duration import format_duration, parse_duration
from repro.streams.element import StreamElement
from repro.streams.history import RetentionPolicy, RowHistory

timestamps = st.integers(0, 10**12)


class TestDurationProperties:
    @given(millis=st.integers(0, 10**10))
    def test_format_parse_roundtrip(self, millis):
        assert parse_duration(format_duration(millis)).millis == millis

    @given(a=st.integers(0, 10**6), b=st.integers(0, 10**6))
    def test_addition_consistent(self, a, b):
        from repro.gsntime.duration import Duration
        assert (Duration(a) + Duration(b)).millis == a + b


class TestCountWindowProperties:
    @given(size=st.integers(1, 20),
           stamps=st.lists(timestamps, min_size=0, max_size=60))
    def test_never_exceeds_capacity_and_keeps_suffix(self, size, stamps):
        window = RowHistory(["v"], RetentionPolicy("count", size))
        for stamp in stamps:
            window.append((1, stamp))
        held = [timed for __, timed in window.view(None)[0].rows]
        assert len(held) <= size
        assert held == stamps[-size:] if stamps else held == []


class TestTimeWindowProperties:
    @given(span=st.integers(1, 1_000),
           stamps=st.lists(st.integers(0, 5_000), min_size=0, max_size=60))
    def test_contents_match_naive_model(self, span, stamps):
        """The optimized window equals the obvious definition:
        {t : now - span < t <= now} with now = max(seen)."""
        window = RowHistory(["v"], RetentionPolicy("time", span))
        for stamp in stamps:
            window.append((1, stamp))
        if not stamps:
            assert list(window.rows) == []
            return
        now = max(stamps)
        expected = sorted(t for t in stamps if now - span < t <= now)
        held = sorted(timed for __, timed in window.view(now)[0].rows)
        assert held == expected

    @given(span=st.integers(1, 1_000),
           stamps=st.lists(st.integers(0, 5_000), min_size=1, max_size=60),
           probe=st.integers(0, 6_000))
    def test_reference_time_bounds_contents(self, span, stamps, probe):
        window = RowHistory(["v"], RetentionPolicy("time", span))
        for stamp in stamps:
            window.append((1, stamp))
        held = [timed for __, timed in window.view(probe)[0].rows]
        assert all(probe - span < t <= probe for t in held)


class TestElementProperties:
    payloads = st.dictionaries(
        st.text(alphabet="abcdefgh", min_size=1, max_size=6),
        st.one_of(st.none(), st.integers(-10**6, 10**6),
                  st.floats(allow_nan=False, allow_infinity=False),
                  st.text(max_size=10), st.binary(max_size=10)),
        min_size=1, max_size=5,
    )

    @given(values=payloads, timed=timestamps)
    def test_immutability_of_derivation(self, values, timed):
        original = StreamElement(values)
        stamped = original.with_timestamp(timed)
        assert original.timed is None
        assert stamped.timed == timed
        assert stamped.values == original.values

    @given(values=payloads, timed=timestamps)
    def test_as_row_contains_every_field_plus_timed(self, values, timed):
        element = StreamElement(values, timed=timed)
        row = element.as_row()
        assert row["timed"] == timed
        for key in values:
            assert key.lower() in row

    @given(values=payloads)
    def test_payload_size_nonnegative_and_additive(self, values):
        element = StreamElement(values)
        assert element.payload_size() >= 0
        total = sum(
            StreamElement({k: v}).payload_size()
            for k, v in values.items()
        )
        assert element.payload_size() == total
