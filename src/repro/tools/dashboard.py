"""Static HTML dashboard.

"During the whole demonstration, the audience are able to monitor the
effective status of all parts of the system ... through a web interface
and various plots" (paper, Section 6). This renders one self-contained
HTML page from a container's status document — no server, no JS
dependencies — suitable for writing to disk on a schedule or serving
from any static host.
"""

from __future__ import annotations

from html import escape
from typing import Any, Dict, List

from repro.container import GSNContainer
from repro.metrics.ascii_plot import plot_series
from repro.metrics.report import Series

_STYLE = """
body { font-family: system-ui, sans-serif; margin: 2rem; color: #1a202c; }
h1 { border-bottom: 2px solid #2b6cb0; padding-bottom: .3rem; }
h2 { color: #2b6cb0; margin-top: 1.6rem; }
table { border-collapse: collapse; margin: .5rem 0; }
th, td { border: 1px solid #cbd5e0; padding: .3rem .7rem; text-align: left;
         font-size: .9rem; }
th { background: #ebf4ff; }
.ok { color: #276749; } .warn { color: #c05621; }
.badge { background: #ebf4ff; border-radius: 4px; padding: 0 .4rem; }
pre.plot { background: #f7fafc; border: 1px solid #cbd5e0; padding: .6rem;
           font-size: .75rem; line-height: 1.1; overflow-x: auto; }
"""


def _table(headers: List[str], rows: List[List[Any]]) -> str:
    head = "".join(f"<th>{escape(str(h))}</th>" for h in headers)
    body = "".join(
        "<tr>" + "".join(f"<td>{escape(str(cell))}</td>" for cell in row)
        + "</tr>"
        for row in rows
    )
    return f"<table><tr>{head}</tr>{body}</table>"


def render_dashboard(container: GSNContainer) -> str:
    """One self-contained HTML page of the container's live status."""
    status = container.status()
    sensors: Dict[str, Any] = status["virtual_sensors"]["sensors"]

    sensor_rows = []
    for name, doc in sorted(sensors.items()):
        processing = doc["processing"]
        incremental = doc.get("incremental", {})
        counters = incremental.get("counters", {})
        fast_hits = (counters.get("identity_hits", 0)
                     + counters.get("aggregate_hits", 0))
        sensor_rows.append([
            name,
            doc["lifecycle"]["state"],
            doc["elements_produced"],
            f"{processing['mean_ms']:.3f}",
            f"{processing['p95_ms']:.3f}",
            "yes" if doc["permanent_storage"] else "no",
            f"{fast_hits} fast / {counters.get('legacy_queries', 0)} legacy",
            counters.get("cache_hits", 0),
        ])

    stream_rows = []
    for name, doc in sorted(sensors.items()):
        for stream_name, stream in doc["input_streams"].items():
            for source in stream["sources"]:
                quality = source["quality"]
                stream_rows.append([
                    f"{name}/{stream_name}/{source['alias']}",
                    source["wrapper"],
                    source["window"],
                    source["admitted"],
                    "up" if source["connected"] else "DOWN",
                    quality["missing_value_count"],
                    quality["late_count"],
                    quality["out_of_order_count"],
                ])

    subscription_rows = [
        [s["name"], s["client"], s["channel"],
         ", ".join(s["tables"]), s["notifications_sent"]]
        for s in status["subscriptions"]["subscriptions"]
    ]

    queries = status["queries"]
    sections = [
        f"<h1>GSN node <span class='badge'>{escape(status['name'])}</span>"
        f"</h1>",
        f"<p>container time: {status['time']} ms"
        f" · mode: {'simulated' if status['simulated'] else 'wall clock'}"
        f" · queries executed: {queries['queries_executed']}"
        f" · plan-cache hit ratio: "
        f"{queries['plan_cache']['hit_ratio']:.2%}</p>",
        "<h2>Virtual sensors</h2>",
        _table(["sensor", "state", "produced", "mean ms", "p95 ms",
                "persistent", "incremental", "cache reuse"],
               sensor_rows) if sensor_rows
        else "<p>none deployed</p>",
        "<h2>Stream sources</h2>",
        _table(["source", "wrapper", "window", "admitted", "link",
                "missing", "late", "out-of-order"], stream_rows)
        if stream_rows else "<p>none</p>",
        "<h2>Subscriptions</h2>",
        _table(["name", "client", "channel", "tables", "notified"],
               subscription_rows) if subscription_rows
        else "<p>none registered</p>",
    ]

    sections.extend(_observability_sections(container))

    if status["peer"] is not None:
        peer = status["peer"]
        sections.append("<h2>Peer network</h2>")
        sections.append(_table(
            ["serving", "listening", "forwarded", "received", "seal"],
            [[peer["serving"], peer["listening"],
              peer["elements_forwarded"], peer["elements_received"],
              peer["seal"]]],
        ))

    return (
        "<!DOCTYPE html><html><head><meta charset='utf-8'>"
        f"<title>GSN · {escape(status['name'])}</title>"
        f"<style>{_STYLE}</style></head><body>"
        + "".join(sections)
        + "</body></html>"
    )


def _observability_sections(container: GSNContainer) -> List[str]:
    """Latency/throughput panel fed by the metrics registry and the
    trace ring buffer (empty lists degrade to 'no data' gracefully)."""
    sections = ["<h2>Pipeline latency</h2>"]

    stage_rows: List[List[Any]] = []
    for family in container.metrics.collect():
        if family.name != "gsn_pipeline_step_latency_ms":
            continue
        for labels, snapshot in family.samples:
            if snapshot.count == 0:
                continue
            stage_rows.append([
                labels.get("sensor", "?"), labels.get("step", "?"),
                snapshot.count, f"{snapshot.mean:.3f}",
            ])
    stage_rows.sort(key=lambda row: (row[0], row[1]))
    sections.append(
        _table(["sensor", "step", "observations", "mean ms"], stage_rows)
        if stage_rows else "<p>no traced triggers yet</p>"
    )

    roots = [span for span in container.traces.recent()
             if span.name == "trigger" and span.duration_ms is not None]
    if roots:
        series = Series("trigger ms")
        for span in sorted(roots, key=lambda s: s.started_at):
            series.add(float(span.started_at), span.duration_ms)
        chart = plot_series([series], x_label="container time (ms)",
                            y_label="latency (ms)")
        sections.append(f"<pre class='plot'>{escape(chart)}</pre>")
    return sections


def write_dashboard(container: GSNContainer, path: str) -> None:
    """Render and write the dashboard page to ``path``."""
    with open(path, "w") as handle:
        handle.write(render_dashboard(container))
