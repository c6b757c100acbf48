"""The query repository.

"The query repository manages all registered queries (subscriptions) and
defines and maintains the set of currently active queries for the query
processor" (paper, Section 4). Subscriptions index by the stream tables
they read; when a virtual sensor emits, only the affected subscriptions
re-evaluate.
"""

from __future__ import annotations

import logging
from typing import Dict, FrozenSet, List, Optional

from repro.exceptions import GSNError, ValidationError
from repro.gsntime.clock import Clock
from repro.gsntime.duration import parse_duration
from repro.notifications.manager import NotificationManager
from repro.query.processor import QueryProcessor
from repro.query.subscription import Subscription
from repro.sqlengine.executor import Catalog
from repro.sqlengine.relation import Relation
from repro.sqlengine.rewriter import referenced_tables
from repro.status import UptimeTracker, status_doc

logger = logging.getLogger(__name__)


def _windowed_catalog(base: Catalog, tables: FrozenSet[str], now: int,
                      history_ms: int) -> Catalog:
    """A catalog view restricting each stream table the subscription
    reads to elements with ``timed`` in ``(now - history_ms, now]``."""
    cutoff = now - history_ms
    windowed = Catalog()
    for table in tables:
        relation = base.get(table)
        if "timed" not in relation:
            windowed.register(table, relation)
            continue
        position = relation.column_position("timed")
        filtered = Relation.adopt(relation.columns, [
            row for row in relation.rows
            if row[position] is not None and cutoff < row[position] <= now
        ])
        windowed.register(table, filtered)
    return windowed


class QueryRepository:
    """Holds subscriptions and drives their re-evaluation."""

    def __init__(self, processor: QueryProcessor,
                 notifications: NotificationManager,
                 clock: Clock) -> None:
        self.processor = processor
        self.notifications = notifications
        self.clock = clock
        self._subscriptions: Dict[int, Subscription] = {}
        self._by_table: Dict[str, List[int]] = {}
        self._uptime = UptimeTracker()
        self.evaluations = 0
        self.failures = 0

    # -- registration --------------------------------------------------------

    def register(self, sql: str, channel: str = "queue",
                 client: str = "anonymous", name: str = "",
                 history: Optional[str] = None) -> Subscription:
        """Register a standing query; validates the SQL eagerly.

        ``history`` optionally bounds how far back the query sees, as a
        duration string (``"10s"``, ``"30m"``): at evaluation time the
        stream tables are restricted to elements from the trailing
        window — the per-client "history size" of the paper's workload.
        """
        try:
            tables = frozenset(referenced_tables(sql))
        except Exception as exc:
            raise ValidationError(f"subscription SQL invalid: {exc}") from exc
        if not self.notifications.has_channel(channel):
            raise ValidationError(f"unknown notification channel {channel!r}")
        history_ms = None
        if history is not None:
            try:
                history_ms = parse_duration(history).millis
            except Exception as exc:
                raise ValidationError(
                    f"bad subscription history {history!r}: {exc}"
                ) from exc
        subscription = Subscription(
            sql=sql, channel=channel, client=client, name=name,
            tables=tables, history_ms=history_ms,
            created_at=self.clock.now(),
        )
        self._subscriptions[subscription.id] = subscription
        for table in tables:
            self._by_table.setdefault(table, []).append(subscription.id)
        return subscription

    def unregister(self, subscription_id: int) -> None:
        subscription = self._subscriptions.pop(subscription_id, None)
        if subscription is None:
            raise ValidationError(f"no subscription #{subscription_id}")
        subscription.deactivate()
        for table in subscription.tables:
            members = self._by_table.get(table, [])
            if subscription_id in members:
                members.remove(subscription_id)
            if not members:
                self._by_table.pop(table, None)

    def get(self, subscription_id: int) -> Subscription:
        try:
            return self._subscriptions[subscription_id]
        except KeyError:
            raise ValidationError(
                f"no subscription #{subscription_id}"
            ) from None

    def subscriptions(self) -> List[Subscription]:
        return [self._subscriptions[key]
                for key in sorted(self._subscriptions)]

    def affected_by(self, table_name: str) -> List[Subscription]:
        return [
            self._subscriptions[sid]
            for sid in self._by_table.get(table_name.lower(), [])
            if self._subscriptions[sid].active
        ]

    # -- evaluation ----------------------------------------------------------

    def data_arrived(self, table_name: str,
                     catalog: Optional[Catalog] = None) -> int:
        """Re-evaluate every subscription reading ``table_name``.

        Returns the number of notifications dispatched. ``catalog``
        optionally pins one snapshot for all affected subscriptions. A
        subscription whose query fails is counted (and logged once) and
        skipped: one poisoned client must not silence the others, nor
        the producing sensor's later listeners.
        """
        affected = self.affected_by(table_name)
        if not affected:
            return 0
        if catalog is None and len(affected) > 1:
            catalog = self.processor.snapshot_catalog()
        dispatched = 0
        for subscription in affected:
            target = catalog
            if subscription.history_ms is not None:
                base = (catalog if catalog is not None
                        else self.processor.snapshot_catalog())
                target = _windowed_catalog(base, subscription.tables,
                                           self.clock.now(),
                                           subscription.history_ms)
            try:
                result = self.processor.execute(subscription.sql, target)
            except GSNError as exc:
                if not subscription.failures:
                    logger.warning("subscription %s (%s) failed: %s",
                                   subscription.name, subscription.sql, exc)
                subscription.failures += 1
                self.failures += 1
                continue
            subscription.last_result = result
            subscription.notifications_sent += 1
            self.notifications.deliver(subscription, result)
            dispatched += 1
        self.evaluations += dispatched
        return dispatched

    def status(self) -> dict:
        return status_doc(
            "query-repository", "running",
            counters={"registered": len(self._subscriptions),
                      "evaluations": self.evaluations,
                      "failures": self.failures},
            uptime_ms=self._uptime.uptime_ms(),
            registered=len(self._subscriptions),
            by_table={table: len(ids)
                      for table, ids in self._by_table.items()},
            subscriptions=[s.summary() for s in self.subscriptions()],
        )
