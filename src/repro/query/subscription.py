"""Registered queries (subscriptions).

A subscription is a standing SQL query plus a notification target. The
repository re-evaluates it whenever one of the streams it reads produces a
new element, and pushes the result through the notification manager.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import FrozenSet, Optional

from repro.exceptions import ValidationError
from repro.sqlengine.relation import Relation

_ids = itertools.count(1)


@dataclass
class Subscription:
    """One registered query.

    ``channel`` names the notification channel to deliver through;
    ``client`` identifies the subscriber (for access control and the web
    interface). ``tables`` is derived from the SQL at registration.
    """

    sql: str
    channel: str
    client: str = "anonymous"
    name: str = ""
    tables: FrozenSet[str] = frozenset()
    active: bool = True
    #: Client-side history window in milliseconds: when set, the query
    #: only sees stream elements from the trailing window (the "history
    #: size" clients specify in the paper's Figure 4 workload).
    history_ms: Optional[int] = None
    id: int = field(default_factory=lambda: next(_ids))
    notifications_sent: int = 0
    #: Evaluations that raised; the repository skips and counts them.
    failures: int = field(default=0, init=False)
    last_result: Optional[Relation] = None
    created_at: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.sql.strip():
            raise ValidationError("subscription needs a query")
        if not self.name:
            self.name = f"subscription-{self.id}"

    def deactivate(self) -> None:
        self.active = False

    def summary(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "client": self.client,
            "channel": self.channel,
            "sql": self.sql,
            "tables": sorted(self.tables),
            "history_ms": self.history_ms,
            "active": self.active,
            "notifications_sent": self.notifications_sent,
            "failures": self.failures,
        }
