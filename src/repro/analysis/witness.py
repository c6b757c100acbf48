"""One arming protocol for the four runtime witnesses (lock order,
races, thread crashes, event-loop lag).

Witnesses are armed on one stack. :func:`disarm` unwinds the witnesses
armed after the one it removes and installs them again, so every hook
chain (``threading.excepthook``, patched classes) stays in stack order
and the others stay exactly as armed as before. After every change the
lock factory behind :func:`repro.concurrency.new_lock` is rebuilt from
the stack, and each witness module's global ``_active`` is set to the
top armed instance of its class: the single read the runtime makes
(``crashwitness.active()``). Nothing is armed by default.
"""

from __future__ import annotations

import sys
import threading
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, TypeVar

from repro import concurrency

LockFactory = Callable[[str, bool], object]
W = TypeVar("W", bound="Witness")


def plain_lock(name: str, reentrant: bool = False) -> object:
    """The factory under every witness: what ``new_lock`` returns with
    none armed."""
    return threading.RLock() if reentrant else threading.Lock()


class Witness:
    """A runtime witness, as the protocol arms it."""

    def install(self) -> None:
        """Hook into the process (an exception hook, patched classes)."""

    def uninstall(self) -> None:
        """Undo :meth:`install`."""

    def lock_factory(self, inner: LockFactory) -> Optional[LockFactory]:
        """The lock factory with this witness armed over ``inner``, or
        ``None`` when the witness leaves locks alone."""
        return None


#: Armed witnesses, first armed first.
_stack: List[Witness] = []
#: Every witness class armed so far (its module's ``_active`` slot).
_kinds: Dict[type, None] = {}


def arm(witness: W) -> W:
    """Arm ``witness`` on top of the stack (no-op when armed)."""
    if witness not in _stack:
        _stack.append(witness)
        _kinds[type(witness)] = None
        witness.install()
        _refresh()
    return witness


def disarm(witness: Witness) -> None:
    """Disarm ``witness`` wherever it sits (no-op when not armed)."""
    if witness not in _stack:
        return
    position = _stack.index(witness)
    above = _stack[position + 1:]
    for other in reversed(above):
        other.uninstall()
    witness.uninstall()
    del _stack[position:]
    for other in above:
        _stack.append(other)
        other.install()
    _refresh()


@contextmanager
def armed(*witnesses: Witness) -> Iterator[None]:
    """Arm ``witnesses`` in order for the block; disarm on exit, in
    reverse, those this call armed."""
    fresh = [witness for witness in witnesses if witness not in _stack]
    for witness in fresh:
        arm(witness)
    try:
        yield
    finally:
        for witness in reversed(fresh):
            disarm(witness)


def _refresh() -> None:
    factory: LockFactory = plain_lock
    layered = False
    top: Dict[type, Witness] = {}
    for witness in _stack:
        wrapped = witness.lock_factory(factory)
        if wrapped is not None:
            factory, layered = wrapped, True
        top[type(witness)] = witness
    # With no lock witness armed, ``new_lock`` makes stdlib locks
    # directly, without a factory call.
    concurrency.install_witness(factory if layered else None)
    for kind in _kinds:
        setattr(sys.modules[kind.__module__], "_active", top.get(kind))
