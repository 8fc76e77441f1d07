"""Low-overhead structured per-op tracing.

The simulator's hot loops stay counter-only; when a consumer wants to
*see* individual operations — demand reads, metadata misses, evictions,
clone repairs, scrub passes, quarantine actions — it subscribes to a
:class:`Tracer` and receives :class:`TraceEvent` objects.

The overhead contract: with no subscribers, every instrumented site is
a single attribute check (``tracer.enabled``), so tracing-disabled runs
pay nothing measurable.  Subscribing to *any* event kind flips
``enabled``; ``emit`` then filters by kind.

``SecureSystem.run`` emits an ``"op"`` event before every post-warmup
reference; fault injectors and background scrubbers attach to a run by
subscribing to it.
"""

from __future__ import annotations


class TraceEvent:
    """One structured event: a kind plus free-form fields.

    Fields are reachable both as ``event.fields["block"]`` and as
    attributes (``event.block``).
    """

    __slots__ = ("kind", "fields")

    def __init__(self, kind: str, fields: dict):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "fields", fields)

    def __getattr__(self, name):
        try:
            return self.fields[name]
        except KeyError:
            raise AttributeError(name) from None

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in self.fields.items())
        return f"TraceEvent({self.kind}, {inner})"


class Tracer:
    """Per-kind subscriber lists with a one-check fast path.

    ``enabled`` is True iff any subscriber exists; instrumented sites
    guard with ``if tracer.enabled:`` before building an event.
    """

    __slots__ = ("_subscribers", "enabled")

    def __init__(self):
        self._subscribers: dict = {}
        self.enabled = False

    def subscribe(self, kind: str, fn):
        """Call ``fn(event)`` for every event of ``kind``.  Returns
        ``fn`` so the caller can :meth:`unsubscribe` it later."""
        self._subscribers.setdefault(kind, []).append(fn)
        self.enabled = True
        return fn

    def unsubscribe(self, kind: str, fn) -> None:
        subscribers = self._subscribers.get(kind, [])
        if fn in subscribers:
            subscribers.remove(fn)
            if not subscribers:
                del self._subscribers[kind]
        self.enabled = bool(self._subscribers)

    def wants(self, kind: str) -> bool:
        return kind in self._subscribers

    def emit(self, kind: str, **fields) -> None:
        subscribers = self._subscribers.get(kind)
        if not subscribers:
            return
        event = TraceEvent(kind, fields)
        for fn in subscribers:
            fn(event)

    def kinds(self) -> list:
        return sorted(self._subscribers)
