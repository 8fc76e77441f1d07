"""Write Pending Queue (WPQ) with ADR semantics.

The WPQ is the small buffer inside the memory controller that sits
within the Asynchronous DRAM Refresh (ADR) power-fail protected domain:
anything accepted into the WPQ is guaranteed to reach NVM even if power
is lost (Section 3.2.1).  The paper leans on two WPQ properties:

* entries accepted together can be treated as an *atomic* group — which
  bounds Soteria's maximum clone depth at five, since the minimum WPQ
  holds eight entries and a secure write may already occupy up to three
  (ciphertext, data MAC, shadow log); and
* the queue drains to NVM in the background, so its capacity limits the
  burst of clone writes that can be outstanding.
"""

from __future__ import annotations

from collections import deque

from repro.constants import DEFAULT_WPQ_ENTRIES


class WpqFullError(Exception):
    """An atomic group exceeded the WPQ capacity."""


class WritePendingQueue:
    """FIFO of pending persistent writes inside the ADR domain."""

    def __init__(self, nvm, capacity: int = DEFAULT_WPQ_ENTRIES):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self._nvm = nvm
        self.capacity = capacity
        self._queue: deque = deque()
        # address -> its newest queued ``(address, data)`` entry.  Write
        # forwarding reads this instead of scanning the queue; draining
        # an entry that is still the newest for its address means no
        # later write to that address is queued, so it leaves the index.
        self._latest: dict = {}
        self.enqueued_count = 0
        self.drained_count = 0

    def __len__(self) -> int:
        return len(self._queue)

    @property
    def free_entries(self) -> int:
        return self.capacity - len(self._queue)

    def enqueue(self, address: int, data: bytes) -> None:
        """Accept one persistent write, draining older entries if full.

        Draining models the controller flushing WPQ head entries to the
        NVM to make room — the caller never blocks, it just pays the
        drain in write traffic (already counted by the NVM device).
        """
        queue, latest = self._queue, self._latest
        while len(queue) >= self.capacity:
            # Full: the head entry drains to NVM, in place.
            head = queue.popleft()
            if latest[head[0]] is head:
                del latest[head[0]]
            self._nvm.write_block(head[0], head[1])
            self.drained_count += 1
        entry = (address, bytes(data))
        queue.append(entry)
        latest[address] = entry
        self.enqueued_count += 1

    def enqueue_atomic(self, entries) -> None:
        """Accept a group of writes that must persist all-or-nothing.

        The group must fit the WPQ; if older residue entries are in the
        way they are drained first (the paper: "the memory controller
        will eventually be able to atomically commit all clones as soon
        as few entries are flushed").  A group larger than the WPQ can
        never be atomic and raises :class:`WpqFullError`.
        """
        entries = list(entries)
        if len(entries) > self.capacity:
            raise WpqFullError(
                f"atomic group of {len(entries)} exceeds WPQ capacity "
                f"{self.capacity}"
            )
        queue, latest = self._queue, self._latest
        excess = len(queue) + len(entries) - self.capacity
        if excess > 0:
            self._commit(excess)
        for address, data in entries:
            entry = (address, bytes(data))
            queue.append(entry)
            latest[address] = entry
        self.enqueued_count += len(entries)

    def lookup(self, address: int):
        """Latest pending data for ``address`` (write forwarding), or
        None.  Reads must see WPQ contents: accepted entries are
        logically persistent even before they drain."""
        entry = self._latest.get(address)
        return None if entry is None else entry[1]

    def pending_addresses(self):
        """Distinct addresses with entries still queued (observer use)."""
        return set(self._latest)

    def _commit(self, count: int) -> None:
        """Pop the ``count`` oldest entries and write each to NVM, in
        FIFO order (the caller knows that many are queued)."""
        popleft, latest = self._queue.popleft, self._latest
        write_block = self._nvm.write_block
        for _ in range(count):
            entry = popleft()
            address = entry[0]
            if latest[address] is entry:
                del latest[address]
            write_block(address, entry[1])
            self.drained_count += 1

    def drain_one(self) -> bool:
        """Flush the oldest entry to NVM; returns False when empty."""
        if not self._queue:
            return False
        self._commit(1)
        return True

    def drain_all(self) -> int:
        """Flush everything; returns the number of entries drained."""
        count = len(self._queue)
        self._commit(count)
        return count

    def power_loss_flush(self) -> int:
        """ADR guarantee: on power loss every accepted entry persists."""
        return self.drain_all()
