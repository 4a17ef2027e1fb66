"""A replayable event feed for subscribers that arrive late.

The bus (:mod:`repro.obs.bus`) delivers events synchronously to
callbacks registered *before* the run; the simulation service needs the
complementary shape — consumers that arrive late, read at their own
pace, and disconnect without affecting the producer:

* :class:`Feed` — an append-only, replayable event feed.  Producers
  :meth:`~Feed.append` items and eventually :meth:`~Feed.close`;
  subscribers get the full history replayed on subscribe, then live
  items, in order.  Each :class:`~repro.service.core.JobTicket` carries
  one, which is what the HTTP ``/stream`` endpoint serves.  Dropping a
  subscriber never perturbs the feed — a client disconnecting
  mid-stream cannot cancel the job producing it.
"""

from __future__ import annotations

import queue
import threading
from typing import Callable, Iterator, List, Optional

#: Sentinel a Feed delivers (and ``iter()`` swallows) at end-of-stream.
FEED_CLOSED = object()


class Feed:
    """Append-only event feed with replay-then-live subscriptions.

    Thread-safe: producers append from worker/executor threads while
    subscribers attach and detach from servers or tests.  Subscribing
    replays the existing history *under the feed lock*, so a subscriber
    sees every item exactly once, in append order, with no gap between
    replay and live delivery.  Subscriber callbacks must be quick and
    non-blocking (typically a queue put); a callback that raises is
    dropped rather than allowed to wedge the producer.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._items: List[object] = []
        self._subscribers: List[Callable[[object], None]] = []
        self._closed = False

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has ended the stream."""
        return self._closed

    def append(self, item: object) -> None:
        """Record one item and deliver it to every live subscriber."""
        with self._lock:
            if self._closed:
                raise ValueError("append to a closed feed")
            self._items.append(item)
            subscribers = list(self._subscribers)
            for callback in subscribers:
                try:
                    callback(item)
                except Exception:
                    self._subscribers.remove(callback)

    def close(self) -> None:
        """End the stream: subscribers get the sentinel, then detach."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            subscribers, self._subscribers = self._subscribers, []
            for callback in subscribers:
                try:
                    callback(FEED_CLOSED)
                except Exception:
                    pass

    def history(self) -> List[object]:
        """A snapshot of everything appended so far."""
        with self._lock:
            return list(self._items)

    def subscribe(self, callback: Callable[[object], None],
                  replay: bool = True) -> Callable[[], None]:
        """Attach ``callback``; returns the detach function.

        With ``replay`` (default) the existing history is delivered
        first, atomically with the registration, so no item is missed
        or duplicated.  On an already-closed feed the history is
        replayed and the sentinel delivered immediately.
        """
        with self._lock:
            if replay:
                for item in self._items:
                    callback(item)
            if self._closed:
                callback(FEED_CLOSED)
                return lambda: None
            self._subscribers.append(callback)

        def unsubscribe() -> None:
            with self._lock:
                if callback in self._subscribers:
                    self._subscribers.remove(callback)

        return unsubscribe

    def iter(self, timeout: Optional[float] = None,
             replay: bool = True) -> Iterator[object]:
        """Iterate replay + live items until the feed closes.

        ``timeout`` bounds the wait for *each* item; expiry ends the
        iteration (it does not raise).  Detaches on garbage collection
        of the generator as well as on normal exhaustion.
        """
        buffer: "queue.Queue[object]" = queue.Queue()
        unsubscribe = self.subscribe(buffer.put, replay=replay)
        try:
            while True:
                try:
                    item = buffer.get(timeout=timeout)
                except queue.Empty:
                    return
                if item is FEED_CLOSED:
                    return
                yield item
        finally:
            unsubscribe()


__all__ = ["FEED_CLOSED", "Feed"]
