"""The delivery oracle: what every subscriber must observe, checked online.

Each subscriber registers the exact ``seq`` list it must see (the workload
derives it from the corpus, the subscriber's type and its predicate).  The
callback the oracle hands out compares every delivery with the next expected
``seq`` in O(1) and without retaining events, so it is cheap enough to stay
in the timed path at 100 callbacks per publish; anomalies take the slow path
and are classified:

* ``missing``    -- an expected ``seq`` never arrived (or was skipped over);
* ``repeated``   -- a ``seq`` at or before the cursor arrived again, i.e. a
  duplicate or an out-of-order delivery (after a skip the two cannot be told
  apart, and both break the exactly-once, per-publisher-order guarantee);
* ``unexpected`` -- a ``seq`` the subscriber's type or predicate excludes;
* ``wrong_payload`` -- an audited delivery whose fields differ from the
  corpus (the codec round-trip lost or changed something).

``failed`` is the sum of the four; ``expected`` is the number of deliveries
the workload should have produced.  ``failed / expected`` is the
``failed_share`` of the benchmark's documentation.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from typing import Any, Callable, Dict, List, Sequence


class DeliveryOracle:
    """Expected-vs-observed deliveries for one round."""

    def __init__(self, corpus: Sequence[Any]) -> None:
        self._corpus = corpus
        self._expected: List[array] = []
        self._cursors: List[List[int]] = []
        #: Total callbacks observed, shared by every subscriber's callback.
        self.delivered = [0]
        self.missing = 0
        self.repeated = 0
        self.unexpected = 0
        self.wrong_payload = 0

    # ----------------------------------------------------------- registration

    def subscriber(
        self,
        expected_seqs: Sequence[int],
        *,
        audit_payload: bool = False,
        on_delivery: Callable[[int], None] | None = None,
    ) -> Callable[[Any], None]:
        """Register a subscriber; returns the callback to subscribe with.

        ``audit_payload`` additionally compares every field of the delivered
        event with the corpus (one subscriber per workload does this; the
        rest only check ``seq`` so the harness stays out of the way).
        ``on_delivery(seq)`` is invoked after a delivery was accepted -- the
        wire workloads use it to stamp per-event completion.
        """
        expected = array("q", expected_seqs)
        cursor = [0]
        index = len(self._expected)
        self._expected.append(expected)
        self._cursors.append(cursor)
        count = len(expected)
        delivered = self.delivered
        anomaly = self._anomaly
        audit = self._audit if audit_payload else None

        def callback(event: Any) -> None:
            position = cursor[0]
            seq = event.seq
            if position < count and expected[position] == seq:
                cursor[0] = position + 1
            else:
                anomaly(index, seq)
            delivered[0] += 1
            if audit is not None:
                audit(event)
            if on_delivery is not None:
                on_delivery(seq)

        return callback

    # -------------------------------------------------------------- slow path

    def _anomaly(self, index: int, seq: int) -> None:
        expected = self._expected[index]
        cursor = self._cursors[index]
        position = cursor[0]
        if position < len(expected) and seq > expected[position]:
            found = bisect_left(expected, seq, position)
            if found < len(expected) and expected[found] == seq:
                self.missing += found - position
                cursor[0] = found + 1
                return
            self.unexpected += 1
            return
        found = bisect_left(expected, seq)
        if found < len(expected) and expected[found] == seq:
            self.repeated += 1
        else:
            self.unexpected += 1

    def _audit(self, event: Any) -> None:
        seq = event.seq
        if not 0 <= seq < len(self._corpus):
            self.wrong_payload += 1
            return
        reference = self._corpus[seq]
        if (
            type(event) is not type(reference)
            or event.key != reference.key
            or event.price != reference.price
            or event.text != reference.text
        ):
            self.wrong_payload += 1

    # ----------------------------------------------------------------- result

    def expected_through(self, seq_limit: int) -> int:
        """Deliveries expected once every event with ``seq < seq_limit`` is out."""
        return sum(bisect_left(expected, seq_limit) for expected in self._expected)

    def finish(self, seq_limit: int) -> Dict[str, int]:
        """Close the books for events ``seq < seq_limit``; returns the tallies."""
        missing = self.missing
        for expected, cursor in zip(self._expected, self._cursors):
            missing += max(0, bisect_left(expected, seq_limit) - cursor[0])
        failed = missing + self.repeated + self.unexpected + self.wrong_payload
        return {
            "expected": self.expected_through(seq_limit),
            "delivered": self.delivered[0],
            "missing": missing,
            "repeated": self.repeated,
            "unexpected": self.unexpected,
            "wrong_payload": self.wrong_payload,
            "failed": failed,
        }
