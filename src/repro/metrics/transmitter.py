"""Transmitters move records from tools to the server.

The original METRICS collected data "by either a wrapper script or an
API call from within the tools", buffered and XML-encoded in transit.
The transmitter validates names against the vocabulary before sending —
garbage never reaches the server — and delivers in flushes: each flush
is one message, the list of the buffered records'
``MetricRecord.to_xml()`` strings, handed to ``target.put``.  The
target is a :class:`~repro.metrics.server.MetricsServer` (in-process
reporting: one store transaction per flush) or a
:class:`~repro.metrics.collector.MetricsCollector`'s queue (pool
workers: the collector's drain hands each message to that same
``server.put``).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.metrics.schema import MetricRecord


class Transmitter:
    """Buffered, validated channel from one tool run to a METRICS target."""

    def __init__(self, target, design: str, run_id: str, tool: str,
                 buffer_size: int = 32):
        if buffer_size < 1:
            raise ValueError("buffer_size must be >= 1")
        self.target = target
        self.design = design
        self.run_id = run_id
        self.tool = tool
        self.buffer_size = buffer_size
        self._buffer: list = []
        self._sequence = 0

    def send(self, metric: str, value: float, attributes: Optional[Dict[str, str]] = None) -> None:
        """Queue one metric (validated immediately, flushed in batches)."""
        record = MetricRecord(
            design=self.design,
            run_id=self.run_id,
            tool=self.tool,
            metric=metric,
            value=float(value),
            sequence=self._sequence,
            attributes=attributes,
        )
        self._sequence += 1
        self._buffer.append(record)
        if len(self._buffer) >= self.buffer_size:
            self.flush()

    def send_many(self, metrics: Dict[str, float]) -> None:
        for name, value in metrics.items():
            self.send(name, value)

    def flush(self) -> None:
        """Put everything buffered on the target as one message.

        The buffer is emptied before the ``put``, so a ``put`` that
        raises loses this flush's records and never re-sends them:
        delivery is at-most-once.  An empty buffer puts nothing.
        """
        if not self._buffer:
            return
        records, self._buffer = self._buffer, []
        self.target.put([record.to_xml() for record in records])

    def __enter__(self) -> "Transmitter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.flush()
