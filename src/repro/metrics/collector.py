"""Cross-process METRICS collection for parallel campaigns.

The paper's Fig 11 architecture assumes *every* tool run reports into
the central server — including runs fanned across a process pool by
:class:`~repro.core.parallel.FlowExecutor`.  An in-memory
:class:`~repro.metrics.server.MetricsServer` lives in the coordinator
process, so pool workers cannot call it directly; instead:

- workers transmit through the standard
  :class:`~repro.metrics.transmitter.Transmitter` (vocabulary
  validation and buffering), whose target is the collector's
  cross-process queue: each flush puts *one* message on it, the list
  of the buffered records' XML wire-format strings;
- the coordinator runs a :class:`MetricsCollector`: a drain thread
  that takes one message at a time off the queue and hands it to
  :meth:`MetricsServer.put <repro.metrics.server.MetricsServer.put>`,
  the same call an in-process transmitter makes.

The queue carries the same XML strings the original METRICS moved over
the network, so the wire format is unchanged — only the transport is,
and it pays one queue round trip per flush instead of one per record.
See ``docs/metrics.md``.
"""

from __future__ import annotations

import multiprocessing
import queue as queue_module
import threading
from typing import Optional

from repro.metrics.server import MetricsServer
from repro.metrics.transmitter import Transmitter
from repro.metrics.wrappers import report_flow_metrics


class MetricsCollector:
    """Coordinator-side fan-in: queue -> drain thread -> ``server.put``.

    Parameters
    ----------
    server:
        the :class:`MetricsServer` to feed.
    cross_process:
        True (default) backs the queue with a ``multiprocessing.Manager``
        so pool workers can transmit into it; False uses a plain
        ``queue.Queue`` — cheaper, but only valid for in-process
        (``n_workers=1``) execution.

    Use as a context manager, or call :meth:`start`/:meth:`stop`
    explicitly.  :meth:`flush` blocks until every record put so far has
    been drained into the server — call it before mining mid-campaign.
    """

    def __init__(self, server: MetricsServer, cross_process: bool = True):
        self.server = server
        self.cross_process = cross_process
        self._manager = None
        self._queue = None
        self._thread: Optional[threading.Thread] = None
        self.received = 0  # records drained into the server
        self.dropped = 0   # records that did not decode or ingest

    # ------------------------------------------------------------ lifecycle
    @property
    def queue(self):
        """The transmission queue (collector must be started)."""
        if self._queue is None:
            raise RuntimeError("collector is not started")
        return self._queue

    @property
    def running(self) -> bool:
        return self._thread is not None

    def start(self) -> "MetricsCollector":
        """Idempotent: create the queue and launch the drain thread."""
        if self._thread is not None:
            return self
        if self.cross_process:
            self._manager = multiprocessing.Manager()
            self._queue = self._manager.Queue()
        else:
            self._queue = queue_module.Queue()
        self._thread = threading.Thread(
            target=self._drain, name="metrics-drain", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Drain everything queued, then shut the collector down."""
        if self._thread is None:
            return
        self._queue.put(None)  # drain sentinel
        self._thread.join()
        self._thread = None
        if self._manager is not None:
            self._manager.shutdown()
            self._manager = None
        self._queue = None

    def flush(self) -> None:
        """Block until every record queued so far reached the server."""
        if self._queue is not None:
            self._queue.join()

    def __enter__(self) -> "MetricsCollector":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------ internals
    def _drain(self) -> None:
        """Drain loop: block for one message and hand it to
        ``server.put`` (one warehouse transaction).  A message is a
        transmitter flush, a list of XML strings; anything else is
        dropped as one item.  ``task_done`` runs once per message, after
        its records reached the server, so :meth:`flush` is a barrier."""
        while True:
            message = self._queue.get()
            try:
                if message is None:
                    return  # drain sentinel
                if not isinstance(message, list):
                    self.dropped += 1
                    continue
                try:
                    taken = self.server.put(message)
                except Exception:  # noqa: BLE001 - a failed ingest must not kill the drain
                    taken = 0
                self.received += taken
                self.dropped += len(message) - taken
            finally:
                self._queue.task_done()


def run_instrumented_flow_job(queue, run_id, flow_fn, design, options, seed,
                              stop_callback=None, stage_cache=False):
    """Worker-side wrapper: run one flow job and transmit its metrics.

    Module-level (hence picklable) so :class:`FlowExecutor` can submit
    it to a process pool.  The flow's step metrics go onto ``queue``
    under ``run_id`` through a :class:`Transmitter`; the job's outcome
    (result and stage report) is returned unchanged, so executor
    semantics (ordering, caching, failure slots) are identical with and
    without instrumentation.  A crash in ``flow_fn`` propagates before
    anything is transmitted.
    """
    outcome = flow_fn(design, options, seed, stop_callback, stage_cache)
    with Transmitter(queue, outcome.result.design, run_id, tool="spr_flow") as tx:
        report_flow_metrics(tx, outcome.result)
    return outcome
