"""Cross-process METRICS collection for parallel campaigns.

The paper's Fig 11 architecture assumes *every* tool run reports into
the central server — including runs fanned across a process pool by
:class:`~repro.core.parallel.FlowExecutor`.  An in-memory
:class:`~repro.metrics.server.MetricsServer` lives in the coordinator
process, so pool workers cannot call it directly; instead:

- workers transmit through a :class:`QueueTransmitter` — the standard
  :class:`~repro.metrics.transmitter.Transmitter` validation and
  buffering, but delivering XML wire-format records onto a
  cross-process queue instead of a server;
- the coordinator runs a :class:`MetricsCollector`: a drain thread
  that pops records off the queue and feeds them into the server.

The queue carries the same XML strings the original METRICS moved over
the network, so the wire format is unchanged — only the transport is.
See ``docs/metrics.md``.
"""

from __future__ import annotations

import multiprocessing
import queue as queue_module
import threading
from typing import Optional

from repro.metrics.schema import MetricRecord
from repro.metrics.server import MetricsServer
from repro.metrics.transmitter import Transmitter
from repro.metrics.wrappers import report_flow_metrics


class _QueueSink:
    """Duck-typed stand-in for a :class:`MetricsServer`: records are
    put on a queue (as XML text) instead of being ingested directly."""

    def __init__(self, queue):
        self.queue = queue

    def receive_xml(self, xml_text: str) -> None:
        self.queue.put(xml_text)

    def receive(self, record) -> None:
        self.queue.put(record.to_xml())


class QueueTransmitter(Transmitter):
    """A :class:`Transmitter` whose delivery target is a queue.

    Validation (vocabulary check at ``send``) and buffering are
    inherited unchanged; ``flush`` puts XML-encoded records on the
    queue, where the coordinator's :class:`MetricsCollector` drains
    them into the real server.  Works with both in-process queues and
    ``multiprocessing.Manager`` queue proxies, so the same class serves
    serial executors and pool workers.
    """

    def __init__(self, queue, design: str, run_id: str, tool: str,
                 buffer_size: int = 32):
        super().__init__(_QueueSink(queue), design, run_id, tool,
                         use_xml=True, buffer_size=buffer_size)


class MetricsCollector:
    """Coordinator-side fan-in: queue -> drain thread -> server.

    Parameters
    ----------
    server:
        the :class:`MetricsServer` to feed; a fresh in-memory server is
        created when omitted (``persist_path`` then configures it).
    cross_process:
        True (default) backs the queue with a ``multiprocessing.Manager``
        so pool workers can transmit into it; False uses a plain
        ``queue.Queue`` — cheaper, but only valid for in-process
        (``n_workers=1``) execution.
    campaign:
        campaign id for a server created by this collector; every
        untagged record ingested during the session is stamped with it
        (ignored when an explicit ``server`` is passed — configure the
        campaign on that server instead).
    batch_size:
        how many queued records the drain thread hands the server per
        ingest call.  Batches become single transactions on a
        warehouse-backed server, which is what makes sqlite ingest keep
        up with a process pool; correctness does not depend on the
        value.

    Use as a context manager, or call :meth:`start`/:meth:`stop`
    explicitly.  :meth:`flush` blocks until every record put so far has
    been drained into the server — call it before mining mid-campaign.
    """

    def __init__(
        self,
        server: Optional[MetricsServer] = None,
        cross_process: bool = True,
        persist_path: Optional[str] = None,
        campaign: Optional[str] = None,
        batch_size: int = 64,
    ):
        if server is not None and persist_path is not None:
            raise ValueError("pass persist_path only without an explicit server")
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.server = (server if server is not None
                       else MetricsServer(persist_path, campaign=campaign))
        self.cross_process = cross_process
        self.batch_size = batch_size
        self._manager = None
        self._queue = None
        self._thread: Optional[threading.Thread] = None
        self.received = 0  # records drained into the server
        self.dropped = 0   # malformed queue items ignored

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

    def transmitter(self, design: str, run_id: str, tool: str) -> QueueTransmitter:
        """A coordinator-side transmitter into this collector's queue."""
        return QueueTransmitter(self.queue, design, run_id, tool)

    def __enter__(self) -> "MetricsCollector":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------ internals
    def _drain(self) -> None:
        """Drain loop: block for one item, opportunistically gather the
        rest of a batch, decode, and hand the server the whole batch in
        one ``receive_many`` call (one warehouse transaction)."""
        while True:
            batch = [self._queue.get()]
            while len(batch) < self.batch_size:
                try:
                    batch.append(self._queue.get_nowait())
                except queue_module.Empty:
                    break
                except Exception:  # noqa: BLE001 - manager proxy hiccup
                    break
            stop = False
            records = []
            for item in batch:
                if item is None:
                    stop = True  # drain sentinel (finish this batch first)
                    continue
                try:
                    records.append(MetricRecord.from_xml(item))
                except Exception:  # noqa: BLE001 - a bad record must not kill the drain
                    self.dropped += 1
            try:
                if records:
                    self.server.receive_many(records)
                    self.received += len(records)
            except Exception:  # noqa: BLE001
                self.dropped += len(records)
            finally:
                for _ in batch:
                    self._queue.task_done()
            if stop:
                return


def run_instrumented_flow_job(queue, run_id, flow_fn, design, options, seed,
                              stop_callback=None, stage_cache=False):
    """Worker-side wrapper: run one flow job and transmit its metrics.

    Module-level (hence picklable) so :class:`FlowExecutor` can submit
    it to a process pool.  The flow's step metrics go onto ``queue``
    under ``run_id`` via a :class:`QueueTransmitter`; the job's outcome
    (result and stage report) is returned unchanged, so executor
    semantics (ordering, caching, failure slots) are identical with and
    without instrumentation.  A crash in ``flow_fn`` propagates before
    anything is transmitted.
    """
    outcome = flow_fn(design, options, seed, stop_callback, stage_cache)
    with QueueTransmitter(queue, outcome.result.design, run_id, tool="spr_flow") as tx:
        report_flow_metrics(tx, outcome.result)
    return outcome
