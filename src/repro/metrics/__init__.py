"""METRICS 2.0 (paper Sec 4, Fig 11).

The original METRICS system (refs [9][28][43]) instrumented design
tools for continuous collection of design-process data, stored it in a
central server, and mined it for predictions and flow guidance.  This
package reimplements that architecture on the substrate, including the
paper's "looking back" upgrades: a common vocabulary, direct tool API
instrumentation (not just wrapper scripts), and a feedback path that
adapts flow parameters mid-stream without human intervention.

Components (Fig 11): tool wrappers / API transmitters -> XML-encoded
records -> the METRICS server -> the data miner -> predictions fed back
to the flow.
"""

from repro.metrics.schema import (
    EXECUTOR_EVENT_METRICS,
    MetricRecord,
    VOCABULARY,
    WAREHOUSE_METRICS,
    validate_metric_name,
)
from repro.metrics.store import (
    JsonlStore,
    MetricsStore,
    MigrationReport,
    SqliteStore,
    migrate_jsonl,
    open_store,
)
from repro.metrics.transmitter import Transmitter
from repro.metrics.server import MetricsServer
from repro.metrics.wrappers import InstrumentedFlow, make_run_id, report_flow_metrics
from repro.metrics.collector import MetricsCollector
from repro.metrics.miner import DataMiner, OptionRecommendation
from repro.metrics.feedback import AdaptiveFlowSession

__all__ = [
    "EXECUTOR_EVENT_METRICS",
    "MetricRecord",
    "VOCABULARY",
    "WAREHOUSE_METRICS",
    "validate_metric_name",
    "MetricsStore",
    "JsonlStore",
    "SqliteStore",
    "MigrationReport",
    "migrate_jsonl",
    "open_store",
    "Transmitter",
    "MetricsServer",
    "MetricsCollector",
    "InstrumentedFlow",
    "make_run_id",
    "report_flow_metrics",
    "DataMiner",
    "OptionRecommendation",
    "AdaptiveFlowSession",
]
