"""The incremental STA kernel: a levelized timing graph over a netlist.

:class:`TimingGraph` is the artifact the rest of the substrate queries
for timing.  It is constructed once from (netlist, placement,
congestion) plus a delay-model policy, propagates arrivals with
:meth:`TimingGraph.full_propagate`, and then answers *edits* with
:meth:`TimingGraph.update` — dirty-set invalidation that re-levels and
re-propagates only the forward fanout cones (and predecessor load
deltas) of the touched instances.  ``runtime_proxy`` is charged by the
nodes actually propagated, so the Fig-8 cost axis stays honest while
an optimizer loop queries timing incrementally.

Full propagation is vectorized: the topology exposes a struct-of-arrays
view (:class:`_TopoSoA` — per-net rows, a CSR of combinational fanin
edges sorted by level, sink segments for load accumulation) and
``full_propagate`` evaluates whole levels at a time with numpy segment
reductions.  ``report`` reads the same per-net rows as columns and
walks every endpoint's worst path at once over the ``pred`` array.
Dirty-cone ``update`` runs per node — cones are small, and
the per-node ``_compute_*`` methods remain the single definition the
vector kernel must match (recomputing every node through them after a
full propagation leaves all state bitwise unchanged).

Bit-identity with the historical full-run engines is a hard contract
(enforced against ``tests/eda/sta_reference.py``): every per-node
value is computed by the *same float expressions in the same order*
as the pre-refactor ``_BaseSTA.analyze``.  The vectorized kernel keeps
that contract because

- sums go through ``np.bincount``, which accumulates strictly left to
  right (no pairwise summation), matching the per-node loops over each
  net's sinks and each node's inputs; ``np.add.reduceat`` would not
  (it returns ``a[s] + (a[s+1] + ...)``), so only the exact
  ``np.maximum``/``np.minimum.reduceat`` reduce segments;
- per-level elementwise expressions are written with the same
  association order as the per-node methods, so each float operation is
  the identical IEEE-754 operation;
- level-by-level evaluation is equivalent to topological-order
  evaluation (every input of a level-L node is produced at a lower
  level, by a sequential output, or at a primary input).

An incremental update stops propagating exactly where recomputed
``(arrival, slew)`` values are bitwise unchanged — recomputing a node
whose inputs are bitwise identical reproduces its old value bitwise,
so pruned cones cannot diverge from a from-scratch run.

Invalidation rules (see docs/substrate.md for the narrative version):

- **cell swap** (``replace_cell``): dirty = the instance itself plus
  the drivers of its input nets (their output load changed through the
  new input capacitance).  Net lengths are untouched.
- **buffer splice** (``insert_buffer``): the spliced net's length and
  load both change, so dirty = the new buffer, the spliced net's
  driver, and *all* of its combinational sinks (their input wire
  delays see the new length); the buffer is levelized into the graph
  and downstream levels are raised along the forward cone only.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.eda.grid import bin_index, bin_indices
from repro.eda.library import DFF_CLK_TO_Q, DFF_HOLD, DFF_SETUP
from repro.eda.netlist import Netlist
from repro.eda.placement import Placement
from repro.eda.sta.policy import DelayPolicy
from repro.eda.sta.report import PI_SLEW, PO_LOAD, EndpointTiming, TimingReport

#: steps a report's worst-path walk takes at most (a guard against pred
#: cycles; levelized state has none)
_TRACE_LIMIT = 10_000


@dataclass
class StaStats:
    """Work accounting for one kernel (full vs incremental propagation)."""

    full_propagates: int = 0
    incremental_updates: int = 0
    nodes_propagated: int = 0  # nodes recomputed by incremental updates
    proxy_executed: float = 0.0  # runtime_proxy actually charged
    proxy_full_equivalent: float = 0.0  # what full re-runs would have cost

    @property
    def proxy_saved(self) -> float:
        """Work units avoided by propagating dirty cones instead of everything."""
        return max(0.0, self.proxy_full_equivalent - self.proxy_executed)

    def add(self, other: "StaStats") -> None:
        self.full_propagates += other.full_propagates
        self.incremental_updates += other.incremental_updates
        self.nodes_propagated += other.nodes_propagated
        self.proxy_executed += other.proxy_executed
        self.proxy_full_equivalent += other.proxy_full_equivalent

    def copy(self) -> "StaStats":
        return StaStats(
            self.full_propagates,
            self.incremental_updates,
            self.nodes_propagated,
            self.proxy_executed,
            self.proxy_full_equivalent,
        )


class _NetIndex:
    """Append-only net-name <-> row mapping shared by topology and state.

    Rows are never reassigned: a rebuild only appends names that are
    new since the last sync, so array state indexed by row stays valid
    across topology rebuilds and buffer splices.
    """

    __slots__ = ("ids", "names")

    def __init__(self):
        self.ids: Dict[str, int] = {}
        self.names: List[str] = []

    def __len__(self) -> int:
        return len(self.names)

    def sync(self, net_names: Iterable[str]) -> None:
        ids = self.ids
        names = self.names
        for name in net_names:
            if name not in ids:
                ids[name] = len(names)
                names.append(name)

    def add(self, name: str) -> int:
        row = self.ids.get(name)
        if row is None:
            row = len(self.names)
            self.ids[name] = row
            self.names.append(name)
        return row


class _NetValueMap:
    """``{net name: float}`` façade over a flat per-net value array.

    Implements the dict surface the per-node compute methods use
    (``get``/``[]``/``in``/iteration), with presence tracked in a
    boolean mask so absent keys behave exactly like missing dict
    entries; ``report()`` reads whole columns instead.  Rows come from
    a shared :class:`_NetIndex`; writes to nets spliced in after
    construction grow the backing arrays on demand.
    """

    __slots__ = ("_index", "values", "mask", "fill")

    def __init__(
        self,
        index: _NetIndex,
        fill: float = 0.0,
        values: Optional[np.ndarray] = None,
        mask: Optional[np.ndarray] = None,
    ):
        self._index = index
        self.fill = fill
        n = len(index)
        self.values = np.full(n, fill, dtype=float) if values is None else values
        self.mask = np.zeros(n, dtype=bool) if mask is None else mask

    def _grow(self) -> None:
        n = len(self._index)
        old = self.values.shape[0]
        size = max(n, 2 * old, 8)
        values = np.full(size, self.fill, dtype=float)
        values[:old] = self.values
        mask = np.zeros(size, dtype=bool)
        mask[:old] = self.mask[:old]
        self.values = values
        self.mask = mask

    def __getitem__(self, key: str) -> float:
        row = self._index.ids.get(key)
        if row is None or row >= self.values.shape[0] or not self.mask[row]:
            raise KeyError(key)
        return self.values.item(row)

    def get(self, key: str, default=None):
        row = self._index.ids.get(key)
        if row is None or row >= self.values.shape[0] or not self.mask[row]:
            return default
        return self.values.item(row)

    def __setitem__(self, key: str, value: float) -> None:
        row = self._index.add(key)
        if row >= self.values.shape[0]:
            self._grow()
        self.values[row] = value
        self.mask[row] = True

    def __delitem__(self, key: str) -> None:
        row = self._index.ids.get(key)
        if row is None or row >= self.values.shape[0] or not self.mask[row]:
            raise KeyError(key)
        self.mask[row] = False

    def __contains__(self, key: str) -> bool:
        row = self._index.ids.get(key)
        return row is not None and row < self.values.shape[0] and bool(self.mask[row])

    def __iter__(self) -> Iterator[str]:
        names = self._index.names
        for row in range(min(len(names), self.values.shape[0])):
            if self.mask[row]:
                yield names[row]

    def __len__(self) -> int:
        return int(self.mask.sum())

    def items(self):
        for key in self:
            yield key, self.values.item(self._index.ids[key])

    def column(self, n: int, default: float) -> np.ndarray:
        """Values of rows ``0..n-1``, ``default`` where a net is absent."""
        out = np.full(n, default)
        m = min(n, self.values.shape[0])
        present = self.mask[:m]
        out[:m][present] = self.values[:m][present]
        return out


class _NetPredMap:
    """``{net name: Optional[net name]}`` façade over a per-net int array.

    Row value ``-1`` encodes an explicit ``None`` entry (startpoints);
    presence is tracked separately in ``mask`` like :class:`_NetValueMap`.
    """

    __slots__ = ("_index", "rows", "mask")

    def __init__(
        self,
        index: _NetIndex,
        rows: Optional[np.ndarray] = None,
        mask: Optional[np.ndarray] = None,
    ):
        self._index = index
        n = len(index)
        self.rows = np.full(n, -1, dtype=np.int64) if rows is None else rows
        self.mask = np.zeros(n, dtype=bool) if mask is None else mask

    def _grow(self) -> None:
        n = len(self._index)
        old = self.rows.shape[0]
        size = max(n, 2 * old, 8)
        rows = np.full(size, -1, dtype=np.int64)
        rows[:old] = self.rows
        mask = np.zeros(size, dtype=bool)
        mask[:old] = self.mask[:old]
        self.rows = rows
        self.mask = mask

    def _decode(self, row: int) -> Optional[str]:
        value = self.rows.item(row)
        return None if value < 0 else self._index.names[value]

    def __getitem__(self, key: str) -> Optional[str]:
        row = self._index.ids.get(key)
        if row is None or row >= self.rows.shape[0] or not self.mask[row]:
            raise KeyError(key)
        return self._decode(row)

    def get(self, key: str, default=None):
        row = self._index.ids.get(key)
        if row is None or row >= self.rows.shape[0] or not self.mask[row]:
            return default
        return self._decode(row)

    def __setitem__(self, key: str, value: Optional[str]) -> None:
        row = self._index.add(key)
        if row >= self.rows.shape[0]:
            self._grow()
        self.rows[row] = -1 if value is None else self._index.add(value)
        self.mask[row] = True

    def __delitem__(self, key: str) -> None:
        row = self._index.ids.get(key)
        if row is None or row >= self.rows.shape[0] or not self.mask[row]:
            raise KeyError(key)
        self.mask[row] = False

    def __contains__(self, key: str) -> bool:
        row = self._index.ids.get(key)
        return row is not None and row < self.rows.shape[0] and bool(self.mask[row])

    def __iter__(self) -> Iterator[str]:
        names = self._index.names
        for row in range(min(len(names), self.rows.shape[0])):
            if self.mask[row]:
                yield names[row]

    def items(self) -> Iterator[Tuple[str, Optional[str]]]:
        names = self._index.names
        for row in range(min(len(names), self.rows.shape[0])):
            if self.mask[row]:
                yield names[row], self._decode(row)

    def __len__(self) -> int:
        return int(self.mask.sum())

    def column(self, n: int) -> np.ndarray:
        """Pred rows of rows ``0..n-1``: -1 where absent or ``None``."""
        out = np.full(n, -1, dtype=np.int64)
        m = min(n, self.rows.shape[0])
        present = self.mask[:m]
        out[:m][present] = self.rows[:m][present]
        return out


@dataclass
class _LevelSegment:
    """One level's slice of the level-sorted combinational node arrays."""

    lo: int  # node range [lo, hi) into the comb_* arrays
    hi: int
    elo: int  # edge range [elo, ehi) into fanin_src
    ehi: int
    rel_starts: np.ndarray  # reduceat starts, relative to elo (non-empty nodes)
    ne_offsets: np.ndarray  # node offsets (relative to lo) with >= 1 fanin edge
    ne_counts: np.ndarray  # fanin edge counts of those nodes


@dataclass
class _TopoSoA:
    """Struct-of-arrays view of one topology for the vectorized kernel.

    Everything here is *structural* — derived from connectivity and
    levels only — so it is rebuilt with the topology and shared by
    every corner/policy over the design.  Electrical values (cell
    attributes, net lengths, skews, congestion) are gathered per
    propagation because cell swaps don't bump ``structure_version``.
    """

    n_nets: int
    clock_row: int  # row of the clock net, or -1
    # load accumulation: one entry per (non-clock net, sink pin), in
    # net order then sink order — the accumulation order of the per-net
    # Python sum
    sink_net_rows: np.ndarray
    sink_inst_rows: np.ndarray
    po_rows: np.ndarray  # rows of primary-output nets
    net_driver_rows: np.ndarray  # driver instance position per net, -1 for PIs
    # per-net columns the report's path walk reads: the topology's net
    # lengths (0.0 for the clock), Netlist.net_fanout, and whether a
    # combinational instance drives the net (the walk continues)
    net_len: np.ndarray
    fanout: np.ndarray
    comb_driven: np.ndarray
    inst_names: np.ndarray  # instance names by netlist position (object)
    # sequential startpoints, in netlist instance order, and the rows of
    # their D nets (the setup endpoints)
    seq_inst_rows: np.ndarray
    seq_out_rows: np.ndarray
    seq_d_rows: np.ndarray
    seq_names: List[str]
    # combinational nodes, stably sorted by level; fanin CSR excludes
    # clock-net inputs but preserves each node's input-pin order
    comb_inst_rows: np.ndarray
    comb_out_rows: np.ndarray
    fanin_ptr: np.ndarray
    fanin_src: np.ndarray
    # global non-empty fanin segments (for arrival-independent merges)
    ne_node_offsets: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.intp))
    ne_starts: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.intp))
    ne_counts: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.intp))
    levels: List[_LevelSegment] = field(default_factory=list)

    @property
    def n_comb(self) -> int:
        return self.comb_out_rows.shape[0]

    @property
    def n_comb_edges(self) -> int:
        return self.fanin_src.shape[0]


class TimingTopology:
    """The structural view shared by every corner/policy over one design:
    topological order, levels, net lengths, and the struct-of-arrays
    index view the vectorized kernel consumes.  Building it is the
    part of STA that does *not* depend on the delay model, so MMMC
    analysis constructs it once and runs per-view policies over it."""

    def __init__(self, netlist: Netlist, placement: Placement):
        self.netlist = netlist
        self.placement = placement
        self.order: List[str] = []
        self.level: Dict[str, int] = {}
        self.net_len: Dict[str, float] = {}
        self.structure_version: int = -1
        self.net_index = _NetIndex()
        self._soa: Optional[_TopoSoA] = None
        self.rebuild()

    @property
    def stale(self) -> bool:
        return self.structure_version != self.netlist.structure_version

    def rebuild(self) -> None:
        netlist = self.netlist
        self.order = netlist.combinational_order()
        signal = [name for name in netlist.nets if name != netlist.clock_net]
        self.net_len = dict(zip(signal, self.placement.net_lengths(signal).tolist()))
        level: Dict[str, int] = {}
        for name in self.order:
            inst = netlist.instances[name]
            best = 0
            for net_name in inst.input_nets:
                driver = netlist.nets[net_name].driver
                if driver is not None and not netlist.instances[driver].cell.is_sequential:
                    best = max(best, level[driver])
            level[name] = best + 1
        self.level = level
        self.net_index.sync(netlist.nets)
        self._soa = None  # rebuilt lazily on the next vectorized query
        self.structure_version = netlist.structure_version

    @property
    def soa(self) -> _TopoSoA:
        """The struct-of-arrays view for the current structure (lazy)."""
        if self._soa is None:
            self._soa = self._build_soa()
        return self._soa

    def _build_soa(self) -> _TopoSoA:
        netlist = self.netlist
        ids = self.net_index.ids
        clock = netlist.clock_net
        n_nets = len(self.net_index)
        inst_pos = {name: i for i, name in enumerate(netlist.instances)}

        sink_net_rows: List[int] = []
        sink_inst_rows: List[int] = []
        net_driver_rows = np.full(n_nets, -1, dtype=np.intp)
        net_len = np.zeros(n_nets)
        fanout = np.zeros(n_nets, dtype=np.int64)
        comb_driven = np.zeros(n_nets, dtype=bool)
        for net_name, net in netlist.nets.items():
            row = ids[net_name]
            fanout[row] = len(net.sinks)
            if net.driver is not None:
                net_driver_rows[row] = inst_pos[net.driver]
                comb_driven[row] = not netlist.instances[net.driver].cell.is_sequential
            if net_name == clock:
                continue
            net_len[row] = self.net_len.get(net_name, 0.0)
            for sink_name, _pin in net.sinks:
                sink_net_rows.append(row)
                sink_inst_rows.append(inst_pos[sink_name])
        fanout[[ids[n] for n in netlist.primary_outputs]] += 1
        po_rows = np.array(
            [ids[n] for n in netlist.primary_outputs if n != clock], dtype=np.intp
        )

        seq_inst_rows: List[int] = []
        seq_out_rows: List[int] = []
        seq_d_rows: List[int] = []
        seq_names: List[str] = []
        for i, inst in enumerate(netlist.instances.values()):
            if inst.cell.is_sequential:
                seq_inst_rows.append(i)
                seq_out_rows.append(ids[inst.output_net])
                seq_d_rows.append(ids[inst.input_nets[0]])
                seq_names.append(inst.name)

        # combinational nodes, stably sorted by level so each level is
        # one contiguous slice; within a level the topological order is
        # preserved (irrelevant for values — every input of a level-L
        # node is produced below level L — but deterministic)
        order = self.order
        lv = np.array([self.level[name] for name in order], dtype=np.intp)
        perm = np.argsort(lv, kind="stable")
        comb_inst_rows = np.empty(len(order), dtype=np.intp)
        comb_out_rows = np.empty(len(order), dtype=np.intp)
        fanin_src: List[int] = []
        ptr = np.zeros(len(order) + 1, dtype=np.intp)
        for k, j in enumerate(perm):
            inst = netlist.instances[order[j]]
            comb_inst_rows[k] = inst_pos[inst.name]
            comb_out_rows[k] = ids[inst.output_net]
            for net_name in inst.input_nets:
                if net_name == clock:
                    continue
                fanin_src.append(ids[net_name])
            ptr[k + 1] = len(fanin_src)
        fanin_src_arr = np.array(fanin_src, dtype=np.intp)

        all_counts = ptr[1:] - ptr[:-1]
        all_nonempty = all_counts > 0

        levels: List[_LevelSegment] = []
        lv_sorted = lv[perm]
        bounds = [0] + list(np.nonzero(np.diff(lv_sorted))[0] + 1) + [len(order)]
        if len(order) == 0:
            bounds = [0, 0]
        for b in range(len(bounds) - 1):
            lo, hi = int(bounds[b]), int(bounds[b + 1])
            if lo == hi:
                continue
            counts = ptr[lo + 1 : hi + 1] - ptr[lo:hi]
            nonempty = counts > 0
            levels.append(
                _LevelSegment(
                    lo=lo,
                    hi=hi,
                    elo=int(ptr[lo]),
                    ehi=int(ptr[hi]),
                    rel_starts=(ptr[lo:hi][nonempty] - ptr[lo]).astype(np.intp),
                    ne_offsets=np.nonzero(nonempty)[0],
                    ne_counts=counts[nonempty],
                )
            )

        return _TopoSoA(
            n_nets=n_nets,
            clock_row=ids.get(clock, -1) if clock is not None else -1,
            sink_net_rows=np.array(sink_net_rows, dtype=np.intp),
            sink_inst_rows=np.array(sink_inst_rows, dtype=np.intp),
            po_rows=po_rows,
            net_driver_rows=net_driver_rows,
            net_len=net_len,
            fanout=fanout,
            comb_driven=comb_driven,
            inst_names=np.array(list(netlist.instances), dtype=object),
            seq_inst_rows=np.array(seq_inst_rows, dtype=np.intp),
            seq_out_rows=np.array(seq_out_rows, dtype=np.intp),
            seq_d_rows=np.array(seq_d_rows, dtype=np.intp),
            seq_names=seq_names,
            comb_inst_rows=comb_inst_rows,
            comb_out_rows=comb_out_rows,
            fanin_ptr=ptr,
            fanin_src=fanin_src_arr,
            ne_node_offsets=np.nonzero(all_nonempty)[0],
            ne_starts=ptr[:-1][all_nonempty].astype(np.intp),
            ne_counts=all_counts[all_nonempty],
            levels=levels,
        )


class TimingGraph:
    """Levelized arrival/slew state for one (netlist, placement, policy).

    ``full_propagate()`` computes every node exactly as the historical
    engines did, vectorized over struct-of-arrays state;
    ``update(changed)`` recomputes only the dirty cone, node by node;
    ``report(clock_period)`` materializes endpoint slacks and charges
    the policy's runtime proxy for the operations since the last query.
    """

    def __init__(
        self,
        netlist: Netlist,
        placement: Placement,
        policy: DelayPolicy,
        skews: Optional[Dict[str, float]] = None,
        congestion: Optional[np.ndarray] = None,
        check_hold: bool = False,
        topology: Optional[TimingTopology] = None,
    ):
        self.netlist = netlist
        self.placement = placement
        self.policy = policy
        self.skews = skews or {}
        self.congestion = congestion
        self.check_hold = check_hold
        if (
            topology is None
            or topology.netlist is not netlist
            or topology.placement is not placement
        ):
            topology = TimingTopology(netlist, placement)
        self.topology = topology
        self.stats = StaStats()
        # per-net propagation state: array-backed dict façades once
        # full_propagate() has run
        self._net_load: Dict[str, float] = {}
        self._arrival: Dict[str, float] = {}
        self._slew: Dict[str, float] = {}
        self._pred: Dict[str, Optional[str]] = {}
        self._arrival_min: Dict[str, float] = {}
        self._known: set = set()  # instance names levelized into the graph
        self._propagated = False
        self._ops_pending = 0  # propagation ops since the last report()
        self._full_ops = 0  # ops one from-scratch propagation costs today
        # cell-attribute registry for the vectorized gather; entries
        # hold the Cell object so a row can never alias a recycled id()
        self._cell_rows: Dict[int, Tuple[int, object]] = {}
        self._cell_data: List[Tuple[float, ...]] = []
        self._cell_matrix: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # per-node recomputation: these are the *only* places arrival/slew
    # values are produced by incremental update; the vectorized kernel
    # mirrors each expression with identical association order, which is
    # what makes bit-identity structural rather than coincidental.
    def _congestion_at(self, net_name: str) -> float:
        if self.congestion is None:
            return 0.0
        ny, nx = self.congestion.shape
        placement = self.placement
        fp = placement.floorplan
        net = placement.netlist.nets.get(net_name)
        if net is None or net.driver is None:
            return 0.0
        x, y = placement.positions[net.driver]
        i = bin_index(x, fp.width, nx)
        j = bin_index(y, fp.height, ny)
        return float(self.congestion[j, i])

    def _net_load_of(self, net_name: str) -> float:
        netlist = self.netlist
        instances = netlist.instances
        # an explicit left fold: the full pass's np.bincount order (the
        # builtin sum() is compensated from Python 3.12 on)
        load = 0.0
        for s, _ in netlist.nets[net_name].sinks:
            load += instances[s].cell.input_cap
        if net_name in netlist.primary_outputs:
            load += PO_LOAD
        load += (
            netlist.library.wire_c_per_um
            * self.topology.net_len[net_name]
            * self.policy.corner.wire_factor
        )
        return load

    def _compute_seq(self, inst) -> int:
        policy = self.policy
        out = inst.output_net
        launch = self.skews.get(inst.name, 0.0)
        q_delay = DFF_CLK_TO_Q * policy.corner.delay_factor * policy.stage_derate()
        load = self._net_load.get(out, 0.0)
        cell = inst.cell
        self._arrival[out] = (
            launch + q_delay + cell.drive_resistance * load * policy.corner.delay_factor
        )
        self._slew[out] = cell.output_slew(load)
        self._pred[out] = None
        return 1

    def _compute_comb(self, inst) -> int:
        policy = self.policy
        netlist = self.netlist
        lib = netlist.library
        net_len = self.topology.net_len
        out = inst.output_net
        load = self._net_load.get(out, 0.0)
        cell = inst.cell
        best_arr = -np.inf
        best_net = None
        in_slews = []
        ops = 0
        for net_name in inst.input_nets:
            if net_name == netlist.clock_net:
                continue
            a_in = self._arrival.get(net_name, 0.0)
            s_in = self._slew.get(net_name, PI_SLEW)
            in_slews.append(s_in)
            w_delay = policy.wire_delay(net_len.get(net_name, 0.0), cell.input_cap, lib)
            w_delay += policy.si_bump(
                net_len.get(net_name, 0.0), self._congestion_at(net_name)
            )
            cand = a_in + w_delay
            ops += 1
            if cand > best_arr:
                best_arr = cand
                best_net = net_name
        s_in = policy.merge_slew(in_slews) if in_slews else PI_SLEW
        gate_delay = cell.delay(load, s_in) * policy.corner.delay_factor * policy.stage_derate()
        self._arrival[out] = best_arr + gate_delay
        self._slew[out] = cell.output_slew(load)
        self._pred[out] = best_net
        return ops

    def _compute_seq_min(self, inst) -> None:
        policy = self.policy
        out = inst.output_net
        launch = self.skews.get(inst.name, 0.0)
        load = self._net_load.get(out, 0.0)
        self._arrival_min[out] = (
            launch
            + (DFF_CLK_TO_Q + inst.cell.drive_resistance * load)
            * policy.corner.delay_factor
            * policy.early_derate()
        )

    def _compute_comb_min(self, inst) -> int:
        policy = self.policy
        netlist = self.netlist
        lib = netlist.library
        net_len = self.topology.net_len
        early = policy.early_derate()
        out = inst.output_net
        load = self._net_load.get(out, 0.0)
        cell = inst.cell
        fastest = np.inf
        for net_name in inst.input_nets:
            if net_name == netlist.clock_net:
                continue
            a_in = self._arrival_min.get(net_name, 0.0)
            w_delay = policy.wire_delay(net_len.get(net_name, 0.0), cell.input_cap, lib)
            fastest = min(fastest, a_in + w_delay * early)
        if np.isinf(fastest):
            fastest = 0.0
        gate_delay = cell.delay(load, PI_SLEW) * policy.corner.delay_factor * early
        self._arrival_min[out] = fastest + gate_delay
        return 1

    def _node_state(self, out_net: str) -> Tuple:
        return (
            self._arrival.get(out_net),
            self._slew.get(out_net),
            self._arrival_min.get(out_net),
        )

    # ------------------------------------------------------------------
    def full_propagate(self) -> int:
        """Propagate every node from scratch; returns propagation ops.

        Computes nets, startpoints and combinational instances with
        exactly the historical ``analyze`` float expressions.  Also
        (re)builds the topology if the netlist's ``structure_version``
        moved since it was built.
        """
        if self.topology.stale:
            self.topology.rebuild()
        ops = self._propagate_vectorized()
        self._known = set(self.netlist.instances)
        self._propagated = True
        self._full_ops = ops
        self._ops_pending = ops
        self.stats.full_propagates += 1
        return ops

    # ------------------------------------------------------------------
    # vectorized full propagation
    def _cell_columns(self) -> Tuple[np.ndarray, ...]:
        """Per-instance cell attribute columns, gathered fresh each
        propagation (cell swaps don't bump ``structure_version``, so
        attributes can never be cached structurally)."""
        netlist = self.netlist
        rows_by_id = self._cell_rows
        data = self._cell_data
        rows = np.empty(len(netlist.instances), dtype=np.intp)
        dirty = False
        for i, inst in enumerate(netlist.instances.values()):
            cell = inst.cell
            entry = rows_by_id.get(id(cell))
            # the identity check guards copied graphs (stage-cache
            # snapshots are pickled): a copied registry keeps the
            # original objects' ids as keys, and a new cell may be
            # allocated at one of those addresses
            if entry is not None and entry[1] is not cell:
                entry = None
            if entry is None:
                row = len(data)
                data.append(
                    (
                        cell.input_cap,
                        cell.intrinsic_delay,
                        cell.drive_resistance,
                        cell.slew_sensitivity,
                        cell.slew_intrinsic,
                        cell.slew_resistance,
                    )
                )
                rows_by_id[id(cell)] = (row, cell)
                dirty = True
            else:
                row = entry[0]
            rows[i] = row
        if dirty or self._cell_matrix is None:
            self._cell_matrix = np.array(data, dtype=float)
        m = self._cell_matrix[rows]
        return m[:, 0], m[:, 1], m[:, 2], m[:, 3], m[:, 4], m[:, 5]

    def _net_congestion(self, soa: _TopoSoA) -> Optional[np.ndarray]:
        """Per-net congestion under each net's driver, or None if no map."""
        if self.congestion is None:
            return None
        ny, nx = self.congestion.shape
        placement = self.placement
        fp = placement.floorplan
        positions = placement.positions
        n_inst = len(self.netlist.instances)
        xs = np.empty(n_inst)
        ys = np.empty(n_inst)
        for i, name in enumerate(self.netlist.instances):
            xs[i], ys[i] = positions[name]
        gi = bin_indices(xs, fp.width, nx)
        gj = bin_indices(ys, fp.height, ny)
        inst_cong = np.asarray(self.congestion, dtype=float)[gj, gi]
        cong = np.zeros(soa.n_nets)
        driven = soa.net_driver_rows >= 0
        cong[driven] = inst_cong[soa.net_driver_rows[driven]]
        return cong

    def _propagate_vectorized(self) -> int:
        netlist = self.netlist
        topo = self.topology
        policy = self.policy
        lib = netlist.library
        soa = topo.soa
        index = topo.net_index
        n_nets = soa.n_nets
        df = policy.corner.delay_factor
        wf = policy.corner.wire_factor

        cap, intr, dres, ssens, sintr, sres = self._cell_columns()
        net_len = soa.net_len
        launch = np.fromiter(
            (self.skews.get(name, 0.0) for name in soa.seq_names),
            dtype=float,
            count=len(soa.seq_names),
        )

        # net loads: sequential bincount accumulation == the per-node
        # left-to-right Python sum over each net's sinks, then PO pin
        # load, then the wire term — same order, same expressions
        loads = np.bincount(
            soa.sink_net_rows,
            weights=cap[soa.sink_inst_rows],
            minlength=n_nets,
        )
        loads[soa.po_rows] += PO_LOAD
        loads = loads + lib.wire_c_per_um * net_len * wf

        # slews are arrival-independent: PI_SLEW at startpoint inputs,
        # cell.output_slew(load) at every instance output
        slew = np.full(n_nets, PI_SLEW)
        seq_loads = loads[soa.seq_out_rows]
        slew[soa.seq_out_rows] = sintr[soa.seq_inst_rows] + sres[soa.seq_inst_rows] * seq_loads
        ci = soa.comb_inst_rows
        comb_loads = loads[soa.comb_out_rows]
        slew[soa.comb_out_rows] = sintr[ci] + sres[ci] * comb_loads

        # launch arrivals at sequential outputs
        arrival = np.zeros(n_nets)
        pred = np.full(n_nets, -1, dtype=np.int64)
        q_delay = DFF_CLK_TO_Q * df * policy.stage_derate()
        arrival[soa.seq_out_rows] = (
            launch + q_delay + dres[soa.seq_inst_rows] * seq_loads * df
        )

        # per-edge wire + SI delay (arrival-independent): the load seen
        # by the wire is the receiving pin's input cap
        e_src = soa.fanin_src
        fanin_counts = soa.fanin_ptr[1:] - soa.fanin_ptr[:-1]
        e_cap = np.repeat(cap[ci], fanin_counts)
        e_len = net_len[e_src]
        e_wire_pure = policy.wire_delay_batch(e_len, e_cap, lib)
        cong = self._net_congestion(soa)
        e_cong = np.zeros(e_src.shape[0]) if cong is None else cong[e_src]
        e_wire = e_wire_pure + policy.si_bump_batch(e_len, e_cong)

        # merged input slews and gate delays per comb node (global):
        # nodes with no non-clock fanin fall back to PI_SLEW
        merged = np.full(soa.n_comb, PI_SLEW)
        if soa.ne_starts.size:
            merged[soa.ne_node_offsets] = policy.merge_slew_batch(
                slew[e_src], soa.ne_starts, soa.ne_counts
            )
        gate = (intr[ci] + dres[ci] * comb_loads + ssens[ci] * merged) * df * policy.stage_derate()

        # level-by-level late-arrival propagation
        for seg in soa.levels:
            n_lv = seg.hi - seg.lo
            best = np.full(n_lv, -np.inf)
            pred_lv = np.full(n_lv, -1, dtype=np.int64)
            if seg.rel_starts.size:
                src_lv = e_src[seg.elo : seg.ehi]
                cand = arrival[src_lv] + e_wire[seg.elo : seg.ehi]
                seg_max = np.maximum.reduceat(cand, seg.rel_starts)
                best[seg.ne_offsets] = seg_max
                # first input achieving the max == the per-node strict-">"
                # left-to-right winner
                rep = np.repeat(seg_max, seg.ne_counts)
                positions = np.arange(cand.shape[0])
                masked = np.where(cand == rep, positions, cand.shape[0])
                first = np.minimum.reduceat(masked, seg.rel_starts)
                winners = np.where(seg_max > -np.inf, src_lv[first], -1)
                pred_lv[seg.ne_offsets] = winners
            out_lv = soa.comb_out_rows[seg.lo : seg.hi]
            arrival[out_lv] = best + gate[seg.lo : seg.hi]
            pred[out_lv] = pred_lv

        ops = len(soa.seq_names) + soa.n_comb_edges

        arrival_min: Optional[np.ndarray] = None
        if self.check_hold:
            early = policy.early_derate()
            arrival_min = np.zeros(n_nets)
            arrival_min[soa.seq_out_rows] = (
                launch + (DFF_CLK_TO_Q + dres[soa.seq_inst_rows] * seq_loads) * df * early
            )
            e_hold = e_wire_pure * early
            gate_min = (intr[ci] + dres[ci] * comb_loads + ssens[ci] * PI_SLEW) * df * early
            for seg in soa.levels:
                n_lv = seg.hi - seg.lo
                fastest = np.full(n_lv, np.inf)
                if seg.rel_starts.size:
                    src_lv = e_src[seg.elo : seg.ehi]
                    cand = arrival_min[src_lv] + e_hold[seg.elo : seg.ehi]
                    fastest[seg.ne_offsets] = np.minimum.reduceat(cand, seg.rel_starts)
                fastest = np.where(np.isinf(fastest), 0.0, fastest)
                out_lv = soa.comb_out_rows[seg.lo : seg.hi]
                arrival_min[out_lv] = fastest + gate_min[seg.lo : seg.hi]
            ops += soa.n_comb

        # publish array state behind the dict façades; presence matches
        # the historical engine's dicts exactly (every non-clock net —
        # each net is a primary input or an instance output)
        mask = np.ones(n_nets, dtype=bool)
        if soa.clock_row >= 0:
            mask[soa.clock_row] = False
        self._net_load = _NetValueMap(index, values=loads, mask=mask.copy())
        self._arrival = _NetValueMap(index, values=arrival, mask=mask.copy())
        self._slew = _NetValueMap(index, fill=PI_SLEW, values=slew, mask=mask.copy())
        self._pred = _NetPredMap(index, rows=pred, mask=mask.copy())
        if arrival_min is not None:
            self._arrival_min = _NetValueMap(index, values=arrival_min, mask=mask.copy())
        else:
            self._arrival_min = _NetValueMap(index)
        return ops

    # ------------------------------------------------------------------
    def _levelize_new(self, new_names: List[str]) -> None:
        """Levelize instances spliced in since the last propagation and
        raise downstream levels along their forward cones."""
        netlist = self.netlist
        level = self.topology.level
        pending = list(new_names)
        while pending:
            progressed = []
            stuck = []
            for name in pending:
                inst = netlist.instances[name]
                if inst.cell.is_sequential:
                    progressed.append(name)
                    continue
                best = 0
                ok = True
                for net_name in inst.input_nets:
                    if net_name == netlist.clock_net:
                        continue
                    driver = netlist.nets[net_name].driver
                    if driver is None or netlist.instances[driver].cell.is_sequential:
                        continue
                    if driver not in level:
                        ok = False
                        break
                    best = max(best, level[driver])
                if not ok:
                    stuck.append(name)
                    continue
                level[name] = best + 1
                progressed.append(name)
            if not progressed:
                raise RuntimeError(
                    f"cannot levelize new instances {stuck}: "
                    "combinational cycle or dangling driver"
                )
            pending = stuck
        # raise levels forward so the worklist heap stays topological
        queue = [n for n in new_names if n in level]
        while queue:
            name = queue.pop(0)
            base = level[name]
            out = netlist.instances[name].output_net
            for sink_name, _ in netlist.nets[out].sinks:
                sink = netlist.instances[sink_name]
                if sink.cell.is_sequential:
                    continue
                if level[sink_name] <= base:
                    level[sink_name] = base + 1
                    queue.append(sink_name)

    def update(self, changed: Iterable[str]) -> int:
        """Re-propagate the forward cones of ``changed`` instances.

        ``changed`` names instances whose cell was swapped
        (``replace_cell``) or that were newly spliced in
        (``insert_buffer``).  Returns the number of nodes recomputed;
        the corresponding ops are charged to the next ``report()``.
        Propagation of a cone stops at nodes whose recomputed
        ``(arrival, slew)`` state is bitwise unchanged.
        """
        if not self._propagated:
            raise RuntimeError("full_propagate() must run before update()")
        netlist = self.netlist
        names = sorted(set(changed))
        new_names = [n for n in names if n not in self._known]
        if new_names:
            self._levelize_new(new_names)

        # dirty sets as insertion-ordered dicts (deterministic iteration)
        dirty_nets: Dict[str, None] = {}
        dirty_seq: Dict[str, None] = {}
        dirty_comb: Dict[str, None] = {}

        def mark(inst_name: str) -> None:
            if netlist.instances[inst_name].cell.is_sequential:
                dirty_seq[inst_name] = None
            else:
                dirty_comb[inst_name] = None

        for name in names:
            inst = netlist.instances[name]
            mark(name)
            if name in self._known:
                # cell swap: input caps changed -> predecessor loads change
                for net_name in inst.input_nets:
                    if net_name == netlist.clock_net:
                        continue
                    dirty_nets[net_name] = None
                    driver = netlist.nets[net_name].driver
                    if driver is not None:
                        mark(driver)
            else:
                # splice: connected nets change length *and* load, which
                # moves every sink's input wire delay
                touched = [
                    n for n in inst.input_nets if n != netlist.clock_net
                ] + [inst.output_net]
                for net_name in touched:
                    self.topology.net_len[net_name] = self.placement.net_length(net_name)
                    dirty_nets[net_name] = None
                    net = netlist.nets[net_name]
                    if net.driver is not None:
                        mark(net.driver)
                    for sink_name, _ in net.sinks:
                        if not netlist.instances[sink_name].cell.is_sequential:
                            mark(sink_name)
                self._known.add(name)
                # keep the full-run cost model current: a from-scratch
                # propagation now also visits this instance
                if inst.cell.is_sequential:
                    self._full_ops += 1
                else:
                    self._full_ops += sum(
                        1 for n in inst.input_nets if n != netlist.clock_net
                    )
                    if self.check_hold:
                        self._full_ops += 1

        for net_name in dirty_nets:
            self._net_load[net_name] = self._net_load_of(net_name)

        level = self.topology.level
        ops = 0
        nodes = 0
        heap: List[Tuple[int, str]] = []
        scheduled = set()
        processed = set()

        def schedule(inst_name: str) -> None:
            if inst_name in scheduled or inst_name in processed:
                return
            scheduled.add(inst_name)
            heapq.heappush(heap, (level[inst_name], inst_name))

        def fanout_changed(out_net: str) -> None:
            for sink_name, _ in netlist.nets[out_net].sinks:
                if not netlist.instances[sink_name].cell.is_sequential:
                    schedule(sink_name)

        for name in dirty_seq:
            inst = netlist.instances[name]
            before = self._node_state(inst.output_net)
            ops += self._compute_seq(inst)
            if self.check_hold:
                self._compute_seq_min(inst)
            nodes += 1
            if self._node_state(inst.output_net) != before:
                fanout_changed(inst.output_net)

        for name in dirty_comb:
            schedule(name)
        while heap:
            _, name = heapq.heappop(heap)
            scheduled.discard(name)
            processed.add(name)
            inst = netlist.instances[name]
            before = self._node_state(inst.output_net)
            ops += self._compute_comb(inst)
            if self.check_hold:
                ops += self._compute_comb_min(inst)
            nodes += 1
            if self._node_state(inst.output_net) != before:
                fanout_changed(inst.output_net)

        self._ops_pending += ops
        self.stats.incremental_updates += 1
        self.stats.nodes_propagated += nodes
        return nodes

    # ------------------------------------------------------------------
    def report(self, clock_period: float) -> TimingReport:
        """Materialize endpoint slacks from the current propagation state.

        Charges the policy's runtime proxy for the propagation ops
        accumulated since the last report plus the per-endpoint work,
        then lets the policy post-process (PBA).  Reads the propagated
        state as per-net columns and walks every endpoint's worst path
        at once; a topology left stale by buffer splices is rebuilt
        first, as :meth:`full_propagate` does.
        """
        if clock_period <= 0:
            raise ValueError("clock period must be positive")
        if not self._propagated:
            raise RuntimeError("full_propagate() must run before report()")
        if self.topology.stale:
            self.topology.rebuild()
        netlist = self.netlist
        lib = netlist.library
        policy = self.policy
        corner = policy.corner
        soa = self.topology.soa
        ids = self.topology.net_index.ids
        n_nets = soa.n_nets
        arrival = self._arrival.column(n_nets, 0.0)
        slew = self._slew.column(n_nets, PI_SLEW)

        # endpoints: DFF D inputs in netlist order, then primary outputs
        d_rows = soa.seq_d_rows
        po_names = list(netlist.primary_outputs)
        ep_rows = np.concatenate(
            (d_rows, np.array([ids[po] for po in po_names], dtype=np.intp))
        )
        depth, wire_total, fan_max, paths = self._trace(soa, ep_rows)

        d_len = soa.net_len[d_rows]
        w_delay = policy.wire_delay_batch(
            d_len,
            np.array([netlist.instances[name].cell.input_cap for name in soa.seq_names]),
            lib,
        )
        cong = self._net_congestion(soa)
        d_cong = np.zeros(d_rows.shape[0]) if cong is None else cong[d_rows]
        setup_arrival = arrival[d_rows] + (w_delay + policy.si_bump_batch(d_len, d_cong))
        capture = np.array([self.skews.get(name, 0.0) for name in soa.seq_names])
        setup_required = clock_period + capture - DFF_SETUP * corner.delay_factor
        if self.check_hold:
            a_min = self._arrival_min.column(n_nets, 0.0)[d_rows]
            hold_required = capture + DFF_HOLD * corner.delay_factor
            hold_slack = (a_min + w_delay * policy.early_derate()) - hold_required
        else:
            hold_slack = np.full(d_rows.shape[0], np.inf)

        n_setup = d_rows.shape[0]
        n_po = len(po_names)
        arr = np.concatenate((setup_arrival, arrival[ep_rows[n_setup:]]))
        required = np.concatenate((setup_required, np.full(n_po, clock_period)))
        # one column per EndpointTiming field, in field order
        fields = zip(
            [f"{name}/D" for name in soa.seq_names] + [f"{po}/PO" for po in po_names],
            ["setup"] * n_setup + ["output"] * n_po,
            arr.tolist(),
            setup_required.tolist() + [clock_period] * n_po,
            (required - arr).tolist(),
            depth.tolist(),
            wire_total.tolist(),
            (arr - wire_total).tolist(),
            fan_max.tolist(),
            slew[ep_rows].tolist(),
            hold_slack.tolist() + [float("inf")] * n_po,
        )
        report = TimingReport(
            engine=policy.engine_name, corner=corner.name, clock_period=clock_period
        )
        for values, path in zip(fields, paths):
            ep = EndpointTiming(*values)
            report.endpoints[ep.endpoint] = ep
            report.paths[ep.endpoint] = path
        ops = self._ops_pending + 2 * (n_setup + n_po)

        report.runtime_proxy = policy.runtime_proxy(ops)
        report = policy.finalize_report(report)

        endpoint_ops = 2 * len(report.endpoints)
        self.stats.proxy_executed += report.runtime_proxy
        self.stats.proxy_full_equivalent += policy.full_runtime_proxy(
            self._full_ops + endpoint_ops
        )
        self._ops_pending = 0
        return report

    def _trace(
        self, soa: _TopoSoA, ep_rows: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, List[List[str]]]:
        """Walk every endpoint's worst path backwards at once.

        Per endpoint: path depth, wire delay, max fanout and the
        instances on the path.  One step visits a net (fanout, wire
        delay ``net_len * wire_r``, added in walk order) and stops at a
        primary input or a flop output; otherwise it records the
        driver and moves to the driver's worst input net (``pred``).
        """
        pred = self._pred.column(soa.n_nets)
        wire_r = self.netlist.library.wire_r_per_um
        n_ep = ep_rows.shape[0]
        depth = np.zeros(n_ep, dtype=np.int64)
        wire = np.zeros(n_ep)
        fan = np.zeros(n_ep, dtype=np.int64)
        hop_eps: List[np.ndarray] = []
        hop_insts: List[np.ndarray] = []
        live = np.arange(n_ep)
        cur = ep_rows
        for _ in range(_TRACE_LIMIT):
            if live.shape[0] == 0:
                break
            fan[live] = np.maximum(fan[live], soa.fanout[cur])
            wire[live] = wire[live] + soa.net_len[cur] * wire_r
            on = soa.comb_driven[cur]
            live = live[on]
            cur = cur[on]
            hop_eps.append(live)
            hop_insts.append(soa.net_driver_rows[cur])
            depth[live] += 1
            cur = pred[cur]
            keep = cur >= 0
            live = live[keep]
            cur = cur[keep]
        if hop_eps:
            eps = np.concatenate(hop_eps)
            insts = np.concatenate(hop_insts)[np.argsort(eps, kind="stable")]
            flat = soa.inst_names[insts].tolist()
        else:
            flat = []
        ends = np.cumsum(depth).tolist()
        paths = [flat[end - d:end] for end, d in zip(ends, depth.tolist())]
        return depth, wire, fan, paths
