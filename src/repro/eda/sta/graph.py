"""The STA kernel: a levelized timing graph over a netlist.

:class:`TimingGraph` is the artifact the rest of the substrate queries
for timing.  It is constructed once from (netlist, placement,
congestion) plus a timer (its delay policy), propagates arrivals with
:meth:`TimingGraph.full_propagate`, and then answers *edits* with
:meth:`TimingGraph.update`, which re-propagates only the forward
fanout cones (and predecessor load deltas) of the touched instances.
``runtime_proxy`` is charged by the nodes actually propagated, so the
Fig-8 cost axis stays honest while an optimizer loop queries timing
incrementally.

Both entry points run one level-synchronous kernel over a
struct-of-arrays view of the topology (:class:`_TopoSoA` — per-net
rows, a CSR of combinational fanin edges sorted by level, sink
segments for load accumulation).  Per-net state is five plain arrays
indexed by net row: load, late arrival, slew, worst predecessor and
early arrival.  ``full_propagate`` computes every node; ``update``
computes the nodes it seeds plus, level by level, every
combinational node one of whose fanin nets moved.  ``report`` reads
the same arrays and walks every endpoint's worst path at once over the
``pred`` array.

Bit-identity with the historical full-run engines is a hard contract
(enforced against ``tests/eda/sta_reference.py``, which also keeps the
per-node kernel this one replaced as the oracle for per-net state and
for the incremental work accounting): every value is computed by the
*same float expressions in the same order* as the frozen engines'
``analyze``.  The kernel keeps that contract because

- sums go through ``np.bincount``, which accumulates strictly left to
  right (no pairwise summation), matching the per-node loops over each
  net's sinks and each node's inputs; ``np.add.reduceat`` would not
  (it returns ``a[s] + (a[s+1] + ...)``), so only the exact
  ``np.maximum``/``np.minimum.reduceat`` reduce segments;
- elementwise expressions keep the per-node association order, so each
  float operation is the identical IEEE-754 operation;
- level-by-level evaluation is equivalent to topological-order
  evaluation (every input of a level-L node is produced at a lower
  level, by a sequential output, or at a primary input).

An update stops propagating exactly where a recomputed node's
``(arrival, slew, early arrival)`` is bitwise unchanged: recomputing a
node whose inputs are bitwise identical reproduces its old value, so
pruned cones cannot diverge from a from-scratch run.  The
arrival-independent columns (loads, slews, wire delays, merged slews,
gate delays) are recomputed for the whole graph from per-instance cell
attributes the graph keeps: a full propagation looks every instance's
cell up, an update only the instances it names and the ones spliced in
since, so the cell columns depend on the rules below naming every
swapped instance.  Outside the dirty set the columns equal the stored
values bit for bit.  Each net's driver congestion is binned once per
topology view, since placement positions are fixed while a topology
lives (its net lengths assume the same); the startpoints' clock skews
are gathered once per view too, since a graph's skews are fixed for its
life.

Invalidation rules (see docs/substrate.md for the narrative version):

- **cell swap** (``replace_cell``): dirty = the instance itself plus
  the drivers of its input nets (their output load changed through the
  new input capacitance).  Net lengths are untouched.  Every swapped
  instance must be named to ``update``, which re-reads the cells of
  only the instances it is given and those spliced in since the last
  propagation.
- **buffer splice** (``insert_buffer``): the nets the buffer touches
  change length and load, so dirty = the new buffer, the drivers of
  those nets and *all* of their combinational readers (their input
  wire delays see the new lengths).  ``update`` first rebuilds the
  stale topology, which levelizes the buffer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.eda.grid import bin_indices
from repro.eda.library import DFF_CLK_TO_Q, DFF_HOLD, DFF_SETUP
from repro.eda.netlist import Instance, Netlist
from repro.eda.placement import Placement
from repro.eda.sta.report import PI_SLEW, PO_LOAD, EndpointTiming, TimingReport

if TYPE_CHECKING:  # policy.py builds graphs, so it imports this module
    from repro.eda.sta.policy import DelayPolicy

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
    every corner/policy over the design.  Cell attributes are gathered
    per propagation because cell swaps don't bump
    ``structure_version``; skews and congestion, fixed while a topology
    lives, are gathered by the graph once per view.
    """

    n_nets: int
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


def _pad(column: np.ndarray, n: int, fill) -> np.ndarray:
    """``column`` extended to ``n`` rows with ``fill``."""
    if column.shape[0] >= n:
        return column
    tail = np.full(n - column.shape[0], fill, dtype=column.dtype)
    return np.concatenate((column, tail))


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
    engines did; ``update(changed)`` recomputes only the dirty cone with
    the same level-synchronous kernel; ``report(clock_period)``
    materializes endpoint slacks and charges the policy's runtime proxy
    for the operations since the last query.  ``skews`` (flop name to
    clock arrival offset) are fixed for the graph's life: the per-flop
    column is gathered once per topology view.
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
        # per-net propagation state, indexed by net row.  A row the
        # kernel has not computed (the clock, a net spliced in since the
        # last propagation) holds the fill value 0.0, PI_SLEW or -1.
        self._load = np.zeros(0)
        self._arrival = np.zeros(0)
        self._slew = np.zeros(0)
        self._pred = np.zeros(0, dtype=np.int64)  # worst input net row, -1 if none
        self._arrival_min = np.zeros(0)  # early arrivals (hold)
        # instances at positions below this were in the netlist at the
        # last propagation; update() treats the others as splices
        self._n_known = 0
        self._propagated = False
        self._ops_pending = 0  # propagation ops since the last report()
        # cell-attribute registry for the vectorized gather; entries
        # hold the Cell object so a row can never alias a recycled id()
        self._cell_rows: Dict[int, Tuple[int, object]] = {}
        self._cell_data: List[Tuple[float, ...]] = []
        self._cell_matrix: Optional[np.ndarray] = None
        # each instance's registry row, by netlist position
        self._inst_cells = np.zeros(0, dtype=np.intp)
        # per-net driver congestion and the topology view it belongs to
        self._net_cong: Optional[np.ndarray] = None
        self._net_cong_soa: Optional[_TopoSoA] = None
        # per-startpoint clock skews and the topology view they belong to
        self._seq_skews = np.zeros(0)
        self._seq_skews_soa: Optional[_TopoSoA] = None

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
        n_nets = self.topology.soa.n_nets
        self._arrival = np.zeros(n_nets)
        self._pred = np.full(n_nets, -1, dtype=np.int64)
        self._arrival_min = np.zeros(n_nets)
        ops, _ = self._propagate(enumerate(self.netlist.instances.values()))
        self._n_known = len(self.netlist.instances)
        self._propagated = True
        self._ops_pending = ops
        self.stats.full_propagates += 1
        return ops

    def update(self, changed: Iterable[str]) -> int:
        """Re-propagate the forward cones of ``changed`` instances.

        ``changed`` names instances whose cell was swapped
        (``replace_cell``) or that were newly spliced in
        (``insert_buffer``); it must name every swapped instance, since
        only the named and the spliced instances have their cells read
        again.  Returns the number of nodes recomputed;
        the corresponding ops are charged to the next ``report()``.
        Propagation of a cone stops at nodes whose recomputed
        ``(arrival, slew, early arrival)`` state is bitwise unchanged.
        """
        if not self._propagated:
            raise RuntimeError("full_propagate() must run before update()")
        soa = self._sync()
        netlist = self.netlist
        ids = self.topology.net_index.ids
        clock = netlist.clock_net
        drivers = soa.net_driver_rows
        instances = netlist.instances
        seeded = np.zeros(len(instances), dtype=bool)
        moved = np.zeros(soa.n_nets, dtype=bool)
        # the cells to re-read: every spliced instance and every named one
        refresh = [(pos, instances[name]) for pos, name in enumerate(
            soa.inst_names[self._n_known:].tolist(), self._n_known)]
        for name in changed:
            inst = instances[name]
            out = ids[inst.output_net]
            refresh.append((drivers[out], inst))
            rows = [ids[n] for n in inst.input_nets if n != clock]
            if drivers[out] >= self._n_known:
                # splice: the nets it touches change length and load,
                # which moves every combinational reader's wire delay
                rows.append(out)
                moved[rows] = True
            seeded[drivers[out]] = True
            # the drivers of its input nets see a new load
            row_drivers = drivers[rows]
            seeded[row_drivers[row_drivers >= 0]] = True
        ops, nodes = self._propagate(refresh, seeded, moved)
        self._n_known = len(instances)
        self._ops_pending += ops
        self.stats.incremental_updates += 1
        self.stats.nodes_propagated += nodes
        return nodes

    def _sync(self) -> _TopoSoA:
        """Rebuild a topology left stale by buffer splices and give the
        net rows added since the last propagation their fill values."""
        if self.topology.stale:
            self.topology.rebuild()
        soa = self.topology.soa
        n = soa.n_nets
        self._load = _pad(self._load, n, 0.0)
        self._arrival = _pad(self._arrival, n, 0.0)
        self._slew = _pad(self._slew, n, PI_SLEW)
        self._pred = _pad(self._pred, n, -1)
        self._arrival_min = _pad(self._arrival_min, n, 0.0)
        return soa

    # ------------------------------------------------------------------
    def _cell_columns(
        self, refresh: Iterable[Tuple[int, Instance]]
    ) -> Tuple[np.ndarray, ...]:
        """Per-instance cell attribute columns, by netlist position.

        Each instance's registry row is kept across propagations; only
        the ``(position, instance)`` pairs in ``refresh`` have their
        cell looked up again — every instance on a full propagation, the
        named and the spliced ones on an update.  Cell swaps don't bump
        ``structure_version``, so an update's columns are current only
        because every swapped instance must be named to it."""
        rows_by_id = self._cell_rows
        data = self._cell_data
        n_cells = len(data)
        positions: List[int] = []
        cell_rows: List[int] = []
        for i, inst in refresh:
            cell = inst.cell
            entry = rows_by_id.get(id(cell))
            # the identity check guards copied graphs (stage-cache
            # snapshots are pickled): a copied registry keeps the
            # original objects' ids as keys, and a new cell may be
            # allocated at one of those addresses
            if entry is None or entry[1] is not cell:
                entry = (len(data), cell)
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
                rows_by_id[id(cell)] = entry
            positions.append(i)
            cell_rows.append(entry[0])
        rows = _pad(self._inst_cells, len(self.netlist.instances), 0)
        rows[positions] = cell_rows
        self._inst_cells = rows
        if len(data) > n_cells or self._cell_matrix is None:
            self._cell_matrix = np.array(data, dtype=float)
        m = self._cell_matrix[rows]
        return m[:, 0], m[:, 1], m[:, 2], m[:, 3], m[:, 4], m[:, 5]

    def _net_congestion(self, soa: _TopoSoA) -> Optional[np.ndarray]:
        """Per-net congestion under each net's driver, or None if no map.

        Binned once per topology view: placement positions are fixed
        while a topology lives, as its net lengths assume."""
        if self.congestion is None:
            return None
        if self._net_cong_soa is soa:
            return self._net_cong
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
        self._net_cong, self._net_cong_soa = cong, soa
        return cong

    def _skew_column(self, soa: _TopoSoA) -> np.ndarray:
        """Clock skew per startpoint, in ``soa.seq_names`` order.

        Gathered once per topology view: skews are fixed for the
        graph's life."""
        if self._seq_skews_soa is not soa:
            self._seq_skews = np.fromiter(
                (self.skews.get(name, 0.0) for name in soa.seq_names),
                dtype=float,
                count=len(soa.seq_names),
            )
            self._seq_skews_soa = soa
        return self._seq_skews

    def _propagate(
        self,
        refresh: Iterable[Tuple[int, Instance]],
        seeded: Optional[np.ndarray] = None,
        moved: Optional[np.ndarray] = None,
    ) -> Tuple[int, int]:
        """The level-synchronous kernel behind both entry points.

        ``refresh`` holds the instances whose cells are read again (see
        :meth:`_cell_columns`).  Without ``seeded`` every node is
        computed (a full pass).  Otherwise ``seeded`` flags instances
        by netlist position and
        ``moved`` flags net rows: a sequential node is computed when
        seeded, a combinational node when seeded or when one of its
        fanin nets moved, and a computed node whose (arrival, slew,
        early arrival) differs from the stored value moves its output
        net.  Returns ``(ops, nodes computed)``.
        """
        netlist = self.netlist
        policy = self.policy
        lib = netlist.library
        soa = self.topology.soa
        n_nets = soa.n_nets
        df = policy.corner.delay_factor
        wf = policy.corner.wire_factor
        hold = self.check_hold
        full = seeded is None

        # arrival-independent columns, whole-graph: for a node outside
        # the dirty set they equal its stored values bit for bit
        cap, intr, dres, ssens, sintr, sres = self._cell_columns(refresh)
        net_len = soa.net_len
        launch = self._skew_column(soa)

        # net loads: sequential bincount accumulation == the per-node
        # left-to-right sum over each net's sinks, then PO pin load,
        # then the wire term — same order, same expressions
        loads = np.bincount(
            soa.sink_net_rows,
            weights=cap[soa.sink_inst_rows],
            minlength=n_nets,
        )
        loads[soa.po_rows] += PO_LOAD
        loads = loads + lib.wire_c_per_um * net_len * wf

        # slews: PI_SLEW at startpoint inputs, cell.output_slew(load) at
        # every instance output
        slew = np.full(n_nets, PI_SLEW)
        si = soa.seq_inst_rows
        so = soa.seq_out_rows
        seq_loads = loads[so]
        slew[so] = sintr[si] + sres[si] * seq_loads
        ci = soa.comb_inst_rows
        comb_loads = loads[soa.comb_out_rows]
        slew[soa.comb_out_rows] = sintr[ci] + sres[ci] * comb_loads

        # per-edge wire + SI delay: the load seen by the wire is the
        # receiving pin's input cap
        e_src = soa.fanin_src
        fanin_ptr = soa.fanin_ptr
        e_cap = np.repeat(cap[ci], fanin_ptr[1:] - fanin_ptr[:-1])
        e_len = net_len[e_src]
        e_wire_pure = policy.wire_delay_batch(e_len, e_cap, lib)
        cong = self._net_congestion(soa)
        e_cong = np.zeros(e_src.shape[0]) if cong is None else cong[e_src]
        e_wire = e_wire_pure + policy.si_bump_batch(e_len, e_cong)

        # merged input slews and gate delays per comb node: nodes with
        # no non-clock fanin fall back to PI_SLEW
        merged = np.full(soa.n_comb, PI_SLEW)
        if soa.ne_starts.size:
            merged[soa.ne_node_offsets] = policy.merge_slew_batch(
                slew[e_src], soa.ne_starts, soa.ne_counts
            )
        gate = (intr[ci] + dres[ci] * comb_loads + ssens[ci] * merged) * df * policy.stage_derate()

        q_delay = DFF_CLK_TO_Q * df * policy.stage_derate()
        seq_arr = launch + q_delay + dres[si] * seq_loads * df
        if hold:
            early = policy.early_derate()
            seq_min = launch + (DFF_CLK_TO_Q + dres[si] * seq_loads) * df * early
            e_hold = e_wire_pure * early
            gate_min = (intr[ci] + dres[ci] * comb_loads + ssens[ci] * PI_SLEW) * df * early

        arrival = self._arrival
        pred = self._pred
        arrival_min = self._arrival_min
        old_slew = self._slew

        def store(out, arr, arr_min) -> None:
            # in an update, a computed node whose state differs from the
            # stored one moves its output net
            if not full:
                moves = (arr != arrival[out]) | (slew[out] != old_slew[out])
                if hold:
                    moves |= arr_min != arrival_min[out]
                moved[out[moves]] = True
            arrival[out] = arr
            if hold:
                arrival_min[out] = arr_min

        # launch arrivals at sequential outputs (their pred stays -1)
        seq = slice(None) if full else np.flatnonzero(seeded[si])
        store(so[seq], seq_arr[seq], seq_min[seq] if hold else None)
        ops = nodes = so[seq].shape[0]

        # per comb node: seeded, then OR-ed with moved fanins level by level
        comb_dirty = None if full else seeded[ci]
        for seg in soa.levels:
            n_lv = seg.hi - seg.lo
            lv = slice(seg.lo, seg.hi)
            edges = slice(seg.elo, seg.ehi)
            starts, offsets, counts = seg.rel_starts, seg.ne_offsets, seg.ne_counts
            if not full:
                dirty = comb_dirty[lv]
                if starts.size:
                    dirty[offsets] |= np.logical_or.reduceat(moved[e_src[edges]], starts)
                picked = np.flatnonzero(dirty)
                if picked.shape[0] == 0:
                    continue
                if picked.shape[0] < n_lv:
                    # gather the dirty nodes' fanin segments
                    n_lv = picked.shape[0]
                    lv = seg.lo + picked
                    first_edge = fanin_ptr[lv]
                    all_counts = fanin_ptr[lv + 1] - first_edge
                    offsets = np.flatnonzero(all_counts)
                    counts = all_counts[offsets]
                    starts = np.cumsum(counts) - counts
                    edges = np.repeat(first_edge[offsets] - starts, counts)
                    edges += np.arange(edges.shape[0])
            src = e_src[edges]
            best = np.full(n_lv, -np.inf)
            pred_lv = np.full(n_lv, -1, dtype=np.int64)
            if starts.size:
                cand = arrival[src] + e_wire[edges]
                seg_max = np.maximum.reduceat(cand, starts)
                best[offsets] = seg_max
                # first input achieving the max == the per-node strict-">"
                # left-to-right winner
                rep = np.repeat(seg_max, counts)
                positions = np.arange(cand.shape[0])
                masked = np.where(cand == rep, positions, cand.shape[0])
                first = np.minimum.reduceat(masked, starts)
                pred_lv[offsets] = np.where(seg_max > -np.inf, src[first], -1)
            min_lv = None
            if hold:
                fastest = np.full(n_lv, np.inf)
                if starts.size:
                    fastest[offsets] = np.minimum.reduceat(
                        arrival_min[src] + e_hold[edges], starts
                    )
                min_lv = np.where(np.isinf(fastest), 0.0, fastest) + gate_min[lv]
                ops += n_lv
            out = soa.comb_out_rows[lv]
            store(out, best + gate[lv], min_lv)
            pred[out] = pred_lv
            ops += src.shape[0]
            nodes += n_lv

        self._load = loads
        self._slew = slew
        return ops, nodes

    # ------------------------------------------------------------------
    def report(self, clock_period: float) -> TimingReport:
        """Materialize endpoint slacks from the current propagation state.

        Charges the policy's runtime proxy for the propagation ops
        accumulated since the last report plus the per-endpoint work,
        then lets the policy post-process (PBA).  Reads the propagated
        state as per-net columns and walks every endpoint's worst path
        at once; a topology left stale by buffer splices is rebuilt
        first, as :meth:`full_propagate` and :meth:`update` do.
        """
        if not (clock_period > 0 and math.isfinite(clock_period)):
            raise ValueError("clock period must be positive and finite")
        if not self._propagated:
            raise RuntimeError("full_propagate() must run before report()")
        soa = self._sync()
        netlist = self.netlist
        lib = netlist.library
        policy = self.policy
        corner = policy.corner
        ids = self.topology.net_index.ids
        arrival = self._arrival
        slew = self._slew

        # endpoints: DFF D inputs in netlist order, then primary outputs
        d_rows = soa.seq_d_rows
        po_names = list(netlist.primary_outputs)
        ep_rows = np.concatenate(
            (d_rows, np.array([ids[po] for po in po_names], dtype=np.intp))
        )
        depth, wire_total, fan_max, paths = self._trace(soa, ep_rows)

        d_len = soa.net_len[d_rows]
        d_cap = self._cell_matrix[self._inst_cells[soa.seq_inst_rows], 0]
        w_delay = policy.wire_delay_batch(d_len, d_cap, lib)
        cong = self._net_congestion(soa)
        d_cong = np.zeros(d_rows.shape[0]) if cong is None else cong[d_rows]
        setup_arrival = arrival[d_rows] + (w_delay + policy.si_bump_batch(d_len, d_cong))
        capture = self._skew_column(soa)
        setup_required = clock_period + capture - DFF_SETUP * corner.delay_factor
        if self.check_hold:
            a_min = self._arrival_min[d_rows]
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

        # a from-scratch propagation's ops: one per startpoint, one per
        # fanin edge, and one per combinational node when hold is checked
        full_ops = len(soa.seq_names) + soa.n_comb_edges
        if self.check_hold:
            full_ops += soa.n_comb
        endpoint_ops = 2 * len(report.endpoints)
        self.stats.proxy_executed += report.runtime_proxy
        self.stats.proxy_full_equivalent += policy.full_runtime_proxy(
            full_ops + endpoint_ops
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
        pred = self._pred
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
