"""K-way partitioning, block extraction, and the partitioned flow."""

import os
import subprocess
import sys

import pytest

import repro
from repro.core.partition import (
    PartitionedResult,
    cut_nets,
    extract_partition,
    kway_partition,
    partitioned_implementation,
)
from repro.eda.flow import FlowOptions, SPRFlow
from repro.eda.synthesis import DesignSpec


@pytest.fixture(scope="module")
def blocks(small_netlist):
    return kway_partition(small_netlist, 4, seed=1)


def test_partition_covers_everything_once(small_netlist, blocks):
    seen = [name for block in blocks for name in block]
    assert sorted(seen) == sorted(small_netlist.instances)
    assert len(blocks) == 4


def test_partition_is_balanced(small_netlist, blocks):
    sizes = [len(b) for b in blocks]
    assert max(sizes) <= 2 * min(sizes)


def test_partition_beats_random_cut(small_netlist, blocks, rng):
    names = list(small_netlist.instances)
    rng.shuffle(names)
    quarter = len(names) // 4
    random_blocks = [names[i * quarter : (i + 1) * quarter] for i in range(3)]
    random_blocks.append(names[3 * quarter :])
    assert len(cut_nets(small_netlist, blocks)) <= len(
        cut_nets(small_netlist, random_blocks)
    )


def test_partition_validation(small_netlist):
    with pytest.raises(ValueError):
        kway_partition(small_netlist, 3, seed=0)  # not a power of 2
    with pytest.raises(ValueError):
        kway_partition(small_netlist, 256, seed=0)  # too small for that
    with pytest.raises(ValueError):
        cut_nets(small_netlist, [["g0"]])  # misses instances


def test_extract_block_is_valid(small_netlist, blocks):
    for i, block in enumerate(blocks):
        sub = extract_partition(small_netlist, block, f"blk{i}")
        sub.validate()
        assert sub.n_instances == len(block)
        assert sub.clock_net == small_netlist.clock_net
        # every instance kept its cell
        for name in block:
            assert sub.instances[name].cell == small_netlist.instances[name].cell


def test_extract_boundary_conversion(small_netlist, blocks):
    sub = extract_partition(small_netlist, blocks[0], "blk0")
    inside = set(blocks[0])
    # every net consumed inside but driven outside became a PI
    for inst_name in inside:
        original = small_netlist.instances[inst_name]
        for net in original.input_nets:
            if net == small_netlist.clock_net:
                continue
            driver = small_netlist.nets[net].driver
            if driver is None or driver not in inside:
                assert net in sub.primary_inputs
    # every inside-driven net with outside sinks became a PO
    for inst_name in inside:
        out = small_netlist.instances[inst_name].output_net
        if any(s not in inside for s, _ in small_netlist.nets[out].sinks):
            assert out in sub.primary_outputs


def test_extract_follows_the_parent_order(small_netlist, blocks):
    """Whatever order a block's names come in, the block lists its flops
    by name, then its combinational instances, and its primary outputs
    by driver, in the parent's instance order."""
    position = {name: i for i, name in enumerate(small_netlist.instances)}
    for i, block in enumerate(blocks):
        sub = extract_partition(small_netlist, sorted(block, reverse=True), f"blk{i}")
        flops = sorted(n for n in block if small_netlist.instances[n].cell.is_sequential)
        members = set(block) - set(flops)
        combs = [n for n in small_netlist.instances if n in members]
        assert list(sub.instances) == flops + combs
        drivers = [sub.nets[po].driver for po in sub.primary_outputs]
        assert len(drivers) > 0
        assert drivers == sorted(drivers, key=position.__getitem__)


_HASH_SEED_RUN = """
from repro.core.partition import partitioned_implementation
from repro.eda.flow import FlowOptions
from repro.eda.synthesis import DesignSpec
spec = DesignSpec("pt", n_gates=200, n_flops=24, n_inputs=12, n_outputs=12,
                  depth=12, locality=0.8)
result = partitioned_implementation(spec, FlowOptions(target_clock_ghz=0.5),
                                    n_partitions=2, seed=4)
print(repr((result.area, result.wns)))
"""


def test_partitioned_implementation_ignores_the_hash_seed():
    """Interpreters that hash strings differently implement the same
    blocks to the same area and WNS."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    outputs = set()
    for hash_seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": src}
        run = subprocess.run([sys.executable, "-c", _HASH_SEED_RUN], env=env,
                             capture_output=True, text=True, check=True)
        outputs.add(run.stdout)
    assert len(outputs) == 1


def test_extract_validation(small_netlist):
    with pytest.raises(ValueError):
        extract_partition(small_netlist, [], "empty")
    with pytest.raises(ValueError):
        extract_partition(small_netlist, ["nope"], "bad")


def test_extracted_block_implements(small_netlist, blocks):
    sub = extract_partition(small_netlist, blocks[0], "blk0")
    result = SPRFlow().run(sub, FlowOptions(target_clock_ghz=0.5), seed=3)
    assert result.area > 0
    assert [log.step for log in result.logs][0] == "floorplan"  # no synth step


def test_partitioned_implementation_end_to_end():
    spec = DesignSpec("pt", n_gates=200, n_flops=24, n_inputs=12, n_outputs=12,
                      depth=12, locality=0.8)
    result = partitioned_implementation(
        spec, FlowOptions(target_clock_ghz=0.5), n_partitions=2, seed=4,
        run_flat_reference=True,
    )
    assert len(result.blocks) == 2
    assert result.n_cut_nets > 0
    assert result.tat_parallel < result.tat_serial
    assert result.speedup_vs_flat() > 1.0  # blocks in parallel beat flat TAT
    assert result.area == pytest.approx(sum(b.area for b in result.blocks))
    assert result.wns == min(b.wns for b in result.blocks)


def test_partitioned_result_requires_flat_for_speedup():
    spec = DesignSpec("pt2", n_gates=120, n_flops=16, n_inputs=8, n_outputs=8, depth=8)
    result = partitioned_implementation(
        spec, FlowOptions(target_clock_ghz=0.4), n_partitions=2, seed=5
    )
    with pytest.raises(ValueError):
        result.speedup_vs_flat()
