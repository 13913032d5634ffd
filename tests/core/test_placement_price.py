"""One price for a placement: ``CostModel.price`` and its three readers.

The Compute Engine's scheduled execution, the offload advisor and the
scan planners all price a kernel through
:meth:`repro.hardware.costs.CostModel.price` over the server's own
profiles (the CE and the advisor by way of ``server_prices``).  This
module holds that to three things:

* (a) on an idle engine, ``submit_kernel(device=None)`` lands on the
  argmin of the price (``service_s + pcie_s``), for every builtin
  kernel, four sizes, every profile in ``DPU_PROFILES``, with and
  without PCIe peers;
* (b) under generated backlogs and fault windows, the engine's
  candidate seconds are ``==`` to :func:`reference_estimates`, a copy
  of the CE's ``_best_placement`` as it was before the price function
  existed (kept here the way ``tests/sim/test_queue_forms.py`` keeps
  the pre-eventless queues);
* (c) ``plan_scan`` / ``plan_distributed`` are ``==`` to the formulas
  they had when their clocks were the constants 2.5 GHz / 3.0 GHz,
  on BF-2 / EPYC, and price at 3.0 GHz on a BlueField-3 node.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.cluster.cluster as cluster_module
from repro.buffers import SynthBuffer
from repro.core import ComputeEngine
from repro.core.kernels import BUILTIN_KERNELS
from repro.hardware import (BLUEFIELD2, BLUEFIELD3, DPU_PROFILES,
                            EPYC_HOST, FPGA_SPEC, GPU_SPEC, make_server)
from repro.hardware.costs import DEFAULT_COSTS, PLACEMENTS, server_prices
from repro.query import (DistributedScanDeployment, ScanQuery,
                         plan_distributed, plan_scan)
from repro.sim import Environment
from repro.units import Gbps, KiB, MiB, PAGE_SIZE

SIZES = (4 * KiB, 64 * KiB, 1 * MiB, 16 * MiB)
PEER_SETS = ((), (GPU_SPEC, FPGA_SPEC))


def _engine(profile, peers):
    server = make_server(Environment(), dpu_profile=profile,
                         peer_specs=peers)
    return ComputeEngine(server)


def _idle_argmin(name, size, profile, peers):
    prices = {}
    for placement in PLACEMENTS:
        price = DEFAULT_COSTS.price(name, size, placement, profile,
                                    EPYC_HOST, peers)
        if price is not None:
            prices[placement] = price.service_s + price.pcie_s
    return min(prices, key=prices.get)


# -- (a) the idle choice is the price's argmin ------------------------------


@pytest.mark.parametrize("peers", PEER_SETS, ids=("no-peers", "peers"))
@pytest.mark.parametrize("profile", sorted(DPU_PROFILES))
def test_idle_scheduled_choice_is_the_price_argmin(profile, peers):
    dpu = DPU_PROFILES[profile]
    for name in BUILTIN_KERNELS:
        for size in SIZES:
            engine = _engine(dpu, peers)
            request = engine.submit_kernel(name, SynthBuffer(size))
            assert request.device == _idle_argmin(name, size, dpu,
                                                  peers), (name, size)


def test_price_refuses_what_a_placement_cannot_run():
    # BF-3 has no RegEx engine; crc32 has no ASIC anywhere; the FPGA
    # implements no filter; an absent peer runs nothing.
    assert DEFAULT_COSTS.price("regex", 1, "dpu_asic", BLUEFIELD3,
                               EPYC_HOST, ()) is None
    assert DEFAULT_COSTS.price("crc32", 1, "dpu_asic", BLUEFIELD2,
                               EPYC_HOST, ()) is None
    assert DEFAULT_COSTS.price("filter", 1, "pcie_fpga", BLUEFIELD2,
                               EPYC_HOST, (FPGA_SPEC,)) is None
    assert DEFAULT_COSTS.price("crc32", 1, "pcie_gpu", BLUEFIELD2,
                               EPYC_HOST, ()) is None


def test_only_the_host_and_peers_pay_pcie():
    size = 1 * MiB
    pcie_s = 2 * size / (BLUEFIELD2.pcie_bandwidth_bps / 8)
    prices = {placement: DEFAULT_COSTS.price(
        "compress", size, placement, BLUEFIELD2, EPYC_HOST,
        (GPU_SPEC, FPGA_SPEC)) for placement in PLACEMENTS}
    assert prices["dpu_asic"].pcie_s == prices["dpu_cpu"].pcie_s == 0.0
    for placement in ("host_cpu", "pcie_gpu", "pcie_fpga"):
        assert prices[placement].pcie_s == pcie_s
    assert prices["host_cpu"].host_cycles == DEFAULT_COSTS.cpu_cycles(
        "compress", size, "host")
    assert sum(price.host_cycles for price in prices.values()) \
        == prices["host_cpu"].host_cycles


def test_server_prices_read_the_servers_own_profiles():
    # BF-3 (no RegEx engine, 3.0 GHz Arm) with only an FPGA: every
    # field comes from this server, and specified execution refuses
    # exactly the placements the price leaves out.
    peers = (FPGA_SPEC,)
    server = make_server(Environment(), dpu_profile=BLUEFIELD3,
                         peer_specs=peers)
    engine = ComputeEngine(server)
    size = 64 * KiB
    for name in BUILTIN_KERNELS:
        expected = {}
        for placement in PLACEMENTS:
            price = DEFAULT_COSTS.price(name, size, placement,
                                        BLUEFIELD3, EPYC_HOST, peers)
            if price is not None:
                expected[placement] = price
        assert server_prices(server, name, size) == expected
        for placement in PLACEMENTS:
            request = engine.submit_kernel(name, SynthBuffer(size),
                                           device=placement)
            assert (request is None) == (placement not in expected), \
                (name, placement)


# -- (b) the backlog factor on top is the pre-price formula -----------------


class _AllDown:
    """A fault injector whose every site is inside a down window."""

    def is_down(self, site):
        return True


def reference_estimates(ce, spec_name, size):
    """``ComputeEngine._best_placement``'s candidates before the price
    function: its own arithmetic over the live devices."""
    costs = ce.costs
    asic_kind = costs.kernel(spec_name).asic_kind
    candidates = {}
    if asic_kind:
        asic = ce.dpu.accelerator(asic_kind)
        if asic is not None and ce._device_down(asic):
            asic = None
        if asic is not None:
            service = asic.service_time(size)
            backlog = max(
                asic.queue_length,
                ce._inflight.get("dpu_asic", 0) - asic.spec.channels,
            )
            candidates["dpu_asic"] = service * (
                1 + max(0, backlog) / asic.spec.channels
            )
    dpu_cpu = ce.dpu.cpu
    if not ce._device_down(dpu_cpu):
        dpu_cycles = costs.cpu_cycles(spec_name, size, "dpu")
        dpu_backlog = max(dpu_cpu.queue_length,
                          ce._inflight.get("dpu_cpu", 0)
                          - dpu_cpu.cores)
        candidates["dpu_cpu"] = dpu_cpu.seconds_for(dpu_cycles) * (
            1 + max(0, dpu_backlog) / dpu_cpu.cores
        )
    host_cycles = costs.cpu_cycles(spec_name, size, "host")
    host_cpu = ce.server.host_cpu
    host_backlog = max(host_cpu.queue_length,
                       ce._inflight.get("host_cpu", 0)
                       - host_cpu.cores)
    candidates["host_cpu"] = (
        host_cpu.seconds_for(host_cycles)
        * (1 + max(0, host_backlog) / host_cpu.cores)
        + 2 * ce.dpu.pcie.transfer_time(size)
    )
    for kind in ("gpu", "fpga"):
        peer = ce.server.peer(kind)
        if peer is not None and peer.supports(spec_name):
            service = peer.chain_service_time([(spec_name, size)])
            backlog = max(
                peer._channels.queue_length,
                ce._inflight.get(f"pcie_{kind}", 0)
                - peer.spec.channels,
            )
            candidates[f"pcie_{kind}"] = (
                service * (1 + max(0, backlog) / peer.spec.channels)
                + 2 * ce.dpu.pcie.transfer_time(size)
            )
    return candidates


@settings(max_examples=60, deadline=None)
@given(profile=st.sampled_from(sorted(DPU_PROFILES)),
       peers=st.sampled_from(PEER_SETS),
       burst=st.lists(st.tuples(st.sampled_from(sorted(BUILTIN_KERNELS)),
                                st.sampled_from(PLACEMENTS),
                                st.sampled_from(SIZES)),
                      max_size=40),
       extra=st.dictionaries(st.sampled_from(PLACEMENTS),
                             st.integers(0, 80)),
       down=st.sets(st.sampled_from(("asic", "cpu"))),
       name=st.sampled_from(sorted(BUILTIN_KERNELS)),
       size=st.integers(0, 32 * MiB))
def test_backlogged_estimates_equal_the_reference(profile, peers, burst,
                                                  extra, down, name,
                                                  size):
    engine = _engine(DPU_PROFILES[profile], peers)
    env = engine.env
    # Real queues: a specified burst, let through its first instant;
    # then engine-side backlog on top (never-decremented submissions).
    for kernel, placement, nbytes in burst:
        engine.submit_kernel(kernel, SynthBuffer(nbytes),
                             device=placement)
    env.run(until=1e-9)
    for placement, count in extra.items():
        engine._inflight[placement] = (
            engine._inflight.get(placement, 0) + count)
    # Fault windows: the ASICs and/or the Arm cluster report down.
    if "asic" in down:
        for asic in engine.dpu.accelerators.values():
            asic.injector = _AllDown()
    if "cpu" in down:
        engine.dpu.cpu.injector = _AllDown()
    estimates = engine._estimates(name, size)
    assert estimates == reference_estimates(engine, name, size)
    assert list(estimates) == list(reference_estimates(engine, name,
                                                       size))


# -- (c) the planners read their clocks from the profiles -------------------

#: the planner clocks before they came from the profiles
_PRE_DPU_HZ = 2.5e9
_PRE_HOST_HZ = 3.0e9


def reference_plan_scan(query, table_bytes, n_columns, network_bps,
                        dpu_cores, host_cores, dpu_hz=_PRE_DPU_HZ,
                        host_hz=_PRE_HOST_HZ):
    """``plan_scan``'s arithmetic with the clocks as arguments:
    ``(pull network_s, pull compute_s, push network_s, push
    compute_s, push bytes_on_wire)``."""
    costs = DEFAULT_COSTS
    network_bytes_per_s = network_bps / 8.0
    pull_cycles = costs.cpu_cycles("filter", table_bytes, "host")
    if query.projection and not query.is_aggregate:
        pull_cycles += costs.cpu_cycles("project", table_bytes, "host")
    if query.is_aggregate:
        pull_cycles += costs.cpu_cycles("aggregate", table_bytes,
                                        "host")
    push_cycles = costs.cpu_cycles("filter", table_bytes, "dpu")
    filtered_bytes = table_bytes * query.estimated_selectivity
    if query.is_aggregate:
        push_cycles += costs.cpu_cycles("aggregate", filtered_bytes,
                                        "dpu")
    elif query.projection:
        push_cycles += costs.cpu_cycles("project", filtered_bytes,
                                        "dpu")
    if query.is_aggregate:
        fraction = 0.0
    else:
        width = (len(query.projection) / max(n_columns, 1)
                 if query.projection else 1.0)
        fraction = query.estimated_selectivity * width
    out_bytes = table_bytes * fraction
    return (table_bytes / network_bytes_per_s,
            pull_cycles / host_hz / host_cores,
            (out_bytes + 128) / network_bytes_per_s,
            push_cycles / dpu_hz / dpu_cores,
            out_bytes + 128)


def reference_cluster_wall(shard_sizes, per_shard, network_bps, owners):
    """``_cluster_wall`` with the constant clocks: ``(pull_wall_s,
    pushdown_wall_s)``."""
    software = DEFAULT_COSTS.software
    bytes_per_s = network_bps / 8.0
    node_cycles = {}
    pull_host_cycles = push_host_cycles = 0.0
    pull_bytes = push_bytes = 0.0
    for shard in sorted(shard_sizes):
        size = shard_sizes[shard]
        pull_bytes += size
        pull_host_cycles += (software.tcp_cycles_per_msg
                             + software.tcp_cycles_per_byte * size
                             + DEFAULT_COSTS.cpu_cycles("filter", size,
                                                        "host"))
        out_bytes = per_shard[shard]["pushdown"].bytes_on_wire
        push_bytes += out_bytes
        push_host_cycles += (software.tcp_cycles_per_msg
                             + software.tcp_cycles_per_byte
                             * out_bytes)
        owner = owners.get(shard, "node")
        pages = -(-size // PAGE_SIZE)
        node_cycles[owner] = (
            node_cycles.get(owner, 0.0)
            + software.sproc_dispatch_cycles
            + software.dpu_file_service_cycles_per_op
            + software.spdk_cycles_per_page * pages
            + 2 * software.dpu_tcp_cycles_per_msg
            + software.dpu_tcp_cycles_per_byte * (size + out_bytes)
            + per_shard[shard]["pushdown"].compute_s * _PRE_DPU_HZ)
    pull_wall_s = (pull_bytes / bytes_per_s
                   + pull_host_cycles / _PRE_HOST_HZ / 8)
    slowest_owner_s = (max(node_cycles.values()) / _PRE_DPU_HZ / 6
                       if node_cycles else 0.0)
    pushdown_wall_s = (slowest_owner_s + push_bytes / bytes_per_s
                       + push_host_cycles / _PRE_HOST_HZ / 8)
    return pull_wall_s, pushdown_wall_s


QUERIES = (
    ScanQuery(predicate_column="quantity", predicate=lambda v: True,
              projection=["orderkey", "extendedprice"],
              estimated_selectivity=0.12),
    ScanQuery(predicate_column="returnflag", predicate=lambda v: True,
              aggregate_column="extendedprice",
              estimated_selectivity=0.33),
    ScanQuery(predicate_column="quantity", predicate=lambda v: True,
              estimated_selectivity=1.0),
)


def _fields(plan):
    return (plan["pull"].network_s, plan["pull"].compute_s,
            plan["pushdown"].network_s, plan["pushdown"].compute_s,
            plan["pushdown"].bytes_on_wire)


@pytest.mark.parametrize("query", QUERIES, ids=("project", "aggregate",
                                                "full"))
def test_plan_scan_on_bf2_epyc_is_the_constant_clock_formula(query):
    for table_bytes in (0, 7_001, 10 * MiB, 300 * MiB):
        for network_bps in (2 * Gbps, 100 * Gbps):
            for dpu_cores, host_cores in ((6, 4), (1, 1)):
                plan = plan_scan(query, table_bytes, 7, BLUEFIELD2,
                                 EPYC_HOST, network_bps=network_bps,
                                 dpu_cores=dpu_cores,
                                 host_cores=host_cores)
                assert _fields(plan) == reference_plan_scan(
                    query, table_bytes, 7, network_bps, dpu_cores,
                    host_cores)


@pytest.mark.parametrize("query", QUERIES, ids=("project", "aggregate",
                                                "full"))
def test_plan_distributed_on_bf2_epyc_is_the_constant_clock_formula(
        query):
    sizes = {0: 40_000, 3: 1_200_000, 5: 9_000, 6: 0}
    owners = {0: "node0", 3: "node1", 5: "node0", 6: "node2"}
    for network_bps in (2 * Gbps, 100 * Gbps):
        plan = plan_distributed(query, sizes, 7, BLUEFIELD2, EPYC_HOST,
                                network_bps=network_bps, owners=owners)
        for shard, size in sizes.items():
            assert _fields(plan["per_shard"][shard]) == \
                reference_plan_scan(query, size, 7, network_bps, 1, 1)
        assert (plan["pull_wall_s"], plan["pushdown_wall_s"]) == \
            reference_cluster_wall(sizes, plan["per_shard"],
                                   network_bps, owners)


def test_a_bluefield3_deployment_plans_at_its_own_clock(monkeypatch):
    # The cluster builds every node from this module constant.
    monkeypatch.setattr(cluster_module, "BLUEFIELD2", BLUEFIELD3)
    deployment = DistributedScanDeployment(n_nodes=2, n_rows=400,
                                           n_shards=4)
    assert deployment.cluster.nodes[0].server.dpu.profile is BLUEFIELD3
    assert BLUEFIELD3.arm_frequency_hz == 3.0e9
    query = QUERIES[0]
    plan = deployment.plan(query)
    columns = len(deployment.schema.columns)
    bps = deployment.network_bps
    for shard, size in deployment.shard_sizes().items():
        assert _fields(plan["per_shard"][shard]) == reference_plan_scan(
            query, size, columns, bps, 1, 1, dpu_hz=3.0e9,
            host_hz=3.0e9)
        assert plan["per_shard"][shard]["pushdown"].compute_s < \
            reference_plan_scan(query, size, columns, bps, 1, 1)[3]
