#!/usr/bin/env python3
"""Predicate pushdown on the DPU — the paper's Section 4 composition.

"The storage server first reads the database records from SSDs
through the Storage Engine.  It then directly applies predicates on
these tuples using the Compute Engine, and only sends the qualified
tuples back to the remote database server via the Network Engine."

This example stores a real CSV table on the simulated SSD, then runs
the same analytical query two ways:

* **pushdown**: filter + project run as DP kernels on the DPU; only
  qualifying bytes cross the network,
* **no pushdown**: all raw pages cross the network and the client
  filters locally.

Run:  python examples/predicate_pushdown.py
"""

import random

from repro.buffers import RealBuffer
from repro.core import DdsClient, DpdpuRuntime, encode_sproc
from repro.baselines.host_tcp import make_kernel_tcp
from repro.hardware import BLUEFIELD2, connect, make_server
from repro.sim import Environment
from repro.units import MiB, fmt_bytes, fmt_time

PORT = 7200
N_ROWS = 4_000


def make_table(seed: int = 3) -> bytes:
    """A lineitem-flavoured CSV: id, region, quantity, price."""
    rng = random.Random(seed)
    regions = ["east", "west", "north", "south"]
    rows = []
    for row_id in range(N_ROWS):
        rows.append(
            f"{row_id},{rng.choice(regions)},{rng.randint(1, 50)},"
            f"{rng.randint(100, 9999)}".encode()
        )
    return b"\n".join(rows) + b"\n"


def run_query(pushdown: bool) -> dict:
    env = Environment()
    server = make_server(env, name="storage", dpu_profile=BLUEFIELD2)
    client_machine = make_server(env, name="dbms", dpu_profile=None)
    connect(server, client_machine)
    runtime = DpdpuRuntime(server)

    table = make_table()
    file_id = runtime.storage.create("lineitem.csv", size=4 * MiB)

    def load():
        yield runtime.storage.write(file_id, 0, RealBuffer(table)).done

    env.run(until=env.process(load()))

    # The query: rows in region "east" with quantity >= 40,
    # projecting (id, price).
    def predicate(row: bytes) -> bool:
        fields = row.split(b",")
        return fields[1] == b"east" and int(fields[2]) >= 40

    def query_sproc(ctx, _arg):
        read = ctx.se.read(file_id, 0, len(table))
        data = yield from ctx.wait(read)
        if not pushdown:
            return data
        filtered = yield from ctx.wait(
            ctx.dpk("filter")(data, params={"predicate": predicate})
        )
        projected = yield from ctx.wait(
            ctx.dpk("project")(filtered, params={"columns": [0, 3]})
        )
        return projected

    runtime.compute.register_sproc("query", query_sproc)
    # DDS exposes registered sprocs to remote clients: the DBMS names
    # the sproc in a request and the sproc's buffer is the response.
    runtime.dds(port=PORT)

    client_tcp = make_kernel_tcp(client_machine, "dbms")
    stats = {}

    def dbms():
        connection = yield from client_tcp.connect(PORT)
        request = DdsClient(connection).submit(encode_sproc("query"))
        message = yield request.done
        rows = [r for r in message.data.split(b"\n") if r]
        if not pushdown:
            rows = [b",".join([f.split(b",")[0], f.split(b",")[3]])
                    for f in rows if predicate(f)]
        stats["result_rows"] = len(rows)
        stats["bytes_on_wire"] = message.size
        stats["elapsed"] = env.now

    env.run(until=env.process(dbms()))
    return stats


def main():
    plain = run_query(pushdown=False)
    pushed = run_query(pushdown=True)
    assert plain["result_rows"] == pushed["result_rows"], \
        "pushdown changed the query answer!"
    print(f"query answer: {pushed['result_rows']} rows "
          f"(identical with and without pushdown)\n")
    print(f"{'':22s}{'bytes on wire':>14s}{'query time':>12s}")
    for tag, stats in (("no pushdown", plain), ("DPU pushdown", pushed)):
        print(f"{tag:22s}{fmt_bytes(stats['bytes_on_wire']):>14s}"
              f"{fmt_time(stats['elapsed']):>12s}")
    reduction = plain["bytes_on_wire"] / pushed["bytes_on_wire"]
    print(f"\nnetwork traffic reduced {reduction:.1f}x by pushdown")


if __name__ == "__main__":
    main()
