#!/usr/bin/env python3
"""Where a scan's host time goes, per row — docs/PERFORMANCE.md § "Scan
row path" is this script's output.

Runs against whichever tree ``PYTHONPATH`` names, so the same file
measures an older checkout (kernels take a whole-record predicate, the
sproc wraps it in a row-splitting lambda, or the decode sits in two
256-entry ``lru_cache``s) and this one (kernels take a ``column``, read
one byte-bounded decode cache and ask a column predicate once per
distinct value)::

    PYTHONPATH=src python benchmarks/scan_row_path.py            # rows
    PYTHONPATH=src python benchmarks/scan_row_path.py --passes   # cold/warm
    PYTHONPATH=src python benchmarks/scan_row_path.py --footprint

Host times only compare on one machine, in one sitting.
"""

import argparse
import gc
import time
import tracemalloc

import repro.buffers as buffers
from repro.buffers import RealBuffer
from repro.core.kernels import BUILTIN_KERNELS
from repro.query import (DistributedScanDeployment, ScanQuery,
                         run_distributed_scan)
from repro.workloads import TableGenerator

#: an older tree's per-function ``lru_cache``s
LRU_CACHES = [getattr(buffers, name) for name in
              ("split_records", "split_columns")
              if hasattr(getattr(buffers, name, None), "cache_clear")]
#: whether the decode is remembered at all
REMEMBERED = bool(LRU_CACHES) or hasattr(buffers, "_decoded")
SCHEMA = TableGenerator().schema
ROWS = 1_500

#: hostbench's three scan shapes
SHAPES = {
    "aggregate": dict(predicate_column="returnflag",
                      predicate=lambda v: v == b"A",
                      aggregate_column="extendedprice",
                      estimated_selectivity=0.33),
    "projection": dict(predicate_column="quantity",
                       predicate=lambda v: int(v) >= 45,
                       projection=["orderkey", "extendedprice"],
                       estimated_selectivity=0.12),
    "wide": dict(predicate_column="quantity",
                 predicate=lambda v: int(v) >= 1,
                 estimated_selectivity=1.0),
}


def clear_caches():
    for cache in LRU_CACHES:
        cache.cache_clear()
    if hasattr(buffers, "_decoded"):
        buffers._decoded.clear()


class CountedEvictions(dict):
    """The decode cache, counting what its byte ceiling pushes out (a
    hit pops and re-inserts; only an eviction deletes)."""

    evictions = 0

    def __delitem__(self, key):
        self.evictions += 1
        super().__delitem__(key)


def pushdown(query: ScanQuery, data: bytes) -> bytes:
    """The scan sproc's kernel chain, without the simulator."""
    def kernel(name, buffer, **params):
        return BUILTIN_KERNELS[name].run(buffer, params)

    def on(name, value_fn, key):
        index = SCHEMA.index_of(name)
        if REMEMBERED:
            return {"column": index, key: value_fn}
        return {key: lambda row: value_fn(row.split(b",")[index])}

    out = kernel("filter", RealBuffer(data), **on(
        query.predicate_column, query.predicate, "predicate")).buffer
    if query.is_aggregate:
        out = kernel("aggregate", out, **on(
            query.aggregate_column, float, "extract")).buffer
    elif query.projection:
        out = kernel("project", out, columns=[
            SCHEMA.index_of(name) for name in query.projection]).buffer
    return out.data


def best_us(call, cold: bool, rounds: int = 5, loops: int = 50):
    """min over ``rounds`` of the mean of ``loops`` calls, in µs."""
    best = float("inf")
    for _ in range(rounds):
        spent = 0.0
        for _ in range(loops):
            if cold:
                clear_caches()
            start = time.perf_counter()
            call()
            spent += time.perf_counter() - start
        best = min(best, spent / loops)
    return best * 1e6


def row_path():
    data = TableGenerator(seed=13).rows(ROWS)
    print(f"one {ROWS}-row partition ({len(data)} B), min of 5 x 50, "
          f"{'decode remembered' if REMEMBERED else 'no decode cache'}")
    print(f"{'shape':<11}{'path':<10}{'cold us':>9}{'warm us':>9}"
          f"{'cold ns/row':>13}{'warm ns/row':>13}")
    for shape, fields in SHAPES.items():
        query = ScanQuery(**fields)
        values = [row.split(b",")[SCHEMA.index_of(
            query.predicate_column)] for row in data.splitlines()]
        alone = best_us(lambda: list(map(query.predicate, values)),
                        cold=False)
        for path, call in (
                ("pushdown", lambda: pushdown(query, data)),
                ("evaluate", lambda: query.evaluate(data, SCHEMA))):
            cold = best_us(call, cold=True)
            warm = best_us(call, cold=False)
            print(f"{shape:<11}{path:<10}{cold:9.0f}{warm:9.0f}"
                  f"{cold * 1e3 / ROWS:13.0f}{warm * 1e3 / ROWS:13.0f}")
        print(f"{shape:<11}{'predicate':<10}{'':9}{alone:9.0f}"
              f"{'':13}{alone * 1e3 / ROWS:13.0f}")


def passes(seeds, rows: int, shards: int):
    """A fresh table per seed: every shape once per plan, then again."""
    print(f"{rows} rows over {shards} shards, 3 shapes x 2 plans per "
          "pass; the predicate is counted on every call")
    print(f"{'seed':>5}{'first s':>10}{'second s':>10}"
          f"{'predicate calls per pass':>28}")
    for seed in seeds:
        deployment = DistributedScanDeployment(
            n_nodes=4, n_rows=rows, n_shards=shards, seed=seed,
            port=9400)
        deployment.load()
        clear_caches()
        gc.collect()
        spent, calls = [], []
        for _pass in range(2):
            count = [0]

            def counted(test):
                def predicate(value):
                    count[0] += 1
                    return test(value)
                return predicate

            started = time.perf_counter()
            for fields in SHAPES.values():
                query = ScanQuery(**dict(
                    fields, predicate=counted(fields["predicate"])))
                for plan in ("pushdown", "pull"):
                    run_distributed_scan(deployment, query, plan=plan)
            spent.append(time.perf_counter() - started)
            calls.append(count[0])
        print(f"{seed:>5}{spent[0]:>10.3f}{spent[1]:>10.3f}"
              f"{calls[0]:>14} {calls[1]:>13}")


def footprint(rows: int, shards: int):
    """What the decode caches hold once ``scan_pushdown``'s working set
    (every partition, every shape, both plans) has been through them."""
    partitions = DistributedScanDeployment(
        n_nodes=4, n_rows=rows, n_shards=shards, seed=13,
        port=9400).partitions
    clear_caches()
    if hasattr(buffers, "_decoded"):
        buffers._decoded = CountedEvictions()
    gc.collect()
    tracemalloc.start()
    for data in partitions.values():
        for fields in SHAPES.values():
            query = ScanQuery(**fields)
            query.evaluate(data, SCHEMA)
            result = pushdown(query, data)
            if not query.is_aggregate:
                buffers.split_records(result, b"\n")
    gc.collect()
    held, _peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    for cache in LRU_CACHES:
        info = cache.cache_info()
        print(f"{cache.__name__}: {info.currsize} of {info.maxsize} "
              f"entries ({info.misses} misses, {info.hits} hits)")
    if LRU_CACHES:
        evictions = sum(cache.cache_info().misses
                        - cache.cache_info().currsize
                        for cache in LRU_CACHES)
    else:
        decoded = buffers._decoded
        evictions = decoded.evictions
        charged = sum(entry[1] for entry in decoded.values())
        codes = [entry[1] for key, entry in decoded.items()
                 if key[0].__name__ == "column_codes"]
        print(f"decode cache: {len(decoded)} entries "
              f"({len(codes)} column codes, {sum(codes) / 2**20:.2f} MiB), "
              f"{charged / 2**20:.1f} of "
              f"{buffers._DECODE_CACHE_BYTES / 2**20:.0f} MiB charged")
    # Every partition's column decode is still held (a hit), so its
    # fields are live objects and ``id`` tells them apart.
    fields = distinct = 0
    for data in partitions.values():
        columns, _width = buffers.split_columns(data, b"\n", b",")
        fields += len({id(value) for column in columns
                       for value in column})
        distinct += sum(len(set(column)) for column in columns)
    print(f"evictions: {evictions}")
    print(f"field objects in the partitions' column decodes: {fields} "
          f"for {distinct} distinct values per column")
    print(f"held after the sweep: {held / 2**20:.1f} MiB for "
          f"{rows} rows in {len(partitions)} partitions "
          f"({sum(map(len, partitions.values())) / 2**20:.1f} MiB "
          "of table)")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--passes", action="store_true",
                        help="cold/warm passes over fresh deployments")
    parser.add_argument("--footprint", action="store_true",
                        help="entries, MiB, evictions and field objects "
                        "the decode caches hold")
    parser.add_argument("--seeds", default="101,102,103,104,105")
    parser.add_argument("--rows", type=int, default=48_000)
    parser.add_argument("--shards", type=int, default=32)
    args = parser.parse_args()
    if args.passes:
        passes([int(seed) for seed in args.seeds.split(",")],
               args.rows, args.shards)
    elif args.footprint:
        footprint(args.rows, args.shards)
    else:
        row_path()
