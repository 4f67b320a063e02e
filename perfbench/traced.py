"""The traced run: per-layer numbers from spans around each layer's calls.

Spans are recorded in memory by :class:`Tracer` around calls the benchmark
makes into each layer's public functions (name, start, end, parent span,
request id shared by one request's spans), written out as JSON lines at the
end, and reduced to the ``per_layer`` metrics of ``BENCHMARK.json``.  A
metric is the median duration of its span unless the code below marks it
as a count, a ratio or a self time (a span's time minus the layers it is
known to contain).  End-to-end metrics never come from this run.

The layers, in the order measured: ``cube`` (table load),
``core.construct``, ``core.frozen``, ``core.serialize``, the CLI start-up,
``shard.pack``, the query engine in ``core`` via ``ServingSnapshot``,
``core.query_cache``, ``serving.server`` (``QCServer``),
``core.maintenance`` (with its ``reliability.transactional`` tree copy),
``serving.protocol`` and, over TCP, ``serving.async_server``.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import subprocess
import sys
import time

import inputs
import loadgen
import oracle
import workloads
from cli_server import CliServer, repro_env

REPEATS = 3

#: The per-layer metrics the traced run reports, in ``BENCHMARK.json`` order.
PER_LAYER = (
    "cube.table_load_s", "construct.build_s", "construct.nodes",
    "construct.classes", "construct.links", "frozen.freeze_s",
    "serialize.save_s", "serialize.load_s", "cli.startup_s",
    "pack.pack_s", "pack.attach_us", "pack.bytes_per_row",
    "engine.point_us", "engine.range_us", "engine.iceberg_us",
    "engine.explore_us", "engine.navigate_us", "engine.packed_point_us",
    "engine.packed_range_us", "engine.point_accesses",
    "engine.point_answered_frac", "engine.range_cells", "engine.iceberg_rows",
    "cache.server_hit_rate", "cache.warehouse_hit_rate", "cache.invalidations",
    "server.submit_us", "server.dispatch_us", "server.queue_wait_us",
    "server.write_ms", "server.publish_ms",
    "protocol.parse_us", "protocol.format_us",
    "transport.rtt_us", "transport.self_us", "transport.write_rtt_ms",
    "maintain.ms", "maintain.copy_ms", "frozen.refreeze_ms",
    "frozen.patched_frac",
    "loadgen.send_lag_p50_us", "loadgen.send_lag_p99_us", "loadgen.cpu_frac",
    "trace.overhead_frac",
)


class Tracer:
    """In-memory span recorder."""

    def __init__(self):
        self.spans: list = []
        self._open: list = []
        self._rid = 0

    def new_request(self) -> int:
        self._rid += 1
        return self._rid

    def call(self, name, fn, *args, rid=None, **kwargs):
        """``fn(*args, **kwargs)`` inside a span called ``name``."""
        parent = self._open[-1] if self._open else None
        if rid is None:
            rid = self.spans[parent][4] if parent is not None else 0
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, rid])
        self._open.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self._open.pop()
            self.spans[index][2] = time.perf_counter()

    def durations(self, name) -> list:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def p50(self, name) -> float:
        return statistics.median(self.durations(name))

    def write(self, path: str) -> None:
        with open(path, "w") as fp:
            for name, start, end, parent, rid in self.spans:
                fp.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "rid": rid}) + "\n")


def _shape_and_plan(workload, rng):
    if workload == "embedded_cold":
        shape = workloads.COLD_SHAPE
        records = inputs.make_records(shape, rng)
        plan = inputs.QueryPlan(records, shape, rng, n_points=10000,
                                n_ranges=2000, n_explore=1000, n_navigate=8)
        total = workloads.measure_total(records)
        thresholds = sorted({round(total * rng.uniform(0.01, 0.03), 1)
                             for _ in range(20)})
        # No arrival rate of its own: the in-process open-loop probe of
        # the server runs at the ingest_tcp read rate.
        return (shape, records, plan, thresholds, 0.0,
                workloads.INGEST_READ_RATE)
    shape = workloads.HOT_SHAPE
    records = inputs.make_records(shape, rng)
    plan = inputs.QueryPlan(records, shape, rng, n_points=1600, n_ranges=300,
                            n_explore=150, n_navigate=8)
    thresholds = None  # by answer size, once the tree is built
    rate = (workloads.INGEST_READ_RATE if workload == "ingest_tcp"
            else workloads.HOT_RATE)
    return shape, records, plan, thresholds, 1.0, rate


def run(root: str, workload: str, seed: int, seconds: float) -> dict:
    from repro import QCWarehouse, Schema
    from repro.core.construct import build_qctree
    from repro.core.point_query import locate
    from repro.core.serialize import load_qctree_from, save_qctree
    from repro.cube.aggregates import make_aggregate
    from repro.cube.table import BaseTable
    from repro.errors import SchemaError
    from repro.serving import protocol
    from repro.serving.server import QCServer
    from repro.serving.snapshot import ServingSnapshot
    from repro.shard.pack import attach_packed, pack_snapshot_bytes

    rng = random.Random(seed)
    shape, records, plan, thresholds, skew, rate = _shape_and_plan(
        workload, rng)
    schema = Schema(dimensions=tuple(inputs.dim_names(shape.dims)),
                    measures=("M",))
    aggregate = make_aggregate(("sum", "M"))
    scratch = workloads.run_dir(root, workload, seed)
    tree_path = os.path.join(scratch, "tree.qct")
    tr = Tracer()
    m: dict = {}

    # -- setup path: cube, core.construct, core.frozen, core.serialize, CLI
    for _ in range(REPEATS):
        table = tr.call("cube.table_load", BaseTable.from_records, records,
                        schema)
        tree = tr.call("construct.build", build_qctree, table, aggregate)
        frozen = tr.call("frozen.freeze", tree.freeze)
        tr.call("serialize.save", save_qctree, tree, tree_path)
        tr.call("serialize.load", load_qctree_from, tree_path)
        tr.call("cli.startup", subprocess.run,
                [sys.executable, "-m", "repro", "--version"],
                env=repro_env(root), stdout=subprocess.DEVNULL, check=True)
    stats = tree.stats()
    m.update({
        "cube.table_load_s": tr.p50("cube.table_load"),
        "construct.build_s": tr.p50("construct.build"),
        "construct.nodes": stats["nodes"],
        "construct.classes": stats["classes"],
        "construct.links": stats["links"],
        "frozen.freeze_s": tr.p50("frozen.freeze"),
        "serialize.save_s": tr.p50("serialize.save"),
        "serialize.load_s": tr.p50("serialize.load"),
        "cli.startup_s": tr.p50("cli.startup"),
    })

    # -- shard.pack
    for _ in range(REPEATS):
        blob = tr.call("pack.pack", pack_snapshot_bytes, frozen, table)
        attached = tr.call("pack.attach", attach_packed, blob)
        attached.release()
    attached = attach_packed(blob)
    m.update({
        "pack.pack_s": tr.p50("pack.pack"),
        "pack.attach_us": tr.p50("pack.attach") * 1e6,
        "pack.bytes_per_row": len(blob) / len(records),
    })

    # -- the query engine, through a ServingSnapshot with no cache
    snap = ServingSnapshot(frozen, table, aggregate)
    packed = attached.serving_snapshot()
    classes = snap.iceberg(0.0)  # also builds the measure index
    if thresholds is None:
        values = sorted((value for _, value in classes), reverse=True)
        thresholds = [values[rows - 1]
                      for rows in workloads.HOT_ICEBERG_ROWS]
    engine_calls = (
        [("point", "point", c) for c in plan.points]
        + [("range", "range", s) for s in plan.ranges]
        + [("iceberg", "iceberg", t) for t in thresholds]
        + [("explore", op, c) for op, c in plan.explore]
        + [("navigate", op, c) for op, c in plan.navigate])
    answers = {}
    for family, command, arg in engine_calls:
        answers[(command, arg)] = tr.call(
            f"engine.{family}", _warehouse_call, snap, command, arg,
            rid=tr.new_request())
    outcome = workloads.Outcome()
    truth = inputs.scan_truth(records, plan.points)
    ranges = oracle.expected_ranges(records, plan.ranges)
    for cell in plan.points:
        answer = tr.call("engine.packed_point", packed.point, cell,
                         rid=tr.new_request())
        outcome.point(answers[("point", cell)])
        outcome.check(answers[("point", cell)] == truth.get(cell)
                      and answer == truth.get(cell),
                      f"point {cell}: frozen {answers[('point', cell)]}, "
                      f"packed {answer}, scan {truth.get(cell)}")
    for spec in plan.ranges:
        answer = tr.call("engine.packed_range", packed.range, spec,
                         rid=tr.new_request())
        for got in (answers[("range", spec)], answer):
            outcome.check(oracle.normalize("range", got)
                          == ranges[spec], f"range {spec} answered {got}")
    accesses = []
    for cell in plan.points:
        counter = [0]
        try:
            locate(frozen, table.encode_cell(cell), counter)
        except SchemaError:
            continue
        accesses.append(counter[0])
    point_answers = [answers[("point", c)] for c in plan.points]
    m.update({
        "engine.point_us": tr.p50("engine.point") * 1e6,
        "engine.range_us": tr.p50("engine.range") * 1e6,
        "engine.iceberg_us": tr.p50("engine.iceberg") * 1e6,
        "engine.explore_us": tr.p50("engine.explore") * 1e6,
        "engine.navigate_us": tr.p50("engine.navigate") * 1e6,
        "engine.packed_point_us": tr.p50("engine.packed_point") * 1e6,
        "engine.packed_range_us": tr.p50("engine.packed_range") * 1e6,
        "engine.point_accesses": statistics.mean(accesses),
        "engine.point_answered_frac":
            sum(a is not None for a in point_answers) / len(point_answers),
        "engine.range_cells": statistics.mean(
            len(answers[("range", s)]) for s in plan.ranges),
        "engine.iceberg_rows": statistics.mean(
            len(answers[("iceberg", t)]) for t in thresholds),
    })
    m["trace.overhead_frac"] = _overhead(tr, snap, plan.points)

    # -- serving.protocol
    stream = _read_stream(plan, thresholds, rng, skew, 3000)
    for command, arg in stream:
        line = workloads.line_of(command, arg)
        rid = tr.new_request()
        parsed = tr.call("protocol.parse", protocol.parse_line, line,
                         n_dims=shape.dims, rid=rid)
        if (command, arg) in answers:
            tr.call("protocol.format", protocol.format_response, parsed,
                    answers[(command, arg)], rid=rid)
    m["protocol.parse_us"] = tr.p50("protocol.parse") * 1e6
    m["protocol.format_us"] = tr.p50("protocol.format") * 1e6

    # -- serving.server, unloaded and uncached: its own dispatch cost
    with QCServer(QCWarehouse(table, aggregate, tree=tree), workers=4,
                  cache_size=0) as plain:
        for cell in plan.points:
            tr.call("server.submit", lambda c: plain.submit("point", c)
                    .result(), cell, rid=tr.new_request())
    m["server.submit_us"] = tr.p50("server.submit") * 1e6
    m["server.dispatch_us"] = m["server.submit_us"] - m["engine.point_us"]

    # -- core.query_cache: the workload's read stream replayed through the
    # warehouse cache (1024 entries) and the server cache (4096 entries);
    # ingest_tcp's writes are interleaved at its write/read ratio.
    wh_cached = QCWarehouse(table, aggregate, tree=load_qctree_from(tree_path))
    for command, arg in stream:
        _warehouse_call(wh_cached, command, arg)
    m["cache.warehouse_hit_rate"] = \
        wh_cached.stats()["query_cache"]["hit_rate"]
    taken = {r[:-1] for r in records}
    server_wh = QCWarehouse(table, aggregate, tree=load_qctree_from(tree_path))
    with QCServer(server_wh, workers=4, cache_size=4096) as server:
        every = (int(workloads.INGEST_READ_RATE / workloads.INGEST_WRITE_RATE)
                 if workload == "ingest_tcp" else 0)
        pending = []
        for i, (command, arg) in enumerate(stream):
            if every and i % every == every - 1:
                if pending and i % (2 * every) == 2 * every - 1:
                    server.delete([pending.pop(0)])
                else:
                    pending.extend(workloads.fresh_inserts(shape, rng, taken,
                                                           1))
                    server.insert(pending[-1:])
            op, args = _server_op(command, arg)
            tr.call(f"server.replay.{command}",
                    lambda: server.submit(op, *args).result(),
                    rid=tr.new_request())
        cache = server.stats()["cache"]
        m["cache.server_hit_rate"] = cache["hit_rate"]
        m["cache.invalidations"] = cache["invalidations"]
        m["server.queue_wait_us"], shed = _queue_wait(
            server, stream, rate, min(seconds, 3.0), rng, tr)
        for record in workloads.fresh_inserts(shape, rng, taken, REPEATS):
            tr.call("server.write", server.insert, [record],
                    rid=tr.new_request())
            tr.call("server.write", server.delete, [record],
                    rid=tr.new_request())

    # -- core.maintenance with the reliability.transactional tree copy, and
    # the refreeze of core.frozen after each write
    writer = QCWarehouse(table, aggregate, tree=load_qctree_from(tree_path))
    writer.view
    patched = []
    for record in workloads.fresh_inserts(shape, rng, taken, REPEATS):
        for kind in ("inserts", "deletes"):
            rid = tr.new_request()
            tr.call("maintain", writer.maintain, **{kind: [record]}, rid=rid)
            tr.call("frozen.refreeze", writer.snapshot_view, rid=rid)
            patched.append(writer.last_refreeze["mode"] == "patched")
    for _ in range(REPEATS):
        tr.call("maintain.copy", writer.tree.copy)
    m.update({
        "maintain.ms": tr.p50("maintain") * 1e3,
        "maintain.copy_ms": tr.p50("maintain.copy") * 1e3,
        "frozen.refreeze_ms": tr.p50("frozen.refreeze") * 1e3,
        "frozen.patched_frac": sum(patched) / len(patched),
        "server.write_ms": tr.p50("server.write") * 1e3,
    })
    m["server.publish_ms"] = (m["server.write_ms"] - m["maintain.ms"]
                              - m["frozen.refreeze_ms"])

    # -- serving.async_server over TCP, through the CLI server
    csv_path = os.path.join(scratch, "table.csv")
    inputs.write_csv(csv_path, records, shape.dims)
    with CliServer(root, tree_path, csv_path,
                   os.path.join(scratch, "serve.log")) as cli:
        conn = loadgen.Connection(cli.host, cli.port)
        try:
            hot = plan.points[:200]
            workloads.closed_calls(conn, [("point", c) for c in hot], "warm")
            wire = []
            for cell in hot * 5:
                request = loadgen.Request(0.0, 0, workloads.line_of(
                    "point", cell), "point", ("point", cell))
                wire.append(tr.call("transport.rtt", conn.call, request,
                                    rid=tr.new_request()))
            for record in workloads.fresh_inserts(shape, rng, taken, REPEATS):
                for kind in ("insert", "delete"):
                    request = loadgen.Request(0.0, 0, workloads.line_of(
                        kind, record), "write", (kind, record))
                    tr.call("transport.write_rtt", conn.call, request,
                            rid=tr.new_request())
            burst = workloads.open_loop_reads(
                workloads.ReadPools(plan, thresholds, rng, skew),
                workloads.READ_MIX, rate, min(seconds, 3.0), rng, 1)
            gen = loadgen.run_open_loop([conn], burst)
        finally:
            conn.close()
    checker = workloads.WireChecker(records, shape.dims, plan.points,
                                    [r.key[1] for r in burst
                                     if r.family == "range"])
    checked = wire + [r for r in burst if r.family in ("point", "range")]
    checker.check(outcome, checked)
    outcome.attempted = len(plan.points) + len(plan.ranges) + len(checked)
    m["transport.rtt_us"] = tr.p50("transport.rtt") * 1e6
    m["transport.self_us"] = (m["transport.rtt_us"]
                              - tr.p50("server.replay.point") * 1e6
                              - m["protocol.parse_us"]
                              - m["protocol.format_us"])
    m["transport.write_rtt_ms"] = tr.p50("transport.write_rtt") * 1e3
    m["loadgen.send_lag_p50_us"] = loadgen.percentile(gen["lags"], 50) * 1e6
    m["loadgen.send_lag_p99_us"] = loadgen.percentile(gen["lags"], 99) * 1e6
    m["loadgen.cpu_frac"] = gen["cpu_frac"]
    attached.release()

    trace_dir = os.path.join(root, ".perfbench_out", "traces")
    os.makedirs(trace_dir, exist_ok=True)
    tr.write(os.path.join(trace_dir, f"{workload}-{seed}.jsonl"))
    result = workloads.finish(outcome, m, None, gen)
    result["validity"].update(spans=len(tr.spans), queue_wait_shed=shed)
    return result


def _overhead(tr: Tracer, snap, cells) -> float:
    """Extra wall time of the traced point loop over the same loop
    untraced: the median over a few alternating passes."""
    plain, traced = [], []
    for _ in range(9):
        start = time.perf_counter()
        for cell in cells:
            snap.point(cell)
        plain.append(time.perf_counter() - start)
        start = time.perf_counter()
        for cell in cells:
            tr.call("overhead.point", snap.point, cell)
        traced.append(time.perf_counter() - start)
    return statistics.median(traced) / statistics.median(plain) - 1.0


def _read_stream(plan, thresholds, rng, skew, n) -> list:
    pools = workloads.ReadPools(plan, thresholds, rng, skew)
    out = []
    for _ in range(n):
        out.append(pools.draw(workloads.draw_family(rng, workloads.READ_MIX)))
    return out


def _server_op(command, arg):
    if command == "iceberg":
        return "iceberg", (arg, ">=")
    return oracle.METHODS.get(command, command), (arg,)


def _warehouse_call(wh, command, arg):
    op, args = _server_op(command, arg)
    return getattr(wh, op)(*args)


def _queue_wait(server, stream, rate, seconds, rng, tr) -> tuple:
    """Median extra latency of the read stream submitted open-loop at
    ``rate`` from one thread, over the same requests submitted one at a
    time (``server.replay.*`` spans); and how many requests the server
    shed (a pause of the submitting thread sends the overdue ones at once)."""
    from repro.errors import ServerOverloadedError

    due = inputs.poisson_schedule(rate, seconds, rng)
    done: dict = {}
    futures, shed = [], 0
    start = time.perf_counter()
    for i, offset in enumerate(due):
        delay = start + offset - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        op, args = _server_op(*stream[i % len(stream)])
        try:
            future = server.submit(op, *args)
        except ServerOverloadedError:
            shed += 1
            continue
        future.add_done_callback(
            lambda _, i=i: done.__setitem__(i, time.perf_counter()))
        futures.append(future)
    for future in futures:
        future.result(timeout=30)
    loaded = statistics.median(done[i] - (start + due[i]) for i in done)
    unloaded = statistics.median(
        d for s in set(c for c, _ in stream)
        for d in tr.durations(f"server.replay.{s}"))
    return (loaded - unloaded) * 1e6, shed
