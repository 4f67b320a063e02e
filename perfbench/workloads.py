"""The three benchmark workloads, untraced.

``tcp_hot``
    Read-only open-loop Poisson reads at 400/s against the CLI server over
    two connections.  10000 x 5 table, cardinality 20, Zipf 2.  Keys are
    drawn Zipf-hot from pools that together fit in the server's 4096-entry
    cache, so transport, protocol, dispatch and cache cost dominate.
``embedded_cold``
    One caller thread, closed loop, library calls on ``QCWarehouse`` at the
    paper's Figure 14 scale (20000 x 6, cardinality 30).  Keys are uniform
    over 10000 cells, far more than the warehouse's 1024-entry cache, and
    every iceberg threshold is distinct, so the engine dominates.
``ingest_tcp``
    The ``tcp_hot`` server and table.  One connection sends single-record
    inserts and deletes open-loop at 2/s, the other reads at 200/s.  Every
    write pays maintenance, refreeze, publish and a cache invalidation.

The rates keep the server well below a core: on a shared two-core
machine, a server nearer saturation turns every slow stretch of the host
into queueing, and its latencies stop repeating from run to run.

Every workload reports every end-to-end metric, so ``tcp_hot`` and
``embedded_cold`` time single-record inserts in a short closed-loop phase
after their reads.  A few lattice navigation calls are made and checked on
every workload, untimed.  Times are scaled to a reference machine speed
(``calibrate.py``); the raw figures are printed beside them.
"""

from __future__ import annotations

import gc
import os
import random
import statistics
import time
from array import array
from bisect import bisect_left
from collections import defaultdict

import inputs
import loadgen
import oracle
from calibrate import SpeedProbe
from cli_server import CliServer, build_snapshot, vm_hwm_mb
from inputs import STAR, TableShape

#: Setups made per run; ``setup_s`` is their median.
SETUPS = 3
#: A run is invalid when the generator's median send lag exceeds this.
LAG_BOUND_S = 1e-3
#: A run fails when fewer point answers than this share are non-NULL.
POINT_FLOOR = 0.8

#: The end-to-end metrics every workload reports, in ``BENCHMARK.json`` order.
END_TO_END = (
    "setup_s", "read_p50_us", "point_p50_us", "range_p50_us",
    "iceberg_p50_us", "explore_p50_us", "read_cpu_us",
    "write_p50_ms", "write_p90_ms", "peak_rss_mb", "snapshot_bytes_per_row",
)

HOT_SHAPE = TableShape(rows=10000, dims=5, card=20, zipf=2.0)
COLD_SHAPE = TableShape(rows=20000, dims=6, card=30, zipf=2.0)

#: Read mix of every workload.
READ_MIX = (("point", 0.80), ("range", 0.12), ("iceberg", 0.03),
            ("explore", 0.05))
HOT_RATE = 400.0
#: Zipf factor of key popularity within each ``tcp_hot`` key pool.
HOT_SKEW = 1.0
INGEST_READ_RATE = 200.0
INGEST_WRITE_RATE = 2.0
WARM_S = 2.0
#: Lattice navigation calls per run; their answers are checked, untimed.
NAVIGATE = 9
#: Answer sizes (classes) of the few fixed ``tcp_hot`` iceberg thresholds.
HOT_ICEBERG_ROWS = (100, 150, 200, 300)


class Outcome:
    """Attempted and failed operations, with the first few failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list = []
        self.points = 0
        self.points_answered = 0

    def check(self, ok: bool, what: str, count: int = 1) -> None:
        if not ok:
            self.failed += count
            if len(self.notes) < 5:
                self.notes.append(what)

    def point(self, answer) -> None:
        self.points += 1
        self.points_answered += answer is not None

    @property
    def answered_frac(self) -> float:
        return self.points_answered / self.points if self.points else 0.0


def pct(values, q: float, scale: float) -> float:
    return loadgen.percentile(values, q) * scale


def draw_family(rng: random.Random, mix) -> str:
    x, acc = rng.random(), 0.0
    for family, share in mix:
        acc += share
        if x < acc:
            return family
    return mix[-1][0]


def measure_total(records) -> float:
    return sum(r[-1] for r in records)


# -- request lines -----------------------------------------------------------------


def line_of(command: str, arg) -> str:
    if command == "point" or command in oracle.EXPLORE + oracle.NAVIGATE:
        return f"{command} {inputs.cell_text(arg)}"
    if command == "range":
        return f"range {inputs.range_text(arg)}"
    if command == "iceberg":
        return f"iceberg {arg!r} >="
    if command in ("insert", "delete"):
        return f"{command} {inputs.record_text(arg)}"
    raise ValueError(command)


class ReadPools:
    """Per-family key pools.  Points and ranges are drawn Zipf-hot with
    factor ``skew`` (uniformly when it is 0); icebergs and exploration are
    always drawn uniformly, so which of their few, unequally costly keys a
    seed makes hot does not move their medians."""

    def __init__(self, plan, thresholds, rng, skew):
        self.keys = {
            "point": [("point", c) for c in plan.points],
            "range": [("range", s) for s in plan.ranges],
            "iceberg": [("iceberg", t) for t in thresholds],
            "explore": list(plan.explore),
        }
        self.pick = {
            family: (inputs.zipf_picker(len(keys), skew, rng)
                     if skew and family in ("point", "range")
                     else (lambda n=len(keys): rng.randrange(n)))
            for family, keys in self.keys.items() if keys
        }

    def draw(self, family):
        return self.keys[family][self.pick[family]()]

    def all_keys(self, families) -> list:
        return [k for f in families for k in self.keys[f]]


def open_loop_reads(pools, mix, rate, seconds, rng, conns, start=0.0):
    """Poisson read requests spread round-robin over ``conns`` connections."""
    out = []
    for i, due in enumerate(inputs.poisson_schedule(rate, seconds, rng, start)):
        family = draw_family(rng, mix)
        command, arg = pools.draw(family)
        out.append(loadgen.Request(due, i % conns, line_of(command, arg),
                                   family, (command, arg)))
    return out


# -- checking ---------------------------------------------------------------------


class WireChecker:
    """Checks wire answers: points and ranges by plain scan, the rest
    against a dict-tree rebuild of the same records."""

    def __init__(self, records, n_dims, point_cells, range_specs,
                 reference=None, top_values=None):
        self.records = records
        self.n_dims = n_dims
        self.points = inputs.scan_truth(records, point_cells)
        self.ranges = oracle.expected_ranges(records, range_specs)
        self._oracle = reference
        #: While writes land, the values the all-``*`` class may show in an
        #: iceberg answer (every other class must match the records).
        self.top_values = top_values

    def expected(self, command, arg):
        if command == "point":
            return self.points.get(arg)
        if command == "range":
            return self.ranges[arg]
        if command in ("insert", "delete"):
            return "OK"
        if self._oracle is None:
            self._oracle = oracle.DictTreeOracle(self.records, self.n_dims)
        return self._oracle.answer(command, arg)

    def check(self, outcome: Outcome, requests) -> None:
        for r in requests:
            command, arg = r.key
            try:
                got = oracle.parse_wire(command, r.lines)
            except ValueError as exc:
                outcome.check(False, f"{r.line!r}: {exc}")
                continue
            if command == "point":
                outcome.point(got)
            outcome.check(self.matches(command, arg, got),
                          f"{r.line!r} answered {r.lines[:3]}")

    def matches(self, command, arg, got) -> bool:
        want = self.expected(command, arg)
        if command != "iceberg" or self.top_values is None:
            return got == want
        top = oracle.top_cell(self.n_dims)
        got_top = [value for cell, value in got if cell == top]
        return (len(got_top) == 1 and got_top[0] in self.top_values
                and without(got, top) == without(want, top))


def without(pairs, cell) -> list:
    return [pair for pair in pairs if pair[0] != cell]


# -- runs ---------------------------------------------------------------------------


def run_dir(root: str, workload: str, seed: int) -> str:
    """The run's scratch directory in the checkout (``run.py`` removes it)."""
    path = os.path.join(root, ".perfbench_out", f"{workload}-{seed}")
    os.makedirs(path, exist_ok=True)
    return path


class Context:
    """One run's scratch directory and its speed probe."""

    def __init__(self, root: str, workload: str, seed: int):
        self.root = root
        self.dir = run_dir(root, workload, seed)
        self.probe = SpeedProbe(self.path("speed.txt"))

    def path(self, name: str) -> str:
        return os.path.join(self.dir, name)

    def __enter__(self) -> "Context":
        return self

    def __exit__(self, *exc) -> None:
        self.probe.stop()


class Unscaled:
    """Stands in for the speed probe to give the raw figures."""

    @staticmethod
    def factor(start, end) -> float:
        return 1.0

    @staticmethod
    def factor_at(instant) -> float:
        return 1.0


class Samples:
    """What a run timed, as ``(instant, value)`` pairs, reduced to metrics
    with times scaled by the machine speed where they were measured."""

    def __init__(self):
        self.setups: list = []    # (start, end)
        self.reads: list = []     # (instant, family, seconds)
        self.read_cpu: list = []  # (window start, window end, cpu s, reads)
        self.writes: list = []    # (instant, seconds)

    def metrics(self, speed, families, peak_rss, snapshot_bytes, n_rows,
                cpu_speed=None):
        """With ``cpu_speed``, the CPU per read is the median over the
        seconds of the run, each scaled by its speed factor.  Without it,
        it is the whole run's CPU over its reads, as measured: the server
        CPU the TCP runs read from ``/proc`` (in 10 ms ticks) repeated within
        5% across runs unscaled, while the speed probe's factor followed
        the wake-up delays the client sees instead."""
        at = speed.factor_at
        scaled = [(t, family, d * at(t)) for t, family, d in self.reads]
        out = {
            "setup_s": statistics.median(
                (end - start) * speed.factor(start, end)
                for start, end in self.setups),
            "read_p50_us": windowed(scaled, 50) * 1e6,
            "read_cpu_us": (
                statistics.median(cpu / reads * cpu_speed.factor(start, end)
                                  for start, end, cpu, reads in self.read_cpu)
                if cpu_speed is not None
                else sum(row[2] for row in self.read_cpu)
                / sum(row[3] for row in self.read_cpu)) * 1e6,
            "write_p50_ms": pct([d * at(t) for t, d in self.writes], 50, 1e3),
            "write_p90_ms": pct([d * at(t) for t, d in self.writes], 90, 1e3),
            "peak_rss_mb": peak_rss,
            "snapshot_bytes_per_row": snapshot_bytes / n_rows,
        }
        for family in families:
            out[f"{family}_p50_us"] = windowed(
                [s for s in scaled if s[1] == family], 50) * 1e6
        return out

    def add_requests(self, requests) -> None:
        self.reads.extend((r.due, r.family, r.latency) for r in requests)


def windowed(samples, q: float) -> float:
    """The median over one-second windows of each window's ``q``-th
    percentile: a few slow seconds on a shared machine move it little."""
    if not samples:
        raise ValueError("no samples")
    start = min(t for t, _, _ in samples)
    windows = defaultdict(list)
    for t, _, value in samples:
        windows[int(t - start)].append(value)
    full = [v for v in windows.values() if len(v) >= 5]
    return statistics.median(loadgen.percentile(v, q) for v in full or
                             windows.values())


def cpu_ticker(server):
    """A ``tick`` for :func:`loadgen.run_open_loop` sampling the server's
    CPU, and the list it fills with ``(instant, cpu seconds)``."""
    ticks = []

    def tick(now):
        ticks.append((now, server.cpu_s()))

    return ticks, tick


def cpu_rows(ticks, requests) -> list:
    """``read_cpu`` rows: server CPU per whole second between ticks, with
    the number of reads due in that second."""
    dues = sorted(r.due for r in requests if r.family != "write")
    rows = []
    for (start, cpu0), (end, cpu1) in zip(ticks, ticks[1:]):
        reads = bisect_left(dues, end) - bisect_left(dues, start)
        if end - start >= 0.9 and reads:
            rows.append((start, end, cpu1 - cpu0, reads))
    return rows


def tcp_setup(ctx: Context, samples: Samples, records, n_dims: int):
    """``SETUPS`` times: build the snapshot, start the server.  Keeps the
    last server; returns it and the snapshot size."""
    csv_path = ctx.path("table.csv")
    inputs.write_csv(csv_path, records, n_dims)
    server = None
    for i in range(SETUPS):
        if server is not None:
            server.stop()
        tree_path = ctx.path(f"tree-{i}.qct")
        start = time.perf_counter()
        build_s = build_snapshot(ctx.root, csv_path, tree_path, n_dims)
        server = CliServer(ctx.root, tree_path, csv_path, ctx.path("serve.log"))
        samples.setups.append((start, start + build_s + server.startup_s))
    return server, os.path.getsize(tree_path)


def closed_calls(conn, items, family) -> list:
    """Send ``(command, arg)`` items one at a time; returns the requests."""
    out = []
    for command, arg in items:
        r = loadgen.Request(0.0, 0, line_of(command, arg), family,
                            (command, arg))
        out.append(conn.call(r))
    return out


def timed(requests) -> list:
    return [(r.due, r.latency) for r in requests]


def fresh_inserts(shape, rng, taken, n):
    """``n`` records over the colder half of every dimension's labels, none
    sharing its dimensions with a record in ``taken`` (updated in place)."""
    out = []
    while len(out) < n:
        dims = tuple(inputs.label(d, rng.randrange(shape.card // 2, shape.card))
                     for d in range(shape.dims))
        if dims in taken:
            continue
        taken.add(dims)
        out.append(dims + (float(rng.randint(1, 99)),))
    return out


def iceberg_thresholds(reference) -> list:
    """Thresholds whose answers hold about ``HOT_ICEBERG_ROWS`` classes, so
    the answer size does not change with the seed."""
    values = sorted((value for _, value in
                     reference.warehouse.iceberg(0.0, ">=")), reverse=True)
    return [values[rows - 1] for rows in HOT_ICEBERG_ROWS]


def run_tcp_hot(root: str, seed: int, seconds: float) -> dict:
    rng = random.Random(seed)
    shape = HOT_SHAPE
    records = inputs.make_records(shape, rng)
    plan = inputs.QueryPlan(records, shape, rng, n_points=1600, n_ranges=300,
                            n_explore=150, n_navigate=NAVIGATE)
    reference = oracle.DictTreeOracle(records, shape.dims)
    pools = ReadPools(plan, iceberg_thresholds(reference), rng, skew=HOT_SKEW)
    warm = open_loop_reads(pools, READ_MIX, HOT_RATE, WARM_S, rng, 2)
    reads = open_loop_reads(pools, READ_MIX, HOT_RATE, seconds, rng, 2)
    writes = fresh_inserts(shape, rng, {r[:-1] for r in records}, 41)

    samples = Samples()
    with Context(root, "tcp_hot", seed) as ctx:
        server, snapshot_bytes = tcp_setup(ctx, samples, records, shape.dims)
        with server:
            conns = [loadgen.Connection(server.host, server.port)
                     for _ in range(2)]
            try:
                sweep = closed_calls(conns[0], pools.all_keys(
                    ("point", "range", "iceberg", "explore")), "warm")
                loadgen.run_open_loop(conns, warm)
                ticks, tick = cpu_ticker(server)
                gen = loadgen.run_open_loop(conns, reads, tick=tick)
                navigate = closed_calls(conns[0], plan.navigate, "navigate")
                # The first write builds the server's cover index: it and
                # its delete are warm-up.  Then 40 timed inserts.
                warm_writes = closed_calls(
                    conns[0], [("insert", writes[0]), ("delete", writes[0])],
                    "warm")
                tail = closed_calls(
                    conns[0], [("insert", w) for w in writes[1:]], "write")
                peak_rss = server.peak_rss_mb()
            finally:
                for conn in conns:
                    conn.close()
        samples.add_requests(reads)
        samples.read_cpu = cpu_rows(ticks, reads)
        samples.writes = timed(tail)
        families = ("point", "range", "iceberg", "explore")
        figures = (families, peak_rss, snapshot_bytes, len(records))
        metrics = samples.metrics(ctx.probe, *figures)
        raw = samples.metrics(Unscaled, *figures)

    outcome = Outcome()
    checker = WireChecker(records, shape.dims, plan.points, plan.ranges,
                          reference)
    everything = sweep + warm + reads + navigate + warm_writes + tail
    outcome.attempted = len(everything)
    checker.check(outcome, everything)
    return finish(outcome, metrics, raw, gen)


def finish(outcome, metrics, raw, gen=None) -> dict:
    validity = {"point_answered_frac": outcome.answered_frac, "raw": raw}
    reasons = list(outcome.notes)
    lags_ok = True
    if gen is not None:
        lag_p50 = loadgen.percentile(gen["lags"], 50)
        lags_ok = loadgen.lag_ok(gen["lags"], LAG_BOUND_S)
        validity.update({
            "loadgen_send_lag_p50_us": lag_p50 * 1e6,
            "loadgen_send_lag_p99_us":
                loadgen.percentile(gen["lags"], 99) * 1e6,
            "loadgen_cpu_frac": gen["cpu_frac"],
        })
        if not lags_ok:
            reasons.append(
                f"generator send lag p50 {lag_p50 * 1e6:.0f}us exceeds "
                f"{LAG_BOUND_S * 1e6:.0f}us: the run measured the client")
    if outcome.answered_frac < POINT_FLOOR:
        reasons.append(
            f"only {outcome.answered_frac:.2f} of point answers are non-NULL "
            f"(floor {POINT_FLOOR})")
    return {
        "correct": outcome.failed == 0 and lags_ok
        and outcome.answered_frac >= POINT_FLOOR,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
        "validity": validity,
        "reasons": reasons,
    }


def run_ingest_tcp(root: str, seed: int, seconds: float) -> dict:
    rng = random.Random(seed)
    shape = HOT_SHAPE
    records = inputs.make_records(shape, rng)
    taken = {r[:-1] for r in records}

    # The write plan: 60% inserts of fresh records, 40% deletes of the
    # oldest record this run inserted and has not deleted yet.
    write_due = inputs.even_schedule(INGEST_WRITE_RATE, seconds, rng)
    writes, live = [], []
    for _ in write_due:
        if live and rng.random() < 0.4:
            writes.append(("delete", live.pop(0)))
        else:
            record = fresh_inserts(shape, rng, taken, 1)[0]
            live.append(record)
            writes.append(("insert", record))
    inserted = [record for kind, record in writes if kind == "insert"]
    warm_record = fresh_inserts(shape, rng, taken, 1)[0]

    final = inputs.live_records(records, writes)
    reference = oracle.DictTreeOracle(records, shape.dims)
    final_reference = oracle.DictTreeOracle(final, shape.dims)

    # Reads keep to queries no planned write changes, so their ground truth
    # holds while the writes land: point and range cells, and the class of
    # cells, that cover no written record (exploration is the ``class`` op
    # only: a rollup's answer can hold classes that a write and its later
    # delete change in between), and icebergs equal before and after but
    # for the value of the all-* class, which must be the measure total
    # after some prefix of the writes.
    def untouched(cell):
        fixed = [(d, v) for d, v in enumerate(cell) if v != STAR]
        return fixed and not any(all(r[d] == v for d, v in fixed)
                                 for r in inserted + [warm_record])

    top = oracle.top_cell(shape.dims)
    plan = inputs.QueryPlan(records, shape, rng, n_points=1600, n_ranges=300,
                            n_explore=150, n_navigate=0)
    plan.points = [c for c in plan.points if untouched(c)]
    plan.ranges = [s for s in plan.ranges
                   if all(untouched(c) for c in inputs.range_cells(s))]
    plan.explore = [("class", c) for _, c in plan.explore if untouched(c)]
    # One threshold: each write invalidates the cache, so the first iceberg
    # after it misses and rebuilds the measure index; with more thresholds
    # the share of misses, and so the median, would swing between runs.
    thresholds = [
        t for t in iceberg_thresholds(reference)[1:2]
        if without(reference.answer("iceberg", t), top)
        == without(final_reference.answer("iceberg", t), top)]
    totals, total = set(), measure_total(records)
    totals.add(total)
    for kind, record in writes:
        total += record[-1] if kind == "insert" else -record[-1]
        totals.add(total)
    pools = ReadPools(plan, thresholds, rng, skew=HOT_SKEW)
    warm = open_loop_reads(pools, READ_MIX, INGEST_READ_RATE, WARM_S, rng, 1)
    reads = open_loop_reads(pools, READ_MIX, INGEST_READ_RATE, seconds,
                            rng, 1)
    for r in warm + reads:
        r.conn = 1
    write_requests = [
        loadgen.Request(due, 0, line_of(kind, record), "write",
                        (kind, record))
        for due, (kind, record) in zip(write_due, writes)]
    schedule = sorted(reads + write_requests, key=lambda r: r.due)
    probe_items = final_state_items(final, shape, rng, final_reference)

    samples = Samples()
    with Context(root, "ingest_tcp", seed) as ctx:
        server, snapshot_bytes = tcp_setup(ctx, samples, records, shape.dims)
        with server:
            conns = [loadgen.Connection(server.host, server.port)
                     for _ in range(2)]
            try:
                sweep = closed_calls(conns[1], pools.all_keys(
                    ("point", "range", "iceberg", "explore")), "warm")
                sweep += closed_calls(conns[0], [("insert", warm_record),
                                                  ("delete", warm_record)],
                                      "warm")
                loadgen.run_open_loop(conns, warm)
                ticks, tick = cpu_ticker(server)
                gen = loadgen.run_open_loop(conns, schedule, tick=tick)
                probe = []
                for family, items in probe_items:
                    probe += closed_calls(conns[1], items, family)
                peak_rss = server.peak_rss_mb()
            finally:
                for conn in conns:
                    conn.close()
        samples.add_requests(reads)
        samples.read_cpu = cpu_rows(ticks, reads)
        samples.writes = timed(write_requests)
        families = ("point", "range", "iceberg", "explore")
        figures = (families, peak_rss, snapshot_bytes, len(records))
        metrics = samples.metrics(ctx.probe, *figures)
        raw = samples.metrics(Unscaled, *figures)

    outcome = Outcome()
    base_checker = WireChecker(records, shape.dims, plan.points, plan.ranges,
                               reference, top_values=totals)
    final_checker = WireChecker(
        final, shape.dims, [r.key[1] for r in probe if r.key[0] == "point"],
        [], final_reference)
    outcome.attempted = len(sweep) + len(warm) + len(schedule) + len(probe)
    base_checker.check(outcome, sweep + warm + reads)
    final_checker.check(outcome, write_requests + probe)
    return finish(outcome, metrics, raw, gen)


def final_state_items(final, shape, rng, reference) -> list:
    """``[(family, [(command, arg), ...]), ...]`` read after the writes and
    checked against the final records: points over cells the writes
    changed, icebergs, exploration and navigation."""
    n = shape.dims
    recent = final[-40:]
    points = {(STAR,) * n}
    while len(points) < 120:
        record = rng.choice(recent if rng.random() < 0.5 else final)
        points.add(inputs.project(record, set(rng.sample(range(n), 2))))
    plan = inputs.QueryPlan(final, shape, rng, n_points=0, n_ranges=0,
                            n_explore=40, n_navigate=NAVIGATE)
    return [
        ("probe", [("point", c) for c in sorted(points)]),
        ("iceberg", [("iceberg", t) for t in iceberg_thresholds(reference)
                     for _ in range(5)]),
        ("explore", plan.explore),
        ("navigate", plan.navigate),
    ]


# -- embedded ---------------------------------------------------------------------


def run_embedded_cold(root: str, seed: int, seconds: float) -> dict:
    from repro import QCWarehouse, Schema
    from repro.core.serialize import save_qctree

    rng = random.Random(seed)
    shape = COLD_SHAPE
    records = inputs.make_records(shape, rng)
    plan = inputs.QueryPlan(records, shape, rng, n_points=10000,
                            n_ranges=2000, n_explore=1000,
                            n_navigate=NAVIGATE)
    total = measure_total(records)
    pools = ReadPools(plan, [], rng, skew=0.0)
    stream = []
    for _ in range(400_000):
        family = draw_family(rng, READ_MIX)
        if family == "iceberg":
            stream.append(("iceberg", "iceberg",
                           round(total * rng.uniform(0.01, 0.03), 1)))
        else:
            command, arg = pools.draw(family)
            stream.append((family, command, arg))
    writes = fresh_inserts(shape, rng, {r[:-1] for r in records}, 11)
    schema = Schema(dimensions=tuple(inputs.dim_names(shape.dims)),
                    measures=("M",))

    samples = Samples()
    with Context(root, "embedded_cold", seed) as ctx:
        for _ in range(SETUPS):
            wh = None
            gc.collect()
            start = time.perf_counter()
            wh = QCWarehouse.from_records(records, schema,
                                          aggregate=("sum", "M"))
            wh.view
            samples.setups.append((start, time.perf_counter()))
        save_qctree(wh.tree, ctx.path("tree.qct"))
        snapshot_bytes = os.path.getsize(ctx.path("tree.qct"))

        calls = {
            "point": wh.point, "range": wh.range, "rollup": wh.rollup,
            "rollup_exceptions": wh.rollup_exceptions, "class": wh.class_of,
            "iceberg": wh.iceberg, "drilldowns": wh.drilldowns,
            "rollups": wh.rollups, "open": wh.open_class,
        }
        loop = ClosedLoop(calls)
        loop.run(stream, 1.0)  # warm-up: fills the view's measure index
        loop.run(stream, seconds, samples)
        loop.batch(plan.navigate)
        # The first write builds the warehouse's cover index: it and its
        # delete are warm-up.  Then 10 timed inserts, each made visible.
        wh.insert(writes[:1])
        wh.delete(writes[:1])
        wh.view
        for record in writes[1:]:
            start = time.perf_counter()
            wh.insert([record])
            wh.view
            samples.writes.append((start, time.perf_counter() - start))
        peak_rss = vm_hwm_mb()
        samples.reads = loop.read_samples()
        families = ("point", "range", "iceberg", "explore")
        figures = (families, peak_rss, snapshot_bytes, len(records))
        metrics = samples.metrics(ctx.probe, *figures, cpu_speed=ctx.probe)
        raw = samples.metrics(Unscaled, *figures)

        final = records + writes[1:]
        after = [inputs.project(w, set(range(k)))
                 for w in writes[1:] for k in (1, 3, shape.dims)]
        after_answers = [(cell, wh.point(cell)) for cell in after]
        hit_rate = wh.stats()["query_cache"]["hit_rate"]

    outcome = Outcome()
    outcome.attempted = (loop.calls + len(plan.navigate) + len(writes) + 1
                         + len(after))
    loop.check(outcome, records, shape.dims)
    after_truth = inputs.scan_truth(final, after)
    for cell, answer in after_answers:
        outcome.check(answer == after_truth.get(cell),
                      f"point {cell} after writes answered {answer}")
    result = finish(outcome, metrics, raw)
    result["validity"]["warehouse_cache_hit_rate"] = hit_rate
    return result


class ClosedLoop:
    """One caller thread calling the warehouse back to back.

    Keeps the first answer to each distinct query for checking after the
    run, and compares every repeat with it as it goes.  Iceberg answers
    (every threshold is distinct) are kept for a sample of 60 calls.
    """

    ICEBERG_SAMPLE = 60

    def __init__(self, calls):
        self.calls_by_command = calls
        self.first: dict = {}
        self.seen: dict = defaultdict(int)
        self.repeat_mismatch = 0
        self.calls = 0
        self.icebergs: list = []
        self.position = 0
        self.starts = array("d")
        self.durations = array("d")
        self.families: list = []

    def read_samples(self) -> list:
        return list(zip(self.starts, self.families, self.durations))

    def run(self, stream, seconds, samples=None):
        """Call through ``stream`` for ``seconds``; with ``samples``, record
        each call's start and duration (in arrays, so the record does not
        weigh on the peak memory measured) and one ``read_cpu`` row per
        second."""
        calls = self.calls_by_command
        first, seen = self.first, self.seen
        starts, durations = self.starts, self.durations
        clock, cpu_clock = time.perf_counter, time.process_time
        n = len(stream)
        i = start = self.position
        window = clock()
        end = window + seconds
        cpu, in_window = 0.0, 0
        while True:
            family, command, arg = stream[i % n]
            i += 1
            c0 = cpu_clock()
            t0 = clock()
            answer = calls[command](arg)
            t1 = clock()
            cpu += cpu_clock() - c0
            in_window += 1
            if samples is not None:
                starts.append(t0)
                durations.append(t1 - t0)
                self.families.append(family)
            if t1 - window >= 1.0:
                if samples is not None:
                    samples.read_cpu.append((window, t1, cpu, in_window))
                window, cpu, in_window = t1, 0.0, 0
            if family == "iceberg":
                if len(self.icebergs) < self.ICEBERG_SAMPLE and i % 7 == 0:
                    self.icebergs.append((arg, answer))
            else:
                key = (command, arg)
                seen[key] += 1
                if seen[key] == 1:
                    first[key] = answer
                elif first[key] != answer:
                    self.repeat_mismatch += 1
            if t1 >= end:
                break
        self.calls += i - start
        self.position = i

    def batch(self, items) -> None:
        """Call each item once, untimed, keeping its answer for checking."""
        for command, arg in items:
            self.first[(command, arg)] = self.calls_by_command[command](arg)
            self.seen[(command, arg)] += 1

    def check(self, outcome: Outcome, records, n_dims) -> None:
        outcome.check(self.repeat_mismatch == 0,
                      f"{self.repeat_mismatch} repeated queries changed answer",
                      count=self.repeat_mismatch)
        by_command = defaultdict(list)
        for (command, arg), answer in self.first.items():
            by_command[command].append((arg, answer))
        truth = inputs.scan_truth(records, [a for a, _ in by_command["point"]])
        for cell, answer in by_command["point"]:
            outcome.point(answer)
            outcome.check(answer == truth.get(cell),
                          f"point {cell} answered {answer}",
                          count=self.seen[("point", cell)])
        specs = [a for a, _ in by_command["range"]]
        expected = oracle.expected_ranges(records, specs)
        for spec, answer in by_command["range"]:
            outcome.check(oracle.normalize("range", answer) == expected[spec],
                          f"range {spec} answered {answer}",
                          count=self.seen[("range", spec)])
        ref = oracle.DictTreeOracle(records, n_dims)
        for command, items in by_command.items():
            if command in ("point", "range"):
                continue
            for arg, answer in items:
                outcome.check(
                    oracle.normalize(command, answer)
                    == ref.answer(command, arg),
                    f"{command} {arg} answered {str(answer)[:200]}",
                    count=self.seen[(command, arg)])
        for threshold, answer in self.icebergs:
            outcome.check(oracle.normalize("iceberg", answer)
                          == ref.answer("iceberg", threshold),
                          f"iceberg {threshold} answered {str(answer)[:200]}")


WORKLOADS = {
    "tcp_hot": run_tcp_hot,
    "embedded_cold": run_embedded_cold,
    "ingest_tcp": run_ingest_tcp,
}
