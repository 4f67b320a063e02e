"""Self-tests for the benchmark's own pieces.

    python3 perfbench/selftest.py        # from the root of the checkout

They need neither a server build nor a timed run: a seeded schedule must
repeat exactly, the answer checks must catch a planted wrong answer, the
send-lag gate must trip on an injected client stall, and the workload and
metric names must match ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import os
import random
import socket
import sys
import threading
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import loadgen  # noqa: E402
import traced  # noqa: E402
import workloads  # noqa: E402

SMALL = inputs.TableShape(rows=300, dims=3, card=6, zipf=1.0)


def small_plan(seed):
    rng = random.Random(seed)
    records = inputs.make_records(SMALL, rng)
    plan = inputs.QueryPlan(records, SMALL, rng, n_points=40, n_ranges=10,
                            n_explore=10, n_navigate=2)
    pools = workloads.ReadPools(plan, [100.0], rng, skew=1.0)
    reads = workloads.open_loop_reads(pools, workloads.READ_MIX, 500.0, 1.0,
                                      rng, 2)
    return records, plan, reads


class ScheduleTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        a_records, a_plan, a_reads = small_plan(7)
        b_records, b_plan, b_reads = small_plan(7)
        self.assertEqual(a_records, b_records)
        self.assertEqual(a_plan.points, b_plan.points)
        self.assertEqual([(r.due, r.conn, r.line) for r in a_reads],
                         [(r.due, r.conn, r.line) for r in b_reads])

    def test_other_seed_other_inputs(self):
        _, _, a_reads = small_plan(7)
        _, _, b_reads = small_plan(8)
        self.assertNotEqual([r.due for r in a_reads], [r.due for r in b_reads])


def answered(line, lines):
    request = loadgen.Request(0.0, 0, line, "test", None)
    request.lines = lines
    return request


class OracleTest(unittest.TestCase):
    def setUp(self):
        self.records, self.plan, _ = small_plan(3)
        cell = next(c for c in self.plan.points
                    if inputs.scan_truth(self.records, [c]))
        self.cell = cell
        self.value = inputs.scan_truth(self.records, [cell])[cell]
        self.checker = workloads.WireChecker(
            self.records, SMALL.dims, [cell], self.plan.ranges[:1])

    def check(self, command, arg, lines):
        outcome = workloads.Outcome()
        request = answered(workloads.line_of(command, arg), lines)
        request.key = (command, arg)
        self.checker.check(outcome, [request])
        return outcome.failed

    def test_right_point_passes(self):
        self.assertEqual(self.check("point", self.cell, [str(self.value)]), 0)

    def test_planted_wrong_point_fails(self):
        self.assertEqual(
            self.check("point", self.cell, [str(self.value + 1)]), 1)
        self.assertEqual(self.check("point", self.cell, ["NULL"]), 1)
        self.assertEqual(
            self.check("point", self.cell, ["error: QueryError: x"]), 1)

    def test_planted_wrong_range_fails(self):
        spec = self.plan.ranges[0]
        truth = self.checker.expected("range", spec)
        lines = [f"{cell}\t{value}" for cell, value in truth.items()]
        self.assertEqual(
            self.check("range", spec, lines + [f"# {len(lines)} cells"]), 0)
        if lines:
            self.assertEqual(self.check(
                "range", spec, lines[1:] + [f"# {len(lines) - 1} cells"]), 1)

    def test_planted_wrong_iceberg_fails(self):
        threshold = 100.0
        truth = self.checker.expected("iceberg", threshold)
        lines = [f"{cell}\t{value}" for cell, value in truth]
        self.assertEqual(
            self.check("iceberg", threshold, lines + ["# end"]), 0)
        wrong = lines[:-1] + ["*,*,*\t1.0", "# end"]
        self.assertEqual(self.check("iceberg", threshold, wrong), 1)

    def test_iceberg_top_class_may_show_any_write_prefix(self):
        threshold = 100.0
        truth = self.checker.expected("iceberg", threshold)
        top = workloads.oracle.top_cell(SMALL.dims)
        total = dict(truth)[top]
        self.checker.top_values = {total, total + 5.0}

        def answer(top_value, extra=()):
            rows = [(c, top_value if c == top else v) for c, v in truth]
            lines = [f"{c}\t{v}" for c, v in rows + list(extra)]
            return lines + ["# end"]

        self.assertEqual(self.check("iceberg", threshold, answer(total)), 0)
        self.assertEqual(
            self.check("iceberg", threshold, answer(total + 5.0)), 0)
        self.assertEqual(
            self.check("iceberg", threshold, answer(total + 1.0)), 1)
        self.assertEqual(self.check(
            "iceberg", threshold, answer(total, [("x,y,z", 500.0)])), 1)

    def test_live_records_follow_deletes(self):
        extra = ("x", "y", "z", 5.0)
        rows = inputs.live_records(self.records, [("insert", extra),
                                                  ("delete", extra)])
        self.assertEqual(rows, list(self.records))
        with self.assertRaises(ValueError):
            inputs.live_records(self.records, [("delete", extra)])


class NullServer:
    """Answers ``NULL`` to every line, on an ephemeral localhost port."""

    def __init__(self):
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.port = self.listener.getsockname()[1]
        self.thread = threading.Thread(target=self._serve)
        self.thread.start()

    def _serve(self):
        conn, _ = self.listener.accept()
        with conn, conn.makefile("rb") as lines:
            for _ in lines:
                conn.sendall(b"NULL\n")

    def close(self):
        self.listener.close()
        self.thread.join(timeout=10)


class LagGateTest(unittest.TestCase):
    def run_against_null(self, stall):
        server = NullServer()
        conn = loadgen.Connection("127.0.0.1", server.port)
        try:
            due = inputs.poisson_schedule(400.0, 0.5, random.Random(1))
            requests = [loadgen.Request(t, 0, "point a,b,c", "point", None)
                        for t in due]
            gen = loadgen.run_open_loop([conn], requests, stall=stall)
        finally:
            conn.close()
            server.close()
        self.assertFalse(server.thread.is_alive())
        self.assertTrue(all(r.lines == ["NULL"] for r in requests))
        return gen["lags"]

    def test_gate_passes_unstalled(self):
        lags = self.run_against_null(stall=None)
        self.assertTrue(loadgen.lag_ok(lags, workloads.LAG_BOUND_S))

    def test_gate_trips_on_client_stall(self):
        def stall(i):
            if i == 0:
                time.sleep(0.4)

        lags = self.run_against_null(stall=stall)
        self.assertFalse(loadgen.lag_ok(lags, workloads.LAG_BOUND_S))


class NamesTest(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fp:
            self.spec = json.load(fp)

    def test_workloads(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]],
                         list(workloads.WORKLOADS))

    def test_end_to_end_metrics(self):
        self.assertEqual([m["name"] for m in self.spec["end_to_end"]],
                         list(workloads.END_TO_END))

    def test_per_layer_metrics(self):
        self.assertEqual([m["name"] for m in self.spec["per_layer"]],
                         list(traced.PER_LAYER))


if __name__ == "__main__":
    unittest.main()
