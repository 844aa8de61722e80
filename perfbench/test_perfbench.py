#!/usr/bin/env python3
"""Self-test of the benchmark on its small shape.

    python3 perfbench/test_perfbench.py

Checks that the same seed twice gives byte-identical simulated metrics and
traces, that a different seed changes the trace, that the result line has
exactly its four keys and the metric set of its --trace mode, and that
BENCHMARK.json lists exactly the metrics perfbench reports, with the same
units and directions.
"""

import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the sibling build-and-run script)

WORKLOADS = ["paper_jobs", "dc_stream", "dc_faults"]


def catalog():
    out = subprocess.run([run.BINARY, "--catalog"], check=True,
                         stdout=subprocess.PIPE, text=True).stdout
    return json.loads(out)


def bench(workload, seed, trace, trace_dir):
    cmd = [run.BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", "0.1", "--trace", str(trace), "--size", "small",
           "--trace-dir", trace_dir]
    out = subprocess.run(cmd, check=True, stdout=subprocess.PIPE,
                         text=True).stdout
    return json.loads(out.splitlines()[-1])


def simulated(result):
    """The deterministic metrics of a result, serialized."""
    clock = {m["name"]: m["clock"] for m in catalog()}
    sim = {name: metric["value"] for name, metric in result["metrics"].items()
           if clock[name] in ("sim", "count")}
    return json.dumps(sim, sort_keys=True)


def trace_events(path):
    """Simulated-time spans of a trace file (host-time spans dropped)."""
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    return [e for e in events if e["name"] != "setup.host"]


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        if not run.build():
            raise RuntimeError("benchmark build failed")
        cls.trace_dir = os.path.join(run.ROOT, ".bench_build", "test-traces")
        os.makedirs(cls.trace_dir, exist_ok=True)

    def test_benchmark_json_matches_catalog(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        defs = catalog()
        e2e = [(m["name"], m["unit"], m["better"]) for m in defs
               if m["end_to_end"]]
        layer = [(m["name"], m["unit"], m["better"]) for m in defs
                 if not m["end_to_end"]]
        self.assertEqual(e2e, [(m["name"], m["unit"], m["better"])
                               for m in spec["end_to_end"]])
        self.assertEqual(layer, [(m["name"], m["unit"], m["better"])
                                 for m in spec["per_layer"]])
        self.assertEqual(sorted(w["name"] for w in spec["workloads"]),
                         sorted(WORKLOADS))

    def test_result_line_contract(self):
        spec_names = {m["name"]: m["end_to_end"] for m in catalog()}
        for trace in (0, 1):
            result = bench("dc_stream", 5, trace, self.trace_dir)
            self.assertEqual(set(result),
                             {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"])
            self.assertGreaterEqual(result["attempted"], 1)
            want = {n for n, e2e in spec_names.items() if e2e == (trace == 0)}
            self.assertEqual(set(result["metrics"]), want)

    def test_same_seed_gives_identical_simulated_metrics(self):
        for workload in WORKLOADS:
            for trace in (0, 1):
                first = bench(workload, 7, trace, self.trace_dir)
                second = bench(workload, 7, trace, self.trace_dir)
                self.assertEqual(simulated(first), simulated(second),
                                 "%s trace=%d" % (workload, trace))

    def test_seed_changes_the_trace(self):
        path = os.path.join(self.trace_dir, "dc_stream.trace.json")
        bench("dc_stream", 11, 1, self.trace_dir)
        seed11 = trace_events(path)
        bench("dc_stream", 11, 1, self.trace_dir)
        self.assertEqual(seed11, trace_events(path))
        bench("dc_stream", 12, 1, self.trace_dir)
        self.assertNotEqual(seed11, trace_events(path))


if __name__ == "__main__":
    unittest.main()
