"""Self-tests of the benchmark's own arithmetic and tracing.

    python3 -m pytest perfbench/test_bench.py
"""

from __future__ import annotations

import json
import sys
import types
import unittest
from pathlib import Path

import run
from check import SweepReference, check_classify, check_sweep
from speed import REFERENCE_S, Sampler
from stats import beta_cdf, count_failed, failed_fraction, graph_time_summary, percentile, tail_percentile
from tracer import Tracer, layer_metrics, per_layer_metric_names, span_times
from workloads import CliRun, GraphInput, PassResult, Workload, import_homhom, patched

import_homhom()


class PercentileRule(unittest.TestCase):
    def test_named_population_sizes(self) -> None:
        self.assertEqual(tail_percentile(208), 95)
        self.assertEqual(tail_percentile(996), 98)
        self.assertIsNone(tail_percentile(19))
        self.assertEqual(tail_percentile(20), 50)
        self.assertEqual(tail_percentile(21), 52)

    def test_tail_is_the_highest_percentile_with_ten_beyond(self) -> None:
        for n in range(20, 3000):
            p = tail_percentile(n)
            beyond = n - -(-p * n // 100)
            self.assertGreaterEqual(beyond, 10, n)
            if p < 99:
                self.assertLess(n - -(-(p + 1) * n // 100), 10, n)

    def test_beta_cdf(self) -> None:
        for x in (0.01, 0.3, 0.77):
            self.assertAlmostEqual(beta_cdf(x, 1, 1), x, places=12)
            self.assertAlmostEqual(beta_cdf(x, 4.5, 1), x**4.5, places=12)
            self.assertAlmostEqual(beta_cdf(x, 85.4, 10.6), 1 - beta_cdf(1 - x, 10.6, 85.4), places=12)
        self.assertAlmostEqual(beta_cdf(0.5, 37.5, 37.5), 0.5, places=12)

    def test_harrell_davis(self) -> None:
        xs = list(range(1, 102))
        self.assertAlmostEqual(percentile(xs, 50), 51, places=9)  # symmetric sample
        self.assertAlmostEqual(percentile([7.0] * 30, 95), 7.0, places=9)
        self.assertTrue(95 < percentile(xs, 95) < 97)

    def test_graph_time_summary(self) -> None:
        summary = graph_time_summary([ms * 1_000_000 for ms in range(208, 0, -1)])
        self.assertEqual((summary["n"], summary["tail_p"]), (208, 95))
        self.assertAlmostEqual(summary["p50"], 104.5, places=6)
        self.assertTrue(197 < summary["tail"] < 200)
        few = graph_time_summary([3_000_000, 1_000_000, 2_000_000])
        self.assertEqual((few["tail_p"], few["tail"]), (50, few["p50"]))


class SpeedScaling(unittest.TestCase):
    def test_each_graph_is_scaled_by_the_points_around_it(self) -> None:
        sampler = Sampler()
        sampler.points = [REFERENCE_S, 3 * REFERENCE_S, REFERENCE_S]
        sampler.epochs = [0, 0, 1]  # two graphs before the middle point, one after
        self.assertEqual(sampler.graph_scales(), [0.5, 0.5, 0.5])
        sampler.points = [REFERENCE_S, REFERENCE_S / 2, REFERENCE_S / 2]
        self.assertAlmostEqual(sampler.graph_scales()[2], 2.0)


class SelfTime(unittest.TestCase):
    def test_nested_spans(self) -> None:
        # root [0,100] > a [10,40] > leaf [15,25];  root > b [50,90];  a again [95,99] under root
        names = ["root", "a", "leaf", "b"]
        name_ids = [0, 1, 2, 3, 1]
        start = [0, 10, 15, 50, 95]
        end = [100, 40, 25, 90, 99]
        parent = [-1, 0, 1, 0, 0]
        times = span_times(names, name_ids, start, end, parent)
        ns = {k: (round(s * 1e9), round(own * 1e9)) for k, (s, own) in times.items()}
        self.assertEqual(ns["root"], (100, 100 - 30 - 40 - 4))
        self.assertEqual(ns["a"], (30 + 4, 20 + 4))
        self.assertEqual(ns["leaf"], (10, 10))
        self.assertEqual(ns["b"], (40, 40))


    def test_cli_self_s_is_the_whole_cli_layer(self) -> None:
        # cli.main [0,100] > cli.sweep_record [10,90] > oracle [20,80]
        tracer = Tracer()
        tracer.names = ["cli.main", "cli.sweep_record", "oracle.is_class_member.homo-homo"]
        tracer.name.extend([0, 1, 2])
        tracer.start.extend([0, 10, 20])
        tracer.end.extend([100, 90, 80])
        tracer.parent.extend([-1, 0, 1])
        values = layer_metrics(tracer)
        self.assertAlmostEqual(values["cli.main.self_s"] * 1e9, 20)
        self.assertAlmostEqual(values["cli.sweep_record.self_s"] * 1e9, 20)
        self.assertAlmostEqual(values["cli.self_s"] * 1e9, 40)


class FailureAccounting(unittest.TestCase):
    def test_count_failed(self) -> None:
        requested = [("g", "iso-iso"), ("g", "mono-iso"), ("h", "iso-iso"), ("h", "mono-iso")]
        outcomes = {("g", "iso-iso"): True, ("g", "mono-iso"): False, ("h", "iso-iso"): None}
        self.assertEqual(count_failed(requested, outcomes), 2)  # one undecided, one missing
        self.assertEqual(failed_fraction(4, 2), 0.5)
        with self.assertRaises(ValueError):
            failed_fraction(0, 0)
        with self.assertRaises(ValueError):
            failed_fraction(3, 4)

    def test_classify_records(self) -> None:
        from homhom.families import complete_graph

        g = complete_graph(3)
        inputs = [GraphInput(label, label, g, "", {"iso-iso": True, "homo-homo": True}) for label in "abc"]
        workload = Workload("recognize-large", 0, ("iso-iso", "homo-homo"), graphs=inputs)
        ok = json.dumps({"classes": {"iso-iso": {"verdict": "yes"}, "homo-homo": {"verdict": "yes"}}})
        undecided = json.dumps({"classes": {"iso-iso": {"verdict": "yes"}, "homo-homo": {"verdict": "oracle-only"}}})
        runs = [CliRun(0, ok, ""), CliRun(0, undecided, ""), CliRun(None, "", "", "ValueError: too big")]
        check = check_classify(workload, PassResult(1, [1, 1, 1], list(zip(inputs, runs))), {}, lambda *a: True)
        self.assertEqual((check.attempted, check.failed, check.errors), (6, 3, []))

    def test_sweep_records_not_summary(self) -> None:
        ref = SweepReference({"@": {"homo-homo": [True, True]}, "A_": {"homo-homo": [True, True]}})
        records = [
            {"graph6": "@", "mismatch": False, "witnesses": [], "verdicts": {"homo-homo": {"recognizer": True, "oracle": True}}},
            {"graph6": "A_", "mismatch": False, "witnesses": [], "verdicts": {"homo-homo": {"recognizer": True, "oracle": None}}},
        ]
        # the summary folds the budget abort into the recognizer verdict
        summary = {"mismatchCount": 0, "perClass": {"homo-homo": {"yes": 2, "no": 0, "unknown": 0}}}
        out = "\n".join(json.dumps(r) for r in records)
        result = PassResult(1, [1, 1], [(None, CliRun(0, out, json.dumps(summary)))])
        workload = Workload("sweep-n7c-hh", 0, ("homo-homo",))
        check = check_sweep(workload, result, ref, lambda *a: True)
        self.assertEqual((check.attempted, check.failed, check.errors), (2, 1, []))

    def test_reference_found_by_isomorphism(self) -> None:
        from homhom.graphs import from_graph6, to_graph6
        from homhom.families import path_graph

        ref = SweepReference({to_graph6(path_graph(3)): {"homo-homo": [True, True]}})
        relabelled = "Cp"  # the path 1-0-2-3, another labelling of P4
        self.assertNotIn(relabelled, ref.graphs)
        self.assertEqual(ref.key(relabelled, from_graph6(relabelled)), to_graph6(path_graph(3)))
        self.assertIsNone(ref.key("C~", from_graph6("C~")))  # K4

    def test_wrong_verdict_is_an_error(self) -> None:
        ref = SweepReference({"@": {"homo-homo": [True, True]}})
        rec = {"graph6": "@", "mismatch": False, "witnesses": [], "verdicts": {"homo-homo": {"recognizer": True, "oracle": False}}}
        result = PassResult(1, [1], [(None, CliRun(0, json.dumps(rec), json.dumps({"mismatchCount": 0})))])
        check = check_sweep(Workload("sweep-n7c-hh", 0, ("homo-homo",)), result, ref, lambda *a: True)
        self.assertEqual(len(check.errors), 1)


class Tracing(unittest.TestCase):
    def test_patches_every_binding_and_restores(self) -> None:
        def f() -> int:
            return 1

        a, b = types.ModuleType("a"), types.ModuleType("b")
        a.f = b.g = f
        with patched([a, b], f, lambda: 2):
            self.assertEqual((a.f(), b.g()), (2, 2))
        self.assertIs(a.f, f)
        self.assertIs(b.g, f)

    def test_counts_calls_through_imported_names(self) -> None:
        from homhom import morphisms, oracle
        from homhom.families import path_graph

        original = morphisms.complete_map
        tracer = Tracer()
        with tracer.installed():
            self.assertIsNot(oracle.complete_map, original)
            result = oracle.is_class_member(path_graph(3), oracle.query_for_code("iso-homo"))
        self.assertIs(oracle.complete_map, original)
        self.assertIs(morphisms.complete_map, original)
        counts = tracer.counts
        self.assertEqual(counts["oracle.is_class_member.iso-homo.calls"], 1)
        self.assertEqual(counts["oracle.is_class_member.iso-homo.checked_maps"], result.checked_maps)
        self.assertGreater(counts["morphisms.complete_map.calls"], 0)  # bound in oracle, not morphisms
        names = {tracer.names[i] for i in tracer.name}
        self.assertIn("morphisms.check_kind", names)
        groups = {tracer.groups[tracer.group[i]] for i in range(len(tracer.start))}
        self.assertEqual(groups, {(None, "iso-homo")})

    def test_work_counts_repeat(self) -> None:
        from homhom import oracle
        from homhom.families import cycle_graph

        counts = []
        for _ in range(2):
            tracer = Tracer()
            with tracer.installed():
                oracle.is_class_member(cycle_graph(5), oracle.query_for_code("mono-homo"))
            counts.append(tracer.work_counts())
        self.assertEqual(counts[0], counts[1])
        self.assertGreater(counts[0]["trace.spans"], 0)

    def test_generator_spans_time_next_calls(self) -> None:
        from homhom import morphisms
        from homhom.families import path_graph

        g = path_graph(2)
        tracer = Tracer()
        with tracer.installed():
            gen = morphisms.enumerate_morphisms(g, g, morphisms.MorphKind.ISO)
            self.assertEqual(len(tracer.start), 0)  # creating the generator does no work
            items = list(gen)
        self.assertEqual(len(items), 2)  # P3 has two automorphisms
        self.assertEqual(tracer.counts["morphisms.enumerate_morphisms.calls"], 1)
        self.assertEqual(tracer.counts["morphisms.enumerate_morphisms.maps"], 2)
        self.assertEqual(len(tracer.start), 3)  # two items plus the exhausting call
        self.assertTrue(all(e >= s for s, e in zip(tracer.start, tracer.end)))


class Spec(unittest.TestCase):
    def test_benchmark_json_matches_the_metrics_reported(self) -> None:
        spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]], list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]], per_layer_metric_names())


if __name__ == "__main__":
    sys.exit(unittest.main())
