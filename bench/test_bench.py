"""Self-tests of the benchmark harness (not of vcarlitz itself).

    PYTHONPATH=src python3 -m unittest discover -s bench -p 'test_*.py'
"""

from __future__ import annotations

import json
import os
import sys
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import speed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads as wl  # noqa: E402


class FakeClock:
    """Advances by a fixed step on every reading."""

    def __init__(self, step=1.0):
        self.t = 0.0
        self.step = step

    def __call__(self):
        self.t += self.step
        return self.t


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans(self):
        clock = FakeClock()
        tr = tracing.Tracer(clock=clock)

        def leaf():
            clock()                      # one tick of leaf work

        wrapped_leaf = tr.wrap("leaf", leaf)

        def outer():
            clock()                      # one tick of own work
            wrapped_leaf()
            wrapped_leaf()
            return clock()               # and one more

        tr.wrap("outer", outer)()
        calls, incl, self_s, _ = tr.stats["leaf"]
        # each leaf span reads the clock at entry, once inside, at exit
        self.assertEqual((calls, incl, self_s), (2, 4.0, 4.0))
        calls, incl, self_s, _ = tr.stats["outer"]
        # outer spans readings 1..10: its own two ticks plus entry/exit
        self.assertEqual(calls, 1)
        self.assertEqual(incl, 9.0)
        self.assertEqual(self_s, incl - 2 * 2.0)

    def test_recursion_counts_outermost_inclusive_time(self):
        clock = FakeClock()
        tr = tracing.Tracer(clock=clock)
        box = {}

        def rec(n):
            return box["f"](n - 1) if n else clock()

        box["f"] = tr.wrap("rec", rec)
        box["f"](2)
        calls, incl, self_s, _ = tr.stats["rec"]
        self.assertEqual(calls, 3)
        self.assertEqual(incl, 6.0)          # outermost span only
        self.assertEqual(self_s, 6.0)        # spans tile the outer one

    def test_under_counters(self):
        tr = tracing.Tracer(clock=FakeClock())
        mul = tr.wrap("local.mul", lambda a, b: None)
        inside = tr.wrap("polylog.mzv_inf", lambda: mul(1, 2))
        mul(1, 2)
        inside()
        self.assertEqual(tr.counters["polylog.mzv_inf.local_muls"], 1)
        self.assertEqual(tr.stats["local.mul"][0], 2)

    def test_missing_symbol_stops_the_trace(self):
        saved = dict(tracing.GROUPS)
        tracing.GROUPS["polylog.gone"] = ("polylog", ["no_such_function"])
        try:
            with self.assertRaises(tracing.MissingSymbol):
                tracing.Tracer().install()
        finally:
            tracing.GROUPS.clear()
            tracing.GROUPS.update(saved)

    def test_install_wraps_every_binding(self):
        from vcarlitz import cli, diffsys, polylog, relations, tmodule
        orig = polylog.cmspl_eval
        undo = tracing.Tracer().install()
        try:
            for mod in (polylog, tmodule, relations, cli):
                self.assertIsNot(mod.cmspl_eval, orig)
                self.assertIs(mod.cmspl_eval.__wrapped__, orig)
            self.assertIs(diffsys.deformation_build,
                          polylog.deformation_build)
        finally:
            undo()
        self.assertIs(polylog.cmspl_eval, orig)
        self.assertIs(cli.cmspl_eval, orig)


class SpeedTest(unittest.TestCase):
    def test_reference_seconds_scale_with_the_kernel_time(self):
        self.assertEqual(speed.to_ref(3.0, [speed.REF_S] * 3), 3.0)
        slow = [2 * speed.REF_S, 2 * speed.REF_S, 9 * speed.REF_S]
        self.assertEqual(speed.to_ref(3.0, slow), 1.5)

    def test_meter_samples_inside_a_job_and_counts_its_own_time(self):
        with speed.Meter(period=0.01) as meter:
            t_end = time.process_time() + 0.1
            while time.process_time() < t_end:
                pass
        self.assertGreater(len(meter.samples), 2)
        self.assertGreaterEqual(meter.spent, sum(meter.samples))


class GeneratorTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.lib = wl.Lib()

    def test_same_seed_same_jobs_other_seed_other_jobs(self):
        for workload in wl.WORKLOADS:
            a = wl.generate(self.lib, workload, 7)
            self.assertEqual(a, wl.generate(self.lib, workload, 7))
            self.assertNotEqual(a, wl.generate(self.lib, workload, 8))

    def test_every_record_checked_job_has_a_record(self):
        records = wl.load_records()
        for workload in wl.WORKLOADS:
            for seed in range(10):
                for spec in wl.generate(self.lib, workload, seed):
                    if spec["expect"] == "record":
                        self.assertIn(wl.record_key(spec),
                                      records[spec["kind"]], spec)

    def test_negative_controls_present(self):
        jobs = wl.generate(self.lib, "diffsys-verify", 1)
        self.assertTrue(any(j["kind"] == "verify-mixed" for j in jobs))
        jobs = wl.generate(self.lib, "certify-transport", 1)
        self.assertTrue(any(j["kind"] == "vabp" and j["expect"] == "refused"
                            for j in jobs))


class CheckTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.lib = wl.Lib()
        cls.records = wl.load_records()
        cls.jobs = (wl.generate(cls.lib, "certify-transport", 3)
                    + wl.generate(cls.lib, "cli-session", 3))

    def _first(self, kind, expect=None):
        return next(j for j in self.jobs if j["kind"] == kind
                    and (expect is None or j["expect"] == expect))

    def test_corrupted_records_fail(self):
        for kind in ("cmspl", "mzv_inf"):
            spec = self._first(kind)
            good = self.records[kind][wl.record_key(spec)]
            self.assertEqual(wl.check(spec, good, self.records), (True, ""))
            bad = (good.replace("+ v^", "+ 2*v^", 1)
                   .replace("+ w^", "+ 2*w^", 1))
            self.assertNotEqual(bad, good)
            self.assertFalse(wl.check(spec, bad, self.records)[0])
        spec = self._first("cli")
        stdout, code = self.records["cli"][wl.record_key(spec)]
        self.assertTrue(wl.check(spec, [stdout, code], self.records)[0])
        self.assertFalse(wl.check(spec, [stdout + " ", code],
                                  self.records)[0])
        self.assertFalse(wl.check(spec, [stdout, 1 - code], self.records)[0])

    def test_identities_and_goldens(self):
        spec = self._first("zeta", "golden")
        good = wl.ZETA1_GOLDEN.replace("O(v^40)", "v^41 + O(v^42)")
        self.assertTrue(wl.check(dict(spec, prec=42), good, self.records)[0])
        self.assertFalse(wl.check(dict(spec, prec=42),
                                  good.replace("v^39", "2*v^39"),
                                  self.records)[0])
        spec = self._first("zeta", "zero")
        self.assertTrue(wl.check(dict(spec, prec=40), "O(v^40)",
                                 self.records)[0])
        self.assertFalse(wl.check(dict(spec, prec=40), "v^39 + O(v^40)",
                                  self.records)[0])
        spec = self._first("star-identity")
        self.assertFalse(wl.check(spec, "differ", self.records)[0])

    def test_flipped_verdict_raises_ops_failed_ratio(self):
        refused = self._first("vabp", "refused")
        certified = self._first("vabp", "certified")
        outputs = [(refused, "refused"), (certified, "certified")]

        def pass_report(specs_outputs):
            jobs = []
            for spec, out in specs_outputs:
                ok, note = wl.check(spec, out, self.records)
                jobs.append([spec["kind"], 0.01, ok, note, 0.01])
            return {"wall_s": 1.0, "setup_s": 0.1, "rss_mb": 10.0,
                    "speed": [0.001] * 5, "jobs": jobs}

        values, info = run.end_to_end([pass_report(outputs)] * 4)
        self.assertEqual((info["failed"], values["ops_ok_ratio"]), (0, 1.0))
        flipped = [(dict(refused, expect="certified"), "refused"),
                   (certified, "certified")]
        values, info = run.end_to_end([pass_report(flipped)] * 4)
        self.assertEqual(info["failed"], 4)
        self.assertEqual(info["failed"] / info["jobs"], 0.5)
        self.assertEqual(values["ops_ok_ratio"], 0.5)
        # a verifier that accepts everything fails the mixed control
        mixed = next(j for j in wl.generate(self.lib, "diffsys-verify", 3)
                     if j["kind"] == "verify-mixed")
        self.assertFalse(wl.check(mixed, "ok", self.records)[0])


class HarnessTest(unittest.TestCase):
    def test_tail_percentile(self):
        xs = list(range(1, 101))
        self.assertEqual(run.tail(xs), (90, 90.0, 100))
        self.assertEqual(run.tail(xs[:5]), (5, 100.0, 5))
        # four samples per job, whatever the number of passes
        self.assertEqual(run.slice_points([1, 2, 3, 4, 5, 6, 7, 8, 9]),
                         [2.0, 4.0, 6.0, 8.0])
        self.assertEqual(len(run.slice_points([3.0] * 4)), 4)

    def test_benchmark_json_matches_the_metrics_printed(self):
        with open(os.path.join(os.path.dirname(HERE),
                               "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         list(run.END_TO_END))
        snap = {"stats": {}, "counters": {n: 0 for n in tracing.UNDER}}
        traced = {"trace": snap, "traced_job_s": 1.0,
                  "cli": {"process_s": 0.0, "run_command_s": 0.0,
                          "import_s": 0.0}}
        printed = run.per_layer([{"jobs": [["x", 1.0, True, "", 1.0]]}],
                                traced)
        self.assertEqual(sorted((m["name"], m["unit"])
                                for m in spec["per_layer"]),
                         sorted((n, run.layer_unit(n)) for n in printed))
        self.assertEqual(set(run.ARROWS), set(printed))
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(wl.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
