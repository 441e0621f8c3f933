"""Self-tests of studybench's own helpers; run with
`python3 studybench/run.py --self-test`. They need no build."""

import unittest

import run


def span(name, parent, start, end):
    return {"name": name, "parent": parent, "start": start, "end": end, "cpu": 0.0}


class PercentileTest(unittest.TestCase):
    def test_reports_value_with_sample_count(self):
        self.assertEqual(run.percentile([3.0, 1.0, 2.0], 50), (2.0, 3))
        value, n = run.percentile(list(range(11)), 90)
        self.assertAlmostEqual(value, 9.0)
        self.assertEqual(n, 11)

    def test_interpolates_between_ranks(self):
        value, n = run.percentile([10.0, 20.0], 90)
        self.assertAlmostEqual(value, 19.0)
        self.assertEqual(n, 2)

    def test_refuses_no_samples(self):
        with self.assertRaises(ValueError):
            run.percentile([], 50)


class SelfTimeTest(unittest.TestCase):
    def test_subtracts_direct_children_only(self):
        spans = [
            span("study", -1, 0.0, 10.0),
            span("mlab.campaign", 0, 1.0, 4.0),
            span("inner", 1, 2.0, 3.0),  # grandchild: already inside its parent
            span("ripe.atlas", 0, 5.0, 9.0),
        ]
        self.assertAlmostEqual(run.self_time(spans, 0), 3.0)
        self.assertAlmostEqual(run.self_time(spans, 1), 2.0)
        self.assertAlmostEqual(run.self_time(spans, 3), 4.0)

    def test_overlapping_children_count_once(self):
        spans = [span("root", -1, 0.0, 10.0), span("a", 0, 1.0, 6.0), span("b", 0, 4.0, 8.0)]
        self.assertAlmostEqual(run.self_time(spans, 0), 3.0)


class DigestTest(unittest.TestCase):
    def test_one_changed_byte_fails(self):
        report = b"# Study report\nStarlink 41.2 ms\n"
        digest = run.md5(report)
        self.assertTrue(run.report_ok(report, digest))
        changed = bytearray(report)
        changed[-3] ^= 0x01
        self.assertFalse(run.report_ok(bytes(changed), digest))

    def test_golden_default_seed_is_satnetctl_report(self):
        import json

        golden = json.loads(run.GOLDEN.read_text())
        self.assertEqual(
            golden["studies"]["0"]["report_md5"], golden["satnetctl_report_md5"]
        )


class ErrorRateTest(unittest.TestCase):
    def test_counts_a_world_that_throws(self):
        worlds = [
            {"seed": 1, "sgp4": False, "ms": 5.0, "error": ""},
            {"seed": 2, "sgp4": True, "ms": 60.0, "error": "threw: degenerate shell"},
            {"seed": 3, "sgp4": False, "ms": 6.0, "error": ""},
            {"seed": 4, "sgp4": False, "ms": 7.0, "error": "thread-identity: line 3"},
        ]
        failed = run.world_failures(worlds)
        self.assertEqual(failed, 2)
        self.assertAlmostEqual(run.error_rate(len(worlds), failed), 0.5)

    def test_nothing_attempted_is_all_failed(self):
        self.assertEqual(run.error_rate(0, 0), 1.0)


if __name__ == "__main__":
    unittest.main()
