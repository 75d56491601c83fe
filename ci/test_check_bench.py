#!/usr/bin/env python3
"""Unit tests for the check_bench.py CI gate.

The gate guards every perf number the CI trusts, so its own failure
modes are tested: in particular that malformed reports FAIL loudly
instead of silently skipping gates (the bug class where a bench that
stops writing ``available_parallelism`` would bypass the scaling gate
forever).

Run with: ``python3 -m unittest discover -s ci -p 'test_*.py'``
"""

import io
import json
import os
import sys
import tempfile
import unittest
from contextlib import redirect_stdout

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from check_bench import check_file  # noqa: E402


def run_check(payload, **kwargs):
    """Writes payload to a temp file and runs check_file on it."""
    defaults = {
        "min_scaling": 2.0,
        "min_warm_reduction": 2.0,
        "max_hot_ratio": 1.10,
        "min_kernel_speedup": 1.2,
    }
    defaults.update(kwargs)
    with tempfile.NamedTemporaryFile(
        "w", suffix=".json", delete=False, encoding="utf-8"
    ) as fh:
        json.dump(payload, fh)
        path = fh.name
    try:
        out = io.StringIO()
        with redirect_stdout(out):
            ok = check_file(path, **defaults)
        return ok, out.getvalue()
    finally:
        os.unlink(path)


class VerdictTests(unittest.TestCase):
    def test_all_true_verdicts_pass(self):
        ok, out = run_check({"bench": "t", "law_a": True, "law_b": True})
        self.assertTrue(ok)
        self.assertIn("OK", out)

    def test_false_verdict_fails(self):
        ok, out = run_check({"bench": "t", "law_a": False})
        self.assertFalse(ok)
        self.assertIn("law_a is false", out)

    def test_unreadable_file_fails(self):
        out = io.StringIO()
        with redirect_stdout(out):
            ok = check_file(
                "/nonexistent/bench.json", 2.0, 2.0, 1.10, 1.2
            )
        self.assertFalse(ok)
        self.assertIn("unreadable", out.getvalue())


class ScalingGateTests(unittest.TestCase):
    def base(self, **extra):
        payload = {
            "bench": "parallel",
            "scaling_factor": 3.5,
            "available_parallelism": 8,
            "scaling_threads": 8,
        }
        payload.update(extra)
        return payload

    def test_good_scaling_passes(self):
        ok, out = run_check(self.base())
        self.assertTrue(ok)
        self.assertIn("scaling 3.50x", out)

    def test_low_scaling_fails(self):
        ok, out = run_check(self.base(scaling_factor=1.1))
        self.assertFalse(ok)
        self.assertIn("below the 2.0 gate", out)

    def test_few_cores_skips_with_notice(self):
        ok, out = run_check(self.base(available_parallelism=2, scaling_factor=1.0))
        self.assertTrue(ok)
        self.assertIn("SKIPPED", out)
        self.assertIn("only 2 cores", out)

    def test_unreliable_skips_with_notice(self):
        ok, out = run_check(self.base(unreliable=True, scaling_factor=1.0))
        self.assertTrue(ok)
        self.assertIn("SKIPPED", out)
        self.assertIn("unreliable", out)

    def test_missing_parallelism_fails_loudly(self):
        # The strictness fix: a half-written report must FAIL, not
        # silently skip the gate via a defaulted core count of 0.
        payload = self.base()
        del payload["available_parallelism"]
        ok, out = run_check(payload)
        self.assertFalse(ok)
        self.assertIn("available_parallelism", out)

    def test_missing_threads_fails_loudly(self):
        payload = self.base()
        del payload["scaling_threads"]
        ok, out = run_check(payload)
        self.assertFalse(ok)
        self.assertIn("scaling_threads", out)

    def test_mistyped_factor_fails(self):
        ok, out = run_check(self.base(scaling_factor="fast"))
        self.assertFalse(ok)
        self.assertIn("expected a number", out)

    def test_boolean_factor_fails(self):
        # bool is an int subclass; `"scaling_factor": true` is a broken
        # bench, not a passing one.
        ok, out = run_check(self.base(scaling_factor=True))
        self.assertFalse(ok)
        self.assertIn("expected a number", out)

    def test_mistyped_unreliable_fails(self):
        ok, out = run_check(self.base(unreliable="yes"))
        self.assertFalse(ok)
        self.assertIn("expected a boolean", out)


class TierGateTests(unittest.TestCase):
    def test_good_tier_report_passes(self):
        ok, out = run_check(
            {"bench": "tiers", "warm_bytes_reduction": 3.0, "hot_ingest_ratio": 1.02}
        )
        self.assertTrue(ok)
        self.assertIn("warm reduction 3.00x", out)

    def test_low_reduction_fails(self):
        ok, out = run_check(
            {"bench": "tiers", "warm_bytes_reduction": 1.1, "hot_ingest_ratio": 1.02}
        )
        self.assertFalse(ok)
        self.assertIn("below the 2.0 gate", out)

    def test_missing_hot_ratio_fails(self):
        # A half-written tiers report must FAIL, not silently skip the
        # hot-path gate.
        ok, out = run_check({"bench": "tiers", "warm_bytes_reduction": 3.0})
        self.assertFalse(ok)
        self.assertIn("hot_ingest_ratio missing", out)

    def test_high_hot_ratio_fails(self):
        ok, out = run_check(
            {"bench": "tiers", "warm_bytes_reduction": 3.0, "hot_ingest_ratio": 1.5}
        )
        self.assertFalse(ok)
        self.assertIn("exceeds the 1.10 gate", out)


class KernelGateTests(unittest.TestCase):
    def test_good_kernel_report_passes(self):
        ok, out = run_check(
            {
                "bench": "registers",
                "kernel_equivalence": "ok",
                "swar_merge_speedup_min": 1.8,
            }
        )
        self.assertTrue(ok)
        self.assertIn("kernel equivalence ok", out)

    def test_divergent_kernel_fails(self):
        ok, out = run_check(
            {
                "bench": "registers",
                "kernel_equivalence": "swar diverged",
                "swar_merge_speedup_min": 1.8,
            }
        )
        self.assertFalse(ok)
        self.assertIn("kernel_equivalence", out)

    def test_missing_speedup_fails(self):
        ok, out = run_check({"bench": "registers", "kernel_equivalence": "ok"})
        self.assertFalse(ok)
        self.assertIn("swar_merge_speedup_min missing", out)

    def test_mistyped_speedup_fails(self):
        ok, out = run_check(
            {
                "bench": "registers",
                "kernel_equivalence": "ok",
                "swar_merge_speedup_min": "fast",
            }
        )
        self.assertFalse(ok)
        self.assertIn("expected a number", out)


if __name__ == "__main__":
    unittest.main()
