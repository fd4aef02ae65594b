"""Unit tests for the span tracer: self time, sampling, ids, restore."""

import json
import pathlib
import sys
import tempfile
import time
import types
import unittest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]))

from tracing import Tracer  # noqa: E402


def make_layers():
    """A two-layer 'program': ``outer.request`` calls ``inner.work``."""
    inner = types.SimpleNamespace(work=lambda: time.sleep(0.002))
    counter = iter(range(10**6))

    def request():
        inner.work()
        time.sleep(0.001)
        return next(counter)

    return types.SimpleNamespace(request=request), inner


class TracerTest(unittest.TestCase):
    def test_self_time_is_the_span_minus_its_children(self):
        outer, inner = make_layers()
        tracer = Tracer()
        tracer.wrap(outer, "request", "outer.request")
        tracer.wrap(inner, "work", "inner.work")
        for _ in range(5):
            outer.request()
        tracer.restore()
        self.assertEqual(tracer.calls("outer.request"), 5)
        self.assertEqual(tracer.calls("inner.work"), 5)
        busy = tracer.busy_seconds("outer.request")
        child = tracer.busy_seconds("inner.work")
        self.assertGreaterEqual(child, 5 * 0.002)
        self.assertAlmostEqual(
            tracer.self_seconds("outer.request"), busy - child, places=9
        )
        self.assertGreaterEqual(tracer.self_seconds("outer.request"), 5 * 0.001)

    def test_restore_puts_the_original_back(self):
        outer, inner = make_layers()
        original = outer.request
        tracer = Tracer()
        tracer.wrap(outer, "request", "outer.request")
        self.assertIsNot(outer.request, original)
        tracer.restore()
        self.assertIs(outer.request, original)

    def test_hot_functions_are_timed_always_but_recorded_sampled(self):
        outer, inner = make_layers()
        inner.work = lambda: None
        tracer = Tracer(sample_every=4)
        tracer.wrap(outer, "request", "outer.request", hot=True,
                    rid_of=lambda seq: seq)
        tracer.wrap(inner, "work", "inner.work", hot=True)
        for _ in range(16):
            outer.request()
        tracer.restore()
        self.assertEqual(tracer.calls("outer.request"), 16)
        recorded = [s for s in tracer.spans if s[1] == "outer.request"]
        self.assertEqual(len(recorded), 4)
        # A sampled request keeps the spans under it, and only those.
        children = [s for s in tracer.spans if s[1] == "inner.work"]
        self.assertEqual(
            {s[4] for s in children}, {s[0] for s in recorded}
        )

    def test_spans_of_one_request_share_its_id_in_the_jsonl(self):
        outer, inner = make_layers()
        inner.work = lambda: None
        tracer = Tracer(sample_every=1)
        tracer.wrap(outer, "request", "outer.request", hot=True,
                    rid_of=lambda seq: 100 + seq)
        tracer.wrap(inner, "work", "inner.work", hot=True)
        tracer.chunk = 7
        outer.request()
        with tracer.span("cold"):
            pass
        tracer.restore()
        with tempfile.TemporaryDirectory() as tmp:
            path = pathlib.Path(tmp, "spans.jsonl")
            self.assertEqual(tracer.write_jsonl(path), 3)
            spans = [json.loads(line) for line in path.read_text().splitlines()]
        by_name = {s["name"]: s for s in spans}
        self.assertEqual(by_name["outer.request"]["rid"], 100)
        self.assertEqual(by_name["inner.work"]["rid"], 100)
        self.assertEqual(
            by_name["inner.work"]["parent"], by_name["outer.request"]["id"]
        )
        self.assertEqual(by_name["cold"]["rid"], 7)
        self.assertIsNone(by_name["cold"]["parent"])
        for span in spans:
            self.assertLessEqual(span["start"], span["end"])


if __name__ == "__main__":
    unittest.main()
