"""One round of one workload in a fresh process (started by run.py).

Prints one JSON line: the monotonic time at which the seeded inputs
existed, and, unless --setup-only, the duration of each timed call, the
verdict counts, peak resident set and, with --trace, the per-layer
metrics.  Exits 2 when quiltops cannot be imported.
"""

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


class Clock:
    """Times library calls by name; an exception or a failed check is a
    failed verdict, and the round goes on.  With a tracer, a verdict's label
    tags the spans it recorded."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.timings = []        # [name, seconds, is a verdict]
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def _fail(self, message):
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)

    def _timed(self, name, is_verdict, fn, args):
        t0 = time.perf_counter()
        out = fn(*args)
        self.timings.append([name, time.perf_counter() - t0, is_verdict])
        return out

    def call(self, name, fn, *args):
        """A timed call that is not itself a verdict; if it raises, it
        counts as a failed one."""
        try:
            return self._timed(name, False, fn, args)
        except Exception:
            self.attempted += 1
            self._fail(traceback.format_exc(limit=3))

    def verdict(self, name, fn, *args, label=None):
        self.attempted += 1
        first = self.tracer.span_count() if self.tracer else 0
        try:
            return self._timed(name, True, fn, args)
        except Exception:
            self._fail(traceback.format_exc(limit=3))
        finally:
            if self.tracer and label:
                self.tracer.label(label, first)

    def check(self, ok, message):
        if not ok:
            self._fail(message)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--metrics", default="", help="per-layer metric names, comma separated")
    ap.add_argument("--spans-out", help="file for the spans of a traced round")
    args = ap.parse_args()

    try:
        import quiltops  # noqa: F401  (set-up cost: the import itself)
        from workloads import WORKLOADS
    except ImportError as exc:
        print("cannot import quiltops from %s: %s" % (ROOT / "src", exc), file=sys.stderr)
        return 2
    make_inputs, run = WORKLOADS[args.workload]
    inputs = make_inputs(args.seed)
    ready = time.monotonic()
    out = {"ready": ready}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    clock = Clock(tracer)
    run(inputs, clock)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out.update(timings=clock.timings,
               attempted=clock.attempted, failed=clock.failed,
               errors=clock.errors, peak_rss_mb=rss_kb / 1024.0)
    if tracer is not None:
        layers, missing = {}, {}
        for name in filter(None, args.metrics.split(",")):
            layers[name], reason = tracer.metric(name)
            if reason:
                missing[name] = reason
        self_s = tracer.self_times()
        out.update(layers=layers, missing=missing,
                   ranking=[[k, t, self_s[k]] for t, k in tracer.ranking()],
                   spans=len(tracer.span_name))
        if args.spans_out:
            tracer.write_spans(args.spans_out)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
