"""Spans around the public functions of the quiltops layers.

A Tracer replaces each traced function by a wrapper in every quiltops
module namespace that holds it (a `from .x import f` makes a second
binding that must be replaced too).  Every call becomes a span: name,
start, end and the index of the enclosing span.  Spans stay in memory
until the run ends and are then written out in one file.

Hot leaves (ring arithmetic, Tree.le/lt/left_of) are deliberately left
unwrapped: they run millions of times per workload, and their cost shows
up as self time of the layer that calls them.
"""

import gzip
import json
import sys
import time
from array import array

PACKAGE = "quiltops"

# span name -> the functions it covers, as (module, attribute) pairs.  The
# functions the benchmark calls itself (homology.build, homology.ranks,
# quilts.enumerate, extensions.boundary, extensions.boundary_sum,
# mquilt.verify_identity, linfty.relation, cochains.mc_residual) are the top
# level; every span below them is a layer the verdict waited for.
SPANS = {
    "words.enumerate": [("words", "enumerate_words")],
    "quilts.enumerate": [("quilts", "enumerate_quilts")],
    "quilts.compatible_trees": [("quilts", "compatible_trees")],
    "quilts.check_axioms": [("quilts", "check_axioms")],
    "formal.combine": [("formal", "combine")],
    "extensions.boundary": [("extensions", "boundary")],
    "extensions.compose": [("extensions", "compose")],
    "extensions.boundary_sum": [("extensions", "boundary_sum")],
    "extensions.compose_sums": [("extensions", "compose_sums")],
    "homology.build": [("homology", "build_complex")],
    "homology.ranks": [("homology", "homology_ranks")],
    "homology.rank": [("homology", "sparse_rank")],
    "mquilt.verify_identity": [("mquilt", "verify_identity")],
    "mquilt.compose": [("mquilt", "mq_compose_basis")],
    "mquilt.permute": [("mquilt", "mq_permute")],
    "mquilt.boundary_prime": [("mquilt", "boundary_prime")],
    # reduce_sum and normalize both delegate to _reduce, which the module's
    # own compositions call directly
    "mquilt.reduce": [("mquilt", "_reduce")],
    # prenormalize and the redistribution families both call _prenormal
    "mquilt.prenormalize": [("mquilt", "_prenormal")],
    "linfty.constants": [("linfty", "L0"), ("linfty", "L_full"),
                         ("linfty", "P0"), ("linfty", "P_full")],
    "linfty.relation": [("linfty", "linfty_residual_quilt"),
                        ("linfty", "linfty_residual_mquilt"),
                        ("linfty", "linfty_residual_coinvariant")],
    "cochains.mc_residual": [("cochains", "mc_residual")],
    "cochains.act": [("cochains", "act")],
    "cochains.delta": [("cochains", "delta_total")],
    "cochains.colorings": [("cochains", "enumerate_colorings")],
    "cochains.evaluate": [("cochains", "evaluate_coloring")],
    "diagrams.validate": [("diagrams", "DiagramOfAlgebras.validate")],
}

# memo tables of the marked normal form: metric -> (module, attribute, size)
GAUGES = {
    "mquilt.families.entries": ("mquilt", "_families",
                                lambda f: f.cache_info().currsize),
    "mquilt.echelons.entries": ("mquilt", "_ECHELONS", len),
    "mquilt.normal_forms.entries": ("mquilt", "_NORMAL_FORMS", len),
}

# counters kept by the span hooks: metric -> the span that counts it
COUNTERS = {
    "quilts.enumerated": "quilts.enumerate",
    "extensions.compose.terms_out": "extensions.compose",
    "formal.combine.terms_in": "formal.combine",
    "homology.rank.rows": "homology.rank",
    "homology.rank.nnz": "homology.rank",
    "homology.rank.rank": "homology.rank",
    "cochains.colorings.count": "cochains.colorings",
}

# ratios to the span's calls: metric -> (span, numerator)
RATIOS = {
    # 1 - distinct inputs / calls: the work a memo would remove
    "mquilt.prenormalize.repeat_ratio": (
        "mquilt.prenormalize",
        lambda t: t.calls["mquilt.prenormalize"] - len(t.prenormal_inputs)),
    # killed by R2-R4
    "mquilt.prenormalize.zero_ratio": (
        "mquilt.prenormalize", lambda t: t.counters.get("mquilt.prenormalize.zeros", 0)),
    "cochains.evaluate.useful_ratio": (
        "cochains.evaluate", lambda t: t.counters.get("cochains.evaluate.useful", 0)),
}

# mean time per call of a span, over the verdicts with one label:
# metric -> (span, verdict label)
BY_LABEL = {
    "cochains.act.ms_per_call.transported": ("cochains.act", "transported"),
    "cochains.act.ms_per_call.perturbed": ("cochains.act", "perturbed"),
}


def _resolve(module, path):
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], getattr(owner, parts[-1])


class Tracer:
    """Records spans of the wrapped functions and per-span counters."""

    def __init__(self):
        self.names = []
        self.span_name = array("H")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = []
        self.calls = {}
        self.total = {}          # outermost spans of each name
        self.below_top = {}      # the same, for spans with a parent
        self.counters = {}
        self.missing = {}        # span or gauge name -> reason
        self.prenormal_inputs = set()
        self.labelled = {}       # verdict label -> [(first span, stop span)]
        self._active = {}

    @staticmethod
    def _modules():
        return [m for k, m in sorted(sys.modules.items())
                if m is not None and (k == PACKAGE or k.startswith(PACKAGE + "."))]

    def count(self, key, by=1):
        self.counters[key] = self.counters.get(key, 0) + by

    def install(self):
        hooks = self._hooks()
        modules = self._modules()
        for name, targets in SPANS.items():
            for mod, path in targets:
                try:
                    owner, attr, fn = _resolve(sys.modules["%s.%s" % (PACKAGE, mod)], path)
                except (KeyError, AttributeError):
                    self.missing[name] = "%s.%s has no %s" % (PACKAGE, mod, path)
                    continue
                wrapper = self._wrap(name, fn, hooks.get(name))
                setattr(owner, attr, wrapper)
                for m in modules:
                    for k, v in list(vars(m).items()):
                        if v is fn:
                            setattr(m, k, wrapper)

    def _wrap(self, name, fn, hook):
        if name not in self.calls:
            self.names.append(name)
            self.calls[name] = 0
            self.total[name] = 0.0
            self.below_top[name] = 0.0
        nid = self.names.index(name)
        active = self._active.setdefault(name, [0])
        perf = time.perf_counter
        stack = self.stack
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        calls, total, below_top = self.calls, self.total, self.below_top

        def wrapper(*args, **kwargs):
            i = len(span_name)
            parent = stack[-1] if stack else -1
            span_name.append(nid)
            span_parent.append(parent)
            span_end.append(0.0)
            stack.append(i)
            active[0] += 1
            t0 = perf()
            span_start.append(t0)
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf()
                span_end[i] = t1
                stack.pop()
                active[0] -= 1
                calls[name] += 1
                if not active[0]:
                    total[name] += t1 - t0
                    if parent >= 0:
                        below_top[name] += t1 - t0
            if hook is not None:
                hook(args, out)
            return out

        return wrapper

    def _hooks(self):
        count = self.count
        inputs = self.prenormal_inputs

        def combine(args, out):
            count("formal.combine.terms_in", len(args[0].terms) + len(args[1].terms))

        def rank(args, out):
            cols = args[0]
            rows = set()
            for col in cols.values():
                rows.update(col)
                count("homology.rank.nnz", len(col))
            count("homology.rank.rows", len(rows))
            count("homology.rank.rank", out)

        def prenormal(args, out):
            inputs.add((args[0].key(), args[1]))
            if out is None:
                count("mquilt.prenormalize.zeros")

        def evaluate(args, out):
            if out:
                count("cochains.evaluate.useful")

        return {
            "quilts.enumerate": lambda a, out: count("quilts.enumerated", len(out)),
            "extensions.compose": lambda a, out: count("extensions.compose.terms_out", len(out)),
            "cochains.colorings": lambda a, out: count("cochains.colorings.count", len(out)),
            "formal.combine": combine,
            "homology.rank": rank,
            "mquilt.prenormalize": prenormal,
            "cochains.evaluate": evaluate,
        }

    def span_count(self):
        return len(self.span_name)

    def label(self, label, first):
        """Tag the spans recorded since span index `first`."""
        self.labelled.setdefault(label, []).append((first, len(self.span_name)))

    # ------------------------------------------------------------ reports

    def _ms_per_call(self, span, label):
        """Mean duration of the outermost spans of one name, over the
        spans tagged with one label."""
        nid = self.names.index(span)
        parent, names = self.span_parent, self.span_name
        total, calls = 0.0, 0
        for first, stop in self.labelled.get(label, ()):
            for i in range(first, stop):
                if names[i] != nid:
                    continue
                p = parent[i]
                while p >= 0 and names[p] != nid:
                    p = parent[p]
                if p < 0:
                    total += self.span_end[i] - self.span_start[i]
                    calls += 1
        return total / calls * 1e3 if calls else 0.0

    def self_times(self):
        """Span duration minus the part covered by child spans, by name."""
        n = len(self.span_name)
        child = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += self.span_end[i] - self.span_start[i]
        out = dict.fromkeys(self.names, 0.0)
        for i in range(n):
            out[self.names[self.span_name[i]]] += (
                self.span_end[i] - self.span_start[i] - child[i])
        return out

    def ranking(self):
        """Span names by total time below the top level, largest first."""
        return sorted(((t, k) for k, t in self.below_top.items() if t > 0),
                      reverse=True)

    def metric(self, name):
        """(value, None) for one per-layer metric, or (None, reason) when
        nothing measures it, for instance after a refactor renamed the
        function or memo table it was read from."""
        if name in GAUGES:
            mod, attr, size = GAUGES[name]
            try:
                return size(getattr(sys.modules["%s.%s" % (PACKAGE, mod)], attr)), None
            except (KeyError, AttributeError, TypeError) as exc:
                return None, "cannot read %s.%s.%s: %r" % (PACKAGE, mod, attr, exc)
        span, _, field = name.rpartition(".")
        span = COUNTERS.get(name) or RATIOS.get(name, BY_LABEL.get(name, (span,)))[0]
        if span not in SPANS:
            return None, "no span or gauge measures %s" % name
        if span in self.missing:
            return None, self.missing[span]
        calls = self.calls[span]
        if name in COUNTERS:
            return self.counters.get(name, 0), None
        if name in RATIOS:
            return (RATIOS[name][1](self) / calls if calls else 0.0), None
        if name in BY_LABEL:
            return self._ms_per_call(*BY_LABEL[name]), None
        if field == "calls":
            return calls, None
        if field == "s":
            return self.total[span], None
        return None, "no span or gauge measures %s" % name

    def write_spans(self, path):
        """All spans, columnar; times in microseconds from the first span."""
        t0 = self.span_start[0] if self.span_start else 0.0
        doc = {
            "names": self.names,
            "name": self.span_name.tolist(),
            "parent": self.span_parent.tolist(),
            "start_us": [round((t - t0) * 1e6) for t in self.span_start],
            "end_us": [round((t - t0) * 1e6) for t in self.span_end],
        }
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(doc, fh, separators=(",", ":"))
