"""Per-module trace from the benchmark's side of the calls.

Each traced function is replaced, in every module namespace its callers look
it up in, by one wrapper that counts calls and adds up wall time.  Functions
called a few times per item also record a span (name, item, start, end,
enclosing span) so self time can be read from the trace file; functions
called per sample or per batch only count, to keep the overhead and the
trace small.  Nothing in the program is edited: the wrappers are installed
for the traced run and removed after it.
"""

from __future__ import annotations

import time
from collections import defaultdict

from bodyschema import chain, completion, correction, extraction, pipeline, pose_net
from bodyschema import rigid_motion, topology

# (metric prefix, home module, attribute, other namespaces holding it, mode)
# mode: "span" times and records spans, "time" only times, "count" only counts
TRACED = (
    ("chain.gen_trajectory", chain, "gen_trajectory", (), "span"),
    ("chain.add_noise", chain, "add_noise", (), "span"),
    ("chain.analytic_jacobian", chain, "analytic_jacobian", (), "time"),
    ("rigid_motion.rpy_matrix", rigid_motion, "rpy_matrix", (), "count"),
    ("rigid_motion.rodrigues", rigid_motion, "rodrigues", (), "count"),
    ("pose_net.train", pose_net, "train", (), "span"),
    ("pose_net.batch", pose_net, "_batch_loss_and_grads", (), "time"),
    ("pose_net.pose_jacobian", pose_net, "pose_jacobian", (), "time"),
    ("extraction.tij_aggregate", extraction, "tij_aggregate", (), "span"),
    ("extraction.cluster_rows", extraction, "cluster_rows", (), "time"),
    (
        "topology.check_conditions", topology, "check_conditions",
        (pipeline, correction, completion), "time",
    ),
    ("topology.dilation_matrix", topology, "dilation_matrix", (correction,), "count"),
    ("topology.matrix_to_tree", topology, "matrix_to_tree", (), "span"),
    ("correction.trellis_correct", correction, "trellis_correct", (pipeline,), "span"),
    ("correction.nearest_permutation", correction, "nearest_permutation", (), "span"),
    ("correction.hamming", correction, "hamming", (pipeline,), "count"),
    ("completion.complete", completion, "complete", (pipeline,), "span"),
)
FROM_SAMPLES = "pose_net.SensorDataset.from_samples"


class Tracer:
    """Counts, times and spans of the traced calls over one run."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)
        self.samples = defaultdict(int)  # per-sample work of the simulators
        self.batches = 0  # training batches (calls that want gradients)
        self.batch_seconds = 0.0
        self.spans: list[tuple] = []
        self.item = None
        self._open: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, name, fn, mode):
        if mode == "count":
            def counted(*args, **kwargs):
                self.calls[name] += 1
                return fn(*args, **kwargs)
            return counted

        def timed(*args, **kwargs):
            span = None
            if mode == "span":
                span = len(self.spans)
                self.spans.append(None)
                parent = self._open[-1] if self._open else None
                self._open.append(span)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                if span is not None:
                    self._open.pop()
                    self.spans[span] = (name, self.item, start, end, parent)
            self.calls[name] += 1
            self.seconds[name] += end - start
            if name in ("chain.gen_trajectory", "chain.add_noise"):
                self.samples[name] += len(out)
            elif name == "pose_net.batch" and kwargs.get("want_grads", True):
                self.batches += 1
                self.batch_seconds += end - start
            return out
        return timed

    def install(self):
        for name, home, attr, others, mode in TRACED:
            wrapper = self._wrap(name, getattr(home, attr), mode)
            for module in (home, *others):
                self._undo.append((module, attr, getattr(module, attr)))
                setattr(module, attr, wrapper)
        cls = pose_net.SensorDataset
        original = cls.__dict__["from_samples"]
        self._undo.append((cls, "from_samples", original))
        cls.from_samples = classmethod(self._wrap(FROM_SAMPLES, original.__func__, "span"))

    def remove(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()

    def per_call(self, name, scale):
        calls = self.calls[name]
        return self.seconds[name] * scale / calls if calls else 0.0

    def per_sample_us(self, name):
        n = self.samples[name]
        return self.seconds[name] * 1e6 / n if n else 0.0

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as ``{name: (value, unit)}``; a layer that the
        workload never reaches reads zero."""
        c = self.calls
        return {
            "chain.gen_trajectory.us_per_sample": (self.per_sample_us("chain.gen_trajectory"), "us"),
            "chain.add_noise.us_per_sample": (self.per_sample_us("chain.add_noise"), "us"),
            "chain.analytic_jacobian.calls": (c["chain.analytic_jacobian"], "count"),
            "chain.analytic_jacobian.us_per_call": (self.per_call("chain.analytic_jacobian", 1e6), "us"),
            "rigid_motion.rpy_matrix.calls": (c["rigid_motion.rpy_matrix"], "count"),
            "rigid_motion.rodrigues.calls": (c["rigid_motion.rodrigues"], "count"),
            f"{FROM_SAMPLES}.ms_per_call": (self.per_call(FROM_SAMPLES, 1e3), "ms"),
            "pose_net.train.s_per_sensor": (self.per_call("pose_net.train", 1.0), "s"),
            "pose_net.train.batches": (self.batches, "count"),
            "pose_net.train.ms_per_batch": (
                self.batch_seconds * 1e3 / self.batches if self.batches else 0.0, "ms"
            ),
            "pose_net.pose_jacobian.us_per_call": (self.per_call("pose_net.pose_jacobian", 1e6), "us"),
            "extraction.tij_aggregate.ms_per_call": (self.per_call("extraction.tij_aggregate", 1e3), "ms"),
            "extraction.cluster_rows.calls": (c["extraction.cluster_rows"], "count"),
            "extraction.cluster_rows.us_per_call": (self.per_call("extraction.cluster_rows", 1e6), "us"),
            "topology.check_conditions.calls": (c["topology.check_conditions"], "count"),
            "topology.check_conditions.us_per_call": (self.per_call("topology.check_conditions", 1e6), "us"),
            "topology.dilation_matrix.calls": (c["topology.dilation_matrix"], "count"),
            "topology.matrix_to_tree.us_per_call": (self.per_call("topology.matrix_to_tree", 1e6), "us"),
            "correction.trellis_correct.ms_per_call": (self.per_call("correction.trellis_correct", 1e3), "ms"),
            "correction.nearest_permutation.ms_per_call": (self.per_call("correction.nearest_permutation", 1e3), "ms"),
            "correction.hamming.calls": (c["correction.hamming"], "count"),
            "completion.complete.us_per_call": (self.per_call("completion.complete", 1e6), "us"),
        }

    def to_json_dict(self) -> dict:
        return {
            "calls": dict(self.calls),
            "seconds": dict(self.seconds),
            "samples": dict(self.samples),
            "batches": self.batches,
            "batch_seconds": self.batch_seconds,
            "spans": [
                {"name": n, "item": i, "start": s, "end": e, "parent": p}
                for n, i, s, e, p in self.spans
            ],
        }
