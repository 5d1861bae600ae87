"""Span tracer that instruments centerpolar from outside the package.

`Tracer.install()` replaces each traced function with a wrapper at every
place a caller looks it up: the defining module, every centerpolar module
that bound it with `from x import y`, and the `EncoderModel` class
attributes.  Each wrapper records a span (operation id, span id, parent
span id, name, start, end, self time) and, for some layers, a computed
work count.  Spans stay in memory until `write_spans` is called.

Self time is a span's duration minus the durations of its direct child
spans; calls are strictly nested because the program is single-threaded.
"""

from __future__ import annotations

import json
import os
import sys
import time
from contextlib import contextmanager
from statistics import median

PACKAGE = "centerpolar"

# (module, attribute) of each traced function, with the span name it records
SPANS = (
    ("tensor", "backward", "tensor.backward"),
    ("encoder", "EncoderModel.forward", "encoder.forward"),
    ("encoder", "EncoderModel.embed_many", "encoder.embed_many"),
    ("losses", "loss_c4", "losses.loss_c4"),
    ("losses", "loss_dom", "losses.loss_dom"),
    ("losses", "loss_dis", "losses.loss_dis"),
    ("expansion", "expand_batch", "expansion.expand_batch"),
    ("geometry", "compute_centroids", "geometry.compute_centroids"),
    ("geometry", "geodesic_distance", "geometry.geodesic_distance"),
    ("trainer", "train", "trainer.train"),
    ("trainer", "adam_step", "trainer.adam_step"),
    ("trainer", "save_checkpoint", "trainer.save_checkpoint"),
    ("trainer", "load_checkpoint", "trainer.load_checkpoint"),
    ("data", "generate_benchmark", "data.generate_benchmark"),
    ("data", "save_csv", "data.save_csv"),
    ("data", "load_csv", "data.load_csv"),
    ("evaluation", "evaluate", "evaluation.evaluate"),
    ("evaluation", "map_at_r", "evaluation.map_at_r"),
    ("evaluation", "r_precision", "evaluation.r_precision"),
    ("evaluation", "recall_at_k", "evaluation.recall_at_k"),
    ("cli", "main", "cli.main"),
    ("rng", "stream", "rng.stream"),
)

# binding sites that `from x import y` creates; install() must reach each one
REQUIRED_SITES = (
    ("trainer", "loss_c4"),
    ("trainer", "loss_dom"),
    ("trainer", "expand_batch"),
    ("trainer", "compute_centroids"),
    ("trainer", "evaluate"),
    ("trainer", "backward"),
    ("trainer", "record"),
    ("trainer", "adam_step"),
    ("losses", "loss_dom"),
    ("losses", "loss_dis"),
    ("losses", "geodesic_distance"),
    ("expansion", "geodesic_distance"),
    ("expansion", "backward"),
    ("expansion", "record"),
    ("evaluation", "map_at_r"),
    ("evaluation", "r_precision"),
    ("evaluation", "recall_at_k"),
    ("cli", "generate_benchmark"),
    ("cli", "save_csv"),
    ("cli", "load_csv"),
    ("cli", "train"),
    ("cli", "save_checkpoint"),
    ("cli", "load_checkpoint"),
    ("cli", "evaluate"),
)

# layers whose only work in a workload happens while it is set up
SETUP_SPANS = ("trainer.save_checkpoint",)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_embed_many(add, out, args, kwargs):
    add("encoder.embed_many.rows", out.shape[0])


def _count_loss_dom(add, out, args, kwargs):
    n = len(_arg(args, kwargs, 0, "batch"))
    add("losses.loss_dom.pairs", n * (n - 1) // 2)


def _count_expand_batch(add, out, args, kwargs):
    econfig = _arg(args, kwargs, 3, "econfig")
    add("expansion.expand_batch.samples", len(out))
    add("expansion.steps", len(out) * econfig.iterations_te)


def _count_generate(add, out, args, kwargs):
    train_set, tests = out
    add("data.generate_benchmark.rows", len(train_set) + sum(len(d) for d in tests.values()))


def _count_save_csv(add, out, args, kwargs):
    add("data.save_csv.rows", len(_arg(args, kwargs, 0, "dataset")))
    add("data.save_csv.bytes", os.path.getsize(_arg(args, kwargs, 1, "path")))


def _count_load_csv(add, out, args, kwargs):
    add("data.load_csv.rows", len(out))
    add("data.load_csv.bytes", os.path.getsize(_arg(args, kwargs, 0, "path")))


def _count_evaluate(add, out, args, kwargs):
    tests = _arg(args, kwargs, 1, "tests")
    add("evaluation.evaluate.queries", out.query_count)
    add("evaluation.distance_entries", sum(len(d) ** 2 for d in tests.values()))


COUNT_KEYS = (
    "tensor.tape_entries",
    "encoder.embed_many.rows",
    "losses.loss_dom.pairs",
    "expansion.expand_batch.samples",
    "expansion.steps",
    "data.generate_benchmark.rows",
    "data.save_csv.rows",
    "data.save_csv.bytes",
    "data.load_csv.rows",
    "data.load_csv.bytes",
    "evaluation.evaluate.queries",
    "evaluation.distance_entries",
)

COUNTERS = {
    "encoder.embed_many": _count_embed_many,
    "losses.loss_dom": _count_loss_dom,
    "expansion.expand_batch": _count_expand_batch,
    "data.generate_benchmark": _count_generate,
    "data.save_csv": _count_save_csv,
    "data.load_csv": _count_load_csv,
    "evaluation.evaluate": _count_evaluate,
}


class Tracer:
    """Holds the spans and counts of one run, keyed by operation id."""

    def __init__(self):
        self.spans: list[tuple] = []  # (op, id, parent, name, t0, t1, self_s)
        self.counts: dict = {}  # op -> {count name: value}
        self.op = None
        self._stack: list[list] = []  # [span id, child seconds]
        self._next_id = 0
        self._saved: list[tuple] = []  # (owner, attribute, original)

    # -- recording --------------------------------------------------------

    def add(self, key: str, n: int) -> None:
        per_op = self.counts.setdefault(self.op, {})
        per_op[key] = per_op.get(key, 0) + n

    def _call(self, name, fn, args, kwargs):
        sid = self._next_id
        self._next_id += 1
        stack = self._stack
        parent = stack[-1][0] if stack else None
        frame = [sid, 0.0]
        stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            duration = t1 - t0
            if stack:
                stack[-1][1] += duration
            self.spans.append((self.op, sid, parent, name, t0, t1, duration - frame[1]))

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)
        call = self._call
        add = self.add

        def traced(*args, **kwargs):
            out = call(name, fn, args, kwargs)
            if counter is not None:
                counter(add, out, args, kwargs)
            return out

        traced.__wrapped__ = fn
        return traced

    def _wrap_record(self, fn):
        add = self.add

        @contextmanager
        def counting_record(*args, **kwargs):
            with fn(*args, **kwargs) as tape:
                try:
                    yield tape
                finally:
                    add("tensor.tape_entries", len(tape))

        counting_record.__wrapped__ = fn
        return counting_record

    @contextmanager
    def operation(self, op_id):
        self.op = op_id
        self.counts.setdefault(op_id, {})
        try:
            yield
        finally:
            self.op = None

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        """Rebind every traced name at every binding site in the package."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        pkg = PACKAGE
        modules = [m for n, m in sorted(sys.modules.items()) if n == pkg or n.startswith(pkg + ".")]
        replacements = {}  # id(original) -> (original, wrapper)
        for mod_name, attr, span in SPANS:
            owner = sys.modules[f"{pkg}.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._saved.append((cls, meth, original))
                setattr(cls, meth, self._wrap(span, original))
            else:
                original = getattr(owner, attr)
                replacements[id(original)] = (original, self._wrap(span, original))
        record = sys.modules[f"{pkg}.tensor"].record
        replacements[id(record)] = (record, self._wrap_record(record))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        wrappers = {id(wrapper) for _original, wrapper in replacements.values()}
        for mod_name, attr in REQUIRED_SITES:
            if id(getattr(sys.modules[f"{pkg}.{mod_name}"], attr)) not in wrappers:
                self.uninstall()
                raise RuntimeError(f"tracer: {mod_name}.{attr} was not rebound")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    # -- results ----------------------------------------------------------

    def per_op(self) -> dict:
        """{op: {span name: (calls, self seconds)}}"""
        out: dict = {}
        for op, _sid, _parent, name, _t0, _t1, self_s in self.spans:
            table = out.setdefault(op, {})
            calls, total = table.get(name, (0, 0.0))
            table[name] = (calls + 1, total + self_s)
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")))
                fh.write("\n")


def layer_metrics(tracer: Tracer, timed_ops: list, setup_op=None) -> dict:
    """Per-layer values of one traced run.

    Counts (`.calls` and computed counts) are those of the first timed
    operation, which repeat exactly for a given workload seed.  `.self_s`
    is the median over timed operations of the per-operation self time;
    for SETUP_SPANS it is the self time of the traced set-up.
    """
    per_op = tracer.per_op()
    first = timed_ops[0]
    values = {}
    for _mod, _attr, span in SPANS:
        source = [setup_op] if span in SETUP_SPANS else timed_ops
        values[f"{span}.calls"] = per_op.get(source[0], {}).get(span, (0, 0.0))[0]
        values[f"{span}.self_s"] = median(
            per_op.get(op, {}).get(span, (0, 0.0))[1] for op in source
        )
    counts = tracer.counts.get(first, {})
    for key in COUNT_KEYS:
        values[key] = counts.get(key, 0)
    backward_calls = values["tensor.backward.calls"]
    entries = values["tensor.tape_entries"]
    values["tensor.tape_entries_per_backward"] = entries / backward_calls if backward_calls else 0.0
    return values
