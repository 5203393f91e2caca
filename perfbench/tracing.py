"""Spans around calls into coopad, recorded from outside the package.

Each traced function is replaced, between `install` and `Tracer.uninstall`,
at the name its caller looks it up by: a module global such as
`coopad.train.distort`, or a method on its class such as `GruStack.forward`.
Spans (name, start, end, parent) are kept in memory and written out when the
run ends. Everything runs in one thread, so spans nest strictly and a span's
self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import json
import os
import time

# GruStack.forward is called five times per CoopModel.forward and
# GruStack.backward five times per CoopModel.backward; the residual pass
# reuses the first-pass stacks, so calls are labelled by their order.
GRU_FORWARD_ORDER = ("time", "freq", "recon", "time_res", "freq_res")
GRU_BACKWARD_ORDER = ("time_res", "freq_res", "recon", "time", "freq")


class Span:
    __slots__ = ("name", "start", "end", "parent", "phase", "children_s",
                 "child_count", "counts")

    def __init__(self, name, start, parent, phase):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.phase = phase
        self.children_s = 0.0
        self.child_count = 0
        self.counts = None


class Tracer:
    """In-memory span recorder for one benchmark process."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.phase = None
        self._saved = []

    def open(self, name):
        parent = self.stack[-1] if self.stack else None
        span = Span(name, time.perf_counter(), parent, self.phase)
        self.spans.append(span)
        self.stack.append(span)
        return span

    def close(self, span):
        span.end = time.perf_counter()
        self.stack.pop()
        if span.parent is not None:
            span.parent.children_s += span.end - span.start

    @contextlib.contextmanager
    def region(self, name, phase):
        """One span the benchmark opens around its own call; spans opened
        inside it belong to `phase`."""
        outer, self.phase = self.phase, phase
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)
            self.phase = outer

    def wrap(self, owner, attr, name, counter=None, labels=None):
        """Replace owner.attr with a span-recording wrapper.

        counter(args, result) returns {count_name: number} added to the span;
        labels names the n-th call within one parent span.
        """
        fn = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            span_name = name
            if labels is not None:
                idx = len(labels)
                if tracer.stack:
                    idx = tracer.stack[-1].child_count
                    tracer.stack[-1].child_count += 1
                span_name = f"{name}.{labels[idx] if idx < len(labels) else 'other'}"
            span = tracer.open(span_name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if counter is not None:
                span.counts = counter(args, result)
            return result

        self._saved.append((owner, attr, fn))
        setattr(owner, attr, traced)

    def uninstall(self):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def write(self, path, meta):
        """Write every span as [id, parent id, name, phase, start, end]."""
        ids = {id(s): i for i, s in enumerate(self.spans)}
        t0 = self.spans[0].start if self.spans else 0.0
        rows = [[i, ids[id(s.parent)] if s.parent is not None else None, s.name,
                 s.phase, round(s.start - t0, 9), round(s.end - t0, 9)]
                for i, s in enumerate(self.spans)]
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump({"meta": meta,
                       "columns": ["id", "parent", "name", "phase", "start_s", "end_s"],
                       "spans": rows}, f)
            f.write("\n")


def install(tracer, coopad_modules):
    """Wrap every layer boundary the per-layer metrics are taken at."""
    m = coopad_modules
    gru = m["numerics"].GruStack
    model_cls = m["model"].CoopModel

    def gru_rows(args, _result):
        stack, inputs = args[0], args[1]
        return {"rows": inputs.shape[0] * inputs.shape[1] * len(stack.layers)}

    def operator_bytes(_args, result):
        return {"bytes": result.nbytes}

    def windows(_args, result):
        return {"windows": len(result.origins)}

    def coverage(_args, result):
        return {"coverage_sum": float(result.coverage.sum()),
                "points": len(result.coverage)}

    def file_bytes(args, _result):
        return {"bytes": os.path.getsize(args[0])}

    score, train, cli = m["score"], m["train"], m["cli"]
    tracer.wrap(gru, "forward", "numerics.gru_forward", gru_rows, GRU_FORWARD_ORDER)
    tracer.wrap(gru, "backward", "numerics.gru_backward", labels=GRU_BACKWARD_ORDER)
    tracer.wrap(train, "adam_step", "numerics.adam_step")
    tracer.wrap(m["spectral"], "stft_apply", "spectral.stft_apply")
    tracer.wrap(m["spectral"], "stft_matrix", "spectral.stft_matrix", operator_bytes)
    tracer.wrap(model_cls, "forward", "model.forward")
    tracer.wrap(model_cls, "backward", "model.backward")
    tracer.wrap(m["model"], "mask_coefficients", "model.mask_coefficients")
    tracer.wrap(train, "distort", "augment.distort")
    tracer.wrap(train, "fit", "train.fit")
    tracer.wrap(cli, "fit", "train.fit")
    tracer.wrap(train, "loss_and_grads", "train.loss_and_grads")
    tracer.wrap(train, "clip_grads", "train.clip_grads")
    tracer.wrap(score, "detect", "score.detect", coverage)
    tracer.wrap(score, "make_windows", "score.make_windows", windows)
    tracer.wrap(score, "pointwise_scores", "score.pointwise_scores")
    tracer.wrap(score, "stitch", "score.stitch")
    tracer.wrap(score, "smooth", "score.smooth")
    tracer.wrap(score, "write_scores_csv", "score.write_scores_csv")
    tracer.wrap(cli, "load_ucr", "data.load_ucr")
    tracer.wrap(cli, "estimate_period", "data.estimate_period")
    tracer.wrap(cli, "zscore", "data.zscore")
    tracer.wrap(cli, "save_checkpoint", "checkpoint.save", file_bytes)
    tracer.wrap(cli, "load_checkpoint", "checkpoint.load")


def summarize(spans, n_setups, n_ops):
    """Per span name: total_s, self_s, calls and summed counts, each for one
    set-up plus one operation (set-up spans divided by n_setups, operation
    spans by n_ops); `<count>_max` holds the largest single-span count.
    Warm-up and output-check spans are left out."""
    per = {"setup": max(n_setups, 1), "op": max(n_ops, 1)}
    sums = {}
    for s in spans:
        if s.phase not in per:
            continue
        row = sums.setdefault((s.name, s.phase), {"total_s": 0.0, "self_s": 0.0, "calls": 0})
        duration = s.end - s.start
        row["total_s"] += duration
        row["self_s"] += duration - s.children_s
        row["calls"] += 1
        for key, value in (s.counts or {}).items():
            row[key] = row.get(key, 0) + value
            row[key + "_max"] = max(row.get(key + "_max", 0), value)
    out = {}
    for (name, phase), row in sums.items():
        merged = out.setdefault(name, {})
        for key, value in row.items():
            if key.endswith("_max"):
                merged[key] = max(merged.get(key, 0), value)
            else:
                merged[key] = merged.get(key, 0) + value / per[phase]
    return out


def table(summary):
    """Per-layer table: total, self time, calls and share of the set-up plus
    operation wall time, largest total first."""
    e2e_seconds = sum(summary.get(n, {}).get("total_s", 0.0)
                      for n in ("bench.setup", "bench.op"))
    lines = [f"{'layer':34} {'total_s':>11} {'self_s':>11} {'calls':>10} {'share':>7}"]
    for name, row in sorted(summary.items(), key=lambda kv: -kv[1]["total_s"]):
        share = row["total_s"] / e2e_seconds if e2e_seconds > 0 else 0.0
        lines.append(f"{name:34} {row['total_s']:11.4f} {row['self_s']:11.4f} "
                     f"{row['calls']:10.1f} {share:7.1%}")
    lines.append("(per set-up plus one operation; share of "
                 f"{e2e_seconds:.4f} s set-up plus operation wall time)")
    return "\n".join(lines) + "\n"
