"""Span tracer that wraps dwtmark's public functions from outside the package.

Each layer function is replaced at every module global that refers to it,
because callers look names up there (`cli` imports `embed_image` by name,
`watermarker` imports `dwt2` by name, `cli` reaches `metrics.ssim` through
the module).  A wrapper records a span only while an op span is open, so
calls made by the input generator, by set-up or by the output checks are
never counted.  Spans stay in memory; `write_spans` dumps them at the end.
"""

import contextlib
import functools
import json
import time
import zlib

import numpy as np

# the layers: public functions of each module of src/dwtmark/
LAYERS = {
    "pixmap": ("read_image", "write_image", "read_watermark", "write_watermark"),
    "dwt": ("dwt2", "idwt2"),
    "watermarker": ("compute_thresholds", "embed", "extract_votes", "decode",
                    "embed_image", "extract_image"),
    "attacks": ("apply_attack",),
    "metrics": ("psnr", "ssim", "kl_security", "mutual_information", "ber",
                "ncc"),
    "cli": ("cmd_embed", "cmd_extract", "cmd_bench"),
}

# catalog kinds that the timed ops run: the default bench rows plus the
# JPEG sweep
ATTACK_KINDS = ("median", "lpf", "histogram_eq", "crop_half", "invert",
                "sharpen", "range_map", "gaussian_filter", "add_noise",
                "rescale", "erode", "dilate", "gamma", "jpeg")

OP = "op"


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "excluded", "attrs")

    def __init__(self, name, start, parent, op):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.op = op
        self.excluded = 0.0   # tracer bookkeeping inside this span, not work
        self.attrs = None


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.op = None
        self._stack = []
        self._seen = set()   # dwt2 input fingerprints of the open op

    def begin(self, name):
        parent = self._stack[-1] if self._stack else None
        span = Span(name, self.clock(), parent, self.op)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def end(self, span):
        span.end = self.clock()
        self._stack.pop()

    def exclude(self, seconds):
        """Charge tracer bookkeeping to no layer: remove it from the open span."""
        if self._stack:
            self.spans[self._stack[-1]].excluded += seconds

    @contextlib.contextmanager
    def op_span(self, op_id):
        self.op = op_id
        self._seen = set()
        span = self.begin(OP)
        try:
            yield span
        finally:
            self.end(span)
            self.op = None

    def seen_before(self, img):
        """True if an image with the same content was already decomposed in this op."""
        a = np.ascontiguousarray(img, dtype=np.float64)
        key = (a.shape, zlib.crc32(a))
        if key in self._seen:
            return True
        self._seen.add(key)
        return False


def _annotate_dwt2(tracer, args, kwargs, result):
    img = args[0] if args else kwargs["img"]
    return {"mpix": np.size(img) / 1e6, "repeat": tracer.seen_before(img)}


def _annotate_idwt2(tracer, args, kwargs, result):
    return {"mpix": np.size(result) / 1e6}


def _annotate_attack(tracer, args, kwargs, result):
    spec = args[1] if len(args) > 1 else kwargs["spec"]
    return {"kind": spec.kind}


ANNOTATE = {
    "dwt.dwt2": _annotate_dwt2,
    "dwt.idwt2": _annotate_idwt2,
    "attacks.apply_attack": _annotate_attack,
}


def _wrap(tracer, name, fn):
    annotate = ANNOTATE.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tracer.op is None:
            return fn(*args, **kwargs)
        span = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(span)
        if annotate is not None:
            t0 = tracer.clock()
            span.attrs = annotate(tracer, args, kwargs, result)
            tracer.exclude(tracer.clock() - t0)
        return result

    return wrapper


@contextlib.contextmanager
def instrumented(tracer, modules, layers=LAYERS):
    """Wrap each layer function at every global of `modules` bound to it.

    `modules` maps a layer name to its module object and may hold further
    modules (keyed by any name) whose globals are patched as well.
    """
    patches = []
    for layer, names in layers.items():
        for fname in names:
            fn = getattr(modules[layer], fname)
            wrapper = _wrap(tracer, f"{layer}.{fname}", fn)
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        patches.append((mod, attr, value))
                        setattr(mod, attr, wrapper)
    try:
        yield
    finally:
        for mod, attr, value in reversed(patches):
            setattr(mod, attr, value)


def _covered(intervals, lo, hi):
    """Length of the union of `intervals` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """Per span: duration minus the time its child spans cover, in seconds."""
    children = [[] for _ in spans]
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return [max(0.0, s.end - s.start - _covered(children[i], s.start, s.end)
                - s.excluded)
            for i, s in enumerate(spans)]


def metric_units():
    """Name -> unit of every per-layer metric, in report order."""
    units = {}
    for layer, names in LAYERS.items():
        for fname in names:
            units[f"{layer}.{fname}.calls"] = "count"
            units[f"{layer}.{fname}.self_ms"] = "ms"
    units["dwt.dwt2.mpix"] = "Mpix"
    units["dwt.idwt2.mpix"] = "Mpix"
    units["dwt.dwt2.repeat_ratio"] = "ratio"
    for kind in ATTACK_KINDS:
        units[f"attacks.apply_attack.{kind}.self_ms"] = "ms"
    units["trace.overhead_ratio"] = "ratio"
    return units


def layer_metrics(spans, n_ops):
    """Per-op layer metrics from the spans of `n_ops` traced ops.

    `trace.overhead_ratio` is not derived from spans and is left out.
    """
    values = {name: 0.0 for name in metric_units()}
    del values["trace.overhead_ratio"]
    repeats = 0
    for span, self_s in zip(spans, self_times(spans)):
        if span.name == OP:
            continue
        values[f"{span.name}.calls"] += 1
        values[f"{span.name}.self_ms"] += self_s * 1e3
        attrs = span.attrs or {}
        if "mpix" in attrs:
            values[f"{span.name}.mpix"] += attrs["mpix"]
        repeats += attrs.get("repeat", False)
        if "kind" in attrs:
            key = f"{span.name}.{attrs['kind']}.self_ms"
            if key in values:
                values[key] += self_s * 1e3
    dwt2_calls = values["dwt.dwt2.calls"]
    out = {name: v / n_ops for name, v in values.items()}
    out["dwt.dwt2.repeat_ratio"] = repeats / dwt2_calls if dwt2_calls else 0.0
    return out


def write_spans(spans, path, header):
    """One JSON object per line: a header, then every span in start order."""
    with open(path, "w") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for i, s in enumerate(spans):
            rec = {"id": i, "name": s.name, "start": s.start, "end": s.end,
                   "parent": s.parent, "op": s.op}
            if s.excluded:
                rec["excluded"] = s.excluded
            if s.attrs:
                rec.update(s.attrs)
            fh.write(json.dumps(rec) + "\n")
