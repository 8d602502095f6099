"""In-memory span tracer installed from outside on lumaflux's public functions.

`Tracer.install` replaces each public function of the traced modules with
a wrapper, on every module attribute that refers to it. Calls inside a
module resolve through the module globals, so wrapping
`rqs.fit_loss_and_grad` also catches the calls made by `fit_rqs`.
`cli.ThreadPoolExecutor` is swapped for a pool that times each task.
`Tracer.uninstall` puts the original objects back, so untraced passes
run the program exactly as shipped.

A span records name, start, end, parent, pass id and thread. Each thread
keeps its own parent stack; a span opened on a pool worker with an empty
stack is attached to the innermost open span of the main thread, which is
the `cli.synthesize` call that owns the pool.
"""

import functools
import importlib
import inspect
import threading
import time
from concurrent.futures import ThreadPoolExecutor

MODULES = ("cli", "colorimetry", "tonemap", "rqs", "features", "tensorcore",
           "adapters", "metrics", "pfm")

# 8x8 DCT and its inverse, each as two 8x8x8 matrix products of multiply-adds
CODEC_FLOP_PER_BLOCK_CHANNEL = 4096
PFM_BYTES_PER_SAMPLE = 4


def _pixels(arr):
    shape = getattr(arr, "shape", ())
    return int(shape[0] * shape[1]) if len(shape) >= 2 else int(getattr(arr, "size", 1))


def _codec_gflop(args, kwargs, result):
    crf = args[1] if len(args) > 1 else kwargs.get("crf")
    if crf is None:
        return {}
    h, w = args[0].pixels.shape[:2]
    blocks = -(-h // 8) * -(-w // 8)
    return {"gflop": CODEC_FLOP_PER_BLOCK_CHANNEL * blocks * 3 / 1e9}


def _conv_gflop(args, kwargs, result):
    h, w, cin = args[0].shape
    return {"gflop": 2.0 * h * w * cin * args[1].shape[0] * 9 / 1e9}


# span name -> f(args, kwargs, result) -> {counter: amount}, summed per pass
COUNTERS = {
    "colorimetry.pq_decode": lambda a, k, r: {"mpix": _pixels(a[0]) / 1e6},
    "colorimetry.convert_gamut": lambda a, k, r: {"clamp_frac": float(r[1])},
    "tonemap.codec_proxy": _codec_gflop,
    "features.conv3x3": _conv_gflop,
    "pfm.write_tagged": lambda a, k, r: {"mb": a[1].pixels.size * PFM_BYTES_PER_SAMPLE / 1e6},
    "pfm.read_tagged": lambda a, k, r: {"mb": r.pixels.size * PFM_BYTES_PER_SAMPLE / 1e6},
    "rqs.fit_rqs": lambda a, k, r: {"iterations": len(r[2]) - 1},
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "pass_id", "thread", "extra")

    def __init__(self, name, start, parent, pass_id, thread):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.pass_id = pass_id
        self.thread = thread
        self.extra = None


def span_name(module, fn_name):
    if module == "cli" and fn_name.startswith("cmd_"):
        return "cli." + fn_name[4:].replace("_", "-")
    return f"{module}.{fn_name}"


class Tracer:
    def __init__(self):
        self.spans = []
        self.pools = []  # per pool: [pass_id, workers, created, closed, [(submit, start, end)]]
        self.pass_id = None
        self._local = threading.local()
        self._main_stack = None
        self._saved = []
        self._wrappers = {}  # original function -> wrapper
        for modname in MODULES:
            mod = importlib.import_module(f"lumaflux.{modname}")
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    self._wrappers[obj] = self._wrap(span_name(modname, name), obj)
        self._pool_class = self._make_pool_class()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            elif threading.current_thread() is not threading.main_thread() and self._main_stack:
                parent = self._main_stack[-1]
            else:
                parent = None
            span = Span(name, time.perf_counter(), parent, self.pass_id, threading.get_ident())
            self.spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if counter is not None:
                span.extra = counter(args, kwargs, result)
            return result

        return wrapper

    def _make_pool_class(self):
        tracer = self

        class TracedPool(ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self._record = [tracer.pass_id, self._max_workers, time.perf_counter(), None, []]
                tracer.pools.append(self._record)

            def submit(self, fn, /, *args, **kwargs):
                submitted = time.perf_counter()
                tasks = self._record[4]

                def timed(*a, **k):
                    start = time.perf_counter()
                    try:
                        return fn(*a, **k)
                    finally:
                        tasks.append((submitted, start, time.perf_counter()))

                return super().submit(timed, *args, **kwargs)

            def shutdown(self, *args, **kwargs):
                super().shutdown(*args, **kwargs)
                self._record[3] = time.perf_counter()

        return TracedPool

    def install(self, pass_id):
        """Start recording spans for pass_id; must run on the main thread."""
        self.pass_id = pass_id
        self._main_stack = self._stack()
        for modname in MODULES:
            mod = importlib.import_module(f"lumaflux.{modname}")
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in self._wrappers:
                    self._saved.append((mod, name, obj))
                    setattr(mod, name, self._wrappers[obj])
        cli = importlib.import_module("lumaflux.cli")
        self._saved.append((cli, "ThreadPoolExecutor", cli.ThreadPoolExecutor))
        cli.ThreadPoolExecutor = self._pool_class

    def uninstall(self):
        for mod, name, obj in reversed(self._saved):
            setattr(mod, name, obj)
        self._saved = []
        self.pass_id = None

    def dump(self):
        """Spans as plain rows: [name, start, end, parent row or -1, pass, thread, extra]."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        return [[s.name, s.start, s.end, index[id(s.parent)] if s.parent is not None else -1,
                 s.pass_id, s.thread, s.extra] for s in self.spans]


def self_times(spans, timed=None):
    """Self time of each span: duration minus the union of its children's intervals.

    With `timed`, only spans whose name is in it get a time or count as
    children; the others are transparent, so a helper such as
    `pfm.read_pfm` adds its time to the nearest timed caller.
    """
    def counted(s):
        return timed is None or s.name in timed

    children = {}
    for s in spans:
        if not counted(s):
            continue
        owner = s.parent
        while owner is not None and not counted(owner):
            owner = owner.parent
        if owner is not None:
            children.setdefault(id(owner), []).append(s)
    out = {}
    for s in filter(counted, spans):
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(id(s), ()), key=lambda c: c.start):
            lo = max(c.start, cursor)
            hi = min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[id(s)] = (s.end - s.start) - covered
    return out


def pass_layers(tracer, pass_id, timed):
    """Per-layer totals of one traced pass: {span name: {calls, s, counters...}}.

    `s` is the self time with only the spans named in `timed` as children.
    """
    spans = [s for s in tracer.spans if s.pass_id == pass_id]
    own = self_times(spans, timed)
    layers = {}
    for s in spans:
        agg = layers.setdefault(s.name, {"calls": 0, "s": 0.0})
        agg["calls"] += 1
        agg["s"] += own.get(id(s), 0.0)
        for key, val in (s.extra or {}).items():
            agg[key] = agg.get(key, 0.0) + val
    pools = [p for p in tracer.pools if p[0] == pass_id and p[3] is not None]
    if pools:
        busy = sum(end - start for p in pools for _, start, end in p[4])
        capacity = sum(p[1] * (p[3] - p[2]) for p in pools)
        waits = [start - sub for p in pools for sub, start, _ in p[4]]
        layers["cli.pool"] = {"busy_frac": busy / capacity,
                              "queue_wait_s": sum(waits) / max(1, len(waits))}
    return layers
