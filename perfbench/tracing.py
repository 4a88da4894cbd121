"""Span recorder for the traced benchmark run.

Every public function of a layer is wrapped where its caller looks it up:
a caller module that imported the layer module gets a view of it whose
public functions are wrapped, and a caller that imported names from it gets
the wrapped names. A call made inside one layer passes no wrapper and
records nothing, so ``analytic.linear_entropy`` evaluating ``coherence``
once per time point stays a single span.

Spans are recorded only while ``active`` is set, which the runner does
around each timed call, so the benchmark's own output checks leave none.
They are kept in memory and written out when the run ends. A function the
metrics read but the program no longer has is reported as absent, with
zero values.
"""

from __future__ import annotations

import importlib
import types
from collections import defaultdict
from time import perf_counter

import numpy as np

#: Layer name -> module. ``params`` does negligible work and is not traced.
LAYERS = {
    "cli": "sgcoherence.cli",
    "experiment": "sgcoherence.experiment",
    "analytic": "sgcoherence.analytic",
    "oracle": "sgcoherence.oracle",
    "kernels": "sgcoherence.kernels",
}

#: Functions the per-layer metrics read.
READ = (
    "cli.main", "experiment.coherence_series", "experiment.density_profile",
    "analytic.linear_entropy", "analytic.coherence", "oracle.overlap_quadrature",
    "oracle.decoherence_time_bisection", "oracle.propagate_via_kernel",
    "kernels.overlap_integrand", "kernels.kernel_integrand",
)

#: Per-layer metrics: name, unit, direction that is better.
METRICS = (
    ("cli.main.calls", "count", "lower"),
    ("cli.main.ms", "ms", "lower"),
    ("cli.self_ms", "ms", "lower"),
    ("cli.self_ns_per_row", "ns/row", "lower"),
    ("experiment.coherence_series.ms", "ms", "lower"),
    ("experiment.density_profile.ms", "ms", "lower"),
    ("experiment.self_ms", "ms", "lower"),
    ("analytic.linear_entropy.ms", "ms", "lower"),
    ("analytic.linear_entropy.points", "count", "lower"),
    ("analytic.points", "count", "lower"),
    ("analytic.ns_per_point", "ns/point", "lower"),
    ("analytic.coherence.calls_per_root", "count", "lower"),
    ("oracle.overlap_quadrature.calls", "count", "lower"),
    ("oracle.overlap_quadrature.ms", "ms", "lower"),
    ("oracle.overlap_quadrature.self_ms", "ms", "lower"),
    ("oracle.overlap_quadrature.nodes_per_call", "nodes/call", "lower"),
    ("oracle.overlap_quadrature.sampled_frac", "fraction", "lower"),
    ("oracle.decoherence_time_bisection.calls", "count", "lower"),
    ("oracle.decoherence_time_bisection.ms", "ms", "lower"),
    ("oracle.propagate_via_kernel.calls", "count", "lower"),
    ("oracle.propagate_via_kernel.points", "count", "lower"),
    ("oracle.propagate_via_kernel.ms", "ms", "lower"),
    ("oracle.propagate_via_kernel.self_ms", "ms", "lower"),
    ("oracle.propagate_via_kernel.nodes_per_point", "nodes/point", "lower"),
    ("kernels.overlap_integrand.batches", "count", "lower"),
    ("kernels.overlap_integrand.nodes", "count", "lower"),
    ("kernels.overlap_integrand.ms", "ms", "lower"),
    ("kernels.overlap_integrand.ns_per_node", "ns/node", "lower"),
    ("kernels.overlap_integrand.nodes_per_batch", "nodes/batch", "higher"),
    ("kernels.kernel_integrand.batches", "count", "lower"),
    ("kernels.kernel_integrand.nodes", "count", "lower"),
    ("kernels.kernel_integrand.ms", "ms", "lower"),
    ("kernels.kernel_integrand.ns_per_node", "ns/node", "lower"),
    ("trace.overhead_frac", "fraction", "lower"),
)


def _public_functions(module) -> dict:
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    found = {}
    for name in names:
        obj = getattr(module, name, None)
        if callable(obj) and not isinstance(obj, (type, types.ModuleType)):
            found[name] = obj
    return found


def _size(args) -> int:
    """Elements of the largest array argument: nodes, time or z points."""
    return max((a.size for a in args if isinstance(a, np.ndarray)), default=1)


class _LayerView:
    """A layer module as one caller sees it: wrapped functions, all else forwarded."""

    def __init__(self, module, wrapped: dict):
        self._module = module
        self.__dict__.update(wrapped)

    def __getattr__(self, name):
        return getattr(self._module, name)


class SpanRecorder:
    """Records ``[layer, function, start, end, parent, size]`` per boundary call."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self.views = types.SimpleNamespace()  # layer name -> view, for the benchmark's own calls
        self.absent: list[str] = []
        self.active = False

    def _wrap(self, layer: str, name: str, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(spans)
            span = [layer, name, 0.0, 0.0, stack[-1] if stack else -1, _size(args)]
            spans.append(span)
            stack.append(index)
            span[2] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()

        return traced

    def install(self) -> None:
        modules = {}
        for layer, path in LAYERS.items():
            try:
                modules[layer] = importlib.import_module(path)
            except ModuleNotFoundError:
                continue
        wrapped = {
            layer: {name: self._wrap(layer, name, fn)
                    for name, fn in _public_functions(module).items()}
            for layer, module in modules.items()
        }
        views = {layer: _LayerView(modules[layer], wrapped[layer]) for layer in modules}
        self.views = types.SimpleNamespace(**views)
        self.absent = [key for key in READ
                       if key.split(".")[1] not in wrapped.get(key.split(".")[0], {})]
        for caller in modules.values():
            for attr, value in list(vars(caller).items()):
                for layer, module in modules.items():
                    if module is caller:
                        continue
                    if value is module:
                        self._patch(caller, attr, views[layer])
                        break
                    if attr in wrapped[layer] and getattr(module, attr) is value:
                        self._patch(caller, attr, wrapped[layer][attr])
                        break

    def _patch(self, module, attr: str, value) -> None:
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def restore(self) -> None:
        while self._patches:
            module, attr, value = self._patches.pop()
            setattr(module, attr, value)

    def write(self, path) -> None:
        """Write the spans as CSV, times in ns from the first span."""
        origin = self.spans[0][2] if self.spans else 0.0
        with open(path, "w", encoding="ascii") as handle:
            handle.write("id,parent,layer,function,start_ns,end_ns,size\n")
            for i, (layer, name, start, end, parent, size) in enumerate(self.spans):
                handle.write(f"{i},{parent},{layer},{name},"
                             f"{round((start - origin) * 1e9)},{round((end - origin) * 1e9)},"
                             f"{size}\n")

    def metrics(self, rows: int, overhead_frac: float) -> dict[str, float]:
        """Per-layer metrics of the recorded spans; ``rows`` is CSV rows written."""
        spans = self.spans
        child_s = [0.0] * len(spans)
        for layer, name, start, end, parent, size in spans:
            if parent >= 0:
                child_s[parent] += end - start

        calls = defaultdict(int)
        total_ms = defaultdict(float)   # per "layer.function" and per layer
        self_ms = defaultdict(float)    # per "layer.function" and per layer
        size = defaultdict(int)         # per "layer.function" and per layer
        under = defaultdict(int)        # size of children by "parent fn>child fn"
        nodes = [0] * len(spans)        # integrand nodes evaluated under each span
        for i, (layer, name, start, end, parent, n) in enumerate(spans):
            key = f"{layer}.{name}"
            ms, own = (end - start) * 1e3, (end - start - child_s[i]) * 1e3
            calls[key] += 1
            for k in (key, layer):
                total_ms[k] += ms
                self_ms[k] += own
                size[k] += n
            if parent >= 0:
                p_key = f"{spans[parent][0]}.{spans[parent][1]}"
                under[f"{p_key}>{key}"] += n
                if key == "analytic.coherence":
                    under[f"{p_key}>coherence.calls"] += 1
                if layer == "kernels":
                    nodes[parent] += n
        sampled = sum(1 for i, s in enumerate(spans)
                      if (s[0], s[1]) == ("oracle", "overlap_quadrature") and nodes[i])

        def ratio(a, b, scale=1.0):
            return a * scale / b if b else 0.0

        oq, pk = "oracle.overlap_quadrature", "oracle.propagate_via_kernel"
        oi, ki = "kernels.overlap_integrand", "kernels.kernel_integrand"
        bis = "oracle.decoherence_time_bisection"
        values = {
            "cli.main.calls": calls["cli.main"],
            "cli.main.ms": total_ms["cli.main"],
            "cli.self_ms": self_ms["cli"],
            "cli.self_ns_per_row": ratio(self_ms["cli"], rows, 1e6),
            "experiment.coherence_series.ms": total_ms["experiment.coherence_series"],
            "experiment.density_profile.ms": total_ms["experiment.density_profile"],
            "experiment.self_ms": self_ms["experiment"],
            "analytic.linear_entropy.ms": total_ms["analytic.linear_entropy"],
            "analytic.linear_entropy.points": size["analytic.linear_entropy"],
            "analytic.points": size["analytic"],
            "analytic.ns_per_point": ratio(total_ms["analytic"], size["analytic"], 1e6),
            "analytic.coherence.calls_per_root":
                ratio(under[f"{bis}>coherence.calls"], calls[bis]),
            f"{oq}.calls": calls[oq],
            f"{oq}.ms": total_ms[oq],
            f"{oq}.self_ms": self_ms[oq],
            f"{oq}.nodes_per_call": ratio(under[f"{oq}>{oi}"], calls[oq]),
            f"{oq}.sampled_frac": ratio(sampled, calls[oq]),
            f"{bis}.calls": calls[bis],
            f"{bis}.ms": total_ms[bis],
            f"{pk}.calls": calls[pk],
            f"{pk}.points": size[pk],
            f"{pk}.ms": total_ms[pk],
            f"{pk}.self_ms": self_ms[pk],
            f"{pk}.nodes_per_point": ratio(under[f"{pk}>{ki}"], size[pk]),
            f"{oi}.batches": calls[oi],
            f"{oi}.nodes": size[oi],
            f"{oi}.ms": total_ms[oi],
            f"{oi}.ns_per_node": ratio(total_ms[oi], size[oi], 1e6),
            f"{oi}.nodes_per_batch": ratio(size[oi], calls[oi]),
            f"{ki}.batches": calls[ki],
            f"{ki}.nodes": size[ki],
            f"{ki}.ms": total_ms[ki],
            f"{ki}.ns_per_node": ratio(total_ms[ki], size[ki], 1e6),
            "trace.overhead_frac": overhead_frac,
        }
        return {name: float(values[name]) for name, _unit, _better in METRICS}
