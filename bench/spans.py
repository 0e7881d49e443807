"""Span tracing at kleinian2's layer boundaries, installed from outside.

The tracer replaces public functions of each layer with wrappers that
record one span per call: its name, parent span, start and end time, and
the timed sample (operation or set-up step) it ran under.  Calls made
outside a timed step, such as the benchmark's own output checks, pass
straight through unrecorded.  Because modules bind each other's
functions by name (`from .theta import theta_jet`), a wrapper is bound
under every name in every kleinian2 module that refers to the original
function, or calls made through the other names would go uncounted.
Spans stay in memory; `write` dumps them when the run ends, and
`layer_metrics` reduces them to per-op figures.
"""

import json
import sys
from time import perf_counter

# (module, function, layer).  integrate_01's integrand is wrapped on each
# call and belongs to the integration layer, which defines it.
TARGETS = (
    ("theta", "theta_jet", "theta"),
    ("quadrature", "integrate_01", "quadrature"),
    ("integration", "continue_sqrt", "integration"),
    ("integration", "segment_period_integrals", "integration"),
    ("integration", "tail_integrals", "integration"),
    ("integration", "path_between", "integration"),
    ("periods", "compute_period_data", "periods"),
    ("kleinian", "make_context", "kleinian"),
    ("kleinian", "S_eval", "kleinian"),
    ("kleinian", "S_jk_eval", "kleinian"),
    ("kleinian", "wp_eval", "kleinian"),
    ("kleinian", "abel_forward", "kleinian"),
    ("kleinian", "jacobi_invert", "kleinian"),
    ("kleinian", "evaluate_bundle", "kleinian"),
)
PKG = "kleinian2"
INTEGRAND = "integration.integrand"
LAYERS = ("theta", "periods", "integration", "quadrature", "kleinian",
          "verify")


class Span:
    __slots__ = ("name", "layer", "parent", "sample", "t0", "t1", "child_s",
                 "n", "under_periods")

    def __init__(self, name, layer, parent, sample, under_periods):
        self.name = name
        self.layer = layer
        self.parent = parent
        self.sample = sample
        self.under_periods = under_periods
        self.child_s = 0.0
        self.n = 0
        self.t0 = perf_counter()
        self.t1 = self.t0

    @property
    def dur_s(self):
        return self.t1 - self.t0

    @property
    def self_s(self):
        return self.dur_s - self.child_s


class Tracer:
    def __init__(self):
        self.spans = []
        self.sample = None          # set by RefTimer before each step
        self._stack = []
        self._periods_depth = 0
        self._bindings = []         # (module, attribute, original)
        self._wrappers = {}         # id(original) -> wrapper

    # -- recording --------------------------------------------------------

    def _open(self, name, layer):
        parent = self._stack[-1] if self._stack else None
        span = Span(name, layer, parent, self.sample, self._periods_depth > 0)
        self._stack.append(span)
        return span

    def _close(self, span):
        span.t1 = perf_counter()
        self._stack.pop()
        if span.parent is not None:
            span.parent.child_s += span.dur_s
        self.spans.append(span)

    def _wrap(self, fn, name, layer):
        tracer = self

        if name == "theta.theta_jet":
            def wrapper(*args, **kwargs):
                if tracer.sample is None:
                    return fn(*args, **kwargs)
                span = tracer._open(name, layer)
                span.n = args[2] if len(args) > 2 else kwargs.get("order", 0)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._close(span)
        elif name == "quadrature.integrate_01":
            def wrapper(g, *args, **kwargs):
                if tracer.sample is None:
                    return fn(g, *args, **kwargs)

                def integrand(u, d0, d1):
                    span = tracer._open(INTEGRAND, "integration")
                    span.n = len(u)
                    try:
                        return g(u, d0, d1)
                    finally:
                        tracer._close(span)
                span = tracer._open(name, layer)
                try:
                    return fn(integrand, *args, **kwargs)
                finally:
                    tracer._close(span)
        elif name == "integration.continue_sqrt":
            def wrapper(*args, **kwargs):
                if tracer.sample is None:
                    return fn(*args, **kwargs)
                span = tracer._open(name, layer)
                try:
                    us, ss = fn(*args, **kwargs)
                    span.n = len(us)
                    return us, ss
                finally:
                    tracer._close(span)
        else:
            periods = name == "periods.compute_period_data"

            def wrapper(*args, **kwargs):
                if tracer.sample is None:
                    return fn(*args, **kwargs)
                span = tracer._open(name, layer)
                tracer._periods_depth += periods
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._periods_depth -= periods
                    tracer._close(span)
        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation -----------------------------------------------------

    def _modules(self):
        return [m for key, m in sorted(sys.modules.items())
                if key == PKG or key.startswith(PKG + ".")]

    def install(self):
        """Bind the wrappers under every name that refers to a target.
        A target this version of the program lacks is skipped; its spans
        and counts are then simply absent."""
        if self._bindings:
            return
        originals = {}
        for mod, fname, layer in TARGETS:
            module = sys.modules.get(f"{PKG}.{mod}")
            fn = getattr(module, fname, None)
            if fn is None:
                continue
            if id(fn) not in self._wrappers:
                self._wrappers[id(fn)] = self._wrap(fn, f"{mod}.{fname}",
                                                    layer)
            originals[id(fn)] = fn
        for module in self._modules():
            for attr, val in list(vars(module).items()):
                if id(val) in originals and val is originals[id(val)]:
                    self._bind(module, attr, self._wrappers[id(val)])
        # run_suite looks its checks up in the CHECKS table, one span each
        verify = sys.modules.get(f"{PKG}.verify")
        if not hasattr(verify, "CHECKS"):
            return
        checks = []
        for cname, func, tol in verify.CHECKS:
            key = id(func)
            if key not in self._wrappers:
                self._wrappers[key] = self._wrap(func, f"verify.{cname}",
                                                 "verify")
            checks.append((cname, self._wrappers[key], tol))
        self._bind(verify, "CHECKS", tuple(checks))

    def _bind(self, module, attr, value):
        self._bindings.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def uninstall(self):
        for module, attr, original in reversed(self._bindings):
            setattr(module, attr, original)
        self._bindings = []

    # -- output -----------------------------------------------------------

    def write(self, path):
        """Dump every span as columns; parent is an index into the list."""
        index = {id(s): k for k, s in enumerate(self.spans)}
        names = sorted({s.name for s in self.spans})
        code = {n: k for k, n in enumerate(names)}
        samples = {}
        base = self.spans[0].t0 if self.spans else 0.0
        cols = {"name": [], "parent": [], "sample": [], "t0_us": [],
                "t1_us": [], "self_us": [], "n": []}
        for s in self.spans:
            cols["name"].append(code[s.name])
            cols["parent"].append(-1 if s.parent is None
                                  else index[id(s.parent)])
            cols["sample"].append(samples.setdefault(id(s.sample),
                                                     len(samples)))
            cols["t0_us"].append(round((s.t0 - base) * 1e6, 1))
            cols["t1_us"].append(round((s.t1 - base) * 1e6, 1))
            cols["self_us"].append(round(s.self_s * 1e6, 1))
            cols["n"].append(s.n)
        with open(path, "w") as fh:
            json.dump({"names": names, "spans": cols}, fh)


def layer_metrics(spans, op_samples, check_names):
    """Per-layer figures from the spans recorded under the given timed
    operations.  Counts and self times are per operation, times are at
    reference speed (each span is rescaled by its sample's factor);
    theta.us_per_call is per call, and kleinian.make_context_ms and
    verify.<check>_ms are per call of that function, over every traced
    span including set-up."""
    ops = {id(s) for s in op_samples}
    n_ops = max(len(op_samples), 1)
    self_s = dict.fromkeys(LAYERS, 0.0)
    counts = {"theta.calls": 0, "theta.calls_o0": 0, "theta.calls_o1": 0,
              "theta.calls_o2": 0, "theta.calls_o3": 0,
              "periods.theta_calls": 0, "integration.continuations": 0,
              "integration.continuation_nodes": 0, "quadrature.calls": 0,
              "quadrature.nodes": 0, "kleinian.wp_eval_calls": 0}
    theta_s = 0.0
    per_call = {}   # name -> [total_s, calls], every traced span
    for s in spans:
        if s.name == "kleinian.make_context" or s.layer == "verify":
            acc = per_call.setdefault(s.name, [0.0, 0])
            acc[0] += s.dur_s * s.sample.scale
            acc[1] += 1
        if id(s.sample) not in ops:
            continue
        scale = s.sample.scale
        self_s[s.layer] += s.self_s * scale
        if s.name == "theta.theta_jet":
            counts["theta.calls"] += 1
            counts[f"theta.calls_o{s.n}"] += 1
            counts["periods.theta_calls"] += s.under_periods
            theta_s += s.dur_s * scale
        elif s.name == "integration.continue_sqrt":
            counts["integration.continuations"] += 1
            counts["integration.continuation_nodes"] += s.n
        elif s.name == "quadrature.integrate_01":
            counts["quadrature.calls"] += 1
        elif s.name == INTEGRAND:
            counts["quadrature.nodes"] += s.n
        elif s.name == "kleinian.wp_eval":
            counts["kleinian.wp_eval_calls"] += 1
    out = {k: (v / n_ops, "count") for k, v in counts.items()}
    out["theta.us_per_call"] = (
        theta_s / counts["theta.calls"] * 1e6 if counts["theta.calls"]
        else 0.0, "us")
    for layer in LAYERS:
        if layer != "verify":
            out[f"{layer}.self_ms"] = (self_s[layer] / n_ops * 1e3, "ms")
    tot, calls = per_call.get("kleinian.make_context", (0.0, 0))
    out["kleinian.make_context_ms"] = (tot / calls * 1e3 if calls else 0.0,
                                       "ms")
    for cname in check_names:
        tot, calls = per_call.get(f"verify.{cname}", (0.0, 0))
        out[f"verify.{cname}_ms"] = (tot / calls * 1e3 if calls else 0.0,
                                     "ms")
    return out
