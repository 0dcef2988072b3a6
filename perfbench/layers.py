"""Which ottosta functions the traced run wraps, and how the per-layer
metrics are read off the trace.

Every public function of the ten layer modules gets a span. Two functions
are only counted, with no span: the ramp evaluation behind every
right-hand-side evaluation of the integrator (up to 200 000 calls per pass,
where a span would cost more than the call), and the scalar protocol
evaluation, which the Fock oracle calls at its Magnus nodes. A few probes
add counts the spans cannot give (sampled times, Fock dimension, Magnus
exponentials).

A per-layer metric is named ``<module>.<function>.<stat>``. When the
function no longer exists it is reported as absent with the value 0, so a
change that deletes or rewrites a module needs no edit here.
"""

from __future__ import annotations

import functools
import inspect
import statistics

import numpy as np

from tracer import Tracer, install, resolve, span_stats

PACKAGE = "ottosta"
LAYERS = (
    "cli", "datasets", "thermo_cycle", "sta_cost", "quadrature",
    "dynamics", "kernels", "protocols", "optimizer", "fock_oracle",
)
COUNTED_ONLY = ("kernels.ramp_eval", "protocols.FrequencyProtocol.eval")

_PROPAGATE_FOCK = "fock_oracle.propagate_fock"
_EVAL = "protocols.FrequencyProtocol.eval"
_STROKE_DIM = "fock_oracle.stroke_dim"

# Metrics that are not a span statistic, and the function each is read from.
DERIVED_SOURCES = {
    "fock_oracle.dim_max": _STROKE_DIM,
    "fock_oracle.magnus_exps": _PROPAGATE_FOCK,
    "fock_oracle.magnus_dim3_computed": _PROPAGATE_FOCK,
}


def public_functions() -> dict[str, object]:
    """``module.function`` -> function, for the public functions each layer
    module defines itself (re-exported names are left to their home)."""
    found = {}
    for layer in LAYERS:
        module = resolve(layer, PACKAGE)
        if module is None:
            continue
        for name, obj in vars(module).items():
            if (
                inspect.isfunction(obj)
                and not name.startswith("_")
                and obj.__module__ == module.__name__
            ):
                found[f"{layer}.{name}"] = obj
    return found


def _probe_validity_margin(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def probed(*args, **kwargs):
        ts = kwargs.get("ts", args[1] if len(args) > 1 else None)
        tracer.state().counts[f"{name}.points"] += int(np.size(ts))
        return fn(*args, **kwargs)

    return probed


def _probe_stroke_dim(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def probed(*args, **kwargs):
        dim = fn(*args, **kwargs)
        st = tracer.state()
        st.last["dim"] = dim
        st.maxima["fock_oracle.dim_max"] = max(st.maxima.get("fock_oracle.dim_max", 0), dim)
        return dim

    return probed


def _probe_eval(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def probed(*args, **kwargs):
        st = tracer.state()
        if any(rec[0] == _PROPAGATE_FOCK for rec in st.stack):
            st.counts["fock_oracle.nodes"] += 1
        return fn(*args, **kwargs)

    return probed


def _probe_propagate_fock(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def probed(*args, **kwargs):
        st = tracer.state()
        before = st.counts["fock_oracle.nodes"]
        try:
            return fn(*args, **kwargs)
        finally:
            # Two Gauss-Legendre nodes per Magnus exponential.
            exps = (st.counts["fock_oracle.nodes"] - before) / 2
            st.counts["fock_oracle.magnus_exps"] += exps
            dim = st.last.get("dim", 0)
            st.counts["fock_oracle.magnus_dim3_computed"] += exps * float(dim) ** 3

    return probed


_PROBES = {
    "protocols.validity_margin": _probe_validity_margin,
    _STROKE_DIM: _probe_stroke_dim,
    _EVAL: _probe_eval,
    _PROPAGATE_FOCK: _probe_propagate_fock,
}


def install_tracing(tracer: Tracer):
    """Wrap the layer functions; returns (restore, names of the wrapped functions)."""
    targets = public_functions()
    for name in COUNTED_ONLY:
        fn = resolve(name, PACKAGE)
        if fn is not None:
            targets[name] = fn
    wrappers = {}
    for name, fn in targets.items():
        if name in COUNTED_ONLY:
            wrapped = tracer.counter(f"{name}.calls", fn)
        else:
            wrapped = tracer.span(name, fn)
        probe = _PROBES.get(name)
        if probe is not None:
            wrapped = probe(tracer, name, wrapped)
        wrappers[fn] = wrapped
    return install(PACKAGE, wrappers), set(targets)


def layer_values(tracer: Tracer) -> dict[str, float]:
    """Flat ``metric name -> value`` from one traced pass."""
    values: dict[str, float] = {}
    for name, entry in span_stats(tracer.spans).items():
        values[f"{name}.calls"] = entry["calls"]
        values[f"{name}.self_s"] = entry["self_s"]
    values.update(tracer.counts())
    values.update(tracer.maxima())
    return values


def source_function(metric: str) -> str:
    """The ``module.function`` a per-layer metric is measured on."""
    if metric in DERIVED_SOURCES:
        return DERIVED_SOURCES[metric]
    return metric.rsplit(".", 1)[0]


def metric_values(names, wrapped: set[str], samples: list[dict]):
    """Median over traced passes of each named metric, and the names whose
    function was not found. A metric never recorded reads 0."""
    values, absent = {}, []
    for name in names:
        if source_function(name) not in wrapped:
            absent.append(name)
        values[name] = statistics.median(s.get(name, 0) for s in samples)
    return values, absent
