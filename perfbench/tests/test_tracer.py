"""The tracer: self time, wrapping of aliased references, absent functions."""

import sys
import threading
import types

import layers
import pytest
from tracer import Tracer, install, span_stats


def test_self_time_on_a_nested_span_tree():
    root = ["root", 0.0, 10.0, None]
    a = ["a", 1.0, 4.0, root]
    b = ["b", 3.0, 6.0, root]  # overlaps a, as on a second thread
    leaf = ["leaf", 2.0, 3.0, a]
    late = ["late", 9.5, 12.0, root]  # runs past its parent's end
    stats = span_stats([root, a, b, leaf, late])
    assert stats["root"]["self_s"] == pytest.approx(10.0 - 5.0 - 0.5)
    assert stats["a"]["self_s"] == pytest.approx(2.0)
    assert stats["b"]["self_s"] == pytest.approx(3.0)
    assert stats["leaf"]["self_s"] == pytest.approx(1.0)
    assert all(s["calls"] == 1 for s in stats.values())


def test_worker_thread_spans_hang_under_the_open_span():
    tracer = Tracer()
    inner = tracer.span("inner", lambda: None)

    def outer_body():
        worker = threading.Thread(target=inner)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()

    tracer.span("outer", outer_body)()
    by_name = {rec[0]: rec for rec in tracer.spans}
    assert by_name["inner"][3] is by_name["outer"]
    assert by_name["outer"][3] is None


@pytest.fixture
def fake_package():
    def work(x):
        return x + 1

    class Thing:
        def method(self):
            return 2

    Thing.__module__ = "fakepkg.core"
    core = types.ModuleType("fakepkg.core")
    core.work, core.Thing = work, Thing
    user = types.ModuleType("fakepkg.user")
    user.work = work  # as after "from .core import work"
    user.TABLE = {"w": work}
    mods = {"fakepkg": types.ModuleType("fakepkg"), "fakepkg.core": core, "fakepkg.user": user}
    sys.modules.update(mods)
    yield core, user
    for name in mods:
        del sys.modules[name]


def test_install_wraps_every_alias_and_restores(fake_package):
    core, user = fake_package
    work, method = core.work, core.Thing.method
    tracer = Tracer()
    restore = install("fakepkg", {
        work: tracer.span("core.work", work),
        method: tracer.counter("core.Thing.method.calls", method),
    })
    assert core.work(1) == user.work(1) == user.TABLE["w"](1) == 2
    assert core.Thing().method() == 2
    assert span_stats(tracer.spans)["core.work"]["calls"] == 3
    assert tracer.counts()["core.Thing.method.calls"] == 1
    restore()
    assert core.work is work and user.work is work and user.TABLE["w"] is work
    assert core.Thing.__dict__["method"] is method


def test_absent_function_is_reported_not_fatal(monkeypatch):
    import ottosta.kernels

    monkeypatch.delattr(ottosta.kernels, "integrate")
    restore, wrapped = layers.install_tracing(Tracer())
    restore()
    assert "kernels.integrate" not in wrapped
    assert "dynamics.propagate" in wrapped
    names = ["kernels.integrate.calls", "kernels.integrate.self_s", "dynamics.propagate.calls"]
    values, absent = layers.metric_values(names, wrapped, [{"dynamics.propagate.calls": 2}])
    assert absent == ["kernels.integrate.calls", "kernels.integrate.self_s"]
    assert values == {n: v for n, v in zip(names, [0, 0, 2])}


def test_absent_module_is_reported_not_fatal(monkeypatch):
    monkeypatch.setitem(sys.modules, "ottosta.fock_oracle", None)  # import now fails
    restore, wrapped = layers.install_tracing(Tracer())
    restore()
    assert not any(name.startswith("fock_oracle.") for name in wrapped)
    _, absent = layers.metric_values(["fock_oracle.dim_max"], wrapped, [{}])
    assert absent == ["fock_oracle.dim_max"]
