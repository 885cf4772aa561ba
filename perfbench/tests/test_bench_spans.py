import pytest

import layers
from spans import Recorder, Span, ancestor_names, instrumented, self_times


def scripted_clock(*ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("root", 0.0, 10.0),
        Span("a", 1.0, 3.0, parent=0),
        Span("b", 4.0, 8.0, parent=0),
        Span("b.inner", 5.0, 6.0, parent=2),
    ]
    assert self_times(spans) == [4.0, 2.0, 3.0, 1.0]
    assert ancestor_names(spans, 3) == ["b", "root"]
    assert ancestor_names(spans, 0) == []


class Thing:
    def double(self, x):
        return 2 * x


def test_wrapped_calls_nest_and_are_restored():
    recorder = Recorder(clock=scripted_clock(0.0, 1.0, 1.5, 2.0, 3.5, 4.0))
    calls = []

    def inner(x):
        calls.append(x)
        return x

    namespace = type("ns", (), {})
    namespace.inner = inner

    def outer(x):
        return namespace.inner(x) + Thing().double(x)

    namespace.outer = outer
    points = [
        (namespace, "outer", "outer", None),
        (namespace, "inner", "inner", lambda r, a: {"arg": a[0]}),
        (Thing, "double", "double", None),
    ]
    original_double = Thing.double
    with instrumented(recorder, points):
        assert namespace.outer(3) == 9
    assert namespace.inner is inner and namespace.outer is outer
    assert Thing.double is original_double
    names = [(s.name, s.start, s.end, s.parent) for s in recorder.spans]
    assert names == [("outer", 0.0, 4.0, None), ("inner", 1.0, 1.5, 0), ("double", 2.0, 3.5, 0)]
    assert recorder.spans[1].attrs == {"arg": 3}
    assert self_times(recorder.spans) == [2.0, 0.5, 1.5]


def test_originals_come_back_after_an_error():
    def boom():
        raise ValueError("boom")

    namespace = type("ns", (), {"boom": staticmethod(boom)})
    recorder = Recorder()
    with pytest.raises(ValueError):
        with instrumented(recorder, [(namespace, "boom", "boom", None)]):
            namespace.boom()
    assert namespace.__dict__["boom"].__func__ is boom
    assert recorder.spans[0].end >= recorder.spans[0].start


def test_layer_metrics_charge_kernel_time_to_kernels_not_smo():
    spans = [
        Span("cli.train", 0.0, 12.0),
        Span("svm.fit", 1.0, 11.0, parent=0,
             attrs={"updates": 4, "n_sv": 3, "converged": True}),
        Span("kernels.matrix", 1.0, 3.0, parent=1, attrs={"entries": 16, "bytes": 128}),
    ]
    m = layers.layer_metrics(spans)
    assert m["svm.fit_self_s"] == 8.0
    assert m["svm.us_per_update"] == 2e6
    assert m["kernels.s"] == 2.0 and m["kernels.entries"] == 16
    assert m["cli.self_s"] == 2.0
    assert m["svm.unconverged"] == 0
