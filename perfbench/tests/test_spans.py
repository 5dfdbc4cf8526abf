import spans
from spans import Tracer, child_calls, layer_totals, self_times


def span(name, start, end, parent=-1, size=0):
    return [name, start, end, parent, 0, size]


def test_nested_spans_subtract_only_direct_children():
    s = [span("driver", 0, 100),
         span("evolve", 10, 50, parent=0),
         span("expm", 20, 30, parent=1)]
    assert self_times(s) == [60, 30, 10]
    assert sum(self_times(s)) == 100


def test_sibling_spans_and_gaps():
    s = [span("driver", 0, 100),
         span("sample", 5, 25, parent=0),
         span("sample", 40, 45, parent=0),
         span("invert", 60, 90, parent=0)]
    assert self_times(s) == [45, 20, 5, 30]


def test_overlapping_children_count_once_and_are_clipped():
    s = [span("a", 10, 50),
         span("b", 0, 30, parent=0),
         span("c", 20, 40, parent=0)]
    # b and c cover [10, 40] of a's interval: 30 ns.
    assert self_times(s)[0] == 10


def test_layer_totals_and_child_calls():
    s = [span("probe.qfi", 0, 100),
         span("probe.evolve", 0, 40, parent=0),
         span("linalg.expm", 5, 15, parent=1, size=3),
         span("probe.evolve", 50, 90, parent=0),
         span("linalg.expm", 55, 60, parent=3, size=2)]
    totals = layer_totals(s)
    assert totals["probe.qfi"] == {"calls": 1, "self_ns": 20, "size_sum": 0, "size_max": 0}
    assert totals["probe.evolve"]["self_ns"] == 30 + 35
    assert totals["linalg.expm"] == {"calls": 2, "self_ns": 15, "size_sum": 5, "size_max": 3}
    assert child_calls(s, "probe.qfi", "probe.evolve") == 2
    assert child_calls(s, "probe.qfi", "linalg.expm") == 0


def test_tracer_patches_every_namespace_and_restores():
    import numpy as np

    import hamest
    import hamest.estimation
    import hamest.linalg
    import hamest.probe
    import hamest.runner
    import hamest.symmetric

    originals = (hamest.linalg.hermitian_expm, hamest.runner._SCHEME_RUNNERS["adaptive"])
    tracer = Tracer()
    tracer.install()
    try:
        for mod in (hamest, hamest.linalg, hamest.probe, hamest.estimation,
                    hamest.symmetric):
            assert mod.hermitian_expm.__wrapped__ is originals[0]
        assert hamest.runner._SCHEME_RUNNERS["adaptive"].__wrapped__ is originals[1]
        model = hamest.make_model("full", 2)
        sched = hamest.Schedule(r=1, initial=hamest.mes(2), steps=((0.5, None),))
        hamest.qfi_matrix(model, np.zeros(3), sched)
    finally:
        tracer.uninstall()
    assert hamest.linalg.hermitian_expm is originals[0]
    assert hamest.probe.hermitian_expm is originals[0]
    assert hamest.runner._SCHEME_RUNNERS["adaptive"] is originals[1]
    names = [s[spans.NAME] for s in tracer.spans]
    assert names.count("probe.qfi") == 1
    assert names.count("probe.evolve") == 2 * 3 + 1
    assert child_calls(tracer.spans, "probe.qfi", "probe.evolve") == 7
    assert {s[spans.SIZE] for s in tracer.spans if s[spans.NAME] == "linalg.expm"} == {2}
