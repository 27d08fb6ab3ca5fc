"""Self-time arithmetic on synthetic span trees."""

import threading

import pytest

from spans import Span, SpanRecorder, attribute_wall, percentile, self_times


def tree():
    # root on thread 1 fans out to A (thread 2) and B (thread 3), which overlap.
    return [
        Span("root", "r", 0.0, 10.0, parent=None, thread=1),
        Span("a", "a", 1.0, 4.0, parent=0, thread=2),
        Span("b", "b", 3.0, 6.0, parent=0, thread=3),
    ]


def test_self_time_subtracts_the_union_of_children():
    assert self_times(tree()) == pytest.approx([5.0, 3.0, 3.0])


def test_wall_attribution_shares_overlap_between_threads():
    layers, unattributed = attribute_wall(tree(), 0.0, 10.0)
    # [0,1] root, [1,3] a, [3,4] a and b share, [4,6] b, [6,10] root.
    assert layers == pytest.approx({"r": 5.0, "a": 2.5, "b": 2.5})
    assert unattributed == pytest.approx(0.0)


def test_wall_attribution_sums_to_the_window():
    layers, unattributed = attribute_wall(tree(), -2.0, 12.0)
    assert unattributed == pytest.approx(4.0)
    assert sum(layers.values()) + unattributed == pytest.approx(14.0)


def test_wall_attribution_clips_spans_to_the_window():
    layers, unattributed = attribute_wall(tree(), 2.0, 5.0)
    assert layers == pytest.approx({"a": 1.5, "b": 1.5})
    assert unattributed == pytest.approx(0.0)


def test_one_thread_attribution_equals_self_time():
    spans = [
        Span("outer", "x", 0.0, 8.0, thread=1),
        Span("inner", "y", 2.0, 5.0, parent=0, thread=1),
        Span("leaf", "z", 3.0, 4.0, parent=1, thread=1),
        Span("next", "y", 6.0, 7.0, parent=0, thread=1),
    ]
    own = self_times(spans)
    expected = {}
    for record, seconds in zip(spans, own):
        expected[record.layer] = expected.get(record.layer, 0.0) + seconds
    layers, unattributed = attribute_wall(spans, 0.0, 8.0)
    assert layers == pytest.approx(expected)
    assert unattributed == pytest.approx(0.0)


def test_links_make_a_batch_the_child_of_every_waiting_request():
    spans = [
        Span("request", "queue", 0.0, 4.0, thread=1),
        Span("request", "queue", 1.0, 4.0, thread=2),
        Span("batch", "compute", 2.0, 4.0, thread=3),
    ]
    links = [(0, 2), (1, 2)]
    assert self_times(spans, links) == pytest.approx([2.0, 1.0, 2.0])
    layers, unattributed = attribute_wall(spans, 0.0, 4.0, links)
    # [0,1] one request waits, [1,2] two share, [2,4] the batch computes.
    assert layers == pytest.approx({"queue": 2.0, "compute": 2.0})
    assert unattributed == pytest.approx(0.0)


def test_recorder_keeps_per_thread_stacks_and_pool_parents():
    ticks = iter(range(100))
    recorder = SpanRecorder(clock=lambda: float(next(ticks)))

    def work(label):
        with recorder.span("deliver", "backend", request=label):
            with recorder.span("complete", "model"):
                pass

    with recorder.span("run", "engine", pool="pool-"):
        threads = [
            threading.Thread(target=work, args=(f"r{i}",), name=f"pool-{i}")
            for i in range(2)
        ]
        threads.append(threading.Thread(target=work, args=("other",), name="bystander"))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive()
    spans = recorder.spans
    parents = {s.request: s.parent for s in spans if s.name == "deliver"}
    # The pool's threads hang under the fan-out span; an unrelated thread does not.
    assert parents == {"r0": 0, "r1": 0, "other": None}
    for child in (s for s in spans if s.name == "complete"):
        assert spans[child.parent].name == "deliver"
        assert spans[child.parent].thread == child.thread
    assert all(s.end > s.start for s in spans)


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 95) == 95
    assert percentile([3.0], 99) == 3.0
