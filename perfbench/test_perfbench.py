"""Tests of the benchmark's own code: statistics, schedules, inputs, spans.

Run with ``python -m pytest perfbench`` from the repository root.
"""

from __future__ import annotations

import statistics
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import inputs  # noqa: E402
from stats import percentile, relative_spread  # noqa: E402
from tracer import Spans, Tracer, self_times  # noqa: E402

# -- statistics -----------------------------------------------------------------


@pytest.mark.parametrize("q", [0, 10, 25, 50, 90, 99, 100])
def test_percentile_matches_numpy_linear(q):
    values = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0]
    assert percentile(values, q) == pytest.approx(float(np.percentile(values, q)))


def test_percentile_interpolates_and_rejects_bad_input():
    assert percentile([10.0, 20.0], 50) == 15.0
    assert percentile([4.0], 90) == 4.0
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_relative_spread_uses_statistics_quartiles():
    values = [10.0, 11.0, 9.0, 10.5, 9.5, 12.0, 8.0, 10.0, 10.2, 9.8]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert relative_spread(values) == pytest.approx((q3 - q1) / statistics.median(values))
    assert relative_spread([3.0] * 10) == 0.0


# -- Poisson schedule -------------------------------------------------------------


#: A population of 1,000 names, every tenth an IDN.
IS_IDN = np.arange(1000) % 10 == 0


def test_poisson_schedule_is_deterministic():
    first = inputs.poisson_schedule(7, 2000.0, 5.0, 2, IS_IDN, 1.0)
    second = inputs.poisson_schedule(7, 2000.0, 5.0, 2, IS_IDN, 1.0)
    other = inputs.poisson_schedule(8, 2000.0, 5.0, 2, IS_IDN, 1.0)
    for key in first:
        assert np.array_equal(first[key], second[key])
    assert not np.array_equal(first["offset"][:100], other["offset"][:100])


def test_poisson_schedule_has_the_offered_rate():
    rate, seconds = 2000.0, 20.0
    schedule = inputs.poisson_schedule(3, rate, seconds, 2, IS_IDN, 1.0)
    offsets = schedule["offset"]
    assert np.all(np.diff(offsets) > 0) and offsets[0] >= 0 and offsets[-1] < seconds
    # 40,000 expected arrivals: the count is within 5 standard deviations.
    assert abs(len(offsets) - rate * seconds) < 5 * (rate * seconds) ** 0.5
    gaps = np.diff(offsets)
    assert gaps.mean() == pytest.approx(1 / rate, rel=0.03)
    # Exponential gaps: the standard deviation equals the mean.
    assert gaps.std() == pytest.approx(gaps.mean(), rel=0.05)
    assert set(np.unique(schedule["connection"]).tolist()) == {0, 1}
    assert len(schedule["name"]) == len(offsets)


def test_requests_ask_about_idns_at_the_paper_share():
    names = inputs.request_names(5, 30_000, IS_IDN, 1.0)
    assert np.count_nonzero(IS_IDN[names]) == round(30_000 * inputs.IDN_SHARE)


def test_request_popularity_is_zipf_and_independent_of_population_order():
    names = inputs.request_names(5, 50_000, IS_IDN, 1.0)
    counts = np.sort(np.bincount(names[~IS_IDN[names]], minlength=1000)[~IS_IDN])[::-1]
    # Rank r is drawn with weight 1/r: the top name about twice the second.
    assert counts[0] > counts[1] > counts[9] > counts[99] > 0
    assert counts[0] / counts[1] == pytest.approx(2.0, rel=0.2)
    # The most popular name is not simply the first of the population, and
    # another seed ranks the names differently.
    top = [int(np.argmax(np.bincount(inputs.request_names(seed, 5_000, IS_IDN, 1.0),
                                     minlength=1000))) for seed in range(6)]
    assert len(set(top)) > 1


def test_request_draws_share_one_popularity_order():
    first = np.bincount(inputs.request_names(9, 20_000, IS_IDN, 1.0), minlength=1000)
    warm = np.bincount(inputs.request_names(9, 20_000, IS_IDN, 1.0, draw=1), minlength=1000)
    assert np.argmax(first) == np.argmax(warm)
    assert not np.array_equal(first, warm)


# -- inputs -------------------------------------------------------------------------


@pytest.fixture(scope="module")
def reference():
    return [f"{label}.com" for label in (
        "google", "youtube", "facebook", "amazon", "wikipedia", "yahoo", "reddit",
        "twitter", "instagram", "linkedin", "netflix", "microsoft", "apple", "paypal")]


def test_idn_pool_is_deterministic_distinct_and_punycode(reference):
    first = inputs.idn_pool(11, 400, reference)
    assert first == inputs.idn_pool(11, 400, reference)
    assert first != inputs.idn_pool(12, 400, reference)
    assert len(set(first)) == len(first) == 400
    assert all(name.startswith("xn--") and name.endswith(".com") for name in first)


def test_idn_pool_mixes_homographs_of_the_reference(reference):
    from repro.idn.idna_codec import to_unicode_label

    labels = {domain.rsplit(".", 1)[0] for domain in reference}
    pool = inputs.idn_pool(13, 600, reference)
    unicode = [to_unicode_label(name.rsplit(".", 1)[0]) for name in pool]
    # A homograph keeps the reference label's length and most of its letters.
    near = sum(
        1 for label in unicode
        if any(len(label) == len(ref) and sum(a == b for a, b in zip(label, ref)) >= len(ref) - 2
               for ref in labels)
    )
    assert 0.2 < near / len(pool) < 0.5


def test_zone_is_deterministic_distinct_with_idns_in_order(reference):
    idns = inputs.idn_pool(21, 70, reference)
    body = inputs.zone_lines(21, 10_000, idns)
    assert body == inputs.zone_lines(21, 10_000, idns)
    assert body != inputs.zone_lines(22, 10_000, idns)
    names = body.decode("ascii").splitlines()
    assert len(names) == len(set(names)) == 10_000
    assert [name for name in names if name.startswith("xn--")] == idns
    plain = [name for name in names if not name.startswith("xn--")]
    assert all(name.endswith(".com") and name[:-4].isalnum() and name[:-4].islower()
               for name in plain)


def test_zone_population_has_the_paper_idn_share(reference):
    names = inputs.zone_population(4, 30_000, reference)
    assert len(names) == len(set(names)) == 30_000
    share = sum(name.startswith("xn--") for name in names) / len(names)
    assert share == pytest.approx(inputs.IDN_SHARE, rel=0.01)


def test_written_inputs_are_byte_identical(tmp_path, reference):
    idns = inputs.idn_pool(31, 50, reference)
    first = inputs.write(tmp_path / "a.txt", inputs.zone_lines(31, 2_000, idns))
    second = inputs.write(tmp_path / "b.txt", inputs.zone_lines(31, 2_000, idns))
    assert first.read_bytes() == second.read_bytes()
    listed = inputs.write(tmp_path / "c.txt", idns)
    assert listed.read_text(encoding="utf-8").splitlines() == idns


def test_warm_up_leads_with_enough_idns_to_build_the_kernel(tmp_path, reference):
    import scanproc

    idns = inputs.idn_pool(41, 20, reference)
    path = inputs.write(tmp_path / "zone.txt", inputs.zone_lines(41, 6_000, idns))
    warm = scanproc.warm_lines(path)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    assert warm[:scanproc.WARM_IDNS] == [name + "\n" for name in idns[:scanproc.WARM_IDNS]]
    assert warm[scanproc.WARM_IDNS:] == lines[:scanproc.WARM_LINES]


# -- spans --------------------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    # 0: [0, 10)  1: [1, 4) child of 0  2: [2, 3) child of 1  3: [5, 9) child of 0
    duration = np.array([10.0, 3.0, 1.0, 4.0])
    parent = np.array([-1, 0, 1, 0])
    assert self_times(duration, parent).tolist() == [3.0, 2.0, 1.0, 4.0]
    # Self times of a tree add up to its root's duration.
    assert self_times(duration, parent).sum() == duration[0]


def test_tracer_nests_per_thread_and_round_trips(tmp_path):
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda x: x * 2, observe=lambda a, k, r: (a[0], 1, r))
    outer = tracer.wrap("outer", lambda: [inner(i) for i in range(3)])

    def failing():
        raise KeyError("boom")

    broken = tracer.wrap("broken", failing)
    outer()
    with pytest.raises(KeyError):
        broken()
    worker = threading.Thread(target=outer)
    worker.start()
    worker.join(10)
    assert not worker.is_alive()
    tracer.record("detached", 1.0, 2.5)
    tracer.dump(tmp_path)

    spans = Spans.load(tmp_path)
    assert len(spans.end) == 10
    outer_mask = spans.select("outer")
    inner_mask = spans.select("inner")
    assert outer_mask.sum() == 2 and inner_mask.sum() == 6
    # Every inner span's parent is an outer span on the same thread.
    parents = spans.parent[inner_mask]
    assert np.all(spans.name[parents] == spans.names.index("outer"))
    assert np.array_equal(spans.thread[parents], spans.thread[inner_mask])
    assert sorted(spans.request[inner_mask].tolist()) == [0, 0, 1, 1, 2, 2]
    assert spans.hits[inner_mask].sum() == 12
    assert spans.failed[spans.select("broken")].all()
    assert spans.detached[spans.select("detached")].all()
    assert spans.duration[spans.select("detached")][0] == 1.5
    # Self time of an outer span is its duration minus its three children.
    for index in np.flatnonzero(outer_mask):
        children = spans.parent == index
        assert spans.self_time[index] == pytest.approx(
            spans.duration[index] - spans.duration[children].sum())


def _scan_spans(extra: list[tuple[str, float, float, int]] = ()) -> Spans:
    """A traced 10 s scan pass: scan_file [0, 10) holding detect [1, 6),
    which holds two IDN parses [2, 3) and [3, 4), and a checkpoint [7, 9)."""
    rows = [("detection.stream.scan", 0.0, 10.0, -1), ("detection.shamfinder.detect", 1.0, 6.0, 0),
            ("idn.parse", 2.0, 3.0, 1), ("idn.parse", 3.0, 4.0, 1),
            ("detection.stream.checkpoint", 7.0, 9.0, 0), *extra]
    names = sorted({row[0] for row in rows})
    arrays = {
        "name": np.array([names.index(row[0]) for row in rows], dtype=np.int32),
        "start": np.array([row[1] for row in rows]),
        "end": np.array([row[2] for row in rows]),
        "parent": np.array([row[3] for row in rows], dtype=np.int64),
    }
    count = len(rows)
    for key in ("request", "pid", "thread"):
        arrays[key] = np.zeros(count, dtype=np.int64)
    for key in ("size", "hits"):
        arrays[key] = np.zeros(count)
    for key in ("failed", "detached"):
        arrays[key] = np.zeros(count, dtype=np.int8)
    return Spans(arrays, names)


def _accounted(spans: Spans, wall: float = 10.0) -> float:
    import layers

    metrics = layers.work_metrics(spans, (0.0, wall))
    return layers.accounted_ratio(metrics, 0.0, wall)


def test_accounted_ratio_is_exact_when_the_layers_split_the_pass():
    import layers

    spans = _scan_spans()
    metrics = layers.work_metrics(spans, (0.0, 10.0))
    assert metrics["detection.stream.self_s"] == 3.0
    assert metrics["detection.shamfinder.self_s"] == 3.0
    assert metrics["idn.parse_s"] == 2.0
    assert metrics["detection.stream.checkpoint_s"] == 2.0
    assert _accounted(spans) == pytest.approx(1.0)


def test_accounted_ratio_fails_a_double_counted_span():
    import layers
    from common import Outcome

    # The same parse recorded a second time, outside the tree that holds it.
    spans = _scan_spans([("idn.parse", 2.0, 3.0, -1)])
    assert _accounted(spans) == pytest.approx(1.1)
    outcome = Outcome()
    metrics = layers.work_metrics(spans, (0.0, 10.0))
    # Slightly more than 10 %: the check fails.
    assert layers.check_accounting(outcome, metrics, 0.0, 9.9) > 1.1
    assert outcome.problems


def test_accounted_ratio_fails_a_layer_left_out():
    import layers
    from common import Outcome

    # A 4 s top-level span no reported layer covers, next to a pass timed at 14 s.
    spans = _scan_spans([("untraced.layer", 10.0, 14.0, -1)])
    outcome = Outcome()
    layers.check_accounting(outcome, layers.work_metrics(spans, (0.0, 14.0)), 0.0, 14.0)
    assert outcome.problems
    assert _accounted(_scan_spans(), wall=14.0) == pytest.approx(10 / 14)


def test_per_request_weights_a_batch_by_its_names():
    import layers

    spans = _scan_spans()
    spans.names.append("detection.service.query_many")
    spans.name[1] = len(spans.names) - 1       # detect becomes a 4-name batch
    spans.size[1] = 4.0
    weighted = layers.per_request(spans)
    # The batch and both parses under it count four times; the rest once.
    assert weighted.self_time.tolist() == [3.0, 12.0, 4.0, 4.0, 2.0]
    assert spans.self_time.tolist() == [3.0, 3.0, 1.0, 1.0, 2.0]


def test_benchmark_json_lists_what_the_runs_print():
    import json

    import layers
    from run import E2E_METRICS

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(E2E_METRICS)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == list(
        layers.LAYER_METRICS)
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert all(m["bound"] <= setup["bound"] <= 0.25 for m in bench["end_to_end"])
