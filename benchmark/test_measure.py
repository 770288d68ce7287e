"""The benchmark's own statistics and operation counting.

    python3 -m pytest benchmark
"""

import math
import time

import workloads
from inputs import corpus_inputs
from measure import HostClock, Tally, case_time, median, percentile, tail, tail_percentile


def beyond(p, n):
    return n - math.ceil(p * n / 100)


def test_tail_is_the_highest_percentile_with_ten_beyond():
    for n in range(40, 1201):
        p = tail_percentile(n)
        assert beyond(p, n) >= 10, n
        assert p == 99 or beyond(p + 1, n) < 10, n


def test_tail_of_the_workload_sizes():
    assert tail_percentile(540) == 98
    assert tail_percentile(45) == 77
    assert tail_percentile(40) == 75


def test_tail_value_leaves_ten_samples_beyond():
    values = [float(v) for v in range(100)]
    assert tail(values) == (90, 89.0)
    assert sum(1 for v in values if v > percentile(values, 90)) == 10


def test_median_alone_below_forty_samples():
    values = list(range(39))
    assert tail_percentile(39) is None
    assert tail(values) is None
    assert median(values) == 19
    assert median([4, 1, 3, 2]) == 2.5


def test_case_time_is_the_median_of_its_scaled_repeats():
    # scaled: 2.7, 0.5, 0.2 -> 0.5; an outlier either way does not move it
    assert case_time([(3.0, 0.9), (1.0, 0.5), (2.0, 0.1)]) == 0.5
    assert case_time([(1.0, 0.5), (1.1, 0.5), (9.0, 0.5)]) == 0.55
    assert case_time([(2.0, 0.25)]) == 0.5
    assert case_time([(1.0, 1.0), (3.0, 1.0)]) == 2.0


def test_host_clock_scales_by_the_references_during_and_around_a_measurement():
    ticks = iter([0.0, 0.0, 0.002, 0.002,        # a reference at 0: 2 ms
                  0.010,                         # a measurement starts
                  0.020, 0.020, 0.028, 0.028,    # a reference during it: 8 ms
                  0.100,                         # it stops
                  0.110, 0.110, 0.114, 0.114,    # a reference after it: 4 ms
                  0.120, 0.121,                  # a 1 ms measurement
                  0.130, 0.130, 0.146, 0.146,    # a reference after it: 16 ms
                  0.200])
    clock = HostClock(timer=lambda: next(ticks))
    t0 = clock.start()
    clock.sample()
    seconds, mark = clock.stop(t0)
    assert abs(seconds - 0.082) < 1e-9  # the reference during it left out
    clock.sample()
    short, short_mark = clock.stop(clock.start())
    ref = HostClock.REFERENCE_S
    # the one before, the one during and the one after
    assert abs(clock.factor(mark) - ref / 0.004) < 1e-9
    # while none follows it yet, the one before stands alone
    assert abs(clock.factor(short_mark) - ref / 0.004) < 1e-9
    clock.sample()
    assert abs(clock.factor(short_mark) - ref / 0.008) < 1e-9
    assert abs(clock.now() - (0.200 - 0.030)) < 1e-9


def test_host_clock_samples_while_running():
    clock = HostClock()
    with clock.running():
        t0 = clock.start()
        deadline = time.perf_counter() + 0.3
        while time.perf_counter() < deadline:
            pass
        seconds, mark = clock.stop(t0)
    assert len(clock.runs) >= 4  # the first, several during, one at the end
    assert 0.2 < seconds < 0.3
    assert clock.factor(mark) > 0


def test_tally():
    tally = Tally()
    tally.record("x", [])
    tally.record("y", ["wrong count"])
    tally.record("z", [])
    assert (tally.attempted, tally.failed) == (3, 1)
    assert tally.problems == {"y": ["wrong count"]}


def test_failed_case_is_counted_and_the_run_goes_on(monkeypatch):
    """On a tiny corpus slice, a wrong Earley count for the second case
    makes exactly that case fail on that ground; every case is still
    attempted, and any other failure is the engine's stale status."""
    inputs = corpus_inputs(0, seeds=range(4, 9), long_seeds=range(0))
    real = workloads.earley_count_trees
    calls = []

    def count_wrong_once(g, lat, cap=10000):
        calls.append(1)
        tc = real(g, lat, cap)
        return type(tc)("finite", 10**6) if len(calls) == 2 else tc

    monkeypatch.setattr(workloads, "earley_count_trees", count_wrong_once)
    monkeypatch.setattr(workloads, "SETUP_SECONDS", 0.0)
    result = workloads.run("corpus", inputs, seed=1, seconds=0, trace=False)
    tally = result.tally
    assert tally.attempted == len(inputs.cases) == 5
    assert len(calls) == 5
    second = inputs.cases[1].id
    assert any("Earley" in p for p in tally.problems[second])
    assert tally.failed == len(tally.problems)
    for case_id, problems in tally.problems.items():
        if case_id != second:
            assert all("stale status" in p for p in problems)
    assert result.passes == 1  # no time for repeats


def test_a_fresh_draw_changes_the_inputs_but_not_their_make_up():
    pinned, fresh = corpus_inputs(0), corpus_inputs(1)
    assert len(fresh.cases) == len(pinned.cases) == 540
    assert fresh.digest() != pinned.digest()
    assert corpus_inputs(1).digest() == fresh.digest()
