"""BuildOnce: the process-wide memo under the blueprint tables and the
shared DroidNative."""

import collections
import sys
import threading
import time

import pytest

from repro.memo import BuildOnce


def test_threads_missing_one_key_together_build_it_once():
    """Stress: 16 threads over 4 keys, switching as often as possible."""
    memo = BuildOnce()
    builds = collections.Counter()
    results = collections.defaultdict(list)
    barrier = threading.Barrier(16)
    counting = threading.Lock()

    def build(key):
        with counting:
            builds[key] += 1
        time.sleep(0.001)  # widen the window a second builder would race into
        return object()

    def get(key):
        barrier.wait(timeout=10)
        for _ in range(50):
            results[key].append(memo.get(key, lambda: build(key)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=get, args=(n % 4,)) for n in range(16)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert builds == {key: 1 for key in range(4)}
    for key, values in results.items():
        assert len(values) == 200 and all(value is values[0] for value in values)


def test_a_slow_build_does_not_hold_up_a_hit_on_another_key():
    memo = BuildOnce()
    memo.get("warm", lambda: "value")
    started, release = threading.Event(), threading.Event()

    def slow():
        started.set()
        release.wait(timeout=10)
        return "slow"

    builder = threading.Thread(target=memo.get, args=("cold", slow))
    builder.start()
    try:
        assert started.wait(timeout=10)
        assert memo.get("warm", lambda: pytest.fail("rebuilt a kept value")) == "value"
    finally:
        release.set()
        builder.join(timeout=10)
    assert memo.get("cold", lambda: "rebuilt") == "slow"


def test_a_failed_build_is_not_cached():
    memo = BuildOnce()
    calls = []

    def failing():
        calls.append(1)
        raise ValueError("no")

    for _ in range(2):
        with pytest.raises(ValueError):
            memo.get("k", failing)
    assert len(calls) == 2
    assert memo.get("k", lambda: 7) == 7


def test_bounded_by_total_weight_least_recently_used_first():
    memo = BuildOnce(capacity=10, weight=len)
    memo.get("a", lambda: "aaaa")
    memo.get("b", lambda: "bbbb")
    memo.get("a", lambda: pytest.fail("a was kept"))  # a is now most recent
    memo.get("c", lambda: "cccc")  # 12 > 10: b goes
    assert memo.get("a", lambda: "rebuilt") == "aaaa"
    assert memo.get("c", lambda: "rebuilt") == "cccc"
    assert memo.get("b", lambda: "rebuilt") == "rebuilt"


def test_a_value_heavier_than_the_bound_is_returned_not_kept():
    memo = BuildOnce(capacity=3, weight=len)
    memo.get("small", lambda: "ab")
    assert memo.get("big", lambda: "abcd") == "abcd"
    assert memo.get("big", lambda: "again") == "again"
    assert memo.get("small", lambda: pytest.fail("small was evicted")) == "ab"
