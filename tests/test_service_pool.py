"""The supervised worker pool: crash/hang recovery, retry, salvage.

These tests drive :func:`repro.service.pool.run_supervised` with real
worker processes: crashes are genuine ``os._exit`` deaths injected by
the deterministic fault harness, hangs are real sleeps killed by the
per-task timeout, and interrupt salvage delivers a real
``KeyboardInterrupt`` to the supervisor.  Everything is seeded, so a
failing run replays exactly.
"""

import signal
import time

import pytest

from repro.service import faults
from repro.service.pool import (
    PoolResult,
    RetryPolicy,
    TaskFailure,
    run_supervised,
)


def _square(x):
    return x * x


def _flaky(arg):
    """Fails until its marker file exists (cross-process retry state)."""
    marker, x = arg
    if not marker.exists():
        marker.write_text("tried")
        raise ValueError(f"first attempt for {x} fails")
    return x * x


def _always_fails(x):
    raise RuntimeError(f"task {x} is broken")


def _sleepy(x):
    if x < 0:
        time.sleep(60)
    return x * x


def _interrupts_parent(x):
    return x


@pytest.fixture(autouse=True)
def _disarmed():
    """No fault plan leaks between tests (or in from the environment)."""
    faults.disarm()
    yield
    faults.disarm()


class TestRetryPolicy:
    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(
            backoff_base_s=0.1, backoff_cap_s=0.4, jitter=0.0
        )
        delays = [policy.backoff_s("k", a) for a in range(5)]
        assert delays[0] == pytest.approx(0.1)
        assert delays[1] == pytest.approx(0.2)
        assert delays[2] == pytest.approx(0.4)
        assert delays[4] == pytest.approx(0.4)  # capped

    def test_jitter_is_deterministic_and_bounded(self):
        policy = RetryPolicy(
            backoff_base_s=0.1, backoff_cap_s=1.0, jitter=0.5, seed=7
        )
        a = policy.backoff_s("key", 1)
        assert a == policy.backoff_s("key", 1)  # replayable
        assert 0.2 <= a <= 0.3  # base 0.2 + up to 50% jitter
        assert a != policy.backoff_s("other-key", 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(timeout_s=-1.0)


class TestSequential:
    def test_plain_success(self):
        result = run_supervised(_square, [1, 2, 3])
        assert result.payloads == [1, 4, 9]
        assert not result.failures and not result.interrupted

    def test_retry_then_succeed(self, tmp_path):
        items = [(tmp_path / f"m{i}", i) for i in range(3)]
        policy = RetryPolicy(max_attempts=2, backoff_base_s=0.0)
        result = run_supervised(_flaky, items, policy=policy)
        assert result.payloads == [0, 1, 4]
        assert result.n_retries == 3
        assert not result.failures

    def test_quarantine_after_budget(self):
        policy = RetryPolicy(max_attempts=3, backoff_base_s=0.0)
        result = run_supervised(_always_fails, ["a", "b"], policy=policy)
        assert result.payloads == [None, None]
        assert len(result.failures) == 2
        failure = result.failures[0]
        assert failure.kind == "error"
        assert failure.attempts == 3
        assert "broken" in failure.error
        assert len(failure.history) == 3

    def test_interrupt_salvages_completed(self):
        calls = []

        def func(x):
            if x == 2:
                raise KeyboardInterrupt
            calls.append(x)
            return x

        result = run_supervised(func, [0, 1, 2, 3])
        assert result.interrupted
        assert result.payloads == [0, 1, None, None]
        assert calls == [0, 1]

    def test_empty_items(self):
        result = run_supervised(_square, [])
        assert result.payloads == []


class TestSupervisedPool:
    def test_fan_out_matches_sequential(self):
        result = run_supervised(_square, list(range(8)), processes=3)
        assert result.payloads == [x * x for x in range(8)]
        assert not result.failures

    def test_worker_crash_is_retried_transparently(self):
        plan = faults.FaultPlan(
            seed=11,
            faults={"worker.crash": faults.FaultSpec(rate=1.0)},
        )
        policy = RetryPolicy(max_attempts=3, backoff_base_s=0.0, seed=11)
        with faults.armed(plan):
            result = run_supervised(
                _square, [1, 2, 3, 4], processes=2, policy=policy,
                keys=[f"task-{i}" for i in range(4)],
            )
        # Every first attempt died with os._exit, yet the sweep
        # completed bit-identically to a fault-free run.
        assert result.payloads == [1, 4, 9, 16]
        assert result.n_retries == 4
        assert not result.failures

    def test_crash_after_report_does_not_stall_other_workers(self):
        """A worker that reports and then dies on its next task must not
        block the other workers' reports (a lock or a half-written
        message shared between workers would leave them hanging)."""
        n = 40
        plan = faults.FaultPlan(
            seed=3, faults={"worker.crash": faults.FaultSpec(rate=0.5)},
        )
        policy = RetryPolicy(
            max_attempts=3, timeout_s=3.0, backoff_base_s=0.0, seed=3
        )
        with faults.armed(plan):
            result = run_supervised(
                _square, list(range(n)), processes=2, policy=policy,
                keys=[f"task-{i}" for i in range(n)],
            )
        assert not result.failures
        assert result.payloads == [x * x for x in range(n)]
        assert result.n_retries > 0

    def test_crash_quarantine_records_exitcode(self):
        plan = faults.FaultPlan(
            seed=5,
            faults={
                # max_attempt high enough that every retry crashes too.
                "worker.crash": faults.FaultSpec(rate=1.0, max_attempt=99),
            },
        )
        policy = RetryPolicy(max_attempts=2, backoff_base_s=0.0)
        with faults.armed(plan):
            result = run_supervised(
                _square, [7], processes=2, policy=policy, keys=["doomed"],
            )
        # n == 1 short-circuits to sequential; force the pool with a
        # second, healthy task instead.
        with faults.armed(plan):
            result = run_supervised(
                _square, [7, 8], processes=2, policy=policy,
                keys=["doomed", "doomed-too"],
            )
        assert result.payloads == [None, None]
        assert {f.kind for f in result.failures} == {"crash"}
        assert all(
            str(faults.CRASH_EXIT_CODE) in f.error
            for f in result.failures
        )

    def test_hung_task_is_killed_and_quarantined(self):
        policy = RetryPolicy(
            max_attempts=1, timeout_s=0.5, backoff_base_s=0.0
        )
        start = time.monotonic()
        result = run_supervised(
            _sleepy, [-1, 3], processes=2, policy=policy,
        )
        elapsed = time.monotonic() - start
        assert result.payloads == [None, 9]
        assert len(result.failures) == 1
        assert result.failures[0].kind == "hang"
        assert result.failures[0].index == 0
        assert elapsed < 30  # the 60s sleep was killed, not awaited

    def test_failures_are_structured_records(self):
        policy = RetryPolicy(max_attempts=1, backoff_base_s=0.0)
        result = run_supervised(
            _always_fails, ["x", "y", "z"], processes=2, policy=policy,
            labels=["task x", "task y", "task z"],
        )
        assert result.payloads == [None, None, None]
        assert len(result.failures) == 3
        for failure in result.failures:
            doc = failure.to_dict()
            assert doc["label"].startswith("task ")
            assert doc["attempts"] == 1
            assert doc["history"][0]["kind"] == "error"

    def test_interrupt_salvages_finished_payloads(self):
        # Deliver a real (alarm-driven) KeyboardInterrupt to the
        # supervisor mid-run: the non-raising contract is that
        # run_supervised *returns* with interrupted=True and every
        # already-finished payload intact (callers persist, then
        # re-raise).  The fast tasks are long done by the time the
        # interrupt lands; the slow ones never will be.
        policy = RetryPolicy(max_attempts=1, timeout_s=None)

        def raise_interrupt(*_):
            raise KeyboardInterrupt

        old = signal.signal(signal.SIGALRM, raise_interrupt)
        signal.setitimer(signal.ITIMER_REAL, 1.5)
        try:
            result = run_supervised(
                _sleepy, [1, 2, -1, -2], processes=2, policy=policy,
            )
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, old)
        assert result.interrupted
        assert result.payloads[0] == 1 and result.payloads[1] == 4
        assert result.payloads[2] is None and result.payloads[3] is None

    def test_keys_must_align(self):
        with pytest.raises(ValueError):
            run_supervised(_square, [1, 2], keys=["only-one"])


class TestPoolResult:
    def test_completed_counts_non_none(self):
        result = PoolResult(payloads=[1, None, 3])
        assert result.completed == 2

    def test_task_failure_round_trip(self):
        failure = TaskFailure(
            index=2, key="k", label="point", attempts=3,
            kind="crash", error="worker died (exitcode 66)",
            history=[{"attempt": "0", "kind": "crash", "error": "x"}],
        )
        doc = failure.to_dict()
        assert doc["index"] == 2 and doc["kind"] == "crash"
        assert doc["history"][0]["attempt"] == "0"
