"""Fair-share queue: priority, tenant rotation, lease protocol, discard."""

from repro.serve.queue import FairShareQueue, QueuedJob


def _job(job_id, tenant="t", priority=0):
    return QueuedJob(
        job_id=job_id, digest=job_id * 4, tenant=tenant, priority=priority
    )


class TestOrdering:
    def test_fifo_within_one_tenant(self):
        queue = FairShareQueue()
        for job_id in ("a", "b", "c"):
            queue.push(_job(job_id))
        assert [queue.claim().job_id for _ in range(3)] == ["a", "b", "c"]
        assert queue.claim() is None

    def test_higher_priority_wins(self):
        queue = FairShareQueue()
        queue.push(_job("low", priority=0))
        queue.push(_job("high", priority=5))
        queue.push(_job("mid", priority=2))
        order = [queue.claim().job_id for _ in range(3)]
        assert order == ["high", "mid", "low"]

    def test_tenants_round_robin_within_priority(self):
        queue = FairShareQueue()
        # Tenant A floods first; B submits one job afterwards.
        for index in range(3):
            queue.push(_job(f"a{index}", tenant="A"))
        queue.push(_job("b0", tenant="B"))
        order = [queue.claim().job_id for _ in range(4)]
        # B's single job waits behind at most ONE of A's, not all three.
        assert order == ["a0", "b0", "a1", "a2"]

    def test_rotation_across_three_tenants(self):
        queue = FairShareQueue()
        for tenant in ("A", "B", "C"):
            for index in range(2):
                queue.push(_job(f"{tenant.lower()}{index}", tenant=tenant))
        order = [queue.claim().job_id for _ in range(6)]
        assert order == ["a0", "b0", "c0", "a1", "b1", "c1"]


class TestLease:
    def test_claim_records_worker(self):
        queue = FairShareQueue()
        queue.push(_job("a"))
        job = queue.claim("worker-7")
        assert job.worker == "worker-7"
        assert queue.leased() == 1
        assert queue.pending() == 0

    def test_complete_releases_lease(self):
        queue = FairShareQueue()
        queue.push(_job("a"))
        job = queue.claim()
        queue.complete(job.job_id)
        assert queue.leased() == 0

    def test_discard_drops_a_queued_job_and_keeps_order(self):
        queue = FairShareQueue()
        for job_id in ("a", "b", "c"):
            queue.push(_job(job_id))
        assert queue.discard("b")
        assert queue.pending() == 2
        assert [queue.claim().job_id for _ in range(2)] == ["a", "c"]
        assert queue.claim() is None

    def test_discard_last_job_retires_the_tenant(self):
        queue = FairShareQueue()
        queue.push(_job("a0", tenant="A"))
        queue.push(_job("b0", tenant="B"))
        queue.push(_job("b1", tenant="B"))
        assert queue.discard("a0")
        assert [queue.claim().job_id for _ in range(2)] == ["b0", "b1"]
        # A's next job joins the rotation afresh.
        queue.push(_job("a1", tenant="A"))
        assert queue.claim().job_id == "a1"
        assert queue.snapshot() == []

    def test_discard_unknown_or_claimed_is_noop(self):
        queue = FairShareQueue()
        queue.push(_job("a"))
        queue.claim()
        assert not queue.discard("a")
        assert not queue.discard("ghost")
        assert queue.leased() == 1 and len(queue) == 0


class TestIntrospection:
    def test_snapshot_in_claim_order_buckets(self):
        queue = FairShareQueue()
        queue.push(_job("low", tenant="A", priority=0))
        queue.push(_job("high", tenant="B", priority=3))
        snapshot = queue.snapshot()
        assert [entry["job_id"] for entry in snapshot] == ["high", "low"]
        assert snapshot[0]["priority"] == 3
        assert len(queue) == 2
