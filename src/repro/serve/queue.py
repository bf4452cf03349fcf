"""Priority + per-tenant fair-share job queue with lease semantics.

Scheduling is two-level: jobs first bucket by priority (higher wins),
then within a bucket tenants take turns round-robin, each contributing
its oldest job.  One tenant enqueueing a thousand campaigns therefore
delays a second tenant by at most one job, regardless of arrival order.

``claim``/``complete`` form a lease protocol: a claimed job is owned by
a named worker until completed.  ``discard`` takes a job that was never
claimed out of its line (a cancel before it ran).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional


@dataclass
class QueuedJob:
    """One queue entry; ``payload`` is opaque to the queue."""

    job_id: str
    digest: str
    tenant: str
    priority: int
    payload: object = None
    seq: int = 0
    worker: str = field(default="", init=False)  # lease holder when claimed


class FairShareQueue:
    """Priority buckets of per-tenant FIFO lines, drained round-robin."""

    def __init__(self) -> None:
        # priority -> tenant -> FIFO of jobs; plus the rotation order of
        # tenants inside each priority bucket.
        self._lines: Dict[int, Dict[str, Deque[QueuedJob]]] = {}
        self._rotation: Dict[int, Deque[str]] = {}
        self._leased: Dict[str, QueuedJob] = {}
        self._seq = 0

    # -- enqueue ------------------------------------------------------------------

    def push(self, job: QueuedJob) -> None:
        """Append ``job`` to its tenant's line."""
        self._seq += 1
        job.seq = self._seq
        bucket = self._lines.setdefault(job.priority, {})
        line = bucket.get(job.tenant)
        if line is None:
            line = bucket[job.tenant] = deque()
            self._rotation.setdefault(job.priority, deque()).append(
                job.tenant
            )
        line.append(job)

    # -- lease protocol -----------------------------------------------------------

    def claim(self, worker: str = "local") -> Optional[QueuedJob]:
        """Lease the next job to ``worker`` (None when empty).

        Highest priority bucket first; within it, the tenant at the
        front of the rotation contributes its oldest job and moves to
        the back (if it still has queued work).
        """
        for priority in sorted(self._lines, reverse=True):
            rotation = self._rotation[priority]
            bucket = self._lines[priority]
            while rotation:
                tenant = rotation[0]
                line = bucket.get(tenant)
                if not line:
                    # Tenant drained: drop it from the rotation.
                    rotation.popleft()
                    bucket.pop(tenant, None)
                    continue
                job = line.popleft()
                rotation.rotate(-1)
                if not line:
                    # Contributed its last job: retire from rotation.
                    bucket.pop(tenant, None)
                    rotation.remove(tenant)
                job.worker = worker
                self._leased[job.job_id] = job
                return job
            # Bucket empty: clean it up and fall through to the next.
            self._lines.pop(priority, None)
            self._rotation.pop(priority, None)
        return None

    def complete(self, job_id: str) -> None:
        """Release the lease on a finished (or failed) job."""
        self._leased.pop(job_id, None)

    def discard(self, job_id: str) -> bool:
        """Drop a queued (unclaimed) job; True if it was queued.

        An emptied line stays until ``claim`` next reaches it, which
        already retires drained tenants from the rotation.
        """
        for bucket in self._lines.values():
            for line in bucket.values():
                for job in line:
                    if job.job_id == job_id:
                        line.remove(job)
                        return True
        return False

    # -- introspection ------------------------------------------------------------

    def pending(self) -> int:
        return sum(
            len(line)
            for bucket in self._lines.values()
            for line in bucket.values()
        )

    def leased(self) -> int:
        return len(self._leased)

    def __len__(self) -> int:
        return self.pending()

    def snapshot(self) -> List[Dict[str, object]]:
        """Queued jobs in claim order (for GET /v1/jobs and tests)."""
        entries: List[Dict[str, object]] = []
        for priority in sorted(self._lines, reverse=True):
            for tenant, line in sorted(self._lines[priority].items()):
                for job in line:
                    entries.append(
                        {
                            "job_id": job.job_id,
                            "digest": job.digest,
                            "tenant": tenant,
                            "priority": priority,
                        }
                    )
        return entries
