"""DDR3-style main-memory timing (the USIMM stand-in).

Table VI's system backs the LLC with two channels of DDR3-800.  The
model here is a banked queueing abstraction: each channel has a number of
banks, each bank is a FIFO server, and a request occupies its bank for a
row-hit or row-miss service time (open-page with a simple same-row
heuristic).  That is the level of fidelity the Fig. 8 experiment needs
from memory: LLC misses must cost realistic, contention-sensitive
latencies so the *relative* cost of SuDoku's cache-side overheads is
measured against a realistic denominator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List


@dataclass(frozen=True)
class DRAMConfig:
    """Timing/geometry of the memory subsystem.

    Latencies approximate DDR3-800 (tCK = 2.5 ns): activate + CAS + burst
    for a row miss, CAS + burst for a row hit.
    """

    channels: int = 2
    banks_per_channel: int = 8
    row_hit_s: float = 25e-9
    row_miss_s: float = 50e-9
    row_size_lines: int = 128  # 8 KB rows / 64 B lines
    def __post_init__(self) -> None:
        if self.channels <= 0 or self.banks_per_channel <= 0:
            raise ValueError("geometry must be positive")
        if self.row_hit_s <= 0 or self.row_miss_s < self.row_hit_s:
            raise ValueError("row-miss latency must be >= row-hit latency")


@dataclass
class _Bank:
    busy_until: float = 0.0
    open_row: int = -1


class DRAMModel:
    """Banked FIFO memory model; returns completion times for requests."""

    def __init__(self, config: DRAMConfig = DRAMConfig()) -> None:
        self.config = config
        self._banks: List[_Bank] = [
            _Bank() for _ in range(config.channels * config.banks_per_channel)
        ]
        self.requests = 0
        self.row_hits = 0
        self.busy_time_s = 0.0

    def reset(self) -> None:
        """Clear all timing state (between simulation runs)."""
        for bank in self._banks:
            bank.busy_until = 0.0
            bank.open_row = -1
        self.requests = 0
        self.row_hits = 0
        self.busy_time_s = 0.0

    def access(self, line_address: int, now_s: float) -> float:
        """Issue a request at ``now_s``; returns its completion time."""
        config = self.config
        bank_index = line_address % len(self._banks)
        row = line_address // config.row_size_lines
        bank = self._banks[bank_index]
        start = max(bank.busy_until, now_s)
        if bank.open_row == row:
            service = config.row_hit_s
            self.row_hits += 1
        else:
            service = config.row_miss_s
            bank.open_row = row
        bank.busy_until = start + service
        self.requests += 1
        self.busy_time_s += service
        return bank.busy_until

    def row_hit_rate(self) -> float:
        """Fraction of requests that hit an open row."""
        return self.row_hits / self.requests if self.requests else 0.0
