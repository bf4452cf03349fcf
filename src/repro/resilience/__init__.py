"""repro.resilience -- chaos testing and crash-safe campaign machinery.

Two halves, both in service of the same question the paper asks of the
hardware: *what survives when things fail?*

* :mod:`repro.resilience.chaos` -- fault injection for the correction
  **metadata** (PLT parity words, group mapping, scrub schedule), the
  structure the paper -- and, previously, this reproduction -- treated
  as axiomatically immune.  The engines respond with CRC verification,
  group quarantine, CRC-verified rebuilds, and the explicit
  ``metadata_due`` outcome instead of silent corruption.
* :mod:`repro.resilience.checkpoint` -- crash-safe, bit-identically
  resumable campaign state: atomic JSON snapshots of aggregates, a
  wall-clock :class:`Deadline` watchdog, and the
  :class:`CheckpointError` taxonomy the CLI turns into one-line errors.

See ``docs/resilience.md`` for the full story.
"""

from repro.resilience.chaos import ChaosInjector, ChaosPolicy
from repro.resilience.checkpoint import (
    CHECKPOINT_VERSION,
    CancelWatch,
    Checkpointer,
    CheckpointError,
    Deadline,
    build_payload,
    job_checkpoint_path,
    load_checkpoint,
    require_config_match,
)

__all__ = [
    "ChaosPolicy",
    "ChaosInjector",
    "CHECKPOINT_VERSION",
    "CancelWatch",
    "Checkpointer",
    "CheckpointError",
    "Deadline",
    "build_payload",
    "job_checkpoint_path",
    "load_checkpoint",
    "require_config_match",
]
