"""SuDoku: the paper's primary contribution.

Everything specific to the SuDoku architecture lives here:

* :mod:`repro.core.config` -- configuration and the paper-constant registry.
* :mod:`repro.core.layout` / :mod:`repro.core.linecodec` -- the per-line
  format (data, CRC-31, ECC-1) and its encode/verify/repair operations.
* :mod:`repro.core.grouping` -- RAID-Group hash functions (Hash-1, Hash-2).
* :mod:`repro.core.plt_` -- the Parity Line Table.
* :mod:`repro.core.raid4` -- group scan and single-line reconstruction.
* :mod:`repro.core.sdr` -- Sequential Data Resurrection.
* :mod:`repro.core.engine` -- the SuDoku-X / -Y / -Z controllers.
* :mod:`repro.core.outcomes` / :mod:`repro.core.stats` -- outcome taxonomy
  and counters.
* :mod:`repro.core.rng` -- seed/RNG resolution (the sanctioned fallback
  policed by the ``repro lint`` RPR002 rule).
"""

from repro.core.config import PAPER, PaperConstants, SuDokuConfig
from repro.core.layout import LineLayout
from repro.core.linecodec import DecodeStatus, LineCodec, LineDecode
from repro.core.grouping import GroupMapper, SkewedGroupMapper
from repro.core.plt_ import ParityLineTable
from repro.core.outcomes import Outcome
from repro.core.engine import SuDokuEngine, SuDokuX, SuDokuY, SuDokuZ, build_engine
from repro.core.rng import UnseededRNGWarning, resolve_rng
from repro.core.stats import CorrectionStats, LatencyModel

__all__ = [
    "PAPER",
    "PaperConstants",
    "SuDokuConfig",
    "LineLayout",
    "DecodeStatus",
    "LineCodec",
    "LineDecode",
    "GroupMapper",
    "SkewedGroupMapper",
    "ParityLineTable",
    "Outcome",
    "SuDokuEngine",
    "SuDokuX",
    "SuDokuY",
    "SuDokuZ",
    "build_engine",
    "CorrectionStats",
    "LatencyModel",
    "UnseededRNGWarning",
    "resolve_rng",
]
