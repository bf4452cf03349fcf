"""Reference-vs-numpy backend equivalence, pinned bit for bit.

The numpy backend is only allowed to exist because it changes *nothing*
observable: for every scheme, fault mix, scrub walk, and sharding
degree, the outcome counters (and metadata counters, and hence every
derived statistic) must equal the reference backend's exactly.  These
tests sweep that matrix through the scenario campaign runner -- all
eight schemes under transient, interleaved-burst (D = 1/2/4), stuck-at,
and metadata-chaos faults, the sparse scrub and the dense audit walk
(the ``montecarlo._DENSE`` seam), serial and 4-shard execution.

The property tests at the bottom pin the plane layout itself: packing
is the little-endian serialisation the CRC/PLT code already uses, so
round-trips through :mod:`repro.coding.bitvec` values and
:class:`repro.coding.interleave.BitInterleaver` rows must be exact.
"""

import random

import numpy as np
import pytest

from repro.coding.bitvec import bit_positions, random_bits
from repro.coding.interleave import BitInterleaver
from repro.kernels import BACKEND_NAMES, get_backend, resolve_backend
from repro.kernels.planes import pack_lines, words_per_line
from repro.reliability import montecarlo
from repro.reliability.scenario import (
    SCHEMES,
    BurstSpec,
    FaultScenario,
    StuckSpec,
    run_scenario_campaign,
)

INTERVALS = 4
GROUP = 4
SEED = 13

#: One scenario per fault kind in the acceptance matrix.
FAULT_SCENARIOS = {
    "transient": FaultScenario(transient_ber=2e-3),
    "burst_d1": FaultScenario(
        transient_ber=5e-4,
        burst=BurstSpec.fixed_length(rate=0.05, length=3, interleave=1),
    ),
    "burst_d2": FaultScenario(
        transient_ber=5e-4,
        burst=BurstSpec.fixed_length(rate=0.05, length=3, interleave=2),
    ),
    "burst_d4": FaultScenario(
        transient_ber=5e-4,
        burst=BurstSpec.fixed_length(rate=0.05, length=4, interleave=4),
    ),
    "stuck": FaultScenario(transient_ber=1e-3, stuck=StuckSpec(ppm=500.0)),
}


def _run(scheme, scenario, backend, dense, chaos_policy=None):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(montecarlo, "_DENSE", dense)
        return run_scenario_campaign(
            scheme, scenario, intervals=INTERVALS, group_size=GROUP,
            seed=SEED, backend=backend, chaos_policy=chaos_policy,
        ).as_dict()


class TestRegistry:
    def test_backend_names(self):
        assert BACKEND_NAMES == ("reference", "numpy")

    def test_get_backend_is_singleton(self):
        assert get_backend("numpy") is get_backend("numpy")

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="reference"):
            get_backend("cupy")

    def test_resolve_passthrough(self):
        backend = get_backend("reference")
        assert resolve_backend(backend) is backend
        assert resolve_backend(None).name == "numpy"
        assert get_backend().name == "numpy"
        assert resolve_backend("numpy").name == "numpy"


class TestSchemeEquivalence:
    """All eight schemes x five fault mixes x dense/sparse, serial."""

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("fault", sorted(FAULT_SCENARIOS))
    def test_backends_bit_identical(self, scheme, fault):
        scenario = FAULT_SCENARIOS[fault]
        reference = _run(scheme, scenario, "reference", False)
        assert sum(reference["outcomes"].values()) > 0
        assert _run(scheme, scenario, "reference", True) == reference
        for dense in (False, True):
            assert _run(scheme, scenario, "numpy", dense) == reference


class TestChaosEquivalence:
    """Metadata chaos perturbs both backends identically."""

    @pytest.mark.parametrize("level", ["X", "Y", "Z"])
    def test_backends_bit_identical_under_chaos(self, level):
        from repro.resilience.chaos import ChaosPolicy

        policy = ChaosPolicy(
            plt_flip_rate=0.02,
            map_swap_rate=0.01,
            visit_drop_rate=0.05,
            visit_duplicate_rate=0.05,
        )
        scenario = FAULT_SCENARIOS["transient"]
        reference = _run(
            level, scenario, "reference", False, chaos_policy=policy
        )
        for backend in BACKEND_NAMES:
            for dense in (False, True):
                assert _run(
                    level, scenario, backend, dense, chaos_policy=policy
                ) == reference


class TestShardedEquivalence:
    """4-shard merged results equal serial, per backend, bit for bit."""

    MIXED = FaultScenario(
        transient_ber=1e-3,
        burst=BurstSpec.fixed_length(rate=0.03, length=3, interleave=2),
        stuck=StuckSpec(ppm=300.0),
    )

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_sharded_matches_serial_on_both_backends(self, scheme):
        from repro.parallel import run_sharded_scenario

        serial = run_sharded_scenario(
            scheme, self.MIXED, INTERVALS * 2, GROUP,
            shards=1, seed=SEED, backend="reference",
        ).as_dict()
        for backend in BACKEND_NAMES:
            sharded = run_sharded_scenario(
                scheme, self.MIXED, INTERVALS * 2, GROUP,
                shards=4, seed=SEED, backend=backend,
            ).as_dict()
            assert sharded == serial


class TestCampaignAndRaresimBackends:
    """The Monte-Carlo and rare-event entry points honour backend= too."""

    @pytest.mark.parametrize("level", ["X", "Y", "Z"])
    def test_group_campaign_backends_agree(self, level):
        from repro.reliability.montecarlo import run_group_campaign

        results = [
            run_group_campaign(
                level, 8e-4, trials=INTERVALS, group_size=8,
                rng=np.random.default_rng(21), backend=backend,
            ).as_dict()
            for backend in BACKEND_NAMES
        ]
        assert results[0] == results[1]

    def test_raresim_backends_agree(self):
        from repro.reliability.raresim import ConditionalGroupSimulator

        results = []
        for backend in BACKEND_NAMES:
            simulator = ConditionalGroupSimulator(
                ber=4e-4, group_size=16, num_groups=16,
                seed=3, backend=backend,
            )
            results.append(simulator.run("Z", 30).as_dict())
        assert results[0] == results[1]

    @pytest.mark.parametrize("level", ["Y", "Z"])
    def test_raresim_backends_agree_with_scenario_overlay(self, level):
        from repro.reliability.raresim import ConditionalGroupSimulator

        scenario = FaultScenario(
            transient_ber=1e-3,
            burst=BurstSpec.fixed_length(rate=0.05, length=3, interleave=2),
            stuck=StuckSpec(ppm=500.0),
        )
        results = []
        for backend in BACKEND_NAMES:
            simulator = ConditionalGroupSimulator(
                ber=1e-3, group_size=16, num_groups=16, seed=5,
                backend=backend, scenario=scenario,
            )
            results.append(simulator.run(level, 30).as_dict())
        assert results[0] == results[1]
        assert 0 < results[0]["conditional_failures"] < 30


class TestPlanePacking:
    """Property tests: the plane layout is the little-endian layout."""

    WIDTHS = (1, 7, 64, 65, 128, 553)

    @staticmethod
    def _unpack(row):
        return int.from_bytes(row.tobytes(), "little")

    def test_round_trip_random_lines(self):
        rng = random.Random(41)
        for width in self.WIDTHS:
            values = [random_bits(width, rng) for _ in range(64)]
            values += [0, (1 << width) - 1, 1 << (width - 1)]
            matrix = pack_lines(values, width)
            assert matrix.shape == (len(values), words_per_line(width))
            assert [self._unpack(row) for row in matrix] == values

    def test_bit_layout_matches_bitvec(self):
        """Bit b of line value lives at word b//64, offset b%64."""
        rng = random.Random(42)
        for width in self.WIDTHS:
            value = random_bits(width, rng)
            row = pack_lines([value], width)[0]
            unpacked = {
                word * 64 + offset
                for word in range(row.shape[0])
                for offset in range(64)
                if (int(row[word]) >> offset) & 1
            }
            assert unpacked == set(bit_positions(value))

    def test_pack_lines_matches_to_bytes(self):
        rng = random.Random(43)
        values = [random_bits(553, rng) for _ in range(32)]
        matrix = pack_lines(values, 553)
        nbytes = words_per_line(553) * 8
        for index, value in enumerate(values):
            assert matrix[index].tobytes() == value.to_bytes(nbytes, "little")

    def test_round_trip_through_interleaver(self):
        """Interleaved rows survive the plane representation exactly."""
        rng = random.Random(44)
        for depth in (2, 4, 8):
            interleaver = BitInterleaver(line_bits=553, depth=depth)
            lines = [random_bits(553, rng) for _ in range(depth)]
            row_value = interleaver.interleave(lines)
            packed = pack_lines([row_value], interleaver.row_bits)[0]
            assert self._unpack(packed) == row_value
            assert interleaver.deinterleave(self._unpack(packed)) == lines

    @pytest.mark.parametrize("size", [0, 1, 17, 512])
    def test_xor_fold_matches_reference(self, size):
        rng = random.Random(45)
        values = [random_bits(553, rng) for _ in range(size)]
        folds = [
            resolve_backend(name).xor_fold(values, 553)
            for name in BACKEND_NAMES
        ]
        expected = 0
        for value in values:
            expected ^= value
        assert folds == [expected, expected]


class TestCleanDecodeFastPath:
    """The known-clean batch decode equals ``codec.decode`` exactly."""

    def test_matches_scalar_decode_on_clean_words(self):
        from repro.core.linecodec import DecodeStatus, LineCodec

        codec = LineCodec()
        rng = random.Random(51)
        words = [
            codec.encode(random_bits(codec.layout.data_bits, rng))
            for _ in range(9)
        ]
        expected = [codec.decode(word) for word in words]
        assert all(d.status is DecodeStatus.CLEAN for d in expected)
        for name in BACKEND_NAMES:
            decoded = resolve_backend(name).batch_decode_clean(codec, words)
            assert decoded == expected

    def test_classify_keeps_stuck_residue_off_the_clean_path(self):
        """Stuck-bit residue passes ``is_clean`` but is not a codeword.

        A line whose only stored-vs-golden divergence is a re-asserted
        stuck bit must still be checked when the scrub classifies its
        frames (the raw dirty set, not ``is_clean``, guards the fast
        path) -- otherwise the numpy backend would label a corrupt word
        CLEAN.
        """
        from repro.core.engine import build_engine
        from repro.core.linecodec import DecodeStatus, LineCodec
        from repro.sttram.array import STTRAMArray
        from repro.sttram.faults import FaultKind, PermanentFaultMap

        codec = LineCodec()
        array = STTRAMArray(8, codec.stored_bits)
        engine = build_engine("X", array, group_size=4, codec=codec)
        frame = 2
        stored = array.read(frame)
        position = next(
            bit for bit in range(codec.stored_bits)
            if not (stored >> bit) & 1
        )
        fault_map = PermanentFaultMap(codec.stored_bits)
        fault_map.add(frame, position, FaultKind.STUCK_AT_ONE)
        array.attach_permanent_faults(fault_map)
        assert array.is_clean(frame) and array.is_dirty(frame)

        stored = array.read(frame)
        engine._classify([frame])
        cached = engine._cached_decode(frame, stored)
        assert cached == codec.decode(stored)
        assert cached.status is not DecodeStatus.CLEAN


class TestBatchCheck:
    """``batch_check`` equals ``codec.decode``'s verdict on both backends."""

    @staticmethod
    def _assert_matches_decode(codec, words, backends=BACKEND_NAMES):
        from repro.core.linecodec import DecodeStatus
        from repro.kernels import (
            CHECK_CLEAN,
            CHECK_UNCORRECTABLE,
            decode_from_check,
        )

        expected = [codec.decode(word) for word in words]
        for name in backends:
            codes = resolve_backend(name).batch_check(codec, words)
            assert len(codes) == len(words)
            for word, code, decode in zip(words, codes, expected):
                if decode.status is DecodeStatus.CLEAN:
                    assert code == CHECK_CLEAN
                elif decode.status is DecodeStatus.UNCORRECTABLE:
                    assert code == CHECK_UNCORRECTABLE
                else:
                    assert code == decode.flipped_position
                    assert decode.word == word ^ (1 << code)
                assert decode_from_check(codec, word, code) == decode
        return expected

    def test_clean_and_one_to_three_bit_words(self):
        from repro.core.linecodec import DecodeStatus, LineCodec

        codec = LineCodec()
        rng = random.Random(61)
        words = []
        for flips in (0, 1, 2, 3) * 40:
            word = codec.encode(random_bits(codec.layout.data_bits, rng))
            for position in rng.sample(range(codec.stored_bits), flips):
                word ^= 1 << position
            words.append(word)
        decodes = self._assert_matches_decode(codec, words)
        assert {decode.status for decode in decodes} == set(DecodeStatus)

    def test_crafted_miscorrection(self):
        """One flip off *another* codeword: ECC-1 repairs it to that one."""
        from repro.core.linecodec import DecodeStatus, LineCodec

        codec = LineCodec()
        rng = random.Random(62)
        golden = codec.encode(random_bits(codec.layout.data_bits, rng))
        delta = codec.encode(random_bits(codec.layout.data_bits, rng))
        delta ^= codec.encode(0)
        words = [
            golden ^ (1 << position) ^ delta
            for position in (0, 17, codec.stored_bits - 1)
        ]
        for decode in self._assert_matches_decode(codec, words):
            assert decode.status is DecodeStatus.CORRECTED
            assert decode.word == golden ^ delta

    def test_empty_input(self):
        from repro.core.linecodec import LineCodec

        for name in BACKEND_NAMES:
            assert resolve_backend(name).batch_check(LineCodec(), []) == []

    def test_ineligible_codec_is_not_classified(self):
        """numpy declines a ``LineCodec`` subclass without decoding it."""
        from repro.core.linecodec import LineCodec

        class CountingCodec(LineCodec):
            decodes = 0

            def decode(self, word):
                CountingCodec.decodes += 1
                return super().decode(word)

        codec = CountingCodec()
        rng = random.Random(63)
        words = [
            codec.encode(random_bits(codec.layout.data_bits, rng))
            ^ (rng.getrandbits(3) << rng.randrange(codec.stored_bits - 3))
            for _ in range(12)
        ]
        CountingCodec.decodes = 0
        assert get_backend("numpy").batch_check(codec, words) is None
        assert CountingCodec.decodes == 0
        # Its decodes still fall back to the scalar codec, and the
        # reference classifies it: its repairs are single flips.
        decodes = get_backend("numpy").batch_decode(codec, words)
        assert CountingCodec.decodes == len(words)
        assert decodes == [codec.decode(word) for word in words]
        self._assert_matches_decode(codec, words, backends=["reference"])

    def test_multi_bit_repairs_are_not_classified(self):
        """An ECC-2 repair flips two bits: no code describes it."""
        from repro.core.ecc2 import ECC2LineCodec
        from repro.core.linecodec import DecodeStatus

        codec = ECC2LineCodec()
        rng = random.Random(64)
        golden = codec.encode(random_bits(codec.layout.data_bits, rng))
        one, two = rng.sample(range(codec.stored_bits), 2)
        single = golden ^ (1 << one)
        double = single ^ (1 << two)
        assert codec.decode(double).status is DecodeStatus.CORRECTED
        assert codec.decode(double).word == golden
        for name in BACKEND_NAMES:
            assert resolve_backend(name).batch_check(codec, [single, double]) is None
        assert get_backend("numpy").batch_check(codec, [golden, single]) is None
        self._assert_matches_decode(codec, [golden, single], backends=["reference"])


class TestCLIBackendFlag:
    def test_unknown_backend_rejected(self):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign", "--backend", "torch"])
