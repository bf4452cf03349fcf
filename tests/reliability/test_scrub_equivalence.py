"""Dense-vs-sparse golden equivalence for the scrub fast path.

Campaigns scrub only the array's dirty frames and bulk-account every
other line as ``clean``.  These tests pin the load bearing claim from
docs/performance.md: for the same seed, the outcome counters (and hence
every failure statistic derived from them) are *bit-identical* to the
dense audit walk -- for the SuDoku engines, for every baseline, under
metadata/visit chaos, and for the rare-event simulator.  The dense walk
is reached only through the test seams ``montecarlo._DENSE`` and
``ConditionalGroupSimulator.sparse``.
"""


import numpy as np
import pytest

from repro.baselines.cppc import CPPCCache
from repro.baselines.eccline import ECCLineCache
from repro.baselines.hiecc import HiECCCache
from repro.baselines.raid6 import RAID6Cache
from repro.baselines.twodp import TwoDPCache
from repro.coding.bch import BCH
from repro.core.linecodec import LineCodec
from repro.reliability import montecarlo
from repro.reliability.montecarlo import (
    run_engine_campaign,
    run_group_campaign,
)
from repro.reliability.raresim import ConditionalGroupSimulator
from repro.resilience.chaos import ChaosPolicy
from repro.sttram.array import STTRAMArray

BER = 3e-4
INTERVALS = 12
GROUP = 8

#: Small shared BCH codes so the module builds generator polynomials once.
LINE_CODE = BCH(64, 3, m=8)
REGION_CODE = BCH(256, 3, m=9)


def dense_and_sparse(run):
    """``run()`` under the dense audit walk, then as every entry point runs."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(montecarlo, "_DENSE", True)
        dense = run()
    return [dense, run()]


def _campaign(make_scheme, seed=5, ber=BER, chaos_policy=None):
    """One campaign on a freshly built scheme; twin runs share the seed."""
    return run_engine_campaign(
        make_scheme(),
        ber=ber,
        intervals=INTERVALS,
        rng=np.random.default_rng(seed),
        chaos_policy=chaos_policy,
        chaos_seed=99,
    )


def _assert_equivalent(make_scheme, ber=BER, chaos_policy=None):
    dense, sparse = dense_and_sparse(
        lambda: _campaign(make_scheme, ber=ber, chaos_policy=chaos_policy)
    )
    assert sparse.as_dict() == dense.as_dict()
    assert sum(sparse.outcomes.values()) > 0


class TestSuDokuEngines:
    @pytest.mark.parametrize("level", ["X", "Y", "Z"])
    def test_group_campaign_equivalence(self, level):
        results = dense_and_sparse(
            lambda: run_group_campaign(
                level, BER, trials=INTERVALS, group_size=GROUP,
                rng=np.random.default_rng(21),
            )
        )
        assert results[0].as_dict() == results[1].as_dict()

    @pytest.mark.parametrize("level", ["X", "Y", "Z"])
    def test_equivalence_under_chaos(self, level):
        """Visit drops/duplicates and metadata faults perturb both modes
        identically (the chaos RNG is consumed before mode dispatch)."""
        policy = ChaosPolicy(
            plt_flip_rate=0.02,
            map_swap_rate=0.01,
            visit_drop_rate=0.05,
            visit_duplicate_rate=0.05,
        )
        results = dense_and_sparse(
            lambda: run_group_campaign(
                level, 8e-4, trials=INTERVALS, group_size=GROUP,
                rng=np.random.default_rng(33),
                chaos_policy=policy, chaos_seed=7,
            )
        )
        assert results[0].as_dict() == results[1].as_dict()


class TestBaselines:
    def test_eccline(self):
        _assert_equivalent(
            lambda: ECCLineCache(
                num_lines=16, t=LINE_CODE.t, data_bits=LINE_CODE.k,
                code=LINE_CODE,
            ),
            ber=2e-3,
        )

    def test_cppc(self):
        _assert_equivalent(lambda: CPPCCache(num_lines=16), ber=1e-3)

    def test_raid6(self):
        _assert_equivalent(
            lambda: RAID6Cache(num_lines=32, group_size=8), ber=1e-3
        )

    def test_twodp(self):
        def make():
            codec = LineCodec()
            array = STTRAMArray(GROUP * GROUP, codec.stored_bits)
            return TwoDPCache(array, group_size=GROUP, codec=codec)

        _assert_equivalent(make, ber=8e-4)

    def test_hiecc(self):
        _assert_equivalent(
            lambda: HiECCCache(
                num_regions=8, region_bytes=32, t=REGION_CODE.t,
                code=REGION_CODE,
            ),
            ber=1e-3,
        )


class TestRaresim:
    def test_sparse_matches_dense_trials(self):
        results = []
        for sparse in (False, True):
            simulator = ConditionalGroupSimulator(
                ber=4e-4, group_size=16, num_groups=16,
                seed=3,
            )
            simulator.sparse = sparse
            results.append(simulator.run("Z", 40).as_dict())
        assert results[0] == results[1]


class TestPermanentFaults:
    """Sparse == dense with stuck-at faults attached.

    Stuck bits re-assert after every correction, so frames whose stuck
    value conflicts with the written content are *permanently* dirty --
    the sparse pass must keep visiting them forever, not just while a
    transient residue lasts.  These tests pin that the raw-dirty
    bookkeeping (``stored != golden``, not residual-clean) keeps the two
    modes bit-identical.
    """

    @staticmethod
    def _stuck_engine(seed=17, ppm=4000.0):
        from repro.sttram.faults import PermanentFaultMap

        engine = ECCLineCache(
            num_lines=16, t=LINE_CODE.t, data_bits=LINE_CODE.k,
            code=LINE_CODE,
        )
        engine.array.attach_permanent_faults(
            PermanentFaultMap.random(
                engine.array.num_lines, engine.array.line_bits,
                fault_ppm=ppm, rng=np.random.default_rng(seed),
            )
        )
        return engine

    def test_engine_campaign_equivalence_with_stuck_bits(self):
        _assert_equivalent(self._stuck_engine, ber=1e-3)

    def test_stuck_conflicting_frames_stay_dirty(self):
        engine = self._stuck_engine()
        array = engine.array
        assert array.has_permanent_faults
        run_engine_campaign(
            engine, ber=0.0, intervals=3, rng=np.random.default_rng(1),
        )
        # After scrubbing with zero transient faults, any line whose
        # stored value still differs from golden does so only because
        # of stuck bits -- and must still be tracked as dirty.
        for line in array.dirty_frames():
            faults = array.permanent_faults
            assert faults.error_vector(line, array.golden(line)) != 0

    @pytest.mark.parametrize("scheme", ["Z", "eccline", "raid6", "twodp"])
    def test_scenario_campaign_equivalence(self, scheme):
        from repro.reliability.scenario import (
            BurstSpec,
            FaultScenario,
            StuckSpec,
            run_scenario_campaign,
        )

        scenario = FaultScenario(
            transient_ber=2e-3,
            burst=BurstSpec.fixed_length(rate=0.05, length=3, interleave=2),
            stuck=StuckSpec(ppm=400.0),
        )
        results = dense_and_sparse(
            lambda: run_scenario_campaign(
                scheme, scenario, intervals=INTERVALS, group_size=4, seed=13,
            )
        )
        assert results[0].as_dict() == results[1].as_dict()
        assert sum(results[0].outcomes.values()) > 0

