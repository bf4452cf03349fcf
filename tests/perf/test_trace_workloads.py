"""Unit tests for the synthetic traces and workload catalogue."""

import pytest

from repro.perf.trace import SyntheticTrace
from repro.perf.workloads import (
    MIXES,
    WORKLOADS,
    WorkloadProfile,
    profiles_for,
    suite_names,
)


class TestWorkloadCatalogue:
    def test_suite_composition(self):
        names = suite_names()
        assert "mcf" in names and "MIX1" in names
        assert len(names) == len(WORKLOADS) + len(MIXES)

    def test_all_profiles_valid(self):
        for profile in WORKLOADS.values():
            assert profile.mean_gap_cycles() > 0
            assert 0 <= profile.write_fraction <= 1

    def test_suites_labelled(self):
        suites = {profile.suite for profile in WORKLOADS.values()}
        assert suites == {"SPEC", "PARSEC", "BIO", "COMM"}

    def test_memory_bound_vs_cache_friendly(self):
        assert WORKLOADS["mcf"].llc_apki > 5 * WORKLOADS["povray"].llc_apki

    def test_profiles_for_rate_mode(self):
        profiles = profiles_for("gcc", num_cores=8)
        assert len(profiles) == 8
        assert all(p.name == "gcc" for p in profiles)

    def test_profiles_for_mix(self):
        profiles = profiles_for("MIX1", num_cores=8)
        assert len(profiles) == 8
        assert len({p.name for p in profiles}) > 1

    def test_unknown_workload(self):
        with pytest.raises(KeyError):
            profiles_for("nonexistent")

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            WorkloadProfile("bad", "SPEC", -1.0, 1.0, 0.2, 100)
        with pytest.raises(ValueError):
            WorkloadProfile("bad", "SPEC", 1.0, 1.0, 1.5, 100)
        with pytest.raises(ValueError):
            WorkloadProfile("bad", "SPEC", 1.0, 1.0, 0.5, 0)


class TestSyntheticTrace:
    def test_deterministic_replay(self):
        profile = WORKLOADS["gcc"]
        first = list(SyntheticTrace(profile, core_id=0, num_accesses=500, seed=3))
        second = list(SyntheticTrace(profile, core_id=0, num_accesses=500, seed=3))
        assert first == second

    def test_core_id_changes_stream_and_address_space(self):
        profile = WORKLOADS["gcc"]
        core0 = list(SyntheticTrace(profile, 0, 200, seed=3))
        core1 = list(SyntheticTrace(profile, 1, 200, seed=3))
        assert core0 != core1
        assert all(a.line_address < (1 << 26) for a in core0)
        assert all((1 << 26) <= a.line_address < (2 << 26) for a in core1)

    def test_length(self):
        trace = SyntheticTrace(WORKLOADS["bzip2"], 0, 123, seed=1)
        assert len(trace) == 123
        assert len(list(trace)) == 123

    def test_write_fraction_statistics(self):
        profile = WORKLOADS["lbm"]  # write fraction 0.45
        accesses = list(SyntheticTrace(profile, 0, 5000, seed=5))
        measured = sum(a.is_write for a in accesses) / len(accesses)
        assert measured == pytest.approx(profile.write_fraction, abs=0.03)

    def test_gap_statistics(self):
        profile = WORKLOADS["gcc"]
        accesses = list(SyntheticTrace(profile, 0, 5000, seed=6))
        mean_gap = sum(a.gap_cycles for a in accesses) / len(accesses)
        assert mean_gap == pytest.approx(profile.mean_gap_cycles(), rel=0.1)

    def test_footprint_respected(self):
        profile = WORKLOADS["povray"]
        accesses = list(SyntheticTrace(profile, 0, 5000, seed=7))
        distinct = {a.line_address for a in accesses}
        assert len(distinct) <= profile.footprint_lines

    def test_hot_set_concentration(self):
        profile = WORKLOADS["gcc"]
        accesses = list(SyntheticTrace(profile, 0, 5000, seed=8))
        hot_lines = int(profile.footprint_lines * profile.hot_fraction)
        hot_hits = sum(a.line_address < hot_lines for a in accesses)
        assert hot_hits / len(accesses) == pytest.approx(
            profile.hot_probability, abs=0.05
        )

    def test_gap_always_positive(self):
        for access in SyntheticTrace(WORKLOADS["mcf"], 0, 1000, seed=9):
            assert access.gap_cycles >= 1

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            SyntheticTrace(WORKLOADS["gcc"], 0, -1)
