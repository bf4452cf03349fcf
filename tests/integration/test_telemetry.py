"""End-to-end telemetry integration.

The two load-bearing guarantees:

1. telemetry is observational only -- a campaign with a registry and
   tracer attached produces bit-identical results to one without, given
   the same seed; and
2. the CLI export path emits parseable Prometheus text plus JSONL spans
   that cover the raid4/sdr/hash2 repair paths.
"""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.core.engine import build_engine
from repro.core.linecodec import LineCodec
from repro.obs import ProgressReporter, Telemetry
from repro.reliability.montecarlo import heal, run_group_campaign
from repro.reliability.raresim import ConditionalGroupSimulator
from repro.sttram.array import STTRAMArray
import random

# Small, failure-rich campaign: high accelerated BER over 8-line groups
# exercises ECC-1, RAID-4, SDR, and Hash-2 within a few intervals.
CAMPAIGN = dict(level="Z", ber=2e-3, trials=4, group_size=8)
SEED = 5


class TestBitIdenticalResults:
    def test_campaign_identical_with_and_without_telemetry(self):
        bare = run_group_campaign(
            **CAMPAIGN, rng=np.random.default_rng(SEED)
        )
        telemetry = Telemetry.create()
        instrumented = run_group_campaign(
            **CAMPAIGN, rng=np.random.default_rng(SEED), telemetry=telemetry
        )
        assert instrumented.outcomes == bare.outcomes
        assert instrumented.interval_failures == bare.interval_failures
        assert instrumented.failure_probability == bare.failure_probability
        # ... and the instrumented run actually recorded something.
        outcomes = telemetry.metrics.get("campaign_outcomes_total")
        assert outcomes is not None
        total = sum(child.value for _, child in outcomes.samples())
        assert total == sum(bare.outcomes.values())

    def test_raresim_identical_with_and_without_telemetry(self):
        def run(telemetry):
            simulator = ConditionalGroupSimulator(
                ber=1e-3, group_size=16, seed=11
            )
            return simulator.run("Z", trials=20, telemetry=telemetry)

        bare = run(None)
        telemetry = Telemetry.create()
        instrumented = run(telemetry)
        assert instrumented.conditional_failures == bare.conditional_failures
        trials = telemetry.metrics.get("raresim_trials_total")
        assert trials.labels(level="Z").value == 20


class TestCampaignMetricsSeries:
    def test_interval_and_mechanism_series_recorded(self):
        telemetry = Telemetry.create()
        result = run_group_campaign(
            **CAMPAIGN, rng=np.random.default_rng(SEED), telemetry=telemetry
        )
        metrics = telemetry.metrics
        intervals = metrics.get("campaign_intervals_total")
        ((_, child),) = intervals.samples()
        assert child.value == result.intervals
        histogram = metrics.get("campaign_interval_seconds")
        ((_, h),) = histogram.samples()
        assert h.count == result.intervals
        corrections = metrics.get("sudoku_corrections_total")
        mechanisms = {values[1] for values, _ in corrections.samples()}
        assert {"raid4", "sdr", "hash2"} <= mechanisms
        # CorrectionStats snapshot published at campaign end.
        stat = metrics.get("sudoku_engine_stat")
        assert stat.labels(level="Z", stat="group_scans").value > 0

    def test_engine_outcome_series_match_result(self):
        # The outcome series carries the plain outcome strings and
        # restates the result's outcome totals.
        telemetry = Telemetry.create()
        result = run_group_campaign(
            **CAMPAIGN, rng=np.random.default_rng(SEED), telemetry=telemetry
        )
        outcomes = telemetry.metrics.get("campaign_outcomes_total")
        recorded = {values: child.value for values, child in outcomes.samples()}
        assert recorded == {
            (label,): float(count) for label, count in result.outcomes.items()
        }

    def test_scrub_frames_exports_match_per_line_scrub(self):
        # scrub_frames resolves a pass in bulk; a LineScrubber walk goes
        # line by line.  Both must leave the tallies an export restates,
        # and the same repair spans.
        def scrubbed_export(per_line):
            rng = random.Random(3)
            codec = LineCodec()
            array = STTRAMArray(64, codec.stored_bits)
            telemetry = Telemetry.create()
            engine = build_engine(
                "Z", array, group_size=8, codec=codec, telemetry=telemetry
            )
            for _ in range(3):
                frames = sorted(rng.sample(range(64), 24))
                for frame in frames:
                    for _ in range(rng.choice((1, 1, 2, 3))):
                        array.inject(frame, 1 << rng.randrange(codec.stored_bits))
                if per_line:
                    engine.begin_scrub_pass()
                    for frame in frames:
                        engine.scrub_line(frame)
                else:
                    engine.scrub_frames(frames)
                heal(array)
                engine.initialize_parities()
            spans = [(span.name, span.attributes) for span in telemetry.tracer]
            return engine.stats.as_dict(), repr(engine.correction_time_s), spans

        stats, correction_time, spans = scrubbed_export(per_line=False)
        assert stats["ecc1_repairs"] and stats["raid4_invocations"]
        assert ("raid4_repair" in {name for name, _ in spans})
        assert (stats, correction_time, spans) == scrubbed_export(per_line=True)

    def test_spans_cover_repair_paths(self):
        telemetry = Telemetry.create()
        run_group_campaign(
            **CAMPAIGN, rng=np.random.default_rng(SEED), telemetry=telemetry
        )
        names = set(telemetry.tracer.names())
        assert {"campaign", "raid4_repair", "sdr_repair", "hash2_repair"} <= names
        campaign_span = telemetry.tracer.spans_named("campaign")[0]
        assert campaign_span.attributes["intervals"] == CAMPAIGN["trials"]
        # Repair spans nest under the campaign span.
        raid4 = telemetry.tracer.spans_named("raid4_repair")[0]
        assert raid4.depth >= 1

    def test_progress_reporter_heartbeats(self, capsys):
        import io

        stream = io.StringIO()
        progress = ProgressReporter(
            total=CAMPAIGN["trials"], label="mc", stream=stream,
            min_interval_s=0.0,
        )
        run_group_campaign(
            **CAMPAIGN, rng=np.random.default_rng(SEED), progress=progress
        )
        text = stream.getvalue()
        assert "[mc]" in text
        assert "done in" in text


class TestCliExport:
    def test_campaign_metrics_out(self, tmp_path, capsys):
        metrics_path = tmp_path / "metrics.prom"
        trace_path = tmp_path / "trace.jsonl"
        manifest_path = tmp_path / "manifest.json"
        code = main([
            "campaign", "--level", "Z", "--ber", "2e-3", "--intervals", "4",
            "--group-size", "8", "--seed", str(SEED),
            "--metrics-out", str(metrics_path),
            "--trace-out", str(trace_path),
            "--manifest-out", str(manifest_path),
        ])
        assert code == 0

        # Prometheus text: every sample line parses as name{labels} value.
        samples = {}
        for line in metrics_path.read_text().splitlines():
            if line.startswith("#"):
                assert line.startswith(("# HELP ", "# TYPE "))
                continue
            name_and_labels, value = line.rsplit(" ", 1)
            float(value)  # must parse
            samples[name_and_labels] = float(value)
        assert any(
            key.startswith("sudoku_corrections_total") for key in samples
        )
        assert any(
            key.startswith("campaign_interval_seconds_bucket") for key in samples
        )

        # Spans: JSONL records covering the three repair mechanisms.
        names = {
            json.loads(line)["name"]
            for line in trace_path.read_text().splitlines()
        }
        assert {"raid4_repair", "sdr_repair", "hash2_repair"} <= names

        manifest = json.loads(manifest_path.read_text())
        assert manifest["command"] == "campaign"
        assert manifest["seed"] == SEED
        assert manifest["config"]["level"] == "Z"
        assert manifest["durations_s"]["total"] > 0

    def test_campaign_results_unchanged_by_flags(self, tmp_path, capsys):
        """The CLI table is byte-identical with and without telemetry."""
        argv = [
            "campaign", "--level", "X", "--ber", "3e-4", "--intervals", "6",
            "--group-size", "8", "--seed", "3",
        ]
        assert main(argv) == 0
        bare_out = capsys.readouterr().out
        assert main(
            argv + ["--metrics-out", str(tmp_path / "m.prom")]
        ) == 0
        instrumented_out = capsys.readouterr().out
        assert instrumented_out == bare_out

    def test_perf_metrics_out(self, tmp_path, capsys):
        metrics_path = tmp_path / "perf.prom"
        code = main([
            "perf", "--workloads", "povray", "--accesses", "1200",
            "--metrics-out", str(metrics_path),
            "--trace-out", str(tmp_path / "perf-trace.jsonl"),
        ])
        assert code == 0
        text = metrics_path.read_text()
        assert 'perf_sim_simulated_seconds{workload="povray",config="ideal"}' in text
        assert 'perf_sim_simulated_seconds{workload="povray",config="sudoku"}' in text
        assert "perf_sim_wallclock_seconds" in text
        assert "perf_sim_time_ratio" in text
        spans = (tmp_path / "perf-trace.jsonl").read_text()
        assert spans.count('"name":"perf_sim"') == 2

    def test_metrics_out_jsonl_extension_switches_format(
        self, tmp_path, capsys
    ):
        target = tmp_path / "metrics.jsonl"
        assert main([
            "campaign", "--level", "X", "--ber", "1e-3", "--intervals", "2",
            "--group-size", "8", "--seed", "1",
            "--metrics-out", str(target),
        ]) == 0
        records = [
            json.loads(line) for line in target.read_text().splitlines()
        ]
        assert records and all("name" in record for record in records)

    def test_unwritable_out_path_fails_before_running(self, tmp_path, capsys):
        """A bad export dir must not cost the user the whole campaign."""
        with pytest.raises(SystemExit) as excinfo:
            main([
                "campaign", "--level", "X", "--ber", "1e-3",
                "--intervals", "2", "--group-size", "8", "--seed", "1",
                "--metrics-out", str(tmp_path / "missing" / "m.prom"),
            ])
        assert excinfo.value.code == 2
        assert "does not exist" in capsys.readouterr().err

    def test_exhibits_telemetry(self, tmp_path, capsys):
        metrics_path = tmp_path / "exhibits.prom"
        code = main([
            "exhibits", "--only", "Table IX",
            "--metrics-out", str(metrics_path),
            "--trace-out", str(tmp_path / "exhibits.jsonl"),
        ])
        assert code == 0
        assert "exhibits_rendered_total 1" in metrics_path.read_text()
        record = json.loads(
            (tmp_path / "exhibits.jsonl").read_text().splitlines()[0]
        )
        assert record["name"] == "exhibit"
        assert "Table IX" in record["attributes"]["title"]


#: Every metric family a campaign or rare-event run may export: the
#: tally-backed counters and gauges, and the three per-unit wall-clock
#: and load distributions.
CATALOGUE = {
    "campaign_intervals_total", "campaign_interval_failures_total",
    "campaign_outcomes_total", "chaos_events_total",
    "campaign_checkpoint_writes_total", "campaign_interval_seconds",
    "campaign_faulty_lines_per_interval",
    "sudoku_corrections_total", "sudoku_metadata_events_total",
    "sudoku_engine_stat",
    "raresim_trials_total", "raresim_conditional_failures_total",
    "raresim_checkpoint_writes_total", "raresim_trial_seconds",
}


def _samples(telemetry, kind):
    """{(family, label values): value} of every ``kind`` sample."""
    return {
        (family.name, labels): child.value
        for family in telemetry.metrics.families()
        if family.kind == kind
        for labels, child in family.samples()
    }


def test_exports_equal_tallies(tmp_path, monkeypatch):
    """Every exported counter restates one tally, at any shard count.

    The chaos campaign drops and duplicates scrub visits, so group
    repairs resolve lines the visit list never reaches; their outcomes
    are tallied when the scrub pass drains them, and the export must
    count them too.
    """
    from repro.parallel import run_sharded_campaign, run_sharded_raresim
    from repro.parallel import runner
    from repro.parallel.sharding import split_units
    from repro.reliability import montecarlo
    from repro.resilience.chaos import ChaosPolicy
    from repro.resilience.checkpoint import Checkpointer

    intervals, every = 12, 4
    engines, checkpointers = [], []

    def capture_engine(*args, **kwargs):
        engines.append(build_engine(*args, **kwargs))
        return engines[-1]

    class CapturedCheckpointer(Checkpointer):
        def __post_init__(self):
            super().__post_init__()
            checkpointers.append(self)

    # In-process only: the serial run builds both here, the shards in
    # their own processes.
    monkeypatch.setattr(montecarlo, "build_engine", capture_engine)
    monkeypatch.setattr(runner, "Checkpointer", CapturedCheckpointer)
    policy = ChaosPolicy(visit_drop_rate=0.2, visit_duplicate_rate=0.2)
    stats = None
    for shards in (1, 2):
        telemetry = Telemetry.create()
        result = run_sharded_campaign(
            "Z", 2e-3, intervals, 8, shards=shards, seed=SEED,
            chaos_policy=policy, chaos_seed=3, telemetry=telemetry,
            checkpoint_path=str(tmp_path / f"mc{shards}.json"),
            checkpoint_every=every,
        )
        if shards == 1:
            # Every interval starts from the same boundary state, so
            # the shards' engines add up to the serial one's stats.
            ((engine,), (checkpointer,)) = engines, checkpointers
            stats, writes = engine.stats, checkpointer.writes
        else:
            # Each shard flushes every ``every`` units and once at the end.
            writes = sum(n // every + 1 for n in split_units(intervals, 2))
        assert result.metadata["visits_dropped"] > 0
        # Every outcome series restates the result's outcome tally.
        for family in telemetry.metrics.families():
            if "outcome" in family.label_names:
                at = family.label_names.index("outcome")
                assert {
                    labels[at]: child.value
                    for labels, child in family.samples()
                } == result.outcomes, (family.name, shards)
        expected = {
            ("campaign_intervals_total", ()): result.intervals,
            ("campaign_interval_failures_total", ()): result.interval_failures,
            ("campaign_checkpoint_writes_total", ()): writes,
            **{
                ("campaign_outcomes_total", (label,)): count
                for label, count in result.outcomes.items()
            },
            **{
                ("chaos_events_total", (event,)): count
                for event, count in result.metadata.items()
            },
            **{
                ("sudoku_corrections_total", ("Z", mechanism)): count
                for mechanism, count in (
                    ("ecc1", stats.ecc1_repairs),
                    ("raid4", stats.raid4_invocations),
                    ("sdr", stats.sdr_invocations),
                    ("hash2", stats.hash2_invocations),
                )
                if count
            },
            **{
                ("sudoku_metadata_events_total", ("Z", event)): count
                for event, count in (
                    ("crc_fault", stats.metadata_faults["crc_fault"]),
                    ("recompute_mismatch",
                     stats.metadata_faults["recompute_mismatch"]),
                    ("rebuild", stats.metadata_rebuilds),
                )
                if count
            },
        }
        assert _samples(telemetry, "counter") == expected, shards
        gauges = _samples(telemetry, "gauge")
        assert gauges and all(
            value == getattr(stats, stat)
            for (_, (_, stat)), value in gauges.items()
        )
        names = {family.name for family in telemetry.metrics.families()}
        assert names <= CATALOGUE, names - CATALOGUE

    telemetry = Telemetry.create()
    rare = run_sharded_raresim(
        "Z", 1e-3, 12, 16, shards=2, seed=3, telemetry=telemetry,
        checkpoint_path=str(tmp_path / "rare.json"), checkpoint_every=every,
    )
    assert _samples(telemetry, "counter") == {
        ("raresim_trials_total", ("Z",)): rare.trials,
        ("raresim_conditional_failures_total", ("Z",)):
            rare.conditional_failures,
        ("raresim_checkpoint_writes_total", ()):
            sum(n // every + 1 for n in split_units(12, 2)),
    }
    names = {family.name for family in telemetry.metrics.families()}
    assert names <= CATALOGUE, names - CATALOGUE
