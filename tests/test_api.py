"""Public-API surface tests: exports, docstring example, version."""

import doctest

import repro


class TestExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"__all__ exports missing name {name}"

    def test_version(self):
        assert repro.__version__.count(".") == 2

    def test_engine_hierarchy(self):
        assert issubclass(repro.SuDokuX, repro.SuDokuEngine)
        assert issubclass(repro.SuDokuY, repro.SuDokuEngine)
        assert issubclass(repro.SuDokuZ, repro.SuDokuY)

    def test_subpackage_imports(self):
        import repro.analysis
        import repro.baselines
        import repro.cache
        import repro.coding
        import repro.core
        import repro.perf
        import repro.reliability
        import repro.sttram

        assert repro.coding.BCH is not None
        assert repro.reliability.SuDokuReliabilityModel is not None
        assert repro.perf.SystemSimulator is not None
        assert repro.baselines.RAID6Cache is not None

    def test_paper_constants_exposed(self):
        assert repro.PAPER.sudoku_z_vs_ecc6 == 874.0


class TestDocstringExample:
    def test_module_doctest(self):
        results = doctest.testmod(repro, verbose=False)
        assert results.failed == 0, f"{results.failed} doctest failures"


class TestCrossModuleContracts:
    def test_codec_widths_agree_across_layers(self):
        from repro.core.layout import LineLayout

        codec = repro.LineCodec()
        layout = LineLayout()
        assert codec.stored_bits == layout.stored_bits == 553

    def test_scrub_protocol_satisfied_by_engines_and_baselines(self):
        from repro.baselines.common import BaselineCache
        from repro.core.engine import SuDokuEngine

        for cls in (SuDokuEngine, BaselineCache):
            assert callable(getattr(cls, "scrub_line"))
            assert callable(getattr(cls, "scrub_frames"))

    def test_outcome_labels_match_scrub_report_conventions(self):
        from repro.core.outcomes import Outcome

        documented = {
            "clean", "corrected_ecc1", "corrected_raid4", "corrected_sdr",
            "corrected_hash2", "due", "metadata_due", "sdc",
        }
        assert {outcome.value for outcome in Outcome} == documented


class TestImportCost:
    def test_entry_points_do_not_import_scipy(self):
        """scipy (~1 s to import) loads only when an analytic model runs."""
        import os
        import subprocess
        import sys

        source = os.path.dirname(os.path.dirname(repro.__file__))
        probe = (
            "import sys\n"
            "import repro, repro.cli, repro.serve.app, repro.parallel.runner\n"
            "print('scipy' in sys.modules)\n"
        )
        env = dict(os.environ, PYTHONPATH=source)
        output = subprocess.run(
            [sys.executable, "-c", probe], env=env, check=True,
            capture_output=True, text=True,
        ).stdout
        assert output.strip() == "False"
