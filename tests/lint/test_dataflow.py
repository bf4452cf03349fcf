"""Interprocedural taint rules (RPR002, RPR011, RPR012) over the fixtures.

Every TP/TN pair lives in the same index, sharing helpers, so these
tests also pin the precision property: one caller's unseeded taint must
not leak into another caller's seed-rooted chain through a shared
pass-through function.
"""

import os
import textwrap

import pytest

from repro.lint.config import LintConfig
from repro.lint.dataflow import (
    ImpureDigestChecker,
    UnorderedPersistChecker,
    UnrootedRngChecker,
    analyze_project,
)
from repro.lint.runner import lint_paths, lint_source

from .conftest import FIXTURES


@pytest.fixture(scope="module")
def analysis(fixture_files):
    return analyze_project(fixture_files)


def paths_flagged(checker, analysis, consumption_only=False):
    return {
        os.path.basename(f.path)
        for f in checker.check_project(analysis)
        if not consumption_only or "draw through" in f.message
    }


class TestRngConsumption:
    def test_unseeded_two_hop_chain_is_flagged(self, analysis):
        flagged = paths_flagged(UnrootedRngChecker(), analysis)
        assert "bad_runner.py" in flagged

    def test_seed_rooted_chain_is_not_flagged(self, analysis):
        flagged = paths_flagged(UnrootedRngChecker(), analysis)
        assert "good_runner.py" not in flagged

    def test_flag_lands_on_the_consumption_site(self, analysis):
        (finding,) = [
            f
            for f in UnrootedRngChecker().check_project(analysis)
            if f.path.endswith("bad_runner.py")
        ]
        assert finding.rule == "RPR002"
        assert "gen.integers" in finding.content
        assert "unseeded" in finding.message

    def test_consumption_finding_lands_only_in_campaign_scope(self, analysis):
        # core.py holds the unseeded constructor, which is flagged where
        # it is built; it is not under a reliability/parallel/serve path,
        # so no *consumption* finding lands there.
        assert "core.py" in paths_flagged(UnrootedRngChecker(), analysis)
        consumed = paths_flagged(
            UnrootedRngChecker(), analysis, consumption_only=True
        )
        assert consumed == {"bad_runner.py"}


def rpr002_lines(source, path):
    return [
        f.line
        for f in lint_source(textwrap.dedent(source), path)
        if f.rule == "RPR002"
    ]


class TestSameModuleChains:
    """Two hops through helpers defined in the consuming module itself."""

    PATH = "src/repro/parallel/m.py"

    def test_unseeded_same_module_chain_is_flagged(self):
        source = """\
        import numpy as np
        def bad():
            return np.random.default_rng()
        def use_bad():
            g = bad()
            return g.integers(0, 2)
        """
        # Line 3 is the construction; line 6 is the draw, visible only
        # when ``bad()`` resolves to this module's ``bad``.
        assert rpr002_lines(source, self.PATH) == [3, 6]

    def test_rooted_same_module_chain_is_clean(self):
        source = """\
        import numpy as np
        def rooted(seed):
            return np.random.default_rng(np.random.SeedSequence(seed))
        def passthrough(gen):
            return gen
        def use_rooted(seed):
            g = passthrough(rooted(seed))
            return g.integers(0, 2)
        """
        assert rpr002_lines(source, self.PATH) == []


class TestRPR011:
    def test_set_comprehension_into_json_dumps_is_flagged(self, analysis):
        findings = [
            f
            for f in UnorderedPersistChecker().check_project(analysis)
            if f.path.endswith("persistence.py")
        ]
        assert any("dump_bad" in f.message for f in findings)

    def test_sorted_clears_the_taint(self, analysis):
        findings = [
            f
            for f in UnorderedPersistChecker().check_project(analysis)
            if f.path.endswith("persistence.py")
        ]
        assert not any("dump_good" in f.message for f in findings)


class TestRPR012:
    def test_wallclock_into_digest_is_flagged(self, analysis):
        findings = list(ImpureDigestChecker().check_project(analysis))
        assert any("digest_bad" in f.message for f in findings)

    def test_env_into_checkpoint_payload_is_flagged(self, analysis):
        findings = list(ImpureDigestChecker().check_project(analysis))
        assert any("checkpoint_bad" in f.message for f in findings)

    def test_pure_variants_are_clean(self, analysis):
        findings = list(ImpureDigestChecker().check_project(analysis))
        assert not any("digest_good" in f.message for f in findings)
        assert not any("checkpoint_good" in f.message for f in findings)


class TestSeedRootedNames:
    """Provenance is a flow fact: each name below is rooted (or not)."""

    def test_flow_rooted_chain_resolves_through_hops(self):
        # A parallel-path constructor fed from each of tree, child and
        # rng is clean only if that name carries seed-tree provenance.
        source = """\
        import random
        import numpy as np
        def run(root):
            tree = np.random.SeedSequence(root)
            child = tree.spawn(1)[0]
            rng = np.random.default_rng(child)
            a = np.random.default_rng(tree)
            b = random.Random(rng.integers(2**32))
            return rng, a, b
        """
        assert rpr002_lines(source, "src/repro/parallel/x.py") == []

    def test_unseeded_names_are_not_rooted(self):
        source = """\
        import numpy as np
        def run():
            rng = np.random.default_rng()
            seq = rng
            other = np.random.default_rng(seq)
            return other
        """
        # The unseeded construction, and the constructor fed from it.
        assert rpr002_lines(source, "src/repro/parallel/y.py") == [3, 5]


class TestRunnerIntegration:
    def test_project_rules_surface_through_lint_paths(self):
        report = lint_paths([FIXTURES], LintConfig())
        rules = {f.rule for f in report.findings}
        assert {"RPR002", "RPR011", "RPR012"} <= rules

    def test_rng_rule_accepts_flow_rooted_derivation(self):
        # good_runner derives its seed through tree.spawn(1)[0]; the
        # parallel-path constructor check must accept it.
        report = lint_paths([FIXTURES], LintConfig())
        assert not any(
            f.rule == "RPR002" and f.path.endswith("good_runner.py")
            for f in report.findings
        )
