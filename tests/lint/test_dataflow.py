"""Local-flow rules (RPR002, RPR011, RPR012) over the fixture project.

The fixture project is linted as a tree, the way CI lints ``src/``.
Every TP/TN pair shares its helpers, so these tests also pin the
precision property: the seed-rooted runner must stay clean although it
routes its generator through the same pass-through helper as the
unseeded one.
"""

import os
import textwrap

import pytest

from repro.lint.config import LintConfig
from repro.lint.runner import lint_paths, lint_source

from .conftest import FIXTURES


@pytest.fixture(scope="module")
def findings():
    return lint_paths([FIXTURES], LintConfig()).findings


def of_rule(findings, rule):
    return [f for f in findings if f.rule == rule]


def paths_flagged(findings, rule="RPR002"):
    return {os.path.basename(f.path) for f in of_rule(findings, rule)}


class TestRngConsumption:
    """An unseeded chain is flagged where it starts, not where it is drawn."""

    def test_unseeded_two_hop_chain_is_flagged(self, findings):
        # The chain bad_runner draws from starts at core.make_unseeded.
        assert "core.py" in paths_flagged(findings)

    def test_seed_rooted_chain_is_not_flagged(self, findings):
        assert "good_runner.py" not in paths_flagged(findings)

    def test_flag_lands_on_the_unseeded_constructor(self, findings):
        (finding,) = of_rule(findings, "RPR002")
        assert finding.path.endswith("proj/core.py")
        assert "np.random.default_rng()" in finding.content
        assert "without a seed" in finding.message
        assert "make_unseeded" in finding.message

    def test_no_finding_lands_on_the_draw(self, findings):
        assert paths_flagged(findings) == {"core.py"}


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
        # Line 3 is the construction; the draw on line 6 is not
        # flagged again.
        assert rpr002_lines(source, self.PATH) == [3]

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
    def test_set_comprehension_into_json_dumps_is_flagged(self, findings):
        flagged = [
            f
            for f in of_rule(findings, "RPR011")
            if f.path.endswith("persistence.py")
        ]
        assert any("dump_bad" in f.message for f in flagged)

    def test_sorted_clears_the_taint(self, findings):
        flagged = [
            f
            for f in of_rule(findings, "RPR011")
            if f.path.endswith("persistence.py")
        ]
        assert not any("dump_good" in f.message for f in flagged)


class TestRPR012:
    def test_wallclock_into_digest_is_flagged(self, findings):
        flagged = of_rule(findings, "RPR012")
        assert any("digest_bad" in f.message for f in flagged)

    def test_env_into_checkpoint_payload_is_flagged(self, findings):
        flagged = of_rule(findings, "RPR012")
        assert any("checkpoint_bad" in f.message for f in flagged)

    def test_pure_variants_are_clean(self, findings):
        flagged = of_rule(findings, "RPR012")
        assert not any("digest_good" in f.message for f in flagged)
        assert not any("checkpoint_good" in f.message for f in flagged)


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


def rules_at(source, path="pkg/mod.py"):
    return [
        (f.rule, f.line)
        for f in lint_source(textwrap.dedent(source), path)
    ]


class TestLocalFlow:
    """What one function body shows, and only that."""

    def test_parameter_is_not_rooted_by_its_callers(self):
        # The off-tree shard stream: every caller passes a rooted seed,
        # but inside ``stream`` the parameter carries no provenance.
        source = """\
        import numpy as np
        def stream(seed, index):
            return np.random.default_rng(seed + index)
        def run(root):
            return stream(np.random.SeedSequence(root), 0)
        """
        assert rules_at(source, "src/repro/parallel/s.py") == [("RPR002", 3)]

    def test_none_seed_is_unseeded(self):
        source = """\
        import random
        import numpy as np
        a = np.random.default_rng(None)
        b = random.Random(x=None)
        """
        assert rules_at(source) == [("RPR002", 3), ("RPR002", 4)]

    def test_impure_value_through_json_into_sha256(self):
        source = """\
        import hashlib
        import json
        import os
        def digest(payload):
            canonical = json.dumps([payload, os.environ.get("HOST", "")])
            return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
        """
        assert rules_at(source) == [("RPR012", 6)]

    def test_update_on_a_digest_object(self):
        source = """\
        import datetime
        import hashlib
        def digest(spec):
            h = hashlib.sha256(spec)
            h.update(datetime.datetime.now().isoformat().encode())
            return h.hexdigest()
        """
        assert rules_at(source) == [("RPR012", 5)]

    def test_item_assignment_taints_the_local(self):
        source = """\
        import json
        def dump(shards):
            record = {}
            record["names"] = list({s.name for s in shards})
            return json.dumps(record)
        """
        assert rules_at(source) == [("RPR011", 5)]

    def test_cross_function_persist_is_a_known_limit(self):
        # The set is built in one function and persisted by another;
        # no single body shows both.
        source = """\
        import json
        def names(shards):
            return list({s.name for s in shards})
        def dump(shards):
            return json.dumps(names(shards))
        """
        assert rules_at(source) == []
