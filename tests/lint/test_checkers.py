"""Per-rule fixture tests: each RPR rule on minimal good/bad snippets.

Every bad snippet is the distilled form of a bug this repository
actually shipped (see the checker ``rationale`` strings); every good
snippet is the sanctioned repair.  The fixtures lint in memory through
:func:`repro.lint.runner.lint_source` -- no filesystem involved.
"""

import os
import textwrap

import pytest

from repro.lint.config import LintConfig
from repro.lint.findings import Severity
from repro.lint.registry import all_checkers, get_checker, known_rules
from repro.lint.runner import PARSE_ERROR_RULE, lint_source

SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "src",
)


def rules_of(source, path="pkg/mod.py", config=None):
    """Sorted rule ids the snippet trips."""
    source = textwrap.dedent(source)
    return sorted(f.rule for f in lint_source(source, path, config))


class TestRegistry:
    def test_all_ten_rules_registered(self):
        # RPR006 and RPR010 were folded into RPR002 and stay retired.
        assert [c.rule for c in all_checkers()] == [
            "RPR001", "RPR002", "RPR003", "RPR004", "RPR005",
            "RPR007", "RPR008", "RPR009", "RPR011", "RPR012",
        ]

    def test_get_checker(self):
        assert get_checker("RPR001").name == "outcome-literal"
        assert get_checker("RPR002").name == "unrooted-rng"
        for retired in ("RPR006", "RPR010", "RPR999"):
            with pytest.raises(KeyError):
                get_checker(retired)

    def test_every_rule_documents_its_origin(self):
        for checker in all_checkers():
            assert checker.rationale, f"{checker.rule} has no rationale"
            assert checker.description, f"{checker.rule} has no description"


class TestParseError:
    def test_unparseable_file_is_a_finding_not_a_crash(self):
        findings = lint_source("def broken(:\n", "pkg/mod.py")
        assert [f.rule for f in findings] == [PARSE_ERROR_RULE]
        assert findings[0].severity is Severity.ERROR


class TestOutcomeLiteral:
    def test_comparison_flagged(self):
        assert rules_of('ok = outcome == "sdc"') == ["RPR001"]

    def test_dict_get_flagged(self):
        assert rules_of('n = counts.get("due", 0)') == ["RPR001"]

    def test_subscript_flagged(self):
        assert rules_of('n = counts["metadata_due"]') == ["RPR001"]

    def test_membership_container_flags_each_label(self):
        assert rules_of('bad = x in ("due", "sdc")') == ["RPR001", "RPR001"]

    def test_display_only_use_not_flagged(self):
        assert rules_of('print("due")') == []
        assert rules_of('header = ["level", "due", "sdc"]') == []

    def test_non_label_strings_not_flagged(self):
        assert rules_of('ok = x == "corrected"') == []

    def test_startswith_outcome_prefix_flagged(self):
        assert rules_of('ok = label.startswith("corrected")') == ["RPR001"]
        assert rules_of('ok = label.startswith("corrected_")') == ["RPR001"]
        assert rules_of('ok = label.startswith("metadata")') == ["RPR001"]

    def test_startswith_full_label_flagged(self):
        assert rules_of('ok = label.startswith("due")') == ["RPR001"]

    def test_startswith_tuple_flags_each_prefix(self):
        source = 'ok = label.startswith(("corrected", "due"))'
        assert rules_of(source) == ["RPR001", "RPR001"]

    def test_startswith_unrelated_prefixes_clean(self):
        assert rules_of('ok = line.startswith("#")') == []
        assert rules_of('ok = name.startswith("SuDoku")') == []
        assert rules_of('ok = path.startswith(prefix)') == []

    def test_taxonomy_module_exempt(self):
        source = 'ok = label == "sdc"'
        assert rules_of(source, path="src/repro/core/outcomes.py") == []


class TestUnseededRng:
    def test_zero_arg_default_rng_flagged(self):
        source = """\
        import numpy as np
        rng = np.random.default_rng()
        """
        assert rules_of(source) == ["RPR002"]

    def test_from_import_alias_resolved(self):
        source = """\
        from numpy.random import default_rng
        rng = default_rng()
        """
        assert rules_of(source) == ["RPR002"]

    def test_zero_arg_stdlib_random_flagged(self):
        source = """\
        import random
        r = random.Random()
        """
        assert rules_of(source) == ["RPR002"]

    def test_numpy_global_rng_call_flagged(self):
        source = """\
        import numpy as np
        x = np.random.normal(0.0, 1.0)
        """
        assert rules_of(source) == ["RPR002"]

    def test_seeded_constructions_clean(self):
        source = """\
        import random
        import numpy as np
        a = np.random.default_rng(7)
        b = np.random.default_rng(seed)
        c = random.Random(3)
        d = np.random.SeedSequence(5)
        """
        assert rules_of(source) == []

    def test_blessed_fallback_module_exempt(self):
        source = """\
        import numpy as np
        rng = np.random.default_rng()
        """
        assert rules_of(source, path="src/repro/core/rng.py") == []

    def test_default_argument_flagged(self):
        # Defaults run at definition time, outside any function body.
        source = """\
        import numpy as np
        def simulate(rng=np.random.default_rng()):
            return rng
        """
        assert rules_of(source) == ["RPR002"]

    def test_class_body_and_lambda_flagged(self):
        source = """\
        import random
        import numpy as np
        class Sampler:
            shared = random.Random()
        draw = lambda: np.random.random()
        """
        assert rules_of(source) == ["RPR002", "RPR002"]

    def test_one_finding_per_site(self):
        # An argument bound to a project function's parameter is
        # evaluated more than once by the taint pass; it is one site.
        source = """\
        import numpy as np
        def simulate(rng):
            return rng
        def run(spec):
            return simulate(rng=np.random.default_rng(spec.seed))
        """
        findings = lint_source(
            textwrap.dedent(source), "src/repro/parallel/worker.py"
        )
        assert [(f.rule, f.line) for f in findings] == [("RPR002", 5)]

    CAMPAIGN = "src/repro/reliability/raresim.py"

    def test_inline_construction_in_campaign_path_flagged(self):
        # The old estimate_fit bug class: rng=random.Random(seed) as a
        # call argument, with no seed-tree provenance.
        source = """\
        import random
        sim = Simulator(ber=ber, rng=random.Random(seed))
        """
        assert rules_of(source, path=self.CAMPAIGN) == ["RPR002"]

    def test_inline_positional_construction_flagged(self):
        source = """\
        import random
        sim = Simulator(random.Random(7))
        """
        assert rules_of(source, path=self.CAMPAIGN) == ["RPR002"]

    def test_assignment_form_not_flagged(self):
        source = """\
        import random
        local = random.Random(seed)
        """
        assert rules_of(source, path=self.CAMPAIGN) == []

    def test_inline_construction_outside_campaign_paths_clean(self):
        source = """\
        import random
        sim = Simulator(rng=random.Random(seed))
        """
        assert rules_of(source) == []

    def test_seed_tree_inline_construction_clean(self):
        source = """\
        import random
        from repro.parallel.sharding import interval_python_seed
        sim = Simulator(rng=random.Random(interval_python_seed(seed, t)))
        """
        assert rules_of(source, path="src/repro/parallel/runner.py") == []


class TestNonAtomicWrite:
    def test_write_mode_open_flagged(self):
        assert rules_of('f = open(p, "w")') == ["RPR003"]

    def test_mode_keyword_flagged(self):
        assert rules_of('f = open(p, mode="ab")') == ["RPR003"]

    def test_path_open_method_flagged(self):
        assert rules_of('f = path.open("x")') == ["RPR003"]

    def test_read_modes_clean(self):
        source = """\
        a = open(p)
        b = open(p, "r")
        c = open(p, "rb")
        d = path.open()
        """
        assert rules_of(source) == []

    def test_atomic_writer_module_exempt(self):
        source = 'f = open(tmp, "w")'
        assert rules_of(source, path="src/repro/obs/atomicio.py") == []


class TestRawPopcount:
    def test_bin_count_flagged(self):
        assert rules_of('n = bin(x).count("1")') == ["RPR004"]

    def test_format_count_flagged(self):
        assert rules_of('n = format(x, "b").count("1")') == ["RPR004"]
        assert rules_of('n = format(x, "010b").count("1")') == ["RPR004"]

    def test_manual_bit_walk_flagged(self):
        source = """\
        def walk(value):
            positions = []
            index = 0
            while value:
                if value & 1:
                    positions.append(index)
                value >>= 1
                index += 1
            return positions
        """
        assert rules_of(source) == ["RPR004"]

    def test_is_warning_severity(self):
        findings = lint_source('n = bin(x).count("1")', "pkg/mod.py")
        assert findings[0].severity is Severity.WARNING

    def test_sanctioned_kernels_clean(self):
        source = """\
        from repro.coding.bitvec import bit_positions, popcount
        n = popcount(x)
        m = x.bit_count()
        positions = bit_positions(x)
        """
        assert rules_of(source) == []

    def test_non_popcount_while_loop_clean(self):
        source = """\
        while a:
            a, b = b % a, a
        """
        assert rules_of(source) == []

    def test_kernel_module_exempt(self):
        source = 'table = bytes(bin(b).count("1") for b in range(256))'
        assert rules_of(source, path="src/repro/coding/bitvec.py") == []


class TestUnvalidatedWidth:
    def test_missing_width_flagged(self):
        source = """\
        from repro.coding.bitvec import flip_bits
        v = flip_bits(value, positions)
        """
        assert rules_of(source) == ["RPR005"]

    def test_width_keyword_clean(self):
        source = """\
        from repro.coding.bitvec import flip_bits
        v = flip_bits(value, positions, width=512)
        """
        assert rules_of(source) == []

    def test_third_positional_clean(self):
        source = """\
        from repro.coding.bitvec import flip_bits
        v = flip_bits(value, positions, 512)
        """
        assert rules_of(source) == []

    def test_attribute_call_resolved(self):
        source = """\
        from repro.coding import bitvec
        v = bitvec.flip_bits(value, positions)
        """
        assert rules_of(source) == ["RPR005"]


class TestParallelRng:
    PARALLEL = "src/repro/parallel/worker.py"

    def test_ad_hoc_rng_in_parallel_path_flagged(self):
        source = """\
        import numpy as np
        rng = np.random.default_rng(seed)
        """
        assert rules_of(source, path=self.PARALLEL) == ["RPR002"]

    def test_stdlib_random_in_parallel_path_flagged(self):
        source = """\
        import random
        rng = random.Random(seed + shard)
        """
        assert rules_of(source, path=self.PARALLEL) == ["RPR002"]

    def test_seed_tree_derivation_clean(self):
        source = """\
        import numpy as np
        from repro.parallel.sharding import interval_seed_sequence
        rngs = [
            np.random.default_rng(interval_seed_sequence(seed, index))
            for index in range(units)
        ]
        direct = np.random.default_rng(np.random.SeedSequence(seed))
        """
        assert rules_of(source, path=self.PARALLEL) == []

    def test_same_code_outside_parallel_clean(self):
        source = """\
        import numpy as np
        rng = np.random.default_rng(seed)
        """
        assert rules_of(source, path="src/repro/sttram/faults.py") == []

    def test_real_sharding_module_lints_clean(self):
        # The seed-derivation module needs no exemption: every generator
        # it builds is rooted in a SeedSequence by flow facts.
        path = os.path.join(SRC, "repro", "parallel", "sharding.py")
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
        config = LintConfig(exemptions={})
        assert lint_source(source, "src/repro/parallel/sharding.py", config) == []


class TestWallClockDuration:
    def test_module_call_flagged(self):
        source = """\
        import time
        started = time.time()
        """
        assert rules_of(source) == ["RPR007"]

    def test_from_import_alias_resolved(self):
        source = """\
        from time import time
        elapsed = time() - started
        """
        assert rules_of(source) == ["RPR007"]

    def test_module_alias_resolved(self):
        source = """\
        import time as t
        started = t.time()
        """
        assert rules_of(source) == ["RPR007"]

    def test_sanctioned_clocks_clean(self):
        source = """\
        import time
        from datetime import datetime, timezone
        started = time.perf_counter()
        mono = time.monotonic()
        stamp = datetime.now(timezone.utc)
        """
        assert rules_of(source) == []

    def test_unrelated_time_attribute_clean(self):
        # ``record.time()`` on some other object must not resolve to the
        # stdlib clock.
        assert rules_of("value = record.time()") == []


class TestRawFaultPrimitive:
    CAMPAIGN = "src/repro/reliability/montecarlo.py"

    def test_direct_map_construction_flagged(self):
        source = """\
        from repro.sttram.faults import PermanentFaultMap
        fault_map = PermanentFaultMap(line_bits)
        """
        assert rules_of(source, path=self.CAMPAIGN) == ["RPR008"]

    def test_random_classmethod_flagged(self):
        source = """\
        from repro.sttram.faults import PermanentFaultMap
        fault_map = PermanentFaultMap.random(lines, bits, ppm, rng)
        """
        assert rules_of(source, path=self.CAMPAIGN) == ["RPR008"]

    def test_burst_injector_flagged_in_parallel(self):
        source = """\
        from repro.sttram import faults
        injector = faults.BurstFaultInjector(bits, rate, pmf, seed=1)
        """
        assert rules_of(
            source, path="src/repro/parallel/runner.py"
        ) == ["RPR008"]

    def test_burst_error_vector_flagged(self):
        source = """\
        from repro.sttram.faults import burst_error_vector
        mask = burst_error_vector(64, 8, 4)
        """
        assert rules_of(source, path=self.CAMPAIGN) == ["RPR008"]

    def test_same_code_outside_campaign_paths_clean(self):
        source = """\
        from repro.sttram.faults import PermanentFaultMap
        fault_map = PermanentFaultMap(line_bits)
        """
        assert rules_of(source, path="src/repro/sttram/disturb.py") == []

    def test_scenario_layer_exempt(self):
        source = """\
        from repro.sttram.faults import BurstFaultInjector
        injector = BurstFaultInjector(bits, rate, pmf, seed=1)
        """
        assert rules_of(
            source, path="src/repro/reliability/scenario.py"
        ) == []

    def test_unrelated_random_attribute_clean(self):
        # ``rng.random()`` is a plain draw, not a fault primitive.
        assert rules_of(
            "u = rng.random()", path=self.CAMPAIGN
        ) == []


class TestPerLineLoop:
    def test_for_over_num_lines_flagged(self):
        source = """\
        for index in range(self.array.num_lines):
            decode(index)
        """
        assert rules_of(source) == ["RPR009"]

    def test_bare_num_lines_name_flagged(self):
        source = """\
        for frame in range(num_lines):
            scrub(frame)
        """
        assert rules_of(source) == ["RPR009"]

    def test_comprehension_flagged(self):
        source = "words = [array[i] for i in range(array.num_lines)]"
        assert rules_of(source) == ["RPR009"]

    def test_unrelated_range_loop_clean(self):
        source = """\
        for index in range(group_size):
            visit(index)
        """
        assert rules_of(source) == []

    def test_non_range_iteration_clean(self):
        source = """\
        for frame in dirty_frames:
            scrub(frame)
        """
        assert rules_of(source) == []

    def test_reference_backend_exempt(self):
        source = """\
        for index in range(num_lines):
            scrub(index)
        """
        assert rules_of(
            source, path="src/repro/kernels/reference.py"
        ) == []


#: One minimal snippet (and the path it lints under) per registered
#: rule; each trips exactly its own rule.  A rule with no entry here --
#: or an entry for a rule that no longer exists -- fails the suite.
RULE_FIXTURES = {
    "RPR001": ('ok = outcome == "sdc"', "pkg/mod.py"),
    "RPR002": (
        "import numpy as np\nrng = np.random.default_rng()\n",
        "pkg/mod.py",
    ),
    "RPR003": ('f = open(p, "w")', "pkg/mod.py"),
    "RPR004": ('n = bin(x).count("1")', "pkg/mod.py"),
    "RPR005": (
        "from repro.coding.bitvec import flip_bits\n"
        "v = flip_bits(value, positions)\n",
        "pkg/mod.py",
    ),
    "RPR007": ("import time\nstarted = time.time()\n", "pkg/mod.py"),
    "RPR008": (
        "from repro.sttram.faults import PermanentFaultMap\n"
        "fault_map = PermanentFaultMap(line_bits)\n",
        "src/repro/reliability/montecarlo.py",
    ),
    "RPR009": (
        "for index in range(num_lines):\n    scrub(index)\n",
        "pkg/mod.py",
    ),
    "RPR011": (
        "import json\n"
        "def dump(shards):\n"
        "    return json.dumps(list({s.name for s in shards}))\n",
        "pkg/mod.py",
    ),
    "RPR012": (
        "import hashlib\nimport os\n"
        "def digest(spec):\n"
        "    return hashlib.sha256(str((spec, os.getenv('HOST'))).encode())\n",
        "pkg/mod.py",
    ),
}


def test_every_rule_has_a_failing_fixture():
    assert sorted(RULE_FIXTURES) == known_rules()


@pytest.mark.parametrize("rule", sorted(RULE_FIXTURES))
def test_rule_fixture_trips_exactly_its_rule(rule):
    source, path = RULE_FIXTURES[rule]
    assert rules_of(source, path=path) == [rule]
    disabled = LintConfig(disable=frozenset({rule}))
    assert rules_of(source, path=path, config=disabled) == []


class TestConfigSelection:
    def test_select_restricts_rules(self):
        source = """\
        import numpy as np
        rng = np.random.default_rng()
        f = open(p, "w")
        """
        config = LintConfig(select=frozenset({"RPR003"}))
        assert rules_of(source, config=config) == ["RPR003"]

    def test_disable_skips_rules(self):
        source = 'f = open(p, "w")'
        config = LintConfig(disable=frozenset({"RPR003"}))
        assert rules_of(source, config=config) == []
