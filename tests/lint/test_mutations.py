"""Historic bug shapes planted in the real ``src/`` tree.

Each case names one module under ``src/``, a snippet ``old`` that
occurs in it exactly once, its replacement ``new``, and the rule that
must catch the result.  The case copies ``src/`` to a temporary
directory, plants the change, and lints the whole copy as CI does: the
rule must fire on the mutated module and must not fire on the original.

The RNG and digest cases are the shapes of bugs this repository
shipped or nearly shipped; the others give each per-node rule one
planting in the code it polices.
"""

import os
import shutil

import pytest

from repro.lint.config import LintConfig
from repro.lint.runner import lint_paths

SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "src",
)

CASES = [
    # RPR002: the `rng or default_rng()` fallback of the early fault code.
    pytest.param(
        "repro/sttram/faults.py",
        'generator = resolve_rng(rng, seed, owner="sample_fault_count")',
        "generator = rng or np.random.default_rng()",
        "RPR002",
        id="unseeded-fallback",
    ),
    # RPR002: the chaos injector seeded inline off the seed tree.
    pytest.param(
        "repro/reliability/montecarlo.py",
        "chaos_policy, seed=interval_python_seed(chaos_seed, index)",
        "chaos_policy, rng=random.Random(chaos_seed + index)",
        "RPR002",
        id="inline-chaos-random",
    ),
    pytest.param(
        "repro/sttram/faults.py",
        "return int(generator.binomial(num_bits, ber))",
        "return int(np.random.binomial(num_bits, ber))",
        "RPR002",
        id="numpy-global-rng",
    ),
    # RPR002: per-shard streams seeded `seed + index`, off the tree, in
    # the one module whose callers all pass a rooted seed.
    pytest.param(
        "repro/parallel/sharding.py",
        "np.random.default_rng(interval_seed_sequence(seed, index))",
        "np.random.default_rng(seed + index)",
        "RPR002",
        id="off-tree-shard-stream",
    ),
    pytest.param(
        "repro/serve/store.py",
        "json.dumps(record, indent=2",
        "json.dumps(list(set(record)), indent=2",
        "RPR011",
        id="set-order-stored-record",
    ),
    # RPR012: an impure value in the list hashed into the job digest.
    pytest.param(
        "repro/serve/specs.py",
        "self.digest_payload(), sort_keys=True",
        "[self.digest_payload(), datetime.datetime.now().isoformat()], "
        "sort_keys=True",
        "RPR012",
        id="wallclock-in-spec-digest",
    ),
    pytest.param(
        "repro/serve/specs.py",
        "self.digest_payload(), sort_keys=True",
        '[self.digest_payload(), os.environ.get("HOSTNAME", "")], '
        "sort_keys=True",
        "RPR012",
        id="environ-in-spec-digest",
    ),
    pytest.param(
        "repro/sttram/scrub.py",
        "if is_due_label(label)",
        'if label == "due"',
        "RPR001",
        id="outcome-literal",
    ),
    pytest.param(
        "repro/bench/baseline.py",
        "atomic_write_json(path, payload)",
        'open(path, "w").write(json.dumps(payload))',
        "RPR003",
        id="bare-open-write",
    ),
    pytest.param(
        "repro/core/engine.py",
        "popcount(self.array.error_vector(frame))",
        'bin(self.array.error_vector(frame)).count("1")',
        "RPR004",
        id="bin-count-popcount",
    ),
    pytest.param(
        "repro/sttram/faults.py",
        "return flip_bits(0, positions, width=self.line_bits)",
        "return flip_bits(0, positions)",
        "RPR005",
        id="flip-bits-without-width",
    ),
    pytest.param(
        "repro/reliability/montecarlo.py",
        "m_interval.observe(time.perf_counter() - started)",
        "m_interval.observe(time.time() - started)",
        "RPR007",
        id="wall-clock-duration",
    ),
    # RPR008 polices the scenario layer's primitives (stuck-at maps and
    # burst injectors); the transient injector is the campaign's own
    # base fault stream, built in this very function.
    pytest.param(
        "repro/reliability/montecarlo.py",
        "stream = interval_generator(seed, 2 + index)",
        "stream = interval_generator(seed, 2 + index)\n"
        "        extra = TransientFaultInjector(array.line_bits, ber, stream)",
        "RPR008",
        id="transient-injector-in-campaign",
        marks=pytest.mark.xfail(
            strict=True,
            reason="RPR008 covers PermanentFaultMap, BurstFaultInjector "
            "and burst_error_vector, not TransientFaultInjector",
        ),
    ),
    pytest.param(
        "repro/reliability/montecarlo.py",
        "stream = interval_generator(seed, 2 + index)",
        "stream = interval_generator(seed, 2 + index)\n"
        "        extra = BurstFaultInjector(array.line_bits, 1e-3, {4: 1.0}, "
        "rng=stream)",
        "RPR008",
        id="burst-injector-in-campaign",
    ),
    pytest.param(
        "repro/sttram/scrub.py",
        "for index in dirty:",
        "for index in range(self.array.num_lines):",
        "RPR009",
        id="num-lines-walk-in-scrub",
    ),
]


def fired(report, path, rule):
    return [
        f for f in report.findings if f.rule == rule and f.path.endswith(path)
    ]


@pytest.mark.parametrize("path, old, new, rule", CASES)
def test_planted_shape_is_caught(tmp_path, path, old, new, rule):
    original = os.path.join(SRC, path)
    with open(original, "r", encoding="utf-8") as handle:
        source = handle.read()
    assert source.count(old) == 1, f"{old!r} must occur once in {path}"
    assert fired(lint_paths([original], LintConfig()), path, rule) == []

    tree = tmp_path / "src"
    shutil.copytree(
        SRC, tree, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info")
    )
    (tree / path).write_text(source.replace(old, new), encoding="utf-8")
    report = lint_paths([str(tree)], LintConfig())
    assert fired(report, path, rule), f"{rule} missed the planting in {path}"
