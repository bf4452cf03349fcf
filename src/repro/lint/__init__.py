"""``repro lint``: AST-based domain analysis for this reproduction.

Every hardening PR in this repository's history fixed instances of the
same few latent bug classes by hand: outcome labels compared as raw
strings, RNG streams not rooted in the campaign ``SeedSequence`` tree,
non-atomic artifact writes, raw popcounts, width-unvalidated bit flips,
wall-clock durations, fault primitives built outside the scenario
layer, per-line Python loops, and nondeterministic values reaching
persisted artifacts and digests.  This package mechanizes those
invariants as a pure-stdlib (``ast``) static-analysis pipeline so they
are enforced on every commit instead of rediscovered by reviewers.

Architecture (one module per concern):

* :mod:`repro.lint.findings`     -- ``Finding`` / ``Severity`` value types;
* :mod:`repro.lint.registry`     -- the checker registry and base class;
* :mod:`repro.lint.context`      -- per-module context (module naming,
  import-alias resolution, source access) shared by the checkers;
* :mod:`repro.lint.suppressions` -- inline ``# repro-lint: disable=...``;
* :mod:`repro.lint.baseline`     -- the committed grandfather file;
* :mod:`repro.lint.config`       -- run configuration and the blessed-
  module exemptions;
* :mod:`repro.lint.checkers`     -- the ten rules, every one per module;
  RPR002, RPR011 and RPR012 follow values through one function body;
* :mod:`repro.lint.runner`       -- the pipeline: one walk per file;
* :mod:`repro.lint.reporting`    -- text / JSON / GitHub / SARIF output;
* :mod:`repro.lint.cli`          -- the ``repro lint`` subcommand glue.

Import from the submodules directly; this package module stays empty so
that building the ``repro`` parser loads nothing but
:mod:`repro.lint.cli`.  See ``docs/static-analysis.md`` for the rule
catalog (each rule names the real bug it descends from) and the
workflow for suppressing, baselining, and adding checkers.
"""
