"""Command-line interface: regenerate paper exhibits from a shell.

Installed as ``python -m repro`` (see :mod:`repro.__main__`).  Four
subcommands cover the common flows:

* ``summary``   -- headline reliability numbers at the paper's config.
* ``exhibits``  -- regenerate the analytic tables/figures (optionally a
  subset by substring match on the title).
* ``campaign``  -- run a Monte-Carlo fault-injection campaign on a
  functional engine and compare with the analytical model.
* ``raresim``   -- conditional (rare-event) campaign for Y/Z FIT
  estimates.
* ``scenario``  -- mixed transient/burst/stuck-at campaign over any
  protection scheme (SuDoku-X/Y/Z and the five baselines); the spec
  comes from a JSON file or inline burst/stuck flags
  (docs/faultmodels.md).
* ``chaos``     -- sweep metadata-fault rates against the engines and
  report the SDC/DUE breakdown per SuDoku level.
* ``perf``      -- run the Fig. 8/9 ideal-vs-SuDoku comparison on chosen
  workloads.
* ``lint``      -- domain static analysis (RPR rules).
* ``bench``     -- run the benchmark suite, record perf trajectories,
  and gate against the committed baseline (docs/benchmarking.md).

``campaign``, ``perf``, and ``exhibits`` accept the shared telemetry
flags (see :mod:`repro.obs` and ``docs/telemetry.md``):

* ``--metrics-out FILE``  -- Prometheus text-format metrics dump;
* ``--trace-out FILE``    -- completed spans as JSON lines;
* ``--manifest-out FILE`` -- run manifest (config, seed, git SHA,
  durations);
* ``--progress``          -- rate/ETA heartbeat lines on stderr.

``campaign`` and ``raresim`` additionally accept the resilience flags
(see :mod:`repro.resilience` and ``docs/resilience.md``):

* ``--checkpoint FILE`` / ``--checkpoint-every N`` -- periodic atomic
  snapshots of campaign state;
* ``--resume FILE``       -- continue a killed campaign bit-identically;
* ``--deadline SECONDS``  -- wall-clock budget; expiry ends the campaign
  cleanly with partial results;
* ``--result-out FILE``   -- final aggregates as JSON (atomic write).

``campaign``, ``raresim``, ``scenario``, and ``chaos`` accept
``--shards N`` to split the campaign across N worker processes (see
:mod:`repro.parallel` and ``docs/parallelism.md``); ``--shards 1`` (the
default) is bit-identical to the serial path, and checkpoints compose
per shard.  ``campaign``, ``raresim``, and ``chaos`` also accept
``--scenario FILE`` to overlay a mixed fault scenario
(``docs/faultmodels.md``).  The same four commands accept
``--backend {reference,numpy}`` to pick the bit-plane kernel backend
(``docs/kernels.md``); outcomes are bit-identical either way.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
import time
from typing import Dict, List, Optional

_NULL_CONTEXT = contextlib.nullcontext()


def _telemetry_parent() -> argparse.ArgumentParser:
    """Shared telemetry flags for the long-running subcommands."""
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("telemetry")
    group.add_argument(
        "--metrics-out", default="", metavar="FILE",
        help="write metrics in Prometheus text format to FILE",
    )
    group.add_argument(
        "--trace-out", default="", metavar="FILE",
        help="write completed spans as JSON lines to FILE",
    )
    group.add_argument(
        "--manifest-out", default="", metavar="FILE",
        help="write a run manifest (config, seed, git SHA, durations) to FILE",
    )
    group.add_argument(
        "--progress", action="store_true",
        help="emit rate/ETA heartbeat lines on stderr",
    )
    return parent


def _positive_float(text: str) -> float:
    """Argparse type: a strictly positive float (``--deadline``)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number")
    if not value > 0.0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text!r}")
    return value


def _rate(text: str) -> float:
    """Argparse type: a probability in [0, 1] (chaos rates)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number")
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"must be in [0, 1], got {text!r}")
    return value


def _positive_int(text: str) -> int:
    """Argparse type: a strictly positive integer (``--shards``)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text!r}")
    return value


def _parallel_parent() -> argparse.ArgumentParser:
    """Shared ``--shards`` flag for the campaign-style subcommands."""
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("parallelism")
    group.add_argument(
        "--shards", type=_positive_int, default=1, metavar="N",
        help="split the campaign across N worker processes with "
             "deterministically spawned RNG streams (1: serial, "
             "bit-identical to the pre-sharding behaviour)",
    )
    return parent


def _resilience_parent() -> argparse.ArgumentParser:
    """Shared checkpoint/resume/deadline flags for campaign commands."""
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("resilience")
    group.add_argument(
        "--checkpoint", default="", metavar="FILE",
        help="write campaign checkpoints (atomically) to FILE",
    )
    group.add_argument(
        "--checkpoint-every", type=int, default=0, metavar="N",
        help="flush a checkpoint every N completed intervals/trials "
             "(0: only on interrupt, deadline, or completion)",
    )
    group.add_argument(
        "--resume", default="", metavar="FILE",
        help="resume from a checkpoint written by a previous run",
    )
    group.add_argument(
        "--deadline", type=_positive_float, default=None, metavar="SECONDS",
        help="wall-clock budget; on expiry the campaign ends cleanly "
             "with partial results",
    )
    group.add_argument(
        "--result-out", default="", metavar="FILE",
        help="write the final campaign aggregates as JSON to FILE",
    )
    return parent


def _scrub_mode_parent() -> argparse.ArgumentParser:
    """Shared ``--sparse``/``--dense`` scrub-mode flags.

    The two modes produce bit-identical outcome counters (see
    docs/performance.md); ``--dense`` exists as a trust-nothing audit
    mode that decodes every frame instead of only the fault-indexed
    dirty ones.
    """
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("scrub mode")
    mode = group.add_mutually_exclusive_group()
    mode.add_argument(
        "--sparse", action="store_const", const="sparse", dest="scrub_mode",
        help="fault-indexed sparse scrub: decode only dirty frames and "
             "bulk-account the rest as clean (default; bit-identical "
             "counters to --dense)",
    )
    mode.add_argument(
        "--dense", action="store_const", const="dense", dest="scrub_mode",
        help="decode every frame each pass (trust-nothing audit mode)",
    )
    parent.set_defaults(scrub_mode="sparse")
    return parent


def _backend_parent() -> argparse.ArgumentParser:
    """Shared ``--backend`` kernel-backend flag.

    Both backends produce bit-identical outcome counters (see
    docs/kernels.md); ``numpy`` vectorizes the bit-plane hot loops,
    ``reference`` keeps the original pure-Python paths.
    """
    from repro.kernels import BACKEND_NAMES

    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("kernel backend")
    group.add_argument(
        "--backend", choices=list(BACKEND_NAMES), default="reference",
        help="bit-plane kernel backend for the hot loops (bit-identical "
             "outcomes; 'numpy' is the vectorized fast path)",
    )
    return parent


def _burst_pmf(text: str) -> List:
    """Argparse type: ``LEN:PROB[,LEN:PROB...]`` burst-length PMF.

    A bare ``LEN`` (no colon) gets weight 1; weights are normalized by
    the spec, so ``2,3,4`` means uniform over {2, 3, 4}.
    """
    entries = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if ":" in part:
            raw_length, raw_weight = part.split(":", 1)
        else:
            raw_length, raw_weight = part, "1"
        try:
            length = int(raw_length)
            weight = float(raw_weight)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"{part!r} is not LEN or LEN:PROB"
            )
        if length < 1 or weight < 0:
            raise argparse.ArgumentTypeError(
                f"{part!r}: length must be >= 1 and weight >= 0"
            )
        entries.append((length, weight))
    if not entries:
        raise argparse.ArgumentTypeError(f"{text!r} has no PMF entries")
    return entries


def _scenario_parent() -> argparse.ArgumentParser:
    """Shared ``--scenario FILE`` flag for the campaign-style commands."""
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("fault scenario")
    group.add_argument(
        "--scenario", default="", metavar="FILE",
        help="JSON FaultScenario spec (docs/faultmodels.md); overlays "
             "burst and stuck-at fault sources on the campaign",
    )
    return parent


def _chaos_parent() -> argparse.ArgumentParser:
    """Metadata chaos-injection flags (see docs/resilience.md)."""
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("chaos")
    group.add_argument(
        "--plt-flip-rate", type=_rate, default=0.0, metavar="P",
        help="per-group, per-interval probability of a PLT parity bit flip",
    )
    group.add_argument(
        "--map-swap-rate", type=_rate, default=0.0, metavar="P",
        help="per-group, per-interval probability of a group-mapping swap",
    )
    group.add_argument(
        "--visit-drop-rate", type=_rate, default=0.0, metavar="P",
        help="per-visit probability a scheduled scrub visit is dropped",
    )
    group.add_argument(
        "--visit-duplicate-rate", type=_rate, default=0.0, metavar="P",
        help="per-visit probability a scrub visit is performed twice",
    )
    group.add_argument(
        "--chaos-seed", type=int, default=0,
        help="seed for the (separate) chaos RNG stream",
    )
    return parent


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SuDoku (DSN 2019) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    telemetry = _telemetry_parent()
    resilience = _resilience_parent()
    chaos_flags = _chaos_parent()
    parallel = _parallel_parent()
    scrub_mode = _scrub_mode_parent()
    scenario_file = _scenario_parent()
    backend = _backend_parent()

    sub.add_parser("summary", help="headline reliability numbers")

    exhibits = sub.add_parser(
        "exhibits", help="regenerate paper exhibits", parents=[telemetry]
    )
    exhibits.add_argument(
        "--only", default="", help="substring filter on exhibit titles"
    )

    campaign = sub.add_parser(
        "campaign", help="Monte-Carlo fault injection",
        parents=[
            telemetry, resilience, chaos_flags, parallel, scrub_mode,
            scenario_file, backend,
        ],
    )
    campaign.add_argument("--level", choices=["X", "Y", "Z"], default="Z")
    campaign.add_argument("--ber", type=float, default=8e-4)
    campaign.add_argument("--intervals", type=int, default=100)
    campaign.add_argument("--group-size", type=int, default=32)
    campaign.add_argument("--seed", type=int, default=0)

    raresim = sub.add_parser(
        "raresim", help="conditional rare-event FIT estimate",
        parents=[
            telemetry, resilience, parallel, scrub_mode, scenario_file,
            backend,
        ],
    )
    raresim.add_argument("--level", choices=["Y", "Z"], default="Z")
    raresim.add_argument("--ber", type=float, default=1e-4)
    raresim.add_argument("--trials", type=int, default=2000)
    raresim.add_argument("--group-size", type=int, default=64)
    raresim.add_argument("--num-groups", type=int, default=2048)
    raresim.add_argument("--seed", type=int, default=0)

    chaos = sub.add_parser(
        "chaos",
        help="sweep metadata-fault rates; report SDC/DUE per SuDoku level",
        parents=[telemetry, parallel, scrub_mode, scenario_file, backend],
    )
    chaos.add_argument(
        "--levels", nargs="+", choices=["X", "Y", "Z"], default=["X", "Y", "Z"]
    )
    chaos.add_argument(
        "--plt-flip-rates", nargs="+", type=_rate,
        default=[0.0, 1e-3, 1e-2], metavar="P",
        help="PLT bit-flip rates to sweep",
    )
    chaos.add_argument(
        "--map-swap-rate", type=_rate, default=0.0, metavar="P",
        help="group-mapping swap rate applied at every sweep point",
    )
    chaos.add_argument("--ber", type=float, default=8e-4)
    chaos.add_argument("--intervals", type=int, default=50)
    chaos.add_argument("--group-size", type=int, default=16)
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument("--chaos-seed", type=int, default=0)
    chaos.add_argument(
        "--result-out", default="", metavar="FILE",
        help="write the sweep table as JSON to FILE",
    )

    from repro.reliability.scenario import SCHEMES

    scenario = sub.add_parser(
        "scenario",
        help="mixed transient/burst/stuck-at campaign over any scheme",
        parents=[
            telemetry, resilience, chaos_flags, parallel, scrub_mode, backend,
        ],
    )
    scenario.add_argument(
        "--scheme", choices=list(SCHEMES), default="Z",
        help="protection scheme: SuDoku level or baseline",
    )
    scenario.add_argument(
        "--scenario", default="", metavar="FILE",
        help="JSON FaultScenario spec; when given, the inline "
             "--ber/--burst-*/--stuck-ppm flags are ignored",
    )
    scenario.add_argument("--intervals", type=int, default=100)
    scenario.add_argument("--group-size", type=int, default=8)
    scenario.add_argument("--seed", type=int, default=0)
    scenario.add_argument(
        "--ber", type=_rate, default=1e-3,
        help="transient per-bit flip probability per interval",
    )
    scenario.add_argument(
        "--burst-rate", type=_rate, default=0.0, metavar="P",
        help="per-line, per-interval probability of a burst event",
    )
    scenario.add_argument(
        "--burst-lengths", type=_burst_pmf, default=[(3, 1.0)],
        metavar="LEN:PROB[,...]",
        help="burst-length PMF, e.g. '2:0.5,3:0.3,4:0.2' (bare lengths "
             "are uniform: '2,3,4')",
    )
    scenario.add_argument(
        "--burst-span", type=_positive_int, default=None, metavar="BITS",
        help="bit window bursts may start in (default: the physical row)",
    )
    scenario.add_argument(
        "--burst-alignment", type=_positive_int, default=1, metavar="BITS",
        help="burst start positions snap to multiples of this",
    )
    scenario.add_argument(
        "--burst-multiplicity", type=_positive_int, default=1, metavar="N",
        help="adjacent physical rows struck per burst event",
    )
    scenario.add_argument(
        "--interleave", type=_positive_int, default=1, metavar="DEG",
        help="bit-interleave degree: logical lines per physical row "
             "(1 = no interleaving)",
    )
    scenario.add_argument(
        "--stuck-ppm", type=float, default=0.0, metavar="PPM",
        help="stuck-at permanent-fault density in parts per million bits",
    )

    perf = sub.add_parser(
        "perf", help="Fig. 8/9 performance comparison", parents=[telemetry]
    )
    perf.add_argument("--workloads", nargs="+", default=["mcf", "gcc", "MIX1"])
    perf.add_argument("--accesses", type=int, default=8000)
    perf.add_argument("--seed", type=int, default=1)

    report = sub.add_parser("report", help="write a Markdown exhibit snapshot")
    report.add_argument("--output", default="REPORT.md")
    report.add_argument(
        "--with-performance", action="store_true",
        help="also run the Fig. 8/9 simulations (minutes)",
    )

    distance = sub.add_parser(
        "distance", help="verify the CRC-31 detection distance at line length"
    )
    distance.add_argument("--samples", type=int, default=20_000)

    from repro.lint.cli import configure_lint_parser

    lint = sub.add_parser(
        "lint",
        help="run the repro domain linter (RPR rules; see "
             "docs/static-analysis.md)",
    )
    configure_lint_parser(lint)

    from repro.bench.cli import configure_bench_parser

    bench = sub.add_parser(
        "bench",
        help="run benchmarks, record perf trajectories, gate against the "
             "baseline (see docs/benchmarking.md)",
    )
    configure_bench_parser(bench)

    from repro.serve.cli import configure_serve_parser

    serve = sub.add_parser(
        "serve",
        help="run the campaign service: JSON specs over HTTP, SSE "
             "progress, content-addressed result dedup (see "
             "docs/serving.md)",
    )
    configure_serve_parser(serve)

    design = sub.add_parser(
        "design", help="find the cheapest configuration meeting a FIT target"
    )
    design.add_argument("--delta", type=float, default=35.0)
    design.add_argument("--target-fit", type=float, default=1.0)

    return parser


def _telemetry_requested(args: argparse.Namespace) -> bool:
    return bool(
        getattr(args, "metrics_out", "")
        or getattr(args, "trace_out", "")
        or getattr(args, "manifest_out", "")
        or getattr(args, "progress", False)
    )


def _check_out_paths(args: argparse.Namespace) -> None:
    """Fail fast on unwritable export paths.

    Campaigns can run for minutes; discovering at export time that
    ``--metrics-out`` points into a missing directory would discard the
    whole run.
    """
    for attr in ("metrics_out", "trace_out", "manifest_out",
                 "result_out", "checkpoint"):
        path = getattr(args, attr, "")
        if not path:
            continue
        parent = os.path.dirname(path) or "."
        if not os.path.isdir(parent):
            flag = "--" + attr.replace("_", "-")
            raise SystemExit(
                f"repro: error: {flag} {path!r}: "
                f"directory {parent!r} does not exist"
            )


def _build_telemetry(args: argparse.Namespace):
    """(telemetry, progress factory) for a subcommand's flags."""
    from repro.obs import NULL_PROGRESS, ProgressReporter, Telemetry

    _check_out_paths(args)
    telemetry = Telemetry.create() if _telemetry_requested(args) else None

    def make_progress(total: Optional[int], label: str):
        if not getattr(args, "progress", False):
            return NULL_PROGRESS
        return ProgressReporter(total=total, label=label)

    return telemetry, make_progress


def _export_telemetry(
    args: argparse.Namespace,
    telemetry,
    command: str,
    config: Dict[str, object],
    seed: Optional[int],
    started: float,
) -> None:
    """Write the metrics / trace / manifest files a subcommand asked for.

    ``started`` is the command's ``time.perf_counter()`` start; the
    manifest records the time up to this call as ``durations_s.total``.
    """
    durations_s = {"total": time.perf_counter() - started}
    if telemetry is None:
        return
    from repro.obs import (
        build_manifest,
        write_manifest,
        write_metrics_json_lines,
        write_metrics_text,
        write_spans_json_lines,
    )

    if args.metrics_out:
        if args.metrics_out.endswith(".jsonl"):
            write_metrics_json_lines(telemetry.metrics, args.metrics_out)
        else:
            write_metrics_text(telemetry.metrics, args.metrics_out)
        print(f"wrote metrics to {args.metrics_out}", file=sys.stderr)
    if args.trace_out:
        write_spans_json_lines(telemetry.tracer, args.trace_out)
        print(f"wrote {len(telemetry.tracer)} spans to {args.trace_out}",
              file=sys.stderr)
    if args.manifest_out:
        write_manifest(
            args.manifest_out,
            build_manifest(
                command, config=config, seed=seed, durations_s=durations_s
            ),
        )
        print(f"wrote manifest to {args.manifest_out}", file=sys.stderr)


def cmd_summary() -> int:
    from repro.analysis.tables import format_table
    from repro.core.config import PAPER
    from repro.reliability.eccmodel import ECCCacheModel
    from repro.reliability.sudokumodel import SuDokuReliabilityModel
    from repro.sttram.variation import effective_ber

    ber = effective_ber(35.0, 3.5, 0.020)
    model = SuDokuReliabilityModel(ber=ber)
    ecc6 = ECCCacheModel(t=6, ber=ber)
    rows = [
        ["BER (delta 35, 20 ms)", ber, PAPER.ber_delta35_20ms],
        ["SuDoku-X MTTF (s)", model.mttf_x_seconds(), PAPER.sudoku_x_mttf_s],
        ["SuDoku-Y MTTF (h)", model.mttf_y_seconds() / 3600, PAPER.sudoku_y_mttf_hours],
        ["SuDoku-Z FIT", model.fit_z(), PAPER.sudoku_z_fit],
        ["ECC-6 FIT", ecc6.fit(), PAPER.ecc_fit[5]],
        ["Z strength vs ECC-6", ecc6.fit() / model.fit_z(), PAPER.sudoku_z_vs_ecc6],
        ["overhead bits/line", 43.2, PAPER.overhead_bits_sudoku],
    ]
    print(format_table(["quantity", "model", "paper"], rows))
    return 0


def cmd_exhibits(args: argparse.Namespace) -> int:
    from repro.analysis.experiments import all_experiments
    from repro.analysis.tables import format_table

    only = args.only
    telemetry, make_progress = _build_telemetry(args)
    started = time.perf_counter()
    tracer = telemetry.tracer if telemetry is not None else None
    counter = (
        telemetry.metrics.counter(
            "exhibits_rendered_total", "Paper exhibits regenerated."
        )
        if telemetry is not None
        else None
    )
    progress = make_progress(None, "exhibits")
    matched = 0
    for exhibit in all_experiments():
        if only and only.lower() not in str(exhibit["title"]).lower():
            continue
        matched += 1
        span = (
            tracer.span("exhibit", title=str(exhibit["title"]))
            if tracer is not None
            else _NULL_CONTEXT
        )
        with span:
            print(f"== {exhibit['title']}")
            print(format_table(exhibit["headers"], exhibit["rows"]))
            if exhibit.get("notes"):
                print(f"notes: {exhibit['notes']}")
            print()
        if counter is not None:
            counter.inc()
        progress.update()
    progress.finish()
    if not matched:
        print(f"no exhibit title matches {only!r}", file=sys.stderr)
        return 1
    _export_telemetry(
        args, telemetry, "exhibits", {"only": only}, None, started
    )
    return 0


def _resilience_kwargs(args: argparse.Namespace) -> Dict[str, object]:
    """Sharded-runner keyword arguments from the resilience flags.

    :raises CheckpointError: on inconsistent flag combinations (one-line
        message; ``main`` turns it into a non-zero exit).  An unreadable
        or invalid ``--resume`` file raises later, from inside the
        runner, with the same one-line treatment.
    """
    from repro.resilience import CheckpointError

    if args.checkpoint_every and not (args.checkpoint or args.resume):
        raise CheckpointError(
            "--checkpoint-every requires --checkpoint (or --resume)"
        )
    return {
        "checkpoint_path": args.checkpoint or args.resume,
        "checkpoint_every": max(0, args.checkpoint_every),
        "resume_from": args.resume,
        "deadline_s": args.deadline,
    }


def _write_result_out(args: argparse.Namespace, payload: Dict[str, object]) -> None:
    if getattr(args, "result_out", ""):
        from repro.obs import atomic_write_json

        atomic_write_json(args.result_out, payload)
        print(f"wrote result to {args.result_out}", file=sys.stderr)


def _truncation_exit(result, default: int = 0) -> int:
    """Exit code for a possibly truncated campaign result.

    Deadline expiry is a *clean* stop (exit 0); an interrupt propagates
    the conventional 130 after exports have flushed.
    """
    if result.truncated:
        print(
            f"campaign truncated ({result.stop_reason}); "
            "partial results above, checkpoint flushed",
            file=sys.stderr,
        )
        if result.stop_reason == "interrupted":
            return 130
    return default


def _load_scenario_file(path: str):
    """Parse a ``--scenario`` JSON file into a :class:`FaultScenario`.

    Malformed files surface as a one-line ``repro: error:`` (via
    SystemExit), not a traceback -- the file is user input.
    """
    from repro.reliability.scenario import FaultScenario

    try:
        return FaultScenario.load(path)
    except (OSError, ValueError) as error:
        raise SystemExit(f"repro: error: --scenario {path!r}: {error}")


def _scenario_summary(scenario) -> str:
    """One-line human description of a scenario's active sources."""
    parts = [f"transient BER {scenario.transient_ber:g}"]
    if scenario.burst is not None and scenario.burst.rate > 0:
        lengths = ",".join(str(k) for k, _ in scenario.burst.length_pmf)
        parts.append(
            f"bursts rate {scenario.burst.rate:g} lengths {{{lengths}}}"
            + (
                f" interleave {scenario.burst.interleave}"
                if scenario.burst.interleave > 1 else ""
            )
        )
    if scenario.stuck is not None and scenario.stuck.ppm > 0:
        parts.append(f"stuck-at {scenario.stuck.ppm:g} ppm")
    return ", ".join(parts)


def cmd_campaign(args: argparse.Namespace) -> int:
    from repro.analysis.tables import format_table
    from repro.core.outcomes import Outcome
    from repro.parallel import run_sharded_campaign
    from repro.reliability.sudokumodel import SuDokuReliabilityModel

    level, ber = args.level, args.ber
    intervals, group_size, seed = args.intervals, args.group_size, args.seed
    if args.scenario:
        # A mixed scenario routes through the scenario engine (whose
        # RNG model supports burst/stuck sources); the file is
        # authoritative, including its transient BER.
        return _scenario_campaign(
            args, "campaign", level, f"SuDoku-{level}",
            _load_scenario_file(args.scenario),
        )
    telemetry, make_progress = _build_telemetry(args)
    resilience = _resilience_kwargs(args)
    policy = _chaos_policy(args)
    started = time.perf_counter()
    print(
        f"running SuDoku-{level} campaign: BER {ber:g}, {intervals} intervals, "
        f"{group_size}-line groups, {group_size * group_size} lines"
        + (" [chaos enabled]" if policy.enabled else "")
        + (f" [{args.shards} shards]" if args.shards > 1 else "")
    )
    result = run_sharded_campaign(
        level, ber, intervals, group_size,
        shards=args.shards, seed=seed,
        telemetry=telemetry,
        progress=make_progress(intervals, f"campaign-{level}"),
        chaos_policy=policy if policy.enabled else None,
        chaos_seed=args.chaos_seed,
        scrub_mode=args.scrub_mode, backend=args.backend,
        **resilience,
    )
    model = SuDokuReliabilityModel(
        ber=ber, group_size=group_size, num_lines=group_size * group_size
    )
    predicted = {
        "X": model.cache_fail_x, "Y": model.cache_fail_y, "Z": model.cache_fail_z,
    }[level]()
    low, high = result.wilson_interval()
    rows = [
        ["intervals completed", result.intervals],
        ["measured P(fail)/interval", result.failure_probability],
        ["95% CI", f"[{low:.4f}, {high:.4f}]"],
        ["analytical model", predicted],
        ["SDC events", result.outcomes.get(Outcome.SDC.value, 0)],
    ]
    rows += [[f"outcome: {k}", v] for k, v in sorted(result.outcomes.items())]
    rows += [[f"metadata: {k}", v] for k, v in sorted(result.metadata.items())]
    print(format_table(["quantity", "value"], rows))
    _write_result_out(args, result.as_dict())
    _export_telemetry(
        args, telemetry, "campaign",
        {
            "level": level, "ber": ber, "intervals": intervals,
            "group_size": group_size, "shards": args.shards,
            "chaos": policy.as_dict(),
        },
        seed, started,
    )
    return _truncation_exit(result)


def _chaos_policy(args: argparse.Namespace):
    """The :class:`ChaosPolicy` the chaos flags describe."""
    from repro.resilience import ChaosPolicy

    return ChaosPolicy(
        plt_flip_rate=args.plt_flip_rate,
        map_swap_rate=args.map_swap_rate,
        visit_drop_rate=args.visit_drop_rate,
        visit_duplicate_rate=args.visit_duplicate_rate,
    )


def _scenario_campaign(
    args: argparse.Namespace, command: str, scheme: str, title: str, scenario
) -> int:
    """Run, print, and export one scenario campaign.

    Shared by ``scenario`` and ``campaign --scenario``; ``command`` names
    the manifest (whose config keys the scheme as ``scheme`` or, for
    ``campaign``, ``level``) and ``title`` the banner's scheme label.
    """
    from repro.analysis.tables import format_table
    from repro.core.outcomes import Outcome
    from repro.parallel import run_sharded_scenario

    telemetry, make_progress = _build_telemetry(args)
    resilience = _resilience_kwargs(args)
    policy = _chaos_policy(args)
    intervals, group_size = args.intervals, args.group_size
    started = time.perf_counter()
    print(
        f"running {title} scenario campaign: "
        f"{_scenario_summary(scenario)}, {intervals} intervals, "
        f"{group_size * group_size} lines"
        + (" [chaos enabled]" if policy.enabled else "")
        + (f" [{args.shards} shards]" if args.shards > 1 else "")
    )
    result = run_sharded_scenario(
        scheme, scenario, intervals, group_size,
        shards=args.shards, seed=args.seed, telemetry=telemetry,
        progress=make_progress(intervals, f"scenario-{scheme}"),
        chaos_policy=policy if policy.enabled else None,
        chaos_seed=args.chaos_seed,
        scrub_mode=args.scrub_mode, backend=args.backend,
        **resilience,
    )
    low, high = result.wilson_interval()
    rows = [
        ["scheme", scheme],
        ["intervals completed", result.intervals],
        ["measured P(fail)/interval", result.failure_probability],
        ["95% CI", f"[{low:.4f}, {high:.4f}]"],
        ["measured FIT", result.fit()],
        ["SDC events", result.outcomes.get(Outcome.SDC.value, 0)],
    ]
    rows += [[f"outcome: {k}", v] for k, v in sorted(result.outcomes.items())]
    rows += [[f"metadata: {k}", v] for k, v in sorted(result.metadata.items())]
    print(format_table(["quantity", "value"], rows))
    # Result JSON for scenario runs: campaign aggregates + the spec.
    payload = dict(result.as_dict())
    payload["scheme"] = scheme
    payload["scenario"] = scenario.as_dict()
    _write_result_out(args, payload)
    _export_telemetry(
        args, telemetry, command,
        {
            "level" if command == "campaign" else "scheme": scheme,
            "scenario": scenario.as_dict(),
            "intervals": intervals, "group_size": group_size,
            "shards": args.shards, "chaos": policy.as_dict(),
        },
        args.seed, started,
    )
    return _truncation_exit(result)


def cmd_scenario(args: argparse.Namespace) -> int:
    from repro.reliability.scenario import (
        BurstSpec,
        FaultScenario,
        StuckSpec,
    )

    if args.scenario:
        scenario = _load_scenario_file(args.scenario)
    else:
        burst = (
            BurstSpec(
                rate=args.burst_rate,
                length_pmf=tuple(sorted(args.burst_lengths)),
                span=args.burst_span,
                alignment=args.burst_alignment,
                multiplicity=args.burst_multiplicity,
                interleave=args.interleave,
            )
            if args.burst_rate > 0 else None
        )
        stuck = StuckSpec(ppm=args.stuck_ppm) if args.stuck_ppm > 0 else None
        try:
            scenario = FaultScenario(
                transient_ber=args.ber, burst=burst, stuck=stuck
            )
        except ValueError as error:
            raise SystemExit(f"repro: error: {error}")
    return _scenario_campaign(
        args, "scenario", args.scheme, args.scheme, scenario
    )


def cmd_raresim(args: argparse.Namespace) -> int:
    from repro.analysis.tables import format_table
    from repro.parallel import run_sharded_raresim

    telemetry, make_progress = _build_telemetry(args)
    resilience = _resilience_kwargs(args)
    scenario = None
    ber = args.ber
    if args.scenario:
        scenario = _load_scenario_file(args.scenario)
        # The conditioned estimator needs a nonzero transient BER; the
        # scenario's transient field takes over when it sets one.
        if scenario.transient_ber > 0:
            ber = scenario.transient_ber
    started = time.perf_counter()
    print(
        f"running SuDoku-{args.level} conditional campaign: BER {ber:g}, "
        f"{args.trials} trials, {args.group_size}-line groups"
        + (f" [scenario: {_scenario_summary(scenario)}]" if scenario else "")
        + (f" [{args.shards} shards]" if args.shards > 1 else "")
    )
    result = run_sharded_raresim(
        args.level, ber, args.trials,
        args.group_size, args.num_groups,
        shards=args.shards, seed=args.seed, telemetry=telemetry,
        progress=make_progress(args.trials, f"raresim-{args.level}"),
        scrub_mode=args.scrub_mode, backend=args.backend,
        scenario=scenario,
        **resilience,
    )
    low, high = result.conditional_ci()
    rows = [
        ["trials completed", result.trials],
        ["conditional failures", result.conditional_failures],
        ["P(DUE | >=2 multi-bit lines)", result.conditional_failure_probability],
        ["95% CI", f"[{low:.4g}, {high:.4g}]"],
        ["conditioning probability", result.conditioning_probability],
        ["estimated cache FIT", result.fit()],
    ]
    print(format_table(["quantity", "value"], rows))
    _write_result_out(args, result.as_dict())
    _export_telemetry(
        args, telemetry, "raresim",
        {
            "level": args.level, "ber": args.ber, "trials": args.trials,
            "group_size": args.group_size, "num_groups": args.num_groups,
            "shards": args.shards,
        },
        args.seed, started,
    )
    return _truncation_exit(result)


def cmd_chaos(args: argparse.Namespace) -> int:
    from repro.analysis.tables import format_table
    from repro.core.outcomes import Outcome
    from repro.parallel import run_sharded_campaign, run_sharded_scenario
    from repro.resilience import ChaosPolicy

    # Failure columns come from the taxonomy, not hand-picked strings:
    # a future failure-class Outcome gets a column automatically instead
    # of silently vanishing from the sweep table (the PR-4 bug class).
    failure_columns = [Outcome.SDC] + [o for o in Outcome if o.is_due]
    telemetry, make_progress = _build_telemetry(args)
    scenario = _load_scenario_file(args.scenario) if args.scenario else None
    run = run_sharded_campaign if scenario is None else run_sharded_scenario
    started = time.perf_counter()
    total = len(args.levels) * len(args.plt_flip_rates)
    progress = make_progress(total, "chaos-sweep")
    print(
        f"chaos sweep: levels {','.join(args.levels)} x PLT flip rates "
        f"{args.plt_flip_rates} (map swap {args.map_swap_rate:g}), "
        f"BER {args.ber:g}, {args.intervals} intervals"
        + (f" [scenario: {_scenario_summary(scenario)}]" if scenario else "")
        + (f" [{args.shards} shards]" if args.shards > 1 else "")
    )
    rows = []
    records = []
    for level in args.levels:
        for rate in args.plt_flip_rates:
            policy = ChaosPolicy(
                plt_flip_rate=rate, map_swap_rate=args.map_swap_rate
            )
            # A scenario takes the BER's place (and its engine).
            result = run(
                level, scenario if scenario is not None else args.ber,
                args.intervals, args.group_size,
                shards=args.shards, seed=args.seed,
                telemetry=telemetry,
                chaos_policy=policy if policy.enabled else None,
                chaos_seed=args.chaos_seed,
                scrub_mode=args.scrub_mode, backend=args.backend,
            )
            meta = result.metadata
            rows.append([
                level, rate,
                *(result.outcomes.get(o.value, 0) for o in failure_columns),
                meta.get("plt_flips", 0) + meta.get("map_swaps", 0),
                meta.get("residual_crc_faults", 0)
                + meta.get("residual_recompute_faults", 0),
                meta.get("residual_rebuilt", 0),
            ])
            records.append({
                "level": level,
                "plt_flip_rate": rate,
                "map_swap_rate": args.map_swap_rate,
                "scenario": scenario.as_dict() if scenario else None,
                "result": result.as_dict(),
            })
            progress.update()
    progress.finish()
    print(format_table(
        ["level", "flip rate", *(o.value for o in failure_columns),
         "faults injected", "residual detected", "rebuilt"],
        rows,
    ))
    print(
        "sdc column must stay 0: metadata faults may cost availability "
        "(metadata_due) but never silent corruption"
    )
    _write_result_out(args, {"sweep": records})
    _export_telemetry(
        args, telemetry, "chaos",
        {
            "levels": args.levels, "plt_flip_rates": args.plt_flip_rates,
            "map_swap_rate": args.map_swap_rate, "ber": args.ber,
            "intervals": args.intervals, "group_size": args.group_size,
            "shards": args.shards,
        },
        args.seed, started,
    )
    return 0


def cmd_perf(args: argparse.Namespace) -> int:
    from repro.analysis.tables import format_table
    from repro.perf.energy import edp_increase
    from repro.perf.system import compare_ideal_vs_sudoku, normalized_slowdown

    workloads, accesses, seed = args.workloads, args.accesses, args.seed
    telemetry, make_progress = _build_telemetry(args)
    started = time.perf_counter()
    progress = make_progress(len(workloads), "perf")
    rows = []
    for workload in workloads:
        print(f"simulating {workload}...", file=sys.stderr)
        results = compare_ideal_vs_sudoku(
            workload, accesses_per_core=accesses, seed=seed,
            telemetry=telemetry,
        )
        rows.append(
            [
                workload,
                normalized_slowdown(results) * 100,
                edp_increase(results["ideal"], results["sudoku"]) * 100,
                results["sudoku"].miss_rate,
            ]
        )
        progress.update()
    progress.finish()
    print(format_table(["workload", "slowdown %", "EDP +%", "miss rate"], rows))
    _export_telemetry(
        args, telemetry, "perf",
        {"workloads": workloads, "accesses": accesses},
        seed, started,
    )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code.

    Checkpoint problems (bad ``--resume`` file, flag conflicts) become a
    one-line ``repro: error:`` message and a non-zero exit -- never a
    traceback.  An interrupt outside the campaign loops exits 130.
    """
    from repro.parallel import ShardError
    from repro.resilience import CheckpointError

    args = build_parser().parse_args(argv)
    try:
        if args.command == "summary":
            return cmd_summary()
        if args.command == "exhibits":
            return cmd_exhibits(args)
        if args.command == "campaign":
            return cmd_campaign(args)
        if args.command == "raresim":
            return cmd_raresim(args)
        if args.command == "chaos":
            return cmd_chaos(args)
        if args.command == "scenario":
            return cmd_scenario(args)
        if args.command == "perf":
            return cmd_perf(args)
        if args.command == "report":
            return cmd_report(args.output, args.with_performance)
        if args.command == "distance":
            return cmd_distance(args.samples)
        if args.command == "design":
            return cmd_design(args.delta, args.target_fit)
        if args.command == "lint":
            from repro.lint.cli import run_lint_command

            return run_lint_command(args)
        if args.command == "bench":
            from repro.bench.cli import run_bench_command

            return run_bench_command(args)
        if args.command == "serve":
            from repro.serve.cli import run_serve_command

            return run_serve_command(args)
    except CheckpointError as error:
        print(f"repro: error: {error}", file=sys.stderr)
        return 2
    except ShardError as error:
        print(f"repro: error: {error}", file=sys.stderr)
        return 3
    except KeyboardInterrupt:
        print("repro: interrupted", file=sys.stderr)
        return 130
    raise AssertionError(f"unhandled command {args.command!r}")


def cmd_design(delta: float, target_fit: float) -> int:
    from repro.analysis.tables import format_table
    from repro.reliability.designspace import (
        cheapest_meeting_target,
        enumerate_design_space,
        pareto_front,
    )

    points = enumerate_design_space(delta=delta)
    front = pareto_front(points, target_fit)
    rows = [
        [p.label, p.fit, p.overhead_bits_per_line, p.scrub_bandwidth_fraction]
        for p in front
    ]
    print(f"delta={delta:g}, target <= {target_fit:g} FIT: "
          f"{len(front)} Pareto-optimal configurations")
    print(format_table(["configuration", "FIT", "bits/line", "scrub bw"], rows))
    winner = cheapest_meeting_target(points, target_fit)
    if winner is None:
        print("no configuration meets the target")
        return 1
    print(f"cheapest: {winner.label} ({winner.overhead_bits_per_line:.1f} bits/line)")
    return 0


def cmd_distance(samples: int) -> int:
    import random

    from repro.analysis.tables import format_table
    from repro.coding.crc import CRC31_SUDOKU
    from repro.coding.crcdistance import (
        min_weight_multiple_bound,
        syndrome_table,
        verify_low_weight_detection,
    )

    report = min_weight_multiple_bound(CRC31_SUDOKU, data_bits=512)
    table = syndrome_table(CRC31_SUDOKU, data_bits=512)
    rng = random.Random(0)
    rows = [
        ["polynomial", CRC31_SUDOKU.name],
        ["payload bits", report.payload_bits],
        ["undetected patterns (exact, w<=4)", len(report.undetected)],
        ["proven detection distance", f">= {report.proven_distance_at_least}"],
    ]
    for weight in (5, 6, 7, 8):
        misses = verify_low_weight_detection(
            CRC31_SUDOKU, weight, samples=samples, rng=rng, table=table
        )
        rows.append([f"random misses at weight {weight} ({samples} samples)", misses])
    print(format_table(["quantity", "value"], rows))
    return 0


def cmd_report(output: str, with_performance: bool) -> int:
    from repro.analysis.reporting import write_report

    write_report(output, include_performance=with_performance)
    print(f"wrote {output}")
    return 0
