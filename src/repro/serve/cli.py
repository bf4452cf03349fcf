"""``repro serve`` subcommand: flags and entry point.

Kept separate from :mod:`repro.cli` (like lint and bench) so the main
CLI only imports the service stack when the subcommand actually runs.
"""

from __future__ import annotations

import argparse
import asyncio
import sys

from repro.cli import non_negative_int


def configure_serve_parser(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--host", default="127.0.0.1",
        help="interface to bind (default 127.0.0.1)",
    )
    parser.add_argument(
        "--port", type=int, default=8642,
        help="TCP port; 0 binds an ephemeral port (default 8642)",
    )
    parser.add_argument(
        "--store-dir", required=True,
        help="content-addressed result store root",
    )
    parser.add_argument(
        "--checkpoint-dir", required=True,
        help="directory for per-job checkpoint files (resume on restart)",
    )
    parser.add_argument(
        "--workers", type=int, default=2,
        help="concurrent job subprocesses (default 2)",
    )
    parser.add_argument(
        "--checkpoint-every", type=non_negative_int, default=25,
        help="checkpoint flush cadence in work units (default 25)",
    )
    parser.add_argument(
        "--drain-grace-s", type=float, default=10.0,
        help="seconds to wait for running jobs to reach a trial "
             "boundary on SIGTERM (default 10)",
    )
    parser.add_argument(
        "--ready-file", default="",
        help="write {host, port} JSON here once listening (for scripts "
             "binding --port 0)",
    )


def run_serve_command(args: argparse.Namespace) -> int:
    from repro.serve.app import ServeApp

    if args.workers < 1:
        print("repro: error: --workers must be >= 1", file=sys.stderr)
        return 2
    app = ServeApp(
        store_dir=args.store_dir,
        checkpoint_dir=args.checkpoint_dir,
        workers=args.workers,
        checkpoint_every=args.checkpoint_every,
        drain_grace_s=args.drain_grace_s,
    )
    print(
        f"repro serve: listening on {args.host}:{args.port} "
        f"(store={args.store_dir}, checkpoints={args.checkpoint_dir})",
        file=sys.stderr,
    )
    asyncio.run(
        app.run(args.host, args.port, ready_file=args.ready_file)
    )
    print("repro serve: drained, exiting", file=sys.stderr)
    return 0
