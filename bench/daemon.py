"""``repro serve`` for the benchmark: the daemon ``python -m repro serve``
runs, on an ephemeral port with in-thread execution (``--jobs 0``).

With ``--trace 1`` it also records the benchmark's layer spans and a GC
monitor, and after the SIGTERM drain writes them, with the daemon's
metric snapshot, to ``--telemetry`` as JSON.

Usage (normally only from ``worker.py``)::

    python bench/daemon.py --trace 0 --telemetry daemon.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro import cli

SERVE_ARGV = ["serve", "--port", "0", "--jobs", "0"]


def main(argv: list[str] | None = None) -> int:
    """Serve until SIGTERM; with tracing, dump the telemetry afterwards."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--telemetry", required=True)
    args = parser.parse_args(argv)
    if not args.trace:
        return cli.main(SERVE_ARGV)

    import layers
    from repro.obs import enable_tracing, metrics_registry

    tracer = enable_tracing()
    layers.install()
    with layers.GcMonitor() as monitor:
        status = cli.main(SERVE_ARGV)
    spans = [
        [s.name, s.start_ns, s.end_ns, s.pid, s.tid, s.depth, s.attrs] for s in tracer.drain()
    ]
    Path(args.telemetry).write_text(
        json.dumps(
            {
                "spans": spans,
                "metrics": metrics_registry().snapshot(),
                "gc_gen2_count": monitor.gen2_count,
                "gc_pause_s": monitor.pause_ns / 1e9,
            },
            default=str,
        )
    )
    return status


if __name__ == "__main__":
    sys.exit(main())
