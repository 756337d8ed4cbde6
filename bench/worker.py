"""One round of one workload, in a fresh interpreter.

``run.py`` starts this script once per round (and once per extra set-up
sample) so every round is cold: the planner's in-process memos, including
the DRAM effective-bandwidth memo that ``clear_evaluation_memo`` does not
clear, start empty.  Set-up runs from the parent's spawn timestamp to
ready; the round then times one pass over its workload and writes what
it measured, with output digests (and, with ``--verify``, verifier
results) as JSON for the parent to check against ``expected.json``.

Usage (normally only from ``run.py``)::

    python bench/worker.py --workload plan-zoo-flat --seed 0 --trace 0 \\
        --spawn-ns <perf_counter_ns> --out round-0.json [--verify] [--setup-only]
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import http.client
import json
import os
import re
import resource
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

import stats
from workloads import PAPER_MODELS, WARMUP_GLB_KB, WARMUP_MODEL, plan_configs, serve_mix
from yardstick import Yardstick

from repro.obs import clock

BENCH = Path(__file__).resolve().parent

#: Longest a daemon may take to boot, answer one request or drain.
DAEMON_TIMEOUT_S = 60


def sha256(data: bytes) -> str:
    """Hex SHA-256 of ``data``."""
    return hashlib.sha256(data).hexdigest()


def plan_digests(plan: Any) -> dict[str, str]:
    """Digests of a plan's canonical export and of its explain payload."""
    from repro.analyzer.export import plan_to_dict
    from repro.serve.protocol import canonical_json

    return {
        "plan": sha256(canonical_json(plan_to_dict(plan))),
        "explain": sha256(canonical_json(plan.explain().to_payload())),
    }


def warm_up() -> None:
    """One flat plan outside the ladder, then drop the planner memos."""
    from repro import AcceleratorSpec, Objective, plan_heterogeneous
    from repro.arch.units import kib
    from repro.estimators.evaluate import clear_evaluation_memo
    from repro.nn.zoo import get_model

    plan_heterogeneous(
        get_model(WARMUP_MODEL), AcceleratorSpec(glb_bytes=kib(WARMUP_GLB_KB)), Objective.ACCESSES
    )
    clear_evaluation_memo()
    gc.collect()


def fingerprint() -> dict[str, str]:
    """The environment a traced round ran in."""
    import platform

    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": str(os.cpu_count()),
        "machine": platform.machine(),
    }


class Traced:
    """Tracing plus the layer spans and a GC monitor, for one timed region."""

    def __enter__(self) -> "Traced":
        import layers
        from repro.obs import enable_tracing

        self.tracer = enable_tracing()
        self.installation = layers.install()
        self.gc = layers.GcMonitor().__enter__()
        return self

    def __exit__(self, *exc: object) -> None:
        from repro.obs import disable_tracing

        self.gc.__exit__()
        self.installation.uninstall()
        disable_tracing()


def timed_region(args: argparse.Namespace) -> Any:
    """:class:`Traced` for a traced round, else a no-op context."""
    return Traced() if args.trace else contextlib.nullcontext()


def net_ns(start: tuple[int, int], end: tuple[int, int]) -> int:
    """Wall time between two :meth:`Yardstick.mark` readings, less the
    yardstick's own samples in between."""
    return (end[0] - start[0]) - (end[1] - start[1])


def traced_report(
    args: argparse.Namespace,
    spans: Any,
    metrics_snapshot: dict[str, Any],
    *,
    gc_gen2_count: int,
    gc_pause_s: float,
    client_ms: list[float] | None = None,
) -> dict[str, Any]:
    """Per-layer metrics, top layers and the validated Chrome trace."""
    from repro.obs import export
    from repro.report.diagnostics import validate_telemetry_payload

    nodes = stats.span_tree(spans)
    env = fingerprint()
    payload = export.telemetry_payload(
        list(spans),
        metrics_snapshot,
        meta={"tool": "bench", "workload": args.workload, "seed": str(args.seed), **env},
    )
    path = export.write_trace(Path(args.out).with_suffix(".trace.json"), payload)
    return {
        "layers": stats.layer_metrics(
            nodes,
            client_ms=client_ms or (),
            gc_gen2_count=gc_gen2_count,
            gc_pause_s=gc_pause_s,
        ),
        "top_layers": stats.top_layers(nodes),
        "trace": str(path),
        "trace_problems": validate_telemetry_payload(payload),
        "fingerprint": env,
    }


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------


def run_plans(args: argparse.Namespace) -> dict[str, Any]:
    """A cold pass of ``plan_heterogeneous`` over the workload's configs."""
    import repro
    from repro import DEFAULT_DDR4_SPEC, AcceleratorSpec, Objective
    from repro.arch.units import kib
    from repro.nn.zoo import get_model

    configs = plan_configs(args.workload)
    models = {name: get_model(name) for name in PAPER_MODELS}
    specs = {
        (config.glb_kb, config.ddr4): AcceleratorSpec(
            glb_bytes=kib(config.glb_kb), dram=DEFAULT_DDR4_SPEC if config.ddr4 else None
        )
        for config in configs
    }
    warm_up()
    result: dict[str, Any] = {"setup_s": (clock.monotonic_ns() - args.spawn_ns) / 1e9}
    if args.setup_only:
        return result

    yardstick = Yardstick(clock.monotonic_ns)
    # A traced round takes no samples: they would land inside layer spans.
    sampling = contextlib.nullcontext() if args.trace else yardstick.every()
    with timed_region(args) as traced, sampling:
        plans, op_ms, op_windows = [], [], []
        start = yardstick.mark()
        for config in configs:
            op_start = yardstick.mark()
            # Looked up per call: a traced pass rebinds it to its span.
            plans.append(
                repro.plan_heterogeneous(
                    models[config.model],
                    specs[(config.glb_kb, config.ddr4)],
                    Objective(config.objective),
                    interlayer=config.interlayer,
                )
            )
            op_end = yardstick.mark()
            op_ms.append(net_ns(op_start, op_end) / 1e6)
            op_windows.append((op_start[0], op_end[0]))
        pass_ns = net_ns(start, yardstick.mark())
    if args.trace:
        from repro.obs import metrics_registry

        result.update(
            traced_report(
                args,
                traced.tracer.drain(),
                metrics_registry().snapshot(),
                gc_gen2_count=traced.gc.gen2_count,
                gc_pause_s=traced.gc.pause_ns / 1e9,
            )
        )

    from repro.verify import verify_plan

    result.update(
        pass_s=pass_ns / 1e9,
        op_ms=op_ms,
        yardstick_ms=None if args.trace else yardstick.mean_ms(),
        op_yardstick_ms=None if args.trace else [yardstick.near_ms(*w) for w in op_windows],
        outputs=[
            {
                "id": config.id,
                **plan_digests(plan),
                "verified": verify_plan(plan).ok if args.verify else None,
            }
            for config, plan in zip(configs, plans)
        ],
    )
    return result


def _request(port: int, method: str, path: str, body: bytes | None = None) -> tuple[int, bytes]:
    """One request on a fresh connection, as ``repro bench serve`` sends it.

    A fresh connection per request: on a kept-alive connection the
    daemon's separate header and body writes meet the client's delayed
    ACK and every response stalls about 40 ms.
    """
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=DAEMON_TIMEOUT_S)
    try:
        headers = {"Content-Type": "application/json"} if body is not None else {}
        connection.request(method, path, body, headers)
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


def quietest_cpu(sample_s: float = 0.2) -> int | None:
    """The CPU this process may use that was least busy over ``sample_s``
    seconds (the highest-numbered one on a tie), or None off Linux."""

    def busy_ticks() -> dict[int, int]:
        ticks = {}
        for line in Path("/proc/stat").read_text().splitlines():
            name, *fields = line.split()
            if name.startswith("cpu") and name != "cpu":
                # user nice system idle iowait irq softirq steal: all but
                # idle and iowait are time the CPU was not ours to take.
                values = [int(field) for field in fields[:8]]
                ticks[int(name[3:])] = sum(values) - values[3] - values[4]
        return ticks

    if not hasattr(os, "sched_getaffinity"):
        return None
    try:
        before = busy_ticks()
        time.sleep(sample_s)
        after = busy_ticks()
    except (OSError, ValueError):
        return None
    allowed = sorted(cpu for cpu in os.sched_getaffinity(0) if cpu in before and cpu in after)
    if not allowed:
        return None
    return min(reversed(allowed), key=lambda cpu: after[cpu] - before[cpu])


def run_serve(args: argparse.Namespace) -> dict[str, Any]:
    """A fresh daemon on an empty cache, driven by one closed-loop client."""
    # Client and daemon (which inherits this) share one CPU.  The closed
    # loop keeps only one of them busy at a time; across two CPUs each
    # request also waits for an idle virtual CPU to be woken, a delay set
    # by the host's load rather than by the daemon.  The CPU is the one
    # least busy just now, so a CPU that something else keeps busy is not
    # chosen.
    cpu = quietest_cpu()
    if cpu is not None:
        os.sched_setaffinity(0, {cpu})
    telemetry = Path(args.out).with_suffix(".daemon.json")
    command = [
        sys.executable, str(BENCH / "daemon.py"),
        "--trace", str(args.trace), "--telemetry", str(telemetry),
    ]
    start_ns = clock.monotonic_ns()
    daemon = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    try:
        banner = daemon.stdout.readline() if daemon.stdout else ""
        found = re.search(r"http://127\.0\.0\.1:(\d+)", banner)
        if found is None:
            raise RuntimeError(f"daemon did not announce a port: {banner!r}")
        port = int(found.group(1))
        status, _ = _request(port, "GET", "/health")
        if status != 200:
            raise RuntimeError(f"/health answered {status}")
        result: dict[str, Any] = {"setup_s": (clock.monotonic_ns() - start_ns) / 1e9}
        failures: list[str] = []
        if not args.setup_only:
            mix = [
                (endpoint, config, json.dumps(config.params()).encode())
                for endpoint, config in serve_mix(args.seed)
            ]
            # The client is not the system under test: keep its own
            # collector pauses out of the latencies it records.
            gc.collect()
            gc.freeze()
            yardstick = Yardstick(clock.monotonic_ns)
            outputs, op_ms, op_windows = [], [], []
            loop_start_ns = clock.monotonic_ns()
            for endpoint, config, body in mix:
                op_start_ns = clock.monotonic_ns()
                status, data = _request(port, "POST", f"/{endpoint}", body)
                op_end_ns = clock.monotonic_ns()
                op_ms.append((op_end_ns - op_start_ns) / 1e6)
                op_windows.append((op_start_ns, op_end_ns))
                outputs.append([endpoint, config.id, status, sha256(data)])
                if not args.trace:
                    # Between requests, on the CPU the daemon runs on.
                    yardstick.sample()
            loop_ns = clock.monotonic_ns() - loop_start_ns - yardstick.total_ns
            result.update(
                pass_s=loop_ns / 1e9,
                op_ms=op_ms,
                yardstick_ms=None if args.trace else yardstick.mean_ms(),
                op_yardstick_ms=None if args.trace else [yardstick.near_ms(*w) for w in op_windows],
                outputs=outputs,
            )
        daemon.send_signal(signal.SIGTERM)
        daemon.communicate(timeout=DAEMON_TIMEOUT_S)
        if daemon.returncode != 0:
            failures.append(f"daemon exited {daemon.returncode} after SIGTERM")
        result["failures"] = failures
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.communicate()

    if args.trace and not args.setup_only:
        from repro.obs import SpanRecord

        dumped = json.loads(telemetry.read_text())
        spans = [
            SpanRecord(name, start, end, pid, tid, depth, tuple(map(tuple, attrs)))
            for name, start, end, pid, tid, depth, attrs in dumped["spans"]
        ]
        result.update(
            traced_report(
                args,
                spans,
                dumped["metrics"],
                gc_gen2_count=dumped["gc_gen2_count"],
                gc_pause_s=dumped["gc_pause_s"],
                client_ms=result["op_ms"],
            )
        )
    return result


RUNNERS = {
    "plan-zoo-flat": run_plans,
    "plan-zoo-ddr4": run_plans,
    "serve-zoo": run_serve,
}


def main(argv: list[str] | None = None) -> int:
    """Run one round and write its JSON record to ``--out``."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(RUNNERS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawn-ns", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--verify", action="store_true", help="run verify_plan on every plan")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    result = RUNNERS[args.workload](args)
    # The round's own process or any child it waited for (the daemon).
    peak_kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    result["peak_rss_mb"] = peak_kib / 1024
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
