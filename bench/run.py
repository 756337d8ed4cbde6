"""Benchmark of record: three workloads, end-to-end metrics, per-layer traces.

Usage::

    python bench/run.py                                  # all workloads
    python bench/run.py --workload serve-zoo --seed 3 --seconds 40
    python bench/run.py --workload plan-zoo-flat --trace 1   # per-layer run
    python bench/run.py --out result.json                # also save details

Each round runs in a fresh interpreter (``worker.py``), so every pass is
cold.  Each workload runs a fixed number of rounds (``ROUNDS``, scaled by
``--seconds``); set-up is sampled at least ``SETUP_SAMPLES`` times.  A run
takes no further round once it has spent ``RUN_CAP`` times ``--seconds``,
and the run deadline kills a hung round.  Every output is checked against
``expected.json`` after the timed region: a digest mismatch, a verifier
failure or a non-200 response is a failed op.

Without ``--trace`` the run reports the end-to-end metrics: set-up time
scaled to the reference host by ``REFERENCE_START``, pass and op times
scaled by the yardstick job (``yardstick.py``), the raw times printed
beside them, and memory.  With
``--trace 1`` it alternates untraced and traced rounds and reports the
per-layer metrics (self time of the ``bench.*`` spans,
counts and ratios) plus ``trace_overhead_ratio``.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit status is 0 when nothing failed,
1 when an op failed, 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

import stats
from workloads import ROOT, WORKLOADS, PlanConfig, serve_cache_key, serve_configs

BENCH = Path(__file__).resolve().parent
WORK = BENCH / ".work"

#: Nominal measuring seconds per run unless ``--seconds`` says otherwise.
DEFAULT_SECONDS = 40

#: Rounds per workload at ``DEFAULT_SECONDS``.  The count scales with
#: ``--seconds``, not with how fast the code runs, so a change and its
#: parent take samples of the same size.  Each count fills about
#: ``DEFAULT_SECONDS`` of wall time on a 2-vCPU host: a ``plan-zoo-flat``
#: round takes about 5 s, a ``plan-zoo-ddr4`` round 7 s and a
#: ``serve-zoo`` round 12 s, set-up and output digests included.
ROUNDS: dict[str, int] = {
    "plan-zoo-flat": 9,
    "plan-zoo-ddr4": 4,
    "serve-zoo": 3,
}

#: Set-up samples per untraced run (extra set-up-only interpreters top up).
SETUP_SAMPLES = 5

#: A run starts no round that would end it later than this many times
#: ``--seconds``, so that a slow host cannot push the record's runs past
#: their time limit.  On the host the counts were set on, no run reaches it.
RUN_CAP = 1.15

#: Every run ends, killed rounds included, within this many seconds.
RUN_DEADLINE_S = 170

#: A Python start that imports NumPy, the same kind of work as set-up.
#: Timed just before each round, it scales that round's set-up time
#: (``stats.REFERENCE_START_S``); the yardstick job, which gauges the
#: pass well, moves by about twice as much as set-up does.
REFERENCE_START = [sys.executable, "-c", "import numpy"]

#: End-to-end metric -> unit.  Every time is scaled to the reference host:
#: set-up by ``REFERENCE_START``, the pass and ops by the yardstick job run
#: at the same moments (see ``yardstick.py``).
END_TO_END: dict[str, str] = {
    "setup_s": "s",
    "pass_s": "s",
    "op_p50_ms": "ms",
    "op_p95_ms": "ms",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark could not run (missing sources, crashed or hung round)."""


def _round_env(cache_dir: Path) -> dict[str, str]:
    """The parent's environment minus every repro knob, plus the sources
    and a private, empty plan cache."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH")))
    )
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    return env


def spawn_round(
    workload: str,
    seed: int,
    index: int,
    *,
    traced: bool,
    verify: bool,
    setup_only: bool,
    deadline: float,
) -> dict[str, Any]:
    """Run one round in a fresh interpreter and return its JSON record."""
    out = WORK / workload / f"round-{index}.json"
    command = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", workload, "--seed", str(seed),
        "--trace", "1" if traced else "0", "--out", str(out),
    ]
    if verify:
        command.append("--verify")
    if setup_only:
        command.append("--setup-only")
    env = _round_env(WORK / workload / f"cache-{index}")
    reference_start = time.perf_counter()
    try:
        subprocess.run(
            REFERENCE_START, cwd=ROOT, env=env, check=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.SubprocessError as exc:
        raise BenchError(f"the reference start failed: {exc}") from exc
    start_ref_s = time.perf_counter() - reference_start
    # perf_counter_ns is the clock repro.obs.clock reads; on Linux it is
    # the system-wide monotonic clock, so the child can subtract it.
    command += ["--spawn-ns", str(time.perf_counter_ns())]
    child = subprocess.Popen(
        command, cwd=ROOT, env=env, stdout=sys.stderr, start_new_session=True
    )
    try:
        code = child.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        code = None
    finally:
        # The round's own children (the daemon) share its process group;
        # nothing of a round outlives it.
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait()
    if code is None:
        raise BenchError(f"{workload} round {index} did not finish before the run deadline")
    if code != 0:
        raise BenchError(f"{workload} round {index} exited with status {code}")
    return {**json.loads(out.read_text()), "start_ref_s": start_ref_s}


def round_count(workload: str, seconds: float) -> int:
    """Untraced rounds of one run: ``ROUNDS`` scaled by ``seconds``, at least 1."""
    return max(1, round(ROUNDS[workload] * seconds / DEFAULT_SECONDS))


def another_round(done: int, elapsed: float, seconds: float) -> bool:
    """Whether a run that took ``elapsed`` seconds for ``done`` rounds can
    take one more without passing ``RUN_CAP`` times ``seconds``."""
    return done == 0 or elapsed * (done + 1) / done <= RUN_CAP * seconds


def check_outputs(workload: str, record: dict[str, Any], expected: dict[str, Any]) -> tuple[int, list[str]]:
    """Compare one round's outputs with ``expected.json``: (attempted, failures)."""
    want = expected[workload]
    failures = list(record.get("failures", []))
    outputs = record["outputs"]
    if workload.startswith("plan-"):
        for output in outputs:
            ref = want.get(output["id"], {})
            for key in ("plan", "explain"):
                if output[key] != ref.get(key):
                    failures.append(f"{output['id']}: {key} digest differs")
            if output["verified"] is False:
                failures.append(f"{output['id']}: verify_plan failed")
        for missing in sorted(set(want) - {output["id"] for output in outputs}):
            failures.append(f"{missing}: not planned")
        attempted = len(outputs)
    else:
        configs: dict[str, PlanConfig] = {config.id: config for config in serve_configs()}
        seen: set[tuple[object, ...]] = set()
        for endpoint, config_id, status, digest in outputs:
            key = serve_cache_key(endpoint, configs[config_id])
            state = "hit" if key in seen else "miss"
            seen.add(key)
            if status != 200:
                failures.append(f"{endpoint} {config_id}: HTTP {status}")
            elif digest != want.get(f"{endpoint} {config_id}", {}).get(state):
                failures.append(f"{endpoint} {config_id} ({state}): body digest differs")
        attempted = len(outputs)
    for problem in record.get("trace_problems", []):
        failures.append(f"trace: {problem}")
    return attempted + len(record.get("failures", [])), failures


def run_workload(
    workload: str, seed: int, seconds: float, traced: bool, expected: dict[str, Any]
) -> dict[str, Any]:
    """All rounds of one workload run, summarized."""
    shutil.rmtree(WORK / workload, ignore_errors=True)
    (WORK / workload).mkdir(parents=True)
    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    planned = round_count(workload, seconds)
    # A traced run alternates untraced and traced rounds, half as many of each.
    modes = [False, True] * max(1, planned // 2) if traced else [False] * planned
    rounds: dict[bool, list[dict[str, Any]]] = {False: [], True: []}
    for index, mode in enumerate(modes):
        # A traced run needs one round of each kind, whatever the cap.
        if index >= (2 if traced else 1) and not another_round(
            index, time.monotonic() - start, seconds
        ):
            break
        rounds[mode].append(
            spawn_round(
                workload, seed, index,
                traced=mode, verify=index == 0, setup_only=False, deadline=deadline,
            )
        )
    index = len(rounds[False]) + len(rounds[True])
    setups = list(rounds[False])
    while not traced and len(setups) < SETUP_SAMPLES:
        setups.append(
            spawn_round(
                workload, seed, index,
                traced=False, verify=False, setup_only=True, deadline=deadline,
            )
        )
        index += 1

    attempted, failures = 0, []
    for record in rounds[False] + rounds[True]:
        count, problems = check_outputs(workload, record, expected)
        attempted += count
        failures += problems

    untraced_pass = stats.median([record["pass_s"] for record in rounds[False]])
    summary: dict[str, Any] = {
        "workload": workload,
        "seed": seed,
        "traced": traced,
        "rounds": len(rounds[False]) + len(rounds[True]),
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
    }
    if traced:
        layer_rounds = [record["layers"] for record in rounds[True]]
        metrics = {name: stats.median([layers[name] for layers in layer_rounds])
                   for name in stats.LAYER_METRICS if name != "trace_overhead_ratio"}
        metrics["trace_overhead_ratio"] = (
            stats.median([record["pass_s"] for record in rounds[True]]) / untraced_pass
        )
        last = rounds[True][-1]
        summary.update(
            metrics={name: (metrics[name], unit) for name, unit in stats.LAYER_METRICS.items()},
            top_layers=last["top_layers"],
            trace=last["trace"],
            fingerprint=last["fingerprint"],
        )
    else:
        untraced = rounds[False]
        op_ms = [value for record in untraced for value in record["op_ms"]]
        op_scaled = [
            stats.at_reference(value, near_ms)
            for record in untraced
            for value, near_ms in zip(record["op_ms"], record["op_yardstick_ms"])
        ]
        values = {
            "setup_s": stats.median(
                [
                    stats.at_reference(r["setup_s"], r["start_ref_s"], stats.REFERENCE_START_S)
                    for r in setups
                ]
            ),
            "pass_s": stats.median(
                [stats.at_reference(r["pass_s"], r["yardstick_ms"]) for r in untraced]
            ),
            "op_p50_ms": stats.nearest_rank(op_scaled, 0.50),
            "op_p95_ms": stats.nearest_rank(op_scaled, 0.95),
            "peak_rss_mb": stats.median([record["peak_rss_mb"] for record in untraced]),
        }
        summary.update(
            metrics={name: (values[name], unit) for name, unit in END_TO_END.items()},
            raw={
                "setup_s": (stats.median([r["setup_s"] for r in setups]), "s"),
                "pass_s": (untraced_pass, "s"),
                "op_p50_ms": (stats.nearest_rank(op_ms, 0.50), "ms"),
                "op_p95_ms": (stats.nearest_rank(op_ms, 0.95), "ms"),
                "yardstick_ms": (stats.median([r["yardstick_ms"] for r in untraced]), "ms"),
                "start_ref_s": (stats.median([r["start_ref_s"] for r in setups]), "s"),
            },
            samples={
                "setup_s": [r["setup_s"] for r in setups],
                "start_ref_s": [r["start_ref_s"] for r in setups],
                "pass_s": [r["pass_s"] for r in untraced],
                "yardstick_ms": [r["yardstick_ms"] for r in untraced],
                "op_ms": [r["op_ms"] for r in untraced],
                "op_yardstick_ms": [r["op_yardstick_ms"] for r in untraced],
                "ops": len(op_ms),
            },
        )
    return summary


def print_summary(summary: dict[str, Any]) -> None:
    """Human-readable report of one workload run (never the last line)."""
    kind = "per-layer (traced)" if summary["traced"] else "end-to-end"
    print(f"== {summary['workload']} seed={summary['seed']} {kind}: "
          f"{summary['rounds']} rounds, {summary['attempted']} ops, {summary['failed']} failed")
    for name, (value, unit) in summary["metrics"].items():
        print(f"  {name:<36} {value:>14.6g} {unit}")
    for name, (value, unit) in summary.get("raw", {}).items():
        print(f"  (raw {name:<30} {value:>14.6g} {unit})")
    if "samples" in summary:
        print(f"  (pass_s per round: {', '.join(f'{v:.3f}' for v in summary['samples']['pass_s'])};"
              f" {summary['samples']['ops']} op latencies)")
    if summary["traced"]:
        env = summary["fingerprint"]
        print(f"  environment: python {env['python']}, numpy {env['numpy']}, "
              f"nproc {env['nproc']}, {env['machine']}")
        print(f"  chrome trace: {summary['trace']}")
        if summary["top_layers"]:
            print("  top (model, layer) pairs by evaluate_layer time:")
            for model, layer, seconds in summary["top_layers"]:
                print(f"    {model:<16} {layer:<24} {seconds:.6f} s")
    for failure in summary["failures"][:20]:
        print(f"  FAILED {failure}")


def result_line(summaries: list[dict[str, Any]]) -> dict[str, Any]:
    """The final JSON object; metric names are prefixed by workload when
    more than one workload ran."""
    prefix = len(summaries) > 1
    metrics = {
        (f"{s['workload']}.{name}" if prefix else name): {"value": value, "unit": unit}
        for s in summaries
        for name, (value, unit) in s["metrics"].items()
    }
    failed = sum(s["failed"] for s in summaries)
    return {
        "correct": failed == 0,
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": failed,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    """Run the selected workloads and print their metrics."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=list(WORKLOADS),
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=0, help="input-order seed (default 0)")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help=f"nominal measuring time per workload; scales the fixed "
                             f"round counts and the run cap (default {DEFAULT_SECONDS})")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1: traced run reporting per-layer metrics")
    parser.add_argument("--out", metavar="FILE", help="also write the full result as JSON")
    args = parser.parse_args(argv)
    try:
        if not (ROOT / "src" / "repro" / "__init__.py").is_file():
            raise BenchError(f"no repro sources under {ROOT / 'src'}")
        expected = json.loads((BENCH / "expected.json").read_text())
        summaries = []
        for workload in args.workload or list(WORKLOADS):
            summary = run_workload(workload, args.seed, args.seconds, bool(args.trace), expected)
            print_summary(summary)
            summaries.append(summary)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    result = result_line(summaries)
    if args.out:
        Path(args.out).write_text(json.dumps({"result": result, "workloads": summaries}, indent=2) + "\n")
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
