"""Tests for the concurrency-safety pack (R060–R066).

Each rule gets a seeded firing fixture and a clean fixture; the
archetypal case, an unlocked shared counter reachable from handler
threads (R060, witness chain asserted), is covered explicitly, plus
suppression and the SARIF round-trip.  The value-range codes R070 and
R072–R074 are retired: ``tests/test_spec_corners.py`` catches their
hazards at runtime.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis import analyze_paths
from repro.report.diagnostics import validate_sarif_payload
from repro.report.sarif import FINGERPRINT_KEY, sarif_payload

from .test_interproc import active_codes, mini_project


# ----------------------------------------------------------------------
# R060 — unlocked shared-state writes under multiple thread contexts
# ----------------------------------------------------------------------


def test_r060_fires_on_unlocked_counter_from_handler(tmp_path: Path) -> None:
    """The seeded race: handler threads bump a shared counter unlocked."""
    root = mini_project(
        tmp_path,
        {
            "pkg/__init__.py": "",
            "pkg/counts.py": (
                "class Stats:\n"
                "    def __init__(self):\n"
                "        self.hits = 0\n"
                "    def bump(self):\n"
                "        self.hits += 1\n"
                "stats = Stats()\n"
                "def record():\n"
                "    stats.bump()\n"
            ),
            "pkg/srv.py": (
                "from pkg.counts import record\n"
                "def handle_status(request):\n"
                "    record()\n"
            ),
        },
    )
    report = analyze_paths([root], root=root)
    r060 = [f for f in report if f.code == "R060" and f.active]
    assert r060, "unlocked shared counter under handler threads must fire"
    (finding,) = [f for f in r060 if "self.hits" in f.message]
    assert "handle_status" in finding.message, "witness root missing"
    assert "->" in finding.message, "witness call chain missing"
    assert "bump" in finding.message


def test_r060_fires_on_pool_client_lambda_thunks(tmp_path: Path) -> None:
    """Load-generator shape: ThreadPoolExecutor lambda thunks race."""
    root = mini_project(
        tmp_path,
        {
            "pkg/gen.py": (
                "from concurrent.futures import ThreadPoolExecutor\n"
                "results = {}\n"
                "def work(job):\n"
                "    results[job] = job\n"
                "def fan_out(jobs):\n"
                "    with ThreadPoolExecutor(max_workers=4) as pool:\n"
                "        list(pool.map(lambda j: work(j), jobs))\n"
            ),
        },
    )
    report = analyze_paths([root], root=root)
    r060 = [f for f in report if f.code == "R060" and f.active]
    assert any("results[job]" in f.message for f in r060)


def test_r060_clean_when_write_is_locked(tmp_path: Path) -> None:
    root = mini_project(
        tmp_path,
        {
            "pkg/counts.py": (
                "import threading\n"
                "class Stats:\n"
                "    def __init__(self):\n"
                "        self._lock = threading.Lock()\n"
                "        self.hits = 0\n"
                "    def bump(self):\n"
                "        with self._lock:\n"
                "            self.hits += 1\n"
                "stats = Stats()\n"
                "def handle_status(request):\n"
                "    stats.bump()\n"
            ),
        },
    )
    report = analyze_paths([root], root=root)
    assert "R060" not in active_codes(report)


def test_r060_ignores_process_isolated_roots(tmp_path: Path) -> None:
    """Pool workers share no memory: one isolated root never fires."""
    root = mini_project(
        tmp_path,
        {
            "pkg/w.py": (
                "from concurrent.futures import ProcessPoolExecutor\n"
                "totals = {}\n"
                "def work(job):\n"
                "    totals[job] = job\n"
                "def run(jobs):\n"
                "    with ProcessPoolExecutor() as pool:\n"
                "        list(pool.map(work, jobs))\n"
            ),
        },
    )
    report = analyze_paths([root], root=root)
    assert "R060" not in active_codes(report)


# ----------------------------------------------------------------------
# R061 — unpaired / non-finally lock release
# ----------------------------------------------------------------------


def test_r061_fires_on_release_outside_finally(tmp_path: Path) -> None:
    root = mini_project(
        tmp_path,
        {
            "pkg/locks.py": (
                "import threading\n"
                "lock = threading.Lock()\n"
                "def bad():\n"
                "    lock.acquire()\n"
                "    lock.release()\n"
            ),
        },
    )
    report = analyze_paths([root], root=root)
    r061 = [f for f in report if f.code == "R061" and f.active]
    assert r061 and "finally" in r061[0].message


def test_r061_fires_on_missing_release(tmp_path: Path) -> None:
    root = mini_project(
        tmp_path,
        {
            "pkg/locks.py": (
                "import threading\n"
                "lock = threading.Lock()\n"
                "def bad():\n"
                "    lock.acquire()\n"
                "    return 1\n"
            ),
        },
    )
    report = analyze_paths([root], root=root)
    r061 = [f for f in report if f.code == "R061" and f.active]
    assert r061 and "no" in r061[0].message and "release" in r061[0].message


def test_r061_clean_with_try_finally_and_with(tmp_path: Path) -> None:
    root = mini_project(
        tmp_path,
        {
            "pkg/locks.py": (
                "import threading\n"
                "lock = threading.Lock()\n"
                "def good():\n"
                "    lock.acquire()\n"
                "    try:\n"
                "        return 1\n"
                "    finally:\n"
                "        lock.release()\n"
                "def better():\n"
                "    with lock:\n"
                "        return 2\n"
            ),
        },
    )
    report = analyze_paths([root], root=root)
    assert "R061" not in active_codes(report)


# ----------------------------------------------------------------------
# R062 — lock-order inversion
# ----------------------------------------------------------------------


def test_r062_fires_on_opposite_nesting(tmp_path: Path) -> None:
    root = mini_project(
        tmp_path,
        {
            "pkg/order.py": (
                "import threading\n"
                "lock_a = threading.Lock()\n"
                "lock_b = threading.Lock()\n"
                "def one():\n"
                "    with lock_a:\n"
                "        with lock_b:\n"
                "            pass\n"
                "def two():\n"
                "    with lock_b:\n"
                "        with lock_a:\n"
                "            pass\n"
            ),
        },
    )
    report = analyze_paths([root], root=root)
    r062 = [f for f in report if f.code == "R062" and f.active]
    assert r062 and "opposite order" in r062[0].message


def test_r062_fires_through_callee_acquisition(tmp_path: Path) -> None:
    """Inner lock taken by a callee still inverts against a direct nest."""
    root = mini_project(
        tmp_path,
        {
            "pkg/order.py": (
                "import threading\n"
                "lock_a = threading.Lock()\n"
                "lock_b = threading.Lock()\n"
                "def takes_a():\n"
                "    with lock_a:\n"
                "        pass\n"
                "def one():\n"
                "    with lock_b:\n"
                "        takes_a()\n"
                "def two():\n"
                "    with lock_a:\n"
                "        with lock_b:\n"
                "            pass\n"
            ),
        },
    )
    report = analyze_paths([root], root=root)
    assert "R062" in active_codes(report)


def test_r062_clean_with_consistent_order(tmp_path: Path) -> None:
    root = mini_project(
        tmp_path,
        {
            "pkg/order.py": (
                "import threading\n"
                "lock_a = threading.Lock()\n"
                "lock_b = threading.Lock()\n"
                "def one():\n"
                "    with lock_a:\n"
                "        with lock_b:\n"
                "            pass\n"
                "def two():\n"
                "    with lock_a:\n"
                "        with lock_b:\n"
                "            pass\n"
            ),
        },
    )
    report = analyze_paths([root], root=root)
    assert "R062" not in active_codes(report)


# ----------------------------------------------------------------------
# R063 — fork after threads
# ----------------------------------------------------------------------


def test_r063_fires_on_pool_after_thread_start(tmp_path: Path) -> None:
    root = mini_project(
        tmp_path,
        {
            "pkg/forked.py": (
                "import threading\n"
                "from concurrent.futures import ProcessPoolExecutor\n"
                "def work():\n"
                "    pass\n"
                "def run():\n"
                "    t = threading.Thread(target=work, daemon=True)\n"
                "    t.start()\n"
                "    pool = ProcessPoolExecutor()\n"
                "    return pool, t\n"
            ),
        },
    )
    report = analyze_paths([root], root=root)
    r063 = [f for f in report if f.code == "R063" and f.active]
    assert r063 and "fork" in r063[0].message


def test_r063_clean_when_pool_created_first(tmp_path: Path) -> None:
    root = mini_project(
        tmp_path,
        {
            "pkg/forked.py": (
                "import threading\n"
                "from concurrent.futures import ProcessPoolExecutor\n"
                "def work():\n"
                "    pass\n"
                "def run():\n"
                "    pool = ProcessPoolExecutor()\n"
                "    t = threading.Thread(target=work, daemon=True)\n"
                "    t.start()\n"
                "    return pool, t\n"
            ),
        },
    )
    report = analyze_paths([root], root=root)
    assert "R063" not in active_codes(report)


# ----------------------------------------------------------------------
# R065 — blocking call under lock (warning)
# ----------------------------------------------------------------------


def test_r065_fires_on_sleep_under_lock(tmp_path: Path) -> None:
    root = mini_project(
        tmp_path,
        {
            "pkg/slow.py": (
                "import threading\n"
                "import time\n"
                "lock = threading.Lock()\n"
                "def slow():\n"
                "    with lock:\n"
                "        time.sleep(0.1)\n"
            ),
        },
    )
    report = analyze_paths([root], root=root)
    r065 = [f for f in report if f.code == "R065" and f.active]
    assert r065 and r065[0].severity.value == "warning"


def test_r065_clean_when_blocking_outside_lock(tmp_path: Path) -> None:
    root = mini_project(
        tmp_path,
        {
            "pkg/slow.py": (
                "import threading\n"
                "import time\n"
                "lock = threading.Lock()\n"
                "def slow():\n"
                "    with lock:\n"
                "        pass\n"
                "    time.sleep(0.1)\n"
            ),
        },
    )
    report = analyze_paths([root], root=root)
    assert "R065" not in active_codes(report)


# ----------------------------------------------------------------------
# R066 — leaked non-daemon threads (warning)
# ----------------------------------------------------------------------


def test_r066_fires_on_unjoined_nondaemon_thread(tmp_path: Path) -> None:
    root = mini_project(
        tmp_path,
        {
            "pkg/spawn.py": (
                "import threading\n"
                "def work():\n"
                "    pass\n"
                "def run():\n"
                "    t = threading.Thread(target=work)\n"
                "    t.start()\n"
            ),
        },
    )
    report = analyze_paths([root], root=root)
    r066 = [f for f in report if f.code == "R066" and f.active]
    assert r066 and "join" in r066[0].message


def test_r066_clean_when_joined_daemon_or_returned(tmp_path: Path) -> None:
    root = mini_project(
        tmp_path,
        {
            "pkg/spawn.py": (
                "import threading\n"
                "def work():\n"
                "    pass\n"
                "def joined():\n"
                "    t = threading.Thread(target=work)\n"
                "    t.start()\n"
                "    t.join()\n"
                "def daemonic():\n"
                "    t = threading.Thread(target=work, daemon=True)\n"
                "    t.start()\n"
                "def handed_back():\n"
                "    t = threading.Thread(target=work)\n"
                "    t.start()\n"
                "    return t\n"
            ),
        },
    )
    report = analyze_paths([root], root=root)
    assert "R066" not in active_codes(report)


# ----------------------------------------------------------------------
# Suppressions and SARIF round-trip
# ----------------------------------------------------------------------

_TWO_FINDINGS = (
    "import threading\n"
    "hits = {{}}\n"
    "lock = threading.Lock()\n"
    "def handle_one(request):\n"
    "    hits[request] = 1{r060}\n"
    "def bad():\n"
    "    lock.acquire(){r061}\n"
    "    lock.release()\n"
)


def test_noqa_suppresses_r060_and_r061(tmp_path: Path) -> None:
    source = _TWO_FINDINGS.format(
        r060="  # repro: noqa[R060] -- benign test seam",
        r061="  # repro: noqa[R061] -- fixture",
    )
    root = mini_project(tmp_path, {"pkg/mixed.py": source})
    report = analyze_paths([root], root=root)
    assert not active_codes(report) & {"R060", "R061"}
    assert {"R060", "R061"} <= {f.code for f in report.suppressed}


def test_sarif_round_trip_for_new_packs(tmp_path: Path) -> None:
    root = mini_project(tmp_path, {"pkg/bad.py": _TWO_FINDINGS.format(r060="", r061="")})
    report = analyze_paths([root], root=root)
    payload = sarif_payload(report)
    assert validate_sarif_payload(payload) == []
    run = payload["runs"][0]
    results_by_rule = {r["ruleId"] for r in run["results"]}
    assert {"R060", "R061"} <= results_by_rule
    for result in run["results"]:
        if result["ruleId"] in ("R060", "R061"):
            fp = result["partialFingerprints"][FINGERPRINT_KEY]
            assert isinstance(fp, str) and fp
    rule_ids = [r["id"] for r in run["tool"]["driver"]["rules"]]
    assert "R060" in rule_ids and "R061" in rule_ids
