"""Tests for the concurrency-safety pack (R060–R065) and its declared roots.

Each rule gets a seeded firing fixture and a clean fixture; the
archetypal case, an unlocked shared counter reachable from handler
threads (R060, witness chain asserted), is covered explicitly, plus
suppression and the SARIF round-trip.  Fixtures declare their thread
roots with the same ``# repro: thread-root`` marker as ``src/repro``,
and two tests keep the real tree's declarations complete.  The fork
after threads (R063) and the leaked non-daemon thread (R066) are
retired: ``tests/test_serve.py`` pins both at runtime.  So are the
value-range codes R070 and R072–R074: ``tests/test_spec_corners.py``
catches their hazards.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from repro.analysis import analyze_paths
from repro.analysis.callgraph import resolve_call_target
from repro.analysis.rules import Project, SourceFile
from repro.analysis.suppressions import parse_markers
from repro.analysis.threadroots import threads_for
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
                "def handle_status(request):  # repro: thread-root[concurrent] -- handler pool\n"
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
    """Load-generator shape: a client-pool root, fanned out by lambda thunks."""
    root = mini_project(
        tmp_path,
        {
            "pkg/gen.py": (
                "from concurrent.futures import ThreadPoolExecutor\n"
                "results = {}\n"
                "def work(job):  # repro: thread-root[concurrent] -- client pool\n"
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


_DAEMON_SHAPE = {
    "pkg/__init__.py": "",
    "pkg/srv.py": (
        "import threading\n"
        "from concurrent.futures import ThreadPoolExecutor\n"
        "seen = {}\n"
        "def observe(name):\n"
        "    seen[name] = 1\n"
        "class Server:\n"
        "    def __init__(self):\n"
        "        self._pool = ThreadPoolExecutor(max_workers=4)\n"
        "    def serve_forever(self):  # repro: thread-root -- accept loop\n"
        "        self._answer_hit('plan')\n"
        "        self._pool.submit(self.render, 'plan')\n"
        "    def _answer_hit(self, name):\n"
        "        observe(name)\n"
        "    def render(self, name):  # repro: thread-root[concurrent] -- handler pool\n"
        "        observe(name)\n"
        "def run():\n"
        "    server = Server()\n"
        "    threading.Thread(target=server.serve_forever).start()\n"
    ),
}


def test_r060_fires_on_a_write_shared_by_the_accept_loop_and_its_pool(tmp_path: Path) -> None:
    """The daemon's shape: the accept loop answers some requests itself
    and submits the rest to the handler pool; a write both reach races."""
    report = analyze_paths([mini_project(tmp_path, _DAEMON_SHAPE)], root=tmp_path)
    (finding,) = [f for f in report if f.code == "R060" and f.active]
    assert "seen[name]" in finding.message
    assert "Server.render (handler pool, concurrent with itself)" in finding.message
    assert "Server.serve_forever (accept loop)" in finding.message


def test_daemon_roots_reach_the_reply_lookup_and_the_render() -> None:
    """The real daemon: its accept loop reaches the reply lookup and its
    handler pool reaches the render."""
    root = Path(__file__).resolve().parent.parent
    project = Project(
        root=root,
        files=tuple(
            SourceFile.parse(path, path.relative_to(root).as_posix(), path.read_text())
            for path in sorted((root / "src" / "repro" / "serve").glob("*.py"))
        ),
    )
    analysis = threads_for(project)
    loop = analysis.roots["repro.serve.server.ReproServer.serve_forever"]
    pool = analysis.roots["repro.serve.server.ReproServer.handle"]
    assert (loop.label, loop.concurrent) == ("accept loop", False)
    assert (pool.label, pool.concurrent) == ("handler pool", True)
    assert "repro.serve.handlers.cached_reply" in analysis.reach_by_root[loop.qualname]
    assert "repro.serve.handlers.render" in analysis.reach_by_root[pool.qualname]


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
                "def handle_status(request):  # repro: thread-root[concurrent] -- handler pool\n"
                "    stats.bump()\n"
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
# Declared thread roots
# ----------------------------------------------------------------------

#: Calls that start a thread context: a thread, a thread pool, a signal handler.
_THREAD_STARTERS = frozenset(
    {"threading.Thread", "concurrent.futures.ThreadPoolExecutor", "signal.signal"}
)


@pytest.fixture(scope="module")
def src_project() -> Project:
    """The whole of ``src/repro``, parsed once."""
    root = Path(__file__).resolve().parent.parent
    return Project(
        root=root,
        files=tuple(
            SourceFile.parse(path, path.relative_to(root).as_posix(), path.read_text())
            for path in sorted((root / "src" / "repro").rglob("*.py"))
        ),
    )


def test_parse_markers_reads_thread_root_declarations() -> None:
    source = (
        "def a():  # repro: thread-root[concurrent] -- handler pool\n"
        "def b():  # repro: thread-root -- accept loop\n"
        "x = {}  # repro: noqa[R011] -- kept\n"
    )
    suppressions, roots = parse_markers(source)
    assert [(r.line, r.concurrent, r.label) for r in roots] == [
        (1, True, "handler pool"),
        (2, False, "accept loop"),
    ]
    assert [(s.line, s.codes) for s in suppressions] == [(3, frozenset({"R011"}))]


def test_markers_inside_strings_declare_nothing() -> None:
    """A quoted marker is an example; a real comment on the same line still counts."""
    source = (
        '"""Docs quoting markers:\n'
        "\n"
        "    def handle(self):  # repro: thread-root[concurrent] -- handler pool\n"
        "    memo = {}  # repro: noqa[R011] -- per-process memo\n"
        '"""\n'
        "EXAMPLE = '# repro: noqa[R003] -- quoted'  # repro: noqa[R004] -- real\n"
        "ROOT = '# repro: noqa[R003]'\n"
        "def serve(): ...  # repro: thread-root -- '# repro: noqa[R011]' in a label\n"
    )
    suppressions, roots = parse_markers(source)
    assert [(s.line, s.codes) for s in suppressions] == [(6, frozenset({"R004"}))]
    assert [(r.line, r.concurrent, r.label) for r in roots] == [
        (8, False, "'# repro: noqa[R011]' in a label")
    ]


def test_every_declared_root_resolves_in_the_call_graph(src_project: Project) -> None:
    """A marker that is not on a ``def`` line (a moved comment) declares nothing."""
    declared = {
        (f.relpath, m.line)
        for f in src_project.files
        for m in f.thread_roots
    }
    roots = threads_for(src_project).roots
    functions = src_project.callgraph().functions
    assert declared == {
        (functions[q].file.relpath, functions[q].node.lineno) for q in roots
    }
    assert all(root.label for root in roots.values()), "every root needs a label"


def test_every_thread_starting_file_declares_a_root(src_project: Project) -> None:
    """A new thread, thread pool or signal handler cannot land unchecked."""
    for file in src_project.files:
        starts = [
            node.lineno
            for node in ast.walk(file.tree)
            if isinstance(node, ast.Call)
            and resolve_call_target(node.func, file.aliases) in _THREAD_STARTERS
        ]
        assert not starts or file.thread_roots, (
            f"{file.relpath}:{starts[0]} starts a thread context but declares no "
            f"'# repro: thread-root' on the function that runs there"
        )


# ----------------------------------------------------------------------
# Suppressions and SARIF round-trip
# ----------------------------------------------------------------------

_TWO_FINDINGS = (
    "import threading\n"
    "hits = {{}}\n"
    "lock = threading.Lock()\n"
    "def handle_one(request):  # repro: thread-root[concurrent] -- handler pool\n"
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
