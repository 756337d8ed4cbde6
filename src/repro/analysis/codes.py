"""The rule catalog of the source static analyzer (``R`` codes).

Mirrors the structure of :mod:`repro.verify.codes` (the runtime plan
verifier's ``V`` catalog): codes are stable identifiers referenced by
tests, suppression comments and documentation, so existing codes are
never renumbered and a retired code is never reused — new rules append
new codes.  Retired so far: R001, R002, R010, R012, R013, R014, R015,
R020, R021, R022, R031, R040, R041, R042, R043, R044, R050, R051, R052,
R053, R063, R064, R066, R070, R071, R072, R073 and R074, each because
another check catches its hazard (the R07x value-range codes: the
runtime harness at the corners of :mod:`repro.arch.bounds`,
``tests/test_spec_corners.py``; R002 and the R04x unit codes: the plan
digests pinned at 8-, 16- and 32-bit data; R010, R052 and R053: the plan
goldens and the cache keys pinned under two hash seeds,
``tests/test_cache_keys.py``; R015: the artifact tests; R020–R022: the
catalog, policy-registry and artifact-index tests; R063: the serve
daemon's fork pin; R066: the SIGTERM-drain tests).
``docs/static-analysis.md`` mirrors this table and a test asserts the
two stay in sync.

Catalog overview
----------------
* ``R000`` is the engine-level code for files the analyzer cannot parse.
* ``R003``, ``R004`` — the **unit-safety** pack: the paper's Eqs. (1)/(2)
  GLB accounting mixes elements, bytes and bits, and a single silent
  unit slip flips which policy wins, so float creep and raw conversion
  factors are flagged.
* ``R011`` — the **determinism** pack: a result that depends on the
  invoking shell's environment is cached under a key that does not say
  so.
* ``R023`` — the **registry** pack: a reference to a diagnostic code
  its catalog does not define, in source, documentation or a ``noqa``
  marker.
* ``R030`` — the **observability** pack: a tracer span records itself
  only on ``__exit__``, so a span opened outside ``with`` is silently
  dropped.  (Unsuffixed metric names need no rule: the registry raises
  on them at registration, traced or not.)
* ``R060``–``R065`` — the **concurrency-safety** pack (project scope):
  the serve daemon is the one concurrent subsystem (its accept-loop
  thread, pooled handler threads and signal handler; the load
  generator's client pool).  Its thread roots are declared by a
  ``# repro: thread-root`` marker on their ``def`` lines
  (:mod:`repro.analysis.threadroots`); shared mutable state written
  from two or more roots without a lock and broken lock discipline
  (non-``finally`` release, lock-order inversion, blocking while
  holding) are flagged with witness chains over the whole-program call
  graph (:mod:`repro.analysis.callgraph`).
"""

from __future__ import annotations

#: code → short title (stable; rendered in reports and docs).
RULE_TITLES: dict[str, str] = {
    "R000": "unparsable source file",
    "R003": "float creep in integer-unit assignment",
    "R004": "magic unit-conversion constant",
    "R011": "environment read in library code",
    "R023": "unknown diagnostic code referenced",
    "R030": "tracer span opened without context manager",
    "R060": "unlocked shared-state write reachable from multiple thread roots",
    "R061": "lock acquired without finally-guarded release",
    "R062": "lock-order inversion across flock and in-process locks",
    "R065": "blocking call while holding a lock",
}

#: code → full description (the invariant that must hold).
RULE_DESCRIPTIONS: dict[str, str] = {
    "R000": (
        "Every analyzed source file must parse as Python; a syntax error "
        "makes every other rule blind to the file."
    ),
    "R003": (
        "A quantity named as an integer unit (``*_bytes``, ``*_elems``, "
        "``*_bits``) must not be assigned from an expression using true "
        "division or float literals: float creep in capacity and "
        "footprint math turns exact Eq. (1) comparisons into "
        "epsilon-dependent ones."
    ),
    "R004": (
        "Unit conversions must use the helpers in ``repro.arch.units`` "
        "(``kib``/``to_kib``/…) or the spec's ``bytes_per_elem`` rather "
        "than raw ``8``/``1024``/``1048576`` factors on byte/bit-typed "
        "operands, so every conversion site is greppable and consistent."
    ),
    "R011": (
        "Reads of ambient environment state (``os.environ``, "
        "``os.getenv``, ``Path.home``, ``expanduser``) make results "
        "depend on the invoking shell; they belong in explicitly "
        "documented configuration boundaries only."
    ),
    "R023": (
        "No source file, documentation table or ``# repro: noqa[...]`` "
        "marker may reference a diagnostic code (``V0xx``/``R0xx``) "
        "that is absent from its catalog — stale codes in docs or "
        "checks are dead identifiers, and a stale or misspelled noqa "
        "code silences nothing while looking like a sign-off."
    ),
    "R030": (
        "Tracer spans (``tracer.start(...)``) must be opened with a "
        "``with`` statement: a span only records itself on ``__exit__``, "
        "so a bare ``.start()`` call silently produces no "
        "``SpanRecord``.  Nesting depth is unaffected (it is taken in "
        "``__enter__``); only the span is lost."
    ),
    "R060": (
        "Shared mutable state (module globals, attributes of module-"
        "level singletons such as the metrics registry or the plan "
        "cache) must not be written by code reachable from two or more "
        "thread roots unless every write happens inside a "
        "``threading.Lock``/``flock`` region: the daemon's accept "
        "loop and its handler threads lose increments and tear "
        "multi-field updates silently."
    ),
    "R061": (
        "A lock acquired with ``.acquire()`` must be released in a "
        "``finally`` block (or replaced by a ``with`` statement): an "
        "exception between acquire and release deadlocks every other "
        "thread that touches the lock."
    ),
    "R062": (
        "Functions must take the cache's file lock (``flock`` on "
        "``index.lock``) and in-process ``threading.Lock`` instances "
        "in one global order — one path acquiring the flock inside an "
        "in-process lock while another nests them the other way around "
        "deadlocks under contention."
    ),
    "R065": (
        "Code holding a ``threading.Lock`` must not make blocking "
        "calls — pool ``submit``/``map``/``shutdown``, ``join``, HTTP "
        "requests, ``sleep`` — because every other thread contending "
        "for the lock stalls behind the blocked holder."
    ),
}

#: code → rule pack ("engine", "units", "determinism", "registry",
#: "observability", "concurrency").
RULE_PACKS: dict[str, str] = {
    "R000": "engine",
    "R003": "units",
    "R004": "units",
    "R011": "determinism",
    "R023": "registry",
    "R030": "observability",
    "R060": "concurrency",
    "R061": "concurrency",
    "R062": "concurrency",
    "R065": "concurrency",
}

#: Codes reported as warnings (hazards) rather than errors (defects).
#: R065 is a hazard (a blocked holder degrades rather than corrupts).
WARNING_CODES: frozenset[str] = frozenset({"R004", "R011", "R065"})

#: All catalog codes in numeric order.
ALL_RULE_CODES: tuple[str, ...] = tuple(sorted(RULE_TITLES))


def describe_rule(code: str) -> str:
    """Full catalog description of a rule code (raises on unknown codes)."""
    return RULE_DESCRIPTIONS[code]
