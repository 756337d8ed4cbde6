"""The rule catalog of the source static analyzer (``R`` codes).

Mirrors the structure of :mod:`repro.verify.codes` (the runtime plan
verifier's ``V`` catalog): codes are stable identifiers referenced by
tests, suppression comments and documentation, so existing codes are
never renumbered and a retired code is never reused — new rules append
new codes.  Retired so far: R001, R012, R013, R014, R031, R044, R050,
R051, R064, R070, R071, R072, R073 and R074, each because another check
catches its hazard (the R07x value-range codes: the runtime harness at
the corners of :mod:`repro.arch.bounds`, ``tests/test_spec_corners.py``).
``docs/static-analysis.md`` mirrors this table and a test asserts the
two stay in sync.

Catalog overview
----------------
* ``R000`` is the engine-level code for files the analyzer cannot parse.
* ``R002``–``R004`` — the **unit-safety** pack: the paper's Eqs. (1)/(2)
  GLB accounting mixes elements, bytes and bits, and a single silent
  unit slip flips which policy wins, so bare doubling, float creep and
  raw conversion factors are flagged (unit *mixes* are R043's job).
* ``R010``–``R015`` — the **determinism & parallel-safety** pack: the
  experiment engine fans work across a process pool backed by a
  content-addressed cache, so nondeterministic inputs and module-level
  mutable state are silent output corrupters.
* ``R020``–``R023`` — the **registry-consistency** pack: cross-file
  invariants (diagnostic catalogs, the policy registry, the experiment
  artifact registry) that no per-file linter can see.
* ``R030`` — the **observability** pack: a tracer span records itself
  only on ``__exit__``, so a span opened outside ``with`` is silently
  dropped.  (Unsuffixed metric names need no rule: the registry raises
  on them at registration, traced or not.)
* ``R040``–``R043`` — the **unit-flow** pack (project scope): the
  interprocedural unit checks.  A whole-program call graph
  (:mod:`repro.analysis.callgraph`) carries an inferred unit lattice
  (:mod:`repro.analysis.unitflow`) across call and return boundaries,
  so a ``_bytes`` value returned into an ``_elems`` parameter two
  modules away is no longer invisible.
* ``R052``–``R053`` — the **determinism-reachability** pack (project
  scope): starting from the cache-key roots (digest/key-named
  functions and ``plan_cached``), any *transitively reachable*
  order-unstable serialization is flagged with its call chain.
* ``R060``–``R066`` — the **concurrency-safety** pack (project scope):
  the serve daemon is the first genuinely concurrent subsystem
  (pooled HTTP handler threads, loadgen client thunks,
  drain/signal paths, process-pool initializers).  Thread roots are
  derived from the call graph (:mod:`repro.analysis.threadroots`), and
  shared mutable state written from two or more roots without a lock,
  broken lock discipline (non-``finally`` release, lock-order
  inversion, blocking while holding), fork-after-threads hazards and
  non-daemon thread leaks are flagged with their witness chains.
"""

from __future__ import annotations

#: code → short title (stable; rendered in reports and docs).
RULE_TITLES: dict[str, str] = {
    "R000": "unparsable source file",
    "R002": "bare double-buffer factor",
    "R003": "float creep in integer-unit assignment",
    "R004": "magic unit-conversion constant",
    "R010": "nondeterministic call in library code",
    "R011": "environment read in library code",
    "R015": "mutable module-level state",
    "R020": "diagnostic catalog inconsistent",
    "R021": "policy class not registered",
    "R022": "experiment artifact registry inconsistent",
    "R023": "unknown diagnostic code referenced",
    "R030": "tracer span opened without context manager",
    "R040": "call-site unit mismatch",
    "R041": "return-boundary unit mismatch",
    "R042": "cross-unit assignment through dataflow",
    "R043": "interprocedural unit mix in arithmetic",
    "R052": "unordered set iteration reachable from cache-key path",
    "R053": "unsorted JSON serialization reachable from cache-key path",
    "R060": "unlocked shared-state write reachable from multiple thread roots",
    "R061": "lock acquired without finally-guarded release",
    "R062": "lock-order inversion across flock and in-process locks",
    "R063": "process pool created on a path after thread start",
    "R065": "blocking call while holding a lock",
    "R066": "non-daemon thread not joined before drain",
}

#: code → full description (the invariant that must hold).
RULE_DESCRIPTIONS: dict[str, str] = {
    "R000": (
        "Every analyzed source file must parse as Python; a syntax error "
        "makes every other rule blind to the file."
    ),
    "R002": (
        "The Eq. (2) double-buffer factor must come from the prefetch "
        "helpers (``2 if prefetch else 1`` bound to a named factor), "
        "never from a bare ``* 2`` on a tile/footprint/memory quantity — "
        "an unconditional doubling miscounts the non-prefetch policies."
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
    "R010": (
        "Library code must not call nondeterministic sources — "
        "``random``/``numpy.random`` module functions, ``time.time``, "
        "``datetime.now``, ``os.getpid``, ``os.urandom``, ``uuid`` — "
        "because experiment workers must produce bit-identical results "
        "at any job count and cache temperature.  Monotonic timers used "
        "purely for wall-time instrumentation (``time.perf_counter``) "
        "are exempt."
    ),
    "R011": (
        "Reads of ambient environment state (``os.environ``, "
        "``os.getenv``, ``Path.home``, ``expanduser``) make results "
        "depend on the invoking shell; they belong in explicitly "
        "documented configuration boundaries only."
    ),
    "R015": (
        "Module-level mutable state (list/dict/set literals, mutable "
        "collection constructors, non-frozen dataclass instances bound "
        "to lowercase names) is copied, not shared, by pool workers — "
        "mutations silently diverge between processes."
    ),
    "R020": (
        "Every diagnostic code defined in a catalog (``V0xx`` in "
        "``repro.verify.codes``, ``R0xx`` in ``repro.analysis.codes``) "
        "must be defined exactly once, carry both a title and a "
        "description, be raised somewhere in the source, and appear in "
        "its documentation table."
    ),
    "R021": (
        "Every concrete ``Policy`` subclass must be registered in "
        "``repro.policies.registry`` — an unregistered policy silently "
        "drops out of Algorithm 1's candidate set."
    ),
    "R022": (
        "Every experiment artifact id must be unique in the "
        "``ARTIFACTS`` registry and listed in ``EXPERIMENTS.md``, so the "
        "documented artifact set and the runnable one cannot drift."
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
    "R040": (
        "An argument whose inferred unit is known must not flow into a "
        "parameter declaring a different unit: passing a ``_bytes`` "
        "value into an ``_elems`` parameter is wrong by the data width, "
        "and only a whole-program pass can see it when the callee lives "
        "in another module.  Conversions must go through the sanctioned "
        "casts in ``repro.arch.units``."
    ),
    "R041": (
        "A function whose name declares a unit (``tile_bytes()``, "
        "``footprint_elems()``) must return values of that unit on "
        "every path; a return expression inferring a different unit "
        "silently mislabels every caller's arithmetic."
    ),
    "R042": (
        "A name declaring a unit must not be assigned from an "
        "expression whose dataflow-inferred unit differs (e.g. "
        "``n_elems = total_bytes`` or ``x_elems = f()`` where ``f`` "
        "returns bytes): the mislabeled binding defeats every "
        "downstream suffix-based check."
    ),
    "R043": (
        "Additive arithmetic and ordering comparisons must not mix "
        "units (``*_bytes`` vs ``*_elems`` vs ``*_bits`` vs "
        "``*_cycles``), whether a unit is declared by a name suffix or "
        "only known through interprocedural inference (a call's return "
        "unit or a propagated local): the Eq. (1)/(2) GLB accounting is "
        "only meaningful when both sides share a unit, and a silent "
        "byte/element mix scales results by the data width."
    ),
    "R052": (
        "No function transitively reachable from cache-key "
        "construction may iterate a set/frozenset without ``sorted()`` "
        "— whatever its name: set order varies with "
        "``PYTHONHASHSEED`` across worker processes, silently forking "
        "the cache key for identical inputs."
    ),
    "R053": (
        "No function transitively reachable from cache-key "
        "construction may call ``json.dumps`` without "
        "``sort_keys=True``, so that dict insertion order cannot leak "
        "into content-addressed keys."
    ),
    "R060": (
        "Shared mutable state (module globals, attributes of module-"
        "level singletons such as the metrics registry or the plan "
        "cache) must not be written by code reachable from two or more "
        "thread roots unless every write happens inside a "
        "``threading.Lock``/``flock`` region: concurrent handler "
        "threads lose increments and tear multi-field updates "
        "silently."
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
    "R063": (
        "A ``ProcessPoolExecutor``/``multiprocessing.Pool`` must not "
        "be created on a call path that has already started a thread: "
        "``fork`` clones only the forking thread, so locks held by "
        "other threads at fork time stay locked forever in the child."
    ),
    "R065": (
        "Code holding a ``threading.Lock`` must not make blocking "
        "calls — pool ``submit``/``map``/``shutdown``, ``join``, HTTP "
        "requests, ``sleep`` — because every other thread contending "
        "for the lock stalls behind the blocked holder."
    ),
    "R066": (
        "A non-daemon ``threading.Thread`` must be ``join``-ed by the "
        "function that starts it (or handed to a drain path that "
        "joins it): a leaked non-daemon thread keeps the process alive "
        "past shutdown and past the serve drain sequence."
    ),
}

#: code → rule pack ("engine", "units", "determinism", "registry",
#: "observability", "unitflow", "reachability", "concurrency").
RULE_PACKS: dict[str, str] = {
    "R000": "engine",
    "R002": "units",
    "R003": "units",
    "R004": "units",
    "R010": "determinism",
    "R011": "determinism",
    "R015": "determinism",
    "R020": "registry",
    "R021": "registry",
    "R022": "registry",
    "R023": "registry",
    "R030": "observability",
    "R040": "unitflow",
    "R041": "unitflow",
    "R042": "unitflow",
    "R043": "unitflow",
    "R052": "reachability",
    "R053": "reachability",
    "R060": "concurrency",
    "R061": "concurrency",
    "R062": "concurrency",
    "R063": "concurrency",
    "R065": "concurrency",
    "R066": "concurrency",
}

#: Codes reported as warnings (hazards) rather than errors (defects).
#: R065/R066 are hazards (a blocked holder or leaked thread degrades
#: rather than corrupts).
WARNING_CODES: frozenset[str] = frozenset({"R004", "R011", "R065", "R066"})

#: All catalog codes in numeric order.
ALL_RULE_CODES: tuple[str, ...] = tuple(sorted(RULE_TITLES))


def describe_rule(code: str) -> str:
    """Full catalog description of a rule code (raises on unknown codes)."""
    return RULE_DESCRIPTIONS[code]
