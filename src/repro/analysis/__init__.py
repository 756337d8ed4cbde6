"""Domain-aware source static analysis (``repro lint``, ``R0xx`` codes).

Where :mod:`repro.verify` proves emitted *plans* consistent at runtime
(``V0xx`` diagnostics), this package checks *source files* for the
hazards no runtime test fails on demand: unit slips in the Eq. (1)/(2)
GLB accounting (float creep, raw conversion factors), environment reads
that make results depend on the invoking shell, tracer spans opened
outside ``with``, references to undefined diagnostic codes, and races in
the serving stack.  Violations are :class:`Finding` records with stable
``R0xx`` codes (see :mod:`repro.analysis.codes` and
``docs/static-analysis.md``); intentional exceptions carry inline
``# repro: noqa[Rxxx] -- reason`` comments.

Checking is interprocedural where a test cannot stand in: a project-wide
call graph (:mod:`repro.analysis.callgraph`) feeds the concurrency pack
(``R060``–``R065``, :mod:`repro.analysis.threadroots`, from declared
thread roots), because races do not fail tests on demand.  Everything a
runtime pin fails on is left to that pin: unit slips across call
boundaries and unconditional doublings (plan digests at 8-, 16- and
32-bit data), nondeterministic calls and order-unstable cache keys (the
plan goldens and the cache keys under two hash seeds), leaked module
state (the artifact ledger), unregistered policies and undocumented
artifacts (registry tests), a fork after threads and a leaked thread
(the serve daemon's fork and drain tests).

Entry points: :func:`analyze_paths`, :func:`analyze_source`, and the
``repro lint`` CLI subcommand (``--format sarif`` exports SARIF 2.1.0
via :mod:`repro.report.sarif`).
"""

from .callgraph import CallGraph, FunctionInfo, build_callgraph
from .codes import (
    ALL_RULE_CODES,
    RULE_DESCRIPTIONS,
    RULE_PACKS,
    RULE_TITLES,
    WARNING_CODES,
    describe_rule,
)
from .engine import analyze_paths, analyze_source, find_project_root, iter_python_files
from .findings import AnalysisReport, Finding, severity_of
from .rules import REGISTRY, Project, Rule, RuleRegistry, SourceFile, all_rules, rule
from .suppressions import Suppression, parse_suppressions

__all__ = [
    "ALL_RULE_CODES",
    "AnalysisReport",
    "CallGraph",
    "Finding",
    "FunctionInfo",
    "Project",
    "REGISTRY",
    "RULE_DESCRIPTIONS",
    "RULE_PACKS",
    "RULE_TITLES",
    "Rule",
    "RuleRegistry",
    "SourceFile",
    "Suppression",
    "WARNING_CODES",
    "all_rules",
    "analyze_paths",
    "analyze_source",
    "build_callgraph",
    "describe_rule",
    "find_project_root",
    "iter_python_files",
    "parse_suppressions",
    "rule",
    "severity_of",
]
