"""Domain-aware source static analysis (``repro lint``, ``R0xx`` codes).

Where :mod:`repro.verify` proves emitted *plans* consistent at runtime
(``V0xx`` diagnostics), this package proves *source files* obey the
project's domain invariants at review time: unit discipline in the
Eq. (1)/(2) GLB accounting, determinism on the process-pool experiment
path, and cross-file registry consistency.  Violations are
:class:`Finding` records with stable ``R0xx`` codes (see
:mod:`repro.analysis.codes` and ``docs/static-analysis.md``); intentional
exceptions carry inline ``# repro: noqa[Rxxx] -- reason`` markers.

Checking is interprocedural where it matters: a project-wide call graph
(:mod:`repro.analysis.callgraph`) feeds unit-flow inference
(``R040``–``R043``, :mod:`repro.analysis.unitflow`) and determinism-
reachability analysis (``R052``–``R053``,
:mod:`repro.analysis.reach_rules`), so a ``_bytes`` value crossing a
module boundary into an ``_elems`` parameter, or an unsorted
``json.dumps`` three levels below a cache-key constructor, is caught
from the declaration conventions alone.

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
