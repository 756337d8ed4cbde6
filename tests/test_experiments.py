"""The artifact ledger: every number the reproduction reports, pinned exactly.

Once per test run, all 19 artifacts are regenerated cold (a fresh plan
cache, the in-process memos cleared) and exported as CSV.  The ledger,
``golden/artifacts.json``, holds the SHA-256 of each export and the
measured numbers ``EXPERIMENTS.md`` quotes; the run must match it
exactly, and so must every measured number in the document.  The test
classes then assert the paper's claims, as bands and shapes, over each
artifact's full grid.

A change that moves a reported number regenerates the ledger
(``python tests/test_experiments.py``), updates ``EXPERIMENTS.md`` in the
same change, and says why.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import re
import tempfile
from collections import Counter
from pathlib import Path
from typing import Any, Iterator

import pytest

from repro.analyzer import pareto_frontier
from repro.arch import AcceleratorSpec, kib
from repro.experiments import ablations, bounds, cache, common, energy, fig1, fig3, fig5, fig6
from repro.experiments import fig7, fig8, fig9, fig10, fig11, resolution, table2, table3, table4
from repro.experiments.runner import ARTIFACTS, run_all, run_report
from repro.nn.zoo import get_model

ROOT = Path(__file__).resolve().parent.parent
LEDGER = ROOT / "tests" / "golden" / "artifacts.json"
EXPERIMENTS_MD = ROOT / "EXPERIMENTS.md"

#: The measured columns of each EXPERIMENTS.md table, by section: one
#: name per column after the row label, ``None`` for a paper column.
DOC_TABLES = {
    "Table 2": (None, "Layers", None, None),
    "Table 3": ("intra", "p1", "p2", "p3"),
    "Table 4": (None, "Measured"),
    "Figure 5": ("64", "1024"),
    "Figure 7": ("64", "128"),
    "Figure 9": ("Accesses benefit", "Latency benefit"),
    "Figure 10": ("Accesses benefit", "Latency benefit", "Coverage"),
    "Figure 11": ("Accesses benefit", "Latency benefit", "Coverage"),
}

#: The measured numbers of EXPERIMENTS.md's prose: each ``{key}`` is one,
#: and the text around it must appear verbatim (up to line breaks).
DOC_PROSE = (
    "{Table 3/exact} are exact to 0.1 kB",
    "({Table 3/exact}/24 cells exact",
    "EfficientNetB0 intra {Table 3/EfficientNetB0/intra} vs 1491.9",
    "ResNet18 p1 {Table 3/ResNet18/p1} vs 2318.0",
    "conv2_1a: {Figure 3/conv2_1a/fmaps} kB fmaps vs {Figure 3/conv2_1a/filters} kB filters",
    "conv5_2b: {Figure 3/conv5_2b/filters} kB filters vs {Figure 3/conv5_2b/fmaps} kB fmaps",
    "EfficientNetB0 {Figure 8/EfficientNetB0} %, MnasNet {Figure 8/MnasNet} %, MobileNetV2 "
    "{Figure 8/MobileNetV2} %, MobileNet {Figure 8/MobileNet} %, ResNet18 {Figure 8/ResNet18} "
    "%, GoogLeNet {Figure 8/GoogLeNet} %",
    "Hom_l beats Hom_a by up to {Figure 8/Hom_l vs Hom_a} %",
    "Het_l beats Het_a by up to {Figure 8/Het_l vs Het_a} % for MobileNet",
    "accesses {Figure 11/geomean accesses} % (paper: 47 %), latency "
    "{Figure 11/geomean latency} %",
    "adds up to {ablation-interlayer/coverage} points of coverage and "
    "{ablation-interlayer/benefit} points of access benefit",
    "finds up to {ablation-interlayer/coverage} points more coverage and "
    "{ablation-interlayer/benefit} points more access benefit",
    "gap {bounds/256 kB+} % for every model at 256 kB+ and ≤{bounds/64 kB} % at 64 kB",
    "translate to {energy/min}–{energy/max} % inference-energy reductions at 64 kB, with DRAM "
    "at {energy/DRAM min}–{energy/DRAM max} % of total energy",
    "saves {ablation-fallback/ResNet18/64} % of Het's accesses on ResNet18 at 64 kB",
    "by {ablation-dataflow/MobileNet/WS} % / {ablation-dataflow/MobileNet/IS} % for the "
    "depth-wise-heavy MobileNet, and by {ablation-dataflow/ResNet18/WS} % / "
    "{ablation-dataflow/ResNet18/IS} % for ResNet18 and {ablation-dataflow/GoogLeNet/WS} % / "
    "{ablation-dataflow/GoogLeNet/IS} % for GoogLeNet",
    "cuts Het traffic {resolution/224 over 128}×",
    "α = 0.2 takes {Pareto/0.2/latency} % of Het_l's latency benefit for "
    "{Pareto/0.2/accesses} % extra accesses, and α = 0.8 takes {Pareto/0.8/latency} % of it "
    "for {Pareto/0.8/accesses} % (Het_l pays {Pareto/1.0/accesses} %)",
)


def _value(text: str) -> str:
    """A reported number or cell as the ledger keeps it.

    Drops the paper's value and the markup around a measured one
    (``2353.0 / **2353.0** ✓``, ``**85.1 %** (paper: 79.8 %)``) and writes
    a number without its percent sign, a plus sign or a negative zero.
    """
    text = re.sub(r"\(paper[^)]*\)|\*\*|✓", "", text).split(" / ")[-1].strip()
    number = re.fullmatch(r"([+−-]?)(\d+(?:\.\d+)?) ?%?", text)
    if number is None:
        return text
    sign, digits = number.groups()
    return f"-{digits}" if sign in ("−", "-") and float(digits) else digits


def _csv(path: Path) -> list[dict[str, str]]:
    with path.open(newline="", encoding="utf-8") as f:
        return list(csv.DictReader(f))


def quoted(exports: dict[str, Path]) -> dict[str, dict[str, str]]:
    """The measured numbers EXPERIMENTS.md quotes, computed from one run.

    Keyed by document section, then by the number's row and column where
    it sits in a table.  Table cells come from the CSV exports; the
    Fig. 11 geometric means and the Pareto figures are computed here.
    """
    rows = {name: _csv(path) for name, path in exports.items()}
    cells: dict[str, str] = {}
    for r in rows["table2"]:
        cells[f"Table 2/{r['Network']}/Layers"] = r["Layers"]
    for r in rows["table3"]:
        cells[f"Table 3/{r['Network']}/{r['Policy']}"] = f"{float(r['Measured kB']):.1f}"
    cells["Table 3/exact"] = str(sum(r["Measured kB"] == r["Paper kB"] for r in rows["table3"]))
    for r in rows["table4"]:
        measured = r["Measured"].replace("intra-layer reuse", "intra").replace("policy ", "p")
        cells[f"Table 4/{r['Network']}/Measured"] = measured
    fig3_rows = {r["Layer"]: r for r in rows["fig3"]}
    for layer in ("conv2_1a", "conv5_2b"):
        r = fig3_rows[layer]
        cells[f"Figure 3/{layer}/fmaps"] = f"{float(r['ifmap']) + float(r['ofmap']):.0f}"
        cells[f"Figure 3/{layer}/filters"] = f"{float(r['filter']):.0f}"
    for r in rows["fig5"]:
        if r["GLB kB"] in ("64", "1024"):
            cells[f"Figure 5/{r['Model']}/{r['GLB kB']}"] = r["Het red. vs best sa_*"]
    for r in rows["fig7"]:
        if r["GLB kB"] in ("64", "128"):
            cells[f"Figure 7/{r['Width']}/{r['GLB kB']}"] = r["Het benefit"]
    for r in rows["fig8"]:
        if r["GLB kB"] == "64":
            cells[f"Figure 8/{r['Model']}"] = r["Het_l vs base"]
    for scheme in ("Hom", "Het"):
        gain = max(1 - float(r[f"{scheme}_l"]) / float(r[f"{scheme}_a"]) for r in rows["fig8"])
        cells[f"Figure 8/{scheme}_l vs {scheme}_a"] = f"{100 * gain:.1f}"
    for r in rows["fig9"]:
        for column in ("Accesses benefit", "Latency benefit"):
            cells[f"Figure 9/{r['Model']}/{column}"] = r[column]
    for name in ("fig10", "fig11"):
        for r in rows[name]:
            for column in ("Accesses benefit", "Latency benefit", "Coverage"):
                # fig11's coverage also counts the applied pairs: "15% (6/41)".
                cells[f"Figure {name[3:]}/{r['GLB kB']} kB/{column}"] = r[column].split()[0]
    accesses, latency = fig11.geomean_benefits(glb_kb=1024)
    cells["Figure 11/geomean accesses"] = f"{accesses:.1f}"
    cells["Figure 11/geomean latency"] = f"{latency:.1f}"

    def number(text: str) -> float:
        return float(_value(text))

    interlayer = rows["ablation-interlayer"]
    cells["ablation-interlayer/coverage"] = "{:.0f}".format(
        max(number(r["joint cov"]) - number(r["opp. cov"]) for r in interlayer)
    )
    cells["ablation-interlayer/benefit"] = "{:.1f}".format(
        max(number(r["joint extra"]) for r in interlayer)
    )
    gaps = [(int(r["GLB kB"]), number(r["gap"])) for r in rows["bounds"]]
    cells["bounds/256 kB+"] = f"{max(gap for glb, gap in gaps if glb >= 256):.1f}"
    cells["bounds/64 kB"] = f"{max(gap for glb, gap in gaps if glb == 64):.1f}"
    at_64 = [r for r in rows["energy"] if r["GLB kB"] == "64"]
    for stat, pick in (("min", min), ("max", max)):
        cells[f"energy/{stat}"] = f"{pick(number(r['reduction']) for r in at_64):.0f}"
        cells[f"energy/DRAM {stat}"] = f"{pick(number(r['DRAM share']) for r in at_64):.0f}"
    for r in rows["ablation-fallback"]:
        if (r["Model"], r["GLB kB"]) == ("ResNet18", "64"):
            cells["ablation-fallback/ResNet18/64"] = r["benefit"]
    for r in rows["ablation-dataflow"]:
        for dataflow in ("WS", "IS"):
            change = 100 * (int(r[dataflow]) / int(r["OS"]) - 1)
            cells[f"ablation-dataflow/{r['Model']}/{dataflow}"] = f"{change:.1f}"
    traffic = {r["Input"]: float(r["Accesses MB"]) for r in rows["resolution"]}
    cells["resolution/224 over 128"] = f"{traffic['224x224'] / traffic['128x128']:.1f}"

    frontier = pareto_frontier(get_model("MobileNet"), AcceleratorSpec(glb_bytes=kib(64)), 11)
    het_a, het_l = frontier[0], frontier[-1]
    by_alpha = {f"{point.alpha:.1f}": point for point in frontier}
    for alpha in ("0.2", "0.8", "1.0"):
        point = by_alpha[alpha]
        extra = 100 * (point.accesses_bytes / het_a.accesses_bytes - 1)
        cells[f"Pareto/{alpha}/accesses"] = f"{extra:.1f}"
        if alpha != "1.0":
            share = (het_a.latency_cycles - point.latency_cycles) / (
                het_a.latency_cycles - het_l.latency_cycles
            )
            cells[f"Pareto/{alpha}/latency"] = f"{100 * share:.0f}"
    sections: dict[str, dict[str, str]] = {}
    for key, value in cells.items():
        section, _, cell = key.partition("/")
        sections.setdefault(section, {})[cell] = _value(value)
    return sections


def documented(doc: str) -> list[tuple[str, str | None]]:
    """Every measured number in ``doc`` as ``(ledger key, value)``.

    A prose figure whose surrounding text is not found reads as ``None``.
    """
    found: list[tuple[str, str | None]] = []
    for section in doc.split("\n## ")[1:]:
        name = section.split("\n")[0].split(" — ")[0]
        columns = DOC_TABLES.get(name)
        if columns is None:
            continue
        table = [line for line in section.splitlines() if line.startswith("|")]
        for line in table[2:]:  # after the header and its rule
            label, *values = (cell.strip() for cell in line.strip().strip("|").split("|"))
            found += [
                (f"{name}/{label}/{column}", _value(value))
                for column, value in zip(columns, values)
                if column is not None
            ]
    text = " ".join(doc.split())
    number = r"([+−-]?\d+(?:\.\d+)?)"
    for template in DOC_PROSE:
        parts = re.split(r"\{([^}]+)\}", template)
        match = re.search(number.join(re.escape(part) for part in parts[0::2]), text)
        values = [_value(v) for v in match.groups()] if match else [None] * len(parts[1::2])
        found += zip(parts[1::2], values)
    return found


def regenerate(out: Path) -> dict[str, Any]:
    """Run every artifact cold, exporting into ``out``; the ledger it yields,
    plus the run's cache counters under ``"cache"`` (not written to the
    ledger file)."""
    previous = os.environ.get(cache.ENV_CACHE_DIR)
    os.environ[cache.ENV_CACHE_DIR] = str(out / "cache")
    common.clear_in_process_caches()
    try:
        report = run_report(csv_dir=str(out / "csv"))
        exports = {name: out / "csv" / f"{name}.csv" for name in ARTIFACTS}
        return {
            "csv_sha256": {
                name: hashlib.sha256(path.read_bytes()).hexdigest()
                for name, path in exports.items()
            },
            "cells": quoted(exports),
            "cache": cache.counters(report.metrics),
        }
    finally:
        if previous is None:
            os.environ.pop(cache.ENV_CACHE_DIR, None)
        else:
            os.environ[cache.ENV_CACHE_DIR] = previous


def dumps(ledger: dict[str, Any]) -> str:
    """The ledger as JSON: one line per artifact and per document section."""

    def block(entries: dict[str, Any]) -> str:
        lines = (
            f"    {json.dumps(k)}: {json.dumps(v, ensure_ascii=False)}" for k, v in entries.items()
        )
        return "{\n" + ",\n".join(lines) + "\n  }"

    digests, cells = block(ledger["csv_sha256"]), block(ledger["cells"])
    return f'{{\n  "csv_sha256": {digests},\n  "cells": {cells}\n}}\n'


@pytest.fixture(scope="module")
def regenerated(tmp_path_factory: pytest.TempPathFactory) -> Iterator[dict[str, Any]]:
    yield regenerate(tmp_path_factory.mktemp("artifacts"))
    # Later modules expect cold memos, as the rest of the session has them.
    common.clear_in_process_caches()


# Every test runs after the cold run, so the band checks below read the
# plans it left in the in-process memos instead of planning again.
pytestmark = pytest.mark.usefixtures("regenerated")


class TestLedger:
    def test_csv_exports_match_the_ledger(self, regenerated):
        ledger = json.loads(LEDGER.read_text(encoding="utf-8"))
        assert regenerated["csv_sha256"] == ledger["csv_sha256"]

    def test_quoted_numbers_match_the_ledger(self, regenerated):
        ledger = json.loads(LEDGER.read_text(encoding="utf-8"))
        assert regenerated["cells"] == ledger["cells"]

    def test_cold_run_looks_up_each_analysis_once(self, regenerated):
        """Artifacts replay each other's analyses; the in-process memo
        answers every repeat, so each disk lookup of the cold run is a
        first-time miss that stores its entry."""
        counts = regenerated["cache"]
        assert counts["hits"] == 0
        assert counts["misses"] == counts["stores"] > 0

    def test_experiments_md_states_the_ledger_numbers(self):
        sections = json.loads(LEDGER.read_text(encoding="utf-8"))["cells"]
        cells = {f"{s}/{key}": v for s, section in sections.items() for key, v in section.items()}
        found = documented(EXPERIMENTS_MD.read_text(encoding="utf-8"))
        wrong = [(key, value, cells.get(key)) for key, value in found if cells.get(key) != value]
        assert wrong == []
        assert set(cells) == {key for key, _ in found}


class TestTable2:
    def test_layer_counts_match_paper(self):
        for row in table2.run():
            assert row.num_layers == row.paper_num_layers

    def test_types_match_paper_except_resnet_pw(self):
        # Our ResNet18 classifies its 1x1 shortcut convs as PL only; the
        # paper additionally lists PW (recorded deviation).
        for row in table2.run():
            if row.network == "ResNet18":
                continue
            assert row.layer_types == row.paper_layer_types

    def test_render(self):
        assert "Table 2" in table2.to_table(table2.run()).render()


class TestTable3:
    def test_values_within_2pct_of_paper(self):
        for row in table3.run():
            assert row.paper_kib is not None
            assert row.max_kib == pytest.approx(row.paper_kib, rel=0.02), (
                row.network,
                row.policy,
            )

    def test_intra_is_upper_bound(self):
        by_net: dict[str, dict[str, float]] = {}
        for r in table3.run():
            by_net.setdefault(r.network, {})[r.policy] = r.max_kib
        for net, vals in by_net.items():
            for policy in ("p1", "p2", "p3"):
                assert vals[policy] <= vals["intra"] + 0.1, (net, policy)


class TestTable4:
    def test_notation(self):
        from repro.experiments.table4 import _paper_notation

        assert _paper_notation({"p1"}) == "policy 1"
        assert _paper_notation({"p1+p"}) == "policy 1 +p"
        assert _paper_notation({"p1", "p1+p"}) == "policy 1 (+p)"
        assert _paper_notation({"intra", "p2+p"}) == "intra-layer reuse, policy 2 +p"

    def test_core_policies_overlap_paper(self):
        """p1/p2/p3 appear at 64 kB for every network, as in the paper."""
        for row in table4.run():
            for expected in ("policy 1", "policy 2", "policy 3"):
                assert expected in row.policies, row


class TestFig1:
    def test_cases(self):
        cases = {c.case: c for c in fig1.run()}
        a, b = cases["A"], cases["B"]
        # Case A is filter-dominated, case B feature-map-dominated.
        assert a.need_kib["filter"] > a.need_kib["ifmap"] + a.need_kib["ofmap"]
        assert b.need_kib["ifmap"] + b.need_kib["ofmap"] > b.need_kib["filter"]
        # Separate buffers strand the dominant type; the GLB manager fits it.
        assert a.separate_fit["filter"] < 0.05
        assert b.separate_fit["ifmap"] < 0.20
        assert a.glb_feasible and b.glb_feasible

    def test_table_titled_with_its_glb(self):
        title = fig1.to_table(fig1.run(256)).render().splitlines()[0]
        assert title.endswith("(256 kB)")


class TestFig3:
    def test_resnet18_has_21_rows(self):
        assert len(fig3.run()) == 21

    def test_early_layers_fmap_dominated_late_filter_dominated(self):
        rows = fig3.run()
        first = rows[1]  # conv2_1a
        last_conv = rows[-2]  # conv5_2b
        assert first.ifmap_kib + first.ofmap_kib > first.filter_kib
        assert last_conv.filter_kib > last_conv.ifmap_kib + last_conv.ofmap_kib

    def test_breakdown_positive(self):
        for row in fig3.run():
            assert row.total_kib > 0


class TestFig5:
    """Full grid: six models x five GLB sizes x five schemes."""

    @pytest.fixture(scope="class")
    def by(self):
        return {(c.model, c.glb_kb): c for c in fig5.run()}

    def test_het_beats_baselines_at_64k(self, by):
        for (model, glb_kb), cell in by.items():
            if glb_kb == 64:
                assert cell.reduction_vs_best_baseline("het") > 30.0, model

    def test_het_reduction_band_at_64k(self, by):
        """Paper band at 64 kB: 43.2% (MobileNetV2) .. 79.8% (ResNet18)."""
        assert 35.0 <= by[("MobileNetV2", 64)].reduction_vs_best_baseline("het") <= 60.0
        assert 70.0 <= by[("ResNet18", 64)].reduction_vs_best_baseline("het") <= 90.0

    def test_hom_not_better_than_het(self, by):
        for cell in by.values():
            assert cell.accesses_mib["het"] <= cell.accesses_mib["hom"] + 1e-9

    def test_baselines_shrink_with_buffer(self, by):
        for model in common.all_model_names():
            for scheme in ("sa_25_75", "sa_50_50", "sa_75_25"):
                ladder = [by[(model, g)].accesses_mib[scheme] for g in common.GLB_SIZES_KB]
                assert all(a > b for a, b in zip(ladder, ladder[1:])), (model, scheme)

    def test_no_single_partition_wins(self, by):
        """Paper §5.1: the best fixed partition depends on the model."""
        assert len(Counter(by[(m, 64)].best_baseline for m in common.all_model_names())) > 1

    def test_het_flat_across_buffers(self, by):
        for model in common.all_model_names():
            small = by[(model, 64)].accesses_mib["het"]
            assert small <= 1.10 * by[(model, 1024)].accesses_mib["het"], model


class TestFig6:
    def test_policies_annotated(self):
        rows = fig6.run()
        assert len(rows) == 21
        assert all(r.label for r in rows)
        # The allocations change policy across the network (heterogeneity).
        assert len({r.label for r in rows}) >= 3

    def test_allocations_fit_glb(self):
        for r in fig6.run(glb_kb=64):
            assert r.total_kib <= 64.0 + 1e-9

    def test_static_partition_violated_somewhere(self):
        """Fig. 6's point: some layer needs >50% for one data type."""
        assert any(any(r.exceeds_static_half(64).values()) for r in fig6.run(glb_kb=64))


class TestFig7:
    """Full grid: 8/16/32-bit data x five GLB sizes."""

    @pytest.fixture(scope="class")
    def by(self):
        return {(c.data_width_bits, c.glb_kb): c for c in fig7.run()}

    def test_het_never_worse(self, by):
        for c in by.values():
            assert c.het_benefit_pct >= -1e-9

    def test_benefit_grows_with_width_at_64k(self, by):
        assert by[(32, 64)].het_benefit_pct >= by[(8, 64)].het_benefit_pct

    def test_benefit_fades_with_buffer(self, by):
        assert by[(32, 1024)].het_benefit_pct <= by[(32, 64)].het_benefit_pct


class TestFig8:
    """Full grid: six models x five GLB sizes."""

    @pytest.fixture(scope="class")
    def by(self):
        return {(c.model, c.glb_kb): c for c in fig8.run()}

    def test_objective_ordering(self, by):
        for cell in by.values():
            assert cell.het_l_cycles <= cell.het_a_cycles + 1e-6
            assert cell.hom_l_cycles <= cell.hom_a_cycles + 1e-6
            # Het never loses to Hom on its own objective.
            assert cell.het_l_cycles <= cell.hom_l_cycles + 1e-6

    def test_baseline_is_buffer_independent(self, by):
        for model in common.all_model_names():
            assert len({by[(model, g)].baseline_cycles for g in common.GLB_SIZES_KB}) == 1

    def test_depthwise_models_gain_most(self, by):
        # Paper: up to 56% for MnasNet; least for filter-heavy GoogLeNet.
        def gain(model, glb_kb):
            cell = by[(model, glb_kb)]
            return cell.reduction_vs_baseline(cell.het_l_cycles)

        assert gain("MnasNet", 1024) >= 20.0
        assert gain("GoogLeNet", 64) <= gain("MnasNet", 64)


class TestFig9:
    def test_latency_objective_trades_accesses_for_latency(self):
        rows = fig9.run()
        assert len(rows) == len(common.all_model_names())
        for r in rows:
            assert r.latency_benefit_pct >= 0.0
            assert r.accesses_benefit_pct <= 0.0
        # Some model pays a large access penalty for latency (paper:
        # MobileNet -33%).
        assert min(r.accesses_benefit_pct for r in rows) <= -5.0


class TestFig10:
    @pytest.fixture(scope="class")
    def rows(self):
        return fig10.run()

    def test_prefetch_helps_latency(self, rows):
        for r in rows:
            assert r.latency_benefit_pct > 5.0  # paper: ~15%

    def test_access_penalty_at_small_buffer(self, rows):
        assert rows[0].accesses_benefit_pct <= 0.0

    def test_high_coverage(self, rows):
        for r in rows:
            assert r.prefetch_coverage >= 0.9  # paper: 93-100%


class TestFig11:
    @pytest.fixture(scope="class")
    def rows(self):
        return fig11.run()

    def test_benefits_grow_with_buffer(self, rows):
        benefits = [r.accesses_benefit_pct for r in rows]
        assert benefits == sorted(benefits)

    def test_1mb_access_benefit_near_paper(self, rows):
        # Paper: 70% at 1 MB for MnasNet.
        assert rows[-1].accesses_benefit_pct == pytest.approx(70.0, abs=10.0)

    def test_coverage_monotone(self, rows):
        coverages = [r.coverage for r in rows]
        assert coverages == sorted(coverages)
        assert coverages[-1] >= 0.9  # paper: 98%

    def test_never_hurts(self, rows):
        for r in rows:
            assert r.accesses_benefit_pct >= -1e-9

    def test_all_model_geomean_near_paper(self):
        accesses, _latency = fig11.geomean_benefits(glb_kb=1024)
        assert accesses == pytest.approx(47.0, abs=15.0)  # paper: 47%


class TestExtensions:
    def test_energy_follows_access_reductions(self):
        cells = energy.run()
        by = {(c.model, c.glb_kb): c for c in cells}
        assert by[("ResNet18", 64)].reduction_pct > 30.0
        for c in cells:
            assert 0.0 < c.het_dram_share < 1.0

    def test_joint_interlayer_never_loses(self):
        rows = ablations.interlayer_modes()
        assert all(r.joint_extra_benefit_pct >= -1e-9 for r in rows)
        # The DP finds extra donations somewhere in the sweep.
        assert any(r.joint_extra_benefit_pct > 1.0 for r in rows)

    def test_competing_tile_search_never_loses(self):
        assert all(r.search_benefit_pct >= -1e-9 for r in ablations.fallback_participation())

    def test_every_dataflow_simulates(self):
        for r in ablations.baseline_dataflows():
            assert min(r.os_cycles, r.ws_cycles, r.is_cycles) > 0

    def test_traffic_grows_with_resolution(self):
        accesses = [r.accesses_bytes for r in resolution.run()]
        assert accesses == sorted(accesses)

    def test_het_on_the_communication_bound(self):
        for row in bounds.run():
            assert -1e-9 <= row.gap_pct <= 10.0
            if row.glb_kb == 1024:
                assert row.gap_pct <= 1.0


class TestRunner:
    def test_artifact_registry_complete(self):
        paper_artifacts = {"table2", "table3", "table4", "fig1", "fig3", "fig5", "fig6"}
        paper_artifacts |= {"fig7", "fig8", "fig9", "fig10", "fig11"}
        assert paper_artifacts <= set(ARTIFACTS)
        assert set(ARTIFACTS) - paper_artifacts == {
            "energy", "ablation-interlayer", "ablation-fallback", "ablation-dataflow",
            "resolution", "bounds", "dram-sweep",
        }

    def test_every_artifact_is_listed_in_experiments_md(self):
        text = EXPERIMENTS_MD.read_text(encoding="utf-8")
        assert [name for name in ARTIFACTS if f"`{name}`" not in text] == []

    def test_run_subset_and_csv(self, tmp_path):
        tables = run_all(csv_dir=str(tmp_path), only=["table2", "fig3"])
        assert len(tables) == 2
        assert (tmp_path / "table2.csv").exists()
        assert (tmp_path / "fig3.csv").exists()

    def test_unknown_artifact(self):
        with pytest.raises(KeyError):
            run_all(only=["fig99"])


class TestFigureCharts:
    def test_fig5_chart(self):
        text = fig5.to_chart(fig5.run(), 64).render()
        assert "Figure 5" in text and "het" in text
        assert all(model in text for model in common.all_model_names())

    def test_fig8_chart(self):
        text = fig8.to_chart(fig8.run(), 64).render()
        assert "Figure 8" in text and "Het_l" in text
        assert all(model in text for model in common.all_model_names())


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        ledger = regenerate(Path(scratch))
    LEDGER.write_text(dumps(ledger), encoding="utf-8")
