"""Unit tests for the bench support layer (reporting, datasets and the
experiment registry)."""

import pkgutil
import re
from pathlib import Path

import pytest

from repro.bench import EXPERIMENTS, experiments
from repro.bench.datasets import ExperimentContext, get_context
from repro.bench.reporting import (ExperimentResult, format_bytes,
                                   format_duration, format_money,
                                   format_table)
from repro.config import BENCH_SCALE, ScaleProfile


class TestFormatting:
    def test_duration(self):
        assert format_duration(0) == "0:00:00"
        assert format_duration(61) == "0:01:01"
        assert format_duration(3 * 3600 + 47 * 60) == "3:47:00"
        assert format_duration(59.6) == "0:01:00"  # rounds

    def test_money(self):
        assert format_money(0) == "$0"
        assert format_money(26.64) == "$26.64"
        assert format_money(0.00000032) == "$0.000000"
        assert format_money(0.004) == "$0.004000"

    def test_bytes(self):
        assert format_bytes(512) == "512.00 B"
        assert format_bytes(2048) == "2.00 KB"
        assert format_bytes(3 * 1024 ** 2) == "3.00 MB"
        assert format_bytes(5 * 1024 ** 3) == "5.00 GB"

    def test_table_alignment(self):
        text = format_table(["a", "long-header"], [[1, 2], [333, 4]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")
        assert set(lines[1]) <= {"-", " "}
        widths = {len(line.rstrip()) for line in (lines[0], lines[2])}
        assert len(widths) <= 2  # consistent columns


class TestExperimentResult:
    def _result(self):
        return ExperimentResult(
            experiment_id="Table X", title="demo",
            headers=["strategy", "value"],
            rows=[["LU", 1], ["LUP", 2]],
            series={"LU": {0.5: 1.0, 1.0: 2.0}},
            notes=["a note"])

    def test_render_contains_everything(self):
        text = self._result().render()
        assert "Table X" in text and "demo" in text
        assert "LUP" in text
        assert "series LU" in text
        assert "note: a note" in text

    def test_row_map(self):
        mapping = self._result().row_map()
        assert mapping["LU"] == ["LU", 1]
        assert set(mapping) == {"LU", "LUP"}


class TestExperimentContext:
    def test_context_shared_at_bench_scale(self):
        # Building the context builds nothing: everything in it is lazy.
        assert get_context() is get_context()
        assert get_context().scale == BENCH_SCALE

    def test_lazy_artefacts_cached(self):
        ctx = ExperimentContext(ScaleProfile(documents=15, seed=92))
        assert ctx.corpus is ctx.corpus
        assert ctx.warehouse is ctx.warehouse
        assert len(ctx.queries) == 10
        index = ctx.index("LU")
        assert ctx.index("LU") is index
        report = ctx.workload_report("LU")
        assert ctx.workload_report("LU") is report
        execution = ctx.execution("LU", "q1")
        assert execution.name == "q1"
        with pytest.raises(KeyError):
            ctx.execution("LU", "q99")

    def test_dataset_metrics_match_corpus(self):
        ctx = ExperimentContext(ScaleProfile(documents=12, seed=93))
        metrics = ctx.dataset_metrics
        assert metrics.documents == len(ctx.corpus)
        assert metrics.size_bytes == ctx.corpus.total_bytes


class TestExperimentRegistry:
    def test_lists_every_experiment_module_once(self):
        names = [module.__name__.split(".")[-1] for module in EXPERIMENTS]
        assert len(names) == len(set(names))
        assert sorted(names) == sorted(
            info.name for info in pkgutil.iter_modules(experiments.__path__))

    def test_every_experiment_has_claims_or_an_artefact(self):
        artefacts = []
        for module in EXPERIMENTS:
            if getattr(module, "PAPER_CLAIM", None):
                assert module.OUR_CLAIM, module.__name__
            else:
                artefacts.append(module.ARTEFACT)
                assert re.fullmatch(r"BENCH_\w+\.json", module.ARTEFACT)
        assert len(artefacts) == len(set(artefacts))

    def test_claimed_experiments_come_first_in_report_order(self):
        claimed = [module for module in EXPERIMENTS
                   if getattr(module, "PAPER_CLAIM", None)]
        assert list(EXPERIMENTS[:len(claimed)]) == claimed
        # The committed report lists the same claims in the same order.
        report = (Path(__file__).resolve().parents[1]
                  / "EXPERIMENTS.md").read_text(encoding="utf-8")
        assert re.findall(r"^\*\*Paper\*\*: (.*)$", report, re.M) == \
            [module.PAPER_CLAIM for module in claimed]
        assert re.findall(r"^\*\*Reproduced claim\*\* \(.*?\): (.*)$",
                          report, re.M) == \
            [module.OUR_CLAIM for module in claimed]
