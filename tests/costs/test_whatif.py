"""Unit tests for the what-if cost analysis."""

import pytest

from repro.config import ScaleProfile
from repro.costs.metrics import DatasetMetrics
from repro.costs.pricing import AWS_SINGAPORE
from repro.costs.whatif import (SWEEPABLE_COMPONENTS, dominant_component,
                                price_sensitivity, project_to_scale,
                                projected_savings, scaled_book)
from repro.query.workload import workload_query
from repro.warehouse import Warehouse
from repro.xmark import generate_corpus


@pytest.fixture(scope="module")
def measured():
    warehouse = Warehouse()
    corpus = generate_corpus(ScaleProfile(documents=40, seed=83))
    warehouse.upload_corpus(corpus)
    index = warehouse.build_index("LUP", loaders=2)
    indexed = warehouse.run_query(workload_query("q2"), index)
    scanned = warehouse.run_query(workload_query("q2"), None)
    return corpus, indexed, scanned


class TestScaledBook:
    def test_scalar_component(self):
        varied = scaled_book(AWS_SINGAPORE, "egress_gb", 2.0)
        assert varied.egress_gb == pytest.approx(0.38)
        assert varied.st_put == AWS_SINGAPORE.st_put  # untouched

    def test_vm_component_scales_both_types(self):
        varied = scaled_book(AWS_SINGAPORE, "vm_hour", 3.0)
        assert varied.vm_hourly("l") == pytest.approx(1.02)
        assert varied.vm_hourly("xl") == pytest.approx(2.04)

    def test_unknown_component_rejected(self):
        with pytest.raises(ValueError):
            scaled_book(AWS_SINGAPORE, "bribes", 2.0)


class TestSensitivity:
    def test_sweep_shape(self, measured):
        corpus, indexed, scanned = measured
        dataset = DatasetMetrics.of_corpus(corpus)
        points = price_sensitivity([indexed], dataset, AWS_SINGAPORE,
                                   factors=(1.0, 10.0))
        assert len(points) == 2 * len(SWEEPABLE_COMPONENTS)
        base = [p.workload_cost for p in points if p.factor == 1.0]
        assert base == pytest.approx([base[0]] * len(base))

    def test_costs_monotone_in_factor(self, measured):
        corpus, indexed, scanned = measured
        dataset = DatasetMetrics.of_corpus(corpus)
        points = price_sensitivity([indexed, scanned], dataset,
                                   AWS_SINGAPORE)
        by_component = {}
        for point in points:
            by_component.setdefault(point.component, []).append(point)
        for component, series in by_component.items():
            series.sort(key=lambda p: p.factor)
            costs = [p.workload_cost for p in series]
            assert costs == sorted(costs), component

    def test_ec2_dominates(self, measured):
        """Figure 12's conclusion, recovered analytically."""
        corpus, indexed, scanned = measured
        dataset = DatasetMetrics.of_corpus(corpus)
        points = price_sensitivity([indexed, scanned], dataset,
                                   AWS_SINGAPORE)
        assert dominant_component(points) == "vm_hour"

    def test_all_components_sweepable(self, measured):
        corpus, indexed, _ = measured
        dataset = DatasetMetrics.of_corpus(corpus)
        points = price_sensitivity([indexed], dataset, AWS_SINGAPORE)
        assert {p.component for p in points} == set(SWEEPABLE_COMPONENTS)


class TestScaleProjection:
    def test_projection_scales_costs_up(self, measured):
        corpus, indexed, scanned = measured
        dataset = DatasetMetrics.of_corpus(corpus)
        projection = project_to_scale(scanned, dataset, AWS_SINGAPORE,
                                      target_documents=20000)
        assert projection.scale_factor == pytest.approx(500.0)
        assert projection.projected_cost > projection.measured_cost * 100

    def test_savings_widen_with_scale(self, measured):
        """The reason the paper's savings (92-97%) exceed ours: the
        no-index path scales with |D|, the indexed path barely does."""
        corpus, indexed, scanned = measured
        dataset = DatasetMetrics.of_corpus(corpus)
        small = projected_savings(indexed, scanned, dataset,
                                  AWS_SINGAPORE,
                                  target_documents=len(corpus))
        large = projected_savings(indexed, scanned, dataset,
                                  AWS_SINGAPORE, target_documents=20000)
        assert large > small
        assert large > 0.5

    def test_measured_matches_projection_at_own_scale(self, measured):
        corpus, indexed, scanned = measured
        dataset = DatasetMetrics.of_corpus(corpus)
        projection = project_to_scale(indexed, dataset, AWS_SINGAPORE,
                                      target_documents=len(corpus))
        assert projection.projected_cost == pytest.approx(
            projection.measured_cost, rel=1e-6)
