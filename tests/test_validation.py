"""Unit tests for :mod:`repro.model.validation`."""

import pytest

from repro.exceptions import InfeasibleMappingError, SpecificationError
from repro.generators import line_network, random_pipeline
from repro.model import (
    EndToEndRequest,
    assert_no_reuse,
    check_delay_instance,
    check_framerate_instance,
    validate_mapping_structure,
)


class TestDelayFeasibility:
    def test_feasible_instance(self, simple_pipeline, simple_network, simple_request):
        report = check_delay_instance(simple_pipeline, simple_network, simple_request)
        assert report.feasible
        assert report.reason is None
        assert report.hop_distance == 2
        report.raise_if_infeasible()  # must not raise

    def test_pipeline_shorter_than_shortest_path(self):
        net = line_network(6, seed=1)
        pipeline = random_pipeline(3, seed=1)  # 3 modules but 6 hops needed
        report = check_delay_instance(pipeline, net, EndToEndRequest(0, 5))
        assert not report.feasible
        assert "shortest" in report.reason
        with pytest.raises(InfeasibleMappingError):
            report.raise_if_infeasible(source=0, destination=5)

    def test_disconnected_endpoints(self, simple_network, simple_pipeline):
        from repro.model import ComputingNode
        simple_network.add_node(ComputingNode(node_id=9, processing_power=1.0))
        report = check_delay_instance(simple_pipeline, simple_network,
                                      EndToEndRequest(0, 9))
        assert not report.feasible
        assert "disconnected" in report.reason

    def test_unknown_endpoint_raises(self, simple_pipeline, simple_network):
        with pytest.raises(SpecificationError):
            check_delay_instance(simple_pipeline, simple_network, EndToEndRequest(0, 42))


class TestFramerateFeasibility:
    def test_feasible_instance(self, simple_pipeline, simple_network, simple_request):
        report = check_framerate_instance(simple_pipeline, simple_network, simple_request)
        assert report.feasible

    def test_more_modules_than_nodes(self, simple_network, simple_request):
        pipeline = random_pipeline(10, seed=3)
        report = check_framerate_instance(pipeline, simple_network, simple_request)
        assert not report.feasible
        assert "node reuse" in report.reason

    def test_exact_fit_on_line(self):
        net = line_network(5, seed=2)
        pipeline = random_pipeline(5, seed=2)
        report = check_framerate_instance(pipeline, net, EndToEndRequest(0, 4))
        assert report.feasible


class TestMappingStructureValidation:
    def test_valid_structure(self, simple_pipeline, simple_network, simple_request):
        validate_mapping_structure(simple_pipeline, simple_network,
                                   [[0, 1], [2], [3]], [0, 2, 3], simple_request)

    def test_wrong_source(self, simple_pipeline, simple_network, simple_request):
        with pytest.raises(SpecificationError):
            validate_mapping_structure(simple_pipeline, simple_network,
                                       [[0, 1], [2], [3]], [1, 2, 3], simple_request)

    def test_wrong_destination(self, simple_pipeline, simple_network, simple_request):
        with pytest.raises(SpecificationError):
            validate_mapping_structure(simple_pipeline, simple_network,
                                       [[0, 1], [2, 3]], [0, 2], simple_request)

    def test_bad_group_cover(self, simple_pipeline, simple_network):
        with pytest.raises(SpecificationError):
            validate_mapping_structure(simple_pipeline, simple_network,
                                       [[0, 1], [3]], [0, 1])

    def test_bad_walk(self, simple_pipeline, simple_network):
        with pytest.raises(SpecificationError):
            validate_mapping_structure(simple_pipeline, simple_network,
                                       [[0, 1], [2, 3]], [0, 3])


class TestAssertNoReuse:
    def test_accepts_distinct(self):
        assert_no_reuse([0, 4, 2, 7])

    def test_rejects_repeat(self):
        with pytest.raises(SpecificationError):
            assert_no_reuse([0, 4, 2, 4])
