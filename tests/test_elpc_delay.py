"""Tests for the ELPC minimum end-to-end delay dynamic program."""

import pytest

from repro.core import (
    DPTable,
    Objective,
    elpc_min_delay,
    elpc_min_delay_tensor,
    exhaustive_min_delay,
)
from repro.core.tensor import stage_view
from repro.exceptions import InfeasibleMappingError
from repro.generators import (
    complete_network,
    line_network,
    random_network,
    random_pipeline,
    random_request,
)
from repro.model import EndToEndRequest, end_to_end_delay_ms

#: Both engines must pass every edge-case test below identically.
DELAY_SOLVERS = [pytest.param(elpc_min_delay, id="scalar"),
                 pytest.param(elpc_min_delay_tensor, id="vectorized")]


class TestBasicBehaviour:
    def test_returns_valid_mapping(self, simple_pipeline, simple_network, simple_request):
        mapping = elpc_min_delay(simple_pipeline, simple_network, simple_request)
        assert mapping.objective is Objective.MIN_DELAY
        assert mapping.algorithm == "elpc"
        assert mapping.path[0] == simple_request.source
        assert mapping.path[-1] == simple_request.destination
        assert mapping.delay_ms > 0

    def test_dp_value_equals_mapping_delay(self, simple_pipeline, simple_network,
                                           simple_request):
        mapping = elpc_min_delay(simple_pipeline, simple_network, simple_request)
        assert mapping.extras["dp_value_ms"] == pytest.approx(mapping.delay_ms)

    def test_keep_table_exposes_dp_table(self, simple_pipeline, simple_network,
                                         simple_request):
        mapping = elpc_min_delay(simple_pipeline, simple_network, simple_request,
                                 keep_table=True)
        table = mapping.extras["dp_table"]
        assert isinstance(table, DPTable)
        assert table.value(simple_pipeline.n_modules - 1,
                           simple_request.destination) == pytest.approx(mapping.delay_ms)

    def test_runtime_recorded(self, simple_pipeline, simple_network, simple_request):
        mapping = elpc_min_delay(simple_pipeline, simple_network, simple_request)
        assert mapping.runtime_s >= 0.0

    def test_source_equals_destination(self, simple_pipeline, simple_network):
        mapping = elpc_min_delay(simple_pipeline, simple_network, EndToEndRequest(1, 1))
        # Optimal may keep everything on node 1 or route through faster neighbours;
        # either way it must start and end on node 1.
        assert mapping.path[0] == 1 and mapping.path[-1] == 1

    def test_client_server_two_modules(self, simple_network):
        from repro.model import Pipeline
        pipeline = Pipeline.client_server(data_bytes=400_000, sink_complexity=10.0)
        mapping = elpc_min_delay(pipeline, simple_network, EndToEndRequest(0, 1))
        assert mapping.path == [0, 1]
        expected = end_to_end_delay_ms(pipeline, simple_network, [[0], [1]], [0, 1])
        assert mapping.delay_ms == pytest.approx(expected)


class TestOptimality:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5, 6, 7])
    def test_matches_exhaustive_on_random_instances(self, seed):
        pipeline = random_pipeline(5, seed=seed)
        network = random_network(7, 13, seed=seed)
        request = random_request(network, seed=seed, min_hop_distance=1)
        dp = elpc_min_delay(pipeline, network, request)
        brute = exhaustive_min_delay(pipeline, network, request)
        assert dp.delay_ms == pytest.approx(brute.delay_ms, rel=1e-9)

    def test_matches_exhaustive_on_illustration_case(self, illustration_instance):
        inst = illustration_instance
        dp = elpc_min_delay(inst.pipeline, inst.network, inst.request)
        brute = exhaustive_min_delay(inst.pipeline, inst.network, inst.request)
        assert dp.delay_ms == pytest.approx(brute.delay_ms, rel=1e-9)

    def test_never_worse_than_single_node_or_spread(self, illustration_instance):
        inst = illustration_instance
        from repro.baselines import direct_path_min_delay, source_only_min_delay
        dp = elpc_min_delay(inst.pipeline, inst.network, inst.request)
        assert dp.delay_ms <= source_only_min_delay(
            inst.pipeline, inst.network, inst.request).delay_ms + 1e-9
        assert dp.delay_ms <= direct_path_min_delay(
            inst.pipeline, inst.network, inst.request).delay_ms + 1e-9

    def test_mld_excluded_variant_is_never_larger(self, medium_instance):
        pipeline, network, request = medium_instance
        with_mld = elpc_min_delay(pipeline, network, request)
        without = elpc_min_delay(pipeline, network, request, include_link_delay=False)
        assert without.extras["dp_value_ms"] <= with_mld.extras["dp_value_ms"] + 1e-9


class TestStructuralProperties:
    def test_node_reuse_exploited_on_line_with_fast_middle(self):
        # Line 0-1-2 where node 1 is vastly faster: the optimum should group
        # all computing modules on node 1 (reusing it for several modules).
        from repro.model import CommunicationLink, ComputingNode, Pipeline, TransportNetwork
        network = TransportNetwork(
            nodes=[ComputingNode(0, 10.0), ComputingNode(1, 1000.0), ComputingNode(2, 10.0)],
            links=[CommunicationLink(0, 1, 500.0, 0.1), CommunicationLink(1, 2, 500.0, 0.1)])
        pipeline = Pipeline.from_stage_specs(
            1_000_000, [(50.0, 500_000), (50.0, 250_000), (50.0, 100_000), (10.0, 0)])
        mapping = elpc_min_delay(pipeline, network, EndToEndRequest(0, 2))
        assert set(mapping.modules_on_node(1)) >= {1, 2, 3}

    def test_infeasible_when_disconnected(self, simple_pipeline, simple_network):
        from repro.model import ComputingNode
        simple_network.add_node(ComputingNode(node_id=9, processing_power=1.0))
        with pytest.raises(InfeasibleMappingError):
            elpc_min_delay(simple_pipeline, simple_network, EndToEndRequest(0, 9))

    def test_infeasible_when_pipeline_too_short(self):
        network = line_network(6, seed=0)
        pipeline = random_pipeline(3, seed=0)
        with pytest.raises(InfeasibleMappingError):
            elpc_min_delay(pipeline, network, EndToEndRequest(0, 5))

    def test_works_on_complete_graph(self):
        network = complete_network(8, seed=5)
        pipeline = random_pipeline(6, seed=5)
        mapping = elpc_min_delay(pipeline, network, EndToEndRequest(0, 7))
        assert mapping.path[0] == 0 and mapping.path[-1] == 7

    def test_larger_instance_runs_quickly(self, medium_instance):
        pipeline, network, request = medium_instance
        mapping = elpc_min_delay(pipeline, network, request)
        assert mapping.runtime_s < 5.0
        assert mapping.extras["dp_relaxations"] > 0


class TestEdgeCasesBothEngines:
    """Edge-case coverage shared by the scalar and tensor solvers."""

    @pytest.mark.parametrize("solver", DELAY_SOLVERS)
    def test_without_link_delay_drops_mld_terms(self, solver, simple_pipeline,
                                                simple_network, simple_request):
        with_mld = solver(simple_pipeline, simple_network, simple_request)
        without = solver(simple_pipeline, simple_network, simple_request,
                         include_link_delay=False)
        assert without.extras["include_link_delay"] is False
        assert without.extras["dp_value_ms"] <= with_mld.extras["dp_value_ms"] + 1e-9
        # Recomputing the stripped-down mapping's cost without MLD must
        # reproduce the DP value (the solver optimised the right model).
        recomputed = end_to_end_delay_ms(simple_pipeline, simple_network,
                                         without.groups, without.path,
                                         include_link_delay=False)
        assert recomputed == pytest.approx(without.extras["dp_value_ms"])

    @pytest.mark.parametrize("solver", DELAY_SOLVERS)
    def test_keep_table_final_cell_matches(self, solver, simple_pipeline,
                                           simple_network, simple_request):
        mapping = solver(simple_pipeline, simple_network, simple_request,
                         keep_table=True)
        table = mapping.extras["dp_table"]
        assert isinstance(table, DPTable)
        assert table.value(simple_pipeline.n_modules - 1,
                           simple_request.destination) == pytest.approx(mapping.delay_ms)
        # Backtracking the kept table reproduces the mapping's walk.
        assert table.backtrack_path(simple_request.destination) == mapping.path

    @pytest.mark.parametrize("solver", DELAY_SOLVERS)
    def test_keep_table_off_by_default(self, solver, simple_pipeline,
                                       simple_network, simple_request):
        mapping = solver(simple_pipeline, simple_network, simple_request)
        assert "dp_table" not in mapping.extras

    @pytest.mark.parametrize("solver", DELAY_SOLVERS)
    def test_disconnected_destination_raises(self, solver, simple_pipeline,
                                             simple_network):
        from repro.model import ComputingNode
        simple_network.add_node(ComputingNode(node_id=9, processing_power=1.0))
        with pytest.raises(InfeasibleMappingError):
            solver(simple_pipeline, simple_network, EndToEndRequest(0, 9))

    @pytest.mark.parametrize("solver", DELAY_SOLVERS)
    def test_disconnected_source_raises(self, solver, simple_pipeline,
                                        simple_network):
        from repro.model import ComputingNode
        simple_network.add_node(ComputingNode(node_id=9, processing_power=1.0))
        with pytest.raises(InfeasibleMappingError):
            solver(simple_pipeline, simple_network, EndToEndRequest(9, 3))

    @pytest.mark.parametrize("solver", DELAY_SOLVERS)
    def test_minimal_client_server_pipeline(self, solver, simple_network):
        """The smallest legal pipeline: one source + one computing sink."""
        from repro.model import Pipeline
        pipeline = Pipeline.client_server(data_bytes=400_000, sink_complexity=10.0)
        mapping = solver(pipeline, simple_network, EndToEndRequest(0, 1))
        assert mapping.path == [0, 1]
        expected = end_to_end_delay_ms(pipeline, simple_network, [[0], [1]], [0, 1])
        assert mapping.delay_ms == pytest.approx(expected)

    @pytest.mark.parametrize("solver", DELAY_SOLVERS)
    def test_minimal_pipeline_same_endpoint(self, solver, simple_network):
        """Source == destination with the minimal pipeline stays on one node."""
        from repro.model import Pipeline
        pipeline = Pipeline.client_server(data_bytes=400_000, sink_complexity=10.0)
        mapping = solver(pipeline, simple_network, EndToEndRequest(2, 2))
        assert mapping.path[0] == 2 and mapping.path[-1] == 2

    def test_vectorized_survives_network_mutation(self, simple_pipeline,
                                                  simple_network, simple_request):
        """The dense view and its staged layout are invalidated when the
        topology changes."""
        before = elpc_min_delay_tensor(simple_pipeline, simple_network,
                                       simple_request)
        staged_before = stage_view(simple_network.dense_view())
        simple_network.connect(0, 3, bandwidth_mbps=1000.0, min_delay_ms=0.01)
        after = elpc_min_delay_tensor(simple_pipeline, simple_network,
                                      simple_request)
        staged_after = stage_view(simple_network.dense_view())
        assert staged_after is not staged_before
        assert (staged_after.n_directed_edges
                == staged_before.n_directed_edges + 2)
        reference = elpc_min_delay(simple_pipeline, simple_network, simple_request)
        assert after.delay_ms == reference.delay_ms
        assert after.delay_ms <= before.delay_ms + 1e-9
