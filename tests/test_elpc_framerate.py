"""Tests for the ELPC maximum frame rate dynamic-programming heuristic."""

import pytest

from repro.core import (
    Objective,
    elpc_max_frame_rate,
    elpc_max_frame_rate_tensor,
    exhaustive_max_frame_rate,
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
from repro.model import EndToEndRequest, assert_no_reuse, bottleneck_time_ms

#: Both engines must pass every edge-case test below identically.
FRAMERATE_SOLVERS = [pytest.param(elpc_max_frame_rate, id="scalar"),
                     pytest.param(elpc_max_frame_rate_tensor, id="vectorized")]


class TestBasicBehaviour:
    def test_returns_simple_path_of_n_nodes(self, simple_pipeline, simple_network,
                                            simple_request):
        mapping = elpc_max_frame_rate(simple_pipeline, simple_network, simple_request)
        assert mapping.objective is Objective.MAX_FRAME_RATE
        assert len(mapping.path) == simple_pipeline.n_modules
        assert_no_reuse(mapping.path)
        assert mapping.path[0] == simple_request.source
        assert mapping.path[-1] == simple_request.destination
        assert all(len(g) == 1 for g in mapping.groups)

    def test_dp_value_equals_mapping_bottleneck(self, simple_pipeline, simple_network,
                                                simple_request):
        mapping = elpc_max_frame_rate(simple_pipeline, simple_network, simple_request)
        assert mapping.extras["dp_bottleneck_ms"] == pytest.approx(mapping.bottleneck_ms)
        assert mapping.frame_rate_fps == pytest.approx(1e3 / mapping.bottleneck_ms)

    def test_keep_table(self, simple_pipeline, simple_network, simple_request):
        mapping = elpc_max_frame_rate(simple_pipeline, simple_network, simple_request,
                                      keep_table=True)
        assert "dp_table" in mapping.extras

    def test_unique_path_on_line_network(self):
        # On a line the only exact-n-node simple path is the line itself.
        network = line_network(5, seed=3)
        pipeline = random_pipeline(5, seed=3)
        mapping = elpc_max_frame_rate(pipeline, network, EndToEndRequest(0, 4))
        assert mapping.path == [0, 1, 2, 3, 4]
        expected = bottleneck_time_ms(pipeline, network,
                                      [[j] for j in range(5)], [0, 1, 2, 3, 4])
        assert mapping.bottleneck_ms == pytest.approx(expected)


class TestHeuristicQuality:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5, 6, 7, 8, 9])
    def test_close_to_exhaustive_on_random_instances(self, seed):
        """The heuristic may miss the optimum, but must stay feasible and
        within a modest factor whenever it succeeds; most seeds match exactly
        (the paper reports misses are "extremely rare")."""
        pipeline = random_pipeline(5, seed=seed)
        network = random_network(8, 16, seed=seed + 100)
        request = random_request(network, seed=seed, min_hop_distance=2)
        try:
            exact = exhaustive_max_frame_rate(pipeline, network, request)
        except InfeasibleMappingError:
            pytest.skip("instance genuinely infeasible")
        try:
            heuristic = elpc_max_frame_rate(pipeline, network, request)
        except InfeasibleMappingError:
            pytest.skip("heuristic miss on a feasible instance (known rare failure mode)")
        assert_no_reuse(heuristic.path)
        assert heuristic.frame_rate_fps <= exact.frame_rate_fps + 1e-9
        assert heuristic.frame_rate_fps >= 0.5 * exact.frame_rate_fps

    def test_exact_match_count_on_small_suite(self):
        """At least 80 % of small random instances should be solved optimally."""
        matches, total = 0, 0
        for seed in range(15):
            pipeline = random_pipeline(4, seed=seed)
            network = random_network(7, 14, seed=seed + 500)
            request = random_request(network, seed=seed, min_hop_distance=2)
            try:
                exact = exhaustive_max_frame_rate(pipeline, network, request)
                heuristic = elpc_max_frame_rate(pipeline, network, request)
            except InfeasibleMappingError:
                continue
            total += 1
            if heuristic.frame_rate_fps == pytest.approx(exact.frame_rate_fps, rel=1e-9):
                matches += 1
        assert total >= 5
        assert matches / total >= 0.8


class TestFeasibilityHandling:
    def test_infeasible_more_modules_than_nodes(self, simple_network, simple_request):
        pipeline = random_pipeline(10, seed=1)
        with pytest.raises(InfeasibleMappingError):
            elpc_max_frame_rate(pipeline, simple_network, simple_request)

    def test_infeasible_pipeline_longer_than_longest_path(self):
        network = line_network(5, seed=1)
        pipeline = random_pipeline(4, seed=1)
        with pytest.raises(InfeasibleMappingError):
            elpc_max_frame_rate(pipeline, network, EndToEndRequest(0, 2))

    def test_infeasible_pipeline_shorter_than_shortest_path(self):
        network = line_network(6, seed=1)
        pipeline = random_pipeline(3, seed=1)
        with pytest.raises(InfeasibleMappingError):
            elpc_max_frame_rate(pipeline, network, EndToEndRequest(0, 5))

    def test_destination_never_used_as_intermediate(self):
        for seed in range(5):
            network = random_network(9, 20, seed=seed)
            pipeline = random_pipeline(5, seed=seed)
            request = random_request(network, seed=seed, min_hop_distance=2)
            try:
                mapping = elpc_max_frame_rate(pipeline, network, request)
            except InfeasibleMappingError:
                continue
            assert request.destination not in mapping.path[:-1]

    def test_complete_graph_always_feasible_when_enough_nodes(self):
        network = complete_network(7, seed=4)
        pipeline = random_pipeline(6, seed=4)
        mapping = elpc_max_frame_rate(pipeline, network, EndToEndRequest(0, 6))
        assert len(mapping.path) == 6
        assert_no_reuse(mapping.path)


class TestEdgeCasesBothEngines:
    """Edge-case coverage shared by the scalar and tensor solvers."""

    @pytest.mark.parametrize("solver", FRAMERATE_SOLVERS)
    def test_without_link_delay_never_slower(self, solver, simple_pipeline,
                                             simple_network, simple_request):
        with_mld = solver(simple_pipeline, simple_network, simple_request)
        without = solver(simple_pipeline, simple_network, simple_request,
                         include_link_delay=False)
        assert without.extras["include_link_delay"] is False
        # Dropping the additive MLD term can only shrink link times, so the
        # optimised bottleneck cannot get worse.
        assert (without.extras["dp_bottleneck_ms"]
                <= with_mld.extras["dp_bottleneck_ms"] + 1e-9)

    @pytest.mark.parametrize("solver", FRAMERATE_SOLVERS)
    def test_keep_table_final_cell_matches(self, solver, simple_pipeline,
                                           simple_network, simple_request):
        mapping = solver(simple_pipeline, simple_network, simple_request,
                         keep_table=True)
        table = mapping.extras["dp_table"]
        assert table.value(simple_pipeline.n_modules - 1,
                           simple_request.destination) == pytest.approx(
            mapping.bottleneck_ms)
        assert table.backtrack_path(simple_request.destination) == mapping.path

    @pytest.mark.parametrize("solver", FRAMERATE_SOLVERS)
    def test_keep_table_off_by_default(self, solver, simple_pipeline,
                                       simple_network, simple_request):
        mapping = solver(simple_pipeline, simple_network, simple_request)
        assert "dp_table" not in mapping.extras

    @pytest.mark.parametrize("solver", FRAMERATE_SOLVERS)
    def test_disconnected_destination_raises(self, solver, simple_pipeline,
                                             simple_network):
        from repro.model import ComputingNode
        simple_network.add_node(ComputingNode(node_id=9, processing_power=1.0))
        with pytest.raises(InfeasibleMappingError):
            solver(simple_pipeline, simple_network, EndToEndRequest(0, 9))

    @pytest.mark.parametrize("solver", FRAMERATE_SOLVERS)
    def test_disconnected_source_raises(self, solver, simple_pipeline,
                                        simple_network):
        from repro.model import ComputingNode
        simple_network.add_node(ComputingNode(node_id=9, processing_power=1.0))
        with pytest.raises(InfeasibleMappingError):
            solver(simple_pipeline, simple_network, EndToEndRequest(9, 3))

    @pytest.mark.parametrize("solver", FRAMERATE_SOLVERS)
    def test_minimal_client_server_pipeline(self, solver, simple_network):
        """The smallest legal pipeline maps onto a single link without reuse."""
        from repro.model import Pipeline
        pipeline = Pipeline.client_server(data_bytes=400_000, sink_complexity=10.0)
        mapping = solver(pipeline, simple_network, EndToEndRequest(0, 1))
        assert mapping.path == [0, 1]
        assert_no_reuse(mapping.path)
        expected = bottleneck_time_ms(pipeline, simple_network, [[0], [1]], [0, 1])
        assert mapping.bottleneck_ms == pytest.approx(expected)

    @pytest.mark.parametrize("solver", FRAMERATE_SOLVERS)
    def test_minimal_pipeline_same_endpoint_infeasible(self, solver, simple_network):
        """Without reuse a 2-module pipeline cannot start and end on one node."""
        from repro.model import Pipeline
        pipeline = Pipeline.client_server(data_bytes=400_000, sink_complexity=10.0)
        with pytest.raises(InfeasibleMappingError):
            solver(pipeline, simple_network, EndToEndRequest(2, 2))

    def test_vectorized_survives_network_mutation(self, simple_pipeline,
                                                  simple_network, simple_request):
        """The dense view and its staged layout are invalidated when the
        topology changes."""
        elpc_max_frame_rate_tensor(simple_pipeline, simple_network,
                                   simple_request)
        staged_before = stage_view(simple_network.dense_view())
        simple_network.connect(1, 3, bandwidth_mbps=1000.0, min_delay_ms=0.01)
        after = elpc_max_frame_rate_tensor(simple_pipeline, simple_network,
                                           simple_request)
        staged_after = stage_view(simple_network.dense_view())
        assert staged_after is not staged_before
        assert (staged_after.n_directed_edges
                == staged_before.n_directed_edges + 2)
        reference = elpc_max_frame_rate(simple_pipeline, simple_network,
                                        simple_request)
        assert after.bottleneck_ms == reference.bottleneck_ms
