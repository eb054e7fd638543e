"""Property-based tests: incremental views and warm-started re-solves.

Two invariants the incremental dense-view engine promises:

* **Patch ≡ rebuild** — after any sequence of scalar edits
  (``set_processing_power`` / ``set_bandwidth`` / ``set_link_delay``), the
  network's copy-on-write-patched dense view is bit-identical (``tobytes``
  equality on every array) to a from-scratch dense view of an
  identically-specified network.
* **Warm ≡ cold** — a warm-started ELPC re-solve on the edited network
  reproduces the cold solve's DP tables byte for byte and its mapping
  exactly, for both objectives, in agreement with both engines (scalar and
  tensor) and with the tensor engine's one-pipeline (``A = 1``) tables —
  however the priors were handed over: shuffled, from several earlier
  flushes, from cold fills and warm re-solves alike.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.core import (Objective, elpc_max_frame_rate, elpc_min_delay,
                        solve_many)
from repro.core.tensor import (
    _framerate_stages,
    _min_delay_stages,
    _stage_arrays,
    elpc_max_frame_rate_many,
    elpc_min_delay_many,
    stage_view,
)
from repro.exceptions import InfeasibleMappingError
from repro.core.warm import (_warm_many, elpc_max_frame_rate_warm,
                             elpc_min_delay_warm)
from repro.generators import random_network, random_pipeline, random_request
from repro.model import ComputingNode, TransportNetwork
from repro.model.link import CommunicationLink

# Each example chains several edit rounds and a handful of solves; a small
# example budget still explores many edit sequences.
PROFILE = settings(max_examples=10, deadline=None,
                   suppress_health_check=[HealthCheck.too_slow])

_VIEW_ARRAYS = ("power", "adjacency", "bandwidth", "link_delay",
                "bandwidth_bits_per_s", "edge_u", "edge_v", "edge_indptr",
                "edge_bandwidth_mbps", "edge_bandwidth_bits_per_s",
                "edge_link_delay")


def _apply_random_edits(network: TransportNetwork, rng: np.random.Generator,
                        n_edits: int) -> None:
    """Drive a random mix of the three scalar setters."""
    links = list(network.links())
    nodes = list(network.nodes())
    for _ in range(n_edits):
        kind = int(rng.integers(3))
        if kind == 0:
            node = nodes[int(rng.integers(len(nodes)))]
            network.set_processing_power(
                node.node_id,
                float(network.processing_power(node.node_id))
                * float(rng.uniform(0.5, 1.5)))
        elif kind == 1:
            link = links[int(rng.integers(len(links)))]
            network.set_bandwidth(
                link.start_node, link.end_node,
                float(network.bandwidth(link.start_node, link.end_node))
                * float(rng.uniform(0.5, 1.5)))
        else:
            link = links[int(rng.integers(len(links)))]
            network.set_link_delay(link.start_node, link.end_node,
                                   float(rng.uniform(0.0, 2.0)))


def _cold_tables(stages, pipeline, view, *ends, include_link_delay):
    """One pipeline's cold DP tables: a tensor stage sweep with ``A = 1``.

    ``stages`` is ``_min_delay_stages`` (``ends = (src,)``) or
    ``_framerate_stages`` (``ends = (src, dst)``); returns its state arrays
    with the batch axis dropped.
    """
    n = pipeline.n_modules
    workload, message = _stage_arrays([pipeline], [0], n)
    tables = stages(stage_view(view), 1, np.array([n]),
                    *(np.array([end]) for end in ends), workload, message,
                    include_link_delay=include_link_delay)
    return tuple(table[0] for table in tables)


def _rebuilt_view(network: TransportNetwork):
    """From-scratch dense view of an identically-specified network."""
    clone = TransportNetwork(
        nodes=[ComputingNode(node_id=n.node_id,
                             processing_power=n.processing_power)
               for n in network.nodes()],
        links=[CommunicationLink(start_node=l.start_node,
                                 end_node=l.end_node,
                                 bandwidth_mbps=l.bandwidth_mbps,
                                 min_delay_ms=l.min_delay_ms)
               for l in network.links()])
    return clone.dense_view()


@st.composite
def edit_scenarios(draw):
    """A solvable instance plus a seeded multi-round edit schedule."""
    seed = draw(st.integers(min_value=0, max_value=10_000))
    n_modules = draw(st.integers(min_value=4, max_value=8))
    n_nodes = draw(st.integers(min_value=8, max_value=20))
    n_links = draw(st.integers(min_value=int(1.5 * n_nodes),
                               max_value=3 * n_nodes))
    n_rounds = draw(st.integers(min_value=1, max_value=3))
    edits_per_round = draw(st.integers(min_value=1, max_value=6))
    pipeline = random_pipeline(n_modules, seed=seed)
    network = random_network(n_nodes, n_links, seed=seed + 1)
    request = random_request(network, seed=seed + 2, min_hop_distance=1)
    assume(network.hop_distance(request.source, request.destination)
           <= n_modules - 1)
    return pipeline, network, request, seed, n_rounds, edits_per_round


class TestPatchedViewEqualsRebuild:
    @PROFILE
    @given(edit_scenarios())
    def test_patched_view_bit_identical_to_from_scratch_build(self, scenario):
        _pipeline, network, _request, seed, n_rounds, edits_per_round = scenario
        rng = np.random.default_rng(seed + 77)
        network.dense_view()  # prime the cache so edits patch copy-on-write
        for _ in range(n_rounds):
            _apply_random_edits(network, rng, edits_per_round)
            patched = network.dense_view()
            rebuilt = _rebuilt_view(network)
            assert patched.node_ids == rebuilt.node_ids
            for name in _VIEW_ARRAYS:
                a, b = getattr(patched, name), getattr(rebuilt, name)
                assert a.tobytes() == b.tobytes(), name


class TestWarmEqualsCold:
    @PROFILE
    @given(edit_scenarios())
    def test_min_delay_warm_matches_cold_everywhere(self, scenario):
        pipeline, network, request, seed, n_rounds, edits_per_round = scenario
        rng = np.random.default_rng(seed + 177)
        _mapping, state = elpc_min_delay_warm(pipeline, network, request,
                                              prior=None)
        for _ in range(n_rounds):
            _apply_random_edits(network, rng, edits_per_round)
            warm, state = elpc_min_delay_warm(pipeline, network, request,
                                              prior=state)
            view = network.dense_view()
            values, pred, same = _cold_tables(
                _min_delay_stages, pipeline, view,
                view.index_of[request.source], include_link_delay=True)
            assert values.tobytes() == state.values.tobytes()
            assert pred.tobytes() == state.pred.tobytes()
            assert same.tobytes() == state.same.tobytes()
            colds = (elpc_min_delay(pipeline, network, request),
                     elpc_min_delay_many([pipeline], network, [request])[0])
            for cold in colds:
                assert warm.path == cold.path
                assert warm.groups == cold.groups
                assert warm.objective_value == cold.objective_value

    @PROFILE
    @given(edit_scenarios())
    def test_frame_rate_warm_matches_cold_everywhere(self, scenario):
        pipeline, network, request, seed, n_rounds, edits_per_round = scenario
        rng = np.random.default_rng(seed + 277)
        try:
            _mapping, state = elpc_max_frame_rate_warm(pipeline, network,
                                                       request, prior=None)
        except InfeasibleMappingError:
            # Frame rate needs a *simple* path with exactly n_modules nodes
            # and the instance never had one — discard the draw.
            assume(False)
        for _ in range(n_rounds):
            _apply_random_edits(network, rng, edits_per_round)
            try:
                warm, state = elpc_max_frame_rate_warm(pipeline, network,
                                                       request, prior=state)
            except InfeasibleMappingError:
                # The frame-rate DP's visited-path guard is value-dependent,
                # so capacity edits can genuinely flip the heuristic's
                # feasibility verdict — warm and cold must agree on it.
                with pytest.raises(InfeasibleMappingError):
                    elpc_max_frame_rate(pipeline, network, request)
                tensor = elpc_max_frame_rate_many([pipeline], network,
                                                  [request])[0]
                assert isinstance(tensor, InfeasibleMappingError)
                break
            view = network.dense_view()
            values, pred = _cold_tables(
                _framerate_stages, pipeline, view,
                view.index_of[request.source],
                view.index_of[request.destination], include_link_delay=True)
            assert values.tobytes() == state.values.tobytes()
            assert pred.tobytes() == state.pred.tobytes()
            colds = (elpc_max_frame_rate(pipeline, network, request),
                     elpc_max_frame_rate_many([pipeline], network,
                                              [request])[0])
            for cold in colds:
                assert warm.path == cold.path
                assert warm.groups == cold.groups
                assert warm.objective_value == cold.objective_value


@st.composite
def batch_scenarios(draw):
    """A ragged batch of pipelines sharing one network, plus an edit seed."""
    seed = draw(st.integers(min_value=0, max_value=10_000))
    n_nodes = draw(st.integers(min_value=8, max_value=30))
    n_links = draw(st.integers(min_value=int(1.5 * n_nodes),
                               max_value=3 * n_nodes))
    network = random_network(n_nodes, n_links, seed=seed)
    sizes = draw(st.lists(st.integers(min_value=2, max_value=9),
                          min_size=1, max_size=6))
    instances = [(random_pipeline(n, seed=seed + 10 + b), network,
                  random_request(network, seed=seed + 20 + b,
                                 min_hop_distance=1))
                 for b, n in enumerate(sizes)]
    objective = draw(st.sampled_from(list(Objective)))
    include_link_delay = draw(st.booleans())
    return instances, seed, objective, include_link_delay


class TestBatchedWarmEqualsCold:
    @PROFILE
    @given(batch_scenarios())
    def test_batched_warm_tables_match_one_pipeline_sweeps(self, scenario):
        """``solve_many(prior=)`` re-solves a ragged batch in one warm pass;
        every item's tables must equal its own cold ``A = 1`` sweep."""
        instances, seed, objective, include_link_delay = scenario
        network = instances[0][1]
        rng = np.random.default_rng(seed + 377)
        kwargs = {"objective": objective,
                  "include_link_delay": include_link_delay}
        prior = solve_many(instances, warm_start=True, **kwargs)
        for _ in range(3):
            _apply_random_edits(network, rng, int(rng.integers(1, 8)))
            prior = solve_many(instances, prior=prior, **kwargs)
            cold = solve_many(instances, **kwargs)
            view = network.dense_view()
            for (pipeline, _net, request), warm, ref, state in zip(
                    instances, prior.items, cold.items, prior.warm_states):
                assert (warm.mapping is None) == (ref.mapping is None)
                if warm.mapping is None:
                    continue
                assert warm.mapping.path == ref.mapping.path
                assert warm.mapping.groups == ref.mapping.groups
                assert (warm.mapping.objective_value
                        == ref.mapping.objective_value)
                src = view.index_of[request.source]
                if objective is Objective.MIN_DELAY:
                    tables = _cold_tables(
                        _min_delay_stages, pipeline, view, src,
                        include_link_delay=include_link_delay)
                    states = (state.values, state.pred, state.same)
                else:
                    tables = _cold_tables(
                        _framerate_stages, pipeline, view, src,
                        view.index_of[request.destination],
                        include_link_delay=include_link_delay)
                    states = (state.values, state.pred)
                for table, warm_table in zip(tables, states):
                    assert table.tobytes() == warm_table.tobytes()


@st.composite
def handoff_scenarios(draw):
    """Ragged items split across two earlier batches, and a shuffle."""
    seed = draw(st.integers(min_value=0, max_value=10_000))
    n_nodes = draw(st.integers(min_value=8, max_value=24))
    n_links = draw(st.integers(min_value=int(1.5 * n_nodes),
                               max_value=3 * n_nodes))
    network = random_network(n_nodes, n_links, seed=seed)
    sizes = draw(st.lists(st.integers(min_value=2, max_value=9),
                          min_size=2, max_size=8))
    instances = [(random_pipeline(n, seed=seed + 10 + b),
                  random_request(network, seed=seed + 20 + b,
                                 min_hop_distance=1))
                 for b, n in enumerate(sizes)]
    split = draw(st.integers(min_value=1, max_value=len(sizes) - 1))
    order = draw(st.permutations(range(len(sizes))))
    objective = draw(st.sampled_from(list(Objective)))
    include_link_delay = draw(st.booleans())
    return (network, instances, split, order, objective, include_link_delay,
            seed)


class TestWarmStateHandoff:
    @PROFILE
    @given(handoff_scenarios())
    def test_handed_off_priors_match_cold(self, scenario):
        """A flush whose priors come shuffled from two earlier batches — one
        a cold ``warm_start`` fill, one a warm re-solve, captured at
        different epochs and table heights — refreshes (min delay) or
        refills (frame rate) every item bit-identically to a cold solve."""
        (network, instances, split, order, objective, include_link_delay,
         seed) = scenario
        rng = np.random.default_rng(seed + 477)

        def flush(items, priors):
            return _warm_many(objective, [p for p, _r in items], network,
                              [r for _p, r in items], priors,
                              include_link_delay=include_link_delay)

        first, second = instances[:split], instances[split:]
        from_cold = flush(first, [None] * len(first))
        _apply_random_edits(network, rng, int(rng.integers(1, 6)))
        from_warm = flush(second, [None] * len(second))
        _apply_random_edits(network, rng, int(rng.integers(1, 6)))
        from_warm = flush(second, [state for _entry, state in from_warm])
        _apply_random_edits(network, rng, int(rng.integers(1, 6)))
        states = [state for _entry, state in from_cold + from_warm]
        items = [instances[i] for i in order]
        priors = [states[i] for i in order]
        solved = flush(items, priors)

        many = (elpc_min_delay_many if objective is Objective.MIN_DELAY
                else elpc_max_frame_rate_many)
        colds = many([p for p, _r in items], network, [r for _p, r in items],
                     include_link_delay=include_link_delay)
        view = network.dense_view()
        for (pipeline, request), prior, (entry, state), cold in zip(
                items, priors, solved, colds):
            assert isinstance(entry, InfeasibleMappingError) == isinstance(
                cold, InfeasibleMappingError)
            if state is None:
                continue
            assert entry.to_dict() | {"algorithm": None, "runtime_s": None} \
                == cold.to_dict() | {"algorithm": None, "runtime_s": None}
            assert entry.groups == cold.groups
            assert entry.extras["warm"] is (prior is not None)
            src = view.index_of[request.source]
            if objective is Objective.MIN_DELAY:
                tables = _cold_tables(_min_delay_stages, pipeline, view, src,
                                      include_link_delay=include_link_delay)
                handed = (state.values, state.pred, state.same)
            else:
                tables = _cold_tables(
                    _framerate_stages, pipeline, view, src,
                    view.index_of[request.destination],
                    include_link_delay=include_link_delay)
                handed = (state.values, state.pred)
            for table, warm_table in zip(tables, handed):
                assert table.tobytes() == warm_table.tobytes()
