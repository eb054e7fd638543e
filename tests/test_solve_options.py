"""Tests for the unified SolveOptions bundle and the curated package API.

Covers the merge semantics shared by every consumer (legacy kwargs and
``options=`` must agree or raise), the acceptance points (``solve_many``,
``place_many``, ``ServiceConfig`` / ``SolveService``), the curated
``repro.__all__`` (every name resolves), and the canonical
``uses_tensor_dispatch`` name that replaced the deleted
``_use_tensor_dispatch`` alias.
"""

from __future__ import annotations

import warnings

import pytest

import repro
from repro.core import Objective, SolveOptions, place_many, solve_many
from repro.exceptions import SpecificationError
from repro.generators import random_network, random_pipeline, random_request
from repro.model import ProblemInstance
from repro.service import ServiceConfig, SolveService


def _instances(count=3, *, seed=3):
    network = random_network(10, 24, seed=seed)
    return [
        ProblemInstance(
            pipeline=random_pipeline(5, seed=500 + i),
            network=network,
            request=random_request(network, seed=600 + i, min_hop_distance=2),
            name=f"opt-{i}")
        for i in range(count)
    ]


class TestMergeSemantics:
    def test_unset_fields_inherit_legacy_kwargs(self):
        merged = SolveOptions().merged_with(solver="elpc")
        assert merged.solver == "elpc"
        assert merged.objective is None  # still unspecified

    def test_set_fields_survive_unset_kwargs(self):
        options = SolveOptions(solver="elpc-tensor",
                               objective=Objective.MAX_FRAME_RATE)
        merged = options.merged_with()
        assert merged == options

    def test_agreeing_duplicates_are_fine(self):
        options = SolveOptions(solver="elpc")
        merged = options.merged_with(solver="elpc")
        assert merged.solver == "elpc"

    # Merging never resolves solver names, so any two distinct strings
    # conflict — even a name the registry no longer serves.
    @pytest.mark.parametrize("field,a,b", [
        ("solver", "elpc-vec", "elpc-tensor"),
        ("objective", Objective.MIN_DELAY, Objective.MAX_FRAME_RATE),
    ])
    def test_conflicting_duplicates_raise(self, field, a, b):
        options = SolveOptions(**{field: a})
        with pytest.raises(SpecificationError, match=f"conflicting {field!r}"):
            options.merged_with(**{field: b})

    def test_conflict_is_a_value_error(self):
        options = SolveOptions(solver="elpc-tensor")
        with pytest.raises(ValueError):
            options.merged_with(solver="elpc")

    def test_solver_kwargs_merge_key_wise(self):
        options = SolveOptions(solver_kwargs={"backend": "numpy"})
        merged = options.merged_with(solver_kwargs={"chunk": 4})
        assert merged.solver_kwargs == {"backend": "numpy", "chunk": 4}

    def test_solver_kwargs_conflict_raises(self):
        options = SolveOptions(solver_kwargs={"backend": "numpy"})
        with pytest.raises(SpecificationError, match="backend"):
            options.merged_with(solver_kwargs={"backend": "cupy"})

    def test_frozen(self):
        with pytest.raises(AttributeError):
            SolveOptions().solver = "elpc"


class TestSolveManyAcceptance:
    def test_options_equivalent_to_kwargs(self):
        instances = _instances()
        via_kwargs = solve_many(instances, solver="elpc",
                                objective=Objective.MIN_DELAY)
        via_options = solve_many(instances, options=SolveOptions(
            solver="elpc", objective=Objective.MIN_DELAY))
        for a, b in zip(via_kwargs.items, via_options.items):
            assert a.mapping.delay_ms == b.mapping.delay_ms
            assert list(a.mapping.path) == list(b.mapping.path)

    def test_conflict_raises(self):
        instances = _instances(1)
        with pytest.raises(SpecificationError, match="conflicting"):
            solve_many(instances, solver="elpc",
                       options=SolveOptions(solver="elpc-tensor"))

    def test_bad_options_type_rejected(self):
        with pytest.raises(SpecificationError, match="SolveOptions"):
            solve_many(_instances(1), options={"solver": "elpc-tensor"})

    def test_defaults_still_apply_when_unspecified(self):
        instances = _instances(2)
        result = solve_many(instances, options=SolveOptions())
        assert result.solver == "elpc-tensor"
        assert all(item.ok for item in result.items)


class TestPlaceManyAcceptance:
    def test_options_solver_is_the_engine(self):
        instances = _instances()
        result = place_many(instances,
                            options=SolveOptions(solver="elpc"),
                            node_capacity_factor=1e9,
                            link_capacity_factor=1e9)
        assert result.engine == "elpc"

    def test_engine_conflict_raises(self):
        with pytest.raises(SpecificationError, match="conflicting"):
            place_many(_instances(1), engine="elpc",
                       options=SolveOptions(solver="elpc-tensor"))


class TestServiceAcceptance:
    def test_options_feed_service_config(self):
        config = ServiceConfig(options=SolveOptions(solver="elpc"))
        assert config.default_solver == "elpc"

    def test_config_conflict_raises(self):
        with pytest.raises(SpecificationError, match="conflict"):
            ServiceConfig(default_solver="elpc",
                          options=SolveOptions(solver="elpc-tensor"))

    def test_unsupported_option_fields_rejected(self):
        with pytest.raises(SpecificationError):
            ServiceConfig(options=SolveOptions(
                objective=Objective.MIN_DELAY))

    def test_solve_service_accepts_options(self):
        service = SolveService(ServiceConfig(),
                               options=SolveOptions(solver="elpc"))
        assert service.config.default_solver == "elpc"

    def test_solve_service_double_options_conflict(self):
        config = ServiceConfig(options=SolveOptions(solver="elpc-tensor"))
        with pytest.raises(SpecificationError):
            SolveService(config, options=SolveOptions(solver="elpc"))


class TestCuratedNamespace:
    def test_every_exported_name_resolves(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_placement_api_is_exported(self):
        for name in ("place_many", "ClusterState", "PlacementRequest",
                     "PlacementResult", "SolveOptions", "CapacityError",
                     "validate_placements", "available_placers"):
            assert name in repro.__all__

    def test_unknown_attribute_still_raises(self):
        """The old ``_use_tensor_dispatch`` alias is gone, not resolved."""
        from repro.core import batch

        with pytest.raises(AttributeError):
            batch._use_tensor_dispatch  # noqa: B018

    def test_no_warning_for_canonical_name(self):
        """``uses_tensor_dispatch`` is public in ``batch.__all__`` and
        resolves without a warning."""
        from repro.core import batch

        assert "uses_tensor_dispatch" in batch.__all__
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert callable(batch.uses_tensor_dispatch)
