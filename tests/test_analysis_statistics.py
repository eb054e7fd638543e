"""Tests for the multi-replicate statistics layer."""

import math

import pytest

from repro.analysis import (
    ReplicatedCaseResult,
    SummaryStatistics,
    replicate_case,
    summarize_improvements,
)
from repro.core import Objective
from repro.exceptions import SpecificationError
from repro.generators import PAPER_CASE_SPECS


class TestSummaryStatistics:
    def test_basic_statistics(self):
        stats = SummaryStatistics.from_values([1.0, 2.0, 3.0, 4.0])
        assert stats.n_samples == 4
        assert stats.mean == pytest.approx(2.5)
        assert stats.minimum == 1.0 and stats.maximum == 4.0
        assert stats.ci_low < stats.mean < stats.ci_high

    def test_single_sample_degenerate_interval(self):
        stats = SummaryStatistics.from_values([5.0])
        assert stats.std == 0.0
        assert stats.ci_low == stats.ci_high == 5.0

    def test_nan_values_dropped(self):
        stats = SummaryStatistics.from_values([1.0, float("nan"), 3.0])
        assert stats.n_samples == 2
        assert stats.mean == pytest.approx(2.0)

    def test_empty_rejected(self):
        with pytest.raises(SpecificationError):
            SummaryStatistics.from_values([])
        with pytest.raises(SpecificationError):
            SummaryStatistics.from_values([float("nan")])

    def test_overlap_detection(self):
        a = SummaryStatistics.from_values([1.0, 1.1, 0.9, 1.05])
        b = SummaryStatistics.from_values([1.02, 1.08, 0.95, 1.0])
        c = SummaryStatistics.from_values([10.0, 10.1, 9.9, 10.05])
        assert a.overlaps(b) and b.overlaps(a)
        assert not a.overlaps(c)


@pytest.fixture(scope="module")
def replicated_small_case():
    # smallest case spec, few replicates: fast but statistically meaningful
    return replicate_case(PAPER_CASE_SPECS[1], n_replicates=6,
                          objective=Objective.MIN_DELAY)


class TestReplicateCase:
    def test_shapes(self, replicated_small_case):
        result = replicated_small_case
        assert result.n_replicates == 6
        assert set(result.values) == {"elpc", "streamline", "greedy"}
        for values in result.values.values():
            assert len(values) == 6

    def test_elpc_always_feasible_and_winning(self, replicated_small_case):
        result = replicated_small_case
        assert result.feasibility_rate("elpc") == 1.0
        assert result.win_rate("elpc") == 1.0

    def test_statistics_and_improvements(self, replicated_small_case):
        result = replicated_small_case
        stats = result.statistics("elpc")
        assert stats.n_samples == 6
        assert stats.mean > 0
        improvements = result.improvement_samples("greedy")
        assert improvements
        assert all(r >= 1.0 - 1e-9 for r in improvements)

    def test_unknown_algorithm_statistics_rejected(self, replicated_small_case):
        with pytest.raises(SpecificationError):
            replicated_small_case.statistics("nope")

    def test_replicates_actually_differ(self, replicated_small_case):
        values = replicated_small_case.values["elpc"]
        assert len(set(round(v, 6) for v in values)) > 1

    def test_validation(self):
        with pytest.raises(SpecificationError):
            replicate_case(PAPER_CASE_SPECS[0], n_replicates=0)

    def test_framerate_objective(self):
        result = replicate_case(PAPER_CASE_SPECS[1], n_replicates=3,
                                objective=Objective.MAX_FRAME_RATE,
                                algorithms=("elpc", "greedy"))
        assert result.n_replicates == 3
        assert result.feasibility_rate("elpc") > 0.0
        # win rate is computed only over replicates where elpc is feasible
        assert 0.0 <= result.win_rate("elpc") <= 1.0

    def test_unknown_algorithm_fails_fast(self):
        with pytest.raises(SpecificationError):
            replicate_case(PAPER_CASE_SPECS[1], n_replicates=2,
                           algorithms=("elpc", "no-such-solver"))

    def test_non_infeasibility_errors_recorded_as_nan(self):
        """Any ReproError from one replicate (not just infeasibility) becomes
        NaN instead of aborting the whole campaign."""
        from repro.core import register_solver
        from repro.core.registry import _REGISTRY
        from repro.exceptions import SpecificationError as SpecError

        calls = {"n": 0}

        def flaky(pipeline, network, request, **kwargs):
            calls["n"] += 1
            if calls["n"] % 2 == 0:
                raise SpecError("synthetic mid-campaign solver error")
            from repro.core import get_solver
            return get_solver("greedy", Objective.MIN_DELAY)(
                pipeline, network, request)

        register_solver("stats-flaky", Objective.MIN_DELAY, flaky)
        try:
            result = replicate_case(PAPER_CASE_SPECS[1], n_replicates=4,
                                    algorithms=("elpc", "stats-flaky"))
        finally:
            _REGISTRY.pop(("stats-flaky", Objective.MIN_DELAY), None)
        flaky_values = result.values["stats-flaky"]
        assert len(flaky_values) == 4
        assert sum(1 for v in flaky_values if v != v) == 2  # NaN where it blew up
        assert result.feasibility_rate("stats-flaky") == 0.5
        # the co-scheduled healthy algorithm is untouched
        assert result.feasibility_rate("elpc") == 1.0

    def test_replicates_batch_through_solve_many(self, monkeypatch):
        """The inner loop rides solve_many (one batch per algorithm), so
        replication sweeps inherit tensor grouping."""
        import repro.analysis.statistics as stats_mod

        seen = []
        real_solve_many = stats_mod.solve_many

        def spy(instances, **kwargs):
            seen.append((len(list(instances)), kwargs.get("solver")))
            return real_solve_many(instances, **kwargs)

        monkeypatch.setattr(stats_mod, "solve_many", spy)
        result = replicate_case(PAPER_CASE_SPECS[1], n_replicates=3,
                                algorithms=("elpc", "greedy"))
        assert seen == [(3, "elpc"), (3, "greedy")]
        assert result.n_replicates == 3


class TestSummarizeImprovements:
    def test_pooled_improvements(self, replicated_small_case):
        stats = summarize_improvements([replicated_small_case], "streamline")
        assert stats.n_samples >= 4
        assert stats.mean >= 1.0 - 1e-9

    def test_no_samples_rejected(self):
        empty = ReplicatedCaseResult(spec=PAPER_CASE_SPECS[0],
                                     objective=Objective.MIN_DELAY,
                                     algorithms=("elpc", "greedy"),
                                     values={"elpc": [], "greedy": []})
        with pytest.raises(SpecificationError):
            summarize_improvements([empty], "greedy")
