"""Error ledgers, Top-K% tail metrics, and hardest-set overlap."""

from __future__ import annotations

import functools
import math
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trajfuse import fusion, metrics
from trajfuse.core import Mode, ModelOutput, Sample, Trajectory
from trajfuse.errors import InvalidInput, NumericalError
from trajfuse.fusion import STRATEGIES
from trajfuse.metrics import (
    DEFAULT_K_LIST,
    DEFAULT_OVERLAP_K,
    METRICS,
    ErrorLedger,
    TopKResult,
    build_ledger,
    cross_evaluate,
    ensemble_method_id,
    fuse_and_score,
    overlap_report,
    summary_table,
    top_k_error,
)
from trajfuse.synth import PINNED_PRIMARY, generate_samples, pinned_config, pinned_predictors

from conftest import ledgers


def traj(*pts: tuple[float, float]) -> Trajectory:
    return Trajectory.from_xy(pts)


def ledger_from(method_id: str, errors: dict[str, tuple[float, float]]) -> ErrorLedger:
    ledger = ErrorLedger()
    for sid, (a, f) in errors.items():
        ledger.add(method_id, sid, a, f)
    return ledger


class TestErrorLedger:
    def test_add_and_read_back(self):
        ledger = ErrorLedger()
        ledger.add("m", "s0", 1.5, 2.5)
        assert ledger.row("m", "s0") == (1.5, 2.5)
        assert ledger.has("m", "s0")
        assert not ledger.has("m", "s1")
        assert ledger.sample_count("m") == 1
        assert len(ledger) == 1
        assert list(ledger) == [("m", "s0", 1.5, 2.5)]

    def test_method_ids_sorted(self):
        ledger = ErrorLedger()
        ledger.add("zeta", "s0", 1, 1)
        ledger.add("alpha", "s0", 1, 1)
        assert ledger.method_ids() == ("alpha", "zeta")

    def test_duplicate_row_rejected(self):
        ledger = ErrorLedger()
        ledger.add("m", "s0", 1, 1)
        with pytest.raises(InvalidInput):
            ledger.add("m", "s0", 2, 2)

    def test_empty_ids_rejected(self):
        ledger = ErrorLedger()
        with pytest.raises(InvalidInput):
            ledger.add("", "s0", 1, 1)
        with pytest.raises(InvalidInput):
            ledger.add("m", "", 1, 1)

    def test_bad_errors_rejected(self):
        ledger = ErrorLedger()
        for bad in (-0.1, float("nan"), float("inf")):
            with pytest.raises(InvalidInput):
                ledger.add("m", "s0", bad, 1.0)
            with pytest.raises(InvalidInput):
                ledger.add("m", "s0", 1.0, bad)

    def test_errors_accessor(self):
        ledger = ledger_from("m", {"s0": (1.0, 2.0), "s1": (3.0, 4.0)})
        assert sorted(ledger.errors("m", "ade")) == [("s0", 1.0), ("s1", 3.0)]
        assert sorted(ledger.errors("m", "fde")) == [("s0", 2.0), ("s1", 4.0)]
        with pytest.raises(InvalidInput):
            ledger.errors("m", "rmse")
        with pytest.raises(InvalidInput):
            ledger.errors("missing", "ade")

    def test_missing_row_rejected(self):
        with pytest.raises(InvalidInput):
            ErrorLedger().row("m", "s0")

    def test_gaps_recorded(self):
        ledger = ErrorLedger()
        ledger.record_gap("m", "s7")
        assert ledger.gaps == [("m", "s7")]


class TestEnsembleMethodId:
    def test_prefixing(self):
        assert ensemble_method_id("weighted") == "ensemble_weighted"
        assert ensemble_method_id("simple") == "ensemble_simple"


class TestBuildLedger:
    def sample(self, sid: str, gt_pts, outputs=()) -> Sample:
        return Sample(sid, traj(*gt_pts), outputs)

    def test_scores_every_method(self):
        samples = [self.sample("s0", [(0, 0), (0, 0)]), self.sample("s1", [(0, 0), (0, 0)])]
        predictions = {
            "a": {"s0": traj((0, 0.5), (0, 1.0)), "s1": traj((0, 0), (0, 0))},
            "b": {"s0": traj((3, 4), (3, 4)), "s1": traj((0, 1), (0, 1))},
        }
        ledger = build_ledger(samples, predictions)
        assert len(ledger) == 4
        assert ledger.row("a", "s0") == (0.75, 1.0)
        assert ledger.row("b", "s0") == (5.0, 5.0)
        assert ledger.row("a", "s1") == (0.0, 0.0)
        assert ledger.gaps == []

    def test_missing_prediction_becomes_gap(self):
        samples = [self.sample("s0", [(0, 0)]), self.sample("s1", [(0, 0)])]
        predictions = {"a": {"s0": traj((1, 0))}}
        with pytest.warns(UserWarning, match="missing predictions"):
            ledger = build_ledger(samples, predictions)
        assert ledger.gaps == [("a", "s1")]
        assert ledger.sample_count("a") == 1

    def test_unlabeled_sample_rejected(self):
        unlabeled = Sample("s0", None, ())
        with pytest.raises(InvalidInput):
            build_ledger([unlabeled], {"a": {}})
        with pytest.raises(InvalidInput, match="no ground truth"):
            fuse_and_score([unlabeled])


@functools.lru_cache(maxsize=None)
def uniform_ledger(n: int) -> ErrorLedger:
    return ledger_from("m", {f"s{i:05d}": (1.0, 1.0) for i in range(n)})


class TestTopKError:
    def descending(self, n: int = 10) -> ErrorLedger:
        # s0 is hardest with error n, s1 gets n-1, and so on down to 1.
        return ledger_from("m", {f"s{i}": (float(n - i), float(n - i)) for i in range(n)})

    def test_hand_example(self):
        ledger = self.descending(10)
        top = top_k_error(ledger, "m", "ade", 10)
        assert top.member_count == 1
        assert top.sample_ids == frozenset({"s0"})
        assert top.mean_error == 10.0
        top2 = top_k_error(ledger, "m", "ade", 20)
        assert top2.sample_ids == frozenset({"s0", "s1"})
        assert top2.mean_error == 9.5

    def test_k_100_is_overall_mean(self):
        ledger = self.descending(10)
        top = top_k_error(ledger, "m", "ade", 100)
        assert top.member_count == 10
        assert top.mean_error == 5.5

    def test_count_rounds_up(self):
        # ceil(1% of 201) = ceil(2.01) = 3, ceil(10% of 201) = 21.
        ledger = ledger_from("m", {f"s{i:03d}": (1.0, 1.0) for i in range(201)})
        assert top_k_error(ledger, "m", "ade", 1).member_count == 3
        assert top_k_error(ledger, "m", "ade", 10).member_count == 21

    def test_at_least_one_member(self):
        ledger = ledger_from("m", {"s0": (1.0, 1.0), "s1": (2.0, 2.0), "s2": (3.0, 3.0)})
        top = top_k_error(ledger, "m", "ade", 1)
        assert top.member_count == 1
        assert top.sample_ids == frozenset({"s2"})

    @pytest.mark.parametrize("member_count, sample_ids, message", [
        (0, frozenset(), "member_count must be >= 1"),
        (2, frozenset({"s0"}), "1 sample_ids for member_count 2"),
    ], ids=["no_members", "count_disagrees"])
    def test_result_must_be_consistent(self, member_count, sample_ids, message):
        with pytest.raises(InvalidInput, match=message):
            TopKResult("m", "ade", 10.0, member_count, 1.0, sample_ids)

    def test_ties_break_by_sample_id(self):
        ledger = ledger_from("m", {f"s{i}": (5.0, 5.0) for i in range(4)})
        assert top_k_error(ledger, "m", "ade", 25).sample_ids == frozenset({"s0"})
        assert top_k_error(ledger, "m", "ade", 50).sample_ids == frozenset({"s0", "s1"})

    def test_fractional_k(self):
        ledger = ledger_from("m", {f"s{i:04d}": (float(i), 1.0) for i in range(1000)})
        assert top_k_error(ledger, "m", "ade", 0.5).member_count == 5
        assert top_k_error(ledger, "m", "ade", 95.5).member_count == 955

    def test_metric_selects_column(self):
        ledger = ledger_from("m", {"s0": (10.0, 1.0), "s1": (1.0, 10.0)})
        assert top_k_error(ledger, "m", "ade", 50).sample_ids == frozenset({"s0"})
        assert top_k_error(ledger, "m", "fde", 50).sample_ids == frozenset({"s1"})

    def test_insertion_order_is_irrelevant(self):
        rows = {f"s{i}": (float(i % 7), 1.0) for i in range(50)}
        forward = ledger_from("m", rows)
        backward = ErrorLedger()
        for sid in reversed(list(rows)):
            backward.add("m", sid, *rows[sid])
        for k in (1, 10, 50):
            assert (top_k_error(forward, "m", "ade", k).sample_ids
                    == top_k_error(backward, "m", "ade", k).sample_ids)

    def test_k_out_of_range(self):
        ledger = self.descending(5)
        for k in (0, -1, 100.5, float("nan")):
            with pytest.raises(InvalidInput):
                top_k_error(ledger, "m", "ade", k)

    def test_decimal_k_counts_from_its_decimal_value(self):
        # The floats nearest 0.07 and 16.1 lie just above them, so rounding
        # k * n / 100 in binary overshoots the count by one.
        assert top_k_error(uniform_ledger(10_000), "m", "ade", 0.07).member_count == 7
        assert top_k_error(uniform_ledger(1_000), "m", "ade", 16.1).member_count == 161

    @given(n=st.sampled_from([1, 7, 100, 401, 999, 1000, 1001, 4096, 10_000]),
           j=st.integers(min_value=1, max_value=100_000))
    @example(n=10_000, j=140)  # binary rounding of K = 0.14 overshot by one
    @example(n=1_000, j=65_400)  # and of K = 65.4
    @settings(max_examples=300, deadline=None)
    def test_member_count_is_the_decimal_ceiling(self, n, j):
        expected = min(n, max(1, math.ceil(Fraction(j, 1000) * n / 100)))
        assert top_k_error(uniform_ledger(n), "m", "ade", j / 1000).member_count == expected

    @given(ledger=ledgers(), k=st.sampled_from([1, 2, 3, 5, 10, 25, 50, 100, 0.5, 12.5]))
    @settings(max_examples=200)
    def test_member_count_is_exact_ceiling(self, ledger, k):
        n = ledger.sample_count("m")
        expected = min(n, max(1, math.ceil(Fraction(k) * n / 100)))
        assert top_k_error(ledger, "m", "ade", k).member_count == expected

    @given(ledger=ledgers())
    @settings(max_examples=200)
    def test_tail_focus_never_lowers_the_mean(self, ledger):
        """Smaller K means a harder slice: sets nest and means rise."""
        results = [top_k_error(ledger, "m", "ade", k) for k in (1, 5, 10, 50, 100)]
        for harder, softer in zip(results, results[1:]):
            assert harder.sample_ids <= softer.sample_ids
            assert harder.mean_error >= softer.mean_error - 1e-9
        pairs = ledger.errors("m", "ade")
        overall = math.fsum(e for _, e in pairs) / len(pairs)
        assert results[-1].mean_error == pytest.approx(overall, abs=1e-12)


@pytest.mark.parametrize("mean", [
    lambda ledger: top_k_error(ledger, "m", "ade", 100),
    lambda ledger: summary_table(ledger, (100,)),
    lambda ledger: summary_table(ledger, (100,), sort_by_ade=True),
    lambda ledger: cross_evaluate(ledger, "m", "m", 100),
], ids=["top_k_error", "summary_table", "summary_table_sort_by_ade", "cross_evaluate"])
def test_mean_past_the_float_range_is_a_numerical_error(mean):
    # Each error is finite; the sum of the two is not.
    ledger = ledger_from("m", {"s0": (1.6e308, 1.6e308), "s1": (1.6e308, 1.6e308)})
    with pytest.raises(NumericalError, match="mean of 2 errors overflows"):
        mean(ledger)


class TestOverlapReport:
    def sets(self):
        return {
            "A": frozenset({"1", "2", "3"}),
            "B": frozenset({"2", "3", "4"}),
            "C": frozenset({"3", "4", "5"}),
        }

    def test_three_set_hand_example(self):
        report = overlap_report(self.sets())
        assert report.sizes == {"A": 3, "B": 3, "C": 3}
        assert report.pairwise == {("A", "B"): 2, ("A", "C"): 1, ("B", "C"): 2}
        assert report.common_all == 1
        assert report.exclusive == {"A": 1, "B": 0, "C": 1}
        assert report.union_size == 5
        assert report.regions[("A",)] == 1
        assert report.regions[("B",)] == 0
        assert report.regions[("A", "B")] == 1
        assert report.regions[("B", "C")] == 1
        assert report.regions[("A", "B", "C")] == 1

    def test_disjoint_sets(self):
        report = overlap_report({"A": {"1"}, "B": {"2"}})
        assert report.pairwise == {("A", "B"): 0}
        assert report.common_all == 0
        assert report.exclusive == {"A": 1, "B": 1}
        assert report.union_size == 2

    def test_identical_sets(self):
        s = frozenset({"1", "2"})
        report = overlap_report({"A": s, "B": s})
        assert report.pairwise == {("A", "B"): 2}
        assert report.common_all == 2
        assert report.exclusive == {"A": 0, "B": 0}
        assert report.union_size == 2

    def test_needs_two_sets(self):
        with pytest.raises(InvalidInput):
            overlap_report({"A": {"1"}})

    def test_empty_set_rejected(self):
        with pytest.raises(InvalidInput):
            overlap_report({"A": {"1"}, "B": set()})

    def test_pct_of(self):
        report = overlap_report({"A": {"1", "2", "3", "4"}, "B": {"1"}})
        assert report.pct_of(1, "A") == 25.0
        assert report.pct_of(1, "B") == 100.0

    def test_as_dict_shape(self):
        d = overlap_report(self.sets()).as_dict()
        assert d["union_size"] == 5
        assert d["common_all"]["count"] == 1
        assert d["common_all"]["pct_of"]["A"] == pytest.approx(100.0 / 3)
        assert {tuple(p["models"]) for p in d["pairwise"]} == {("A", "B"), ("A", "C"), ("B", "C")}
        assert d["exclusive"]["B"] == {"count": 0, "pct": 0.0}

    @given(
        a=st.frozensets(st.sampled_from([str(i) for i in range(12)]), min_size=1),
        b=st.frozensets(st.sampled_from([str(i) for i in range(12)]), min_size=1),
        c=st.frozensets(st.sampled_from([str(i) for i in range(12)]), min_size=1),
    )
    @settings(max_examples=200)
    def test_inclusion_exclusion(self, a, b, c):
        """Region counts must satisfy the three-set inclusion-exclusion identity."""
        report = overlap_report({"A": a, "B": b, "C": c})
        assert report.union_size == len(a | b | c)
        assert report.union_size == (
            len(a) + len(b) + len(c)
            - report.pairwise[("A", "B")]
            - report.pairwise[("A", "C")]
            - report.pairwise[("B", "C")]
            + report.common_all
        )
        assert sum(report.regions.values()) == report.union_size
        for m, s in (("A", a), ("B", b), ("C", c)):
            in_regions = sum(count for sig, count in report.regions.items() if m in sig)
            assert in_regions == len(s)


class TestCrossEvaluate:
    def two_methods(self) -> ErrorLedger:
        ledger = ErrorLedger()
        rows = {
            "s0": ((10.0, 20.0), (2.0, 3.0)),
            "s1": ((1.0, 2.0), (8.0, 9.0)),
            "s2": ((5.0, 6.0), (4.0, 5.0)),
            "s3": ((0.5, 1.0), (6.0, 7.0)),
        }
        for sid, (m1, m2) in rows.items():
            ledger.add("m1", sid, *m1)
            ledger.add("m2", sid, *m2)
        return ledger

    def test_hand_example(self):
        # m1's hardest half by ADE is {s0, s2}; m2 averages (2+4)/2 and (3+5)/2 there.
        ledger = self.two_methods()
        assert cross_evaluate(ledger, "m1", "m2", 50) == (3.0, 4.0)

    def test_self_restriction_matches_top_k(self):
        ledger = self.two_methods()
        for k in (25, 50, 100):
            top = top_k_error(ledger, "m1", "ade", k)
            ade_mean, _ = cross_evaluate(ledger, "m1", "m1", k)
            assert ade_mean == pytest.approx(top.mean_error, abs=1e-12)

    def test_missing_row_rejected(self):
        ledger = self.two_methods()
        ledger.add("m3", "other", 1.0, 1.0)
        with pytest.raises(InvalidInput):
            cross_evaluate(ledger, "m1", "m3", 50)

    def test_metric_picks_difficulty_ranking(self):
        ledger = ErrorLedger()
        ledger.add("m1", "s0", 10.0, 1.0)
        ledger.add("m1", "s1", 1.0, 10.0)
        ledger.add("m2", "s0", 7.0, 7.0)
        ledger.add("m2", "s1", 3.0, 3.0)
        assert cross_evaluate(ledger, "m1", "m2", 50, metric="ade") == (7.0, 7.0)
        assert cross_evaluate(ledger, "m1", "m2", 50, metric="fde") == (3.0, 3.0)


class TestSummaryTable:
    def test_default_columns(self):
        ledger = ledger_from("m", {f"s{i}": (float(i), float(i)) for i in range(20)})
        rows = summary_table(ledger)
        assert len(rows) == 1
        row = rows[0]
        assert row["method"] == "m"
        for k in DEFAULT_K_LIST:
            assert f"top{k}_ade" in row
            assert f"top{k}_fde" in row
        assert row["overall_ade"] == pytest.approx(9.5)
        assert row["top10_ade"] == pytest.approx(18.5)

    def test_constant_errors_fill_every_cell(self):
        ledger = ledger_from("m", {f"s{i}": (2.5, 2.5) for i in range(30)})
        row = summary_table(ledger)[0]
        for key, value in row.items():
            if key != "method":
                assert value == pytest.approx(2.5, abs=1e-12)

    def test_rows_sorted_by_method(self):
        ledger = ErrorLedger()
        ledger.add("zeta", "s0", 1, 1)
        ledger.add("alpha", "s0", 1, 1)
        rows = summary_table(ledger, k_list=(100,))
        assert [r["method"] for r in rows] == ["alpha", "zeta"]

    def test_sort_by_ade_reuses_the_ade_slice(self):
        # ADE and FDE disagree about which sample is hardest.
        ledger = ledger_from("m", {"s0": (10.0, 1.0), "s1": (1.0, 10.0)})
        independent = summary_table(ledger, k_list=(50,))[0]
        assert independent["top50_ade"] == 10.0
        assert independent["top50_fde"] == 10.0
        coupled = summary_table(ledger, k_list=(50,), sort_by_ade=True)[0]
        assert coupled["top50_ade"] == 10.0
        assert coupled["top50_fde"] == 1.0

    def test_fractional_k_label(self):
        ledger = ledger_from("m", {"s0": (1.0, 1.0)})
        row = summary_table(ledger, k_list=(2.5,))[0]
        assert "top2.5_ade" in row

    def test_empty_ledger_rejected(self):
        with pytest.raises(InvalidInput):
            summary_table(ErrorLedger())

    def test_bad_k_rejected(self):
        ledger = ledger_from("m", {"s0": (1.0, 1.0)})
        with pytest.raises(InvalidInput):
            summary_table(ledger, k_list=(0,))


def reference_rows(ledger: ErrorLedger, k_list, sort_by_ade: bool) -> list[dict]:
    """summary_table built the plain way: per-K top_k_error calls, one sort each."""
    rows = []
    for method_id in ledger.method_ids():
        row = {"method": method_id}
        for k in k_list:
            label = str(int(k)) if float(k).is_integer() else str(k)
            by_ade = top_k_error(ledger, method_id, "ade", k)
            row[f"top{label}_ade"] = by_ade.mean_error
            if sort_by_ade:
                fdes = [ledger.row(method_id, sid)[1] for sid in by_ade.sample_ids]
                row[f"top{label}_fde"] = math.fsum(fdes) / len(fdes)
            else:
                row[f"top{label}_fde"] = top_k_error(ledger, method_id, "fde", k).mean_error
        for metric in METRICS:
            errors = [e for _, e in ledger.errors(method_id, metric)]
            row[f"overall_{metric}"] = math.fsum(errors) / len(errors)
        rows.append(row)
    return rows


@st.composite
def two_method_ledgers(draw) -> ErrorLedger:
    """Method "a" as ``ledgers`` draws it; "b" swaps its metrics or ties every sample."""
    tied = draw(st.booleans())
    ledger = ErrorLedger()
    for _, sid, ade_m, fde_m in draw(ledgers()):
        ledger.add("a", sid, ade_m, fde_m)
        ledger.add("b", sid, *((1.5, 2.5) if tied else (fde_m, ade_m)))
    return ledger


class TestSummaryTableMatchesPerKCalls:
    @given(two_method_ledgers(),
           st.lists(st.sampled_from([1, 2, 2.5, 5, 10, 33.3, 50, 99.9, 100]),
                    min_size=1, max_size=5),
           st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_rows_equal_the_per_k_reference(self, ledger, k_list, sort_by_ade):
        rows = summary_table(ledger, k_list, sort_by_ade=sort_by_ade)
        expected = reference_rows(ledger, k_list, sort_by_ade)
        assert rows == expected
        assert [list(row) for row in rows] == [list(row) for row in expected]

    @pytest.mark.parametrize("sort_by_ade, per_method", [(False, 2), (True, 1)])
    def test_each_method_and_metric_ranked_once(self, monkeypatch, sort_by_ade, per_method):
        ranked = []
        original = metrics._ranked

        def counting(ledger, method_id, metric):
            ranked.append((method_id, metric))
            return original(ledger, method_id, metric)

        monkeypatch.setattr(metrics, "_ranked", counting)
        ledger = ErrorLedger()
        for method_id in ("a", "b", "c"):
            for i in range(20):
                ledger.add(method_id, f"s{i:02d}", float(i % 7), float(i % 5))
        summary_table(ledger, DEFAULT_K_LIST, sort_by_ade=sort_by_ade)
        assert len(ranked) == 3 * per_method
        assert len(set(ranked)) == len(ranked)


def synth_samples(count: int = 60, horizon: int = 6) -> list[Sample]:
    config = replace(pinned_config(count), horizon=horizon, seed=11)
    return [sample for _, sample in generate_samples(config, pinned_predictors())]


def recorded(samples: list[Sample]) -> tuple[ErrorLedger, dict[str, list[fusion.FusedPrediction]]]:
    """The ledger, and the records per strategy that the hook saw, in sample order."""
    fused = {strategy: [] for strategy in STRATEGIES}

    def hook(sample, by_strategy):
        for strategy, pred in by_strategy.items():
            fused[strategy].append(pred)

    return fuse_and_score(samples, STRATEGIES, PINNED_PRIMARY, sample_hook=hook), fused


class TestFuseAndScoreRecords:
    def test_same_ledger_with_and_without_records(self):
        samples = synth_samples()
        with_records, fused = recorded(samples)
        without = fuse_and_score(samples, STRATEGIES, PINNED_PRIMARY)
        assert isinstance(without, ErrorLedger)
        assert list(without) == list(with_records)
        assert {strategy: len(preds) for strategy, preds in fused.items()} == {
            strategy: len(samples) for strategy in STRATEGIES}
        # The pinned primary passes through on some samples and not on others.
        passed = {pred.strategy for pred in fused["threshold"]}
        assert passed == {"threshold", "weighted"}

    def test_ensemble_rows_score_the_recorded_trajectories(self):
        samples = synth_samples(20)
        ledger, fused = recorded(samples)
        for strategy, preds in fused.items():
            for sample, pred in zip(samples, preds):
                gt = sample.ground_truth
                assert ledger.row(f"ensemble_{strategy}", sample.sample_id) == (
                    metrics.ade(pred.trajectory, gt), metrics.fde(pred.trajectory, gt))

    def test_no_spread_without_records(self, monkeypatch):
        def refuse(*args):
            raise NumericalError("spread measured")

        samples = synth_samples(20)
        expected = fuse_and_score(samples, STRATEGIES, PINNED_PRIMARY)
        monkeypatch.setattr(fusion, "ensemble_covariance", refuse)
        ledger = fuse_and_score(samples, STRATEGIES, PINNED_PRIMARY)
        assert list(ledger) == list(expected)
        with pytest.raises(NumericalError, match="spread measured"):
            recorded(samples)

    def test_hook_gets_records_without_keeping_them(self):
        """The hook sees each sample in order with its decided records; none are kept."""
        samples = synth_samples(20)
        seen = []
        result = fuse_and_score(samples, STRATEGIES, PINNED_PRIMARY,
                                sample_hook=lambda sample, fused: seen.append((sample, fused)))
        assert isinstance(result, ErrorLedger)
        assert [sample for sample, _ in seen] == samples
        for sample, fused in seen:
            assert fused == fusion.decide(sample, STRATEGIES, PINNED_PRIMARY).records()
            assert list(fused) == list(STRATEGIES)


def test_metric_names_and_defaults():
    assert METRICS == ("ade", "fde")
    assert DEFAULT_OVERLAP_K == 10.0
    assert 10 in DEFAULT_K_LIST
