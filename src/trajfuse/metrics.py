"""Per-sample error ledgers, long-tail Top-K% metrics, and overlap analysis.

The long-tail view asks: how bad is each method on the hardest slice of
the data, where "hardest" is defined by that method's own error
distribution?  A ledger of per-sample ADE/FDE rows feeds Top-K% means,
cross-method difficulty transfer, and Venn-style overlap reports over
the methods' hardest-sample sets.  ``fuse_and_score`` is the one
fuse-and-score pass over a dataset, loaded or generated; it returns the
ledger, and fused records leave it only through its ``sample_hook``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .core import Sample, Trajectory, ade, fde
from .errors import InvalidInput, NumericalError
from .fusion import DEFAULT_TAU, FusedPrediction, decide

__all__ = [
    "METRICS",
    "DEFAULT_K_LIST",
    "DEFAULT_OVERLAP_K",
    "ErrorLedger",
    "TopKResult",
    "OverlapReport",
    "ensemble_method_id",
    "build_ledger",
    "fuse_and_score",
    "top_k_error",
    "overlap_report",
    "cross_evaluate",
    "summary_table",
]

METRICS = ("ade", "fde")

DEFAULT_K_LIST = (1, 2, 3, 4, 5, 10)

DEFAULT_OVERLAP_K = 10.0


def ensemble_method_id(strategy: str) -> str:
    """Ledger method id for a fusion strategy, e.g. 'ensemble_weighted'."""
    return f"ensemble_{strategy}"


class ErrorLedger:
    """Rows of per-sample ADE/FDE keyed by (method_id, sample_id).

    Methods are typically individual models plus one or more
    ensemble_<strategy> entries, all sharing the same sample universe.
    Gaps (a method missing a sample) are recorded rather than silently
    dropped so coverage can be reported.
    """

    __slots__ = ("_methods", "gaps")

    def __init__(self) -> None:
        self._methods: dict[str, dict[str, tuple[float, float]]] = {}
        self.gaps: list[tuple[str, str]] = []

    def add(self, method_id: str, sample_id: str, ade_m: float, fde_m: float) -> None:
        if not method_id or not sample_id:
            raise InvalidInput("method_id and sample_id must be nonempty")
        for name, v in (("ade", ade_m), ("fde", fde_m)):
            if not (math.isfinite(v) and v >= 0):
                raise InvalidInput(
                    f"{name} for ({method_id}, {sample_id}) must be finite and >= 0, got {v}"
                )
        rows = self._methods.setdefault(method_id, {})
        if sample_id in rows:
            raise InvalidInput(f"duplicate ledger row ({method_id}, {sample_id})")
        rows[sample_id] = (ade_m, fde_m)

    def record_gap(self, method_id: str, sample_id: str) -> None:
        self.gaps.append((method_id, sample_id))

    def method_ids(self) -> tuple[str, ...]:
        return tuple(sorted(self._methods))

    def has(self, method_id: str, sample_id: str) -> bool:
        return sample_id in self._methods.get(method_id, ())

    def row(self, method_id: str, sample_id: str) -> tuple[float, float]:
        try:
            return self._methods[method_id][sample_id]
        except KeyError:
            raise InvalidInput(f"no ledger row for ({method_id}, {sample_id})") from None

    def errors(self, method_id: str, metric: str) -> list[tuple[str, float]]:
        """(sample_id, error) pairs for one method under 'ade' or 'fde'."""
        if metric not in METRICS:
            raise InvalidInput(f"metric must be one of {METRICS}, got '{metric}'")
        rows = self._methods.get(method_id)
        if not rows:
            raise InvalidInput(f"ledger has no rows for method '{method_id}'")
        idx = METRICS.index(metric)
        return [(sid, pair[idx]) for sid, pair in rows.items()]

    def sample_count(self, method_id: str) -> int:
        return len(self._methods.get(method_id, ()))

    def __len__(self) -> int:
        return sum(len(rows) for rows in self._methods.values())

    def __iter__(self) -> Iterator[tuple[str, str, float, float]]:
        for method_id, rows in self._methods.items():
            for sample_id, (ade_m, fde_m) in rows.items():
                yield method_id, sample_id, ade_m, fde_m


@dataclass(frozen=True, slots=True)
class TopKResult:
    """The hardest K% of one method's samples under one metric."""

    method_id: str
    metric: str
    k_percent: float
    member_count: int
    mean_error: float
    sample_ids: frozenset[str]

    def __post_init__(self):
        if self.member_count < 1:
            raise InvalidInput("member_count must be >= 1")
        if len(self.sample_ids) != self.member_count:
            raise InvalidInput(
                f"{len(self.sample_ids)} sample_ids for member_count {self.member_count}"
            )


@dataclass(frozen=True, slots=True)
class OverlapReport:
    """Venn decomposition of several methods' hardest-sample sets.

    ``regions`` is the exact partition of the union: each key is the
    sorted tuple of methods a sample belongs to, mapping to how many
    samples have exactly that membership.  ``pairwise`` holds full
    intersection counts |A∩B| (not exclusive regions).
    """

    model_ids: tuple[str, ...]
    sizes: dict[str, int]
    pairwise: dict[tuple[str, str], int]
    common_all: int
    exclusive: dict[str, int]
    union_size: int
    regions: dict[tuple[str, ...], int]

    def pct_of(self, count: int, model_id: str) -> float:
        """A count as a percentage of one model's own set size."""
        return 100.0 * count / self.sizes[model_id]

    def as_dict(self) -> dict:
        """JSON-ready structure with counts and per-model percentages."""
        return {
            "model_ids": list(self.model_ids),
            "sizes": dict(self.sizes),
            "union_size": self.union_size,
            "common_all": {
                "count": self.common_all,
                "pct_of": {m: self.pct_of(self.common_all, m) for m in self.model_ids},
            },
            "pairwise": [
                {
                    "models": list(pair),
                    "count": count,
                    "pct_of": {m: self.pct_of(count, m) for m in pair},
                }
                for pair, count in sorted(self.pairwise.items())
            ],
            "exclusive": {
                m: {"count": self.exclusive[m], "pct": self.pct_of(self.exclusive[m], m)}
                for m in self.model_ids
            },
            "regions": [
                {"models": list(sig), "count": count}
                for sig, count in sorted(self.regions.items())
            ],
        }


def build_ledger(
    samples: Iterable[Sample],
    predictions: Mapping[str, Mapping[str, Trajectory]],
) -> ErrorLedger:
    """Score every method's trajectory against each sample's ground truth.

    ``predictions`` maps method_id -> {sample_id -> Trajectory}.  A
    method missing a sample gets a recorded gap and a warning instead of
    a row; a sample without ground truth is an error, since silently
    skipping it would skew every method's denominator.
    """
    ledger = ErrorLedger()
    method_ids = list(predictions)
    for sample in samples:
        gt = sample.ground_truth
        if gt is None:
            raise InvalidInput(f"sample '{sample.sample_id}' has no ground truth to score against")
        for method_id in method_ids:
            traj = predictions[method_id].get(sample.sample_id)
            if traj is None:
                ledger.record_gap(method_id, sample.sample_id)
                continue
            ledger.add(method_id, sample.sample_id, ade(traj, gt), fde(traj, gt))
    if ledger.gaps:
        per_method: dict[str, int] = {}
        for method_id, _ in ledger.gaps:
            per_method[method_id] = per_method.get(method_id, 0) + 1
        detail = ", ".join(f"{m}: {n}" for m, n in sorted(per_method.items()))
        warnings.warn(
            f"{len(ledger.gaps)} sample(s) missing predictions ({detail}); "
            "those rows are omitted from the ledger",
            UserWarning,
            stacklevel=2,
        )
    return ledger


def fuse_and_score(
    samples: Iterable[Sample],
    strategies: Sequence[str] = (),
    primary_model_id: str | None = None,
    tau: float = DEFAULT_TAU,
    sample_hook: Callable[[Sample, dict[str, FusedPrediction]], None] | None = None,
) -> ErrorLedger:
    """Fuse every sample under each strategy and score members and ensembles.

    The ledger gets one row per (member, sample) for the member's
    most-likely mode and one ``ensemble_<strategy>`` row per (strategy,
    sample), scored from the decided trajectory.  Samples are consumed
    one at a time.  Fused records leave only through ``sample_hook``,
    which sees each sample with its records per strategy right after the
    sample is scored; without a hook no record is built, so no
    covariance is computed.
    """
    ledger = ErrorLedger()
    for sample in samples:
        gt = sample.ground_truth
        if gt is None:
            raise InvalidInput(f"sample '{sample.sample_id}' has no ground truth to score against")
        decision = decide(sample, strategies, primary_model_id, tau)
        for member in decision.members:
            ledger.add(member.model_id, sample.sample_id,
                       ade(member.trajectory, gt), fde(member.trajectory, gt))
        for strategy, trajectory in decision.trajectories.items():
            ledger.add(ensemble_method_id(strategy), sample.sample_id,
                       ade(trajectory, gt), fde(trajectory, gt))
        if sample_hook is not None:
            sample_hook(sample, decision.records())
    return ledger


def _top_k_count(n: int, k_percent: float) -> int:
    """ceil(K% of n) for K as its shortest decimal (0.07, not the binary
    float nearest it), in exact arithmetic, clamped to [1, n]."""
    from fractions import Fraction  # here: ~5 ms to import, and fuse and flags never rank
    return min(n, max(1, math.ceil(Fraction(repr(float(k_percent))) * n / 100)))


def _check_k(k_percent: float) -> None:
    if not (math.isfinite(k_percent) and 0 < k_percent <= 100):
        raise InvalidInput(f"k_percent must be in (0, 100], got {k_percent}")


def _ranked(ledger: ErrorLedger, method_id: str, metric: str) -> list[tuple[str, float]]:
    """One method's (sample_id, error) pairs, hardest first, ties by sample_id."""
    pairs = ledger.errors(method_id, metric)
    pairs.sort(key=lambda item: (-item[1], item[0]))
    return pairs


def _top_k(ranked: list[tuple[str, float]], k_percent: float) -> list[tuple[str, float]]:
    return ranked[:_top_k_count(len(ranked), k_percent)]


def _mean(errors: list[float]) -> float:
    try:
        return math.fsum(errors) / len(errors)
    except OverflowError:
        raise NumericalError(f"mean of {len(errors)} errors overflows the float range") from None


def top_k_error(ledger: ErrorLedger, method_id: str, metric: str, k_percent: float) -> TopKResult:
    """Mean error over the hardest ceil(K% x N) samples of one method.

    Samples are ranked by descending error under the chosen metric; ties
    at the cut are broken by lexicographic sample_id so the member set
    is deterministic across runs and platforms.
    """
    _check_k(k_percent)
    members = _top_k(_ranked(ledger, method_id, metric), k_percent)
    return TopKResult(
        method_id=method_id,
        metric=metric,
        k_percent=float(k_percent),
        member_count=len(members),
        mean_error=_mean([e for _, e in members]),
        sample_ids=frozenset(sid for sid, _ in members),
    )


def overlap_report(sets: Mapping[str, frozenset[str] | set[str]]) -> OverlapReport:
    """Decompose >= 2 hardest-sample sets into their Venn regions.

    Counts every exact-membership region of the union, then derives the
    full pairwise intersections, the all-methods intersection, and each
    method's exclusive count, so inclusion-exclusion identities can be
    checked directly on the output.
    """
    model_ids = tuple(sets)
    if len(model_ids) < 2:
        raise InvalidInput(f"overlap needs >= 2 sets, got {len(model_ids)}")
    for m in model_ids:
        if len(sets[m]) < 1:
            raise InvalidInput(f"set for '{m}' is empty")

    membership: dict[str, list[str]] = {}
    for m in model_ids:
        for sid in sets[m]:
            membership.setdefault(sid, []).append(m)
    regions: dict[tuple[str, ...], int] = {}
    for sig_models in membership.values():
        sig = tuple(sorted(sig_models))
        regions[sig] = regions.get(sig, 0) + 1
    # Always report singleton and full-intersection regions, even at zero.
    for m in model_ids:
        regions.setdefault((m,), 0)
    regions.setdefault(tuple(sorted(model_ids)), 0)

    pairwise: dict[tuple[str, str], int] = {}
    for i, a in enumerate(model_ids):
        for b in model_ids[i + 1:]:
            pair = tuple(sorted((a, b)))
            pairwise[pair] = sum(
                count for sig, count in regions.items() if a in sig and b in sig
            )
    full_sig = tuple(sorted(model_ids))
    return OverlapReport(
        model_ids=model_ids,
        sizes={m: len(sets[m]) for m in model_ids},
        pairwise=pairwise,
        common_all=regions[full_sig],
        exclusive={m: regions[(m,)] for m in model_ids},
        union_size=len(membership),
        regions=regions,
    )


def cross_evaluate(
    ledger: ErrorLedger,
    difficulty_of: str,
    evaluate: str,
    k_percent: float,
    metric: str = "ade",
) -> tuple[float, float]:
    """Mean (ade, fde) of one method on another method's hardest samples.

    The difficulty set is ``difficulty_of``'s top-K% under ``metric``;
    ``evaluate`` must have a ledger row for every sample in that set.
    With evaluate == difficulty_of this reduces to top_k_error.
    """
    top = top_k_error(ledger, difficulty_of, metric, k_percent)
    rows = [ledger.row(evaluate, sid) for sid in top.sample_ids]
    return (_mean([a for a, _ in rows]), _mean([f for _, f in rows]))


def _k_label(k_percent: float) -> str:
    return str(int(k_percent)) if float(k_percent).is_integer() else str(k_percent)


def summary_table(
    ledger: ErrorLedger,
    k_list: Sequence[float] = DEFAULT_K_LIST,
    sort_by_ade: bool = False,
) -> list[dict[str, object]]:
    """One row per method: Top-K% ADE/FDE for each K, then overall means.

    By default ADE and FDE columns rank samples independently under
    their own metric.  With ``sort_by_ade`` the ADE ranking picks the
    sample set and the FDE column averages FDE over that same set.
    Rows are ordered by method_id; keys are ``top<K>_ade`` etc.
    """
    if len(ledger) == 0:
        raise InvalidInput("ledger is empty")
    for k in k_list:
        _check_k(k)
    rows: list[dict[str, object]] = []
    for method_id in ledger.method_ids():
        # Each metric is ranked once and every K cut from that ranking.
        by_ade = _ranked(ledger, method_id, "ade")
        by_fde = None if sort_by_ade else _ranked(ledger, method_id, "fde")
        row: dict[str, object] = {"method": method_id}
        for k in k_list:
            label = _k_label(k)
            hardest = _top_k(by_ade, k)
            row[f"top{label}_ade"] = _mean([e for _, e in hardest])
            if by_fde is None:
                row[f"top{label}_fde"] = _mean([ledger.row(method_id, sid)[1]
                                                for sid, _ in hardest])
            else:
                row[f"top{label}_fde"] = _mean([e for _, e in _top_k(by_fde, k)])
        row["overall_ade"] = _mean([e for _, e in by_ade])
        row["overall_fde"] = _mean([e for _, e in ledger.errors(method_id, "fde")])
        rows.append(row)
    return rows
