"""Release gate: the seven checks a build must clear before it ships.

Each check prints one "[ACCEPTANCE] criterion N PASS|FAIL: ..." line on
stdout; run with -s to see them alongside the pytest dots.
"""

from __future__ import annotations

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

from trajfuse.cli import main
from trajfuse.core import Mode, ModelOutput, Sample, Trajectory, ade, fde
from trajfuse.fusion import fuse_threshold, fuse_weighted
from trajfuse.metrics import ErrorLedger, overlap_report, top_k_error
from trajfuse.synth import InitialState, _path

from conftest import weight_values


@contextmanager
def criterion(number: int, guard: str):
    try:
        yield
    except BaseException:
        print(f"\n[ACCEPTANCE] criterion {number} FAIL: {guard}")
        raise
    print(f"\n[ACCEPTANCE] criterion {number} PASS: {guard}")


def random_sample(rng: random.Random, index: int, max_confidence: float) -> Sample:
    """2-5 members, 1-3 modes each, shared horizon, coordinates within +-10 m."""
    horizon = rng.randint(1, 30)
    dt = rng.choice((0.1, 0.5, 1.0))
    sid = f"s{index:05d}"
    outputs = []
    for j in range(rng.randint(2, 5)):
        modes = tuple(
            Mode(
                trajectory=Trajectory(
                    [(rng.uniform(-10, 10), rng.uniform(-10, 10)) for _ in range(horizon)],
                    dt=dt,
                ),
                confidence=rng.uniform(1e-6, max_confidence),
            )
            for _ in range(rng.randint(1, 3))
        )
        outputs.append(ModelOutput(model_id=f"m{j}", sample_id=sid, modes=modes))
    return Sample(sample_id=sid, ground_truth=None, outputs=tuple(outputs))


def pick_most_likely(output: ModelOutput) -> Mode:
    best = output.modes[0]
    for mode in output.modes[1:]:
        if mode.confidence > best.confidence:
            best = mode
    return best


def naive_fuse(sample: Sample):
    """Plain-loop restatement of the fusion math, no shared code paths."""
    picks = [pick_most_likely(o) for o in sample.outputs]
    total = math.fsum(m.confidence for m in picks)
    weights = [m.confidence / total for m in picks]
    coords = [m.trajectory.coords for m in picks]
    horizon = len(coords[0])
    fused = []
    for t in range(horizon):
        fx = math.fsum(w * c[t][0] for w, c in zip(weights, coords))
        fy = math.fsum(w * c[t][1] for w, c in zip(weights, coords))
        fused.append((fx, fy))
    xx_steps, yy_steps, xy_steps = [], [], []
    for t, (fx, fy) in enumerate(fused):
        devs = [(c[t][0] - fx, c[t][1] - fy) for c in coords]
        xx_steps.append(math.fsum(w * dx * dx for w, (dx, _) in zip(weights, devs)))
        yy_steps.append(math.fsum(w * dy * dy for w, (_, dy) in zip(weights, devs)))
        xy_steps.append(math.fsum(w * dx * dy for w, (dx, dy) in zip(weights, devs)))
    xx = math.fsum(xx_steps) / horizon
    yy = math.fsum(yy_steps) / horizon
    xy = math.fsum(xy_steps) / horizon
    det = max(xx * yy - xy * xy, 0.0)
    return weights, fused, (xx, yy, xy), det, 1.0 / (1.0 + det)


def test_criterion_1_fusion_matches_naive_oracle():
    with criterion(1, "fuse_weighted matches a plain-loop oracle on 10,000 "
                      "random samples within 1e-9, in under 10 s"):
        rng = random.Random(20260818)
        started = time.perf_counter()
        for index in range(10_000):
            sample = random_sample(rng, index, max_confidence=10.0)
            fused = fuse_weighted(sample)
            weights, coords, (xx, yy, xy), det, confidence = naive_fuse(sample)
            for got, want in zip(weight_values(fused), weights):
                assert abs(got - want) <= 1e-9
            for (gx, gy), (wx, wy) in zip(fused.trajectory.coords, coords):
                assert abs(gx - wx) <= 1e-9
                assert abs(gy - wy) <= 1e-9
            cov = fused.covariance
            assert abs(cov.xx - xx) <= 1e-9
            assert abs(cov.yy - yy) <= 1e-9
            assert abs(cov.xy - xy) <= 1e-9
            assert abs(cov.det - det) <= 1e-9
            assert abs(fused.confidence - confidence) <= 1e-9
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"oracle comparison took {elapsed:.1f} s"


def scale_confidences(sample: Sample, factor: float) -> Sample:
    outputs = tuple(
        ModelOutput(
            model_id=o.model_id,
            sample_id=o.sample_id,
            modes=tuple(
                Mode(trajectory=m.trajectory, confidence=m.confidence * factor)
                for m in o.modes
            ),
        )
        for o in sample.outputs
    )
    return Sample(sample_id=sample.sample_id, ground_truth=None, outputs=outputs)


def force_agreement(sample: Sample) -> Sample:
    shared = pick_most_likely(sample.outputs[0]).trajectory
    outputs = tuple(
        ModelOutput(
            model_id=o.model_id,
            sample_id=o.sample_id,
            modes=(Mode(trajectory=shared, confidence=pick_most_likely(o).confidence),),
        )
        for o in sample.outputs
    )
    return Sample(sample_id=sample.sample_id, ground_truth=None, outputs=outputs)


def test_criterion_2_fusion_invariants():
    with criterion(2, "seven fusion invariants hold on 1,000 random ensembles each"):
        rng = random.Random(8142026)
        samples = [random_sample(rng, i, max_confidence=1.0) for i in range(1000)]

        for sample in samples:
            fused = fuse_weighted(sample)

            # Weight conservation.
            assert abs(math.fsum(weight_values(fused)) - 1.0) <= 1e-9

            # Scaling every confidence leaves weights and trajectory alone.
            rescaled = fuse_weighted(scale_confidences(sample, rng.uniform(0.5, 2000.0)))
            for got, want in zip(weight_values(rescaled), weight_values(fused)):
                assert abs(got - want) <= 1e-9
            for (gx, gy), (wx, wy) in zip(rescaled.trajectory.coords, fused.trajectory.coords):
                assert abs(gx - wx) <= 1e-9
                assert abs(gy - wy) <= 1e-9

            # The fused point never leaves the members' bounding box.
            member_coords = [pick_most_likely(o).trajectory.coords for o in sample.outputs]
            for t, (fx, fy) in enumerate(fused.trajectory.coords):
                xs = [c[t][0] for c in member_coords]
                ys = [c[t][1] for c in member_coords]
                assert min(xs) - 1e-9 <= fx <= max(xs) + 1e-9
                assert min(ys) - 1e-9 <= fy <= max(ys) + 1e-9

            # Member order is irrelevant.
            shuffled = list(sample.outputs)
            rng.shuffle(shuffled)
            permuted = fuse_weighted(
                Sample(sample_id=sample.sample_id, ground_truth=None,
                       outputs=tuple(shuffled))
            )
            want = dict(fused.weights.entries)
            got = dict(permuted.weights.entries)
            assert got.keys() == want.keys()
            assert all(abs(got[k] - want[k]) <= 1e-9 for k in want)
            for (gx, gy), (wx, wy) in zip(permuted.trajectory.coords, fused.trajectory.coords):
                assert abs(gx - wx) <= 1e-9
                assert abs(gy - wy) <= 1e-9
            assert abs(permuted.covariance.det - fused.covariance.det) <= 1e-9
            assert abs(permuted.confidence - fused.confidence) <= 1e-9

            # The covariance summary stays positive semi-definite.
            assert fused.covariance.xx >= -1e-9
            assert fused.covariance.yy >= -1e-9
            assert fused.covariance.det >= 0.0
            assert 0.0 < fused.confidence <= 1.0

            # Perfect agreement collapses the spread entirely.
            assert fuse_weighted(force_agreement(sample)).confidence == 1.0

            # A threshold nobody reaches defers to the weighted result.
            primary = sample.outputs[0].model_id
            assert fuse_threshold(sample, primary, tau=1.5) == fused


def oracle_top_k(pairs: list[tuple[str, float]], k: float):
    n = len(pairs)
    count = min(n, max(1, math.ceil(Fraction(k) * n / 100)))
    ordered = sorted(pairs, key=lambda p: (-p[1], p[0]))[:count]
    return count, {sid for sid, _ in ordered}, math.fsum(e for _, e in ordered) / count


def test_criterion_3_top_k_matches_sort_and_slice_oracle():
    with criterion(3, "top_k_error matches a sort-and-slice oracle on 1,000 "
                      "random ledgers, ties included, and tail means are monotone"):
        rng = random.Random(31415)
        k_pool = (1, 2, 3, 4, 5, 10, 25, 50, 100, 0.5, 2.5, 6.25, 12.5)
        for index in range(1000):
            n = 10_000 if index == 0 else rng.randint(1, 60)
            quantize = rng.random() < 0.5
            pairs = []
            ledger = ErrorLedger()
            for i in range(n):
                err = rng.uniform(0.0, 50.0)
                if quantize:
                    err = round(err, 1)
                pairs.append((f"s{i:05d}", err))
                ledger.add("m", f"s{i:05d}", err, err * 2.0)

            for k in rng.sample(k_pool, 4):
                got = top_k_error(ledger, "m", "ade", k)
                count, ids, mean = oracle_top_k(pairs, k)
                assert len(got.sample_ids) == count
                assert got.sample_ids == ids
                assert abs(got.mean_error - mean) <= 1e-9

            fde_pairs = [(sid, e * 2.0) for sid, e in pairs]
            got = top_k_error(ledger, "m", "fde", 10)
            count, ids, mean = oracle_top_k(fde_pairs, 10)
            assert (len(got.sample_ids), got.sample_ids) == (count, ids)
            assert abs(got.mean_error - mean) <= 1e-9

            means = [top_k_error(ledger, "m", "ade", k).mean_error
                     for k in (1, 2, 5, 10, 100)]
            assert all(a >= b - 1e-9 for a, b in zip(means, means[1:]))


def one_point_sample(*members: tuple[float, float, float]) -> Sample:
    """Members as (x, y, confidence) single-waypoint trajectories."""
    outputs = tuple(
        ModelOutput(
            model_id=f"m{j}",
            sample_id="s0",
            modes=(Mode(trajectory=Trajectory([(x, y)]), confidence=c),),
        )
        for j, (x, y, c) in enumerate(members)
    )
    return Sample(sample_id="s0", ground_truth=None, outputs=outputs)


def test_criterion_4_hand_verified_numerics():
    with criterion(4, "hand-computed fusion, error, tail, and kinematics "
                      "values reproduce within 1e-9"):
        # 1:3 confidences put the fused point three quarters of the way over.
        fused = fuse_weighted(one_point_sample((0.0, 0.0, 1.0), (4.0, 0.0, 3.0)))
        assert abs(weight_values(fused)[0] - 0.25) <= 1e-9
        assert abs(weight_values(fused)[1] - 0.75) <= 1e-9
        assert abs(fused.trajectory.coords[0][0] - 3.0) <= 1e-9
        assert abs(fused.trajectory.coords[0][1] - 0.0) <= 1e-9
        assert abs(fused.covariance.xx - 3.0) <= 1e-9
        assert abs(fused.covariance.det - 0.0) <= 1e-9
        assert abs(fused.confidence - 1.0) <= 1e-9

        # A unit star spreads evenly: det 0.25, confidence 0.8.
        star = fuse_weighted(one_point_sample(
            (1.0, 0.0, 1.0), (0.0, 1.0, 1.0), (-1.0, 0.0, 1.0), (0.0, -1.0, 1.0)))
        assert abs(star.covariance.xx - 0.5) <= 1e-9
        assert abs(star.covariance.yy - 0.5) <= 1e-9
        assert abs(star.covariance.xy - 0.0) <= 1e-9
        assert abs(star.covariance.det - 0.25) <= 1e-9
        assert abs(star.confidence - 0.8) <= 1e-9

        # Collinear spread has zero area, so confidence stays 1.
        line = fuse_weighted(one_point_sample((1.0, 0.0, 1.0), (-1.0, 0.0, 1.0)))
        assert abs(line.covariance.det - 0.0) <= 1e-9
        assert abs(line.confidence - 1.0) <= 1e-9

        # Distances 0.5, 0.5, 1, 1 average to 0.75 and end at 1.
        gt = Trajectory([(0, 0), (1, 0), (2, 0), (3, 0)])
        pred = Trajectory([(0, 0.5), (1, 0.5), (2, 1.0), (3, 1.0)])
        assert abs(ade(pred, gt) - 0.75) <= 1e-9
        assert abs(fde(pred, gt) - 1.0) <= 1e-9

        # Hardest 10% of the errors 1..100 are 91..100, mean 95.5.
        ledger = ErrorLedger()
        for i in range(1, 101):
            ledger.add("m", f"e{i:03d}", float(i), float(i))
        tail = top_k_error(ledger, "m", "ade", 10)
        assert len(tail.sample_ids) == 10
        assert tail.sample_ids == {f"e{i:03d}" for i in range(91, 101)}
        assert abs(tail.mean_error - 95.5) <= 1e-9

        # A quarter circle at unit speed ends at (2/pi, 2/pi).
        state = InitialState(x=0.0, y=0.0, heading=0.0, speed=1.0,
                             turn_rate=math.pi / 2, maneuver="constant_turn")
        arc = _path("constant_turn", state, state.speed, state.turn_rate, horizon=4, dt=0.25)
        end_x, end_y = arc[-1]
        assert abs(end_x - 2 / math.pi) <= 1e-9
        assert abs(end_y - 2 / math.pi) <= 1e-9


# Frozen on the first pinned 10,000-sample run; (overall_ade, overall_fde,
# top10_ade, top10_fde) per method.  Any drift is a behavior change.
GOLDENS = {
    "const_turn_rate": (0.5249698030670966, 0.9118412460530683,
                        1.9462506772386103, 3.991667615747443),
    "const_velocity": (5.370674830183806, 12.645393634303552,
                       24.436721807150704, 57.85711437066515),
    "ensemble_simple": (2.0273734759168316, 4.511009321913781,
                        8.16322303734296, 19.295212093017064),
    "ensemble_threshold": (0.31868889629046143, 0.3660526496930033,
                           0.9307550091593281, 1.4501736392913354),
    "ensemble_weighted": (0.3193134815802, 0.3668306771463764,
                          0.9307550091593281, 1.4501736392913354),
    "noisy_oracle": (0.922918391299247, 0.9259861465051008,
                     1.1201109129371252, 1.9249332836604682),
}

MEMBER_IDS = ("const_velocity", "const_turn_rate", "noisy_oracle")


def overall_mean(ledger: ErrorLedger, method_id: str, metric: str) -> float:
    errors = [e for _, e in ledger.errors(method_id, metric)]
    return math.fsum(errors) / len(errors)


def test_criterion_5_pinned_run_reproduces_goldens(pinned_run):
    with criterion(5, "the pinned 10,000-sample run reproduces its frozen "
                      "goldens and the weighted ensemble beats every member"):
        ledger = pinned_run.result.ledger
        for method, (o_ade, o_fde, t_ade, t_fde) in GOLDENS.items():
            assert abs(overall_mean(ledger, method, "ade") - o_ade) <= 1e-9, method
            assert abs(overall_mean(ledger, method, "fde") - o_fde) <= 1e-9, method
            assert abs(top_k_error(ledger, method, "ade", 10).mean_error - t_ade) <= 1e-9, method
            assert abs(top_k_error(ledger, method, "fde", 10).mean_error - t_fde) <= 1e-9, method

        weighted_overall = overall_mean(ledger, "ensemble_weighted", "ade")
        weighted_tail = top_k_error(ledger, "ensemble_weighted", "ade", 10).mean_error
        for member in MEMBER_IDS:
            assert weighted_overall < overall_mean(ledger, member, "ade")
            assert weighted_tail < top_k_error(ledger, member, "ade", 10).mean_error
        assert weighted_overall < overall_mean(ledger, "ensemble_simple", "ade")

        assert pinned_run.elapsed_s < 60.0, f"pinned run took {pinned_run.elapsed_s:.1f} s"


def test_criterion_6_overlap_identities(pinned_run):
    with criterion(6, "hardest-sample overlap obeys inclusion-exclusion on "
                      "1,000 random triples and every member keeps exclusive mass"):
        rng = random.Random(606)
        for _ in range(1000):
            universe = [f"x{i}" for i in range(rng.randint(3, 60))]
            sets = {}
            for name in ("A", "B", "C"):
                p = rng.uniform(0.2, 0.8)
                chosen = {u for u in universe if rng.random() < p}
                sets[name] = chosen or {rng.choice(universe)}
            report = overlap_report(sets)
            a, b, c = (sets[n] for n in ("A", "B", "C"))
            assert report.union_size == len(a | b | c)
            included_excluded = (
                len(a) + len(b) + len(c)
                - report.pairwise[("A", "B")]
                - report.pairwise[("A", "C")]
                - report.pairwise[("B", "C")]
                + report.common_all
            )
            assert report.union_size == included_excluded
            assert sum(report.regions.values()) == report.union_size
            assert report.exclusive["A"] == len(a - b - c)

        ledger = pinned_run.result.ledger
        tails = {m: top_k_error(ledger, m, "ade", 10).sample_ids for m in MEMBER_IDS}
        report = overlap_report(tails)
        assert report.exclusive == {"const_velocity": 900, "const_turn_rate": 900,
                                    "noisy_oracle": 800}
        assert all(count > 0 for count in report.exclusive.values())
        assert report.common_all == 0
        assert report.union_size == 2800
        assert report.pairwise[("const_turn_rate", "const_velocity")] == 0
        assert report.pairwise[("const_velocity", "noisy_oracle")] == 100
        assert report.pairwise[("const_turn_rate", "noisy_oracle")] == 100


SYNTH_FILES = (
    "manifest.json", "predictions.ndjson", "ground_truth.ndjson",
    "fused_weighted.ndjson", "fused_simple.ndjson", "fused_threshold.ndjson",
    "summary.csv", "overlap.csv",
)


def test_criterion_7_byte_identical_across_threads(tmp_path: Path):
    with criterion(7, "every command is byte-identical across reruns and "
                      "thread counts"):
        synth = ["synth", "--samples", "120", "--horizon", "8", "--seed", "99"]
        dirs = [tmp_path / name for name in ("first", "again", "parallel")]
        for out, threads in zip(dirs, ("1", "1", "4")):
            assert main(synth + ["--threads", threads, "--out", str(out)]) == 0
        for name in SYNTH_FILES:
            reference = (dirs[0] / name).read_bytes()
            assert (dirs[1] / name).read_bytes() == reference, name
            assert (dirs[2] / name).read_bytes() == reference, name

        data = dirs[0]
        inputs = ["--manifest", str(data / "manifest.json"),
                  "--predictions", str(data / "predictions.ndjson")]
        labeled = inputs + ["--ground-truth", str(data / "ground_truth.ndjson")]
        commands = {
            "fuse.ndjson": ["fuse", *inputs, "--strategy", "threshold",
                            "--primary-model", "const_turn_rate", "--tau", "0.6"],
            "summary.csv": ["eval", *labeled, "--strategy", "all",
                            "--primary-model", "const_turn_rate"],
            "overlap.csv": ["overlap", *labeled, "--overlap-k", "10"],
            "flags.csv": ["flags", "--fused", str(data / "fused_weighted.ndjson"),
                          "--confidence-floor", "0.9"],
        }
        for filename, argv in commands.items():
            outputs = []
            variants = [["--threads", "1"], ["--threads", "1"], ["--threads", "4"]]
            if argv[0] == "flags":
                variants = [[], []]
            for i, extra in enumerate(variants):
                out = tmp_path / f"{i}_{filename}"
                assert main(argv + extra + ["--out", str(out)]) == 0
                outputs.append(out.read_bytes())
            assert all(blob == outputs[0] for blob in outputs[1:]), filename
