"""The trajfuse benchmark: time the five CLI commands end to end, or trace them per layer.

    python3 perfbench/run.py --workload pinned --seed 1 --seconds 55 --trace 0
    python3 perfbench/selfcheck.py      # the same pipeline at 51 samples, in seconds

Each run generates its workload's dumps from ``--seed`` with the
benchmark's own numpy generator, then repeats rounds of ``synth``,
``fuse``, ``flags``, ``eval`` and ``overlap`` as ``python -m
trajfuse.cli`` subprocesses (default flags apart from output paths, the
threshold primary and the flags floor) until ``--seconds`` is used up.
Every output of every round is checked against the numpy oracle in
``oracle.py``; a nonzero exit, a JSON error on stderr or a mismatch is a
failed op.  End-to-end timings are medians over blocks of a few rounds
(see ``block_median``).

With ``--trace 1`` each round also replays the commands in-process,
serially, once plain and once traced (see ``tracing.py``), and the run
prints per-layer metrics instead.  The last stdout line is the result
object; the line before it carries provenance.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np

import dataset
import oracle

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, "perfbench", "work")
COMMANDS = ("synth", "fuse", "flags", "eval", "overlap")
# Cold starts measured before the first round; one more is taken per round.
SETUP_RUNS = 3
# The member synth's threshold strategy trusts when --primary-model is not given.
SYNTH_PRIMARY = "const_turn_rate"
RESIDUAL_COMMANDS = ("fuse", "eval", "overlap", "synth")
# Consecutive rounds pooled into one sample of an end-to-end metric.  On a
# shared host single invocations fall into a fast and a slow mode up to
# 1.5x apart, and the share of slow ones changes within seconds, so a plain
# median over rounds jumps between the modes from run to run; the mean of a
# few consecutive rounds lies between them.
BLOCK = 3


@dataclass(frozen=True)
class Workload:
    """A dump shape; every workload runs all five commands on its own data."""

    samples: int
    modes: tuple[int, ...]
    horizon: int
    one_file_per_model: bool
    primary: str
    stream: int


# Sample counts of the form 100q + 1 make every Top-K and overlap set size
# change if even one sample goes unscored.
WORKLOADS = {
    # The pinned shape: 3 members with 5/5/3 modes, H=12, one predictions
    # file; mode selection does real work and loading dominates eval.
    "pinned": Workload(401, (5, 5, 3), 12, False, "model00", 1),
    # 10 single-mode members, H=30, one file per member: about as many
    # coordinates as pinned, but 8x larger fusion per sample, trivial
    # selection, 13 ledger methods and the multi-file merge.
    "wide_top1": Workload(201, (1,) * 10, 30, True, "model00", 2),
}


@dataclass
class Op:
    """One subprocess command: wall seconds, its own peak RSS and CPU, and problems."""

    wall: float
    rss_mb: float
    cpu_s: float
    problems: list[str]


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_cli(args: list[str], work: str) -> Op:
    """Run ``python -m trajfuse.cli`` and read this child's own rusage via wait4.

    RUSAGE_CHILDREN would report the largest RSS of every child so far.
    """
    log = os.path.join(work, "stderr.log")
    with open(log, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "trajfuse.cli", *args], cwd=work,
                                env=cli_env(), stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    problems = [] if proc.returncode == 0 else [f"{args[0]} exited {proc.returncode}"]
    with open(log, encoding="utf-8", errors="replace") as f:
        for line in f:
            try:
                obj = json.loads(line)
            except ValueError:
                continue
            if isinstance(obj, dict) and "error" in obj:
                problems.append(f"{args[0]}: {line.strip()}")
    return Op(wall, usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime, problems)


def cli_args(cmd: str, job) -> list[str]:
    data = ["--manifest", job.manifest, "--predictions", *job.predictions]
    return {
        "synth": ["synth", "--samples", str(job.samples), "--horizon", str(job.horizon),
                  "--seed", str(job.seed), "--out", job.path("synth")],
        "fuse": ["fuse", *data, "--out", job.path("fused.ndjson")],
        "flags": ["flags", "--fused", job.path("fused.ndjson"),
                  "--confidence-floor", repr(job.floor), "--out", job.path("flags.csv")],
        "eval": ["eval", *data, "--ground-truth", job.ground_truth, "--strategy", "all",
                 "--primary-model", job.primary, "--out", job.path("summary.csv")],
        "overlap": ["overlap", *data, "--ground-truth", job.ground_truth,
                    "--out", job.path("overlap.csv")],
    }[cmd]


def check_outputs(cmd: str, job, ds, want) -> list[str]:
    """Oracle problems in what ``cmd`` wrote for ``job``; [] when correct."""
    try:
        if cmd == "synth":
            out = job.path("synth")
            made = dataset.read(os.path.join(out, "manifest.json"),
                                [os.path.join(out, "predictions.ndjson")],
                                os.path.join(out, "ground_truth.ndjson"))
            if (made.samples, made.horizon) != (job.samples, job.horizon):
                return [f"synth wrote {made.samples}x{made.horizon}, "
                        f"asked {job.samples}x{job.horizon}"]
            exp = oracle.expected(made, SYNTH_PRIMARY)
            bad = [p for s in oracle.STRATEGIES for p in oracle.check_fused(
                os.path.join(out, f"fused_{s}.ndjson"), made, exp.fused[s])]
            bad += oracle.check_summary(os.path.join(out, "summary.csv"), exp.summary)
            return bad + oracle.check_overlap(os.path.join(out, "overlap.csv"), exp.overlap)
        if cmd == "fuse":
            return oracle.check_fused(job.path("fused.ndjson"), ds, want.fused["weighted"])
        if cmd == "flags":
            return oracle.check_flags(job.path("flags.csv"), ds, want.fused["weighted"],
                                      job.floor)
        if cmd == "eval":
            return oracle.check_summary(job.path("summary.csv"), want.summary)
        return oracle.check_overlap(job.path("overlap.csv"), want.overlap)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as e:
        return [f"{cmd}: unreadable output ({type(e).__name__}: {e})"]


def provenance(seed: int, wl: Workload, paths: dict) -> dict:
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "trajfuse")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as f:
                digest.update(name.encode() + b"\0" + f.read())
    sha = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    inputs = [paths["manifest"], paths["ground_truth"], *paths["predictions"]]
    records = 0
    for path in paths["predictions"]:
        with open(path, "rb") as f:
            records += sum(1 for _ in f)
    return {
        "git_sha": sha, "source_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "threads": os.cpu_count() or 1,
        "python": platform.python_version(), "numpy": np.__version__, "seed": seed,
        "workload": dataclasses.asdict(wl),
        "input_records": records, "input_bytes": sum(os.path.getsize(p) for p in inputs),
    }


def median(values) -> float:
    return statistics.median(values) if values else float("nan")


def block_median(values) -> float:
    """Median over blocks of BLOCK or more consecutive values of each block's mean."""
    blocks = np.array_split(np.asarray(values, dtype=float), max(1, len(values) // BLOCK))
    return float(np.median([b.mean() for b in blocks]))


def run(name: str, wl: Workload, seed: int, seconds: float, trace: bool,
        work: str = WORK) -> tuple[dict, dict]:
    """One benchmark run in a fresh ``work`` directory.

    Returns the result object, and provenance plus the raw samples.
    """
    import tracing  # imports trajfuse, so only once SRC is on sys.path

    if os.path.isdir(work):
        shutil.rmtree(work)
    os.makedirs(work)
    ds = dataset.generate(name, wl.samples, wl.modes, wl.horizon, seed, wl.stream)
    paths = dataset.write(ds, os.path.join(work, "inputs"), wl.one_file_per_model)
    want = oracle.expected(ds, wl.primary)
    # A floor at the median fused confidence flags about half the samples;
    # the CLI default of 0.5 would flag almost none.
    floor = float(np.median(want.fused["weighted"].conf))
    jobs = {kind: tracing.Job(paths["manifest"], tuple(paths["predictions"]),
                              paths["ground_truth"], wl.primary, floor, wl.samples,
                              wl.horizon, seed, os.path.join(work, kind))
            for kind in ("cli", "plain", "traced")}
    for job in jobs.values():
        os.makedirs(job.out, exist_ok=True)

    attempted = failed = 0
    problems: list[str] = []

    def record(op_problems: list[str]) -> None:
        nonlocal attempted, failed
        attempted += 1
        if op_problems:
            failed += 1
            problems.extend(op_problems)

    def replay(tr, kind: str, prefix: str) -> dict[str, float]:
        try:
            seconds = tracing.replay(tr, jobs[kind], prefix)
        except Exception as e:  # noqa: BLE001 - a failed replay is a failed op
            record([f"in-process {kind} replay: {type(e).__name__}: {e}"])
            return {}
        for cmd in COMMANDS:
            record(check_outputs(cmd, jobs[kind], ds, want))
        return seconds

    setup: list[float] = []

    def cold_start() -> None:
        op = run_cli(["--help"], work)
        record(op.problems)
        setup.append(op.wall)

    run_cli(["--help"], work)  # warms the bytecode cache; not measured
    for _ in range(SETUP_RUNS):
        cold_start()

    walls: dict[str, list[float]] = {c: [] for c in COMMANDS}
    cpu: dict[str, list[float]] = {c: [] for c in COMMANDS}
    rates, peaks, layers, overheads = [], [], [], []
    beyond_replay: dict[str, list[float]] = {c: [] for c in RESIDUAL_COMMANDS}
    tracer = tracing.Tracer()
    round_times: list[float] = []
    start = time.perf_counter()
    while not round_times or time.perf_counter() - start + median(round_times) <= seconds:
        began = time.perf_counter()
        cold_start()
        total = peak = 0.0
        for cmd in COMMANDS:
            op = run_cli(cli_args(cmd, jobs["cli"]), work)
            record(op.problems + check_outputs(cmd, jobs["cli"], ds, want))
            walls[cmd].append(op.wall)
            cpu[cmd].append(op.cpu_s)
            total += op.wall
            peak = max(peak, op.rss_mb)
        rates.append(wl.samples * len(COMMANDS) / total)
        peaks.append(peak)
        if trace:
            # Plain and traced replays alternate which goes first, and are
            # compared within the round, so slow drift of the host cancels.
            n = len(round_times)
            seconds_of = {}
            for kind in ("plain", "traced") if n % 2 == 0 else ("traced", "plain"):
                if kind == "traced":
                    first = len(tracer.spans)
                    tracer.counts.clear()
                    with tracer.installed():
                        seconds_of[kind] = replay(tracer, kind, f"{kind}{n}:")
                    layers.append(tracer.layer_metrics(first))
                else:
                    seconds_of[kind] = replay(tracing.Plain(), kind, f"{kind}{n}:")
            plain, traced = seconds_of["plain"], seconds_of["traced"]
            if plain and traced:
                overheads.append(sum(traced.values()) - sum(plain.values()))
                for cmd in RESIDUAL_COMMANDS:
                    beyond_replay[cmd].append(walls[cmd][-1] - plain[cmd])
        round_times.append(time.perf_counter() - began)

    setup_s = block_median(setup)
    if trace:
        metrics = {}
        for key in layers[0]:
            values = [r[key] for r in layers]
            if key.endswith(".s"):
                metrics[key] = median(values)
            else:
                if len(set(values)) != 1:
                    record([f"count {key} changed between rounds: {values}"])
                metrics[key] = values[0]
        # The in-process time comes from the plain replay: the traced one
        # carries the tracing overhead, reported on its own.
        for cmd in RESIDUAL_COMMANDS:
            metrics[f"cli.{cmd}.residual_s"] = median(beyond_replay[cmd]) - setup_s
        metrics["trace.overhead_s"] = median(overheads)
        tracer.dump(os.path.join(work, "spans.json"))
    else:
        metrics = {
            "setup_s": setup_s,
            **{f"{c}_s": block_median(walls[c]) for c in ("synth", "fuse", "eval", "overlap")},
            "samples_per_s": block_median(rates),
            "peak_rss_mb": block_median(peaks),
        }
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    unit_of = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    result = {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of[k]} for k, v in metrics.items()},
    }
    extra = {
        "workload": name, "error_rate": failed / attempted, "rounds": len(round_times),
        "problems": problems[:20], "floor": floor,
        "flagged_share": int((want.fused["weighted"].conf < floor).sum()) / wl.samples,
        "provenance": provenance(seed, wl, paths),
        "samples": {"setup_s": setup, "wall_s": walls, "cpu_s": cpu, "peak_rss_mb": peaks,
                    "samples_per_s": rates, "trace_overhead_s": overheads},
    }
    return result, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=271828)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "trajfuse", "cli.py")):
        print(f"benchmark: no trajfuse sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    result, extra = run(args.workload, WORKLOADS[args.workload], args.seed, args.seconds,
                        bool(args.trace))
    with open(os.path.join(WORK, "result.json"), "w", encoding="utf-8") as f:
        json.dump({"result": result, **extra}, f, indent=1)
    for kind in ("inputs", "cli", "plain", "traced"):
        shutil.rmtree(os.path.join(WORK, kind), ignore_errors=True)
    print(json.dumps({k: extra[k] for k in ("workload", "error_rate", "rounds", "problems",
                                            "flagged_share", "provenance")}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
