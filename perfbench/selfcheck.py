"""Quick check that the benchmark itself still works, at 51 samples per workload.

    python3 perfbench/selfcheck.py

Runs the generator, every command, the oracle and the traced replay once
per workload in both modes, checks that each prints exactly the metrics
BENCHMARK.json names with their units, and that the oracle rejects a
truncated or altered output and a truncated dump.  Exits 1 on any
failure.  Takes well under a minute, against many minutes for a full
run of every workload.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import shutil
import sys

import run

SAMPLES = 51
SEED = 7
WORK = os.path.join(run.ROOT, "perfbench", "selfcheck-work")


def _expect(ok: bool, what: str, failures: list[str]) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def _rewrite(path: str, edit) -> None:
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines(keepends=True)
    with open(path, "w", encoding="utf-8") as f:
        f.writelines(edit(lines))


def check_metrics(result: dict, declared: list[dict], what: str, failures: list[str]) -> None:
    got = result["metrics"]
    _expect(sorted(got) == sorted(m["name"] for m in declared),
            f"{what}: prints exactly the declared metrics", failures)
    _expect(all(got[m["name"]]["unit"] == m["unit"] for m in declared if m["name"] in got)
            and all(isinstance(v["value"], (int, float)) and math.isfinite(v["value"])
                    for v in got.values()),
            f"{what}: units match and values are finite numbers", failures)
    _expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
            f"{what}: correct, {result['failed']} of {result['attempted']} ops failed",
            failures)


def check_oracle_rejects(name: str, wl: run.Workload, failures: list[str]) -> None:
    """Damage each output of the last round and expect the oracle to object."""
    import dataset
    import oracle

    ds = dataset.generate(name, wl.samples, wl.modes, wl.horizon, SEED, wl.stream)
    want = oracle.expected(ds, wl.primary)
    out = os.path.join(WORK, "cli")
    fused = os.path.join(out, "fused.ndjson")

    def nudge_confidence(lines):
        rec = json.loads(lines[0])
        rec["confidence"] += 1e-6
        return [json.dumps(rec) + "\n"] + lines[1:]

    _rewrite(fused, nudge_confidence)
    _expect(bool(oracle.check_fused(fused, ds, want.fused["weighted"])),
            f"{name}: oracle rejects a fused confidence off by 1e-6", failures)
    _rewrite(fused, lambda lines: lines[:-1])
    _expect(bool(oracle.check_fused(fused, ds, want.fused["weighted"])),
            f"{name}: oracle rejects a fused file missing its last sample", failures)

    summary = os.path.join(out, "summary.csv")
    _rewrite(summary, lambda lines: lines[:1] + [lines[1].replace(",", ",9", 1)] + lines[2:])
    _expect(bool(oracle.check_summary(summary, want.summary)),
            f"{name}: oracle rejects an altered summary cell", failures)

    overlap = os.path.join(out, "overlap.csv")
    _rewrite(overlap, lambda lines: lines[:-1])
    _expect(bool(oracle.check_overlap(overlap, want.overlap)),
            f"{name}: oracle rejects an overlap report missing a row", failures)

    inputs = os.path.join(WORK, "inputs")
    paths = dataset.write(ds, inputs, wl.one_file_per_model)
    _rewrite(paths["predictions"][-1], lambda lines: lines[:-1])
    try:
        dataset.read(paths["manifest"], paths["predictions"], paths["ground_truth"])
        refused = False
    except ValueError:
        refused = True
    _expect(refused, f"{name}: a dump missing one record is refused", failures)


def main() -> int:
    sys.path.insert(0, run.SRC)
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    failures: list[str] = []
    _expect(sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS),
            "BENCHMARK.json names every workload", failures)
    for name, full in run.WORKLOADS.items():
        wl = dataclasses.replace(full, samples=SAMPLES)
        for trace in (True, False):
            result, extra = run.run(name, wl, SEED, 0.0, trace, WORK)
            for problem in extra["problems"]:
                print("     " + problem)
            check_metrics(result, spec["per_layer" if trace else "end_to_end"],
                          f"{name} trace={int(trace)}", failures)
            if trace:
                _expect(os.path.getsize(os.path.join(WORK, "spans.json")) > 0,
                        f"{name}: spans written", failures)
        check_oracle_rejects(name, wl, failures)
    shutil.rmtree(WORK)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
