"""Command-line surface: fuse, eval, overlap, synth, flags.

Exit codes: 0 success, 1 for validation/parse errors (including bad
flags), 2 for I/O errors.  Errors are emitted as one JSON object on
stderr so wrappers can consume them.  Every command is deterministic:
rerunning with identical inputs, seeds, and flags writes byte-identical
files.  ``--threads`` is checked but has no effect: the work runs serially.
``synth`` writes a generated dataset and then scores it the same way
``eval`` and ``overlap`` score a loaded one.

Configuration precedence is flags > --config JSON file > built-in
defaults; config values are checked like flags.  The TRAJFUSE_OUT_DIR
environment variable supplies the directory for default output paths
when --out is not given.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import dataclass, replace
from typing import Sequence

from .core import ModelOutput, Sample, Trajectory
from .errors import InvalidInput, TrajfuseError
from .fusion import DEFAULT_TAU, STRATEGIES, flag_low_confidence, fuse_sample
from .io import (
    DatasetManifest,
    GroundTruthRecord,
    load_fused,
    load_ground_truth,
    load_manifest,
    load_predictions,
    write_fused,
    write_ground_truth,
    write_manifest,
    write_predictions,
    write_report,
)
from .metrics import (
    DEFAULT_K_LIST,
    DEFAULT_OVERLAP_K,
    ErrorLedger,
    fuse_and_score,
    overlap_report,
    summary_table,
    top_k_error,
)
from .synth import (
    PINNED_PRIMARY,
    PINNED_SEED,
    generate_samples,
    pinned_config,
    pinned_predictors,
)

__all__ = ["main"]

OUT_DIR_ENV = "TRAJFUSE_OUT_DIR"

_DEFAULT_K_STR = ",".join(str(k) for k in DEFAULT_K_LIST)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse's default error() exits 2; the exit-code contract reserves
    # 2 for I/O problems, so usage errors are rerouted to exit 1.
    def error(self, message):
        raise _UsageError(message)


@dataclass(frozen=True)
class RunConfig:
    """Validated, normalized settings for one command invocation."""

    command: str
    manifest: str | None = None
    predictions: tuple[str, ...] = ()
    ground_truth: str | None = None
    fused: str | None = None
    strategies: tuple[str, ...] = ("weighted",)
    tau: float = DEFAULT_TAU
    primary_model: str | None = None
    k_list: tuple[float, ...] = tuple(float(k) for k in DEFAULT_K_LIST)
    overlap_k: float = DEFAULT_OVERLAP_K
    confidence_floor: float = 0.5
    fmt: str = "csv"
    out: str = ""
    seed: int = PINNED_SEED
    sort_by_ade: bool = False
    samples: int = 10_000
    horizon: int = 12
    dt: float = 0.5
    mix: tuple[float, float, float] = (0.45, 0.35, 0.20)


def _parse_k_list(raw: str) -> tuple[float, ...]:
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    if not parts:
        raise InvalidInput("--k-list must contain at least one percentage")
    ks = []
    for part in parts:
        try:
            k = float(part)
        except ValueError:
            raise InvalidInput(f"--k-list entry '{part}' is not a number") from None
        if not (math.isfinite(k) and 0 < k <= 100):
            raise InvalidInput(f"--k-list entry {k} must be in (0, 100]")
        ks.append(k)
    return tuple(ks)


def _parse_mix(raw: str) -> tuple[float, float, float]:
    parts = [p.strip() for p in raw.split(",")]
    if len(parts) != 3:
        raise InvalidInput(f"--mix needs three comma-separated proportions, got '{raw}'")
    try:
        a, b, c = (float(p) for p in parts)
    except ValueError:
        raise InvalidInput(f"--mix entries must be numbers, got '{raw}'") from None
    return (a, b, c)


def _default_out(filename: str) -> str:
    return os.path.join(os.environ.get(OUT_DIR_ENV, "."), filename)


def _resolve_strategies(raw: str, tau_given: bool, primary: str | None) -> tuple[str, ...]:
    strategies = STRATEGIES if raw == "all" else (raw,)
    if "threshold" in strategies:
        if primary is None:
            raise InvalidInput("--strategy threshold requires --primary-model")
    else:
        if tau_given:
            raise InvalidInput("--tau only applies with --strategy threshold")
        if primary is not None:
            raise InvalidInput("--primary-model only applies with --strategy threshold")
    return strategies


def _make_run_config(args: argparse.Namespace) -> RunConfig:
    command = args.command
    fmt = getattr(args, "format", "csv")
    if args.threads is not None and args.threads < 1:
        raise InvalidInput(f"--threads must be >= 1, got {args.threads}")

    if command == "flags":
        floor = args.confidence_floor
        if not math.isfinite(floor):
            raise InvalidInput(f"--confidence-floor must be finite, got {floor}")
        return RunConfig(
            command=command,
            fused=args.fused,
            confidence_floor=floor,
            fmt=fmt,
            out=args.out or _default_out(f"flags.{fmt}"),
        )

    if command == "synth":
        primary = args.primary_model
        if primary is None and args.strategy in ("threshold", "all"):
            primary = PINNED_PRIMARY
        strategies = _resolve_strategies(args.strategy, args.tau is not None, primary)
        return RunConfig(
            command=command,
            strategies=strategies,
            tau=args.tau if args.tau is not None else DEFAULT_TAU,
            primary_model=primary,
            k_list=_parse_k_list(args.k_list),
            overlap_k=args.overlap_k,
            fmt=fmt,
            out=args.out or _default_out("synth_out"),
            seed=args.seed,
            samples=args.samples,
            horizon=args.horizon,
            dt=args.dt,
            mix=_parse_mix(args.mix),
        )

    # fuse / eval / overlap share the dataset-input surface.
    common = dict(
        command=command,
        manifest=args.manifest,
        predictions=tuple(args.predictions),
    )
    if command == "overlap":
        k = args.overlap_k
        if not (math.isfinite(k) and 0 < k <= 100):
            raise InvalidInput(f"--overlap-k must be in (0, 100], got {k}")
        return RunConfig(
            ground_truth=args.ground_truth,
            overlap_k=k,
            fmt=fmt,
            out=args.out or _default_out(f"overlap.{fmt}"),
            **common,
        )

    # overlap has no --tau flag, so this check comes after its branch.
    if args.tau is not None and not math.isfinite(args.tau):
        raise InvalidInput(f"--tau must be finite, got {args.tau}")
    common.update(
        strategies=_resolve_strategies(args.strategy, args.tau is not None, args.primary_model),
        tau=args.tau if args.tau is not None else DEFAULT_TAU,
        primary_model=args.primary_model,
    )
    if command == "fuse":
        return RunConfig(out=args.out or _default_out("fused.ndjson"), **common)
    if command == "eval":
        return RunConfig(
            ground_truth=args.ground_truth,
            k_list=_parse_k_list(args.k_list),
            sort_by_ade=args.sort_by_ade,
            fmt=fmt,
            out=args.out or _default_out(f"summary.{fmt}"),
            **common,
        )
    raise InvalidInput(f"unknown command '{command}'")


def _load_samples(
    manifest: DatasetManifest,
    prediction_paths: Sequence[str],
    ground_truth_path: str | None,
) -> list[Sample]:
    """Group prediction dumps (and optional ground truth) into Samples.

    Samples are ordered by sample_id; each sample's outputs follow the
    manifest's model order.  A dataset that is not whole is refused,
    never scored as if it were.
    """
    by_sample: dict[str, dict[str, ModelOutput]] = {}
    for path in prediction_paths:
        for output in load_predictions(path, manifest):
            per_model = by_sample.setdefault(output.sample_id, {})
            if output.model_id in per_model:
                raise InvalidInput(
                    f"model '{output.model_id}' appears twice for sample "
                    f"'{output.sample_id}' across prediction files"
                )
            per_model[output.model_id] = output
    for sample_id, per_model in by_sample.items():
        if len(per_model) != len(manifest.model_ids):
            missing = ", ".join(m for m in manifest.model_ids if m not in per_model)
            raise InvalidInput(f"sample '{sample_id}' has {len(per_model)} of "
                               f"{len(manifest.model_ids)} manifest models (missing {missing})")
    if len(by_sample) != manifest.sample_count:
        raise InvalidInput(f"predictions cover {len(by_sample)} samples, "
                           f"manifest declares {manifest.sample_count}")
    gt_by_sample: dict[str, Trajectory] = {}
    if ground_truth_path is not None:
        for rec in load_ground_truth(ground_truth_path, manifest):
            gt_by_sample[rec.sample_id] = rec.trajectory
        unlabeled = len(by_sample.keys() - gt_by_sample.keys())
        if unlabeled or len(gt_by_sample) != len(by_sample):
            raise InvalidInput(f"ground truth has {len(gt_by_sample)} samples for "
                               f"{len(by_sample)} predicted; {unlabeled} predicted "
                               "samples have no ground truth")
    return [
        Sample(sample_id=sample_id, ground_truth=gt_by_sample.get(sample_id),
               outputs=tuple(by_sample[sample_id][mid] for mid in manifest.model_ids))
        for sample_id in sorted(by_sample)
    ]


def _note(path: str) -> None:
    print(f"wrote {path}")


def cmd_fuse(cfg: RunConfig) -> int:
    manifest = load_manifest(cfg.manifest)
    samples = _load_samples(manifest, cfg.predictions, None)
    strategy = cfg.strategies[0]
    fused = [fuse_sample(sample, cfg.strategies, cfg.primary_model, cfg.tau)[1][strategy]
             for sample in samples]
    write_fused(cfg.out, fused)
    _note(cfg.out)
    return 0


def _write_summary(cfg: RunConfig, ledger: ErrorLedger, path: str) -> None:
    rows = summary_table(ledger, cfg.k_list, sort_by_ade=cfg.sort_by_ade)
    write_report(path, rows, cfg.fmt, k_list=cfg.k_list)


def _write_overlap(cfg: RunConfig, ledger: ErrorLedger, model_ids: Sequence[str],
                   path: str) -> None:
    sets = {
        model_id: top_k_error(ledger, model_id, "ade", cfg.overlap_k).sample_ids
        for model_id in model_ids
    }
    write_report(path, overlap_report(sets), cfg.fmt)


def cmd_eval(cfg: RunConfig) -> int:
    manifest = load_manifest(cfg.manifest)
    samples = _load_samples(manifest, cfg.predictions, cfg.ground_truth)
    if not samples:
        raise InvalidInput("no samples to evaluate")
    ledger, _ = fuse_and_score(samples, cfg.strategies, cfg.primary_model, cfg.tau)
    _write_summary(cfg, ledger, cfg.out)
    _note(cfg.out)
    return 0


def cmd_overlap(cfg: RunConfig) -> int:
    manifest = load_manifest(cfg.manifest)
    if len(manifest.model_ids) < 2:
        raise InvalidInput("overlap needs at least 2 models in the manifest")
    samples = _load_samples(manifest, cfg.predictions, cfg.ground_truth)
    if not samples:
        raise InvalidInput("no samples to analyze")
    ledger, _ = fuse_and_score(samples)
    _write_overlap(cfg, ledger, manifest.model_ids, cfg.out)
    _note(cfg.out)
    return 0


def cmd_synth(cfg: RunConfig) -> int:
    config = replace(pinned_config(), sample_count=cfg.samples, horizon=cfg.horizon,
                     dt=cfg.dt, mix=cfg.mix, seed=cfg.seed)
    predictors = pinned_predictors()
    manifest = DatasetManifest(
        dataset_name="synth",
        horizon=config.horizon,
        dt=config.dt,
        model_ids=tuple(p.name for p in predictors),
        sample_count=config.sample_count,
    )
    if "threshold" in cfg.strategies and cfg.primary_model not in manifest.model_ids:
        raise InvalidInput(f"--primary-model '{cfg.primary_model}' is not a synth predictor")
    samples = [sample for _, sample in generate_samples(config, predictors)]
    ledger, fused = fuse_and_score(samples, cfg.strategies, cfg.primary_model, cfg.tau)

    os.makedirs(cfg.out, exist_ok=True)
    for strategy in cfg.strategies:
        fused_path = os.path.join(cfg.out, f"fused_{strategy}.ndjson")
        write_fused(fused_path, fused[strategy])
        _note(fused_path)
    paths = {
        "manifest": os.path.join(cfg.out, "manifest.json"),
        "predictions": os.path.join(cfg.out, "predictions.ndjson"),
        "ground_truth": os.path.join(cfg.out, "ground_truth.ndjson"),
        "summary": os.path.join(cfg.out, f"summary.{cfg.fmt}"),
        "overlap": os.path.join(cfg.out, f"overlap.{cfg.fmt}"),
    }
    write_manifest(paths["manifest"], manifest)
    write_predictions(paths["predictions"],
                      (output for sample in samples for output in sample.outputs))
    write_ground_truth(paths["ground_truth"],
                       (GroundTruthRecord(s.sample_id, s.ground_truth) for s in samples))
    _write_summary(cfg, ledger, paths["summary"])
    _write_overlap(cfg, ledger, manifest.model_ids, paths["overlap"])
    for path in paths.values():
        _note(path)
    return 0


def cmd_flags(cfg: RunConfig) -> int:
    flagged = [
        (pred.sample_id, pred.confidence)
        for pred in load_fused(cfg.fused)
        if flag_low_confidence(pred, cfg.confidence_floor)
    ]
    flagged.sort(key=lambda item: item[0])
    if cfg.fmt == "json":
        payload = {
            "confidence_floor": cfg.confidence_floor,
            "count": len(flagged),
            "flagged": [
                {"sample_id": sid, "confidence": conf} for sid, conf in flagged
            ],
        }
        with open(cfg.out, "w", encoding="utf-8", newline="\n") as f:
            f.write(json.dumps(payload, indent=2, sort_keys=True))
            f.write("\n")
    else:
        with open(cfg.out, "w", encoding="utf-8", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["sample_id", "confidence"])
            for sid, conf in flagged:
                writer.writerow([sid, repr(conf)])
    _note(cfg.out)
    return 0


_COMMANDS = {
    "fuse": cmd_fuse,
    "eval": cmd_eval,
    "overlap": cmd_overlap,
    "synth": cmd_synth,
    "flags": cmd_flags,
}


def _add_common(parser: argparse.ArgumentParser, *, out_help: str) -> None:
    parser.add_argument("--config", help="JSON file of flag defaults (flags still win)")
    parser.add_argument("--out", help=out_help)
    parser.add_argument("--threads", type=int, default=None,
                        help="accepted for compatibility; has no effect (work runs serially)")


def _add_dataset_inputs(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--manifest", required=True, help="dataset manifest JSON")
    parser.add_argument("--predictions", required=True, nargs="+",
                        help="prediction dump(s), NDJSON")


def _add_strategy(parser: argparse.ArgumentParser, *, allow_all: bool) -> None:
    choices = [*STRATEGIES, "all"] if allow_all else list(STRATEGIES)
    parser.add_argument("--strategy", choices=choices, default="weighted",
                        help="fusion strategy (default: weighted)")
    parser.add_argument("--tau", type=float, default=None,
                        help=f"threshold strategy confidence bar (default {DEFAULT_TAU})")
    parser.add_argument("--primary-model", default=None,
                        help="model trusted by the threshold strategy")


def build_parser() -> tuple[_Parser, dict[str, dict[str, argparse.Action]]]:
    parser = _Parser(
        prog="trajfuse",
        description="Fuse multimodal trajectory predictions and evaluate the long tail.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    subparsers: dict[str, _Parser] = {}

    p = sub.add_parser("fuse", help="fuse prediction dumps into one trajectory per sample")
    _add_dataset_inputs(p)
    _add_strategy(p, allow_all=False)
    _add_common(p, out_help="output NDJSON path (default: fused.ndjson)")
    subparsers["fuse"] = p

    p = sub.add_parser("eval", help="score members and fused strategies, write summary table")
    _add_dataset_inputs(p)
    p.add_argument("--ground-truth", required=True, help="ground-truth NDJSON")
    _add_strategy(p, allow_all=True)
    p.add_argument("--k-list", default=_DEFAULT_K_STR,
                   help=f"comma-separated Top-K%% columns (default {_DEFAULT_K_STR})")
    p.add_argument("--sort-by-ade", action="store_true",
                   help="rank Top-K sets by ADE only; FDE column averages over that set")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    _add_common(p, out_help="report path (default: summary.<format>)")
    subparsers["eval"] = p

    p = sub.add_parser("overlap", help="Venn analysis of the models' hardest-sample sets")
    _add_dataset_inputs(p)
    p.add_argument("--ground-truth", required=True, help="ground-truth NDJSON")
    p.add_argument("--overlap-k", type=float, default=DEFAULT_OVERLAP_K,
                   help=f"difficulty-set size in percent (default {DEFAULT_OVERLAP_K:g})")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    _add_common(p, out_help="report path (default: overlap.<format>)")
    subparsers["overlap"] = p

    p = sub.add_parser("synth", help="run the synthetic end-to-end experiment")
    p.add_argument("--samples", type=int, default=10_000)
    p.add_argument("--horizon", type=int, default=12)
    p.add_argument("--dt", type=float, default=0.5)
    p.add_argument("--mix", default="0.45,0.35,0.20",
                   help="straight,constant_turn,lane_change proportions")
    p.add_argument("--seed", type=int, default=PINNED_SEED)
    p.add_argument("--strategy", choices=[*STRATEGIES, "all"], default="all")
    p.add_argument("--tau", type=float, default=None)
    p.add_argument("--primary-model", default=None,
                   help=f"threshold strategy's trusted model (default {PINNED_PRIMARY})")
    p.add_argument("--k-list", default=_DEFAULT_K_STR)
    p.add_argument("--overlap-k", type=float, default=DEFAULT_OVERLAP_K)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    _add_common(p, out_help="output directory (default: synth_out)")
    subparsers["synth"] = p

    p = sub.add_parser("flags", help="list samples whose fused confidence is below a floor")
    p.add_argument("--fused", required=True, help="fused NDJSON from the fuse command")
    p.add_argument("--confidence-floor", type=float, default=0.5)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    _add_common(p, out_help="report path (default: flags.<format>)")
    subparsers["flags"] = p

    config_actions = {
        name: {
            action.dest: action
            for action in sp._actions
            if action.dest not in ("help", "config")
        }
        for name, sp in subparsers.items()
    }
    return parser, config_actions


def _config_tokens(action: argparse.Action, value: object) -> list[str] | None:
    """The flag tokens for one config value; None when no flag could spell it.

    A value must be what the flag itself would parse: a string, a number
    where the flag takes one, a boolean for a switch, and a list of
    strings for a multi-valued flag.
    """
    flag = action.option_strings[-1]
    if action.nargs == 0:
        return ([flag] if value else []) if isinstance(value, bool) else None
    if action.nargs == "+":
        ok = isinstance(value, list) and all(isinstance(v, str) for v in value)
        return [flag, *value] if ok else None
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if isinstance(value, str) or (number and action.type in (int, float)):
        return [f"{flag}={value}"]
    return None


def _config_argv(config_path: str, actions: dict[str, argparse.Action]) -> list[str]:
    with open(config_path, "r", encoding="utf-8") as f:
        try:
            overrides = json.load(f)
        except ValueError as e:
            raise InvalidInput(f"config file {config_path}: {e}") from None
    if not isinstance(overrides, dict):
        raise InvalidInput(f"config file {config_path} must hold a JSON object")
    unknown = set(overrides) - set(actions)
    if unknown:
        raise InvalidInput(
            f"config file {config_path}: unknown key(s) {', '.join(sorted(unknown))}"
        )
    argv: list[str] = []
    for key, value in overrides.items():
        tokens = _config_tokens(actions[key], value)
        if tokens is None:
            raise InvalidInput(
                f"config file {config_path}: '{key}' cannot be {json.dumps(value)}"
            )
        argv += tokens
    return argv


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser, config_actions = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            # Re-parse with the config values spelled as flags right after
            # the command: explicit flags come later on the line, so they win.
            at = list(argv).index(args.command) + 1
            extra = _config_argv(args.config, config_actions[args.command])
            args = parser.parse_args([*argv[:at], *extra, *argv[at:]])
        cfg = _make_run_config(args)
        return _COMMANDS[cfg.command](cfg)
    except _UsageError as e:
        _emit_error("UsageError", str(e))
        return 1
    except TrajfuseError as e:
        _emit_error(type(e).__name__, str(e))
        return 1
    except OSError as e:
        _emit_error("IOError", str(e))
        return 2


def _emit_error(kind: str, message: str) -> None:
    print(json.dumps({"error": kind, "message": message}, sort_keys=True),
          file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
