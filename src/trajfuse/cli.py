"""Command-line surface: fuse, eval, overlap, synth, flags.

Exit codes: 0 success, 1 for validation/parse errors (including bad
flags), 2 for I/O errors.  Errors are emitted as one JSON object on
stderr so wrappers can consume them.  Each flag is checked where it is
declared (its argparse type or choices), numeric bounds and cross-flag
rules once in ``_resolve``, all before any input is read or output
written; the commands then take the parsed namespace as it is.  Outputs
replace their destinations atomically.  Every command is deterministic:
rerunning with identical inputs, seeds, and flags writes byte-identical
files.  ``--threads`` is checked but has no effect: the work runs serially.
``synth`` runs ``synth.synth_experiment``, which scores the generated
samples the same way ``eval`` and ``overlap`` score a loaded one, and
writes the dataset and fused records its sample hook keeps.

Configuration precedence is flags > --config JSON file > built-in
defaults; config values are checked like flags.  The TRAJFUSE_OUT_DIR
environment variable supplies the directory for default output paths
when --out is not given.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
from dataclasses import replace
from typing import Sequence

from .errors import InvalidInput, TrajfuseError
from .fusion import DEFAULT_TAU, STRATEGIES, decide, flag_low_confidence
from .io import (
    DatasetManifest,
    GroundTruthRecord,
    load_fused,
    load_manifest,
    load_samples,
    write_flags,
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
from .synth import PINNED_PRIMARY, pinned_config, pinned_predictors, synth_experiment

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


# Bounds on the numeric flags, checked on every command that has the flag.
# The flags keep type=int/float so that --config accepts JSON numbers for them.
_BOUNDS = {
    "threads": (lambda v: v >= 1, ">= 1"),
    "tau": (lambda v: math.isfinite(v) and v >= 0, "finite and >= 0"),
    "overlap_k": (lambda v: math.isfinite(v) and 0 < v <= 100, "in (0, 100]"),
    "confidence_floor": (math.isfinite, "finite"),
}

# The input flags a command cannot run without.  They are declared optional
# and checked in _resolve, after --config has had its chance to set them.
_REQUIRED_INPUTS = ("manifest", "predictions", "ground_truth", "fused")

# The synth flags and the ScenarioConfig field each one sets.  The field
# checks its own bounds, and pinned_config() gives the flag's default.
_SCENARIO_FIELDS = {"samples": "sample_count", "horizon": "horizon", "dt": "dt", "mix": "mix",
                    "seed": "seed"}


def _resolve(args: argparse.Namespace) -> None:
    """Check flag bounds and cross-flag rules, and fill in derived defaults.

    Runs before any input is read or output written.  Sets
    ``args.strategies`` on the commands that fuse, ``args.scenario`` (the
    ``ScenarioConfig``) on synth, and ``args.out``.
    """
    missing = [f"--{dest.replace('_', '-')}" for dest in _REQUIRED_INPUTS
               if getattr(args, dest, "") is None]
    if missing:
        raise _UsageError(f"the following arguments are required: {', '.join(missing)}")
    for dest, (ok, rule) in _BOUNDS.items():
        value = getattr(args, dest, None)
        if value is not None and not ok(value):
            raise InvalidInput(f"--{dest.replace('_', '-')} must be {rule}, got {value}")
    if args.command == "synth":
        args.scenario = pinned_config()
        for dest, name in _SCENARIO_FIELDS.items():
            try:
                args.scenario = replace(args.scenario, **{name: getattr(args, dest)})
            except InvalidInput as e:
                raise InvalidInput(f"--{dest}: {e}") from None
    if hasattr(args, "strategy"):
        args.strategies = STRATEGIES if args.strategy == "all" else (args.strategy,)
        if "threshold" not in args.strategies:
            if args.tau is not None:
                raise InvalidInput("--tau only applies with --strategy threshold")
            if args.primary_model is not None:
                raise InvalidInput("--primary-model only applies with --strategy threshold")
        elif args.primary_model is None:
            if args.command != "synth":
                raise InvalidInput("--strategy threshold requires --primary-model")
            args.primary_model = PINNED_PRIMARY
        if args.tau is None:
            args.tau = DEFAULT_TAU
    if not args.out:
        name = args.default_out.replace("<format>", getattr(args, "format", ""))
        args.out = os.path.join(os.environ.get(OUT_DIR_ENV, "."), name)


def _check_primary(args: argparse.Namespace, manifest: DatasetManifest) -> None:
    if args.primary_model is not None and args.primary_model not in manifest.model_ids:
        raise InvalidInput(f"--primary-model '{args.primary_model}' is not a manifest model "
                           f"({', '.join(manifest.model_ids)})")


def _note(path: str) -> None:
    print(f"wrote {path}")


def cmd_fuse(args: argparse.Namespace) -> int:
    manifest = load_manifest(args.manifest)
    _check_primary(args, manifest)
    samples = load_samples(manifest, args.predictions, None)
    strategy = args.strategies[0]
    fused = [decide(sample, args.strategies, args.primary_model, args.tau).records()[strategy]
             for sample in samples]
    write_fused(args.out, fused)
    _note(args.out)
    return 0


def _write_overlap(args: argparse.Namespace, ledger: ErrorLedger, model_ids: Sequence[str],
                   path: str) -> None:
    sets = {
        model_id: top_k_error(ledger, model_id, "ade", args.overlap_k).sample_ids
        for model_id in model_ids
    }
    write_report(path, overlap_report(sets), args.format)


def cmd_eval(args: argparse.Namespace) -> int:
    manifest = load_manifest(args.manifest)
    _check_primary(args, manifest)
    samples = load_samples(manifest, args.predictions, args.ground_truth)
    if not samples:
        raise InvalidInput("no samples to evaluate")
    ledger = fuse_and_score(samples, args.strategies, args.primary_model, args.tau)
    rows = summary_table(ledger, args.k_list, sort_by_ade=args.sort_by_ade)
    write_report(args.out, rows, args.format, k_list=args.k_list)
    _note(args.out)
    return 0


def cmd_overlap(args: argparse.Namespace) -> int:
    manifest = load_manifest(args.manifest)
    if len(manifest.model_ids) < 2:
        raise InvalidInput("overlap needs at least 2 models in the manifest")
    samples = load_samples(manifest, args.predictions, args.ground_truth)
    if not samples:
        raise InvalidInput("no samples to analyze")
    ledger = fuse_and_score(samples)
    _write_overlap(args, ledger, manifest.model_ids, args.out)
    _note(args.out)
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    config = args.scenario
    predictors = pinned_predictors()
    manifest = DatasetManifest(
        dataset_name="synth",
        horizon=config.horizon,
        dt=config.dt,
        model_ids=tuple(p.name for p in predictors),
        sample_count=config.sample_count,
    )
    _check_primary(args, manifest)
    outputs = []
    truth = []
    fused = {strategy: [] for strategy in args.strategies}

    def keep(scenario, sample, by_strategy):
        outputs.extend(sample.outputs)
        truth.append(GroundTruthRecord(sample.sample_id, sample.ground_truth))
        for strategy, pred in by_strategy.items():
            fused[strategy].append(pred)

    result = synth_experiment(config, predictors, args.strategies, args.primary_model,
                              args.tau, args.k_list, sample_hook=keep)

    os.makedirs(args.out, exist_ok=True)
    for strategy in args.strategies:
        fused_path = os.path.join(args.out, f"fused_{strategy}.ndjson")
        write_fused(fused_path, fused[strategy])
        _note(fused_path)
    paths = {
        "manifest": os.path.join(args.out, "manifest.json"),
        "predictions": os.path.join(args.out, "predictions.ndjson"),
        "ground_truth": os.path.join(args.out, "ground_truth.ndjson"),
        "summary": os.path.join(args.out, f"summary.{args.format}"),
        "overlap": os.path.join(args.out, f"overlap.{args.format}"),
    }
    write_manifest(paths["manifest"], manifest)
    write_predictions(paths["predictions"], outputs)
    write_ground_truth(paths["ground_truth"], truth)
    write_report(paths["summary"], result.summary, args.format, k_list=args.k_list)
    _write_overlap(args, result.ledger, manifest.model_ids, paths["overlap"])
    for path in paths.values():
        _note(path)
    return 0


def cmd_flags(args: argparse.Namespace) -> int:
    flagged = [
        (pred.sample_id, pred.confidence)
        for pred in load_fused(args.fused)
        if flag_low_confidence(pred, args.confidence_floor)
    ]
    write_flags(args.out, flagged, args.confidence_floor, args.format)
    _note(args.out)
    return 0


_COMMANDS = {
    "fuse": cmd_fuse,
    "eval": cmd_eval,
    "overlap": cmd_overlap,
    "synth": cmd_synth,
    "flags": cmd_flags,
}

# Flags that several commands take, each declared once.
_SHARED_FLAGS = {
    "--k-list": dict(type=_parse_k_list, default=_DEFAULT_K_STR,
                     help=f"comma-separated Top-K%% columns (default {_DEFAULT_K_STR})"),
    "--overlap-k": dict(type=float, default=DEFAULT_OVERLAP_K,
                        help="difficulty-set size in percent, in (0, 100] "
                             f"(default {DEFAULT_OVERLAP_K:g})"),
    "--format": dict(choices=["csv", "json"], default="csv"),
}


def _add_common(parser: argparse.ArgumentParser, out_help: str, default_out: str,
                *shared: str) -> None:
    """--config, --out and --threads, plus the named ``_SHARED_FLAGS``.

    ``default_out`` names the output under $TRAJFUSE_OUT_DIR (or the
    current directory) when --out is not given; ``<format>`` stands for
    the --format value.
    """
    for flag in shared:
        parser.add_argument(flag, **_SHARED_FLAGS[flag])
    parser.add_argument("--config", help="JSON file of flag defaults (flags still win)")
    parser.add_argument("--out", help=f"{out_help} (default: {default_out})")
    parser.add_argument("--threads", type=int, default=None,
                        help="accepted for compatibility; has no effect (work runs serially)")
    parser.set_defaults(default_out=default_out)


def _add_dataset_inputs(parser: argparse.ArgumentParser, *, ground_truth: bool) -> None:
    parser.add_argument("--manifest", help="dataset manifest JSON (required)")
    parser.add_argument("--predictions", nargs="+", help="prediction dump(s), NDJSON (required)")
    if ground_truth:
        parser.add_argument("--ground-truth", help="ground-truth NDJSON (required)")


def _add_strategy(parser: argparse.ArgumentParser, *, allow_all: bool) -> None:
    choices = [*STRATEGIES, "all"] if allow_all else list(STRATEGIES)
    parser.add_argument("--strategy", choices=choices, default="weighted",
                        help="fusion strategy (default: %(default)s)")
    parser.add_argument("--tau", type=float, default=None,
                        help=f"threshold strategy confidence bar, finite and >= 0 "
                             f"(default {DEFAULT_TAU})")
    parser.add_argument("--primary-model", default=None,
                        help="model trusted by the threshold strategy "
                             f"(synth defaults to {PINNED_PRIMARY})")


def build_parser() -> tuple[_Parser, dict[str, dict[str, argparse.Action]]]:
    parser = _Parser(
        prog="trajfuse",
        description="Fuse multimodal trajectory predictions and evaluate the long tail.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("fuse", help="fuse prediction dumps into one trajectory per sample")
    _add_dataset_inputs(p, ground_truth=False)
    _add_strategy(p, allow_all=False)
    _add_common(p, "output NDJSON path", "fused.ndjson")

    p = sub.add_parser("eval", help="score members and fused strategies, write summary table")
    _add_dataset_inputs(p, ground_truth=True)
    _add_strategy(p, allow_all=True)
    p.add_argument("--sort-by-ade", action="store_true",
                   help="rank Top-K sets by ADE only; FDE column averages over that set")
    _add_common(p, "report path", "summary.<format>", "--k-list", "--format")

    p = sub.add_parser("overlap", help="Venn analysis of the models' hardest-sample sets")
    _add_dataset_inputs(p, ground_truth=True)
    _add_common(p, "report path", "overlap.<format>", "--overlap-k", "--format")

    pinned = pinned_config()
    p = sub.add_parser("synth", help="run the synthetic end-to-end experiment")
    p.add_argument("--samples", type=int, default=pinned.sample_count)
    p.add_argument("--horizon", type=int, default=pinned.horizon)
    p.add_argument("--dt", type=float, default=pinned.dt)
    p.add_argument("--mix", type=_parse_mix, default=pinned.mix,
                   help="straight,constant_turn,lane_change proportions")
    p.add_argument("--seed", type=int, default=pinned.seed)
    _add_strategy(p, allow_all=True)
    p.set_defaults(strategy="all", sort_by_ade=False)
    _add_common(p, "output directory", "synth_out", "--k-list", "--overlap-k", "--format")

    p = sub.add_parser("flags", help="list samples whose fused confidence is below a floor")
    p.add_argument("--fused", help="fused NDJSON from the fuse command (required)")
    p.add_argument("--confidence-floor", type=float, default=0.5)
    _add_common(p, "report path", "flags.<format>", "--format")

    config_actions = {
        name: {
            action.dest: action
            for action in sp._actions
            if action.dest not in ("help", "config")
        }
        for name, sp in sub.choices.items()
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
        except (ValueError, RecursionError) as e:
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
    # A command builds only acyclic data (value objects, tuples, dicts), so
    # cyclic GC would reclaim nothing it could not free by refcount alone;
    # yet loading a dump triggers a hundred or more collections, each
    # re-walking everything loaded so far.  Turn it off for the command.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(argv)
    finally:
        if gc_was_enabled:
            gc.enable()


def _run(argv: Sequence[str] | None) -> int:
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
        _resolve(args)
        return _COMMANDS[args.command](args)
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
