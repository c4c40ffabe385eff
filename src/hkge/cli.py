"""Command-line surface: train / eval / ablate / analyze.

Every command takes --dataset-dir, --out-dir, --seed and --config; only
train and ablate take the model and training settings.  Precedence:
built-in defaults < JSON config file (``--config``) < explicit flags, and a
flag or config key that the command does not read is rejected.  The merged
result is written to ``<out-dir>/config.json`` before any real work, so a
run directory records exactly the settings its command read.

This module writes every file of a run directory, each table through
``write_csv``; of the library, only ``checkpoint.save`` writes a file.
"""

import argparse
import csv
import dataclasses
import json
import os
import sys

import numpy as np

from . import checkpoint, data, evaluation, hierarchy
from .model import CURVATURE_MODES, GEOMETRIES, KGEModel, ModelConfig
from .training import METRIC_LOG_COLUMNS, OPTIMIZERS, NumericError, TrainConfig, train

RUN_DEFAULTS = {"dataset_dir": None, "out_dir": None, "seed": TrainConfig.seed}

MODEL_DEFAULTS = {
    **{f.name: f.default for f in dataclasses.fields(ModelConfig)},
    "dim": 32,  # ModelConfig.dim has no default
    **{f.name: f.default for f in dataclasses.fields(TrainConfig) if f.name != "seed"},
}

# the commands that take MODEL_DEFAULTS, as settings and as flags
MODEL_COMMANDS = ("train", "ablate")

COMMAND_DEFAULTS = {
    "train": {},
    "eval": {"checkpoint": None, "split": "test", "per_relation": False},
    "ablate": {"curvature_sweep": False},
    "analyze": {"relations": None, "samples": hierarchy.DEFAULT_XI_SAMPLES},
}


class CliError(RuntimeError):
    pass


def _check_setting_types(file_cfg, defaults):
    """Reject a --config value not of its default's type (a float setting also takes
    an int); a None default means a string or null, for grad_clip a number or null
    and for relations a list of strings or null."""
    for key, value in file_cfg.items():
        default = defaults[key]
        types = ((int, float, type(None)) if key == "grad_clip" else
                 (list, type(None)) if key == "relations" else
                 (str, type(None)) if default is None else
                 (int, float) if isinstance(default, float) else (type(default),))
        # bool is an int subclass, but true is no number and 1 no flag
        if (not isinstance(value, types) or isinstance(value, bool) != (bool in types)
                or isinstance(value, list) and not all(isinstance(v, str) for v in value)):
            names = " or ".join("null" if t is type(None) else
                                "list of str" if t is list else t.__name__ for t in types)
            raise CliError(f"config file: {key} must be {names}, got {value!r}")


def _add_run_flags(p):
    p.add_argument("--dataset-dir")
    p.add_argument("--out-dir")
    p.add_argument("--config", help="JSON file with defaults for any flag")
    p.add_argument("--seed", type=int)


def _add_model_flags(p):
    p.add_argument("--dim", type=int)
    p.add_argument("--geometry", choices=GEOMETRIES)
    p.add_argument("--curvature-mode", choices=CURVATURE_MODES, dest="curvature_mode")
    p.add_argument("--no-inter-level", action="store_false", dest="use_inter_level")
    p.add_argument("--no-intra-level", action="store_false", dest="use_intra_level")
    p.add_argument("--init-scale", type=float, dest="init_scale")
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--batch-size", type=int, dest="batch_size")
    p.add_argument("--neg-samples", type=int, dest="neg_samples")
    p.add_argument("--eval-every", type=int, dest="eval_every")
    p.add_argument("--optimizer", choices=tuple(OPTIMIZERS))
    p.add_argument("--patience", type=int)
    p.add_argument("--grad-clip", type=float, dest="grad_clip")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hkge",
        description="Hyperbolic hierarchical KG embeddings: train, evaluate, ablate, analyze.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "train": "train a model and keep the best-validation checkpoint",
        "eval": "evaluate a checkpoint with the filtered ranking protocol",
        "ablate": "run the transformation/curvature ablation grid",
        "analyze": "per-relation graph hierarchy diagnostics",
    }
    parsers = {}
    for name, help_text in specs.items():
        p = sub.add_parser(name, help=help_text, argument_default=argparse.SUPPRESS)
        _add_run_flags(p)
        if name in MODEL_COMMANDS:
            _add_model_flags(p)
        parsers[name] = p
    parsers["eval"].add_argument("--checkpoint", help="path to a saved model")
    parsers["eval"].add_argument("--split", choices=("train", "valid", "test"))
    parsers["eval"].add_argument("--per-relation", action="store_true",
                                 dest="per_relation")
    parsers["ablate"].add_argument("--curvature-sweep", action="store_true",
                                   dest="curvature_sweep",
                                   help="sweep the 4 curvature modes instead of the transform grid")
    parsers["analyze"].add_argument("--relations", action="append", metavar="NAME",
                                    help="a relation name, taken verbatim; repeat the "
                                         "flag for several (default: all)")
    parsers["analyze"].add_argument("--samples", type=int,
                                    help="xi triangle samples per relation")
    return parser


def resolve_config(args):
    provided = {k: v for k, v in vars(args).items() if k != "command"}
    config_path = provided.pop("config", None)
    merged = {**RUN_DEFAULTS, **(MODEL_DEFAULTS if args.command in MODEL_COMMANDS else {}),
              **COMMAND_DEFAULTS[args.command]}
    if config_path:
        try:
            with open(config_path, encoding="utf-8") as fh:
                file_cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise CliError(f"cannot read config file {config_path}: {exc}")
        if not isinstance(file_cfg, dict):
            raise CliError(f"config file {config_path} must hold a JSON object")
        file_cfg.pop("command", None)
        unknown = set(file_cfg) - set(merged)
        if unknown:
            raise CliError(f"unknown keys in config file: {sorted(unknown)}")
        _check_setting_types(file_cfg, merged)
        merged.update(file_cfg)
    merged.update(provided)
    for key, low in (("seed", 0), ("samples", 1)):
        if merged.get(key, low) < low:
            raise CliError(f"{key} must be >= {low}")
    merged["command"] = args.command
    return merged


def model_config_from(cfg):
    return ModelConfig(**{f.name: cfg[f.name] for f in dataclasses.fields(ModelConfig)}).validate()


def train_config_from(cfg):
    return TrainConfig(**{f.name: cfg[f.name] for f in dataclasses.fields(TrainConfig)}).validate()


def _require(cfg, *keys):
    for key in keys:
        if not cfg.get(key):
            raise CliError(f"--{key.replace('_', '-')} is required")


def write_csv(path, header, rows, mode="w"):
    """Write one run table: a header line, then each row dict's cells by column.

    Comma-separated, LF line ends, quoted only where a cell needs it;
    floats to 6 decimals, None as an empty cell, anything else as str.
    With mode "a" the rows are appended to the table and no header is written.
    """
    with open(path, mode, encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        if mode == "w":
            writer.writerow(header)
        writer.writerows([f"{row[k]:.6f}" if isinstance(row[k], float) else row[k]
                          for k in header] for row in rows)


def write_vocab_files(store, out_dir):
    for fname, names in (("entities.tsv", store.entities), ("relations.tsv", store.relations)):
        with open(os.path.join(out_dir, fname), "w", encoding="utf-8") as fh:
            fh.writelines(f"{i}\t{name}\n" for i, name in enumerate(names))


def _prepare_out_dir(cfg):
    out_dir = cfg["out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "config.json"), "w", encoding="utf-8") as fh:
        json.dump(cfg, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return out_dir


def _load_store(cfg):
    return data.load_dataset(cfg["dataset_dir"], report=lambda msg: print(msg, file=sys.stderr))


def _check_geometry(cfg):
    """Reject curvature options that euclidean geometry would ignore."""
    if cfg["geometry"] != "euclidean":
        return
    if cfg["curvature_mode"] != "attention":
        raise CliError("--curvature-mode needs hyperbolic geometry")
    if cfg.get("curvature_sweep"):
        raise CliError("--curvature-sweep needs hyperbolic geometry")


def _check_ablate(cfg):
    """Reject options that the ablation runs would ignore."""
    if cfg["curvature_mode"] != "attention":
        raise CliError("--curvature-mode is set by each ablation run")
    if not (cfg["curvature_sweep"] or (cfg["use_inter_level"] and cfg["use_intra_level"])):
        raise CliError("--no-inter-level and --no-intra-level are set by each grid run; "
                       "they apply with --curvature-sweep")


def cmd_train(cfg):
    _require(cfg, "dataset_dir", "out_dir")
    mcfg = model_config_from(cfg)
    _check_geometry(cfg)
    tcfg = train_config_from(cfg)
    out_dir = _prepare_out_dir(cfg)
    astore = data.augment_reciprocal(_load_store(cfg))
    model = KGEModel.init(mcfg, astore.n_entities, astore.n_relations, seed=cfg["seed"],
                          init_scale=tcfg.init_scale)
    # each row reaches the file when it is made, so an interrupted run keeps its epochs
    metrics = os.path.join(out_dir, "metrics.csv")
    write_csv(metrics, METRIC_LOG_COLUMNS, [])
    with np.errstate(all="ignore"):  # a run that overflows reports itself, in result.error
        result = train(model, astore, tcfg,
                       lambda row: write_csv(metrics, METRIC_LOG_COLUMNS, [row], mode="a"))
    checkpoint.save(result.model, os.path.join(out_dir, "checkpoint.bin"))
    write_vocab_files(astore, out_dir)
    if result.diverged:
        saved = (f"the best validated parameters, from epoch {result.best_epoch}"
                 if result.best_epoch is not None else
                 f"the parameters at divergence, in epoch {result.last_epoch}")
        print(f"training aborted: {result.error}; saved {saved}", file=sys.stderr)
        return 2
    if result.best_mrr is not None:
        print(f"best validation MRR {result.best_mrr:.4f} at epoch {result.best_epoch}")
    print(f"checkpoint written to {os.path.join(out_dir, 'checkpoint.bin')}")
    return 0


def cmd_eval(cfg):
    _require(cfg, "dataset_dir", "out_dir", "checkpoint")
    out_dir = _prepare_out_dir(cfg)
    model = checkpoint.load(cfg["checkpoint"])
    astore = data.augment_reciprocal(_load_store(cfg))
    if (model.n_entities, model.n_relations) != (astore.n_entities, astore.n_relations):
        raise CliError(
            f"checkpoint was trained on {model.n_entities} entities / "
            f"{model.n_relations} relations, dataset has "
            f"{astore.n_entities} / {astore.n_relations}"
        )
    filters = data.build_filter_index(astore)
    triples = astore.split(cfg["split"])
    ranks = evaluation.compute_ranks(model, triples, filters, seed=cfg["seed"])
    report = evaluation.aggregate(ranks)
    print(f"split={cfg['split']} n={report.n_queries} mrr={report.mrr:.4f} "
          + " ".join(f"h{k}={v:.4f}" for k, v in report.hits.items()))
    write_csv(os.path.join(out_dir, "metrics.csv"), ("split", "n", *evaluation.METRIC_COLUMNS),
              [{"split": cfg["split"], **report.row()}])
    if cfg["per_relation"]:
        rows = evaluation.per_relation_report(ranks, triples, astore.relations, astore.n_base_relations)
        write_csv(os.path.join(out_dir, "per_relation.csv"),
                  ("relation", "n", *evaluation.METRIC_COLUMNS), rows)
    return 0


ABLATION_GRID = (
    # (label, curvature_mode, use_inter, use_intra)
    ("full", "attention", True, True),
    ("no_inter_level", "attention", False, True),
    ("no_intra_level", "attention", True, False),
    ("no_transforms", "attention", False, False),
    ("fixed_curvature", "fixed_one", True, True),
    ("fixed_curvature_no_transforms", "fixed_one", False, False),
)

CURVATURE_SWEEP = tuple((f"c_{mode}", mode) for mode in CURVATURE_MODES)


def cmd_ablate(cfg):
    _require(cfg, "dataset_dir", "out_dir")
    _check_geometry(cfg)
    _check_ablate(cfg)
    base = model_config_from(cfg)
    tcfg = train_config_from(cfg)
    out_dir = _prepare_out_dir(cfg)
    astore = data.augment_reciprocal(_load_store(cfg))
    if cfg["curvature_sweep"]:
        runs = [(label, mode, cfg["use_inter_level"], cfg["use_intra_level"])
                for label, mode in CURVATURE_SWEEP]
    else:
        euclidean = cfg["geometry"] == "euclidean"  # where curvature modes are all the same
        runs = [run for run in ABLATION_GRID if not euclidean or run[1] == "attention"]
    rows, diverged = [], False
    for label, mode, inter, intra in runs:
        mcfg = dataclasses.replace(base, curvature_mode=mode,
                                   use_inter_level=inter, use_intra_level=intra)
        model = KGEModel.init(mcfg, astore.n_entities, astore.n_relations,
                              seed=cfg["seed"], init_scale=tcfg.init_scale)
        with np.errstate(all="ignore"):
            result = train(model, astore, tcfg)
        best = next((r for r in result.history
                     if r["split"] == "valid" and r["epoch"] == result.best_epoch), {})
        rows.append({
            "run": label, "geometry": cfg["geometry"], "curvature_mode": mode,
            "use_inter_level": inter, "use_intra_level": intra,
            "dim": cfg["dim"], "seed": cfg["seed"], "epochs": tcfg.epochs,
            "best_epoch": result.best_epoch,
            **{k: best.get(k) for k in evaluation.METRIC_COLUMNS},
        })
        print(f"{label}: valid mrr={result.best_mrr}")
        if result.diverged:
            diverged = True
            print(f"{label}: training aborted: {result.error}", file=sys.stderr)
    path = os.path.join(out_dir, "ablation.csv")
    write_csv(path, list(rows[0]), rows)
    print(f"ablation grid written to {path}")
    return 2 if diverged else 0


def cmd_analyze(cfg):
    _require(cfg, "dataset_dir", "out_dir")
    out_dir = _prepare_out_dir(cfg)
    store = _load_store(cfg)
    rows = [hierarchy.analyze_relation(store, name, n_samples=cfg["samples"], seed=cfg["seed"])
            for name in cfg["relations"] or store.relations]
    write_csv(os.path.join(out_dir, "hierarchy.csv"), hierarchy.HIERARCHY_COLUMNS, [
        {**dict.fromkeys(hierarchy.HIERARCHY_COLUMNS), "relation": row["relation"],
         "khs": f"error:{row['error']}"} if row.get("error") else row for row in rows])
    for row in rows:
        if row.get("error"):
            print(f"{row['relation']}: error:{row['error']}")
        else:
            print(f"{row['relation']}: khs={row['khs']:.4f} "
                  f"xi={row['xi_mean']:.4f}±{row['xi_stderr']:.4f} "
                  f"(n={row['samples_accepted']}, rejected={row['samples_rejected']})")
    # a relation named by --relations must get its value; a run over all reports those without
    return 1 if cfg["relations"] and any("error" in row for row in rows) else 0


COMMANDS = {
    "train": cmd_train,
    "eval": cmd_eval,
    "ablate": cmd_ablate,
    "analyze": cmd_analyze,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
        return COMMANDS[args.command](cfg)
    except (CliError, data.DatasetError, checkpoint.CheckpointError,
            NumericError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
