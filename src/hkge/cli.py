"""Command-line surface: train / eval / ablate / analyze.

Flag precedence: built-in defaults < JSON config file (``--config``) <
explicit flags.  The merged result is written to ``<out-dir>/config.json``
before any real work, so a run directory always records exactly what
produced it.
"""

import argparse
import json
import os
import sys

import numpy as np

from . import checkpoint, data, evaluation, hierarchy
from .model import KGEModel, ModelConfig
from .training import MetricLog, NumericError, TrainConfig, train

CLI_MODE_MAP = {
    "fixed": "fixed_one",
    "global": "global",
    "relation": "per_relation",
    "attention": "attention",
}

COMMON_DEFAULTS = {
    "dataset_dir": None,
    "out_dir": None,
    "dim": 32,
    "seed": 0,
    "geometry": "hyperbolic",
    "curvature_mode": "attention",
    "no_inter_level": False,
    "no_intra_level": False,
    "init_scale": 1e-3,
    "epochs": 500,
    "lr": 0.05,
    "batch_size": 500,
    "neg_samples": 50,
    "eval_every": 10,
    "optimizer": "adagrad",
    "patience": 10,
    "grad_clip": None,
}

COMMAND_DEFAULTS = {
    "train": {},
    "eval": {"checkpoint": None, "split": "test", "per_relation": False},
    "ablate": {"curvature_sweep": False},
    "analyze": {"relations": None, "samples": hierarchy.DEFAULT_XI_SAMPLES},
}


class CliError(RuntimeError):
    pass


def _add_common_flags(p):
    p.add_argument("--dataset-dir")
    p.add_argument("--out-dir")
    p.add_argument("--config", help="JSON file with defaults for any flag")
    p.add_argument("--dim", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--geometry", choices=("hyperbolic", "euclidean"))
    p.add_argument("--curvature-mode", choices=tuple(CLI_MODE_MAP),
                   dest="curvature_mode")
    p.add_argument("--no-inter-level", action="store_true", dest="no_inter_level")
    p.add_argument("--no-intra-level", action="store_true", dest="no_intra_level")
    p.add_argument("--init-scale", type=float, dest="init_scale")
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--batch-size", type=int, dest="batch_size")
    p.add_argument("--neg-samples", type=int, dest="neg_samples")
    p.add_argument("--eval-every", type=int, dest="eval_every")
    p.add_argument("--optimizer", choices=("adagrad", "adam"))
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
        _add_common_flags(p)
        parsers[name] = p
    parsers["eval"].add_argument("--checkpoint", help="path to a saved model")
    parsers["eval"].add_argument("--split", choices=("train", "valid", "test"))
    parsers["eval"].add_argument("--per-relation", action="store_true",
                                 dest="per_relation")
    parsers["ablate"].add_argument("--curvature-sweep", action="store_true",
                                   dest="curvature_sweep",
                                   help="sweep the 4 curvature modes instead of the transform grid")
    parsers["analyze"].add_argument("--relations",
                                    help="comma-separated relation names (default: all)")
    parsers["analyze"].add_argument("--samples", type=int,
                                    help="xi triangle samples per relation")
    return parser


def resolve_config(args):
    provided = {k: v for k, v in vars(args).items() if k != "command"}
    config_path = provided.pop("config", None)
    merged = dict(COMMON_DEFAULTS)
    merged.update(COMMAND_DEFAULTS[args.command])
    if config_path:
        try:
            with open(config_path, encoding="utf-8") as fh:
                file_cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise CliError(f"cannot read config file {config_path}: {exc}")
        unknown = set(file_cfg) - set(merged) - {"command"}
        if unknown:
            raise CliError(f"unknown keys in config file: {sorted(unknown)}")
        merged.update({k: v for k, v in file_cfg.items() if k != "command"})
    merged.update(provided)
    if merged.get("curvature_mode") in CLI_MODE_MAP:
        merged["curvature_mode"] = CLI_MODE_MAP[merged["curvature_mode"]]
    merged["command"] = args.command
    return merged


def model_config_from(cfg):
    return ModelConfig(
        dim=cfg["dim"],
        curvature_mode=cfg["curvature_mode"],
        geometry=cfg["geometry"],
        use_inter_level=not cfg["no_inter_level"],
        use_intra_level=not cfg["no_intra_level"],
        init_scale=cfg["init_scale"],
    ).validate()


def train_config_from(cfg):
    return TrainConfig(
        epochs=cfg["epochs"], batch_size=cfg["batch_size"],
        neg_samples=cfg["neg_samples"], lr=cfg["lr"],
        optimizer=cfg["optimizer"], seed=cfg["seed"],
        grad_clip=cfg["grad_clip"], eval_every=cfg["eval_every"],
        patience=cfg["patience"],
    ).validate()


def _require(cfg, *keys):
    for key in keys:
        if not cfg.get(key):
            raise CliError(f"--{key.replace('_', '-')} is required")


def _prepare_out_dir(cfg):
    out_dir = cfg["out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "config.json"), "w", encoding="utf-8") as fh:
        json.dump(cfg, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return out_dir


def _load_augmented(cfg):
    store = data.load_dataset(
        cfg["dataset_dir"], report=lambda msg: print(msg, file=sys.stderr)
    )
    return data.augment_reciprocal(store)


def _check_geometry(cfg):
    """Reject curvature options that euclidean geometry would ignore."""
    if cfg["geometry"] != "euclidean":
        return
    if cfg["curvature_mode"] != "attention":
        raise CliError("--curvature-mode needs hyperbolic geometry")
    if cfg.get("curvature_sweep"):
        raise CliError("--curvature-sweep needs hyperbolic geometry")


def cmd_train(cfg):
    _require(cfg, "dataset_dir", "out_dir")
    mcfg = model_config_from(cfg)
    _check_geometry(cfg)
    tcfg = train_config_from(cfg)
    out_dir = _prepare_out_dir(cfg)
    astore = _load_augmented(cfg)
    filters = data.build_filter_index(astore)
    model = KGEModel.init(mcfg, astore.n_entities, astore.n_relations, seed=cfg["seed"])
    result = train(model, astore, tcfg, filters,
                   log=MetricLog(os.path.join(out_dir, "metrics.csv")))
    checkpoint.save(result.model, os.path.join(out_dir, "checkpoint.bin"))
    data.write_vocab_files(astore, out_dir)
    if result.diverged:
        saved = (f"the best validated parameters, from epoch {result.best_epoch}"
                 if result.best_epoch is not None else
                 f"the parameters at divergence, in epoch {result.last_epoch}")
        print(f"training aborted on a non-finite number; saved {saved}", file=sys.stderr)
        return 2
    if result.best_mrr is not None:
        print(f"best validation MRR {result.best_mrr:.4f} at epoch {result.best_epoch}")
    print(f"checkpoint written to {os.path.join(out_dir, 'checkpoint.bin')}")
    return 0


def cmd_eval(cfg):
    _require(cfg, "dataset_dir", "out_dir", "checkpoint")
    out_dir = _prepare_out_dir(cfg)
    model = checkpoint.load(cfg["checkpoint"])
    astore = _load_augmented(cfg)
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
    evaluation.write_global_csv(os.path.join(out_dir, "metrics.csv"), report,
                                cfg["split"])
    if cfg["per_relation"]:
        rows = evaluation.per_relation_report(
            ranks, triples, astore.relations, astore.n_base_relations
        )
        evaluation.write_per_relation_csv(
            os.path.join(out_dir, "per_relation.csv"), rows
        )
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

CURVATURE_SWEEP = (
    ("c_fixed_one", "fixed_one"),
    ("c_global", "global"),
    ("c_per_relation", "per_relation"),
    ("c_attention", "attention"),
)


def cmd_ablate(cfg):
    _require(cfg, "dataset_dir", "out_dir")
    _check_geometry(cfg)
    tcfg = train_config_from(cfg)
    out_dir = _prepare_out_dir(cfg)
    astore = _load_augmented(cfg)
    filters = data.build_filter_index(astore)
    if cfg["curvature_sweep"]:
        runs = [(label, mode, not cfg["no_inter_level"], not cfg["no_intra_level"])
                for label, mode in CURVATURE_SWEEP]
    else:
        euclidean = cfg["geometry"] == "euclidean"  # where curvature modes are all the same
        runs = [run for run in ABLATION_GRID if not euclidean or run[1] == "attention"]
    rows = []
    for label, mode, inter, intra in runs:
        mcfg = ModelConfig(
            dim=cfg["dim"], curvature_mode=mode, geometry=cfg["geometry"],
            use_inter_level=inter, use_intra_level=intra,
            init_scale=cfg["init_scale"],
        ).validate()
        model = KGEModel.init(mcfg, astore.n_entities, astore.n_relations,
                              seed=cfg["seed"])
        result = train(model, astore, tcfg, filters)
        valid_rows = [r for r in result.history if r["split"] == "valid"]
        best = (max(valid_rows, key=lambda r: r["mrr"])
                if valid_rows else {"mrr": None, "h1": None, "h3": None, "h10": None})
        rows.append({
            "run": label, "geometry": cfg["geometry"], "curvature_mode": mode,
            "use_inter_level": inter, "use_intra_level": intra,
            "dim": cfg["dim"], "seed": cfg["seed"], "epochs": tcfg.epochs,
            "best_epoch": result.best_epoch,
            "mrr": result.best_mrr,
            "h1": best["h1"], "h3": best["h3"], "h10": best["h10"],
        })
        print(f"{label}: valid mrr={result.best_mrr}")
    path = os.path.join(out_dir, "ablation.csv")
    cols = list(rows[0].keys())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(cols) + "\n")
        for row in rows:
            fh.write(",".join(_csv_cell(row[c]) for c in cols) + "\n")
    print(f"ablation grid written to {path}")
    return 0


def _csv_cell(v):
    if v is None:
        return ""
    if isinstance(v, float):
        return f"{v:.6f}"
    return str(v)


def cmd_analyze(cfg):
    _require(cfg, "dataset_dir", "out_dir")
    out_dir = _prepare_out_dir(cfg)
    store = data.load_dataset(
        cfg["dataset_dir"], report=lambda msg: print(msg, file=sys.stderr)
    )
    if cfg["relations"]:
        names = [n.strip() for n in str(cfg["relations"]).split(",") if n.strip()]
    else:
        names = list(store.relations)
    explicit = bool(cfg["relations"])
    rows = []
    exit_code = 0
    for name in names:
        try:
            rows.append(hierarchy.analyze_relation(
                store, name, n_samples=cfg["samples"], seed=cfg["seed"]
            ))
        except KeyError:
            rows.append({"relation": name, "error": "unknown-relation"})
            exit_code = 1
        except ValueError as exc:
            label = "no-edges" if "no edges" in str(exc) else "no-valid-samples"
            rows.append({"relation": name, "error": label})
            if explicit:
                exit_code = 1
            print(f"{name}: {exc}", file=sys.stderr)
    hierarchy.write_hierarchy_csv(os.path.join(out_dir, "hierarchy.csv"), rows)
    for row in rows:
        if row.get("error"):
            print(f"{row['relation']}: error:{row['error']}")
        else:
            print(f"{row['relation']}: khs={row['khs']:.4f} "
                  f"xi={row['xi_mean']:.4f}±{row['xi_stderr']:.4f} "
                  f"(n={row['samples_accepted']}, rejected={row['samples_rejected']})")
    return exit_code


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
