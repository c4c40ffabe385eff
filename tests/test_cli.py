import csv
import dataclasses
import json
import math
import os
import re

import numpy as np
import pytest

from hkge import checkpoint, cli, data, evaluation, hierarchy, training
from hkge.cli import main
from hkge.model import CURVATURE_MODES, KGEModel, ModelConfig
from test_hierarchy import count_bfs_calls


@pytest.fixture(scope="module")
def tree_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("datasets") / "tree"
    data.make_tree_dataset(root)
    return str(root)


def run_train(tree_dir, out_dir, *extra):
    args = ["train", "--dataset-dir", tree_dir, "--out-dir", str(out_dir),
            "--dim", "8", "--epochs", "6", "--eval-every", "3",
            "--batch-size", "99", "--neg-samples", "8", "--seed", "0",
            *extra]
    return main(args)


def run_overflowing(command, tmp_path, capsys):
    """A run whose step size overflows float32 in its first epoch: its exit
    code and stderr lines.  Every NumPy warning fails a test, so a warning
    that escapes the command ends the test."""
    data.make_tree_dataset(tmp_path / "tree", depth=4)
    code = main([command, "--dataset-dir", str(tmp_path / "tree"),
                 "--out-dir", str(tmp_path / "run"), "--dim", "4", "--epochs", "3",
                 "--batch-size", "10", "--neg-samples", "2", "--eval-every", "1",
                 "--lr", "1e30"])
    return code, capsys.readouterr().err.splitlines()


ABORTED = r"training aborted: non-finite score for triple \(h=\d+, r=\d+, t=\d+\)"


class TestTrain:
    def test_writes_run_directory(self, tree_dir, tmp_path):
        out = tmp_path / "run"
        assert run_train(tree_dir, out) == 0
        for name in ("config.json", "checkpoint.bin", "metrics.csv",
                     "entities.tsv", "relations.tsv"):
            assert (out / name).exists(), name
        cfg = json.loads((out / "config.json").read_text())
        assert cfg["dim"] == 8
        assert cfg["curvature_mode"] == "attention"
        assert cfg["command"] == "train"
        lines = (out / "metrics.csv").read_text().strip().split("\n")
        assert lines[0].startswith("epoch,split,loss")
        # 6 train rows + validations at epochs 3 and 6
        assert len(lines) == 9

    def test_vocab_files_cover_reciprocals(self, tree_dir, tmp_path):
        out = tmp_path / "run"
        run_train(tree_dir, out)
        rels = (out / "relations.tsv").read_text().strip().split("\n")
        names = [line.split("\t")[1] for line in rels]
        # base relations in first-appearance order, then their
        # reciprocals in the same order
        assert names[2:] == [f"{n}^-1" for n in names[:2]]
        assert sorted(names[:2]) == ["child_of", "parent_of"]

    def test_odd_dim_rejected_before_any_work(self, tree_dir, tmp_path, capsys):
        out = tmp_path / "never"
        code = main(["train", "--dataset-dir", tree_dir,
                     "--out-dir", str(out), "--dim", "7"])
        assert code == 1
        assert not out.exists()
        assert "even" in capsys.readouterr().err

    def test_missing_dataset_dir(self, tmp_path, capsys):
        code = main(["train", "--dataset-dir", str(tmp_path / "ghost"),
                     "--out-dir", str(tmp_path / "out")])
        assert code == 1
        assert "not found" in capsys.readouterr().err

    def test_required_flags(self, tree_dir, capsys):
        assert main(["train", "--dataset-dir", tree_dir]) == 1
        assert "--out-dir is required" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ("train", "ablate"))
    @pytest.mark.parametrize("source", ("flag", "config"))
    def test_euclidean_curvature_mode_rejected_before_any_work(self, tree_dir, tmp_path,
                                                              capsys, command, source):
        out = tmp_path / "never"
        args = [command, "--dataset-dir", tree_dir, "--out-dir", str(out),
                "--geometry", "euclidean"]
        if source == "flag":
            args += ["--curvature-mode", "global"]
        else:
            cfg_path = tmp_path / "base.json"
            cfg_path.write_text(json.dumps({"curvature_mode": "fixed_one"}))
            args += ["--config", str(cfg_path)]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err == "error: --curvature-mode needs hyperbolic geometry\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ("train", "ablate"))
    @pytest.mark.parametrize("source", ("flag", "config"))
    @pytest.mark.parametrize("key,value", (
        ("grad_clip", 0), ("grad_clip", -1), ("grad_clip", math.nan),
        ("lr", math.nan), ("lr", math.inf), ("init_scale", math.nan), ("init_scale", -math.inf),
        ("lr", 1e39), ("init_scale", 1e39),
    ))
    def test_bad_float_setting_rejected_before_any_work(self, tree_dir, tmp_path, capsys,
                                                        command, source, key, value):
        out = tmp_path / "never"
        args = [command, "--dataset-dir", tree_dir, "--out-dir", str(out)]
        if source == "flag":
            args += [f"--{key.replace('_', '-')}={value}"]
        else:  # json writes NaN and Infinity, and reads them back
            cfg_path = tmp_path / "base.json"
            cfg_path.write_text(json.dumps({key: value}))
            args += ["--config", str(cfg_path)]
        assert main(args) == 1
        if not math.isfinite(value):
            err = f"{key} must be finite, got {value}"
        elif value > 0:  # above float32's range
            err = f"{key} must be at most float32's largest value 3.40282e+38, got {value}"
        else:
            err = f"{key} must be > 0"
        assert capsys.readouterr().err == f"error: {err}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ("train", "ablate"))
    def test_config_file_reaches_train_unchanged(self, tree_dir, tmp_path, monkeypatch,
                                                 command):
        want = {"epochs": 2, "batch_size": 99, "neg_samples": 3, "lr": 0.02,
                "optimizer": "adam", "seed": 7, "grad_clip": 0.5, "eval_every": 2,
                "patience": 2, "init_scale": 0.01}
        fields = dataclasses.fields(training.TrainConfig)
        assert set(want) == {f.name for f in fields}
        assert all(want[f.name] != f.default for f in fields)
        seen = []

        def spy(model, store, config, *args, **kwargs):
            seen.append(dataclasses.asdict(config))
            return training.train(model, store, config, *args, **kwargs)

        monkeypatch.setattr(cli, "train", spy)
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"dim": 4, **want}))
        assert main([command, "--dataset-dir", tree_dir, "--out-dir", str(tmp_path / "run"),
                     "--config", str(cfg_path)]) == 0
        assert seen and all(config == want for config in seen)

    @pytest.mark.parametrize("fail_from", (4, 1))
    def test_divergence_names_the_saved_parameters(self, tree_dir, tmp_path, capsys,
                                                   monkeypatch, fail_from):
        real = training.loss_and_grads
        epochs = []

        def failing(model, batch, negatives):
            epochs.append(1)  # one batch per epoch
            if len(epochs) >= fail_from:
                raise training.NumericError("non-finite score")
            return real(model, batch, negatives)

        monkeypatch.setattr(training, "loss_and_grads", failing)
        out = tmp_path / "run"
        assert run_train(tree_dir, out, "--eval-every", "1", "--batch-size", "100000") == 2
        rows = [line.split(",") for line in (out / "metrics.csv").read_text().split("\n")[1:]]
        valid = [(float(row[3]), -int(row[0])) for row in rows if row[1:2] == ["valid"]]
        if valid:
            assert len(valid) == fail_from - 1
            message = f"saved the best validated parameters, from epoch {-max(valid)[1]}"
        else:
            message = f"saved the parameters at divergence, in epoch {fail_from}"
        assert message in capsys.readouterr().err
        assert (out / "checkpoint.bin").exists()

    def test_overflow_reports_only_the_abort(self, tmp_path, capsys):
        code, err = run_overflowing("train", tmp_path, capsys)
        assert code == 2
        assert len(err) == 1
        assert re.fullmatch(ABORTED + "; saved the parameters at divergence, in epoch 1", err[0])

    def test_degenerate_denominator_saves_the_best_and_names_the_query(
            self, tree_dir, tmp_path, capsys, monkeypatch):
        # after the epoch-2 step every head and translation sits saturated
        # at opposite points of the boundary, so epoch 2's validation meets
        # a zero Mobius denominator; the epoch-1 snapshot is saved
        flags = ("--curvature-mode", "fixed_one", "--eval-every", "1", "--batch-size", "100000")
        ref = tmp_path / "ref"
        assert run_train(tree_dir, ref, *flags, "--epochs", "1") == 0
        step, calls = training.Adagrad.step, []

        def saturating(self, model, grads):
            step(self, model, grads)
            calls.append(1)
            if len(calls) == 2:  # one batch per epoch
                P = model.params
                for name, value in (("ent_emb", 100.0), ("rel_trans", -100.0)):
                    P[name][:] = 0.0
                    P[name][:, 0] = value
                P["rel_scale"][:], P["rel_theta"][:] = 1.0, 0.0

        monkeypatch.setattr(training.Adagrad, "step", saturating)
        out = tmp_path / "run"
        assert run_train(tree_dir, out, *flags) == 2
        assert re.search(r"^training aborted: degenerate mobius denominator for query "
                         r"\(h=\d+, r=\d+\); saved the best validated parameters, "
                         r"from epoch 1$", capsys.readouterr().err, re.M)
        rows = (out / "metrics.csv").read_text().split("\n")[1:-1]
        assert [row.split(",")[:2] for row in rows] == [["1", "train"], ["1", "valid"],
                                                        ["2", "train"]]
        assert (out / "checkpoint.bin").read_bytes() == (ref / "checkpoint.bin").read_bytes()

    def test_flags_take_the_model_config_names(self, tree_dir, tmp_path):
        out = tmp_path / "run"
        assert run_train(tree_dir, out, "--curvature-mode", "per_relation",
                         "--no-intra-level") == 0
        cfg = json.loads((out / "config.json").read_text())
        assert (cfg["curvature_mode"], cfg["use_inter_level"], cfg["use_intra_level"]) == \
            ("per_relation", True, False)
        assert not {"no_inter_level", "no_intra_level"} & set(cfg)
        model = checkpoint.load(str(out / "checkpoint.bin"))
        assert model.config == cli.model_config_from(cfg)

    def test_retired_mode_flag_rejected_by_argparse(self, tree_dir, tmp_path, capsys):
        out = tmp_path / "never"
        with pytest.raises(SystemExit) as exc:
            run_train(tree_dir, out, "--curvature-mode", "fixed")
        assert exc.value.code == 2
        assert "invalid choice: 'fixed'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("cfg,message", (
        ({"curvature_mode": "relation"}, "error: unknown curvature_mode 'relation'\n"),
        ({"no_inter_level": True}, "error: unknown keys in config file: ['no_inter_level']\n"),
        ({"no_intra_level": False}, "error: unknown keys in config file: ['no_intra_level']\n"),
    ))
    def test_retired_config_spelling_rejected_before_any_work(self, tree_dir, tmp_path,
                                                               capsys, cfg, message):
        out = tmp_path / "never"
        cfg_path = tmp_path / "old.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run_train(tree_dir, out, "--config", str(cfg_path)) == 1
        assert capsys.readouterr().err == message
        assert not out.exists()

    def test_config_file_precedence(self, tree_dir, tmp_path):
        cfg_path = tmp_path / "base.json"
        cfg_path.write_text(json.dumps({"dim": 16, "epochs": 2, "lr": 0.02}))
        out = tmp_path / "run"
        code = main(["train", "--dataset-dir", tree_dir, "--out-dir", str(out),
                     "--config", str(cfg_path), "--epochs", "3",
                     "--batch-size", "99", "--eval-every", "3"])
        assert code == 0
        resolved = json.loads((out / "config.json").read_text())
        assert resolved["dim"] == 16      # from the file
        assert resolved["epochs"] == 3    # flag wins
        assert resolved["lr"] == 0.02

    def test_unknown_config_key(self, tree_dir, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"learning_rate": 0.1}))
        code = main(["train", "--dataset-dir", tree_dir,
                     "--out-dir", str(tmp_path / "out"),
                     "--config", str(cfg_path)])
        assert code == 1
        assert "unknown keys" in capsys.readouterr().err

    @pytest.mark.parametrize("command,key,value", (
        ("train", "use_inter_level", "yes"),
        ("train", "dim", 8.0),
        ("train", "seed", 1.5),
        ("train", "batch_size", 99.0),
        ("train", "epochs", "2"),
        ("train", "grad_clip", "0.5"),
        ("train", "dim", True),
        ("train", "lr", True),
        ("train", "use_intra_level", 1),
        ("train", "optimizer", None),
        ("train", "out_dir", 3),
        ("eval", "per_relation", "no"),
        ("analyze", "relations", "parent_of"),
        ("analyze", "relations", ["parent_of", 3]),
    ))
    def test_config_value_of_wrong_type_rejected_before_any_work(self, tree_dir, tmp_path,
                                                                 capsys, command, key, value):
        out = tmp_path / "never"
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({key: value}))
        assert main([command, "--dataset-dir", tree_dir, "--out-dir", str(out),
                     "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: config file: {key} must be ")
        assert err.endswith(f", got {value!r}\n")
        assert not out.exists()

    def test_config_values_of_allowed_types_accepted(self, tree_dir, tmp_path):
        # an int for a float setting, a string for a None-default path, null grad_clip
        out = tmp_path / "run"
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"dataset_dir": tree_dir, "out_dir": str(out),
                                        "dim": 4, "epochs": 1, "lr": 1, "init_scale": 0,
                                        "grad_clip": None, "use_inter_level": False}))
        assert main(["train", "--config", str(cfg_path)]) == 0
        resolved = json.loads((out / "config.json").read_text())
        assert (resolved["lr"], resolved["grad_clip"], resolved["use_inter_level"]) == \
            (1, None, False)

    @pytest.mark.parametrize("content", ("[1, 2]", '["dim"]', "3", '"dim"', "null"))
    def test_config_file_must_hold_an_object(self, tree_dir, tmp_path, capsys, content):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(content)
        out = tmp_path / "never"
        assert main(["train", "--dataset-dir", tree_dir, "--out-dir", str(out),
                     "--config", str(cfg_path)]) == 1
        assert "must hold a JSON object" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("content", (None, "{", "{'dim': 4}"))
    def test_unreadable_config_file(self, tree_dir, tmp_path, capsys, content):
        # None: a directory stands where the file should be; else text that is no JSON
        cfg_path = tmp_path / "bad.json"
        if content is None:
            cfg_path.mkdir()
        else:
            cfg_path.write_text(content)
        out = tmp_path / "never"
        assert main(["analyze", "--dataset-dir", tree_dir, "--out-dir", str(out),
                     "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: cannot read config file {cfg_path}: ")
        assert not out.exists()


class TestEval:
    def test_reproduces_final_training_metrics(self, tree_dir, tmp_path):
        run_dir = tmp_path / "run"
        run_train(tree_dir, run_dir)
        eval_dir = tmp_path / "eval"
        code = main(["eval", "--dataset-dir", tree_dir, "--out-dir", str(eval_dir),
                     "--checkpoint", str(run_dir / "checkpoint.bin"),
                     "--split", "valid", "--seed", "0"])
        assert code == 0
        # the checkpoint holds the best-validation snapshot, so the eval
        # numbers equal the best row in the training log, digit for digit
        train_rows = [line.split(",")
                      for line in (run_dir / "metrics.csv").read_text().strip().split("\n")
                      if ",valid," in line]
        best = max(train_rows, key=lambda row: float(row[3]))
        eval_row = (eval_dir / "metrics.csv").read_text().strip().split("\n")[1].split(",")
        assert eval_row[2:] == best[3:7]

    def test_per_relation_csv(self, tree_dir, tmp_path):
        run_dir = tmp_path / "run"
        run_train(tree_dir, run_dir)
        eval_dir = tmp_path / "eval"
        code = main(["eval", "--dataset-dir", tree_dir, "--out-dir", str(eval_dir),
                     "--checkpoint", str(run_dir / "checkpoint.bin"),
                     "--split", "test", "--per-relation"])
        assert code == 0
        lines = (eval_dir / "per_relation.csv").read_text().strip().split("\n")
        assert lines[0] == "relation,n,mrr,h1,h3,h10"
        assert [line.split(",")[0] for line in lines[1:]] == ["child_of", "parent_of"]

    def test_per_relation_ranks_once_and_csvs_unchanged(self, tree_dir, tmp_path,
                                                         monkeypatch):
        run_dir = tmp_path / "run"
        run_train(tree_dir, run_dir)
        calls = []
        scorer = KGEModel.score_against_all
        monkeypatch.setattr(KGEModel, "score_against_all",
                            lambda self, h, r, table=None:
                            calls.append((h, r)) or scorer(self, h, r, table))
        eval_dir = tmp_path / "eval"
        assert main(["eval", "--dataset-dir", tree_dir, "--out-dir", str(eval_dir),
                     "--checkpoint", str(run_dir / "checkpoint.bin"),
                     "--split", "test", "--per-relation", "--seed", "3"]) == 0
        monkeypatch.undo()
        store = data.augment_reciprocal(data.load_dataset(tree_dir))
        assert len(calls) == len(store.test)
        # both CSVs equal ranking the split, and each relation's queries, on their own
        model = checkpoint.load(str(run_dir / "checkpoint.bin"))
        filters = data.build_filter_index(store)
        want_global = tmp_path / "want_metrics.csv"
        cli.write_csv(want_global, ("split", "n", *evaluation.METRIC_COLUMNS),
                      [{"split": "test",
                        **evaluation.evaluate_split(model, store.test, filters, seed=3).row()}])
        base = store.test[:, 1] % store.n_base_relations
        rows = sorted(({"relation": store.relations[rel],
                        **evaluation.evaluate_split(model, store.test[base == rel], filters,
                                                    seed=3).row()}
                       for rel in np.unique(base)), key=lambda row: row["relation"])
        want_rel = tmp_path / "want_per_relation.csv"
        cli.write_csv(want_rel, ("relation", "n", *evaluation.METRIC_COLUMNS), rows)
        assert (eval_dir / "metrics.csv").read_text() == want_global.read_text()
        assert (eval_dir / "per_relation.csv").read_text() == want_rel.read_text()

    def test_corrupt_checkpoint(self, tree_dir, tmp_path, capsys):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"JUNKJUNKJUNK")
        code = main(["eval", "--dataset-dir", tree_dir,
                     "--out-dir", str(tmp_path / "out"),
                     "--checkpoint", str(bad)])
        assert code == 1
        assert "magic" in capsys.readouterr().err

    def test_header_that_is_no_model(self, tree_dir, tmp_path, capsys):
        store = data.augment_reciprocal(data.load_dataset(tree_dir))
        model = KGEModel.init(ModelConfig(dim=4), store.n_entities, store.n_relations)
        path = tmp_path / "odd.bin"
        checkpoint.save(model, str(path))
        blob = bytearray(path.read_bytes())
        blob[8:12] = (3).to_bytes(4, "little")  # dim
        path.write_bytes(bytes(blob))
        code = main(["eval", "--dataset-dir", tree_dir, "--out-dir", str(tmp_path / "out"),
                     "--checkpoint", str(path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: dim must be a positive even integer, got 3")
        assert "Traceback" not in err

    def test_non_finite_checkpoint(self, tree_dir, tmp_path, capsys):
        store = data.augment_reciprocal(data.load_dataset(tree_dir))
        cfg = ModelConfig(dim=8, curvature_mode="fixed_one")
        model = KGEModel.init(cfg, store.n_entities, store.n_relations)
        model.params["ent_emb"][:] = np.nan
        path = tmp_path / "nan.bin"
        checkpoint.save(model, str(path))
        code = main(["eval", "--dataset-dir", tree_dir, "--out-dir", str(tmp_path / "out"),
                     "--checkpoint", str(path)])
        assert code == 1
        err = capsys.readouterr().err
        assert "error: non-finite score" in err
        assert "Traceback" not in err

    def test_dataset_mismatch(self, tree_dir, tmp_path, capsys):
        run_dir = tmp_path / "run"
        run_train(tree_dir, run_dir)
        other = tmp_path / "datasets" / "small"
        data.make_tree_dataset(other, depth=4)
        code = main(["eval", "--dataset-dir", str(other),
                     "--out-dir", str(tmp_path / "out"),
                     "--checkpoint", str(run_dir / "checkpoint.bin")])
        assert code == 1
        assert "entities" in capsys.readouterr().err

    def test_missing_checkpoint_flag(self, tree_dir, tmp_path, capsys):
        code = main(["eval", "--dataset-dir", tree_dir,
                     "--out-dir", str(tmp_path / "out")])
        assert code == 1
        assert "--checkpoint is required" in capsys.readouterr().err


class TestAblate:
    def test_transform_grid(self, tree_dir, tmp_path):
        out = tmp_path / "ablate"
        code = main(["ablate", "--dataset-dir", tree_dir, "--out-dir", str(out),
                     "--dim", "4", "--epochs", "2", "--eval-every", "2",
                     "--batch-size", "99", "--neg-samples", "4"])
        assert code == 0
        lines = (out / "ablation.csv").read_text().strip().split("\n")
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        assert [row["run"] for row in rows] == [
            "full", "no_inter_level", "no_intra_level", "no_transforms",
            "fixed_curvature", "fixed_curvature_no_transforms",
        ]
        by_run = {row["run"]: row for row in rows}
        assert by_run["full"]["curvature_mode"] == "attention"
        assert by_run["no_inter_level"]["use_inter_level"] == "False"
        assert by_run["fixed_curvature"]["curvature_mode"] == "fixed_one"
        for row in rows:
            assert 0.0 <= float(row["mrr"]) <= 1.0

    def test_overflow_reports_only_each_abort(self, tmp_path, capsys):
        code, err = run_overflowing("ablate", tmp_path, capsys)
        assert code == 2
        assert err
        labels = [run[0] for run in cli.ABLATION_GRID]
        for line in err:
            label, _, rest = line.partition(": ")
            assert label in labels and re.fullmatch(ABORTED, rest), line

    def test_diverged_run_exits_2_and_keeps_every_row(self, tree_dir, tmp_path, capsys,
                                                      monkeypatch):
        real = training.loss_and_grads

        def failing(model, batch, negatives):
            if not model.config.use_inter_level and model.config.use_intra_level:
                raise training.NumericError("non-finite gradient in parameter group ent_emb")
            return real(model, batch, negatives)

        monkeypatch.setattr(training, "loss_and_grads", failing)
        out = tmp_path / "ablate"
        code = main(["ablate", "--dataset-dir", tree_dir, "--out-dir", str(out),
                     "--dim", "4", "--epochs", "2", "--eval-every", "1",
                     "--batch-size", "99", "--neg-samples", "4"])
        assert code == 2
        assert capsys.readouterr().err == (
            "no_inter_level: training aborted: non-finite gradient in parameter group ent_emb\n")
        lines = (out / "ablation.csv").read_text().strip().split("\n")
        header = lines[0].split(",")
        rows = {line.split(",")[0]: dict(zip(header, line.split(","))) for line in lines[1:]}
        assert list(rows) == [run[0] for run in cli.ABLATION_GRID]
        assert rows.pop("no_inter_level")["mrr"] == ""
        for row in rows.values():
            assert 0.0 <= float(row["mrr"]) <= 1.0

    def test_curvature_sweep(self, tree_dir, tmp_path):
        out = tmp_path / "sweep"
        code = main(["ablate", "--dataset-dir", tree_dir, "--out-dir", str(out),
                     "--dim", "4", "--epochs", "2", "--eval-every", "2",
                     "--batch-size", "99", "--neg-samples", "4",
                     "--curvature-sweep"])
        assert code == 0
        lines = (out / "ablation.csv").read_text().strip().split("\n")
        modes = [line.split(",")[2] for line in lines[1:]]
        assert modes == ["fixed_one", "global", "per_relation", "attention"]

    def test_euclidean_curvature_sweep_rejected_before_any_work(self, tree_dir, tmp_path,
                                                                 capsys):
        out = tmp_path / "sweep"
        code = main(["ablate", "--dataset-dir", tree_dir, "--out-dir", str(out),
                     "--geometry", "euclidean", "--curvature-sweep"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: --curvature-sweep")
        assert not out.exists()

    @pytest.mark.parametrize("sweep", (False, True))
    @pytest.mark.parametrize("source", ("flag", "config"))
    def test_curvature_mode_rejected_before_any_work(self, tree_dir, tmp_path, capsys,
                                                     sweep, source):
        out = tmp_path / "never"
        args = ["ablate", "--dataset-dir", tree_dir, "--out-dir", str(out)]
        args += ["--curvature-sweep"] if sweep else []
        if source == "flag":
            args += ["--curvature-mode", "global"]
        else:
            cfg_path = tmp_path / "base.json"
            cfg_path.write_text(json.dumps({"curvature_mode": "per_relation"}))
            args += ["--config", str(cfg_path)]
        assert main(args) == 1
        assert capsys.readouterr().err == "error: --curvature-mode is set by each ablation run\n"
        assert not out.exists()

    @pytest.mark.parametrize("key", ("use_inter_level", "use_intra_level"))
    @pytest.mark.parametrize("source", ("flag", "config"))
    def test_grid_rejects_transform_flags_before_any_work(self, tree_dir, tmp_path, capsys,
                                                          key, source):
        out = tmp_path / "never"
        args = ["ablate", "--dataset-dir", tree_dir, "--out-dir", str(out)]
        if source == "flag":
            args += ["--" + key.replace("use_", "no-").replace("_", "-")]
        else:
            cfg_path = tmp_path / "base.json"
            cfg_path.write_text(json.dumps({key: False}))
            args += ["--config", str(cfg_path)]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --no-inter-level and --no-intra-level are set by each grid run")
        assert not out.exists()

    def test_curvature_sweep_honours_transform_flags(self, tree_dir, tmp_path):
        out = tmp_path / "sweep"
        code = main(["ablate", "--dataset-dir", tree_dir, "--out-dir", str(out),
                     "--dim", "4", "--epochs", "1", "--eval-every", "1",
                     "--batch-size", "99", "--neg-samples", "4",
                     "--curvature-sweep", "--no-inter-level"])
        assert code == 0
        lines = (out / "ablation.csv").read_text().strip().split("\n")
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        assert [(row["use_inter_level"], row["use_intra_level"]) for row in rows] == [
            ("False", "True")] * 4

    def test_euclidean_grid_runs_attention_rows_only(self, tree_dir, tmp_path):
        out = tmp_path / "ablate"
        code = main(["ablate", "--dataset-dir", tree_dir, "--out-dir", str(out),
                     "--geometry", "euclidean", "--dim", "4", "--epochs", "2",
                     "--eval-every", "2", "--batch-size", "99", "--neg-samples", "4"])
        assert code == 0
        lines = (out / "ablation.csv").read_text().strip().split("\n")
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        assert [row["run"] for row in rows] == [
            "full", "no_inter_level", "no_intra_level", "no_transforms"]
        assert {(row["geometry"], row["curvature_mode"]) for row in rows} == {
            ("euclidean", "attention")}

    def test_rows_share_seed_and_budget(self, tree_dir, tmp_path):
        out = tmp_path / "ablate"
        main(["ablate", "--dataset-dir", tree_dir, "--out-dir", str(out),
              "--dim", "4", "--epochs", "2", "--eval-every", "2",
              "--batch-size", "99", "--neg-samples", "4", "--seed", "11"])
        lines = (out / "ablation.csv").read_text().strip().split("\n")
        header = lines[0].split(",")
        for line in lines[1:]:
            row = dict(zip(header, line.split(",")))
            assert row["seed"] == "11"
            assert row["epochs"] == "2"


@pytest.fixture(scope="module")
def shapes_dir(tmp_path_factory):
    """One relation per analyze outcome: `star` (a hub and 3 leaves) has xi;
    `pair` has 2 nodes, `trio` a 3-node path and a triangle, and `clique` 4
    nodes all joined, so none has a valid xi sample; `held` is only in valid."""
    root = tmp_path_factory.mktemp("datasets") / "shapes"
    root.mkdir()
    train = [("h", "star", f"l{i}") for i in range(3)] + [("p0", "pair", "p1")]
    train += [("t0", "trio", "t1"), ("t1", "trio", "t2")]
    train += [(f"u{i}", "trio", f"u{(i + 1) % 3}") for i in range(3)]
    train += [(f"k{i}", "clique", f"k{j}") for i in range(4) for j in range(i + 1, 4)]
    for name, rows in (("train", train), ("valid", [("p1", "held", "p0")]), ("test", [])):
        (root / f"{name}.txt").write_text("".join(f"{h}\t{r}\t{t}\n" for h, r, t in rows))
    return str(root)


NO_XI = {name: (f"{name},,,{label},,,,", f"{name}: {label}") for name, label in (
    ("pair", "error:no-valid-samples"), ("trio", "error:no-valid-samples"),
    ("clique", "error:no-valid-samples"), ("held", "error:no-edges"),
    ("nope", "error:unknown-relation"))}
STAR = (r"star,4,3,1\.000000,-1\.000000,0\.000000,20,\d+",
        r"star: khs=1\.0000 xi=-1\.0000±0\.0000 \(n=20, rejected=\d+\)")


class TestAnalyze:
    def test_tree_hierarchy(self, tree_dir, tmp_path, capsys):
        out = tmp_path / "analyze"
        code = main(["analyze", "--dataset-dir", tree_dir, "--out-dir", str(out),
                     "--samples", "500", "--seed", "0"])
        assert code == 0
        lines = (out / "hierarchy.csv").read_text().strip().split("\n")
        assert lines[0].startswith("relation,nodes,edges,khs")
        rows = {line.split(",")[0]: line.split(",") for line in lines[1:]}
        assert set(rows) == {"parent_of", "child_of"}
        for name, row in rows.items():
            assert row[3] == "1.000000"       # pure hierarchy
            assert float(row[4]) < 0.0        # tree-like xi

    def test_explicit_relation_list(self, tree_dir, tmp_path):
        out = tmp_path / "analyze"
        code = main(["analyze", "--dataset-dir", tree_dir, "--out-dir", str(out),
                     "--relations", "parent_of", "--samples", "200"])
        assert code == 0
        lines = (out / "hierarchy.csv").read_text().strip().split("\n")
        assert len(lines) == 2
        assert lines[1].startswith("parent_of,")

    def test_unknown_relation_fails_with_error_row(self, tree_dir, tmp_path, capsys):
        out = tmp_path / "analyze"
        code = main(["analyze", "--dataset-dir", tree_dir, "--out-dir", str(out),
                     "--relations", "parent_of", "--relations", "wrong_name",
                     "--samples", "100"])
        assert code == 1
        lines = (out / "hierarchy.csv").read_text().strip().split("\n")
        assert "wrong_name,,,error:unknown-relation,,,," in lines
        assert any(line.startswith("parent_of,1") or line.startswith("parent_of,5")
                   for line in lines)

    # every relation gets one row, and an error label where it has no value
    def run(self, shapes_dir, tmp_path, capsys, *relations):
        out = tmp_path / "analyze"
        code = main(["analyze", "--dataset-dir", shapes_dir, "--out-dir", str(out),
                     "--samples", "20", *(arg for r in relations for arg in ("--relations", r))])
        lines = (out / "hierarchy.csv").read_text().split("\n")
        assert lines[0] == ",".join(hierarchy.HIERARCHY_COLUMNS) and lines[-1] == ""
        assert not any(cell == "nan" for line in lines for cell in line.split(","))
        stdout = capsys.readouterr().out
        assert "nan" not in stdout
        return code, lines[1:-1], stdout.split("\n")[:-1]

    def test_all_relations(self, shapes_dir, tmp_path, capsys):
        code, rows, stdout = self.run(shapes_dir, tmp_path, capsys)
        assert code == 0  # a relation without a value is no error when none was named
        assert re.fullmatch(STAR[0], rows[0]) and re.fullmatch(STAR[1], stdout[0])
        names = ("pair", "trio", "clique", "held")
        assert rows[1:] == [NO_XI[name][0] for name in names]
        assert stdout[1:] == [NO_XI[name][1] for name in names]

    @pytest.mark.parametrize("name", NO_XI)
    def test_named_relation_without_a_value_fails(self, shapes_dir, tmp_path, capsys, name):
        code, rows, stdout = self.run(shapes_dir, tmp_path, capsys, "star", name)
        assert code == 1
        assert re.fullmatch(STAR[0], rows[0]) and re.fullmatch(STAR[1], stdout[0])
        assert (rows[1:], stdout[1:]) == ([NO_XI[name][0]], [NO_XI[name][1]])

    def test_three_node_components_are_not_drawn(self, shapes_dir, tmp_path, capsys,
                                                 monkeypatch):
        calls = count_bfs_calls(monkeypatch)
        assert self.run(shapes_dir, tmp_path, capsys, "trio")[:2] == (1, [NO_XI["trio"][0]])
        assert calls == []

    def test_other_errors_propagate(self, shapes_dir, tmp_path, capsys, monkeypatch):
        def boom(*args):
            raise ValueError("boom")

        monkeypatch.setattr(hierarchy, "xi_triangle", boom)
        out = tmp_path / "analyze"
        assert main(["analyze", "--dataset-dir", shapes_dir, "--out-dir", str(out),
                     "--samples", "20"]) == 1
        assert capsys.readouterr().err == "error: boom\n"
        assert not (out / "hierarchy.csv").exists()


class TestCompanionNamedRelation:
    """A base relation `a^-1` next to `a`: reciprocal augmentation would give
    two relations that name, so train and eval refuse it; analyze never augments."""

    ERR = "error: relation 'a^-1' is named like the reciprocal of 'a'\n"

    @pytest.fixture
    def clash_dir(self, tmp_path):
        root = tmp_path / "clash"
        root.mkdir()
        rows = {"train": "x\ta\ty\ny\ta^-1\tz\n", "valid": "", "test": ""}
        for name, text in rows.items():
            (root / f"{name}.txt").write_text(text)
        return str(root)

    def test_train_refuses_it(self, clash_dir, tmp_path, capsys):
        out = tmp_path / "train"
        assert main(["train", "--dataset-dir", clash_dir, "--out-dir", str(out),
                     "--dim", "4", "--epochs", "1"]) == 1
        assert capsys.readouterr().err == self.ERR
        assert not (out / "checkpoint.bin").exists()

    def test_eval_refuses_it(self, clash_dir, tmp_path, capsys):
        ckpt = tmp_path / "model.bin"
        checkpoint.save(KGEModel.init(ModelConfig(dim=4), 3, 4), ckpt)
        assert main(["eval", "--dataset-dir", clash_dir, "--out-dir", str(tmp_path / "eval"),
                     "--checkpoint", str(ckpt)]) == 1
        assert capsys.readouterr().err == self.ERR

    def test_analyze_gives_each_relation_a_row(self, clash_dir, tmp_path):
        out = tmp_path / "analyze"
        assert main(["analyze", "--dataset-dir", clash_dir, "--out-dir", str(out),
                     "--samples", "5"]) == 0
        rows = list(csv.reader((out / "hierarchy.csv").read_text().split("\n")[1:-1]))
        assert [row[0] for row in rows] == ["a", "a^-1"]


class TestGeometryFlag:
    def test_euclidean_end_to_end(self, tree_dir, tmp_path):
        out = tmp_path / "euc"
        code = run_train(tree_dir, out, "--geometry", "euclidean")
        assert code == 0
        from hkge import checkpoint
        model = checkpoint.load(out / "checkpoint.bin")
        assert model.config.geometry == "euclidean"


class TestCsvFiles:
    NAMES = {"parent_of": "is,a", "child_of": 'say "x"'}

    @pytest.fixture
    def quoted_dir(self, tmp_path):
        """The toy tree with relation names that need CSV quoting."""
        root = tmp_path / "quoted"
        data.make_tree_dataset(root)
        for path in root.glob("*.txt"):
            text = path.read_text(encoding="utf-8")
            for old, new in self.NAMES.items():
                text = text.replace(f"\t{old}\t", f"\t{new}\t")
            path.write_text(text, encoding="utf-8")
        return str(root)

    def test_analyze_selects_a_relation_whose_name_holds_a_comma(self, quoted_dir, tmp_path):
        cfg_path = tmp_path / "analyze.json"
        cfg_path.write_text(json.dumps({"relations": ["is,a"], "samples": 50}))
        common = ["analyze", "--dataset-dir", quoted_dir]
        assert main([*common, "--out-dir", str(tmp_path / "flag"), "--relations", "is,a",
                     "--samples", "50"]) == 0
        assert main([*common, "--out-dir", str(tmp_path / "file"), "--config",
                     str(cfg_path)]) == 0
        raw = (tmp_path / "flag" / "hierarchy.csv").read_bytes()
        rows = list(csv.reader(raw.decode("utf-8").split("\n")[:-1]))
        assert [row[0] for row in rows[1:]] == ["is,a"]
        assert rows[1][3] == "1.000000"
        assert (tmp_path / "file" / "hierarchy.csv").read_bytes() == raw

    def test_every_table_is_well_formed(self, quoted_dir, tmp_path):
        small = ["--dim", "4", "--epochs", "2", "--eval-every", "2",
                 "--batch-size", "99", "--neg-samples", "4"]
        common = ["--dataset-dir", quoted_dir]
        assert main(["train", *common, "--out-dir", str(tmp_path / "train"), *small]) == 0
        assert main(["eval", *common, "--out-dir", str(tmp_path / "eval"), "--per-relation",
                     "--checkpoint", str(tmp_path / "train" / "checkpoint.bin")]) == 0
        assert main(["ablate", *common, "--out-dir", str(tmp_path / "ablate"), *small]) == 0
        assert main(["analyze", *common, "--out-dir", str(tmp_path / "analyze"),
                     "--samples", "50"]) == 0
        tables = {}
        for run in ("train", "eval", "ablate", "analyze"):
            for path in (tmp_path / run).glob("*.csv"):
                raw = path.read_bytes()
                assert b"\r" not in raw, path
                rows = list(csv.reader(raw.decode("utf-8").split("\n")[:-1]))
                assert all(len(row) == len(rows[0]) for row in rows), path
                tables[f"{run}/{path.name}"] = rows
        assert set(tables) == {"train/metrics.csv", "eval/metrics.csv",
                               "eval/per_relation.csv", "ablate/ablation.csv",
                               "analyze/hierarchy.csv"}
        for name in ("eval/per_relation.csv", "analyze/hierarchy.csv"):
            assert sorted(row[0] for row in tables[name][1:]) == sorted(self.NAMES.values())


class ReadRecorder(dict):
    """A resolved config that records the keys read through [] and get()."""

    def __init__(self, cfg):
        super().__init__(cfg)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


RUN_FLAGS = ["--dataset-dir", "--out-dir", "--config", "--seed"]
MODEL_FLAGS = ["--dim", "--geometry", "--curvature-mode", "--no-inter-level",
               "--no-intra-level", "--init-scale", "--epochs", "--lr", "--batch-size",
               "--neg-samples", "--eval-every", "--optimizer", "--patience", "--grad-clip"]
EVAL_KEYS = {"dataset_dir", "out_dir", "seed", "checkpoint", "split", "per_relation"}
ANALYZE_KEYS = {"dataset_dir", "out_dir", "seed", "relations", "samples"}


def subparser_actions(command):
    """The options of one command's parser, by dest, without -h."""
    (sub,) = (a for a in cli.build_parser()._actions if a.dest == "command")
    return {a.dest: a for a in sub.choices[command]._actions if a.dest != "help"}


class TestSettings:
    @pytest.mark.parametrize("command", cli.MODEL_COMMANDS)
    def test_model_flags_are_named_after_config_fields(self, command):
        # one spelling per setting: the flag's dest, the --config key and the
        # config.json key are all the ModelConfig or TrainConfig field name
        own = {"config", *cli.RUN_DEFAULTS, *cli.COMMAND_DEFAULTS[command]}
        dests = set(subparser_actions(command)) - own
        assert dests == set(cli.MODEL_DEFAULTS)
        fields = {f.name for cls in (ModelConfig, training.TrainConfig)
                  for f in dataclasses.fields(cls)}
        assert dests <= fields

    @pytest.mark.parametrize("command", cli.MODEL_COMMANDS)
    def test_curvature_mode_choices_are_the_model_modes(self, command):
        assert tuple(subparser_actions(command)["curvature_mode"].choices) == CURVATURE_MODES
    @pytest.mark.parametrize("command,flags", (
        ("train", RUN_FLAGS + MODEL_FLAGS),
        ("eval", RUN_FLAGS + ["--checkpoint", "--split", "--per-relation"]),
        ("ablate", RUN_FLAGS + MODEL_FLAGS + ["--curvature-sweep"]),
        ("analyze", RUN_FLAGS + ["--relations", "--samples"]),
    ))
    def test_help_lists_the_flags_the_command_reads(self, capsys, command, flags):
        with pytest.raises(SystemExit):
            main([command, "-h"])
        assert re.findall(r"^  (--[a-z-]+)", capsys.readouterr().out, re.M) == flags

    def test_every_accepted_setting_is_read(self, tree_dir, tmp_path, monkeypatch):
        resolved, resolve = [], cli.resolve_config

        def recording(args):
            resolved.append(ReadRecorder(resolve(args)))
            return resolved[-1]

        monkeypatch.setattr(cli, "resolve_config", recording)
        small = ["--dim", "4", "--epochs", "1", "--batch-size", "99", "--neg-samples", "4"]
        runs = {
            "train": small,
            "eval": ["--checkpoint", str(tmp_path / "train" / "checkpoint.bin")],
            "ablate": small,
            "analyze": ["--samples", "50"],
        }
        for command, extra in runs.items():
            assert main([command, "--dataset-dir", tree_dir,
                         "--out-dir", str(tmp_path / command), *extra]) == 0
            cfg = resolved[-1]
            assert set(cfg) - cfg.read == {"command"}, command
        for command, keys in (("eval", EVAL_KEYS), ("analyze", ANALYZE_KEYS)):
            written = json.loads((tmp_path / command / "config.json").read_text())
            assert set(written) == keys | {"command"}

    @pytest.mark.parametrize("command", ("eval", "analyze"))
    @pytest.mark.parametrize("source", ("flag", "config"))
    def test_model_setting_rejected_before_any_work(self, tree_dir, tmp_path, capsys,
                                                    command, source):
        out = tmp_path / "never"
        args = [command, "--dataset-dir", tree_dir, "--out-dir", str(out)]
        if source == "flag":
            with pytest.raises(SystemExit) as exc:
                main([*args, "--dim", "8"])
            assert exc.value.code == 2
        else:
            cfg_path = tmp_path / "model.json"
            cfg_path.write_text(json.dumps({"dim": 8}))
            assert main([*args, "--config", str(cfg_path)]) == 1
            assert "unknown keys in config file: ['dim']" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command,key,value", (
        ("train", "seed", -1),
        ("eval", "seed", -1),
        ("ablate", "seed", -1),
        ("analyze", "seed", -1),
        ("analyze", "samples", 0),
        ("analyze", "samples", -3),
    ))
    @pytest.mark.parametrize("source", ("flag", "config"))
    def test_value_below_minimum_rejected_before_any_work(self, tree_dir, tmp_path, capsys,
                                                          command, key, value, source):
        out = tmp_path / "never"
        args = [command, "--dataset-dir", tree_dir, "--out-dir", str(out)]
        if command == "eval":
            args += ["--checkpoint", str(tmp_path / "checkpoint.bin")]
        if source == "flag":
            args += [f"--{key}", str(value)]
        else:
            cfg_path = tmp_path / "low.json"
            cfg_path.write_text(json.dumps({key: value}))
            args += ["--config", str(cfg_path)]
        assert main(args) == 1
        minimum = {"seed": 0, "samples": 1}[key]
        assert capsys.readouterr().err == f"error: {key} must be >= {minimum}\n"
        assert not out.exists()
