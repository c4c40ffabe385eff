import json
import os

import numpy as np
import pytest

from hkge import checkpoint, data, evaluation, training
from hkge.cli import main
from hkge.model import KGEModel, ModelConfig


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
            cfg_path.write_text(json.dumps({"curvature_mode": "fixed"}))
            args += ["--config", str(cfg_path)]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err == "error: --curvature-mode needs hyperbolic geometry\n"
        assert not out.exists()

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

    def test_mode_flag_mapping(self, tree_dir, tmp_path):
        out = tmp_path / "run"
        run_train(tree_dir, out, "--curvature-mode", "relation")
        cfg = json.loads((out / "config.json").read_text())
        assert cfg["curvature_mode"] == "per_relation"

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
        evaluation.write_global_csv(
            want_global, evaluation.evaluate_split(model, store.test, filters, seed=3), "test")
        base = store.test[:, 1] % store.n_base_relations
        rows = sorted(({"relation": store.relations[rel],
                        **evaluation.evaluate_split(model, store.test[base == rel], filters,
                                                    seed=3).row()}
                       for rel in np.unique(base)), key=lambda row: row["relation"])
        want_rel = tmp_path / "want_per_relation.csv"
        evaluation.write_per_relation_csv(want_rel, rows)
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
                     "--relations", "parent_of,wrong_name", "--samples", "100"])
        assert code == 1
        lines = (out / "hierarchy.csv").read_text().strip().split("\n")
        assert "wrong_name,,,error:unknown-relation,,,," in lines
        assert any(line.startswith("parent_of,1") or line.startswith("parent_of,5")
                   for line in lines)


class TestGeometryFlag:
    def test_euclidean_end_to_end(self, tree_dir, tmp_path):
        out = tmp_path / "euc"
        code = run_train(tree_dir, out, "--geometry", "euclidean")
        assert code == 0
        from hkge import checkpoint
        model = checkpoint.load(out / "checkpoint.bin")
        assert model.config.geometry == "euclidean"
