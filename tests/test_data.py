import numpy as np
import pytest

from hkge import data
from hkge.data import (
    DatasetError,
    TripleStore,
    augment_reciprocal,
    build_filter_index,
    build_vocab,
    check_reference,
    dataset_stats,
    load_dataset,
    load_split,
    make_tree_dataset,
    normalize_dataset_name,
    write_vocab_files,
)

TOY = {
    "train": [("a", "likes", "b"), ("b", "likes", "c"), ("a", "knows", "c")],
    "valid": [("c", "likes", "a")],
    "test": [("d", "knows", "a")],
}


def write_toy(root):
    for split, rows in TOY.items():
        with open(root / f"{split}.txt", "w") as fh:
            for h, r, t in rows:
                fh.write(f"{h}\t{r}\t{t}\n")
    return root


class TestLoadSplit:
    def test_parses_in_order(self, tmp_path):
        path = tmp_path / "train.txt"
        path.write_text("a\tr\tb\nb\tr\tc\n")
        assert load_split(path) == [("a", "r", "b"), ("b", "r", "c")]

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "train.txt"
        path.write_text("a\tr\tb\n\n   \nb\tr\tc\n")
        assert len(load_split(path)) == 2

    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetError, match="missing split file"):
            load_split(tmp_path / "nope.txt")

    def test_wrong_field_count_reports_line(self, tmp_path):
        path = tmp_path / "train.txt"
        path.write_text("a\tr\tb\na\tb\n")
        with pytest.raises(DatasetError, match=r":2: expected 3"):
            load_split(path)

    def test_symbols_may_contain_spaces(self, tmp_path):
        path = tmp_path / "train.txt"
        path.write_text("New York\tpart of\tUnited States\n")
        assert load_split(path) == [("New York", "part of", "United States")]


class TestVocab:
    def test_first_appearance_order(self):
        store = build_vocab(TOY)
        assert store.entities == ["a", "b", "c", "d"]
        assert store.relations == ["likes", "knows"]
        assert store.n_base_relations == 2

    def test_encoding(self):
        store = build_vocab(TOY)
        np.testing.assert_array_equal(store.train,
                                      [[0, 0, 1], [1, 0, 2], [0, 1, 2]])
        np.testing.assert_array_equal(store.valid, [[2, 0, 0]])
        np.testing.assert_array_equal(store.test, [[3, 1, 0]])

    def test_encode_decode_round_trip(self):
        store = build_vocab(TOY)
        for split in TOY:
            for names in TOY[split]:
                assert store.decode(store.encode(names)) == names

    def test_encode_unknown_symbol(self):
        store = build_vocab(TOY)
        with pytest.raises(DatasetError, match="zzz"):
            store.encode(("zzz", "likes", "a"))

    def test_empty_valid_is_allowed(self):
        store = build_vocab({"train": TOY["train"], "valid": [], "test": []})
        assert store.valid.shape == (0, 3)


class TestAugmentation:
    def test_sizes_double(self):
        store = augment_reciprocal(build_vocab(TOY))
        assert store.augmented
        assert len(store.train) == 6
        assert len(store.valid) == 2
        assert len(store.test) == 2
        assert store.n_relations == 4
        assert store.n_base_relations == 2

    def test_reverse_triples(self):
        store = augment_reciprocal(build_vocab(TOY))
        # (a, likes, b) gains (b, likes^-1, a) with relation id 0 + 2
        np.testing.assert_array_equal(store.train[3], [1, 2, 0])
        assert store.relations[2] == "likes^-1"
        assert store.relations[3] == "knows^-1"
        assert store.rel_index["likes^-1"] == 2

    def test_double_augmentation_rejected(self):
        store = augment_reciprocal(build_vocab(TOY))
        with pytest.raises(ValueError, match="already augmented"):
            augment_reciprocal(store)

    def test_entities_unchanged(self):
        base = build_vocab(TOY)
        store = augment_reciprocal(base)
        assert store.entities is base.entities


class TestFilterIndex:
    def test_collects_all_splits(self):
        store = augment_reciprocal(build_vocab(TOY))
        filters = build_filter_index(store)
        # base direction: a -likes-> b from train only
        np.testing.assert_array_equal(filters[(0, 0)], [1])
        # c -likes-> a sits in valid, also present
        np.testing.assert_array_equal(filters[(2, 0)], [0])

    def test_multiple_tails_sorted(self):
        splits = {"train": [("a", "r", "c"), ("a", "r", "b"), ("a", "r", "d")],
                  "valid": [], "test": []}
        store = build_vocab(splits)
        filters = build_filter_index(store)
        np.testing.assert_array_equal(filters[(0, 0)], [1, 2, 3])

    def test_valid_triple_filters_test_query(self):
        # the same (h, r) appears in valid and test with different tails:
        # each sees the other as a known-true tail to exclude
        splits = {"train": [("a", "r", "b")],
                  "valid": [("a", "r", "c")],
                  "test": [("a", "r", "d")]}
        store = build_vocab(splits)
        filters = build_filter_index(store)
        np.testing.assert_array_equal(filters[(0, 0)], [1, 2, 3])


    def test_matches_set_based_reference(self):
        # many duplicate triples, within splits and across them
        rng = np.random.default_rng(0)
        triples = rng.integers(0, [9, 3, 9], size=(400, 3))
        store = augment_reciprocal(TripleStore(
            entities=[f"e{i}" for i in range(9)], relations=["r0", "r1", "r2"],
            train=triples[:300], valid=np.concatenate([triples[300:350], triples[:40]]),
            test=np.concatenate([triples[350:], triples[280:320]]), n_base_relations=3))
        sets = {}
        for split in ("train", "valid", "test"):
            for h, r, t in store.split(split):
                sets.setdefault((int(h), int(r)), set()).add(int(t))
        filters = build_filter_index(store)
        assert filters.keys() == sets.keys()
        for key, tails in sets.items():
            assert filters[key].dtype == np.int64
            np.testing.assert_array_equal(filters[key], sorted(tails))

    def test_empty_store(self):
        empty = np.empty((0, 3), dtype=np.int64)
        store = TripleStore(entities=[], relations=[], train=empty, valid=empty, test=empty)
        assert build_filter_index(store) == {}


class TestReferenceCheck:
    def test_known_name_strict_mismatch(self):
        stats = {"entities": 40493, "relations": 12, "train": 86835,
                 "valid": 3034, "test": 3134}
        errors, warnings = check_reference("WN18RR", stats)
        assert len(errors) == 1 and "relations" in errors[0]
        assert warnings == []

    def test_known_name_report_only_mismatch(self):
        stats = {"entities": 40000, "relations": 11, "train": 86835,
                 "valid": 3000, "test": 3134}
        errors, warnings = check_reference("wn18rr", stats)
        assert errors == []
        assert len(warnings) == 2

    def test_unknown_name_skipped(self):
        errors, warnings = check_reference("my_custom_kg", {"entities": 1,
                                                            "relations": 1,
                                                            "train": 1,
                                                            "valid": 1,
                                                            "test": 1})
        assert (errors, warnings) == ([], [])

    def test_name_normalization(self):
        assert normalize_dataset_name("WN18RR") == "wn18rr"
        assert normalize_dataset_name("FB15k-237") == "fb15k237"
        assert normalize_dataset_name("YAGO3-10") == "yago310"

    def test_stats_refuse_augmented_store(self):
        store = augment_reciprocal(build_vocab(TOY))
        with pytest.raises(ValueError, match="unaugmented"):
            dataset_stats(store)


class TestLoadDataset:
    def test_loads_directory(self, tmp_path):
        root = tmp_path / "toy"
        root.mkdir()
        write_toy(root)
        store = load_dataset(root)
        assert store.name == "toy"
        assert store.n_entities == 4
        assert len(store.train) == 3

    def test_missing_directory(self):
        with pytest.raises(DatasetError, match="not found"):
            load_dataset("/does/not/exist")

    def test_benchmark_name_with_wrong_counts_aborts(self, tmp_path):
        root = tmp_path / "wn18rr"
        root.mkdir()
        write_toy(root)
        with pytest.raises(DatasetError, match="published"):
            load_dataset(root)

    def test_verification_can_be_disabled(self, tmp_path):
        root = tmp_path / "wn18rr"
        root.mkdir()
        write_toy(root)
        store = load_dataset(root, verify_reference=False)
        assert store.n_entities == 4


class TestVocabFiles:
    def test_tsv_dump(self, tmp_path):
        store = build_vocab(TOY)
        write_vocab_files(store, tmp_path)
        ents = (tmp_path / "entities.tsv").read_text().strip().split("\n")
        assert ents[0] == "0\ta"
        rels = (tmp_path / "relations.tsv").read_text().strip().split("\n")
        assert rels == ["0\tlikes", "1\tknows"]


class TestTreeDataset:
    def test_split_sizes(self, tmp_path):
        info = make_tree_dataset(tmp_path / "tree")
        assert info["entities"] == 63
        assert info["edges"] == 62
        assert (info["train"], info["valid"], info["test"]) == (99, 12, 13)

    def test_loadable_and_consistent(self, tmp_path):
        make_tree_dataset(tmp_path / "tree")
        store = load_dataset(tmp_path / "tree")
        assert store.n_entities == 63
        assert sorted(store.relations) == ["child_of", "parent_of"]
        assert len(store.train) + len(store.valid) + len(store.test) == 124

    def test_held_out_edges_have_inverse_in_train(self, tmp_path):
        # the learnable signal: every valid/test fact appears in train
        # in the opposite direction
        make_tree_dataset(tmp_path / "tree")
        store = load_dataset(tmp_path / "tree")
        inverse = {"parent_of": "child_of", "child_of": "parent_of"}
        train_set = {tuple(store.decode(tr)) for tr in store.train}
        for split in (store.valid, store.test):
            for tr in split:
                h, r, t = store.decode(tr)
                assert (t, inverse[r], h) in train_set

    def test_no_leakage_between_splits(self, tmp_path):
        make_tree_dataset(tmp_path / "tree")
        store = load_dataset(tmp_path / "tree")
        seen = [set(map(tuple, s)) for s in (store.train, store.valid, store.test)]
        assert not (seen[0] & seen[1]) and not (seen[0] & seen[2]) \
            and not (seen[1] & seen[2])

    def test_deterministic(self, tmp_path):
        make_tree_dataset(tmp_path / "t1", seed=5)
        make_tree_dataset(tmp_path / "t2", seed=5)
        for f in ("train.txt", "valid.txt", "test.txt"):
            assert (tmp_path / "t1" / f).read_text() == (tmp_path / "t2" / f).read_text()
