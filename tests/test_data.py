import dataclasses

import numpy as np
import pytest

from hkge import cli, data
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
    sorted_unique,
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


def split_names(split):
    """The (h, r, t) name tuples of a parsed split."""
    text = split.data.tobytes()
    return [tuple(text[s:e].decode() for s, e in row) for row in split.fields.tolist()]


def reference_load(root):
    """Line-by-line reading of a dataset directory: the semantics
    load_dataset keeps (universal newlines, lines of ASCII whitespace
    skipped, first appearance order over train -> valid -> test)."""
    splits = {}
    for name in ("train", "valid", "test"):
        with open(root / f"{name}.txt", encoding="utf-8") as fh:
            rows = [tuple(line.rstrip("\n").split("\t")) for line in fh if line.encode().strip()]
        assert all(len(row) == 3 and all(row) for row in rows)
        splits[name] = rows
    ents, rels = {}, {}
    for rows in splits.values():
        for h, r, t in rows:
            ents.setdefault(h, len(ents))
            rels.setdefault(r, len(rels))
            ents.setdefault(t, len(ents))
    arrays = {name: np.array([(ents[h], rels[r], ents[t]) for h, r, t in rows],
                             dtype=np.int64).reshape(-1, 3) for name, rows in splits.items()}
    return list(ents), list(rels), arrays


def assert_matches_reference(root):
    store = load_dataset(root, verify_reference=False)
    entities, relations, arrays = reference_load(root)
    assert store.entities == entities
    assert store.relations == relations
    assert store.n_base_relations == len(relations)
    for name, want in arrays.items():
        got = store.split(name)
        assert got.dtype == np.int64 and got.flags.c_contiguous and got.shape == want.shape
        np.testing.assert_array_equal(got, want)
    return store


def write_splits(root, contents):
    """Write each split's bytes (missing splits are empty files)."""
    root.mkdir(exist_ok=True)
    for name in ("train", "valid", "test"):
        (root / f"{name}.txt").write_bytes(contents.get(name, b""))
    return root


def random_names(rng, count):
    """Distinct names of 1-40 UTF-8 bytes: multi-byte characters, spaces
    (inner, leading, and whole-whitespace names), and groups that differ
    only in their last byte."""
    alphabet = list("abcxyz019_/. ") + ["é", "ß", "中", "🙂", "\u3000", "\xa0"]
    names = set()
    while len(names) < count:
        name = ""
        size = int(rng.integers(1, 41))
        while True:
            ch = alphabet[int(rng.integers(len(alphabet)))]
            if len((name + ch).encode()) > size:
                break
            name += ch
        if not name:
            continue
        names.add(name)
        if rng.random() < 0.3 and len(name.encode()) < 40:
            names.update(name + last for last in "ab")
    return sorted(names)


class TestLoadSplit:
    def test_parses_in_order(self, tmp_path):
        path = tmp_path / "train.txt"
        path.write_text("a\tr\tb\nb\tr\tc\n")
        split = load_split(path)
        assert split_names(split) == [("a", "r", "b"), ("b", "r", "c")]
        assert split.fields.shape == (2, 3, 2)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "train.txt"
        path.write_text("a\tr\tb\n\n   \nb\tr\tc\n")
        assert load_split(path).sizes == (2,)

    @pytest.mark.parametrize("blank", ["   ", "\t\t"])
    def test_whitespace_only_lines_skipped(self, tmp_path, blank):
        path = tmp_path / "train.txt"
        path.write_text(f"a\tr\tb\n{blank}\n{blank}\nc\tr\td\n", encoding="utf-8")
        assert split_names(load_split(path)) == [("a", "r", "b"), ("c", "r", "d")]

    def test_blank_is_bytes_isspace(self, tmp_path):
        # each ASCII byte alone on line 2: skipped exactly when bytes.isspace accepts it
        path = tmp_path / "train.txt"
        for x in sorted(set(range(128)) - {10, 13}):
            path.write_bytes(b"a\tr\tb\n" + bytes([x]) + b"\nc\tr\td\n")
            if bytes([x]).isspace():
                assert load_split(path).sizes == (2,), x
            else:
                with pytest.raises(DatasetError,
                                   match=r"train.txt:2: expected 3 tab-separated fields, got 1$"):
                    load_split(path)

    @pytest.mark.parametrize("line", ["\u3000\t\u3000\t\u3000", " \t\u2003\t\x0b\x1c\x85\xa0"])
    def test_whitespace_names_are_a_triple(self, tmp_path, line):
        path = tmp_path / "train.txt"
        path.write_text(f"{line}\n", encoding="utf-8")
        assert split_names(load_split(path)) == [tuple(line.split("\t"))]

    def test_names_led_like_whitespace_parse(self, tmp_path):
        # U+2010 and U+3008 share their first two bytes with U+2000 and U+3000
        path = tmp_path / "train.txt"
        lines = ["\u2010a\tr\t\u2010b", "\u3008c\u3009\t\u2010r\t\u3008d"]
        path.write_text("\n".join(lines * 3) + "\n", encoding="utf-8")
        assert split_names(load_split(path)) == [
            ("\u2010a", "r", "\u2010b"), ("\u3008c\u3009", "\u2010r", "\u3008d")] * 3

    @pytest.mark.parametrize("line", ["\u2010", "\u3042", "\u3000\u3042", "\xa0x\u2003", "\u205f-",
                                      "\u3000", "\u2003", "\xa0", "\x85", "\x1c"])
    def test_line_led_like_whitespace_is_not_blank(self, tmp_path, line):
        # each is, or begins like, a character str.isspace accepts and bytes.isspace does not
        path = tmp_path / "train.txt"
        path.write_text(f"a\tr\tb\n\n{line}\n", encoding="utf-8")
        with pytest.raises(DatasetError,
                           match=r"train.txt:3: expected 3 tab-separated fields, got 1$"):
            load_split(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetError, match="missing split file"):
            load_split(tmp_path / "nope.txt")

    def test_wrong_field_count_reports_line(self, tmp_path):
        path = tmp_path / "train.txt"
        path.write_text("a\tr\tb\na\tb\n")
        with pytest.raises(DatasetError, match=r":2: expected 3"):
            load_split(path)

    @pytest.mark.parametrize("raw, line, got", [
        (b"a\tr\tb\n\n   \n\t\t\n\x0b\x0c \nc\td\n", 6, 2),
        (b"a\tr\tb\r\n\r\nc\tr\td\te\r\n", 3, 4),
        (b"a\tr\tb\r\rx", 3, 1),
    ])
    def test_field_count_names_the_physical_line(self, tmp_path, raw, line, got):
        path = tmp_path / "train.txt"
        path.write_bytes(raw)
        with pytest.raises(DatasetError,
                           match=rf"train.txt:{line}: expected 3 tab-separated fields, got {got}$"):
            load_split(path)

    @pytest.mark.parametrize("bad, which", [
        ("a\t\tb", "relation"), ("a\t\t", "relation"), ("a\tr\t", "tail"), ("\tr\tb", "head"),
    ])
    def test_empty_field_rejected(self, tmp_path, bad, which):
        path = tmp_path / "train.txt"
        path.write_text(f"a\tr\tb\n\n{bad}\nc\tr\td\n")
        with pytest.raises(DatasetError, match=rf"train.txt:3: empty {which} field"):
            load_split(path)

    def test_invalid_utf8(self, tmp_path):
        path = tmp_path / "train.txt"
        path.write_bytes(b"a\tr\tb\n\xff\tr\tc\n")
        with pytest.raises(DatasetError, match=r"train.txt: not valid UTF-8 \("):
            load_split(path)

    def test_non_ascii_file_is_checked_as_utf8(self, tmp_path):
        # only a file with a byte >= 0x80 is decoded: a valid one loads, and a
        # multi-byte character cut short is still an error
        path = tmp_path / "train.txt"
        path.write_text("Zürich\tin\t中国\n", encoding="utf-8")
        assert split_names(load_split(path)) == [("Zürich", "in", "中国")]
        path.write_bytes("Zürich\tin\t中国\n".encode()[:-2] + b"\n")
        with pytest.raises(DatasetError, match=r"train.txt: not valid UTF-8 \("):
            load_split(path)

    def test_symbols_may_contain_spaces(self, tmp_path):
        path = tmp_path / "train.txt"
        path.write_text("New York\tpart of\tUnited States\n")
        assert split_names(load_split(path)) == [("New York", "part of", "United States")]


class TestLoaderSemantics:
    """load_dataset against the line-by-line reference."""

    @pytest.mark.parametrize("seed", range(4))
    def test_random_names_match_reference(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        ents, rels = random_names(rng, 80), random_names(rng, 12)
        contents = {}
        for name, n in (("train", 300), ("valid", 40), ("test", 40)):
            lines = [f"{ents[h]}\t{rels[r]}\t{ents[t]}" for h, r, t in
                     zip(rng.integers(0, len(ents), n), rng.integers(0, len(rels), n),
                         rng.integers(0, len(ents), n))]
            contents[name] = ("\n".join(lines) + "\n").encode()
        contents["train"] = "\ufeff".encode() + contents["train"]  # a leading BOM
        store = assert_matches_reference(write_splits(tmp_path / "kg", contents))
        assert store.entities[0].startswith("\ufeff")

    @pytest.mark.parametrize("train", [
        b"a\tr\tb\r\nb\tr\tc\r\n",            # CRLF
        b"a\tr\tb\rb\tr\tc\r",                  # a lone CR ends a line
        b"a\tr\tb\r\r\nb\tr\tc",                 # CR then CRLF, no final newline
        b"a\tr\tb\nb\tq\tc",                     # no final newline
        b"",                                    # an empty file
    ])
    def test_line_endings_match_reference(self, tmp_path, train):
        assert_matches_reference(write_splits(tmp_path / "kg", {
            "train": train, "valid": b"c\tr\ta\r\n", "test": b"d\tr\ta"}))

    def test_errors_name_the_file_and_its_own_line(self, tmp_path):
        root = write_splits(tmp_path / "kg", {"train": b"a\tr\tb\n\nc\tr\td\n",
                                              "valid": b"\n a\tr\tb\r\nx\ty\n"})
        with pytest.raises(DatasetError, match=r"valid.txt:3: expected 3 tab-separated fields, got 2$"):
            load_dataset(root, verify_reference=False)

    def test_build_vocab_rejects_empty_names(self):
        with pytest.raises(DatasetError, match=r"^valid:1: empty tail field$"):
            build_vocab({"train": [("a", "r", "b")], "valid": [("a", "r", "")]})

    def test_build_vocab_of_tuples_matches_load(self, tmp_path):
        root = write_toy(tmp_path)
        loaded, built = load_dataset(root), build_vocab(TOY)
        assert (loaded.entities, loaded.relations) == (built.entities, built.relations)
        for name in TOY:
            np.testing.assert_array_equal(loaded.split(name), built.split(name))


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

    def test_unknown_split_name(self):
        with pytest.raises(DatasetError, match="unknown split 'dev'"):
            build_vocab(TOY).split("dev")

    def test_store_holds_each_fact_once(self):
        # no field can disagree with another: no name index, name or augmented flag
        assert [f.name for f in dataclasses.fields(TripleStore)] == [
            "entities", "relations", "train", "valid", "test", "n_base_relations"]

    def test_empty_valid_is_allowed(self):
        store = build_vocab({"train": TOY["train"], "valid": [], "test": []})
        assert store.valid.shape == (0, 3)


class TestAugmentation:
    def test_sizes_double(self):
        store = augment_reciprocal(build_vocab(TOY))
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
        assert store.relations.index("likes^-1") == 2

    def test_double_augmentation_rejected(self):
        store = augment_reciprocal(build_vocab(TOY))
        with pytest.raises(ValueError, match="already augmented"):
            augment_reciprocal(store)

    def test_relation_named_like_a_companion_rejected(self):
        store = build_vocab({"train": [("x", "a", "y"), ("y", "a^-1", "z")]})
        with pytest.raises(DatasetError, match=r"^relation 'a\^-1' is named like the "
                                               r"reciprocal of 'a'$"):
            augment_reciprocal(store)

    def test_companion_suffix_without_its_base_is_kept(self):
        store = augment_reciprocal(build_vocab({"train": [("x", "b^-1", "y")]}))
        assert store.relations == ["b^-1", "b^-1^-1"]

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
        store = TripleStore(entities=[], relations=[], train=empty, valid=empty, test=empty,
                            n_base_relations=0)
        assert build_filter_index(store) == {}

    def test_out_of_range_keys_are_missing(self):
        # queries are encoded as h * n_r + r: a key outside h >= 0,
        # 0 <= r < n_r must not read the query its code lands on
        store = augment_reciprocal(build_vocab(TOY))
        filters = build_filter_index(store)
        n_r = store.n_relations
        assert {(1, 0), (0, 0), (0, n_r - 1)} <= filters.keys()
        for key in [(0, n_r), (-1, n_r), (1, -1), (2 ** 70, 0), (1, 0, 0), (1,), "ab", (1.0, 0)]:
            assert key not in filters
            assert filters.get(key, "missing") == "missing"
            with pytest.raises(KeyError):
                filters[key]

    def test_absent_query_between_stored_ones_is_missing(self):
        # a code inside the stored range that no triple has: the binary
        # search lands on a neighbour's run, which must not be returned
        store = augment_reciprocal(build_vocab(TOY))
        filters = build_filter_index(store)
        n_r = store.n_relations
        codes = [h * n_r + r for h, r in filters]
        absent = [divmod(q, n_r) for q in range(codes[0] + 1, codes[-1]) if q not in codes]
        assert absent
        for key in absent:
            assert key not in filters
            with pytest.raises(KeyError):
                filters[key]

    def test_numpy_integer_keys(self):
        store = augment_reciprocal(build_vocab(TOY))
        filters = build_filter_index(store)
        n_r = store.n_relations
        for h, r in filters:
            want = filters[(h, r)]
            for key in [(np.int64(h), np.int64(r)), (np.int32(h), np.uint8(r))]:
                np.testing.assert_array_equal(filters[key], want)
                assert filters.get(key).dtype == np.int64
        assert filters.get((np.int64(0), np.int64(n_r))) is None
        assert filters.get((np.int64(-1), np.int32(n_r))) is None


class TestSortedUnique:
    @pytest.mark.parametrize("size, high", [(0, 5), (1, 5), (2, 1), (500, 7), (5000, 10**12)])
    def test_matches_np_unique_bitwise(self, size, high):
        rng = np.random.default_rng(size)
        for dtype in (np.int64, np.int32):
            keys = rng.integers(-high, high, size).astype(dtype)
            got, want = sorted_unique(keys), np.unique(keys)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()


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

    def test_deviations_are_sent_to_report(self, tmp_path, monkeypatch):
        # a directory named like a known benchmark whose entity and valid
        # counts differ from the published ones loads, and says so
        root = tmp_path / "Tiny-KG"
        root.mkdir()
        write_toy(root)
        monkeypatch.setitem(data.REFERENCE_STATS, "tinykg", {
            "entities": 99, "relations": 2, "train": 3, "valid": 98, "test": 1})
        reported = []
        load_dataset(root, report=reported.append)
        assert reported == [
            "Tiny-KG: entities count 4 deviates from published 99 (reported, not fatal)",
            "Tiny-KG: valid count 1 deviates from published 98 (reported, not fatal)",
        ]

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
        cli.write_vocab_files(store, tmp_path)
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
        def names(split):
            return [(store.entities[h], store.relations[r], store.entities[t])
                    for h, r, t in split.tolist()]

        train_set = set(names(store.train))
        for split in (store.valid, store.test):
            for h, r, t in names(split):
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
