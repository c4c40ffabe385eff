"""Dataset ingestion, vocabularies, reciprocal augmentation, filters.

Benchmark layout: a directory with `train.txt`, `valid.txt`, `test.txt`,
one `head<TAB>relation<TAB>tail` triple per line.  Vocabularies assign
ids in first-appearance order over train, then valid, then test.
Reciprocal augmentation gives every relation r a companion r + |R|
(named `<r>^-1`) and doubles every split with (t, r+|R|, h) triples, so
head prediction is ordinary tail prediction downstream.
"""

import csv
import operator
import os
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np


class DatasetError(ValueError):
    pass


# Published statistics the ingestion check compares against.  Relation
# and train/test triple counts must match exactly; entity and valid
# counts are reported as deviations only (the source table disagrees
# with the canonical WN18RR distribution on |E| and misprints its valid
# count, so locally measured values are authoritative for those).
REFERENCE_STATS = {
    "wn18rr": {"entities": 40493, "relations": 11, "train": 86835,
               "valid": 3034, "test": 3134},
    "fb15k237": {"entities": 14541, "relations": 237, "train": 272115,
                 "valid": 17535, "test": 20466},
    "yago310": {"entities": 123182, "relations": 37, "train": 1079040,
                "valid": 5000, "test": 5000},
}

STRICT_KEYS = ("relations", "train", "test")
REPORT_KEYS = ("entities", "valid")


def normalize_dataset_name(name):
    return "".join(ch for ch in name.lower() if ch.isalnum())


@dataclass
class TripleStore:
    entities: list
    relations: list  # includes `<r>^-1` names once augmented
    train: np.ndarray
    valid: np.ndarray
    test: np.ndarray
    name: str | None = None
    augmented: bool = False
    n_base_relations: int = 0
    ent_index: dict = field(default_factory=dict)
    rel_index: dict = field(default_factory=dict)

    @property
    def n_entities(self):
        return len(self.entities)

    @property
    def n_relations(self):
        return len(self.relations)

    def split(self, name):
        try:
            return {"train": self.train, "valid": self.valid, "test": self.test}[name]
        except KeyError:
            raise DatasetError(f"unknown split {name!r}") from None

    def decode(self, triple):
        h, r, t = (int(x) for x in triple)
        return self.entities[h], self.relations[r], self.entities[t]

    def encode(self, names):
        h, r, t = names
        try:
            return self.ent_index[h], self.rel_index[r], self.ent_index[t]
        except KeyError as exc:
            raise DatasetError(f"symbol not in vocabulary: {exc.args[0]!r}") from None


def load_split(path):
    """Parse one TSV triple file into a list of (h, r, t) string tuples."""
    if not os.path.isfile(path):
        raise DatasetError(f"missing split file: {path}")
    triples = []
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.rstrip("\n").rstrip("\r")
                if not line.strip():
                    continue
                parts = line.split("\t")
                if len(parts) != 3:
                    raise DatasetError(
                        f"{path}:{lineno}: expected 3 tab-separated fields, got {len(parts)}"
                    )
                triples.append((parts[0], parts[1], parts[2]))
    except UnicodeDecodeError as exc:
        raise DatasetError(f"{path}: not valid UTF-8 ({exc})") from None
    return triples


def build_vocab(splits):
    """First-appearance vocabularies over train -> valid -> test."""
    entities, relations = [], []
    ent_index, rel_index = {}, {}
    for split_name in ("train", "valid", "test"):
        for h, r, t in splits.get(split_name, []):
            for e in (h, t):
                if e not in ent_index:
                    ent_index[e] = len(entities)
                    entities.append(e)
            if r not in rel_index:
                rel_index[r] = len(relations)
                relations.append(r)
    encoded = {}
    for split_name in ("train", "valid", "test"):
        rows = [
            (ent_index[h], rel_index[r], ent_index[t])
            for h, r, t in splits.get(split_name, [])
        ]
        encoded[split_name] = np.asarray(rows, dtype=np.int64).reshape(-1, 3)
    return TripleStore(
        entities=entities, relations=relations,
        train=encoded["train"], valid=encoded["valid"], test=encoded["test"],
        n_base_relations=len(relations),
        ent_index=ent_index, rel_index=rel_index,
    )


def dataset_stats(store):
    if store.augmented:
        raise ValueError("stats are defined on the unaugmented store")
    return {
        "entities": store.n_entities,
        "relations": store.n_base_relations,
        "train": len(store.train),
        "valid": len(store.valid),
        "test": len(store.test),
    }


def check_reference(name, stats):
    """Compare measured stats against the published table.

    Returns (errors, warnings): errors are mismatches on relation/train/
    test counts (hard), warnings on entity/valid counts (report-only).
    """
    key = normalize_dataset_name(name)
    if key not in REFERENCE_STATS:
        return [], []
    ref = REFERENCE_STATS[key]
    errors = [
        f"{name}: {k} count {stats[k]} != published {ref[k]}"
        for k in STRICT_KEYS if stats[k] != ref[k]
    ]
    warnings = [
        f"{name}: {k} count {stats[k]} deviates from published {ref[k]} (reported, not fatal)"
        for k in REPORT_KEYS if stats[k] != ref[k]
    ]
    return errors, warnings


def load_dataset(dataset_dir, *, verify_reference=True, report=None):
    """Ingest train/valid/test files; returns an unaugmented store.

    When the directory is named like a known benchmark, measured counts
    are checked against the published statistics (mismatched relation or
    train/test counts abort; entity/valid deviations are reported via
    the `report` callback).
    """
    if not os.path.isdir(dataset_dir):
        raise DatasetError(f"dataset directory not found: {dataset_dir}")
    splits = {}
    for split_name in ("train", "valid", "test"):
        path = os.path.join(dataset_dir, f"{split_name}.txt")
        splits[split_name] = load_split(path)
    store = build_vocab(splits)
    store.name = os.path.basename(os.path.normpath(dataset_dir))
    if verify_reference:
        errors, warnings = check_reference(store.name, dataset_stats(store))
        if errors:
            raise DatasetError("; ".join(errors))
        if warnings and report is not None:
            for w in warnings:
                report(w)
    return store


def augment_reciprocal(store):
    """Append (t, r+|R|, h) for every triple of every split."""
    if store.augmented:
        raise ValueError("store is already augmented")
    n_base = store.n_base_relations
    relations = list(store.relations) + [f"{r}^-1" for r in store.relations]
    rel_index = {r: i for i, r in enumerate(relations)}

    def aug(arr):
        if not len(arr):
            return arr.copy()
        rev = np.stack([arr[:, 2], arr[:, 1] + n_base, arr[:, 0]], axis=1)
        return np.concatenate([arr, rev], axis=0)

    return TripleStore(
        entities=store.entities, relations=relations,
        train=aug(store.train), valid=aug(store.valid), test=aug(store.test),
        name=store.name, augmented=True, n_base_relations=n_base,
        ent_index=store.ent_index, rel_index=rel_index,
    )


def sorted_unique(keys):
    """`np.unique` of a 1-D array, bit for bit, by a sort and a neighbour
    mask: NumPy's hashing `unique` is many times slower on int64 keys."""
    keys = np.sort(keys)
    keep = np.empty(len(keys), dtype=bool)
    keep[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    return keys[keep]


class FilterIndex(Mapping):
    """Read-only (h, r) -> tails map of every (h, r, t) seen in any split.

    A query (h, r) is encoded as h * n_r + r, where n_r is one more than
    the largest relation id in the store.  Three int64 arrays hold the
    map: `keys`, the sorted query codes; `starts`, where each query's run
    of tails begins in `tails`, plus one end offset; and `tails`, each
    run sorted and unique.  A lookup is one binary search on `keys` and
    returns the run as an int64 view of `tails`, so it must not be
    written to.  A key that is not a pair of integers with h >= 0 and
    0 <= r < n_r is missing, so it never reads another query's run.
    Iteration yields (h, r) pairs of Python ints in code order.
    """

    __slots__ = ("_n_r", "_keys", "_starts", "_tails")

    def __init__(self, n_r, keys, starts, tails):
        self._n_r, self._keys, self._starts, self._tails = n_r, keys, starts, tails

    def __getitem__(self, key):
        try:
            h, r = map(operator.index, key)
        except (TypeError, ValueError):
            raise KeyError(key) from None
        q = h * self._n_r + r
        if h < 0 or not 0 <= r < self._n_r or q > self._keys[-1]:
            raise KeyError(key)
        i = self._keys.searchsorted(q)
        if self._keys[i] != q:
            raise KeyError(key)
        return self._tails[self._starts[i]:self._starts[i + 1]]

    def __iter__(self):
        return zip(*(part.tolist() for part in np.divmod(self._keys, self._n_r)))

    def __len__(self):
        return len(self._keys)


def build_filter_index(store):
    """FilterIndex of every tail seen in any split, per (h, r) query."""
    triples = np.concatenate([store.split(s) for s in ("train", "valid", "test")])
    h, r, t = triples.astype(np.int64).T
    n_r, n_t = int(r.max(initial=-1)) + 1, int(t.max(initial=-1)) + 1
    # one sorted key per distinct triple; a query's tails are a contiguous run
    hr, tails = np.divmod(sorted_unique((h * n_r + r) * n_t + t), n_t)
    starts = np.flatnonzero(np.diff(hr, prepend=-1))
    return FilterIndex(n_r, hr[starts], np.append(starts, len(hr)), tails)


def write_csv(path, header, rows):
    """Write one run table: a header line, then each row dict's cells by column.

    Comma-separated, LF line ends, quoted only where a cell needs it;
    floats to 6 decimals, None as an empty cell, anything else as str.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([f"{row[k]:.6f}" if isinstance(row[k], float) else row[k]
                          for k in header] for row in rows)


def write_vocab_files(store, out_dir):
    for fname, names in (("entities.tsv", store.entities),
                         ("relations.tsv", store.relations)):
        with open(os.path.join(out_dir, fname), "w", encoding="utf-8") as fh:
            for i, name in enumerate(names):
                fh.write(f"{i}\t{name}\n")


def make_tree_dataset(out_dir, depth=6, seed=0):
    """Balanced binary tree KG: 2^depth - 1 nodes, `parent_of`/`child_of`.

    Every tree edge yields both directed triples (2 * (2^depth - 2)
    total).  The 80/10/10 split moves a single direction of ~20% of the
    edges into valid/test and keeps the opposite direction in train, so
    held-out facts always have their inverse observed, which is the
    signal the model is supposed to exploit.
    """
    n = 2 ** depth - 1
    edges = [(p, ch) for p in range(n) for ch in (2 * p + 1, 2 * p + 2) if ch < n]
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(edges))
    n_total = 2 * len(edges)
    n_valid = round(n_total * 0.1)
    n_test = round(n_total * 0.1) + (n_total - round(n_total * 0.8)
                                     - 2 * round(n_total * 0.1))
    train, valid, test = [], [], []
    for rank, idx in enumerate(order):
        p, ch = edges[idx]
        fwd = (f"n{p:03d}", "parent_of", f"n{ch:03d}")
        rev = (f"n{ch:03d}", "child_of", f"n{p:03d}")
        if rank < n_valid:
            donated, kept = (fwd, rev) if rank % 2 == 0 else (rev, fwd)
            valid.append(donated)
            train.append(kept)
        elif rank < n_valid + n_test:
            donated, kept = (fwd, rev) if rank % 2 == 0 else (rev, fwd)
            test.append(donated)
            train.append(kept)
        else:
            train.append(fwd)
            train.append(rev)
    os.makedirs(out_dir, exist_ok=True)
    for fname, rows in (("train.txt", train), ("valid.txt", valid), ("test.txt", test)):
        with open(os.path.join(out_dir, fname), "w", encoding="utf-8") as fh:
            for h, r, t in rows:
                fh.write(f"{h}\t{r}\t{t}\n")
    return {"train": len(train), "valid": len(valid), "test": len(test),
            "entities": n, "edges": len(edges), "dir": out_dir}
