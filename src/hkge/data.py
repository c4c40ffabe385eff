"""Dataset ingestion, vocabularies, reciprocal augmentation, filters.

Benchmark layout: a directory with `train.txt`, `valid.txt`, `test.txt`,
one `head<TAB>relation<TAB>tail` triple per line.  A file is read as
bytes: it must be UTF-8; LF, CRLF and a lone CR each end a line; lines
`bytes.strip` leaves empty (only ASCII whitespace) are skipped; every
other line has exactly three non-empty tab-separated fields, and names
are compared as exact bytes.
Separators are found and names numbered with NumPy, so one Python str
is made per distinct name and none per line or field.  Vocabularies
assign ids in first-appearance order over train, then valid, then test.
Reciprocal augmentation gives every relation r a companion r + |R|
(named `<r>^-1`, a name no base relation may have) and doubles every
split with (t, r+|R|, h) triples, so head prediction is ordinary tail
prediction downstream.  Only `make_tree_dataset` writes a file.
"""

import operator
import os
from collections.abc import Mapping
from dataclasses import dataclass

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
    n_base_relations: int  # ids below it are base relations, the rest their companions

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


SPLITS = ("train", "valid", "test")
FIELDS = ("head", "relation", "tail")

_SPACE = np.array([bytes([x]).isspace() for x in range(256)])  # ASCII whitespace, "\n" too


@dataclass(frozen=True)
class Split:
    """Parsed triple files: their bytes, joined, and where each field lies.

    `data` is uint8: the files one after another, each with every line end
    made "\\n" and a final "\\n" added when missing, then 7 zero bytes.
    `fields` is an (n, 3, 2) array of each (head, relation, tail) field's
    [start, end) byte offsets in `data`, file after file, int32 when they
    fit; `sizes` holds each file's number of triples.
    """

    data: np.ndarray
    fields: np.ndarray
    sizes: tuple


def _blank(b, starts, ends):
    """Which of the lines b[starts:ends] are blank: `bytes.strip` leaves
    nothing, so each is empty or holds only space, \\t, \\v or \\f.  Only a
    line that begins with one of those, or with its "\\n" when empty, is stripped."""
    cand = np.flatnonzero(_SPACE[b[starts]])
    blank = np.zeros(len(starts), dtype=bool)
    blank[cand] = [not b[s:e].tobytes().strip()
                   for s, e in zip(starts[cand].tolist(), ends[cand].tolist())]
    return blank


def _parse(files):
    """Parse (where, bytes) triple files, in order, into one `Split`; errors name `where`.

    UTF-8; LF, CRLF or CR line ends; blank lines (only ASCII whitespace,
    see `_blank`) skipped; every other line exactly three non-empty
    tab-separated fields.
    """
    wheres, raws = [], []
    for where, raw in files:
        try:
            if not raw.isascii():  # ASCII is UTF-8: only the rest is decoded to check it
                raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DatasetError(f"{where}: not valid UTF-8 ({exc})") from None
        if b"\r" in raw:  # universal newlines: CRLF and a lone CR end a line too
            raw = raw.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        if raw and not raw.endswith(b"\n"):
            raw += b"\n"
        wheres.append(where)
        raws.append(raw)
    bounds = np.cumsum([0] + [len(raw) for raw in raws])  # where each file starts, then the end
    data = np.frombuffer(b"".join(raws + [bytes(7)]), dtype=np.uint8)
    del raws
    b = data[:bounds[-1]]  # no line crosses a file boundary: each file ends in "\n"
    line_ends = np.flatnonzero(b == 10)
    line_starts = np.concatenate(([0], line_ends + 1))[:-1]
    kept = np.flatnonzero(~_blank(b, line_starts, line_ends))
    starts, ends = line_starts[kept], line_ends[kept]
    tabs = np.flatnonzero(b == 9)
    first_tab = np.searchsorted(tabs, starts)
    n_tabs = np.searchsorted(tabs, ends) - first_tab
    tabs = np.append(tabs, [len(b), len(b)])  # read only by lines with under 2 tabs
    t1, t2 = tabs[first_tab], tabs[first_tab + 1]
    fields = np.empty((len(starts), 6), dtype=np.int32 if len(data) < 2 ** 31 else np.int64)
    for k, col in enumerate((starts, t1, t1 + 1, t2, t2 + 1, ends)):
        fields[:, k] = col
    fields = fields.reshape(-1, 3, 2)
    empty = fields[:, :, 0] == fields[:, :, 1]
    bad = (n_tabs != 2) | empty.any(axis=1)
    if bad.any():
        i = int(bad.argmax())
        f = int(np.searchsorted(bounds, starts[i], side="right")) - 1
        where = f"{wheres[f]}:{kept[i] - np.searchsorted(line_ends, bounds[f]) + 1}"
        if n_tabs[i] != 2:
            raise DatasetError(f"{where}: expected 3 tab-separated fields, got {n_tabs[i] + 1}")
        raise DatasetError(f"{where}: empty {FIELDS[empty[i].argmax()]} field")
    return Split(data, fields, tuple(np.diff(np.searchsorted(starts, bounds)).tolist()))


def _read(path):
    """(path, bytes) of a split file."""
    if not os.path.isfile(path):
        raise DatasetError(f"missing split file: {path}")
    with open(path, "rb") as fh:
        return path, fh.read()


def load_split(path):
    """Parse one triple file (format as in the module docstring) into a `Split`."""
    return _parse([_read(path)])


def _dense(keys):
    """Ids 0..u-1 of the distinct values of an integer array, in value order,
    and the first index at which each id occurs."""
    order = np.argsort(keys)
    sorted_keys = keys[order]
    new = np.empty(len(keys), dtype=bool)
    new[:1] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=new[1:])
    del sorted_keys
    ids = np.empty(len(keys), dtype=np.int64)
    ids[order] = np.cumsum(new)
    ids -= 1
    return ids, np.minimum.reduceat(order, np.flatnonzero(new))


def _factorize(data, spans):
    """First-appearance ids of the byte strings data[s:e] for each [s, e) in
    `spans` (..., 2), in C order, and the distinct strings decoded, in id order.

    Strings are grouped by length, and a group of length L is compared as
    ceil(L / 8) little-endian 8-byte words read at each start (bytes past L
    masked off), so equal ids mean equal bytes.  `data` must run at least
    7 bytes past every span.
    """
    start = spans[..., 0].ravel()
    length = spans[..., 1].ravel() - start
    words = np.ndarray((len(data) - 7,), "<u8", data, 0, (1,))  # 8 bytes at every offset
    order = np.argsort(length, kind="stable")
    cuts = np.flatnonzero(np.diff(length[order], prepend=-1))
    ids = np.empty(len(start), dtype=np.int64)
    firsts, n_seen = [np.empty(0, dtype=np.int64)], 0
    for a, b in zip(cuts, np.append(cuts[1:], len(order))):
        idx, size = order[a:b], int(length[order[a]])

        def word(w):
            out = words[start[idx] + w]
            out &= np.uint64((1 << 8 * min(size - w, 8)) - 1)
            return out

        group, first = _dense(word(0))
        for w in range(8, size, 8):  # number the distinct (ids so far, next word) pairs
            col, col_first = _dense(word(w))
            group, first = _dense(group * len(col_first) + col)
        ids[idx] = group + n_seen
        firsts.append(idx[first])
        n_seen += len(first)
    firsts = np.concatenate(firsts)
    del order  # the transients go before the names are made
    by_appearance = np.argsort(firsts)
    rank = np.empty(len(firsts), dtype=np.int64)
    rank[by_appearance] = np.arange(len(firsts))
    # the distinct strings, each with the byte after it (a tab or a line end),
    # gathered by a cumulative sum of source-index steps; then tab-joined
    lo, size = start[firsts[by_appearance]], length[firsts[by_appearance]] + 1
    ends = np.cumsum(size)
    src = np.ones(int(size.sum()), dtype=start.dtype)
    src[ends - size] = lo - np.append(0, lo + size - 1)[:-1]
    text = data[np.cumsum(src, out=src)]
    text[ends - 1] = ord("\t")
    del start, length, src
    return np.take(rank, ids, out=ids), text.tobytes().decode().split("\t")[:-1]


def build_vocab(splits):
    """First-appearance vocabularies over train -> valid -> test.

    `splits` is a `Split` of the train, valid and test files, or a mapping
    from split name to a list of (h, r, t) name tuples, which are written
    out as triple files' bytes (so no name may hold a tab or a line break)
    and parsed as such.
    """
    if not isinstance(splits, Split):
        splits = _parse((name, "".join(f"{h}\t{r}\t{t}\n" for h, r, t in splits.get(name, []))
                         .encode()) for name in SPLITS)
    data, fields = splits.data, splits.fields
    ent_ids, entities = _factorize(data, fields[:, ::2])
    rel_ids, relations = _factorize(data, fields[:, 1])
    triples = np.empty((len(fields), 3), dtype=np.int64)
    triples[:, ::2] = ent_ids.reshape(-1, 2)
    triples[:, 1] = rel_ids
    train, valid, test = np.split(triples, np.cumsum(splits.sizes[:2]))
    return TripleStore(
        entities=entities, relations=relations, train=train, valid=valid, test=test,
        n_base_relations=len(relations),
    )


def dataset_stats(store):
    if store.n_relations > store.n_base_relations:
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
    store = build_vocab(_parse(_read(os.path.join(dataset_dir, f"{split_name}.txt"))
                               for split_name in SPLITS))
    if verify_reference:
        name = os.path.basename(os.path.normpath(dataset_dir))
        errors, warnings = check_reference(name, dataset_stats(store))
        if errors:
            raise DatasetError("; ".join(errors))
        if warnings and report is not None:
            for w in warnings:
                report(w)
    return store


def augment_reciprocal(store):
    """Append (t, r+|R|, h) for every triple of every split.  Companion r+|R| is
    named `<r>^-1`, so a base relation of that name is a DatasetError."""
    if store.n_relations > store.n_base_relations:
        raise ValueError("store is already augmented")
    n_base = store.n_base_relations
    names = set(store.relations)
    for r in store.relations:
        if r.endswith("^-1") and r[:-3] in names:
            raise DatasetError(f"relation {r!r} is named like the reciprocal of {r[:-3]!r}")
    relations = list(store.relations) + [f"{r}^-1" for r in store.relations]

    def aug(arr):
        if not len(arr):
            return arr.copy()
        rev = np.stack([arr[:, 2], arr[:, 1] + n_base, arr[:, 0]], axis=1)
        return np.concatenate([arr, rev], axis=0)

    return TripleStore(
        entities=store.entities, relations=relations,
        train=aug(store.train), valid=aug(store.valid), test=aug(store.test),
        n_base_relations=n_base,
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
