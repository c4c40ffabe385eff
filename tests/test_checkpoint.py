import os

import numpy as np
import pytest

from hkge import checkpoint
from hkge.checkpoint import CheckpointError, load, save
from hkge.model import CURVATURE_MODES, GEOMETRIES, KGEModel, ModelConfig, param_shapes


def make_model(mode="attention", geometry="hyperbolic", inter=True, intra=True):
    cfg = ModelConfig(dim=4, curvature_mode=mode, geometry=geometry,
                      use_inter_level=inter, use_intra_level=intra)
    m = KGEModel.init(cfg, 5, 4, seed=3)
    rng = np.random.default_rng(9)
    # every block of the file layout is drawn; the model keeps its own groups
    for key, shape in checkpoint._array_specs(4, 5, 4, mode):
        value = rng.normal(0.0, 0.5, shape)
        if key in m.params:
            m.params[key] = value
    return m


@pytest.mark.parametrize("mode", ("fixed_one", "global", "per_relation", "attention"))
@pytest.mark.parametrize("geometry", ("hyperbolic", "euclidean"))
def test_round_trip_all_modes(tmp_path, mode, geometry):
    m = make_model(mode=mode, geometry=geometry)
    path = tmp_path / "model.bin"
    save(m, path)
    back = load(path)
    assert back.config == m.config
    assert (back.n_entities, back.n_relations) == (5, 4)
    assert set(back.params) == set(m.params)
    for key, val in m.params.items():
        # storage is float32: loading returns exactly the rounded values
        np.testing.assert_array_equal(back.params[key],
                                      np.asarray(val, dtype=np.float32).astype(np.float64))


def test_round_trip_preserves_flags(tmp_path):
    for inter, intra in ((True, True), (False, True), (True, False), (False, False)):
        m = make_model(inter=inter, intra=intra)
        path = tmp_path / f"m{int(inter)}{int(intra)}.bin"
        save(m, path)
        back = load(path)
        assert back.config.use_inter_level is inter
        assert back.config.use_intra_level is intra


def test_scores_survive_round_trip(tmp_path):
    m = make_model(mode="attention")
    path = tmp_path / "model.bin"
    save(m, path)
    back = load(path)
    # f32 rounding moves scores a little, but the reload is exact with
    # respect to a second save/load cycle
    save(back, path)
    again = load(path)
    for h, r, t in ((0, 0, 1), (4, 3, 2)):
        assert back.score(h, r, t) == again.score(h, r, t)


def test_bad_magic(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(CheckpointError, match="magic"):
        load(path)


def test_unsupported_version(tmp_path):
    m = make_model()
    path = tmp_path / "model.bin"
    save(m, path)
    blob = bytearray(path.read_bytes())
    blob[4:8] = (99).to_bytes(4, "little")
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="version"):
        load(path)


def test_unknown_mode_tag(tmp_path):
    m = make_model()
    path = tmp_path / "model.bin"
    save(m, path)
    blob = bytearray(path.read_bytes())
    blob[20:24] = (7).to_bytes(4, "little")  # curvature-mode tag slot
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="tag"):
        load(path)


def test_truncated_payload(tmp_path):
    m = make_model()
    path = tmp_path / "model.bin"
    save(m, path)
    blob = path.read_bytes()
    path.write_bytes(blob[:len(blob) - 10])
    with pytest.raises(CheckpointError, match="truncated"):
        load(path)


def test_truncated_header(tmp_path):
    path = tmp_path / "model.bin"
    path.write_bytes(b"HKGE\x01\x00")
    with pytest.raises(CheckpointError, match="truncated"):
        load(path)


def test_trailing_bytes_rejected(tmp_path):
    m = make_model()
    path = tmp_path / "model.bin"
    save(m, path)
    path.write_bytes(path.read_bytes() + b"\x00\x00\x00\x00")
    with pytest.raises(CheckpointError, match="trailing"):
        load(path)


def test_no_temp_file_left_behind(tmp_path):
    m = make_model()
    save(m, tmp_path / "model.bin")
    # a failed save must also clean up its temp file
    bad = make_model()
    bad.params["ent_emb"] = bad.params["ent_emb"][:, :2]
    with pytest.raises(CheckpointError):
        save(bad, tmp_path / "broken.bin")
    assert sorted(os.listdir(tmp_path)) == ["model.bin"]
    assert not (tmp_path / "broken.bin").exists()


def test_overwrite_is_atomic_replacement(tmp_path):
    path = tmp_path / "model.bin"
    m1 = make_model(mode="fixed_one")
    save(m1, path)
    m2 = make_model(mode="per_relation")
    save(m2, path)
    assert load(path).config.curvature_mode == "per_relation"


@pytest.mark.parametrize("mode", CURVATURE_MODES)
@pytest.mark.parametrize("geometry", GEOMETRIES)
@pytest.mark.parametrize("inter, intra", ((True, True), (False, True), (True, False),
                                          (False, False)))
def test_file_length_is_the_v1_layout(tmp_path, mode, geometry, inter, intra):
    # every block but curv_raw is written whatever the model holds
    m = make_model(mode=mode, geometry=geometry, inter=inter, intra=intra)
    path = tmp_path / "model.bin"
    save(m, path)
    E, R, d = 5, 4, 4
    floats = E * d + E + R * d + 2 * R * (d // 2) + R * d + 2 * d
    floats += {"global": 1, "per_relation": R}.get(mode, 0)
    assert os.path.getsize(path) == 32 + 4 * floats
    assert set(load(path).params) == set(param_shapes(m.config, E, R))


@pytest.mark.parametrize("mode, geometry, inter, intra", (
    ("fixed_one", "hyperbolic", False, False),
    ("global", "euclidean", True, False),
    ("per_relation", "euclidean", False, True),
))
def test_unread_blocks_are_ignored(tmp_path, mode, geometry, inter, intra):
    # a block the configuration does not read may hold anything, e.g. an
    # older writer's values: loading drops it, so scores do not change
    m = make_model(mode=mode, geometry=geometry, inter=inter, intra=intra)
    path = tmp_path / "model.bin"
    save(m, path)
    blob = bytearray(path.read_bytes())
    offset, junked = 32, 0
    for name, shape in checkpoint._array_specs(4, 5, 4, mode):
        nbytes = 4 * int(np.prod(shape))
        if name not in m.params:
            junk = np.random.default_rng(junked).normal(3.0, 1.0, nbytes // 4)
            blob[offset:offset + nbytes] = junk.astype("<f4").tobytes()
            junked += 1
        offset += nbytes
    assert junked > 0
    junk_path = tmp_path / "junk.bin"
    junk_path.write_bytes(bytes(blob))
    clean, dirty = load(path), load(junk_path)
    assert dirty.params.keys() == clean.params.keys()
    for h in range(5):
        for r in range(4):
            np.testing.assert_array_equal(dirty.score_against_all(h, r),
                                          clean.score_against_all(h, r))


def test_header_layout_is_stable(tmp_path):
    # the on-disk prefix is a public contract: magic + 7 u32 fields
    m = make_model(mode="global", geometry="euclidean", inter=True, intra=False)
    path = tmp_path / "model.bin"
    save(m, path)
    blob = path.read_bytes()
    assert blob[:4] == b"HKGE"
    header = np.frombuffer(blob[4:32], dtype="<u4")
    np.testing.assert_array_equal(header, [1, 4, 5, 4, 1, 1, checkpoint.FLAG_INTER])
