import dataclasses
import itertools
import os

import numpy as np
import pytest

from hkge import checkpoint
from hkge.checkpoint import CheckpointError, load, round_trip_f32, save
from hkge.model import CURVATURE_MODES, GEOMETRIES, KGEModel, ModelConfig

FLAGS = ((True, True), (False, True), (True, False), (False, False))
ALL_CONFIGS = [(mode, geometry, inter, intra)
               for mode, geometry, (inter, intra)
               in itertools.product(CURVATURE_MODES, GEOMETRIES, FLAGS)]


def make_model(mode="attention", geometry="hyperbolic", inter=True, intra=True):
    cfg = ModelConfig(dim=4, curvature_mode=mode, geometry=geometry,
                      use_inter_level=inter, use_intra_level=intra)
    m = KGEModel.init(cfg, 5, 4, seed=3)
    rng = np.random.default_rng(9)
    for key, value in m.params.items():
        m.params[key] = rng.normal(0.0, 0.5, value.shape)
    return m


@pytest.mark.parametrize("mode, geometry, inter, intra", ALL_CONFIGS)
def test_round_trip_all_configurations(tmp_path, mode, geometry, inter, intra):
    m = make_model(mode=mode, geometry=geometry, inter=inter, intra=intra)
    path = tmp_path / "model.bin"
    save(m, path)
    back = load(path)
    assert back.config == m.config
    assert (back.n_entities, back.n_relations) == (5, 4)
    # the header holds the whole config: a model drawn at another scale comes back equal
    drawn = KGEModel.init(m.config, 5, 4, seed=3, init_scale=0.1)
    save(drawn, tmp_path / "drawn.bin")
    assert load(tmp_path / "drawn.bin").config == drawn.config
    assert list(back.params) == list(m.params)
    # storage is float32: loading returns exactly the rounded values
    for key, val in round_trip_f32(m).params.items():
        np.testing.assert_array_equal(back.params[key], val)
        np.testing.assert_array_equal(val, val.astype(np.float32).astype(np.float64))
        assert np.all(val != m.params[key])  # the rounding did happen


@pytest.mark.parametrize("dtype", (np.float32, np.float64))
def test_round_trip_f32_is_what_load_returns(tmp_path, dtype):
    # a float32 model (as training holds it) and a float64 one both come
    # back from a file as float64 arrays of their float32 values
    m = make_model()
    m.params = {k: v.astype(dtype) for k, v in m.params.items()}
    save(m, tmp_path / "model.bin")
    back, snap = load(tmp_path / "model.bin"), round_trip_f32(m)
    assert list(snap.params) == list(back.params)
    for key, val in snap.params.items():
        assert val.dtype == back.params[key].dtype == np.float64, key
        assert val.tobytes() == back.params[key].tobytes(), key
        np.testing.assert_array_equal(val.astype(np.float32), m.params[key].astype(np.float32))


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


@pytest.mark.parametrize("version", (1, 99))
def test_unsupported_version(tmp_path, version):
    # version 1 files (which held blocks the configuration does not read)
    # are refused like any unknown version
    m = make_model()
    path = tmp_path / "model.bin"
    save(m, path)
    blob = bytearray(path.read_bytes())
    blob[4:8] = version.to_bytes(4, "little")
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match=f"unsupported format version {version}$"):
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
    bad.params["ent_bias"] = np.array(["x"] * bad.n_entities)  # fails after ent_emb is written
    with pytest.raises(ValueError, match="could not convert"):
        save(bad, tmp_path / "broken.bin")
    assert sorted(os.listdir(tmp_path)) == ["model.bin"]
    assert not (tmp_path / "broken.bin").exists()


@pytest.mark.parametrize("change, match", [
    (lambda emb: emb[:, :2], r"ent_emb: expected shape \(5, 4\), got \(5, 2\)"),
    (lambda emb: emb.reshape(10, 2), r"ent_emb: expected shape \(10, 4\), got \(10, 2\)"),
], ids=["cut", "reshaped"])
def test_params_changed_after_construction_are_refused(tmp_path, change, match):
    # params is a plain dict: a group replaced after the model was built is
    # checked again by save, before any file is opened
    m = KGEModel.init(ModelConfig(dim=4), 5, 3)
    m.params["ent_emb"] = change(m.params["ent_emb"])
    with pytest.raises(ValueError, match=match):
        save(m, tmp_path / "model.bin")
    assert os.listdir(tmp_path) == []


def test_overwrite_is_atomic_replacement(tmp_path):
    path = tmp_path / "model.bin"
    m1 = make_model(mode="fixed_one")
    save(m1, path)
    m2 = make_model(mode="per_relation")
    save(m2, path)
    assert load(path).config.curvature_mode == "per_relation"


@pytest.mark.parametrize("mode, geometry, inter, intra", ALL_CONFIGS)
def test_file_length_is_the_v2_layout(tmp_path, mode, geometry, inter, intra):
    # exactly the groups the model holds, one float32 each
    m = make_model(mode=mode, geometry=geometry, inter=inter, intra=intra)
    path = tmp_path / "model.bin"
    save(m, path)
    assert os.path.getsize(path) == 32 + 4 * sum(v.size for v in m.params.values())


@pytest.mark.parametrize("mode, geometry, inter, intra", ALL_CONFIGS)
def test_blocks_are_read_in_order_and_exactly(tmp_path, mode, geometry, inter, intra):
    # the header alone fixes the blocks: a file cut one float short of a
    # block's end names that block, and one float past the last is left over
    m = make_model(mode=mode, geometry=geometry, inter=inter, intra=intra)
    path = tmp_path / "model.bin"
    save(m, path)
    blob = path.read_bytes()
    end = 32
    for name, value in m.params.items():
        end += 4 * value.size
        path.write_bytes(blob[:end - 4])
        with pytest.raises(CheckpointError, match=f"truncated in array {name}$"):
            load(path)
    assert end == len(blob)
    path.write_bytes(blob + b"\x00" * 4)
    with pytest.raises(CheckpointError, match=r": 4 trailing bytes$"):
        load(path)


@pytest.mark.parametrize("slot, value, match", (
    (1, 3, "even"), (1, 0, "even"), (2, 0, "entity"), (3, 0, "relation"),
))
def test_header_that_is_no_model_is_rejected(tmp_path, slot, value, match):
    # checked before any block is read: the file below holds no blocks at all
    m = make_model()
    path = tmp_path / "model.bin"
    save(m, path)
    header = np.frombuffer(path.read_bytes()[4:32], dtype="<u4").copy()
    header[slot] = value
    path.write_bytes(b"HKGE" + header.tobytes())
    with pytest.raises(CheckpointError, match=match) as info:
        load(path)
    assert str(info.value).startswith(f"{path}: ")


def test_header_layout_is_stable(tmp_path):
    # the on-disk prefix is a public contract: magic + 7 u32 fields
    m = make_model(mode="global", geometry="euclidean", inter=True, intra=False)
    path = tmp_path / "model.bin"
    save(m, path)
    blob = path.read_bytes()
    assert blob[:4] == b"HKGE"
    header = np.frombuffer(blob[4:32], dtype="<u4")
    np.testing.assert_array_equal(header, [2, 4, 5, 4, 1, 1, checkpoint.FLAG_INTER])


def test_model_config_is_the_header():
    # every ModelConfig field is stored, so nothing a model was made with is lost
    assert [f.name for f in dataclasses.fields(ModelConfig)] == [
        "dim", "curvature_mode", "geometry", "use_inter_level", "use_intra_level"]
