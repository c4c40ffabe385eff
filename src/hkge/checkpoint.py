"""Binary checkpoint format.

Layout: magic ``HKGE``, then a little-endian u32 header
(version, dim, n_entities, n_relations, curvature-mode tag, geometry
tag, transform flags), then the parameter arrays as little-endian
float32 in a fixed order.  The mode-specific curvature pre-activation
block is last: one float for global mode, n_relations for per_relation,
absent otherwise.  Writes go through a temp file and an atomic rename.

Every other block is always present, whatever the configuration reads:
``save`` writes zeros for a group the model does not hold (say
``attn_a`` outside attention mode, or ``rel_scale`` with the scaling
off), and ``load`` drops such blocks, whatever they hold.
"""

import os
import struct
import tempfile

import numpy as np

from .model import CURVATURE_MODES, GEOMETRIES, KGEModel, ModelConfig

MAGIC = b"HKGE"
VERSION = 1
_HEADER = struct.Struct("<7I")

FLAG_INTER = 1
FLAG_INTRA = 2


class CheckpointError(ValueError):
    pass


def _array_specs(dim, n_entities, n_relations, curvature_mode):
    specs = [
        ("ent_emb", (n_entities, dim)),
        ("ent_bias", (n_entities,)),
        ("rel_emb", (n_relations, dim)),
        ("rel_scale", (n_relations, dim // 2)),
        ("rel_theta", (n_relations, dim // 2)),
        ("rel_trans", (n_relations, dim)),
        ("attn_a", (dim,)),
        ("attn_p", (dim,)),
    ]
    if curvature_mode == "global":
        specs.append(("curv_raw", ()))
    elif curvature_mode == "per_relation":
        specs.append(("curv_raw", (n_relations,)))
    return specs


def save(model, path):
    cfg = model.config
    flags = (FLAG_INTER if cfg.use_inter_level else 0) | (
        FLAG_INTRA if cfg.use_intra_level else 0
    )
    header = _HEADER.pack(
        VERSION, cfg.dim, model.n_entities, model.n_relations,
        CURVATURE_MODES.index(cfg.curvature_mode), GEOMETRIES.index(cfg.geometry),
        flags,
    )
    specs = _array_specs(cfg.dim, model.n_entities, model.n_relations, cfg.curvature_mode)
    out_dir = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(dir=out_dir, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(MAGIC)
            fh.write(header)
            for name, shape in specs:
                arr = np.asarray(model.params.get(name, np.zeros(shape)), dtype=np.float64)
                if arr.shape != shape:
                    raise CheckpointError(
                        f"{name}: expected shape {shape}, model has {arr.shape}"
                    )
                fh.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def load(path):
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != MAGIC:
        raise CheckpointError(f"{path}: bad magic bytes (not a checkpoint)")
    if len(blob) < 4 + _HEADER.size:
        raise CheckpointError(f"{path}: truncated header")
    version, dim, n_entities, n_relations, mode_tag, geo_tag, flags = _HEADER.unpack(
        blob[4:4 + _HEADER.size]
    )
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported format version {version}")
    if mode_tag >= len(CURVATURE_MODES) or geo_tag >= len(GEOMETRIES):
        raise CheckpointError(f"{path}: unknown mode/geometry tag")
    config = ModelConfig(
        dim=dim,
        curvature_mode=CURVATURE_MODES[mode_tag],
        geometry=GEOMETRIES[geo_tag],
        use_inter_level=bool(flags & FLAG_INTER),
        use_intra_level=bool(flags & FLAG_INTRA),
    )
    specs = _array_specs(dim, n_entities, n_relations, config.curvature_mode)
    params = {}
    offset = 4 + _HEADER.size
    for name, shape in specs:
        count = int(np.prod(shape)) if shape else 1
        nbytes = 4 * count
        if offset + nbytes > len(blob):
            raise CheckpointError(f"{path}: truncated in array {name}")
        arr = np.frombuffer(blob, dtype="<f4", count=count, offset=offset)
        params[name] = arr.astype(np.float64).reshape(shape)
        offset += nbytes
    if offset != len(blob):
        raise CheckpointError(f"{path}: {len(blob) - offset} trailing bytes")
    return KGEModel(config, n_entities, n_relations, params)
