"""Binary checkpoint format, and the float32 precision it stores.

Layout: magic ``HKGE``, then a little-endian u32 header
(version, dim, n_entities, n_relations, curvature-mode tag, geometry
tag, transform flags), then one block of little-endian float32 per
parameter group, in ``PARAM_ORDER``.  Writes go through a temp file
and an atomic rename.

Version 2, the only one read, stores exactly the groups
``model.param_shapes`` lists for the header's configuration.
"""

import math
import os
import struct
import tempfile

import numpy as np

from .model import CURVATURE_MODES, GEOMETRIES, KGEModel, ModelConfig, param_shapes

MAGIC = b"HKGE"
VERSION = 2
STORED = np.dtype("<f4")
_HEADER = struct.Struct("<7I")

FLAG_INTER = 1
FLAG_INTRA = 2


class CheckpointError(ValueError):
    pass


def round_trip_f32(model):
    """The model as ``load`` returns it after ``save``: every group rounded
    to float32 and held in float64, so it scores in float64 arithmetic.

    Validation metrics are always computed on this view so the logged
    numbers describe exactly the model that gets saved.  For a float32
    model, the dtype training runs in, it is a float64 copy.
    """
    params = {k: v.astype(STORED).astype(np.float64) for k, v in model.params.items()}
    return KGEModel(model.config, params)


def save(model, path):
    # params is a plain dict that may have changed since the model was built:
    # check it again, so no file is written that `load` would refuse or misread
    model = KGEModel(model.config, model.params)
    cfg = model.config
    flags = (FLAG_INTER if cfg.use_inter_level else 0) | (
        FLAG_INTRA if cfg.use_intra_level else 0
    )
    header = _HEADER.pack(
        VERSION, cfg.dim, model.n_entities, model.n_relations,
        CURVATURE_MODES.index(cfg.curvature_mode), GEOMETRIES.index(cfg.geometry),
        flags,
    )
    out_dir = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(dir=out_dir, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(MAGIC)
            fh.write(header)
            for arr in model.params.values():  # the groups of param_shapes, in order
                fh.write(np.asarray(arr, dtype=STORED).tobytes())
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
    try:
        shapes = param_shapes(config, n_entities, n_relations)
    except ValueError as exc:  # the header does not describe a model
        raise CheckpointError(f"{path}: {exc}") from None
    params = {}
    offset = 4 + _HEADER.size
    for name, shape in shapes.items():
        count = math.prod(shape)
        if offset + 4 * count > len(blob):
            raise CheckpointError(f"{path}: truncated in array {name}")
        arr = np.frombuffer(blob, dtype=STORED, count=count, offset=offset)
        params[name] = arr.astype(np.float64).reshape(shape)
        offset += 4 * count
    if offset != len(blob):
        raise CheckpointError(f"{path}: {len(blob) - offset} trailing bytes")
    return KGEModel(config, params)
