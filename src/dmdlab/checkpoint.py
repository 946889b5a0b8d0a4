"""Flat binary parameter container.

Layout (little-endian throughout):
  magic   4 bytes  b"DMDL"
  version u32      currently 1
  prec    u8       0 = float64, the only precision
  count   u32      number of arrays
  table   per array: ndim u32, then ndim dims as u32
  data    raw array bytes in declaration order

The network structure is recovered from the shape table alone, so a file is
self-describing for any NetConfig produced by init_params. The data section
is the network's flat parameter buffer, so it loads as one array.
"""

import math
import struct
from pathlib import Path

import numpy as np

from .net import NetConfig, NetParams, slot_shapes

MAGIC = b"DMDL"
VERSION = 1
_DTYPE = np.dtype("<f8")


def save_params(params: NetParams, path) -> None:
    if params.flat.dtype != np.float64:
        raise ValueError(f"only float64 parameters can be saved, "
                         f"got {params.flat.dtype}")
    shapes = slot_shapes(params.config)
    out = [MAGIC, struct.pack("<IBI", VERSION, 0, len(shapes))]
    for shape in shapes:
        out.append(struct.pack(f"<I{len(shape)}I", len(shape), *shape))
    out.append(params.flat.astype(_DTYPE, copy=False).tobytes())
    Path(path).write_bytes(b"".join(out))


def load_params(path) -> NetParams:
    """Read a checkpoint; a file that is not a well-formed one is a
    ValueError."""
    buf = Path(path).read_bytes()
    if buf[:4] != MAGIC:
        raise ValueError(f"{path}: not a DMDL checkpoint")
    try:
        version, prec, count = struct.unpack_from("<IBI", buf, 4)
        if version != VERSION:
            raise ValueError(f"{path}: unsupported version {version}")
        if prec != 0:
            raise ValueError(f"{path}: precision flag {prec}; the lab reads "
                             f"float64 checkpoints only")
        off = 4 + struct.calcsize("<IBI")
        shapes = []
        for _ in range(count):
            (ndim,) = struct.unpack_from("<I", buf, off)
            off += 4
            dims = struct.unpack_from(f"<{ndim}I", buf, off)
            off += 4 * ndim
            shapes.append(tuple(int(d) for d in dims))
    except struct.error as e:
        raise ValueError(f"{path}: truncated array table ({e})")
    n = sum(math.prod(shape) for shape in shapes)
    if off + n * _DTYPE.itemsize != len(buf):
        raise ValueError(f"{path}: data section does not match the array table")
    flat = np.frombuffer(buf, dtype=_DTYPE, count=n, offset=off).copy()
    return NetParams(_config_from_shapes(shapes, path), flat)


def _config_from_shapes(shapes, path) -> NetConfig:
    """The NetConfig whose slot_shapes are exactly the table, read off its
    first and last weights, cond_embed, time_freqs and time_w. Any other
    table is a ValueError that names path."""
    n_layers = (len(shapes) - 4) // 2
    try:
        (n_rows, cond_dim), (n_freq,), (_, temb_dim) = shapes[-4:-1]
        config = NetConfig(
            dim=shapes[0][0] - temb_dim - cond_dim, n_labels=n_rows - 1,
            hidden=shapes[0][1], n_hidden=n_layers - 1,
            out_dim=shapes[n_layers - 1][1], cond_dim=cond_dim,
            temb_dim=temb_dim, n_freq=n_freq)
    except (IndexError, ValueError):  # too few slots, or one of wrong ndim
        config = None
    # slot_shapes also fits tables that imply a dim or n_labels below 1
    if (config is None or config.dim < 1 or config.n_labels < 1
            or slot_shapes(config) != shapes):
        raise ValueError(f"{path}: array table does not describe a network")
    return config
