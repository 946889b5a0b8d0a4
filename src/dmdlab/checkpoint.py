"""Flat binary parameter container.

Layout (little-endian throughout):
  magic   4 bytes  b"DMDL"
  version u32      2
  config  8 x u32  the NetConfig fields in declaration order
  data    the network's flat float64 parameter buffer

A network is its config and its flat buffer, so that is all a file holds.
Version 1 files (a per-slot shape table and a precision byte) are rejected.
"""

import dataclasses
import struct
from pathlib import Path

import numpy as np

from .net import NetConfig, NetParams

MAGIC = b"DMDL"
VERSION = 2
_HEADER = struct.Struct("<4sI8I")
_DTYPE = np.dtype("<f8")


def save_params(params: NetParams, path) -> None:
    if params.flat.dtype != np.float64:
        raise ValueError(f"only float64 parameters can be saved, "
                         f"got {params.flat.dtype}")
    header = _HEADER.pack(MAGIC, VERSION, *dataclasses.astuple(params.config))
    Path(path).write_bytes(header + params.flat.astype(_DTYPE, copy=False).tobytes())


def load_params(path) -> NetParams:
    """Read a checkpoint; a file that is not a well-formed one is a
    ValueError that names it."""
    buf = Path(path).read_bytes()
    if buf[:4] != MAGIC:
        raise ValueError(f"{path}: not a DMDL checkpoint")
    try:
        (version,) = struct.unpack_from("<I", buf, 4)
        if version != VERSION:
            raise ValueError(f"{path}: unsupported version {version} (the lab reads {VERSION})")
        _, _, *fields = _HEADER.unpack_from(buf)
    except struct.error:
        raise ValueError(f"{path}: truncated header") from None
    n = (len(buf) - _HEADER.size) // _DTYPE.itemsize
    try:
        config = NetConfig(*fields)
        # bound before slot_shapes, which lists n_hidden + 1 layers
        if config.n_hidden >= n:
            raise ValueError(f"n_hidden {config.n_hidden} needs more than the "
                             f"data's {n} values")
        # a ragged data section fails in frombuffer, a short or long one in NetParams
        return NetParams(config, np.frombuffer(buf, _DTYPE, offset=_HEADER.size).copy())
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None
