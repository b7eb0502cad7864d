"""Binary checkpoint: config echo, vocabularies, named float32 tensors.

Layout (all integers little-endian unsigned 32-bit unless noted):

    magic   6 bytes  b"POITWR"
    version 1 byte   0x01
    config  u32 byte length + UTF-8 key=value text
    vocabs  2 blocks (user, business): u32 entry count, then per entry
            u32 byte length + UTF-8 id, in index order (entry 0 is the
            empty OOV sentinel)
    tensors u32 tensor count, then per tensor: u32 name length + UTF-8
            name, u32 rank, u32 dims, float32 values row-major

Round-trips are bit-exact; any version or structural mismatch is a hard
error. A load reads the file once and checks every declared count and
length against the bytes left, so a truncated or corrupted file (a bad
length, an id that is not UTF-8 or appears twice) raises a
`CheckpointError`, never another exception.
"""

from __future__ import annotations

import io
import math
import struct
from typing import BinaryIO

import numpy as np

from .features import Vocabulary

MAGIC = b"POITWR"
VERSION = 1


class CheckpointError(Exception):
    pass


class VersionMismatch(CheckpointError):
    pass


class CorruptFile(CheckpointError):
    pass


def _write_u32(f: BinaryIO, value: int) -> None:
    f.write(struct.pack("<I", value))


def _write_bytes(f: BinaryIO, data: bytes) -> None:
    _write_u32(f, len(data))
    f.write(data)


_U32 = struct.Struct("<I")


class _Reader:
    """Bounds-checked reads over a whole checkpoint file: every declared
    length and count is checked against the bytes left before it is used."""

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def left(self) -> int:
        return len(self.data) - self.pos

    def need(self, n: int, what: str) -> None:
        if n > self.left():
            raise CorruptFile(f"truncated file: {what} needs {n} bytes, {self.left()} left")

    def take(self, n: int, what: str) -> bytes:
        self.need(n, what)
        self.pos += n
        return self.data[self.pos - n : self.pos]

    def u32(self, what: str) -> int:
        self.need(4, what)
        (value,) = _U32.unpack_from(self.data, self.pos)
        self.pos += 4
        return value

    def texts(self, count: int, what: str) -> list[str]:
        """`count` strings, each a u32 byte length and UTF-8 bytes. The
        loop of a load that runs once per vocabulary entry, kept tight."""
        data, pos, unpack = self.data, self.pos, _U32.unpack_from
        out = []
        try:
            for _ in range(count):
                (n,) = unpack(data, pos)
                pos += 4 + n
                out.append(data[pos - n : pos].decode("utf-8"))
        except struct.error:
            raise CorruptFile(f"truncated file: {what}") from None
        except UnicodeDecodeError as exc:
            raise CorruptFile(f"{what} is not UTF-8: {exc}") from None
        if pos > len(data):
            raise CorruptFile(f"truncated file: {what}")
        self.pos = pos
        return out

    def count(self, min_bytes_each: int, what: str) -> int:
        """A declared item count, each item taking at least min_bytes_each."""
        n = self.u32(what)
        self.need(n * min_bytes_each, f"{n} x {what}")
        return n


def save_checkpoint(
    path: str,
    tensors: dict[str, np.ndarray],
    user_vocab: Vocabulary,
    business_vocab: Vocabulary,
    config_text: str,
) -> None:
    buf = io.BytesIO()
    buf.write(MAGIC)
    buf.write(bytes([VERSION]))
    _write_bytes(buf, config_text.encode("utf-8"))
    for vocab in (user_vocab, business_vocab):
        _write_u32(buf, len(vocab))
        for ident in vocab.ids:
            _write_bytes(buf, ident.encode("utf-8"))
    _write_u32(buf, len(tensors))
    for name in sorted(tensors):
        tensor = np.ascontiguousarray(tensors[name], dtype="<f4")
        _write_bytes(buf, name.encode("utf-8"))
        _write_u32(buf, tensor.ndim)
        for dim in tensor.shape:
            _write_u32(buf, dim)
        buf.write(tensor.tobytes())
    with open(path, "wb") as f:
        f.write(buf.getvalue())


def load_checkpoint(
    path: str,
) -> tuple[dict[str, np.ndarray], Vocabulary, Vocabulary, str]:
    with open(path, "rb") as f:
        r = _Reader(f.read())
    magic = r.data[: len(MAGIC)]
    if magic != MAGIC:
        raise CorruptFile(f"bad magic: {magic!r}")
    r.pos = len(MAGIC)
    version = r.take(1, "version")[0]
    if version != VERSION:
        raise VersionMismatch(f"format version {version}, expected {VERSION}")
    (config_text,) = r.texts(1, "config")
    vocabs = []
    for side in ("user", "business"):
        count = r.count(4, f"{side} vocabulary entry")
        if count < 1:
            raise CorruptFile("vocabulary without OOV entry")
        ids = r.texts(count, f"{side} vocabulary id")
        if ids[0] != "":
            raise CorruptFile("vocabulary index 0 is not the OOV sentinel")
        try:
            vocabs.append(Vocabulary(ids[1:]))
        except ValueError as exc:
            raise CorruptFile(f"{side} vocabulary: {exc}") from None
    tensors: dict[str, np.ndarray] = {}
    for _ in range(r.count(8, "tensor")):
        (name,) = r.texts(1, "tensor name")
        if name in tensors:
            raise CorruptFile(f"duplicate tensor {name!r}")
        shape = tuple(r.u32(f"{name} dims") for _ in range(r.count(4, f"{name} dim")))
        n_values = math.prod(shape)
        r.need(4 * n_values, f"tensor {name}")
        tensors[name] = np.frombuffer(
            r.data, dtype="<f4", count=n_values, offset=r.pos
        ).reshape(shape).copy()
        r.pos += 4 * n_values
    if r.left():
        raise CorruptFile("trailing bytes after tensor section")
    return tensors, vocabs[0], vocabs[1], config_text
