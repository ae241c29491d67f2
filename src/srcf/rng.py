"""Seedable random streams with derivable independent substreams.

Every stochastic operation in this package draws from an explicitly passed
:class:`RngStream`.  A stream is identified by a 64-bit master seed plus a
derivation path of ids; the same (seed, path) always reproduces the same
sample sequence, and distinct paths give statistically independent streams.
This is what makes benchmark runs reproducible bit-for-bit and safe to
parallelize (one substream per task).
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["RngStream", "as_streams", "standard_normal_stack"]

_MASK32 = 0xFFFFFFFF
SEED_MAX = 0xFFFFFFFFFFFFFFFF  # master seeds are unsigned 64-bit ints


def _integer(name: str, value) -> int:
    """``value`` as an int; a bool or a non-integer is a TypeError naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an int, got {value!r}")
    return int(value)


def _id_words(value) -> tuple[int, int]:
    """Map one substream id (int or str) to a fixed pair of uint32 words."""
    if isinstance(value, bool):
        raise TypeError("substream ids must be non-negative ints or strings")
    if isinstance(value, (int, np.integer)):
        v = int(value)
        if v < 0 or v > 0xFFFFFFFFFFFFFFFF:
            raise ValueError("substream id must fit in an unsigned 64-bit int")
        return (v >> 32) & _MASK32, v & _MASK32
    if isinstance(value, str):
        digest = hashlib.sha256(value.encode("utf-8")).digest()
        return (
            int.from_bytes(digest[0:4], "little"),
            int.from_bytes(digest[4:8], "little"),
        )
    raise TypeError(f"substream id must be int or str, got {type(value).__name__}")


class RngStream:
    """A deterministic random source addressed by (seed, derivation path).

    Parameters
    ----------
    seed : int
        Master seed, 64-bit unsigned.
    stream_id : int or str, optional
        Convenience first derivation id (equivalent to ``substream(stream_id)``).

    Notes
    -----
    The underlying bit generator is PCG64 keyed by the state of
    ``SeedSequence(entropy=seed, spawn_key=path)``, whose spawn key encodes
    the derivation path, so substreams with different ids never overlap.
    Drawing from a stream advances its state; derive a fresh substream
    wherever a reproducible, position-independent source is needed.
    """

    __slots__ = ("seed", "path", "_gen")

    def __init__(self, seed: int, stream_id=None, _path: tuple = ()):
        seed = _integer("seed", seed)
        if seed < 0 or seed > SEED_MAX:
            raise ValueError("seed must fit in an unsigned 64-bit int")
        self.seed = seed
        path = tuple(_path)
        if stream_id is not None:
            path = path + _id_words(stream_id)
        self.path = path
        self._gen = None

    @property
    def generator(self) -> np.random.Generator:
        """The numpy Generator backing this stream (created lazily)."""
        if self._gen is None:
            # The state of SeedSequence(entropy=seed, spawn_key=path), from
            # its assembled words: numpy zero-pads the seed's words to its
            # pool size of 4 before it appends the spawn key, and hashes any
            # pool word missing from the entropy as 0.  Handing it the words
            # skips its int-to-word coercion.
            seed = self.seed
            words = np.array([seed & _MASK32, seed >> 32, 0, 0, *self.path], dtype=np.uint32)
            self._gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(words)))
        return self._gen

    def substream(self, *ids) -> "RngStream":
        """Derive an independent child stream from one or more ids.

        Ids may be non-negative 64-bit ints or strings; the same ids always
        yield the same substream regardless of how much the parent has been
        consumed.
        """
        if not ids:
            raise ValueError("substream requires at least one id")
        path = self.path
        for value in ids:
            path = path + _id_words(value)
        return RngStream(self.seed, _path=path)

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, path={self.path})"


def as_streams(rng) -> tuple[RngStream, ...]:
    """One stream, or a non-empty sequence of streams, as a tuple of streams."""
    streams = (rng,) if isinstance(rng, RngStream) else tuple(rng)
    if not streams:
        raise ValueError("at least one stream is required")
    return streams


def standard_normal_stack(streams, size: int, shape: tuple) -> np.ndarray:
    """``size`` standard-normal arrays of ``shape`` from each stream, stacked.

    Returns a (len(streams) * size, *shape) array whose block i is what
    ``streams[i].generator.standard_normal((size, *shape))`` would return.
    """
    out = np.empty((len(streams) * size, *shape))
    for i, stream in enumerate(streams):
        stream.generator.standard_normal(out=out[i * size:(i + 1) * size])
    return out
