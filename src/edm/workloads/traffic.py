"""Traffic files: one workload stream recorded once, replayed by many runs.

A config's request stream depends only on its traffic fields (see
:data:`edm.config.TRAFFIC_FIELDS`), so every policy and scenario layer at
one seed replays the same stream.  A sweep hands every run of a stream that
two or more pending configs need the same file: the first run draws the
stream live and records it there, the others replay it (see
:func:`open_traffic`).

File layout (little-endian)::

    header   magic, format version, num_chunks, epochs, total nonzero
             entries, and the traffic key (the 64-hex
             :func:`~edm.config.seed_material_hash` of the stream)
    epoch    int32 n, then n int32 chunk ids, their n access counts and
             their n write counts -- one record per epoch, in order

The expected file size follows from the header, so a truncated or foreign
file is recognized without reading its body.
"""

from __future__ import annotations

import os
import struct
import tempfile
from pathlib import Path

import numpy as np

from edm.config import SimConfig, rng_seed_sequence, seed_material_hash
from edm.workloads import Trace, make_workload

FORMAT_VERSION = 1
_MAGIC = b"EDMTRAF\0"
_HEADER = struct.Struct("<8s4q64s")
_I32 = np.dtype("<i4")
_I32_MAX = np.iinfo(_I32).max


def live_trace(cfg: SimConfig):
    """The config's workload generator, seeded from its traffic fields."""
    return make_workload(cfg, np.random.default_rng(rng_seed_sequence(cfg)))


def _header(cfg: SimConfig, total: int) -> bytes:
    return _HEADER.pack(
        _MAGIC, FORMAT_VERSION, cfg.num_chunks, cfg.epochs, total,
        seed_material_hash(cfg).encode(),
    )


def _holds(f, cfg: SimConfig) -> bool:
    """True when the open file ``f`` holds the whole stream of ``cfg``'s traffic.

    Reads the header, leaving ``f`` at the first epoch record.
    """
    raw = f.read(_HEADER.size)
    if len(raw) != _HEADER.size:
        return False
    magic, version, num_chunks, epochs, total, key = _HEADER.unpack(raw)
    return (
        magic == _MAGIC
        and version == FORMAT_VERSION
        and key == seed_material_hash(cfg).encode()
        and num_chunks == cfg.num_chunks
        and epochs == cfg.epochs
        and os.fstat(f.fileno()).st_size
        == _HEADER.size + _I32.itemsize * (epochs + 3 * total)
    )


def traffic_matches(cfg: SimConfig, path: str | os.PathLike) -> bool:
    """True when ``path`` holds the whole stream of ``cfg``'s traffic."""
    try:
        with open(path, "rb") as f:
            return _holds(f, cfg)
    except OSError:
        return False


def open_traffic(cfg: SimConfig, path: str | os.PathLike | None = None):
    """The request stream of one run of ``cfg``, as a trace to ``close`` after.

    With no ``path`` the stream is drawn live.  A ``path`` that holds the
    whole stream of ``cfg``'s traffic is replayed; any other (missing,
    truncated, another stream's) is regenerated, never replayed: the stream
    is drawn live and recorded to ``path`` as the run consumes it.
    """
    if path is None:
        return live_trace(cfg)
    if traffic_matches(cfg, path):
        return ReplayTrace(path, cfg)
    return RecordingTrace(cfg, path)


class RecordingTrace:
    """Draws ``cfg``'s stream live and records each epoch to ``path``.

    Records go to a temporary file in the same directory, renamed over
    ``path`` by ``close`` only once every epoch is in, so a reader never
    sees a partial stream.  A count too large for int32, or an epoch out of
    order, drops the recording; the stream itself goes on.
    """

    def __init__(self, cfg: SimConfig, path: str | os.PathLike):
        self._cfg = cfg
        self._path = Path(path)
        self._path.parent.mkdir(parents=True, exist_ok=True)
        self._trace = live_trace(cfg)
        fd, self._tmp = tempfile.mkstemp(dir=self._path.parent, suffix=".tmp")
        self._file = os.fdopen(fd, "wb")
        self._file.write(bytes(_HEADER.size))
        self._epochs = 0
        self._total = 0

    def epoch_counts(self, epoch: int) -> tuple[np.ndarray, np.ndarray]:
        """The live trace's arrays for ``epoch``, recorded on the way out."""
        counts, writes = self._trace.epoch_counts(epoch)
        if self._file is not None:
            chunks = np.flatnonzero(counts)
            n = chunks.size
            if epoch != self._epochs or (n and counts[chunks].max() > _I32_MAX):
                self._discard()
            else:
                record = np.empty(1 + 3 * n, dtype=_I32)
                record[0] = n
                record[1 : 1 + n] = chunks
                record[1 + n : 1 + 2 * n] = counts[chunks]
                record[1 + 2 * n :] = writes[chunks]
                self._file.write(record.tobytes())
                self._total += n
                self._epochs += 1
        return counts, writes

    def close(self) -> None:
        """Publish the file if the whole stream was drawn, else drop it."""
        if self._file is None:
            return
        if self._epochs != self._cfg.epochs:
            self._discard()
            return
        self._file.seek(0)
        self._file.write(_header(self._cfg, self._total))
        self._file.close()
        self._file = None
        os.replace(self._tmp, self._path)

    def _discard(self) -> None:
        self._file.close()
        self._file = None
        os.unlink(self._tmp)


class ReplayTrace(Trace):
    """Replays a traffic file through the workload interface the engine uses.

    Each epoch reads one record and scatters it into the float64 buffers
    reused across epochs, so memory does not grow with the length of the
    stream.  Epochs must be requested in order; ``close`` closes the file.
    """

    def __init__(self, path: str | os.PathLike, cfg: SimConfig):
        super().__init__(cfg.num_chunks)
        self._file = open(path, "rb")
        if not _holds(self._file, cfg):
            self._file.close()
            raise ValueError(
                f"traffic file {path} does not hold the stream of {cfg.cache_name()}"
            )
        self._epochs = cfg.epochs
        self._next = 0
        self._n = np.empty(1, dtype=_I32)
        self._record = np.empty(3 * cfg.num_chunks, dtype=_I32)

    def _fill(self, epoch: int) -> None:
        if epoch != self._next or epoch >= self._epochs:
            raise ValueError(f"replay expected epoch {self._next}, got {epoch}")
        self._file.readinto(self._n)
        n = int(self._n[0])
        record = self._record[: 3 * n]
        self._file.readinto(record)
        chunks = record[:n]
        self._countsf.fill(0.0)
        self._writesf.fill(0.0)
        self._countsf[chunks] = record[n : 2 * n]
        self._writesf[chunks] = record[2 * n :]
        self._next += 1

    def close(self) -> None:
        self._file.close()
