"""Ensemble persistence: JSON manifest plus raw little-endian payload.

An ensemble is stored as two files sharing a stem: `<path>.json` holds the
generating parameters, the RNG pin, and a checksum; `<path>.f64le` holds
the terminal fields as raw float64 little-endian bytes, complex entries as
re,im pairs, index order [sample][grid row-major][matrix row][matrix
col][re|im].  Reads verify version, size, and checksum, each with its own
error class, and reproduce the written array bit for bit.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import secrets
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .rng import RNG_ALGORITHM

__all__ = [
    "FORMAT_VERSION",
    "LAYOUT",
    "EnsembleManifest",
    "StorageError",
    "ChecksumMismatchError",
    "TruncatedPayloadError",
    "FormatVersionError",
    "ensemble_files",
    "write_ensemble",
    "read_ensemble",
    "payload_checksum",
    "write_files",
]

FORMAT_VERSION = 1
LAYOUT = "sample-major,row-major,complex-interleaved,f64le"


class StorageError(Exception):
    """Base class for ensemble persistence failures."""


class ChecksumMismatchError(StorageError):
    pass


class TruncatedPayloadError(StorageError):
    pass


class FormatVersionError(StorageError):
    pass


@dataclass(frozen=True)
class EnsembleManifest:
    """Parameters echoing the generating configuration, plus integrity data."""

    d: int
    n: int
    k: int
    m_max: int
    p: int
    n_steps: int
    t_end: float
    n_samples: int
    seed: int
    format_version: int = FORMAT_VERSION
    layout: str = LAYOUT
    rng_algorithm: str = RNG_ALGORITHM
    lattice: list | None = None
    checksum: str | None = None

    @property
    def shape(self) -> tuple:
        """Shape of the stored fields: (n_samples, *(p,) * d, n, n)."""
        return (self.n_samples,) + (self.p,) * self.d + (self.n, self.n)

    def expected_payload_bytes(self) -> int:
        return math.prod(self.shape) * 16  # complex128 entries

    def to_json_bytes(self) -> bytes:
        doc = asdict(self)
        return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode("utf-8")

    @classmethod
    def from_json_bytes(cls, raw: bytes) -> "EnsembleManifest":
        """Parse a manifest; StorageError for anything that is not one."""
        try:
            doc = json.loads(raw.decode("utf-8"))
        except ValueError as exc:  # bad UTF-8 or bad JSON
            raise StorageError(f"manifest is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise StorageError(f"manifest must be a JSON object, got {type(doc).__name__}")
        extra = set(doc) - set(cls.__dataclass_fields__)
        if extra:
            raise StorageError(f"unknown manifest fields: {sorted(extra)}")
        try:
            manifest = cls(**doc)
        except TypeError as exc:  # a required field is missing
            raise StorageError(f"incomplete manifest: {exc}") from exc
        for name in ("d", "n", "p", "n_samples"):
            value = getattr(manifest, name)
            if type(value) is not int or value < 0:
                raise StorageError(
                    f"manifest field {name!r} must be a non-negative integer, got {value!r}"
                )
        return manifest


def payload_checksum(payload: bytes) -> str:
    """64-bit BLAKE2b digest of the raw payload bytes, hex-encoded."""
    return hashlib.blake2b(payload, digest_size=8).hexdigest()


def _payload_bytes(mats: np.ndarray) -> bytes:
    return np.ascontiguousarray(mats, dtype="<c16").tobytes(order="C")


def write_files(files: dict) -> None:
    """Replace each file path -> bytes of `files`, all or none of them.

    Missing parent directories are created.  Every file is first staged in
    full to a fresh temp file beside its target, created exclusively with
    the permissions a plain write would give it; only then are the temp
    files renamed over their targets.  A failed stage removes every temp
    file before the error propagates, so readers keep seeing the previous
    files.
    """
    staged = []
    try:
        for target, data in files.items():
            target = Path(target)
            target.parent.mkdir(parents=True, exist_ok=True)
            tmp = target.with_name(f"{target.name}.{secrets.token_hex(8)}.tmp")
            tmp.touch(exist_ok=False)
            staged.append((tmp, target))
            tmp.write_bytes(data)
        for tmp, target in staged:
            os.replace(tmp, target)
    except BaseException:
        for tmp, _ in staged:
            tmp.unlink(missing_ok=True)
        raise


def ensemble_files(path, manifest: EnsembleManifest, mats: np.ndarray) -> tuple:
    """(manifest with checksum filled, {file path: bytes}) of the ensemble
    pair at stem `path`, for `write_files`.

    `mats` must have shape (n_samples, *grid, n, n) matching the manifest.
    """
    mats = np.asarray(mats)
    if mats.shape != manifest.shape:
        raise StorageError(
            f"field array shape {mats.shape} does not match manifest "
            f"(expected {manifest.shape})"
        )
    payload = _payload_bytes(mats)
    final = replace(manifest, checksum=payload_checksum(payload))
    stem = str(path)
    return final, {stem + ".f64le": payload, stem + ".json": final.to_json_bytes()}


def write_ensemble(path, manifest: EnsembleManifest, mats: np.ndarray) -> EnsembleManifest:
    """Persist (manifest, fields); returns the manifest with checksum filled.

    Both files go through one `write_files`, so a failed write leaves the
    previous pair in place.
    """
    final, files = ensemble_files(path, manifest, mats)
    try:
        write_files(files)
    except OSError as exc:
        raise StorageError(f"failed writing ensemble at {Path(path)}: {exc}") from exc
    return final


def read_ensemble(path) -> tuple:
    """Load (manifest, fields array) with version/size/checksum verification."""
    stem = Path(path)
    json_path = Path(str(stem) + ".json")
    payload_path = Path(str(stem) + ".f64le")
    try:
        manifest = EnsembleManifest.from_json_bytes(json_path.read_bytes())
    except OSError as exc:
        raise StorageError(f"cannot read manifest {json_path}: {exc}") from exc
    if manifest.format_version != FORMAT_VERSION:
        raise FormatVersionError(
            f"manifest format_version {manifest.format_version} unsupported "
            f"(reader handles {FORMAT_VERSION})"
        )
    try:
        payload = payload_path.read_bytes()
    except OSError as exc:
        raise StorageError(f"cannot read payload {payload_path}: {exc}") from exc
    expected = manifest.expected_payload_bytes()
    if len(payload) != expected:
        raise TruncatedPayloadError(
            f"payload {payload_path} has {len(payload)} bytes, manifest "
            f"implies {expected}"
        )
    digest = payload_checksum(payload)
    if digest != manifest.checksum:
        raise ChecksumMismatchError(
            f"payload checksum {digest} does not match manifest "
            f"{manifest.checksum}"
        )
    mats = np.frombuffer(payload, dtype="<c16").reshape(manifest.shape).copy()
    return manifest, mats
