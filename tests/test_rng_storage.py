"""Stream addressing and the manifest/payload persistence format."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heatcurrents.rng import (
    DIAGNOSTIC_STREAM_BASE,
    RNG_ALGORITHM,
    RngStream,
    diagnostic_stream,
    substream,
)
from heatcurrents.storage import (
    FORMAT_VERSION,
    LAYOUT,
    ChecksumMismatchError,
    EnsembleManifest,
    FormatVersionError,
    StorageError,
    TruncatedPayloadError,
    payload_checksum,
    read_ensemble,
    write_ensemble,
)

# Frozen draws pin the (root_seed, stream_id) -> Philox key mapping; these
# fail loudly if the generator or the key layout ever drifts.
GOLDEN = {
    (0, 0): {
        "normal": [0.15929546600623282, -1.7741885208017214, 1.3265118818830892],
        "uniform": [0.011546754286331562, 0.24154919656271812, 0.11142585551493822],
    },
    (12345, 7): {
        "normal": [-0.16609734794103043, 1.0505799526112878, 1.0975804094733415],
        "uniform": [0.04075621842612909, 0.3322372403724486, 0.3577593034840133],
    },
}


def test_stream_golden_values():
    for (seed, sid), vals in GOLDEN.items():
        assert np.array_equal(substream(seed, sid).normal(3), vals["normal"])
        assert np.array_equal(substream(seed, sid).uniform(3), vals["uniform"])


def test_stream_purity():
    a = substream(42, 3).normal((2, 5))
    b = substream(42, 3).normal((2, 5))
    assert np.array_equal(a, b)
    # split draws equal one big draw from the same stream
    s = substream(42, 3)
    first, second = s.normal(4), s.normal(6)
    assert np.array_equal(np.concatenate([first, second]), substream(42, 3).normal(10))


def test_distinct_ids_distinct_output():
    seen = {tuple(substream(1, sid).uniform(4)) for sid in range(50)}
    assert len(seen) == 50
    assert not np.array_equal(substream(1, 0).normal(4), substream(2, 0).normal(4))


def test_large_stream_ids():
    # ids above 2^32 (diagnostic and central ranges) must stay well formed
    big = substream(0, (1 << 33) + 5)
    vals = big.normal(4)
    assert np.all(np.isfinite(vals))
    assert not np.array_equal(vals, substream(0, 5).normal(4))
    # seed and id fill the two 64-bit key words; outside them is an error,
    # where masking would alias 2^64 onto 0 and -1 onto 2^64 - 1
    top = (1 << 64) - 1
    assert np.all(np.isfinite(RngStream(top, top).normal(2)))
    for seed, sid in ((1 << 64, 0), (-1, 0), (0, 1 << 64), (0, -1)):
        with pytest.raises(ValueError, match=r"must lie in \[0, 2\^64\)"):
            RngStream(seed, sid)


def test_diagnostic_stream_offset():
    assert np.array_equal(
        diagnostic_stream(9, 2).normal(6),
        substream(9, DIAGNOSTIC_STREAM_BASE + 2).normal(6),
    )
    assert DIAGNOSTIC_STREAM_BASE >= 1 << 32


def test_streams_uncorrelated():
    n = 100_000
    x = substream(5, 0).normal(n)
    y = substream(5, 1).normal(n)
    assert abs(np.corrcoef(x, y)[0, 1]) <= 4.0 / np.sqrt(n)


def make_manifest(**kw):
    base = dict(
        d=1, n=2, k=2, m_max=3, p=8, n_steps=4, t_end=1.0, n_samples=2, seed=0
    )
    base.update(kw)
    return EnsembleManifest(**base)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_LATTICES = st.integers(1, 4).flatmap(
    lambda r: st.lists(st.lists(_FINITE, min_size=r, max_size=r), min_size=r, max_size=r)
)


@settings(max_examples=100, deadline=None)
@given(
    manifest=st.builds(
        EnsembleManifest,
        d=st.integers(1, 3),
        n=st.integers(2, 4),
        k=st.integers(0, 4),
        m_max=st.integers(0, 64),
        p=st.integers(2, 256),
        n_steps=st.integers(1, 10**6),
        t_end=st.floats(0.0, 1.0, exclude_min=True),
        n_samples=st.integers(1, 10**6),
        seed=st.integers(0, 2**64 - 1),
        lattice=st.none() | _LATTICES,
        checksum=st.none() | st.text("0123456789abcdef", min_size=16, max_size=16),
    )
)
def test_manifest_json_round_trip(manifest):
    assert EnsembleManifest.from_json_bytes(manifest.to_json_bytes()) == manifest


def random_fields(n_samples=2, p=8, n=2, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n_samples, p, n, n)) + 1j * rng.normal(
        size=(n_samples, p, n, n)
    )


def test_round_trip(tmp_path):
    manifest = make_manifest()
    mats = random_fields()
    written = write_ensemble(tmp_path / "run", manifest, mats)
    assert written.checksum is not None
    back, loaded = read_ensemble(tmp_path / "run")
    assert np.array_equal(loaded, mats)
    assert back == written
    assert back.rng_algorithm == RNG_ALGORITHM
    assert back.layout == LAYOUT


def test_payload_size_formula(tmp_path):
    manifest = make_manifest()
    write_ensemble(tmp_path / "run", manifest, random_fields())
    size = (tmp_path / "run.f64le").stat().st_size
    assert size == manifest.expected_payload_bytes() == 2 * 8 * 4 * 2 * 8


def test_payload_layout(tmp_path):
    # first complex entry occupies the first 16 bytes as (re, im) float64 LE
    mats = random_fields()
    write_ensemble(tmp_path / "run", make_manifest(), mats)
    head = np.frombuffer((tmp_path / "run.f64le").read_bytes()[:16], dtype="<f8")
    assert head[0] == mats[0, 0, 0, 0].real
    assert head[1] == mats[0, 0, 0, 0].imag


def test_checksum_function():
    payload = np.arange(8, dtype=np.float64).view("<c16").tobytes()
    assert payload_checksum(payload) == "72b0fe1db6059703"
    assert payload_checksum(payload[:-1]) != "72b0fe1db6059703"


def test_corrupted_payload_detected(tmp_path):
    write_ensemble(tmp_path / "run", make_manifest(), random_fields())
    raw = bytearray((tmp_path / "run.f64le").read_bytes())
    raw[100] ^= 0xFF
    (tmp_path / "run.f64le").write_bytes(bytes(raw))
    with pytest.raises(ChecksumMismatchError):
        read_ensemble(tmp_path / "run")


def test_truncated_payload_detected(tmp_path):
    write_ensemble(tmp_path / "run", make_manifest(), random_fields())
    raw = (tmp_path / "run.f64le").read_bytes()
    (tmp_path / "run.f64le").write_bytes(raw[:-8])
    with pytest.raises(TruncatedPayloadError):
        read_ensemble(tmp_path / "run")


def test_future_format_version_rejected(tmp_path):
    write_ensemble(tmp_path / "run", make_manifest(), random_fields())
    doc = (tmp_path / "run.json").read_text().replace(
        f'"format_version": {FORMAT_VERSION}', '"format_version": 99'
    )
    (tmp_path / "run.json").write_text(doc)
    with pytest.raises(FormatVersionError):
        read_ensemble(tmp_path / "run")


def test_unknown_manifest_fields_rejected():
    blob = make_manifest().to_json_bytes().decode()
    blob = blob.replace('"d": 1', '"d": 1,\n  "zz_extra": true')
    with pytest.raises(StorageError, match="unknown manifest fields"):
        EnsembleManifest.from_json_bytes(blob.encode())


@pytest.mark.parametrize(
    "edit, match",
    [
        (lambda doc: "{not json", "not valid JSON"),
        (lambda doc: [], "JSON object"),
        (lambda doc: {k: v for k, v in doc.items() if k != "d"}, "incomplete"),
        (lambda doc: {**doc, "d": None}, "'d'"),
        (lambda doc: {**doc, "p": "8"}, "'p'"),
        (lambda doc: {**doc, "n_samples": 1.5}, "'n_samples'"),
    ],
    ids=["invalid-json", "array", "missing-field", "null-d", "string-p", "float-n_samples"],
)
def test_unparsable_manifest_is_storage_error(tmp_path, edit, match):
    write_ensemble(tmp_path / "run", make_manifest(), random_fields())
    path = tmp_path / "run.json"
    doc = edit(json.loads(path.read_text()))
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    with pytest.raises(StorageError, match=match) as info:
        read_ensemble(tmp_path / "run")
    assert type(info.value) is StorageError


def test_shape_mismatch_rejected(tmp_path):
    with pytest.raises(StorageError, match="shape"):
        write_ensemble(tmp_path / "run", make_manifest(), random_fields(p=16))


def test_missing_files(tmp_path):
    with pytest.raises(StorageError):
        read_ensemble(tmp_path / "nothing")


def test_manifest_bytes_deterministic(tmp_path):
    m1 = write_ensemble(tmp_path / "a", make_manifest(), random_fields())
    m2 = write_ensemble(tmp_path / "b", make_manifest(), random_fields())
    assert m1.to_json_bytes() == m2.to_json_bytes()
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    # keys arrive sorted for stable diffing
    doc = (tmp_path / "a.json").read_text()
    keys = [line.split('"')[1] for line in doc.splitlines() if '":' in line]
    assert keys == sorted(keys)


def test_dotted_stem(tmp_path):
    # a dot inside the run name must not be treated as an extension
    stem = tmp_path / "run.v2"
    write_ensemble(stem, make_manifest(), random_fields())
    assert (tmp_path / "run.v2.json").exists()
    assert (tmp_path / "run.v2.f64le").exists()
    _, loaded = read_ensemble(stem)
    assert loaded.shape == (2, 8, 2, 2)


def test_lattice_persisted(tmp_path):
    manifest = make_manifest(lattice=[[1.0, 0.0], [0.0, 2.0]])
    write_ensemble(tmp_path / "run", manifest, random_fields())
    back, _ = read_ensemble(tmp_path / "run")
    assert back.lattice == [[1.0, 0.0], [0.0, 2.0]]


def test_failed_manifest_write_keeps_previous_pair(tmp_path, monkeypatch):
    old = write_ensemble(tmp_path / "run", make_manifest(), random_fields(seed=1))
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    # staging keeps the permissions a plain file write would give
    (tmp_path / "plain").write_bytes(b"")
    mode = (tmp_path / "plain").stat().st_mode
    (tmp_path / "plain").unlink()
    assert {p.stat().st_mode for p in tmp_path.iterdir()} == {mode}
    real_write = Path.write_bytes

    def disk_full_on_manifest(self, data):
        if self.name.startswith("run.json."):
            real_write(self, data[: len(data) // 2])
            raise OSError(28, "No space left on device")
        return real_write(self, data)

    monkeypatch.setattr(Path, "write_bytes", disk_full_on_manifest)
    with pytest.raises(StorageError, match="No space left"):
        write_ensemble(tmp_path / "run", make_manifest(seed=2), random_fields(seed=2))
    monkeypatch.undo()

    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
    back, mats = read_ensemble(tmp_path / "run")
    assert back == old
    assert np.array_equal(mats, random_fields(seed=1))
