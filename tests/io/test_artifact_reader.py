"""The one-pass model-archive reader against ``np.load``.

``repro.io.serialization`` reads a model archive's bytes once, parses
the zip central directory once, and checks, inflates and parses each
member's local header, deflate stream and ``.npy`` header itself. These
tests hold it to ``np.load``, in the style of ``tests/ml/test_fit_floor.py``:

- every decoded array equals ``np.load``'s member (dtype, shape and
  bytes) and is read-only, over drawn forests and 1-D and 2-D models;
- a damaged archive is an ``ArtifactError`` or decodes to ``np.load``'s
  arrays, never any other exception;
- a model artifact decodes without one ``ast.literal_eval`` or
  ``np.lib.format.read_array`` call, the per-member header parse
  ``np.load`` pays;
- a model write replaces the previous file atomically.
"""

import ast
import io
import re
import struct
import tempfile
import zipfile
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.errors import ArtifactError
from repro.io import load_domain_model, save_domain_model
from repro.io.serialization import _open_artifact, decode_domain_model
from repro.ml.forest import RandomForestRegressor
from repro.modeling.dataset import EnergyDataset, EnergySample
from repro.modeling.domain import DomainSpecificModel
from repro.serving import ModelRegistry

FREQS = (400.0, 800.0, 1282.0, 1500.0)
MEM_FREQS = (810.0, 1215.0)
FUZZ_CASES = 400
# Central-directory entry: signature, versions, flags (offset 8), method
# (10), time, date, CRC-32 (16), sizes (20, 24), name/extra/comment
# lengths (28-32), disk, attributes, local header offset (42).
_CENTRAL = struct.Struct("<4s4B4HL2L5H2L")


def _dataset(memory_clock=False, sizes=(1.0, 2.0, 4.0)):
    names = ("size", "f_mem_mhz") if memory_clock else ("size",)
    ds = EnergyDataset(feature_names=names)
    for size in sizes:
        for mem in MEM_FREQS if memory_clock else (None,):
            for f in FREQS:
                slow = 1.0 if mem is None else 1215.0 / mem
                ds.add(
                    EnergySample(
                        features=(size,) if mem is None else (size, mem),
                        freq_mhz=f,
                        time_s=size * slow * 1000.0 / f,
                        energy_j=size * (20.0 + f / 100.0),
                    )
                )
    return ds


def _model(n_estimators=3, memory_clock=False):
    return DomainSpecificModel(
        ("size", "f_mem_mhz") if memory_clock else ("size",),
        regressor_factory=lambda: RandomForestRegressor(n_estimators=n_estimators, random_state=0),
    ).fit(_dataset(memory_clock))


def _saved(model) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.npz"
        save_domain_model(model, path)
        return path.read_bytes()


def _np_load(data: bytes):
    with np.load(io.BytesIO(data)) as archive:
        return {name: archive[name] for name in archive.files}


def _assert_same(ours, ref, name):
    assert ours.dtype == ref.dtype and ours.shape == ref.shape, name
    assert ours.tobytes() == ref.tobytes(), name
    assert not ours.flags.writeable, name


def _assert_equals_np_load(arrays, data: bytes):
    reference = _np_load(data)
    assert arrays.keys() == reference.keys()
    for name, ref in reference.items():
        _assert_same(arrays[name], ref, name)


def _members(data: bytes):
    """``(central entry offset, local header offset, name)`` per member."""
    end = data.rfind(b"PK\x05\x06")
    size, offset = struct.unpack_from("<LL", data, end + 12)
    out, pos = [], offset
    while pos < offset + size:
        entry = _CENTRAL.unpack_from(data, pos)
        name_len, extra_len, comment_len, local = entry[12], entry[13], entry[14], entry[18]
        name = data[pos + _CENTRAL.size : pos + _CENTRAL.size + name_len].decode()
        out.append((pos, local, name))
        pos += _CENTRAL.size + name_len + extra_len + comment_len
    return out


def _patch_u16(data: bytearray, central_field: int, local_field: int, change):
    """Apply ``change`` to one 16-bit field of every member's central and
    local headers."""
    for central, local, _ in _members(bytes(data)):
        for at in (central + central_field, local + local_field):
            (value,) = struct.unpack_from("<H", data, at)
            struct.pack_into("<H", data, at, change(value))
    return bytes(data)


@pytest.fixture(scope="module")
def artifact() -> bytes:
    return _saved(_model())


# ---------------------------------------------------------------------------
# identity with np.load
# ---------------------------------------------------------------------------
@st.composite
def fitted_models(draw):
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    memory_clock = draw(st.booleans())
    columns = draw(st.sampled_from(["ties", "continuous", "constant"]))
    n_inputs = draw(st.integers(min_value=1, max_value=5))
    sizes = {
        "ties": rng.integers(1, 3, n_inputs).astype(float),
        "continuous": rng.uniform(1.0, 100.0, n_inputs),
        "constant": np.full(n_inputs, 4.0),
    }[columns]
    ds = _dataset(memory_clock, sizes=sorted(set(sizes.tolist())))
    if draw(st.booleans()):  # tied targets
        ds = EnergyDataset(
            ds.feature_names,
            [
                EnergySample(s.features, s.freq_mhz, float(round(s.time_s)) + 1.0, 5.0)
                for s in ds.samples
            ],
        )
    params = dict(
        n_estimators=draw(st.integers(min_value=1, max_value=3)),
        max_depth=draw(st.sampled_from([None, 1, 3])),
        min_samples_leaf=draw(st.integers(min_value=1, max_value=3)),
        bootstrap=draw(st.booleans()),
        random_state=seed,
    )
    return DomainSpecificModel(
        ds.feature_names, regressor_factory=lambda: RandomForestRegressor(**params)
    ).fit(ds)


@given(fitted_models())
@settings(max_examples=30, deadline=None)
def test_decoded_arrays_equal_np_load_member_for_member(model):
    data = _saved(model)
    _assert_equals_np_load(_open_artifact(io.BytesIO(data)), data)
    reference = _np_load(data)
    decoded = decode_domain_model(io.BytesIO(data))
    prefixes = ("time__", "energy__", "speedup__", "norm_energy__")
    for prefix, forest in zip(prefixes, decoded.forests):
        for i, tree in enumerate(forest.trees):
            for field, array in zip(("feature", "threshold", "left", "right", "value"), tree):
                name = f"{prefix}t{i}_{field}"
                _assert_same(array, reference[name], name)


# ---------------------------------------------------------------------------
# damaged archives
# ---------------------------------------------------------------------------
def _damage(data: bytes, rng) -> bytes:
    at = int(rng.integers(len(data)))
    kind = rng.integers(3)
    if kind == 0:  # flip
        flipped = bytearray(data)
        flipped[at] ^= int(rng.integers(1, 256))
        return bytes(flipped)
    if kind == 1:  # drop
        return data[:at] + data[at + 1 :]
    return data[:at]  # truncate


def test_damaged_archives_raise_artifact_error_or_decode_as_np_load(artifact):
    rng = np.random.default_rng(20240)
    refused = 0
    for _ in range(FUZZ_CASES):
        damaged = _damage(artifact, rng)
        try:
            decode_domain_model(io.BytesIO(damaged))
        except ArtifactError:
            refused += 1
            continue
        _assert_equals_np_load(_open_artifact(io.BytesIO(damaged)), damaged)
    # Most damage lands in CRC-checked data; a fuzz that refused nothing
    # would have damaged nothing.
    assert refused > FUZZ_CASES // 2


def test_local_name_mismatch_is_refused(artifact):
    damaged = bytearray(artifact)
    _, local, name = _members(artifact)[0]
    damaged[local + 30] = ord("X") if name[0] != "X" else ord("Y")
    with pytest.raises(ArtifactError, match="local header names"):
        decode_domain_model(io.BytesIO(bytes(damaged)))


def test_stored_members_decode_as_np_load(artifact, tmp_path):
    path = tmp_path / "stored.npz"
    np.savez(path, **_np_load(artifact))
    data = path.read_bytes()
    assert {i.compress_type for i in zipfile.ZipFile(path).infolist()} == {zipfile.ZIP_STORED}
    _assert_equals_np_load(_open_artifact(path), data)
    assert load_domain_model(path).feature_names == ("size",)


def test_other_npy_headers_fall_back_to_read_array(artifact, monkeypatch):
    """A big-endian array and a version-2.0 header are not what
    ``np.save`` writes for a model; ``read_array`` reads them as
    ``np.load`` does."""
    members = _np_load(artifact)
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w", zipfile.ZIP_DEFLATED) as archive:
        for name, array in members.items():
            with archive.open(f"{name}.npy", "w") as member:
                if name == "time__t0_threshold":
                    np.lib.format.write_array(member, array.astype(">f8"))
                elif name == "time__t0_feature":
                    np.lib.format.write_array(member, array, version=(2, 0))
                else:
                    np.lib.format.write_array(member, array)
    data = buffer.getvalue()
    calls = []
    read_array = np.lib.format.read_array
    monkeypatch.setattr(np.lib.format, "read_array", lambda fp: calls.append(1) or read_array(fp))
    arrays = _open_artifact(io.BytesIO(data))
    monkeypatch.undo()
    assert len(calls) == 2
    assert arrays["time__t0_threshold"].dtype == np.dtype(">f8")
    _assert_equals_np_load(arrays, data)
    assert load_domain_model(io.BytesIO(data)).feature_names == ("size",)


def test_inflated_data_longer_than_declared_is_refused(artifact):
    """The central directory declares 8 bytes fewer than the member
    inflates to, with the CRC-32 of the declared prefix."""
    damaged = bytearray(artifact)
    central, _, name = _members(artifact)[0]
    with zipfile.ZipFile(io.BytesIO(artifact)) as archive:
        raw = archive.read(name)
    struct.pack_into("<L", damaged, central + 16, zlib.crc32(raw[:-8]))
    struct.pack_into("<L", damaged, central + 24, len(raw) - 8)
    with pytest.raises(ArtifactError, match="more bytes than the declared"):
        decode_domain_model(io.BytesIO(bytes(damaged)))


def _one_member_archive(header: str, data: bytes) -> bytes:
    """A zip holding one ``x.npy`` whose v1.0 header is ``header``."""
    text = header.encode()
    text += b" " * (63 - (10 + len(text)) % 64) + b"\n"
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w", zipfile.ZIP_DEFLATED) as archive:
        archive.writestr("x.npy", b"\x93NUMPY\x01\x00" + struct.pack("<H", len(text)) + text + data)
    return buffer.getvalue()


@pytest.mark.parametrize(
    "descr, shape",
    [
        ("<f8", "(1000000000000000,)"),  # the fast path: more elements than bytes
        (">f8", "(1000000000000000,)"),  # read_array: more than memory holds
        (">f8", "(10000000000000000000000000000,)"),  # read_array: more than an int64
        (">f8", "(-5,)"),
    ],
)
def test_impossible_shapes_are_refused(descr, shape):
    header = f"{{'descr': '{descr}', 'fortran_order': False, 'shape': {shape}, }}"
    with pytest.raises(ArtifactError, match="member 'x.npy'"):
        _open_artifact(io.BytesIO(_one_member_archive(header, bytes(16))))


# ---------------------------------------------------------------------------
# malformed archives raise ArtifactError naming the file
# ---------------------------------------------------------------------------
def _bare_npy(path: Path) -> None:
    with open(path, "wb") as handle:
        np.save(handle, np.arange(3))


def _encrypted(path: Path) -> None:
    path.write_bytes(_patch_u16(bytearray(path.read_bytes()), 8, 6, lambda v: v | 0x1))


def _unknown_method(path: Path) -> None:
    path.write_bytes(_patch_u16(bytearray(path.read_bytes()), 10, 8, lambda v: 99))


def _register(path: Path):
    return ModelRegistry(path.parent / "registry").register(path, "m")


@pytest.mark.parametrize("loader", [load_domain_model, _register])
@pytest.mark.parametrize("defect", [_bare_npy, _encrypted, _unknown_method])
def test_malformed_archive_raises_artifact_error_naming_the_file(tmp_path, defect, loader):
    path = tmp_path / "model.npz"
    save_domain_model(_model(), path)
    defect(path)
    with pytest.raises(ArtifactError, match=re.escape(str(path))):
        loader(path)


def test_registry_add_of_a_bare_npy_names_the_file(tmp_path, capsys):
    path = tmp_path / "x.npy"
    _bare_npy(path)
    rc = main(["registry", "add", "--root", str(tmp_path / "reg"), "--model", str(path), "--name", "x"])
    assert rc == 1
    assert f"{path}: unreadable domain-model artifact" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# count floor: no per-member header parse
# ---------------------------------------------------------------------------
def test_decode_parses_no_npy_header_through_numpy(artifact, monkeypatch):
    calls = {"literal_eval": 0, "read_array": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(ast, "literal_eval", counting("literal_eval", ast.literal_eval))
    monkeypatch.setattr(
        np.lib.format, "read_array", counting("read_array", np.lib.format.read_array)
    )
    decode_domain_model(io.BytesIO(artifact))
    assert calls == {"literal_eval": 0, "read_array": 0}
    # The counters see np.load's parses: one per member.
    n_members = len(_np_load(artifact))
    assert calls == {"literal_eval": n_members, "read_array": n_members}


# ---------------------------------------------------------------------------
# atomic writes
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("save, fitted", [(save_domain_model, _model)])
def test_failed_encode_keeps_the_previous_file(tmp_path, monkeypatch, save, fitted):
    model = fitted()
    path = tmp_path / "model.npz"
    save(model, path)
    previous = path.read_bytes()

    written = []
    write_array = np.lib.format.write_array

    def failing(*args, **kwargs):
        if len(written) == 3:
            raise OSError("disk full")
        written.append(1)
        return write_array(*args, **kwargs)

    monkeypatch.setattr(np.lib.format, "write_array", failing)
    with pytest.raises(OSError, match="disk full"):
        save(model, path)
    assert path.read_bytes() == previous
    assert [p.name for p in tmp_path.iterdir()] == ["model.npz"]


def test_a_path_without_the_suffix_gets_npz(tmp_path):
    save_domain_model(_model(), tmp_path / "model")
    assert [p.name for p in tmp_path.iterdir()] == ["model.npz"]
    assert load_domain_model(tmp_path / "model.npz").feature_names == ("size",)
