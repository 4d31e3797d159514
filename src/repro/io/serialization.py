"""Persistence for datasets, characterizations, and fitted models.

Characterization campaigns are the expensive part of the workflow (the
paper's full sweep is 196 frequencies x 5 repetitions per input); this
module lets a campaign be measured once and reused across modeling
sessions:

- datasets and characterization results serialize to **JSON** (portable,
  diff-able, no pickle);
- the four-forest :class:`repro.modeling.domain.DomainSpecificModel`
  serializes to **.npz** archives holding the flat tree arrays plus a
  JSON metadata entry, so a deployed tuner can load a model without
  retraining.
  ``np.savez_compressed`` encodes them and the write replaces the
  previous file atomically; this module reads them back in one pass,
  checking every member (see :func:`_open_artifact`).
"""

from __future__ import annotations

import io
import json
import os
import pathlib
import re
import struct
import zipfile
import zlib
from dataclasses import dataclass
from typing import IO, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.errors import (
    ArtifactError,
    ArtifactSchemaError,
    DatasetError,
    ModelNotFittedError,
)
from repro.ml.forest import RandomForestRegressor
from repro.ml.tree import DecisionTreeRegressor
from repro.modeling.dataset import EnergyDataset, EnergySample
from repro.modeling.domain import DomainSpecificModel
from repro.runtime.cache import atomic_write
from repro.synergy.runner import CharacterizationResult, FrequencySample
from repro.utils.validation import check_positive, check_positive_int

__all__ = [
    "save_dataset",
    "load_dataset",
    "save_characterization",
    "load_characterization",
    "encode_domain_model",
    "save_domain_model",
    "load_domain_model",
    "DecodedDomainModel",
    "decode_domain_model",
]

PathLike = Union[str, pathlib.Path]
#: Loaders also accept a binary file object (the model registry verifies
#: artifact bytes in memory and deserializes from the verified buffer).
ArtifactSource = Union[str, pathlib.Path, IO[bytes]]

_FORMAT_VERSION = 1


# ---------------------------------------------------------------------------
# datasets
# ---------------------------------------------------------------------------
def save_dataset(dataset: EnergyDataset, path: PathLike) -> None:
    """Write an :class:`EnergyDataset` as JSON, replacing ``path`` atomically."""
    payload = {
        "format": "repro.energy_dataset",
        "version": _FORMAT_VERSION,
        "feature_names": list(dataset.feature_names),
        "samples": [
            {
                "features": list(s.features),
                "freq_mhz": s.freq_mhz,
                "time_s": s.time_s,
                "energy_j": s.energy_j,
            }
            for s in dataset.samples
        ],
    }
    atomic_write(pathlib.Path(path), json.dumps(payload, indent=1).encode())


def load_dataset(path: PathLike) -> EnergyDataset:
    """Read an :class:`EnergyDataset` written by :func:`save_dataset`."""
    payload = json.loads(pathlib.Path(path).read_text())
    if payload.get("format") != "repro.energy_dataset":
        raise DatasetError(f"{path}: not a repro energy dataset")
    ds = EnergyDataset(feature_names=tuple(payload["feature_names"]))
    for s in payload["samples"]:
        ds.add(
            EnergySample(
                features=tuple(float(f) for f in s["features"]),
                freq_mhz=float(s["freq_mhz"]),
                time_s=float(s["time_s"]),
                energy_j=float(s["energy_j"]),
            )
        )
    return ds


# ---------------------------------------------------------------------------
# characterizations
# ---------------------------------------------------------------------------
def save_characterization(result: CharacterizationResult, path: PathLike) -> None:
    """Write a characterization sweep (including per-repetition data),
    replacing ``path`` atomically."""
    payload = {
        "format": "repro.characterization",
        "version": _FORMAT_VERSION,
        "app_name": result.app_name,
        "device_name": result.device_name,
        "baseline_label": result.baseline_label,
        "baseline_freq_mhz": result.baseline_freq_mhz,
        "baseline_time_s": result.baseline_time_s,
        "baseline_energy_j": result.baseline_energy_j,
        "samples": [
            {
                "freq_mhz": s.freq_mhz,
                "time_s": s.time_s,
                "energy_j": s.energy_j,
                "rep_times_s": s.rep_times_s.tolist(),
                "rep_energies_j": s.rep_energies_j.tolist(),
                # 2-D sweeps tag the memory clock; core-only payloads
                # keep the exact legacy byte layout.
                **(
                    {"mem_freq_mhz": s.mem_freq_mhz}
                    if s.mem_freq_mhz is not None
                    else {}
                ),
            }
            for s in result.samples
        ],
    }
    if result.mem_freq_mhz is not None:
        payload["mem_freq_mhz"] = result.mem_freq_mhz
    atomic_write(pathlib.Path(path), json.dumps(payload, indent=1).encode())


def load_characterization(path: PathLike) -> CharacterizationResult:
    """Read a characterization written by :func:`save_characterization`."""
    payload = json.loads(pathlib.Path(path).read_text())
    if payload.get("format") != "repro.characterization":
        raise DatasetError(f"{path}: not a repro characterization")
    samples = [
        FrequencySample(
            freq_mhz=float(s["freq_mhz"]),
            time_s=float(s["time_s"]),
            energy_j=float(s["energy_j"]),
            rep_times_s=np.asarray(s["rep_times_s"], dtype=float),
            rep_energies_j=np.asarray(s["rep_energies_j"], dtype=float),
            mem_freq_mhz=(
                float(s["mem_freq_mhz"]) if s.get("mem_freq_mhz") is not None else None
            ),
        )
        for s in payload["samples"]
    ]
    mem = payload.get("mem_freq_mhz")
    return CharacterizationResult(
        app_name=payload["app_name"],
        device_name=payload["device_name"],
        baseline_label=payload["baseline_label"],
        baseline_freq_mhz=payload["baseline_freq_mhz"],
        baseline_time_s=float(payload["baseline_time_s"]),
        baseline_energy_j=float(payload["baseline_energy_j"]),
        samples=samples,
        mem_freq_mhz=float(mem) if mem is not None else None,
    )


# ---------------------------------------------------------------------------
# random forests
# ---------------------------------------------------------------------------
def _forest_arrays(forest: RandomForestRegressor, prefix: str) -> Dict[str, np.ndarray]:
    if not hasattr(forest, "estimators_"):
        raise ModelNotFittedError("cannot serialize an unfitted forest")
    arrays: Dict[str, np.ndarray] = {}
    for i, tree in enumerate(forest.estimators_):
        arrays[f"{prefix}t{i}_feature"] = tree.feature_
        arrays[f"{prefix}t{i}_threshold"] = tree.threshold_
        arrays[f"{prefix}t{i}_left"] = tree.left_
        arrays[f"{prefix}t{i}_right"] = tree.right_
        arrays[f"{prefix}t{i}_value"] = tree.value_
    return arrays


def _forest_meta(forest: RandomForestRegressor) -> Dict:
    return {
        "n_estimators": len(forest.estimators_),
        "n_features_in": forest.n_features_in_,
        "params": {
            k: v for k, v in forest.get_params().items() if k != "random_state"
        },
    }


#: The arrays of one tree, in :func:`_forest_arrays`' member order.
_TREE_FIELDS = ("feature", "threshold", "left", "right", "value")


def _tree_problem(tree: Tuple[np.ndarray, ...], n_features: int) -> Optional[str]:
    """Why one tree's arrays cannot be served, or ``None`` when they can.

    Prediction follows ``left``/``right`` from node 0 until it reaches a
    node whose feature is ``-1``, so every check here guards it from an
    out-of-range index or a cycle.
    """
    feature, threshold, left, right, value = tree
    n = feature.size
    if any(a.ndim != 1 or a.size != n for a in tree) or n == 0:
        return "the five arrays are not non-empty vectors of equal length"
    if any(a.dtype.kind != "i" for a in (feature, left, right)):
        return "feature, left and right must be integer arrays"
    if any(a.dtype.kind != "f" for a in (threshold, value)):
        return "threshold and value must be float arrays"
    if feature.min() < -1 or feature.max() >= n_features:
        return f"a feature index is outside [0, {n_features})"
    leaves = feature < 0
    if (left[leaves] != -1).any() or (right[leaves] != -1).any():
        return "a leaf has children"
    nodes = np.flatnonzero(~leaves)
    children = np.concatenate((left[nodes], right[nodes]))
    if (children <= np.concatenate((nodes, nodes))).any():
        return "a child index does not follow its parent's"
    if children.max(initial=0) >= n:
        return f"a child index is outside [0, {n})"
    if not np.array_equal(np.sort(children), np.arange(1, n)):
        return "the non-root nodes are not each referenced exactly once"
    return None


@dataclass(frozen=True)
class _DecodedForest:
    params: Dict
    n_features_in: int
    trees: Tuple[Tuple[np.ndarray, ...], ...]

    def build(self) -> RandomForestRegressor:
        """A fresh forest over the shared read-only tree arrays."""
        forest = RandomForestRegressor(**self.params)
        forest.estimators_ = []
        for arrays in self.trees:
            tree = DecisionTreeRegressor()
            tree.feature_, tree.threshold_, tree.left_, tree.right_, tree.value_ = arrays
            tree.n_features_in_ = self.n_features_in
            forest.estimators_.append(tree)
        forest.n_features_in_ = self.n_features_in
        return forest


def _decode_forest(meta: Dict, arrays, prefix: str, source: ArtifactSource) -> _DecodedForest:
    """Read and check one forest's trees, typing every defect as ArtifactError.

    The arrays come back read-only: a decoded forest may back several
    model objects (see :class:`repro.serving.ModelRegistry`).
    """
    name = _describe_source(source)
    try:
        n_trees = check_positive_int(meta["n_estimators"], "n_estimators")
        n_features = check_positive_int(meta["n_features_in"], "n_features_in")
        params = dict(meta["params"])
        RandomForestRegressor(**params)
        trees = tuple(
            tuple(arrays[f"{prefix}t{i}_{field}"] for field in _TREE_FIELDS)
            for i in range(n_trees)
        )
    except KeyError as exc:
        raise ArtifactError(
            f"{name}: truncated domain-model artifact (missing array {exc.args[0]!r})"
        ) from exc
    except (ValueError, TypeError) as exc:
        raise ArtifactError(f"{name}: corrupt domain-model artifact ({exc})") from exc
    for i, tree in enumerate(trees):
        problem = _tree_problem(tree, n_features)
        if problem is not None:
            raise ArtifactError(
                f"{name}: corrupt domain-model artifact (tree {prefix}t{i}: {problem})"
            )
        for array in tree:
            array.flags.writeable = False
    return _DecodedForest(params, n_features, trees)


def _describe_source(source: ArtifactSource) -> str:
    if isinstance(source, (str, pathlib.Path)):
        return str(source)
    return getattr(source, "name", "<buffer>")


#: A zip member's local header (``zipfile.structFileHeader``): signature,
#: versions, flags, method, time, date, CRC-32, sizes, name and extra lengths.
_LOCAL_HEADER = struct.Struct("<4s2B4HL2L2H")
_LOCAL_SIGNATURE = b"PK\x03\x04"
#: Flag bits of a member this reader cannot read, as ``ZipFile.open``
#: refuses them: encrypted (bit 0), compressed patch data (bit 5) and
#: strong encryption (bit 6).
_UNREADABLE_FLAGS = 0x01 | 0x20 | 0x40
_UTF8_NAME_FLAG = 0x800
#: The ``.npy`` header ``np.save`` writes for a 1-D ``<i8``/``<f8``/``|u1``
#: array (format 1.0, space-padded to a 64-byte boundary): the only kind
#: of member a model artifact holds. Any other header goes to
#: ``np.lib.format.read_array``.
_NPY_V1_MAGIC = b"\x93NUMPY\x01\x00"
_NPY_V1_HEADER = re.compile(
    rb"\{'descr': '(<i8|<f8|\|u1)', 'fortran_order': False, "
    rb"'shape': \((0|[1-9][0-9]*),\), \} *\n"
)
_NPY_DTYPES = {descr.encode(): np.dtype(descr) for descr in ("<i8", "<f8", "|u1")}


def _member_bytes(data: memoryview, info: zipfile.ZipInfo) -> bytes:
    """One member's uncompressed bytes, checked as ``ZipFile.open`` checks
    them (local header signature and name, no encryption or patch flag,
    stored or deflated data inside the buffer), inflated with its output
    bounded by the declared size, then size- and CRC-checked."""
    start = info.header_offset
    if start < 0 or start + _LOCAL_HEADER.size > len(data):
        raise ValueError("local header outside the archive")
    signature, _, _, flags, method, _, _, _, _, _, name_len, extra_len = _LOCAL_HEADER.unpack(
        data[start : start + _LOCAL_HEADER.size]
    )
    if signature != _LOCAL_SIGNATURE:
        raise ValueError("bad local header signature")
    if (info.flag_bits | flags) & _UNREADABLE_FLAGS:
        raise ValueError("encrypted or patched data")
    start += _LOCAL_HEADER.size
    name = bytes(data[start : start + name_len])
    if name.decode("utf-8" if flags & _UTF8_NAME_FLAG else "cp437") != info.orig_filename:
        raise ValueError(f"local header names {name!r}")
    start += name_len + extra_len
    end = start + info.compress_size
    if end > len(data):
        raise ValueError("data runs past the end of the archive")
    if method != info.compress_type:
        raise ValueError("the local and central headers name different compression methods")
    if method == zipfile.ZIP_STORED:
        raw = bytes(data[start:end])
    elif method == zipfile.ZIP_DEFLATED:
        inflater = zlib.decompressobj(-zlib.MAX_WBITS)
        raw = inflater.decompress(data[start:end], info.file_size + 1)
        if len(raw) <= info.file_size and (not inflater.eof or inflater.unused_data):
            raise ValueError("the deflate stream does not end where the data does")
    else:
        raise ValueError(f"compression method {method} is neither stored nor deflated")
    if len(raw) != info.file_size:
        relation = "more" if len(raw) > info.file_size else "fewer"
        raise ValueError(f"{relation} bytes than the declared {info.file_size}")
    if zlib.crc32(raw) != info.CRC:
        raise ValueError("CRC-32 mismatch")
    return raw


def _npy_array(raw: bytes) -> np.ndarray:
    """One ``.npy`` member as a read-only array; every byte must belong to it."""
    if raw[:8] == _NPY_V1_MAGIC and len(raw) >= 10:
        start = 10 + int.from_bytes(raw[8:10], "little")
        match = _NPY_V1_HEADER.fullmatch(raw, 10, start) if start <= len(raw) else None
        if match is not None:
            dtype = _NPY_DTYPES[match[1]]
            count = int(match[2])
            if len(raw) - start != count * dtype.itemsize:
                raise ValueError(f"{len(raw) - start} data bytes for {count} x {dtype}")
            return np.frombuffer(raw, dtype, count, start)
    stream = io.BytesIO(raw)
    array = np.lib.format.read_array(stream)
    if stream.tell() != len(raw):
        raise ValueError("bytes after the array data")
    array.flags.writeable = False
    return array


def _open_artifact(source: ArtifactSource) -> Dict[str, np.ndarray]:
    """Every array of a model archive, read in one pass, by member name
    without ``.npy``; the arrays are read-only.

    The bytes are read once and the central directory parsed once; each
    member is then checked, inflated and parsed from the buffer (see
    :func:`_member_bytes` and :func:`_npy_array`). Every defect raises
    :class:`ArtifactError` naming the source.
    """
    name = _describe_source(source)
    try:
        if isinstance(source, (str, pathlib.Path)):
            data = pathlib.Path(source).read_bytes()
        else:
            data = source.read()
        # np.load reads an archive only when it starts with a member;
        # zipfile alone would also accept bytes prepended to one.
        if data[:4] != _LOCAL_SIGNATURE:
            raise zipfile.BadZipFile("File is not a zip file")
        with zipfile.ZipFile(io.BytesIO(data)) as archive:
            infos = archive.infolist()
    except (OSError, ValueError, NotImplementedError, zipfile.BadZipFile) as exc:
        raise ArtifactError(f"{name}: unreadable domain-model artifact ({exc})") from exc
    buffer = memoryview(data)
    arrays: Dict[str, np.ndarray] = {}
    for info in infos:
        key = info.filename[: -len(".npy")]
        # OverflowError and MemoryError come from a header declaring a
        # shape no int64 or no memory holds, before read_array reads data.
        try:
            if not info.filename.endswith(".npy") or key in arrays:
                raise ValueError("not a uniquely named .npy array")
            arrays[key] = _npy_array(_member_bytes(buffer, info))
        except (ValueError, OverflowError, MemoryError, zlib.error) as exc:
            raise ArtifactError(
                f"{name}: unreadable domain-model artifact (member {info.filename!r}: {exc})"
            ) from exc
    return arrays


def _artifact_meta(arrays, source: ArtifactSource) -> Dict:
    """Decode and validate the ``__meta__`` entry of a model archive.

    Raises :class:`ArtifactError` on a missing/corrupt metadata entry,
    and :class:`ArtifactSchemaError` when the archive was written under a
    different schema version than this build reads.
    """
    name = _describe_source(source)
    try:
        meta = json.loads(bytes(arrays["__meta__"]).decode())
    except KeyError as exc:
        raise ArtifactError(
            f"{name}: truncated domain-model artifact (no __meta__ entry)"
        ) from exc
    except (ValueError, RecursionError) as exc:
        raise ArtifactError(f"{name}: corrupt domain-model metadata ({exc})") from exc
    if not isinstance(meta, dict) or meta.get("format") != "repro.domain_model":
        raise ArtifactError(f"{name}: not a domain-model artifact")
    version = meta.get("version")
    if version != _FORMAT_VERSION:
        raise ArtifactSchemaError(
            f"{name}: domain-model artifact has schema version {version!r}, "
            f"this build reads version {_FORMAT_VERSION}"
        )
    return meta


# ---------------------------------------------------------------------------
# domain-specific models
# ---------------------------------------------------------------------------
_DS_PREFIXES = ("time__", "energy__", "speedup__", "norm_energy__")


def encode_domain_model(model: DomainSpecificModel) -> bytes:
    """The ``.npz`` archive of a fitted :class:`DomainSpecificModel` (forest-backed).

    These are ``np.savez_compressed``'s bytes, encoded in memory, and
    the same model always encodes to the same bytes. Only
    Random-Forest-backed models are supported (the paper's selected
    regressor); other regressors raise :class:`DatasetError`.
    """
    submodels = (
        model._time_model,
        model._energy_model,
        model._speedup_model,
        model._norm_energy_model,
    )
    if any(m is None for m in submodels):
        raise ModelNotFittedError("cannot serialize an unfitted DomainSpecificModel")
    if not all(isinstance(m, RandomForestRegressor) for m in submodels):
        raise DatasetError(
            "only RandomForestRegressor-backed domain models are serializable"
        )
    arrays: Dict[str, np.ndarray] = {}
    sub_meta: List[Dict] = []
    for prefix, sub in zip(_DS_PREFIXES, submodels):
        arrays.update(_forest_arrays(sub, prefix))  # type: ignore[arg-type]
        sub_meta.append(_forest_meta(sub))  # type: ignore[arg-type]
    meta = {
        "format": "repro.domain_model",
        "version": _FORMAT_VERSION,
        "feature_names": list(model.feature_names),
        "baseline_freq_mhz": model.baseline_freq_mhz,
        "submodels": sub_meta,
    }
    encoded = io.BytesIO()
    np.savez_compressed(
        encoded, __meta__=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8), **arrays
    )
    return encoded.getvalue()


def save_domain_model(model: DomainSpecificModel, path: PathLike) -> None:
    """Write :func:`encode_domain_model`'s bytes to ``path``, replaced atomically.

    The archive is encoded before the write starts, so a failure
    mid-encode or mid-write leaves the previous file as it was. A path
    without the ``.npz`` suffix gets it, as ``np.savez_compressed``
    would add it.
    """
    target = os.fspath(path)
    if not target.endswith(".npz"):
        target += ".npz"
    atomic_write(pathlib.Path(target), encode_domain_model(model))


@dataclass(frozen=True)
class DecodedDomainModel:
    """A checked domain-model artifact: its metadata and read-only tree arrays.

    Decoding is the costly part of a load (one ``.npz`` member per tree
    array). :meth:`build` is cheap, so a holder of decoded bytes can hand
    out a fresh model per caller without decoding again.
    """

    feature_names: Tuple[str, ...]
    baseline_freq_mhz: float
    forests: Tuple[_DecodedForest, ...]

    def build(self) -> DomainSpecificModel:
        """Fresh model and forest objects over the shared tree arrays."""
        model = DomainSpecificModel(self.feature_names, baseline_freq_mhz=self.baseline_freq_mhz)
        model._time_model, model._energy_model, model._speedup_model, model._norm_energy_model = (
            forest.build() for forest in self.forests
        )
        return model


def decode_domain_model(source: ArtifactSource) -> DecodedDomainModel:
    """Read and check a model written by :func:`save_domain_model`.

    Raises :class:`repro.errors.ArtifactError` (a :class:`DatasetError`)
    on unreadable, truncated or malformed archives, trees whose structure
    prediction cannot walk included, and :class:`ArtifactSchemaError` on
    schema-version mismatch — never a bare ``KeyError`` or ``IndexError``.
    """
    name = _describe_source(source)
    arrays = _open_artifact(source)
    meta = _artifact_meta(arrays, source)
    try:
        feature_names = tuple(meta["feature_names"])
        baseline = check_positive(meta["baseline_freq_mhz"], "baseline_freq_mhz")
        submodels = meta["submodels"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ArtifactError(f"{name}: corrupt domain-model metadata ({exc!r})") from exc
    if not isinstance(submodels, list) or len(submodels) != len(_DS_PREFIXES):
        raise ArtifactError(
            f"{name}: domain-model artifact must hold {len(_DS_PREFIXES)} submodels"
        )
    forests = tuple(
        _decode_forest(sm, arrays, prefix, source)
        for prefix, sm in zip(_DS_PREFIXES, submodels)
    )
    return DecodedDomainModel(feature_names, baseline, forests)


def load_domain_model(source: ArtifactSource) -> DomainSpecificModel:
    """Read a model written by :func:`save_domain_model`.

    Raises what :func:`decode_domain_model` raises.
    """
    return decode_domain_model(source).build()
