"""Versioned, digest-validated model registry.

The registry is the hand-off point between offline training (``repro
train``) and online serving (``repro advise`` / ``repro serve``): a
directory of immutable, versioned model artifacts, each described by a
manifest recording what the model is *for* (application, feature names,
baseline frequency, device-spec signature, training fingerprint) and
what its bytes *are* (SHA-256). Discipline mirrors the campaign result
cache (schema-versioned records, canonical-JSON self-digests, the
cache's atomic tmp-file + ``os.replace`` write) so a registry survives
concurrent writers and bit rot the same way the cache does — and,
critically, a tampered artifact is **never served**: ``resolve``
re-hashes the bytes before deserializing and raises
:class:`ModelIntegrityError` on any mismatch. Decoding is keyed by that
hash: a registry decodes each artifact once and builds a fresh model
over the decoded arrays on every ``resolve``. Manifests are read
through ``MANIFEST_SCHEMA``, the schema ``repro lint`` checks them
with, so a manifest lint rejects is never served either.

Layout::

    <root>/<name>/v<version>/model.npz      # the .npz artifact bytes
    <root>/<name>/v<version>/manifest.json  # schema, metadata, digests
"""

from __future__ import annotations

import hashlib
import io
import json
import pathlib
import re
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.errors import ModelIntegrityError, RegistryError, ReproError, SpecValidationError
from repro.io.serialization import DecodedDomainModel, decode_domain_model
from repro.modeling.domain import DomainSpecificModel
from repro.runtime.cache import atomic_write as _atomic_write
from repro.runtime.seeding import canonical_json, stable_digest

__all__ = [
    "REGISTRY_SCHEMA_VERSION",
    "ModelManifest",
    "VerifyReport",
    "ModelRegistry",
]

PathLike = Union[str, pathlib.Path]

#: Bump when the manifest payload or verification semantics change;
#: older manifests are rejected with a clear schema error.
REGISTRY_SCHEMA_VERSION = 1

_MANIFEST_FORMAT = "repro.model_manifest"
_ARTIFACT_FILENAME = "model.npz"
_MANIFEST_FILENAME = "manifest.json"
_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")
#: Decoded artifacts a registry keeps, least recently used dropped first:
#: room for a served incumbent, a candidate and a rollback target, while
#: ``verify`` over many versions cannot grow the memo.
_DECODED_KEPT = 4


def _sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass(frozen=True)
class ModelManifest:
    """Everything the serving layer needs to know about one model version."""

    name: str
    version: int
    app: str
    feature_names: Tuple[str, ...]
    baseline_freq_mhz: float
    artifact_sha256: str
    artifact_bytes: int
    device_signature_digest: Optional[str] = None
    train_fingerprint: Optional[str] = None

    @property
    def ref(self) -> str:
        """Human-readable ``name:vN`` reference."""
        return f"{self.name}:v{self.version}"

    def as_dict(self) -> Dict[str, Any]:
        """Plain-dict view (JSON listings)."""
        return {
            "name": self.name,
            "version": self.version,
            "app": self.app,
            "feature_names": list(self.feature_names),
            "baseline_freq_mhz": self.baseline_freq_mhz,
            "artifact_sha256": self.artifact_sha256,
            "artifact_bytes": self.artifact_bytes,
            "device_signature_digest": self.device_signature_digest,
            "train_fingerprint": self.train_fingerprint,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ModelManifest":
        """Inverse of :meth:`as_dict`, for a payload ``MANIFEST_SCHEMA`` has
        validated (the registry reads every manifest through it)."""
        return cls(**dict(payload, feature_names=tuple(payload["feature_names"])))


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of verifying one registered model version."""

    name: str
    version: int
    ok: bool
    error: Optional[str] = None

    @property
    def ref(self) -> str:
        """Human-readable ``name:vN`` reference."""
        return f"{self.name}:v{self.version}"


class ModelRegistry:
    """Filesystem-backed registry of versioned domain models.

    Parameters
    ----------
    root:
        Registry directory; created (with parents) on first register.
    """

    def __init__(self, root: PathLike) -> None:
        self.root = pathlib.Path(root)
        self._decoded: "OrderedDict[str, DecodedDomainModel]" = OrderedDict()
        self._decoded_lock = threading.Lock()

    # ------------------------------------------------------------------
    # paths
    # ------------------------------------------------------------------
    @staticmethod
    def _check_name(name: str) -> str:
        if not _NAME_RE.match(name):
            raise RegistryError(
                f"invalid model name {name!r}: use letters, digits, '.', '_', '-'"
            )
        return name

    def _version_dir(self, name: str, version: int) -> pathlib.Path:
        return self.root / name / f"v{int(version)}"

    def artifact_path(self, name: str, version: int) -> pathlib.Path:
        """On-disk location of one version's ``.npz`` artifact."""
        return self._version_dir(name, version) / _ARTIFACT_FILENAME

    def manifest_path(self, name: str, version: int) -> pathlib.Path:
        """On-disk location of one version's manifest."""
        return self._version_dir(name, version) / _MANIFEST_FILENAME

    def _versions(self, name: str) -> List[int]:
        # The manifest, written last, commits a version: a directory a
        # crash left with only its artifact does not count, so the next
        # register reuses its number.
        model_dir = self.root / name
        if not model_dir.is_dir():
            return []
        out = []
        for entry in model_dir.iterdir():
            if re.fullmatch(r"v\d+", entry.name) and (entry / _MANIFEST_FILENAME).is_file():
                out.append(int(entry.name[1:]))
        return sorted(out)

    def _decode(self, data: bytes, sha256: str, source: PathLike) -> DecodedDomainModel:
        """Decode verified artifact bytes, once per SHA-256 while memoized.

        ``sha256`` must be the hash of ``data``; callers compute it from
        the bytes they just read or were handed. Decode errors name
        ``source``: the file the bytes came from, or a label for bytes
        handed in.
        The decode runs under the lock, so concurrent resolves of one
        artifact decode it once.
        """
        with self._decoded_lock:
            decoded = self._decoded.get(sha256)
            if decoded is None:
                buffer = io.BytesIO(data)
                buffer.name = str(source)
                decoded = decode_domain_model(buffer)
                self._decoded[sha256] = decoded
            self._decoded.move_to_end(sha256)
            while len(self._decoded) > _DECODED_KEPT:
                self._decoded.popitem(last=False)
        return decoded

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------
    def register(
        self,
        artifact: Union[PathLike, bytes],
        name: str,
        app: str = "unknown",
        device_signature: Optional[Dict[str, Any]] = None,
        train_fingerprint: Optional[str] = None,
    ) -> ModelManifest:
        """Store a trained model artifact in the registry as a new version.

        ``artifact`` is the artifact file's path, or the artifact's bytes
        as :func:`~repro.io.serialization.encode_domain_model` returns
        them. The artifact is decoded once up front (so junk never enters
        the registry — truncated/foreign files and trees prediction cannot
        walk raise :class:`repro.errors.ArtifactError` here, not at
        serving time), then its exact bytes are stored with their SHA-256
        in the manifest. The decode is kept for the first ``resolve`` of
        the new version. Versions auto-increment per name; the manifest
        is written last and commits the version.
        """
        self._check_name(name)
        if isinstance(artifact, bytes):
            data, src = artifact, f"<{name} artifact bytes>"
        else:
            src = pathlib.Path(artifact)
            try:
                data = src.read_bytes()
            except OSError as exc:
                raise RegistryError(f"cannot read model artifact {src}: {exc}") from exc
        sha256 = _sha256_hex(data)
        decoded = self._decode(data, sha256, src)

        versions = self._versions(name)
        version = (versions[-1] + 1) if versions else 1
        manifest = ModelManifest(
            name=name,
            version=version,
            app=app,
            feature_names=decoded.feature_names,
            baseline_freq_mhz=float(decoded.baseline_freq_mhz),
            artifact_sha256=sha256,
            artifact_bytes=len(data),
            device_signature_digest=(
                stable_digest(device_signature) if device_signature is not None else None
            ),
            train_fingerprint=train_fingerprint,
        )
        record = {
            "format": _MANIFEST_FORMAT,
            "schema_version": REGISTRY_SCHEMA_VERSION,
            "manifest": manifest.as_dict(),
            "digest": stable_digest(manifest.as_dict()),
        }
        _atomic_write(self.artifact_path(name, version), data)
        _atomic_write(
            self.manifest_path(name, version),
            canonical_json(record).encode("utf-8"),
        )
        return manifest

    def _read_manifest(self, name: str, version: int) -> ModelManifest:
        # Deferred imports: repro.specs imports repro.serving, so importing
        # it at module level would be circular.
        from repro.specs.checker import MANIFEST_SCHEMA
        from repro.specs.schema import load_clean

        path = self.manifest_path(name, version)
        try:
            record = json.loads(path.read_text())
        except OSError as exc:
            raise RegistryError(f"{name}:v{version}: manifest unreadable ({exc})") from exc
        except ValueError as exc:
            raise ModelIntegrityError(
                f"{name}:v{version}: manifest is not valid JSON ({exc})"
            ) from exc
        # Integrity first: a payload that no longer matches its digest is
        # corrupt, whatever else is wrong with it.
        try:
            intact = record["digest"] == stable_digest(record["manifest"])
        except (KeyError, TypeError, ValueError):  # not a manifest; non-finite floats
            intact = False
        if not intact:
            raise ModelIntegrityError(
                f"{name}:v{version}: manifest digest mismatch (tampered or corrupt)"
            )
        try:
            clean = load_clean(MANIFEST_SCHEMA, record, file=str(path))
        except SpecValidationError as exc:
            raise RegistryError(f"{name}:v{version}: {exc}") from exc
        manifest = ModelManifest.from_dict(clean["manifest"])
        if manifest.name != name or manifest.version != version:
            raise ModelIntegrityError(
                f"{name}:v{version}: manifest identifies itself as {manifest.ref}"
            )
        return manifest

    def _resolve_version(self, name: str, version: Optional[int]) -> int:
        # Validate the name on the read path too: a malformed name must
        # fail as a typed RegistryError naming the searched location, not
        # leak whatever OSError the filesystem produces for it.
        self._check_name(name)
        versions = self._versions(name)
        if not versions:
            raise RegistryError(
                f"unknown model {name!r}: no versions registered under "
                f"{self.root / name} (registry {self.root})"
            )
        if version is None:
            return versions[-1]
        if int(version) not in versions:
            raise RegistryError(
                f"model {name!r} has no version v{int(version)} "
                f"(available: {', '.join(f'v{v}' for v in versions)})"
            )
        return int(version)

    def manifest(self, name: str, version: Optional[int] = None) -> ModelManifest:
        """The (digest-checked) manifest of one version (default: latest)."""
        return self._read_manifest(name, self._resolve_version(name, version))

    def list(self) -> List[ModelManifest]:
        """Every registered (name, version), manifest-verified, sorted."""
        out: List[ModelManifest] = []
        if not self.root.is_dir():
            return out
        for model_dir in sorted(p for p in self.root.iterdir() if p.is_dir()):
            for version in self._versions(model_dir.name):
                out.append(self._read_manifest(model_dir.name, version))
        return out

    def resolve(
        self, name: str, version: Optional[int] = None
    ) -> Tuple[DomainSpecificModel, ModelManifest]:
        """Load one model version, verifying integrity end to end.

        Every call checks the manifest's digest, reads the artifact bytes
        and re-hashes them against the manifest before deserialization,
        so a flipped byte anywhere in the artifact (or manifest) raises
        :class:`ModelIntegrityError` — a tampered model is never served.
        Only the decode of bytes with an already-decoded SHA-256 is
        skipped: the registry keeps the last few decoded artifacts (read-only
        tree arrays) and builds fresh model objects over them, so two
        resolves never share a model object.
        """
        version = self._resolve_version(name, version)
        manifest = self._read_manifest(name, version)
        path = self.artifact_path(name, version)
        try:
            data = path.read_bytes()
        except OSError as exc:
            raise RegistryError(f"{manifest.ref}: artifact unreadable ({exc})") from exc
        sha256 = _sha256_hex(data)
        if sha256 != manifest.artifact_sha256:
            raise ModelIntegrityError(
                f"{manifest.ref}: artifact digest mismatch — refusing to serve "
                "a tampered or corrupted model"
            )
        return self._decode(data, sha256, path).build(), manifest

    def verify(
        self, name: Optional[str] = None, version: Optional[int] = None
    ) -> List[VerifyReport]:
        """Integrity-check registered versions without serving them.

        Returns one report per (name, version); ``ok=False`` entries
        carry the failure reason. Verifying an empty registry returns an
        empty list; an unknown explicit ``name`` raises.
        """
        if name is not None:
            targets: List[Tuple[str, int]] = [
                (name, self._resolve_version(name, version))
            ]
        else:
            targets = []
            if self.root.is_dir():
                for model_dir in sorted(p for p in self.root.iterdir() if p.is_dir()):
                    for v in self._versions(model_dir.name):
                        targets.append((model_dir.name, v))
        reports: List[VerifyReport] = []
        for target_name, target_version in targets:
            try:
                self.resolve(target_name, target_version)
            except ReproError as exc:
                reports.append(
                    VerifyReport(target_name, target_version, ok=False, error=str(exc))
                )
            else:
                reports.append(VerifyReport(target_name, target_version, ok=True))
        return reports
