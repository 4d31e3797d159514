"""Persistence: datasets/characterizations as JSON, fitted models as npz."""

from repro.io.serialization import (
    load_characterization,
    load_dataset,
    load_domain_model,
    save_characterization,
    save_dataset,
    save_domain_model,
)

__all__ = [
    "load_characterization",
    "load_dataset",
    "load_domain_model",
    "save_characterization",
    "save_dataset",
    "save_domain_model",
]
