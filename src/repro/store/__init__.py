"""Durable run store: ledger-backed, checkpointed, resumable experiments.

See :mod:`repro.store.runstore` for the architecture and
``docs/store.md`` for the schema, hashing rules and resume semantics.
Command-line access: ``python -m repro.store {ls,show,diff,gc,export}``.
"""

from ..errors import StoreError, StoreSchemaError
from ..fileio import FileLock
from .artifacts import ArtifactStore
from .keys import STORE_SCHEMA_VERSION, canonical_json, content_digest, unit_key
from .ledger import Ledger
from .runstore import (
    ENV_STORE_DIR,
    ENV_STORE_RESUME,
    RunStore,
    active_store,
    resume_enabled,
)

__all__ = [
    "ArtifactStore",
    "ENV_STORE_DIR",
    "ENV_STORE_RESUME",
    "FileLock",
    "Ledger",
    "RunStore",
    "STORE_SCHEMA_VERSION",
    "StoreError",
    "StoreSchemaError",
    "active_store",
    "canonical_json",
    "content_digest",
    "resume_enabled",
    "unit_key",
]
