"""Canonical hashing for the durable run store.

Two kinds of digest, both SHA-256 hex:

* **Unit keys** identify one unit of work — the canonical JSON of
  ``(experiment name, scale, seed, sorted kwargs, obs fingerprint,
  schema version)``, plus the checking mode when a run is checked.  The
  kwargs carry everything that shapes a run (campaign spec JSON,
  scenario, protocol/scheme, feature flags), so two jobs collide exactly
  when re-running one would reproduce the other's bytes.  The observability fingerprint is part of the key for the same
  reason it keys the in-process run cache: a result captured with
  tracing enabled carries different artifacts than one captured without,
  and replaying across the two would corrupt merged traces.
* **Content digests** name stored artifact payloads — the hash of the
  exact bytes on disk, which is what makes the object store
  content-addressed and every read verifiable.

Canonical JSON is ``sort_keys=True`` with compact separators and
``default=str`` (the same fallback the runner's ``--json`` output uses),
so a key never depends on dict insertion order or on the Python
representation of an exotic parameter type.
"""

from __future__ import annotations

import hashlib
import json
from typing import Iterable, Sequence, Tuple, Union

#: Version of the unit-key layout *and* the ledger schema.  Bumping it
#: invalidates every stored unit (keys stop matching) and makes opening
#: an old ledger fail loudly (:class:`repro.errors.StoreSchemaError`).
STORE_SCHEMA_VERSION = 1


def canonical_json(value) -> str:
    """Deterministic JSON used for hashing (never for artifact bodies)."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"), default=str)


def content_digest(data: bytes) -> str:
    """The content address of an artifact payload."""
    return hashlib.sha256(data).hexdigest()


def unit_key(
    experiment_id: str,
    scale: float,
    seed: int,
    kwargs: Iterable[Tuple[str, object]] = (),
    obs_fingerprint: Sequence[bool] = (),
    checked: Union[bool, str] = False,
) -> str:
    """The ledger key of one (experiment, params, seed, scheme) unit.

    ``checked`` is the checking mode and enters the key only when set:
    unchecked keys never move, and a reporting run never replays into a
    strict one.
    """
    doc = {
        "schema": STORE_SCHEMA_VERSION,
        "experiment": experiment_id,
        "scale": scale,
        "seed": seed,
        "kwargs": {str(k): v for k, v in kwargs},
        "obs": list(obs_fingerprint),
    }
    if checked:
        doc["checked"] = checked
    return hashlib.sha256(canonical_json(doc).encode("utf-8")).hexdigest()
