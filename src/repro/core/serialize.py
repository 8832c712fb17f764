"""Model serialization: tree ensembles to and from JSON.

The format is versioned, self-contained (objective, learning rate, tree
structures with raw-value thresholds) and stable across releases, so
models trained by any of the quadrant systems can be shipped to a serving
process that only needs :mod:`repro.core.tree`.
"""

from __future__ import annotations

import hashlib
import json
import numbers
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .split import SplitInfo
from .tree import Tree, TreeEnsemble

FORMAT_VERSION = 1

#: JSON type of each payload field, as the types a decoded value may have
_FIELD_TYPES = {
    "integer": numbers.Integral,
    "number": numbers.Real,
    "boolean": (bool, np.bool_),
    "string": str,
    "list": list,
    "object": dict,
}
_MISSING = object()
#: the fields each object of the format may carry
_MODEL_FIELDS = frozenset({"format_version", "objective", "num_classes",
                           "gradient_dim", "learning_rate", "trees"})
_TREE_FIELDS = frozenset({"num_layers", "nodes"})
_LEAF_FIELDS = frozenset({"weight"})
_SPLIT_FIELDS = frozenset({"feature", "bin", "default_left", "gain",
                           "threshold"})


def ensemble_to_dict(ensemble: TreeEnsemble,
                     objective: Optional[str] = None,
                     num_classes: Optional[int] = None) -> dict:
    """JSON-ready dict of an ensemble.

    ``objective``/``num_classes`` default to the ensemble's own metadata
    (falling back to ``"binary"``/2 when the ensemble carries none), so
    models trained with metadata attached serialize it without the
    caller re-stating it.
    """
    if objective is None:
        objective = ensemble.objective or "binary"
    if num_classes is None:
        num_classes = ensemble.num_classes or 2
    return {
        "format_version": FORMAT_VERSION,
        "objective": objective,
        "num_classes": num_classes,
        "gradient_dim": ensemble.gradient_dim,
        "learning_rate": ensemble.learning_rate,
        "trees": [_tree_to_dict(tree) for tree in ensemble.trees],
    }


def ensemble_from_dict(payload: dict) -> TreeEnsemble:
    """Inverse of :func:`ensemble_to_dict` (validates the format).

    The returned ensemble carries the payload's ``objective`` and
    ``num_classes`` metadata, so consumers (``repro predict``, the model
    registry) can pick the prediction transform from the model alone.
    A tree no row could be routed through correctly — a negative
    feature or bin, a node id beyond ``num_layers``, a node whose parent
    is not a split — raises ``ValueError`` naming the tree and node, and
    so does a payload that is not a JSON object, or that lacks, mistypes
    or adds a field.
    """
    _check_object(payload, "model payload", _MODEL_FIELDS)
    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(
            f"unsupported model format version: {version!r} "
            f"(expected {FORMAT_VERSION})"
        )
    ensemble = TreeEnsemble(
        gradient_dim=int(_field(payload, "gradient_dim", "integer")),
        learning_rate=float(_field(payload, "learning_rate", "number")),
        objective=_field(payload, "objective", "string", default="binary"),
        num_classes=int(_field(payload, "num_classes", "integer",
                               default=2)),
    )
    for index, tree_payload in enumerate(_field(payload, "trees", "list")):
        ensemble.append(_tree_from_dict(tree_payload,
                                        ensemble.gradient_dim, index))
    return ensemble


def _check_object(payload, where: str, fields: frozenset) -> None:
    """``ValueError`` unless ``payload`` is a JSON object whose fields
    are all among ``fields``."""
    if not isinstance(payload, dict):
        raise ValueError(f"{where} is not a JSON object "
                         f"(got {type(payload).__name__})")
    unknown = sorted(set(payload) - fields)
    if unknown:
        raise ValueError(f"{where}: unknown field(s) {unknown}")


def _field(payload: dict, key: str, kind: str, where: str = "model",
           default=_MISSING):
    """``payload[key]`` if present (else ``default``) and of JSON type
    ``kind``; ``ValueError`` naming ``where`` and the field otherwise."""
    value = payload.get(key, default)
    if value is _MISSING:
        raise ValueError(f"{where}: missing field {key!r}")
    boolean = isinstance(value, _FIELD_TYPES["boolean"])
    if not isinstance(value, _FIELD_TYPES[kind]) \
            or (boolean and kind != "boolean"):
        raise ValueError(f"{where}: field {key!r} is "
                         f"{type(value).__name__}, expected {kind}")
    return value


def canonical_payload_bytes(payload: dict) -> bytes:
    """Canonical wire encoding of a model payload.

    Sorted keys and minimal separators make the encoding independent of
    dict insertion order, so it is the stable input for checksums and
    the byte size a served model costs to ship.
    """
    return json.dumps(payload, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def payload_checksum(payload: dict) -> str:
    """SHA-256 hex digest of the canonical payload encoding."""
    return hashlib.sha256(canonical_payload_bytes(payload)).hexdigest()


def save_ensemble(ensemble: TreeEnsemble, path: Union[str, Path],
                  objective: Optional[str] = None,
                  num_classes: Optional[int] = None) -> None:
    """Write an ensemble to a JSON file."""
    path = Path(path)
    payload = ensemble_to_dict(ensemble, objective, num_classes)
    path.write_text(json.dumps(payload, indent=1))


def load_ensemble(path: Union[str, Path]) -> TreeEnsemble:
    """Read an ensemble from a JSON file."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not a valid model file") from exc
    return ensemble_from_dict(payload)


def _tree_to_dict(tree: Tree) -> dict:
    nodes = {}
    for node_id, node in sorted(tree.nodes.items()):
        if node.is_leaf:
            nodes[str(node_id)] = {"weight": node.weight.tolist()}
        else:
            nodes[str(node_id)] = {
                "feature": node.split.feature,
                "bin": node.split.bin,
                "default_left": node.split.default_left,
                "gain": node.split.gain,
                "threshold": node.threshold,
            }
    return {"num_layers": tree.num_layers, "nodes": nodes}


def _tree_from_dict(payload: dict, gradient_dim: int, index: int) -> Tree:
    where = f"tree {index}"
    _check_object(payload, where, _TREE_FIELDS)
    tree = Tree(int(_field(payload, "num_layers", "integer", where)),
                gradient_dim)
    for node_key, node_payload in _field(payload, "nodes", "object",
                                         where).items():
        try:
            node_id = int(node_key)
        except ValueError:
            raise ValueError(f"{where}: node key {node_key!r} is not "
                             "an integer") from None
        at = f"{where} node {node_id}"
        # heap order: node n sits in layer bit_length(n + 1) - 1
        if node_id < 0 or (node_id + 1).bit_length() > tree.num_layers:
            raise ValueError(f"{at}: outside a {tree.num_layers}-layer tree")
        leaf = isinstance(node_payload, dict) and "weight" in node_payload
        _check_object(node_payload, at,
                      _LEAF_FIELDS if leaf else _SPLIT_FIELDS)
        if leaf:
            weight = _field(node_payload, "weight", "list", at)
            if not all(isinstance(w, numbers.Real)
                       and not isinstance(w, bool) for w in weight):
                raise ValueError(f"{at}: leaf weight must be a list "
                                 "of numbers")
            tree.set_leaf(node_id, np.asarray(weight))
        else:
            split = SplitInfo(
                feature=int(_field(node_payload, "feature", "integer", at)),
                bin=int(_field(node_payload, "bin", "integer", at)),
                default_left=bool(_field(node_payload, "default_left",
                                         "boolean", at)),
                gain=float(_field(node_payload, "gain", "number", at)),
            )
            if split.feature < 0 or split.bin < 0:
                raise ValueError(f"{at}: negative split (feature "
                                 f"{split.feature}, bin {split.bin})")
            tree.set_split(node_id, split, float(
                _field(node_payload, "threshold", "number", at)))
    for node_id in tree.nodes:
        parent = tree.nodes.get((node_id - 1) // 2)
        if node_id > 0 and (parent is None or parent.is_leaf):
            raise ValueError(
                f"{where} node {node_id}: its parent is not a split, "
                "so no row can reach it"
            )
    return tree
