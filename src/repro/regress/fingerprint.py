"""Canonical frontier fingerprints.

A fingerprint compresses one Pareto frontier — the list of plans an
optimizer returns — into a single hex digest that changes whenever *any*
result-affecting detail changes, and never changes otherwise:

* **Cost exactness** — every cost component is encoded as the big-endian
  IEEE-754 float64 hex of its bit pattern (:func:`float_hex`), so the
  fingerprint distinguishes values that ``repr`` or a float comparison with
  tolerance would conflate, and handles ``±inf`` exactly.  NaNs are
  canonicalized to the quiet-NaN bit pattern first: any NaN payload
  fingerprints identically (Python cannot round-trip payloads portably),
  but NaN never fingerprints equal to any number.
* **Plan shapes** — each plan contributes a structural digest
  (:func:`plan_shape_digest`) covering the join tree, table indices and
  operator choices, so a cost-identical frontier built from different plans
  still drifts.
* **Order invariance** — rows are sorted canonically before hashing
  (:func:`fingerprint_rows`), so frontier insertion order, arena
  internals, and set iteration order cannot affect the digest.

Examples
--------
>>> from repro.regress.fingerprint import cost_row, fingerprint_rows
>>> rows = [cost_row([1.0, 2.0]), cost_row([3.0, 4.0])]
>>> fingerprint_rows(rows) == fingerprint_rows(list(reversed(rows)))
True
>>> fingerprint_rows(rows) == fingerprint_rows([cost_row([1.0, 2.0])])
False
>>> cost_row([1.0])["cost"]        # exact float64 bit pattern, big-endian
['3ff0000000000000']
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from typing import Dict, Iterable, List, Sequence

from repro.plans.plan import Plan

#: Version tag of the fingerprint derivation.  Bump whenever the row format
#: or hashing changes — every pinned fingerprint then reads as drift instead
#: of silently comparing digests computed under different rules.
FINGERPRINT_FORMAT = "repro-frontier-fingerprint-v1"

#: Length (hex chars) of per-plan shape digests.
_SHAPE_DIGEST_LEN = 16


def _canonical_json(payload: object) -> bytes:
    """Canonical JSON bytes: sorted keys, no whitespace (stable across runs)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")


def float_hex(value: float) -> str:
    """Exact big-endian IEEE-754 float64 hex of ``value``.

    ``-0.0`` and ``0.0`` encode differently (they are different results);
    ``±inf`` encode exactly; NaNs are canonicalized to the positive quiet
    NaN so every NaN fingerprints identically — and never equal to a number.

    >>> float_hex(1.0)
    '3ff0000000000000'
    >>> float_hex(float("inf"))
    '7ff0000000000000'
    >>> float_hex(float("nan"))
    '7ff8000000000000'
    """
    number = float(value)
    if math.isnan(number):
        number = float("nan")
    return struct.pack(">d", number).hex()


def cost_row(costs: Sequence[float], shape: str = "") -> Dict[str, object]:
    """Build one canonical frontier row from a raw cost vector.

    ``shape`` is the plan-shape digest; synthetic rows (tests, external
    tooling) may leave it empty.
    """
    return {"cost": [float_hex(value) for value in costs], "shape": shape}


def _shape_signature(plan: Plan) -> object:
    """Recursive structural signature: tree shape, tables, operators."""
    if plan.is_join:
        return [
            "join",
            plan.operator.name,
            _shape_signature(plan.outer),
            _shape_signature(plan.inner),
        ]
    return ["scan", plan.operator.name, plan.table.index]


def plan_shape_digest(plan: Plan) -> str:
    """Short hex digest of a plan's full structure.

    Covers the join-tree shape, the base-table indices at the leaves, and
    every scan/join operator choice — two plans share a digest exactly when
    they are structurally equal.
    """
    digest = hashlib.sha256(_canonical_json(_shape_signature(plan))).hexdigest()
    return digest[:_SHAPE_DIGEST_LEN]


def frontier_rows(frontier: Iterable[Plan]) -> List[Dict[str, object]]:
    """Canonical rows of a frontier: one :func:`cost_row` per plan."""
    return [cost_row(plan.cost, shape=plan_shape_digest(plan)) for plan in frontier]


def fingerprint_rows(rows: Iterable[Dict[str, object]]) -> str:
    """Hex SHA-256 fingerprint of a row set, invariant to row order.

    Rows are sorted by their canonical JSON encoding before hashing, so the
    digest depends only on the row *multiset* — duplicated rows (distinct
    plans with identical costs and shapes are legal frontier members) are
    preserved, insertion order is not.
    """
    encoded = sorted(_canonical_json(row).decode("ascii") for row in rows)
    payload = {"format": FINGERPRINT_FORMAT, "rows": encoded}
    return hashlib.sha256(_canonical_json(payload)).hexdigest()


def frontier_fingerprint(frontier: Iterable[Plan]) -> str:
    """Fingerprint of a frontier of :class:`~repro.plans.plan.Plan` objects."""
    return fingerprint_rows(frontier_rows(frontier))
