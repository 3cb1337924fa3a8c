"""Dynamic one-to-many label assignment between instance queries and entities.

The matching cost of query i and entity k is the negated sum of the query's
predicted probabilities at the entity's type, left boundary, and right
boundary. Each entity k receives an assignable quantity q_k of queries; the
optimal assignment is an exact min-cost flow from the queries to the G
entities (capacity q_k each), solved by successive shortest paths whose
Dijkstra searches run over the G entity nodes plus the free-query source.
Queries left unmatched take the None label through an extra column.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .data import AnnotationError, EntityAnnotation
from .tensor import NumericError

BRUTE_FORCE_LIMIT = 8


class InfeasibleError(ValueError):
    """More assignments demanded than queries available."""


class CapacityError(ValueError):
    """Instance too large for exhaustive enumeration."""


@dataclass(frozen=True)
class QuantityVector:
    """Per-entity assignable quantities q_k with their total Q."""

    counts: np.ndarray

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        object.__setattr__(self, "counts", counts)
        if counts.ndim != 1 or counts.size == 0 or np.any(counts < 1):
            raise ValueError("quantities must be a nonempty vector of positive integers")

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def __len__(self) -> int:
        return len(self.counts)


@dataclass
class AssignmentResult:
    """Binary assignment A, its None-extended form, and per-query label indices.

    ``labels[i]`` is the entity index assigned to query i, or G (the None
    column) when query i went unassigned.
    """

    matrix: np.ndarray
    extended: np.ndarray
    labels: np.ndarray
    total_cost: float


def compute_cost_matrix(scores, types, gold: list[EntityAnnotation]) -> np.ndarray:
    """Cost[i][k] = -(P_type + P_left + P_right) for query i and gold entity k."""
    if not gold:
        raise AnnotationError("cost matrix requires at least one gold entity")
    left = scores.left.data
    right = scores.right.data
    type_probs = types.probs
    n = left.shape[1]
    type_count = type_probs.shape[1] - 1
    for e in gold:
        if e.right >= n:
            raise AnnotationError(f"gold span ({e.left}, {e.right}) outside sentence of length {n}")
        if e.type_id >= type_count:
            raise AnnotationError(f"gold type {e.type_id} outside inventory of size {type_count}")
    lefts = np.array([e.left for e in gold])
    rights = np.array([e.right for e in gold])
    type_ids = np.array([e.type_id for e in gold])
    cost = -(type_probs[:, type_ids] + left[:, lefts] + right[:, rights])
    if not np.all(np.isfinite(cost)):
        raise NumericError("non-finite assignment costs")
    return cost


def assignable_total(query_count: int, ratio: float) -> int:
    """Q = round(M * ratio), halves rounded up: the queries entities share."""
    return int(np.floor(query_count * ratio + 0.5))


def allocate_quantities(
    entity_count: int,
    query_count: int,
    ratio: float,
    rng: np.random.Generator | int | None = None,
) -> QuantityVector:
    """Split the total assignable quantity Q = round(M * ratio) over entities.

    Every entity gets at least floor(Q / G); the remainder goes to a seeded
    random subset. When entities outnumber Q the total is raised to one per
    entity.
    """
    if entity_count < 1 or query_count < 1:
        raise ValueError("entity and query counts must be positive")
    if not 0.0 < ratio <= 1.0:
        raise ValueError(f"ratio must be in (0, 1], got {ratio}")
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    total = assignable_total(query_count, ratio)
    if entity_count > total:
        return QuantityVector(counts=np.ones(entity_count, dtype=np.int64))
    base, remainder = divmod(total, entity_count)
    counts = np.full(entity_count, base, dtype=np.int64)
    if remainder:
        bump = rng.choice(entity_count, size=remainder, replace=False)
        counts[bump] += 1
    return QuantityVector(counts=counts)


def _min_cost_flow(cost: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Owner per query (G when free) of a min-cost flow giving entity k counts[k] queries.

    Successive shortest paths: each unit of flow takes a cheapest path from a
    free query to an entity with spare capacity, possibly moving queries
    between entities on the way. Node b of the search is entity b, node G the
    source; edge a -> b moves to b the query of a that it costs least to move.
    Dijkstra runs on costs reduced by node potentials and sets each label
    once, so predecessor chains cannot cycle under float rounding.

    Ties go to lower indices: the flow ends at the lowest-indexed spare entity
    among the cheapest, Dijkstra settles equal labels in index order and keeps
    the first predecessor found, and each edge moves the lowest-indexed query
    among the cheapest. For G = 1 this picks the q_0 cheapest queries, lower
    index first among equals.
    """
    queries, entities = cost.shape
    source = entities
    owner = np.full(queries, source, dtype=np.int64)
    # via[a, b, j]: cost change of moving query j from a to b; inf unless a holds j
    via = np.full((entities + 1, entities, queries), np.inf)
    via[source] = cost.T
    weight = via.min(axis=2).tolist()
    potential = [0.0] * entities
    spare = counts.tolist()
    for _ in range(sum(spare)):
        dist = [w - p for w, p in zip(weight[source], potential)]
        pred = [source] * entities
        unsettled = list(range(entities))
        while unsettled:
            a = min(unsettled, key=dist.__getitem__)
            unsettled.remove(a)
            row, base = weight[a], dist[a] + potential[a]
            for b in unsettled:
                d = base + row[b] - potential[b]
                if d < dist[b]:
                    dist[b], pred[b] = d, a
        target = min((b for b in range(entities) if spare[b]),
                     key=lambda b: dist[b] + potential[b])
        spare[target] -= 1
        potential = [p + d for p, d in zip(potential, dist)]
        b = target
        while b != source:
            a = pred[b]
            j = via[a, b].argmin()
            owner[j] = b
            via[a, :, j] = np.inf
            via[b, :, j] = cost[j] - cost[j, b]
            weight[b] = via[b].min(axis=1).tolist()
            b = a
        weight[source] = via[source].min(axis=1).tolist()
    return owner


def _fold_matches(
    cost: np.ndarray, entity_of_column: np.ndarray, query_of_column: np.ndarray
) -> AssignmentResult:
    queries, entities = cost.shape
    matrix = np.zeros((queries, entities), dtype=np.int64)
    matrix[query_of_column, entity_of_column] = 1
    labels = np.full(queries, entities, dtype=np.int64)
    labels[query_of_column] = entity_of_column
    extended = np.zeros((queries, entities + 1), dtype=np.int64)
    extended[np.arange(queries), labels] = 1
    total = float(cost[query_of_column, entity_of_column].sum())
    return AssignmentResult(matrix=matrix, extended=extended, labels=labels, total_cost=total)


def solve_one_to_many_lap(cost: np.ndarray, quantities: QuantityVector) -> AssignmentResult:
    """Optimal assignment giving entity k exactly q_k distinct queries."""
    cost = np.asarray(cost, dtype=np.float64)
    queries, entities = cost.shape
    if len(quantities) != entities:
        raise ValueError(f"{len(quantities)} quantities for {entities} entities")
    if quantities.total > queries:
        raise InfeasibleError(
            f"total assignable quantity {quantities.total} exceeds {queries} queries"
        )
    owner = _min_cost_flow(cost, quantities.counts)
    assigned = np.flatnonzero(owner < entities)
    return _fold_matches(cost, owner[assigned], assigned)


def brute_force_lap(cost: np.ndarray, quantities: QuantityVector) -> AssignmentResult:
    """Exhaustive-enumeration oracle for the one-to-many assignment."""
    cost = np.asarray(cost, dtype=np.float64)
    queries, entities = cost.shape
    if len(quantities) != entities:
        raise ValueError(f"{len(quantities)} quantities for {entities} entities")
    if quantities.total > queries:
        raise InfeasibleError(
            f"total assignable quantity {quantities.total} exceeds {queries} queries"
        )
    if queries > BRUTE_FORCE_LIMIT or quantities.total > BRUTE_FORCE_LIMIT:
        raise CapacityError(
            f"enumeration supports at most {BRUTE_FORCE_LIMIT} queries and columns"
        )
    entity_of_column = np.repeat(np.arange(entities), quantities.counts)
    replicated = cost[:, entity_of_column]
    rows = np.array(list(permutations(range(queries), quantities.total)))
    totals = replicated[rows, np.arange(quantities.total)].sum(axis=1)
    return _fold_matches(cost, entity_of_column, rows[np.argmin(totals)])


def labels_from_assignment(
    result: AssignmentResult, gold: list[EntityAnnotation]
) -> list[EntityAnnotation | None]:
    """Per-query labels: the assigned gold entity, or None when unmatched."""
    entities = len(gold)
    return [gold[k] if k < entities else None for k in result.labels]
