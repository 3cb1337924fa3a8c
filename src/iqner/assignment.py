"""Dynamic one-to-many label assignment between instance queries and entities.

The matching cost of query i and entity k is the negated sum of the query's
predicted probabilities at the entity's type, left boundary, and right
boundary. Each entity k receives an assignable quantity q_k of queries; the
optimal assignment is an exact min-cost flow from the queries to the G
entities (capacity q_k each), solved by successive shortest paths whose
Dijkstra searches run over the G entity nodes plus the free-query source.
Queries left unmatched take the None label through an extra column.

A training step gathers each word layer's costs for its whole batch at a
stack of (left, right, type) gold rows, and solves all of its (sentence,
layer) instances in one call that returns their owners and total costs as
arrays: their costs and quantities are stacked, padded to the largest G,
and every augmentation round runs the Dijkstra sweep and the path
walk-back for all instances at once, on arrays indexed flat with +inf at
absent entities. A single instance is the stack of one, returned as an
``AssignmentResult``.
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
    """Per-entity assignable quantities q_k with their total Q.

    ``counts`` is one instance's (G,) vector of positive counts, or a stack
    of K instances as (K, G_max) whose rows are padded with zeros after
    their own G entities; ``total`` then sums every instance.
    """

    counts: np.ndarray

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        object.__setattr__(self, "counts", counts)
        if counts.ndim == 1:
            if counts.size == 0 or counts.min() < 1:
                raise ValueError("quantities must be a nonempty vector of positive integers")
            return
        present = counts > 0
        if (counts.ndim != 2 or counts.size == 0 or counts.min() < 0 or not present[:, 0].all()
                or (present[:, 1:] > present[:, :-1]).any()):
            raise ValueError("stacked quantities must be a (K, G) matrix of rows of positive "
                             "integers, each padded with zeros after its last entity")

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def __len__(self) -> int:
        return self.counts.shape[-1]


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


def gold_array(gold: list[EntityAnnotation], length: int, type_count: int) -> np.ndarray:
    """One sentence's gold entities as a (G, 3) int64 array of (left, right,
    type) rows in the given order, once every span is checked to end inside
    the sentence's ``length`` words and every type to be below ``type_count``."""
    for e in gold:
        if e.right >= length:
            raise AnnotationError(f"gold span ({e.left}, {e.right}) outside sentence of length "
                                  f"{length}")
        if e.type_id >= type_count:
            raise AnnotationError(f"gold type {e.type_id} outside inventory of size {type_count}")
    return np.array([(e.left, e.right, e.type_id) for e in gold], dtype=np.int64).reshape(-1, 3)


def compute_cost_matrix(scores, types, gold) -> np.ndarray:
    """Cost[..., i, k] = -(P_type + P_left + P_right) for query i and gold entity k.

    One gather from the (..., M, N) boundary probabilities of ``scores`` and
    the (..., M, C) class probabilities of ``types`` at the (..., G, 3) stack
    of (left, right, type) rows ``gold``, giving (..., M, G). One sentence's
    gold may also be its list of entities, which ``gold_array`` checks and
    converts.
    """
    left, right, type_probs = scores.left.data, scores.right.data, types.probs
    if isinstance(gold, list):
        gold = gold_array(gold, left.shape[-1], type_probs.shape[-1] - 1)
    rows = left.size // left.shape[-1]
    row = np.arange(rows).reshape(left.shape[:-1] + (1,))  # each query's flattened row
    at = gold[..., None, :, :]  # every query looks up the same G rows
    cost = -(type_probs.reshape(rows, -1)[row, at[..., 2]] + left.reshape(rows, -1)[row, at[..., 0]]
             + right.reshape(rows, -1)[row, at[..., 1]])
    if not np.isfinite(cost).all():
        raise NumericError("non-finite assignment costs")
    return cost


def assignable_total(query_count: int, ratio: float) -> int:
    """Q = round(M * ratio), halves rounded up: the queries entities share."""
    return int(np.floor(query_count * ratio + 0.5))


def allocate_quantities(
    entity_count: int,
    query_count: int,
    ratio: float,
    rng: np.random.Generator,
) -> QuantityVector:
    """Split the total assignable quantity Q = round(M * ratio) over entities.

    Every entity gets at least floor(Q / G); the remainder goes to a random
    subset drawn from ``rng``. When entities outnumber Q the total is raised
    to one per entity.
    """
    if entity_count < 1 or query_count < 1:
        raise ValueError("entity and query counts must be positive")
    if not 0.0 < ratio <= 1.0:
        raise ValueError(f"ratio must be in (0, 1], got {ratio}")
    total = assignable_total(query_count, ratio)
    if entity_count > total:
        return QuantityVector(counts=np.ones(entity_count, dtype=np.int64))
    base, remainder = divmod(total, entity_count)
    counts = np.full(entity_count, base, dtype=np.int64)
    if remainder:
        bump = rng.choice(entity_count, size=remainder, replace=False)
        counts[bump] += 1
    return QuantityVector(counts=counts)


def _lockstep_min_cost_flow(cost: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Owner per query (G when free) of K min-cost flows at once; flow k gives
    entity b counts[k, b] queries. ``cost`` is (K, M, G); its entries where
    the count is 0 are ignored.

    Successive shortest paths: each unit of flow takes a cheapest path from a
    free query to an entity with spare capacity, possibly moving queries
    between entities on the way. Node b of the search is entity b, node G the
    source; edge a -> b moves to b the query of a that it costs least to move,
    at the cost of that query at b less its cost at a (0 at the source).
    Dijkstra runs on costs reduced by node potentials and sets each label
    once, so predecessor chains cannot cycle under float rounding.
    Round r augments every instance that needs more than r units; absent
    entities stay at +inf distance and are never settled before real ones.
    The arrays are indexed flat, instance k's node a at k * G + a.

    Ties go to lower indices: the flow ends at the lowest-indexed spare entity
    among the cheapest, Dijkstra settles equal labels in index order and keeps
    the first predecessor found, and each edge moves the lowest-indexed query
    among the cheapest. For G = 1 this picks the q_0 cheapest queries, lower
    index first among equals.
    """
    instances, queries, entities = cost.shape
    source = entities
    inf = np.inf
    present = counts > 0
    instance = np.arange(instances)
    nodes = instance * entities  # instance k's node 0
    # held[k, a, b, j]: the cost change of moving query j from a to b, +inf
    # unless a holds j; a = G is the source, which holds the free queries
    held = np.full((instances, entities + 1, entities, queries), inf)
    cost = np.where(present[:, None, :], cost, inf)
    held[:, source] = cost.transpose(0, 2, 1)
    blocks = held.reshape(-1, entities, queries)  # block k * (G + 1) + a
    blocks_at = instance * (entities + 1)
    held_rows = held.reshape(-1, queries)  # row (k * (G + 1) + a) * G + b
    costs = cost.reshape(-1, entities)  # row k * M + j: query j's costs
    queries_at = instance * queries
    flat_cost = costs.reshape(-1)
    # weight[k * G + a, b]: the cheapest move from entity a to b
    weight = np.full((instances * entities, entities), inf)
    owner = np.full(instances * queries, source)
    potential = np.zeros((instances, entities))
    spare = counts.copy()
    rounds = counts.sum(axis=1)
    absent = np.where(present, 0.0, inf)
    # key is dist with +inf at settled nodes; one copy relaxes both
    key_dist = np.empty((2, instances, entities))
    key, dist = key_dist
    offset, reach = np.empty((instances, entities)), np.empty((instances, entities))
    pred = np.empty((instances, entities), dtype=np.int64)
    better = np.empty((instances, entities), dtype=bool)
    flat_key, flat_offset, flat_reach, flat_pred, flat_spare = (
        x.reshape(-1) for x in (key, offset, reach, pred, spare))
    for r in range(int(rounds.max())):
        live = rounds > r
        np.subtract(held[:, source].min(axis=2), potential, out=key_dist)
        pred.fill(source)
        # x + offset is x - potential at unsettled nodes and +inf at settled
        # and absent ones, so those are never relaxed
        np.subtract(absent, potential, out=offset)
        # before round 1 no entity holds a query, so no edge leaves one
        for _ in range(entities - 1 if r else 0):
            a = key.argmin(axis=1)
            at = a + nodes
            np.add(key, potential, out=reach)
            base = flat_reach[at]
            flat_key[at] = inf
            flat_offset[at] = inf
            d = weight.take(at, axis=0)
            d += base[:, None]
            d += offset
            np.less(d, key, out=better)
            np.copyto(key_dist, d, where=better)
            np.copyto(pred, a[:, None], where=better)
        np.add(dist, potential, out=reach)
        np.copyto(reach, inf, where=spare == 0)
        target = reach.argmin(axis=1)
        flat_spare[target + nodes] -= live
        np.add(potential, dist, out=potential, where=present & live[:, None])
        # walk each path back from its target; the target only gains a query,
        # every later node also lost one a step before, so its row is rebuilt.
        # A walker carries its instance's node 0, held block 0 and query 0.
        walking = live.nonzero()[0]
        node, block, query = nodes[walking], blocks_at[walking], queries_at[walking]
        b = target[walking]
        first = True
        while True:
            at = node + b
            a = flat_pred[at]
            lost, won = block + a, block + b
            j = held_rows.take(lost * entities + b, axis=0).argmin(axis=1)
            moved = query + j
            owner[moved] = b
            gained = costs.take(moved, axis=0)
            gained -= flat_cost[moved * entities + b][:, None]
            blocks[lost, :, j] = inf
            blocks[won, :, j] = gained
            if first:
                weight[at] = np.minimum(weight.take(at, axis=0), gained)
            else:
                weight[at] = blocks.take(won, axis=0).min(axis=2)
            on_path = a != source
            if not np.count_nonzero(on_path):
                break
            node, block, query, b = node[on_path], block[on_path], query[on_path], a[on_path]
            first = False
    return owner.reshape(instances, queries)


def _total_costs(cost: np.ndarray, owner: np.ndarray) -> np.ndarray:
    """Each instance's summed cost at its owners, (K,) from (K, M, G) costs
    and (K, M) owners, or a 0-d total from one instance's; a free query's
    owner is G and adds 0."""
    entities = cost.shape[-1]
    column = np.minimum(owner, entities - 1).ravel()
    picked = cost.reshape(-1, entities)[np.arange(owner.size), column].reshape(owner.shape)
    return np.where(owner < entities, picked, 0.0).sum(axis=-1)


def _fold_owners(cost: np.ndarray, owner: np.ndarray) -> AssignmentResult:
    """One instance's result from its (M, G) costs and (M,) owners, G where free."""
    extended = (owner[:, None] == np.arange(cost.shape[1] + 1)).astype(np.int64)
    return AssignmentResult(matrix=extended[:, :-1], extended=extended, labels=owner,
                            total_cost=float(_total_costs(cost, owner)))


def solve_one_to_many_lap(cost: np.ndarray, quantities: QuantityVector):
    """Optimal assignment giving entity k exactly q_k distinct queries.

    With one instance's (M, G) costs and (G,) quantities, returns its
    ``AssignmentResult``. With a stack, (K, M, G_max) costs and (K, G_max)
    quantities, solves the K instances in lockstep and returns their (K, M)
    owners, G_max where a query is free, and their (K,) total costs; costs
    at padded entities are ignored.
    """
    cost = np.asarray(cost, dtype=np.float64)
    counts = quantities.counts
    if (cost.ndim != counts.ndim + 1 or cost.shape[:-2] != counts.shape[:-1]
            or cost.shape[-1] != counts.shape[-1]):
        raise ValueError(f"quantities of shape {counts.shape} for costs of shape {cost.shape}")
    queries = cost.shape[-2]
    needed = counts.sum(axis=-1).max()
    if needed > queries:
        raise InfeasibleError(f"total assignable quantity {needed} exceeds {queries} queries")
    if counts.ndim == 1:
        return _fold_owners(cost, _lockstep_min_cost_flow(cost[None], counts[None])[0])
    owner = _lockstep_min_cost_flow(cost, counts)
    return owner, _total_costs(cost, owner)


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
    owner = np.full(queries, entities)
    owner[rows[np.argmin(totals)]] = entity_of_column
    return _fold_owners(cost, owner)
