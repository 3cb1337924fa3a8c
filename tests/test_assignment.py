import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iqner.assignment import (
    AnnotationError,
    CapacityError,
    InfeasibleError,
    QuantityVector,
    allocate_quantities,
    brute_force_lap,
    solve_one_to_many_lap,
    compute_cost_matrix,
)
from iqner.data import EntityAnnotation


def check_constraints(result, quantities):
    assert np.all(result.matrix.sum(axis=1) <= 1)
    assert np.array_equal(result.matrix.sum(axis=0), quantities.counts)
    assert np.all(result.extended.sum(axis=1) == 1)
    entities = result.matrix.shape[1]
    for i, label in enumerate(result.labels):
        assert (label == entities) == (result.matrix[i].sum() == 0)


def test_quantity_vector_rejects_nonpositive():
    with pytest.raises(ValueError):
        QuantityVector(counts=np.array([1, 0]))


def test_allocate_balanced_division():
    q = allocate_quantities(3, 60, 0.75, np.random.default_rng(0))
    assert q.total == 45
    assert np.array_equal(q.counts, [15, 15, 15])


def test_allocate_entities_exceed_total():
    q = allocate_quantities(50, 60, 0.75, np.random.default_rng(0))
    assert q.total == 50
    assert np.all(q.counts == 1)


def test_allocate_remainder_respects_floor():
    seen = set()
    for seed in range(40):
        q = allocate_quantities(2, 6, 5 / 6, np.random.default_rng(seed))  # Q = 5 over G = 2
        assert q.total == 5
        assert np.all(q.counts >= 2)
        seen.add(tuple(q.counts))
    assert seen == {(3, 2), (2, 3)}


def test_allocate_overflow_flagged_when_entities_exceed_queries():
    q = allocate_quantities(7, 4, 0.75, np.random.default_rng(1))
    assert q.total == 7
    assert np.all(q.counts == 1)


def test_allocate_validates_ratio():
    with pytest.raises(ValueError):
        allocate_quantities(2, 10, 0.0, np.random.default_rng(0))
    with pytest.raises(ValueError):
        allocate_quantities(2, 10, 1.5, np.random.default_rng(0))


def test_solver_one_to_one_fixture():
    cost = np.array([[-0.9, -0.1], [-0.5, -0.6], [-0.2, -0.8]])
    result = solve_one_to_many_lap(cost, QuantityVector(np.array([1, 1])))
    assert result.total_cost == pytest.approx(-1.7, abs=1e-12)
    assert result.matrix[0, 0] == 1 and result.matrix[2, 1] == 1
    assert np.array_equal(result.labels, [0, 2, 1])
    check_constraints(result, QuantityVector(np.array([1, 1])))


def test_solver_one_to_many_fixture():
    cost = np.array([[-0.9], [-0.5], [-0.2]])
    q = QuantityVector(np.array([2]))
    result = solve_one_to_many_lap(cost, q)
    assert result.total_cost == pytest.approx(-1.4, abs=1e-12)
    assert np.array_equal(result.labels, [0, 0, 1])
    check_constraints(result, q)


def test_solver_forced_single_assignment():
    result = solve_one_to_many_lap(np.array([[-0.4]]), QuantityVector(np.array([1])))
    assert np.array_equal(result.labels, [0])
    assert result.total_cost == pytest.approx(-0.4)


def test_solver_rejects_infeasible():
    with pytest.raises(InfeasibleError):
        solve_one_to_many_lap(np.zeros((2, 2)), QuantityVector(np.array([2, 1])))


def test_brute_force_matches_fixtures():
    cost1 = np.array([[-0.9, -0.1], [-0.5, -0.6], [-0.2, -0.8]])
    bf = brute_force_lap(cost1, QuantityVector(np.array([1, 1])))
    assert bf.total_cost == pytest.approx(-1.7, abs=1e-12)
    cost2 = np.array([[-0.9], [-0.5], [-0.2]])
    bf2 = brute_force_lap(cost2, QuantityVector(np.array([2])))
    assert bf2.total_cost == pytest.approx(-1.4, abs=1e-12)


def test_brute_force_capacity_bound():
    with pytest.raises(CapacityError):
        brute_force_lap(np.zeros((9, 2)), QuantityVector(np.array([1, 1])))


def test_full_assignment_rows_all_matched():
    rng = np.random.default_rng(3)
    cost = rng.uniform(-3, 0, size=(4, 2))
    result = solve_one_to_many_lap(cost, QuantityVector(np.array([2, 2])))
    assert np.all(result.matrix.sum(axis=1) == 1)


def test_solver_matches_brute_force_on_random_instances():
    rng = np.random.default_rng(1234)
    for _ in range(200):
        queries = int(rng.integers(2, 9))
        entities = int(rng.integers(1, 4))
        counts = rng.integers(1, 4, size=entities)
        while counts.sum() > queries:
            counts[rng.integers(entities)] = max(1, counts[rng.integers(entities)] - 1)
            if np.all(counts == 1) and counts.sum() > queries:
                entities = queries
                counts = np.ones(entities, dtype=np.int64)
        q = QuantityVector(np.asarray(counts, dtype=np.int64))
        cost = rng.uniform(-3.0, 0.0, size=(queries, entities))
        fast = solve_one_to_many_lap(cost, q)
        slow = brute_force_lap(cost, q)
        assert abs(fast.total_cost - slow.total_cost) < 1e-12
        check_constraints(fast, q)
        check_constraints(slow, q)


def test_scale_invariance_of_argmin():
    rng = np.random.default_rng(9)
    cost = rng.uniform(-3, 0, size=(5, 2))
    q = QuantityVector(np.array([2, 1]))
    base = solve_one_to_many_lap(cost, q)
    scaled = solve_one_to_many_lap(cost * 7.5, q)
    assert scaled.total_cost == pytest.approx(7.5 * base.total_cost, rel=1e-12)
    assert np.array_equal(base.matrix, scaled.matrix)


def _batch_outputs(left, right, probs):
    """One layer's head outputs for a batch, from (B, M, N) and (B, M, C) arrays."""
    from iqner.heads import BoundaryScores, TypeDistribution
    from iqner.tensor import Tensor

    left, right, probs = (np.asarray(a, dtype=np.float64) for a in (left, right, probs))
    return (BoundaryScores(Tensor(left), Tensor(right), Tensor(left), Tensor(right)),
            TypeDistribution(Tensor(probs), probs))


def test_targets_index_each_gold_row_or_the_none_row():
    from iqner.training import TrainConfig, assign_labels

    # sentence 0's costs are [[-0.9, -0.1], [-0.5, -0.6], [-0.2, -0.8]], by type alone;
    # sentence 1 has no gold, so each of its queries is free
    probs = np.array([[[0.9, 0.1, 0.0], [0.5, 0.6, 0.0], [0.2, 0.8, 0.0]]] * 2)
    outs = [_batch_outputs(np.zeros((2, 3, 4)), np.zeros((2, 3, 4)), probs)]
    gold = np.array([(0, 1, 0), (2, 3, 1)])
    result = solve_one_to_many_lap(-probs[0, :, :2], QuantityVector(np.array([1, 1])))
    assert np.array_equal(result.labels, [0, 2, 1])  # query 1 is free: its owner is G
    config = TrainConfig(quantity_mode="one_to_one")
    targets, matched = assign_labels(outs, [gold, gold[:0]], config, np.random.default_rng(0))
    none = (-1, -1, 2)
    assert targets.dtype == np.int64 and targets.shape == (1, 2, 3, 3)
    assert np.array_equal(targets[0, 0], [gold[0], none, gold[1]])
    assert np.array_equal(targets[0, 1], [none] * 3)
    assert matched == [[result.total_cost], [None]]


class _Stub:
    def __init__(self, arr):
        self.data = np.asarray(arr, dtype=np.float64)


class _StubScores:
    def __init__(self, left, right):
        self.left = _Stub(left)
        self.right = _Stub(right)


class _StubTypes:
    def __init__(self, probs):
        self.probs = np.asarray(probs, dtype=np.float64)


def test_cost_matrix_formula():
    scores = _StubScores([[0.2, 1.0]], [[0.3, 1.0]])
    types = _StubTypes([[0.5, 0.2, 0.3]])
    gold = [EntityAnnotation(0, 0, 0)]
    cost = compute_cost_matrix(scores, types, gold)
    assert cost.shape == (1, 1)
    assert cost[0, 0] == pytest.approx(-(0.5 + 0.2 + 0.3))


def test_cost_gather_over_a_batch_equals_each_sentence_alone():
    rng = np.random.default_rng(3)
    batch, queries, words, classes = 3, 5, 6, 4
    left, right = rng.random((2, batch, queries, words))
    probs = rng.random((batch, queries, classes))
    golds = [[EntityAnnotation(l, l + int(rng.integers(words - l)), int(rng.integers(classes - 1)))
              for l in rng.integers(words, size=4).tolist()] for _ in range(batch)]
    stack = np.array([[(e.left, e.right, e.type_id) for e in gold] for gold in golds])
    cost = compute_cost_matrix(_StubScores(left, right), _StubTypes(probs), stack)
    assert cost.shape == (batch, queries, 4)
    for b, gold in enumerate(golds):
        alone = compute_cost_matrix(_StubScores(left[b], right[b]), _StubTypes(probs[b]), gold)
        assert np.array_equal(cost[b], alone)


def test_cost_matrix_extremum_and_shape():
    queries, entities = 60, 4
    scores = _StubScores(np.ones((queries, 8)), np.ones((queries, 8)))
    types = _StubTypes(np.ones((queries, 5)))
    gold = [EntityAnnotation(k, k + 1, k % 4) for k in range(entities)]
    cost = compute_cost_matrix(scores, types, gold)
    assert cost.shape == (queries, entities)
    assert np.all(cost == -3.0)


def test_cost_matrix_rejects_out_of_range_gold():
    scores = _StubScores(np.ones((2, 3)), np.ones((2, 3)))
    types = _StubTypes(np.ones((2, 3)))
    with pytest.raises(AnnotationError):
        compute_cost_matrix(scores, types, [EntityAnnotation(0, 5, 0)])
    with pytest.raises(AnnotationError):
        compute_cost_matrix(scores, types, [EntityAnnotation(0, 1, 2)])


def test_solver_matches_scipy_at_realistic_sizes():
    scipy_optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(60)
    instances = 0
    for queries in (12, 60):
        for entities in range(1, 9):
            for _ in range(20):
                q = allocate_quantities(entities, queries, 0.75, rng)
                cost = -rng.random((3, queries, entities)).sum(axis=0)
                result = solve_one_to_many_lap(cost, q)
                replicated = cost[:, np.repeat(np.arange(entities), q.counts)]
                rows, cols = scipy_optimize.linear_sum_assignment(replicated)
                assert abs(result.total_cost - replicated[rows, cols].sum()) < 1e-12
                check_constraints(result, q)
                instances += 1
    assert instances >= 300


def test_solver_all_equal_costs_fill_entities_in_index_order():
    q = QuantityVector(np.array([2, 1, 1]))
    result = solve_one_to_many_lap(np.full((6, 3), -1.5), q)
    assert np.array_equal(result.labels, [0, 0, 1, 2, 3, 3])
    assert result.total_cost == -6.0
    check_constraints(result, q)


def test_solver_duplicated_rows_tie_rule():
    cost = np.repeat([[-1.0, -2.0]], 5, axis=0)
    q = QuantityVector(np.array([1, 2]))
    first = solve_one_to_many_lap(cost, q)
    assert np.array_equal(first.labels, [1, 1, 0, 2, 2])
    assert first.total_cost == -5.0
    assert np.array_equal(solve_one_to_many_lap(cost, q).labels, first.labels)
    check_constraints(first, q)


def test_solver_single_entity_takes_cheapest_queries_lowest_index_first():
    tied = np.array([[-0.5], [-0.9], [-0.5], [-0.9], [-0.5]])
    result = solve_one_to_many_lap(tied, QuantityVector(np.array([3])))
    assert np.array_equal(result.labels, [0, 0, 1, 0, 1])
    rng = np.random.default_rng(5)
    cost = -rng.integers(0, 4, size=(60, 1)).astype(float)
    result = solve_one_to_many_lap(cost, QuantityVector(np.array([45])))
    expected = np.ones(60, dtype=np.int64)
    expected[np.argsort(cost[:, 0], kind="stable")[:45]] = 0
    assert np.array_equal(result.labels, expected)


def _serial_owners(cost, counts):
    """The successive-shortest-path flow one instance at a time, in plain
    Python: the reference for the lockstep solver's owners, ties included."""
    queries, entities = cost.shape
    source = entities
    owner = np.full(queries, source)
    potential = [0.0] * entities
    spare = list(counts)
    for _ in range(sum(spare)):
        # moves[a][b]: the cheapest move to b of a query that a holds, and that query
        at_owner = cost[np.arange(queries), np.minimum(owner, entities - 1)]
        own_cost = np.where(owner < entities, at_owner, 0.0)
        moves = []
        for a in range(entities + 1):
            change = np.where((owner == a)[:, None], cost - own_cost[:, None], np.inf)
            moves.append([(float(change[:, b].min()), int(change[:, b].argmin()))
                          for b in range(entities)])
        dist = [moves[source][b][0] - potential[b] for b in range(entities)]
        pred = [source] * entities
        unsettled = list(range(entities))
        while unsettled:
            a = min(unsettled, key=dist.__getitem__)
            unsettled.remove(a)
            for b in unsettled:
                d = dist[a] + potential[a] + moves[a][b][0] - potential[b]
                if d < dist[b]:
                    dist[b], pred[b] = d, a
        b = min((b for b in range(entities) if spare[b]), key=lambda b: dist[b] + potential[b])
        spare[b] -= 1
        potential = [p + d for p, d in zip(potential, dist)]
        path = []
        while b != source:
            path.append((moves[pred[b]][b][1], b))
            b = pred[b]
        for j, b in path:
            owner[j] = b
    return owner


@st.composite
def lockstep_instances(draw):
    """K instances sharing M, each with its own G in 1..8 and its own costs:
    random, all equal, duplicated rows, or few distinct values (many ties)."""
    queries = draw(st.sampled_from([12, 60]))
    instances = []
    for _ in range(draw(st.integers(1, 6))):
        entities = draw(st.integers(1, 8))
        seed = draw(st.integers(0, 2**16))
        kind = draw(st.sampled_from(["random", "equal", "duplicated", "ties"]))
        rng = np.random.default_rng(seed)
        if kind == "random":
            cost = -rng.random((3, queries, entities)).sum(axis=0)
        elif kind == "equal":
            cost = np.full((queries, entities), -1.5)
        elif kind == "duplicated":
            cost = np.repeat(-rng.random((1, entities)), queries, axis=0)
        else:
            cost = -rng.integers(0, 3, size=(queries, entities)).astype(float)
        if draw(st.booleans()):
            q = QuantityVector(np.ones(entities, dtype=np.int64))
        else:
            q = allocate_quantities(entities, queries, draw(st.sampled_from([0.75, 1.0])), rng)
        instances.append((cost, q))
    return queries, instances


@settings(max_examples=40, deadline=None)
@given(lockstep_instances())
def test_lockstep_solve_matches_each_instance_alone(case):
    queries, instances = case
    width = max(len(q) for _, q in instances)
    cost = np.full((len(instances), queries, width), 7.0)  # padded entries are ignored
    counts = np.zeros((len(instances), width), dtype=np.int64)
    for k, (c, q) in enumerate(instances):
        cost[k, :, :len(q)] = c
        counts[k, :len(q)] = q.counts
    stacked = QuantityVector(counts)
    assert stacked.total == sum(q.total for _, q in instances)
    owners, totals = solve_one_to_many_lap(cost, stacked)
    assert owners.shape == (len(instances), queries) and totals.shape == (len(instances),)
    for (c, q), owner, total in zip(instances, owners, totals):
        alone = solve_one_to_many_lap(c, q)
        free = alone.labels == len(q)  # the stack marks a free query with its own width
        assert np.array_equal(owner, np.where(free, width, alone.labels))
        assert np.array_equal(alone.matrix, alone.extended[:, :-1])
        assert np.array_equal(alone.extended, np.eye(len(q) + 1, dtype=np.int64)[alone.labels])
        assert total == alone.total_cost
        check_constraints(alone, q)
        assert np.array_equal(alone.labels, _serial_owners(c, q.counts.tolist()))


def test_lockstep_single_entity_and_one_query_instances():
    cost = np.zeros((3, 4, 2))
    cost[0, :, 0] = [-0.5, -0.9, -0.5, -0.9]
    cost[1] = [[-1.0, -2.0]] * 4
    cost[2, :, 0] = [-0.1, -0.2, -0.3, -0.4]
    stacked = QuantityVector(np.array([[3, 0], [1, 2], [1, 0]]))
    (first, second, third), totals = solve_one_to_many_lap(cost, stacked)
    assert np.array_equal(first, [0, 0, 2, 0])
    assert np.array_equal(second, [1, 1, 0, 2])
    assert np.array_equal(third, [2, 2, 2, 0])
    assert totals[2] == -0.4
    alone = solve_one_to_many_lap(cost[0, :, :1], QuantityVector(np.array([3])))
    assert np.array_equal(alone.labels, [0, 0, 1, 0])
    assert alone.matrix.shape == (4, 1) and alone.extended.shape == (4, 2)
    assert alone.total_cost == totals[0]


def test_stacked_totals_are_the_owners_picked_costs():
    """Each stacked total sums its instance's costs at its owners' entities. A
    free query adds nothing, and a padded entity's cost, here NaN or -inf,
    never enters an owner or a total."""
    rng = np.random.default_rng(5)
    counts = np.array([[3, 3, 3, 0], [2, 2, 2, 2], [4, 0, 0, 0], [1, 1, 0, 0]])
    cost = np.where(counts[:, None, :] > 0, -rng.random((4, 12, 4)), np.nan)
    cost[2, ::2, 1:] = -np.inf
    with np.errstate(all="raise"):
        owners, totals = solve_one_to_many_lap(cost, QuantityVector(counts))
    for c, owner, total, q in zip(cost, owners, totals, counts):
        held = owner < 4
        assert np.array_equal(np.bincount(owner[held], minlength=4), q)
        assert total == pytest.approx(c[held, owner[held]].sum(), rel=1e-12, abs=0)
        entities = int((q > 0).sum())
        alone = solve_one_to_many_lap(c[:, :entities], QuantityVector(q[:entities]))
        assert total == alone.total_cost


def test_stacked_quantities_are_checked():
    for counts in ([[1, 0], [0, 1]], [[1, 0, 1]], [[2, -1]], np.zeros((0, 2)), [[[1]]]):
        with pytest.raises(ValueError):
            QuantityVector(np.array(counts))
    with pytest.raises(InfeasibleError):
        solve_one_to_many_lap(np.zeros((2, 3, 2)), QuantityVector(np.array([[1, 1], [3, 1]])))
    with pytest.raises(ValueError, match="shape"):
        solve_one_to_many_lap(np.zeros((2, 3, 2)), QuantityVector(np.array([[1, 1]])))


def test_batch_assignment_draws_the_per_sentence_random_stream():
    from iqner.training import TrainConfig, assign_labels

    rng = np.random.default_rng(11)
    queries, depth, n = 12, 3, 6
    sizes = (3, 0, 5, 1, 2)
    arrays = []
    for _ in range(depth):
        raw = rng.random((len(sizes), queries, 4))
        arrays.append((rng.random((len(sizes), queries, n)), rng.random((len(sizes), queries, n)),
                       raw / raw.sum(axis=-1, keepdims=True)))
    outs = [_batch_outputs(*layer) for layer in arrays]
    golds = [np.array([(k, min(k + 1, n - 1), k % 3) for k in range(g)]).reshape(-1, 3)
             for g in sizes]
    for ratio in (0.75, 0.5):  # 9 and 6 queries over G entities: remainders are drawn
        for share in (False, True):
            config = TrainConfig(ratio=ratio, share_final_assignment=share)
            batch_rng, alone_rng = np.random.default_rng(4), np.random.default_rng(4)
            targets, matched = assign_labels(outs, golds, config, batch_rng)
            for b, gold in enumerate(golds):
                alone, alone_matched = assign_labels(
                    [_batch_outputs(*(a[b:b + 1] for a in layer)) for layer in arrays], [gold],
                    config, alone_rng)
                assert np.array_equal(targets[:, b:b + 1], alone)
                assert matched[b] == alone_matched[0]
            assert batch_rng.integers(1 << 30) == alone_rng.integers(1 << 30)
            assert matched[1] == [None] * depth
            assert all(cost < 0 for costs in matched if costs[-1] is not None
                       for cost in costs if cost is not None)
