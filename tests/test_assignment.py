import numpy as np
import pytest

from iqner.assignment import (
    AnnotationError,
    CapacityError,
    InfeasibleError,
    QuantityVector,
    allocate_quantities,
    brute_force_lap,
    labels_from_assignment,
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
    q = allocate_quantities(3, 60, 0.75, rng=0)
    assert q.total == 45
    assert np.array_equal(q.counts, [15, 15, 15])


def test_allocate_entities_exceed_total():
    q = allocate_quantities(50, 60, 0.75, rng=0)
    assert q.total == 50
    assert np.all(q.counts == 1)


def test_allocate_remainder_respects_floor():
    seen = set()
    for seed in range(40):
        q = allocate_quantities(2, 6, 5 / 6, rng=seed)  # Q = 5 over G = 2
        assert q.total == 5
        assert np.all(q.counts >= 2)
        seen.add(tuple(q.counts))
    assert seen == {(3, 2), (2, 3)}


def test_allocate_overflow_flagged_when_entities_exceed_queries():
    q = allocate_quantities(7, 4, 0.75, rng=1)
    assert q.total == 7
    assert np.all(q.counts == 1)


def test_allocate_validates_ratio():
    with pytest.raises(ValueError):
        allocate_quantities(2, 10, 0.0)
    with pytest.raises(ValueError):
        allocate_quantities(2, 10, 1.5)


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


def test_labels_from_assignment():
    gold = [EntityAnnotation(0, 1, 0), EntityAnnotation(2, 3, 1)]
    cost = np.array([[-0.9, -0.1], [-0.5, -0.6], [-0.2, -0.8]])
    result = solve_one_to_many_lap(cost, QuantityVector(np.array([1, 1])))
    labels = labels_from_assignment(result, gold)
    assert labels == [gold[0], None, gold[1]]


def test_all_none_labels_for_zero_matrix():
    result = solve_one_to_many_lap(np.array([[-1.0], [-0.5]]), QuantityVector(np.array([1])))
    synthetic = result
    synthetic.labels = np.array([1, 1])
    labels = labels_from_assignment(synthetic, [EntityAnnotation(0, 0, 0)])
    assert labels == [None, None]


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
