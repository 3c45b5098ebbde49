from benchlib.stats import TAIL_BEYOND, median, tail, union_length


def test_tail_leaves_exactly_ten_samples_beyond():
    values = list(range(1, 101))
    value, percentile, n = tail(values)
    assert n == 100
    assert value == 90
    assert percentile == 90.0
    assert sum(1 for v in values if v > value) == TAIL_BEYOND


def test_tail_of_a_thousand_is_p99():
    value, percentile, n = tail([float(v) for v in range(1000, 0, -1)])
    assert (value, percentile, n) == (990.0, 99.0, 1000)


def test_tail_needs_more_than_ten_samples():
    assert tail(list(range(10))) == (None, None, 10)
    value, percentile, n = tail(list(range(11)))
    assert value == 0 and n == 11
    assert abs(percentile - 100.0 / 11) < 1e-12


def test_tail_ignores_input_order():
    assert tail([5, 1, 4, 2, 3] * 5) == tail(sorted([5, 1, 4, 2, 3] * 5))


def test_median():
    assert median([]) == 0.0
    assert median([3, 1, 2]) == 2


def test_union_length_merges_overlaps():
    assert union_length([(0, 2), (1, 3), (5, 6)]) == 4
    assert union_length([(0, 10), (2, 3)]) == 10
    assert union_length([]) == 0.0
