import numpy as np
import pytest

from archcredit import RngStream


def test_same_seed_same_draws():
    a = RngStream(42).uniform(size=100)
    b = RngStream(42).uniform(size=100)
    np.testing.assert_array_equal(a, b)


def test_substreams_are_deterministic_and_distinct():
    root = RngStream(7)
    s3 = root.substream(3).uniform(size=50)
    s4 = root.substream(4).uniform(size=50)
    again = RngStream(7).substream(3).uniform(size=50)
    np.testing.assert_array_equal(s3, again)
    assert not np.array_equal(s3, s4)


def test_substream_independent_of_parent_consumption():
    root = RngStream(11)
    root.uniform(size=1000)
    a = root.substream(2).standard_exponential(size=20)
    b = RngStream(11).substream(2).standard_exponential(size=20)
    np.testing.assert_array_equal(a, b)


def test_nested_keys():
    a = RngStream(5).substream(1).substream(2)
    b = RngStream(5, key=(1, 2))
    np.testing.assert_array_equal(a.uniform(size=10), b.uniform(size=10))
    assert a.key == (1, 2)


def test_negative_seed_rejected():
    with pytest.raises(ValueError):
        RngStream(-1)


@pytest.mark.parametrize("seed,key", [(1.7, ()), (True, ()), (1.0, ()), (1, (2.5,)),
                                      (1, (False,)), (1, (-1,))])
def test_non_integral_seed_or_key_rejected(seed, key):
    # int() would draw 1.7, True and 1.0 as seed 1
    with pytest.raises(ValueError, match="integer"):
        RngStream(seed, key)


def test_numpy_integer_seed_and_key_accepted():
    a = RngStream(np.int64(3), key=(np.uint32(1),))
    assert (a.seed, a.key) == (3, (1,)) and type(a.seed) is int and type(a.key[0]) is int
    np.testing.assert_array_equal(a.uniform(size=5), RngStream(3, (1,)).uniform(size=5))


def test_binomial_range():
    rng = RngStream(1)
    draws = [rng.binomial(10, 0.3) for _ in range(200)]
    assert all(0 <= d <= 10 for d in draws)
