from shicone.poly import IntPolynomial, T


def test_trailing_zeros_stripped():
    assert IntPolynomial([1, 2, 0, 0]) == IntPolynomial([1, 2])
    assert IntPolynomial([0]) == IntPolynomial()
    assert IntPolynomial().degree == -1


def test_from_sizes():
    assert IntPolynomial.from_sizes([0, 1, 1, 1, 1, 2]) == IntPolynomial([1, 4, 1])
    assert IntPolynomial.from_sizes([]) == IntPolynomial()


def test_arithmetic_and_eval():
    p = IntPolynomial([1, 4, 1])
    q = IntPolynomial([1, 2])
    assert p + q == IntPolynomial([2, 6, 1])
    assert sum([p, q], IntPolynomial()) == p + q
    assert (T * q) == IntPolynomial([0, 1, 2])
    assert p(1) == 6 and p(2) == 13
    assert (p * 0) == IntPolynomial()


def test_str():
    assert str(IntPolynomial([1, 4, 1])) == "1 + 4t + t^2"
    assert str(IntPolynomial([8, 16, 1])) == "8 + 16t + t^2"
    assert str(IntPolynomial()) == "0"
    assert str(IntPolynomial([0, 0, 3])) == "3t^2"


def test_coefficient_and_eq_int():
    p = IntPolynomial([5])
    assert p == 5
    assert IntPolynomial() == 0
    assert p.coefficient(0) == 5 and p.coefficient(3) == 0


def test_constant_hashes_as_its_integer():
    # equal objects hash equal: a constant polynomial equals its integer
    for value in (5, -3, 0):
        p = IntPolynomial([value])
        assert p == value and hash(p) == hash(value)
        assert len({p, value}) == 1
    assert hash(IntPolynomial()) == hash(0)
    assert {IntPolynomial([1, 2]): "a"}[IntPolynomial([1, 2])] == "a"
