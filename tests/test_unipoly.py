"""Dense one-variable integer polynomials: products against schoolbook
multiplication, and sums that refuse foreign operands."""

import random

import pytest

from invkostka.unipoly import UniPolynomial


def _schoolbook(a: list[int], b: list[int]) -> list[int]:
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    while out and out[-1] == 0:
        out.pop()
    return out


def test_product_matches_schoolbook_multiplication():
    rng = random.Random(2003)
    for _ in range(300):

        def draw():
            # mostly zeros, small and negative values, some multi-hundred-bit ones
            return [
                rng.choice((0, 0, 0, rng.randint(-9, 9), rng.randint(-2**300, 2**300)))
                for _ in range(rng.randint(0, 12))
            ]

        a, b = draw(), draw()
        assert (UniPolynomial(a) * UniPolynomial(b)).coeffs == tuple(_schoolbook(a, b)), (a, b)


def test_product_edge_cases():
    gappy = UniPolynomial([1, 0, 0, -1])
    assert (gappy * gappy).coeffs == (1, 0, 0, -2, 0, 0, 1)
    assert (gappy * UniPolynomial([0, 0, 5])).coeffs == (0, 0, 5, 0, 0, -5)
    big = UniPolynomial([-(2**200), 0, 3**150])
    assert (big * UniPolynomial([0, -1])).coeffs == (0, 2**200, 0, -(3**150))
    assert (big * big).coeffs == (2**400, 0, -2 * 2**200 * 3**150, 0, 3**300)
    zero = UniPolynomial()
    assert (zero * big) == zero and (big * zero) == zero and (zero * zero) == zero
    assert (big * 0) == zero and (-1 * big) == -big


def test_sums_refuse_foreign_operands():
    one = UniPolynomial([1])
    with pytest.raises(TypeError):
        one + 1
    with pytest.raises(TypeError):
        1 + one
    with pytest.raises(TypeError):
        one - 1
