"""Steenrod coefficient rows, the Wu-style binomial conventions, and the
integral lift through products of elementary symmetric functions, and
powers of e_1 against their multinomial coefficients.  The sweep of squares
against the Wu-style sums is acceptance criterion 8."""

from itertools import combinations
from math import factorial, prod

import pytest

from invkostka.steenrod import (
    _PRIME_BOUND,
    EPolynomial,
    ModPExpansion,
    _check_km,
    _is_prime,
    _wu_binom,
    epoly_to_polynomial,
    epoly_to_schur,
    expansion_mod,
    giambelli_hook2,
    integral_wu_lift,
    steenrod_P,
    steenrod_Sq,
)
from invkostka.inverse import monomial_to_schur
from invkostka.partitions import Partition
from invkostka.symfunc import SchurExpansion, SparsePolynomial, elementary_symmetric, schur

P = Partition


def test_odd_prime_row_example():
    row = steenrod_P(1, 1, 3)
    assert row.items() == [
        (P([3]), 1),
        (P([1, 2]), 2),
        (P([1, 1, 1]), 1),
    ]


def test_zeroth_operations_are_identity_rows():
    assert steenrod_P(0, 3, 3) == ModPExpansion(3, {P([1, 1, 1]): 1})
    assert steenrod_Sq(0, 4) == ModPExpansion(2, {P([1, 1, 1, 1]): 1})


def test_prime_validation():
    with pytest.raises(ValueError):
        steenrod_P(1, 2, 2)  # P wants an odd prime
    with pytest.raises(ValueError):
        steenrod_P(1, 2, 4)
    with pytest.raises(ValueError):
        steenrod_P(1, 2, 1)
    for composite in (9, 15, 25, 49, 1_000_001):  # odd; 1_000_001 = 101 * 9901
        with pytest.raises(ValueError):
            steenrod_P(1, 2, composite)
    for prime in (1_000_003, 10**18 + 3):
        assert steenrod_P(0, 1, prime) == ModPExpansion(prime, {P([1]): 1})


def _trial_division(p: int) -> bool:
    return p >= 2 and all(p % f for f in range(2, int(p**0.5) + 1))


def test_prime_test_agrees_with_trial_division():
    assert [p for p in range(-3, 20_000) if _is_prime(p)] == [
        p for p in range(-3, 20_000) if _trial_division(p)
    ]


def test_prime_test_decides_large_p_at_once():
    # 561 and 41041 are Carmichael numbers; 825265, 3215031751 and
    # 318665857834031151167461 are strong pseudoprimes to the first 3, 4
    # and 12 prime bases
    for composite in (561, 41041, 825265, 3215031751, 318665857834031151167461):
        assert not _is_prime(composite), composite
    for prime in (10**18 + 3, 2**61 - 1, 10**16 + 61):
        assert _is_prime(prime), prime
    # past the bound the bases decide nothing, so p is refused
    assert not _is_prime(_PRIME_BOUND - 1)
    for p in (_PRIME_BOUND, _PRIME_BOUND + 2, 10**40):
        with pytest.raises(ValueError):
            _is_prime(p)


def test_degree_bounds():
    for bad in [(1, 0), (3, 2), (-1, 2)]:
        with pytest.raises(ValueError):
            _check_km(*bad)
        with pytest.raises(ValueError):
            steenrod_Sq(*bad)


def test_square_small_rows():
    assert steenrod_Sq(1, 2) == ModPExpansion(2, {P([1, 2]): 1})
    assert steenrod_Sq(2, 2).items() == [
        (P([2, 2]), 1),
        (P([1, 1, 2]), 1),
        (P([1, 1, 1, 1]), 1),
    ]


def test_square_support_structure():
    for m in range(1, 8):
        for k in range(0, m + 1):
            for mu, c in steenrod_Sq(k, m).items():
                assert c in (0, 1)
                assert max(mu) <= 2
                assert m <= mu.length <= m + k


def test_odd_prime_support_structure():
    for m in range(1, 6):
        for k in range(0, m + 1):
            for mu, _ in steenrod_P(k, m, 3).items():
                assert max(mu) <= 3
                assert mu.length >= m


def test_wu_binomial_conventions():
    assert _wu_binom(-1, 0) == 1
    assert _wu_binom(0, 0) == 1
    assert _wu_binom(-1, 1) == 0
    assert _wu_binom(3, -1) == 0
    assert _wu_binom(4, 2) == 6


def test_epolynomial_normalization():
    assert EPolynomial({(2, -1): 5}) == EPolynomial()
    assert EPolynomial({(0, 3): 2}) == EPolynomial({(3,): 2})
    assert EPolynomial({(1,): 0}) == EPolynomial()
    assert EPolynomial({(2, 1): 1}).items() == [((1, 2), 1)]
    p = EPolynomial({(1, 2): 1, (3,): -3})
    assert p.pretty() == "e1*e2 - 3*e3"
    assert (p + p * -1) == EPolynomial()


def test_epolynomial_get_normalizes_like_the_constructor():
    p = EPolynomial({(0, 3): 2, (2, 1): 5})
    assert p.get((0, 3)) == p.get((3,)) == p.get((3, 0, 0)) == 2
    assert p.get((1, 2)) == p.get((2, 1)) == p.get((2, 0, 1)) == 5
    assert p.get((3, -1)) == 0
    assert EPolynomial({(0,): 4}).get(()) == EPolynomial({(0,): 4}).get((0, 0)) == 4
    assert p.get((0, -2, 3)) == p.get((-1,)) == 0


def test_epolynomial_and_schur_expansion_do_not_mix():
    ep = EPolynomial({(1,): 1})
    ex = SchurExpansion({P([1]): 1})
    with pytest.raises(TypeError):
        ep + ex
    with pytest.raises(TypeError):
        ex + ep
    assert ep != ex and ex != ep
    assert epoly_to_schur(ep) == ex


def test_two_column_determinant_matches_schur():
    """e_k e_m - e_(k-1) e_(m+1) expands the two-column shape with k twos."""
    for m in range(1, 6):
        for k in range(0, m + 1):
            shape = P([1] * (m - k) + [2] * k)
            for n in (m + k, m + k + 1):
                got = epoly_to_polynomial(giambelli_hook2(m, k), n)
                assert got == schur(shape, n), (m, k, n)
    with pytest.raises(ValueError):
        giambelli_hook2(2, 3)


def test_integral_lift_example():
    assert integral_wu_lift(1, 2) == EPolynomial({(1, 2): 1, (3,): -3})


def test_integral_lift_is_the_monomial_function():
    """Over the integers the lift equals the monomial symmetric function of
    the operation's indexing shape; reducing mod 2 recovers the square."""
    from invkostka.symfunc import monomial_symmetric

    for m in range(1, 6):
        for k in range(0, m + 1):
            lift = integral_wu_lift(k, m)
            n = m + k
            shape = P([1] * (m - k) + [2] * k)
            assert epoly_to_polynomial(lift, n) == monomial_symmetric(shape, n)
            assert expansion_mod(epoly_to_schur(lift), 2) == steenrod_Sq(k, m)


def test_schur_row_of_lift_matches_inverse_rows():
    lift = integral_wu_lift(1, 2)
    assert epoly_to_schur(lift) == monomial_to_schur(P([1, 2]))


def test_epoly_to_polynomial_needs_a_variable():
    # n = 0 keeps only the constant term: every e_i with i >= 1 vanishes
    ep = EPolynomial({(): 7, (1,): 1, (1, 2): -3})
    assert epoly_to_polynomial(ep, 0) == SparsePolynomial(0, {(): 7})
    assert epoly_to_polynomial(EPolynomial({(1,): 1}), 0) == SparsePolynomial(0)
    with pytest.raises(ValueError):
        epoly_to_polynomial(ep, -1)


@pytest.mark.parametrize("k, n", [(8, 9), (300, 2)])
def test_e1_power_has_multinomial_coefficients(k, n):
    # x^a in e_1^k has coefficient k!/prod a_i!; at n = 2 the exponents pass
    # 255 partway through the chain of products, so the packed digits widen
    want = {}
    for bars in combinations(range(k + n - 1), n - 1):  # stars and bars
        edges = (-1, *bars, k + n - 1)
        a = tuple(hi - lo - 1 for lo, hi in zip(edges, edges[1:]))
        want[a] = factorial(k) // prod(map(factorial, a))
    assert epoly_to_polynomial(EPolynomial({(1,) * k: 1}), n).coeffs == want
    # a sum of that product and e_2, whose digits are narrower at n = 2
    got = epoly_to_polynomial(EPolynomial({(1,) * k: 1, (2,): 5}), n)
    assert got == SparsePolynomial(n, want) + 5 * elementary_symmetric(2, n)


def test_modp_expansion_container():
    row = ModPExpansion(3, {P([1, 2]): 5})
    assert row.get(P([1, 2])) == 2
    assert row.get(P([3])) == 0
    assert row.support() == [P([1, 2])]
    assert bool(row)
    assert not bool(ModPExpansion(2))
    with pytest.raises(ValueError):
        ModPExpansion(1)


def test_modp_expansion_equality_tells_modulus_and_type_apart():
    row = ModPExpansion(3, {P([1, 2]): 1})
    assert row == ModPExpansion(3, {P([1, 2]): 4})
    assert row != ModPExpansion(5, {P([1, 2]): 1})
    assert row != SchurExpansion({P([1, 2]): 1})
    assert SchurExpansion({P([1, 2]): 1}) != row
    assert isinstance(row, SchurExpansion)


def test_modp_expansion_has_no_integer_arithmetic():
    # Sq^1(w_2) + Sq^1(w_2) is 0 mod 2; an integer sum would give 2
    row = steenrod_Sq(1, 2)
    with pytest.raises(TypeError):
        row + row
    with pytest.raises(TypeError):
        row + SchurExpansion({P([1, 2]): 1})
    with pytest.raises(TypeError):
        2 * row
    with pytest.raises(TypeError):
        row * 2
