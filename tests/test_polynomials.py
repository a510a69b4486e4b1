"""Polynomial arithmetic: hand-checked values plus ring laws on random triples."""

from hypothesis import given, settings
from hypothesis import strategies as st

from sring import ZMod, build_ring, poly, poly_add, poly_multiply

Z4 = build_ring(ZMod(4))
Z12 = build_ring(ZMod(12))

coeffs = st.lists(st.integers(min_value=0, max_value=11), max_size=4)


def test_normalization_strips_trailing_zeros():
    assert poly((1, 2, 0, 0)).coeffs == (1, 2)
    assert poly((0, 0)).coeffs == ()
    assert poly(()).degree == -1


def test_square_of_two_plus_two_x_vanishes_mod_four():
    f = poly((2, 2))
    # convolution by hand: (2,2)*(2,2) = (4, 8, 4) = 0 mod 4
    assert poly_multiply(Z4, f, f).is_zero


def test_multiplication_by_zero_and_one():
    f = poly((3, 5, 7))
    assert poly_multiply(Z12, f, poly(())).is_zero
    assert poly_multiply(Z12, f, poly((1,))) == f


def test_product_degree_is_the_sum_of_degrees():
    f = poly((1, 1, 1))
    assert poly_multiply(Z12, f, f).degree == 4


@settings(max_examples=150, deadline=None)
@given(coeffs, coeffs)
def test_multiplication_commutes(a, b):
    f, g = poly(a), poly(b)
    assert poly_multiply(Z12, f, g) == poly_multiply(Z12, g, f)


@settings(max_examples=100, deadline=None)
@given(coeffs, coeffs, coeffs)
def test_multiplication_associates_and_distributes(a, b, c):
    f, g, h = poly(a), poly(b), poly(c)
    left = poly_multiply(Z12, poly_multiply(Z12, f, g), h)
    right = poly_multiply(Z12, f, poly_multiply(Z12, g, h))
    assert left == right
    dist_left = poly_multiply(Z12, f, poly_add(Z12, g, h))
    dist_right = poly_add(Z12, poly_multiply(Z12, f, g), poly_multiply(Z12, f, h))
    assert dist_left == dist_right
