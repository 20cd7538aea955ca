import pytest
from hypothesis import given
from hypothesis import strategies as st

from tricatalan.poly import Poly, histogram_poly

coeff_lists = st.lists(st.integers(min_value=-50, max_value=50), max_size=8)


def test_add_examples():
    assert Poly((1, 1)) + Poly((2, 1)) == Poly((3, 2))
    assert Poly((2, 1)) + Poly((3, 2)) == Poly((5, 3))
    p = Poly((7, 0, 2))
    assert p + Poly.zero() == p
    # Sums are built without the constructor, so they must trim themselves.
    assert (Poly((1, 2)) + Poly((0, -2))).coeffs == (1,)
    assert (Poly((1,)) + Poly((-1,))).coeffs == ()


def test_eq_canonicalizes_trailing_zeros():
    assert Poly((1, 1)) == Poly((1, 1, 0))
    assert Poly((1, 1)) != Poly((1, 2))
    assert Poly(()) == Poly((0,)) == Poly((0, 0, 0))


def test_eval_at_one():
    assert Poly((2, 1)).eval_at_one() == 3
    assert Poly((14, 21, 15, 5)).eval_at_one() == 55
    assert Poly.zero().eval_at_one() == 0


def test_degree_and_coefficient():
    p = Poly((2, 0, 5))
    assert p.degree() == 2
    assert Poly.zero().degree() == -1
    assert p.coefficient(0) == 2
    assert p.coefficient(1) == 0
    assert p.coefficient(7) == 0
    with pytest.raises(ValueError):
        p.coefficient(-1)


def test_text_rendering():
    assert str(Poly.zero()) == "0"
    assert str(Poly((1,))) == "1"
    assert str(Poly((2, 1))) == "2 + x"
    assert str(Poly((0, 1))) == "x"
    assert str(Poly((2, 3, 2))) == "2 + 3*x + 2*x^2"
    assert str(Poly((14, 21, 15, 5))) == "14 + 21*x + 15*x^2 + 5*x^3"
    assert str(Poly((0, 0, 1))) == "x^2"


def test_json_rendering():
    assert Poly((2, 3, 2)).to_json() == [2, 3, 2]
    assert Poly.zero().to_json() == []


def test_rejects_non_integers():
    with pytest.raises(TypeError):
        Poly((1.5,))


def test_histogram_poly():
    assert histogram_poly([0, 2, 2]) == Poly((1, 0, 2))
    assert histogram_poly(iter([3])).coeffs == (0, 0, 0, 1)
    assert histogram_poly([]) == Poly.zero()
    with pytest.raises(ValueError):
        histogram_poly([1, -1])


@given(st.lists(st.integers(min_value=0, max_value=9)))
def test_histogram_poly_counts_every_value(values):
    p = histogram_poly(values)
    assert p.eval_at_one() == len(values)
    assert all(p.coefficient(k) == values.count(k) for k in range(11))
    assert Poly(p.coeffs) == p


@given(coeff_lists)
def test_canonicalization_idempotent(coeffs):
    once = Poly(tuple(coeffs))
    assert Poly(once.coeffs) == once
    assert not once.coeffs or once.coeffs[-1] != 0


@given(coeff_lists, coeff_lists)
def test_add_commutative(a, b):
    assert Poly(tuple(a)) + Poly(tuple(b)) == Poly(tuple(b)) + Poly(tuple(a))


@given(coeff_lists, coeff_lists, coeff_lists)
def test_add_associative(a, b, c):
    pa, pb, pc = Poly(tuple(a)), Poly(tuple(b)), Poly(tuple(c))
    assert (pa + pb) + pc == pa + (pb + pc)


@given(coeff_lists, coeff_lists)
def test_eval_at_one_additive(a, b):
    pa, pb = Poly(tuple(a)), Poly(tuple(b))
    assert (pa + pb).eval_at_one() == pa.eval_at_one() + pb.eval_at_one()
