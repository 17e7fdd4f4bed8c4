import ast
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import zetachain.exact
from zetachain.exact import (
    BernoulliConvention,
    bernoulli,
    bernoulli_self_identity,
    binomial,
    harmonic,
)

PLUS = BernoulliConvention.PAPER_PLUS
MINUS = BernoulliConvention.CONVENTIONAL_MINUS


def test_binomial_values():
    assert binomial(2, 1) == 2
    assert binomial(0, 0) == 1
    assert binomial(5, 2) == 10
    assert binomial(3, 7) == 0


def test_binomial_rejects_negative_n():
    with pytest.raises(ValueError):
        binomial(-1, 0)


def test_harmonic_values():
    assert harmonic(1) == 1
    assert harmonic(2) == Fraction(3, 2)
    assert harmonic(3) == Fraction(11, 6)


def test_harmonic_rejects_zero():
    with pytest.raises(ValueError):
        harmonic(0)


@given(st.integers(min_value=1, max_value=500))
def test_harmonic_telescoping(n):
    assert harmonic(n + 1) - harmonic(n) == Fraction(1, n + 1)


def test_bernoulli_convention_only_differs_at_one():
    assert bernoulli(1, PLUS) == Fraction(1, 2)
    assert bernoulli(1, MINUS) == Fraction(-1, 2)
    for n in range(0, 40):
        if n != 1:
            assert bernoulli(n, PLUS) == bernoulli(n, MINUS)


def test_bernoulli_small_values():
    assert bernoulli(0, PLUS) == 1
    assert bernoulli(2, PLUS) == Fraction(1, 6)
    assert bernoulli(4, PLUS) == Fraction(-1, 30)
    assert bernoulli(12, PLUS) == Fraction(-691, 2730)


def test_bernoulli_odd_vanish():
    for n in range(3, 61, 2):
        assert bernoulli(n, PLUS) == 0


def test_bernoulli_akiyama_tanigawa_cross_check():
    # independent algorithm for the same numbers
    n = 40
    row = [Fraction(0)] * (n + 1)
    for m in range(n + 1):
        row[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
        assert row[0] == bernoulli(m, PLUS)


def test_self_identity_residuals():
    assert bernoulli_self_identity(2, MINUS) == 0
    assert bernoulli_self_identity(3, MINUS) == 0
    assert bernoulli_self_identity(2, PLUS) == 2


def test_self_identity_exhaustive_minus():
    for n in range(2, 61):
        assert bernoulli_self_identity(n, MINUS) == 0


def test_self_identity_rejects_small_n():
    with pytest.raises(ValueError):
        bernoulli_self_identity(1, MINUS)


small_fractions = st.fractions(
    min_value=-10, max_value=10, max_denominator=12
)


@given(small_fractions, small_fractions, small_fractions)
def test_rational_ring_axioms(x, y, z):
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert x * (y + z) == x * y + x * z
    assert x + 0 == x and x * 1 == x


def test_exact_layer_imports_no_numeric_layer():
    # the exact layer is the independent oracle: it must not import mpmath
    # or any other zetachain module
    tree = ast.parse(Path(zetachain.exact.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    bad = {n for n in imported if n.startswith((".", "mpmath", "zetachain"))}
    assert not bad, bad
