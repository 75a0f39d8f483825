import numpy as np
import pytest

from ellipticsde import GridFunction, InvalidInputError, holder_norm, trapezoid

import oracles
from oracles import ORACLE_SIZES, PATH_KINDS, oracle_path


def test_gridfunction_validation():
    with pytest.raises(InvalidInputError):
        GridFunction(1, np.zeros(2))
    with pytest.raises(InvalidInputError):
        GridFunction(4, np.zeros(4))  # needs n+1 values
    with pytest.raises(InvalidInputError):
        GridFunction(4, np.array([0.0, 1.0, np.nan, 0.0, 0.0]))


def test_values_frozen_after_construction():
    f = GridFunction.from_callable(lambda t: t, 8)
    with pytest.raises(ValueError):
        f.values[0] = 1.0


def test_node_index():
    f = GridFunction.from_callable(lambda t: t, 10)
    assert f.node_index(0.3) == 3
    with pytest.raises(InvalidInputError):
        f.node_index(0.333)


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
def test_node_index_rejects_non_finite(t):
    with pytest.raises(InvalidInputError):
        GridFunction.from_callable(lambda s: s, 10).node_index(t)


def test_csv_round_trip(tmp_path):
    f = GridFunction.from_callable(lambda t: np.sin(t), 16)
    path = tmp_path / "f.csv"
    f.to_csv(path)
    header = path.read_text().splitlines()[0]
    assert header == "t,value"
    g = GridFunction.from_csv(path)
    assert g.n == f.n
    np.testing.assert_array_equal(f.values, g.values)


def test_csv_rejects_nonuniform(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,value\n0.0,0.0\n0.3,1.0\n1.0,2.0\n1.5,3.0\n")
    with pytest.raises(InvalidInputError):
        GridFunction.from_csv(path)


def test_holder_norm_zero_function():
    f = GridFunction(8, np.zeros(9))
    rep = holder_norm(f, 0.5)
    assert rep.sup_norm == 0.0 and rep.seminorm == 0.0 and rep.norm == 0.0


def test_holder_norm_linear():
    f = GridFunction.from_callable(lambda t: t, 32)
    rep = holder_norm(f, 1.0)
    assert rep.sup_norm == pytest.approx(1.0)
    assert rep.seminorm == pytest.approx(1.0)
    assert rep.norm == pytest.approx(2.0)


def test_holder_seminorm_against_pair_enumeration():
    # brute force over all 10 pairs of the n=4 grid
    n = 4
    f = GridFunction.from_callable(lambda t: t**2, n)
    best = 0.0
    for i in range(n + 1):
        for j in range(i + 1, n + 1):
            best = max(best, abs(f.values[j] - f.values[i]) / ((j - i) / n))
    assert best == pytest.approx(7 / 4)
    assert holder_norm(f, 1.0).seminorm == pytest.approx(best)


def test_seminorm_zero_iff_constant():
    const = GridFunction(8, np.full(9, 3.7))
    assert holder_norm(const, 0.5).seminorm == 0.0
    bumped = GridFunction(8, np.concatenate(([0.0], np.full(8, 1e-9))))
    assert holder_norm(bumped, 0.5).seminorm > 0.0


def test_seminorm_nondecreasing_in_gamma(path_corpus):
    # lags (j-i)/n never exceed 1, so a larger exponent shrinks the
    # denominator and can only grow the seminorm
    for f in path_corpus.values():
        s_low = holder_norm(f, 0.4).seminorm
        s_high = holder_norm(f, 0.8).seminorm
        assert s_high >= s_low - 1e-12


def test_product_norm_bound(path_corpus):
    names = list(path_corpus)
    gamma = 0.5
    for a, b in zip(names[:8], names[4:12]):
        f, g = path_corpus[a], path_corpus[b]
        fg = GridFunction(f.n, f.values * g.values)
        assert (
            holder_norm(fg, gamma).norm
            <= holder_norm(f, gamma).norm * holder_norm(g, gamma).norm + 1e-9
        )


def test_holder_norm_invalid_gamma():
    f = GridFunction.from_callable(lambda t: t, 8)
    with pytest.raises(InvalidInputError):
        holder_norm(f, 0.0)
    with pytest.raises(InvalidInputError):
        holder_norm(f, 1.5)


def test_trapezoid_constant_and_linear_exact():
    c = GridFunction(10, np.full(11, 2.5))
    assert trapezoid(c, 0.0, 1.0) == pytest.approx(2.5, abs=1e-15)
    f = GridFunction.from_callable(lambda t: t, 10)
    assert trapezoid(f, 0.0, 1.0) == pytest.approx(0.5, abs=1e-15)


def test_trapezoid_quadratic_oracle():
    # antiderivative oracle: int_0^1 t^2 dt = 1/3, composite error h^2/6
    f = GridFunction.from_callable(lambda t: t**2, 100)
    assert abs(trapezoid(f, 0.0, 1.0) - 1.0 / 3.0) <= 2e-5


def test_trapezoid_additivity_exact():
    rng = np.random.Generator(np.random.Philox(key=np.array([5, 0], dtype=np.uint64)))
    f = GridFunction(64, rng.standard_normal(65))
    whole = trapezoid(f, 0.0, 1.0)
    for b in (0.25, 0.5, 0.8125):
        assert trapezoid(f, 0.0, b) + trapezoid(f, b, 1.0) == whole


def test_trapezoid_node_validation():
    f = GridFunction.from_callable(lambda t: t, 10)
    with pytest.raises(InvalidInputError):
        trapezoid(f, 0.0, 0.55)
    with pytest.raises(InvalidInputError):
        trapezoid(f, 0.6, 0.2)


@pytest.mark.parametrize("kind", PATH_KINDS)
@pytest.mark.parametrize("n", ORACLE_SIZES)
def test_holder_sweep_equals_dense_oracle(n, kind):
    f = oracle_path(kind, n)
    for gamma in (0.3, 0.55, 0.75, 1.0):
        assert holder_norm(f, gamma) == oracles.holder_norm(f, gamma)
