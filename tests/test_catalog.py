"""Preset models and the exterior-algebra dimension oracles."""

import pytest

from nilform.cdga import NotACocycle
from nilform.gca import AlgebraError, DegreeError
from nilform.catalog import (
    central_extension,
    example_contr,
    example_initial,
    free_abelian,
    heisenberg,
    heisenberg_betti_oracle,
    heisenberg_summands,
    heisenberg_type,
    lefschetz_corank,
    parse_preset,
)

# frozen expected dimensions for the first three Heisenberg models
HEISENBERG_BETTI = {
    1: [1, 2, 2, 1],
    2: [1, 4, 5, 5, 4, 1],
    3: [1, 6, 14, 14, 14, 14, 6, 1],
}


def test_oracle_matches_frozen_tables():
    for n, expected in HEISENBERG_BETTI.items():
        got = [heisenberg_betti_oracle(n, q) for q in range(2 * n + 2)]
        assert got == expected, f"n={n}"


def test_oracle_symmetry():
    for n in (1, 2, 3):
        dims = [heisenberg_betti_oracle(n, q) for q in range(2 * n + 2)]
        assert dims == dims[::-1]


def test_second_summand_vanishes_up_to_n():
    for n in (1, 2, 3):
        for q in range(n + 1):
            assert heisenberg_summands(n, q)[1] == 0, (n, q)
        assert heisenberg_summands(n, n + 1)[1] > 0, n


def test_oracle_range_validation():
    with pytest.raises(ValueError):
        heisenberg_summands(2, 6)
    with pytest.raises(ValueError):
        heisenberg_summands(2, -1)


def test_lefschetz_corank_values():
    assert lefschetz_corank(1, 1) == 2
    assert lefschetz_corank(2, 1) == 0
    assert lefschetz_corank(3, 2) == 0
    for n in (1, 2, 3):
        for i in range(n):
            assert lefschetz_corank(n, i) == 0, (n, i)
        assert lefschetz_corank(n, n) > 0, n
    with pytest.raises(ValueError):
        lefschetz_corank(2, 5)


def test_heisenberg_structure():
    c = heisenberg(2)
    names = [g.name for g in c.algebra.generators]
    assert names == ["x1", "y1", "x2", "y2", "z"]
    assert c.d_generator("z") == c.algebra.parse("x1*y1 + x2*y2")
    assert c.is_minimal
    with pytest.raises(ValueError):
        heisenberg(0)


def test_heisenberg_type_composition():
    c = heisenberg_type(2, 5)
    names = [g.name for g in c.algebra.generators]
    assert names == ["x1", "y1", "x2", "y2", "z", "t5"]
    assert c.betti(1) == 5
    assert heisenberg_type(1, 2).algebra == heisenberg(1).algebra
    with pytest.raises(ValueError):
        heisenberg_type(2, 3)
    with pytest.raises(ValueError):
        heisenberg_type(0, 1)


def test_central_extension_rebuilds_heisenberg():
    c = central_extension(["x1", "y1", "x2", "y2"], [("z", "x1*y1 + x2*y2")])
    h = heisenberg(2)
    assert c.algebra == h.algebra
    assert c.differential() == h.differential()


def test_central_extension_rejects_bad_towers():
    with pytest.raises(AlgebraError):
        # w2 not declared yet
        central_extension(["x", "y"], [("w1", "x*w2"), ("w2", "x*y")])
    with pytest.raises(NotACocycle):
        # u*w1 is not closed over the first stage
        central_extension(["x", "y", "u", "v"], [("w1", "x*y"), ("w2", "u*w1")])


def test_example_initial_shape():
    c = example_initial()
    assert [g.name for g in c.algebra.generators] == ["x1", "x2", "y1", "y2", "z", "w1", "w2"]
    assert c.betti(1) == 5
    assert c.is_minimal


def test_example_contr_shapes():
    c = example_contr()
    assert c.d_generator("a") == c.algebra.parse("x1*w1 + x2*w2")
    c2 = example_contr("y1*y2")
    assert c2.d_generator("a") == c2.algebra.parse("x1*w1 + x2*w2 + y1*y2")
    with pytest.raises(AlgebraError):
        example_contr("x1*w1")
    with pytest.raises(DegreeError):
        example_contr("x1")


def test_free_abelian_is_closed():
    c = free_abelian(["a", "b", "c"])
    assert not c.differential()
    assert [c.betti(q) for q in range(4)] == [1, 3, 3, 1]


def test_parse_preset():
    assert parse_preset("heisenberg:2").algebra == heisenberg(2).algebra
    assert parse_preset("heisenberg_type:1,3").betti(1) == 3
    assert parse_preset("example_initial").betti(1) == 5
    got = parse_preset("example_contr:p=y1*y2")
    assert got.d_generator("a") == got.algebra.parse("x1*w1 + x2*w2 + y1*y2")
    for bad in ("heisenberg", "heisenberg:x", "heisenberg_type:2", "nope:1", "example_initial:3"):
        with pytest.raises(ValueError):
            parse_preset(bad)
