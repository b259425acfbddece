import json
from fractions import Fraction
from itertools import combinations

import pytest

from helpers import config_json
from planelift.config import (Config, Realisation, analyze, bundled_config,
                              bundled_names, circuits, components,
                              config_from_dict, config_of_realisation,
                              delete_line, grid_config, induced, qs_config,
                              realisation_to_dict, validate)
from planelift.linalg import parse_rat


def grid9_points():
    """A 3x3 grid of points with no accidental extra collinear triple.

    y-coordinates (0, 1, 5) are deliberately non-equally spaced so the
    diagonals of the grid are not lines.
    """
    xs = (0, 1, 2)
    ys = (0, 1, 5)
    cols = []
    for i in range(3):
        for j in range(3):
            cols.append((xs[i], ys[j], 1))
    return Realisation.from_columns(cols)


def test_config_normalises_lines():
    c = Config(4, [[1, 2, 3], (2, 3, 4)])
    assert c.lines == ((1, 2, 3), (2, 3, 4))
    assert c.lines_through(2) == [1, 2]
    assert c.lines_through(1) == [1]


def test_config_rejects_labels_that_are_not_ints():
    # int() would truncate 3.9 to 3 and parse "1", silently giving the
    # quadrilateral set.
    for lines in (((1, 2, 3.9), ("1", 5, 6), (2, 4, 6), (3, 4, 5)),
                  ((1, 2, 3.9),), (("1", 5, 6),), ((True, 2, 3),),
                  ((1, 2, Fraction(3)),)):
        with pytest.raises(TypeError):
            Config(6, lines)


def test_validate_clean_configs():
    for name in bundled_names():
        assert validate(bundled_config(name)) == []


def test_validate_violation_kinds():
    kinds = {v.kind for v in validate(Config(3, ((1,),)))}
    assert "line too short" in kinds
    kinds = {v.kind for v in validate(Config(3, ((2, 1, 3),)))}
    assert "line not strictly increasing" in kinds
    kinds = {v.kind for v in validate(Config(3, ((1, 2, 7),)))}
    assert "point index out of range" in kinds
    kinds = {v.kind for v in validate(Config(3, ((1, 2, 3), (1, 2, 3))))}
    assert "duplicate line" in kinds
    kinds = {v.kind for v in validate(Config(4, ((1, 2, 3), (1, 2, 3, 4))))}
    assert "line contained in another" in kinds
    kinds = {v.kind for v in validate(Config(5, ((1, 2, 3), (1, 2, 4, 5))))}
    assert "two lines share a point pair" in kinds
    v = validate(Config(5, ((1, 2, 3), (1, 2, 4, 5))))[0]
    assert str(v) == "two lines share a point pair: points 1,2; lines 1,2"


def test_circuits():
    m = circuits(qs_config())
    assert m.n == 6
    assert m.circuits3 == frozenset(qs_config().lines)
    single = circuits(Config(6, ((1, 2, 3, 4, 5, 6),)))
    assert len(single.circuits3) == 20
    assert single.circuits3 == frozenset(
        combinations(range(1, 7), 3))


def test_realisation_basics():
    r = Realisation.from_columns([(1, 2, 3), (0, 0, 0), (2, 4, 6)])
    assert r.n == 3
    assert r.column(1) == (1, 2, 3)
    assert r.column(2) == (0, 0, 0)
    assert r.columns()[2] == (2, 4, 6)
    assert r == Realisation.from_columns([(1, 2, 3), (0, 0, 0), (2, 4, 6)])
    assert r != Realisation.from_columns([(1, 2, 3)])
    with pytest.raises(ValueError):
        Realisation.from_columns([(1, 2)])
    empty = Realisation.from_columns([])
    assert empty.n == 0


def test_config_of_realisation_grid():
    found = config_of_realisation(grid9_points())
    assert found == bundled_config("grid3x3")


def test_config_of_realisation_rejects_non_simple():
    with pytest.raises(ValueError):
        config_of_realisation(
            Realisation.from_columns([(1, 0, 0), (0, 0, 0)]))
    with pytest.raises(ValueError):
        config_of_realisation(
            Realisation.from_columns([(1, 0, 0), (2, 0, 0)]))


def test_config_of_realisation_collects_long_lines():
    r = Realisation.from_columns([(0, 0, 1), (1, 0, 1), (2, 0, 1),
                                  (3, 0, 1), (0, 1, 1)])
    c = config_of_realisation(r)
    assert c == Config(5, ((1, 2, 3, 4),))


def test_analyze():
    a = analyze(qs_config())
    assert a.omega == 1
    assert not a.is_forest
    a = analyze(bundled_config("forest_two_lines"))
    assert a.omega == 1
    assert a.is_forest
    a = analyze(bundled_config("forest_path10"))
    assert a.is_forest and a.omega == 1
    a = analyze(Config(5, ((1, 2, 3),)))
    assert a.omega == 3
    assert a.is_forest
    assert analyze(Config(4)).omega == 4
    assert analyze(Config(0)).omega == 0


def test_components():
    assert components(Config(5, ((1, 2, 3),))) == [(1, 2, 3), (4,), (5,)]
    assert components(grid_config(3, 4)) == [tuple(range(1, 13))]
    assert components(Config(6, ((1, 2, 3), (4, 5, 6)))) == \
        [(1, 2, 3), (4, 5, 6)]


def test_induced():
    c, index_map = induced(qs_config(), {1, 2, 3, 4, 6})
    assert c == Config(5, ((1, 2, 3), (2, 4, 5)))
    assert index_map == {1: 1, 2: 2, 3: 3, 4: 4, 6: 5}


def test_delete_line():
    c, index_map = delete_line(grid_config(3, 4), 1)
    assert c.n == 12
    assert len(c.lines) == 6
    assert index_map[12] == 12
    c, index_map = delete_line(bundled_config("forest_two_lines"), 1)
    assert c == Config(3, ((1, 2, 3),))
    assert index_map == {3: 1, 4: 2, 5: 3}
    with pytest.raises(IndexError):
        delete_line(qs_config(), 5)
    with pytest.raises(IndexError):
        delete_line(qs_config(), 0)


def test_grid_config_labels():
    g = grid_config(3, 4)
    assert g.n == 12
    assert g.lines[:4] == ((1, 2, 3), (4, 5, 6), (7, 8, 9), (10, 11, 12))
    assert g.lines[4:] == ((1, 4, 7, 10), (2, 5, 8, 11), (3, 6, 9, 12))
    assert grid_config(2, 3) == Config(6, ((1, 2), (3, 4), (5, 6),
                                           (1, 3, 5), (2, 4, 6)))


def test_config_dict_round_trip():
    for name in bundled_names():
        c = bundled_config(name)
        assert config_from_dict(json.loads(config_json(c))) == c


def test_config_from_dict_errors():
    with pytest.raises(ValueError):
        config_from_dict([1, 2, 3])
    with pytest.raises(ValueError):
        config_from_dict({"points": 3})
    with pytest.raises(ValueError):
        config_from_dict({"points": -1, "lines": []})
    with pytest.raises(ValueError):
        config_from_dict({"points": 3, "lines": [["a"]]})
    with pytest.raises(ValueError):
        config_from_dict({"points": "3", "lines": []})
    # JSON booleans are not integers.
    with pytest.raises(ValueError):
        config_from_dict({"points": True, "lines": []})
    with pytest.raises(ValueError):
        config_from_dict({"points": 3, "lines": [[True, 2, 3]]})


def test_realisation_dict_round_trip():
    r = Realisation.from_columns([(Fraction(1, 2), 1, 0), (0, 0, 0)])
    d = realisation_to_dict(r)
    assert d == {"columns": [["1/2", "1", "0"], ["0", "0", "0"]]}
    assert Realisation.from_columns(
        [[parse_rat(x) for x in col] for col in d["columns"]]) == r


def test_bundled_files_match_builtins():
    assert bundled_names() == ["forest_path10", "forest_single_line",
                               "forest_two_lines", "grid3x3", "grid3x4",
                               "qs"]
    with pytest.raises(KeyError):
        bundled_config("heptagon")
