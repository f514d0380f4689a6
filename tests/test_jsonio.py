"""Instance files, rational encoding, digests, dissection documents."""

import json
from fractions import Fraction

import pytest

from mixedval import (
    InstanceError,
    boxcell_dissection,
    canonical_dumps,
    certify_dissection,
    dissection_from_json,
    dissection_to_json,
    fine_mixed_dissection,
    format_rational,
    instance_digest,
    instance_from_json,
    instance_to_json,
    load_instance,
    parse_rational,
)

F = Fraction

TWO_POLYS = {
    "lattice": "Z",
    "dim": 2,
    "polytopes": {
        "T": [[0, 0], [1, 0], [0, 1]],
        "S": [[0, 0], [1, 1]],
    },
}


def test_parse_rational_accepts_ints_and_strings():
    assert parse_rational(3) == F(3)
    assert parse_rational("-4") == F(-4)
    assert parse_rational("7/2") == F(7, 2)
    assert parse_rational("-6/4") == F(-3, 2)


@pytest.mark.parametrize("bad", [True, 1.5, "1/0", "x", "1/2/3", "", None, [1]])
def test_parse_rational_rejects_junk(bad):
    with pytest.raises((InstanceError, ValueError, TypeError)):
        parse_rational(bad)


def test_format_rational_round_trips():
    assert format_rational(F(4, 2)) == 2
    assert isinstance(format_rational(F(4, 2)), int)
    assert format_rational(F(-7, 3)) == "-7/3"
    for x in (F(0), F(5), F(-1, 2), F(22, 7)):
        assert parse_rational(format_rational(x)) == x


def test_instance_round_trip():
    inst = instance_from_json(TWO_POLYS)
    assert inst.lattice == "Z"
    assert inst.dim == 2
    assert list(inst.polytopes) == ["T", "S"]
    assert instance_from_json(instance_to_json(inst)) == inst


def test_instance_requires_integer_coordinates_on_z():
    doc = {"lattice": "Z", "dim": 1, "polytopes": {"P": [["1/2"], [2]]}}
    with pytest.raises(InstanceError):
        instance_from_json(doc)
    doc["lattice"] = "Q"
    inst = instance_from_json(doc)
    assert not inst.polytopes["P"].is_integral


def test_lattice_defaults_to_integers():
    doc = json.loads(json.dumps(TWO_POLYS))
    del doc["lattice"]
    assert instance_from_json(doc).lattice == "Z"


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.update(lattice="R"),
        lambda d: d.update(dim=0),
        lambda d: d.update(dim="two"),
        lambda d: d.update(polytopes={}),
        lambda d: d.update(polytopes={"P": []}),
        lambda d: d.update(pairs=[["T", "missing"]]),
        lambda d: d.update(pairs=[["T"]]),
        lambda d: d.update(pairs=5),
    ],
)
def test_instance_validation_errors(mutate):
    doc = json.loads(json.dumps(TWO_POLYS))
    mutate(doc)
    with pytest.raises(InstanceError):
        instance_from_json(doc)


def test_pairs_must_be_nested():
    doc = json.loads(json.dumps(TWO_POLYS))
    doc["pairs"] = [["T", "S"]]  # the segment does not contain the triangle
    with pytest.raises(InstanceError):
        instance_from_json(doc)
    doc["polytopes"]["Q"] = [[0, 0], [2, 0], [0, 2]]
    doc["pairs"] = [["T", "Q"]]
    inst = instance_from_json(doc)
    assert inst.pairs == (("T", "Q"),)


def test_digest_ignores_formatting_but_not_content(tmp_path):
    a = instance_from_json(TWO_POLYS)
    pretty = json.dumps(TWO_POLYS, indent=4)
    path = tmp_path / "inst.json"
    path.write_text(pretty)
    b = load_instance(path)
    assert instance_digest(a) == instance_digest(b)

    changed = json.loads(json.dumps(TWO_POLYS))
    changed["polytopes"]["T"] = [[0, 0], [2, 0], [0, 1]]
    assert instance_digest(instance_from_json(changed)) != instance_digest(a)


def test_canonical_dumps_is_sorted_and_compact():
    s = canonical_dumps({"b": 1, "a": [1, 2]})
    assert s == '{"a":[1,2],"b":1}'


def test_dissection_documents_round_trip():
    for D in (
        boxcell_dissection(2, 2),
        fine_mixed_dissection(
            [
                instance_from_json(TWO_POLYS).polytopes["T"],
                instance_from_json(TWO_POLYS).polytopes["S"],
            ],
            opener_seed=5,
        ),
    ):
        doc = dissection_to_json(D)
        back = dissection_from_json(json.loads(json.dumps(doc)))
        assert back.cell_counts() == D.cell_counts()
        assert certify_dissection(back) == certify_dissection(D)


def test_dissection_document_rejects_bad_removed_index():
    doc = dissection_to_json(boxcell_dissection(1, 2))
    doc["cells"][0]["removed"] = [99]
    with pytest.raises(InstanceError):
        dissection_from_json(doc)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d["cells"][0].pop("vertices"),
        lambda d: d["cells"][0].pop("summands"),
        lambda d: d["cells"][0].update(removed=3),
        lambda d: d["cells"][0].update(removed=[True]),
        lambda d: d["cells"][0].update(summands=3),
        lambda d: d.update(cells=5),
        lambda d: d.update(opener=5),
        lambda d: d.update(factors=5),
        lambda d: d.update(target=[5, 6]),
        lambda d: d.update(target=[[]]),
        # summands that do not add up to the cell, or add up inexactly
        lambda d: d["cells"][0].update(summands=[[[0], [2]]]),
        lambda d: d["cells"][0].update(summands=[]),
        lambda d: d["cells"][0].update(vertices=[[0], [2]], summands=[[[0], [1]], [[0], [1]]]),
        lambda d: d.update(factors=[[[0], [1]], [[0], [1]]]),
    ],
)
def test_dissection_document_rejects_malformed_fields(mutate):
    doc = dissection_to_json(boxcell_dissection(1, 2))
    mutate(doc)
    with pytest.raises(InstanceError):
        dissection_from_json(doc)


def test_a_cell_with_a_square_summand_is_rejected():
    # the square is the cell's whole sum, but cells are sums of simplices
    doc = dissection_to_json(boxcell_dissection(2, 1))
    square = [[0, 0], [0, 1], [1, 0], [1, 1]]
    doc["cells"] = [{"vertices": square, "summands": [square], "removed": []}]
    with pytest.raises(InstanceError, match="^cell summands must be simplices$"):
        dissection_from_json(doc)
    doc["cells"][0]["summands"] = [[[0, 0], [1, 0]], [[0, 0], [0, 1]]]
    assert len(dissection_from_json(doc).cells[0].cell.facets) == 4
