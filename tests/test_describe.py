import pytest

from sketchparts.describe import SketchSummary, count_word, describe, pluralize
from sketchparts.errors import ContractViolation


def test_cat_sentence():
    s = SketchSummary(
        category="cat",
        supercategory="Small Animals",
        part_counts={"head": 1, "body": 1, "leg": 4, "tail": 1},
        pose="W",
    )
    assert describe(s) == (
        "This is a sketch of a cat (a Small Animal) facing west, "
        "with one head, one body, four legs and one tail."
    )


def test_intercardinal_phrase():
    s = SketchSummary("Flying Things", {"wing": 2}, "NE", category="bird")
    assert "facing north-east" in describe(s)


def test_unknown_category_uses_supercategory():
    s = SketchSummary("Four Wheelers", {"wheel": 2}, "E")
    assert describe(s) == "This is a sketch of a Four Wheeler facing east, with two wheels."


def test_empty_parts_omits_clause():
    s = SketchSummary("Small Animals", {}, "S", category="dog")
    assert describe(s) == "This is a sketch of a dog (a Small Animal) facing south."


def test_single_part_no_comma():
    s = SketchSummary("Small Animals", {"head": 1}, "N", category="cat")
    assert describe(s).endswith("facing north, with one head.")


def test_deterministic():
    s = SketchSummary("Small Animals", {"leg": 4}, "SW", category="dog")
    assert describe(s) == describe(s)


def test_counts_above_nine_use_numerals():
    assert count_word(12) == "12"
    assert count_word(4) == "four"


def test_irregular_plural():
    assert pluralize("body", 2) == "bodies"
    assert pluralize("leg", 2) == "legs"
    assert pluralize("leg", 1) == "leg"


def test_output_mentions_everything():
    s = SketchSummary("Large Animals", {"head": 1, "leg": 4}, "E", category="horse")
    text = describe(s)
    for token in ("horse", "east", "one head", "four legs"):
        assert token in text


def test_bad_pose_rejected():
    with pytest.raises(ContractViolation):
        SketchSummary("X", {}, "UP")


def test_zero_count_rejected():
    with pytest.raises(ContractViolation):
        SketchSummary("X", {"head": 0}, "N")


def test_vowel_initial_nouns_take_an():
    s = SketchSummary("Flying Things", {"wing": 2}, "N", category="airplane")
    assert describe(s).startswith("This is a sketch of an airplane (a Flying Thing) facing")
    s = SketchSummary("Insects", {"wing": 4}, "N")
    assert describe(s).startswith("This is a sketch of an Insect facing")
    s = SketchSummary("Insects", {}, "N", category="bee")
    assert describe(s) == "This is a sketch of a bee (an Insect) facing north."
