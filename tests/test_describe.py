import pytest

from sketchparts.describe import count_word, describe, pluralize
from sketchparts.errors import ContractViolation


def summary(supercategory, part_counts, pose, category=None):
    """A parse record's summary fields, as pipeline.summarize returns them."""
    return {"category": category, "supercategory": supercategory, "pose": pose,
            "part_counts": part_counts}


def test_cat_sentence():
    s = summary("Small Animals", {"head": 1, "body": 1, "leg": 4, "tail": 1}, "W",
                category="cat")
    assert describe(s) == (
        "This is a sketch of a cat (a Small Animal) facing west, "
        "with one head, one body, four legs and one tail."
    )


def test_intercardinal_phrase():
    s = summary("Flying Things", {"wing": 2}, "NE", category="bird")
    assert "facing north-east" in describe(s)


def test_unknown_category_uses_supercategory():
    s = summary("Four Wheelers", {"wheel": 2}, "E")
    assert describe(s) == "This is a sketch of a Four Wheeler facing east, with two wheels."


def test_empty_parts_omits_clause():
    s = summary("Small Animals", {}, "S", category="dog")
    assert describe(s) == "This is a sketch of a dog (a Small Animal) facing south."


def test_single_part_no_comma():
    s = summary("Small Animals", {"head": 1}, "N", category="cat")
    assert describe(s).endswith("facing north, with one head.")


def test_deterministic():
    s = summary("Small Animals", {"leg": 4}, "SW", category="dog")
    assert describe(s) == describe(s)


def test_counts_above_nine_use_numerals():
    assert count_word(12) == "12"
    assert count_word(4) == "four"


def test_irregular_plural():
    assert pluralize("body", 2) == "bodies"
    assert pluralize("leg", 2) == "legs"
    assert pluralize("leg", 1) == "leg"


def test_output_mentions_everything():
    s = summary("Large Animals", {"head": 1, "leg": 4}, "E", category="horse")
    text = describe(s)
    for token in ("horse", "east", "one head", "four legs"):
        assert token in text


def test_bad_pose_rejected():
    with pytest.raises(ContractViolation):
        describe(summary("X", {}, "UP"))


def test_zero_count_rejected():
    with pytest.raises(ContractViolation):
        describe(summary("X", {"head": 0}, "N"))


def test_vowel_initial_nouns_take_an():
    s = summary("Flying Things", {"wing": 2}, "N", category="airplane")
    assert describe(s).startswith("This is a sketch of an airplane (a Flying Thing) facing")
    s = summary("Insects", {"wing": 4}, "N")
    assert describe(s).startswith("This is a sketch of an Insect facing")
    s = summary("Insects", {}, "N", category="bee")
    assert describe(s) == "This is a sketch of a bee (an Insect) facing north."
