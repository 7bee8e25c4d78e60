"""Template-filled English descriptions of parsed sketches."""

from __future__ import annotations

from .errors import ContractViolation
from .poses import PHRASES, POSES

COUNT_WORDS = ["zero", "one", "two", "three", "four", "five", "six", "seven", "eight", "nine"]
IRREGULAR_PLURALS = {"body": "bodies"}


def count_word(n):
    return COUNT_WORDS[n] if 0 <= n < len(COUNT_WORDS) else str(n)


def pluralize(part, count):
    if count == 1:
        return part
    return IRREGULAR_PLURALS.get(part, part + "s")


def _singular(name):
    return name[:-1] if name.endswith("s") else name


def with_article(noun):
    """Indefinite noun phrase: "an" before a vowel letter, else "a"."""
    return f"{'an' if noun[:1].lower() in 'aeiou' else 'a'} {noun}"


def describe(summary):
    """Deterministic sentence naming the category, pose and every part count.

    `summary` holds a parse record's "category" (None when unknown),
    "supercategory", "pose" and "part_counts" (pipeline.summarize); an
    unknown pose or a count below 1 breaks the contract. With an unknown
    category the super-category carries the noun phrase; with no parts the
    part clause is omitted.
    """
    pose, counts = summary["pose"], summary["part_counts"]
    if pose not in POSES:
        raise ContractViolation(f"unknown pose {pose!r}")
    for part, count in counts.items():
        if count < 1:
            raise ContractViolation(f"part {part!r} has count {count}")
    head = with_article(_singular(summary["supercategory"]))
    if summary["category"]:
        head = f"{with_article(summary['category'])} ({head})"
    sentence = f"This is a sketch of {head} facing {PHRASES[pose]}"
    items = [f"{count_word(count)} {pluralize(part, count)}" for part, count in counts.items()]
    if not items:
        return sentence + "."
    if len(items) == 1:
        clause = items[0]
    else:
        clause = ", ".join(items[:-1]) + " and " + items[-1]
    return f"{sentence}, with {clause}."
