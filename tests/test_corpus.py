import hashlib
from pathlib import Path

import pytest

from sketchparts.autograd import make_rng
from sketchparts.corpus import (
    DEFAULT_TAXONOMY_TEXT,
    CorpusSpec,
    draw_figure,
    gen_corpus,
    load_corpus,
    make_sample,
)
from sketchparts.errors import ConfigError
from sketchparts.poses import POSES
from sketchparts.taxonomy import load_taxonomy

TAX = load_taxonomy(DEFAULT_TAXONOMY_TEXT)


def tree_digest(root):
    h = hashlib.sha256()
    for p in sorted(Path(root).rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(root)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def test_counts_on_disk(tmp_path):
    spec = CorpusSpec(TAX, per_category=10, seed=5, categories=("cat", "dog", "car", "bird"))
    rels = gen_corpus(spec, tmp_path / "c")
    assert len(rels) == 40
    assert len(list((tmp_path / "c").rglob("*.sketch.pgm"))) == 40
    assert len(list((tmp_path / "c").rglob("*.labels.pgm"))) == 40


def test_labels_valid_under_branch(tmp_path):
    spec = CorpusSpec(TAX, per_category=4, seed=7)
    gen_corpus(spec, tmp_path / "c")
    samples, tax = load_corpus(tmp_path / "c")
    assert len(samples) == 4 * len(TAX.categories)
    for s in samples:
        branch = tax.branch_of(s.category)
        valid = set(tax.part_ids[branch].values())
        assert set(s.labels.ids()) <= valid
        assert s.pose in POSES


def test_regeneration_byte_identical(tmp_path):
    spec = CorpusSpec(TAX, per_category=3, seed=11, categories=("horse", "bus"))
    gen_corpus(spec, tmp_path / "a")
    gen_corpus(spec, tmp_path / "b")
    assert tree_digest(tmp_path / "a") == tree_digest(tmp_path / "b")


def test_different_seed_differs(tmp_path):
    gen_corpus(CorpusSpec(TAX, per_category=3, seed=1, categories=("cat",)), tmp_path / "a")
    gen_corpus(CorpusSpec(TAX, per_category=3, seed=2, categories=("cat",)), tmp_path / "b")
    assert tree_digest(tmp_path / "a") != tree_digest(tmp_path / "b")


def test_unknown_category_rejected():
    with pytest.raises(ConfigError, match="template"):
        CorpusSpec(TAX, per_category=2, seed=0, categories=("submarine",)).category_list()


@pytest.mark.parametrize(
    "kwargs,message",
    [
        ({"per_category": "x"}, "per_category must be an integer"),
        ({"per_category": 2.0}, "per_category must be an integer"),
        ({"per_category": True}, "per_category must be an integer"),
        ({"image_size": "64"}, "image_size must be an integer"),
        ({"image_size": False}, "image_size must be an integer"),
        ({"categories": 5}, "categories must be a list"),
        ({"categories": "cat"}, "categories must be a list"),
        ({"categories": ["cat", 2]}, "categories must be a list"),
    ],
)
def test_spec_value_types_rejected(kwargs, message):
    with pytest.raises(ConfigError, match=message):
        CorpusSpec(TAX, **{"per_category": 2, "seed": 0, **kwargs})


def test_spec_category_list_stored_as_tuple():
    assert CorpusSpec(TAX, per_category=1, seed=0, categories=["cat"]).categories == ("cat",)


def test_every_part_present_every_sample():
    for ci, cat in enumerate(TAX.categories):
        ids = set(TAX.category_part_ids(cat).values())
        for pose in POSES:
            _, labels = draw_figure(cat, pose, make_rng((3, ci)), 128, TAX.category_part_ids(cat))
            assert set(labels.ids()) == ids


def test_sample_sketch_has_ink_and_blank_interior():
    s = make_sample("cat", "E", make_rng((4, 0)), 128, TAX)
    ink = (s.sketch.pixels > 0).mean()
    assert 0.02 < ink < 0.5  # outline drawing, not a filled silhouette
    body = s.labels.labels == TAX.category_part_ids("cat")["body"]
    assert (s.sketch.pixels[body] == 0).any()


@pytest.mark.parametrize(
    "raw,message",
    [
        (b"", "is empty"),
        (b"relative_path,pose\ncat/0000.sketch.pgm\n", "expected 2 fields"),
        (b"relative_path,pose\n\xff,E\n", "not UTF-8"),
    ],
    ids=["empty", "one_field", "not_utf8"],
)
def test_load_corpus_bad_poses_csv_rejected(tmp_path, raw, message):
    gen_corpus(CorpusSpec(TAX, per_category=1, seed=0, categories=("cat",)), tmp_path / "c")
    (tmp_path / "c" / "poses.csv").write_bytes(raw)
    with pytest.raises(ConfigError, match=message) as exc:
        load_corpus(tmp_path / "c")
    assert "poses.csv" in str(exc.value)
