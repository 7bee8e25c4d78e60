import hashlib
import itertools
import math
from pathlib import Path

import numpy as np
import pytest

from oracles import capsule_full_grid, ellipse_full_grid
from sketchparts import corpus
from sketchparts.autograd import make_rng
from sketchparts.corpus import (
    DEFAULT_TAXONOMY_TEXT,
    MAX_IMAGE_SIZE,
    CorpusSpec,
    draw_corpus,
    draw_figure,
    gen_corpus,
    load_corpus,
    make_sample,
    read_poses,
    read_taxonomy,
    sample_files,
    sketch_files,
    write_taxonomy,
)
from sketchparts.errors import ConfigError, ContractViolation
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
    samples = load_corpus(tmp_path / "c")
    assert len(samples) == 4 * len(TAX.categories)
    for s in samples:
        branch = TAX.branch_of(s.category)
        valid = set(TAX.part_ids[branch].values())
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
        ({"categories": ["cat", "dog", "cat"]}, r"categories name \['cat'\] more than once"),
        ({"categories": ["dog", "cat", "cat", "dog"]},
         r"categories name \['cat', 'dog'\] more than once"),
        ({"image_size": 31}, "too small"),
        ({"image_size": MAX_IMAGE_SIZE + 1}, f"above the maximum of {MAX_IMAGE_SIZE}"),
        ({"seed": -1}, "seed must be an integer >= 0"),
        ({"seed": 1.5}, "seed must be an integer"),
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


# every malformed poses.csv and the words its refusal holds; load_corpus and
# each command that reads one refuse them all (see test_cli)
BAD_POSES_CSV = [
    (b"", "is empty"),
    (b"relative_path,pose\ncat/0000.sketch.pgm\n", "line 2: expected 2 fields, got 1"),
    (b"relative_path,pose\ncat/0000.sketch.pgm,E,extra\n", "line 2: expected 2 fields, got 3"),
    (b"relative_path,pose\ncat/0000.sketch.pgm,\xff\n", "not UTF-8"),
    (b"relative_path,pose\ncat/0000.sketch.pgm,UP\n", "line 2: unknown pose 'UP'"),
    (b"relative_path,pose\ncat/0000.pgm,E\n",
     "line 2: 'cat/0000.pgm' does not name a .sketch.pgm file"),
    (b"cat/0000.sketch.pgm,E\ncat/0001.sketch.pgm,E\n",
     "line 1: expected the header relative_path,pose"),
    (b"relative_path,pose\ncat/0000.sketch.pgm,N\ncat/0000.sketch.pgm,S\n",
     "line 2 but 'S' in "),
]
POSES_CSV_IDS = ["empty", "one_field", "three_fields", "not_utf8", "unknown_pose", "not_a_sketch",
                 "no_header", "two_poses"]


@pytest.mark.parametrize("raw,message", BAD_POSES_CSV, ids=POSES_CSV_IDS)
def test_load_corpus_bad_poses_csv_rejected(tmp_path, raw, message):
    gen_corpus(CorpusSpec(TAX, per_category=1, seed=0, categories=("cat",)), tmp_path / "c")
    (tmp_path / "c" / "poses.csv").write_bytes(raw)
    with pytest.raises(ConfigError) as exc:
        load_corpus(tmp_path / "c")
    assert "poses.csv" in str(exc.value) and message in str(exc.value)


def test_load_corpus_names_both_lines_of_a_sketch_given_two_poses(tmp_path):
    gen_corpus(CorpusSpec(TAX, per_category=2, seed=0, categories=("cat",)), tmp_path / "c")
    csv_path = tmp_path / "c" / "poses.csv"
    csv_path.write_text("relative_path,pose\ncat/0000.sketch.pgm,N\n"
                        "cat/0001.sketch.pgm,E\ncat/0000.sketch.pgm,S\n")
    with pytest.raises(ConfigError) as exc:
        load_corpus(tmp_path / "c")
    assert str(exc.value) == (
        f"cat/0000.sketch.pgm has pose 'N' in {csv_path} line 2 but 'S' in {csv_path} line 4"
    )


def test_load_corpus_reads_a_sketch_listed_twice_with_one_pose_once(tmp_path):
    gen_corpus(CorpusSpec(TAX, per_category=1, seed=0, categories=("cat",)), tmp_path / "c")
    csv_path = tmp_path / "c" / "poses.csv"
    header, row = csv_path.read_text().splitlines()
    csv_path.write_text(f"{header}\n{row}\n{row}\n")
    assert len(load_corpus(tmp_path / "c")) == 1


def test_load_corpus_without_poses_csv_rejected(tmp_path):
    with pytest.raises(ConfigError, match="no poses.csv under .* lists a sketch"):
        load_corpus(tmp_path / "missing")


def test_gen_corpus_writes_the_drawn_samples(tmp_path):
    spec = CorpusSpec(TAX, per_category=3, seed=4, image_size=48, categories=("dog", "car"))
    drawn = list(draw_corpus(spec))
    assert [name for name, _ in drawn] == [f"{c}/{i:04d}" for c in ("dog", "car") for i in range(3)]
    assert gen_corpus(spec, tmp_path / "c") == [f"{name}.sketch.pgm" for name, _ in drawn]
    by_path = sorted(drawn, key=lambda pair: f"{pair[0]}.sketch.pgm")
    assert load_corpus(tmp_path / "c") == [sample for _, sample in by_path]


def test_draw_corpus_draws_one_sample_at_a_time():
    spec = CorpusSpec(TAX, per_category=10**6, seed=0, image_size=32, categories=("cat",))
    name, sample = next(draw_corpus(spec))
    assert name == "cat/0000" and sample.category == "cat"


@pytest.mark.parametrize("categories,error,message", [
    (("cat", "submarine"), ConfigError, "no figure template for category 'submarine'"),
    # a template, but not a category of the taxonomy
    (("cat", "fox"), ContractViolation, "unknown category 'fox'"),
])
def test_gen_corpus_unknown_category_leaves_no_root(tmp_path, categories, error, message):
    spec = CorpusSpec(TAX, per_category=1, seed=0, categories=categories)
    with pytest.raises(error, match=message):
        gen_corpus(spec, tmp_path / "c")
    assert not (tmp_path / "c").exists()


def test_load_corpus_reads_a_tree_of_corpora(tmp_path):
    data = tmp_path / "data"
    gen_corpus(CorpusSpec(TAX, per_category=2, seed=1, image_size=40, categories=("cat", "bus")),
               data / "a")
    gen_corpus(CorpusSpec(TAX, per_category=1, seed=2, image_size=40, categories=("bird",)),
               data / "b")
    assert load_corpus(data) == load_corpus(data / "a") + load_corpus(data / "b")


@pytest.mark.parametrize("where", ["category_folder", "sketch_file"])
def test_a_category_folder_or_one_sketch_reads_the_poses_csv_above_it(tmp_path, where):
    data = tmp_path / "data"
    gen_corpus(CorpusSpec(TAX, per_category=2, seed=1, image_size=32, categories=("cat", "car")),
               data / "a")
    poses, samples = read_poses(data), load_corpus(data)
    path = data / "a" / "cat" if where == "category_folder" else data / "a/cat/0001.sketch.pgm"
    expected = ["0000", "0001"] if where == "category_folder" else ["0001"]
    # keyed relative to the folder, or to the file's own folder
    assert read_poses(path) == {f"{n}.sketch.pgm": poses[f"a/cat/{n}.sketch.pgm"]
                                for n in expected}
    assert load_corpus(path) == [s for s in samples if s.category == "cat"][-len(expected):]
    assert {s.category for s in load_corpus(path)} == {"cat"}


def test_a_label_map_keeps_the_row_of_its_own_sketch(tmp_path):
    gen_corpus(CorpusSpec(TAX, per_category=2, seed=1, image_size=32, categories=("cat",)),
               tmp_path / "c")
    poses, labels = read_poses(tmp_path / "c"), tmp_path / "c" / "cat" / "0001.labels.pgm"
    assert read_poses(labels) == {"0001.sketch.pgm": poses["cat/0001.sketch.pgm"]}
    # so the label map reads as its one sample, as training reads it
    assert load_corpus(labels) == load_corpus(tmp_path / "c")[1:]


def test_sample_files_names_relative_to_the_path_or_a_files_folder(tmp_path):
    data = tmp_path / "data"
    gen_corpus(CorpusSpec(TAX, per_category=1, seed=1, image_size=32, categories=("cat", "car")),
               data / "a")
    labels = data / "a" / "cat" / "0000.labels.pgm"
    assert sample_files(data, ".labels.pgm") == [("a/car/0000", data / "a/car/0000.labels.pgm"),
                                                 ("a/cat/0000", labels)]
    assert sample_files(data / "a" / "cat", ".labels.pgm") == [("0000", labels)]
    assert sample_files(labels, ".labels.pgm") == [("0000", labels)]
    assert sample_files(labels, ".sketch.pgm") == []
    assert sketch_files(data / "a" / "cat") == [("0000", data / "a/cat/0000.sketch.pgm")]
    # a label map is never a sketch, even given alone
    assert sketch_files(labels) == []
    plain = tmp_path / "plain.pgm"
    plain.write_bytes(labels.read_bytes())
    assert sketch_files(plain) == [("plain", plain)]


PETS_TEXT = "super Pets\ncat cat : head, body, leg, tail\n"


def test_read_taxonomy_reads_the_corpus_file(tmp_path):
    (tmp_path / "taxonomy.tax").write_text(PETS_TEXT)
    assert read_taxonomy(tmp_path).to_text() == PETS_TEXT


def test_read_taxonomy_reads_a_tree_whose_files_differ_only_in_comments(tmp_path):
    spaced = "# pets\nsuper  Pets \n\ncat cat:head,body,leg,tail  # four parts\n"
    for name, text in (("a", PETS_TEXT), ("b/c", spaced)):
        (tmp_path / name).mkdir(parents=True)
        (tmp_path / name / "taxonomy.tax").write_text(text)
    assert read_taxonomy(tmp_path).to_text() == PETS_TEXT


def test_read_taxonomy_refuses_two_files_that_differ_naming_both(tmp_path):
    for name, text in (("a", PETS_TEXT), ("b", DEFAULT_TAXONOMY_TEXT)):
        (tmp_path / name).mkdir()
        (tmp_path / name / "taxonomy.tax").write_text(text)
    with pytest.raises(ConfigError) as exc:
        read_taxonomy(tmp_path)
    assert str(exc.value) == (f"{tmp_path / 'a' / 'taxonomy.tax'} and "
                              f"{tmp_path / 'b' / 'taxonomy.tax'} name different taxonomies")


def test_read_taxonomy_without_a_file_gives_the_default(tmp_path):
    gen_corpus(CorpusSpec(TAX, per_category=1, seed=0, image_size=32, categories=("cat",)),
               tmp_path / "c")
    (tmp_path / "c" / "taxonomy.tax").unlink()
    default = load_taxonomy(DEFAULT_TAXONOMY_TEXT).digest()
    assert read_taxonomy(tmp_path).digest() == default
    assert read_taxonomy(tmp_path / "c" / "cat" / "0000.sketch.pgm").digest() == default


@pytest.mark.parametrize("rel", ["cat/0000.sketch.pgm", "cat/0000.labels.pgm", "cat"])
def test_read_taxonomy_of_a_file_or_sub_folder_is_the_nearest_one_above(tmp_path, rel):
    root = tmp_path / "c"
    gen_corpus(CorpusSpec(load_taxonomy(PETS_TEXT), per_category=1, seed=0, image_size=32), root)
    assert read_taxonomy(root / rel).to_text() == PETS_TEXT
    nearer = PETS_TEXT.replace("Pets", "Cats")  # under cat, or above its files: it wins
    (root / "cat" / "taxonomy.tax").write_text(nearer)
    assert read_taxonomy(root / rel).to_text() == nearer


def test_write_taxonomy_refuses_a_root_that_names_another(tmp_path):
    nested = tmp_path / "a" / "taxonomy.tax"
    nested.parent.mkdir()
    nested.write_text("# pets\n" + PETS_TEXT)
    write_taxonomy(tmp_path, load_taxonomy(PETS_TEXT))  # one digest: comments do not count
    assert (tmp_path / "taxonomy.tax").read_text() == PETS_TEXT
    before = sorted(tmp_path.rglob("*"))
    spec = CorpusSpec(TAX, per_category=1, seed=0, image_size=32, categories=("cat",))
    with pytest.raises(ConfigError) as exc:
        gen_corpus(spec, tmp_path)  # refused before a sample is written
    assert str(exc.value) == (f"{nested} names another taxonomy; "
                              f"{tmp_path} cannot hold outputs of two taxonomies")
    assert sorted(tmp_path.rglob("*")) == before


# canvas sides: the smallest allowed, odd, just under the default and twice it
WINDOW_SIZES = (32, 33, 127, 256)


def edge_centres(size):
    """Centres inside the canvas, on its first and last cells, and off each side."""
    return [(size * 0.41, size * 0.57), (0.0, size - 1.0), (size - 1.0, 0.0),
            (-6.5, size * 0.5), (size * 0.3, size + 4.25), (-30.0, -30.0)]


@pytest.mark.parametrize("size", WINDOW_SIZES)
def test_windowed_ellipse_matches_full_grid(size):
    options = (
        edge_centres(size),
        [(9.5, 4.25), (0.4, 0.7), (size * 0.45, 3.0), (2.5, size * 0.3)],  # radii
        [0.0, 0.4, math.pi / 2, 2.9],  # tilts
        [None, (0.04, 3, 1.0), (-0.3, 2, 5.0)],  # wobbles
        [1.6, 2.0, 3.0, 4.0],  # powers
    )
    # a seeded draw of 120 of the 1152 combinations keeps the 256 px case fast
    rng = np.random.default_rng(size)
    for _ in range(120):
        (cx, cy), (rx, ry), tilt, wobble, power = (o[rng.integers(len(o))] for o in options)
        args = (size, cx, cy, rx, ry, tilt, wobble, power)
        got = corpus._ellipse(*args)
        assert got.shape == (size, size)
        assert np.array_equal(got, ellipse_full_grid(*args)), args


@pytest.mark.parametrize("size", WINDOW_SIZES)
def test_windowed_capsule_matches_full_grid(size):
    ends = [(0.0, 0.0), (17.5, -3.0), (-9.0, 12.25), (0.0, size * 0.8)]  # the first is zero length
    for (cx, cy), (vx, vy), half_width in itertools.product(
        edge_centres(size), ends, (0.3, 1.0, 6.5)
    ):
        args = (size, (cx, cy), (cx + vx, cy + vy), half_width)
        got = corpus._capsule(*args)
        assert got.shape == (size, size)
        assert np.array_equal(got, capsule_full_grid(*args)), args


def test_windowed_figures_match_full_grid(monkeypatch):
    """Every category and pose, drawn with the windowed primitives and again
    with the full-grid ones, gives the same photo and labels."""

    def draw_all():
        cases = itertools.product(enumerate(TAX.categories), POSES)
        return [
            draw_figure(
                cat,
                pose,
                make_rng((19, ci, k)),
                WINDOW_SIZES[k % len(WINDOW_SIZES)],
                TAX.category_part_ids(cat),
            )
            for k, ((ci, cat), pose) in enumerate(cases)
        ]

    windowed = draw_all()
    # _box draws through _ellipse, so it follows the patch
    monkeypatch.setattr(corpus, "_ellipse", ellipse_full_grid)
    monkeypatch.setattr(corpus, "_capsule", capsule_full_grid)
    for (wp, wl), (fp, fl) in zip(windowed, draw_all(), strict=True):
        assert np.array_equal(wp.pixels, fp.pixels)
        assert np.array_equal(wl.labels, fl.labels)
