import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sketchparts.errors import ContractViolation, TaxonomyParseError
from sketchparts.taxonomy import (
    Taxonomy,
    assign_new_category,
    cluster_supercategories,
    load_taxonomy,
    load_taxonomy_file,
)

ELEVEN_CATEGORY_TEXT = """
# desk copy of the five-branch animal/vehicle taxonomy
super Large Animals
cat cow : head, body, leg, tail, horn
cat horse : head, body, leg, tail
super Small Animals
cat cat : head, body, leg, tail
cat dog : head, body, leg, tail
cat sheep : head, body, leg, tail
super Four Wheelers
cat bus : body, wheel, window
cat car : body, wheel, window
super Two Wheelers
cat bicycle : handlebar, wheel, seat, frame
cat motorbike : handlebar, wheel, seat, frame
super Flying Things
cat airplane : body, wing, tail
cat flying bird : head, body, wing, tail, leg
"""


def test_eleven_categories_five_branches():
    t = load_taxonomy(ELEVEN_CATEGORY_TEXT)
    assert t.num_branches == 5
    assert len(t.categories) == 11


def test_single_category_ids():
    t = load_taxonomy("super S\ncat thing : head, body\n")
    assert t.n_parts(0) == 2
    assert t.part_ids[0] == {"head": 1, "body": 2}


def test_shared_part_single_id():
    t = load_taxonomy(ELEVEN_CATEGORY_TEXT)
    b = t.branch_of("cow")
    assert t.branch_of("horse") == b
    assert t.category_part_ids("cow")["tail"] == t.category_part_ids("horse")["tail"]


def test_id_table_is_bijection():
    t = load_taxonomy(ELEVEN_CATEGORY_TEXT)
    for b in range(t.num_branches):
        ids = sorted(t.part_ids[b].values())
        assert ids == list(range(1, t.n_parts(b) + 1))


# Large Animals numbers Small Animals' four parts alike and adds the cow's
# horn (5), which Small Animals lacks; Four Wheelers' body is Small Animals'
# id 2, and its wheel and window have no namesake there
@pytest.mark.parametrize(
    "src, dst, want",
    [("Small Animals", "Large Animals", [0, 1, 2, 3, 4, 0]),
     ("Large Animals", "Small Animals", [0, 1, 2, 3, 4, 0]),
     ("Four Wheelers", "Small Animals", [0, 2, 0, 0, 0, 0])],
    ids=["small_to_large", "large_to_small", "wheelers_to_small"],
)
def test_part_id_table_maps_by_name(src, dst, want):
    tax = load_taxonomy(ELEVEN_CATEGORY_TEXT)
    table = tax.part_id_table(tax.branch_index(src), tax.branch_index(dst))
    assert table.dtype == np.uint8 and table.shape == (256,)
    assert table[:6].tolist() == want and not table[6:].any()


def test_duplicate_category_line_number():
    text = "super S\ncat a : x\ncat a : y\n"
    with pytest.raises(TaxonomyParseError, match="line 3"):
        load_taxonomy(text)


def test_category_in_two_supers_rejected():
    text = "super S\ncat a : x\nsuper T\ncat a : x\n"
    with pytest.raises(TaxonomyParseError, match="already defined"):
        load_taxonomy(text)


def test_empty_part_list_rejected():
    with pytest.raises(TaxonomyParseError, match="no parts"):
        load_taxonomy("super S\ncat a :\n")


def test_branch_of_more_than_255_parts_rejected_at_its_line():
    # part ids are stored in 8-bit label maps and PGMs; shared names count once
    names = [f"p{i}" for i in range(1, 257)]
    text = "super S\ncat a : " + ", ".join(names[:200]) + "\ncat b : " + ", ".join(names[100:255])
    tax = load_taxonomy(text + "\nsuper T\ncat c : " + ", ".join(names[:200]) + "\n")
    assert [tax.n_parts(b) for b in range(2)] == [255, 200]
    with pytest.raises(TaxonomyParseError, match="line 4: super-category 'S': over 255 parts"):
        load_taxonomy(text + "\ncat c : p1, p256\n")


def test_digest_stable_and_sensitive():
    t1 = load_taxonomy(ELEVEN_CATEGORY_TEXT)
    t2 = load_taxonomy(ELEVEN_CATEGORY_TEXT)
    t3 = load_taxonomy("super S\ncat a : x\n")
    assert t1.digest() == t2.digest()
    assert t1.digest() != t3.digest()
    assert len(t1.digest()) == 32


class TestClustering:
    PART_SETS = {
        "flying bird": {"head", "body", "wing", "tail"},
        "airplane": {"body", "wing", "tail"},
        "cow": {"head", "body", "leg", "tail", "horn", "udder"},
        "horse": {"head", "body", "leg", "tail"},
        "car": {"body", "wheel", "window"},
    }

    def test_bird_and_airplane_merge_first(self):
        # the wing-sharing pair has the largest fraction of common parts,
        # so it must be the first merge at K=4
        clusters = cluster_supercategories(self.PART_SETS, 4)
        assert ("airplane", "flying bird") in clusters

    def test_k_equals_n_gives_singletons(self):
        clusters = cluster_supercategories(self.PART_SETS, len(self.PART_SETS))
        assert clusters == sorted((name,) for name in self.PART_SETS)

    def test_identical_sets_cocluster_before_others(self):
        # exhaustive pairwise-similarity oracle: the first merge must be a
        # pair of maximal Jaccard similarity
        sets = {"a": {"x", "y"}, "b": {"x", "y"}, "c": {"x", "z"}, "d": {"q"}}
        sims = {}
        for p, q in itertools.combinations(sorted(sets), 2):
            inter = len(sets[p] & sets[q])
            union = len(sets[p] | sets[q])
            sims[(p, q)] = inter / union
        best_pair = max(sims, key=lambda k: (sims[k], k))
        clusters = cluster_supercategories(sets, 3)
        assert tuple(sorted(best_pair)) in clusters
        assert best_pair == ("a", "b")

    def test_k_below_one_rejected(self):
        with pytest.raises(ContractViolation):
            cluster_supercategories(self.PART_SETS, 0)

    def test_deterministic(self):
        a = cluster_supercategories(self.PART_SETS, 2)
        b = cluster_supercategories(dict(reversed(self.PART_SETS.items())), 2)
        assert a == b


class TestAssignNewCategory:
    def test_exact_copy_maps_home(self):
        t = load_taxonomy(ELEVEN_CATEGORY_TEXT)
        full_branch = set(t.part_ids[t.branch_index("Large Animals")])
        assert assign_new_category(t, full_branch) == "Large Animals"

    def test_elephant_like_set(self):
        t = load_taxonomy(ELEVEN_CATEGORY_TEXT)
        parts = {"head", "body", "leg", "tail", "trunk"}
        # counted-intersection oracle over every branch
        best = max(
            t.branch_names,
            key=lambda s: (len(parts & set(t.part_ids[t.branch_index(s)])), s),
        )
        got = assign_new_category(t, parts)
        assert len(parts & set(t.part_ids[t.branch_index(got)])) == len(
            parts & set(t.part_ids[t.branch_index(best)])
        )

    def test_disjoint_set_warns_and_falls_back(self):
        t = load_taxonomy(ELEVEN_CATEGORY_TEXT)
        with pytest.warns(UserWarning, match="shares nothing"):
            got = assign_new_category(t, {"antenna", "hull"})
        assert got == min(t.branch_names)

    def test_does_not_mutate(self):
        t = load_taxonomy(ELEVEN_CATEGORY_TEXT)
        before = t.to_text()
        assign_new_category(t, {"head", "wing"})
        assert t.to_text() == before


@pytest.mark.parametrize(
    "raw,line_no,message",
    [
        (b"super S\nbogus line\n", 2, "unrecognized line 'bogus line'"),
        (b"super S\ncat thing : a, b\n\xff\xfe\n", 3, "not UTF-8 text (byte 25)"),
        (b"", 0, "no super-categories defined"),
    ],
    ids=["unrecognized_line", "not_utf8", "empty"],
)
def test_every_file_parse_error_names_the_file_and_line(tmp_path, raw, line_no, message):
    path = tmp_path / "bad.tax"
    path.write_bytes(raw)
    with pytest.raises(TaxonomyParseError) as exc:
        load_taxonomy_file(path)
    assert str(exc.value) == f"{path} line {line_no}: {message}"
    assert exc.value.line_no == line_no


def test_file_matches_text(tmp_path):
    path = tmp_path / "ok.tax"
    path.write_bytes(ELEVEN_CATEGORY_TEXT.replace("\n", "\r\n").encode("utf-8"))
    assert load_taxonomy_file(path).to_text() == load_taxonomy(ELEVEN_CATEGORY_TEXT).to_text()


names = st.text(alphabet=st.characters(codec="utf-8"), max_size=6)
taxonomy_line = st.one_of(
    names,
    st.builds("super {}".format, names),
    st.builds(
        lambda name, parts, sep: f"cat {name}{sep}{', '.join(parts)}",
        names,
        st.lists(names, max_size=4),
        st.sampled_from([" : ", ":", " ", ""]),
    ),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(taxonomy_line, max_size=8).map("\n".join))
def test_fuzz_only_parse_errors_escape(text):
    try:
        tax = load_taxonomy(text)
    except TaxonomyParseError:
        return
    assert isinstance(tax, Taxonomy)


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=64))
def test_fuzz_file_bytes_only_parse_errors_escape(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("fuzz") / "t.tax"
    path.write_bytes(data)
    try:
        tax = load_taxonomy_file(path)
    except TaxonomyParseError:
        return
    assert isinstance(tax, Taxonomy)
