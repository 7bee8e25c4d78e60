"""Category / part / super-category bookkeeping.

Taxonomy text is line based:

    # comment
    super Small Animals
    cat cat : head, body, leg, tail
    cat dog : head, body, leg, tail

Every category belongs to exactly one super-category (one expert branch).
Within a branch, part names shared across categories map to a single id;
ids run 1..n per branch in order of first appearance, 0 is background
everywhere and is never listed as a part. Label maps and PGMs hold ids in
8 bits, so a branch has at most 255 parts.
"""

from __future__ import annotations

import hashlib
import warnings

import numpy as np

from .errors import ContractViolation, TaxonomyParseError


class Taxonomy:
    def __init__(self, supercategories, categories):
        # supercategories: name -> [category, ...]; categories: name -> [part, ...]
        self.supercategories = dict(supercategories)
        self.categories = dict(categories)
        self.branch_names = list(self.supercategories)
        self._branch_of = {}
        for b, (sname, cats) in enumerate(self.supercategories.items()):
            for c in cats:
                self._branch_of[c] = b
        self.part_ids = []
        for sname, cats in self.supercategories.items():
            table = {}
            for c in cats:
                for part in self.categories[c]:
                    if part not in table:
                        table[part] = len(table) + 1
            self.part_ids.append(table)

    @property
    def num_branches(self):
        return len(self.branch_names)

    def branch_of(self, category):
        if category not in self._branch_of:
            raise ContractViolation(f"unknown category {category!r}")
        return self._branch_of[category]

    def branch_index(self, super_name):
        try:
            return self.branch_names.index(super_name)
        except ValueError:
            raise ContractViolation(f"unknown super-category {super_name!r}") from None

    def n_parts(self, branch):
        return len(self.part_ids[branch])

    def part_names(self, branch):
        """Branch part names ordered by id (index 0 is id 1)."""
        table = self.part_ids[branch]
        return sorted(table, key=table.get)

    def label_counts(self, ids, branch, what="label map"):
        """np.bincount of `ids` over the labels 0..n of branch `branch`,
        background first. An id past the branch's parts breaks the contract,
        in a message that opens with `what`."""
        n = self.n_parts(branch)
        counts = np.bincount(np.ravel(ids), minlength=n + 1)
        if counts.size > n + 1:
            raise ContractViolation(
                f"{what} holds part id {counts.size - 1}, but branch {branch} has parts 1..{n}"
            )
        return counts

    def part_id_table(self, src, dst):
        """uint8[256] that takes each part id of branch `src` to the id of the
        part of the same name in branch `dst`. Background, a name that `dst`
        lacks and an id past `src`'s parts go to 0, which no part has."""
        table = np.zeros(256, dtype=np.uint8)
        for name, pid in self.part_ids[src].items():
            table[pid] = self.part_ids[dst].get(name, 0)
        return table

    def category_part_ids(self, category):
        branch = self.branch_of(category)
        table = self.part_ids[branch]
        return {part: table[part] for part in self.categories[category]}

    def to_text(self):
        lines = []
        for sname, cats in self.supercategories.items():
            lines.append(f"super {sname}")
            for c in cats:
                lines.append(f"cat {c} : " + ", ".join(self.categories[c]))
        return "\n".join(lines) + "\n"

    def digest(self):
        """32-byte fingerprint of the canonical text; pins checkpoints."""
        return hashlib.sha256(self.to_text().encode("utf-8")).digest()


def load_taxonomy(text):
    supercategories = {}
    categories = {}
    current = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("super "):
            name = line[len("super ") :].strip()
            if not name:
                raise TaxonomyParseError(line_no, "empty super-category name")
            if name in supercategories:
                raise TaxonomyParseError(line_no, f"duplicate super-category {name!r}")
            supercategories[name] = []
            current = name
        elif line.startswith("cat "):
            if current is None:
                raise TaxonomyParseError(line_no, "category before any super-category")
            body = line[len("cat ") :]
            if ":" not in body:
                raise TaxonomyParseError(line_no, "expected 'cat <name> : part, ...'")
            name, parts_text = body.split(":", 1)
            name = name.strip()
            parts = [p.strip() for p in parts_text.split(",") if p.strip()]
            if not name:
                raise TaxonomyParseError(line_no, "empty category name")
            if name in categories:
                raise TaxonomyParseError(line_no, f"category {name!r} already defined")
            if not parts:
                raise TaxonomyParseError(line_no, f"category {name!r} has no parts")
            if len(set(parts)) != len(parts):
                raise TaxonomyParseError(line_no, f"category {name!r} repeats a part")
            categories[name] = parts
            supercategories[current].append(name)
            if len({p for c in supercategories[current] for p in categories[c]}) > 255:
                raise TaxonomyParseError(line_no, f"super-category {current!r}: over 255 parts")
        else:
            raise TaxonomyParseError(line_no, f"unrecognized line {line!r}")
    if not supercategories:
        raise TaxonomyParseError(0, "no super-categories defined")
    for sname, cats in supercategories.items():
        if not cats:
            raise TaxonomyParseError(0, f"super-category {sname!r} has no categories")
    return Taxonomy(supercategories, categories)


def load_taxonomy_file(path):
    """Parse the file at `path`; every TaxonomyParseError names it."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return load_taxonomy(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        line_no = data.count(b"\n", 0, exc.start) + 1
        raise TaxonomyParseError(line_no, f"not UTF-8 text (byte {exc.start})", path) from None
    except TaxonomyParseError as exc:
        raise TaxonomyParseError(exc.line_no, exc.message, path) from None


def _jaccard(a, b):
    union = len(a | b)
    return len(a & b) / union if union else 0.0


def cluster_supercategories(part_sets, k):
    """Greedily merge the most part-alike clusters until k remain.

    part_sets maps category name to its part-name set. Similarity is the
    Jaccard ratio of the clusters' pooled part sets. Ties break on
    lexicographically smallest cluster-name pair. Returns sorted tuples of
    member categories.
    """
    if k < 1:
        raise ContractViolation(f"cluster count must be >= 1, got {k}")
    if k > len(part_sets):
        raise ContractViolation(f"cannot form {k} clusters from {len(part_sets)} categories")

    clusters = {(name,): frozenset(parts) for name, parts in part_sets.items()}
    while len(clusters) > k:
        best = None
        for a in sorted(clusters):
            for b in sorted(clusters):
                if a >= b:
                    continue
                key = (-_jaccard(clusters[a], clusters[b]), a, b)
                if best is None or key < best[0]:
                    best = (key, a, b)
        _, a, b = best
        merged = tuple(sorted(a + b))
        parts = clusters.pop(a) | clusters.pop(b)
        clusters[merged] = parts
    return sorted(clusters)


def assign_new_category(taxonomy, parts):
    """Super-category sharing the most part names with `parts`.

    Ties break lexicographically; a part set disjoint from every branch
    falls back to the lexicographically first super-category with a
    UserWarning.
    """
    parts = set(parts)
    if not parts:
        raise ContractViolation("cannot assign an empty part set")
    best_name = None
    best = -1
    for sname in taxonomy.branch_names:
        branch_parts = set(taxonomy.part_ids[taxonomy.branch_index(sname)])
        overlap = len(parts & branch_parts)
        if overlap > best or (overlap == best and sname < best_name):
            best, best_name = overlap, sname
    if best == 0:
        fallback = min(taxonomy.branch_names)
        warnings.warn(
            f"part set {sorted(parts)} shares nothing with any super-category; "
            f"falling back to {fallback!r}"
        )
        return fallback
    return best_name
