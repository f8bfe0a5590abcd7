import hashlib

import pytest

from commkit import (
    Community,
    Graph,
    build_keyword_list,
    load_metadata,
    predict_keywords,
    prediction_curve,
)
from commkit.cli import EXIT_OK, main
from commkit.errors import ConfigError, InputError
from commkit.domsets import DomSetResult
from commkit.keywords import NodeMetadata, normalize_keyword
from graphs import p_ids, write_input

# ---------------------------------------------------------------------------
# 20-paper citation fixture.  Two hubs n01/n02 form the 0.8-IDS (n01 covers
# n03..n12, n02 covers n13..n20).  Eligible keywords and their community-wide
# listing counts:
#   black holes   3  (n01, n02, n13)
#   gauge theory  3  (n01, n03, n04)
#   string theory 2  (n02, n05)
# so the candidate order is [black holes, gauge theory, string theory].
#
# Hand-worked prediction oracle over the 14 unlabeled papers:
#   prefix 1: n06, n14, n15, n18 confirmed            (4 papers)
#   prefix 2: + n07, n19                              (6 papers)
#   prefix 3: + n08, n16, then saturated              (8 papers)
# n09 ("Blackholes"), n11 ("gauge theories"), n12 ("black hole") and n20
# never match; n10 has no title or abstract; n17 no overlap.

FIXTURE_EDGES = (
    [("n01", f"n{i:02d}") for i in range(3, 13)]
    + [("n02", f"n{i:02d}") for i in range(13, 21)]
    + [("n01", "n02"), ("n01", "x1"), ("n02", "x2")]
)

FIXTURE_METADATA = "\n".join(
    [
        "n01\tTwo lectures\tsurvey\tGauge Theory; black holes",
        "n02\tMore lectures\tsurvey\tstring theory; Black Holes",
        "n03\tgauge theory review\t\tgauge theory",
        "n04\tAnother review\t\tgauge theory",
        "n05\tCompact notes\t\tstring theory; cosmology",
        "n06\tBlack holes and information\t\t",
        "n07\tOn gauge theory dualities\t\t",
        "n08\tEntropy bounds\twe study string theory compactifications\t",
        "n09\tBlackholes in AdS\t\t",
        "n10\t\t\t",
        "n11\t\tgauge theories beyond the standard model\t",
        "n12\tBlack hole entropy\t\t",
        "n13\tHorizon notes\t\tBlack Holes",
        "n14\tStrings and black holes in gauge theory\t\t",
        "n15\tA survey\ta black holes survey\t",
        "n16\tLectures on string theory\t\t",
        "n17\tLattice methods\tnumerical results\t",
        "n18\tBLACK HOLES AT LARGE N\t\t",
        "n19\tDualities\tapplications of gauge theory, and more\t",
        "n20\ttheory of everything\t\t",
    ]
) + "\n"


@pytest.fixture
def fixture_graph():
    return Graph(FIXTURE_EDGES)


@pytest.fixture
def fixture_community(fixture_graph):
    members = frozenset(fixture_graph.index(f"n{i:02d}") for i in range(1, 21))
    return Community("hep", members)


@pytest.fixture
def fixture_metadata(tmp_path):
    return load_metadata(write_input(tmp_path, FIXTURE_METADATA))


@pytest.fixture
def fixture_candidates(fixture_graph, fixture_community, fixture_metadata):
    return candidates_of(fixture_community, fixture_graph, fixture_metadata)


def candidates_of(community, graph, metadata):
    """The candidate list the pipeline builds: keywords of the community's p-IDS."""
    return build_keyword_list(community, graph, metadata, p_ids(community, graph))


def test_normalize_keyword():
    assert normalize_keyword("  Gauge   Theory ") == "gauge theory"
    assert normalize_keyword("black-holes") == "black holes"


def test_normalize_keyword_strips_punctuation_and_case():
    assert normalize_keyword("Black hole, entropy!") == "black hole entropy"


def test_a_candidate_matches_contiguous_whole_tokens_only():
    papers = {
        "p1": ("a b c", ""),  # "a c" is not contiguous here; empty abstract
        "p2": ("ab", "x-ab"),  # neither "a b" nor "b" matches the one token "ab"
        "p3": ("", "A, b!"),  # empty title: the abstract still matches
        "p4": ("a b", "a b"),  # the title is checked first
        "p5": ("--", " "),  # no tokens in either field
    }
    g = Graph([("hub", label) for label in papers])
    community = Community("c", frozenset(range(g.node_count)))
    metadata = {label: NodeMetadata(label, title, abstract, ()) for label, (title, abstract) in papers.items()}
    # a hand-built keyword without tokens keeps its place in the list and never matches
    keywords = ["--", "a c", "a b", "b c", "b"]
    predictions = predict_keywords(community, g, metadata, keywords)
    got = {p.label: dict(zip(p.predicted, p.matched_fields)) for p in predictions}
    assert got == {
        "p1": {"a b": "title", "b c": "title", "b": "title"},
        "p3": {"a b": "abstract", "b": "abstract"},
        "p4": {"a b": "title", "b": "title"},
    }
    assert predict_keywords(community, g, metadata, keywords[:2]) == []


def test_load_metadata_normalizes_and_dedupes(tmp_path):
    records = load_metadata(write_input(tmp_path, "p1\tT\tA\tFoo; foo ;Bar\n"))
    assert records["p1"].keywords == ("foo", "bar")


def test_load_metadata_tolerates_short_rows(tmp_path):
    records = load_metadata(write_input(tmp_path, "p1\tTitle only\n"))
    assert records["p1"].title == "Title only"
    assert records["p1"].abstract == ""
    assert records["p1"].keywords == ()


def test_load_metadata_rejects_more_than_four_fields(tmp_path):
    # a tab inside the abstract would otherwise shift "a tab" into the keywords and drop "foo;bar"
    with pytest.raises(InputError, match="line 2: expected at most 4 tab-separated fields, got 5"):
        load_metadata(write_input(tmp_path, "p0\tT\tA\tk\np1\tTitle\tAbstract with\ta tab\tfoo;bar\n"))


def test_load_metadata_strips_the_label(tmp_path):
    records = load_metadata(write_input(tmp_path, " a \tT one\tA one\tspin glass\n"))
    assert records == {"a": NodeMetadata("a", "T one", "A one", ("spin glass",))}


def test_load_metadata_label_repeated_with_whitespace_is_an_error(tmp_path):
    with pytest.raises(InputError, match="line 2: metadata label 'a' repeats line 1"):
        load_metadata(write_input(tmp_path, "a\tT\tA\tfoo\na \tU\tB\tbar\n"))


def test_load_metadata_rejects_an_empty_label(tmp_path):
    # one such line alone would otherwise pass as a record that names no node
    with pytest.raises(InputError, match="^line 2: empty metadata label$"):
        load_metadata(write_input(tmp_path, "a\tT\tA\tfoo\n \tT one\tabs\tfoo\n"))


def test_load_metadata_skips_indented_comments(tmp_path):
    records = load_metadata(write_input(tmp_path, "  # note\tfoo\n\t# tabbed\n# plain\n \t \na\tT\n"))
    assert list(records) == ["a"]


def test_load_metadata_strips_a_byte_order_mark(tmp_path):
    plain, marked = tmp_path / "plain.tsv", tmp_path / "marked.tsv"
    plain.write_bytes(b"a\tT\tA\tfoo\nb\tU\tB\t\n")
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    records = load_metadata(marked)
    assert records == load_metadata(plain)
    assert list(records) == ["a", "b"]


def test_build_keyword_list_order(fixture_graph, fixture_community, fixture_metadata):
    assert candidates_of(fixture_community, fixture_graph, fixture_metadata) == [
        "black holes",
        "gauge theory",
        "string theory",
    ]


def test_build_keyword_list_ranks_by_community_count_not_set_count():
    # the set {h1, h2} lists x twice and y once, but the community lists y four times and x twice
    g = Graph([("h1", "a"), ("h1", "b"), ("h2", "c"), ("h1", "h2")])
    community = Community("c", frozenset(range(g.node_count)))
    domset = DomSetResult("c", "internal", "p", 0.8, frozenset({g.index("h1"), g.index("h2")}), 1.0)
    listed = {"h1": ("x", "y"), "h2": ("x",), "a": ("y",), "b": ("y",), "c": ("y",)}
    metadata = {label: NodeMetadata(label, "", "", keywords) for label, keywords in listed.items()}
    assert build_keyword_list(community, g, metadata, domset) == ["y", "x"]


def test_build_keyword_list_excludes_non_ids_keywords(
    fixture_graph, fixture_community, fixture_metadata
):
    # n05 lists "cosmology" but no dominating-set member does
    candidates = candidates_of(fixture_community, fixture_graph, fixture_metadata)
    assert "cosmology" not in candidates


def test_build_keyword_list_empty_without_metadata(fixture_graph, fixture_community):
    assert candidates_of(fixture_community, fixture_graph, {}) == []


def test_tie_breaks_lexicographically(tmp_path):
    g = Graph([("hub", "a"), ("hub", "b")])
    c = Community("c", frozenset(range(g.node_count)))
    metadata = load_metadata(write_input(tmp_path, "hub\tT\tA\tzeta; alpha\n"))
    assert candidates_of(c, g, metadata) == ["alpha", "zeta"]


def test_predict_prefix_one(fixture_graph, fixture_community, fixture_metadata, fixture_candidates):
    predictions = predict_keywords(fixture_community, fixture_graph, fixture_metadata, fixture_candidates[:1])
    assert len(predictions) == 4
    assert {p.label for p in predictions} == {"n06", "n14", "n15", "n18"}


def test_predict_prefix_two(fixture_graph, fixture_community, fixture_metadata, fixture_candidates):
    predictions = predict_keywords(fixture_community, fixture_graph, fixture_metadata, fixture_candidates[:2])
    assert {p.label for p in predictions} == {
        "n06",
        "n07",
        "n14",
        "n15",
        "n18",
        "n19",
    }


def test_predict_prefix_three_full_oracle(fixture_graph, fixture_community, fixture_metadata, fixture_candidates):
    predictions = predict_keywords(fixture_community, fixture_graph, fixture_metadata, fixture_candidates[:3])
    expected = {
        "n06": (("black holes",), ("title",)),
        "n07": (("gauge theory",), ("title",)),
        "n08": (("string theory",), ("abstract",)),
        "n14": (("black holes", "gauge theory"), ("title", "title")),
        "n15": (("black holes",), ("abstract",)),
        "n16": (("string theory",), ("title",)),
        "n18": (("black holes",), ("title",)),
        "n19": (("gauge theory",), ("abstract",)),
    }
    got = {p.label: (p.predicted, p.matched_fields) for p in predictions}
    assert got == expected
    assert len(predictions) == 8


def test_labeled_papers_never_predicted(fixture_graph, fixture_community, fixture_metadata, fixture_candidates):
    # n03's title matches "gauge theory" but its authors listed keywords
    predictions = predict_keywords(fixture_community, fixture_graph, fixture_metadata, fixture_candidates[:3])
    assert "n03" not in {p.label for p in predictions}


def test_predictions_only_from_candidate_prefix(fixture_graph, fixture_community, fixture_metadata, fixture_candidates):
    for prediction in predict_keywords(fixture_community, fixture_graph, fixture_metadata, fixture_candidates[:1]):
        assert set(prediction.predicted) <= {"black holes"}


def _curve(communities, graph, metadata, lengths):
    # as the pipeline does: each keyword list cut to the longest length
    scored = []
    for community in communities:
        keywords = candidates_of(community, graph, metadata)[: max(lengths)]
        scored.append((keywords, predict_keywords(community, graph, metadata, keywords)))
    return prediction_curve(scored, lengths)


def test_prediction_curve_matches_oracle(fixture_graph, fixture_community, fixture_metadata):
    curve = _curve([fixture_community], fixture_graph, fixture_metadata, [1, 2, 3, 4, 10])
    assert curve == [(1, 4), (2, 6), (3, 8), (4, 8), (10, 8)]


def test_prediction_curve_equals_predictions_per_length(fixture_graph, fixture_metadata):
    # overlapping communities whose candidate lists start with different keywords
    g = fixture_graph
    a = Community("a", frozenset(g.index(f"n{i:02d}") for i in range(1, 21)))
    b = Community("b", frozenset(g.index(f"n{i:02d}") for i in range(3, 21)))
    lengths = [1, 2, 3, 4]
    candidates = {c: candidates_of(c, g, fixture_metadata) for c in (a, b)}

    def confirmed(length):
        return {p.label for c in (a, b) for p in predict_keywords(c, g, fixture_metadata, candidates[c][:length])}

    per_length = [(length, len(confirmed(length))) for length in lengths]
    assert per_length[0] == (1, 6)
    assert _curve([a, b], g, fixture_metadata, lengths) == per_length


def test_prediction_curve_is_monotone(fixture_graph, fixture_community, fixture_metadata):
    curve = _curve([fixture_community], fixture_graph, fixture_metadata, list(range(1, 8)))
    counts = [count for _, count in curve]
    assert counts == sorted(counts)


def test_prediction_curve_rejects_unsorted_lengths(fixture_graph, fixture_community, fixture_metadata):
    with pytest.raises(ConfigError):
        _curve([fixture_community], fixture_graph, fixture_metadata, [3, 1])


def test_prediction_curve_counts_overlapping_paper_once(fixture_graph, fixture_metadata):
    members = frozenset(fixture_graph.index(f"n{i:02d}") for i in range(1, 21))
    a = Community("a", members)
    b = Community("b", members)
    single = _curve([a], fixture_graph, fixture_metadata, [3])
    double = _curve([a, b], fixture_graph, fixture_metadata, [3])
    assert single == double


# sha256 of `commkit all --metadata` keyword artifacts on the fixture above, one community of
# n01..n20; any change to a prediction or to the curve shows here.
GOLDEN_KEYWORDS = {
    "keyword_predictions.jsonl": "73e632e38ef693ecdb143bcfe82aa91391c2f71481337bdaf761a9f0a2013b85",
    "keyword_curve.csv": "4419f6d09a38a3d3a00fb97507d1754ce37c146487344a7f956f94c1417291c8",
}


def test_keyword_artifacts_match_golden_digests(tmp_path):
    graph = write_input(tmp_path, "".join(f"{a} {b}\n" for a, b in FIXTURE_EDGES), "hep.edges")
    members = " ".join(f"n{i:02d}" for i in range(1, 21))
    communities = write_input(tmp_path, f"hep: {members}\n", "hep.communities")
    metadata = write_input(tmp_path, FIXTURE_METADATA, "hep.tsv")
    out = tmp_path / "out"
    args = ["all", "--graph", str(graph), "--communities", str(communities), "--metadata", str(metadata)]
    assert main([*args, "--out", str(out)]) == EXIT_OK
    produced = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in GOLDEN_KEYWORDS}
    assert produced == GOLDEN_KEYWORDS
