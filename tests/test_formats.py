import pytest

from indmatch import (
    DuplicateEdgeError,
    FormatError,
    RandomGraphConfig,
    SplitMix64,
    build_graph,
    format_certificate,
    format_graph,
    format_matching,
    gen_c25,
    gen_path,
    gen_random_maxdeg4,
    gen_tight9,
    parse_certificate_text,
    parse_graph_file,
    parse_graph_text,
    parse_matching_text,
    solve,
)


def test_parse_graph_minimal():
    g = parse_graph_text("2 1\n0 1\n")
    assert g.n == 2
    assert g.edges() == [(0, 1)]


def test_parse_graph_comments_and_blanks():
    text = "# a header comment\n\n3 2\n# an edge comment\n0 1\n\n1 2\n"
    g = parse_graph_text(text)
    assert g.edges() == [(0, 1), (1, 2)]


def test_format_graph_header_and_roundtrip():
    text = format_graph(gen_c25())
    assert text.startswith("10 20\n")
    assert "#" not in text
    assert parse_graph_text(text).edges() == gen_c25().edges()


def test_format_graph_relabels_noncontiguous_ids():
    sub = gen_path(5).subgraph({1, 2, 3})
    assert format_graph(sub) == "3 2\n0 1\n1 2\n"


def test_graph_roundtrip_random():
    prng = SplitMix64(99)
    for _ in range(20):
        n = 1 + prng.below(50)
        g = gen_random_maxdeg4(
            RandomGraphConfig(n=n, extra_edge_attempts=n, seed=prng.next_u64())
        )
        text = format_graph(g)
        assert text == f"{g.n} {g.m}\n" + "".join(f"{u} {v}\n" for u, v in g.edges())
        back = parse_graph_text(text)
        assert back.n == g.n
        assert back.edges() == g.edges()
        # A subgraph on every other id is written with each id's rank.
        keep = sorted(g.vertices())[::2]
        rank = {v: i for i, v in enumerate(keep)}
        sub = g.subgraph(keep)
        assert format_graph(sub) == f"{sub.n} {sub.m}\n" + "".join(
            f"{rank[u]} {rank[v]}\n" for u, v in sub.edges()
        )


def test_parse_graph_errors():
    with pytest.raises(FormatError, match="empty graph file"):
        parse_graph_text("# only comments\n\n")
    with pytest.raises(FormatError, match="line 2: an edge is not numeric"):
        parse_graph_text("1 2\nx y\n")
    with pytest.raises(FormatError, match="line 1: negative count"):
        parse_graph_text("2 -1\n")
    with pytest.raises(FormatError, match="line 2: more than 0 edge lines"):
        parse_graph_text("1 0\n0 1\n")
    with pytest.raises(FormatError, match="expected 2 edge lines, found 1"):
        parse_graph_text("3 2\n0 1\n")
    with pytest.raises(FormatError, match="line 2: expected two integers"):
        parse_graph_text("2 1\n0 1 2\n")
    with pytest.raises(FormatError, match="expected two integers"):
        parse_graph_text("3\n")
    with pytest.raises(DuplicateEdgeError):
        parse_graph_text("2 2\n0 1\n1 0\n")


def test_parse_graph_file(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text(format_graph(gen_tight9()))
    assert parse_graph_file(path).edges() == gen_tight9().edges()


def test_matching_roundtrip():
    assert format_matching([]) == ""
    assert parse_matching_text("") == ()
    text = format_matching([(3, 4), (1, 0)])
    assert text == "0 1\n3 4\n"
    assert parse_matching_text(text) == ((0, 1), (3, 4))
    assert parse_matching_text("# note\n5 2\n\n0 1\n") == ((0, 1), (2, 5))
    with pytest.raises(FormatError, match="a matched pair is not numeric"):
        parse_matching_text("1 two\n")
    with pytest.raises(FormatError, match="expected two integers for a matched"):
        parse_matching_text("1 2 3\n")


def test_certificate_exact_only():
    text = format_certificate(solve(gen_tight9()))
    assert text == "step 1 rule EXACT match 0-1 remove 0,1,2,3,4,5,6,7,8\nmatching 0-1\n"


def test_certificate_roundtrip():
    result = solve(gen_path(20))
    text = format_certificate(result)
    assert text == (
        "step 1 rule R1 match 0-1 remove 0,1,2\n"
        "step 2 rule EXACT match 3-4,6-7,9-10,12-13,15-16,18-19"
        " remove 3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19\n"
        "matching 0-1,3-4,6-7,9-10,12-13,15-16,18-19\n"
    )
    cert, matching = parse_certificate_text(text)
    assert cert == result.certificate
    assert matching == result.matching


def test_certificate_roundtrip_random():
    prng = SplitMix64(4242)
    for _ in range(15):
        n = 2 + prng.below(80)
        g = gen_random_maxdeg4(
            RandomGraphConfig(n=n, extra_edge_attempts=2 * n, seed=prng.next_u64())
        )
        result = solve(g)
        cert, matching = parse_certificate_text(format_certificate(result))
        assert cert == result.certificate
        assert matching == result.matching


def test_parse_certificate_tolerates_annotations():
    text = "# produced by hand\nstep 1 rule EXACT match 0-1 remove 0,1\n\nmatching 0-1\n"
    cert, matching = parse_certificate_text(text)
    assert len(cert.steps) == 1
    assert matching == ((0, 1),)


def test_parse_certificate_errors():
    ok_step = "step 1 rule EXACT match 0-1 remove 0,1\n"
    with pytest.raises(FormatError, match="no final matching line"):
        parse_certificate_text(ok_step)
    with pytest.raises(FormatError, match="step 2 out of order"):
        parse_certificate_text(ok_step.replace("step 1", "step 2") + "matching\n")
    with pytest.raises(FormatError, match="unknown rule 'R13'"):
        parse_certificate_text(ok_step.replace("EXACT", "R13") + "matching\n")
    with pytest.raises(FormatError, match="bad step number"):
        parse_certificate_text(ok_step.replace("step 1", "step one") + "matching\n")
    with pytest.raises(FormatError, match="malformed step line"):
        parse_certificate_text("step 1 rule EXACT match 0-1\nmatching\n")
    with pytest.raises(FormatError, match="bad pair '0:1'"):
        parse_certificate_text(ok_step.replace("0-1", "0:1") + "matching\n")
    with pytest.raises(FormatError, match="bad id list"):
        parse_certificate_text(ok_step.replace("0,1", "0,x") + "matching\n")
    with pytest.raises(FormatError, match="content after the matching"):
        parse_certificate_text(ok_step + "matching 0-1\n" + ok_step)
    with pytest.raises(FormatError, match="malformed matching line"):
        parse_certificate_text(ok_step + "matching 0-1 extra\n")


def test_empty_matching_line():
    text = format_certificate(solve(build_graph(2, [(0, 1)])))
    assert text.endswith("matching 0-1\n")
    assert format_certificate(solve(build_graph(3, []))) == "matching\n"
    cert, matching = parse_certificate_text(
        "step 1 rule EXACT match 0-1 remove 0,1\nmatching\n"
    )
    assert matching == ()

