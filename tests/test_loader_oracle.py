"""The three text loaders against the per-line reference parsers in conftest.

Generated texts use only numerals that Python's int() / float() and numpy's
text reader read alike; a few lines are replaced by faults, so both the results
and the first error named (its line and text) are compared.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oversmooth import GraphFormatError, load_cora, load_edge_list, load_tu_dataset, make_graph

from conftest import reference_load_cora, reference_load_edge_list, reference_load_tu_dataset

SPACES = st.sampled_from([" ", "\t", "  ", " \t "])
PAD = st.sampled_from(["", " ", "\t"])
BLANKS = st.sampled_from(["", " ", "\t", "  \t "])

FLOAT_SPELLINGS = [
    "inf", "-inf", "+inf", "Infinity", "-Infinity", "INF", "nan", "-nan", "+nan", "NaN",
    "NAN", "-0.0", "+0", "0", "1E5", "+1.5e-3", ".5", "5.", "-.5e+3", "5e-324",
    "4.9406564584124654e-324", "2.2250738585072009e-308", "1e-400", "1e400", "007.5",
]
FLOAT_TOKENS = st.one_of(
    st.floats().map(repr),
    st.floats(allow_nan=False, allow_infinity=False, min_value=-1e12, max_value=1e12)
    .map(lambda v: "%.6f" % v),
    st.floats(allow_nan=False).map(lambda v: "%.17g" % v),
    st.floats(min_value=-2.3e-308, max_value=2.3e-308).map(repr),  # subnormals
    st.sampled_from(FLOAT_SPELLINGS),
)


def int_token(value):
    """value as one of the integer spellings int() and the reader share."""
    return st.sampled_from([str(value), f"+{value}", f"0{value}"] if value >= 0 else [str(value)])


def outcome(call):
    try:
        return call()
    except GraphFormatError as exc:
        return f"error: {exc}"


def same_array(a, b):
    if a is None or b is None:
        return a is b
    return a.shape == b.shape and a.dtype == b.dtype and np.array_equal(
        a.view(np.int64), b.view(np.int64))


def with_faults(draw, lines, kinds, counts=(0, 0, 1)):
    """lines with a few of them replaced by, or preceded by, a fault line.

    kinds lists the kinds of fault, each a list of lines; a kind is drawn first, so
    every kind comes up about as often as the others.
    """
    lines = list(lines)
    for _ in range(draw(st.sampled_from(counts))):
        at = draw(st.integers(0, len(lines)))
        fault = draw(st.sampled_from(draw(st.sampled_from(kinds))))
        if at < len(lines) and draw(st.booleans()):
            lines[at] = fault
        else:
            lines.insert(at, fault)
    return lines


@st.composite
def edge_list_texts(draw):
    n = draw(st.integers(1, 9))
    lines = draw(st.lists(st.sampled_from(["", "  ", "# a comment", "\t# c"]), max_size=2))
    if draw(st.booleans()):
        form = draw(st.sampled_from(["n {}", "n\t{}", " n {} ", "n {}  # nodes", "n  {}#"]))
        lines.append(form.format(draw(int_token(n))))
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["edge"] * 6 + ["blank", "comment"]))
        if kind == "blank":
            lines.append(draw(BLANKS))
        elif kind == "comment":
            lines.append(draw(PAD) + "# " + draw(st.sampled_from(["x y", "1 2", "n 3", ""])))
        else:
            i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)
                        if n > 1 else st.just([0, 0]))
            if i == j:
                continue
            tail = draw(st.sampled_from(["", "", " # c", "#c", "\t"]))
            lines.append(draw(PAD) + draw(int_token(i)) + draw(SPACES) + draw(int_token(j)) + tail)
    faults = [
        ["0 x", "x 1", "1.0 2"], ["0 1 2", "0"], ["-1 0", "0 -1"], ["2 2", "0 0", f"{n} {n}"],
        ["n 3", "n 9"], ["n", "n x", "n 1.5"], ["n 0", "n -2"], [f"0 {n + 2}", f"{n + 5} 1"],
        ["# only", "  ", "0 1 # x y z"],
    ]
    lines = with_faults(draw, lines, faults, counts=(0, 1, 1, 2))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\r\n"]))


@settings(max_examples=400, deadline=None)
@given(edge_list_texts())
def test_edge_list_matches_reference(text):
    want = outcome(lambda: reference_load_edge_list(text))
    got = outcome(lambda: load_edge_list(text))
    assert got == want


@st.composite
def tu_texts(draw):
    sizes = draw(st.lists(st.integers(1, 5), min_size=1, max_size=4))
    indicator = draw(st.permutations([g for g, s in enumerate(sizes, 1) for _ in range(s)]))
    total = len(indicator)
    members = {g: [v + 1 for v in range(total) if indicator[v] == g]
               for g in range(1, len(sizes) + 1)}
    adjacency = []
    for _ in range(draw(st.integers(0, 10))):
        nodes = members[draw(st.integers(1, len(sizes)))]
        if len(nodes) < 2:
            adjacency.append(draw(BLANKS))
            continue
        u, v = draw(st.lists(st.sampled_from(nodes), min_size=2, max_size=2, unique=True))
        form = draw(st.sampled_from(["{}, {}", "{},{}", "{} {}", "{}\t{}", "{},,{}", "{} ,{}",
                                     " {} , {} "]))
        adjacency.append(form.format(draw(int_token(u)), draw(int_token(v))))
    width = draw(st.integers(1, 3))
    comma = st.sampled_from([",", ", ", " ,", ",\t"])
    attributes = []
    for _ in range(total):
        cells = [draw(FLOAT_TOKENS) for _ in range(width)]
        row = cells[0]
        for cell in cells[1:]:
            row += draw(comma) + cell
        attributes.append(draw(PAD) + row + draw(PAD))
        if draw(st.integers(0, 9)) == 0:
            attributes.append(draw(BLANKS))
    cross = "1, 1"
    if len(sizes) > 1:
        cross = f"{members[1][0]}, {members[2][0]}"
    files = [
        with_faults(draw, map(str, indicator), [
            ["x", "1.5", "1 2", "1,"], ["0", "-1"], [str(len(sizes) + 2)], ["", "  "]]),
        with_faults(draw, adjacency, [
            ["1, 2, 3", "1", ",,", " , "], ["1, x", "x, 1", "1.0, 2"],
            ["0, 1", f"{total + 1}, 1", "-1, 2"], ["1, 1"], [cross], ["  "]]),
        with_faults(draw, attributes, [
            ["x", "1.0,,2.0", "1.0,", ",1.0", "1.0 2.0", "nan(1)", ","],
            ["1.0, 2.0, 3.0, 4.0"], [attributes[0]], ["  "]]),
    ]
    texts = ["\n".join(lines) + "\n" for lines in files]
    if draw(st.booleans()):
        texts[2] = None
    return texts


@settings(max_examples=400, deadline=None)
@given(tu_texts(), st.data())
def test_tu_dataset_matches_reference(texts, data):
    want = outcome(lambda: reference_load_tu_dataset(texts[1], texts[0], texts[2]))
    got = outcome(lambda: load_tu_dataset(texts[1], texts[0], texts[2]))
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
        return
    assert len(got) == len(want)
    for (g, x), (g_ref, x_ref) in zip(got, want):
        assert g == g_ref
        assert same_array(x, x_ref)
    indices = st.integers(-len(want), len(want) - 1)
    for k in data.draw(st.lists(indices, min_size=1, max_size=4), label="indices"):
        (g, x), (g_ref, x_ref) = got[k], want[k]
        assert g == g_ref
        assert same_array(x, x_ref)
    for k in (len(want), -len(want) - 1):
        with pytest.raises(IndexError):
            got[k]


CORA_IDS = st.lists(st.text("ab12_.", min_size=1, max_size=4), min_size=1, max_size=6,
                    unique=True)
CORA_LABELS = st.sampled_from(["Theory", "Neural_Networks", "7"])


def cora_cites(draw, ids):
    """A cites file over ids, with at most one fault line."""
    cites = []
    for _ in range(draw(st.integers(0, 8))):
        a, b = draw(st.sampled_from(ids)), draw(st.sampled_from(ids))
        cites.append(draw(PAD) + a + draw(SPACES) + b + draw(PAD))
    cites = with_faults(draw, cites, [
        [f"{ids[0]} zz"], [f"{ids[0]}", f"{ids[0]} {ids[0]} {ids[0]}"], ["  "]])
    return "\n".join(cites) + "\n"


@st.composite
def cora_texts(draw):
    ids = draw(CORA_IDS)
    width = draw(st.integers(1, 4))
    content = []
    for node_id in ids:
        line = draw(PAD) + node_id
        for _ in range(width):
            line += draw(SPACES) + draw(FLOAT_TOKENS)
        line += draw(SPACES) + draw(CORA_LABELS)
        content.append(line + draw(PAD))
        if draw(st.integers(0, 9)) == 0:
            content.append(draw(BLANKS))
    content = with_faults(draw, content, [
        ["zz 1.0", "zz"], [f"{ids[0]} 1.0 Theory"], ["zz x Theory", "zz 1,0 L"],
        ["zz 1.0 1.0 1.0 1.0 1.0 L"], ["  "]])
    return "\n".join(content) + "\n", cora_cites(draw, ids)


# what may stand in for one token (or one gap) of a single-digit row; each is read
# alike by float() and numpy's reader, so only the fast path is left out
DIGIT_NEAR_MISSES = ["01", "1.", "+1", "-0", "1e0"]
GAP_NEAR_MISSES = ["  ", "\t\t", " \t"]


@st.composite
def cora_digit_texts(draw):
    """Content files of single-digit features with ' ' / '\\t' gaps, as the real Cora has.

    At most one row holds a near miss: a token that is not one digit, a gap that is
    not one ' ' or '\\t', or one token too few (none at all if the width is 1).
    """
    ids = draw(CORA_IDS)
    width = draw(st.integers(1, 40))
    rows = [[draw(st.text("0123456789", min_size=width, max_size=width)),
             draw(st.text(" \t", min_size=width - 1, max_size=width - 1))] for _ in ids]
    at, column = draw(st.integers(0, len(ids) - 1)), draw(st.integers(0, width - 1))
    tokens, gaps = map(list, rows[at])
    miss = draw(st.sampled_from([None, "token", "gap", "short"]))
    if miss == "token":
        tokens[column] = draw(st.sampled_from(DIGIT_NEAR_MISSES))
    elif miss == "gap" and width > 1:
        gaps[column % (width - 1)] = draw(st.sampled_from(GAP_NEAR_MISSES))
    elif miss == "short":
        del tokens[-1], gaps[-1:]
    rows[at] = tokens, gaps
    content = []
    for node_id, (tokens, gaps) in zip(ids, rows):
        features = "".join(t + g for t, g in zip(tokens, [*gaps, ""]))
        line = draw(PAD) + node_id + draw(SPACES) + features + draw(SPACES) + draw(CORA_LABELS)
        content.append(line + draw(PAD))
        if draw(st.integers(0, 9)) == 0:
            content.append(draw(BLANKS))
    return "\n".join(content) + "\n", cora_cites(draw, ids)


def assert_cora_matches_reference(texts):
    want = outcome(lambda: reference_load_cora(*texts))
    got = outcome(lambda: load_cora(*texts))
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
        return
    assert got[0] == want[0]
    assert same_array(got[1], want[1])


@settings(max_examples=400, deadline=None)
@given(cora_texts())
def test_cora_matches_reference(texts):
    assert_cora_matches_reference(texts)


@settings(max_examples=300, deadline=None)
@given(cora_digit_texts())
def test_cora_digit_features_match_reference(texts):
    assert_cora_matches_reference(texts)


@settings(max_examples=200, deadline=None)
@given(cora_texts())
def test_cora_without_features_matches_reference(texts):
    # the structural faults and the graph are the same; no feature token is read
    want = outcome(lambda: reference_load_cora(*texts, read_features=False))
    got = outcome(lambda: load_cora(*texts, read_features=False))
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
        return
    assert got[0] == want[0] and got[1] is None


TWO_NODES = [(make_graph(2, [(0, 1)]), None)]

ACCEPTED_FORMS = [
    *[(lambda form=form: load_tu_dataset(form + "\n", "1\n1\n"), TWO_NODES)
      for form in ["1,2", "1 ,2", "1 2", "1\t2", "1,,2", "1, 2", " 1 , 2 ", "2,\t1"]],
    (lambda: load_tu_dataset("\n1, 2\n  \n\t\n2, 1\n", "\n1\n \n1\n\t\n"), TWO_NODES),
    (lambda: load_tu_dataset("1, 2\n", "1\n1\n", "1.0, 2.0\n\n  \n3.0,\t4.0 \n"),
     [(make_graph(2, [(0, 1)]), np.array([[1.0, 2.0], [3.0, 4.0]]))]),
    (lambda: load_tu_dataset("", "1\n2\n", " -1e-3 \n+inf\n"),
     [(make_graph(1, []), np.array([[-1e-3]])), (make_graph(1, []), np.array([[np.inf]]))]),
    (lambda: load_edge_list("# c\n\n  # c\nn 4\n0 1  # trailing\n# 2 3\n1\t2#c\n"),
     make_graph(4, [(0, 1), (1, 2)])),
    (lambda: load_edge_list("n 3 # three nodes\n"), make_graph(3, [])),
    (lambda: load_edge_list("  0   1  \n\n 2\t1\n"), make_graph(3, [(0, 1), (1, 2)])),
    (lambda: load_cora("a\t1\t0\tTheory\nb\t0\t1\tRule_Learning\n", "a\tb\n"),
     (make_graph(2, [(0, 1)]), np.array([[1.0, 0.0], [0.0, 1.0]]))),
    (lambda: load_cora(" a 1.5 -2 L \n\n  \nb  0 1e3  L\n", "\n b a \na a\n"),
     (make_graph(2, [(0, 1)]), np.array([[1.5, -2.0], [0.0, 1e3]]))),
]


@pytest.mark.parametrize("call,want", ACCEPTED_FORMS)
def test_accepted_forms(call, want):
    got = call()
    if isinstance(want, list):
        assert len(got) == len(want)
        pairs = [(g, x, g_ref, x_ref) for (g, x), (g_ref, x_ref) in zip(got, want)]
    elif isinstance(want, tuple):
        pairs = [(got[0], got[1], want[0], want[1])]
    else:
        pairs = [(got, None, want, None)]
    for g, x, g_ref, x_ref in pairs:
        assert g == g_ref
        assert same_array(x, x_ref)
