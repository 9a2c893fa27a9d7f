import re
import string
from contextlib import contextmanager
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hcratio import (
    DuplicateEdge,
    InvalidTriplet,
    InvalidWeight,
    ParseError,
    SelfLoop,
    base_cost,
    load_edge_list,
    load_graph,
    load_matrix,
    triplet_type,
)
from hcratio import approx_tree, detect
from hcratio import graph as graph_mod
from hcratio.approx import build_constraints
from hcratio.detect import minimal_valid_partition
from hcratio.randgraph import gen_er, gen_planted

from helpers import (
    clique_graph,
    graph_from,
    linked_stars,
    oracle_base,
    oracle_build_constraints,
    oracle_float_base,
    oracle_load_edge_list,
    oracle_load_graph,
    oracle_load_matrix,
    oracle_minimal_valid_partition,
    oracle_triplet_rows,
    oracle_weights,
    path_graph,
    random_int_graph,
    ultrametric,
)


# -- construction & validation ----------------------------------------------

def test_integer_weights_stay_integral():
    g = path_graph(4)
    assert g.integral
    assert g.weights.dtype == np.int64
    assert g.weight(0, 1) == 1 and isinstance(g.weight(0, 1), int)


def test_integral_floats_are_coerced():
    g = graph_from([[0.0, 2.0], [2.0, 0.0]])
    assert g.integral
    assert g.weight(0, 1) == 2


def test_true_floats_stay_float():
    g = graph_from([[0, 0.5], [0.5, 0]])
    assert not g.integral
    assert g.weight(0, 1) == 0.5


def test_rejects_asymmetry():
    with pytest.raises(InvalidWeight):
        graph_from([[0, 1], [2, 0]])


def test_rejects_negative():
    with pytest.raises(InvalidWeight):
        graph_from([[0, -1], [-1, 0]])


def test_rejects_nonzero_diagonal():
    with pytest.raises(SelfLoop):
        graph_from([[1, 1], [1, 0]])


def test_rejects_nan_and_inf():
    with pytest.raises(InvalidWeight):
        graph_from([[0, float("nan")], [float("nan"), 0]])
    with pytest.raises(InvalidWeight):
        graph_from([[0, float("inf")], [float("inf"), 0]])


def test_rejects_negative_and_nan_epsilon():
    for eps in (-0.5, float("nan")):
        with pytest.raises(InvalidWeight):
            graph_from([[0, 1], [1, 0]], epsilon=eps)


def test_weights_are_read_only():
    g = path_graph(3)
    with pytest.raises(ValueError):
        g.weights[0, 1] = 7


def test_induced_subgraph_keeps_order_and_labels():
    g = path_graph(5)
    sub = g.induced([4, 2, 0])
    assert sub.n == 3
    assert sub.labels == ("4", "2", "0")
    assert sub.weight(0, 1) == 0  # 4-2 not adjacent
    assert sub.weight(1, 2) == 0
    assert sub.weight(0, 2) == 0
    sub2 = g.induced([2, 3])
    assert sub2.weight(0, 1) == 1


# -- parsing -----------------------------------------------------------------

def test_edge_list_roundtrip():
    g = load_edge_list("0 1 2\n1 2 1\n")
    assert g.n == 3
    assert g.weight(0, 1) == 2
    assert g.weight(1, 2) == 1
    assert g.weight(0, 2) == 0
    assert g.labels == ("0", "1", "2")


def test_edge_list_comments_and_blank_lines():
    text = "# a comment\n\na b 1   # trailing\n\nb c 2\n"
    g = load_edge_list(text)
    assert g.labels == ("a", "b", "c")
    assert g.weight(0, 1) == 1 and g.weight(1, 2) == 2


def test_edge_list_rejects_self_loop():
    with pytest.raises(SelfLoop):
        load_edge_list("x x 1\n")


def test_edge_list_rejects_duplicate_pair_any_weight():
    with pytest.raises(DuplicateEdge):
        load_edge_list("a b 1\nb a 1\n")
    with pytest.raises(DuplicateEdge):
        load_edge_list("a b 1\na b 2\n")


def test_edge_list_rejects_garbage():
    with pytest.raises(ParseError):
        load_edge_list("a b\n")
    with pytest.raises(ParseError):
        load_edge_list("a b one\n")
    with pytest.raises(InvalidWeight):
        load_edge_list("a b -3\n")


def test_loaders_reject_integers_beyond_int64():
    big = str(2**63)
    with pytest.raises(InvalidWeight):
        load_edge_list(f"a b {big}\n")
    with pytest.raises(InvalidWeight):
        load_matrix(f"2\n0 {big}\n{big} 0\n")


def test_matrix_format():
    g = load_matrix("3\n0 1 0\n1 0 2\n0 2 0\n")
    assert g.n == 3 and g.weight(1, 2) == 2


def test_matrix_shape_errors():
    with pytest.raises(ParseError):
        load_matrix("3\n0 1\n1 0\n")
    with pytest.raises(ParseError):
        load_matrix("2\n0 1 0\n1 0 0\n")
    with pytest.raises(ParseError, match="vertex count must be positive"):
        load_matrix("0\n")


GOOD_WEIGHTS = ["0", "1", "3", "12", "0.5", "2.25", "1e2", "007", "1_0",
                str(2**63 - 1)]
BAD_WEIGHTS = ["-1", "-0.5", "nan", "inf", "x", str(2**63), "9" * 30, "1e400"]
FILLERS = ["", "   ", "# note", "#", "\t# 1 2 3"]
# Every line boundary of str.splitlines, and whitespace str.split splits on.
BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
          "\x85", "\u2028", "\u2029"]
SPACES = [" ", "\t", "\x1f", "\xa0", "\u3000"]


def outcome(load, text):
    """The loaded graph's defining data, or the error's type and message."""
    try:
        g = load(text)
    except Exception as e:  # compared across loaders, never swallowed
        return type(e), str(e)
    return g.weights.dtype, g.weights.tolist(), g.labels, g.epsilon


def with_fillers(draw, lines):
    """Lines with fillers and comments added, each space drawn from SPACES,
    each line ended by a break from BREAKS, the last one maybe not."""
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(st.sampled_from(FILLERS)))
    comment = st.sampled_from(["", "  # tail", "#x"])
    lines = [ln + draw(comment) if ln.strip() else ln for ln in lines]
    breaks = [draw(st.sampled_from(BREAKS)) for _ in lines]
    if breaks and draw(st.booleans()):
        breaks[-1] = ""
    space = st.sampled_from(SPACES)
    return "".join(re.sub(" ", lambda _: draw(space), ln) + brk
                   for ln, brk in zip(lines, breaks))


def test_float_base_cost_keeps_its_summation_order_to_the_bit():
    rng = np.random.default_rng(11)
    off = 1 - np.eye(41)
    for n in range(41):
        U = ultrametric(rng, n).astype(np.float64)
        R = np.triu(rng.random((n, n)), 1)
        for W in (U * 0.1, (0.7 * U + 0.05) * off[:n, :n], R + R.T):
            assert base_cost(graph_from(W)) == oracle_float_base(W)


def test_triplet_rows_match_per_row_oracle():
    rng = np.random.default_rng(5)
    for n in range(13):
        R = np.triu(rng.random((n, n)), 1)
        W = R + R.T
        got = list(graph_mod._triplet_rows(W))
        want = list(oracle_triplet_rows(W))
        assert len(got) == len(want) == max(n - 2, 0)
        for (i, j, k, low), (wi, wj, wk, wlow) in zip(got, want):
            assert i == wi
            assert j.dtype == wj.dtype and np.array_equal(j, wj)
            assert k.dtype == wk.dtype and np.array_equal(k, wk)
            assert low.dtype == wlow.dtype and np.array_equal(low, wlow)
        total = 0.0
        for *_, low in oracle_triplet_rows(W):
            total += low.sum().item()
        assert base_cost(graph_from(W)) == total


@st.composite
def edge_list_texts(draw):
    """Unique pairs with good weights, then up to two bad lines anywhere."""
    names = ["a", "b", "c", "d", "10", "2"]
    pairs = draw(st.lists(
        st.tuples(st.sampled_from(names), st.sampled_from(names)).filter(
            lambda t: t[0] != t[1]),
        max_size=10, unique_by=lambda t: frozenset(t)))
    lines = [f"{u} {v} {draw(st.sampled_from(GOOD_WEIGHTS))}" for u, v in pairs]
    for _ in range(draw(st.integers(0, 2))):
        u, v = draw(st.sampled_from(pairs or [("a", "b")]))
        w = draw(st.sampled_from(GOOD_WEIGHTS + BAD_WEIGHTS))
        bad = draw(st.sampled_from([
            f"{u} {u} {w}", f"{u} {v} {draw(st.sampled_from(BAD_WEIGHTS))}",
            f"{u} {v}", f"{u} {v} 1 2", f"{v} {u} {w}"]))
        lines.insert(draw(st.integers(0, len(lines))), bad)
    return with_fillers(draw, lines)


@st.composite
def matrix_texts(draw):
    """A symmetric token matrix, then up to two bad tokens, rows or heads."""
    n = draw(st.integers(0, 5))
    # weights far below the int64 cost bound, so that most matrices load
    tok = [[draw(st.sampled_from(GOOD_WEIGHTS[:7])) for _ in range(n)]
           for _ in range(n)]
    for i in range(n):
        tok[i][i] = "0"
        for j in range(i):
            tok[i][j] = tok[j][i]
    head = str(n)
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(["token", "short", "long", "head"]))
        if kind == "head":
            head = draw(st.sampled_from(["x", "-1", f"{n} {n}", str(n + 1)]))
        elif n:
            row = tok[draw(st.integers(0, n - 1))]
            if kind == "long":
                row.append("1")
            elif row and kind == "short":
                row.pop()
            elif row:
                row[draw(st.integers(0, len(row) - 1))] = draw(
                    st.sampled_from(BAD_WEIGHTS))
    return with_fillers(draw, [head] + [" ".join(row) for row in tok])


@given(edge_list_texts())
@settings(max_examples=300, deadline=None)
def test_edge_list_loader_matches_record_oracle(text):
    assert outcome(load_edge_list, text) == outcome(oracle_load_edge_list, text)


@given(matrix_texts())
@settings(max_examples=300, deadline=None)
def test_matrix_loader_matches_row_oracle(text):
    assert outcome(load_matrix, text) == outcome(oracle_load_matrix, text)


@given(edge_list_texts() | matrix_texts()
       | st.sampled_from(["", " \t\n", "# only\r\n\x85  #", "\u20285 #x"]))
@settings(max_examples=300, deadline=None)
def test_load_graph_matches_line_oracle(text):
    assert outcome(load_graph, text) == outcome(oracle_load_graph, text)


# Tokens where the one-pass float read and the token-by-token read could
# part: signed zeros, underscores, non-finite values, the int64 edge and
# tokens only one of int and float accepts.
WEIGHT_TOKENS = GOOD_WEIGHTS + BAD_WEIGHTS + [
    "-0", "-0.0", "0.0", "1e19", "9.3e18", str(2**63 + 1), str(2**63 - 2),
    "0x10", "abc", "-nan", "1.5e-300", "3.0"]


@given(st.lists(st.sampled_from(WEIGHT_TOKENS), max_size=12)
       | st.lists(st.sampled_from(GOOD_WEIGHTS), max_size=12))
@settings(max_examples=1000, deadline=None)
def test_weights_match_token_oracle(toks):
    w = graph_mod._weights(toks)
    want, want_bad = oracle_weights(toks)
    if want_bad < len(toks):
        assert w is None
    else:
        assert (w.dtype, w.tobytes()) == (want.dtype, want.tobytes())


def test_float_weights_read_in_one_pass():
    toks = ["0.5", "2", "1e2"] * 400
    with mock.patch.object(graph_mod, "_parse_weight",
                           side_effect=AssertionError("token-by-token read")):
        w = graph_mod._weights(toks)
    assert w.dtype == np.float64 and len(w) == len(toks)
    assert w[:3].tolist() == [0.5, 2.0, 100.0]


def test_load_graph_autodetects():
    assert load_graph("2\n0 5\n5 0\n").weight(0, 1) == 5
    assert load_graph("u v 5\n").weight(0, 1) == 5


# -- the byte reader of large edge lists --------------------------------------

# The ASCII whitespace of str.split, and those of it that end a line for
# str.splitlines.
ASCII_BREAKS = "\n\x0b\x0c\r\x1c\x1d\x1e"
ASCII_SPACES = "\t" + ASCII_BREAKS + "\x1f "
INLINE_SPACES = "\t\x1f "
# ASCII bytes that str.split keeps inside tokens but the byte reader declines.
OUTSIDE_BYTES = [*range(0x00, 0x09), *range(0x0e, 0x1c), 0x7f]


def benchmark_edge_list(n):
    """Every pair of n vertices named ``v{i}``, with one- or two-digit
    weights, the way the benchmark writes its edge lists."""
    rows = [f"v{i} v{j} {i * j % 97}"
            for i in range(n) for j in range(i + 1, n)]
    return "# generated benchmark input\n" + "\n".join(rows) + "\n"


BIG_EDGE_LIST = benchmark_edge_list(70)  # 2,415 records


def test_byte_classes_pin_python_whitespace_and_line_breaks():
    cls = graph_mod._BYTE_CLASS
    space = {c for c in range(128)
             if cls[c] in (graph_mod._SPACE, graph_mod._BREAK)}
    breaks = {c for c in range(128) if cls[c] == graph_mod._BREAK}
    assert space == set(map(ord, ASCII_SPACES))
    assert breaks == set(map(ord, ASCII_BREAKS))
    for c in range(128):
        assert (c in space) == (f"a{chr(c)}b".split() == ["a", "b"])
        assert (c in breaks) == (f"a{chr(c)}b".splitlines() == ["a", "b"])
    # \x1f separates tokens but not lines
    assert "a\x1fb".split() == ["a", "b"]
    assert "a\x1fb".splitlines() == ["a\x1fb"]
    outside = [c for c in range(256) if cls[c] == graph_mod._OTHER]
    assert outside == OUTSIDE_BYTES + list(range(128, 256))


@pytest.mark.parametrize("byte", OUTSIDE_BYTES)
def test_control_bytes_are_token_bytes_left_to_the_general_reader(byte):
    name = f"v{chr(byte)}5"
    assert name.split() == [name]
    text = BIG_EDGE_LIST.replace("\nv0 v5 ", f"\nv0 {name} ", 1)
    assert text != BIG_EDGE_LIST
    assert graph_mod._edge_bytes(graph_mod._COMMENT.sub("", text)) is None
    g = load_edge_list(text)
    assert name in g.labels
    assert outcome(load_edge_list, text) == outcome(oracle_load_edge_list,
                                                     text)


def in_byte_lane(body):
    """Whether the byte reader must read comment-free ``body``: at least 8
    ASCII bytes, each whitespace or printable, some record, three tokens on
    every non-blank line, names of at most 8 bytes and weights of at most 18
    ASCII digits."""
    if not body.isascii() or len(body) < 8:
        return False
    if not all(c.isspace() or c.isprintable() for c in body):
        return False
    records = [p for p in map(str.split, body.splitlines()) if p]
    return bool(records) and all(
        len(p) == 3 and len(p[0]) <= 8 and len(p[1]) <= 8 and p[2].isdigit()
        and len(p[2]) <= 18 for p in records)


@st.composite
def byte_reader_texts(draw):
    """Records of short names and digit weights, some out of the byte
    reader's lane, separated by every ASCII space and break."""
    # at most one of: names off the lane, weights off the lane, a NUL pair
    odd = draw(st.sampled_from(["", "names", "weights", "nul"]))
    chars = string.ascii_letters + string.digits + "+_"
    if odd == "names":
        name = st.text(chars + "\x00\x7f", min_size=1, max_size=10)
    else:
        name = st.text(chars, min_size=1, max_size=8)
    names = draw(st.lists(name, min_size=2, max_size=6, unique=True))
    if odd == "nul":
        names.append(names[0] + "\x00")  # differs only by a trailing NUL
    weight = st.text(string.digits, min_size=1, max_size=18)
    if odd == "weights":
        weight = st.text(string.digits, min_size=1, max_size=20) | (
            st.sampled_from([str(2**63 - 1), str(2**63), "+5", "1_0", "0.5",
                             "-1"]))
    pairs = draw(st.lists(
        st.tuples(st.sampled_from(names), st.sampled_from(names)).filter(
            lambda t: t[0] != t[1]),
        min_size=1, max_size=12, unique_by=frozenset))
    lines = [[u, v, draw(weight)] for u, v in pairs]
    if draw(st.integers(0, 2)) == 0:
        u, v = draw(st.sampled_from(pairs))
        # a record on two lines
        split = u + draw(st.sampled_from(ASCII_BREAKS)) + v
        bad = draw(st.sampled_from([[u, u, "1"], [v, u, "2"], [u, v],
                                    [u, v, "1", "2"], [split, "3"]]))
        lines.insert(draw(st.integers(0, len(lines))), bad)
    gap = st.text(INLINE_SPACES, min_size=1, max_size=3)
    comment = st.sampled_from(["", "", "#c", " # x y z"])
    # a line boundary, maybe with blank or comment lines and spaces around it
    space = st.text(INLINE_SPACES, max_size=2)
    brk = st.lists(
        st.tuples(space, comment, st.sampled_from([*ASCII_BREAKS, "\r\n"]),
                  space).map("".join),
        min_size=1, max_size=3).map("".join)
    text = draw(st.sampled_from(["", " ", "\n", "#top\n"]))
    for i, ln in enumerate(lines):
        text += draw(gap).join(ln) + draw(comment)
        if i + 1 < len(lines) or draw(st.booleans()):
            text += draw(brk)
    return text + draw(st.sampled_from(["", "", "# end", " #"]))


@given(byte_reader_texts())
@settings(max_examples=500, deadline=None)
def test_byte_reader_matches_record_oracle(text):
    body = graph_mod._COMMENT.sub("", text)
    read = graph_mod._edge_bytes(body)
    assert (read is not None) == in_byte_lane(body)
    if read is not None:
        with mock.patch.object(graph_mod, "_EDGE_BYTES_MIN", 0), \
                mock.patch.object(graph_mod, "_edge_tokens",
                                  side_effect=AssertionError("general reader")):
            got = outcome(load_edge_list, text)
        assert got == outcome(oracle_load_edge_list, text)


@pytest.mark.parametrize("high", [0, 2**32, 2**64 - 1])
def test_first_appearance_numbers_keys_in_order(high):
    # keys below 2**32 are sorted as uint32; one key above keeps uint64
    keys = [7, 3, 7, high, 9, 3, high, 2**32 - 1]
    ids, first = graph_mod._first_appearance(np.array(keys, dtype=np.uint64))
    order = list(dict.fromkeys(keys))
    assert ids.tolist() == [order.index(k) for k in keys]
    assert first.tolist() == [keys.index(k) for k in order]


def test_large_ascii_edge_list_takes_the_byte_reader():
    assert len(BIG_EDGE_LIST) >= graph_mod._EDGE_BYTES_MIN
    want = outcome(oracle_load_edge_list, BIG_EDGE_LIST)
    assert want[0] == np.int64 and len(want[2]) == 70
    with mock.patch.object(graph_mod, "_edge_tokens",
                           side_effect=AssertionError("general reader")):
        assert outcome(load_edge_list, BIG_EDGE_LIST) == want
        assert outcome(load_graph, BIG_EDGE_LIST) == want


def _set_record(text, k, line):
    """``text`` with its record k (0-based, after the comment) replaced."""
    lines = text.splitlines()
    lines[k + 1] = line
    return "\n".join(lines) + "\n"


# Texts of the size of BIG_EDGE_LIST, and whether the byte reader reads them
# (a self-loop or a repeated pair is found by the checks both readers share).
SAME_SIZE = {
    "non-ASCII name": (_set_record(BIG_EDGE_LIST, 1200, "v\u00e9 v1 3"),
                       False),
    "float weight": (_set_record(BIG_EDGE_LIST, 1200, "v20 v31 0.5"), False),
    "9-byte name": (_set_record(BIG_EDGE_LIST, 1200, "v12345678 v1 3"),
                    False),
    "19-digit weight": (_set_record(BIG_EDGE_LIST, 1200,
                                    "v20 v31 " + "5".zfill(19)), False),
    "malformed last line": (BIG_EDGE_LIST + "v1 v2\n", False),
    "self-loop last": (BIG_EDGE_LIST + "v3 v3 1\n", True),
    "repeated pair last": (BIG_EDGE_LIST + "v2 v1 4\n", True),
    # two faults: the error names the earlier record, whichever fault made
    # the reader decline or a check fail
    "repeated pair at 100, malformed last line": (
        _set_record(BIG_EDGE_LIST, 100, "v1 v0 7") + "v1 v2\n", False),
    "self-loop at 50, float weight at 1200": (
        _set_record(_set_record(BIG_EDGE_LIST, 50, "v4 v4 1"), 1200,
                    "v20 v31 0.5"), False),
}


@pytest.mark.parametrize("kind", SAME_SIZE)
def test_same_size_text_off_the_byte_path_matches_oracle(kind):
    text, read = SAME_SIZE[kind]
    assert len(text) >= graph_mod._EDGE_BYTES_MIN
    body = graph_mod._COMMENT.sub("", text)
    assert (graph_mod._edge_bytes(body) is not None) == read
    want = outcome(oracle_load_edge_list, text)
    assert outcome(load_edge_list, text) == want
    assert outcome(load_graph, text) == want
    at = re.search(r" at (\d+)", kind)
    if at:  # record k is on line k + 2
        assert want[1].startswith(f"line {int(at[1]) + 2}: ")
    elif "last" in kind:
        assert want[1].startswith("line 2417: ")
    else:
        assert not isinstance(want[1], str)  # loads, as a graph


# -- triplet classification --------------------------------------------------

def test_triplet_unique_max():
    g = from_weights3(5, 1, 2)  # w01=5 w02=1 w12=2
    tt = triplet_type(g, 0, 1, 2)
    assert tt.is_type1 and tt.max_pair == (0, 1)


def test_triplet_two_tied_maxima():
    g = from_weights3(3, 3, 2)  # apex 0: w01 = w02 > w12
    tt = triplet_type(g, 0, 1, 2)
    assert tt.is_type2 and tt.apex == 0


def test_triplet_all_equal():
    g = from_weights3(2, 2, 2)
    assert triplet_type(g, 0, 1, 2).is_type3
    g0 = from_weights3(0, 0, 0)
    assert triplet_type(g0, 0, 1, 2).is_type3


def test_triplet_top_two_tie_but_not_third():
    # two largest equal, smallest differs -> tied-maxima class even though
    # the tie partners are not adjacent in sorted order
    g = from_weights3(4, 4, 0)
    tt = triplet_type(g, 0, 1, 2)
    assert tt.is_type2 and tt.apex == 0


def test_triplet_epsilon_tolerance():
    g = graph_from(np.array([[0, 1.0, 1.05], [1.0, 0, 0.2], [1.05, 0.2, 0]]),
                   epsilon=0.1)
    assert triplet_type(g, 0, 1, 2).is_type2
    g2 = graph_from(np.array([[0, 1.0, 1.05], [1.0, 0, 0.2], [1.05, 0.2, 0]]))
    assert triplet_type(g2, 0, 1, 2).is_type1


def test_triplet_rejects_repeats_and_range():
    g = path_graph(4)
    with pytest.raises(InvalidTriplet):
        triplet_type(g, 1, 1, 2)
    with pytest.raises(InvalidTriplet):
        triplet_type(g, 0, 1, 9)


@given(st.permutations([0, 1, 2]))
@settings(max_examples=30)
def test_triplet_type_is_order_invariant(perm):
    g = from_weights3(3, 3, 1)
    a, b, c = perm
    tt = triplet_type(g, a, b, c)
    assert tt.is_type2 and tt.apex == 0


def from_weights3(w01, w02, w12):
    W = np.array([[0, w01, w02], [w01, 0, w12], [w02, w12, 0]])
    return graph_from(W)


def test_min_triplet_cost_is_two_smallest():
    # on three vertices the base cost is the one triplet's minimum
    assert base_cost(from_weights3(5, 1, 2)) == 3
    assert base_cost(from_weights3(0, 0, 0)) == 0


# -- base cost ----------------------------------------------------------------

def test_base_cost_path():
    # a path on n vertices has exactly n-2 two-edge triplets
    for n in range(3, 13):
        assert base_cost(path_graph(n)) == n - 2


def test_base_cost_clique():
    # n = 2000 takes the level kernel, whose sums pass float32's 2^24
    for n in [*range(3, 9), 2000]:
        expected = 2 * (n * (n - 1) * (n - 2) // 6)
        assert base_cost(clique_graph(n)) == expected


def test_base_cost_linked_stars_census():
    # two degree-4 centers give 2*C(4,2) = 12 two-edge paths, no triangles;
    # for unit weights the two-smallest sum counts exactly wedges + 2*triangles
    g = linked_stars(8)
    assert base_cost(g) == 12
    assert oracle_base(g.weights) == 12


def test_base_cost_small_graphs_match_loop_oracle():
    rng = np.random.default_rng(5)
    for _ in range(40):
        n = int(rng.integers(3, 9))
        g = random_int_graph(rng, n, wmax=4)
        assert base_cost(g) == oracle_base(g.weights)


@st.composite
def integer_graphs(draw):
    """Integer weight matrices: few tied levels, or every weight distinct."""
    n = draw(st.integers(0, 12))
    pairs = n * (n - 1) // 2
    if draw(st.booleans()):
        ws = draw(st.lists(st.integers(0, 3), min_size=pairs, max_size=pairs))
    else:
        ws = draw(st.lists(st.integers(0, 10**12), min_size=pairs,
                           max_size=pairs, unique=True))
    W = np.zeros((n, n), dtype=np.int64)
    W[np.triu_indices(n, 1)] = ws
    return W + W.T


@given(integer_graphs())
@settings(max_examples=200, deadline=None)
def test_base_cost_matches_loop_oracle_on_ties_and_distinct_levels(W):
    assert base_cost(graph_from(W)) == oracle_base(W)


def test_base_cost_trivial_sizes():
    assert base_cost(path_graph(2)) == 0
    assert base_cost(clique_graph(1)) == 0


@given(st.integers(3, 7), st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_base_cost_invariant_under_relabeling(n, seed):
    rng = np.random.default_rng(seed)
    g = random_int_graph(rng, n, wmax=3)
    perm = rng.permutation(n)
    W2 = g.weights[np.ix_(perm, perm)]
    assert base_cost(g) == base_cost(graph_from(W2))


# -- integer base-cost kernels: pair maxima vs weight levels ------------------

@contextmanager
def _kernel(name):
    """Send every integer graph with n >= 3 to one base-cost kernel."""
    if name == "maxima":
        limits = {"_LEVEL_KERNEL_MAX_LEVELS": -1}
    else:
        limits = {"_LEVEL_KERNEL_MIN_N": 0, "_LEVEL_KERNEL_MAX_LEVELS": 2**62}
    with mock.patch.multiple(graph_mod, **limits):
        yield


def _both_kernels(g):
    with _kernel("maxima"):
        maxima = base_cost(g)
    with _kernel("level"):
        level = base_cost(g)
    assert type(maxima) is int and type(level) is int
    return maxima, level


@st.composite
def few_level_graphs(draw):
    """Integer graphs on 0..40 vertices with 0..5 distinct positive weights,
    with or without zero weights."""
    n = draw(st.integers(0, 40))
    levels = draw(st.lists(st.integers(1, 10**6), max_size=5, unique=True))
    if not levels or draw(st.booleans()):
        levels.append(0)
    pairs = n * (n - 1) // 2
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    W = np.zeros((n, n), dtype=np.int64)
    W[np.triu_indices(n, 1)] = rng.choice(levels, size=pairs)
    return W + W.T


@given(few_level_graphs())
@settings(max_examples=120, deadline=None)
def test_base_cost_kernels_match_loop_oracle(W):
    maxima, level = _both_kernels(graph_from(W))
    assert maxima == level == oracle_base(W)


@pytest.mark.parametrize("zeros", [True, False])
@pytest.mark.parametrize("n", [3, 17, 40, 90])
def test_base_cost_kernels_exact_at_int64_bound(n, zeros):
    # the largest level the loader accepts: max weight x n^3 < 2^63
    top = (2**63 - 1) // n**3
    rng = np.random.default_rng(n)
    W = np.zeros((n, n), dtype=np.int64)
    choices = [0, 1, top] if zeros else [1, top]
    W[np.triu_indices(n, 1)] = rng.choice(choices, size=n * (n - 1) // 2)
    g = graph_from(W + W.T)
    maxima, level = _both_kernels(g)
    assert maxima == level
    if n <= 40:
        assert maxima == oracle_base(g.weights)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 8, 63, 64, 100])
def test_base_cost_kernels_on_all_zero_graphs(n):
    g = graph_from(np.zeros((n, n), dtype=np.int64))
    assert _both_kernels(g) == (0, 0)
    assert base_cost(g) == 0


@pytest.mark.parametrize("sample", [
    lambda: gen_er(400, 0.5, 1),
    lambda: gen_er(400, 0.1, 2),
    lambda: gen_er(400, 0.9, 4),  # level sums past float32's 2^24
    lambda: gen_planted(400, 0.8, 0.2, 3),
])
def test_base_cost_kernels_agree_on_random_graphs(sample):
    g = sample()
    maxima, level = _both_kernels(g)
    assert maxima == level == base_cost(g)


def _takes_level_kernel(W):
    with mock.patch.object(graph_mod, "_level_base_cost",
                           wraps=graph_mod._level_base_cost) as spy:
        base_cost(graph_from(W))
    return spy.called


def test_base_cost_kernel_choice():
    rng = np.random.default_rng(0)

    def levels(n, count):
        return random_int_graph(rng, n, wmax=count).weights

    # tiny graphs and graphs with many levels keep the pair maxima
    assert not _takes_level_kernel(levels(8, 1))
    assert not _takes_level_kernel(levels(63, 1))
    assert not _takes_level_kernel(levels(300, 40))
    assert not _takes_level_kernel(levels(400, 9))
    # few levels on 64 or more vertices take one matmul per level
    assert _takes_level_kernel(levels(64, 1))
    assert _takes_level_kernel(levels(400, 8))
    assert _takes_level_kernel(np.zeros((64, 64), dtype=np.int64))


@given(st.integers(64, 72),
       st.lists(st.integers(1, 10**6), min_size=1, max_size=8, unique=True),
       st.booleans(), st.sampled_from([1, 700, 2**23]),
       st.integers(0, 2**32 - 1))
@settings(max_examples=12, deadline=None)
def test_level_kernel_matches_loop_oracle(n, levels, zeros, block, seed):
    # integer graphs the default choice sends to the level kernel, each 0/1
    # level through ``_unit_base_cost`` with its products in row blocks
    rng = np.random.default_rng(seed)
    W = np.zeros((n, n), dtype=np.int64)
    W[np.triu_indices(n, 1)] = rng.choice(levels + [0] * zeros,
                                          size=n * (n - 1) // 2)
    W += W.T
    with mock.patch.object(graph_mod, "_PRODUCT_BLOCK_ENTRIES", block):
        assert _takes_level_kernel(W)
        assert base_cost(graph_from(W)) == oracle_base(W)


@pytest.mark.parametrize("top, slab",
                         [(2**31 - 1, np.int32), (2**31, np.int64)])
@pytest.mark.parametrize("n", [3, 4, 17, 40])
def test_pair_maxima_base_cost_at_the_int32_edge(n, top, slab):
    # weights up to 2^31 - 1 fit int32 slabs; one more takes int64 slabs
    rng = np.random.default_rng(n)
    W = np.zeros((n, n), dtype=np.int64)
    W[np.triu_indices(n, 1)] = rng.choice([0, 1, top - 1, top],
                                          size=n * (n - 1) // 2)
    W[0, 1] = top
    W += W.T
    with mock.patch.object(graph_mod, "_pair_maxima",
                           wraps=graph_mod._pair_maxima) as spy:
        assert base_cost(graph_from(W)) == oracle_base(W)
    assert spy.call_args.args[0].dtype == slab


# -- slab boundaries of the pair x third-vertex scans -------------------------

@st.composite
def slab_graphs(draw):
    """Integer or float graphs on 0..24 vertices, epsilon 0 or 1."""
    n = draw(st.integers(0, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = ([0, 0, 1, 2, 3, 4] if draw(st.booleans())
              else [0.0, 0.5, 1.25, 1.5, 2.75])
    W = np.zeros((n, n), dtype=np.array(levels).dtype)
    W[np.triu_indices(n, 1)] = rng.choice(levels, size=n * (n - 1) // 2)
    return graph_from(W + W.T, epsilon=draw(st.sampled_from([0.0, 1.0])))


def _slab_outputs(g, delta):
    """What each reader of the slabs returns on g."""
    part = minimal_valid_partition(g) if g.n >= 2 else None
    tree = approx_tree(g, delta) if g.n >= 1 else None
    return (base_cost(g), build_constraints(g, delta),
            None if part is None else part.blocks,
            tuple(map(tuple, detect._type2_triplets(g))),
            None if tree is None else tree.to_nested())


@given(slab_graphs(), st.sampled_from(["one", "uneven", "default"]),
       st.sampled_from([1, Fraction(5, 4), 1.5]))
@settings(max_examples=60, deadline=None)
def test_every_slab_size_gives_the_same_answers(g, block, delta):
    n = g.n
    # one row or base per slab; 2 rows of pairs and 3n - 1 bases per slab
    size = {"one": 1, "uneven": 3 * n * n - 1,
            "default": graph_mod._BLOCK}[block]
    default = _slab_outputs(g, delta)
    with mock.patch.object(graph_mod, "_BLOCK", size), mock.patch.object(
            detect, "_tied_apex", wraps=detect._tied_apex) as apex_slab:
        base, cons, blocks, *rest = _slab_outputs(g, delta)
        slabs = len(list(graph_mod._pair_maxima(g.weights)))
    assert slabs == {"one": n, "uneven": (n + 1) // 2}.get(block, min(n, 1))
    assert all(len(c.args[0]) <= max(1, size // max(n, 1))
               for c in apex_slab.call_args_list)
    assert rest == list(default[3:])
    if g.integral:
        assert base == oracle_base(g.weights)
    assert cons == oracle_build_constraints(g, delta)
    want = oracle_minimal_valid_partition(g) if n >= 2 else None
    assert blocks == (None if want is None else want.blocks)
