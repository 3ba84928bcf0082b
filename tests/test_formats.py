import time

import pytest
from hypothesis import given, settings, strategies as st

from slnc.errors import ParseError, SlncError
from slnc.lnc import construct_lnc, parse_code, write_code
from slnc import c_min
from slnc.network import parse_network, serialize_network
from slnc.secure import build_secure_bundle, parse_bundle, write_bundle
from conftest import FIXTURES, load_network


def test_code_round_trip(butterfly, parallel3_gf5):
    for net in (butterfly, parallel3_gf5):
        code = construct_lnc(net, c_min(net))
        text = write_code(code)
        again = parse_code(text, net)
        assert again.n == code.n
        assert again.kernels == code.kernels
        assert again.local_coeffs == code.local_coeffs
        assert write_code(again) == text


def test_code_parse_rejects_garbage(butterfly):
    code_text = write_code(construct_lnc(butterfly, 2))
    with pytest.raises(ParseError):
        parse_code(code_text.replace("code n=2 q=3", "code n=2 q=5"), butterfly)
    with pytest.raises(ParseError):
        parse_code("\n".join(code_text.splitlines()[1:]), butterfly)  # no header
    # The source has no in-channels, so no local line names one.
    with pytest.raises(SlncError, match="^no channel named __s_1$"):
        parse_code(code_text + "local __s_1 e1 1\n", butterfly)
    with pytest.raises(ParseError):
        parse_code(code_text.replace("kernel e5 1 1", "kernel e5 1"), butterfly)
    missing = "\n".join(
        ln for ln in code_text.splitlines() if not ln.startswith("kernel e9")
    )
    with pytest.raises(ParseError):
        parse_code(missing, butterfly)
    # The code already holds `local e1 e8 1`; a repeat is refused even when
    # the last value agrees with the kernel.
    with pytest.raises(ParseError, match="duplicate local line for e1 e8"):
        parse_code(code_text + "local e1 e8 0\nlocal e1 e8 1\n", butterfly)


def test_code_header_is_found_by_its_keyword(butterfly):
    # A line whose first token only starts with "code" is no header: beside a
    # real one it is a stray body line, and alone it leaves the header missing.
    code_text = write_code(construct_lnc(butterfly, 2))
    with pytest.raises(ParseError, match=r"^unexpected line in code body: 'codex 1'$"):
        parse_code(code_text + "codex 1\n", butterfly)
    body = "\n".join(code_text.splitlines()[1:])
    with pytest.raises(ParseError, match=r"^missing code header$"):
        parse_code("codex n=2 q=3\n" + body, butterfly)


def test_code_local_line_needs_adjacent_channels(butterfly):
    # e1 ends at n1 and e4 leaves n2: no local coefficient can link them.
    code_text = write_code(construct_lnc(butterfly, 2))
    with pytest.raises(ParseError, match=r"^channels e1 and e4 are not adjacent$"):
        parse_code(code_text + "local e1 e4 0\n", butterfly)


def test_code_dimension_zero_is_refused(butterfly):
    code_text = write_code(construct_lnc(butterfly, 2))
    with pytest.raises(ParseError, match=r"^bad code dimension 0$"):
        parse_code(code_text.replace("code n=2 q=3", "code n=0 q=3"), butterfly)
    # A bundle reads the same header first, before the Q block that n ends.
    bundle_text = write_bundle(build_secure_bundle(butterfly, omega=1, r=1))
    with pytest.raises(ParseError, match=r"^bad code dimension 0$"):
        parse_bundle(bundle_text.replace("code n=2 q=3", "code n=0 q=3"))


def test_bundle_q_rows_need_n_entries(butterfly):
    text = write_bundle(build_secure_bundle(butterfly, omega=1, r=1))
    with pytest.raises(ParseError, match=r"^Q rows must all have n entries$"):
        parse_bundle(text.replace("Q\n2 1\n", "Q\n2\n"))


def test_bundle_keydim_must_be_r_minus_i(butterfly):
    # A bundle's key size is r - i, so the header's keydim only restates it.
    text = write_bundle(build_secure_bundle(butterfly, omega=1, r=1))
    assert "\nsecure omega=1 r=1 i=0 keydim=1\n" in text
    for keydim in (0, 2):
        with pytest.raises(ParseError, match=rf"^keydim={keydim} is inconsistent with r=1, i=0$"):
            parse_bundle(text.replace("keydim=1", f"keydim={keydim}"))


def test_bundle_constant_block_length_is_checked(parallel3_gf5):
    # n = 3 at omega = 1 and keydim = 1 leaves one constant symbol.
    text = write_bundle(build_secure_bundle(parallel3_gf5, omega=1, r=1))
    assert "\nconst 0\n" in text
    for const, size in (("const", 0), ("const 0 0", 2)):
        with pytest.raises(ParseError, match=rf"^constant block must have 1 symbols, got {size}$"):
            parse_bundle(text.replace("\nconst 0\n", f"\n{const}\n"))


def test_bundle_round_trip(butterfly, parallel3_gf5):
    specs = [
        (butterfly, dict(omega=1, r=1)),
        (parallel3_gf5, dict(omega=1, r=1)),
        (parallel3_gf5, dict(omega=2, r=2, i=1)),
    ]
    for net, kwargs in specs:
        bundle = build_secure_bundle(net, **kwargs)
        text = write_bundle(bundle)
        again = parse_bundle(text)
        assert write_bundle(again) == text
        assert again.mixing == bundle.mixing
        assert again.constant == bundle.constant
        assert again.basis_level == bundle.basis_level
        assert serialize_network(again.network) == serialize_network(bundle.network)


def test_bundle_parse_rejects_inconsistencies(butterfly, parallel3_gf5):
    text = write_bundle(build_secure_bundle(butterfly, omega=1, r=1))
    lines = text.splitlines()
    assert lines[1:5] == ["secure omega=1 r=1 i=0 keydim=1", "Q", "2 1", "1 0"]
    bad_texts = [
        text.replace("keydim=1", "keydim=0"),
        text.replace("secure omega=1", "secure omega=9"),
        "\n".join(ln for ln in text.splitlines() if ln != "const"),
        text.replace("Q\n2 1\n1 0", "Q\n1 1\n1 1"),  # singular Q
        # a repeated line must not override the first one
        text + "secure omega=1 r=2 i=1 keydim=1\n",
        text + "Q\n1 0\n0 1\n",
        text + "const\n",
        text.replace("secure omega=1", "secure omega=1 omega=1"),
        text.replace("keydim=1", "keydim=1 r=1"),
        "\n".join(lines[1:5] + lines[:1] + lines[5:]),  # Q before the code header
        text + "code n=2 q=3\n",
        "\n".join(lines[1:]),  # no code line
        text.replace("Q\n2 1\n", "Q\nsink t1\n"),
        "\n".join(lines[:4]),  # the file ends inside the Q block
        text + "noise 1\n",
    ]
    for bad in bad_texts:
        with pytest.raises(ParseError):
            parse_bundle(bad)
    # keydim = r - i still holds, but no bundle secures r >= n channels.
    wide = write_bundle(build_secure_bundle(parallel3_gf5, omega=1, r=2, i=1))
    for bad in (text.replace("r=1 i=0", "r=2 i=1"), wide.replace("r=2 i=1", "r=4 i=3")):
        with pytest.raises(ParseError, match="^secure header rates are out of range$"):
            parse_bundle(bad)


def test_bundle_errors_give_the_bundle_line_numbers(butterfly):
    # The network lines are parsed in place, so a broken one is named by its
    # own line of the bundle, not by its place among the network lines.
    text = write_bundle(build_secure_bundle(butterfly, omega=1, r=1))
    assert text.splitlines()[14] == "edge e5 n3 n4"
    with pytest.raises(ParseError, match=r"^line 15: edge takes id, tail, head$"):
        parse_bundle(text.replace("edge e5 n3 n4", "edge e5 n3"))
    with pytest.raises(ParseError, match=r"^line 16: edge takes id, tail, head$"):
        parse_bundle("# a comment line\n" + text.replace("edge e5 n3 n4", "edge e5 n3"))


def test_bundle_embeds_canonical_network(butterfly):
    text = write_bundle(build_secure_bundle(butterfly, omega=1, r=1))
    assert "field 3" in text.splitlines()
    assert "edge e5 n3 n4" in text.splitlines()


def test_network_serialization_is_parse_stable():
    messy = "# comment\nfield 2\n\nsource s\nsink t # trailing\nedge a s t\n"
    net = parse_network(messy)
    canon = serialize_network(net)
    assert canon == "field 2\nsource s\nsink t\nedge a s t\n"
    assert serialize_network(parse_network(canon)) == canon


# -- fuzzing: hostile text ends quickly, with a result or an SlncError ---------------

PARSE_SECONDS = 2.0

NETWORK_KEYWORDS = ["field", "source", "sink", "edge"]
CODE_KEYWORDS = ["code", "kernel", "local"]
BUNDLE_KEYWORDS = NETWORK_KEYWORDS + CODE_KEYWORDS + ["secure", "Q", "const"]

_token = st.one_of(
    st.sampled_from(BUNDLE_KEYWORDS),
    st.integers(-3, 70000).map(str),
    st.sampled_from(["s", "t1", "t2", "n1", "n3", "e1", "e2", "e5", "e9", "__s_1", "__x", "#"]),
    st.builds(
        "{}={}".format,
        st.sampled_from(["n", "q", "omega", "r", "i", "keydim", "x"]),
        st.integers(-2, 9),
    ),
    st.text(alphabet="ab09=#-_\t\u00b2", max_size=5),
)


def _lines(keywords):
    """Lines that mostly start with one of the parser's keywords, so that
    inputs get past the first token."""
    head = st.one_of(st.sampled_from(keywords), st.sampled_from(keywords), st.sampled_from(keywords), _token)
    return st.builds(lambda h, rest: " ".join([h, *rest]), head, st.lists(_token, max_size=5))


def _texts(keywords, bases):
    """Random lines, or a base text with one line replaced by, or one line
    inserted as, a random line or a copy of one of its own lines."""

    @st.composite
    def edited(draw):
        lines = draw(st.sampled_from(bases)).splitlines()
        new = draw(st.one_of(_lines(keywords), st.sampled_from(lines)))
        at = draw(st.integers(0, len(lines)))
        lines[at:at + draw(st.integers(0, 1))] = [new]
        return "\n".join(lines) + "\n"

    return st.one_of(st.lists(_lines(keywords), max_size=12).map("\n".join), edited())


_NETWORK_TEXTS = [f.read_text(encoding="utf-8") for f in sorted(FIXTURES.glob("*.net"))]
_CODED = [load_network("butterfly.net"), load_network("parallel3_gf5.net")]
_CODE_TEXTS = [write_code(construct_lnc(net, c_min(net))) for net in _CODED]
_BUNDLE_TEXTS = [
    write_bundle(build_secure_bundle(_CODED[0], omega=1, r=1)),
    write_bundle(build_secure_bundle(_CODED[1], omega=2, r=2, i=1)),
]


def _ends_quickly(parse, text):
    start = time.perf_counter()
    try:
        parse(text)
    except SlncError:
        pass
    assert time.perf_counter() - start < PARSE_SECONDS


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_texts(NETWORK_KEYWORDS, _NETWORK_TEXTS))
def test_parse_network_fuzz(text):
    _ends_quickly(parse_network, text)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    st.sampled_from(range(len(_CODED))).flatmap(
        lambda k: st.tuples(st.just(_CODED[k]), _texts(CODE_KEYWORDS, [_CODE_TEXTS[k]]))
    )
)
def test_parse_code_fuzz(case):
    net, text = case
    _ends_quickly(lambda t: parse_code(t, net), text)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_texts(BUNDLE_KEYWORDS, _BUNDLE_TEXTS))
def test_parse_bundle_fuzz(text):
    _ends_quickly(parse_bundle, text)
