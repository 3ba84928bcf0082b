import contextlib
import io
import itertools
import re
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from slnc.cli import main, sample_key_symbols
from slnc.oracle import verify_security
from slnc.secure import parse_bundle
from conftest import FIXTURES, ROOT, run_cli_process, run_python

BUTTERFLY = str(FIXTURES / "butterfly.net")
PARALLEL3_GF2 = str(FIXTURES / "parallel3_gf2.net")
PARALLEL3_GF5 = str(FIXTURES / "parallel3_gf5.net")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- mincut ------------------------------------------------------------------

def test_mincut_sink(capsys):
    code, out, _ = run(capsys, "mincut", BUTTERFLY, "--sink", "t1")
    assert (code, out) == (0, "2\n")


def test_mincut_overall(capsys):
    code, out, _ = run(capsys, "mincut", BUTTERFLY)
    assert (code, out) == (0, "2\n")


def test_mincut_edges(capsys):
    code, out, _ = run(capsys, "mincut", BUTTERFLY, "--edges", "e3,e5")
    assert (code, out) == (0, "2\n")


def test_mincut_flag_conflict(capsys):
    code, _, err = run(capsys, "mincut", BUTTERFLY, "--sink", "t1", "--edges", "e1")
    assert code == 2
    assert "usage" in err


def test_mincut_unknown_sink_is_input_error(capsys):
    code, _, err = run(capsys, "mincut", BUTTERFLY, "--sink", "nope")
    assert code == 3
    assert "error" in err


def test_missing_file_is_input_error(capsys):
    code, _, _ = run(capsys, "mincut", "/nonexistent/net")
    assert code == 3


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["mincut", BUTTERFLY, "--bogus"])
    assert exc.value.code == 2


# -- pipeline ------------------------------------------------------------------

def test_construct_enumerate_pipeline(tmp_path, capsys):
    code_file = tmp_path / "butterfly.lnc"
    code, _, _ = run(capsys, "construct", BUTTERFLY, "--dim", "2", "-o", str(code_file))
    assert code == 0
    assert code_file.read_text().startswith("code n=2 q=3\n")

    code, out, _ = run(capsys, "enumerate", BUTTERFLY, "--r", "1", "--code", str(code_file))
    assert code == 0
    assert out.splitlines() == [f"e{i}" for i in range(1, 10)]

    code, out, _ = run(
        capsys, "enumerate", BUTTERFLY, "--r", "1", "--code", str(code_file), "--prop1"
    )
    assert code == 0
    assert out.strip() == "subset=true code=9 cut=9 binom=9"


def test_inconsistent_code_is_input_error(tmp_path, capsys):
    """A plain code file whose kernel disagrees with its local coefficients
    is rejected by the code parser, as a bundle is."""
    code_file = tmp_path / "butterfly.lnc"
    run(capsys, "construct", BUTTERFLY, "--dim", "2", "-o", str(code_file))
    text = code_file.read_text()
    assert "local e1 e3 1\n" in text
    code_file.write_text(text.replace("local e1 e3 1\n", "local e1 e3 2\n"))
    code, out, err = run(
        capsys, "enumerate", BUTTERFLY, "--r", "1", "--code", str(code_file), "--prop1"
    )
    assert (code, out) == (3, "")
    assert err.startswith("error:") and "e3" in err


def test_repeated_local_line_is_input_error(tmp_path, capsys):
    code_file = tmp_path / "butterfly.lnc"
    run(capsys, "construct", BUTTERFLY, "--dim", "2", "-o", str(code_file))
    with code_file.open("a") as f:
        f.write("local e1 e8 0\nlocal e1 e8 1\n")
    code, out, err = run(capsys, "enumerate", BUTTERFLY, "--r", "1", "--code", str(code_file))
    assert (code, out) == (3, "")
    assert "duplicate local line for e1 e8" in err


def test_enumerate_topology_only(capsys):
    code, out, _ = run(capsys, "enumerate", PARALLEL3_GF2, "--r", "2")
    assert code == 0
    assert out.splitlines() == ["e1,e2", "e1,e3", "e2,e3"]


def test_enumerate_prop1_needs_code(capsys):
    code, _, err = run(capsys, "enumerate", BUTTERFLY, "--r", "1", "--prop1")
    assert code == 2
    assert "--code" in err


def test_secure_verify_pipeline(tmp_path, capsys):
    bundle_file = tmp_path / "b.slnc"
    code, _, _ = run(capsys, "secure", BUTTERFLY, "--omega", "1", "--r", "1", "-o", str(bundle_file))
    assert code == 0

    code, out, _ = run(capsys, "verify", str(bundle_file))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "verdict pass worst=e1 maxmi=0.000000000"
    assert len(lines) == 10

    code, out, _ = run(capsys, "verify", str(bundle_file), "--fast")
    assert code == 0


def test_verify_prints_no_negative_zero(tmp_path, capsys):
    """Leakage is an exact integer, so zero leakage never prints as -0."""
    bundle_file = tmp_path / "b.slnc"
    run(capsys, "secure", PARALLEL3_GF2, "--omega", "1", "--r", "2", "-o", str(bundle_file))
    code, out, _ = run(capsys, "verify", str(bundle_file))
    assert code == 0
    assert "-0.000000000" not in out
    assert out.splitlines()[-1] == "verdict pass worst=e1 maxmi=0.000000000"


def test_verify_insecure_bundle_exits_1(tmp_path, capsys):
    bundle_file = tmp_path / "b.slnc"
    run(capsys, "secure", BUTTERFLY, "--omega", "1", "--r", "1", "-o", str(bundle_file))
    # strip the mixing down to the identity: every channel then carries a
    # plain coordinate of [m k] and the message leaks
    text = bundle_file.read_text().replace("Q\n2 1\n1 0", "Q\n1 0\n0 1")
    bundle_file.write_text(text)
    code, out, _ = run(capsys, "verify", str(bundle_file))
    assert code == 1
    assert "verdict fail" in out


def test_verify_names_the_bundle_line_of_a_broken_channel(tmp_path, capsys):
    bundle_file = tmp_path / "b.slnc"
    run(capsys, "secure", BUTTERFLY, "--omega", "1", "--r", "1", "-o", str(bundle_file))
    text = bundle_file.read_text()
    assert text.splitlines()[14] == "edge e5 n3 n4"
    bundle_file.write_text(text.replace("edge e5 n3 n4", "edge e5 n3"))
    assert run(capsys, "verify", str(bundle_file)) == (3, "", "error: line 15: edge takes id, tail, head\n")


# The butterfly bundle of `secure --omega 1 --r 1`, except that e5 -> e6 has
# coefficient 0 and e6 the zero kernel to match: sink t1 keeps rank 1 < 2.
RANK_DEFICIENT_BUNDLE = """\
code n=2 q=3
secure omega=1 r=1 i=0 keydim=1
Q
2 1
1 0
const
field 3
source s
sink t1
sink t2
edge e1 s n1
edge e2 s n2
edge e3 n1 n3
edge e4 n2 n3
edge e5 n3 n4
edge e6 n4 t1
edge e7 n4 t2
edge e8 n1 t1
edge e9 n2 t2
kernel e1 1 0
kernel e2 0 1
kernel e3 1 0
kernel e4 0 1
kernel e5 1 1
kernel e6 0 0
kernel e7 1 1
kernel e8 1 0
kernel e9 0 1
local e1 e3 1
local e2 e4 1
local e3 e5 1
local e4 e5 1
local e5 e6 0
local e5 e7 1
local e1 e8 1
local e2 e9 1
"""


def test_verify_reports_a_sink_that_cannot_decode(tmp_path, capsys):
    detail = "sink t1 failed on input (0,), (0,): sink t1 cannot isolate the input: rank 1 < 2"
    report = verify_security(parse_bundle(RANK_DEFICIENT_BUNDLE))
    assert report.decode_ok is False
    assert report.decode_detail == detail
    assert report.secure

    bundle_file = tmp_path / "b.slnc"
    bundle_file.write_text(RANK_DEFICIENT_BUNDLE)
    code, out, err = run(capsys, "verify", str(bundle_file))
    assert code == 1
    assert out == report.serialize()
    # The leakage scan passes, but a bundle that a sink cannot decode fails.
    assert out.splitlines()[-1] == "verdict fail worst=e1 maxmi=0.000000000"
    assert err == f"decode check failed: {detail}\n"


@pytest.mark.parametrize("optimize", [False, True], ids=["plain", "optimized"])
def test_inconsistent_bundle_is_input_error(tmp_path, capsys, optimize):
    """A stored kernel that disagrees with its local coefficients is rejected at
    parse time, also under `python -O`, which strips assert statements."""
    bundle_file = tmp_path / "b.slnc"
    run(capsys, "secure", BUTTERFLY, "--omega", "1", "--r", "1", "-o", str(bundle_file))
    text = bundle_file.read_text()
    assert "local e1 e3 1\n" in text
    bundle_file.write_text(text.replace("local e1 e3 1\n", "local e1 e3 2\n"))
    for argv in (
        ["verify", str(bundle_file)],
        ["simulate", str(bundle_file), "--message", "1", "--key", "1"],
    ):
        proc = run_cli_process(*argv, optimize=optimize)
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr.startswith("error:")
        assert "e3" in proc.stderr


def test_negative_code_dimension_ends_with_input_error(tmp_path):
    bundle_file = tmp_path / "neg.slnc"
    bundle_file.write_text("code n=-1 q=3\nQ\n1\n")
    proc = run_cli_process("verify", str(bundle_file), timeout=30.0)
    assert proc.returncode == 3
    assert proc.stderr.startswith("error:")


def test_huge_field_size_ends_with_input_error(tmp_path):
    net_file = tmp_path / "big.net"
    net_file.write_text("field 1000000000000000003\nsource s\nsink t\nedge a s t\n")
    proc = run_cli_process("mincut", str(net_file), timeout=30.0)
    assert proc.returncode == 3
    assert proc.stderr.startswith("error:")


def test_secure_rate_error_is_input_error(tmp_path, capsys):
    code, _, err = run(
        capsys, "secure", BUTTERFLY, "--omega", "2", "--r", "1", "-o", str(tmp_path / "x")
    )
    assert code == 3
    assert "error" in err


def test_refute_exit_codes(capsys):
    code, out, _ = run(
        capsys, "refute", PARALLEL3_GF2, "--omega", "1", "--r", "1", "--keydim", "0"
    )
    assert code == 0
    assert out == "searched=8 verdict=refuted\n"


def test_refute_budget_exit(capsys):
    code, _, err = run(
        capsys,
        "refute", PARALLEL3_GF2,
        "--omega", "2", "--r", "1", "--keydim", "0", "--budget", "10",
    )
    assert code == 4
    assert "budget" in err


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_refute_budget_below_one_is_a_usage_error(capsys, budget):
    code, out, err = run(
        capsys, "refute", BUTTERFLY, "--omega", "1", "--r", "1", "--keydim", "0", "--budget", budget
    )
    assert (code, out) == (2, "")
    assert err == f"usage error: --budget must be at least 1, got {budget}\n"


def test_refute_zero_rate_is_an_input_error(capsys):
    code, out, err = run(capsys, "refute", BUTTERFLY, "--omega", "0", "--r", "1", "--keydim", "0")
    assert (code, out) == (3, "")
    assert err == "error: information rate must be at least 1, got 0\n"


@pytest.mark.parametrize(
    "rates",
    [("--omega", "1000000000", "--r", "1", "--keydim", "0"),
     ("--omega", "1", "--r", "2000000000", "--keydim", "1999999999")],
    ids=["omega", "keydim"],
)
def test_refute_huge_space_is_refused_quickly(rates):
    # q^slots would have billions of digits: at most budget.bit_length()
    # factors decide it, and no slot list is built.
    proc = run_cli_process("refute", BUTTERFLY, *rates, timeout=10.0)
    assert proc.returncode == 4
    assert proc.stdout == ""
    assert proc.stderr.startswith("budget exceeded: search space 3^")


def test_simulate_with_explicit_key(tmp_path, capsys):
    bundle_file = tmp_path / "b.slnc"
    run(capsys, "secure", BUTTERFLY, "--omega", "1", "--r", "1", "-o", str(bundle_file))
    code, out, _ = run(capsys, "simulate", str(bundle_file), "--message", "1", "--key", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "key 1"
    assert "edge e5 0" in lines
    assert "sink t1 m=1 k=1" in lines
    assert "sink t2 m=1 k=1" in lines


def test_simulate_seeded_is_deterministic(tmp_path, capsys):
    bundle_file = tmp_path / "b.slnc"
    run(capsys, "secure", PARALLEL3_GF5, "--omega", "1", "--r", "1", "-o", str(bundle_file))
    first = run(capsys, "simulate", str(bundle_file), "--message", "3", "--seed", "42")
    second = run(capsys, "simulate", str(bundle_file), "--message", "3", "--seed", "42")
    assert first == second
    assert first[0] == 0
    key_line = first[1].splitlines()[0]
    assert key_line == "key " + ",".join(str(v) for v in sample_key_symbols(42, 1, 5))


def test_simulate_needs_key_or_seed(tmp_path, capsys):
    bundle_file = tmp_path / "b.slnc"
    run(capsys, "secure", BUTTERFLY, "--omega", "1", "--r", "1", "-o", str(bundle_file))
    code, _, err = run(capsys, "simulate", str(bundle_file), "--message", "1")
    assert code == 2
    assert "seed" in err


def test_simulate_symbols_are_canonical_decimals(tmp_path, capsys):
    bundle_file = tmp_path / "b.slnc"
    run(capsys, "secure", BUTTERFLY, "--omega", "1", "--r", "1", "-o", str(bundle_file))
    for flag, value in (("--message", "+1"), ("--key", "01"), ("--message", "\u0661")):
        symbols = {"--message": "1", "--key": "1", flag: value}
        code, out, err = run(capsys, "simulate", str(bundle_file), *itertools.chain(*symbols.items()))
        assert (code, out) == (2, "")
        assert err == f"usage error: {flag} must be a comma-separated list of integers\n"


@pytest.mark.parametrize(
    "flag, value", [("--message", ",1,"), ("--key", "1,,"), ("--message", ","), ("--key", ",1")]
)
def test_simulate_refuses_empty_list_items(tmp_path, capsys, flag, value):
    bundle_file = tmp_path / "b.slnc"
    run(capsys, "secure", BUTTERFLY, "--omega", "1", "--r", "1", "-o", str(bundle_file))
    symbols = {"--message": "1", "--key": "1", flag: value}
    code, out, err = run(capsys, "simulate", str(bundle_file), *itertools.chain(*symbols.items()))
    assert (code, out) == (2, "")
    assert err == f"usage error: {flag} must be a comma-separated list of integers\n"


def test_simulate_takes_an_empty_key_of_dimension_zero(tmp_path, capsys):
    bundle_file = tmp_path / "b.slnc"
    run(capsys, "secure", BUTTERFLY, "--omega", "1", "--r", "1", "--i", "1", "-o", str(bundle_file))
    code, out, _ = run(capsys, "simulate", str(bundle_file), "--message", "1", "--key", "")
    assert code == 0
    assert out.splitlines()[0] == "key"


@pytest.mark.parametrize("edges", ["e1,,e3", ",e1", "e1,"])
def test_mincut_refuses_empty_channel_ids(capsys, edges):
    code, out, err = run(capsys, "mincut", BUTTERFLY, "--edges", edges)
    assert (code, out) == (2, "")
    assert err == "usage error: --edges must be a comma-separated list of channel ids\n"


# Each edit of a written file, by the command that reads it, and the error it gives.
NON_CANONICAL_TOKENS = [
    ("mincut", "field 3", "field +3", "line 1: field size must be an integer"),
    ("mincut", "field 3", "field \u0663", "line 1: field size must be an integer"),
    ("construct", "kernel e1 1 0", "kernel e1 01 0", "non-integer kernel entry: 'kernel e1 01 0'"),
    ("construct", "code n=2 q=3", "code n=+2 q=3", "bad code header token 'n=+2'"),
    ("secure", "Q\n2 1\n1 0\n", "Q\n2 1\n0_1 0\n", "bad Q row: '0_1 0'"),
    ("secure", "keydim=1", "keydim=01", "bad secure header token 'keydim=01'"),
    # -1 and 3 are canonical integers, so they reach the field's range check.
    ("construct", "kernel e1 1 0", "kernel e1 -1 0", "-1 is not a canonical element of GF(3)"),
    ("secure", "Q\n2 1\n1 0\n", "Q\n2 1\n-1 0\n", "-1 is not a canonical element of GF(3)"),
    ("secure", "Q\n2 1\n1 0\n", "Q\n2 1\n3 0\n", "3 is not a canonical element of GF(3)"),
]


@pytest.mark.parametrize("writer, old, new, error", NON_CANONICAL_TOKENS)
def test_files_hold_integers_in_canonical_form(tmp_path, capsys, writer, old, new, error):
    path = tmp_path / "file"
    if writer == "mincut":
        path.write_text(Path(BUTTERFLY).read_text(encoding="utf-8"))
        argv = ["mincut", str(path)]
    elif writer == "construct":
        assert run(capsys, "construct", BUTTERFLY, "--dim", "2", "-o", str(path))[0] == 0
        argv = ["enumerate", BUTTERFLY, "--r", "1", "--code", str(path)]
    else:
        assert run(capsys, "secure", BUTTERFLY, "--omega", "1", "--r", "1", "-o", str(path))[0] == 0
        argv = ["verify", str(path)]
    text = path.read_text(encoding="utf-8")
    assert old in text
    path.write_text(text.replace(old, new, 1), encoding="utf-8")
    assert run(capsys, *argv) == (3, "", f"error: {error}\n")


def test_lcg_reference_values():
    # frozen from the stated recurrence: state' = state * 6364136223846793005
    # + 1442695040888963407 mod 2^64; symbol = (state' >> 32) % q
    state = (7 * 6364136223846793005 + 1442695040888963407) % (1 << 64)
    assert sample_key_symbols(7, 1, 1 << 16)[0] == (state >> 32) % (1 << 16)
    assert sample_key_symbols(0, 3, 5) == sample_key_symbols(0, 3, 5)


def test_hancheck(tmp_path, capsys):
    table = tmp_path / "table.txt"
    table.write_text("0 0 0.25\n0 1 0.25\n1 0 0.25\n1 1 0.25\n")
    code, out, _ = run(capsys, "hancheck", "--table", str(table))
    assert code == 0
    assert out.strip() == "2.000000000 2.000000000"

    code, out, _ = run(capsys, "hancheck", "--table", str(table), "--base", "4")
    assert code == 0
    assert out.strip() == "1.000000000 1.000000000"


def test_hancheck_rejects_bad_table(tmp_path, capsys):
    table = tmp_path / "table.txt"
    # A short total, a nan that every sum comparison lets through, a line
    # with no outcome, and a probability that is not a number.
    for text in ("0 0 0.9\n", "a b nan\nc d 1\n", "a\n", "a b x\n"):
        table.write_text(text)
        code, out, err = run(capsys, "hancheck", "--table", str(table))
        assert (code, out) == (3, "")
        assert err.startswith("error:")


_PROBABILITIES = st.sampled_from(["0", "1", "0.5", "0.25", "1.0", "-0.5", "nan", "inf", "-inf", "1e400", "1_0"])
_TABLE_TOKENS = st.one_of(
    _PROBABILITIES,
    st.sampled_from(["a", "b", "#"]),
    st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=4),
)
# Lines of any tokens, and lines of outcomes of mixed arity ending in a probability.
_TABLE_LINES = st.one_of(
    st.lists(_TABLE_TOKENS, max_size=14).map(" ".join),
    st.tuples(st.lists(st.sampled_from("01ab"), max_size=13), _PROBABILITIES).map(
        lambda line: " ".join([*line[0], line[1]])
    ),
)


@st.composite
def _uniform_tables(draw):
    """Well-formed tables: distinct outcomes of one arity, equal dyadic probabilities."""
    arity = draw(st.integers(1, 4))
    size = draw(st.sampled_from([1, 2, 4, 8]))
    outcome = st.tuples(*[st.sampled_from("01ab")] * arity)
    outcomes = draw(st.lists(outcome, min_size=size, max_size=size, unique=True))
    return [" ".join(o) + f" {1 / size}" for o in outcomes]


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.one_of(st.lists(_TABLE_LINES, max_size=6), _uniform_tables()))
def test_hancheck_table_fuzz(tmp_path_factory, lines):
    # Random tokens, bad probabilities, mixed arities and empty files all end
    # quickly with a profile (exit 0) or an input error (exit 3), never a crash.
    table = tmp_path_factory.getbasetemp() / "fuzz_table.txt"
    table.write_text("\n".join(lines), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["hancheck", "--table", str(table)])
    assert time.perf_counter() - start < 2.0
    if code == 0:
        assert err.getvalue() == "" and out.getvalue().count("\n") == 1
    else:
        assert (code, out.getvalue()) == (3, "")
        assert err.getvalue().startswith("error:")


@pytest.mark.parametrize("base", ["1", "nan", "inf", "0", "-2"])
def test_hancheck_rejects_bad_base(tmp_path, capsys, base):
    table = tmp_path / "table.txt"
    table.write_text("0 0 0.25\n0 1 0.25\n1 0 0.25\n1 1 0.25\n")
    code, out, err = run(capsys, "hancheck", "--table", str(table), "--base", base)
    assert (code, out) == (3, "")
    assert err.startswith("error: logarithm base")


# -- integer flags ---------------------------------------------------------------

# Small values, zero and negatives near it, and values far past any network's size.
_FLAG_INTS = st.one_of(st.integers(-3, 6), st.sampled_from([-(2**63), -(10**30), 2**31 - 1, 2**63, 10**30]))
_FIXTURE_NAMES = sorted(path.stem for path in FIXTURES.glob("*.net"))


def _flags(*names, values=_FLAG_INTS):
    return st.tuples(*[st.tuples(st.just(name), values) for name in names])


def _symbols(name):
    """A symbol-list flag, often one symbol of GF(2) or GF(3) as the fixtures' bundles take."""
    values = st.one_of(st.integers(0, 2), _FLAG_INTS)
    return st.lists(values, max_size=2).map(lambda xs: (name, ",".join(map(str, xs))))


# (command, extra switches, ((flag, value), ...)) for every integer flag of the
# commands that take one.  No fixture has q + 2 parallel channels, so `secure`
# never meets the step-budget hang of that case.
_FLAG_CASES = st.one_of(
    st.tuples(st.just("construct"), st.just(()), _flags("--dim")),
    st.tuples(st.just("secure"), st.just(()), _flags("--omega", "--r", "--i")),
    st.tuples(
        st.just("enumerate"), st.sampled_from([(), ("--code",), ("--code", "--prop1")]), _flags("--r")
    ),
    st.tuples(
        st.just("refute"),
        st.just(()),
        st.tuples(_flags("--omega", "--r", "--keydim"), _flags("--budget", values=st.integers(-3, 10**5)))
        .map(lambda pair: pair[0] + pair[1]),
    ),
    st.tuples(
        st.just("simulate"),
        st.just(()),
        st.tuples(
            _symbols("--message"), st.one_of(_symbols("--key"), st.tuples(st.just("--seed"), _FLAG_INTS))
        ),
    ),
)


@pytest.fixture(scope="module")
def built_files(tmp_path_factory):
    """Each fixture's C_min code and, where `secure` builds one, its omega=1, r=1 bundle."""
    tmp = tmp_path_factory.mktemp("flags")
    for name in _FIXTURE_NAMES:
        net = str(FIXTURES / f"{name}.net")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["mincut", net]) == 0
        assert main(["construct", net, "--dim", out.getvalue().strip(), "-o", str(tmp / f"{name}.code")]) == 0
        with contextlib.redirect_stderr(io.StringIO()):
            main(["secure", net, "--omega", "1", "--r", "1", "-o", str(tmp / f"{name}.bundle")])
    return tmp


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.sampled_from(_FIXTURE_NAMES), _FLAG_CASES)
def test_integer_flags_end_with_an_exit_code(built_files, name, case):
    # Huge, negative and zero values of every integer flag end quickly with
    # one of the documented exit codes; no exception escapes main.
    command, switches, flags = case
    target = str(FIXTURES / f"{name}.net")
    if command == "simulate":
        target = str(built_files / f"{name}.bundle")
    argv = [command, target, *[f"{flag}={value}" for flag, value in flags]]
    for switch in switches:
        argv += [switch, str(built_files / f"{name}.code")] if switch == "--code" else [switch]
    if command in ("construct", "secure"):
        argv += ["-o", str(built_files / "out")]
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert time.perf_counter() - start < 2.0
    assert code in (0, 1, 2, 3, 4)


def test_emitted_files_round_trip_through_consumers(tmp_path, capsys):
    """Every file a subcommand emits is accepted unchanged by its consumers."""
    code_file = tmp_path / "c.lnc"
    bundle_file = tmp_path / "b.slnc"
    assert run(capsys, "construct", PARALLEL3_GF5, "--dim", "3", "-o", str(code_file))[0] == 0
    assert run(capsys, "enumerate", PARALLEL3_GF5, "--r", "2", "--code", str(code_file))[0] == 0
    assert run(capsys, "secure", PARALLEL3_GF5, "--omega", "2", "--r", "1", "-o", str(bundle_file))[0] == 0
    assert run(capsys, "verify", str(bundle_file))[0] == 0
    assert run(capsys, "simulate", str(bundle_file), "--message", "1,2", "--seed", "1")[0] == 0


def test_cli_sweep_prints_one_hashed_line_per_case(fixture_sweep):
    # tools/cli_sweep.py compares two trees by diffing these lines, so each
    # names its command once, masks the temporary directory, and ends in a hash.
    done, seconds = fixture_sweep
    assert (done.returncode, done.stderr) == (0, "")
    assert seconds < 20
    lines = done.stdout.splitlines()
    commands = [line.rsplit(" ", 1)[0] for line in lines]
    assert len(set(commands)) == len(lines) > 40
    assert commands[0] == "slnc mincut <tmp>/butterfly.net"
    pattern = re.compile(
        r"slnc ((mincut|construct|enumerate|secure|verify|simulate|refute)|hancheck --table) <tmp>/\S+( \S+)* [0-9a-f]{16}"
    )
    assert [line for line in lines if not pattern.fullmatch(line)] == []
    assert {command.split()[1] for command in commands} == {
        "mincut", "construct", "enumerate", "secure", "verify", "simulate", "refute", "hancheck"
    }


# -- start-up --------------------------------------------------------------------

_LOADED_AFTER_MAIN = """
import sys
from slnc.cli import main
code = main(sys.argv[1:])
print(code, *sorted(m for m in sys.modules if m.startswith("slnc") or m == "dataclasses"))
"""


def test_each_command_loads_only_the_modules_it_runs(tmp_path):
    # Every command runs in a fresh interpreter, where loading a module means
    # compiling it; so each loads only what it calls, and none `dataclasses`.
    code, bundle = str(tmp_path / "b.code"), str(tmp_path / "b.bundle")
    table = tmp_path / "table.txt"
    table.write_text("0 0 0.5\n1 1 0.5\n")
    commands = {
        "mincut": ["mincut", BUTTERFLY],
        "construct": ["construct", BUTTERFLY, "--dim", "2", "-o", code],
        "secure": ["secure", BUTTERFLY, "--omega", "1", "--r", "1", "-o", bundle],
        "enumerate": ["enumerate", BUTTERFLY, "--r", "1", "--code", code, "--prop1"],
        "refute": ["refute", BUTTERFLY, "--omega", "1", "--r", "1", "--keydim", "0"],
        "verify": ["verify", bundle],
        "simulate": ["simulate", bundle, "--message", "1", "--seed", "5"],
        "hancheck": ["hancheck", "--table", str(table)],
    }
    loaded = {}
    for name, argv in commands.items():
        proc = run_python("-c", _LOADED_AFTER_MAIN, *argv)
        exit_code, *modules = proc.stdout.splitlines()[-1].split()
        assert (name, exit_code, proc.stderr) == (name, "0", "")
        loaded[name] = {module.removeprefix("slnc.") for module in modules}
    base = {"slnc", "cli", "errors", "field", "network"}
    assert loaded == {
        "mincut": base | {"flow"},
        "construct": base | {"lnc", "flow"},
        "secure": base | {"lnc", "secure", "flow"},
        "enumerate": base | {"lnc", "walk", "flow"},
        "refute": base | {"lnc", "refute"},
        "verify": base | {"lnc", "secure", "oracle", "refute"},
        "simulate": base | {"lnc", "secure"},
        "hancheck": base | {"entropy"},
    }
    # The oracle stays independent of the construction it checks: verifying,
    # refuting and simulating load neither the max-flow nor the wiretap walk.
    for name in ("verify", "refute", "simulate"):
        assert loaded[name].isdisjoint({"flow", "walk"}), name
    # Floating point is confined to `entropy`, which only `hancheck` loads.
    assert [name for name, modules in loaded.items() if "entropy" in modules] == ["hancheck"]
    bare = run_python("-c", "import sys, slnc; print(*sorted(m for m in sys.modules if m.startswith('slnc')))")
    assert bare.stdout.split() == ["slnc"]
