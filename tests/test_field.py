import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slnc.errors import DimensionMismatch, DivisionByZero, FieldMismatch, Singular
from slnc import Matrix
from slnc.field import (
    Echelon,
    FieldSpec,
    combine,
    dot,
    ff_op,
    first_outside,
    in_span,
    rank_of_rows,
)
from conftest import matmul, matrix_from_rows, vector_from_index

GF2 = FieldSpec(2)
GF3 = FieldSpec(3)
GF4 = FieldSpec(4)
GF5 = FieldSpec(5)

SMALL_FIELDS = [FieldSpec(q) for q in (2, 3, 4, 5, 7, 8, 13, 16)]


# -- construction ------------------------------------------------------------

def test_field_spec_prime_power_decomposition():
    assert (GF4.p, GF4.m) == (2, 2)
    assert (GF5.p, GF5.m) == (5, 1)
    assert FieldSpec(256).mul(0x80, 2) == 0x1B  # x^7 * x = x^4 + x^3 + x + 1


def test_field_specs_of_one_order_are_equal_and_hash_alike():
    # q fixes the field, so two specs of one q key a dict alike.
    assert FieldSpec(4) == GF4 and hash(FieldSpec(4)) == hash(GF4)
    assert {FieldSpec(4): "a", GF4: "b", GF5: "c"} == {GF4: "b", GF5: "c"}


@pytest.mark.parametrize("q", [1, 6, 10, 12, 100])
def test_field_spec_rejects_non_prime_powers(q):
    with pytest.raises(ValueError):
        FieldSpec(q)


def test_largest_supported_prime_field():
    field = FieldSpec(65521)  # largest prime below 2^16
    assert field.mul(65520, 65520) == 1  # (-1) * (-1)
    assert field.mul(12345, field.inv(12345)) == 1


def test_field_spec_rejects_unsupported():
    with pytest.raises(ValueError):
        FieldSpec(9)  # characteristic-3 extension
    with pytest.raises(ValueError):
        FieldSpec(512)  # degree 9
    with pytest.raises(ValueError):
        FieldSpec(1 << 17)  # prime size cap
    # A prime near 10^18: trial division would run for minutes, so the size
    # bound must apply before factoring.
    start = time.perf_counter()
    with pytest.raises(ValueError):
        FieldSpec(1000000000000000003)
    assert time.perf_counter() - start < 1.0


# -- element operations -------------------------------------------------------

def test_ff_op_examples():
    assert ff_op(GF2, 1, 1, "add") == 0
    assert ff_op(GF3, 2, 2, "mul") == 1
    # x * x reduces to x + 1 under x^2 + x + 1
    assert ff_op(GF4, 2, 2, "mul") == 3
    assert ff_op(GF5, 1, 3, "sub") == 3
    assert ff_op(GF4, 1, 3, "sub") == 2  # characteristic 2: sub is add
    with pytest.raises(ValueError, match="^unknown operation kind 'pow'$"):
        ff_op(GF5, 2, 3, "pow")


def test_ff_op_div_by_zero():
    with pytest.raises(DivisionByZero):
        ff_op(GF5, 3, 0, "div")


def test_ff_op_rejects_non_elements():
    with pytest.raises(FieldMismatch):
        ff_op(GF3, 3, 1, "add")
    with pytest.raises(FieldMismatch):
        ff_op(GF3, 1, -1, "mul")
    with pytest.raises(FieldMismatch):
        ff_op(GF3, True, 1, "add")


@pytest.mark.parametrize("field", SMALL_FIELDS, ids=lambda f: f"q{f.q}")
def test_field_axioms_exhaustive(field):
    """Associativity, distributivity, and inverses over the whole field."""
    elems = list(field.elements())
    for a, b in itertools.product(elems, repeat=2):
        assert field.add(a, b) == field.add(b, a)
        assert field.mul(a, b) == field.mul(b, a)
        assert field.sub(field.add(a, b), b) == a
    for a, b, c in itertools.product(elems, repeat=3):
        assert field.add(field.add(a, b), c) == field.add(a, field.add(b, c))
        assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))
        assert field.mul(a, field.add(b, c)) == field.add(field.mul(a, b), field.mul(a, c))
    for a in elems:
        assert field.add(a, 0) == a
        assert field.mul(a, 1) == a
        if a:
            assert field.mul(a, field.inv(a)) == 1


@pytest.mark.parametrize(
    "field", [f for f in SMALL_FIELDS if f.m == 1], ids=lambda f: f"q{f.q}"
)
def test_mul_matches_repeated_addition_in_prime_fields(field):
    for a in field.elements():
        acc = 0
        for k in field.elements():
            assert field.mul(a, k) == acc
            acc = field.add(acc, a)


@pytest.mark.parametrize("m", range(1, 9))
def test_cached_product_rows_match_the_bit_loop(m):
    field = FieldSpec(2**m)
    for c in field.elements():
        assert tuple(field.lane_table(c)[:field.q]) == tuple(field.mul(c, x) for x in field.elements())
        assert field.lane_table(c) is field.lane_table(c)
    # A reducible modulus has zero divisors, so every nonzero element having
    # an inverse pins the built-in modulus of degree m as irreducible.
    for c in range(1, field.q):
        assert field.mul(c, field.inv(c)) == 1


def entrywise(field, coeffs, vectors):
    """The reference sum of c_i * v_i, one entry at a time with mul and add."""
    want = []
    for entries in zip(*vectors):
        acc = 0
        for c, x in zip(coeffs, entries):
            acc = field.add(acc, field.mul(c, x))
        want.append(acc)
    return want


@pytest.mark.parametrize("field", SMALL_FIELDS, ids=lambda f: f"q{f.q}")
def test_combine_matches_entrywise_products(field):
    # Columns as long as the oracle's, and kernels as short as construction's.
    rng = random.Random(field.q)
    for n, terms in ((1, 1), (3, 2), (4, 4), (500, 5)):
        coeffs = [rng.randrange(field.q) for _ in range(terms - 1)] + [0]
        vectors = [tuple(rng.randrange(field.q) for _ in range(n)) for _ in range(terms)]
        assert combine(field, coeffs, vectors, n) == tuple(entrywise(field, coeffs, vectors))
    assert combine(field, [], [], 3) == (0, 0, 0)


LANE_FIELDS = [FieldSpec(2**m) for m in range(1, 9)] + [FieldSpec(p) for p in (3, 11, 127)]


@pytest.mark.parametrize("field", [*LANE_FIELDS, FieldSpec(131), FieldSpec(65521)], ids=lambda f: f"q{f.q}")
def test_column_combine_matches_entrywise_products(field):
    # Columns are bytes over every GF(2^m) and GF(p) up to p = 127, where a
    # lane sum stays below 256, and tuples from GF(131) up; combining them
    # gives the entry-by-entry sum on either path, in the columns' type.
    # An all-(q-1) column with all-(q-1) coefficients drives every GF(p)
    # lane sum to its largest value, 2(p - 1).
    kind = bytes if field in LANE_FIELDS else tuple
    assert field.lanes == (kind is bytes)
    rng = random.Random(field.q)
    n, top = 700, field.q - 1
    vectors = [field.column(rng.randrange(field.q) for _ in range(n)) for _ in range(5)]
    vectors.append(field.column([top] * n))
    assert {type(v) for v in vectors} == {kind}
    nonzero = [rng.randrange(1, field.q) for _ in vectors]
    for coeffs in (
        [rng.randrange(field.q) for _ in vectors],
        [0, nonzero[1], 0, 0, nonzero[4], 0],
        [0, 0, 0, 0, 0, nonzero[5]],
        [0] * len(vectors),
        [top] * len(vectors),
    ):
        got = combine(field, coeffs, vectors, n)
        assert type(got) is kind
        assert list(got) == entrywise(field, coeffs, vectors)


# -- matrices -----------------------------------------------------------------

def test_mat_rank_examples():
    assert rank_of_rows(GF5, Matrix.identity(GF5, 3).columns) == 3
    assert rank_of_rows(GF2, [[1, 1], [1, 1]]) == 1
    # rows sum to zero over GF(2), so rank drops to 2
    assert rank_of_rows(GF2, [[1, 1, 0], [0, 1, 1], [1, 0, 1]]) == 2


def test_mat_rank_empty_matrix():
    assert rank_of_rows(GF2, []) == 0
    assert rank_of_rows(GF2, [[0, 0], [0, 0]]) == 0


def test_mat_inverse_examples():
    eye = Matrix.identity(GF3, 4)
    assert eye.inverse() == eye
    half = matrix_from_rows(GF3, [[2, 0], [0, 2]])
    assert half.inverse() == half  # 2 * 2 = 1 in GF(3)
    upper = matrix_from_rows(GF2, [[1, 1], [0, 1]])
    assert upper.inverse() == upper
    assert matmul(upper, upper.inverse()) == Matrix.identity(GF2, 2)


def test_mat_inverse_singular():
    with pytest.raises(Singular, match="rank 1 < 2"):
        matrix_from_rows(GF2, [[1, 1], [1, 1]]).inverse()
    with pytest.raises(Singular, match="rank 0 < 2"):
        matrix_from_rows(GF2, [[0, 0], [0, 0]]).inverse()


def test_mismatched_lengths_raise_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        in_span(GF2, [(1, 0)], [(1, 0, 1)])
    with pytest.raises(DimensionMismatch):
        rank_of_rows(GF2, [(1, 0), (1,)])
    with pytest.raises(DimensionMismatch, match="^vector lengths differ: 2 vs 1$"):
        dot(GF2, (1, 0), (1,))
    with pytest.raises(DimensionMismatch, match="^only square matrices have inverses$"):
        matrix_from_rows(GF2, [[1, 0]]).inverse()


def test_in_span_of_no_vectors_holds():
    assert in_span(GF3, [(1, 0)], [])
    assert in_span(GF3, [], [])


def _span_vectors(field, cols):
    """Independent oracle: all vectors in the span by enumerating coefficients."""
    n = len(cols[0]) if cols else 0
    span = set()
    for coeffs in itertools.product(field.elements(), repeat=len(cols)):
        vec = tuple(
            # sum of coeff * col entry, computed coordinatewise
            _linear_combo_entry(field, coeffs, cols, i)
            for i in range(n)
        )
        span.add(vec)
    return span


def _linear_combo_entry(field, coeffs, cols, i):
    acc = 0
    for c, col in zip(coeffs, cols):
        acc = field.add(acc, field.mul(c, col[i]))
    return acc


@pytest.mark.parametrize("field", [GF2, GF3], ids=lambda f: f"q{f.q}")
def test_spans_intersect_agrees_with_exhaustive_oracle(field):
    import random

    rng = random.Random(20240 + field.q)
    for _ in range(40):
        rows = rng.randint(1, 4)
        c1 = rng.randint(1, 2)
        c2 = rng.randint(1, 2)
        b1 = [tuple(rng.randrange(field.q) for _ in range(rows)) for _ in range(c1)]
        b2 = [tuple(rng.randrange(field.q) for _ in range(rows)) for _ in range(c2)]
        # Rank additivity holds exactly when the two spans meet only at zero.
        additive = rank_of_rows(field, b1 + b2) == rank_of_rows(field, b1) + rank_of_rows(field, b2)
        oracle = _span_vectors(field, b1) & _span_vectors(field, b2) == {(0,) * rows}
        assert additive == oracle


@settings(max_examples=100, deadline=None, derandomize=True)
@given(q=st.sampled_from([2, 3, 4, 5, 16]), n=st.integers(1, 3), data=st.data())
def test_echelon_agrees_with_exhaustive_span(q, n, data):
    field = FieldSpec(q)
    vector = st.tuples(*[st.integers(0, q - 1)] * n)
    gens = data.draw(st.lists(vector, max_size=4))

    def span_of(vectors):
        return _span_vectors(field, vectors) if vectors else {(0,) * n}

    echelon = Echelon(field, n)
    kept = []  # the generators add accepted: an independent set spanning them all
    for g in gens:
        new = g not in span_of(kept)
        assert echelon.add(g) == new
        if new:
            kept.append(g)
    span = span_of(kept)
    assert q ** len(echelon) == len(span)
    for index in range(q ** n):
        v = vector_from_index(field, index, n)
        assert (not any(echelon.reduce(v))) == (v in span)
    # Row k of `other` is scale[k] * g_k + g_{k-1} over shuffled generators: a
    # change of basis with a nonzero diagonal, so it spans the same space.
    shuffled = [gens[i] for i in data.draw(st.permutations(range(len(gens))))]
    scale = data.draw(st.lists(st.integers(1, q - 1), min_size=len(gens), max_size=len(gens)))
    other = [
        combine(field, (scale[k], 1), (g, shuffled[k - 1] if k else (0,) * n), n)
        for k, g in enumerate(shuffled)
    ]
    assert Echelon(field, n, other).basis() == echelon.basis()


@settings(max_examples=150, deadline=None, derandomize=True)
@given(q=st.sampled_from([2, 3, 4, 5]), n=st.integers(1, 3), data=st.data())
def test_first_outside_is_the_first_product_tuple_outside_every_space(q, n, data):
    field = FieldSpec(q)
    vector = st.tuples(*[st.integers(0, q - 1)] * n)
    basis = data.draw(st.lists(vector, max_size=3))
    generators = data.draw(st.lists(st.lists(vector, max_size=3), max_size=3))
    spans = [_span_vectors(field, gens) if gens else {(0,) * n} for gens in generators]
    expected = next(
        (
            a
            for a in itertools.product(field.elements(), repeat=len(basis))
            if all(combine(field, a, basis, n) not in span for span in spans)
        ),
        None,
    )
    spaces = [Echelon(field, n, gens) for gens in generators]
    assert first_outside(field, basis, spaces) == expected


@pytest.mark.parametrize("field", [GF2, GF3, GF4])
def test_first_outside_with_no_space_is_the_zero_tuple(field):
    # construct_lnc gives a channel on no flow path no space to avoid and
    # relies on this: the zero tuple over its tail's kernels, () with none.
    basis = [(1, 0), (0, 1), (1, 1)]
    assert first_outside(field, basis, []) == (0, 0, 0)
    assert first_outside(field, basis[:1], []) == (0,)
    assert first_outside(field, [], []) == ()


@settings(max_examples=150, deadline=None)
@given(
    q=st.sampled_from([2, 3, 4, 5]),
    rows=st.integers(1, 4),
    cols=st.integers(1, 4),
    data=st.data(),
)
def test_rank_equals_transpose_rank(q, rows, cols, data):
    field = FieldSpec(q)
    entries = data.draw(
        st.lists(st.integers(0, q - 1), min_size=rows * cols, max_size=rows * cols)
    )
    m = [entries[i * cols:(i + 1) * cols] for i in range(rows)]
    rank = rank_of_rows(field, m)
    assert rank == rank_of_rows(field, list(zip(*m)))
    assert rank <= min(rows, cols)


@settings(max_examples=100, deadline=None)
@given(q=st.sampled_from([2, 3, 5]), n=st.integers(1, 3), data=st.data())
def test_inverse_roundtrip_when_full_rank(q, n, data):
    field = FieldSpec(q)
    entries = data.draw(st.lists(st.integers(0, q - 1), min_size=n * n, max_size=n * n))
    m = matrix_from_rows(field, [entries[i * n:(i + 1) * n] for i in range(n)])
    if rank_of_rows(field, m.columns) < n:
        with pytest.raises(Singular):
            m.inverse()
    else:
        assert matmul(m, m.inverse()) == Matrix.identity(field, n)
        assert matmul(m.inverse(), m) == Matrix.identity(field, n)


def test_vector_enumeration_order():
    # base-q integers with the first coordinate least significant
    assert vector_from_index(GF2, 1, 3) == (1, 0, 0)
    assert vector_from_index(GF2, 3, 3) == (1, 1, 0)
    assert vector_from_index(GF2, 6, 3) == (0, 1, 1)


def test_matrix_serialization_format():
    m = matrix_from_rows(GF5, [[1, 2, 3], [4, 0, 1]])
    assert m.serialize() == "1 2 3\n4 0 1"
    assert m == Matrix(GF5, ((1, 4), (2, 0), (3, 1)))
