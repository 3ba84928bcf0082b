"""Exact arithmetic over small Galois fields: elements, vectors and row echelons.

Prime fields GF(p) use modular residues.  Binary extension fields GF(2^m)
pack polynomial coefficient vectors into integers (constant term in the
least significant bit) and reduce by a fixed irreducible modulus, so every
serialized symbol is reproducible across runs and implementations.

A column (one entry per input, as the oracle holds a channel's symbols) is
`bytes` when every element and every GF(p) sum of two fits in a byte: over
every GF(2^m) and over GF(p) for p <= 127.  `combine` then works on whole
columns in C, a product as one `bytes.translate` and a sum as one big-integer
XOR or add; larger primes keep tuple columns.

An `Echelon` holds a subspace as reduced rows and answers every rank and
span question the package asks; a secure bundle's mixing matrix, held as its
columns, lives in `secure`.  Every field operation is pure.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import DivisionByZero, SlncError

# Fixed moduli for GF(2^m), coefficient lists with the constant term first.
_BINARY_MODULI: dict[int, tuple[int, ...]] = {
    2: (1, 1, 1),                    # x^2 + x + 1
    3: (1, 1, 0, 1),                 # x^3 + x + 1
    4: (1, 1, 0, 0, 1),              # x^4 + x + 1
    5: (1, 0, 1, 0, 0, 1),           # x^5 + x^2 + 1
    6: (1, 1, 0, 0, 0, 0, 1),        # x^6 + x + 1
    7: (1, 1, 0, 0, 0, 0, 0, 1),     # x^7 + x + 1
    8: (1, 1, 0, 1, 1, 0, 0, 0, 1),  # x^8 + x^4 + x^3 + x + 1
}

_MAX_FIELD_SIZE = 1 << 16
_MAX_DEGREE = 8


def _factor_prime_power(q: int) -> tuple[int, int]:
    """Return (p, m) with q = p^m, p prime, or raise SlncError."""
    if q < 2:
        raise SlncError(f"field size must be at least 2, got {q}")
    # Every supported q lies below 2^16. Checking that first keeps the trial
    # division below from running for minutes on a huge prime.
    if q >= _MAX_FIELD_SIZE:
        raise SlncError(f"field sizes of 2^16 and above are unsupported (q={q})")
    p = 2
    while p * p <= q and q % p != 0:
        p += 1
    if q % p != 0:
        p = q  # q itself is prime
    m = 0
    rest = q
    while rest % p == 0:
        rest //= p
        m += 1
    if rest != 1:
        raise SlncError(f"{q} is not a prime power")
    return p, m


class FieldSpec:
    """GF(q) with elements represented as canonical integers in [0, q).

    Supported: prime q below 2^16, and GF(2^m) for m <= 8 with the fixed
    built-in moduli.  `lanes` says whether columns are byte lanes.
    """

    __slots__ = ("q", "p", "m", "lanes", "_mod_mask", "_lane_tables")

    def __init__(self, q: int):
        p, m = _factor_prime_power(q)
        self.q = q
        self.p = p
        self.m = m
        self.lanes = m > 1 or 2 * (p - 1) < 256
        self._lane_tables: dict[int, bytes] = {}
        if m == 1:
            self._mod_mask = 0
            return
        if p != 2:
            raise SlncError(f"extension fields with characteristic {p} are unsupported")
        if m > _MAX_DEGREE:
            raise SlncError(f"extension degree {m} exceeds the supported maximum {_MAX_DEGREE}")
        self._mod_mask = sum(c << i for i, c in enumerate(_BINARY_MODULI[m]))

    # Arithmetic below assumes canonical operands; `check` is the validating
    # entry point used by the public surface.

    def check(self, a: object) -> int:
        if not isinstance(a, int) or isinstance(a, bool) or not 0 <= a < self.q:
            raise SlncError(f"{a!r} is not a canonical element of {self}")
        return a

    def add(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a + b) % self.p
        return a ^ b

    def sub(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a - b) % self.p
        return a ^ b

    def mul(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a * b) % self.p
        res = 0
        top = 1 << self.m
        x = a
        while b:
            if b & 1:
                res ^= x
            b >>= 1
            x <<= 1
            if x & top:
                x ^= self._mod_mask
        return res

    def lane_table(self, c: int) -> bytes:
        """The `bytes.translate` table of x -> c * x, built once per c: c's products
        in element order in its first q bytes, and over GF(p) c * x mod p at every byte x."""
        table = self._lane_tables.get(c)
        if table is None:
            row = range(256) if self.m == 1 else self.elements()
            table = self._lane_tables[c] = bytes(self.mul(c, x) for x in row).ljust(256, b"\0")
        return table

    def column(self, values: Iterable[int]) -> Sequence[int]:
        """The canonical elements as a column: bytes over a byte-lane field, else a tuple."""
        return bytes(values) if self.lanes else tuple(values)

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero(f"zero has no inverse in {self}")
        if self.m == 1:
            return pow(a, self.p - 2, self.p)
        return self.lane_table(a).index(1)  # a's products hit 1 once, at a's inverse

    def elements(self) -> range:
        return range(self.q)

    # q fixes the modulus, so it fixes the field.
    def __eq__(self, other: object) -> bool:
        return isinstance(other, FieldSpec) and self.q == other.q

    def __hash__(self) -> int:
        return hash(self.q)

    def __repr__(self) -> str:
        return f"GF({self.q})"


# -- vectors (plain tuples of canonical ints) ---------------------------------

def combine(
    field: FieldSpec, coeffs: Sequence[int], vectors: Sequence[Sequence[int]], n: int
) -> Sequence[int]:
    """The length-n vector sum of c_i * v_i; zero coefficients are skipped.

    The vectors are tuples (kernels, or columns over a field without byte
    lanes) or all bytes (`FieldSpec.column` over a byte-lane field), and the
    sum is of their type.  On tuples, over GF(2^m) each term is a lookup in
    c_i's cached product table (`lane_table`); over GF(p) each term is added
    as an integer and reduced mod p at once.
    """
    if vectors and isinstance(vectors[0], bytes):
        return _combine_lanes(field, coeffs, vectors, n)
    # The first nonzero term starts the sum; with none, the sum is the zero
    # vector.  No pass is spent on zeros or on a closing reduction, which
    # matters to the thousands of one-entry kernels a refutation combines.
    acc: list[int] | None = None
    if field.m == 1:
        p = field.p
        for c, v in zip(coeffs, vectors):
            if c:
                if acc is None:
                    acc = [c * x % p for x in v]
                else:
                    acc = [(a + c * x) % p for a, x in zip(acc, v)]
        return (0,) * n if acc is None else tuple(acc)
    for c, v in zip(coeffs, vectors):
        if c:
            row = field.lane_table(c)
            if acc is None:
                acc = [row[x] for x in v]
            else:
                acc = [a ^ row[x] for a, x in zip(acc, v)]
    return (0,) * n if acc is None else tuple(acc)


def _combine_lanes(field: FieldSpec, coeffs: Sequence[int], vectors: Sequence[bytes], n: int) -> bytes:
    """`combine` on byte lanes: each term is one translate, and each sum one
    big-integer XOR (GF(2^m)) or one add, whose lanes stay below 2p - 1 and
    so carry into no neighbour, reduced mod p by one translate."""
    acc: bytes | None = None
    for c, v in zip(coeffs, vectors):
        if c:
            term = v.translate(field.lane_table(c))
            if acc is None:
                acc = term
            elif field.m == 1:
                total = int.from_bytes(acc, "little") + int.from_bytes(term, "little")
                acc = total.to_bytes(n, "little").translate(field.lane_table(1))
            else:
                acc = (int.from_bytes(acc, "little") ^ int.from_bytes(term, "little")).to_bytes(n, "little")
    return bytes(n) if acc is None else acc


def standard_basis(n: int, j: int) -> tuple[int, ...]:
    return tuple(1 if i == j else 0 for i in range(n))


def dot(field: FieldSpec, u: Sequence[int], v: Sequence[int]) -> int:
    if len(u) != len(v):
        raise SlncError(f"vector lengths differ: {len(u)} vs {len(v)}")
    acc = 0
    for a, b in zip(u, v):
        if a and b:
            acc = field.add(acc, field.mul(a, b))
    return acc


# -- row echelon core ---------------------------------------------------------

class Echelon:
    """A subspace of GF(q)^n held as reduced row-echelon rows keyed by pivot column:
    each row is zero left of its pivot, 1 at its pivot and 0 at every other
    pivot, so the rows sorted by pivot are the span's unique reduced basis."""

    __slots__ = ("field", "n", "rows")

    def __init__(self, field: FieldSpec, n: int, vectors: Iterable[Sequence[int]] = ()):
        self.field = field
        self.n = n
        self.rows: dict[int, list[int]] = {}
        for v in vectors:
            self.add(v)

    def __len__(self) -> int:
        return len(self.rows)

    def basis(self) -> tuple[tuple[int, ...], ...]:
        """The rows sorted by pivot: equal for every generating set of the span."""
        return tuple(tuple(self.rows[p]) for p in sorted(self.rows))

    def copy(self) -> Echelon:
        """An echelon of the same span that shares no row with this one."""
        twin = Echelon(self.field, self.n)
        twin.rows = {p: row[:] for p, row in self.rows.items()}
        return twin

    def reduce(self, v: Sequence[int]) -> Sequence[int]:
        """v minus its part in the span, which is zero exactly when v lies in it."""
        if len(v) != self.n:
            raise SlncError(f"vector of length {len(v)} in a space of dimension {self.n}")
        w = v
        for p, row in self.rows.items():
            # Every other row is zero at pivot p, so v's entry there is w's too.
            if v[p]:
                w = _subtract(self.field, list(v) if w is v else w, v[p], row)
        return w

    def add(self, v: Sequence[int]) -> bool:
        """Extend the span by v; False, changing nothing, when v already lies in it."""
        w = self.reduce(v)
        for p, x in enumerate(w):
            if x:
                break
        else:
            return False
        if x != 1:
            inv = self.field.inv(x)
            w = [self.field.mul(inv, y) for y in w]
        for row in self.rows.values():
            if row[p]:
                _subtract(self.field, row, row[p], w)
        self.rows[p] = list(v) if w is v else w
        return True


def first_outside(
    field: FieldSpec, basis: Sequence[Sequence[int]], spaces: Iterable[Echelon]
) -> tuple[int, ...] | None:
    """The first coefficient tuple a in `itertools.product` order whose
    combination sum_k a_k * basis[k] lies outside every space; None if none does.

    v lies in a space exactly when its residue `reduce(v)` is zero.  The
    residue is linear in v (its entries at the free columns c are the forms of
    the space's annihilator: 1 at c, -row_p[c] at each pivot p), so that of the
    combination is sum_k a_k * reduce(basis[k]), and a space is decided at the
    last coordinate whose basis vector has a nonzero residue.  The walk is
    depth-first, first coordinate slowest, with one running residue per space;
    a value is admissible when every space decided at its coordinate keeps a
    nonzero residue.  Later coordinates leave a decided residue unchanged, so a
    rejected prefix has no admissible completion and the first full tuple
    reached is the first of all; coordinates past the last decided one stay 0.
    """
    d = len(basis)
    decided: list[list[slice]] = [[] for _ in range(d)]
    steps: list[list[int]] = [[] for _ in range(d)]  # every space's residue of basis[k]
    width = 0
    for space in spaces:
        residues = [space.reduce(b) for b in basis]
        last = max((k for k in range(d) if any(residues[k])), default=None)
        if last is None:
            return None  # every combination lies in the space
        decided[last].append(slice(width, width + space.n))
        width += space.n
        for step, residue in zip(steps, residues):
            step.extend(residue)
    depth = max((k + 1 for k in range(d) if decided[k]), default=0)
    sums = [(0,) * width]
    prefix: list[int] = []
    start = 0
    while len(prefix) < depth:
        k = len(prefix)
        for a in range(start, field.q):
            s = combine(field, (1, a), (sums[k], steps[k]), width)
            if all(any(s[part]) for part in decided[k]):
                prefix.append(a)
                sums.append(s)
                start = 0
                break
        else:
            if not prefix:
                return None
            start = prefix.pop() + 1
            sums.pop()
    return (*prefix, *(0,) * (d - depth))


def _subtract(field: FieldSpec, w: list[int], c: int, row: Sequence[int]) -> list[int]:
    """w - c * row, computed in place."""
    sub, mul = field.sub, field.mul
    for idx, x in enumerate(row):
        if x:
            w[idx] = sub(w[idx], mul(c, x))
    return w


def rank_of_rows(field: FieldSpec, rows: Sequence[Sequence[int]]) -> int:
    return len(Echelon(field, len(rows[0]), rows)) if rows else 0


def in_span(field: FieldSpec, span: Sequence[Sequence[int]], vectors: Sequence[Sequence[int]]) -> bool:
    """True iff every vector lies in the row span of `span`."""
    if not vectors:
        return True
    echelon = Echelon(field, len(vectors[0]), span)
    return not any(any(echelon.reduce(v)) for v in vectors)
