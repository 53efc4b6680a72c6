"""Exact linear algebra over a prime field: canonical forms and intersections."""

import hashlib
import itertools
import os
import pathlib
import random
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _twostep import contains_subspace
from hornkit.exactla import (
    DEFAULT_PRIME,
    Mat,
    Subspace,
    _bruhat,
    _echelon,
    check_prime,
    derive_seed,
    intersect,
    is_prime,
    random_matrix,
    rref,
)
from hornkit.strings import Partition
from hornkit.tangent import FlagModel, _random_system

P = 97  # small prime keeps hypothesis cases cheap; arithmetic is generic in p


def random_subspace(rng, ambient, p=P):
    k = rng.randint(0, ambient)
    vecs = [tuple(rng.randrange(p) for _ in range(ambient)) for _ in range(k)]
    return Subspace.from_spanning(vecs, ambient, p)


# --- rref --------------------------------------------------------------------


def test_rref_canonical_fixture():
    rows = ((2, 4, 6), (1, 2, 3), (0, 1, 1))
    reduced, pivots = rref(rows, 3, 7)
    assert pivots == (0, 1)
    assert reduced == ((1, 0, 1), (0, 1, 1))


def test_rref_zero_rows_dropped():
    reduced, pivots = rref(((0, 0), (0, 0)), 2, 5)
    assert reduced == () and pivots == ()


@given(st.integers(0, 5), st.integers(0, 5), st.randoms(use_true_random=False))
@settings(max_examples=150)
def test_rref_idempotent_and_spanning(nrows, ncols, rng):
    rows = tuple(
        tuple(rng.randrange(P) for _ in range(ncols)) for _ in range(nrows)
    )
    reduced, pivots = rref(rows, ncols, P)
    assert len(reduced) == len(pivots)
    again, pivots2 = rref(reduced, ncols, P)
    assert again == reduced and pivots2 == pivots
    # every original row lies in the span of the reduced rows
    space = Subspace.from_spanning(list(reduced), ncols, P)
    assert contains_subspace(space, Subspace.from_spanning(rows, ncols, P))


# --- Mat ---------------------------------------------------------------------


def test_mat_mul_and_inverse():
    rng = random.Random(5)
    m = FlagModel.random(4, rng, P).matrix
    minv = m.inverse()
    assert m.mul(minv).data == Mat.identity(4, P).data
    assert minv.mul(m).data == Mat.identity(4, P).data


def test_mat_inverse_singular():
    m = Mat(((1, 2), (2, 4)), P)
    with pytest.raises(ValueError):
        m.inverse()


def test_mat_rank_and_nullspace():
    m = Mat(((1, 2, 3), (2, 4, 6)), P)
    assert m.rank() == 1
    ker = m.nullspace()
    assert ker.dim == 2
    for vec in ker.basis:
        assert all(sum(r * v for r, v in zip(row, vec)) % P == 0 for row in m.data)


def test_mat_rejects_large_prime_products():
    # entries near a 31-bit prime: pure-int arithmetic must not overflow
    p = DEFAULT_PRIME
    m = Mat(((p - 1, p - 2), (p - 3, p - 5)), p)
    prod = m.mul(m)
    assert all(0 <= x < p for row in prod.data for x in row)
    assert m.rank() == 2


# --- Bruhat normal form ------------------------------------------------------


def _bruhat_form(x):
    """R * x * A from ``_bruhat``, after checking that R and A are
    upper-triangular and invertible and that the product is a scaled
    permutation matrix with column j nonzero in row perm[j] alone."""
    m, p = x.nrows, x.p
    perm, left, right = _bruhat(x)
    for tri in (left, right):
        assert (tri.nrows, tri.ncols, tri.p) == (m, m, p)
        assert all(tri.data[i][j] == 0 for i in range(m) for j in range(i))
        assert all(tri.data[i][i] for i in range(m))
    assert sorted(perm) == list(range(m))
    form = left.mul(x).mul(right)
    for j in range(m):
        assert [i for i in range(m) if form.data[i][j]] == [perm[j]]
    return perm, form


@pytest.mark.parametrize("m", range(5))
def test_bruhat_fixes_every_permutation_matrix(m):
    for perm in itertools.permutations(range(m)):
        x = Mat(tuple(tuple(int(perm[j] == i) for j in range(m)) for i in range(m)), P)
        assert _bruhat_form(x) == (perm, x)


def test_bruhat_empty_and_scalar():
    assert _bruhat(Mat((), P)) == ((), Mat((), P), Mat((), P))
    perm, form = _bruhat_form(Mat(((5,),), P))
    assert perm == (0,) and form == Mat(((5,),), P)


def test_bruhat_refuses_singular_and_non_square():
    with pytest.raises(ValueError, match="singular"):
        _bruhat(Mat(((1, 2), (2, 4)), P))
    with pytest.raises(ValueError, match="non-square"):
        _bruhat(Mat(((1, 2),), P))


@given(
    st.integers(0, 9),
    st.sampled_from((2, 3, 97, DEFAULT_PRIME)),
    st.randoms(use_true_random=False),
)
@settings(max_examples=300, deadline=None)
def test_bruhat_of_random_invertible_matrices(m, p, rng):
    _bruhat_form(FlagModel.random(m, rng, p).matrix)


# --- the elimination core against Gauss-Jordan -------------------------------


def _gauss_jordan(rows, ncols, p):
    """The reference: Gauss-Jordan elimination, which normalises each pivot
    row and clears its column in every other row, across all columns."""
    work = [list(int(x) % p for x in row) for row in rows]
    pivots = []
    rank = 0
    for col in range(ncols):
        pivot_row = next((i for i in range(rank, len(work)) if work[i][col]), None)
        if pivot_row is None:
            continue
        work[rank], work[pivot_row] = work[pivot_row], work[rank]
        inv = pow(work[rank][col], -1, p)
        work[rank] = [(x * inv) % p for x in work[rank]]
        for i in range(len(work)):
            if i != rank and work[i][col]:
                factor = work[i][col]
                work[i] = [(a - factor * b) % p for a, b in zip(work[i], work[rank])]
        pivots.append(col)
        rank += 1
    return tuple(tuple(row) for row in work[:rank]), tuple(pivots)


def _reference_nullspace(rows, ncols, p):
    reduced, pivots = _gauss_jordan(rows, ncols, p)
    basis = []
    for f in (j for j in range(ncols) if j not in pivots):
        vec = [0] * ncols
        vec[f] = 1
        for i, col in enumerate(pivots):
            vec[col] = (-reduced[i][f]) % p
        basis.append(vec)
    return _gauss_jordan(basis, ncols, p)[0]


def _reference_inverse(rows, p):
    n = len(rows)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    reduced, pivots = _gauss_jordan(aug, 2 * n, p)
    if pivots[:n] != tuple(range(n)) or len(reduced) != n:
        return None
    return tuple(row[n:] for row in reduced)


@st.composite
def _matrices(draw):
    """Up to 9 x 9 over a small or a large prime: uniform or a low-rank
    product, then some rows zeroed or duplicated and some columns zeroed."""
    p = draw(st.sampled_from((2, 3, 97, DEFAULT_PRIME)))
    nrows, ncols = draw(st.integers(0, 9)), draw(st.integers(0, 9))
    rng = draw(st.randoms(use_true_random=False))
    if draw(st.booleans()):
        k = rng.randint(0, min(nrows, ncols))
        a = [[rng.randrange(p) for _ in range(k)] for _ in range(nrows)]
        b = [[rng.randrange(p) for _ in range(ncols)] for _ in range(k)]
        rows = [
            [sum(a[i][t] * b[t][j] for t in range(k)) % p for j in range(ncols)]
            for i in range(nrows)
        ]
    else:
        rows = [[rng.randrange(p) for _ in range(ncols)] for _ in range(nrows)]
    for _ in range(draw(st.integers(0, 3)) if nrows else 0):
        i, j = rng.randrange(nrows), rng.randrange(nrows)
        edit = rng.choice(("zero row", "duplicate row", "zero column"))
        if edit == "zero row":
            rows[i] = [0] * ncols
        elif edit == "duplicate row":
            rows[i] = list(rows[j])
        elif ncols:
            for row in rows:
                row[j % ncols] = 0
    return tuple(tuple(row) for row in rows), ncols, p


@given(_matrices())
@settings(max_examples=400, deadline=None)
def test_elimination_matches_gauss_jordan(case):
    rows, ncols, p = case
    assert rref(rows, ncols, p) == _gauss_jordan(rows, ncols, p)
    m = Mat(rows, p)
    ker = m.nullspace()
    assert ker.basis == _reference_nullspace(rows, m.ncols, p)
    assert ker.ambient_dim == m.ncols
    assert m.rank() == len(_gauss_jordan(rows, m.ncols, p)[1])
    for vec in ker.basis:
        assert all(sum(a * v for a, v in zip(row, vec)) % p == 0 for row in rows)
    if m.nrows == m.ncols:
        expected = _reference_inverse(rows, p)
        if expected is None:
            with pytest.raises(ValueError, match="singular"):
                m.inverse()
        else:
            assert m.inverse().data == expected


def test_elimination_fixtures_match_gauss_jordan():
    # rank 2 of 3 with the second pivot row needing back-substitution into
    # the first, and a free column right of every pivot
    rows = ((1, 2, 3, 4), (0, 1, 5, 6), (1, 3, 8, 10))
    for p in (2, 3, 7, 97):
        assert rref(rows, 4, p) == _gauss_jordan(rows, 4, p)
        ker = Mat(rows, p).nullspace()
        assert ker.basis == _reference_nullspace(rows, 4, p)
    assert rref(rows, 4, 97) == (((1, 0, 90, 89), (0, 1, 5, 6)), (0, 1))


# 2**61 - 1 and 2**64 - 59 put p**2 past 64 bits, so the unreduced updates
# of the elimination core run on multi-word integers
WIDE_PRIMES = (2, 3, 97, DEFAULT_PRIME, 2**61 - 1, 2**64 - 59)


def _wide_matrices(p):
    """Seeded matrices 40 to 100 columns wide, where the elimination core
    piles up many unreduced updates: dense random ones (one of them
    square, for the inverse), all entries p - 1 (also square), and a
    low-rank product, whose dependent rows are left holding multiples of
    p that must not pass for pivots."""
    rng = random.Random(derive_seed("wide matrices", p))
    n = rng.randint(40, 60)
    dense = [
        (rng.randint(40, 100), rng.randint(40, 100)),
        (rng.randint(10, 30), rng.randint(60, 100)),
        (n, n),
    ]
    for nrows, ncols in dense:
        yield [[rng.randrange(p) for _ in range(ncols)] for _ in range(nrows)], ncols
    yield [[p - 1] * 40 for _ in range(40)], 40
    ncols, k = rng.randint(40, 100), rng.randint(5, 20)
    a = [[rng.randrange(p) for _ in range(k)] for _ in range(60)]
    b = [[rng.randrange(p) for _ in range(ncols)] for _ in range(k)]
    yield [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*b)] for row in a], ncols


@pytest.mark.parametrize("p", WIDE_PRIMES)
def test_elimination_matches_gauss_jordan_at_real_widths(p):
    for rows, ncols in _wide_matrices(p):
        reduced, pivots = _gauss_jordan(rows, ncols, p)
        assert rref(rows, ncols, p) == (reduced, pivots)
        m = Mat(rows, p)
        assert m.rank() == len(pivots)
        assert m.nullspace().basis == _reference_nullspace(rows, ncols, p)
        if len(rows) == ncols:
            expected = _reference_inverse(rows, p)
            if expected is None:
                with pytest.raises(ValueError, match="singular"):
                    m.inverse()
            else:
                assert m.inverse().data == expected


# --- the paired elimination step against the column-at-a-time loop -----------


def _echelon_by_columns(rows, ncols, p):
    """The reference for ``_echelon``'s raw output: one column per pass, the
    first remaining row nonzero mod p there as its pivot, scaled to a
    leading 1, and every other remaining row cleared with it."""
    work = list(rows)
    echelon = []
    for col in range(ncols):
        for i, row in enumerate(work):
            if row[0] % p:
                break
        else:
            work = [row[1:] for row in work]
            continue
        pivot = work.pop(i)
        inv = pow(pivot[0], -1, p)
        tail = [x * inv % p for x in pivot[1:]]
        echelon.append((col, tail))
        if not work:
            break
        work = [
            [a - f * b for a, b in zip(row[1:], tail)] if (f := row[0] % p) else row[1:]
            for row in work
        ]
    return echelon


@given(_matrices())
@settings(max_examples=400, deadline=None)
def test_echelon_matches_the_column_loop(case):
    rows, ncols, p = case
    assert _echelon(rows, ncols, p) == _echelon_by_columns(rows, ncols, p)


@pytest.mark.parametrize("p", WIDE_PRIMES)
def test_echelon_matches_the_column_loop_at_real_widths(p):
    for rows, ncols in _wide_matrices(p):
        assert _echelon(rows, ncols, p) == _echelon_by_columns(rows, ncols, p)


def _tight_classes(rng, r, n, s):
    """s partitions in the r x (n - r) box whose weights sum to
    (s - 1) * r * (n - r), drawn uniformly and then nudged a unit at a time."""
    cap = n - r
    parts = [[rng.randint(0, cap) for _ in range(r)] for _ in range(s)]
    total, target = sum(map(sum, parts)), (s - 1) * r * cap
    while total != target:
        step = 1 if total < target else -1
        row = parts[rng.randrange(s)]
        k = rng.randrange(r)
        if 0 <= row[k] + step <= cap:
            row[k] += step
            total += step
    return [Partition(sorted(row), cap) for row in parts]


@pytest.mark.parametrize("r, n, s", [(4, 8, 3), (5, 10, 3), (6, 12, 3), (7, 14, 3), (5, 10, 4)])
def test_echelon_matches_the_column_loop_on_stacked_systems(r, n, s):
    # the systems the numeric verdict ranks, on the benchmark's boxes
    rng = random.Random(derive_seed("stacked systems", r, n, s))
    for t in range(4):
        lams = _tight_classes(rng, r, n, s)
        _, ncols, rows, _ = _random_system(lams, [(t, i) for i in range(s)], DEFAULT_PRIME)
        assert _echelon(rows, ncols, DEFAULT_PRIME) == _echelon_by_columns(
            rows, ncols, DEFAULT_PRIME
        )


# Each fixture reaches one edge of the paired step at every prime below.
PAIR_STEP_FIXTURES = {
    # columns (0, 1) as a pair, then column 2 alone
    "odd column count": (((1, 2, 3), (4, 5, 6), (7, 8, 10), (1, 0, 1)), 3),
    # the second row is 0 at column 1 once the first pivot has cleared it
    "no second pivot after the first update": (((1, 1, 0, 1), (1, 1, 1, 0), (2, 2, 3, 1)), 4),
    # column 0 alone, then the same in the last two columns
    "no second pivot in the last pair": (((0, 1, 1), (0, 2, 2), (0, 3, 3)), 3),
    # the third row needs only the second pivot, the fourth neither
    "f1 = 0 != f2": (((1, 0, 1, 1), (0, 1, 1, 0), (0, 1, 0, 1), (0, 0, 1, 1)), 4),
    # the third row is cleared at column 1 by the first pivot alone
    "f1 != 0 = f2": (((1, 1, 0, 1), (0, 1, 1, 1), (1, 1, 1, 0)), 4),
    # a pair takes two rows, then the first pivot of the next takes the last
    "no rows left after a first pivot": (((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 1)), 4),
    "one row": (((0, 2, 3),), 3),
    "one column": (((0,), (3,), (5,)), 1),
    "no rows": ((), 4),
    "no columns": (((), ()), 0),
}


@pytest.mark.parametrize("name", PAIR_STEP_FIXTURES)
@pytest.mark.parametrize("p", (2, 3, 97, DEFAULT_PRIME))
def test_echelon_matches_the_column_loop_at_each_edge_of_the_pair_step(name, p):
    rows, ncols = PAIR_STEP_FIXTURES[name]
    rows = [[x % p for x in row] for row in rows]
    assert _echelon(rows, ncols, p) == _echelon_by_columns(rows, ncols, p)


def test_from_equations_rejects_rows_of_the_wrong_length():
    with pytest.raises(ValueError, match="expected 5"):
        Subspace.from_equations([(1, 2, 3)], 5, 7)
    with pytest.raises(ValueError, match="expected 3"):
        Subspace.from_equations([(1, 2, 3), (1, 2)], 3, 7)
    assert Subspace.from_equations([(1, 2, 3)], 3, 7).dim == 2


def test_from_equations_refuses_a_composite_p():
    # over Z/4 the nullspace would come back as a "basis" with no error
    with pytest.raises(ValueError, match="p = 4 is not a prime"):
        Subspace.from_equations([[1, 1]], 2, 4)


@given(_matrices(), st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_from_equations_reduces_unreduced_entries(case, rng):
    # each entry shifted by a multiple of p, negative or not: an entry
    # that is a nonzero multiple of p must not pass for a pivot
    rows, ncols, p = case
    shifted = [[x + p * rng.randint(-3, 3) for x in row] for row in rows]
    if shifted and ncols:
        shifted[0][0] = p * rng.choice((-2, -1, 1, 2))
    residues = [[x % p for x in row] for row in shifted]
    assert Subspace.from_equations(shifted, ncols, p) == Subspace.from_equations(
        residues, ncols, p
    )
    if rows:
        assert Subspace.from_equations(residues, ncols, p) == Mat(residues, p).nullspace()


# --- Subspace ----------------------------------------------------------------


def test_subspace_canonical_equality():
    v1 = Subspace.from_spanning([(1, 1, 0), (0, 0, 1)], 3, P)
    v2 = Subspace.from_spanning([(1, 1, 1), (2, 2, 1)], 3, P)
    assert v1 == v2  # same span, same canonical basis
    assert v1.dim == 2


def test_subspace_zero_and_full():
    z = Subspace.from_spanning((), 4, P)
    f = Subspace.full(4, P)
    assert z.dim == 0 and f.dim == 4
    assert intersect([z, f]).dim == 0
    assert contains_subspace(f, Subspace.from_spanning([(1, 2, 3, 4)], 4, P))
    assert not contains_subspace(z, Subspace.from_spanning([(1, 0, 0, 0)], 4, P))


def test_contains_subspace_rejects_other_ambient_spaces():
    with pytest.raises(ValueError, match="different ambient spaces"):
        contains_subspace(Subspace.full(3, 7), Subspace.full(3, 11))
    with pytest.raises(ValueError, match="different ambient spaces"):
        contains_subspace(Subspace.full(3, 7), Subspace.from_spanning((), 2, 7))
    assert contains_subspace(Subspace.full(3, 7), Subspace.from_spanning((), 3, 7))


def test_annihilator_dimensions():
    rng = random.Random(7)
    for _ in range(20):
        v = random_subspace(rng, 5)
        # the annihilator intersect sums: the nullspace of v's basis rows
        ann = Subspace.from_equations(v.basis, 5, P)
        assert ann.dim == 5 - v.dim
        for f in ann.basis:
            for b in v.basis:
                assert sum(x * y for x, y in zip(f, b)) % P == 0


def test_from_equations_is_the_solution_space():
    assert Subspace.from_equations([], 4, P) == Subspace.full(4, P)
    rng = random.Random(5)
    for _ in range(20):
        v = random_subspace(rng, 5)
        # a space is cut out by its annihilator's basis
        ann = Subspace.from_equations(v.basis, 5, P)
        assert Subspace.from_equations(ann.basis, 5, P) == v


@given(st.randoms(use_true_random=False))
@settings(max_examples=100)
def test_intersect_dimension_formula(rng):
    a = random_subspace(rng, 6)
    b = random_subspace(rng, 6)
    meet = intersect([a, b])
    assert contains_subspace(a, meet) and contains_subspace(b, meet)
    # dim(a meet b) >= dim a + dim b - ambient
    assert meet.dim >= a.dim + b.dim - 6
    join = Subspace.from_spanning(list(a.basis + b.basis), 6, P)
    assert join.dim == a.dim + b.dim - meet.dim


def test_intersect_three_spaces():
    rng = random.Random(3)
    spaces = [random_subspace(rng, 5) for _ in range(3)]
    meet = intersect(spaces)
    for sp in spaces:
        assert contains_subspace(sp, meet)


def test_random_element_lies_in_space():
    rng = random.Random(1)
    v = random_subspace(rng, 6)
    for _ in range(10):
        element = Subspace.from_spanning([v.random_element(rng)], 6, P)
        assert contains_subspace(v, element)


# --- random generators -------------------------------------------------------


def test_random_matrix_shape():
    rng = random.Random(0)
    m = random_matrix(3, 5, rng, P)
    assert len(m.data) == 3 and all(len(row) == 5 for row in m.data)


@given(
    st.integers(0, 2**64 - 1),
    st.integers(0, 9),
    st.integers(0, 9),
    st.sampled_from((2, 3, 97, DEFAULT_PRIME, 2**61 - 1, 2**64 - 59)),
)
@example(0, 3, 3, 2)  # p = 2 is where p.bit_length() and (p - 1).bit_length() differ
@settings(max_examples=300, deadline=None)
def test_random_matrix_draws_what_randrange_draws(seed, nrows, ncols, p):
    # random_matrix draws with getrandbits under randrange's rejection rule:
    # the same entries, and the generator left in the same state
    rng, reference = random.Random(seed), random.Random(seed)
    m = random_matrix(nrows, ncols, rng, p)
    expected = tuple(
        tuple(reference.randrange(p) for _ in range(ncols)) for _ in range(nrows)
    )
    assert m.data == expected and m.p == p
    assert m == Mat(expected, p)
    assert rng.getstate() == reference.getstate()


# --- seed derivation ---------------------------------------------------------


def test_derive_seed_deterministic_and_sensitive():
    assert derive_seed(1, "x", 2) == derive_seed(1, "x", 2)
    assert derive_seed(1, "x", 2) != derive_seed(1, "x", 3)
    assert derive_seed(1, "x") != derive_seed(1, "y")
    assert derive_seed("2") != derive_seed(2)


def test_derive_seed_matches_hashlib_blake2b():
    for parts in ((), (0,), (1, "x", 2), ("witness-level", 3, (4, 5)), (-7, "a", None)):
        digest = hashlib.blake2b(repr(parts).encode(), digest_size=8).digest()
        assert derive_seed(*parts) == int.from_bytes(digest, "big")


def test_import_leaves_openssl_hash_module_unloaded():
    code = "import sys, hornkit; print('_hashlib' in sys.modules)"
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout.strip() == "False"


def test_import_leaves_dataclasses_and_inspect_unloaded():
    # -S: no site-packages .pth hook runs, so only hornkit's own imports count
    code = (
        "import sys, hornkit, hornkit.cli; "
        "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))"
    )
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    assert out.stdout.strip() == "[]"


def test_check_prime_names_the_composite():
    check_prime(2)
    check_prime(DEFAULT_PRIME)
    assert is_prime(DEFAULT_PRIME)  # check_prime takes it without the proof
    for bad in (0, 1, 4, 91, 561):
        with pytest.raises(ValueError, match=f"p = {bad} "):
            check_prime(bad)


def test_check_prime_refuses_a_non_integer():
    # 7.0 == 7, so is_prime alone would accept it; pow() then refuses it
    for bad, match in ((7.0, "7.0"), ("7", "'7'"), (None, "None")):
        with pytest.raises(ValueError, match=f"{match} is not an integer"):
            check_prime(bad)
    # is_prime reads m the same way, so 7.0 and 11.0 are not called prime
    for bad in (7.0, 11.0, "7"):
        with pytest.raises(ValueError, match=f"{bad!r} is not an integer"):
            is_prime(bad)


# The smallest strong pseudoprime to every base 2..37 (399165290221 *
# 798330580441): is_prime's fixed bases call it prime, so p must stay below 2**64.
PSEUDOPRIME_2_TO_37 = 318665857834031151167461


def test_check_prime_refuses_beyond_64_bits():
    with pytest.raises(ValueError, match=r"2\*\*64"):
        check_prime(PSEUDOPRIME_2_TO_37)
    with pytest.raises(ValueError, match=r"2\*\*64"):
        check_prime(2**64)
    check_prime(2**64 - 59)  # the largest 64-bit prime


def test_is_prime_refuses_beyond_64_bits():
    with pytest.raises(ValueError, match=r"2\*\*64"):
        is_prime(PSEUDOPRIME_2_TO_37)
    with pytest.raises(ValueError, match=r"2\*\*64"):
        is_prime(2**64)
    assert is_prime(2**64 - 59)
    assert not is_prime(2**64 - 1)
