"""Exact linear algebra over a prime field: canonical forms and intersections."""

import hashlib
import os
import pathlib
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hornkit.exactla import (
    DEFAULT_PRIME,
    Mat,
    Subspace,
    check_prime,
    derive_seed,
    intersect,
    random_invertible,
    random_matrix,
    rref,
)

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
    for row in rows:
        assert space.contains(row)


# --- Mat ---------------------------------------------------------------------


def test_mat_mul_and_inverse():
    rng = random.Random(5)
    m = random_invertible(4, rng, P)
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


# --- Subspace ----------------------------------------------------------------


def test_subspace_canonical_equality():
    v1 = Subspace.from_spanning([(1, 1, 0), (0, 0, 1)], 3, P)
    v2 = Subspace.from_spanning([(1, 1, 1), (2, 2, 1)], 3, P)
    assert v1 == v2  # same span, same canonical basis
    assert v1.dim == 2


def test_subspace_zero_and_full():
    z = Subspace.zero(4, P)
    f = Subspace.full(4, P)
    assert z.dim == 0 and f.dim == 4
    assert intersect([z, f]).dim == 0
    assert f.contains((1, 2, 3, 4))
    assert not z.contains((1, 0, 0, 0))


def test_annihilator_dimensions():
    rng = random.Random(7)
    for _ in range(20):
        v = random_subspace(rng, 5)
        ann = v.annihilator()
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
        assert Subspace.from_equations(v.annihilator().basis, 5, P) == v


@given(st.randoms(use_true_random=False))
@settings(max_examples=100)
def test_intersect_dimension_formula(rng):
    a = random_subspace(rng, 6)
    b = random_subspace(rng, 6)
    meet = intersect([a, b])
    assert a.contains_subspace(meet) and b.contains_subspace(meet)
    # dim(a meet b) >= dim a + dim b - ambient
    assert meet.dim >= a.dim + b.dim - 6
    join = Subspace.from_spanning(list(a.basis + b.basis), 6, P)
    assert join.dim == a.dim + b.dim - meet.dim


def test_intersect_three_spaces():
    rng = random.Random(3)
    spaces = [random_subspace(rng, 5) for _ in range(3)]
    meet = intersect(spaces)
    for sp in spaces:
        assert sp.contains_subspace(meet)


def test_random_element_lies_in_space():
    rng = random.Random(1)
    v = random_subspace(rng, 6)
    for _ in range(10):
        assert v.contains(v.random_element(rng))


# --- random generators -------------------------------------------------------


def test_random_invertible_is_invertible():
    rng = random.Random(0)
    for m in range(1, 5):
        assert random_invertible(m, rng, P).rank() == m


def test_random_matrix_shape():
    rng = random.Random(0)
    m = random_matrix(3, 5, rng, P)
    assert len(m.data) == 3 and all(len(row) == 5 for row in m.data)


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
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
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
    for bad in (0, 1, 4, 91, 561):
        with pytest.raises(ValueError, match=f"p = {bad} "):
            check_prime(bad)
