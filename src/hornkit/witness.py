"""Kernel descent: certify a vanishing product with a violated inequality.

Given classes whose product is zero, intersect seeded generic tangent
translates, pick a generic element phi of the intersection, and descend
into its kernel: the kernel's Schubert positions against the source flags
refine each class string to a two-step string whose inner block hands the
problem to a strictly smaller Grassmannian with the same cap.  The
descent ends when the intersection is {0}, where the pure dimension count
is violated.  The descent is one walk down: carrying each class's
positions through the kernels to the terminal level gives the index sets
of a violated Horn inequality for the original classes, certified by
explicit index-tracking strings.  Each level's intersection is the
mapped-back nullspace of the random tangent system that ``tangent`` also
builds for the numeric verdict, with its seeds labelled by level and
attempt; for two classes that is the span of their common cells, with
no stacked equations to eliminate.  The sampled map's kernel is the
nullspace of its rows.  Both nullspaces come straight from the
elimination core (``exactla._nullspace``), on rows already reduced mod p,
and the kernel positions read only the pivots of an echelon
(``tangent.schubert_position``).

A trace stores only what the descent chose: each level's classes and
kernel positions.  The box, the sampled map's rank and nullity, the
lifted strings, the next classes, the final inequality, its slack and
the certificates are all read off them.  So ``verify_witness`` checks
only what that representation cannot rule out, and
``WitnessTrace.from_json_dict`` refuses a document whose other fields
differ from what its levels give.

Every random choice is checked (two independent samples must agree on
kernel dimension and positions) and every arithmetic claim is re-verified
before returning, so a bad draw can only cause a retry or an error —
never a wrong certificate.  Each level's flags are drawn once; a flag's
inverse is finished the first time the equations or the kernel positions
read it, and kept for the other.
"""

from __future__ import annotations

import random
from collections.abc import Iterator, Mapping, Sequence

from ._record import Record, _check_derived, _int, _ints, _items, _words, integer
from .exactla import (
    DEFAULT_PRIME,
    Subspace,
    _nullspace,
    check_prime,
    derive_seed,
)
from .horn import HornInequality, evaluate, horn_verdict, lr_oracle
from .strings import (
    Partition,
    StepString,
    _check_box,
    lift,
    partition_to_string,
)
from .tangent import _random_system, schubert_position

__all__ = [
    "NonVanishingProduct",
    "GenericityExhausted",
    "WitnessLevel",
    "WitnessTrace",
    "find_witness",
    "verify_witness",
]

MAX_RETRIES = 8  # fresh draws per level before GenericityExhausted


class NonVanishingProduct(Exception):
    """The product is nonzero, so no violated inequality exists."""


class GenericityExhausted(Exception):
    """Random sampling kept producing inconsistent data; no answer given."""


class WitnessLevel(Record):
    """One level of the descent: its classes and the kernel's positions
    against their source flags; every other field is read off those."""

    __slots__ = ("lams", "kernel_positions")

    @property
    def r(self) -> int:
        return self.lams[0].r

    @property
    def n(self) -> int:
        return self.lams[0].n

    @property
    def phi_nullity(self) -> int:
        return self.kernel_positions[0].count("1")

    @property
    def phi_rank(self) -> int:
        return self.r - self.phi_nullity

    @property
    def terminal(self) -> bool:
        return self.phi_nullity == self.r

    @property
    def lifted_strings(self) -> tuple[str, ...]:
        return tuple(
            lift(partition_to_string(lam), StepString(rho, 1)).word
            for lam, rho in zip(self.lams, self.kernel_positions)
        )

    @property
    def mus(self) -> tuple[Partition, ...]:
        # each class's parts at the kernel's positions: substring_uv(lifted,
        # 0, 2) keeps the class's '0's and its '1's lifted to '2'
        return tuple(
            Partition(tuple(x for x, ch in zip(lam.parts, rho) if ch == "1"), lam.cap)
            for lam, rho in zip(self.lams, self.kernel_positions)
        )

    def to_json_dict(self) -> dict:
        return {
            "r": self.r,
            "n": self.n,
            "lams": [list(lam.parts) for lam in self.lams],
            "phi_rank": self.phi_rank,
            "phi_nullity": self.phi_nullity,
            "kernel_positions": list(self.kernel_positions),
            "lifted_strings": list(self.lifted_strings),
            "mus": [list(mu.parts) for mu in self.mus],
        }


class WitnessTrace(Record):
    """The descent's levels, top first; the violated inequality, its slack
    and the certificates are read off them."""

    __slots__ = ("levels",)

    @property
    def final(self) -> HornInequality:
        # Each class's top-level positions that survive every kernel are
        # its index set.
        top, d = self.levels[0], self.levels[-1].r
        indices = [range(1, top.r + 1)] * len(top.lams)
        for level in self.levels:
            indices = [
                [c for c, ch in zip(kept, rho) if ch == "1"]
                for kept, rho in zip(indices, level.kernel_positions)
            ]
        mus = tuple(
            Partition(tuple(pos - k for k, pos in enumerate(idx, start=1)), top.r - d)
            for idx in indices
        )
        return HornInequality(d, mus, (len(top.lams) - 1) * d * (top.n - top.r))

    @property
    def final_slack(self) -> int:
        return evaluate(self.final, self.levels[0].lams)

    @property
    def certificates(self) -> tuple[str, ...]:
        """Each class's first kernel positions with its final index set
        marked '2'."""
        return self._certificates(self.final)

    def _certificates(self, final: HornInequality) -> tuple[str, ...]:
        return tuple(
            "".join("2" if c in kept else ch for c, ch in enumerate(rho, start=1))
            for kept, rho in zip(final.indices, self.levels[0].kernel_positions)
        )

    def to_json_dict(self) -> dict:
        final = self.final
        return {
            "levels": [level.to_json_dict() for level in self.levels],
            "certificates": list(self._certificates(final)),
            "final": final.to_json_dict(),
            "slack": evaluate(final, self.levels[0].lams),
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "WitnessTrace":
        """Parse ``to_json_dict`` output from each level's classes and kernel
        positions; ValueError on a malformed field, or on a field that
        differs from what the levels determine."""
        try:
            levels = []
            for rec in _items(data["levels"]):
                cap = _int(rec["n"]) - _int(rec["r"])
                lams = tuple(Partition(_ints(x), cap) for x in _items(rec["lams"]))
                levels.append(WitnessLevel(lams, _words(rec["kernel_positions"])))
            trace = cls(tuple(levels))
            want = trace.to_json_dict()
        except (KeyError, TypeError, IndexError) as exc:
            raise ValueError(f"malformed witness trace: {exc!r}") from None
        _check_derived(data, want)
        return trace


def _sample_nonzero(space: Subspace, rng: random.Random) -> tuple[int, ...]:
    for _ in range(16):
        vec = space.random_element(rng)
        if any(vec):
            return vec
    raise GenericityExhausted("could not sample a nonzero intersection element")


def _levels(
    lams: tuple[Partition, ...], r: int, cap: int, seed: int, p: int
) -> Iterator[tuple[WitnessLevel, tuple, Subspace, Subspace]]:
    """Walk the descent down, one level at a time, and stop after the
    terminal level.  Each level yields its record together with the
    geometry behind it: the flag pairs, the tangent intersection, and the
    sampled map's kernel."""
    s = len(lams)
    level_no = 1
    while True:
        for attempt in range(MAX_RETRIES):
            sub = derive_seed(seed, "witness-level", level_no, attempt)
            flag_pairs, ncols, rows, to_grid = _random_system(
                lams, [(sub, i) for i in range(s)], p
            )
            meet = to_grid(_nullspace(rows, ncols, p))
            if meet.dim == 0:
                # phi = 0: the kernel is the whole level space and the level's
                # dimensional inequality is the violated one.
                kernel = Subspace.full(r, p)
                rho = (StepString("1" * r, 1),) * s
                break
            rng = random.Random(derive_seed(sub, "phi"))
            kernels = []
            for _ in range(2):
                # phi: a row-major cap x r grid vector, already reduced mod p
                phi = _sample_nonzero(meet, rng)
                phi_rows = [phi[a : a + r] for a in range(0, cap * r, r)]
                kernels.append(_nullspace(phi_rows, r, p))
            if kernels[0].dim != kernels[1].dim:
                last_error = "kernel dimension differed between samples"
                continue
            if kernels[0].dim == 0:
                last_error = "sampled map had zero kernel"
                continue
            positions = [
                tuple(schubert_position(k, fp[0]) for fp in flag_pairs) for k in kernels
            ]
            if positions[0] != positions[1]:
                last_error = "kernel positions differed between samples"
                continue
            kernel, rho = kernels[0], positions[0]
            break
        else:
            raise GenericityExhausted(
                f"level {level_no}: {last_error} after {MAX_RETRIES} attempts"
            )
        level = WitnessLevel(lams, tuple(str(rh) for rh in rho))
        yield level, flag_pairs, meet, kernel
        if level.terminal:
            return
        lams, r, level_no = level.mus, kernel.dim, level_no + 1


def find_witness(
    lams: Sequence[Partition],
    r: int,
    n: int,
    seed: int = 0,
    p: int = DEFAULT_PRIME,
) -> WitnessTrace:
    """Produce a certified violated Horn inequality for a vanishing product.

    Raises NonVanishingProduct when the product is nonzero and
    GenericityExhausted when repeated sampling failed to produce
    consistent generic data (never a wrong certificate).
    """
    lams = tuple(lams)
    r, n = _check_box(lams, r, n)
    seed = integer(seed)
    check_prime(p)
    if horn_verdict(lams, r, n).nonzero:
        what = "a single class" if len(lams) == 1 else f"the product of {len(lams)} classes"
        raise NonVanishingProduct(f"{what} is nonzero")

    trace = WitnessTrace(tuple(level for level, *_ in _levels(lams, r, n - r, seed, p)))
    final = trace.final
    if evaluate(final, lams) >= 0:
        raise GenericityExhausted(
            "descent produced a non-violated inequality; the sampled data "
            "cannot have been generic"
        )
    if not lr_oracle(final.mus, final.d, r):
        raise GenericityExhausted(
            f"descent at p = {p} produced an inequality whose mu-product "
            f"vanishes on Gr({final.d}, {r}); the sampled data cannot have been generic"
        )
    return trace


def verify_witness(trace: WitnessTrace, lams: Sequence[Partition]) -> bool:
    """Independently re-check what a trace's levels claim about the
    classes; False on a refused or malformed trace, never an exception."""
    lams = tuple(lams)
    try:
        levels = trace.levels
        if not lams or not levels or levels[0].lams != lams:
            return False
        _check_box(lams, levels[0].r, levels[0].n)
        for i, level in enumerate(levels, start=1):
            words = level.kernel_positions
            # 01-words of the level's length, one kernel dimension, only the
            # last level terminal, and each level's mus the next one's classes
            if (
                len(words) != len(lams)
                or len({w.count("1") for w in words}) != 1
                or any(StepString(w, 1).n != level.r for w in words)
                or level.terminal != (i == len(levels))
                or (i < len(levels) and levels[i].lams != level.mus)
            ):
                return False
        # The inequality is genuinely violated and genuinely a Horn
        # inequality: its mu-product is nonzero, by the LR oracle, which
        # shares no code with the search.
        final = trace.final
        return evaluate(final, lams) < 0 and lr_oracle(final.mus, final.d, lams[0].r)
    except (ValueError, KeyError, IndexError, TypeError, AttributeError):
        return False
