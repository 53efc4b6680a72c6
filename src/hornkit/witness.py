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

from ._record import Record, integer
from .exactla import (
    DEFAULT_PRIME,
    Subspace,
    _nullspace,
    check_prime,
    derive_seed,
)
from .horn import HornInequality, _int, _ints, _items, evaluate, horn_verdict, lr_oracle
from .strings import (
    Partition,
    StepString,
    _check_box,
    lift,
    partition_to_string,
    string_to_partition,
    substring_uv,
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
    """One level of the descent: the ambient box, the sampled map's rank
    and nullity, the kernel's positions, and the refined strings."""

    __slots__ = (
        "r",
        "n",
        "lams",
        "phi_rank",
        "phi_nullity",
        "kernel_positions",
        "lifted_strings",
        "mus",
    )

    @property
    def terminal(self) -> bool:
        return self.phi_nullity == self.r

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
    __slots__ = ("levels", "final", "final_slack", "certificates")

    def to_json_dict(self) -> dict:
        return {
            "levels": [level.to_json_dict() for level in self.levels],
            "certificates": list(self.certificates),
            "final": self.final.to_json_dict(),
            "slack": self.final_slack,
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "WitnessTrace":
        """Parse ``to_json_dict`` output; ValueError on any malformed field."""
        try:
            levels = []
            for rec in _items(data["levels"]):
                r, n = _int(rec["r"]), _int(rec["n"])
                levels.append(
                    WitnessLevel(
                        r,
                        n,
                        tuple(Partition(_ints(x), n - r) for x in _items(rec["lams"])),
                        _int(rec["phi_rank"]),
                        _int(rec["phi_nullity"]),
                        _words(rec["kernel_positions"]),
                        _words(rec["lifted_strings"]),
                        tuple(Partition(_ints(x), n - r) for x in _items(rec["mus"])),
                    )
                )
            return cls(
                tuple(levels),
                HornInequality.from_json_dict(data["final"]),
                _int(data["slack"]),
                _words(data["certificates"]),
            )
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed witness trace: {exc!r}") from None


def _words(value: object) -> tuple[str, ...]:
    words = _items(value)
    if not all(isinstance(w, str) for w in words):
        raise ValueError(f"expected a list of strings, got {value!r}")
    return words


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
        lifted = tuple(lift(partition_to_string(lam), rh) for lam, rh in zip(lams, rho))
        mus = tuple(string_to_partition(substring_uv(sig, 0, 2)) for sig in lifted)
        nullity = kernel.dim
        level = WitnessLevel(
            r,
            r + cap,
            lams,
            r - nullity,
            nullity,
            tuple(str(rh) for rh in rho),
            tuple(str(sig) for sig in lifted),
            mus,
        )
        yield level, flag_pairs, meet, kernel
        if level.terminal:
            return
        lams, r, level_no = mus, nullity, level_no + 1


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
    cap = n - r
    seed = integer(seed)
    check_prime(p)
    if horn_verdict(lams, r, n).nonzero:
        what = "a single class" if len(lams) == 1 else f"the product of {len(lams)} classes"
        raise NonVanishingProduct(f"{what} is nonzero")

    # Each class's top-level positions that survive every kernel are the
    # final index set; its certificate marks them '2' inside the first kernel.
    levels = []
    indices = [tuple(range(1, r + 1))] * len(lams)
    for level, *_ in _levels(lams, r, cap, seed, p):
        levels.append(level)
        indices = [
            tuple(c for c, ch in zip(kept, rho) if ch == "1")
            for kept, rho in zip(indices, level.kernel_positions)
        ]
    certs = tuple(
        "".join("2" if c in kept else ch for c, ch in enumerate(rho, start=1))
        for kept, rho in zip(indices, levels[0].kernel_positions)
    )
    d = levels[-1].r
    mus = tuple(
        Partition(tuple(pos - k for k, pos in enumerate(idx, start=1)), r - d)
        for idx in indices
    )
    final = HornInequality(d, mus, tuple(indices), (len(lams) - 1) * d * cap)
    slack = evaluate(final, lams)
    if slack >= 0:
        raise GenericityExhausted(
            "descent produced a non-violated inequality; the sampled data "
            "cannot have been generic"
        )
    if not lr_oracle(mus, d, r):
        raise GenericityExhausted(
            f"descent at p = {p} produced an inequality whose mu-product "
            f"vanishes on Gr({d}, {r}); the sampled data cannot have been generic"
        )
    return WitnessTrace(tuple(levels), final, slack, certs)


def verify_witness(trace: WitnessTrace, lams: Sequence[Partition]) -> bool:
    """Independently re-check every claim a trace makes about the classes."""
    lams = tuple(lams)
    try:
        if not lams or not trace.levels:
            return False
        r, cap = lams[0].r, lams[0].cap
        n = r + cap
        s = len(lams)
        top = trace.levels[0]
        if top.lams != lams or top.r != r or top.n != n:
            return False
        # Level chaining: nullities strictly decrease and feed the next level.
        for level, nxt in zip(trace.levels, trace.levels[1:]):
            if level.terminal or level.phi_nullity >= level.r:
                return False
            if nxt.lams != level.mus or nxt.r != level.phi_nullity:
                return False
            if nxt.n - nxt.r != cap:
                return False
        if not trace.levels[-1].terminal:
            return False
        # Per-level string consistency.
        for level in trace.levels:
            if level.phi_rank != level.r - level.phi_nullity:
                return False
            fields = (
                level.lams, level.kernel_positions, level.lifted_strings, level.mus
            )
            if any(len(field) != s for field in fields):
                return False
            for lam, rho_word, lifted_word, mu in zip(*fields):
                rho = StepString(rho_word, 1)
                if rho.word.count("1") != level.phi_nullity or rho.n != level.r:
                    return False
                sigma = lift(partition_to_string(lam), rho)
                if sigma.word != lifted_word:
                    return False
                if string_to_partition(substring_uv(sigma, 0, 2)) != mu:
                    return False
        # Certificates carry the final index sets.
        final = trace.final
        d = final.d
        if len(trace.certificates) != s or d != trace.levels[-1].r:
            return False
        for cert_word, rho_word, idx, mu in zip(
            trace.certificates, top.kernel_positions, final.indices, final.mus
        ):
            cert = StepString(cert_word, 2)
            if cert.n != r or cert.positions(2) != tuple(idx):
                return False
            if cert_word.replace("2", "1") != rho_word:
                return False
            if mu.parts != tuple(pos - k for k, pos in enumerate(idx, start=1)):
                return False
            if mu.cap != r - d:
                return False
        if final.rhs != (s - 1) * d * cap:
            return False
        # The inequality is genuinely violated...
        if evaluate(final, lams) != trace.final_slack or trace.final_slack >= 0:
            return False
        # ...and genuinely a Horn inequality: its mu-product is nonzero, by
        # the LR oracle, which shares no code with the search.
        return lr_oracle(final.mus, d, r)
    except (ValueError, KeyError, IndexError, TypeError, AttributeError):
        return False
