"""Kernel descent: certify a vanishing product with a violated inequality.

Given classes whose product is zero, intersect seeded generic tangent
translates, pick a generic element phi of the intersection, and descend
into its kernel: the kernel's Schubert positions against the source flags
refine each class string to a two-step string whose inner block hands the
problem to a strictly smaller Grassmannian with the same cap.  The
descent ends when the intersection is {0}, where the pure dimension count
is violated; composing the per-level kernel positions back up turns that
terminal inequality into a violated Horn inequality for the original
classes, certified by explicit index-tracking strings.  Each level's
intersection is one nullspace of the stacked tangent equations.

Every random choice is checked (two independent samples must agree on
kernel dimension and positions) and every arithmetic claim is re-verified
before returning, so a bad draw can only cause a retry or an error —
never a wrong certificate.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Mapping, Sequence

from .exactla import (
    DEFAULT_PRIME,
    Mat,
    Subspace,
    check_prime,
    derive_seed,
)
from .horn import HornInequality, evaluate, horn_verdict, lr_oracle
from .strings import (
    Partition,
    StepString,
    lift,
    partition_to_string,
    string_to_partition,
    substring_uv,
)
from .tangent import FlagModel, schubert_position, tangents_with_flags

__all__ = [
    "NonVanishingProduct",
    "GenericityExhausted",
    "WitnessLevel",
    "WitnessTrace",
    "find_witness",
    "verify_witness",
]


class NonVanishingProduct(Exception):
    """The product is nonzero, so no violated inequality exists."""


class GenericityExhausted(Exception):
    """Random sampling kept producing inconsistent data; no answer given."""


@dataclass(frozen=True)
class WitnessLevel:
    """One level of the descent: the ambient box, the sampled map's rank
    and nullity, the kernel's positions, and the refined strings."""

    r: int
    n: int
    lams: tuple[Partition, ...]
    phi_rank: int
    phi_nullity: int
    kernel_positions: tuple[str, ...]
    lifted_strings: tuple[str, ...]
    mus: tuple[Partition, ...]

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


@dataclass(frozen=True)
class WitnessTrace:
    levels: tuple[WitnessLevel, ...]
    final: HornInequality
    final_slack: int
    certificates: tuple[str, ...]

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
            final = data["final"]
            inner_cap = _int(final["cap"])
            ineq = HornInequality(
                _int(final["d"]),
                tuple(Partition(_ints(x), inner_cap) for x in _items(final["mus"])),
                tuple(_ints(x) for x in _items(final["indices"])),
                _int(final["rhs"]),
            )
            return cls(
                tuple(levels),
                ineq,
                _int(data["slack"]),
                _words(data["certificates"]),
            )
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed witness trace: {exc!r}") from None


def _items(value: object) -> tuple:
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"expected a list, got {value!r}")
    return tuple(value)


def _int(value: object) -> int:
    if type(value) is not int:
        raise ValueError(f"expected an integer, got {value!r}")
    return value


def _ints(value: object) -> tuple[int, ...]:
    return tuple(_int(x) for x in _items(value))


def _words(value: object) -> tuple[str, ...]:
    words = _items(value)
    if not all(isinstance(w, str) for w in words):
        raise ValueError(f"expected a list of strings, got {value!r}")
    return words


@dataclass(frozen=True)
class _LevelData:
    """Internal per-level record, including the geometry (for tests)."""

    lams: tuple[Partition, ...]
    r: int
    cap: int
    flag_pairs: tuple[tuple[FlagModel, FlagModel], ...]
    meet: Subspace
    kernel: Subspace
    rho: tuple[StepString, ...]
    lifted: tuple[StepString, ...]
    mus: tuple[Partition, ...]
    rank: int
    nullity: int


def _unvec(vec: Sequence[int], rows: int, cols: int, p: int) -> Mat:
    return Mat(
        tuple(tuple(vec[a * cols + b] for b in range(cols)) for a in range(rows)), p
    )


def _sample_nonzero(space: Subspace, rng: random.Random) -> tuple[int, ...]:
    for _ in range(16):
        vec = space.random_element(rng)
        if any(vec):
            return vec
    raise GenericityExhausted("could not sample a nonzero intersection element")


def _descend(
    lams: tuple[Partition, ...],
    r: int,
    cap: int,
    level_no: int,
    seed: int,
    p: int,
    max_retries: int,
) -> list[_LevelData]:
    s = len(lams)
    taus = [partition_to_string(lam) for lam in lams]
    last_error = "inconsistent kernel positions"
    for attempt in range(max_retries):
        sub = derive_seed(seed, "witness-level", level_no, attempt)
        flag_pairs = tuple(
            (
                FlagModel.random(r, random.Random(derive_seed(sub, i, "src")), p),
                FlagModel.random(cap, random.Random(derive_seed(sub, i, "dst")), p),
            )
            for i in range(s)
        )
        equations = tangents_with_flags(lams, flag_pairs)
        meet = Subspace.from_equations(
            [row for rows in equations for row in rows], r * cap, p
        )
        if meet.dim == 0:
            # phi = 0: the kernel is the whole level space and the level's
            # dimensional inequality is the violated one.
            ones = StepString("1" * r, 1)
            lifted = tuple(lift(tau, ones) for tau in taus)
            return [
                _LevelData(
                    lams,
                    r,
                    cap,
                    flag_pairs,
                    meet,
                    Subspace.full(r, p),
                    (ones,) * s,
                    lifted,
                    lams,
                    rank=0,
                    nullity=r,
                )
            ]
        rng = random.Random(derive_seed(sub, "phi"))
        kernels = []
        for _ in range(2):
            phi = _sample_nonzero(meet, rng)
            kernels.append(_unvec(phi, cap, r, p).nullspace())
        if kernels[0].dim != kernels[1].dim:
            last_error = "kernel dimension differed between samples"
            continue
        nullity = kernels[0].dim
        if nullity == 0:
            last_error = "sampled map had zero kernel"
            continue
        positions = [
            tuple(schubert_position(k, fp[0]) for fp in flag_pairs) for k in kernels
        ]
        if positions[0] != positions[1]:
            last_error = "kernel positions differed between samples"
            continue
        rho = positions[0]
        lifted = tuple(lift(tau, rh) for tau, rh in zip(taus, rho))
        mus = tuple(
            string_to_partition(substring_uv(sig, 0, 2)) for sig in lifted
        )
        level = _LevelData(
            lams,
            r,
            cap,
            flag_pairs,
            meet,
            kernels[0],
            rho,
            lifted,
            mus,
            rank=r - nullity,
            nullity=nullity,
        )
        return [level] + _descend(
            mus, nullity, cap, level_no + 1, seed, p, max_retries
        )
    raise GenericityExhausted(
        f"level {level_no}: {last_error} after {max_retries} attempts"
    )


def _compose_certificates(levels: Sequence[_LevelData]) -> tuple[StepString, ...]:
    """Push the terminal level's full index set back up through the kernels:
    at each level the inner certificate's '2's select which kernel
    directions keep carrying the final inequality."""
    s = len(levels[0].lams)
    terminal = levels[-1]
    ones = StepString("1" * terminal.r, 1)
    certs = [lift(ones, ones) for _ in range(s)]
    for level in reversed(levels[:-1]):
        for i in range(s):
            marker = StepString(
                "".join("1" if ch == "2" else "0" for ch in certs[i].word), 1
            )
            certs[i] = lift(level.rho[i], marker)
    return tuple(certs)


def find_witness(
    lams: Sequence[Partition],
    r: int,
    n: int,
    seed: int = 0,
    p: int = DEFAULT_PRIME,
    max_retries: int = 8,
) -> WitnessTrace:
    """Produce a certified violated Horn inequality for a vanishing product.

    Raises NonVanishingProduct when the product is nonzero and
    GenericityExhausted when repeated sampling failed to produce
    consistent generic data (never a wrong certificate).
    """
    lams = tuple(lams)
    cap = n - r
    if any(lam.r != r or lam.cap != cap for lam in lams):
        raise ValueError(f"classes must lie in Lambda({r}, {cap})")
    check_prime(p)
    if len(lams) < 2 or r == 0 or cap == 0:
        raise NonVanishingProduct("fewer than two proper classes cannot vanish")
    if horn_verdict(lams, r, n).nonzero:
        raise NonVanishingProduct(f"the product of {len(lams)} classes is nonzero")

    levels = _descend(lams, r, cap, 1, seed, p, max_retries)
    certs = _compose_certificates(levels)
    d = levels[-1].r
    s = len(lams)
    indices = tuple(cert.positions(2) for cert in certs)
    mus = tuple(
        Partition(tuple(pos - k for k, pos in enumerate(idx, start=1)), r - d)
        for idx in indices
    )
    final = HornInequality(d, mus, indices, (s - 1) * d * cap)
    slack = evaluate(final, lams)
    if slack >= 0:
        raise GenericityExhausted(
            "descent produced a non-violated inequality; the sampled data "
            "cannot have been generic"
        )
    public_levels = tuple(
        WitnessLevel(
            level.r,
            level.r + level.cap,
            level.lams,
            level.rank,
            level.nullity,
            tuple(str(rh) for rh in level.rho),
            tuple(str(sig) for sig in level.lifted),
            level.mus,
        )
        for level in levels
    )
    return WitnessTrace(public_levels, final, slack, tuple(c.word for c in certs))


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
        for cert_word, idx, mu in zip(trace.certificates, final.indices, final.mus):
            cert = StepString(cert_word, 2)
            if cert.n != r or cert.positions(2) != tuple(idx):
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
    except (ValueError, KeyError, IndexError, TypeError):
        return False
