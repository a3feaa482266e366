"""Characters of the additive, multiplicative and unit-filtration groups.

The fixed additive character of the prime field sends 1 to zeta_p; the
additive character attached to a in F_{q^n} is

    psi_a(x) = zeta_p ^ lift(Tr_{F_{q^n}/F_p}(a x)).

Its conductor relative to the ground field F_q is q^m for the unique m | n
such that psi_a factors through Tr_{F_{q^n}/F_{q^m}} and through no smaller
trace; equivalently a lies in F_{q^m} and in no smaller layer.  The trivial
character has conductor q (m = 1).

Principal unit groups (1 + pi F_{q^n}[pi]/(pi^h))^x are the unipotent groups
of the n = 1 twisted rings, with the index law of elements (1, b_1, ...,
b_{h-1}) in product order, and their characters are enumerated exactly as
root-exponent tables over those indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import lcm
from typing import TYPE_CHECKING

import numpy as np

from .errors import (
    CharacterMismatchError,
    NotInSubfieldError,
    RootOrderError,
    UnsupportedParametersError,
)
from .ffield import Field, field, splitting_params
from .twistring import twisted_ring, unipotent_index_law

if TYPE_CHECKING:
    from .repkit import GroupModel


@dataclass(frozen=True)
class AddChar:
    """psi_a on the additive group of F (an extension of the ground F_q)."""

    F: Field
    q: int
    a: int

    @cached_property
    def table(self) -> np.ndarray:
        """x -> the exponent of zeta_p at x, as an index array over F: the
        absolute trace table read at a x."""
        F = self.F
        return F.trace_table(field(F.p, 1))[F.mul(self.a, np.arange(F.order, dtype=np.int64))]

    def conductor_power(self) -> int:
        """The m with conductor q^m, certified by a kernel check."""
        p, e = splitting_params(self.q)
        n = self.F.k // e
        for m in range(1, n + 1):
            if n % m:
                continue
            sub = field(p, e * m)
            # does psi factor through Tr to F_{q^m}?  check triviality on the
            # trace kernel
            if not self.table[self.F.trace_table(sub) == 0].any():
                # cross-check: equivalent to a in F_{q^m}
                if self.F.retract_table(sub)[self.a] < 0:
                    raise NotInSubfieldError(f"a is not in F_(q^{m})")
                return m
        raise UnsupportedParametersError(f"F_{self.F.order} is not over F_{self.q}")

    def factor_through_trace(self, m: int) -> "AddChar":
        """psi_1 on F_{q^m} with psi = psi_1 o Tr_{F_{q^n}/F_{q^m}}."""
        p, e = splitting_params(self.q)
        sub = field(p, e * m)
        b = int(self.F.retract_table(sub)[self.a])
        if b < 0:
            raise NotInSubfieldError(f"element {self.a} of {self.F} not in {sub}")
        return AddChar(sub, self.q, b)


def principal_units(L: Field, h: int) -> GroupModel:
    """(1 + pi O_L / pi^h)^x on the indices of the units (1, b_1, ...,
    b_{h-1}) in product order: the unipotent group of L[pi]/(pi^h), which is
    the n = 1 twisted ring over L whose twist by q = |L| acts trivially.  It
    is generated by the units with one nonzero b_j, in index order."""
    from .repkit import GroupModel

    ring = twisted_ring(1, L.order, h, L)
    Q = L.order
    gens = (np.arange(1, Q, dtype=np.int64) * Q ** np.arange(h - 1, dtype=np.int64)[:, None]).ravel()
    return GroupModel(Q ** (h - 1), *unipotent_index_law(ring), gens)


def unit_characters(G: GroupModel, R: int) -> np.ndarray:
    """All characters of the abelian unit group, deterministic order, as one
    (characters, |G|) array of exponent tables over the element indices."""
    from .repkit import abelian_character_extensions

    # extend the trivial character of the identity, element 0
    return abelian_character_extensions(G, np.arange(len(G)), ([0], [0]), R)


def layer_as_additive_char(chi: np.ndarray, L: Field, q: int, R: int) -> AddChar:
    """Identify the restriction of the unit character with exponent table
    chi to the last unit layer with psi_a.

    The last layer {1 + b pi^(h-1)} is isomorphic to (L, +), so the
    restriction equals psi_a for a unique a, found by scanning a in index
    order and comparing each psi_a table with the restriction.
    """
    p = L.p
    if R % p:
        raise RootOrderError(f"root order {R} is not divisible by p = {p}")
    # b -> chi(1 + b pi^(h-1)) as exponents of zeta_R: these elements come
    # first in product order, at the indices b
    rest = chi[: L.order]
    for a in range(L.order):
        psi = AddChar(L, q, a)
        if (psi.table * (R // p) == rest).all():
            return psi
    raise CharacterMismatchError("layer restriction is not additive")


@dataclass(frozen=True, eq=False)
class ThetaData:
    """A smooth character theta of L^x = pi^Z x mu x (1 + pi O_L), truncated
    at level h: theta(pi) has order dividing M, theta on the Teichmueller
    part mu = F_{q^n}^x is zeta_{q^n-1}^(zeta_exp) at the fixed generator,
    and chi is the restriction to the principal units mod U^h, as its row of
    unit_characters over the element indices of principal_units(L, h).

    All exponents are stored relative to a common root order R.
    """

    n: int
    q: int
    h: int
    M: int
    L: Field
    chi: np.ndarray
    zeta_exp: int  # theta(zeta) = zeta_R ^ (zeta_exp * R/(q^n-1))
    pi_exp: int  # theta(pi) = zeta_R ^ (pi_exp * R/M)
    R: int

    def zeta_value_exp(self) -> int:
        return (self.zeta_exp * (self.R // (self.q**self.n - 1))) % self.R

    def pi_value_exp(self) -> int:
        return (self.pi_exp * (self.R // self.M)) % self.R


def common_root_order(n: int, q: int, h: int, M: int) -> int:
    """lcm of the orders of every root of unity the constructions touch."""
    p, _ = splitting_params(q)
    # exponent of the truncated principal unit group: p^ceil(log_p(h))
    pe = 1
    while pe < h:
        pe *= p
    return lcm(p * pe, q**n - 1, M)


def theta_family(n: int, q: int, h: int, M: int, conductor_m: int = None):
    """All ThetaData with theta(pi) of exact order dividing M, optionally
    restricted to those whose last-layer restriction has conductor q^m with
    m == conductor_m.  Deterministic order."""
    p, e = splitting_params(q)
    L = field(p, e * n)
    R = common_root_order(n, q, h, M)
    units = principal_units(L, h)
    out = []
    for chi in unit_characters(units, R):
        if conductor_m is not None:
            psi = layer_as_additive_char(chi, L, q, R)
            if psi.conductor_power() != conductor_m:
                continue
        for zeta_exp in range(q**n - 1):
            for pi_exp in range(M):
                out.append(
                    ThetaData(n, q, h, M, L, chi, zeta_exp, pi_exp, R)
                )
    return out
