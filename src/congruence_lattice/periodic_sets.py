"""Exact algebra of eventually periodic subsets of the non-negative integers.

A set is stored as a periodic part (residues modulo a period) together with
finitely many explicit additions and removals, with minimal period and edit
sets, so two values are equal exactly when they contain the same integers.
`make` checks outside input, then canonicalizes it; the algebra's results
are canonical by construction and skip the checks.  Membership for period
m, residues R and edits (added, removed):

    n in A  <=>  n in added, or (n mod m in R and n not in removed)

R is a frozenset or a `ProductView`: by CRT, residue classes, their
complements and finite unions of them are products over coprime moduli, or
complements of one.  A view has parts (m_i, R_i, co_i), nonempty, not
everything and each at its own minimal period, whose moduli multiply to m,
and a flag co: x is in it iff co != all((x mod m_i in R_i) != co_i).  `in`
and `len` cost O(parts); iteration enumerates by CRT one member at a time
and lists nothing, so the first member comes at once whatever the moduli;
equality agrees with the frozenset of the same members.  A view is
unhashable; a PeriodicSet hashes its modulus, residue count and edits.
`~` flips a flag, `&` joins the parts of two products, intersecting
explicitly only parts whose moduli share a factor (at their lcm), and `|`
is ~(~A & ~B).  A view is materialised only in those joins and when a
complemented product of several parts meets another set: then it lists
its smaller side, its own members or those of the product it complements.

The meet of a family is one routine, `_meet`, which `&` and filter_lab's
bases both call: it folds the parts of every set, then settles the edited
points of all of them once.  `meets_infinitely` runs the fold alone.  The
closure test `is_upward_closed` lives here too: no other module reads parts.

The universe is the non-negative integers; callers that work over the
positive integers (divisibility, filter bases) simply never consult 0.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Set
from itertools import filterfalse
from math import gcd, lcm, prod
from typing import Iterable

from .primes import Record, _factorize, _shown, json_int, strict_int, strict_ints


class ProductView(Set):
    """Read-only residues in CRT-product form; see the module docstring."""

    __slots__ = ("parts", "co", "modulus")

    def __init__(self, parts: tuple, co: bool):
        self.parts, self.co, self.modulus = parts, co, prod(m for m, _, _ in parts)

    def __contains__(self, x):
        for m, r, c in self.parts:
            if (x % m in r) == c:  # x misses part (m, r, c)
                return self.co
        return not self.co

    def __bool__(self):
        return True  # nonempty parts, none everything: neither the product nor its complement is empty

    def __len__(self):
        n = prod(m - len(r) if c else len(r) for m, r, c in self.parts)
        return self.modulus - n if self.co else n

    def __iter__(self):
        big = self.modulus
        # per part: modulus, stored residues, whether its members are them, CRT coefficient
        levels = [(m, r, not c, big // m * pow(big // m, -1, m)) for m, r, c in self.parts]
        if not self.co:
            yield from _crt_walk(levels, big)
            return
        for i, (m, r, keep, e) in enumerate(levels):  # x misses the product first at part i
            rest = [(n, range(n), True, f) for n, _, _, f in levels[i + 1 :]]
            yield from _crt_walk(levels[:i] + [(m, r, not keep, e)] + rest, big)

    def __eq__(self, other):
        if not isinstance(other, Set):
            return NotImplemented
        if type(other) is ProductView and (self.parts, self.co) == (other.parts, other.co):
            return True
        return len(self) == len(other) and all(x in self for x in other)

    @classmethod
    def _from_iterable(cls, it):
        return frozenset(it)

    def __repr__(self):  # walks no member
        return f"ProductView(moduli={[m for m, _, _ in self.parts]}, co={self.co}, len={len(self)})"


def _crt_walk(levels, big, acc=0):
    """(acc + sum of x_i * e_i) % big for each choice of x_i per level (m, r, keep, e),
    x_i in r if keep, else in range(m) outside r; lazy, each level walked afresh."""
    (m, r, keep, e), *rest = levels
    xs = r if keep else filterfalse(r.__contains__, range(m))
    if rest:
        for x in xs:
            yield from _crt_walk(rest, big, acc + x * e)
    else:
        for x in xs:
            yield (acc + x * e) % big


_ZERO = frozenset((0,))


class PeriodicSet(Record):
    __slots__ = _fields = ("modulus", "residues", "added", "removed")

    def __init__(self, modulus: int, residues: frozenset | ProductView, added: frozenset, removed: frozenset):
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "residues", residues)
        object.__setattr__(self, "added", added)
        object.__setattr__(self, "removed", removed)

    def __hash__(self):
        # what __eq__ compares, the residues by their count (equal sets share it): O(parts)
        return hash((self.modulus, len(self.residues), self.added, self.removed))

    def __repr__(self):
        # a period can hold ~10^8 residues (tracebacks print this): list 16 at most
        r = self.residues
        shown = r if type(r) is ProductView else sorted(r) if len(r) <= 16 else f"<{len(r)} residues>"
        edits = f"add={sorted(self.added)}, remove={sorted(self.removed)}"
        return f"PeriodicSet(mod={self.modulus}, residues={shown}, {edits})"

    # -- membership ---------------------------------------------------------

    def member(self, n: int) -> bool:
        """True iff n belongs to the set (negative n never does)."""
        if n < 0:
            return False
        if n in self.added:
            return True
        if n in self.removed:
            return False
        return n % self.modulus in self.residues

    __contains__ = member

    def is_empty(self) -> bool:
        return not self.residues and not self.added

    def is_infinite(self) -> bool:
        # finitely many removals cannot make a nonempty periodic part finite
        return bool(self.residues)

    def max_edit(self) -> int:
        """Largest explicitly edited element (0 when there are no edits)."""
        return max(self.added | self.removed, default=0)

    def enumerate_up_to(self, bound: int) -> list:
        """Sorted members n with 0 <= n <= bound."""
        return [n for n in range(strict_int(bound, "bound", 0) + 1) if self.member(n)]

    # -- boolean algebra -----------------------------------------------------

    def meets_infinitely(self, *others: "PeriodicSet") -> bool:
        """Whether the meet of self and the others is infinite: edits are
        finite, so whether their periodic parts meet."""
        return _core((self, *others)) is not None if others else self.is_infinite()

    def intersect(self, other: "PeriodicSet") -> "PeriodicSet":
        return _meet((self, other))

    def union(self, other: "PeriodicSet") -> "PeriodicSet":
        return ~(~self & ~other)

    def complement(self) -> "PeriodicSet":
        parts, co = _structure(self)
        # edits stay needed: an added point was outside R, so it is inside ~R
        return PeriodicSet(*_assemble(parts, not co), self.removed, self.added)

    __and__ = intersect
    __or__ = union
    __invert__ = complement

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "modulus": self.modulus,
            "residues": sorted(self.residues),
            "add": sorted(self.added),
            "remove": sorted(self.removed),
        }

    @staticmethod
    def from_json(data: dict) -> "PeriodicSet":
        if not isinstance(data, dict):
            raise ValueError("periodic set JSON must be an object")
        if "modulus" not in data:
            raise ValueError('periodic set JSON: missing field "modulus"')
        fields = {}
        for key in ("residues", "add", "remove"):
            value = data.get(key, ())
            if not isinstance(value, (list, tuple)):
                raise ValueError(f'periodic set JSON: field "{key}" must be an array')
            fields[key] = [json_int(v, f'periodic set JSON field "{key}"') for v in value]
        modulus = json_int(data["modulus"], 'periodic set JSON field "modulus"')
        return make(modulus, fields["residues"], fields["add"], fields["remove"])


# -- product form ----------------------------------------------------------------


def _structure(s: PeriodicSet) -> tuple:
    """(parts, co) of s's periodic part: no parts is everything, or nothing if co."""
    r = s.residues
    if type(r) is ProductView:
        return r.parts, r.co
    if s.modulus == 1:
        return (), not r
    return ((s.modulus, r, False),), False


def _assemble(parts, co) -> tuple:
    """(modulus, residues) of the product of canonical parts, complemented if co."""
    if len(parts) == 1:  # one part takes co; a plain one is a frozenset
        ((m, r, c),) = parts
        if c == co:
            return m, r
        parts, co = ((m, r, True),), False
    if not parts:
        return 1, frozenset() if co else _ZERO
    view = ProductView(tuple(sorted(parts)), co)  # coprime moduli > 1 differ, so they decide
    return view.modulus, view


def _factors(s: PeriodicSet):
    """s's periodic part as the parts of a product, or None when it is empty.

    A complemented product of several parts becomes one part at its modulus
    that stores the smaller side: the product's members, or its own."""
    parts, co = _structure(s)
    if not co or not parts:
        return None if co else parts
    inside = ProductView(parts, False)
    if 2 * len(inside) < s.modulus:
        return ((s.modulus, frozenset(inside), True),)
    return ((s.modulus, frozenset(s.residues), False),)


def _join(p, q):
    """The canonical part p ∩ q at lcm of their moduli, or None when empty."""
    (m1, r1, c1), (m2, r2, c2) = p, q
    m, c = lcm(m1, m2), c1 and c2
    if c:  # the complement of the union of both stored sets
        stored = set()
        for n, r in ((m1, r1), (m2, r2)):
            for x in r:
                stored.update(range(x, m, n))
    else:
        # lift a plain part (the sparser if both are) and test the lifts in the other
        if c1 or (not c2 and len(r1) * m2 > len(r2) * m1):
            (m1, r1), (m2, r2, c2) = (m2, r2), (m1, r1, c1)
        stored = {x for s in r1 for x in range(s, m, m1) if (x % m2 in r2) != c2}
    m, stored = _minimal_period(m, stored)
    return None if m == 1 and (0 in stored) == c else (m, stored, c)


def _meet_parts(pa, pb):
    """Parts of the meet of two products given by their parts (None: empty)."""
    if pa is None or pb is None:
        return None
    parts = pa
    for q in pb:
        rest = []
        for p in parts:
            if gcd(p[0], q[0]) == 1:
                rest.append(p)
            elif (q := _join(q, p)) is None:
                return None
        # parts of one product are coprime, so q stays coprime to the rest
        parts = rest + [q] if q[0] > 1 else rest
    return parts


def _core(sets):
    """Parts of the product form of the meet of the sets' periodic parts
    (everything when there are none); None once it is empty."""
    parts = ()
    for s in sets:
        parts = _meet_parts(parts, _factors(s)) if parts else _factors(s)
        if parts is None:
            return None
    return parts


def _meet(sets) -> PeriodicSet:
    """The meet of a sequence of sets (everything when there are none, the set
    itself when there is one): the product of their parts, then their edited
    points settled once."""
    if len(sets) == 1:
        return sets[0]
    parts = _core(sets)
    # only the operands' edited points can differ from the periodic meet
    edits = frozenset().union(*(s.added for s in sets), *(s.removed for s in sets))
    inside = {n for n in edits if all(n in s for s in sets)}
    return _finish(*_assemble(parts or (), parts is None), inside, edits - inside)


def _residues_met(s: PeriodicSet, modulus: int) -> set:
    """Residues r mod `modulus` whose class meets s infinitely, or for a
    finite s the residues of its points, its added ones.

    By CRT over the coprime parts of s's periodic part, r qualifies iff for
    every part (m, R, c), r mod g, g = gcd(m, modulus), is a class mod g
    that the part meets."""
    if not s.is_infinite():
        return {x % modulus for x in s.added}
    out = set(range(modulus))
    for m, r, c in _factors(s):
        g = gcd(m, modulus)
        if g > 1:
            counts = Counter(x % g for x in r)
            # a plain part meets the classes of its residues, a complemented
            # one every class whose m // g lifts are not all stored
            missed = (t for t in range(g) if (counts[t] == m // g if c else not counts[t]))
            out.difference_update(*(range(t, modulus, g) for t in missed))
    return out


def is_upward_closed(s: PeriodicSet) -> bool:
    """Decide whether a purely periodic set is closed under taking multiples.

    0 is outside the divisibility universe, so edits at 0 are ignored; any
    other edit makes closure undecidable from the residue structure and is
    rejected.  The empty set does not count as upward closed.

    Criterion: with period m and residue set R, the set is upward closed
    iff for every r in R every multiple of gcd(r, m) modulo m is in R (the
    residues of the multiples of any n = r mod m are exactly gcd(r, m) * Z_m).
    By CRT a product of sets T_i modulo coprime m_i, and the union of the
    classes they select, are closed iff every T_i is, so parts are decided alone.
    """
    edits = (s.added | s.removed) - {0}
    if edits:
        raise ValueError(
            f"upward-closedness undecidable under edits at {_shown(sorted(edits))}; "
            "only purely periodic sets are supported"
        )
    if not s.residues:
        return False
    parts, co = _structure(s)
    for m, r, c in parts:
        t = r if c == co else ProductView(((m, r, True),), False)  # T_i: r or its complement
        if 1 in t:  # the multiples of 1 are everything, which a part never is
            return False
        # distinct gcds only: all residues with the same gcd demand the same classes
        for d in {gcd(x, m) for x in t}:
            if any(x not in t for x in range(0, m, d)):
                return False
    return True


def _minimal_period(modulus, residues):
    """Shrink (modulus, residues) until the residues are not a union of
    full cosets of any proper divisor of the modulus.

    A union of full cosets modulo m/p holds a multiple of p residues, so
    only the primes of gcd(m, |R|) are candidates: the modulus itself is
    never factored, only a number no larger than |R|.
    """
    if not residues:
        return 1, frozenset()
    while modulus > 1:
        for p in _factorize(gcd(modulus, len(residues))):
            d = modulus // p
            # closed under +d (mod m) <=> a union of cosets of the order-p subgroup
            if all((r + d) % modulus in residues for r in residues):
                residues = frozenset(r % d for r in residues)
                modulus = d
                break
        else:
            break
    return modulus, frozenset(residues)


def make(modulus: int, residues: Iterable = (), added: Iterable = (), removed: Iterable = ()) -> PeriodicSet:
    """Canonical constructor for outside input.

    Accepts any semantically valid description: redundant edits are dropped
    and the period is minimized.  Rejects non-integers, a modulus < 1,
    residues outside [0, modulus), negative and overlapping edits.
    """
    strict_int(modulus, "modulus", 1)
    residues = strict_ints(residues, "residue", 0, modulus)
    added = strict_ints(added, "added element", 0)
    removed = strict_ints(removed, "removed element", 0)
    if added & removed:
        raise ValueError(f"ambiguous edits: {_shown(sorted(added & removed))} both added and removed")
    return _finish(*_minimal_period(modulus, residues), added, removed)


def _finish(modulus, residues, added, removed) -> PeriodicSet:
    """A valid description with a canonical periodic part (not checked), with
    redundant edits dropped."""
    added = frozenset(a for a in added if a % modulus not in residues)
    removed = frozenset(x for x in removed if x % modulus in residues)
    return PeriodicSet(modulus, residues, added, removed)


def progression(modulus: int, residue: int) -> PeriodicSet:
    """The arithmetic progression {n >= 0 : n = residue (mod modulus)}."""
    return make(modulus, (residue,))


def divisibility_union(divisors: Iterable) -> PeriodicSet:
    """Union of the multiple sets n*{0,1,2,...} over the given divisors."""
    ds = sorted(strict_ints(divisors, "divisor", 1))
    if not ds:
        raise ValueError("divisibility_union needs at least one divisor")
    return _multiples(ds)


def _multiples(divisors, removed=()) -> PeriodicSet:
    """divisibility_union of checked ints >= 1, less the points of `removed`:
    the complement of the meet of the non-multiples of each divisor."""
    parts = () if divisors[0] > 1 else None
    for n in divisors:
        parts = _meet_parts(parts, ((n, _ZERO, True),))
    return _finish(*_assemble(parts or (), parts is not None), (), removed)


def non_divisibility(n: int) -> PeriodicSet:
    """The non-negative integers not divisible by n (n >= 2)."""
    return ~progression(strict_int(n, "n", 2), 0)
