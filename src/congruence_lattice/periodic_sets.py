"""Exact algebra of eventually periodic subsets of the non-negative integers.

A set is stored as a periodic part (residues modulo a period) together with
finitely many explicit additions and removals, with minimal period and edit
sets, so two values are equal exactly when they contain the same integers.
`make` checks outside input, then canonicalizes it.  `progression` and
`non_divisibility` check their integers, then build one part, canonical by
construction like the algebra's results, which skip the checks.  Membership
for period m, residues R and edits (added, removed):

    n in A  <=>  n in added, or (n mod m in R and n not in removed)

R is a `ProductView`: by CRT, residue classes, their complements and
finite unions of them are products over coprime moduli, or complements of
one.  A view has parts (m_i, R_i, co_i), nonempty, not everything and each
at its own minimal period, whose moduli multiply to m, and a flag co: x in
[0, m) is in it iff co != all((x mod m_i in R_i) != co_i); nothing else is.
One part takes co; no parts is everything at m = 1, or nothing if co.
`in` and `len` cost O(parts); iteration enumerates by CRT one member at a time
and lists nothing, so the first member comes at once whatever the moduli.
Comparisons agree with any set of the same members, by <= and the lengths.
For views v, w of one modulus M, v <= w if their parts and flags are equal,
else iff v meets ~w nowhere: by `_core` when len(v) > sum(len(R_i) * M // m_i)
over both views' parts, a bound on what that meet lifts, else by a walk of v.
A view is unhashable; a PeriodicSet hashes its fields, R by count and sum mod m.
`~` flips a flag.  Every meet is one fold of (parts, co) pairs: part by part, it joins a part with each it
shares a factor with (at their lcm), keeps the coprime ones and stops at the first empty join; it yields
products whose union is the meet.  A complemented part turns its flag; a complemented product of k > 1 parts
is the union of its parts turned.  One priced rule: at the first such product, the pairs left are met once
each and their complemented products listed by smaller side, least first, while the product of the k left
times the price of a try exceeds the side; the rest's parts are tried depth first, after the other pairs.  A
decision (`_core`) pays 1 a try, a read mod m pays m, and `_meet` (`&`, `|`) never tries; `|` folds the pairs
with co flipped and complements its product (De Morgan), then settles the edited points once.  Only the fold
materialises parts, there and in a join; residues mod m and `is_upward_closed` read parts here, nowhere else.

The universe is the non-negative integers; callers that work over the
positive integers (divisibility, filter bases) simply never consult 0.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Set
from itertools import chain, filterfalse
from math import gcd, inf, lcm, prod
from operator import itemgetter

from .primes import Record, _factorize, _int_value, _shown, json_array, json_int, json_object, strict_int
from .primes import strict_ints

_NO_EDITS = frozenset()  # shared by every set built without edits


class ProductView(Set):
    """Read-only residues in CRT-product form; see the module docstring."""

    __slots__ = ("parts", "co", "modulus")

    def __init__(self, parts: tuple, co: bool):
        self.parts, self.co, self.modulus = parts, co, prod(map(itemgetter(0), parts))

    def __contains__(self, x):  # only residues 0 <= x < M (or values equal to one), as in a frozenset
        if type(x) is not int and (x := _int_value(x)) is None:
            return False
        return 0 <= x < self.modulus and self._holds(x)

    def _holds(self, x):  # whether the class of any int x is in the view: each part reduces x
        for m, r, c in self.parts:
            if (x % m in r) == c:  # x misses part (m, r, c)
                return self.co
        return not self.co

    def __bool__(self):
        return bool(self.parts) or not self.co  # no part is empty or everything: only no parts can be

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

    def __le__(self, other):  # Set's ==, < and > call it; for a view of modulus M see the module docstring
        if isinstance(other, ProductView) and other.modulus == self.modulus:
            if (self.parts, self.co) == (other.parts, other.co):
                return True
            if len(self) > sum(len(r) * (self.modulus // m) for v in (self, other) for m, r, _ in v.parts):
                return _core(((self.parts, self.co), (other.parts, not other.co))) is None
        return Set.__le__(self, other)

    def __ge__(self, other):
        return other.__le__(self) if isinstance(other, ProductView) else Set.__ge__(self, other)

    @classmethod
    def _from_iterable(cls, it):
        return frozenset(it)

    def __repr__(self):  # walks no member
        return f"ProductView(moduli={[m for m, _, _ in self.parts]}, co={self.co}, len={len(self)})"


def _crt_walk(levels, big):
    """(sum of x_i * e_i) % big for each choice of x_i per level (m, r, keep, e), x_i in r
    if keep, else in range(m) outside r; lazy, the last level walked afresh for each sum
    of the others, so a generator is made per level, not per member."""
    if not levels:
        yield 0
        return
    *first, (m, r, keep, e) = levels
    for acc in _crt_walk(first, big):
        for x in r if keep else filterfalse(r.__contains__, range(m)):
            yield (acc + x * e) % big


def _view_sum(view: ProductView) -> int:
    """Sum of a view's members mod M: sum_i e_i * sum(S_i) * prod_{j != i} |S_j| for the product of
    the part sets S_i, e_i the CRT basis; a complemented part or view takes m(m - 1)/2 less it."""
    big, sizes = view.modulus, [m - len(r) if c else len(r) for m, r, c in view.parts]
    n, total = prod(sizes), 0
    for (m, r, c), size in zip(view.parts, sizes):
        e = big // m * pow(big // m, -1, m)
        total += e * (m * (m - 1) // 2 - sum(r) if c else sum(r)) * (n // size)
    return (big * (big - 1) // 2 - total if view.co else total) % big


class PeriodicSet(Record):
    __slots__ = _fields = ("modulus", "residues", "added", "removed")

    def __hash__(self):
        # what __eq__ compares, the residues by their count and their sum mod the period (equal
        # sets share both): the sum by CRT, in O(parts) beyond summing what the parts store
        r = self.residues
        return hash((self.modulus, len(r), _view_sum(r), self.added, self.removed))

    def __repr__(self):
        # a period can hold ~10^8 residues (tracebacks print this): list 16 at most
        r = self.residues
        shown = sorted(r) if len(r) <= 16 else r
        edits = f"add={sorted(self.added)}, remove={sorted(self.removed)}"
        return f"PeriodicSet(mod={self.modulus}, residues={shown}, {edits})"

    # -- membership ---------------------------------------------------------

    def member(self, n: int) -> bool:
        """True iff n, as the int it equals (3.0 is 3; 2.5 and "3" equal none), belongs; no negative n does."""
        if (type(n) is not int and (n := _int_value(n)) is None) or n < 0:
            return False
        if n in self.added:
            return True
        if n in self.removed:
            return False
        return self.residues._holds(n)

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
        """Whether the meet of self and the others (self alone for none) is infinite: edits are finite,
        so whether their periodic parts meet, which `_core` decides without building the meet."""
        return _core(_views((self, *others))) is not None

    def intersect(self, other: "PeriodicSet") -> "PeriodicSet":
        return _meet((self, other))

    def union(self, other: "PeriodicSet") -> "PeriodicSet":
        return _meet((self, other), True)

    def complement(self) -> "PeriodicSet":
        r = self.residues
        # edits stay needed: an added point was outside R, so it is inside ~R
        return PeriodicSet(self.modulus, _assemble(r.parts, not r.co), self.removed, self.added)

    def __and__(self, other):
        return _meet((self, other)) if isinstance(other, PeriodicSet) else NotImplemented

    def __or__(self, other):
        return _meet((self, other), True) if isinstance(other, PeriodicSet) else NotImplemented

    __invert__ = complement

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        edits = {"add": sorted(self.added), "remove": sorted(self.removed)}
        return {"modulus": self.modulus, "residues": sorted(self.residues), **edits}

    @staticmethod
    def from_json(data) -> "PeriodicSet":
        """The set of `to_json`'s object; the arrays may be left out, and an int may be a decimal string."""
        data = json_object(data, "periodic set JSON", "modulus")
        fields = []
        for key in ("residues", "add", "remove"):
            what = f'periodic set JSON field "{key}"'
            fields.append([json_int(v, what) for v in json_array(data.get(key, ()), what)])
        return make(json_int(data["modulus"], 'periodic set JSON field "modulus"'), *fields)


# -- product form ----------------------------------------------------------------


def _assemble(parts, co) -> ProductView:
    """The product of canonical parts, complemented if co; one part takes co."""
    if len(parts) == 1:
        ((m, r, c),) = parts
        return ProductView(((m, r, c != co),), False)
    return ProductView(tuple(sorted(parts)), co)  # coprime moduli > 1 differ, so they decide


def _factors(inside: ProductView) -> tuple:
    """The complement of a product view of several parts as one part storing the smaller side."""
    small = 2 * len(inside) < inside.modulus
    return ((inside.modulus, frozenset(inside if small else ProductView(inside.parts, True)), small),)


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
    return None if m == 1 else (m, stored, c)  # neither part is everything, so neither is their meet


def _core(pairs):
    """Parts of a nonempty product inside the meet of (parts, co) pairs, or None when it is empty."""
    return next(_fold(iter(pairs), [], 1), None)


def _fold(pairs, parts, price):
    """Products whose union is the meet of the pairs left with `parts`, the fold so far, by the module
    docstring's one priced rule; `price` is what one try costs the caller: 0 inside a try, 1 for a decision
    (`_core`), m for a read mod m (`_residues_met`), inf for a result (`_meet`)."""
    for stored, co in pairs:
        if co and len(stored) != 1:  # nothing (no parts), or the union of its k > 1 parts, each turned
            if price:  # decided once, for this product and those left, so no try lists one
                left = list(dict.fromkeys([(stored, co), *pairs]))  # equal products met once
                insides = [ProductView(s, False) for s, c in left if c and len(s) > 1]
                sides = sorted(((min(n := len(v), v.modulus - n), v) for v in insides), key=itemgetter(0))
                width, listed = prod(len(v.parts) for v in insides), 0  # the tries the products left open
                while listed < len(sides) and width * price > sides[listed][0]:  # the least side is listed
                    width //= len(sides[listed][1].parts)
                    listed += 1
                plain = (pair for pair in left if not pair[1] or len(pair[0]) < 2)
                lists = ((_factors(v), False) for _, v in sides[:listed])  # each listed once, before any try
                yield from _fold(chain(plain, lists, ((v.parts, True) for _, v in sides[listed:])), parts, 0)
                return
            left = list(pairs)  # each part turned is tried with the fold so far and the pairs left
            for m, r, c in stored:
                yield from _fold(chain([(((m, r, not c),), False)], left), parts, 0)
            return
        elif co:
            ((m, r, c),) = stored
            stored = ((m, r, not c),)
        for q in stored:
            rest = []
            for p in parts:
                if gcd(p[0], q[0]) == 1:
                    rest.append(p)
                elif (q := _join(q, p)) is None:
                    return
            # the parts are coprime, so q, joined with each that shares a factor, is coprime to the rest
            parts = rest + [q]
    yield parts


def _meet(sets, union=False) -> PeriodicSet:
    """The meet of a sequence of sets, or their join if `union` (everything, or nothing, when there are none):
    the product of their parts, or by De Morgan the complement of the product of their parts with co flipped
    (no complement built), then their edited points settled once."""
    parts = next(_fold(iter(_views(sets, union)), [], inf), None)  # a result is one product: list, never try
    # only the operands' edited points can differ from the periodic meet or join
    edits = frozenset().union(*(s.added for s in sets), *(s.removed for s in sets))
    inside = {n for n in edits if (any if union else all)(n in s for s in sets)} if edits else edits
    return _finish(_assemble(parts or (), (parts is None) != union), inside, edits - inside)


def _views(sets, flip=False) -> list:
    """(parts, co) of each set's periodic part, co flipped if `flip`; TypeError unless all are PeriodicSets."""
    PeriodicSet._check(sets, "periodic set operands")
    return [(s.residues.parts, s.residues.co != flip) for s in sets]


def _residues_met(sets, modulus: int) -> set:
    """Residues r mod `modulus` whose class meets the meet of `sets` infinitely (for a finite meet, those of
    the points every set holds): one set is read from its parts, several as the union of the reads of the
    products their fold yields at `modulus` a try, so tries read no more than listing would have.

    By CRT over the coprime parts (m, R, c) of a product, g = gcd(m, modulus): r qualifies iff every
    part meets class r mod g; for a complemented product, unless every part holds all of that class."""
    one = len(sets) == 1 and sets[0].residues  # an empty one is folded, which yields nothing
    products = [(one.parts, one.co)] if one else ((p, False) for p in _fold(iter(_views(sets)), [], modulus))
    met = ()
    for parts, co in products:
        out = set(range(modulus))
        for m, r, c in parts:
            g = gcd(m, modulus)
            if g > 1 or co:  # else the part meets the one class mod 1
                # R hits (holds a lift of) or fills (all k = m / g lifts of) classes t mod g, at k = 1 just R.
                # A part drops the classes it holds no lift of (in a product) or not all of (complemented):
                # if c, those R fills (a product) or hits; else those R does not hit (a product) or fill
                need = m // g if c != co else 1
                known = r if m == g else {t for t, n in Counter(x % g for x in r).items() if n >= need}
                dropped = known if c else filterfalse(known.__contains__, range(g))
                out.difference_update(*(range(t, modulus, g) for t in dropped))
        read = set(range(modulus)) - out if co else out
        met = met | read if met else read  # the first read kept, not copied
    return met or {x % modulus for s in sets for x in s.added if all(x in t for t in sets)}


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
    PeriodicSet._check((s,), "is_upward_closed operand")
    edits = (s.added | s.removed) - {0}
    if edits:
        raise ValueError(
            f"upward-closedness undecidable under edits at {_shown(sorted(edits))}; "
            "only purely periodic sets are supported"
        )
    if not s.residues:
        return False
    co = s.residues.co
    for m, r, c in s.residues.parts:
        t = r if c == co else ProductView(((m, r, True),), False)  # T_i: r or its complement
        if 1 in t:  # the multiples of 1 are everything, which a part never is
            return False
        seen = set()  # distinct gcds only, t walked lazily: the first unit of t (d = 1) fails at x = 1
        for x in t:
            if (d := gcd(x, m)) not in seen:
                seen.add(d)
                if any(y not in t for y in range(0, m, d)):
                    return False
    return True


def _minimal_period(modulus, residues):
    """(m, R) reduced to the least period of R = `residues` modulo m = `modulus`.

    The periods of R (the d | m with R closed under +d mod m) are the multiples
    of the least one, so a prime p that fails once never succeeds later: each p
    is tried once, and divided out while R stays closed under +m/p.  A union of
    full cosets modulo m/p holds a multiple of p residues, so only the primes of
    gcd(m, |R|) are tried, and only that number, no larger than |R|, is factored.
    """
    if not residues:
        return 1, frozenset()
    g = gcd(modulus, len(residues))
    for p in _factorize(g) if g > 1 else ():
        d = modulus // p
        # closed under +d (mod m) <=> a union of cosets of the order-p subgroup
        while modulus % p == 0 and all((r + d) % modulus in residues for r in residues):
            modulus, d = d, d // p
            residues = frozenset(r % modulus for r in residues)
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
    m, r = _minimal_period(modulus, residues)
    # one plain part is canonical as it is; at m = 1, r is {0} (everything) or empty
    return _finish(ProductView(((m, r, False),) if m > 1 else (), not r), added, removed)


def _finish(residues, added, removed) -> PeriodicSet:
    """A valid description with a canonical periodic part (not checked), with
    redundant edits dropped."""
    added = frozenset(filterfalse(residues._holds, added)) if added else _NO_EDITS
    removed = frozenset(filter(residues._holds, removed)) if removed else _NO_EDITS
    return PeriodicSet(residues.modulus, residues, added, removed)


def _class(modulus, residue, co) -> PeriodicSet:
    """The class of a residue modulo m (everything at m = 1), or for m > 1 its complement if co,
    built directly: one residue is at its least period m, as a union of cosets mod m/p has p | |R|."""
    parts = ((modulus, frozenset((residue,)), co),) if modulus > 1 else ()
    return PeriodicSet(modulus, ProductView(parts, False), _NO_EDITS, _NO_EDITS)


def progression(modulus: int, residue: int) -> PeriodicSet:
    """The arithmetic progression {n >= 0 : n = residue (mod modulus)}, refused as `make` refuses it."""
    strict_int(modulus, "modulus", 1)
    return _class(modulus, strict_int(residue, "residue", 0, modulus), False)


def divisibility_union(divisors: Iterable) -> PeriodicSet:
    """Union of the multiple sets n*{0,1,2,...} over the given divisors."""
    ds = sorted(strict_ints(divisors, "divisor", 1))
    if not ds:
        raise ValueError("divisibility_union needs at least one divisor")
    return _multiples(ds)


def _multiples(divisors, removed=()) -> PeriodicSet:
    """divisibility_union of checked ints >= 1, less the points of `removed`: the
    complement of the meet of the non-multiples of each divisor n, one part (n, {0}, True)."""
    pairs = ((((n, frozenset({0}), True),), False) for n in divisors)
    parts = _core(pairs) if divisors[0] > 1 else None
    return _finish(_assemble(parts or (), parts is not None), (), removed)


def non_divisibility(n: int) -> PeriodicSet:
    """The non-negative integers not divisible by n (n >= 2): one complemented part (n, {0})."""
    return _class(strict_int(n, "n", 2), 0, True)
