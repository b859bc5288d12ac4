"""Bounded-exhaustive check of the periodic-set algebra against member lists.

Every distinct `make(m, R)` with m <= 6 is met, joined, complemented and
compared with every other one, and so is every set with m <= 4 under four
edit patterns, and every set with m <= 3 under each of the 16 edit patterns
over {0, 1, 2, 3} (each point toggled or left), and every one of 30 products of
two or three parts and its complement, a complemented product, against each
other and the sets of least period 6; each set also goes through
JSON and is tested for upward closure.  The expected answers are member lists on [0, 2 * lcm + 4], read
off each set's own description here: `periodic_sets` only builds the sets
under test and never computes an answer they are checked against.
"""

import json
import operator
from collections import Counter
from functools import cache
from itertools import combinations
from math import gcd, lcm

import pytest

from congruence_lattice import filter_lab as fl, lattice
from congruence_lattice import periodic_sets as ps

# (added, removed): none, {0} added, 1 removed, 2 added with 0 removed
EDITS = (((), ()), ((0,), ()), ((), (1,)), ((2,), (0,)))
EDGE = 4  # every edit here lies below it
WIDTH = 2 * 60 + EDGE  # every period here divides 60
_COMPARISONS = (operator.le, operator.lt, operator.ge, operator.gt, operator.eq, operator.ne)


def members(s, width):
    """The members of s below width, as a bitmask."""
    return sum(1 << n for n in s.enumerate_up_to(width - 1))


def is_period(mask, d):
    """Whether membership past the edits, which all lie below EDGE, repeats every d."""
    return all(mask >> n & 1 == mask >> n + d & 1 for n in range(EDGE, WIDTH - d))


def periodic_residues(mask, period):
    """Residues mod period of the members past the edits, which all lie below EDGE."""
    return frozenset(x % period for x in range(EDGE, EDGE + period) if mask >> x & 1)


def description_members(m, residues, added=(), removed=()):
    """The members below WIDTH of the set with period m, residues and edits, as a bitmask."""
    return sum(1 << n for n in range(WIDTH) if n in added or (n % m in residues and n not in removed))


def described(m, residues, added=(), removed=()):
    """(set, period, mask, complement): make(m, residues, added, removed), m, its members below
    WIDTH as a bitmask read from the description, and the set's complement."""
    s = ps.make(m, residues, added, removed)
    return s, m, description_members(m, residues, added, removed), ~s


def upward_closed(mask, period):
    """Whether the set of these members, of this period, is closed under multiples, by the
    gcd-class criterion: it is nonempty and its residues are the x with gcd(x, period) in an
    up-set D of the divisors of period.  None when an edit past 0 leaves it undecided."""
    residues = periodic_residues(mask, period)
    if any((mask >> n & 1) != (n % period in residues) for n in range(1, EDGE)):
        return None
    found = {gcd(x, period) for x in residues}
    up_set = all(e in found for d in found for e in range(d, period + 1, d) if period % e == 0)
    return bool(residues) and up_set and residues == {x for x in range(period) if gcd(x, period) in found}


@cache
def plain_sets(max_modulus):
    """Each distinct make(m, R) with m <= max_modulus, described, at its least m."""
    found = {}
    for m in range(1, max_modulus + 1):
        for bits in range(2**m):
            case = described(m, {x for x in range(m) if bits >> x & 1})
            found.setdefault(case[2], case)
    return tuple(found.values())


@cache
def edited_sets(max_modulus):
    """Each distinct make(m, R) with m <= max_modulus under each edit pattern, described; some
    of them are equal sets (the empty set with 1 removed is the empty set)."""
    return tuple(
        described(m, {x for x in range(m) if mask >> x & 1}, *edits)
        for _, m, mask, _ in plain_sets(max_modulus)
        for edits in EDITS
    )


@cache
def toggled_sets(max_modulus):
    """Each distinct make(m, R) with m <= max_modulus under each edit pattern over range(EDGE),
    described: each point of the pattern toggled, added if the set misses it, else removed."""
    out = []
    for _, m, mask, _ in plain_sets(max_modulus):
        residues = {x for x in range(m) if mask >> x & 1}
        for pattern in range(2**EDGE):
            toggled = [n for n in range(EDGE) if pattern >> n & 1]
            added = [n for n in toggled if n % m not in residues]
            out.append(described(m, residues, added, [n for n in toggled if n % m in residues]))
    return tuple(out)


# each a product of classes (m, R), R at its least period m, over coprime moduli whose product divides 60
PRODUCTS = (
    *(((2, {a}), (3, r)) for a in (0, 1) for r in ({0}, {1}, {2}, {0, 1}, {0, 2}, {1, 2})),
    *(((2, {a}), (5, r)) for a, r in ((0, {0}), (1, {1, 4}), (0, {0, 2, 3}), (1, {1, 2, 3, 4}))),
    *(((3, a), (4, r)) for a in ({0}, {1, 2}) for r in ({0}, {1, 2}, {0, 1, 3})),
    *(((2, {1}), (3, a), (5, r)) for a in ({0}, {1, 2}) for r in ({0}, {2, 3}, {0, 1, 4}, {1, 2, 3, 4})),
)


@cache
def product_sets():
    """Each of PRODUCTS met from its classes, a product of two or three parts, and its complement, a
    complemented product, described: the complemented one first, then the product itself."""
    out = []
    for classes in PRODUCTS:
        s = ps.make(1, {0})
        for m, r in classes:
            s &= ps.make(m, r)
        period = lcm(*(m for m, _ in classes))
        mask = sum(1 << n for n in range(WIDTH) if all(n % m in r for m, r in classes))
        out += [(~s, period, ~mask & (1 << WIDTH) - 1, s), (s, period, mask, ~s)]
    return tuple(out)


def check_set(s, period, mask, co):
    width = 2 * period + EDGE
    # the stored modulus is the least period past the edits, and the view holds those residues
    big = s.modulus
    assert is_period(mask, big) and not any(is_period(mask, d) for d in range(1, big)), s
    assert set(s.residues) == periodic_residues(mask, big)
    assert members(s, width) == mask & (1 << width) - 1
    assert members(co, width) == ~mask & (1 << width) - 1
    assert ~co == s and hash(~co) == hash(s)
    for t, bits in ((s, mask), (co, ~mask & (1 << WIDTH) - 1)):
        data = json.loads(json.dumps(t.to_json()))
        assert description_members(data["modulus"], data["residues"], data["add"], data["remove"]) == bits, t
        assert ps.PeriodicSet.from_json(data) == t, t
        closed = upward_closed(bits, period)
        if closed is None:
            with pytest.raises(ValueError, match="undecidable under edits"):
                ps.is_upward_closed(t)
        else:
            assert ps.is_upward_closed(t) == closed, t


def check_operations(a, b, listed):
    """&, |, ~, ==, != and meets_infinitely of a pair in both orders: each fold order gives the
    same set, whose members are checked once; returns the meet and the join."""
    (s, m, x, cs), (t, n, y, ct) = a, b
    period = lcm(m, n)
    width = 2 * period + EDGE
    meet, join = s & t, s | t
    assert members(meet, width) == x & y & (1 << width) - 1, (s, t)
    assert members(join, width) == (x | y) & (1 << width) - 1, (s, t)
    for got, again in ((meet, t & s), (join, t | s)):
        assert got == again and hash(got) == hash(again), (s, t)
    # a result with the members of a listed set is that set, hash included
    for got, want in ((meet, x & y), (join, x | y)):
        same = listed.get(want)
        assert same is None or (got == same and hash(got) == hash(same)), (s, t)
    left, right = ~meet, cs | ct
    assert left == right and not left != right and hash(left) == hash(right), (s, t)
    assert (s == t) == (t == s) == (x == y) and (s != t) == (x != y), (s, t)
    assert x != y or hash(s) == hash(t), (s, t)
    # infinitely many common members iff one lies past the edits within one period
    meets = bool((x & y) >> EDGE & (1 << period) - 1)
    assert s.meets_infinitely(t) == t.meets_infinitely(s) == meets, (s, t)
    return meet, join


def check_pair(a, b, listed):
    """check_operations, absorption, the other De Morgan law and the comparisons of views of one
    modulus; returns the join."""
    (s, _, x, cs), (t, _, y, ct) = a, b
    meet, join = check_operations(a, b, listed)
    # absorption: a & (a | b) == a and a | (a & b) == a, for either operand as a
    assert s & join == s and t & join == t and s | meet == s and t | meet == t, (s, t)
    left, right = ~join, cs & ct
    assert left == right and not left != right and hash(left) == hash(right), (s, t)
    if s.modulus == t.modulus:
        v, w = s.residues, t.residues
        fv, fw = periodic_residues(x, s.modulus), periodic_residues(y, t.modulus)
        for compare in _COMPARISONS:
            assert compare(v, w) == compare(fv, fw) and compare(w, v) == compare(fw, fv), (s, t, compare)
    return join


@cache
def feasible(period, tail, head):
    """The residues mod k = 2..12 of the members past the edits, whose residues mod period are
    tail, or of the members head below EDGE when there are none past them: class x mod period
    meets class r mod k iff x = r modulo gcd(period, k)."""
    if not tail:
        return [{n % k for n in head} for k in range(2, 13)]
    out = []
    for k in range(2, 13):
        g = gcd(period, k)
        hit = {x % g for x in tail}
        out.append({r for r in range(k) if r % g in hit})
    return out


def check_feasible(s, period, mask):
    want = feasible(period, periodic_residues(mask, period), tuple(n for n in range(EDGE) if mask >> n & 1))
    for k in range(2, 13):
        assert fl.feasible_residues([s], k) == want[k - 2], (s, k)


def check_all_pairs(sets):
    """Every set and every ordered pair of them; returns each unordered pair's join, with its
    period and its members as a bitmask."""
    listed = {case[2]: case[0] for case in sets + plain_sets(6)}
    for case in sets:
        check_set(*case)
    return [
        (check_pair(a, b, listed), lcm(a[1], b[1]), a[2] | b[2]) for i, a in enumerate(sets) for b in sets[i:]
    ]


def test_every_pair_of_sets_of_period_at_most_6():
    assert len(plain_sets(6)) == 106
    joins = check_all_pairs(plain_sets(6))
    # feasible_residues of each set, its complement and the union of each pair
    low = (1 << WIDTH) - 1
    for s, period, mask, co in plain_sets(6):
        check_feasible(s, period, mask)
        check_feasible(co, period, ~mask & low)
    # joins equal in members and product form take the same route: each is checked once
    forms = {(mask, join.residues.parts, join.residues.co): (join, period) for join, period, mask in joins}
    for (mask, _, _), (join, period) in forms.items():
        check_feasible(join, period, mask)


def test_every_pair_of_edited_sets_of_period_at_most_4():
    assert len(edited_sets(4)) == 88
    check_all_pairs(edited_sets(4))
    low = (1 << WIDTH) - 1
    for s, period, mask, co in edited_sets(4):
        check_feasible(s, period, mask)
        check_feasible(co, period, ~mask & low)


def test_unions_of_multiples_of_every_subset_of_1_to_6():
    for size in range(1, 7):
        for divisors in combinations(range(1, 7), size):
            width = 2 * lcm(*divisors) + 4
            want = sum(1 << n for n in range(width) if any(n % d == 0 for d in divisors))
            assert members(ps.divisibility_union(divisors), width) == want, divisors
            assert members(lattice.up_closure(divisors), width) == want & ~1, divisors


def test_every_pair_with_a_complemented_product_of_two_or_three_parts(monkeypatch):
    # the fold lists such a product's smaller side, the smallest first, while it holds fewer residues
    # than the product of the part counts of those left, and tries the parts of the rest
    sets = product_sets()
    assert len(sets) == 60
    for (s, _, _, t), classes in zip(sets[::2], PRODUCTS):
        assert len(s.residues.parts) == len(t.residues.parts) == len(classes) > 1, s
        assert s.residues.co and not t.residues.co, s
    others = tuple(case for case in plain_sets(6) if case[0].modulus == 6)  # one part each
    listed = {case[2]: case[0] for case in sets + plain_sets(6)}
    for i, a in enumerate(sets):
        check_set(*a)
        for b in sets[i:] + (others if a[0].modulus == 6 else ()):
            check_pair(a, b, listed)
    factors, fold, calls = ps._factors, ps._fold, Counter()
    monkeypatch.setattr(ps, "_factors", lambda inside: calls.update(["listed"]) or factors(inside))
    monkeypatch.setattr(ps, "_fold", lambda *args: calls.update([args[2]]) or fold(*args))
    routes, products = Counter(), [s for s, *_ in sets[::2]]
    for i, s in enumerate(products):
        for t in products[i:]:
            calls.clear()
            s.meets_infinitely(t)  # its answer is checked above
            # one fold at price 0 once the decision is taken, then one for each try
            routes[s is t, calls["listed"] > 0, calls[0] > 1] += 1
    # keyed (s is t, listed, tried): of the 435 pairs of distinct products, 5 are only tried, 73 only
    # listed and 357 list one and try the other; a product met with itself is met once, so of those 30
    # pairs 19 are only tried and 11 only listed, none both
    assert routes == {
        (False, False, True): 5, (False, True, False): 73, (False, True, True): 357,
        (True, False, True): 19, (True, True, False): 11,
    }


def test_every_pair_of_sets_of_period_at_most_3_under_every_toggle_below_4():
    # union's edit rule keeps a point that either operand holds: every way of holding a point
    # below EDGE, against every other, in both orders
    sets = toggled_sets(3)
    assert len(plain_sets(3)) == 10 and len(sets) == 160 and len({mask for _, _, mask, _ in sets}) == 160
    listed = {case[2]: case[0] for case in sets + plain_sets(6)}
    for i, a in enumerate(sets):
        check_set(*a)
        for b in sets[i:]:
            check_operations(a, b, listed)
    low = (1 << WIDTH) - 1
    for s, period, mask, co in sets:
        check_feasible(s, period, mask)
        check_feasible(co, period, ~mask & low)
