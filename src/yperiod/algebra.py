"""Exact sparse polynomial arithmetic.

Coefficients are Python ints and evaluation returns ``fractions.Fraction``,
so nothing here ever rounds or overflows.  A polynomial stores its terms
as a dict from exponent tuples, whose length is the ambient variable
count, to nonzero coefficients; variables are written ``y1 .. yn`` in
text form.

The exchange relation of a seed, the one hot operation, runs in
``exchange`` on packed integers of its own: see there.
"""

from __future__ import annotations

import heapq
import re
from fractions import Fraction
from itertools import compress
from operator import add, itemgetter, mul, or_, sub
from typing import Dict, Iterable, Iterator, List, Mapping, Sequence, Tuple, Union

from .errors import DivisibilityError, InputError, is_int, is_permutation

Exponent = Tuple[int, ...]


def _grlex(e: Exponent):
    """Graded lexicographic sort key: total degree first, then earlier
    variables weigh more (so y1^2 sorts above y1*y2 above y2^2)."""
    return (sum(e), tuple(-x for x in e))


class Polynomial:
    """Polynomial in y1..yn over the integers, stored sparsely.

    Zero coefficients are never stored and instances are immutable by
    convention; every operation returns a fresh object.
    """

    __slots__ = ("nvars", "terms", "_maxima", "_norms")

    def __init__(self, nvars: int, terms: Union[Mapping, Iterable] = ()):
        if not (is_int(nvars) and nvars >= 0):
            raise InputError(f"the variable count {nvars!r} is not a nonnegative int")
        self.nvars = nvars
        items = terms.items() if isinstance(terms, Mapping) else terms
        clean: Dict[Exponent, int] = {}
        for exps, coeff in items:
            exps = tuple(exps)
            # floats and bools are refused, not truncated
            if not (all(map(is_int, exps)) and is_int(coeff)):
                raise InputError(f"the term {coeff!r} * y^{exps} is not integral")
            if len(exps) != nvars:
                raise InputError(f"exponent vector {exps} has wrong length, expected {nvars}")
            if any(e < 0 for e in exps):
                raise InputError(f"negative exponent in {exps}")
            coeff = clean.get(exps, 0) + coeff
            if coeff:
                clean[exps] = coeff
            elif exps in clean:
                del clean[exps]
        self.terms = clean
        self._maxima = self._norms = None

    @classmethod
    def _raw(cls, nvars: int, terms: Dict[Exponent, int], maxima=None) -> "Polynomial":
        p = cls.__new__(cls)
        p.nvars, p.terms, p._maxima, p._norms = nvars, terms, maxima, None
        return p

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "Polynomial":
        return cls.constant(nvars, 0)

    @classmethod
    def one(cls, nvars: int) -> "Polynomial":
        return cls.constant(nvars, 1)

    @classmethod
    def constant(cls, nvars: int, value: int) -> "Polynomial":
        if not (is_int(nvars) and nvars >= 0):
            raise InputError(f"the variable count {nvars!r} is not a nonnegative int")
        if not is_int(value):
            raise InputError(f"the constant {value!r} is not an integer")
        return cls._raw(nvars, {(0,) * nvars: value} if value else {})

    @classmethod
    def monomial(cls, nvars: int, exps: Sequence[int], coeff: int = 1) -> "Polynomial":
        return cls(nvars, {tuple(exps): coeff})

    # -- inspection ------------------------------------------------------

    def items(self) -> Iterator[Tuple[Exponent, int]]:
        """Iterate (exponent tuple, coefficient) pairs, unordered."""
        return iter(self.terms.items())

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return len(self.terms) == 1 and self.terms.get((0,) * self.nvars) == 1

    def constant_term(self) -> int:
        return self.terms.get((0,) * self.nvars, 0)

    def has_nonnegative_coefficients(self) -> bool:
        # zero coefficients are never stored
        return min(self.terms.values(), default=1) > 0

    def total_degree(self) -> int:
        return max(map(sum, self.terms), default=0)

    def max_exponents(self) -> Exponent:
        """Largest exponent of each variable over the terms (zeros for the
        zero polynomial).  Computed once, then cached."""
        if self._maxima is None:
            maxima = tuple(map(max, zip(*self.terms)))
            self._maxima = maxima if self.terms else (0,) * self.nvars
        return self._maxima

    def norms(self) -> Tuple[int, int]:
        """The L1 norm and the sup norm of the coefficients.  Computed
        once, then cached."""
        if self._norms is None:
            coeffs = list(map(abs, self.terms.values()))
            self._norms = (sum(coeffs), max(coeffs, default=0))
        return self._norms

    def rename(self, perm: Sequence[int]) -> "Polynomial":
        """The polynomial with each y_i renamed y_perm[i]: the exponent of
        variable i moves to coordinate perm[i].  Maxima and norms move
        with the terms, computed on this polynomial and cached on both."""
        n = self.nvars
        if not is_permutation(perm, n):
            raise InputError(f"{tuple(perm)} is not a permutation of the {n} variables")
        return self._rename(perm)

    def _rename(self, perm: Sequence[int]) -> "Polynomial":
        """rename, for a perm already known to be a permutation in ints."""
        n = self.nvars
        inverse = [0] * n
        for i, j in enumerate(perm):
            inverse[j] = i
        if inverse == list(range(n)):
            return self
        moved = itemgetter(*inverse)
        p = Polynomial._raw(
            n, {moved(e): c for e, c in self.terms.items()}, moved(self.max_exponents())
        )
        p._norms = self.norms()
        return p

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.nvars, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        return f"Polynomial({self.nvars}, {self.text()!r})"

    # -- arithmetic ------------------------------------------------------

    def _check_compatible(self, other: "Polynomial") -> None:
        if self.nvars != other.nvars:
            raise InputError("polynomials live in different variable sets")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_compatible(other)
        out = dict(self.terms)
        for exps, coeff in other.terms.items():
            c = out.get(exps, 0) + coeff
            if c:
                out[exps] = c
            elif exps in out:
                del out[exps]
        return Polynomial._raw(self.nvars, out)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check_compatible(other)
        if len(self.terms) > len(other.terms):
            return other * self
        if not self.terms:
            return Polynomial.zero(self.nvars)
        # over the integers deg_i(p q) = deg_i(p) + deg_i(q), so this is
        # exactly the product's maxima
        maxima = tuple(map(add, self.max_exponents(), other.max_exponents()))
        out: Dict[Exponent, int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                c = out.get(e, 0) + c1 * c2
                if c:
                    out[e] = c
                elif e in out:
                    del out[e]
        return Polynomial._raw(self.nvars, out, maxima)

    def __pow__(self, k: int) -> "Polynomial":
        if not (is_int(k) and k >= 0):
            raise InputError(f"the power {k!r} is not a nonnegative int")
        result = Polynomial.one(self.nvars)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def exact_div(self, divisor: "Polynomial") -> "Polynomial":
        """Return q with q * divisor == self.  Raises DivisibilityError
        when the division leaves a remainder.

        Leading-term elimination: the leading term is the largest in the
        graded order of ``_grlex``, and the remainder's terms wait on a
        heap keyed (-degree, exponents), which pops them in that order."""
        self._check_compatible(divisor)
        if divisor.is_zero():
            raise InputError("division by the zero polynomial")
        lead = max(divisor.terms, key=_grlex)
        lead_c = divisor.terms[lead]
        rest = [(e, c) for e, c in divisor.terms.items() if e != lead]
        rem = dict(self.terms)
        heap = [(-sum(e), e) for e in rem]
        heapq.heapify(heap)
        quot: Dict[Exponent, int] = {}
        while heap:
            e = heapq.heappop(heap)[1]
            c = rem.pop(e, 0)
            if not c:
                continue
            # either proves a remainder; refusing exponents below the lead
            # also keeps every remainder term nonnegative, so the loop ends
            if c % lead_c or any(a < b for a, b in zip(e, lead)):
                raise DivisibilityError(
                    f"{self.text()} is not divisible by {divisor.text()}"
                )
            q_e, q_c = tuple(map(sub, e, lead)), c // lead_c
            quot[q_e] = q_c
            for de, dc in rest:
                fe = tuple(map(add, q_e, de))
                if fe not in rem:
                    heapq.heappush(heap, (-sum(fe), fe))
                rem[fe] = rem.get(fe, 0) - q_c * dc
        return Polynomial._raw(self.nvars, quot)

    # -- evaluation ------------------------------------------------------

    def evaluate(self, point: Sequence[Fraction]) -> Fraction:
        """Exact value at a rational point."""
        if len(point) != self.nvars:
            raise InputError(
                f"point has {len(point)} coordinates, polynomial has {self.nvars} variables"
            )
        # cache powers per variable up to the largest exponent used
        powers = []
        for x, m in zip(point, self.max_exponents()):
            row = [Fraction(1)]
            for _ in range(m):
                row.append(row[-1] * x)
            powers.append(row)
        total = Fraction(0)
        for e, c in self.terms.items():
            val = Fraction(c)
            for i, x in enumerate(e):
                if x:
                    val *= powers[i][x]
            total += val
        return total

    # -- text form ---------------------------------------------------

    def text(self) -> str:
        """Canonical text: terms ascending in graded lex, e.g. '1 + 2*y1 + y1^2'."""
        if not self.terms:
            return "0"
        pieces = []
        for e in sorted(self.terms, key=_grlex):
            c = self.terms[e]
            factors = [
                f"y{i + 1}" + (f"^{x}" if x > 1 else "")
                for i, x in enumerate(e)
                if x
            ]
            mag = abs(c)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(mag)] + factors)
            pieces.append(("-" if c < 0 else "+", body))
        sign, body = pieces[0]
        out = ("-" if sign == "-" else "") + body
        for sign, body in pieces[1:]:
            out += f" {sign} {body}"
        return out

    _TERM_RE = re.compile(r"^([+-]?)(\d+)?((?:\*?y\d+(?:\^\d+)?)*)$")
    _FACTOR_RE = re.compile(r"y(\d+)(?:\^(\d+))?")

    @classmethod
    def parse(cls, nvars: int, text: str) -> "Polynomial":
        """Parse the canonical text form back into a polynomial."""
        zero = cls(nvars)  # refuses a bad variable count before it is read
        compact = text.replace(" ", "")
        if not compact:
            raise InputError("empty polynomial text")
        if compact == "0":
            return zero
        chunks = re.findall(r"[+-]?[^+-]+", compact)
        if "".join(chunks) != compact:
            raise InputError(f"cannot parse polynomial {text!r}")
        terms: Dict[Exponent, int] = {}
        for chunk in chunks:
            m = cls._TERM_RE.match(chunk)
            if not m or (m.group(2) is None and not m.group(3)):
                raise InputError(f"bad term {chunk!r} in polynomial {text!r}")
            sign = -1 if m.group(1) == "-" else 1
            coeff = sign * (int(m.group(2)) if m.group(2) else 1)
            exps = [0] * nvars
            for fv, fe in cls._FACTOR_RE.findall(m.group(3)):
                idx = int(fv) - 1
                if not 0 <= idx < nvars:
                    raise InputError(f"variable y{fv} out of range in {text!r}")
                exps[idx] += int(fe) if fe else 1
            e = tuple(exps)
            terms[e] = terms.get(e, 0) + coeff
        return cls(nvars, terms)


Factors = Sequence[Tuple[Polynomial, int]]

# CPython multiplies ints of up to KARATSUBA_CUTOFF = 70 digits of 30 bits
# by schoolbook; packed groups stay within that
_PACKED_BITS = 70 * 30
# a grouped pass divides on a list of every outer key when the outer box
# has at most this many keys per numerator group, else on a heap of keys:
# the break-even measured over the exchanges of whole verdicts, the list
# being 1.5% faster from 16 to 32 keys per group and 15% slower from 32
# to 64
_DENSE_KEYS = 32


def exchange(
    plus: Sequence[int],
    plus_factors: Factors,
    minus: Sequence[int],
    minus_factors: Factors,
    divisor: Polynomial,
) -> Polynomial:
    """The exchange relation solved for the new F-polynomial:

        (y^plus * prod F^a + y^minus * prod G^b) / divisor,

    the products running over plus_factors = [(F, a), ...] and
    minus_factors = [(G, b), ...], exactly.  plus and minus are vectors
    of nonnegative ints, the powers are nonnegative ints and the divisor
    has constant term +-1.  Raises DivisibilityError when the divisor
    leaves a remainder.

    Exponent i ranges over 0..bound_i, bound_i being the monomial's
    exponent plus the sum of a * (largest exponent of y_i in F) over the
    factors, the larger of the two sides.  A few inner variables are
    packed into one int, c*y^e becoming c << (width * slot(e)); the
    others make an outer key.  Slot and key are mixed-radix over this
    box, so packing is a ring homomorphism on polynomials inside it.  As deg_i(q * divisor) =
    deg_i(q) + deg_i(divisor), a quotient term above bound_i minus the
    divisor's largest exponent of y_i proves a remainder; below it,
    every correction stays in the box.

    When the whole box fits in one int, volume * width at most
    _PACKED_BITS, a pass skips the groups: the numerator is one int, each
    side its packed factors' powers times one shift for its monomial, and
    one divmod by the packed divisor divides it.  Its checks are those of
    a single group at key 0, the whole divisor being D0, in the same
    order: a nonzero remainder raises, then the restart check runs on the
    quotient's digits, then an exponent above its quotient bound, or a
    slot past the volume, raises.

    Otherwise each side starts from its monomial's group and multiplies
    in its factors, fewest terms first, each once per unit of its power;
    the last product adds straight into the numerator's groups, shifted
    to the monomial's slot, so a side is never held twice.  Division
    walks the outer keys upwards, a lex order, so the lowest group left
    is a quotient group times the divisor's key-0 group D0, which holds
    the constant term: one integer divmod by D0 divides it.  Each
    quotient group is decoded at once, with balanced digits, and checked
    against the bound: its outer exponents once, from its key, and each
    term's inner exponents from its slot.  When the outer box has at most
    _DENSE_KEYS keys per numerator group, the walk reads every key from 0
    to the top in a list of the box's keys, at most 8 * _DENSE_KEYS bytes
    per group, about a group's own size; otherwise the keys still to
    divide wait on a heap.  Both walks divide the same groups in the same
    order with one body, so the checks, and every outcome, do not depend
    on the walk.  A packed group x with
    z low zero bits enters a product as (x >> z) times the other factor,
    shifted by z: CPython's schoolbook multiply pays for every low zero
    digit, a shift does not.  By Young's inequality
    |P F|_inf <= |P|_inf |F|_1, so a side's coefficients are at most
    |F*|_inf |F*|_1^(a*-1) prod over its other factors |F|_1^a, for any
    factor F* of power a* > 0 (the one of largest |F|_1 / |F|_inf gives
    the least); a side with a zero factor is 0 and a bare monomial is 1.
    The sum B over the two sides bounds every numerator coefficient.  The
    remainder numerator - Q * divisor, Q the quotient decoded so far,
    then has coefficients of at most B + |Q|_inf |divisor|_1, whatever
    their signs.  While that stays below 2^(width-1), a remainder group
    is zero exactly when its packed int is, so each quotient group is the
    exact quotient of its remainder group, and the true one if the
    division is exact; past it, the call restarts on wider slots.  So a
    nonzero integer remainder proves a remainder (evaluation is a ring
    homomorphism, so an exact polynomial quotient divides the packed
    int), as does residue beyond the top key.

    A quotient group outside the box proves a remainder, once the
    restart check holds.  An outer exponent above its bound raises at
    once: every earlier group passed the check, so the remainder group
    is exact at this width, and in an exact division it is a true
    quotient group times D0, which never has that key.  An inner
    exponent above its bound, or a slot past the group's volume, only
    marks the group, and the restart check on its digits runs first.
    If it holds, every digit c of q << z has |c| |D0|_1 < 2^(width-1),
    so (q << z) * D0 has no carries: the decoded group is the quotient
    of the remainder group by D0 as polynomials in 2^width, which in
    an exact division is the true quotient group, inside the box, so
    the mark raises.  A slot past the volume always fails the check:
    were there no carries, the top slot of (q << z) * D0, a product of
    two nonzero top digits, would lie past the volume too, where the
    remainder group holds none.  Widening ends: once a slot is wider than
    _PACKED_BITS no variable packs, each group is one term divided by
    D0 = +-1, and the pass is the term-by-term division by the
    divisor's constant term, whose coefficients do not depend on the
    width; past some width every pass is exact, and it decides."""
    if not isinstance(divisor, Polynomial):
        raise InputError(f"the exchange divisor {divisor!r} is not a polynomial")
    n = divisor.nvars
    plus, minus = tuple(plus), tuple(minus)
    exps = plus + minus
    # ints by errors.is_int, so floats and bools are refused; a set of exact
    # int types settles that without a call per entry
    if (len(plus) != n or len(minus) != n
            or not (set(map(type, exps)) <= {int} or all(map(is_int, exps)))
            or exps and min(exps) < 0):
        raise InputError(f"bad exchange monomials {plus} and {minus}")
    for f, a in (*plus_factors, *minus_factors):
        if not isinstance(f, Polynomial):
            raise InputError(f"the exchange factor {f!r} is not a polynomial")
        divisor._check_compatible(f)
        if not is_int(a) or a < 0:
            raise InputError(f"bad power {a!r} in an exchange")
    return _exchange(plus, plus_factors, minus, minus_factors, divisor)


def _exchange(plus, plus_factors, minus, minus_factors, divisor: Polynomial) -> Polynomial:
    """exchange on arguments of the right types and lengths, as
    Seed.exchange_args builds them from a seed: of exchange's checks, only
    the divisor's constant term is made here."""
    n = divisor.nvars
    if divisor.terms.get((0,) * n) not in (1, -1):
        raise InputError("an exchange divisor needs constant term +-1")
    sides = ((plus, plus_factors), (minus, minus_factors))
    tops, sup = [], 0
    for mono, factors in sides:
        # the side's exponent bound and L1 norm, and |F*|_inf / |F*|_1 as
        # a pair; a factor of power 0 adds to none of them
        side, side_l1, ratio = mono, 1, (1, 1)
        for f, a in factors:
            if a:
                side = [x + a * m for x, m in zip(side, f.max_exponents())]
                l1, linf = f.norms()
                side_l1 *= l1 ** a
                if linf * ratio[1] < ratio[0] * l1:
                    ratio = (linf, l1)
        tops.append(side)
        sup += side_l1 * ratio[0] // ratio[1]
    bound = list(map(max, *tops))
    # the first slots take |divisor|_inf for |Q|_inf in the restart
    # check, with a bit to spare: an F-polynomial's sup norm changes
    # little under one mutation
    dnorm, dsup = divisor.norms()
    width = (sup + dsup * dnorm).bit_length() + 2
    try:
        while (quotient := _packed_exchange(sides, divisor, bound, sup, width)) is None:
            width *= 2
    except DivisibilityError:
        raise DivisibilityError(
            f"the exchange numerator is not divisible by {divisor.text()}"
        ) from None
    return quotient


def _packed_exchange(sides, divisor: Polynomial, bound: List[int], sup: int, width: int):
    """exchange on slots of this width; None when they are too narrow."""
    n = divisor.nvars
    # each variable with its radix and its quotient bound; one of radix 1
    # has exponent 0 in every term in the box, takes weight 0 and is not
    # decoded (it would add a factor 1 to the volume and a digit 0)
    dmax = divisor.max_exponents()
    box = [(i, max(bound[i], dmax[i]) + 1, bound[i] - dmax[i])
           for i in compress(range(n), map(or_, bound, dmax))]
    volume = 1
    for _, r, _ in box:
        volume *= r
    if volume * width <= _PACKED_BITS:
        return _one_int_exchange(sides, divisor, box, volume, sup, width)
    # inner variables from the box alone, largest radix first, while the
    # slots of a group fit in _PACKED_BITS (so a radix near 2^31 never packs)
    volume, inner, outer = 1, [], []
    for v in sorted(box, key=itemgetter(1), reverse=True):
        if volume * v[1] * width <= _PACKED_BITS:
            volume *= v[1]
            inner.append(v)
        else:
            outer.append(v)
    # the inner variables lowest, so that a key is outer key * volume + slot;
    # the outer ones in variable order
    outer.sort()
    weights, w = [0] * n, 1
    for i, r, _ in inner + outer:
        weights[i], w = w, w * r

    def pack(terms) -> Dict[int, int]:
        out: Dict[int, int] = {}
        for e, c in terms:
            k, s = divmod(sum(map(mul, e, weights)), volume)
            out[k] = out.get(k, 0) + (c << width * s)
        return out

    # the factors' and the divisor's groups are stripped once, the
    # quotient's as they are divided
    num: Dict[int, int] = {}
    for mono, factors in sides:
        k, s = divmod(sum(map(mul, mono, weights)), volume)
        # the monomial's group first, its slot shift kept apart, then each
        # factor once per unit of its power, fewest terms first; the
        # product starts from the unit group, so a bare monomial, one
        # factor and many take the same loops
        chain = [[(k, 1, 0)]]
        for f, a in sorted(factors, key=lambda fa: len(fa[0].terms)):
            chain += [_stripped(pack(f.terms.items()))] * a
        prod = {0: 1}
        for packed in chain[:-1]:
            out: Dict[int, int] = {}
            get = out.get
            for ka, xa in prod.items():
                for kb, xb, zb in packed:
                    key = ka + kb
                    out[key] = get(key, 0) + (xa * xb << zb)
            prod = out
        # the last product goes straight into num, shifted to the
        # monomial's slot, so that a side is never held twice
        get, last, shift = num.get, chain[-1], width * s
        for ka, xa in prod.items():
            for kb, xb, zb in last:
                key = ka + kb
                num[key] = get(key, 0) + (xa * xb << zb + shift)

    divisor_groups = pack(divisor.terms.items())
    d0 = divisor_groups.pop(0)
    higher = _stripped(divisor_groups)
    dnorm, limit = divisor.norms()[0], (1 << width - 1) - sup
    mask, half = (1 << width) - 1, 1 << (width - 1)
    terms: Dict[Exponent, int] = {}
    qmax = 0

    def divide(g: int, r: int):
        """The quotient group of the nonzero remainder group r at key g,
        as (q, z) for q << z, its terms written to terms; None when the
        slots are too narrow."""
        nonlocal qmax
        # d0 holds the constant term +-1, so it is odd and the low zero
        # bits of r are those of its quotient q << z
        z = (r & -r).bit_length() - 1
        q, rest = divmod(r >> z, d0)
        if rest:
            raise DivisibilityError("remainder in a packed group")
        # the outer exponents, and their bound, once per group
        row, k = [0] * n, g
        for i, rad, b in outer:
            k, e = divmod(k, rad)
            if e > b:
                raise DivisibilityError("quotient group outside the box")
            row[i] = e
        # the nonzero slots s of q << z and their coefficients c, read
        # balanced, each decoded to its inner exponents only; a term
        # outside the box marks the group
        x, s, outside = q << z % width, z // width - 1, False
        while x:
            skip = ((x & -x).bit_length() - 1) // width
            x >>= skip * width
            c = ((x & mask) ^ half) - half
            x = (x - c) >> width
            s += skip + 1
            t = s
            for i, rad, b in inner:
                t, e = divmod(t, rad)
                if e > b:
                    outside = True
                row[i] = e
            terms[tuple(row)] = c
            if abs(c) > qmax:
                qmax = abs(c)
        if qmax * dnorm >= limit:
            return None
        # s is now the group's top slot
        if outside or s >= volume:
            raise DivisibilityError("quotient term outside the box")
        return q, z

    top = max(num, default=-1)
    keys = w // volume
    if keys <= _DENSE_KEYS * len(num):
        done = _dense_walk(num, keys, top, higher, divide)
    else:
        done = _heap_walk(num, top, higher, divide)
    return Polynomial._raw(n, terms) if done else None


def _dense_walk(num: Dict[int, int], keys: int, top: int, higher, divide) -> bool:
    """Divide the groups of num, in a list of every outer key below keys,
    from key 0 to top; False when divide finds the slots too narrow.
    Empties num, so that no group is held twice."""
    dense = [0] * keys
    for g, r in num.items():
        dense[g] = r
    num.clear()
    for g in range(top + 1):
        r = dense[g]
        if not r:
            continue
        dense[g] = 0
        if (qz := divide(g, r)) is None:
            return False
        q, z = qz
        for h, xh, zh in higher:
            dense[g + h] -= q * xh << z + zh
    if any(dense):
        raise DivisibilityError("remainder beyond the top key")
    return True


def _heap_walk(num: Dict[int, int], top: int, higher, divide) -> bool:
    """Divide the groups of num from its lowest key to top, the keys still
    to divide on a heap; False when divide finds the slots too narrow."""
    pending = sorted(num)  # a heap of the keys still to divide
    get, heappush, heappop = num.get, heapq.heappush, heapq.heappop
    while pending and pending[0] <= top:
        g = heappop(pending)
        r = num.pop(g)
        if not r:
            continue
        if (qz := divide(g, r)) is None:
            return False
        q, z = qz
        for h, xh, zh in higher:
            key = g + h
            y = get(key)
            if y is None:
                heappush(pending, key)
                y = 0
            num[key] = y - (q * xh << z + zh)
    if any(num.values()):
        raise DivisibilityError("remainder beyond the top key")
    return True


def _one_int_exchange(sides, divisor: Polynomial, box, volume: int, sup: int, width: int):
    """_packed_exchange when the whole box fits in one int of volume
    slots: the numerator and the divisor are one packed int each, divided
    by one divmod, and the quotient is decoded once."""
    n = divisor.nvars
    # y_i's slot shift is width times its mixed-radix weight
    shifts, step = [0] * n, width
    for i, r, _ in box:
        shifts[i], step = step, step * r

    def pack(p: Polynomial) -> int:
        return sum([c << sum(map(mul, e, shifts)) for e, c in p.terms.items()])

    num = 0
    for mono, factors in sides:
        x = 1
        for f, a in factors:
            if a:
                x *= pack(f) ** a
        num += x << sum(map(mul, mono, shifts))
    # the packed divisor is odd, so the low zero bits of num are those of
    # its quotient q << z
    z = (num & -num).bit_length() - 1 if num else 0
    q, rest = divmod(num >> z, pack(divisor))
    if rest:
        raise DivisibilityError("remainder in the packed numerator")
    # the slots s of q << z upwards, read balanced, as in a packed group
    mask, half = (1 << width) - 1, 1 << (width - 1)
    x, s, qmax, outside = q << z % width, z // width - 1, 0, False
    terms: Dict[Exponent, int] = {}
    row = [0] * n  # every term writes each box variable's entry
    while x:
        skip = ((x & -x).bit_length() - 1) // width
        x >>= skip * width
        c = ((x & mask) ^ half) - half
        x = (x - c) >> width
        s += skip + 1
        t = s
        for i, rad, b in box:
            t, e = divmod(t, rad)
            if e > b:
                outside = True
            row[i] = e
        terms[tuple(row)] = c
        if abs(c) > qmax:
            qmax = abs(c)
    if qmax * divisor.norms()[0] >= (1 << width - 1) - sup:
        return None
    # s is now the top slot
    if outside or s >= volume:
        raise DivisibilityError("quotient term outside the box")
    return Polynomial._raw(n, terms)


def _stripped(groups: Dict[int, int]) -> List[Tuple[int, int, int]]:
    """(key, x >> z, z) for each nonzero group x, z its low zero bits; a
    group that cancelled to 0 is left out."""
    out = []
    for k, x in groups.items():
        if x:
            z = (x & -x).bit_length() - 1
            out.append((k, x >> z, z))
    return out


RANDOM_POINT_BOUND = 100  # RationalPoint.random draws from 1..RANDOM_POINT_BOUND


class RationalPoint(Sequence):
    """Vector of strictly positive rationals, one per variable.

    Positivity keeps every subtraction-free expression finite and nonzero,
    which the random evaluation oracles rely on.
    """

    __slots__ = ("values",)

    def __init__(self, values: Iterable):
        vals = tuple(Fraction(v) for v in values)
        if any(v <= 0 for v in vals):
            raise InputError("rational points must be strictly positive")
        self.values = vals

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, i):
        return self.values[i]

    def __iter__(self):
        return iter(self.values)

    def __repr__(self) -> str:
        return f"RationalPoint({[str(v) for v in self.values]})"

    @staticmethod
    def random(nvars: int, rng) -> "RationalPoint":
        """Per variable a numerator, then a denominator, uniform in 1..RANDOM_POINT_BOUND."""
        bound = RANDOM_POINT_BOUND
        return RationalPoint(
            Fraction(rng.randint(1, bound), rng.randint(1, bound)) for _ in range(nvars)
        )

