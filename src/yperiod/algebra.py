"""Exact sparse polynomial and tropical monomial arithmetic.

Coefficients are Python ints and evaluation returns ``fractions.Fraction``,
so nothing here ever rounds or overflows.  Exponent vectors are exposed
as plain tuples whose length is the ambient variable count; variables are
written ``y1 .. yn`` in text form.

Internally a monomial is packed into a single integer: one 32-bit field
per variable plus the total degree in the topmost field.  Integer
addition of keys multiplies monomials (degree and exponents add fieldwise
and, with exponents capped far below the field width, never carry), and
integer comparison is a graded order.

The exchange relation of a seed, the one hot operation, runs in
``exchange`` on keys of its own: see there.
"""

from __future__ import annotations

import functools
import heapq
import re
import struct
from dataclasses import dataclass
from fractions import Fraction
from operator import add, mul
from typing import Dict, Iterable, Iterator, List, Mapping, Sequence, Tuple, Union

from .errors import DivisibilityError, InputError

Exponent = Tuple[int, ...]

_FIELD_BITS = 32
_FIELD_MASK = (1 << _FIELD_BITS) - 1
# keeps any pairwise field sum carry-free; results that would reach it
# are refused
_MAX_EXPONENT = 1 << 31


def _grlex(e: Exponent):
    """Graded lexicographic sort key: total degree first, then earlier
    variables weigh more (so y1^2 sorts above y1*y2 above y2^2)."""
    return (sum(e), tuple(-x for x in e))


def _encode(exps: Sequence[int]) -> int:
    key = 0
    deg = 0
    for e in exps:
        if not 0 <= e < _MAX_EXPONENT:
            raise InputError(f"exponent {e} out of range")
        key = (key << _FIELD_BITS) | e
        deg += e
    return key | (deg << (_FIELD_BITS * len(exps)))


def _decode(key: int, nvars: int) -> Exponent:
    out = [0] * nvars
    for i in range(nvars - 1, -1, -1):
        out[i] = key & _FIELD_MASK
        key >>= _FIELD_BITS
    return tuple(out)


@functools.lru_cache(maxsize=None)
def _key_fields(nvars: int):
    """(byte length, unpack) reading a key as (degree, e_1, ..., e_n) in
    one call.  The degree gets 64 bits: it sums n exponents below 2^31."""
    layout = struct.Struct(">Q" + "I" * nvars)
    return layout.size, layout.unpack


def _check_exponents(maxima: Sequence[int]) -> None:
    if any(m >= _MAX_EXPONENT for m in maxima):
        raise InputError(f"exponent {max(maxima)} out of range")


class Polynomial:
    """Polynomial in y1..yn over the integers, stored sparsely.

    Zero coefficients are never stored and instances are immutable by
    convention; every operation returns a fresh object.
    """

    __slots__ = ("nvars", "terms", "_maxima")

    def __init__(self, nvars: int, terms: Union[Mapping, Iterable] = ()):
        if nvars < 0:
            raise InputError("variable count must be nonnegative")
        self.nvars = nvars
        items = terms.items() if isinstance(terms, Mapping) else terms
        clean: Dict[int, int] = {}
        for exps, coeff in items:
            exps = tuple(int(e) for e in exps)
            if len(exps) != nvars:
                raise InputError(f"exponent vector {exps} has wrong length, expected {nvars}")
            key = _encode(exps)
            coeff = clean.get(key, 0) + int(coeff)
            if coeff:
                clean[key] = coeff
            elif key in clean:
                del clean[key]
        self.terms = clean
        self._maxima = None

    @classmethod
    def _raw(cls, nvars: int, terms: Dict[int, int], maxima=None) -> "Polynomial":
        p = cls.__new__(cls)
        p.nvars, p.terms, p._maxima = nvars, terms, maxima
        return p

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "Polynomial":
        return cls._raw(nvars, {})

    @classmethod
    def one(cls, nvars: int) -> "Polynomial":
        return cls.constant(nvars, 1)

    @classmethod
    def constant(cls, nvars: int, value: int) -> "Polynomial":
        return cls._raw(nvars, {0: int(value)} if value else {})

    @classmethod
    def variable(cls, nvars: int, i: int) -> "Polynomial":
        if not 0 <= i < nvars:
            raise InputError(f"variable index {i} out of range")
        return cls(nvars, {tuple(1 if j == i else 0 for j in range(nvars)): 1})

    @classmethod
    def monomial(cls, nvars: int, exps: Sequence[int], coeff: int = 1) -> "Polynomial":
        return cls(nvars, {tuple(exps): coeff})

    # -- inspection ------------------------------------------------------

    def items(self) -> Iterator[Tuple[Exponent, int]]:
        """Iterate (exponent tuple, coefficient) pairs, unordered."""
        for key, coeff in self.terms.items():
            yield _decode(key, self.nvars), coeff

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return self.terms == {0: 1}

    def constant_term(self) -> int:
        return self.terms.get(0, 0)

    def has_nonnegative_coefficients(self) -> bool:
        return all(c > 0 for c in self.terms.values())

    def total_degree(self) -> int:
        if not self.terms:
            return 0
        return max(self.terms) >> (_FIELD_BITS * self.nvars)

    def max_exponents(self) -> Exponent:
        """Largest exponent of each variable over the terms (zeros for the
        zero polynomial).  Computed once, then cached."""
        if self._maxima is None:
            size, unpack = _key_fields(self.nvars)
            fields = [unpack(k.to_bytes(size, "big")) for k in self.terms]
            maxima = tuple(map(max, zip(*fields)))[1:]
            self._maxima = maxima if fields else (0,) * self.nvars
        return self._maxima

    def __bool__(self) -> bool:
        return bool(self.terms)

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
        for key, coeff in other.terms.items():
            c = out.get(key, 0) + coeff
            if c:
                out[key] = c
            elif key in out:
                del out[key]
        return Polynomial._raw(self.nvars, out)

    def __neg__(self) -> "Polynomial":
        return Polynomial._raw(self.nvars, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check_compatible(other)
        if len(self.terms) > len(other.terms):
            return other * self
        if not self.terms:
            return Polynomial.zero(self.nvars)
        # over the integers deg_i(p q) = deg_i(p) + deg_i(q), so this is
        # exactly the product's maxima
        maxima = tuple(map(add, self.max_exponents(), other.max_exponents()))
        _check_exponents(maxima)
        out: Dict[int, int] = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                k = k1 + k2
                c = out.get(k, 0) + c1 * c2
                if c:
                    out[k] = c
                elif k in out:
                    del out[k]
        return Polynomial._raw(self.nvars, out, maxima)

    def times_monomial(self, exps: Sequence[int], coeff: int = 1) -> "Polynomial":
        """Fast path for multiplication by a single monomial."""
        if coeff == 0 or not self.terms:
            return Polynomial.zero(self.nvars)
        exps = tuple(exps)
        if len(exps) != self.nvars:
            raise InputError(f"exponent vector {exps} has wrong length, expected {self.nvars}")
        shift = _encode(exps)
        maxima = tuple(map(add, self.max_exponents(), exps))
        _check_exponents(maxima)
        return Polynomial._raw(
            self.nvars, {k + shift: c * coeff for k, c in self.terms.items()}, maxima
        )

    def __pow__(self, k: int) -> "Polynomial":
        if k < 0:
            raise InputError("negative polynomial power")
        if self.terms:
            # the intermediate squares stay below the result's maxima
            _check_exponents([k * m for m in self.max_exponents()])
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

        Divisors with unit constant term (every exchange-relation divisor)
        take the division of ``exchange``, from the bottom degree up;
        anything else falls back to leading-term elimination in the graded
        key order."""
        self._check_compatible(divisor)
        if divisor.is_zero():
            raise InputError("division by the zero polynomial")
        if self.is_zero():
            return Polynomial.zero(self.nvars)
        if divisor.constant_term() in (1, -1):
            box = _Box(self.max_exponents(), divisor)
            try:
                return box.divide(
                    {deg: dict(s) for deg, s in box.slices(self).items()}, divisor
                )
            except DivisibilityError:
                raise DivisibilityError(
                    f"{self.text()} is not divisible by {divisor.text()}"
                ) from None
        n = self.nvars
        lead_key = max(divisor.terms)
        lead_c = divisor.terms[lead_key]
        lead_exp = _decode(lead_key, n)
        rem = dict(self.terms)
        heap = [-k for k in rem]
        heapq.heapify(heap)
        quot: Dict[int, int] = {}
        while rem:
            while heap:
                key = -heapq.heappop(heap)
                if key in rem:
                    break
            else:  # pragma: no cover - rem nonempty implies a live entry
                raise DivisibilityError("heap exhausted with nonzero remainder")
            c = rem[key]
            exps = _decode(key, n)
            if c % lead_c or any(a < b for a, b in zip(exps, lead_exp)):
                raise DivisibilityError(
                    f"{self.text()} is not divisible by {divisor.text()}"
                )
            q_key = key - lead_key
            q_c = c // lead_c
            quot[q_key] = quot.get(q_key, 0) + q_c
            for dk, dc in divisor.terms.items():
                fk = q_key + dk
                fc = rem.get(fk, 0) - q_c * dc
                if fc:
                    rem[fk] = fc
                    heapq.heappush(heap, -fk)
                elif fk in rem:
                    del rem[fk]
        return Polynomial._raw(n, quot)

    # -- evaluation ------------------------------------------------------

    def evaluate(self, point: Sequence[Fraction]) -> Fraction:
        """Exact value at a rational point."""
        if len(point) != self.nvars:
            raise InputError(
                f"point has {len(point)} coordinates, polynomial has {self.nvars} variables"
            )
        # cache powers per variable up to the largest exponent used
        maxes = [0] * self.nvars
        decoded = [(_decode(k, self.nvars), c) for k, c in self.terms.items()]
        for e, _ in decoded:
            for i, x in enumerate(e):
                if x > maxes[i]:
                    maxes[i] = x
        powers = []
        for i, m in enumerate(maxes):
            row = [Fraction(1)]
            for _ in range(m):
                row.append(row[-1] * point[i])
            powers.append(row)
        total = Fraction(0)
        for e, c in decoded:
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
        by_exp = {_decode(k, self.nvars): c for k, c in self.terms.items()}
        pieces = []
        for e in sorted(by_exp, key=_grlex):
            c = by_exp[e]
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
        compact = text.replace(" ", "")
        if not compact:
            raise InputError("empty polynomial text")
        if compact == "0":
            return cls.zero(nvars)
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


# terms by total degree: {degree: [(key, coefficient), ...]}
Slices = Dict[int, List[Tuple[int, int]]]
Factors = Sequence[Tuple[Polynomial, int]]


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
    minus_factors = [(G, b), ...], exactly.  plus and minus are
    nonnegative exponent vectors, the powers are nonnegative and the
    divisor has constant term +-1.  Raises DivisibilityError when the
    divisor leaves a remainder.

    The numerator is never built in the package's 32-bit-field keys.  Each
    call picks its own mixed-radix keys: exponent i ranges over
    0..bound_i, where bound_i is the monomial's exponent plus the sum of
    a * (largest exponent of y_i in F) over the factors, the larger of the
    two sides.  Those keys cannot carry:

    * every partial product lies inside that box;
    * over the integers deg_i(q * divisor) = deg_i(q) + deg_i(divisor),
      so a quotient term with an exponent above bound_i minus the
      divisor's largest exponent of y_i proves a remainder, and raises;
    * so every correction the division makes stays in the box too, and
      the residue check is exact.

    The factors are multiplied smallest first, degree slice by degree
    slice, straight into the numerator's slices; the division runs from
    the bottom degree up; only the quotient is decoded."""
    n = divisor.nvars
    sides = ((tuple(plus), plus_factors), (tuple(minus), minus_factors))
    bound = [0] * n
    for mono, factors in sides:
        if len(mono) != n or any(e < 0 for e in mono):
            raise InputError(f"bad exchange monomial {mono}")
        side = mono
        for f, a in factors:
            divisor._check_compatible(f)
            if a < 0:
                raise InputError("negative power in an exchange")
            side = [x + a * m for x, m in zip(side, f.max_exponents())]
        bound = list(map(max, bound, side))
    if divisor.constant_term() not in (1, -1):
        raise InputError("an exchange divisor needs constant term +-1")
    box = _Box(bound, divisor)
    num: Dict[int, Dict[int, int]] = {}
    for mono, factors in sides:
        steps: List[Slices] = []
        for f, a in sorted(factors, key=lambda fa: len(fa[0].terms)):
            steps += [box.slices(f)] * a
        prod = box.monomial(mono)
        for s in steps[:-1]:
            prod = {
                deg: [t for t in d.items() if t[1]]
                for deg, d in _mul_slices(prod, s, {}).items()
            }
        _mul_slices(prod, steps[-1] if steps else {0: [(0, 1)]}, num)
    try:
        return box.divide(num, divisor)
    except DivisibilityError:
        raise DivisibilityError(
            f"the exchange numerator is not divisible by {divisor.text()}"
        ) from None


def _mul_slices(a: Slices, b: Slices, out: Dict[int, Dict[int, int]]) -> Dict[int, Dict[int, int]]:
    """Add a * b into out (dicts by degree).  Cancelled entries stay in
    out as zeros."""
    for da, sa in a.items():
        for db, sb in b.items():
            outer, inner = (sa, sb) if len(sa) <= len(sb) else (sb, sa)
            target = out.setdefault(da + db, {})
            get = target.get
            for ko, co in outer:
                for ki, ci in inner:
                    k = ko + ki
                    target[k] = get(k, 0) + co * ci
    return out


class _Box:
    """Compact keys for one exact division whose dividend has exponents
    at most ``bound``: sum_i e_i * weight_i, with radix_i = bound_i + 1
    (or more, so that the divisor fits).  Adding keys multiplies
    monomials as long as every exponent stays below its radix."""

    __slots__ = ("nvars", "radices", "weights", "quotient_bound")

    def __init__(self, bound: Sequence[int], divisor: Polynomial):
        n = self.nvars = divisor.nvars
        dmax = divisor.max_exponents()
        radices = self.radices = [max(b, d) + 1 for b, d in zip(bound, dmax)]
        weights = [1] * n
        for i in range(n - 2, -1, -1):
            weights[i] = weights[i + 1] * radices[i + 1]
        # unpacked standard keys lead with the degree, which weighs nothing
        self.weights = (0, *weights)
        self.quotient_bound = [b - d for b, d in zip(bound, dmax)]

    def monomial(self, exps: Sequence[int]) -> Slices:
        return {sum(exps): [(sum(map(mul, exps, self.weights[1:])), 1)]}

    def slices(self, poly: Polynomial) -> Slices:
        size, unpack = _key_fields(self.nvars)
        weights = self.weights
        out: Slices = {}
        for k, c in poly.terms.items():
            fields = unpack(k.to_bytes(size, "big"))
            out.setdefault(fields[0], []).append((sum(map(mul, fields, weights)), c))
        return out

    def divide(self, num: Dict[int, Dict[int, int]], divisor: Polynomial) -> Polynomial:
        """The quotient of num (dicts by degree, consumed) by a divisor
        with constant term +-1, degree slice by degree slice from below:
        each slice of the running remainder is the next quotient slice,
        and only strictly higher slices receive corrections.

        The divisor's non-constant terms are grouped by degree, so each
        (quotient slice, divisor degree) pair touches one target slice.
        Cancelled entries stay in their slice as zeros until it is
        reached.  A remainder shows as residue beyond the dividend's top
        degree, or as a quotient term outside the box."""
        c0 = divisor.terms[0]
        groups = [(d, s) for d, s in self.slices(divisor).items() if d]
        top = max(num, default=-1)
        pending = sorted(num)  # a heap of the degrees still to divide
        quot: List[Tuple[int, List[Tuple[int, int]]]] = []
        while pending and pending[0] <= top:
            deg = heapq.heappop(pending)
            # dividing by +-1
            qslice = [(qk, qc * c0) for qk, qc in num.pop(deg).items() if qc]
            if not qslice:
                continue
            quot.append((deg, qslice))
            for hdeg, hterms in groups:
                t = deg + hdeg
                bucket = num.get(t)
                if bucket is None:
                    bucket = num[t] = {}
                    heapq.heappush(pending, t)
                get = bucket.get
                for qk, qc in qslice:
                    for hk, hc in hterms:
                        fk = qk + hk
                        bucket[fk] = get(fk, 0) - qc * hc
        if any(c for bucket in num.values() for c in bucket.values()):
            raise DivisibilityError("remainder beyond the top degree")
        return self._decode(quot)

    def _decode(self, quot: List[Tuple[int, List[Tuple[int, int]]]]) -> Polynomial:
        """Standard keys for the quotient slices.  The same pass finds
        each variable's largest exponent, which is checked against the
        quotient bound and the exponent cap, and cached on the result."""
        n = self.nvars
        # least significant variable first
        spec = [(i, self.radices[i], _FIELD_BITS * (n - 1 - i)) for i in range(n - 1, -1, -1)]
        maxima = [0] * n
        terms: Dict[int, int] = {}
        for deg, qslice in quot:
            base = deg << (_FIELD_BITS * n)
            for q, c in qslice:
                key = base
                for i, r, shift in spec:
                    q, e = divmod(q, r)
                    if e > maxima[i]:
                        maxima[i] = e
                    key |= e << shift
                if q:
                    raise DivisibilityError("quotient term outside the box")
                terms[key] = c
        if not terms:
            return Polynomial.zero(n)
        if any(m > b for m, b in zip(maxima, self.quotient_bound)):
            raise DivisibilityError("quotient term outside the box")
        _check_exponents(maxima)
        return Polynomial._raw(n, terms, tuple(maxima))


@dataclass(frozen=True)
class TropicalMonomial:
    """Laurent monomial in the tropical semifield on y1..yn.

    Only the integer exponent vector is stored; the semifield addition is
    the coordinatewise minimum of exponents.
    """

    exponents: Exponent

    def __post_init__(self):
        object.__setattr__(self, "exponents", tuple(int(e) for e in self.exponents))

    @staticmethod
    def one(nvars: int) -> "TropicalMonomial":
        return TropicalMonomial((0,) * nvars)

    @staticmethod
    def variable(nvars: int, i: int) -> "TropicalMonomial":
        if not 0 <= i < nvars:
            raise InputError(f"variable index {i} out of range")
        return TropicalMonomial(tuple(1 if j == i else 0 for j in range(nvars)))

    @property
    def nvars(self) -> int:
        return len(self.exponents)

    def is_one(self) -> bool:
        return all(e == 0 for e in self.exponents)

    def __mul__(self, other: "TropicalMonomial") -> "TropicalMonomial":
        if self.nvars != other.nvars:
            raise InputError("tropical monomials live in different variable sets")
        return TropicalMonomial(
            tuple(a + b for a, b in zip(self.exponents, other.exponents))
        )

    def inverse(self) -> "TropicalMonomial":
        return TropicalMonomial(tuple(-e for e in self.exponents))

    def __pow__(self, k: int) -> "TropicalMonomial":
        return TropicalMonomial(tuple(k * e for e in self.exponents))

    def one_plus(self) -> "TropicalMonomial":
        """Tropical sum 1 (+) m: coordinatewise min(0, e)."""
        return TropicalMonomial(tuple(min(0, e) for e in self.exponents))

    def evaluate(self, point: Sequence[Fraction]) -> Fraction:
        if len(point) != self.nvars:
            raise InputError("dimension mismatch in tropical evaluation")
        val = Fraction(1)
        for x, e in zip(point, self.exponents):
            if e:
                val *= Fraction(x) ** e
        return val

    def text(self) -> str:
        factors = [
            f"y{i + 1}" + (f"^{e}" if e != 1 else "")
            for i, e in enumerate(self.exponents)
            if e
        ]
        return "*".join(factors) if factors else "1"


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
    def random(nvars: int, rng, bound: int = 100) -> "RationalPoint":
        """Numerators and denominators drawn uniformly from 1..bound."""
        return RationalPoint(
            Fraction(rng.randint(1, bound), rng.randint(1, bound)) for _ in range(nvars)
        )


# Operation-style aliases.

def trop_one_plus(m: TropicalMonomial) -> TropicalMonomial:
    return m.one_plus()


def poly_mul(p: Polynomial, q: Polynomial) -> Polynomial:
    return p * q


def poly_div_exact(p: Polynomial, q: Polynomial) -> Polynomial:
    return p.exact_div(q)


def evaluate(p: Polynomial, point: Sequence[Fraction]) -> Fraction:
    return p.evaluate(point)
