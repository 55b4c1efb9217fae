"""Exact arithmetic for the nested coefficient rings.

Three layers, innermost first: sparse Laurent polynomials in the Lefschetz
class L with arbitrary-precision integer coefficients (`LefschetzPoly`),
polynomials in the lattice-rank variable u over those (`LatticePoly`), and
power series in the discriminant variable s truncated at a fixed order
(`DiscSeries`).  A fourth structure, `MarkVariablePoly`, carries formal
marking variables on top of the series layer.

The two polynomial layers share one sparse-dict base, `_SparsePoly`, that
holds everything they have in common: the canonicalizing constructor,
coercion, equality, the additive group and powers.  Sparse addition lives
in one accumulator, `_accumulate`, and every product of u-polynomials --
`LatticePoly * LatticePoly`, each s-degree of `DiscSeries * DiscSeries`
and each step of the geometric inverse -- is one call of the bucket
kernel `_sum_of_products`, which sums a batch of products in flat
(u -> L -> coefficient) buckets without building intermediate
polynomials.  Binary powering is `_power`, for polynomials and series
alike.

`KroneckerLayout` packs a u-polynomial into one Python int (Kronecker
substitution, one fixed-width signed slot per (u, L) exponent), so that
the Euler product's sparse recurrences run as big-int shifts and adds.

All values are immutable after construction; arithmetic returns fresh
objects and keeps a canonical sparse form (no stored zero coefficients,
iteration sorted by exponent).
"""
from __future__ import annotations

from fractions import Fraction


def _accumulate(out, items):
    """Add (key, value) pairs into the sparse dict `out`, dropping any key
    whose sum is zero; returns `out`."""
    for key, value in items:
        v = out.get(key)
        v = value if v is None else v + value
        if v:
            out[key] = v
        elif key in out:
            del out[key]
    return out


def _power(base, n, one):
    """base**n by binary powering, starting from the ring's `one`."""
    if not isinstance(n, int) or n < 0:
        raise ValueError("exponent must be a non-negative integer")
    result = one
    while n:
        if n & 1:
            result = result * base
        base = base * base
        n >>= 1
    return result


class _SparsePoly:
    """Sparse polynomial as a dict exponent -> nonzero coefficient.

    Subclasses name the scalar types that coerce to constants in
    `_SCALARS` and may validate or convert each term in `_check_term`.
    """

    __slots__ = ("terms",)
    _SCALARS = (int, Fraction)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for e, c in terms.items():
                c = self._check_term(e, c)
                if c:
                    clean[int(e)] = c
        self.terms = clean

    def _check_term(self, exp, coef):
        return coef

    @classmethod
    def _make(cls, terms):
        # internal: terms already canonical
        obj = object.__new__(cls)
        obj.terms = terms
        return obj

    @classmethod
    def monomial(cls, exp, coef=1):
        return cls({exp: coef})

    @classmethod
    def zero(cls):
        return cls._make({})

    @classmethod
    def one(cls):
        return cls({0: 1})

    @classmethod
    def coerce(cls, value):
        if isinstance(value, cls):
            return value
        if isinstance(value, cls._SCALARS):
            return cls({0: value})
        raise TypeError(f"cannot coerce {type(value).__name__} to {cls.__name__}")

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, self._SCALARS):
            other = self.coerce(other)
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.terms == other.terms

    def __add__(self, other):
        other = self.coerce(other)
        return self._make(_accumulate(dict(self.terms), other.terms.items()))

    __radd__ = __add__

    def __neg__(self):
        return self._make({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self.coerce(other))

    def __rsub__(self, other):
        return self.coerce(other) + (-self)

    def __pow__(self, n):
        return _power(self, n, self.one())

    def constant(self):
        """The value of a constant polynomial (through every layer);
        raises otherwise."""
        if not self.terms:
            return 0
        if set(self.terms) != {0}:
            raise ValueError(f"not a constant: {self}")
        c = self.terms[0]
        return c.constant() if isinstance(c, _SparsePoly) else c

    def sorted_terms(self):
        return sorted(self.terms.items())

    def __repr__(self):
        return f"{type(self).__name__}({self})"


class LefschetzPoly(_SparsePoly):
    """Sparse Laurent polynomial in the Lefschetz class L.

    Exponents may be negative (the ring is localized at L).  Coefficients
    are integers in normal use; rational coefficients only appear after
    `DiscSeries.specialize` with a rational value of L.
    """

    __slots__ = ()

    def __mul__(self, other):
        if isinstance(other, self._SCALARS):
            if not other:
                return LefschetzPoly._make({})
            return LefschetzPoly._make({e: c * other for e, c in self.terms.items()})
        if not isinstance(other, LefschetzPoly):
            return NotImplemented
        return LefschetzPoly._make(_accumulate({}, (
            (e1 + e2, c1 * c2)
            for e1, c1 in self.terms.items() for e2, c2 in other.terms.items())))

    __rmul__ = __mul__

    def evaluate(self, value):
        """Substitute a rational number for L.  Raises on 0 with poles."""
        value = Fraction(value)
        if value == 0 and any(e < 0 for e in self.terms):
            raise ZeroDivisionError("cannot evaluate at L=0: negative exponents present")
        total = Fraction(0)
        for e, c in self.terms.items():
            total += c * value ** e
        return total

    def to_json(self):
        return {"terms": [{"exp": e, "coef": str(c)} for e, c in self.sorted_terms()]}

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.sorted_terms():
            if e == 0:
                mono = str(c)
            else:
                var = "L" if e == 1 else f"L^{e}"
                if c == 1:
                    mono = var
                elif c == -1:
                    mono = f"-{var}"
                else:
                    mono = f"{c}*{var}"
            parts.append(mono)
        text = " + ".join(parts)
        return text.replace("+ -", "- ")


#: The Lefschetz class itself, as a polynomial.
L = LefschetzPoly.monomial(1)


def motive_sym_p1(n):
    """Class of the N-th symmetric power of the projective line: 1+L+...+L^N."""
    if n < 0:
        raise ValueError("symmetric power index must be non-negative")
    return LefschetzPoly._make({e: 1 for e in range(n + 1)})


def motive_pgl2():
    """Class of PGL_2, i.e. L*(L^2-1) = L^3 - L."""
    return LefschetzPoly({3: 1, 1: -1})


class LatticePoly(_SparsePoly):
    """Polynomial in the lattice-rank variable u with LefschetzPoly coefficients.

    u-exponents are non-negative: the trivial-lattice grading never drops
    below the baseline.
    """

    __slots__ = ()
    _SCALARS = (int, Fraction, LefschetzPoly)

    def _check_term(self, exp, coef):
        if exp < 0:
            raise ValueError("u-exponents must be non-negative")
        return LefschetzPoly.coerce(coef)

    def __mul__(self, other):
        if isinstance(other, self._SCALARS):
            other = LatticePoly.coerce(other)
        if not isinstance(other, LatticePoly):
            return NotImplemented
        return _sum_of_products(((self, other),))

    __rmul__ = __mul__

    def substitute(self, u_val=None, L_val=None):
        """Substitute rational values for u and/or L; stays a LatticePoly.

        A substituted variable collapses to exponent zero with rational
        coefficients.  L_val=0 raises if any negative L-exponent occurs.
        """
        result = self
        if L_val is not None:
            result = LatticePoly._make({
                e: lef for e, c in result.terms.items()
                if (lef := LefschetzPoly.coerce(c.evaluate(L_val)))
            })
        if u_val is not None:
            u_val = Fraction(u_val)
            acc = LefschetzPoly.zero()
            for e, c in result.terms.items():
                acc = acc + c * u_val ** e
            result = LatticePoly.coerce(acc)
        return result

    def to_json(self):
        out = []
        for u_exp, c in self.sorted_terms():
            for l_exp, v in c.sorted_terms():
                out.append({"u": u_exp, "L": l_exp, "c": str(v)})
        return {"terms": out}

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.sorted_terms():
            cs = str(c)
            if len(c.terms) > 1:
                cs = f"({cs})"
            if e == 0:
                parts.append(cs)
            else:
                var = "u" if e == 1 else f"u^{e}"
                parts.append(var if cs == "1" else f"{cs}*{var}")
        return " + ".join(parts)


def _sum_of_products(pairs):
    """The LatticePoly sum of a * b over the (a, b) LatticePoly pairs.

    The one product kernel of the ring tower: all products are accumulated
    in flat (u-exp -> L-exp -> coef) buckets, so no intermediate polynomial
    is built, and zeros are dropped once at the end.
    """
    buckets = {}
    for a, b in pairs:
        for e1, c1 in a.terms.items():
            for e2, c2 in b.terms.items():
                bucket = buckets.setdefault(e1 + e2, {})
                for l1, v1 in c1.terms.items():
                    for l2, v2 in c2.terms.items():
                        l = l1 + l2
                        bucket[l] = bucket.get(l, 0) + v1 * v2
    out = {}
    for e, bucket in buckets.items():
        lef = {l: v for l, v in bucket.items() if v}
        if lef:
            out[e] = LefschetzPoly._make(lef)
    return LatticePoly._make(out)


class DiscSeries:
    """Power series in the discriminant variable s, truncated at a fixed order.

    Coefficients are LatticePoly values indexed by s-degree 0..order.
    Combining series of different orders truncates to the minimum order.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order, coeffs=None):
        if order < 0:
            raise ValueError("truncation order must be non-negative")
        self.order = order
        if coeffs is None:
            self.coeffs = (LatticePoly.zero(),) * (order + 1)
        else:
            coeffs = [LatticePoly.coerce(c) for c in coeffs[: order + 1]]
            coeffs += [LatticePoly.zero()] * (order + 1 - len(coeffs))
            self.coeffs = tuple(coeffs)

    @classmethod
    def _make(cls, order, coeffs):
        obj = object.__new__(cls)
        obj.order = order
        obj.coeffs = coeffs
        return obj

    @classmethod
    def zero(cls, order):
        return cls(order)

    @classmethod
    def one(cls, order):
        return cls.monomial(order, 0, 1)

    @classmethod
    def monomial(cls, order, s_exp, coef=1):
        """The single term coef * s^s_exp (zero series if s_exp > order)."""
        if s_exp < 0:
            raise ValueError("s-exponents must be non-negative")
        coeffs = [LatticePoly.zero()] * (order + 1)
        if s_exp <= order:
            coeffs[s_exp] = LatticePoly.coerce(coef)
        return cls._make(order, tuple(coeffs))

    def coerce_like(self, value):
        if isinstance(value, DiscSeries):
            return value
        return DiscSeries.monomial(self.order, 0, value)

    def is_zero(self):
        return not any(self.coeffs)

    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, LefschetzPoly, LatticePoly)):
            other = self.coerce_like(other)
        if not isinstance(other, DiscSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def truncate(self, order):
        if order >= self.order:
            return self
        return DiscSeries._make(order, self.coeffs[: order + 1])

    def padded(self, order):
        """Zero-pad up to a higher order.

        Only sound when the caller knows the dropped degrees cannot influence
        the truncated result (e.g. before multiplying by a series of known
        positive valuation).
        """
        if order <= self.order:
            return self.truncate(order)
        pad = (LatticePoly.zero(),) * (order - self.order)
        return DiscSeries._make(order, self.coeffs + pad)

    def valuation(self):
        """Smallest s-degree with a nonzero coefficient; None for zero."""
        for n, c in enumerate(self.coeffs):
            if c:
                return n
        return None

    def __add__(self, other):
        other = self.coerce_like(other)
        order = min(self.order, other.order)
        coeffs = tuple(a + b for a, b in zip(self.coeffs, other.coeffs))[: order + 1]
        return DiscSeries._make(order, coeffs)

    __radd__ = __add__

    def __neg__(self):
        return DiscSeries._make(self.order, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return self + (-self.coerce_like(other))

    def __rsub__(self, other):
        return self.coerce_like(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, LefschetzPoly, LatticePoly)):
            scalar = LatticePoly.coerce(other)
            return DiscSeries._make(self.order, tuple(c * scalar for c in self.coeffs))
        if not isinstance(other, DiscSeries):
            return NotImplemented
        order = min(self.order, other.order)
        a, b = self.coeffs, other.coeffs
        return DiscSeries._make(order, tuple(
            _sum_of_products((a[i], b[n - i]) for i in range(n + 1)
                             if a[i] and b[n - i])
            for n in range(order + 1)))

    __rmul__ = __mul__

    def __pow__(self, n):
        return _power(self, n, DiscSeries.one(self.order))

    def specialize(self, u_val=None, L_val=None):
        """Substitute rational values for u and/or L coefficient-wise."""
        return DiscSeries._make(
            self.order,
            tuple(c.substitute(u_val=u_val, L_val=L_val) for c in self.coeffs),
        )

    def constant_values(self):
        """Per-degree rational values of a fully specialized series."""
        return [c.constant() for c in self.coeffs]

    def __str__(self):
        parts = []
        for n, c in enumerate(self.coeffs):
            if not c:
                continue
            cs = str(c)
            if len(c.terms) > 1 or " " in cs:
                cs = f"({cs})"
            if n == 0:
                parts.append(cs)
            else:
                var = "s" if n == 1 else f"s^{n}"
                parts.append(var if cs == "1" else f"{cs}*{var}")
        body = " + ".join(parts) if parts else "0"
        return f"{body} + O(s^{self.order + 1})"

    def __repr__(self):
        return f"DiscSeries({self})"


def series_one_minus_inverse(y: DiscSeries) -> DiscSeries:
    """Geometric inverse 1/(1-Y) = sum_m Y^m, truncated at y.order.

    Requires Y to have positive s-valuation, so 1-Y is a unit in the
    truncated ring; satisfies (1-Y) * result == 1 mod s^(order+1).
    """
    if y.coeffs[0]:
        raise ValueError("1 - Y is not invertible: Y has a nonzero constant term")
    inv = [LatticePoly.one()]
    yk = y.coeffs
    for n in range(1, y.order + 1):
        inv.append(_sum_of_products((yk[k], inv[n - k]) for k in range(1, n + 1)
                                    if yk[k] and inv[n - k]))
    return DiscSeries._make(y.order, tuple(inv))


#: Largest packed product that `KroneckerLayout.fit` accepts, counted as
#: order + 1 coefficients of rows x slots slots of at least one byte each
#: (a slot is `width` bytes).  Order 96 on the full catalog needs 15.7 M.
MAX_PACKED_BYTES = 1 << 24


class LayoutTooLarge(ValueError):
    """The packed product of a requested order exceeds MAX_PACKED_BYTES."""


def _shifted(value, shift):
    return value << shift if shift >= 0 else value >> -shift


def _apply_sparse_factor(f, numerator, denominator):
    """f <- f * (1 + N) / (1 - D) in place, on a list of ints indexed by
    s-degree; N and D are tuples of (s_exp >= 1, multiplier, shift) terms.

    Multiplying by 1 + N runs with descending n, so every read of f[n - d]
    sees the old value; dividing by 1 - D is the ascending recurrence
    f[n] += D-terms * f[n - d], which reads the new ones.
    """
    order = len(f) - 1
    for n in range(order, 0, -1):
        for d, m, shift in numerator:
            if d <= n and f[n - d]:
                f[n] = _add_multiple(f[n], m, _shifted(f[n - d], shift))
    for n in range(1, order + 1):
        for d, m, shift in denominator:
            if d <= n and f[n - d]:
                f[n] = _add_multiple(f[n], m, _shifted(f[n - d], shift))


def _add_multiple(x, m, y):
    # a unit multiplier costs no big-int product
    if m == 1:
        return x + y
    if m == -1:
        return x - y
    return x + m * y


class KroneckerLayout:
    """Kronecker substitution of Z[u, L^+-1] into one Python int per
    s-coefficient.

    The term c*u^i*L^j sits in slot i*slots + (j - l_offset), `width` bytes
    per slot, as the signed digit c: the packed value is the exact integer
    sum c * 2^(8*width*slot).  Sums of packed values are sums of
    polynomials and a shift by `shift(a, e)` bits multiplies by u^a*L^e,
    so a sparse Euler factor costs a few big-int shifts and adds per
    s-degree.  The layout is exact when every term of every intermediate
    lies inside rows x slots and every final |c| < 2^(8*width - 1);
    `fit` sizes it so.
    """

    __slots__ = ("rows", "slots", "l_offset", "width")

    def __init__(self, rows, slots, l_offset, width):
        self.rows = rows
        self.slots = slots
        self.l_offset = l_offset
        self.width = width

    @classmethod
    def fit(cls, prefactor, factors, order):
        """The layout for prefactor * prod (1 + N) / (1 - D) truncated at
        s^order, each factor a pair (N, D) of tuples of (s_exp, u_exp,
        LefschetzPoly) terms.

        Rows and slots are closed-form degree bounds: every monomial of the
        product is a prefactor term times factor terms of total s-degree
        <= order, so an exponent moves by at most order times its largest
        ratio to s_exp.  Raises LayoutTooLarge when (order + 1) x rows x
        slots exceeds MAX_PACKED_BYTES, before any coefficient work.  The
        width bounds every coefficient by the same recurrence run on
        absolute coefficient sums at u = L = 1, plus a sign bit.
        """
        if order < 0:
            raise ValueError("truncation order must be non-negative")
        terms = [t for factor in factors for part in factor for t in part]
        if any(d < 1 for d, _, _ in terms):
            raise ValueError("sparse factor terms need a positive s-exponent")
        lefs = prefactor.terms.values()
        u_hi = max(prefactor.terms, default=0) + max(
            (order * a // d for d, a, _ in terms), default=0)
        l_steps = [order * e // d for d, _, c in terms for e in c.terms]
        l_lo = min((min(lef.terms) for lef in lefs), default=0) + min(l_steps + [0])
        l_hi = max((max(lef.terms) for lef in lefs), default=0) + max(l_steps + [0])
        rows, slots = u_hi + 1, l_hi - l_lo + 1
        if (order + 1) * rows * slots > MAX_PACKED_BYTES:
            raise LayoutTooLarge(
                f"order {order} is too large: {order + 1} packed coefficients "
                f"of {rows} x {slots} slots exceed the limit of "
                f"{MAX_PACKED_BYTES} bytes")

        def norms(part):
            return tuple((d, sum(abs(v) for v in c.terms.values()), 0)
                         for d, _, c in part)

        majorant = [0] * (order + 1)
        majorant[0] = sum(abs(v) for lef in lefs for v in lef.terms.values())
        for numerator, denominator in factors:
            _apply_sparse_factor(majorant, norms(numerator), norms(denominator))
        width = (max(majorant).bit_length() + 8) // 8
        return cls(rows, slots, l_lo, width)

    def shift(self, u_exp, l_exp):
        """Bit shift that multiplies a packed value by u^u_exp * L^l_exp."""
        return 8 * self.width * (u_exp * self.slots + l_exp)

    def pack(self, poly):
        """The packed int of a LatticePoly with integer coefficients."""
        total = 0
        for i, lef in poly.terms.items():
            for j, c in lef.terms.items():
                if not isinstance(c, int):
                    raise TypeError(f"packed coefficients must be integers, got {c!r}")
                total += c << self.shift(i, j - self.l_offset)
        return total

    def apply(self, f, factor):
        """f <- f * (1 + N) / (1 - D) on packed s-coefficients."""
        _apply_sparse_factor(f, *(
            tuple((d, m, self.shift(a, e))
                  for d, a, c in part for e, m in c.terms.items())
            for part in factor))

    def unpack(self, value):
        """The LatticePoly of a packed int.

        One bias add of 2^(8*width - 1) per slot makes every digit
        non-negative; the xor with the same bias turns each slot into its
        two's-complement digit, so zero slots read as zero bytes.
        """
        width, slots = self.width, self.slots
        row_bytes = width * slots
        rows = min(self.rows, abs(value).bit_length() // (8 * row_bytes) + 1)
        half = (1 << (8 * width - 1)).to_bytes(width, "little")
        bias = int.from_bytes(half * (rows * slots), "little")
        data = ((value + bias) ^ bias).to_bytes(rows * row_bytes, "little")
        zero_row = bytes(row_bytes)
        from_bytes, l_offset = int.from_bytes, self.l_offset
        out = {}
        for i in range(rows):
            row = data[i * row_bytes:(i + 1) * row_bytes]
            if row == zero_row:
                continue
            lo = (row_bytes - len(row.lstrip(b"\0"))) // width
            hi = -(-len(row.rstrip(b"\0")) // width)
            lef = {}
            for k in range(lo, hi):
                c = from_bytes(row[k * width:(k + 1) * width], "little", signed=True)
                if c:
                    lef[k + l_offset] = c
            out[i] = LefschetzPoly._make(lef)
        return LatticePoly._make(out)


class MarkVariablePoly:
    """Polynomial in formal marking variables with DiscSeries coefficients.

    Each label carries a weight: the minimal s-valuation of the series that
    will eventually be substituted for that variable.  Terms whose weighted
    variable degree exceeds the order are dropped, and each coefficient is
    truncated to the remaining s-budget; this keeps products finite without
    losing any degree <= order after substitution.
    """

    __slots__ = ("labels", "weights", "order", "terms")

    def __init__(self, labels, weights, order, terms=None):
        self.labels = tuple(labels)
        self.weights = tuple(weights)
        if len(self.labels) != len(self.weights):
            raise ValueError("labels and weights must have equal length")
        self.order = order
        clean = {}
        if terms:
            for exps, coef in terms.items():
                exps = tuple(exps)
                if len(exps) != len(self.labels) or any(e < 0 for e in exps):
                    raise ValueError(f"bad exponent vector {exps}")
                budget = order - self._weighted_degree(exps)
                if budget < 0:
                    continue
                coef = coef.truncate(budget)
                if coef:
                    clean[exps] = coef
        self.terms = clean

    def _weighted_degree(self, exps):
        return sum(e * w for e, w in zip(exps, self.weights))

    @classmethod
    def _make(cls, labels, weights, order, terms):
        obj = object.__new__(cls)
        obj.labels = labels
        obj.weights = weights
        obj.order = order
        obj.terms = terms
        return obj

    @classmethod
    def one(cls, labels, weights, order):
        return cls.monomial(labels, weights, order, (0,) * len(tuple(labels)),
                            DiscSeries.one(order))

    @classmethod
    def monomial(cls, labels, weights, order, exps, coef):
        return cls(labels, weights, order, {tuple(exps): coef})

    def _check_compatible(self, other):
        if (self.labels, self.weights, self.order) != (other.labels, other.weights, other.order):
            raise ValueError("incompatible marking polynomials")

    def __eq__(self, other):
        if not isinstance(other, MarkVariablePoly):
            return NotImplemented
        return (self.labels, self.weights, self.order) == \
            (other.labels, other.weights, other.order) and self.terms == other.terms

    def __add__(self, other):
        self._check_compatible(other)
        out = _accumulate(dict(self.terms), other.terms.items())
        return MarkVariablePoly._make(self.labels, self.weights, self.order, out)

    def __mul__(self, other):
        self._check_compatible(other)

        def products():
            for e1, c1 in self.terms.items():
                for e2, c2 in other.terms.items():
                    exps = tuple(a + b for a, b in zip(e1, e2))
                    budget = self.order - self._weighted_degree(exps)
                    if budget >= 0:
                        yield exps, (c1.truncate(budget) * c2.truncate(budget)).truncate(budget)

        out = _accumulate({}, products())
        return MarkVariablePoly._make(self.labels, self.weights, self.order, out)

    def substitute(self, assignments) -> DiscSeries:
        """Replace each variable by a series and collapse to a DiscSeries.

        Each assigned series must have s-valuation at least the variable's
        declared weight; otherwise the internal truncation was unsound and
        this raises.
        """
        subs = []
        for label, weight in zip(self.labels, self.weights):
            series = assignments[label].padded(self.order)
            val = series.valuation()
            if val is not None and val < weight:
                raise ValueError(
                    f"substitution for {label} has valuation {val} < weight {weight}")
            subs.append(series)
        total = DiscSeries.zero(self.order)
        for exps, coef in sorted(self.terms.items()):
            term = coef.padded(self.order)
            for series, e in zip(subs, exps):
                if e:
                    term = term * series ** e
            total = total + term
        return total

    def coefficient(self, exps) -> DiscSeries:
        exps = tuple(exps)
        budget = self.order - self._weighted_degree(exps)
        return self.terms.get(exps, DiscSeries.zero(max(budget, 0)))

    def __repr__(self):
        return f"MarkVariablePoly({len(self.terms)} terms over {self.labels})"
