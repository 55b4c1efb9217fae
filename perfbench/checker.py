"""Independent checker for heightzeta CLI outputs.

Shares no code with heightzeta: the catalog rows are transcribed from the
paper's tables below, the prefactor grammar has its own parser, and the
Euler product is evaluated as a scalar power series by sparse recurrences,
modulo a large prime for `compute` (at one seeded point (u, L), in the
manner of Schwartz-Zippel) and exactly over Fraction for `specialize`.  The
census is checked against the generating function
prod 1/(1 - u^(m-1) s^v) over catalog types and cusp contact orders.

Each check returns None when the output is right, or a one-line reason.
"""
from __future__ import annotations

import json
import random
import re
from fractions import Fraction

PRIME = (1 << 61) - 1

# name -> rows (motive as {L-exponent: coefficient}, m-1, v(Delta), cusp).
# For a cusp family, m-1 and v are offsets: at contact order k >= 1 the row
# contributes u^(m-1+k) s^(v+k).
CATALOGS = {
    "full": (
        ({16: 1}, -1, 0, True),             # I_k
        ({15: 1}, 0, 2, False),             # II
        ({14: 1}, 1, 3, False),             # III
        ({13: 1}, 2, 4, False),             # IV
        ({12: 1, 11: -1}, 4, 6, True),      # I*_k
        ({12: 1, 11: -1}, 4, 6, False),     # I0*, generic j
        ({11: 1}, 4, 6, False),             # I0*, j in {0, 1728}
        ({10: 1}, 6, 8, False),             # IV*
        ({9: 1}, 7, 9, False),              # III*
        ({8: 1}, 8, 10, False),             # II*
    ),
    "gamma1_2": (
        ({8: 1}, -1, 0, True),
        ({7: 1}, 1, 3, False),
        ({6: 1, 5: -1}, 4, 6, True),
        ({6: 1, 5: -1}, 4, 6, False),
        ({5: 1}, 4, 6, False),
        ({4: 1}, 7, 9, False),
    ),
    "gamma1_3": (
        ({4: 1}, -1, 0, True),
        ({3: 1}, 2, 4, False),
        ({2: 1}, 6, 8, False),
    ),
    "gamma1_4": (
        ({2: 1}, -1, 0, True),
        ({1: 1}, 4, 6, False),
    ),
}

DEFAULT_PREFACTOR = {"full": "u^2*L"}   # other catalogs: u^2


class Field:
    """Scalar arithmetic for the recurrences: integers mod PRIME, or exact
    rationals when `prime` is None."""

    def __init__(self, prime=PRIME):
        self.prime = prime

    def reduce(self, x):
        return x % self.prime if self.prime else x

    def power(self, x, e):
        if self.prime:
            return pow(x, e, self.prime)   # e < 0 uses the inverse mod p
        return Fraction(x) ** e


# --- prefactor grammar ----------------------------------------------------

_TERM = re.compile(r"([+-]?)(?:(\d+)|L(?:\^(-?\d+))?)")


def _split_factors(text):
    """Split on '*' outside parentheses."""
    factors, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        depth += {"(": 1, ")": -1}.get(ch, 0)
        if ch == "*" and depth == 0:
            factors.append(text[start:i])
            start = i + 1
    factors.append(text[start:])
    return [f.strip() for f in factors]


def _eval_l_poly(body, L, field):
    body = body.replace(" ", "")
    total, pos = 0, 0
    while pos < len(body):
        m = _TERM.match(body, pos)
        if m is None or m.end() == pos:
            raise ValueError(f"bad L-polynomial {body!r}")
        sign = -1 if m.group(1) == "-" else 1
        if m.group(2) is not None:
            value = int(m.group(2))
        else:
            value = field.power(L, int(m.group(3)) if m.group(3) else 1)
        total = field.reduce(total + sign * value)
        pos = m.end()
    return total


def eval_prefactor(text, u, L, field):
    """Value of a prefactor expression from the README grammar at (u, L)."""
    value = 1
    for factor in _split_factors(text):
        if factor == "u":
            term = u
        elif factor.startswith("u^"):
            term = field.power(u, int(factor[2:]))
        elif factor.startswith("(") and factor.endswith(")"):
            term = _eval_l_poly(factor[1:-1], L, field)
        else:
            term = _eval_l_poly(factor, L, field)
        value = field.reduce(value * term)
    return value


# --- Euler product as a scalar series -------------------------------------

def euler_product(catalog, order, prefactor, u, L, field):
    """Coefficients s^0..s^order of prefactor * prod 1/((1-Y)(1-L*Y)) at
    scalar (u, L).  A non-cusp Y = a s^v divides by (1 - a s^v) in place;
    a cusp Y = a s^v/(1 - u s) gives (1 - u s)/(1 - u s - a s^v)."""
    f = [0] * (order + 1)
    f[0] = field.reduce(prefactor)
    for motive, u_exp, v, cusp in CATALOGS[catalog]:
        a = sum(c * field.power(L, e) for e, c in motive.items())
        for scale in (1, L):
            if not cusp:
                y = field.reduce(a * scale * field.power(u, u_exp))
                for n in range(v, order + 1):
                    f[n] = field.reduce(f[n] + y * f[n - v])
                continue
            y = field.reduce(a * scale * field.power(u, u_exp + 1))
            step = v + 1
            g = [0] * (order + 1)
            for n in range(order + 1):
                acc = f[n]
                if n >= 1:
                    acc += u * (g[n - 1] - f[n - 1])
                if n >= step:
                    acc += y * g[n - step]
                g[n] = field.reduce(acc)
            f = g
    return f


def _eval_terms(terms, u_pow, l_pow, prime):
    total = 0
    for t in terms:
        total += int(t["c"]) * u_pow(t["u"]) * l_pow(t["L"])
    return total % prime


def point_for(seed, index):
    """The seeded evaluation point (u, L) in GF(p)^2 for one job."""
    rng = random.Random(f"heightzeta-check:{seed}:{index}")
    return rng.randrange(2, PRIME - 1), rng.randrange(2, PRIME - 1)


def check_compute(job, text, point):
    """Check `compute` JSON (with or without --check-oracle) at one point."""
    try:
        data = json.loads(text)
    except ValueError as exc:
        return f"output is not JSON: {exc}"
    if data.get("catalog") != job.catalog or data.get("order") != job.size:
        return "catalog or order field does not match the request"
    series = data.get("series", [])
    if [e.get("s") for e in series] != list(range(job.size + 1)):
        return "series does not list s^0..s^order"
    field = Field()
    u, L = point
    cache_u, cache_l = {}, {}

    def u_pow(e):
        if e not in cache_u:
            cache_u[e] = pow(u, e, PRIME)
        return cache_u[e]

    def l_pow(e):
        if e not in cache_l:
            cache_l[e] = pow(L, e, PRIME)
        return cache_l[e]

    prefactor_text = job.prefactor or DEFAULT_PREFACTOR.get(job.catalog, "u^2")
    pre = eval_prefactor(prefactor_text, u, L, field)
    if _eval_terms(data["prefactor"]["terms"], u_pow, l_pow, PRIME) != pre:
        return "prefactor field disagrees with the requested prefactor"
    expected = euler_product(job.catalog, job.size, pre, u, L, field)
    for n, entry in enumerate(series):
        if _eval_terms(entry["terms"], u_pow, l_pow, PRIME) != expected[n]:
            return f"coefficient of s^{n} disagrees mod p at (u, L) = {point}"
    t_series = [e["terms"] for e in data.get("t_series", [])]
    if t_series != [series[n]["terms"] for n in range(0, job.size + 1, 12)]:
        return "t_series is not the s^(12n) subsequence of series"
    residual = [n for n, e in enumerate(series) if n % 12 and e["terms"]]
    if data.get("residual_degrees") != residual:
        return "residual_degrees does not list the nonzero s^n with 12 !| n"
    return None


def check_specialize(job, text):
    """Check `specialize` JSON exactly, value by value, over Fraction."""
    try:
        data = json.loads(text)
    except ValueError as exc:
        return f"output is not JSON: {exc}"
    u, L = Fraction(job.u), Fraction(job.L)
    if (data.get("catalog"), data.get("order")) != (job.catalog, job.size):
        return "catalog or order field does not match the request"
    if (data.get("u"), data.get("L")) != (str(u), str(L)):
        return "u or L field does not match the request"
    field = Field(prime=None)
    prefactor_text = job.prefactor or DEFAULT_PREFACTOR.get(job.catalog, "u^2")
    pre = eval_prefactor(prefactor_text, u, L, field)
    expected = euler_product(job.catalog, job.size, pre, u, L, field)
    got = data.get("series", [])
    if [e.get("s") for e in got] != list(range(job.size + 1)):
        return "series does not list s^0..s^order"
    for n, entry in enumerate(got):
        if Fraction(entry["value"]) != expected[n]:
            return f"value at s^{n} is {entry['value']}, expected {expected[n]}"
    return None


def census_expected(catalog, max_degree):
    """Per degree, {T: count} from prod 1/(1 - u^(m-1) s^v), T = 2 + u-degree."""
    f = [dict() for _ in range(max_degree + 1)]
    f[0][0] = 1

    def divide(a, b):   # multiply by 1/(1 - u^a s^b), b >= 1
        for n in range(b, max_degree + 1):
            target = f[n]
            for e, c in f[n - b].items():
                target[e + a] = target.get(e + a, 0) + c

    for _, u_exp, v, cusp in CATALOGS[catalog]:
        if not cusp:
            divide(u_exp, v)
            continue
        k = 1
        while v + k <= max_degree:
            divide(u_exp + k, v + k)
            k += 1
    return [{e + 2: c for e, c in row.items()} for row in f]


def check_census(job, text):
    """Check count, t_distribution, flagged count and max contact order per
    degree against the generating function."""
    try:
        data = json.loads(text)
    except ValueError as exc:
        return f"output is not JSON: {exc}"
    if (data.get("catalog"), data.get("max_degree")) != (job.catalog, job.size):
        return "catalog or max_degree field does not match the request"
    rows = data.get("degrees", [])
    if [r.get("degree") for r in rows] != list(range(job.size + 1)):
        return "degrees does not list 0..max_degree"
    cusp_offsets = [v for _, _, v, cusp in CATALOGS[job.catalog] if cusp]
    for d, (row, dist) in enumerate(zip(rows, census_expected(job.catalog, job.size))):
        if row["count"] != sum(dist.values()):
            return f"count at degree {d} is {row['count']}, expected {sum(dist.values())}"
        if row["t_distribution"] != {str(t): c for t, c in sorted(dist.items())}:
            return f"t_distribution at degree {d} disagrees"
        flagged = (sum(c for t, c in dist.items() if t > 10 * (d // 12))
                   if d and d % 12 == 0 else 0)
        if len(row["flagged"]) != flagged:
            return f"{len(row['flagged'])} flagged at degree {d}, expected {flagged}"
        max_k = max([d - v for v in cusp_offsets if d - v >= 1], default=0)
        if row["max_contact_order"] != max_k:
            return f"max_contact_order at degree {d} disagrees"
    return None


def check(job, text, seed):
    """Dispatch on the job's workload."""
    if job.workload == "census":
        return check_census(job, text)
    if job.workload == "specialize":
        return check_specialize(job, text)
    return check_compute(job, text, point_for(seed, job.index))
