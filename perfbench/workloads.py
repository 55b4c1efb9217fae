"""Seeded job generator for the heightzeta benchmark.

Each workload is a tuple of job shapes (catalog, size).  One round holds one
job per shape, in seeded order, and the generator yields rounds without end:
a run consumes a prefix of the sequence, so the same seed always gives the
same argv list and any run can be replayed from the argv it recorded.  The
program under test only ever sees the generated argv.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass

# (catalog, size): size is the truncation order, or the census max degree.
# Each shape takes about one second of CPU on a 2 GHz Xeon, so that a run of
# 32 seconds holds some thirty jobs and its medians are steady on a shared
# host (NOTES.md, "Steadiness").
SHAPES = {
    "compute": (("full", 30), ("gamma1_2", 36), ("gamma1_3", 44), ("gamma1_4", 52)),
    "specialize": (("full", 30),),
    "census": (("full", 20), ("gamma1_2", 24), ("gamma1_3", 30), ("gamma1_4", 32)),
}

@dataclass(frozen=True)
class Job:
    index: int
    workload: str
    catalog: str
    size: int
    argv: tuple          # heightzeta CLI arguments, without the interpreter
    prefactor: str | None = None
    u: str | None = None
    L: str | None = None

    def record(self):
        return {"index": self.index, "catalog": self.catalog, "size": self.size,
                "argv": list(self.argv)}


def _l_power(e):
    if e == 0:
        return "1"
    return "L" if e == 1 else f"L^{e}"


def draw_polynomial(rng):
    """A parenthesized L-polynomial with 2-3 distinct exponents in 0..4, a
    uniformly drawn leading sign and '-' between terms, e.g. '(-L^3-L-1)'.

    The current parse_prefactor splits a parenthesized body on "[+-]?[^+-]+",
    so a '+' term or the minus sign of a negative exponent becomes a bad
    term and the job exits 1.  Only the forms it accepts are drawn, so that
    no job fails by design."""
    exps = rng.sample(range(0, 5), rng.randint(2, 3))
    return "(" + rng.choice(("-", "")) + "-".join(_l_power(e) for e in exps) + ")"


def draw_prefactor(rng):
    """A '*'-product from the README grammar: a u-power, optionally an
    integer and a negative L-power, and in about one job in four a
    parenthesized L-polynomial."""
    factors = [f"u^{rng.randint(0, 3)}"]
    if rng.random() < 0.5:
        factors.append(str(rng.choice((-3, -2, 2, 3, 5, 7))))
    if rng.random() < 0.5:
        factors.append(f"L^{rng.randint(-4, -1)}")
    if rng.random() < 0.25:
        factors.append(draw_polynomial(rng))
    return "*".join(factors)


def _draw_rational(rng):
    """p/q in lowest terms with 2 <= |p|, q <= 9.  Integers and unit
    fractions make `specialize` up to 4x cheaper (little gcd work on the
    big rationals), which would tie a run's job times to its seed."""
    while True:
        p, q = rng.randint(2, 9), rng.randint(2, 9)
        if math.gcd(p, q) == 1:
            return f"{rng.choice(('-', ''))}{p}/{q}"


def _make_job(workload, rng, index, catalog, size):
    if workload == "census":
        argv = ("census", "--catalog", catalog, "--max-degree", str(size),
                "--format", "json")
        return Job(index, workload, catalog, size, argv)
    if workload == "specialize":
        u, l_val = _draw_rational(rng), _draw_rational(rng)
        # "--L=-5/2", not "--L -5/2": argparse reads a leading '-' as a flag
        argv = ("specialize", "--catalog", catalog, "--order", str(size),
                f"--u={u}", f"--L={l_val}", "--format", "json")
        return Job(index, workload, catalog, size, argv, u=u, L=l_val)
    prefactor = draw_prefactor(rng)
    argv = ("compute", "--catalog", catalog, "--order", str(size),
            f"--prefactor={prefactor}", "--format", "json")
    return Job(index, workload, catalog, size, argv, prefactor=prefactor)


def rounds(workload, seed, shapes=None):
    """Yield rounds of jobs for `workload`; `shapes` overrides SHAPES (the
    self-tests use small sizes)."""
    rng = random.Random(f"heightzeta-bench:{workload}:{seed}")
    shapes = list(shapes or SHAPES[workload])
    index = 0
    while True:
        order = rng.sample(shapes, len(shapes))
        batch = []
        for catalog, size in order:
            batch.append(_make_job(workload, rng, index, catalog, size))
            index += 1
        yield batch
