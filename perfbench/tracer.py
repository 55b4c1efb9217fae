"""In-process traced run of the heightzeta CLI.

Spans are recorded from the benchmark side: each public entry point listed
in ENTRY_POINTS is wrapped in every heightzeta namespace that holds it, and
`cli.json` is replaced by a proxy whose `dumps` is wrapped.  Nothing under
src/ changes.  A name that a refactor removed is reported with zero calls.

Spans (name, start, end, parent, job) stay in memory and are written out
when the run ends.  Self time is a span's duration minus its child spans.
Counting work (term products, coefficient sizes) runs in "trace.count"
spans, so it is charged to tracing and not to any layer's self time.
"""
from __future__ import annotations

import contextlib
import functools
import io
import signal
import sys
import time
from collections import Counter

# (span name, home module, attribute); "Class.method" patches the class.
ENTRY_POINTS = (
    ("cli.main", "cli", "main"),
    ("cli.parse_prefactor", "cli", "parse_prefactor"),
    ("zeta.z_triv", "zeta", "z_triv"),
    ("zeta.build_factor", "zeta", "build_factor"),
    ("zeta.euler_factor", "zeta", "euler_factor"),
    ("algebra.series_mul", "algebra", "DiscSeries.__mul__"),
    ("algebra.inverse", "algebra", "series_one_minus_inverse"),
    ("algebra.specialize", "algebra", "DiscSeries.specialize"),
    ("oracle.census", "oracle", "configuration_census"),
    ("kodaira.enumerate", "kodaira", "enumerate_configurations"),
)
SERIALIZE = "cli.serialize"
_ABSENT = object()   # marks a patched attribute that was inherited, not set

# Per-layer metric -> unit; BENCHMARK.json lists the same names.
LAYER_METRICS = {
    "algebra.series_mul.calls": "count",
    "algebra.series_mul_s": "s",
    "algebra.series_mul.term_products": "count",
    "algebra.series_mul.pair_hit_ratio": "ratio",
    "algebra.inverse.calls": "count",
    "algebra.inverse_s": "s",
    "algebra.specialize_s": "s",
    "zeta.z_triv_s": "s",
    "zeta.euler_factor_s": "s",
    "zeta.build_factor_s": "s",
    "zeta.result_terms": "count",
    "zeta.max_coef_bits": "bits",
    "oracle.census.self_s": "s",
    "kodaira.enumerate_s": "s",
    "kodaira.enumerate.configs": "count",
    "cli.main_s": "s",
    "cli.self_s": "s",
    "cli.parse_prefactor_s": "s",
    "cli.serialize_s": "s",
    "cli.out_bytes": "bytes",
    "trace_overhead_ratio": "ratio",
}


def _coef_terms(c):
    """Number of (u, L) terms of one series coefficient, or of a scalar."""
    if isinstance(c, int):
        return 1 if c else 0
    terms = c.terms
    if terms and not hasattr(next(iter(terms.values())), "terms"):
        return len(terms)   # an L-polynomial
    return sum(len(lef.terms) for lef in terms.values())


def _count_series_mul(counters, args, result):
    a, b = args[0], args[1]
    ta = [_coef_terms(c) for c in a.coeffs]
    if not hasattr(b, "coeffs"):   # series times scalar
        counters["algebra.series_mul.term_products"] += sum(ta) * _coef_terms(b)
        return
    tb = [_coef_terms(c) for c in b.coeffs]
    order = min(len(ta), len(tb)) - 1
    nz_b = [(j, t) for j, t in enumerate(tb) if t]
    products = hits = 0
    for i, t in enumerate(ta[: order + 1]):
        if t:
            for j, s in nz_b:
                if i + j > order:
                    break
                products += t * s
                hits += 1
    counters["algebra.series_mul.term_products"] += products
    counters["series_mul.pairs_hit"] += hits
    counters["series_mul.pairs_visited"] += (order + 1) * (order + 2) // 2


def _count_z_triv(counters, args, result):
    terms, bits = 0, 0
    for c in result.series.coeffs:
        for lef in c.terms.values():
            terms += len(lef.terms)
            for v in lef.terms.values():
                bits = max(bits, abs(v).bit_length())
    counters["zeta.result_terms"] += terms
    counters["zeta.max_coef_bits"] = max(counters["zeta.max_coef_bits"], bits)


COUNTS = {
    "algebra.series_mul": _count_series_mul,
    "zeta.z_triv": _count_z_triv,
    "kodaira.enumerate": lambda counters, args, result: counters.update(
        {"kodaira.enumerate.configs": len(result)}),
    SERIALIZE: lambda counters, args, result: counters.update(
        {"cli.out_bytes": len(result)}),
}


class _JsonProxy:
    """Stands in for the `json` module inside heightzeta.cli."""

    def __init__(self, real, dumps):
        self._real = real
        self.dumps = dumps

    def __getattr__(self, name):
        return getattr(self._real, name)


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index, job id]
        self.counters = Counter()
        self.missing = set()     # entry points not found in this tree
        self.uncounted = set()   # counters whose data shape was not understood
        self.job = None
        self._stack = []

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.job])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index):
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _count(self, name, args, result):
        index = self._open("trace.count")
        try:
            COUNTS[name](self.counters, args, result)
        except (AttributeError, TypeError):
            self.uncounted.add(name)
        finally:
            self._close(index)

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if name in COUNTS:
                self._count(name, args, result)
            return result
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Patch every namespace that holds an entry point; undo on exit."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "heightzeta" or n.startswith("heightzeta.")]
        patches = []
        for name, home, attr in ENTRY_POINTS:
            owner = sys.modules.get(f"heightzeta.{home}")
            cls_name, _, attr = attr.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name, None)
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.add(name)
                continue
            wrapper = self.wrap(name, original)
            holders = [owner] if cls_name else modules
            targets = [(h, a) for h in holders for a, v in vars(h).items()
                       if v is original] or [(owner, attr)]
            for holder, a in targets:
                patches.append((holder, a, vars(holder).get(a, _ABSENT)))
                setattr(holder, a, wrapper)
        cli = sys.modules.get("heightzeta.cli")
        real_json = getattr(cli, "json", None)
        if real_json is None:
            self.missing.add(SERIALIZE)
        else:
            patches.append((cli, "json", real_json))
            cli.json = _JsonProxy(real_json, self.wrap(SERIALIZE, real_json.dumps))
        try:
            yield
        finally:
            for holder, a, original in reversed(patches):
                if original is _ABSENT:
                    delattr(holder, a)
                else:
                    setattr(holder, a, original)

    def totals(self):
        """name -> (inclusive seconds, self seconds, calls), summed over spans."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            incl, self_s, calls = out.get(name, (0.0, 0.0, 0))
            out[name] = (incl + end - start, self_s + end - start - child_time[i], calls + 1)
        return out

    def layer_metrics(self, jobs, overhead_ratio):
        """Per-layer metrics as means over `jobs`, the traced jobs that
        completed (ratios and maxima as they are)."""
        totals = self.totals()
        per_job = 1.0 / max(jobs, 1)

        def incl(name):
            return totals.get(name, (0.0, 0.0, 0))[0] * per_job

        def self_s(name):
            return totals.get(name, (0.0, 0.0, 0))[1] * per_job

        def calls(name):
            return totals.get(name, (0.0, 0.0, 0))[2] * per_job

        visited = self.counters["series_mul.pairs_visited"]
        values = {
            "algebra.series_mul.calls": calls("algebra.series_mul"),
            "algebra.series_mul_s": incl("algebra.series_mul"),
            "algebra.series_mul.term_products":
                self.counters["algebra.series_mul.term_products"] * per_job,
            "algebra.series_mul.pair_hit_ratio":
                self.counters["series_mul.pairs_hit"] / visited if visited else 0.0,
            "algebra.inverse.calls": calls("algebra.inverse"),
            "algebra.inverse_s": incl("algebra.inverse"),
            "algebra.specialize_s": incl("algebra.specialize"),
            "zeta.z_triv_s": incl("zeta.z_triv"),
            "zeta.euler_factor_s": incl("zeta.euler_factor"),
            "zeta.build_factor_s": incl("zeta.build_factor"),
            "zeta.result_terms": self.counters["zeta.result_terms"] * per_job,
            "zeta.max_coef_bits": self.counters["zeta.max_coef_bits"],
            "oracle.census.self_s": self_s("oracle.census"),
            "kodaira.enumerate_s": incl("kodaira.enumerate"),
            "kodaira.enumerate.configs":
                self.counters["kodaira.enumerate.configs"] * per_job,
            "cli.main_s": incl("cli.main"),
            "cli.self_s": self_s("cli.main"),
            "cli.parse_prefactor_s": incl("cli.parse_prefactor"),
            "cli.serialize_s": incl(SERIALIZE),
            "cli.out_bytes": self.counters["cli.out_bytes"] * per_job,
            "trace_overhead_ratio": overhead_ratio,
        }
        return {k: {"value": values[k], "unit": u} for k, u in LAYER_METRICS.items()}

    def span_records(self):
        return [{"name": n, "start": s, "end": e, "parent": p, "job": j}
                for n, s, e, p, j in self.spans]


class JobTimeout(Exception):
    pass


@contextlib.contextmanager
def time_limit(seconds):
    """Raise JobTimeout in the main thread after `seconds` of wall time."""
    def expire(signum, frame):
        raise JobTimeout(f"no result after {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def run_in_process(cli, argv, timeout):
    """Run `cli.main(argv)` with captured output: (code, stdout, stderr, wall)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with time_limit(timeout), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    except JobTimeout as exc:
        code, err = None, io.StringIO(str(exc))
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - start
