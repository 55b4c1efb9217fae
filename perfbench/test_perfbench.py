"""Self-tests of the benchmark: generator, checker and tracer.

    python3 -m pytest -q perfbench
"""
import itertools
import json
import sys

import pytest

import checker
import run
import tracer
from workloads import SHAPES, rounds

sys.path.insert(0, str(run.SRC))

from heightzeta import cli  # noqa: E402

# Small sizes so that one traced round of every workload takes seconds.
SMALL = {
    "compute": (("full", 12), ("gamma1_4", 12)),
    "specialize": (("full", 12),),
    "census": (("full", 16), ("gamma1_4", 16)),
}

# metric -> (workloads that exercise the layer, workloads that bypass it)
LAYERS = {
    "algebra.series_mul.calls": ({"compute", "specialize"}, {"census"}),
    "algebra.series_mul_s": ({"compute", "specialize"}, {"census"}),
    "algebra.series_mul.term_products": ({"compute", "specialize"}, {"census"}),
    "algebra.series_mul.pair_hit_ratio": ({"compute"}, {"census"}),
    "algebra.inverse.calls": ({"compute"}, {"census"}),
    "algebra.inverse_s": ({"compute"}, {"census"}),
    "algebra.specialize_s": ({"specialize"}, {"compute", "census"}),
    "zeta.z_triv_s": ({"compute", "specialize"}, {"census"}),
    "zeta.euler_factor_s": ({"compute", "specialize"}, {"census"}),
    "zeta.build_factor_s": ({"compute", "specialize"}, {"census"}),
    "zeta.result_terms": ({"compute"}, {"census"}),
    "zeta.max_coef_bits": ({"compute"}, {"census"}),
    "oracle.census.self_s": ({"census"}, {"compute"}),
    "kodaira.enumerate_s": ({"census"}, {"compute"}),
    "kodaira.enumerate.configs": ({"census"}, {"compute"}),
    "cli.main_s": (set(SHAPES), set()),
    "cli.self_s": (set(SHAPES), set()),
    "cli.parse_prefactor_s": ({"compute"}, {"census"}),
    "cli.serialize_s": ({"compute"}, set()),
    "cli.out_bytes": ({"compute"}, set()),
    "trace_overhead_ratio": (set(SHAPES), set()),
}


def first_rounds(workload, seed, n=5):
    return [[job.argv for job in batch]
            for batch in itertools.islice(rounds(workload, seed), n)]


@pytest.mark.parametrize("workload", SHAPES)
def test_same_seed_same_argv(workload):
    assert first_rounds(workload, 7) == first_rounds(workload, 7)
    assert first_rounds(workload, 7) != first_rounds(workload, 8)


def test_generated_prefactors_parse_and_agree_with_checker():
    jobs = [job for batch in itertools.islice(rounds("compute", 1), 400)
            for job in batch]
    assert sum("(" in job.prefactor for job in jobs) > 50
    for job in jobs:
        parsed = cli.parse_prefactor(job.prefactor)
        # the checker's own parser agrees with the program
        u, L = checker.point_for(1, job.index)
        value = sum(int(t["c"]) * pow(u, t["u"], checker.PRIME) * pow(L, t["L"], checker.PRIME)
                    for t in parsed.to_json()["terms"]) % checker.PRIME
        assert value == checker.eval_prefactor(job.prefactor, u, L, checker.Field())


@pytest.mark.parametrize("prefactor", ["u^2*(L^2+1)", "(L-L^-1)", "u*(1+L)"])
def test_parser_rejects_the_forms_the_generator_leaves_out(prefactor):
    with pytest.raises(cli.UsageError, match="bad prefactor term"):
        cli.parse_prefactor(prefactor)


def _real_output(job):
    code, out, err, _ = tracer.run_in_process(cli, job.argv, 60)
    assert code == 0, err
    assert checker.check(job, out, 3) is None
    return json.loads(out)


def _ok_job(workload):
    return next(rounds(workload, 3, SMALL[workload]))[0]


def test_checker_flags_changed_compute_coefficient():
    job = _ok_job("compute")
    data = _real_output(job)
    term = [e for e in data["series"] if e["terms"]][-1]["terms"][0]
    term["c"] = str(int(term["c"]) + 1)
    assert checker.check(job, json.dumps(data), 3) is not None


def test_checker_flags_changed_specialized_value():
    job = _ok_job("specialize")
    data = _real_output(job)
    data["series"][-1]["value"] = str(checker.Fraction(data["series"][-1]["value"]) + 1)
    assert checker.check(job, json.dumps(data), 3) is not None


def test_checker_flags_changed_census_distribution():
    job = _ok_job("census")
    data = _real_output(job)
    dist = data["degrees"][-1]["t_distribution"]
    key = next(iter(dist))
    dist[key] += 1
    data["degrees"][-1]["count"] += 1
    assert checker.check(job, json.dumps(data), 3) is not None


@pytest.fixture(scope="module")
def traced():
    out = {}
    for workload in SHAPES:
        records, metrics, spans, notes = run.traced_run(workload, 1, 0, SMALL[workload])
        assert all(r["status"] == "ok" for r in records), records
        assert notes == {"missing_entry_points": [], "uncounted": []}
        out[workload] = {k: m["value"] for k, m in metrics.items()}
    return out


def test_traced_pass_reports_every_layer_metric(traced):
    for values in traced.values():
        assert set(values) == set(tracer.LAYER_METRICS) == set(LAYERS)


@pytest.mark.parametrize("metric", LAYERS)
def test_layer_fires_where_exercised_and_reads_zero_where_bypassed(traced, metric):
    exercised, bypassed = LAYERS[metric]
    for workload in exercised:
        assert traced[workload][metric] > 0, workload
    for workload in bypassed:
        assert traced[workload][metric] == 0, workload


def test_serializer_is_negligible_where_output_is_small(traced):
    # specialize and census still call json.dumps, on a payload too small to
    # matter; compute spends a large share of its time there
    compute = traced["compute"]
    assert compute["cli.serialize_s"] > 0.05 * compute["cli.main_s"]
    for workload in ("specialize", "census"):
        values = traced[workload]
        assert values["cli.serialize_s"] < 0.05 * values["cli.main_s"]


def test_missing_entry_point_reads_zero(monkeypatch):
    monkeypatch.setattr(tracer, "ENTRY_POINTS", tracer.ENTRY_POINTS + (
        ("algebra.gone", "algebra", "DiscSeries.no_such_method"),
        ("zeta.gone", "zeta", "no_such_function"),
    ))
    t = tracer.Tracer()
    with t.installed():
        code, _, _, _ = tracer.run_in_process(
            cli, ("compute", "--catalog", "gamma1_4", "--order", "6"), 60)
    assert code == 0
    assert t.missing == {"algebra.gone", "zeta.gone"}
    assert t.totals()["algebra.series_mul"][2] > 0
    # every patch is undone on exit
    assert cli.main.__name__ == "main" and not hasattr(cli.main, "__wrapped__")
    assert cli.json.__name__ == "json"


def test_gated_times_follow_the_program_not_the_host_speed():
    def run_on(host):   # host: how many times slower than the calm host
        records = [{"status": "ok", "catalog": "full", "size": 30, "wall": host * (1 + i / 10),
                    "cpu": host * (0.9 + i / 10), "rss_mb": 50.0 + i} for i in range(5)]
        setup = [host * 0.1] * 7
        references = [(host * 0.04, host * 0.039)] * 12
        busy = sum(r["wall"] for r in records)
        return run.end_to_end(records, busy, setup, references)

    calm, slow = run_on(1.0), run_on(1.4)
    for name in run.END_TO_END:
        assert slow[name]["value"] == pytest.approx(calm[name]["value"]), name
    assert slow["job_s.p50.raw"]["value"] == pytest.approx(1.4 * calm["job_s.p50.raw"]["value"])
