import hashlib
import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import heightzeta

from heightzeta import cli
from heightzeta.algebra import L, LatticePoly, LefschetzPoly
from heightzeta.cli import (
    EXIT_OK,
    EXIT_USAGE,
    main,
    parse_prefactor,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParsePrefactor:
    def test_default_style(self):
        assert parse_prefactor("u^2*L") == LatticePoly.monomial(2, L)

    def test_bare_u_and_integer(self):
        assert parse_prefactor("3*u") == LatticePoly.monomial(1, 3)

    def test_laurent_exponent_value(self):
        p = parse_prefactor("u^2*L^-2")
        assert p.terms[2].terms == {-2: 1}

    def test_polynomial_factor(self):
        p = parse_prefactor("u^2*(L^12-L^11)")
        assert p == LatticePoly.monomial(2, L ** 12 - L ** 11)

    def test_rejects_garbage(self):
        from heightzeta.cli import UsageError
        with pytest.raises(UsageError):
            parse_prefactor("u^2*q")


class TestCompute:
    def test_json_order_12(self, capsys):
        code, out, _ = run(capsys, "compute", "--catalog", "full",
                           "--order", "12", "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert len(payload["series"]) == 13
        assert payload["t_series"][0] == {
            "n": 0, "terms": [{"u": 2, "L": 1, "c": "1"}]}

    def test_order_zero_is_prefactor_only(self, capsys):
        code, out, _ = run(capsys, "compute", "--catalog", "gamma1_4",
                           "--order", "0", "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["series"] == [
            {"s": 0, "terms": [{"u": 2, "L": 0, "c": "1"}]}]

    def test_check_oracle_passes(self, capsys):
        code, _, _ = run(capsys, "compute", "--catalog", "gamma1_3",
                         "--order", "10", "--format", "json", "--check-oracle")
        assert code == EXIT_OK

    def test_custom_prefactor(self, capsys):
        code, out, _ = run(capsys, "compute", "--catalog", "gamma1_2",
                           "--order", "0", "--format", "json",
                           "--prefactor", "u^2*(L^12-L^11)")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["series"][0]["terms"] == [
            {"u": 2, "L": 11, "c": "-1"}, {"u": 2, "L": 12, "c": "1"}]

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "compute", "--catalog", "full",
                           "--order", "1", "--format", "csv")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "s_degree,u_exp,L_exp,coefficient"
        assert "0,2,1,1" in lines

    def test_json_roundtrip(self, capsys):
        _, out, _ = run(capsys, "compute", "--catalog", "full",
                        "--order", "6", "--format", "json")
        payload = json.loads(out)
        assert json.loads(json.dumps(payload, sort_keys=True)) == payload

    def test_deterministic_output(self, capsys):
        _, first, _ = run(capsys, "compute", "--catalog", "full",
                          "--order", "8", "--format", "json")
        _, second, _ = run(capsys, "compute", "--catalog", "full",
                           "--order", "8", "--format", "json")
        assert first == second


class TestSpecialize:
    def test_point_count_values(self, capsys):
        code, out, _ = run(capsys, "specialize", "--catalog", "full",
                           "--order", "1", "--u", "1", "--L", "2",
                           "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["series"][0]["value"] == "2"
        assert payload["series"][1]["value"] == str(2 ** 17 + 2 ** 18)

    def test_partial_substitution_keeps_L(self, capsys):
        code, out, _ = run(capsys, "specialize", "--catalog", "full",
                           "--order", "1", "--u", "1", "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["series"][1]["terms"] == [
            {"u": 0, "L": 17, "c": "1"}, {"u": 0, "L": 18, "c": "1"}]

    def test_gamma1_4_s6_positive(self, capsys):
        code, out, _ = run(capsys, "specialize", "--catalog", "gamma1_4",
                           "--order", "6", "--u", "1", "--L", "3",
                           "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert int(payload["series"][6]["value"]) > 0

    def test_L_zero_rejected(self, capsys):
        code, _, err = run(capsys, "specialize", "--catalog", "full",
                           "--order", "1", "--L", "0")
        assert code == EXIT_USAGE
        assert "L=0" in err

    @pytest.mark.parametrize("value", ["--u=abc", "--L=1/0", "--u=1/0"])
    def test_malformed_rational_is_one_line_error(self, value):
        src = os.path.dirname(os.path.dirname(heightzeta.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-m", "heightzeta.cli", "specialize", "--catalog",
             "full", "--order", "1", value],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == EXIT_USAGE
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("heightzeta: error: ")
        assert "Traceback" not in proc.stderr


class TestCensusCommand:
    def test_counts(self, capsys):
        code, out, _ = run(capsys, "census", "--catalog", "full",
                           "--max-degree", "2", "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert [row["count"] for row in payload["degrees"]] == [1, 1, 3]

    def test_flagged_at_twelve(self, capsys):
        code, out, _ = run(capsys, "census", "--catalog", "full",
                           "--max-degree", "12", "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        flagged = payload["degrees"][12]["flagged"]
        assert any(f["configuration"] == "I_12" for f in flagged)


class TestExportCatalog:
    def test_full_catalog(self, capsys):
        code, out, _ = run(capsys, "export-catalog", "--catalog", "full")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert len(payload["types"]) == 10


class TestUsageErrors:
    def test_unknown_catalog_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["compute", "--catalog", "bogus", "--order", "4"])
        assert exc.value.code == EXIT_USAGE

    def test_missing_subcommand_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == EXIT_USAGE

    def test_negative_order(self, capsys):
        code, _, err = run(capsys, "compute", "--catalog", "full",
                           "--order", "-3")
        assert code == EXIT_USAGE

    def test_env_var_default_order(self, capsys, monkeypatch):
        monkeypatch.setenv("HEIGHTZETA_ORDER", "2")
        code, out, _ = run(capsys, "compute", "--catalog", "gamma1_4",
                           "--format", "json")
        assert code == EXIT_OK
        assert json.loads(out)["order"] == 2

    def test_env_var_garbage(self, capsys, monkeypatch):
        monkeypatch.setenv("HEIGHTZETA_ORDER", "many")
        code, _, err = run(capsys, "compute", "--catalog", "gamma1_4")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("argv, env", [
        (["compute", "--catalog", "full", "--order", "100000"], {}),
        (["specialize", "--catalog", "gamma1_4", "--u=1"],
         {"HEIGHTZETA_ORDER": "100000"}),
    ])
    def test_oversized_order_fails_fast(self, argv, env):
        src = os.path.dirname(os.path.dirname(heightzeta.__file__))
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "heightzeta.cli", *argv],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": src, **env})
        assert time.perf_counter() - start < 2
        assert proc.returncode == EXIT_USAGE
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("heightzeta: error: order 100000 is too large")


# sha256 of stdout, pinned from the released output; any change to the
# ring arithmetic or the serializers that moves a byte fails here.
GOLDEN_STDOUT = [
    (("compute", "--catalog", "full", "--order", "12", "--format", "json"),
     "2dc1394b82dc4c2a2e4bdc2fa8b7e1be3617d38a5431068fd7e97870cd7b9551"),
    (("compute", "--catalog", "gamma1_2", "--order", "12", "--format", "json"),
     "7f1c1cda275e048ff0b8813c9b57d4fdb2062ba6139f28f767011aeb92b12405"),
    (("compute", "--catalog", "gamma1_3", "--order", "12", "--format", "json"),
     "f3e4e8ffabf7b045f03f274683c5f59e57615e6b2e12a17c88db567f621b42c1"),
    (("compute", "--catalog", "gamma1_4", "--order", "12", "--format", "json"),
     "aef044ecb09eb1a4e11a8cc207d762b61bf75ce3c3c2d9e6bf5924ec49c1dee2"),
    (("compute", "--catalog", "full", "--order", "12", "--format", "csv"),
     "d0e4a53f9d891bcaa14a32e724641b527a8e4b7e95df1a1eca2dbf56d0ed40fb"),
    (("compute", "--catalog", "full", "--order", "12"),
     "871dc236b0382d9c48b92cf53b38926be7ce3b449f717e843bde9cae38379894"),
    (("specialize", "--catalog", "full", "--order", "12", "--u=3/4",
      "--L=-5/7", "--format", "json"),
     "7d4c0bd0c697e6e0aa0b172f1b855e9e507dcecd1dd93ce7435a4d057942a92c"),
    (("specialize", "--catalog", "full", "--order", "12", "--L=2",
      "--format", "json"),
     "e9ed4ac4760f90ae1259a066fa4cf6bdedc449134cf3c93c83dd978c00d1dfde"),
    (("census", "--catalog", "full", "--max-degree", "12", "--format", "json"),
     "712bd62ff219df80762d7dca8d445ce1bc62babaf1ec6bc8ae6f2546c6145eda"),
    (("census", "--catalog", "full", "--max-degree", "12"),
     "5f919d9760a06519ed67b4bb69653f65a5e3c0e3bfb106ac63025e943fa4ae82"),
    (("export-catalog", "--catalog", "full"),
     "4cd7d36a55cb12ff654472fc6a991fed61e093dca16a78c06b2595dcce3bcb59"),
    (("compute", "--catalog", "full", "--order", "48", "--format", "json"),
     "ef5d46f0bbf3860e5376c2befad657cd2f83e0150dad6323191d0f52ebdcbb2f"),
    (("compute", "--catalog", "gamma1_4", "--order", "48", "--format", "json"),
     "5ccd99cbd5bb5f6ecd1b4dbff25808bc7942c428ff5a9f267acf794ad1e64a15"),
    (("compute", "--catalog", "full", "--order", "30",
      "--prefactor=u^3*-3*L^-4*(-L^3-L-1)", "--format", "json"),
     "53be488edbb9a12875b885bad2007e2043db646a2bc3e6c88eba281c584d7bc1"),
    (("compute", "--catalog", "full", "--order", "30",
      "--prefactor=u^3*-3*L^-4*(-L^3-L-1)"),
     "7ac23b57eecc2709114a3378869c56a21c902e544a164385c710d1bd7afe0f63"),
    (("compute", "--catalog", "full", "--order", "12", "--prefactor", "0",
      "--format", "json"),
     "ce3adb00a89cb399a4a7a6d07a24577fdaa92c78ecdb1814aa925d917ac20d72"),
    (("compute", "--catalog", "full", "--order", "0", "--format", "json"),
     "5bcaeaa23adc747d1071789a59ad0a259d645b57b00346c63bdf265f2d213e27"),
    (("specialize", "--catalog", "full", "--order", "30", "--u=-3/7",
      "--L=5/4", "--format", "json"),
     "c0b6b50248a4e955e7f673b8f2afd614549f6488c482e4c9564655f24f9e3a83"),
    (("specialize", "--catalog", "full", "--order", "12", "--L=2"),
     "dd9a95b3f8883e48f57bb986d21189c5162bcac111912983c3380b523b61e026"),
    (("specialize", "--catalog", "full", "--order", "12", "--u=3/4"),
     "35a0ae4399be6a3fc2a42c28ece406254711957ad6cc27b4b61a97d387ca9391"),
    (("specialize", "--catalog", "full", "--order", "12", "--u=3/4",
      "--format", "json"),
     "4bb4897d6db853c86c0f4bb871ce51601acb1c79010568b8706db1cebb619c5a"),
    (("export-catalog", "--catalog", "gamma1_4"),
     "4ac1e1118f2ba44cbe4824b3018471cf21f9788a65179d089d0edd0aa4929517"),
    (("compute", "--catalog", "gamma1_2", "--order", "36",
      "--prefactor=u^1*-7", "--format", "json"),
     "d7c8f00ab66a4a648297518b682d566a66d5f6fb6e6d6e4d6cdf8efaf85cb251"),
    (("compute", "--catalog", "gamma1_3", "--order", "44",
      "--prefactor=u^3*L^-4", "--format", "json"),
     "845f51da61acb17cc1741209f69229c79d3455f30b2a5bff734a841293ce1577"),
]


@pytest.mark.parametrize("argv, digest", GOLDEN_STDOUT,
                         ids=[" ".join(a) for a, _ in GOLDEN_STDOUT])
def test_golden_stdout_bytes(capsys, argv, digest):
    code, out, _ = run(capsys, *argv)
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# Payload trees for the JSON writer: every leaf type the CLI payloads use,
# strings that need escaping, and LatticePoly values with negative
# L-exponents, wide and rational coefficients, and the zero polynomial.
json_text = st.text(alphabet=st.one_of(
    st.characters(), st.sampled_from('"\\/\n\r\t\x00\x1f\x7f\u00e9\u2028\U0001f600')),
    max_size=8)
wide_coefs = st.one_of(
    st.integers(-9, 9),
    st.integers(2 ** 80, 2 ** 100),
    st.integers(-(2 ** 100), -(2 ** 80)),
    st.fractions(max_denominator=50))
json_polys = st.dictionaries(
    st.integers(0, 6),
    st.dictionaries(st.integers(-6, 6), wide_coefs, max_size=4).map(LefschetzPoly),
    max_size=4).map(LatticePoly)
json_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.integers(2 ** 64, 2 ** 200), st.integers(-(2 ** 200), -(2 ** 64)),
    json_text, json_polys, st.just(LatticePoly.zero()))
json_trees = st.recursive(json_leaves, lambda children: st.one_of(
    st.lists(children, max_size=4),
    st.lists(children, max_size=4).map(tuple),
    st.dictionaries(json_text, children, max_size=4)), max_leaves=24)


def plain(x):
    """The payload with every LatticePoly replaced by its JSON term list."""
    if isinstance(x, LatticePoly):
        return x.to_json()["terms"]
    if isinstance(x, dict):
        return {k: plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [plain(v) for v in x]
    return x


class TestEncoder:
    @given(json_trees)
    @settings(max_examples=200, deadline=None)
    def test_equals_json_dumps_indent_2(self, x):
        assert (json.dumps(x, sort_keys=True, indent=2, cls=cli._Encoder)
                == json.dumps(plain(x), sort_keys=True, indent=2))

    def test_rational_coefficients_and_zero_poly(self):
        poly = LatticePoly({0: LefschetzPoly({-2: Fraction(9, 16)}), 3: 2 ** 90})
        text = json.dumps({"a": poly, "b": LatticePoly.zero()},
                          sort_keys=True, indent=2, cls=cli._Encoder)
        assert json.loads(text) == {
            "a": [{"u": 0, "L": -2, "c": "9/16"}, {"u": 3, "L": 0, "c": str(2 ** 90)}],
            "b": []}

    @pytest.mark.parametrize("leaf", [1.5, {1, 2}, {3: "int key"}])
    def test_rejects_what_json_dumps_would_not_write_the_same(self, leaf):
        with pytest.raises(TypeError):
            json.dumps({"a": [leaf]}, sort_keys=True, indent=2, cls=cli._Encoder)


@pytest.mark.parametrize("argv", [
    ("compute", "--catalog", "gamma1_3", "--order", "14", "--format", "json"),
    ("specialize", "--catalog", "full", "--order", "6", "--u=3/4",
     "--format", "json"),
    ("specialize", "--catalog", "full", "--order", "6", "--u=3/4", "--L=2",
     "--format", "json"),
    ("census", "--catalog", "full", "--max-degree", "12", "--format", "json"),
    ("export-catalog", "--catalog", "full"),
], ids=lambda argv: argv[0])
def test_one_json_dumps_call_returns_the_whole_document(capsys, monkeypatch, argv):
    # the benchmark's tracer times cli.json.dumps as the serializer
    # and counts its result as the output size
    real = cli.json.dumps
    results = []

    def counting(*args, **kwargs):
        results.append(real(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(cli.json, "dumps", counting)
    code, out, _ = run(capsys, *argv)
    assert code == EXIT_OK
    assert len(results) == 1
    assert results[0] == out[:-1]
