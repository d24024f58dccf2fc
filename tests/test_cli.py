import hashlib
import json
from fractions import Fraction

import jsonschema
import pytest

import zetali.coefficients
import zetali.verify
from zetali import (
    PrecisionContext,
    compute_gamma_table,
    from_decimal,
    lambda_context,
    load_table,
    run_verification,
    save_table,
    summatory_partition_count,
)
from zetali.cli import build_parser, main, output_schema
from helpers import classic_table_text


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def validate(obj, def_name):
    schema = dict(output_schema())
    schema["oneOf"] = [{"$ref": f"#/$defs/{def_name}"}]
    jsonschema.validate(obj, schema)


class TestStieltjesCommand:
    def test_csv_table(self, capsys):
        code, out, _ = run_cli(capsys, "stieltjes", "--n-max", "8", "--prec", "192")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[2] == "n,value"
        rows = lines[3:]
        assert len(rows) == 9
        assert rows[0].startswith("0,0.5772156649")

    def test_single_row(self, capsys):
        code, out, _ = run_cli(capsys, "stieltjes", "--n-max", "0")
        assert code == 0
        assert len(out.strip().splitlines()) == 4

    def test_bad_prec_exits_1_with_usage(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["stieltjes", "--n-max", "2", "--prec", "0"])
        assert err.value.code == 1
        assert "usage" in capsys.readouterr().err

    def test_json_validates(self, capsys):
        code, out, _ = run_cli(capsys, "stieltjes", "--n-max", "3",
                               "--format", "json")
        assert code == 0
        validate(json.loads(out), "gamma_table")

    def test_out_file_is_loadable_full_precision(self, capsys, tmp_path):
        path = tmp_path / "table.json"
        code, out, _ = run_cli(capsys, "stieltjes", "--n-max", "4",
                               "--format", "json", "--out", str(path))
        assert code == 0
        table = load_table(path)
        assert table.n_max == 4
        # file carries working-precision digits, stdout target-precision
        file_digits = json.loads(path.read_text())["values"][0]
        stdout_digits = json.loads(out)["values"][0]
        assert len(file_digits) > len(stdout_digits)

    def test_table_flag_roundtrip(self, capsys, tmp_path):
        path = tmp_path / "table.json"
        run_cli(capsys, "stieltjes", "--n-max", "4", "--out", str(path))
        code, out, _ = run_cli(capsys, "stieltjes", "--n-max", "3",
                               "--table", str(path))
        assert code == 0
        assert out.strip().splitlines()[3].startswith("0,0.5772156649")

    def test_table_cut_to_n_max(self, capsys, tmp_path):
        # a longer --table prints, and writes, only gamma_0..gamma_K
        path = tmp_path / "table.json"
        run_cli(capsys, "stieltjes", "--n-max", "4", "--out", str(path))
        cut = tmp_path / "cut.json"
        code, out, _ = run_cli(capsys, "stieltjes", "--n-max", "2",
                               "--table", str(path), "--out", str(cut))
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[2] == "n,value"
        assert len(lines[3:]) == 3
        assert load_table(cut).n_max == 2

    @pytest.mark.parametrize("command,n_max", [("stieltjes", "5"), ("li", "6")])
    def test_short_table_exits_1(self, capsys, tmp_path, command, n_max):
        # a table of gamma_0..gamma_2 cannot serve index 5
        path = tmp_path / "table.json"
        run_cli(capsys, "stieltjes", "--n-max", "2", "--out", str(path))
        code, out, err = run_cli(capsys, command, "--n-max", n_max, "--table", str(path))
        assert (code, out) == (1, "")
        assert "too short" in err

    def test_classic_table_input_is_converted(self, capsys, tmp_path,
                                              classic_stieltjes):
        # a classic-normalization table on --table is converted as it loads
        path = tmp_path / "classic.json"
        path.write_text(classic_table_text(classic_stieltjes(150)[:4], 150, "json"),
                        encoding="utf-8")
        code, out, _ = run_cli(capsys, "eta", "--n-max", "3",
                               "--table", str(path), "--prec", "96")
        assert code == 0
        assert out.strip().splitlines()[3].split(",")[1].startswith("-0.5772156649")

    def test_contour_method(self, capsys):
        # the same header as the Euler-Maclaurin route, and values that
        # agree to the 2^-64 the printed digits promise
        rows = {}
        for method in ("em", "contour"):
            code, out, _ = run_cli(capsys, "stieltjes", "--method", method,
                                   "--n-max", "8", "--prec", "64")
            assert code == 0
            rows[method] = out.strip().splitlines()
        assert rows["contour"][:3] == rows["em"][:3]
        for a, b in zip(rows["contour"][3:], rows["em"][3:], strict=True):
            va, vb = (from_decimal(r.split(",")[1], 128) for r in (a, b))
            assert abs(va - vb) < 2 ** -64, (a, b)

    @pytest.mark.parametrize("command", ["stieltjes", "eta"])
    def test_x_max_is_unrecognized(self, capsys, command):
        with pytest.raises(SystemExit) as err:
            main([command, "--n-max", "2", "--x-max", "100"])
        assert err.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --x-max" in captured.err

    def test_non_finite_table_exits_1(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "convention": "paper", "precision_bits": 256,
            "n_max": 2, "values": ["0.5", "nan", "0.1"]}))
        code, out, err = run_cli(capsys, "eta", "--n-max", "2",
                                 "--table", str(path))
        assert code == 1
        assert out == ""
        assert "non-finite" in err

    @pytest.mark.parametrize("field,raw,values", [
        # each of these used to escape as a traceback or be truncated
        ("values", None, '[0.5, "0.07", "-0.0097"]'),   # a JSON number
        ("values", None, '["0.5", null, "-0.0097"]'),
        ("precision_bits", "1e999", None),               # overflows int()
        ("precision_bits", "256.5", None),               # read as 256
        ("precision_bits", "true", None),                # read as 1
        ("n_max", "2.0", None),
        ("n_max", "false", '["0.5"]'),                   # read as 0
    ])
    def test_malformed_json_table_exits_1(self, capsys, tmp_path, field, raw, values):
        fields = {"convention": '"paper"', "precision_bits": "256", "n_max": "2",
                  "values": values or '["0.5", "0.07", "-0.0097"]'}
        if raw is not None:
            fields[field] = raw
        path = tmp_path / "bad.json"
        path.write_text("{" + ", ".join(f'"{k}": {v}' for k, v in fields.items()) + "}")
        code, out, err = run_cli(capsys, "li", "--n-max", "1", "--table", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("zetali: error: ") and field in err

    def test_table_below_prec_exits_2(self, capsys, tmp_path):
        # a 64-bit table cannot back 192-bit output
        path = tmp_path / "low.json"
        path.write_text(json.dumps({
            "convention": "paper", "precision_bits": 64,
            "n_max": 3, "values": ["0.58", "0.073", "-0.0097", "-0.0021"]}))
        code, out, err = run_cli(capsys, "li", "--n-max", "3",
                                 "--table", str(path), "--prec", "192")
        assert code == 2
        assert out == ""
        assert "precision infeasible" in err and "64 bits" in err
        # at --prec 64 the table passes the gate; the explicit route sums
        # gamma directly, but the binomial weights amplify the eta table's
        # rounding past 2^-65, so that route refuses the same table
        code, _, _ = run_cli(capsys, "li", "--n-max", "3", "--method", "explicit",
                             "--table", str(path), "--prec", "64")
        assert code == 0
        code, out, err = run_cli(capsys, "li", "--n-max", "3",
                                 "--table", str(path), "--prec", "64")
        assert code == 2
        assert out == ""
        assert "64 bits cannot back lambda_tilde_1" in err

    def test_guard_too_small_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "stieltjes", "--n-max", "2",
                               "--guard", "4")
        assert code == 2
        assert "precision infeasible" in err

    def test_table_with_guard_exits_1(self, capsys, tmp_path):
        # stieltjes prints a loaded table and builds nothing, so a guard
        # would change no byte; the routes that sum over the table keep it
        path = tmp_path / "t.json"
        code, _, _ = run_cli(capsys, "stieltjes", "--n-max", "3", "--format", "json",
                             "--out", str(path))
        assert code == 0
        code, out, err = run_cli(capsys, "stieltjes", "--n-max", "3",
                                 "--table", str(path), "--guard", "4")
        assert (code, out) == (1, "")
        assert "--guard cannot be combined with --table on stieltjes" in err
        for argv in (("stieltjes", "--n-max", "3"), ("eta", "--n-max", "3"),
                     ("gamma-invert", "--n-max", "3"), ("li", "--n-max", "3"),
                     ("histogram", "--n", "3")):
            guard = () if argv[0] == "stieltjes" else ("--guard", "64")
            code, out, _ = run_cli(capsys, *argv, "--table", str(path), *guard)
            assert code == 0 and out


class TestEtaCommand:
    def test_methods_agree(self, capsys):
        rows = {}
        for method in ("recurrence", "explicit", "series"):
            code, out, _ = run_cli(capsys, "eta", "--n-max", "5",
                                   "--method", method, "--prec", "96")
            assert code == 0
            rows[method] = out.strip().splitlines()[3:]
            assert len(rows[method]) == 6
            assert rows[method][0].split(",")[1].startswith("-0.57721566")
        for ra, rb, rc in zip(rows["recurrence"], rows["explicit"], rows["series"]):
            va, vb, vc = (float(r.split(",")[1]) for r in (ra, rb, rc))
            assert abs(va - vb) < 1e-20
            assert abs(va - vc) < 1e-20

    def test_contour_method(self, capsys):
        # every byte of the recurrence route's output but its provenance
        _, contour, _ = run_cli(capsys, "eta", "--method", "contour", "--n-max", "8")
        _, recurrence, _ = run_cli(capsys, "eta", "--n-max", "8")
        assert contour.replace("provenance=contour", "provenance=recurrence") \
            == recurrence

    @pytest.mark.parametrize("command", ["stieltjes", "eta"])
    def test_table_with_contour_exits_1(self, capsys, command):
        # the contour routes start from no table
        code, out, err = run_cli(capsys, command, "--method", "contour",
                                 "--table", "/nonexistent.json")
        assert code == 1
        assert out == ""
        assert "--table cannot be combined with --method contour" in err

    @pytest.mark.parametrize("command", ["stieltjes", "eta"])
    def test_contour_guard_too_small_exits_2(self, capsys, command):
        # 52 points need 8 + 16 guard bits, as the table build would
        argv = (command, "--method", "contour", "--n-max", "6", "--prec", "64")
        for guard in ("0", "23"):
            code, out, err = run_cli(capsys, *argv, "--guard", guard)
            assert code == 2
            assert out == ""
            assert "precision infeasible" in err and "need at least 24" in err
        code, _, _ = run_cli(capsys, *argv, "--guard", "24")
        assert code == 0

    @pytest.mark.parametrize("method", ["recurrence", "explicit", "series"])
    def test_table_precision_caps_eta_precision(self, capsys, tmp_path, method):
        # 320 working bits cannot add precision to a 256-bit gamma table
        path = tmp_path / "gamma.json"
        save_table(compute_gamma_table(5, PrecisionContext(192, 64)), path)
        code, out, _ = run_cli(capsys, "eta", "--method", method, "--n-max", "5",
                               "--table", str(path), "--prec", "192",
                               "--guard", "128")
        assert code == 0
        assert out.splitlines()[1] == "# precision_bits=256"

    def test_contour_json_validates(self, capsys):
        code, out, _ = run_cli(capsys, "eta", "--method", "contour", "--n-max", "3",
                               "--format", "json")
        assert code == 0
        obj = json.loads(out)
        validate(obj, "eta_table")
        assert obj["provenance"] == "contour"

    def test_json_validates(self, capsys):
        code, out, _ = run_cli(capsys, "eta", "--n-max", "3", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        validate(obj, "eta_table")
        assert obj["provenance"] == "recurrence"


class TestGammaInvertCommand:
    def test_roundtrip_matches_direct_table(self, capsys):
        code, direct, _ = run_cli(capsys, "stieltjes", "--n-max", "5")
        assert code == 0
        code, inverted, _ = run_cli(capsys, "gamma-invert", "--n-max", "5")
        assert code == 0
        d_rows = direct.strip().splitlines()[3:]
        i_rows = inverted.strip().splitlines()[3:]
        for dr, ir in zip(d_rows, i_rows):
            assert abs(float(dr.split(",")[1]) - float(ir.split(",")[1])) < 1e-25

    def test_json_validates(self, capsys):
        code, out, _ = run_cli(capsys, "gamma-invert", "--n-max", "2",
                               "--format", "json")
        assert code == 0
        validate(json.loads(out), "gamma_table")

    def test_table_precision_caps_precision_bits(self, capsys, tmp_path):
        # 320 working bits cannot add precision to a 256-bit gamma table
        path = tmp_path / "gamma.json"
        save_table(compute_gamma_table(5, PrecisionContext(192, 64)), path)
        code, out, _ = run_cli(capsys, "gamma-invert", "--n-max", "3", "--table",
                               str(path), "--prec", "192", "--guard", "128")
        assert code == 0
        assert out.splitlines()[1] == "# precision_bits=256"


class TestLiCommand:
    def test_lambda_column(self, capsys):
        code, out, _ = run_cli(capsys, "li", "--n-max", "6")
        assert code == 0
        rows = out.strip().splitlines()
        assert rows[2] == "n,lambda_tilde"
        assert rows[3].startswith("1,0.5772156649")

    def test_with_trend_identity(self, capsys):
        code, out, _ = run_cli(capsys, "li", "--n-max", "4", "--with-trend")
        assert code == 0
        rows = out.strip().splitlines()
        assert rows[2] == "n,lambda_tilde,trend,estimate"
        for row in rows[3:]:
            _, lam, trend, est = row.split(",")
            assert abs((float(trend) + float(lam)) - float(est)) < 1e-12

    @pytest.mark.parametrize("method", ["binomial", "explicit"])
    def test_table_precision_caps_precision_bits(self, capsys, tmp_path, method):
        path = tmp_path / "gamma.json"
        save_table(compute_gamma_table(5, PrecisionContext(192, 64)), path)
        code, out, _ = run_cli(capsys, "li", "--method", method, "--n-max", "3",
                               "--table", str(path), "--prec", "192", "--guard", "128")
        assert code == 0
        assert out.splitlines()[1] == "# precision_bits=256"

    def test_methods_agree(self, capsys):
        _, a, _ = run_cli(capsys, "li", "--n-max", "6", "--method", "binomial")
        _, b, _ = run_cli(capsys, "li", "--n-max", "6", "--method", "explicit")
        for ra, rb in zip(a.strip().splitlines()[3:], b.strip().splitlines()[3:]):
            assert abs(float(ra.split(",")[1]) - float(rb.split(",")[1])) < 1e-22

    def test_eta_table_built_once(self, capsys, monkeypatch):
        # one eta table, for the top index, serves every index
        import zetali.cli
        import zetali.li
        calls = []
        recurrence = zetali.cli.eta_from_gamma_recurrence

        def counting(*args, **kwargs):
            calls.append(args[1])
            return recurrence(*args, **kwargs)

        for module in (zetali.cli, zetali.li):
            monkeypatch.setattr(module, "eta_from_gamma_recurrence", counting,
                                raising=False)
        code, _, _ = run_cli(capsys, "li", "--n-max", "10")
        assert code == 0
        assert calls == [9]

    def test_coarse_table_for_high_index_exits_2(self, capsys, tmp_path):
        # 256 bits pass the --prec gate, but C(n, j) amplify the table's
        # rounding past 2^-193 well before n = 200
        path = tmp_path / "t.json"
        code, _, _ = run_cli(capsys, "stieltjes", "--n-max", "199", "--prec", "192",
                             "--guard", "64", "--format", "json", "--out", str(path))
        assert code == 0
        code, out, err = run_cli(capsys, "li", "--n-max", "200", "--table", str(path))
        assert code == 2
        assert out == ""
        assert "an eta table of 256 bits cannot back lambda_tilde_" in err

    def test_json_validates(self, capsys):
        code, out, _ = run_cli(capsys, "li", "--n-max", "3", "--with-trend",
                               "--format", "json")
        assert code == 0
        validate(json.loads(out), "li_records")


class TestHistogramCommand:
    def test_binned_counts(self, capsys):
        code, out, _ = run_cli(capsys, "histogram", "--n", "10", "--bins", "40")
        assert code == 0
        rows = out.strip().splitlines()
        assert rows[2] == "bin_lower,bin_upper,count"
        bins = rows[3:]
        assert len(bins) == 40
        assert sum(int(r.split(",")[2]) for r in bins) == 138

    def test_raw_values(self, capsys):
        code, out, _ = run_cli(capsys, "histogram", "--n", "10", "--raw")
        assert code == 0
        rows = out.strip().splitlines()
        assert rows[2] == "term_index,value"
        assert len(rows[3:]) == 138

    def test_json_validates(self, capsys):
        code, out, _ = run_cli(capsys, "histogram", "--n", "5", "--bins", "7",
                               "--format", "json")
        assert code == 0
        validate(json.loads(out), "histogram_binned")
        code, out, _ = run_cli(capsys, "histogram", "--n", "5", "--raw",
                               "--format", "json")
        assert code == 0
        validate(json.loads(out), "histogram_raw")

    def test_n_required(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["histogram", "--bins", "5"])
        assert err.value.code == 1


class TestExpandCommand:
    def test_lambda_n2_exact(self, capsys):
        code, out, _ = run_cli(capsys, "expand", "--target", "lambda",
                               "--n", "2", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        validate(obj, "expansion")
        assert obj["target"] == "lambda_tilde"
        got = {tuple(t["k"]): Fraction(t["coeff"]) for t in obj["terms"]}
        assert got == {(1, 0, 0): Fraction(2), (0, 1, 0): Fraction(2),
                       (2, 0, 0): Fraction(-1)}

    def test_eta_csv(self, capsys):
        code, out, _ = run_cli(capsys, "expand", "--target", "eta", "--n", "2")
        assert code == 0
        rows = out.strip().splitlines()
        assert rows[2] == "k,coeff"
        assert rows[3] == "0 1 0,-2/1"
        assert rows[4] == "2 0 0,1/1"

    def test_gamma_expansion(self, capsys):
        code, out, _ = run_cli(capsys, "expand", "--target", "gamma",
                               "--n", "3", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        got = {tuple(t["k"]): Fraction(t["coeff"]) for t in obj["terms"]}
        assert got == {(0, 0, 1, 0): Fraction(-1, 3), (1, 1, 0, 0): Fraction(1, 2),
                       (3, 0, 0, 0): Fraction(-1, 6)}


class TestVerifyCommand:
    def test_passes_and_is_deterministic(self, capsys):
        code1, out1, _ = run_cli(capsys, "verify", "--n-max", "6")
        code2, out2, _ = run_cli(capsys, "verify", "--n-max", "6")
        assert code1 == code2 == 0
        assert out1 == out2
        for line in out1.strip().splitlines()[3:]:
            assert line.endswith(",pass")

    def test_json_validates(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--n-max", "5",
                               "--format", "json")
        assert code == 0
        obj = json.loads(out)
        validate(obj, "verify_report")
        assert obj["passed"] is True

    def test_nonpositive_n_max_refused(self):
        with pytest.raises(ValueError) as err:
            run_verification(0, 192)
        assert str(err.value) == "n_max must be positive"

    def test_prec_floor(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--n-max", "4", "--prec", "64")
        assert code == 1
        assert "target_bits" in err

    def test_gamma_table_built_once_per_context(self, monkeypatch):
        # gam, gam_big, and the doubled cutoff and doubled guard: the
        # stability row compares gam itself, above n_max = 16 too
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[0])
            return compute_gamma_table(*args, **kwargs)

        monkeypatch.setattr(zetali.verify, "compute_gamma_table", counting)
        assert all(c["status"] == "pass" for c in run_verification(5, 192))
        assert calls == [5, 4, 5, 5]
        calls.clear()
        assert all(c["status"] == "pass" for c in run_verification(17, 128))
        assert calls == [17, 16, 16, 16]

    def test_oscillation_rows_share_one_context(self, monkeypatch):
        # all four oscillation routes run at li's context for n_max, so
        # the explicit lambda batch walks each index once; the eta rows
        # walk at 192 bits, apart from it
        contexts = set()
        walked = {}

        def recording(route):
            def wrapped(*args):  # each route takes its context third
                contexts.add(args[2])
                return route(*args)
            return wrapped

        for name in ("lambda_tilde_binomial", "lambda_tilde_explicit_table",
                     "term_distribution", "histogram"):
            monkeypatch.setattr(zetali.verify, name,
                                recording(getattr(zetali.verify, name)))
        walk = zetali.coefficients._signed_walk

        def counting_walk(values, n, ctx, least=None):
            for item in walk(values, n, ctx, least):
                walked[ctx.working_bits] = walked.get(ctx.working_bits, 0) + 1
                yield item

        monkeypatch.setattr(zetali.coefficients, "_signed_walk", counting_walk)
        assert all(c["status"] == "pass" for c in run_verification(10, 128))
        ctx = lambda_context(128, 10)
        assert contexts == {ctx}
        assert walked[ctx.working_bits] == summatory_partition_count(10) == 138


class TestOneWalkPerTable:
    """A command that asks for every index up to N walks each table it
    reads once per working precision: one walk over r = 1 .. N fills the
    table's exact sums, and the per-index loop only rounds them."""

    @staticmethod
    def count_walks(monkeypatch):
        walks = []
        walk = zetali.coefficients._signed_walk

        def counted(values, n, ctx, least=None):
            walks.append((n, least, ctx.working_bits))
            return walk(values, n, ctx, least)

        monkeypatch.setattr(zetali.coefficients, "_signed_walk", counted)
        return walks

    @pytest.mark.parametrize("argv, walk", [
        pytest.param(("eta", "--method", "explicit", "--n-max", "12"),
                     (13, 1, 192 + 64), id="eta explicit"),
        pytest.param(("gamma-invert", "--n-max", "12"),
                     (13, 1, 192 + 64), id="gamma-invert"),
        pytest.param(("li", "--method", "explicit", "--n-max", "12"),
                     (12, 1, lambda_context(192, 12).working_bits), id="li explicit"),
    ])
    def test_command(self, capsys, monkeypatch, argv, walk):
        walks = self.count_walks(monkeypatch)
        code, _, _ = run_cli(capsys, *argv)
        assert code == 0
        assert walks == [walk]

    def test_verify(self, monkeypatch):
        walks = self.count_walks(monkeypatch)
        assert all(c["status"] == "pass" for c in run_verification(10, 128))
        bits, big = 128 + 64, lambda_context(128, 10).working_bits
        # eta over the gamma table, gamma over the eta table, then
        # lambda_tilde over li's gamma table
        assert walks == [(11, 1, bits), (11, 1, bits), (10, 1, big)]


class TestParser:
    def test_unknown_command_exits_1(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["transmogrify"])
        assert err.value.code == 1

    def test_out_mirrors_stdout(self, capsys, tmp_path):
        path = tmp_path / "eta.csv"
        code, out, _ = run_cli(capsys, "eta", "--n-max", "2",
                               "--out", str(path))
        assert code == 0
        assert path.read_text() == out

    def test_unwritable_out_prints_nothing(self, capsys, tmp_path):
        # the --out file is written first, so a run that cannot write it
        # prints nothing and exits 1
        path = tmp_path / "missing" / "table.csv"
        code, out, err = run_cli(capsys, "stieltjes", "--n-max", "2", "--out", str(path))
        assert (code, out) == (1, "")
        assert "No such file or directory" in err

    def test_parser_builds(self):
        parser = build_parser()
        args = parser.parse_args(["stieltjes", "--n-max", "3"])
        assert args.n_max == 3 and args.prec == 192 and args.guard == "auto"

    @pytest.mark.parametrize("command", [
        # expand is exact, so no precision flag can change its output
        "expand --target eta --n 4 --prec 7",
        "expand --target eta --n 4 --guard 3",
        # verify fixes its own 64-bit guard
        "verify --n-max 3 --guard 0",
        "verify --n-max 3 --guard 500",
    ])
    def test_flag_the_command_ignores_exits_1(self, capsys, command):
        with pytest.raises(SystemExit) as err:
            main(command.split())
        assert err.value.code == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert "unrecognized arguments" in out.err

    @pytest.mark.parametrize("flag,message", [
        ("--n-max", "argument --n-max: must be nonnegative"),
        ("--guard", "argument --guard: guard must be 'auto' or nonnegative"),
    ])
    def test_negative_flag_exits_1(self, capsys, flag, message):
        with pytest.raises(SystemExit) as err:
            main(["li", flag, "-1"])
        assert err.value.code == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.splitlines()[-1] == f"zetali li: error: {message}"

    def test_bins_with_raw_exits_1(self, capsys):
        # raw terms are not binned, so --bins would do nothing there
        with pytest.raises(SystemExit) as err:
            main("histogram --n 3 --raw --bins 5".split())
        assert err.value.code == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert "argument --bins: not allowed with argument --raw" in out.err


class TestGoldenOutput:
    """SHA-256 digests of CLI output, each run exiting 0.  The first seven
    were pinned when every partition sum still looped over
    ``enumerate_constrained`` with ``partition_product``; the rest, which
    cover every subcommand, both formats and ``--out`` files, were pinned
    while each subcommand still built its CSV and JSON text by hand.
    ``{table}`` is a saved copy of the shared gamma_0..gamma_40 table.

    Five digests were pinned again when the Euler-Maclaurin tail was
    folded into one polynomial, which reorders its roundings: the two
    ``stieltjes --out`` files (the table at full working precision),
    ``stieltjes --n-max 40 --table`` (gamma_35..gamma_40, about 1e-42 to
    1e-49, printed to 58 significant digits) and both ``verify --n-max 5``
    (``max_discrepancy`` at the 1e-77 rounding level).  Each prints digits
    below the table's absolute 2^-(target+8) bound, so it records the
    rounding order, not the values.

    Both ``verify --n-max 5`` digests were pinned once more when the
    partition sums began to add their weighted products exactly and
    round once: ``max_discrepancy`` of ``eta_explicit_vs_recurrence``
    went from 1.08e-78 to 5.40e-79 and that of
    ``lambda_binomial_vs_explicit`` from 2.5e-77 to 0.0, rounding-level
    differences between two routes.

    ``verify --n-max 2`` (no distribution checks) and ``verify --n-max
    20`` (stability scope cut to 16, lambda term count capped at 15) were
    pinned before ``run_verification`` was rewritten, to hold its report
    byte for byte across the rewrite.

    ``li --n-max 12 --with-trend --format json`` (the binomial route in
    JSON) and ``li --n-max 8 --with-trend --table {table} --prec 128
    --guard 16`` were pinned before the trend's gamma_0 was read off the
    gamma table instead of negating eta_0: with a 256-bit table under 144
    working bits, this is where the two could round apart.

    ``li --n-max 59`` and ``histogram --n 22 --raw``, the largest sizes of
    the ``li`` and ``histogram`` commands the benchmark runs, were pinned
    before the Dirichlet sum of the table build moved to fixed-point
    integers, to hold their bytes across that change.

    Seven digests were pinned again with that change, which rounds the
    Dirichlet sum once per coefficient instead of once per term (its
    error against a build with 128 more guard bits is the same or
    smaller): ``stieltjes --n-max 40 --table`` (gamma_30, gamma_33,
    gamma_35, gamma_36 and gamma_40 move in digits below 1e-90, under
    the table's 6e-61 bound); all four ``verify`` runs
    (``max_discrepancy`` cells at the 1e-77 to 1e-79 rounding level,
    ``gamma_table_stability`` in its 14th digit at 1e-63; every check
    still passes); and the two ``stieltjes --n-max 6 --out`` files (the
    table at full working precision, moved in its last four digits;
    stdout unchanged).

    ``stieltjes --method contour`` and ``eta --method contour`` (both
    ``--n-max 2 --prec 64``) were pinned when the contour routes replaced
    the truncated-limit routes, whose two ``--method limit --x-max 500``
    digests went with them.

    ``verify --n-max 5`` (both formats) and ``verify --n-max 20`` were
    pinned again when the binomial route began to add its weighted eta
    values exactly and round once, instead of summing in ``mpf``.  Only
    two ``max_discrepancy`` cells move, at the rounding level:
    ``lambda_binomial_vs_explicit`` from 2.51e-77 to 1.16e-77 at n <= 20
    (1.26e-77 to 0.0 at n <= 5), and ``distribution_sum`` from 3.553e-77
    to 3.482e-77 at 3 <= n <= 10 (1.41e-77 to 2.51e-77 at 3 <= n <= 5).
    Every ``li`` digest holds.

    ``expand --target lambda --n 25 --format json``, ``expand --target eta
    --n 30 --format json`` and ``stieltjes --n-max 29 --format json
    --out`` (stdout and file), the largest JSON outputs the benchmark
    prints, were pinned while JSON was still written by
    ``json.dumps(obj, indent=2)``, to hold their bytes when the JSON
    writer was replaced.

    The three ``stieltjes`` file digests of ``test_out_file_digest`` were
    pinned again when table files began to write one digit more than
    stdout (79 digits at 256 bits, was 78), so that every value reads
    back bit for bit; no value of these three tables moved on reload
    before, only the extra digit changes the files.  Every stdout digest
    holds, the ``{table}`` ones too: no value of the 256-bit gamma_0 ..
    gamma_40 table moved on reload before either.

    ``verify --n-max 20`` was pinned again when the oscillation rows
    moved from one ``lambda_context(target_bits, n)`` per index to the one
    context ``li`` uses for the whole table,
    ``lambda_context(target_bits, n_max)``, which gives every index more
    guard bits.  Three cells move: ``max_discrepancy`` of
    ``lambda_binomial_vs_explicit`` from 1.1605e-77 to 5.6945e-115, that
    of ``distribution_sum`` from 3.4816e-77 to 2.2813e-117, and the
    ``distribution_sum`` threshold, 2^-(working - 10 n) at n = 3, from
    9.2730e-69 to 1.0645e-109; every check still passes.  ``verify
    --n-max 2`` and ``5`` hold: below n = 7 both rules give 64 guard
    bits."""

    # a pytest.param id names the command alone, as in test_out_file_digest
    @pytest.mark.parametrize("command,digest", [
        pytest.param("eta --method explicit --n-max 12",
                     "7df025537839ce7b96e69394a2307e7e1c9cc0053cd3ad2c235888c92bac645d",
                     id="eta --method explicit --n-max 12"),
        pytest.param("gamma-invert --n-max 12",
                     "7a69f35f80764dd7a63c31c17e9776058e2d5c5f8f3c9d6ac3570e0055205481",
                     id="gamma-invert --n-max 12"),
        pytest.param("li --method explicit --n-max 12",
                     "db7a187751e7364ecc415e3f1f3e7cd6f7afa7301f46d86f3480490e055607d0",
                     id="li --method explicit --n-max 12"),
        pytest.param("histogram --n 12 --raw",
                     "9f8701d9cfa05ac99fdb03c03927092c3fc9f775faa49e33b22604c6718ce257",
                     id="histogram --n 12 --raw"),
        pytest.param("expand --target eta --n 12 --format json",
                     "1dadcc79a5861c7519f8661db4e98b4ff1f690867a5b66ed6764f83b86424f95",
                     id="expand --target eta --n 12 --format json"),
        pytest.param("expand --target gamma --n 12 --format json",
                     "8ed25dfc5197dcc10847d14002fc40d88c108c691acd415adf112119609018e0",
                     id="expand --target gamma --n 12 --format json"),
        pytest.param("expand --target lambda --n 12 --format json",
                     "cfd94ab9ec81861e5d287b87a16a27453b01ea633a7d5dd9bacdadac2fe0646b",
                     id="expand --target lambda --n 12 --format json"),
        pytest.param("stieltjes --n-max 12",
                     "7a69f35f80764dd7a63c31c17e9776058e2d5c5f8f3c9d6ac3570e0055205481",
                     id="stieltjes --n-max 12"),
        pytest.param("stieltjes --n-max 12 --format json",
                     "fb0106d68bd0b068276ea38b9d8bd0df9492e2e30230678843de47f6999c2f1c",
                     id="stieltjes --n-max 12 --format json"),
        pytest.param("stieltjes --n-max 40 --table {table}",
                     "df560a3016bfa77bba301e3cb2c77681aa480780cd02d22478bbc85e23fd1335",
                     id="stieltjes --n-max 40 --table {table}"),
        pytest.param("stieltjes --method contour --n-max 2 --prec 64",
                     "8d24baf1dfd36d1f0369b28d1ee0e3297760cb8da2da45ed8b8eb14570ebf7cb",
                     id="stieltjes --method contour --n-max 2 --prec 64"),
        pytest.param("eta --n-max 12",
                     "e6e760073c3938dea6d636e7543431ab1121c3b818ba394b366e8072a17ecd5f",
                     id="eta --n-max 12"),
        pytest.param("eta --method series --n-max 12",
                     "69086980112388f6f65c9c252d8e583cc82ef063fba4b25792e506bdda629707",
                     id="eta --method series --n-max 12"),
        pytest.param("eta --method contour --n-max 2 --prec 64",
                     "7e05d75bcd6182e38ebef9346a37489070816188083517fa01b77d6b95b25742",
                     id="eta --method contour --n-max 2 --prec 64"),
        pytest.param("gamma-invert --n-max 12 --format json",
                     "fb0106d68bd0b068276ea38b9d8bd0df9492e2e30230678843de47f6999c2f1c",
                     id="gamma-invert --n-max 12 --format json"),
        pytest.param("li --n-max 12",
                     "7550e57aa2997db485d3c545a621b7bf20131ce1e873f6e3e334a43b6c9aecb9",
                     id="li --n-max 12"),
        pytest.param("li --n-max 12 --with-trend",
                     "248e54542e04f7c16547309f4bcc6e4631de6e22d3d5067257ef3c68a1eddb69",
                     id="li --n-max 12 --with-trend"),
        pytest.param("li --method explicit --n-max 12 --with-trend --format json",
                     "fbcb43b927080be1d79f3d06beaf230ff900c131503c9a42078052cf4587379d",
                     id="li --method explicit --n-max 12 --with-trend --format json"),
        pytest.param("li --n-max 0",
                     "867c8aa14f396b0e9bb59f2fe5f8a4f18a94b7a75aa668bf6cf828141e426a9d",
                     id="li --n-max 0"),
        pytest.param("histogram --n 12 --bins 20 --format json",
                     "821b45adfb988bee836326ecc5ce4e2b3e5e20da7da8da34a500d8aa59cf962b",
                     id="histogram --n 12 --bins 20 --format json"),
        pytest.param("expand --target eta --n 12",
                     "135c13797013c057bef9685ea6d0544e06b251391d3b12acaa332a4fd5321af7",
                     id="expand --target eta --n 12"),
        pytest.param("expand --target gamma --n 12",
                     "a2b1d064a36bbc5ab513cdfa459c4cb7a042bd4d861e883c1968861d0774f935",
                     id="expand --target gamma --n 12"),
        pytest.param("expand --target lambda --n 12",
                     "c8306563524b27ec905b6a4ba72960048a45bc50518e40662ee54cd620272901",
                     id="expand --target lambda --n 12"),
        pytest.param("verify --n-max 5",
                     "45840972a378ed195eb1b46f84084931ef5705ec02e1bee4116fa278acd4e2bb",
                     id="verify --n-max 5"),
        pytest.param("verify --n-max 5 --format json",
                     "3a65fa1f57e5a6025fc042c6d013aa6a9b7dfdc856aee59e850bb00d71738f5b",
                     id="verify --n-max 5 --format json"),
        pytest.param("verify --n-max 2",
                     "ca496eb21ef8f2cd97dbe2e72f753d8c05a911d6adcfe0c1923600b12c7e6133",
                     id="verify --n-max 2"),
        pytest.param("verify --n-max 20",
                     "4ec17a155546df4476556ffaa316c0f3d0e9d2a61dd33297948837191f5f6426",
                     id="verify --n-max 20"),
        pytest.param("li --n-max 12 --with-trend --format json",
                     "d48b439e44645c888a07817a6424de5e91eb3acd80810e17cd45e0235411a2ab",
                     id="li --n-max 12 --with-trend --format json"),
        pytest.param("li --n-max 8 --with-trend --table {table} --prec 128 --guard 16",
                     "c0e49206081fe011bfe5936d2975182b535cd5cc07bdd47d4d5fc5619af5fe54",
                     id="li --n-max 8 --with-trend --table {table} --prec 128 --guard 16"),
        pytest.param("li --n-max 59",
                     "184b2a4e61bcdf88c0fef989f1a6ac3783b07fc492f9dca00929e40d9d403090",
                     id="li --n-max 59"),
        pytest.param("histogram --n 22 --raw",
                     "0104e8482ca37da82ceb3daee7b863173b87e7d62acd05654a57ada9cafc6af2",
                     id="histogram --n 22 --raw"),
        pytest.param("expand --target lambda --n 25 --format json",
                     "ecb7c5ad3b19ffa3d0ef4ad18f6236d09bb216eee09e6ee922044bef36f472e6",
                     id="expand --target lambda --n 25 --format json"),
        pytest.param("expand --target eta --n 30 --format json",
                     "6ecab484b56717c5b0958c63a7f2da2ce428c4598bf174122e84db6e0932f684",
                     id="expand --target eta --n 30 --format json"),
    ])
    def test_output_digest(self, capsys, tmp_path, gamma40, command, digest):
        if "{table}" in command:
            save_table(gamma40, tmp_path / "gamma40.json")
        argv = command.format(table=tmp_path / "gamma40.json").split()
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    # ids name the command alone, so a re-pinned digest keeps the id
    @pytest.mark.parametrize("command,stdout_digest,file_digest", [
        # the stieltjes file holds the table at full working precision
        pytest.param("stieltjes --n-max 6",
                     "c1cc000d11373b390a75708fe3b1cdaa9de9a39719869d78886985acce91e1f5",
                     "c80d8edfcc38fd7b4858412349156001b4b7a9a84e97c06d690483c6c24b5a0f",
                     id="stieltjes --n-max 6"),
        pytest.param("stieltjes --n-max 6 --format json",
                     "4128702713a17430416b573e78b122da21ed64c57464ca39a41f32e4a85d585f",
                     "63b0b37f0fbac223bca7fc3738781f59aab2b1e63eea61637a9e06e83721a6d0",
                     id="stieltjes --n-max 6 --format json"),
        pytest.param("stieltjes --n-max 29 --format json",
                     "9d83924f2bd9d2e1e2100e0e4ae4a772fe91726e90caf452f94043b1f8a3e0bf",
                     "8ff2b325c79276ae547af0cd5cab0b759eeb94963e5743f4b120a24d970f4aca",
                     id="stieltjes --n-max 29 --format json"),
        # every other command mirrors stdout
        pytest.param("eta --method explicit --n-max 6 --format json",
                     "00d7a1f840482419c765fac14a660320b6659b454b68edacb5d5b09a7715d261",
                     "00d7a1f840482419c765fac14a660320b6659b454b68edacb5d5b09a7715d261",
                     id="eta --method explicit --n-max 6 --format json"),
    ])
    def test_out_file_digest(self, capsys, tmp_path, command, stdout_digest,
                             file_digest):
        path = tmp_path / "out"
        code, out, _ = run_cli(capsys, *command.split(), "--out", str(path))
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == stdout_digest
        assert hashlib.sha256(path.read_bytes()).hexdigest() == file_digest


class TestClassicIngestion:
    """A classic-normalization table file (mpmath's ``stieltjes``, written
    as text) on ``--table``: the ``stieltjes --out`` file holds the
    converted values at the file's full precision, so its digest pins
    every bit of the classic-to-paper conversion, and ``eta`` pins what a
    route computes from them.  Pinned while the package still converted
    a loaded classic table with a separate ``convert_convention`` step.

    Both ``table_digest`` values were pinned again when table files began
    to write one digit more than stdout, so that they read back bit for
    bit: with the old digit count, the written gamma_7 read back one ulp
    off at both 150 and 400 bits.  The stdout digests hold."""

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    # ids name the precision alone, so a re-pinned digest keeps the id
    @pytest.mark.parametrize("bits,table_digest,stieltjes_digest,eta_digest", [
        pytest.param(
            150, "f9f4f046b9b89a2b9cdcddbe3805b1fd0bf6648f32048c26d4b15272acd7322a",
            "f3c957c55f36eecbc0d376f0651430a8592d5386e4b3c07b0ac88d5ba2912ca2",
            "d965e361d879659b53471e82bc9f06e575b3459022d2477aaaaed56f598ed141",
            id="150"),
        pytest.param(
            400, "4713f72abc494056faa2f8597f4f519d22031398de53303b1f8bbf17a36813ea",
            "bf00b7c578f85b33f79b9b53614655778ec5deba230d971fc9525c9cf699ff1d",
            "287a20a5ba8f08a4ae96124b8bc1b841d69eeef1ebfebdae4f009b6e00bcea48",
            id="400"),
    ])
    def test_digests(self, capsys, tmp_path, classic_stieltjes, bits, fmt,
                     table_digest, stieltjes_digest, eta_digest):
        source = tmp_path / f"classic.{fmt}"
        source.write_text(classic_table_text(classic_stieltjes(bits), bits, fmt),
                          encoding="utf-8")
        out_path = tmp_path / "t.json"
        code, out, _ = run_cli(capsys, "stieltjes", "--table", str(source),
                               "--prec", "128", "--format", "json",
                               "--out", str(out_path))
        assert code == 0
        digests = [hashlib.sha256(out_path.read_bytes()).hexdigest(),
                   hashlib.sha256(out.encode("utf-8")).hexdigest()]
        code, out, _ = run_cli(capsys, "eta", "--table", str(source),
                               "--prec", "128", "--n-max", "8")
        assert code == 0
        digests.append(hashlib.sha256(out.encode("utf-8")).hexdigest())
        assert digests == [table_digest, stieltjes_digest, eta_digest]
