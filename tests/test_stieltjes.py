import json
import math

import mpmath as mp
import pytest

from zetali import (
    CoefficientTable,
    PrecisionContext,
    PrecisionInfeasibleError,
    TableFormatError,
    compute_gamma_table,
    eta_from_gamma_explicit,
    eta_from_gamma_recurrence,
    eta_series_oracle,
    euler_maclaurin_parameters,
    from_decimal,
    gamma_contour,
    gamma_from_eta_explicit,
    lambda_context,
    lambda_tilde_binomial,
    lambda_tilde_explicit,
    load_table,
    render_table,
    save_table,
    term_distribution,
    to_decimal,
)
from zetali.stieltjes import _dirichlet_sums, _pochhammer_polys
from helpers import GAMMA0_REF, GAMMA1_CLASSIC_REF, classic_table_text


class TestCoefficientTable:
    @pytest.mark.parametrize("fields", [
        ("delta", "file", (1,), 64),
        ("eta", "guesswork", (1,), 64),
        ("gamma", "file", (), 64),
        ("gamma", "file", (1,), 0),
    ], ids=["kind", "provenance", "empty", "precision"])
    def test_validation(self, fields):
        kind, provenance, values, bits = fields
        with mp.workprec(64):
            values = tuple(map(mp.mpf, values))
        with pytest.raises(ValueError):
            CoefficientTable(kind, provenance, values, bits)

    def test_indexing(self, gamma40, eta40):
        assert gamma40[0] == gamma40.values[0]
        assert len(gamma40) == 41 and gamma40.n_max == 40
        assert (gamma40.kind, gamma40.provenance) == ("gamma", "euler_maclaurin")
        assert (eta40.kind, eta40.provenance) == ("eta", "recurrence")

    @pytest.mark.parametrize("route,kind", [
        (lambda g, e, p, c: eta_from_gamma_recurrence(e, 4, c), "eta"),
        (lambda g, e, p, c: eta_from_gamma_explicit(e, 4, c), "eta"),
        (lambda g, e, p, c: eta_series_oracle(e, 4, c), "eta"),
        (lambda g, e, p, c: lambda_tilde_explicit(e, 4, c), "eta"),
        (lambda g, e, p, c: term_distribution(e, 4, c), "eta"),
        (lambda g, e, p, c: lambda_tilde_binomial(g, 4, c), "gamma"),
        (lambda g, e, p, c: gamma_from_eta_explicit(g, 4, c), "gamma"),
        (lambda g, e, p, c: render_table(e), "eta"),
        (lambda g, e, p, c: save_table(e, p), "eta"),
    ], ids=["recurrence", "eta_explicit", "series_oracle", "lambda_explicit",
            "term_distribution", "lambda_binomial", "gamma_from_eta",
            "render_table", "save_table"])
    def test_wrong_kind_rejected(self, route, kind, gamma40, eta40, ctx256, tmp_path):
        # each route names the table it was handed, and writes no file
        path = tmp_path / "table.json"
        with pytest.raises(ValueError, match=f"got kind '{kind}'"):
            route(gamma40, eta40, path, ctx256)
        assert not path.exists()

    @pytest.mark.parametrize("route,kind", [
        (lambda g, e, c: eta_from_gamma_recurrence(g, -1, c), "gamma"),
        (lambda g, e, c: eta_series_oracle(g, -1, c), "gamma"),
        (lambda g, e, c: eta_from_gamma_explicit(g, 0, c), "gamma"),
        (lambda g, e, c: lambda_tilde_explicit(g, 0, c), "gamma"),
        (lambda g, e, c: term_distribution(g, 0, c), "gamma"),
        (lambda g, e, c: lambda_tilde_binomial(e, 0, c), "eta"),
        (lambda g, e, c: gamma_from_eta_explicit(e, 0, c), "eta"),
    ], ids=["recurrence", "series_oracle", "eta_explicit", "lambda_explicit",
            "term_distribution", "lambda_binomial", "gamma_from_eta"])
    def test_index_below_range_rejected(self, route, kind, gamma40, eta40, ctx256):
        # the table routes read index n_max, the scalar ones index n - 1
        with pytest.raises(ValueError, match=f"need a {kind} index of at least 0, got -1"):
            route(gamma40, eta40, ctx256)


class TestComputeGammaTable:
    def test_gamma0_is_euler_constant(self, gamma40, ctx256):
        ref = from_decimal(GAMMA0_REF, 280)
        with ctx256.workprec():
            assert abs(gamma40[0] - ref) < mp.mpf(2) ** -(ctx256.target_bits + 8)

    def test_gamma1_sign_and_value(self, gamma40, ctx256):
        # table normalization negates the classic gamma_1
        ref = from_decimal(GAMMA1_CLASSIC_REF, 280)
        with ctx256.workprec():
            assert gamma40[1] > 0
            assert abs(gamma40[1] + ref) < mp.mpf(2) ** -190

    def test_doubled_precision_run_agrees(self, gamma40, ctx256):
        high = compute_gamma_table(8, PrecisionContext(384, 64))
        with mp.workprec(500):
            for n in range(9):
                assert abs(gamma40[n] - high[n]) < mp.mpf(2) ** -ctx256.target_bits

    def test_stable_under_doubling_cutoff(self, ctx256):
        base = compute_gamma_table(16, ctx256)
        m_cut, _ = euler_maclaurin_parameters(16, ctx256)
        doubled = compute_gamma_table(16, ctx256, cutoff=2 * m_cut)
        with mp.workprec(320):
            for n in range(17):
                assert abs(base[n] - doubled[n]) < mp.mpf(2) ** -192

    def test_stable_under_doubling_guard(self, ctx256):
        base = compute_gamma_table(16, ctx256)
        doubled = compute_gamma_table(16, PrecisionContext(192, 128))
        with mp.workprec(320):
            for n in range(17):
                assert abs(base[n] - doubled[n]) < mp.mpf(2) ** -192

    def test_extra_tail_terms_do_not_move_digits(self, ctx256):
        base = compute_gamma_table(8, ctx256)
        _, tail = euler_maclaurin_parameters(8, ctx256)
        more = compute_gamma_table(8, ctx256, tail_terms=tail + 4)
        with mp.workprec(320):
            for n in range(9):
                assert abs(base[n] - more[n]) < mp.mpf(2) ** -192

    @pytest.mark.parametrize("n", [25, 40])
    def test_high_index_matches_mpmath(self, gamma40, n):
        # mpmath.stieltjes integrates a contour, independent of the EM
        # builder; a wrong tail fold width would show first at high n
        with mp.workprec(264):
            ref = (-1) ** n * mp.stieltjes(n) / mp.factorial(n)
            assert abs(gamma40[n] - ref) < mp.mpf(2) ** -192

    def test_deterministic_serialization(self, ctx256):
        a = compute_gamma_table(6, ctx256)
        b = compute_gamma_table(6, ctx256)
        assert [to_decimal(v, 256) for v in a.values] == \
               [to_decimal(v, 256) for v in b.values]

    def test_insufficient_guard_rejected(self):
        with pytest.raises(PrecisionInfeasibleError):
            compute_gamma_table(8, PrecisionContext(192, 8))

    @pytest.mark.parametrize("n_max,target", [(20, 192), (60, 300)])
    def test_guard_boundary(self, n_max, target):
        # the build refuses one guard bit below 8 + max(16, 4 + the bit
        # length of its M + 2J + n terms) and builds at that guard
        m_cut, tail = euler_maclaurin_parameters(n_max, PrecisionContext(target, 64))
        least = 8 + max(16, (m_cut + 2 * tail + n_max).bit_length() + 4)
        with pytest.raises(PrecisionInfeasibleError):
            compute_gamma_table(n_max, PrecisionContext(target, least - 1))
        table = compute_gamma_table(n_max, PrecisionContext(target, least))
        assert len(table.values) == n_max + 1

    def test_negative_n_max_rejected(self, ctx256):
        with pytest.raises(ValueError):
            compute_gamma_table(-1, ctx256)

    def test_negative_tail_terms_rejected(self):
        # used to return a table whose gamma_0 was 0.577082..., wrong in
        # the 4th digit
        with pytest.raises(ValueError, match="tail_terms"):
            compute_gamma_table(4, PrecisionContext(64, 32), tail_terms=-3)

    @pytest.mark.parametrize("cutoff", [1, 0, -5])
    def test_cutoff_below_two_rejected(self, cutoff):
        # 0 and -5 used to fail inside math.log with "math domain error"
        with pytest.raises(ValueError, match="cutoff"):
            compute_gamma_table(4, PrecisionContext(64, 32), cutoff=cutoff)
        with pytest.raises(ValueError, match="cutoff"):
            euler_maclaurin_parameters(4, PrecisionContext(64, 32), cutoff=cutoff)

    @pytest.mark.parametrize("n_max,ctx", [
        (16, PrecisionContext(192, 64)),
        (58, lambda_context(192, 59)),
        (100, PrecisionContext(1000, 200)),
    ], ids=["16@256", "58@782", "100@1200"])
    def test_rounding_within_eight_bits_of_working(self, n_max, ctx):
        # same M and J, 128 more guard bits: the difference is rounding
        # alone, and it must sit within 2^-(working_bits - 8); a build
        # that rounded every Dirichlet term reached 2^-1191.8 at 1200 bits
        base = compute_gamma_table(n_max, ctx)
        ref = compute_gamma_table(
            n_max, PrecisionContext(ctx.target_bits, ctx.guard_bits + 128))
        with mp.workprec(ctx.working_bits + 160):
            for n in range(n_max + 1):
                assert abs(base[n] - ref[n]) < mp.mpf(2) ** -(ctx.working_bits - 8), n


class TestDirichletSums:
    @pytest.mark.parametrize("m_cut,n_max,w", [(3, 6, 40), (40, 30, 64), (70, 20, 96)])
    def test_within_counted_bound(self, m_cut, n_max, w):
        # the docstring's bound: every S_n / n! within (M^2 + 3M)/2 units
        # of 2^-w of sum_{k<M} (-ln k)^n / (k n!)
        sums = _dirichlet_sums(m_cut, n_max, w)
        bound = mp.mpf(m_cut ** 2 + 3 * m_cut) / 2
        with mp.workprec(w + 128):
            for n, s_n in enumerate(sums):
                exact = sum((-mp.log(k)) ** n / k for k in range(1, m_cut)) / mp.factorial(n)
                err = abs(mp.mpf(s_n) / mp.factorial(n) - mp.ldexp(exact, w))
                assert err < bound, (n, err)


class TestEulerMaclaurinParameters:
    """(M, J) as the working-precision mpf search chose them; the float
    search must return the same."""

    @pytest.mark.parametrize("n_max,target,guard,cutoff,expected", [
        (0, 64, 16, None, (25, 7)),
        (8, 64, 16, None, (25, 8)),
        (16, 192, 64, None, (70, 21)),
        (34, 192, 340, None, (70, 21)),
        (40, 192, 64, None, (80, 20)),
        (58, 192, 590, None, (116, 18)),
        (40, 192, 64, 32, (32, 35)),
        (60, 384, 64, None, (137, 41)),
        (200, 256, 64, None, (400, 18)),
        (100, 1000, 200, None, (352, 105)),
    ])
    def test_pinned(self, n_max, target, guard, cutoff, expected):
        ctx = PrecisionContext(target, guard)
        assert euler_maclaurin_parameters(n_max, ctx, cutoff=cutoff) == expected

    def test_first_cutoff_reaches_the_bound(self):
        # the adaptive cutoff max(16, 2 n, 0.35 (target + 8)) meets the
        # bound at once, and pinning that cutoff gives the same (M, J)
        for target in (1, 8, 53, 64, 113, 192, 256, 400, 700, 1000):
            for n_max in (0, 1, 3, 10, 30, 60):
                ctx = PrecisionContext(target, 0)
                m_cut, tail = euler_maclaurin_parameters(n_max, ctx)
                assert m_cut == max(16, 2 * n_max, 35 * (target + 8) // 100)
                assert euler_maclaurin_parameters(n_max, ctx, cutoff=m_cut) == (m_cut, tail)

    def test_pinned_cutoff_unreachable(self):
        with pytest.raises(PrecisionInfeasibleError):
            euler_maclaurin_parameters(40, PrecisionContext(192, 64), cutoff=16)


class TestPochhammerPolys:
    def test_values(self):
        # j reaches J = 105 at (100, 1000+200); each list evaluated at s
        # must be prod_{i=1}^{2j-1} (s+i), exactly
        for j, poly in zip(range(1, 111), _pochhammer_polys()):
            assert len(poly) == 2 * j
            for s in (0, 1, 2, -3, 7):
                value = sum(c * s ** m for m, c in enumerate(poly))
                assert value == math.prod(s + i for i in range(1, 2 * j)), (j, s)


class TestGammaContour:
    def test_matches_shared_table(self, gamma40, ctx256):
        got = gamma_contour(40, ctx256)
        assert (got.kind, got.provenance, got.n_max) == ("gamma", "contour", 40)
        with mp.workprec(400):
            for n in range(41):
                assert abs(got[n] - gamma40[n]) < mp.mpf(2) ** -200, n

    @pytest.mark.parametrize("n_max,target,guard", [
        (20, 192, 64), (60, 192, 128), (8, 300, 64)])
    def test_matches_higher_precision_reference(self, em_reference, n_max,
                                                target, guard):
        got = gamma_contour(n_max, PrecisionContext(target, guard))
        want, _ = em_reference(n_max, target)
        with mp.workprec(target + 300):
            for n in range(n_max + 1):
                assert abs(got[n] - want[n]) < mp.mpf(2) ** -(target + 8), n

    def test_negative_n_max_raises(self):
        with pytest.raises(ValueError):
            gamma_contour(-1, PrecisionContext(192, 64))


class TestTableFiles:
    def test_json_roundtrip(self, gamma40, tmp_path):
        path = tmp_path / "table.json"
        save_table(gamma40, path)
        loaded = load_table(path)
        assert (loaded.kind, loaded.provenance) == ("gamma", "file")
        assert loaded.n_max == gamma40.n_max
        assert loaded.precision_bits == gamma40.precision_bits
        assert loaded.values == gamma40.values

    def test_csv_roundtrip(self, gamma40, tmp_path):
        path = tmp_path / "table.csv"
        save_table(gamma40, path)
        loaded = load_table(path)
        assert loaded.values == gamma40.values
        assert loaded.precision_bits == gamma40.precision_bits

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("bits", [150, 192, 400])
    def test_roundtrip_is_bit_exact(self, tmp_path, bits, fmt):
        # ceil(0.302 bits) digits are too few to read back every value:
        # they moved gamma_7 at 150 bits, gamma_7 and gamma_30 at 400, and
        # six values at 192 by an ulp; the file's one digit more moves none
        table = compute_gamma_table(40, PrecisionContext(bits - 64, 64))
        path = tmp_path / f"table.{fmt}"
        save_table(table, path)
        assert load_table(path).values == table.values

    def test_save_load_save_is_stable(self, gamma40, tmp_path):
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        save_table(gamma40, p1)
        save_table(load_table(p1), p2)
        assert p1.read_text() == p2.read_text()

    def test_entry_count_mismatch(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "convention": "paper", "precision_bits": 64,
            "n_max": 4, "values": ["1", "2", "3", "4"]}))
        with pytest.raises(TableFormatError):
            load_table(path)

    def test_unknown_convention_tag(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "convention": "mystery", "precision_bits": 64,
            "n_max": 0, "values": ["1"]}))
        with pytest.raises(TableFormatError):
            load_table(path)

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "junk.csv"
        path.write_text("this is not a table\n")
        with pytest.raises(TableFormatError):
            load_table(path)

    def test_csv_missing_metadata(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("n,value\n0,0.5\n")
        with pytest.raises(TableFormatError):
            load_table(path)

    def test_csv_rows_out_of_order(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# convention=paper\n# precision_bits=64\n"
                        "n,value\n1,0.5\n0,0.1\n")
        with pytest.raises(TableFormatError):
            load_table(path)

    def test_values_not_a_list(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "convention": "paper", "precision_bits": 64,
            "n_max": 0, "values": "0.5"}))
        with pytest.raises(TableFormatError):
            load_table(path)

    def test_bad_value_string(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "convention": "paper", "precision_bits": 64,
            "n_max": 0, "values": ["zero point five"]}))
        with pytest.raises(TableFormatError):
            load_table(path)

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "+inf"])
    def test_non_finite_value_rejected(self, tmp_path, raw):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "convention": "paper", "precision_bits": 64,
            "n_max": 1, "values": ["0.5", raw]}))
        with pytest.raises(TableFormatError, match="non-finite"):
            load_table(path)

    def test_csv_non_finite_value_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# convention=paper\n# precision_bits=64\n"
                        "n,value\n0,0.5\n1,nan\n")
        with pytest.raises(TableFormatError, match="non-finite"):
            load_table(path)

    @pytest.mark.parametrize("name,text,message", [
        ("bad.json", "{not json",
         "not valid JSON: Expecting property name enclosed in double quotes: "
         "line 1 column 2 (char 1)"),
        ("bad.csv", "# convention=paper\n# precision_bits=64\nn,value\n0 0.5\n",
         "bad row '0 0.5'"),
        ("bad.csv", "# convention=paper\n# precision_bits=64\n",
         "no 'n,value' header found"),
        ("bad.csv", "# convention=paper\n# precision_bits=64\nn,value\nzero,0.5\n",
         "bad index 'zero'"),
        ("bad.json", json.dumps({"convention": "paper", "precision_bits": 0,
                                 "n_max": 0, "values": ["1"]}),
         "precision_bits/n_max out of range"),
        ("bad.json", json.dumps({"convention": "paper", "precision_bits": 64,
                                 "n_max": -1, "values": []}),
         "precision_bits/n_max out of range"),
    ], ids=["invalid-json", "csv-row-without-comma", "csv-without-header",
            "csv-index-not-integer", "precision-bits-0", "n-max-negative"])
    def test_refusal_message(self, tmp_path, name, text, message):
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(TableFormatError) as err:
            load_table(path)
        assert str(err.value) == message

    def test_literature_table_ingestion(self, gamma40, classic_stieltjes, tmp_path):
        # classic-normalization values from an independent source
        # (mpmath's own Stieltjes computation), converted as they load
        for fmt in ("json", "csv"):
            path = tmp_path / f"literature.{fmt}"
            path.write_text(classic_table_text(classic_stieltjes(150), 150, fmt),
                            encoding="utf-8")
            paper = load_table(path)
            assert (paper.provenance, paper.precision_bits, paper.n_max) == (
                "file", 150, 8)
            with mp.workprec(200):
                for n in range(9):
                    assert abs(paper[n] - gamma40[n]) < mp.mpf(2) ** -130, (fmt, n)
        # a loaded classic table is saved in the paper normalization
        save_table(paper, tmp_path / "saved.json")
        saved = json.loads((tmp_path / "saved.json").read_text())
        assert saved["convention"] == "paper"
