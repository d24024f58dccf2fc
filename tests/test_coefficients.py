from fractions import Fraction

import mpmath as mp
import pytest

from zetali import (
    CoefficientTable,
    PrecisionContext,
    eta_contour,
    eta_from_gamma_explicit,
    eta_from_gamma_recurrence,
    eta_series_oracle,
    expand_eta_symbolic,
    expand_gamma_symbolic,
    gamma_from_eta_explicit,
    modified_gamma,
    partition_count,
)
from helpers import (
    ETA_EXPANSIONS,
    GAMMA_EXPANSIONS,
    poly_compose,
    poly_normalize,
    rel_diff,
)


class TestModifiedGamma:
    def test_values(self):
        assert modified_gamma(0) == 1
        assert modified_gamma(1) == 1
        assert modified_gamma(2) == 1
        assert modified_gamma(5) == 24

    def test_negative(self):
        with pytest.raises(ValueError):
            modified_gamma(-1)


class TestRecurrence:
    def test_eta0(self, gamma40, eta40, ctx256):
        with ctx256.workprec():
            assert eta40[0] == -gamma40[0]

    def test_eta1_substitution(self, gamma40, eta40, ctx256):
        with ctx256.workprec():
            direct = gamma40[0] ** 2 - 2 * gamma40[1]
            assert abs(eta40[1] - direct) < mp.mpf(2) ** -(ctx256.working_bits - 16)

    def test_provenance_and_length(self, eta40):
        assert eta40.provenance == "recurrence"
        assert len(eta40) == 41

    def test_table_too_short(self, gamma40, ctx256):
        with pytest.raises(ValueError):
            eta_from_gamma_recurrence(gamma40, 41, ctx256)


class TestExplicit:
    def test_n1_is_minus_gamma0(self, gamma40, ctx256):
        got = eta_from_gamma_explicit(gamma40, 1, ctx256)
        with ctx256.workprec():
            assert got == -gamma40[0]

    def test_n3_fixture(self, gamma40, ctx256):
        with ctx256.workprec():
            g0, g1, g2 = gamma40[0], gamma40[1], gamma40[2]
            want = -g0 ** 3 + 3 * g0 * g1 - 3 * g2
            got = eta_from_gamma_explicit(gamma40, 3, ctx256)
            assert abs(got - want) < mp.mpf(2) ** -(ctx256.working_bits - 16)

    def test_cross_method_to_30(self, gamma40, eta40, ctx256):
        with ctx256.workprec():
            for n in range(1, 31):
                got = eta_from_gamma_explicit(gamma40, n, ctx256)
                tol = mp.mpf(2) ** -(ctx256.working_bits - 8 * n)
                assert rel_diff(eta40[n - 1], got) < tol, n

    def test_table_too_short(self, gamma40, ctx256):
        with pytest.raises(ValueError):
            eta_from_gamma_explicit(gamma40, 42, ctx256)


class TestSeriesOracle:
    def test_leading_coefficient(self, gamma40, ctx256):
        ser = eta_series_oracle(gamma40, 5, ctx256)
        with ctx256.workprec():
            assert abs(ser[0] + gamma40[0]) < mp.mpf(2) ** -(ctx256.working_bits - 8)

    def test_cross_method_to_40(self, gamma40, eta40, ctx256):
        ser = eta_series_oracle(gamma40, 40, ctx256)
        tol = mp.mpf(2) ** -(ctx256.working_bits - 16)
        with ctx256.workprec():
            for n in range(41):
                assert rel_diff(eta40[n], ser[n]) < tol, n

    def test_synthetic_geometric_pattern(self, ctx256):
        # gamma = (1, 0, 0, ...) makes the generating function 1 + s, whose
        # negated logarithmic derivative is -1/(1+s) = -1 + s - s^2 + ...
        with ctx256.workprec():
            vals = tuple(mp.mpf(1 if i == 0 else 0) for i in range(7))
        synth = CoefficientTable("gamma", "file", vals, ctx256.working_bits)
        ser = eta_series_oracle(synth, 6, ctx256)
        with ctx256.workprec():
            for n in range(7):
                want = -1 if n % 2 == 0 else 1
                assert abs(ser[n] - want) < mp.mpf(2) ** -(ctx256.working_bits - 8)

    def test_provenance(self, gamma40, ctx256):
        assert eta_series_oracle(gamma40, 3, ctx256).provenance == "series_oracle"


class TestInversion:
    def test_n1(self, eta40, ctx256):
        got = gamma_from_eta_explicit(eta40, 1, ctx256)
        with ctx256.workprec():
            assert got == -eta40[0]

    def test_n2_fixture(self, eta40, ctx256):
        with ctx256.workprec():
            want = (eta40[0] ** 2 - eta40[1]) / 2
            got = gamma_from_eta_explicit(eta40, 2, ctx256)
            assert abs(got - want) < mp.mpf(2) ** -(ctx256.working_bits - 16)

    def test_roundtrip_to_30(self, gamma40, eta40, ctx256):
        with ctx256.workprec():
            for n in range(1, 31):
                back = gamma_from_eta_explicit(eta40, n, ctx256)
                tol = mp.mpf(2) ** -(ctx256.working_bits - 8 * n)
                assert rel_diff(gamma40[n - 1], back) < tol, n


class TestEtaContour:
    def test_matches_shared_table(self, eta40, ctx256):
        got = eta_contour(40, ctx256)
        assert (got.kind, got.provenance, got.n_max) == ("eta", "contour", 40)
        with mp.workprec(400):
            for n in range(41):
                assert abs(got[n] - eta40[n]) < mp.mpf(2) ** -200, n

    @pytest.mark.parametrize("n_max,target,guard", [
        (20, 192, 64), (60, 192, 128), (8, 300, 64)])
    def test_matches_higher_precision_reference(self, em_reference, n_max,
                                                target, guard):
        got = eta_contour(n_max, PrecisionContext(target, guard))
        _, want = em_reference(n_max, target)
        with mp.workprec(target + 300):
            for n in range(n_max + 1):
                assert abs(got[n] - want[n]) < mp.mpf(2) ** -(target + 8), n

    def test_samples_stay_right_of_the_branch_cut(self, monkeypatch):
        # the principal log is the analytic branch only while every
        # sampled s zeta(1+s) keeps a positive real part; the minimum,
        # 1/2, is at the sample s = -1
        seen = []
        log = mp.log

        def recording_log(z):
            seen.append(z)
            return log(z)

        monkeypatch.setattr(mp, "log", recording_log)
        ctx = PrecisionContext(192, 64)
        eta_contour(20, ctx)
        assert len(seen) == 67  # N/2 + 1 points for N = 132
        with ctx.workprec():
            assert min(z.real for z in seen) >= mp.mpf(1) / 2 - mp.mpf(2) ** -100

    def test_negative_n_max_raises(self):
        with pytest.raises(ValueError):
            eta_contour(-1, PrecisionContext(192, 64))


class TestContourIndependence:
    def test_no_table_code_runs(self, monkeypatch, capsys):
        # the contour routes check the tables, so they must not share
        # the code that builds or transforms them
        import zetali.cli
        import zetali.coefficients
        import zetali.numerics
        import zetali.stieltjes
        from zetali.stieltjes import gamma_contour

        def boom(*args, **kwargs):
            raise AssertionError("a contour route reached table code")

        names = ("compute_gamma_table", "euler_maclaurin_parameters",
                 "_dirichlet_sums", "eta_from_gamma_recurrence", "series_recip")
        modules = (zetali.stieltjes, zetali.coefficients, zetali.numerics, zetali.cli)
        for module in modules:
            for name in names:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, boom)
        ctx = PrecisionContext(64, 24)
        assert gamma_contour(3, ctx).n_max == 3
        assert eta_contour(3, ctx).n_max == 3
        assert zetali.cli.main(["eta", "--method", "contour", "--n-max", "3"]) == 0
        assert "provenance=contour" in capsys.readouterr().out


class TestSymbolicEta:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_published_lines(self, n):
        assert expand_eta_symbolic(n).terms == ETA_EXPANSIONS[n]

    def test_n5_coefficient_multiset(self):
        exp = expand_eta_symbolic(5)
        assert sorted(int(c) for c in exp.terms.values()) == \
            [-5, -5, -5, -1, 5, 5, 5]

    def test_sign_law_and_integrality(self):
        for n in range(1, 26):
            for k, coeff in expand_eta_symbolic(n).terms.items():
                assert coeff.denominator == 1
                p = sum(k)
                assert (coeff > 0) == (p % 2 == 0), (n, k)

    def test_term_count_is_partition_count(self):
        for n in range(1, 26):
            assert len(expand_eta_symbolic(n).terms) == partition_count(n)

    def test_canonical_key_order(self):
        for n in (3, 7, 12):
            keys = list(expand_eta_symbolic(n).terms)
            assert keys == sorted(keys)

    def test_nonpositive_index_refused(self):
        with pytest.raises(ValueError) as err:
            expand_eta_symbolic(0)
        assert str(err.value) == "n must be positive"

    def test_json_shape(self):
        obj = expand_eta_symbolic(2).to_json_obj()
        assert obj == {
            "target": "eta", "n": 2,
            "terms": [{"k": [0, 1, 0], "coeff": "-2/1"},
                      {"k": [2, 0, 0], "coeff": "1/1"}]}


class TestSymbolicGamma:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_published_lines(self, n):
        assert expand_gamma_symbolic(n).terms == GAMMA_EXPANSIONS[n]

    def test_n_factorial_times_coefficient_is_integer(self):
        import math
        for n in range(1, 26):
            fac = math.factorial(n)
            for coeff in expand_gamma_symbolic(n).terms.values():
                assert (fac * coeff).denominator == 1, n

    def test_composition_collapses_to_identity(self):
        # substituting the eta expansions into the gamma expansion of
        # index n must produce exactly the monomial gamma_{n-1}
        eta_polys = {}

        def eta_in_gamma(i):
            if i not in eta_polys:
                eta_polys[i] = poly_normalize(expand_eta_symbolic(i + 1).terms)
            return eta_polys[i]

        for n in range(1, 9):
            outer = poly_normalize(expand_gamma_symbolic(n).terms)
            composed = poly_compose(outer, eta_in_gamma)
            expected_key = tuple(1 if i == n - 1 else 0
                                 for i in range(max(len(k) for k in composed)))
            assert composed == {expected_key: Fraction(1)}, n
