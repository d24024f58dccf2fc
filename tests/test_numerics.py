import enum
import json
import math
import random
import re
from array import array
from fractions import Fraction

import mpmath as mp
import pytest
from mpmath.libmp import from_man_exp, round_nearest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zetali import (
    PrecisionContext,
    bernoulli,
    decimal_digits,
    from_decimal,
    rational_to_str,
    render,
    series_derivative,
    series_mul,
    series_recip,
    to_decimal,
)
from zetali.cli import main
from zetali.numerics import (
    pack_raw,
    packed_size,
    raw_to_mpf,
    round_raw,
    rounded_product,
    to_raw,
    unpack_mpfs,
    weighted_sum,
)
from helpers import eval_series

CTX = PrecisionContext(128, 64)


class TestPrecisionContext:
    def test_working_bits(self):
        assert PrecisionContext(192, 64).working_bits == 256
        assert PrecisionContext(10, 0).working_bits == 10

    def test_validation(self):
        with pytest.raises(ValueError):
            PrecisionContext(0, 64)
        with pytest.raises(ValueError):
            PrecisionContext(64, -1)

    def test_immutable(self):
        ctx = PrecisionContext(64, 8)
        with pytest.raises(Exception):
            ctx.target_bits = 128

    def test_guard_policy(self, capsys):
        # the library has no guard policy; the CLI's --guard auto grows the
        # guard past 64 bits at n_max 32 for tables and at n 7 for li
        for argv, bits in ((["stieltjes", "--n-max", "31"], 256),
                           (["stieltjes", "--n-max", "40"], 272),
                           (["li", "--n-max", "6"], 256),
                           (["li", "--n-max", "7"], 262)):
            assert main(argv) == 0
            assert capsys.readouterr().out.splitlines()[1] == f"# precision_bits={bits}"


class TestDecimalSerialization:
    def test_digit_rule(self):
        # exact integer ceil of bits * 0.302
        assert decimal_digits(256) == 78
        assert decimal_digits(192) == 58
        assert decimal_digits(53) == 17
        assert decimal_digits(1000) == 302

    def test_nonpositive_bits_refused(self):
        with pytest.raises(ValueError) as err:
            decimal_digits(0)
        assert str(err.value) == "bits must be positive"

    def test_grammar(self):
        pat = re.compile(r"^[+-]?[0-9]*(\.[0-9]*)?([eE][+-]?[0-9]+)?$")
        with CTX.workprec():
            samples = [mp.mpf("0.125"), mp.mpf(0), -mp.mpf(3) / 7,
                       mp.mpf("1e-40"), mp.mpf("-2.5e33")]
        for x in samples:
            assert pat.match(to_decimal(x, CTX.working_bits))

    def test_ambient_precision_independent(self):
        with CTX.workprec():
            x = mp.mpf(1) / 3
        before = to_decimal(x, CTX.working_bits)
        old = mp.mp.prec
        try:
            mp.mp.prec = 7
            assert to_decimal(x, CTX.working_bits) == before
        finally:
            mp.mp.prec = old

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=2 ** 191, max_value=2 ** 192 - 1),
           st.integers(min_value=-220, max_value=200),
           st.booleans())
    def test_roundtrip_within_one_last_place_unit(self, mantissa, exponent, negative):
        bits = 192
        with mp.workprec(bits):
            x = mp.ldexp(mp.mpf(mantissa), exponent - 192)
            if negative:
                x = -x
        back = from_decimal(to_decimal(x, bits), bits)
        # one unit in the last place of the 58-significant-digit decimal form
        with mp.workprec(300):
            e10 = int(mp.floor(mp.log10(abs(x))))
            dec_ulp = mp.mpf(10) ** (e10 - decimal_digits(bits) + 1)
            assert abs(back - x) <= dec_ulp

    def test_zero_roundtrip(self):
        assert from_decimal(to_decimal(mp.mpf(0), 128), 128) == 0

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 1100),
           st.integers(min_value=-5000, max_value=5000),
           st.booleans(),
           st.sampled_from([1, 2, 53, 128, 192, 256, 1000]))
    @example(0, 0, False, 256)
    @example(1, -4000, True, 192)
    @example(3, -1100, False, 53)
    def test_equals_nstr(self, mantissa, exponent, negative, bits):
        x = mp.mpf(from_man_exp(-mantissa if negative else mantissa, exponent))
        assert to_decimal(x, bits) == mp.nstr(x, decimal_digits(bits),
                                              strip_zeros=False)


# JSON values: strings and keys with quotes, backslashes, control and
# non-ASCII characters; ints wider than 64 bits; bools among ints
_json_text = st.text(st.sampled_from('"\\/\x00\x08\t\n\x1f\x7f aé€\U0001f600')
                     | st.characters())
_json_leaves = (st.none() | st.booleans()
                | st.integers(min_value=-2 ** 200, max_value=2 ** 200)
                | st.floats() | st.sampled_from([-0.0, 1e300, -1e-300]) | _json_text)
_json_values = st.recursive(
    _json_leaves,
    lambda inner: (st.lists(inner, max_size=5)
                   | st.lists(inner, max_size=5).map(tuple)
                   | st.lists(st.integers(min_value=-2 ** 70, max_value=2 ** 70)
                              | st.booleans(), max_size=5)
                   | st.dictionaries(_json_text, inner, max_size=5)),
    max_leaves=30)


class _Level(enum.IntEnum):
    """An int subclass whose ``repr`` is not its JSON text."""

    LOW = 1
    HIGH = 7


class TestRender:
    def test_csv_rows(self):
        scalars = {"tag": "a", "bits": 8, "values": ["0.5", "-1"]}
        assert render("csv", scalars, ("tag", "bits"), "n,value") == (
            "# tag=a\n# bits=8\nn,value\n0,0.5\n1,-1\n")
        dicts = {"n": 2, "terms": [{"k": [0, 1, 0], "coeff": "-2/1"},
                                   {"k": [2, 0, 0], "coeff": "1/1"}]}
        assert render("csv", dicts, ("n",), "k,coeff") == (
            "# n=2\nk,coeff\n0 1 0,-2/1\n2 0 0,1/1\n")
        assert render("csv", {"n": 0, "records": []}, (), "n,x") == "n,x\n"

    def test_json(self):
        obj = {"n": 1, "values": ["0.5"]}
        assert render("json", obj, ("n",), "n,value") == (
            '{\n  "n": 1,\n  "values": [\n    "0.5"\n  ]\n}\n')

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            render("xml", {"values": []}, (), "n,value")

    @settings(max_examples=300, deadline=None)
    @given(st.dictionaries(_json_text, _json_values, max_size=5))
    @example({"a": {}, "b": [], "c": [{}, [[]], {"d": {}}]})
    @example({"t": (1, (2, 3), ()), "mixed": [1, True, 0, False, -1]})
    @example({"bools": [True, False], "subclass": [_Level.LOW, 2], "only": [_Level.HIGH]})
    @example({"ints": [-1, 2 ** 64, -2 ** 200, 0], "none": None,
              "floats": [-0.0, 1e300, 0.5]})
    @example({'q"uo\\te\n\x01é': 'v"\\\x1f€\U0001f600'})
    def test_json_is_json_dumps_indent_2(self, obj):
        assert render("json", obj, (), "") == json.dumps(obj, indent=2) + "\n"


class TestWeightedSum:
    def test_rounds_once(self):
        with mp.workprec(256):
            big = mp.mpf(2) ** 300
            terms = [big, mp.mpf(1), -big]
            sequential = mp.mpf(0)
            for x in terms:
                sequential += x
        assert sequential == 0
        assert weighted_sum([(1, to_raw(x)) for x in terms], 256) == 1

    def test_order_independent(self):
        rng = random.Random(5)
        with mp.workprec(256):
            terms = [(rng.randrange(1, 10 ** 12), to_raw(mp.mpf(rng.uniform(-1, 1))
                      * mp.mpf(2) ** rng.randrange(-300, 300))) for _ in range(60)]
        total = weighted_sum(terms, 256)
        for _ in range(5):
            rng.shuffle(terms)
            assert weighted_sum(terms, 256) == total

    def test_zeros_and_empty(self):
        assert weighted_sum([], 256) == 0
        zero = to_raw(mp.mpf(0))
        assert zero[0] == 0
        with mp.workprec(256):
            x = mp.mpf(1) / 7
            assert weighted_sum([(7, zero), (0, to_raw(x)), (3, zero)], 256) == 0
            assert weighted_sum([(2, zero), (3, to_raw(x))], 256) == 3 * x

    def test_non_finite_rejected(self):
        for bad in (mp.inf, -mp.inf, mp.nan):
            with pytest.raises(ValueError):
                weighted_sum(((1, to_raw(x)) for x in (mp.mpf(1), bad)), 256)

    @pytest.mark.parametrize("bits", [53, 256, 1000])
    def test_equals_fsum_rounded_once(self, bits):
        rng = random.Random(bits)
        with mp.workprec(bits):
            terms = [(rng.randrange(-10 ** 30, 10 ** 30), mp.mpf(rng.uniform(-1, 1))
                      / 3 * mp.mpf(2) ** rng.randrange(-200, 200)) for _ in range(200)]
        with mp.workprec(4 * bits + 2000):  # holds the exact sum
            exact = mp.fsum(mp.fmul(w, x, exact=True) for w, x in terms)
        with mp.workprec(bits):
            assert weighted_sum([(w, to_raw(x)) for w, x in terms], bits) == +exact


class TestRoundedProduct:
    """The raw product against ``mpf * mpf`` at the same precision, bit
    for bit."""

    @staticmethod
    def _check(x, y, bits):
        """``x``, ``y`` raw pairs; returns the raw product."""
        got = rounded_product(bits)(x, y)
        with mp.workprec(bits):
            want = mp.mpf(x) * mp.mpf(y)
        assert from_man_exp(*got) == want._mpf_
        return got

    @pytest.mark.parametrize("bits", [53, 256, 1000])
    def test_random(self, bits):
        rng = random.Random(bits)
        for _ in range(500):
            x, y = ((rng.choice((-1, 1)) * rng.getrandbits(rng.randrange(1, bits + 1)),
                     rng.randrange(-3 * bits, 3 * bits)) for _ in range(2))
            self._check(x, y, bits)

    @pytest.mark.parametrize("bits", [53, 256, 1000])
    def test_exact_ties_round_to_even(self, bits):
        # 3 * y for odd y of bits bits below 2^(bits+1)/3 has bits + 1
        # bits and ends in 1: the dropped part is exactly one half.  As
        # (3 << 7, -7) the same tie drops 1 followed by seven zeros.
        rng = random.Random(bits)
        parities = set()
        while len(parities) < 2:
            y = rng.randrange(1 << (bits - 1), (1 << (bits + 1)) // 3) | 1
            kept = 3 * y >> 1
            even = kept + (kept & 1)
            for x, want in (((3, 0), (even, 1)), ((3 << 7, -7), (even, 1)),
                            ((-3, 5), (-even, 6))):
                got = self._check(x, (y, 0), bits)
                assert from_man_exp(*got) == from_man_exp(*want)
            parities.add(kept & 1)

    @pytest.mark.parametrize("bits", [53, 256, 1000])
    def test_carry_to_power_of_two(self, bits):
        # (2^a + 1)(2^a - 1) = 2^(2a) - 1, all ones, rounds up to 2^(2a)
        a = bits - 1
        man, exp = self._check(((1 << a) + 1, 4), (-(1 << a) + 1, -9), bits)
        assert man == -(1 << bits) and exp == 2 * a - bits - 5

    @pytest.mark.parametrize("bits", [53, 256, 1000])
    def test_exact_product_unchanged(self, bits):
        assert self._check((3, 1), (-5, 2), bits) == (-15, 3)
        half = (1 << (bits // 2)) - 1
        assert self._check((half, 0), (half, -1), bits) == (half * half, -1)


    @pytest.mark.parametrize("bits", [53, 256, 1000])
    def test_negative_exact_ties_round_to_even(self, bits):
        # as above, with the minus sign on either operand or on both:
        # the signed mantissa's floor must round a tie as its magnitude
        rng = random.Random(-bits)
        parities = set()
        while len(parities) < 2:
            y = rng.randrange(1 << (bits - 1), (1 << (bits + 1)) // 3) | 1
            kept = 3 * y >> 1
            even = kept + (kept & 1)
            for x, y_raw, want in (((-3, 0), (y, 0), (-even, 1)),
                                   ((3, 2), (-y, 0), (-even, 3)),
                                   ((-3 << 5, -5), (-y, 1), (even, 2))):
                got = self._check(x, y_raw, bits)
                assert from_man_exp(*got) == from_man_exp(*want)
            parities.add(kept & 1)

    @pytest.mark.parametrize("bits", [53, 256, 1000])
    @pytest.mark.parametrize("signs", [(1, 1), (-1, -1), (-1, 1)])
    def test_carry_to_power_of_two_signs(self, bits, signs):
        # the all-ones product of test_carry_to_power_of_two, with the
        # minus sign moved, rounds to +-2^bits
        a = bits - 1
        sx, sy = signs
        man, exp = self._check((sx * ((1 << a) + 1), 4), (sy * ((1 << a) - 1), -9), bits)
        assert man == sx * sy * (1 << bits) and exp == 2 * a - bits - 5


class TestRawToMpf:
    """:func:`raw_to_mpf` against ``from_man_exp(..., round_nearest)``,
    ``_mpf_`` for ``_mpf_``."""

    @staticmethod
    def _check(man, exp, bits):
        got = raw_to_mpf(man, exp, bits)
        assert isinstance(got, mp.mpf)
        want = from_man_exp(man, exp, bits, round_nearest)
        assert got._mpf_ == want
        # round_raw is the same rounding, without the bit count
        assert round_raw(man, exp, bits) == want[:3]

    @pytest.mark.parametrize("bits", [53, 256, 412, 1000])
    def test_edges(self, bits):
        one = 1 << bits
        for sign in (1, -1):
            for man in (0, 1, 3 << 40, (2 * one - 1), (one + 1) << 7, 3 * one + 1,
                        (2 * one + 1) << 1, (2 * one + 3) << 1, (2 * one + 1) << 9,
                        (one - 1) << 300):
                for exp in (0, -bits, 17):
                    self._check(sign * man, exp, bits)

    @pytest.mark.parametrize("bits", [53, 256, 412, 1000])
    def test_random(self, bits):
        rng = random.Random(bits)
        for _ in range(500):
            man = rng.getrandbits(rng.randrange(1, 3 * bits)) << rng.randrange(0, 2 * bits)
            self._check(rng.choice((-1, 1)) * man, rng.randrange(-3 * bits, 3 * bits), bits)


class TestPackMpfs:
    """``mpf`` values packed by :func:`pack_raw` from their raw pairs come
    back from :func:`unpack_mpfs`, ``_mpf_`` for ``_mpf_`` and in order,
    in :func:`packed_size` bytes; a value of more than ``bits`` bits
    comes back as :func:`raw_to_mpf` rounds it."""

    @pytest.mark.parametrize("bits", [1, 53, 256, 432, 1000])
    def test_round_trip(self, bits):
        rng = random.Random(bits)
        with mp.workprec(bits):
            values = [mp.mpf(0), mp.mpf(1), -mp.mpf(1), mp.mpf(2) ** -5000,
                      -mp.mpf(3) ** 700]
            for _ in range(200):
                man = rng.getrandbits(rng.randrange(1, bits + 1))
                values.append(mp.ldexp(rng.choice((-1, 1)) * man, rng.randrange(-4 * bits, 4 * bits)))
        parts = pack_raw(((0, 0, to_raw(v)) for v in values), [[1]], bits)
        assert len(parts) == 1
        assert sum(len(buf) + codes.itemsize * len(codes) for buf, codes in parts) == \
            packed_size(len(values), bits)
        got = unpack_mpfs(parts, bits)
        assert isinstance(got, tuple) and all(isinstance(v, mp.mpf) for v in got)
        assert [v._mpf_ for v in got] == [v._mpf_ for v in values]

    @pytest.mark.parametrize("bits", [1, 53, 432])
    def test_weighted_rounded_grouped(self, bits):
        # weights[r][p] scales each term, which is then rounded once; the
        # values come r ascending, each r in the order its terms came
        rng = random.Random(-bits)
        weights = [[rng.randrange(-10**9, 10**9) for _ in range(3)] for _ in range(4)]
        terms = [(rng.randrange(4), rng.randrange(3),
                  (rng.choice((-1, 1)) * rng.getrandbits(rng.randrange(1, 2 * bits + 40)),
                   rng.randrange(-3 * bits, 3 * bits)))
                 for _ in range(300)]
        parts = pack_raw(iter(terms), weights, bits)
        assert [len(codes) for _, codes in parts] == [
            sum(r == group for r, _, _ in terms) for group in range(4)]
        want = [raw_to_mpf(weights[r][p] * man, exp, bits)._mpf_
                for group in range(4) for r, p, (man, exp) in terms if r == group]
        assert [v._mpf_ for v in unpack_mpfs(parts, bits)] == want
        # a part no longer held is not needed: each is read in turn
        assert [v._mpf_ for v in unpack_mpfs(iter(parts), bits)] == want

    def test_shared_ints(self):
        # values of one exponent share its int, whatever their sign and
        # part, and values of one bit count share theirs
        bits = 300
        pairs = [((-1) ** k * ((1 << 299) + 2 * k + 1), -1000) for k in range(50)]
        parts = pack_raw(((k % 3, 0, pair) for k, pair in enumerate(pairs)), [[1]] * 3, bits)
        got = unpack_mpfs(parts, bits)
        want = [raw_to_mpf(man, exp, bits)._mpf_ for r in range(3)
                for k, (man, exp) in enumerate(pairs) if k % 3 == r]
        assert [v._mpf_ for v in got] == want
        assert {v._mpf_[0] for v in got} == {0, 1}
        assert len({id(v._mpf_[2]) for v in got}) == 1
        assert len({id(v._mpf_[3]) for v in got}) == 1

    def test_empty(self):
        assert unpack_mpfs(pack_raw([], [[1]], 64), 64) == ()
        assert pack_raw([], [[1], [1]], 64) == [(b"", array("q"))] * 2


class TestToRaw:
    def test_value(self):
        with mp.workprec(256):
            x = -mp.mpf(1) / 3
        man, exp = to_raw(x)
        assert man < 0 and from_man_exp(man, exp) == x._mpf_
        assert to_raw(mp.mpf(0)) == (0, 0)

    def test_non_finite_rejected(self):
        for bad in (mp.inf, -mp.inf, mp.nan):
            with pytest.raises(ValueError):
                to_raw(bad)


class TestRationals:
    def test_str_roundtrip(self):
        for q in (Fraction(-691, 2730), Fraction(5), Fraction(0), Fraction(1, 3)):
            assert Fraction(rational_to_str(q)) == q

    def test_lowest_terms_and_denominator(self):
        assert rational_to_str(Fraction(2, 4)) == "1/2"
        assert rational_to_str(Fraction(3)) == "3/1"


class TestBernoulli:
    def test_known_values(self):
        assert bernoulli(0) == Fraction(1)
        assert bernoulli(1) == Fraction(-1, 2)
        assert bernoulli(2) == Fraction(1, 6)
        assert bernoulli(12) == Fraction(-691, 2730)

    def test_odd_are_zero(self):
        for m in (3, 5, 7, 21):
            assert bernoulli(m) == 0

    def test_defining_recurrence(self):
        # sum_{j=0}^{m} C(m+1, j) B_j == 0, exactly, for every m up to
        # past B_212, the highest the (100, 1000+200) table build asks for
        for m in range(2, 241):
            total = sum(math.comb(m + 1, j) * bernoulli(j) for j in range(m + 1))
            assert total == 0, m

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            bernoulli(-2)


def _series(coeffs, ctx=CTX):
    """A truncated series: the tuple of its mpf coefficients."""
    with ctx.workprec():
        return tuple(mp.mpf(c) for c in coeffs)


def _random_series(seed, order, ctx=CTX):
    rng = random.Random(seed)
    return _series([rng.uniform(-1, 1) for _ in range(order + 1)], ctx)


class TestSeriesMul:
    def test_identity(self):
        one = _series([1, 0], CTX)
        f = _series(["0.25", "-3.5"], CTX)
        assert series_mul(one, f, CTX) == f

    def test_difference_of_squares(self):
        a = _series([1, 1, 0], CTX)
        b = _series([1, -1, 0], CTX)
        prod = series_mul(a, b, CTX)
        assert prod == (mp.mpf(1), mp.mpf(0), mp.mpf(-1))

    def test_against_schoolbook_double_loop(self):
        a = _random_series(101, 7)
        b = _random_series(202, 7)
        prod = series_mul(a, b, CTX)
        with CTX.workprec():
            for k in range(8):
                acc = mp.mpf(0)
                for i in range(8):
                    for j in range(8):
                        if i + j == k:
                            acc += a[i] * b[j]
                assert abs(prod[k] - acc) <= mp.mpf(2) ** -(CTX.working_bits - 8)

    def test_order_mismatch(self):
        with pytest.raises(ValueError, match=r"^truncation orders differ: 1 != 2$"):
            series_mul(_series([1, 2], CTX), _series([1, 2, 3], CTX), CTX)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(-4, 4), min_size=1, max_size=6),
           st.lists(st.floats(-4, 4), min_size=1, max_size=6),
           st.lists(st.floats(-4, 4), min_size=1, max_size=6))
    def test_commutative_associative(self, xs, ys, zs):
        order = max(len(xs), len(ys), len(zs)) - 1
        pad = lambda v: v + [0.0] * (order + 1 - len(v))
        a = _series(pad(xs), CTX)
        b = _series(pad(ys), CTX)
        c = _series(pad(zs), CTX)
        tol = mp.mpf(2) ** -(CTX.working_bits - 16)
        ab = series_mul(a, b, CTX)
        ba = series_mul(b, a, CTX)
        left = series_mul(ab, c, CTX)
        right = series_mul(a, series_mul(b, c, CTX), CTX)
        with CTX.workprec():
            scale = max(1, *(abs(v) for v in left))
            for u, v in zip(ab, ba):
                assert abs(u - v) <= tol * scale
            for u, v in zip(left, right):
                assert abs(u - v) <= tol * scale


class TestSeriesRecip:
    def test_identity(self):
        one = _series([1, 0, 0], CTX)
        assert series_recip(one, CTX) == one

    def test_geometric(self):
        r = series_recip(_series([1, 1, 0, 0], CTX), CTX)
        assert r == (mp.mpf(1), mp.mpf(-1), mp.mpf(1), mp.mpf(-1))

    def test_multiply_back(self):
        a = _random_series(7, 9)
        a = _series([1] + list(a[1:]), CTX)
        prod = series_mul(a, series_recip(a, CTX), CTX)
        tol = mp.mpf(2) ** -(CTX.working_bits - 8)
        with CTX.workprec():
            assert abs(prod[0] - 1) <= tol
            for c in prod[1:]:
                assert abs(c) <= tol

    def test_zero_constant_term(self):
        with pytest.raises(ZeroDivisionError, match="^constant term is zero$"):
            series_recip(_series([0, 1], CTX), CTX)


class TestSeriesDerivative:
    def test_constant(self):
        d = series_derivative(_series([5], CTX), CTX)
        assert d == (mp.mpf(0),)

    def test_termwise(self):
        d = series_derivative(_series([1, 2, 3], CTX), CTX)
        assert d == (mp.mpf(2), mp.mpf(6))

    def test_finite_difference(self):
        f = _random_series(55, 8)
        d = series_derivative(f, CTX)
        with CTX.workprec():
            h = mp.mpf(2) ** -30
            central = (eval_series(f, h)
                       - eval_series(f, -h)) / (2 * h)
            scale = sum(abs(c) for c in f)
            assert abs(central - d[0]) <= 2 * scale * h ** 2


class TestDeterminism:
    def test_bit_identical_repeat(self):
        a = _random_series(11, 6)
        b = _random_series(12, 6)
        s1 = [to_decimal(c, CTX.working_bits)
              for c in series_mul(a, b, CTX)]
        s2 = [to_decimal(c, CTX.working_bits)
              for c in series_mul(a, b, CTX)]
        assert s1 == s2
