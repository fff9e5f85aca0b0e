import json
import random
import sys
import time
from fractions import Fraction

import pytest

from bundlecalc import CapExceededError, FqMatrix, groups, make_field
from bundlecalc.cli import main
from bundlecalc.encoding import format_integer, format_rational


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPinnedOutputs:
    def test_jordan(self, capsys):
        code, out, err = run(capsys, "bounds", "jordan", "--r", "2", "--mode", "schur")
        assert (code, out, err) == (0, '{"J": "384064"}\n', "")

    def test_sl2(self, capsys):
        code, out, _ = run(capsys, "hol", "sl2", "--p", "3", "--e", "1")
        assert (code, out) == (0, '{"order": "24"}\n')

    def test_mu2_with_defaults(self, capsys):
        code, out, _ = run(capsys, "chern", "mu2", "--rank", "4", "--c2", "8")
        assert (code, out) == (0, '{"mu2": "2"}\n')


class TestChernCommands:
    def test_sum_and_tensor(self, capsys):
        code, out, _ = run(
            capsys, "chern", "sum",
            "--a", '{"rank": "2", "c2": "1"}', "--b", '{"rank": "2", "c2": "3"}',
        )
        assert code == 0
        assert json.loads(out) == {"rank": "4", "deg": "0", "c1sq": "0", "c2": "4"}
        code, out, _ = run(
            capsys, "chern", "tensor",
            "--a", '{"rank": "2", "deg": "2", "c1sq": "4", "c2": "7"}',
            "--b", '{"rank": "1", "deg": "-1", "c1sq": "1"}',
            "--cross", "-2",
        )
        assert code == 0
        assert json.loads(out) == {"rank": "2", "deg": "0", "c1sq": "0", "c2": "6"}

    def test_rational_strings(self, capsys):
        code, out, _ = run(capsys, "chern", "slope", "--rank", "4", "--deg", "-2")
        assert code == 0 and json.loads(out) == {"slope": "-1/2"}

    def test_decimal_strings_are_exact(self, capsys):
        # "0.5" is an exact decimal string, converted to 1/2 without floats
        code, out, _ = run(capsys, "chern", "slope", "--rank", "2", "--deg", "0.5")
        assert code == 0 and json.loads(out) == {"slope": "1/4"}

    def test_sym_at_a_large_power_is_fast(self, capsys):
        start = time.perf_counter()
        code, out, _ = run(capsys, "chern", "sym", "--rank", "2", "--c2", "1", "--n", "3000")
        assert time.perf_counter() - start < 1.0
        assert code == 0 and json.loads(out)["rank"] == "3001"

    def test_json_float_rejected(self, capsys):
        code, _, err = run(
            capsys, "chern", "sum",
            "--a", '{"rank": 2, "deg": 0.5}', "--b", '{"rank": 1}',
        )
        assert code == 2
        assert json.loads(err)["error"] == "float_rejected"


class TestBoundsCommands:
    def test_langer_requires_beta_decision(self, capsys):
        code, _, err = run(capsys, "bounds", "langer", "--rank", "2", "--c2", "5")
        assert code == 2 and json.loads(err)["error"] == "missing_beta"
        code, out, _ = run(
            capsys, "bounds", "langer", "--rank", "2", "--c2", "5", "--assume-beta-zero"
        )
        assert code == 0 and json.loads(out) == {"k": "10"}

    def test_ell_miniature(self, capsys):
        code, out, _ = run(
            capsys, "bounds", "ell", "--r", "2", "--c", "1",
            "--mode", "explicit", "--value", "1", "--assume-beta-zero",
        )
        assert code == 0
        assert json.loads(out) == {"ell": "2", "t": "2", "variant": "as_printed"}

    def test_report(self, capsys):
        code, out, _ = run(
            capsys, "bounds", "report",
            "--summands", '[{"rank": "4", "c2": "4"}, {"rank": "1"}]',
            "--assume-beta-zero",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["ell"] == "24"
        assert payload["summands"][1]["skipped"] is True


class TestErrorSurfaces:
    def test_domain_error_exit_2(self, capsys):
        code, _, err = run(capsys, "chern", "mu2", "--rank", "2", "--deg", "1")
        assert code == 2 and json.loads(err)["error"] == "mu2_undefined"

    def test_cap_error_exit_3(self, capsys):
        code, _, err = run(capsys, "hol", "sl2", "--p", "101")
        assert code == 3 and json.loads(err)["error"] == "cap_exceeded"

    def test_usage_error_exit_64(self, capsys):
        code, _, err = run(capsys, "chern", "slope")
        assert code == 64 and json.loads(err)["error"] == "usage"
        code, _, _ = run(capsys, "frobnicate")
        assert code == 64

    def test_bad_json_is_a_domain_error(self, capsys):
        code, _, err = run(capsys, "hn", "validate", "--profile", "[[2,")
        assert code == 2 and json.loads(err)["error"] == "bad_json"


class TestConfig:
    def test_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "ambient": {"dim": 2, "theta_top": 2, "beta": {"3": "1/2"}},
            "output": "json",
        }))
        code, out, _ = run(
            capsys, "--config", str(cfg), "bounds", "langer",
            "--rank", "3", "--c1sq", "1", "--c2", "2", "--delta", "12",
        )
        assert code == 0 and json.loads(out) == {"k": "8"}

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"plotting": true}')
        code, _, err = run(capsys, "--config", str(cfg), "bounds", "jordan", "--r", "1")
        assert code == 2 and json.loads(err)["error"] == "bad_config"

    def test_env_var(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"ambient": {"assume_beta_zero": true}}')
        monkeypatch.setenv("BUNDLECALC_CONFIG", str(cfg))
        code, out, _ = run(capsys, "bounds", "langer", "--rank", "2", "--c2", "5")
        assert code == 0 and json.loads(out) == {"k": "10"}

    def test_flag_after_subcommand(self, capsys):
        code, out, _ = run(capsys, "chern", "disc", "--rank", "2", "--c2", "5",
                           "--output", "table")
        assert code == 0 and out == "delta = 20\n"


class TestHolCommands:
    GENS = '[[[1, 1], [0, 1]], [[1, 0], [1, 1]]]'

    def test_field_description(self, capsys):
        code, out, _ = run(capsys, "hol", "field", "--p", "2", "--e", "2")
        assert code == 0
        assert json.loads(out) == {"p": "2", "e": "2", "q": "4", "modulus": [1, 1, 1]}

    def test_irreducible(self, capsys):
        code, out, _ = run(capsys, "hol", "irreducible", "--p", "3", "--gens", self.GENS)
        assert code == 0
        assert json.loads(out) == {"irreducible": True, "span_dim": "4"}

    def test_holonomy_full(self, capsys):
        code, out, _ = run(
            capsys, "hol", "holonomy", "--p", "3", "--images", self.GENS, "--target-sl2"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["order"] == "24" and payload["full"] is True

    def test_assoc(self, capsys):
        code, out, _ = run(
            capsys, "hol", "assoc", "--p", "3", "--images", self.GENS,
            "--functor", "wedge", "--n", "2",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["dim"] == "1"
        assert payload["images"] == [[[[1]]], [[[1]]]]

    def test_assoc_sym_of_a_1x1_image_at_a_huge_power(self, capsys):
        start = time.perf_counter()
        code, out, _ = run(capsys, "hol", "assoc", "--p", "7", "--images", "[[[3]]]",
                           "--functor", "sym", "--n", "1000000000")
        assert time.perf_counter() - start < 1.0
        # 3^(10^9) = 3^4 = 4 mod 7
        assert (code, out) == (0, '{"dim": "1", "images": [[[[4]]]]}\n')

    def test_jordan_verify(self, capsys):
        code, out, _ = run(
            capsys, "hol", "jordan-verify", "--p", "3",
            "--gens", self.GENS, "--r", "2", "--mode", "schur",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload == {"N_order": "2", "index": "12", "bound": "384064", "holds": True}

    def test_a_random_gl3_pair_exits_3_quickly(self, capsys):
        # two random matrices almost surely generate a group far over the
        # closure cap; the stabilizer chain proves it without enumerating
        rng = random.Random("cli/gl3/7")
        field = make_field(7, 1)
        images = []
        while len(images) < 2:
            m = [[rng.randrange(7) for _ in range(3)] for _ in range(3)]
            if FqMatrix.from_ints(field, m).is_invertible():
                images.append(m)
        start = time.perf_counter()
        code, out, err = run(capsys, "hol", "holonomy", "--p", "7", "--images", json.dumps(images))
        assert time.perf_counter() - start < 0.5
        assert (code, out) == (3, "")
        assert json.loads(err) == {"error": "cap_exceeded",
                                   "message": "group closure exceeded the element cap 1000000"}

    def test_coefficient_vector_entries(self, capsys):
        gens = '[[[[1, 0], [0, 1]], [[0, 0], [1, 0]]], [[[1, 0], [0, 0]], [[1, 1], [1, 0]]]]'
        code, out, _ = run(capsys, "hol", "irreducible", "--p", "2", "--e", "2",
                           "--gens", gens)
        assert code == 0 and json.loads(out)["irreducible"] is True


class TestJsonShapes:
    """JSON of the wrong shape is a domain error at the CLI boundary."""

    @pytest.mark.parametrize("raw", ["7", "0.5", "true", "null", '"abc"', '{"rank": "2"}'])
    @pytest.mark.parametrize("flag", ["--summands", "--deltas"])
    def test_a_report_list_that_is_not_a_list(self, capsys, flag, raw):
        argv = ["bounds", "report", "--summands", '[{"rank": "2", "c2": "3"}]']
        if flag == "--summands":
            argv[-1] = raw
        else:
            argv += ["--deltas", raw]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "bad_json", "message": f"{flag} must be a JSON list"}

    @pytest.mark.parametrize("plan,missing", [
        ("{}", ["c2_min", "h0_QM", "lz_min", "n", "q_degree"]),
        ('{"n": "1", "q_degree": "2", "h0_QM": "1", "lz_min": "1"}', ["c2_min"]),
    ])
    def test_a_serre_plan_with_missing_fields(self, capsys, plan, missing):
        code, out, err = run(capsys, "serre", "check", "--m-degree", "1", "--plan", plan)
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "bad_plan", "message": f"missing plan fields: {missing}"}


class TestMalformedInputsNeverPanic:
    FUZZ = [
        ["chern", "sum", "--a", "not json", "--b", "{}"],
        ["chern", "sum", "--a", "[]", "--b", '{"rank": "1"}'],
        ["chern", "sum", "--a", '{"rank": "0", "deg": "1"}', "--b", '{"rank": "1"}'],
        ["chern", "slope", "--rank", "x"],
        ["chern", "slope", "--rank", "-3"],
        ["chern", "sym", "--rank", "2", "--n", "-1"],
        ["bounds", "jordan", "--r", "0"],
        ["bounds", "jordan", "--r", "2", "--mode", "weisfeiler"],
        ["bounds", "ell", "--r", "2", "--c", "-1", "--mode", "explicit", "--value", "1",
         "--assume-beta-zero"],
        ["hn", "validate", "--profile", '["oops"]'],
        ["hn", "validate", "--profile", '[[0, "1"]]'],
        ["hn", "frobscale", "--deg", "1", "--p", "9", "--n", "1"],
        ["serre", "plan", "--m-degree", "1/2"],
        ["serre", "check", "--m-degree", "1", "--plan", "[]"],
        ["hol", "field", "--p", "4"],
        ["hol", "field", "--p", "2", "--e", "2", "--modulus", "1,z,1"],
        ["hol", "field", "--p", "2", "--e", "2", "--modulus", "1,0,1"],
        ["hol", "irreducible", "--p", "3", "--gens", "[]"],
        ["hol", "irreducible", "--p", "3", "--gens", '[[[1, 1]]]'],
        ["hol", "holonomy", "--p", "3", "--images", '[[[1, 0], [0, 0]]]'],
        ["hol", "assoc", "--p", "3", "--images", '[[[1, 1], [0, 1]]]',
         "--functor", "tensor_with"],
        ["hol", "jordan-verify", "--p", "3", "--gens", '[[[1, 1], [0, 1]]]', "--r", "0"],
    ]

    def test_all_exit_with_structured_errors(self, capsys):
        for argv in self.FUZZ:
            code, out, err = run(capsys, *argv)
            assert code in (2, 3, 64), (argv, code, out, err)
            assert json.loads(err)["error"], argv


class TestDeterminism:
    CASES = [
        ["bounds", "jordan", "--r", "3", "--mode", "schur"],
        ["hol", "sl2", "--p", "2", "--e", "2"],
        ["serre", "plan", "--m-degree", "7"],
        ["hn", "mumax", "--profile", '[[3, "2"], [2, "-1"]]'],
    ]

    def test_double_run_is_byte_identical(self, capsys):
        first = [run(capsys, *argv) for argv in self.CASES]
        second = [run(capsys, *argv) for argv in self.CASES]
        assert first == second


@pytest.fixture
def digit_limit():
    """Python's default 4300-digit int-to-str limit, whatever the environment sets."""
    if not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("this Python has no int-to-str digit limit")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(old)


class TestOutputDigitLimit:
    """Numbers past the int-to-str limit end in a cap error, exit 3."""

    CASES = [
        ["bounds", "jordan", "--r", "41", "--mode", "schur"],
        ["hn", "frobscale", "--p", "2", "--n", "1000000", "--deg", "1"],
        ["chern", "sym", "--rank", "3", "--n", "1" + "0" * 2200],
    ]

    @pytest.mark.parametrize("argv", CASES, ids=["schur", "frobscale", "sym"])
    def test_cap_error(self, capsys, digit_limit, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert "Traceback" not in err
        assert json.loads(err)["error"] == "cap_exceeded"

    @pytest.mark.parametrize("p,e,size", [("3", "10000", "3^10000"), ("2", "7", "2^7"),
                                          ("3", "5", "3^5"), ("101", "1", "101")])
    def test_the_field_cap_comes_before_p_to_the_e(self, capsys, digit_limit, p, e, size):
        code, out, err = run(capsys, "hol", "sl2", "--p", p, "--e", e)
        assert (code, out) == (3, "")
        assert json.loads(err) == {"error": "cap_exceeded",
                                   "message": f"field size {size} exceeds the cap 81"}

    def test_format_functions(self, digit_limit):
        with pytest.raises(CapExceededError, match="4300 decimal digits"):
            format_integer(10 ** 4300)
        with pytest.raises(CapExceededError, match="4300 decimal digits"):
            format_rational(Fraction(1, 10 ** 4300))
        assert format_integer(10 ** 4299) == "1" + "0" * 4299


class TestJordanSearch:
    """Groups on which the former conjugacy-class clique search ran past a
    minute before its cap rejected them."""

    def test_the_order_72_monomial_group(self, capsys):
        # diag(F_7^*)^2 x <swap>: the diagonal subgroup has index 2
        start = time.perf_counter()
        code, out, err = run(capsys, "hol", "jordan-verify", "--p", "7", "--gens",
                             "[[[3,0],[0,1]],[[1,0],[0,3]],[[0,1],[1,0]]]", "--r", "2",
                             "--mode", "schur")
        elapsed = time.perf_counter() - start
        assert (code, out, err) == (
            0, '{"N_order": "36", "bound": "384064", "holds": true, "index": "2"}\n', "")
        assert elapsed < 0.05

    def test_z2_to_the_5_times_d4(self, capsys):
        # D4 on the first two coordinates over F_3 and a sign on each of the
        # other five: the centre has order 64, and (Z/2)^5 x C4 is abelian of
        # index 2 in the non-abelian group of order 256
        gens = [[[1 if i == j else 0 for j in range(7)] for i in range(7)] for _ in range(7)]
        gens[0][0][:2], gens[0][1][:2] = [0, 2], [1, 0]
        gens[1][1][1] = 2
        for k in range(2, 7):
            gens[k][k][k] = 2
        start = time.perf_counter()
        code, out, _ = run(capsys, "hol", "jordan-verify", "--p", "3", "--gens", json.dumps(gens),
                           "--r", "7", "--mode", "schur")
        elapsed = time.perf_counter() - start
        assert code == 0
        cert = json.loads(out)
        assert (cert["N_order"], cert["index"], cert["holds"]) == ("128", "2", True)
        assert elapsed < 1.0


class TestJordanCap:
    """The configured Jordan cap is the only one that the CLI applies."""

    GL25 = "[[[1,1],[0,1]],[[0,1],[1,0]],[[2,0],[0,1]]]"

    def _run(self, capsys, tmp_path, cap, p, gens):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"caps": {"jordan_order": cap}}))
        return run(capsys, "--config", str(cfg), "hol", "jordan-verify", "--p", p,
                   "--gens", gens, "--r", "2", "--mode", "schur")

    def test_a_larger_cap_admits_gl_2_5(self, capsys, tmp_path):
        assert self._run(capsys, tmp_path, 1000, "5", self.GL25) == (
            0, '{"N_order": "4", "bound": "384064", "holds": true, "index": "120"}\n', "")

    def test_a_smaller_cap_rejects_sl_2_5(self, capsys, tmp_path):
        code, out, err = self._run(capsys, tmp_path, 100, "5", "[[[1,1],[0,1]],[[1,0],[1,1]]]")
        assert (code, out) == (3, "")
        assert json.loads(err) == {"error": "cap_exceeded",
                                   "message": "group order 120 exceeds the configured cap 100"}

    def test_one_chain_enumerated_once(self, capsys, monkeypatch):
        built, walked = [], []
        init, walk = groups.StabilizerChain.__init__, groups.StabilizerChain.elements
        monkeypatch.setattr(groups.StabilizerChain, "__init__",
                            lambda self, *a, **k: built.append(self) or init(self, *a, **k))
        monkeypatch.setattr(groups.StabilizerChain, "elements",
                            lambda self: walked.append(self) or walk(self))
        code, out, _ = run(capsys, "hol", "jordan-verify", "--p", "7",
                           "--gens", "[[[1,1],[0,1]],[[3,0],[0,5]]]", "--r", "2", "--mode", "schur")
        assert (code, out) == (
            0, '{"N_order": "14", "bound": "384064", "holds": true, "index": "3"}\n')
        assert len(built) == 1 and walked == built


class TestArgumentsPastTheMathLimits:
    """Arguments past math.factorial's and math.comb's limits are cap errors."""

    @pytest.mark.parametrize("argv", [
        ["bounds", "jordan", "--r", "9" * 20, "--mode", "weisfeiler", "--a", "1", "--b", "1"],
        ["chern", "sym", "--rank", "9" * 20, "--n", "9" * 20],
        ["bounds", "ell", "--r", "9" * 20, "--mode", "explicit", "--value", "9" * 20, "--c", "1"],
    ], ids=["weisfeiler", "sym", "ell"])
    def test_cap_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert "Traceback" not in err
        assert json.loads(err)["error"] == "cap_exceeded"


class TestPrimalityBound:
    """Miller-Rabin with the prime bases 2..41 is exact below psi_13."""

    PSI_12 = "318665857834031151167461"  # 399165290221 * 798330580441
    PSI_13 = "3317044064679887385961981"

    def frobscale(self, capsys, p):
        return run(capsys, "hn", "frobscale", "--deg", "1", "--n", "1", "--p", p)

    def test_psi_12_is_composite(self, capsys):
        code, out, err = self.frobscale(capsys, self.PSI_12)
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == "not_prime"

    def test_its_factors_are_prime(self, capsys):
        for p in ("399165290221", "798330580441"):
            assert self.frobscale(capsys, p) == (0, f'{{"deg": "{p}"}}\n', "")

    def test_psi_13_and_above_are_undecided(self, capsys):
        for p in (self.PSI_13, str(10 ** 30 + 57)):
            code, out, err = self.frobscale(capsys, p)
            assert (code, out) == (2, "")
            assert json.loads(err)["error"] == "prime_undecided"

    def test_a_small_factor_still_decides_above_psi_13(self, capsys):
        code, _, err = self.frobscale(capsys, str(3 * 10 ** 30))
        assert code == 2 and json.loads(err)["error"] == "not_prime"

    @pytest.mark.parametrize("p", [PSI_12, PSI_13])
    def test_the_field_cap_comes_first(self, capsys, p):
        code, out, err = run(capsys, "hol", "field", "--p", p)
        assert (code, out) == (3, "")
        assert json.loads(err) == {"error": "cap_exceeded",
                                   "message": f"field size {p} exceeds the cap 81"}


class TestBadNumberMessages:
    def test_a_long_argument_is_cut(self, capsys, digit_limit):
        # 5000 digits are past the int-to-str limit, so this is no rational
        code, out, err = run(capsys, "hol", "sl2", "--p", "3", "--e", "9" * 5000)
        assert (code, out) == (2, "")
        assert len(err.encode()) < 200
        assert json.loads(err)["message"] == \
            "not a rational: '" + "9" * 40 + "'... (5000 characters)"

    def test_a_short_argument_is_echoed_whole(self, capsys):
        code, _, err = run(capsys, "hol", "sl2", "--p", "3", "--e", "x9")
        assert code == 2
        assert err == '{"error": "bad_number", "message": "not a rational: \'x9\'"}\n'

    @pytest.mark.parametrize("arg,shown", [("0.5", "1/2"),
                                           ("1e-5000", "a fraction with a 16610-bit denominator")])
    def test_a_non_integer(self, capsys, arg, shown):
        code, out, err = run(capsys, "hn", "frobscale", "--deg", "1", "--p", "2", "--n", arg)
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "bad_number",
                                   "message": f"expected an integer, got {shown}"}
