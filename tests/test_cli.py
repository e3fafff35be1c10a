"""CLI surface: payload shapes, exit codes, JSON round trips."""

import argparse
import json
import time

import pytest

from k3lat import lattice, polyfactor
from k3lat.cli import build_parser, main, run
from k3lat.gluing import u2cubed_nikulin_base, u2cubed_nikulin_glue_vectors
from k3lat.lattice import Lattice, direct_sum, e8


def _ok(argv):
    result = run(argv)
    assert result.status == "ok", result.diagnostics
    assert result.exit_code == 0
    return result.payload


def test_lattice_info_e8_twist_minus_two():
    payload = _ok(["lattice", "info", "--std", "E8", "--twist", "-2"])
    assert payload == {"rank": 8, "det": 256, "even": True, "signature": [0, 8]}


def test_lattice_info_u():
    payload = _ok(["lattice", "info", "--std", "U"])
    assert payload == {"rank": 2, "det": -1, "even": True, "signature": [1, 1]}


def test_lattice_show_roundtrip_bit_identical():
    payload = _ok(["lattice", "show", "--std", "NikulinN"])
    back = Lattice.from_json(payload)
    assert back.to_json() == payload
    text = json.dumps(payload, sort_keys=True)
    assert json.dumps(back.to_json(), sort_keys=True) == text


def test_lattice_roots_count():
    payload = _ok(["lattice", "roots", "--std", "E8", "--twist", "-1", "--norm", "-2"])
    assert payload == {"norm": -2, "count": 240}
    payload = _ok(
        ["lattice", "roots", "--std", "NikulinN", "--norm", "-2", "--vectors"]
    )
    assert payload["count"] == 16
    assert payload["vectors"][0] == [-1, -1, -1, -1, -1, -1, -1, 2]


def test_lattice_info_from_file(tmp_path):
    payload = _ok(["lattice", "show", "--std", "Gamma16", "--twist", "-1"])
    path = tmp_path / "g16.json"
    path.write_text(json.dumps(payload))
    info = _ok(["lattice", "info", "--file", str(path)])
    assert info == {"rank": 16, "det": 1, "even": True, "signature": [0, 16]}


def test_disc_output_format():
    payload = _ok(["disc", "--std", "NikulinN"])
    assert payload == {
        "invariant_factors": [2, 2, 2, 2, 2, 2],
        "elements": 64,
        "q_histogram": {"0": 36, "1": 28},
    }


def test_disc_odd_lattice_is_domain_error():
    result = run(["disc", "--std", "rank1", "--param", "3"])
    assert result.status == "error"
    assert result.exit_code == 1
    assert result.error_code == "odd_lattice"


def test_glue_cli(tmp_path):
    base_file = tmp_path / "base.json"
    base_file.write_text(json.dumps(u2cubed_nikulin_base().to_json()))
    vectors_file = tmp_path / "vectors.json"
    vectors_file.write_text(
        json.dumps({"vectors": [[str(c) for c in v] for v in u2cubed_nikulin_glue_vectors()]})
    )
    payload = _ok(["glue", "--base", str(base_file), "--vectors", str(vectors_file)])
    assert payload["verification"] == {
        "even": True,
        "det": -1,
        "signature": [3, 11],
        "index": 64,
    }
    glued = Lattice.from_json(payload["lattice"])
    assert glued.rank == 14
    assert payload["inclusion"] == _table(_U2N_INCLUSION, int)
    assert payload["basis_in_base"] == _table(_U2N_BASIS, str)
    assert payload["lattice"] == {"gram": _table(_U2N_GRAM, int)}


def _table(text, entry):
    return [[entry(x) for x in line.split()] for line in text.strip().splitlines()]


# the full glue payload of the U(2)^3 + N gluing, rows of the inclusion
# (base basis in overlattice coordinates), of the overlattice basis in base
# coordinates and of the glued Gram
_U2N_INCLUSION = """
2 0 0 0 0 0 0 0 0 -1 -1 -1 -1 0
0 2 0 0 0 0 0 0 -1 0 -1 -1 -1 0
0 0 2 0 0 0 0 -1 -1 -1 0 0 -1 0
0 0 0 2 0 0 0 -1 -1 -1 0 -1 0 0
0 0 0 0 2 0 -1 0 -1 -1 -1 0 0 0
0 0 0 0 0 2 -1 -1 0 0 0 -1 -1 0
0 0 0 0 0 0 1 0 0 0 0 0 0 0
0 0 0 0 0 0 0 1 0 0 0 0 0 0
0 0 0 0 0 0 0 0 1 0 0 0 0 0
0 0 0 0 0 0 0 0 0 1 0 0 0 0
0 0 0 0 0 0 0 0 0 0 1 0 0 0
0 0 0 0 0 0 0 0 0 0 0 1 0 0
0 0 0 0 0 0 0 0 0 0 0 0 1 0
0 0 0 0 0 0 0 0 0 0 0 0 0 1
"""

_U2N_BASIS = """
1/2 0 0 0 0 0 0 0 0 1/2 1/2 1/2 1/2 0
0 1/2 0 0 0 0 0 0 1/2 0 1/2 1/2 1/2 0
0 0 1/2 0 0 0 0 1/2 1/2 1/2 0 0 1/2 0
0 0 0 1/2 0 0 0 1/2 1/2 1/2 0 1/2 0 0
0 0 0 0 1/2 0 1/2 0 1/2 1/2 1/2 0 0 0
0 0 0 0 0 1/2 1/2 1/2 0 0 0 1/2 1/2 0
0 0 0 0 0 0 1 0 0 0 0 0 0 0
0 0 0 0 0 0 0 1 0 0 0 0 0 0
0 0 0 0 0 0 0 0 1 0 0 0 0 0
0 0 0 0 0 0 0 0 0 1 0 0 0 0
0 0 0 0 0 0 0 0 0 0 1 0 0 0
0 0 0 0 0 0 0 0 0 0 0 1 0 0
0 0 0 0 0 0 0 0 0 0 0 0 1 0
0 0 0 0 0 0 0 0 0 0 0 0 0 1
"""

_U2N_GRAM = """
-2 -1 -1 -1 -1 -1 0 0 0 -1 -1 -1 -1 -2
-1 -2 -1 -1 -1 -1 0 0 -1 0 -1 -1 -1 -2
-1 -1 -2 -1 -1 -1 0 -1 -1 -1 0 0 -1 -2
-1 -1 -1 -2 -1 -1 0 -1 -1 -1 0 -1 0 -2
-1 -1 -1 -1 -2 0 -1 0 -1 -1 -1 0 0 -2
-1 -1 -1 -1 0 -2 -1 -1 0 0 0 -1 -1 -2
0 0 0 0 -1 -1 -2 0 0 0 0 0 0 -1
0 0 -1 -1 0 -1 0 -2 0 0 0 0 0 -1
0 -1 -1 -1 -1 0 0 0 -2 0 0 0 0 -1
-1 0 -1 -1 -1 0 0 0 0 -2 0 0 0 -1
-1 -1 0 0 -1 0 0 0 0 0 -2 0 0 -1
-1 -1 0 -1 0 -1 0 0 0 0 0 -2 0 -1
-1 -1 -1 0 0 -1 0 0 0 0 0 0 -2 -1
-2 -2 -2 -2 -2 -2 -1 -1 -1 -1 -1 -1 -1 -4
"""


def test_glue_cli_missing_file_is_json_error(tmp_path):
    result = run(["glue", "--base", str(tmp_path / "nope.json"), "--vectors", str(tmp_path / "nope.json")])
    assert result.exit_code == 3


def test_k3_maps():
    payload = _ok(["k3", "maps"])
    assert payload["all_hold"] is True
    assert payload["str"] == [6, 0, 8]


def test_k3_push_and_pull():
    vec30 = [0] * 30
    vec30[22] = 1
    payload = _ok(["k3", "push", "--vector", json.dumps(vec30)])
    assert payload["vector"][6] == 1
    vec22 = [0] * 22
    vec22[0] = 1
    payload = _ok(["k3", "pull", "--vector", json.dumps(vec22)])
    assert payload["vector"][0] == 2


def test_k3_pull_extended():
    vec = ["0"] * 22
    vec[13] = "1"
    payload = _ok(["k3", "pull", "--vector", json.dumps(vec)])
    assert payload["vector"] == [0] * 22 + [1] * 8


def test_k3_push_malformed_json_exit_3():
    result = run(["k3", "push", "--vector", "[1, 2"])
    assert result.exit_code == 3
    assert result.error_code == "malformed_json"


def test_ns_classify():
    payload = _ok(["ns", "classify", "--L2", "8"])
    assert [fam["variant"] for fam in payload] == ["plain", "tilde"]
    assert payload[0]["det"] == 8 * 2 ** 8
    assert payload[1]["det"] == 8 * 2 ** 8 // 4


def test_ns_moduli_and_obstruction():
    payload = _ok(["ns", "moduli", "--example", "M8"])
    assert payload == {"example": "M8", "dimension": 11}
    payload = _ok(["ns", "obstruction", "--rankT", "13"])
    assert payload["is_square"] is False
    assert payload["det_ratio_numerator"] == 8


def _place(location, coefficients, degree, order, kodaira):
    return {"location": location, "coefficients": coefficients, "degree": degree,
            "order": order, "kodaira": kodaira}


def _sixteen_gon_places(n):
    """The I_16 example with I_n on its four finite places and I_{16/n} at infinity."""
    return [
        _place("t - 1", ["-1", "1"], 1, n, f"I{n}"),
        _place("t + 1", ["1", "1"], 1, n, f"I{n}"),
        _place("t^2 + 1", ["1", "0", "1"], 2, n, f"I{n}"),
        _place("t^4 + 3", ["3", "0", "0", "0", "1"], 4, n, f"I{n}"),
        _place("infinity", None, 1, 16 // n, f"I{16 // n}"),
    ]


_ADDITIVE_PLACES = [
    _place("t", ["0", "1"], 1, 6, "additive/unsupported"),
    _place("infinity", None, 1, 18, "additive/unsupported"),
]


def test_ell_fibers_sixteen_gon():
    payload = _ok(["ell", "fibers", "--a", "1,0,0,0,1", "--b", "1"])
    assert payload == {
        "places": _sixteen_gon_places(1), "order_sum": 24, "all_multiplicative": True,
    }


def test_ell_quotient():
    payload = _ok(["ell", "quotient", "--a", "1,0,0,0,1", "--b", "1"])
    assert payload == {
        "a": ["-2", "0", "0", "0", "-2"],
        "b": ["-3", "0", "0", "0", "2", "0", "0", "0", "1"],
        "fibers": {
            "places": _sixteen_gon_places(2), "order_sum": 24, "all_multiplicative": True,
        },
    }


def test_ell_fibers_and_quotient_additive():
    fibers = {"places": _ADDITIVE_PLACES, "order_sum": 24, "all_multiplicative": False}
    assert _ok(["ell", "fibers", "--a", "0,1", "--b", "0,0,1"]) == fibers
    assert _ok(["ell", "quotient", "--a", "0,1", "--b", "0,0,1"]) == {
        "a": ["0", "-2"], "b": ["0", "0", "-3"], "fibers": fibers,
    }


def test_ell_shioda_tate():
    payload = _ok(["ell", "shioda-tate", "--fibers", "I2:8,I1:8", "--torsion", "2"])
    assert payload == {"picard_rank": 10, "ns_discriminant": "64"}


_PUSH_HALF = json.dumps([1.5] + [0] * 29)
_GLUE_HALF = '{"gram": [[0, 2], [2, 0]], "vectors": [[%s, 0]]}'
_PULL_EXPONENT = json.dumps(["1e9999999"] + [0] * 21)


def _assert_error_envelope(argv, exit_code, code, capsys):
    """Plain mode writes a JSON error to stderr only; --json writes the envelope."""
    assert main(argv) == exit_code
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)
    assert error["status"] == "error" and error["code"] == code
    assert main(["--json"] + argv) == exit_code
    envelope = json.loads(capsys.readouterr().out)
    assert envelope["status"] == "error" and envelope["error_code"] == code


@pytest.mark.parametrize(
    "argv, file_text",
    [
        (["lattice", "info", "--file", "FILE"], '{"gram": 5}'),
        (["lattice", "info", "--file", "FILE"], '{"gram": [["a"]]}'),
        (["disc", "--file", "FILE"], '""'),
        (["lattice", "info", "--file", "FILE"], json.dumps('{"gram": [[2]]}')),
        # labels and name are validated, not iterated or echoed
        (["lattice", "show", "--file", "FILE"], '{"gram": [[2, 1], [1, 2]], "labels": "ab"}'),
        (["lattice", "show", "--file", "FILE"], '{"gram": [[2]], "name": ["x"]}'),
        (["ell", "shioda-tate", "--fibers", "I2:x", "--torsion", "2"], None),
        (["k3", "push", "--vector", '{"a": 1}'], None),
        (["k3", "push", "--vector", "5"], None),
        (["k3", "pull", "--vector", '["1/0"]'], None),
        (["k3", "push", "--vector", _PUSH_HALF], None),
        (["ell", "fibers", "--a=1,,2", "--b=1,0,0,0,0,0,0,0,1"], None),
        (["ell", "fibers", "--a=,1", "--b=1,0,0,0,0,0,0,0,1"], None),
        (["ell", "fibers", "--a=1,", "--b=1,0,0,0,0,0,0,0,1"], None),
        (["ell", "quotient", "--a=1", "--b=1, ,1"], None),
        # floats, decimal and exponent text are refused, not rounded or expanded
        (["lattice", "info", "--file", "FILE"], '{"gram": [[1e23, 0], [0, 2]]}'),
        (["glue", "--base", "FILE", "--vectors", "FILE"], _GLUE_HALF % "0.5"),
        (["glue", "--base", "FILE", "--vectors", "FILE"], _GLUE_HALF % '"0.5"'),
        (["k3", "push", "--vector", json.dumps([2.0] + [0] * 29)], None),
        (["k3", "pull", "--vector", _PULL_EXPONENT], None),
        (["ell", "fibers", "--a=1.5", "--b=1"], None),
        (["ell", "fibers", "--a", "1e9999999", "--b", "1"], None),
    ],
    ids=["gram-int", "gram-str", "doc-empty-str", "doc-str-of-lattice", "labels-str", "name-list",
         "fiber-count", "vector-dict", "vector-int", "vector-1/0", "vector-1.5", "poly-empty-between", "poly-empty-before",
         "poly-empty-after", "poly-blank-entry", "gram-float-1e23", "glue-float",
         "glue-decimal-text", "vector-2.0", "vector-exponent-text", "poly-decimal-text",
         "poly-exponent-text"],
)
def test_malformed_input_is_bad_input_envelope(argv, file_text, tmp_path, capsys):
    if file_text is not None:
        path = tmp_path / "lattice.json"
        path.write_text(file_text)
        argv = [str(path) if a == "FILE" else a for a in argv]
    _assert_error_envelope(argv, 1, "bad_input", capsys)


@pytest.mark.parametrize(
    "argv",
    [
        ["lattice", "info", "--file", "BAD"],
        ["glue", "--base", "BAD", "--vectors", "GOOD"],
        ["glue", "--base", "GOOD", "--vectors", "BAD"],
        ["lattice", "info", "--file", "\x00"],
        ["glue", "--base", "\x00", "--vectors", "GOOD"],
    ],
    ids=["file-not-utf8", "base-not-utf8", "vectors-not-utf8", "file-nul-path", "base-nul-path"],
)
def test_unreadable_file_is_malformed_json_envelope(argv, tmp_path, capsys):
    # a file that is not UTF-8, or a path open() refuses, is malformed input naming the path
    bad, good = tmp_path / "bad.json", tmp_path / "good.json"
    bad.write_bytes(b"\xff\xfe{}")
    good.write_text('{"gram": [[2]], "vectors": []}')
    argv = [{"BAD": str(bad), "GOOD": str(good)}.get(a, a) for a in argv]
    _assert_error_envelope(argv, 3, "malformed_json", capsys)
    path = str(bad) if str(bad) in argv else "\x00"
    assert run(argv).diagnostics[0].startswith(f"cannot read {path}: ")


_LONG_ENTRY = '{"gram": [[' + "2" * 4401 + "]]}"
_DIAGONAL_1001_DIGITS = json.dumps(
    {"gram": [[10 ** 1000 if i == j else 0 for j in range(5)] for i in range(5)]}
)
# a^2 - 4b then has a 5000-digit coefficient: the quotient's b and a fiber place
_A_2500_DIGITS = "1" + "3" * 2499 + ",1"


@pytest.mark.parametrize(
    "argv, file_text, exit_code, code",
    [
        (["lattice", "info", "--file", "FILE"], _LONG_ENTRY, 3, "malformed_json"),
        (["lattice", "info", "--file", "FILE"], _DIAGONAL_1001_DIGITS, 1, "unsupported"),
        (["ell", "shioda-tate", "--fibers", "I3:10000", "--torsion", "1"], None, 1, "unsupported"),
        (["ell", "quotient", "--a", _A_2500_DIGITS, "--b", "1"], None, 1, "unsupported"),
        (["ell", "fibers", "--a", _A_2500_DIGITS, "--b", "1,0,1"], None, 1, "unsupported"),
        # refused before 2^(10^23) is formed, which would never return
        (["ell", "shioda-tate", "--fibers", "I2:" + "9" * 23, "--torsion", "1"], None, 1,
         "unsupported"),
        (["ell", "shioda-tate", "--fibers", "I2:" + "9" * 5000, "--torsion", "1"], None, 1,
         "unsupported"),
        (["ell", "shioda-tate", "--fibers", "I" + "9" * 5000 + ":1", "--torsion", "1"], None, 1,
         "unsupported"),
    ],
    ids=["input-4401-digits", "det-5000-digits", "disc-4772-digits", "quotient-b-5000-digits",
         "fiber-place-5000-digits", "disc-count-23-digits", "fiber-count-5000-digits",
         "fiber-index-5000-digits"],
)
def test_numbers_beyond_the_digit_limit_end_in_an_envelope(
    argv, file_text, exit_code, code, tmp_path, capsys
):
    if file_text is not None:
        path = tmp_path / "lattice.json"
        path.write_text(file_text)
        argv = [str(path) if a == "FILE" else a for a in argv]
    _assert_error_envelope(argv, exit_code, code, capsys)


def test_failed_library_check_is_a_check_failed_envelope(monkeypatch, capsys):
    recombine = polyfactor._recombine

    def drop_a_factor(f, lifted, m):
        return recombine(f, lifted, m)[1:]

    # irreducible_factors multiplies the factors back and must notice the loss,
    # on the first call and on the memo hit of the second (--json) call
    monkeypatch.setattr(polyfactor, "_recombine", drop_a_factor)
    polyfactor.factor.cache_clear()
    try:
        argv = ["ell", "fibers", "--a", "1,0,0,0,1", "--b", "1"]
        _assert_error_envelope(argv, 1, "check_failed", capsys)
        message = "the factors of a degree-8 polynomial do not multiply back to it"
        assert run(argv).diagnostics == [message]
    finally:
        polyfactor.factor.cache_clear()


def test_unknown_subcommand_exits_two(capsys):
    result = run(["frobnicate"])
    assert result.exit_code == 2
    capsys.readouterr()


def test_domain_error_exit_code():
    result = run(["lattice", "info", "--std", "U", "--twist", "0"])
    assert result.exit_code == 1
    assert result.error_code == "bad_input"


def test_deterministic_output():
    first = _ok(["ns", "classify", "--L2", "16"])
    second = _ok(["ns", "classify", "--L2", "16"])
    assert first == second


def test_main_json_envelope(capsys):
    code = main(["--json", "lattice", "info", "--std", "U", "--twist", "2"])
    out = capsys.readouterr().out
    assert code == 0
    envelope = json.loads(out)
    assert envelope["status"] == "ok"
    assert envelope["payload"]["det"] == -4


def test_main_error_goes_to_stderr(capsys):
    code = main(["lattice", "info", "--std", "U", "--twist", "0"])
    captured = capsys.readouterr()
    assert code == 1
    assert json.loads(captured.err)["code"] == "bad_input"


def test_parser_help_exits_zero():
    result = run(["--help"])
    assert result.exit_code == 0


def test_parser_builds():
    build_parser()


def _assert_refused_within_a_second(argv, error_code, message, capsys):
    for prefix in ([], ["--json"]):
        start = time.process_time()
        code = main(prefix + argv)
        assert time.process_time() - start < 1.0
        captured = capsys.readouterr()
        assert code == 1
        if prefix:
            error = json.loads(captured.out)
            assert error["error_code"] == error_code and captured.err == ""
            got = error["diagnostics"][0]
        else:
            error = json.loads(captured.err)
            assert error["code"] == error_code and captured.out == ""
            got = error["message"]
        assert got == message


@pytest.mark.parametrize(
    "argv, message",
    [
        (["ell", "fibers", "--a", "1e9999999", "--b", "1"],
         "bad polynomial coefficient list '1e9999999'"),
        (["ell", "quotient", "--a", "1e9999999", "--b", "1"],
         "bad polynomial coefficient list '1e9999999'"),
        (["k3", "pull", "--vector", _PULL_EXPONENT], "entry '1e9999999' is not an exact rational"),
    ],
    ids=["ell-fibers", "ell-quotient", "k3-pull"],
)
def test_exponent_text_is_refused_within_a_second(argv, message, capsys):
    # the text is matched against digits/digits, never expanded: Fraction("1e9999999")
    # builds a ten-million-digit integer first
    _assert_refused_within_a_second(argv, "bad_input", message, capsys)


@pytest.mark.parametrize(
    "source, norm, message",
    [
        # Gamma16(-1) has 480 sigma_7(4) = 7,926,240 vectors of norm -8
        (
            ["--std", "Gamma16", "--twist", "-1"], "-8",
            "vectors of norm -8 in a rank-16 lattice: the search summed 3000014 "
            "coordinate terms, past the bound 3000000",
        ),
        # E8(-1)^8 from a file: at rank 64 a node sums four times the terms it does at rank 16
        (
            ["--file", "E8^8"], "-4",
            "vectors of norm -4 in a rank-64 lattice: the search summed 3000053 "
            "coordinate terms, past the bound 3000000",
        ),
    ],
    ids=["Gamma16", "rank64-file"],
)
def test_short_vector_search_past_its_term_bound_is_unsupported(
    capsys, tmp_path, source, norm, message
):
    # the search stops at the term bound (~0.5 s at every rank) instead of
    # running for minutes
    path = tmp_path / "e8_8.json"
    path.write_text(json.dumps({"gram": direct_sum([e8(-1)] * 8).gram_rows()}))
    source = [str(path) if a == "E8^8" else a for a in source]
    argv = ["lattice", "roots"] + source + ["--norm", norm]
    _assert_refused_within_a_second(argv, "unsupported", message, capsys)


def test_vector_listing_past_its_coordinate_bound_is_unsupported(capsys):
    # 272,160 vectors of E8(-1) at norm -20 are 2,177,280 coordinates, 2^20 the
    # bound; the listing took 2.3 s after the search, the count alone stays
    source = ["lattice", "roots", "--std", "E8", "--twist", "-1", "--norm", "-20"]
    message = ("272160 vectors of norm -20 in a rank-8 lattice: listing them prints "
               "2177280 coordinates, past the bound 1048576")
    _assert_refused_within_a_second(source + ["--vectors"], "unsupported", message, capsys)
    assert _ok(source) == {"norm": -20, "count": 272160}


def test_std_choices_are_the_table_of_standard_kinds():
    def sub(parser, name):
        action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        return action.choices[name]

    for command in (["lattice", "info"], ["lattice", "show"], ["lattice", "roots"], ["disc"]):
        parser = build_parser()
        for name in command:
            parser = sub(parser, name)
        std = next(a for a in parser._actions if a.dest == "std")
        param = next(a for a in parser._actions if a.dest == "param")
        assert list(std.choices) == list(lattice._STANDARD_CONSTRUCTORS)
        assert param.help == "n for An, m for rank1"


def test_a_n_past_its_bound_is_unsupported(capsys):
    # the Gram of A_n is n x n; A_400 took 10 s to build before the bound
    assert run(["lattice", "info", "--std", "An", "--param", "32"]).status == "ok"
    argv = ["lattice", "info", "--std", "An", "--param", "33"]
    _assert_refused_within_a_second(argv, "unsupported", "A_33: n is past the bound 32", capsys)


def test_file_gram_past_the_rank_bound_is_unsupported(capsys, tmp_path):
    # A1(-1)^n from a file: rank 64 builds, rank 65 is refused before its elimination
    def info(n):
        path = tmp_path / f"rank{n}.json"
        path.write_text(json.dumps({"gram": [[-2 * (i == j) for j in range(n)] for i in range(n)]}))
        return ["lattice", "info", "--file", str(path)]

    assert run(info(64)).payload == {"rank": 64, "det": 2 ** 64, "even": True, "signature": [0, 64]}
    message = "a rank-65 gram matrix is past the rank bound 64"
    _assert_refused_within_a_second(info(65), "unsupported", message, capsys)
