import csv
import io
import json

import pytest

from ffl.chargroup import characters
from ffl.cli import main
from ffl.gf import field_of_order
from ffl.lfunc import l_eval, l_trivial, root_number
from ffl.polyring import enumerate_monic, from_code, to_text


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr().out
    return rc, out


def test_primes_golden(capsys):
    rc, out = run(capsys, "--q", "2", "primes", "--deg", "3")
    assert rc == 0
    assert out == ("q,deg,coeffs,pretty\n"
                   '2,3,"q=2;[1,1,0,1]",T^3+T+1\n'
                   '2,3,"q=2;[1,0,1,1]",T^3+T^2+1\n')


def test_moment2_moebius_golden(capsys):
    rc, out = run(capsys, "--q", "2", "moment2", "--mod", "[0,0,1]",
                  "--method", "moebius")
    assert rc == 0
    assert "3/2 + -1*sqrt(2)" in out


def test_arith_phi_golden(capsys):
    rc, out = run(capsys, "--q", "2", "arith", "phi", "--poly", "[0,0,0,1]")
    assert rc == 0
    assert out.splitlines()[1].endswith(",4")


def test_byte_identical_reruns(capsys):
    cases = [
        ("--q", "2", "primes", "--deg", "4"),
        ("--q", "3", "chars", "--mod", "T^2"),
        ("--q", "2", "lvalue", "--mod", "[0,0,0,1]"),
        ("--q", "2", "fe-check", "--mod", "[0,0,1]"),
        ("--q", "2", "moment4", "--mod", "[0,0,1]", "--method", "report"),
        ("--q", "2", "probe", "--id", "coprime_harmonic", "--mod", "[0,1]",
         "--x", "4"),
        ("--q", "2", "growth", "--kind", "omega_primorial", "--n-from", "1",
         "--n-to", "6"),
    ]
    for argv in cases:
        rc1, out1 = run(capsys, *argv)
        rc2, out2 = run(capsys, *argv)
        assert rc1 == rc2 == 0
        assert out1 == out2


def test_exit_codes(capsys):
    rc, _ = run(capsys, "--q", "2", "moment2", "--mod", "[0,1]",
                "--method", "formula")
    assert rc == 2      # non-square-full modulus
    rc, _ = run(capsys, "--q", "2", "factor", "--poly", "zz!!")
    assert rc == 2      # malformed polynomial text
    rc, _ = run(capsys, "--q", "6", "primes", "--deg", "1")
    assert rc == 2      # not a prime power
    rc, _ = run(capsys, "--q", "2", "--max-table", "64", "probe", "--id",
                "off_diagonal", "--F", "[0,1]", "--z1", "9", "--z2", "9")
    assert rc in (0, 3)  # budget applies through FFL settings


def test_budget_exit_code(capsys):
    import ffl.sieveprobe  # noqa: F401  (exercised through the CLI)
    rc, _ = run(capsys, "--q", "2", "probe", "--id", "off_diagonal",
                "--F", "[0,1]", "--z1", "15", "--z2", "15")
    assert rc == 3


def test_json_mode(capsys):
    rc, out = run(capsys, "--q", "2", "--json", "primes", "--deg", "2")
    assert rc == 0
    doc = json.loads(out)
    assert doc["command"] == "primes"
    assert doc["rows"] == [{"q": "2", "deg": "2", "coeffs": "q=2;[1,1,1]",
                            "pretty": "T^2+T+1"}]


def test_q_prime_power_forms(capsys):
    rc1, out1 = run(capsys, "--q", "4", "primes", "--deg", "1")
    rc2, out2 = run(capsys, "--q", "2^2", "primes", "--deg", "1")
    assert rc1 == rc2 == 0 and out1 == out2
    assert len(out1.splitlines()) == 5   # header + 4 monic linear polys


def test_lvalue_kvec_filter(capsys):
    rc, out = run(capsys, "--q", "2", "lvalue", "--mod", "[0,0,1]",
                  "--kvec", "1")
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 2
    assert ",odd," not in lines[1]


def test_tamam_cli(capsys):
    rc, out = run(capsys, "--q", "2", "moment2", "--mod", "T^2+T+1",
                  "--method", "tamam")
    assert rc == 0 and "1 + -2/3*sqrt(2)" in out
    rc, out = run(capsys, "--q", "2", "moment2", "--mod", "T^2+T+1",
                  "--method", "tamam-plus")
    assert rc == 0 and "3.94280904158206" in out


def test_probe_csv_schema(capsys):
    rc, out = run(capsys, "--q", "2", "probe", "--id", "two_omega", "--x", "3")
    assert rc == 0
    header = out.splitlines()[0]
    assert header == "probe_id,params,lhs,rhs,ratio,empirical_const"


def test_unknown_flag_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--q", "2", "primes", "--deg", "1", "--bogus"])
    assert exc.value.code == 2


def test_lvalue_modulus_one(capsys):
    rc, out = run(capsys, "--q", "2", "lvalue", "--mod", "[1]")
    assert rc == 0
    line = out.splitlines()[1]
    assert line.startswith("2,")
    # zeta_A(1/2) = 1/(1 - sqrt 2)
    import math
    assert f"{1/(1-math.sqrt(2)):.6f}"[:8] in line


def test_probe_missing_polynomial_flag_exits_2(capsys):
    for argv, flag in ((("--id", "bt_sum"), "--X"),
                       (("--id", "off_diagonal", "--z1", "1"), "--F"),
                       (("--id", "coprime_harmonic", "--x", "2"), "--mod"),
                       (("--id", "double_divisor", "--x", "4"), "--F")):
        rc = main(["--q", "2", "probe", *argv])
        err = capsys.readouterr().err
        assert rc == 2 and flag in err, argv


def test_lvalue_kvec_wrong_length_exits_2(capsys):
    for kvec in ("1:1:7", "1:0"):
        rc, out = run(capsys, "--q", "2", "lvalue", "--mod", "T^3", "--kvec", kvec)
        assert rc == 2 and out == ""
    rc, out = run(capsys, "--q", "2", "lvalue", "--mod", "T^3", "--kvec", "3")
    assert rc == 0 and len(out.splitlines()) == 2


def test_lvalue_kvec_outside_axis_exits_2(capsys):
    # T^3 over F_2 has dims (4,), T^4 has dims (4, 2)
    for mod, kvec in (("T^3", "5"), ("T^3", "4"), ("T^3", "-1"), ("T^4", "0:2"),
                      ("T^4", "4:0"), ("T^4", "1:-1")):
        rc = main(["--q", "2", "lvalue", "--mod", mod, "--kvec", kvec])
        out, err = capsys.readouterr()
        assert rc == 2 and out == "" and "--kvec" in err, (mod, kvec)
    rc, out = run(capsys, "--q", "2", "lvalue", "--mod", "T^4", "--kvec", "3:1")
    lines = out.splitlines()
    assert rc == 0 and len(lines) == 2 and ",3:1," in lines[1]


CHAR_CLI_FLOATS = {"lvalue": {"re_l_half", "im_l_half", "abs2_l_half", "abs_w",
                              "fe_residual"},
                   "fe-check": {"re_w", "im_w", "abs_w", "fe_residual"},
                   "chars": set()}


def test_char_cli_golden(capsys):
    # frozen stdout of chars / lvalue / fe-check for 369 moduli, written by
    # per-character sums (see data/make_char_cli_golden.py): every non-float
    # cell, the header and the row order byte for byte, floats to 1e-12
    from pathlib import Path
    doc = json.loads((Path(__file__).parent / "data" / "char_cli_golden.json").read_text())
    headers, entries = doc["headers"], doc["entries"]
    assert len(entries) == 1107
    for q, code, command, golden in entries:
        text = to_text(from_code(field_of_order(q), code))
        rc, out = run(capsys, "--q", str(q), command, "--mod", text)
        assert rc == 0, (q, code, command)
        header, *lines = out.splitlines()
        assert header == headers[command]
        assert len(lines) == len(golden), (q, code, command)
        names = header.split(",")[2:]
        floats = CHAR_CLI_FLOATS[command]
        for line, want in zip(csv.reader(lines), csv.reader(golden)):
            assert line[:2] == [str(q), text]
            for name, got, exp in zip(names, line[2:], want, strict=True):
                if name in floats and exp:
                    g, e = float(got), float(exp)
                    assert abs(g - e) <= 1e-12 * max(1.0, abs(e)), (q, code, command, name)
                else:
                    assert got == exp, (q, code, command, name)


def test_parser_built_once_per_process(capsys):
    from ffl.cli import build_parser
    rc, first = run(capsys, "--q", "2", "primes", "--deg", "2")
    misses = build_parser.cache_info().misses
    rc2, again = run(capsys, "--q", "2", "primes", "--deg", "2")
    assert rc == rc2 == 0 and again == first
    assert build_parser.cache_info().misses == misses == 1
    for argv, code in ((["--help"], 0), (["--q", "2", "chars", "--help"], 0),
                       (["--q", "2", "chars"], 2)):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == code
    assert "usage: ffl" in capsys.readouterr().out


# every monic modulus over F_2 deg <= 6, F_3 <= 4, F_4 <= 3, F_5/F_7/F_8/F_9 <= 2
ORACLE_GRID = {2: 6, 3: 4, 4: 3, 5: 2, 7: 2, 8: 2, 9: 2}


def oracle_moduli():
    for q, maxdeg in ORACLE_GRID.items():
        F = field_of_order(q)
        for d in range(maxdeg + 1):
            yield from enumerate_monic(F, d)


def cli_table(capsys, R, command):
    rc, out = run(capsys, "--q", str(R.field.q), command, "--mod", to_text(R))
    assert rc == 0
    return list(csv.DictReader(io.StringIO(out)))


def test_character_commands_match_scalar_oracle(capsys):
    # the bulk rows of chars / lvalue / fe-check against the per-character
    # DirichletChar, l_eval and root_number paths, row by row
    def close(got, want):
        return abs(got - want) <= 1e-9 * max(1.0, abs(want))

    for R in oracle_moduli():
        chars = characters(R)
        rows, lrows = cli_table(capsys, R, "chars"), cli_table(capsys, R, "lvalue")
        frows = iter(cli_table(capsys, R, "fe-check"))
        for chi, row, lrow in zip(chars, rows, lrows, strict=True):
            kvec = ":".join(map(str, chi.kvec))
            parity = "even" if chi.is_even() else "odd"
            primitive = chi.is_primitive()
            assert row["kvec"] == lrow["kvec"] == kvec, (R, kvec)
            assert row["parity"] == lrow["parity"] == parity, (R, kvec)
            assert row["primitive"] == lrow["primitive"] == str(int(primitive)), (R, kvec)
            assert row["conductor"] == to_text(chi.conductor()), (R, kvec)
            want = l_trivial(0.5, R) if chi.is_trivial() else l_eval(chi, 0.5)
            got = complex(float(lrow["re_l_half"]), float(lrow["im_l_half"]))
            assert close(got, want) and close(float(lrow["abs2_l_half"]), abs(want) ** 2)
            if not primitive or R.deg == 0:
                assert lrow["abs_w"] == lrow["fe_residual"] == "", (R, kvec)
                continue
            rn = root_number(chi)
            frow = next(frows)
            assert frow["kvec"] == kvec and frow["parity"] == rn.parity, (R, kvec)
            assert close(complex(float(frow["re_w"]), float(frow["im_w"])), rn.value)
            for r in (frow, lrow):
                assert close(float(r["abs_w"]), abs(rn.value)), (R, kvec)
                assert close(float(r["fe_residual"]), rn.consistency_residual), (R, kvec)
        assert next(frows, None) is None, R
