import json

from ffl.cli import main


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
    import pytest
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
