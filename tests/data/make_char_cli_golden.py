"""Write char_cli_golden.json: the stdout of `ffl chars`, `ffl lvalue` and
`ffl fe-check` for a fixed corpus of moduli.

"headers" maps each command to its CSV header line.  Each entry of "entries"
is [q, modulus code, command, rows]: the stdout lines after the header, each
without the "q,modulus," prefix that every row of one command shares.  The
corpus is every monic modulus (modulus 1 included) over small fields, plus
T^8 over F_2 and T^5 over F_3.  The file freezes the character table: its
non-float fields byte for byte and its floats as computed by per-character
sums.  Regenerate it only when those are meant to change.

    PYTHONPATH=src python tests/data/make_char_cli_golden.py
"""

import contextlib
import csv
import io
import json
from pathlib import Path

from ffl.cli import main as cli_main
from ffl.gf import field_of_order
from ffl.polyring import enumerate_monic, parse_poly, to_text

# q -> largest degree enumerated exhaustively (degree 0 up)
EXHAUSTIVE = {2: 5, 3: 3, 4: 3, 5: 2, 7: 2, 9: 2}
LARGER = [(2, "T^8"), (3, "T^5")]
COMMANDS = ("chars", "lvalue", "fe-check")


def corpus():
    for q, maxdeg in EXHAUSTIVE.items():
        F = field_of_order(q)
        for d in range(maxdeg + 1):
            yield from enumerate_monic(F, d)
    for q, text in LARGER:
        yield parse_poly(field_of_order(q), text)


def cli_lines(q, R, command):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli_main(["--q", str(q), command, "--mod", to_text(R)])
    assert rc == 0, (q, R.code, command)
    return out.getvalue().splitlines()


def row_prefix(q, R):
    """The "q,modulus," cells that open every row, as the CSV writer quotes them."""
    out = io.StringIO()
    csv.writer(out, lineterminator="").writerow([q, to_text(R), ""])
    return out.getvalue()


def main():
    headers, lines = {}, []
    for R in corpus():
        q = R.field.q
        prefix = row_prefix(q, R)
        for command in COMMANDS:
            header, *rows = cli_lines(q, R, command)
            assert headers.setdefault(command, header) == header
            assert all(r.startswith(prefix) for r in rows)
            rows = [r[len(prefix):] for r in rows]
            lines.append(json.dumps([q, R.code, command, rows], separators=(",", ":")))
    path = Path(__file__).with_name("char_cli_golden.json")
    path.write_text('{"headers":' + json.dumps(headers) + ',\n"entries":[\n'
                    + ",\n".join(lines) + "\n]}\n")
    print(f"{len(lines)} entries -> {path}")


if __name__ == "__main__":
    main()
