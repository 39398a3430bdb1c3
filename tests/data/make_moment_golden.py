"""Write moment_golden.json: the exact Mobius moments of a fixed corpus of moduli.

Each entry is [q, modulus code, moment2 serialization, moment4 serialization],
the exact `a + b*sqrt(q)` values of `moment2_moebius_exact` and
`moment4_moebius_exact`.  The corpus is every monic modulus of positive degree
over small fields, plus four moduli with phi(R) near 1000.  The file freezes
these values; regenerate it only when they are meant to change.

    PYTHONPATH=src python tests/data/make_moment_golden.py
"""

import json
from pathlib import Path

from ffl.gf import field_of_order
from ffl.moments import moment2_moebius_exact, moment4_moebius_exact
from ffl.polyring import enumerate_monic, parse_poly

# q -> largest degree enumerated exhaustively (degree 1 up)
EXHAUSTIVE = {2: 7, 3: 4, 4: 3, 5: 2, 7: 2, 8: 2, 9: 2, 16: 2, 27: 1}
# (q, modulus) with phi(R) near 1000
LARGER = [(2, "T^11"), (3, "T^7"), (32, "q=32;[0,0,1]"), (5, "T^4+1")]


def corpus():
    for q, maxdeg in EXHAUSTIVE.items():
        F = field_of_order(q)
        for d in range(1, maxdeg + 1):
            yield from enumerate_monic(F, d)
    for q, text in LARGER:
        yield parse_poly(field_of_order(q), text)


def main():
    lines = []
    for R in corpus():
        m2 = moment2_moebius_exact(R).serialize()
        m4 = moment4_moebius_exact(R).serialize()
        lines.append(json.dumps([R.field.q, R.code, m2, m4]))
    path = Path(__file__).with_name("moment_golden.json")
    path.write_text("[\n" + ",\n".join(lines) + "\n]\n")
    print(f"{len(lines)} entries -> {path}")


if __name__ == "__main__":
    main()
