"""Write unit_group_golden.json: the generator basis of (F_q[T]/R)^* per modulus.

Each entry is [q, modulus code, gens, orders].  The corpus is every monic
modulus of small degree over small fields, plus a fixed set of larger moduli
with phi(R) of a few hundred to a few thousand.  The file freezes the greedy
`kvec` basis; regenerate it only when that basis is meant to change.

    PYTHONPATH=src python tests/data/make_unit_group_golden.py
"""

import json
import random
from pathlib import Path

from ffl.chargroup import UnitGroup
from ffl.gf import field_of_order
from ffl.multfun import phi
from ffl.polyring import enumerate_monic, from_code

# q -> largest degree enumerated exhaustively (degree 0 included)
EXHAUSTIVE = {2: 7, 3: 4, 4: 3, 5: 2, 7: 2, 8: 2, 9: 2, 11: 2, 13: 2, 16: 2,
              25: 1, 27: 1, 32: 1}
# q -> (degree, how many) for the larger moduli: T^deg plus reducible picks
LARGER = {2: [(9, 1), (10, 2), (11, 2)], 3: [(6, 4)], 4: [(5, 4)], 8: [(3, 3)],
          9: [(3, 3)], 16: [(2, 1), (3, 1)], 32: [(2, 3)]}
PHI_LOW = 225


def larger_moduli(q, rng):
    F = field_of_order(q)
    out = []
    for deg, count in LARGER[q]:
        top = from_code(F, q ** deg)
        pool = [R for R in enumerate_monic(F, deg)   # reducible: richer groups
                if R != top and PHI_LOW <= phi(R) < q ** deg - 1]
        out.append(top)
        out.extend(rng.sample(pool, count - 1))
    return out


def corpus():
    rng = random.Random(1901)
    for q, maxdeg in EXHAUSTIVE.items():
        F = field_of_order(q)
        for d in range(maxdeg + 1):
            yield from enumerate_monic(F, d)
    for q in LARGER:
        yield from larger_moduli(q, rng)


def main():
    lines = []
    for R in corpus():
        g = UnitGroup(R)
        lines.append(json.dumps([R.field.q, R.code, list(g.gens), list(g.orders)]))
    path = Path(__file__).with_name("unit_group_golden.json")
    path.write_text("[\n" + ",\n".join(lines) + "\n]\n")
    print(f"{len(lines)} entries -> {path}")


if __name__ == "__main__":
    main()
