"""Curated coefficient fixtures: known-good inputs with their exact outputs.

Each fixture pins one integer coefficient of a factor-list product for a
specific type, arrangement and (possibly empty) fix set.  They serve three
jobs: regression tests for the multiplication engine, replication targets
for the ``table1`` command, and worked examples for the demos.

Tiers by cost on one core of a shared 2-core host:

* ``light``  — milliseconds to a few seconds each;
* ``heavy``  — about 1 s (k = 10) to 14 s and 360 MB (k = 11) each, with up
  to 3.1M live terms;
* ``massive`` — about 4 minutes and 2.5 GB each (k = 12; 12-a peaks at
  27.9M live terms); only attempted on request.
"""

from __future__ import annotations

from dataclasses import dataclass, field

LIGHT = "light"
HEAVY = "heavy"
MASSIVE = "massive"


@dataclass(frozen=True)
class CoefficientFixture:
    """One known coefficient: product over the factor list for (lam, a, fixes)
    restricted to `monomial` equals `coefficient`."""

    name: str
    k: int
    t: int
    lam: tuple[int, ...]
    a: tuple[int, ...]
    degree: int
    monomial: tuple[int, ...]
    coefficient: int
    tier: str = LIGHT
    fixes: tuple[int, ...] = field(default=())


def _f(name, lam, a, degree, monomial, coefficient, tier=LIGHT, t=2, fixes=()):
    return CoefficientFixture(
        name=name,
        k=len(a),
        t=t,
        lam=tuple(lam),
        a=tuple(a),
        degree=degree,
        monomial=tuple(monomial),
        coefficient=coefficient,
        tier=tier,
        fixes=tuple(fixes),
    )


# -- size-10 subsets of Z_p x Z_2: one row per type, known monomial
#    coefficients of the full product (no fixes anywhere in this table).

TABLE1 = (
    _f("10-2-a", (10, 0), (0,) * 10, 89,
       (8, 9, 9, 9, 9, 9, 9, 9, 9, 9), 595372941856, HEAVY),
    _f("10-2-b", (10, 0), (0,) * 10, 89,
       (9, 8, 9, 9, 9, 9, 9, 9, 9, 9), 1404671795722, HEAVY),
    _f("9-1", (9, 1), (0, 0, 0, 0, 0, 1, 0, 0, 0, 0), 52,
       (0, 2, 4, 7, 8, 0, 7, 8, 8, 8), -4),
    _f("8-2", (8, 2), (0, 1, 0, 0, 0, 0, 1, 0, 0, 0), 45,
       (1, 0, 1, 7, 7, 7, 1, 7, 7, 7), -42),
    _f("7-3", (7, 3), (0, 0, 0, 0, 1, 0, 0, 0, 1, 1), 42,
       (0, 6, 6, 6, 2, 6, 6, 6, 2, 2), -42),
    _f("6-4", (6, 4), (0, 0, 0, 1, 0, 0, 0, 1, 1, 1), 39,
       (5, 5, 5, 3, 5, 5, 3, 3, 3, 2), 10),
    _f("5-5-a", (5, 5), (0, 0, 0, 1, 0, 0, 1, 1, 1, 1), 40,
       (4,) * 10, 628),
    _f("5-5-b", (5, 5), (0, 1, 0, 1, 0, 1, 0, 1, 0, 1), 40,
       (4,) * 10, 323285),
    _f("4-6-a", (4, 6), (0, 1, 0, 1, 1, 1, 1, 0, 1, 0), 41,
       (2, 5, 3, 5, 5, 5, 5, 3, 5, 3), 3120),
    _f("4-6-b", (4, 6), (0, 1, 0, 1, 1, 1, 1, 0, 1, 0), 41,
       (3, 4, 3, 5, 5, 5, 5, 3, 5, 3), 2778),
    _f("3-7", (3, 7), (0, 0, 1, 0, 1, 1, 1, 1, 1, 1), 46,
       (0, 2, 6, 2, 6, 6, 6, 6, 6, 6), -72),
    _f("2-8-a", (2, 8), (0, 1, 0, 1, 1, 1, 1, 1, 1, 1), 51,
       (1, 1, 1, 6, 7, 7, 7, 7, 7, 7), -2554),
    _f("2-8-b", (2, 8), (0, 1, 0, 1, 1, 1, 1, 1, 1, 1), 51,
       (1, 0, 1, 7, 7, 7, 7, 7, 7, 7), -578),
    _f("1-9-a", (1, 9), (1, 0, 1, 1, 1, 1, 1, 1, 1, 1), 60,
       (2, 0, 2, 8, 8, 8, 8, 8, 8, 8), 578),
    _f("1-9-b", (1, 9), (1, 0, 1, 1, 1, 1, 1, 1, 1, 1), 60,
       (2, 0, 3, 7, 8, 8, 8, 8, 8, 8), 2588),
    _f("0-10-a", (0, 10), (1,) * 10, 69,
       (2, 2, 4, 7, 9, 9, 9, 9, 9, 9), 4398),
    _f("0-10-b", (0, 10), (1,) * 10, 69,
       (2, 2, 4, 9, 7, 9, 9, 9, 9, 9), 1440),
)

# -- prime-modulus coefficients for sizes 11 and 12 (t = 1, all-zero
#    arrangement).  The two coefficients in each pair share no odd prime
#    factor, so together they cover every odd prime modulus.

PRIME11 = (
    _f("11-a", (11,), (0,) * 11, 109,
       (9,) + (10,) * 10, -18128730243333160, HEAVY, t=1),
    _f("11-b", (11,), (0,) * 11, 109,
       (10, 9) + (10,) * 9, -46383022877233608, HEAVY, t=1),
)

PRIME12 = (
    _f("12-a", (12,), (0,) * 12, 131,
       (10,) + (11,) * 11, 2**4 * 3 * 29 * 12953077208391719881, MASSIVE, t=1),
    _f("12-b", (12,), (0,) * 12, 131,
       (11, 10) + (11,) * 10, 2**3 * 3 * 277 * 1901 * 786640832519761, MASSIVE, t=1),
)

# -- small worked examples used throughout the demos and tests.

WORKED_3_2 = _f("worked-3-2", (3, 2), (0, 1, 0, 0, 1), 6,
                (2, 0, 2, 1, 1), -1)

WORKED_5_2_FIXED = _f("worked-5-2-fixed", (5, 2), (0, 0, 1, 0, 0, 0, 1), 12,
                      (3, 3, 0, 3, 3, 0, 0), -2, fixes=(3, 6))

WORKED = (WORKED_3_2, WORKED_5_2_FIXED)

ALL_FIXTURES = TABLE1 + PRIME11 + PRIME12 + WORKED


def by_name(name: str) -> CoefficientFixture:
    for f in ALL_FIXTURES:
        if f.name == name:
            return f
    raise KeyError(name)
