"""Published reference values used by the verification suites, and the
published facts about the fitted width polynomials, stated here only.

The tables below are transcribed exactly as printed, including the known
typographical defects of the plateau table's tail: two row labels repeat
(16/17 appear twice) and a handful of entries are digit-garbled. Rows are
therefore stored as (printed_label, values) pairs; the intended lateral
area of a row is recovered from its width-1 entry, which is always
size - 1. The verification suites regenerate every value independently and
report each disagreement with these printed numbers as a
"paper-discrepancy" rather than a failure.
"""
from __future__ import annotations

from fractions import Fraction

# Column-convex polyominoes h_{k,n}: rows n = 1..10, columns k = 1..10.
CC_TABLE: tuple[tuple[int, ...], ...] = (
    (1, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (1, 1, 0, 0, 0, 0, 0, 0, 0, 0),
    (1, 4, 1, 0, 0, 0, 0, 0, 0, 0),
    (1, 9, 8, 1, 0, 0, 0, 0, 0, 0),
    (1, 16, 31, 12, 1, 0, 0, 0, 0, 0),
    (1, 25, 85, 68, 16, 1, 0, 0, 0, 0),
    (1, 36, 190, 260, 121, 20, 1, 0, 0, 0),
    (1, 49, 371, 777, 604, 190, 24, 1, 0, 0),
    (1, 64, 658, 1960, 2299, 1180, 275, 28, 1, 0),
    (1, 81, 1086, 4368, 7221, 5509, 2052, 376, 32, 1),
)

# Plateau polycubes r_{k,m}: (printed row label, values for k = 1..7), in
# print order. Labels repeat in the tail; the intended m of each row is
# values[0] + 1.
PLATEAU_ROWS: tuple[tuple[int, tuple[int, ...]], ...] = (
    (2, (1, 0, 0, 0, 0, 0, 0)),
    (3, (2, 0, 0, 0, 0, 0, 0)),
    (4, (3, 1, 0, 0, 0, 0, 0)),
    (5, (4, 8, 0, 0, 0, 0, 0)),
    (6, (5, 34, 1, 0, 0, 0, 0)),
    (7, (6, 104, 16, 0, 0, 0, 0)),
    (8, (7, 259, 126, 1, 0, 0, 0)),
    (9, (8, 560, 666, 24, 0, 0, 0)),
    (10, (9, 1092, 2701, 280, 1, 0, 0)),
    (11, (10, 1968, 9052, 2152, 32, 0, 0)),
    (12, (11, 3333, 26257, 12418, 498, 1, 0)),
    (13, (12, 5368, 68002, 57922, 5080, 40, 0)),
    (14, (13, 8294, 160732, 229048, 38567, 780, 1)),
    (15, (14, 12376, 352352, 793144, 234178, 9960, 48)),
    (16, (15, 17927, 725153, 2462851, 1191540, 94318, 1126)),
    (17, (16, 25312, 1414348, 6980624, 5249012, 710584, 17304)),
    (16, (17, 34952, 2633878, 18309136, 20506003, 4457930, 196953)),
    (17, (18, 47328, 4711448, 44921072, 72354830, 24048920, 1778848)),
    (18, (19, 62985, 8135078, 103994372, 233915707, 114248221, 13331808)),
    (19, (20, 82536, 13613804, 228782192, 7008599688, 486806272, 85565538)),
    (20, (21, 106666, 22155539, 48109488, 1964393375, 1887595700, 481457252)),
    (21, (22, 136136, 35165504, 971764880, 5190268342, 6738878720, 2418499500)),
    (22, (23, 171787, 54569064, 1893273221, 13010791823, 22364636385, 11003497968)),
    (23, (24, 214544, 82963254, 3570426344, 31111765764, 69550800504, 45877909970)),
)


def plateau_row_size(values: tuple[int, ...]) -> int:
    """Intended lateral area of a printed plateau-table row (k=1 entry + 1)."""
    return values[0] + 1


# Delannoy anti-diagonal triangle, rows 0..9 as printed.
TRIANGLE_ROWS: tuple[tuple[int, ...], ...] = (
    (1,),
    (1, 1),
    (1, 3, 1),
    (1, 5, 5, 1),
    (1, 7, 13, 7, 1),
    (1, 9, 25, 25, 9, 1),
    (1, 11, 41, 63, 41, 11, 1),
    (1, 13, 61, 129, 129, 61, 13, 1),
    (1, 15, 85, 231, 321, 231, 85, 15, 1),
    (1, 17, 113, 377, 681, 681, 377, 113, 17, 1),
)

F = Fraction

# Published polynomials for h_{k,k+i} (column-convex) and r_{k,2k+i}
# (plateau), coefficients ascending by degree. Offsets 0..2 come from the
# special-value theorems, 3..6 from the corollaries. Each polynomial is
# printed as valid for k >= offset + 1; the plateau subscripts of the
# corollary polynomials are printed as k+i but mean 2k+i (confirmed
# numerically: offset 3 at k=4 gives 2152 = r_{4,11}).
PUBLISHED_OFFSETS = range(7)
COROLLARY_OFFSETS = range(3, 7)

PUBLISHED_POLYNOMIALS: dict[str, dict[int, tuple[Fraction, ...]]] = {
    "cc": {
        0: (F(1),),
        1: (F(-4), F(4)),
        2: (F(16), F(-19), F(8)),
        3: (F(-76), F(268, 3), F(-44), F(32, 3)),
        4: (F(384), F(-2717, 6), F(1403, 6), F(-200, 3), F(32, 3)),
        5: (F(-2004), F(35522, 15), F(-3784, 3), F(1174, 3), F(-224, 3), F(128, 15)),
        6: (
            F(10672),
            F(-189503, 15),
            F(617753, 90),
            F(-13427, 6),
            F(4292, 9),
            F(-992, 15),
            F(256, 45),
        ),
    },
    "plateau": {
        0: (F(1),),
        1: (F(-8), F(8)),
        2: (F(48), F(-70), F(32)),
        3: (F(-280), F(1376, 3), F(-304), F(256, 3)),
        4: (F(1632), F(-8509, 3), F(6454, 3), F(-2624, 3), F(512, 3)),
        5: (F(-9512), F(85888, 5), F(-42104, 3), F(19888, 3), F(-5632, 3), F(4096, 15)),
        6: (
            F(55440),
            F(-1543582, 15),
            F(3971986, 45),
            F(-45444),
            F(136256, 9),
            F(-48128, 15),
            F(16384, 45),
        ),
    },
}
FITTED_FAMILIES = tuple(PUBLISHED_POLYNOMIALS)

# A fitted family's polynomial at offset i leads with LEADING_BASE[family]^i/i!.
LEADING_BASE = {"cc": 4, "plateau": 8}


def check_fitted_family(family: str) -> str:
    """The family, if the paper fits width polynomials for it, else ValueError."""
    if family not in FITTED_FAMILIES:
        raise ValueError(f"family must be 'cc' or 'plateau', got {family!r}")
    return family


def published_polynomial(family: str, offset: int) -> tuple[Fraction, ...]:
    """Published polynomial for the family at one of PUBLISHED_OFFSETS."""
    polynomials = PUBLISHED_POLYNOMIALS[check_fitted_family(family)]
    if offset not in PUBLISHED_OFFSETS:
        raise ValueError(f"no published polynomial for offset {offset}")
    return polynomials[offset]


def published_min_k(family: str, offset: int) -> int:
    """Smallest width k from which the family's polynomial at this offset
    holds: k >= offset + 1, as printed, also past the published offsets."""
    check_fitted_family(family)
    if offset < 0:
        raise ValueError(f"offset must be >= 0, got {offset}")
    return offset + 1
