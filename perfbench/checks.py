"""Expected answers, each from a route other than the one its operation
times, and the check that compares them with what a worker returned.

    table --family cc        CC_TABLE where it has the cell, else reference.py
    table (other families)   reference.py (prefix sums and convolutions)
    count_cc                 CC_TABLE where it has the cell, else reference.py
    r_gf / r_conv            the other one of the two
    s_closed / s_conv        the other one of the two
    gf_coeff(gf_S_k(k), m)   s_conv
    fit_family               the published polynomial
    count --method oracle    cc, dcc: reference.py; dplateau: s_conv; plateau: r_conv
    verify                   exit code 0, no fail record, and the documented
                             paper-discrepancy records, counted per suite
"""
from __future__ import annotations

import hashlib
from collections import Counter

import reference

# The documented paper-discrepancy records of each verify suite run here.
DISCREPANCIES = {"all": {"lemma41": 24, "tables": 11}, "lemma41": {"lemma41": 24}}


def _suite_of(check_id: str) -> str:
    if check_id.startswith("printed-formula-"):
        return "lemma41"
    if check_id.startswith("plateau-"):
        return "tables"
    return "other"


class Expectations:
    def __init__(self, polylat):
        from polylat.reference_tables import CC_TABLE

        self.polylat = polylat
        self.cc_table = {
            (k, n): row[k - 1] for n, row in enumerate(CC_TABLE, start=1) for k in range(1, len(row) + 1)
        }

    def cc(self, k: int, n: int) -> int:
        value = self.cc_table.get((k, n))
        return reference.cc_cell(k, n) if value is None else value

    def oracle_count(self, family: str, k: int, size: int) -> int:
        if family == "cc":
            return self.cc(k, size)
        if family == "dcc":
            return reference.dcc_cell(k, size)
        if family == "dplateau":
            return self.polylat.s_conv(k, size)
        return self.polylat.r_conv(k, size)

    def expected(self, op: tuple):
        kind = op[0]
        p = self.polylat
        if kind == "table":
            _, family, k_max, size_max = op
            overrides = self.cc_table if family == "cc" else None
            text = reference.table_csv(family, k_max, size_max, overrides)
            return hashlib.sha256(text.encode()).hexdigest()
        if kind == "verify":
            return DISCREPANCIES[op[1]]
        if kind in ("count", "dump"):
            return self.oracle_count(*op[1:4])
        if kind == "fit":
            _, family, offset, _, _ = op
            return [str(c) for c in p.RatPoly(p.reference_tables.published_polynomial(family, offset)).coeffs]
        _, route, k, size = op
        other = {
            "count_cc": self.cc,
            "r_gf": p.r_conv,
            "r_conv": p.r_gf,
            "s_closed": p.s_conv,
            "s_conv": p.s_closed,
            "gf_S_k": p.s_conv,
        }[route]
        return str(other(k, size))


def is_correct(op: tuple, expected, got) -> bool:
    if got is None:
        return False
    kind = op[0]
    if kind in ("api", "fit"):
        return got == expected
    if got["code"] != 0:
        return False
    if kind == "table":
        return got["sha256"] == expected
    if kind == "verify":
        flagged = got["flagged"]
        return (
            got["fail"] == 0
            and all(status == "paper-discrepancy" for _, status in flagged)
            and Counter(_suite_of(check_id) for check_id, _ in flagged) == Counter(expected)
        )
    if got["value"] != str(expected):
        return False
    if kind == "dump":
        return got["lines"] == got["distinct"] == expected and got["shape_ok"]
    return True
